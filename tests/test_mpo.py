"""MPO construction and application against dense matrices."""

import numpy as np
import pytest

from tnkit.models import (
    SX,
    SZ,
    bond_terms,
    custom_nn,
    heisenberg_xxz,
    operator_pairs,
    term_matrices,
    transverse_field_ising,
)
from tnkit.mpo import (
    MatrixProductOperator,
    _sweep_center,
    apply_mpo_exact,
    apply_mpo_variational,
    build_mpo,
    expect_mpo,
    identity_mpo,
    mpo_dagger,
    mpo_multiply,
    mpo_to_dense,
)
from tnkit.mps import inner, norm, random_mps, to_dense
from tnkit.oracle import dense_hamiltonian
from tnkit.tensor import TruncationSpec


def test_constructor_validation():
    with pytest.raises(ValueError):
        MatrixProductOperator([])
    with pytest.raises(ValueError):
        MatrixProductOperator([np.ones((1, 2, 2))])
    with pytest.raises(ValueError):
        MatrixProductOperator([np.ones((2, 2, 2, 1))])
    with pytest.raises(ValueError):
        MatrixProductOperator([np.ones((1, 2, 2, 3)), np.ones((2, 2, 2, 1))])


def test_identity_mpo():
    op = identity_mpo([2, 3, 2])
    np.testing.assert_allclose(mpo_to_dense(op), np.eye(12), atol=1e-15)
    psi = random_mps([2, 3, 2], max_bond=3, rng=0)
    out = apply_mpo_exact(op, psi)
    np.testing.assert_allclose(to_dense(out), to_dense(psi), atol=1e-14)
    assert expect_mpo(psi, op).real == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        transverse_field_ising(6, J=1.0, h=0.7),
        transverse_field_ising(6, J=-0.5, h=1.3),
        heisenberg_xxz(6, J=1.0, delta=0.5, field=0.2),
        heisenberg_xxz(5, J=-1.0, delta=2.0, field=0.0),
    ],
)
def test_build_mpo_matches_oracle(spec):
    got = mpo_to_dense(build_mpo(spec))
    want = dense_hamiltonian(spec).to_array()
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert np.max(np.abs(got - got.conj().T)) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [transverse_field_ising(6, J=1.0, h=0.7), heisenberg_xxz(6, J=1.3, delta=0.5, field=0.2)],
    ids=["tfi", "xxz"],
)
def test_real_models_have_real_mpos(spec):
    # XXZ hops through s+ s- + s- s+, so no imaginary sy enters its MPO
    op = build_mpo(spec)
    assert all(w.dtype == np.float64 for w in op.sites)
    got = mpo_to_dense(op)
    want = dense_hamiltonian(spec).to_array()
    assert np.max(np.abs(got - want)) <= 1e-14


def test_build_mpo_bond_dims():
    assert build_mpo(transverse_field_ising(7, h=0.3)).bond_dims == (3,) * 6
    assert build_mpo(heisenberg_xxz(5)).bond_dims == (5,) * 4


def test_custom_mpo_matches_tfi():
    J, h = 0.9, 0.6
    spec = custom_nn(6, two_site=-J * np.kron(SZ, SZ), one_site=-h * SX)
    got = mpo_to_dense(build_mpo(spec))
    want = dense_hamiltonian(transverse_field_ising(6, J=J, h=h)).to_array()
    np.testing.assert_allclose(got, want, atol=1e-12)
    # a single product term needs bond dimension 3
    assert build_mpo(spec).bond_dims == (3,) * 5


def test_custom_mpo_random_hermitian():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    two = (m + m.conj().T) / 2
    o = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    one = (o + o.conj().T) / 2
    spec = custom_nn(5, two_site=two, one_site=one)
    got = mpo_to_dense(build_mpo(spec))
    want = dense_hamiltonian(spec).to_array()
    np.testing.assert_allclose(got, want, atol=1e-11)


def _hermitian(d, seed, complex_=False):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(d, d)) + (1j * rng.normal(size=(d, d)) if complex_ else 0.0)
    return (m + m.conj().T) / 2


_V = np.kron([0.3, -1.0], [0.5, 2.0])

# each spec with the number of operator pairs its two-site term splits into
_ONE_DEFINITION_SPECS = {
    "tfi": (transverse_field_ising(3, J=1.0, h=0.7), 1),
    "tfi-negative-J": (transverse_field_ising(3, J=-0.8, h=1.3), 1),
    "xxz": (heisenberg_xxz(3, J=1.0, delta=1.0), 3),
    "xxz-negative-delta-field": (heisenberg_xxz(3, J=0.9, delta=-0.6, field=0.35), 3),
    "xx": (heisenberg_xxz(3, J=1.0, delta=0.0), 3),
    "xxz-negative-J": (heisenberg_xxz(3, J=-1.2, delta=0.4, field=-0.2), 3),
    "custom-real-d2": (custom_nn(3, _hermitian(4, 1), one_site=_hermitian(2, 2)), 4),
    "custom-real-d3": (custom_nn(3, _hermitian(9, 3)), 9),
    "custom-complex-d2": (
        custom_nn(3, _hermitian(4, 4, True), one_site=_hermitian(2, 5, True)),
        4,
    ),
    # the projector on a product vector: rank 1, and a single product of
    # one-site projectors across the site partition
    "custom-rank-1": (custom_nn(3, np.outer(_V, _V)), 1),
    "custom-zero": (custom_nn(3, np.zeros((4, 4))), 0),
}


@pytest.mark.parametrize(
    "spec, n_pairs", _ONE_DEFINITION_SPECS.values(), ids=_ONE_DEFINITION_SPECS.keys()
)
def test_mpo_and_bond_terms_share_one_definition(spec, n_pairs):
    # the MPO is built from operator_pairs and the bond terms from
    # term_matrices; both must describe the same two-site and one-site terms
    pairs, one = operator_pairs(spec)
    two, one_term = term_matrices(spec)
    summed = sum((np.kron(left, right) for left, right in pairs), np.zeros_like(two))
    if spec.model == "custom_nn":
        np.testing.assert_allclose(summed, two, rtol=0.0, atol=1e-13)
    else:
        np.testing.assert_array_equal(summed, two)
    np.testing.assert_array_equal(one, one_term)
    assert len(pairs) == n_pairs
    op = build_mpo(spec)
    assert op.bond_dims == (2 + n_pairs,) * 2
    want = dense_hamiltonian(spec).to_array()
    np.testing.assert_allclose(mpo_to_dense(op), want, rtol=0.0, atol=1e-12)


def test_bond_terms_reassemble_hamiltonian():
    for spec in (
        transverse_field_ising(5, J=0.8, h=0.4),
        heisenberg_xxz(4, J=1.1, delta=0.3, field=0.5),
    ):
        n, d = spec.n_sites, spec.phys_dim
        total = np.zeros((d**n, d**n), dtype=complex)
        for b, term in enumerate(bond_terms(spec)):
            total += np.kron(
                np.eye(d**b), np.kron(term, np.eye(d ** (n - b - 2)))
            )
        want = dense_hamiltonian(spec).to_array()
        np.testing.assert_allclose(total, want, atol=1e-12)


def test_expect_mpo_matches_dense():
    spec = transverse_field_ising(6, h=0.9)
    op = build_mpo(spec)
    h = dense_hamiltonian(spec).to_array()
    psi = random_mps([2] * 6, max_bond=5, rng=3)
    v = to_dense(psi)
    want = np.vdot(v, h @ v).real
    assert expect_mpo(psi, op).real == pytest.approx(want, abs=1e-11)
    # a random complex operator, so the value has both parts
    rng = np.random.default_rng(4)
    shapes = [(1, 2, 2, 3)] + [(3, 2, 2, 3)] * 4 + [(3, 2, 2, 1)]
    op = MatrixProductOperator([rng.normal(size=sh) + 1j * rng.normal(size=sh) for sh in shapes])
    want = np.vdot(v, mpo_to_dense(op) @ v) / np.vdot(v, v)
    assert abs(want.imag) > 1e-3 * abs(want)
    assert abs(expect_mpo(psi, op) - want) <= 1e-13 * abs(want)


def _env_by_einsum(env, side, k):
    """``env.left[k]`` or ``env.right[k]`` contracted by einsum from its
    bra, operator and ket sites."""
    n = len(env.op)
    if side == "left":
        order, sites = "awk,aob,wosv,ksc->bvc", range(k)
    else:
        order, sites = "bvc,aob,wosv,ksc->awk", range(n - 1, k - 1, -1)
    out = np.ones((1, 1, 1))
    for j in sites:
        out = np.einsum(order, out, env.bra[j].conj(), env.op[j], env.ket[j])
    return out


@pytest.mark.parametrize(
    "spec, dtype",
    [
        (transverse_field_ising(7, h=0.9), float),
        (heisenberg_xxz(7, J=1.0, delta=0.7, field=0.2), complex),
    ],
    ids=["tfi-real", "xxz-complex"],
)
def test_grown_environments_match_a_direct_contraction(spec, dtype, monkeypatch):
    """A DMRG sweep with one penalized state: every environment that the
    sweep grows from a site operator's product equals the same environment
    contracted directly by einsum, so no product is reused after the
    environment it was built from changed. Each product is built once per
    update."""
    import tnkit.mpo as mpo_module
    from tnkit.dmrg import _Workspace

    builds = []
    for name in ("_left_product", "_right_product"):
        real = getattr(mpo_module, name)
        monkeypatch.setattr(
            mpo_module, name, lambda *args, real=real: builds.append(1) or real(*args)
        )
    n = spec.n_sites
    op = build_mpo(spec)
    psi = random_mps([2] * n, max_bond=6, rng=2, dtype=dtype)
    lower = random_mps([2] * n, max_bond=4, rng=3, dtype=dtype)
    ws = _Workspace(op, list(psi.sites), [lower], 3.0)
    envs = [ws.env, *ws.penalties]

    def check(side, ks):
        for env in envs:
            for k in ks:
                want = _env_by_einsum(env, side, k)
                got = getattr(env, side)[k]
                assert got.dtype == want.dtype
                assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    check("right", range(1, n + 1))
    builds.clear()

    def update(k, start, rightward):
        if k == n - 1:  # the turn: every left environment is in use
            check("left", range(n))
        _, vec, _ = ws.solve_site(k, rightward, start(), 30, 1e-12)
        ws.sites[k] = vec

    _sweep_center(ws.sites, envs, update)
    check("right", range(1, n + 1))
    assert len(builds) == len(envs) * (2 * n - 1)


def test_mpo_dagger_and_multiply():
    spec = heisenberg_xxz(4, J=0.7, delta=1.4, field=0.3)
    op = build_mpo(spec)
    m = mpo_to_dense(op)
    np.testing.assert_allclose(mpo_to_dense(mpo_dagger(op)), m.conj().T, atol=1e-12)
    np.testing.assert_allclose(mpo_to_dense(mpo_multiply(op, op)), m @ m, atol=1e-11)
    assert mpo_multiply(op, op).bond_dims == (25,) * 3


def test_apply_mpo_exact_matches_dense():
    spec = transverse_field_ising(5, h=1.2)
    op = build_mpo(spec)
    psi = random_mps([2] * 5, max_bond=3, rng=7)
    out = apply_mpo_exact(op, psi)
    want = mpo_to_dense(op) @ to_dense(psi)
    np.testing.assert_allclose(to_dense(out), want, atol=1e-12)
    assert out.bond_dims == tuple(3 * b for b in psi.bond_dims)


def test_variational_apply_full_rank_is_exact():
    spec = transverse_field_ising(6, h=0.8)
    op = build_mpo(spec)
    psi = random_mps([2] * 6, max_bond=4, rng=9)
    out, residual, trace = apply_mpo_variational(op, psi, TruncationSpec(max_bond=12))
    assert trace.converged
    assert residual < 1e-10
    want = mpo_to_dense(op) @ to_dense(psi)
    np.testing.assert_allclose(to_dense(out), want, atol=1e-9)


def test_variational_apply_truncated_behaves():
    spec = heisenberg_xxz(8, J=1.0, delta=0.8)
    op = build_mpo(spec)
    psi = random_mps([2] * 8, max_bond=8, rng=11)
    out, residual, trace = apply_mpo_variational(op, psi, TruncationSpec(max_bond=6))
    assert max(out.bond_dims) <= 6
    assert 0.0 < residual < 1.0
    # residual trace never increases between sweeps
    for a, b in zip(trace.residuals, trace.residuals[1:]):
        assert b <= a + 1e-12
    # the fit is at least as good as plain truncation of the exact product
    target = mpo_to_dense(op) @ to_dense(psi)
    fit_err = np.linalg.norm(to_dense(out) - target) / np.linalg.norm(target)
    assert fit_err == pytest.approx(residual, abs=1e-8)


def test_variational_apply_matches_pinned_fit():
    # literals from the three-tensordot contraction that preceded the shared
    # site operator: the fit must follow the same path to rounding
    op = build_mpo(transverse_field_ising(7, h=0.7))
    psi = random_mps([2] * 7, max_bond=5, rng=3)
    out, residual, trace = apply_mpo_variational(op, psi, TruncationSpec(max_bond=4))
    assert trace.converged
    want = [
        0.20302204772561835,
        0.20302157794659467,
        0.20302156380152528,
        0.203021563333009,
        0.20302156331651486,
        0.2030215633159041,
    ]
    np.testing.assert_allclose(trace.residuals, want, rtol=0, atol=1e-12)
    amplitudes = [
        -0.20901213302439847 - 0.33208662805799416j,
        -0.7669793700405266 - 0.05263535626967598j,
        0.014861038385788112 - 0.17650923841920593j,
    ]
    np.testing.assert_allclose(to_dense(out)[[0, 37, 101]], amplitudes, rtol=0, atol=1e-12)
    assert abs(inner(psi, out) - (-0.3809627155052062 - 0.014435456429434085j)) < 1e-12


def _count_absorbs(monkeypatch):
    import tnkit.mpo as mpo_module

    calls = []
    for name in ("_absorb_left", "_absorb_right"):
        real = getattr(mpo_module, name)
        monkeypatch.setattr(
            mpo_module, name, lambda *args, real=real: calls.append(1) or real(*args)
        )
    return calls


def test_variational_sweep_skips_the_factor_it_overwrites(monkeypatch):
    # the fit replaces each site unread, so the sweep never contracts the
    # QR/RQ factor into it
    calls = _count_absorbs(monkeypatch)
    op = build_mpo(transverse_field_ising(7, h=0.7))
    psi = random_mps([2] * 7, max_bond=5, rng=3)
    _, _, trace = apply_mpo_variational(op, psi, TruncationSpec(max_bond=4))
    assert len(trace.residuals) > 1
    assert calls == []


def test_dmrg_sweep_seeds_every_solve_with_the_pushed_factor(monkeypatch):
    from tnkit.dmrg import DmrgConfig, ground_state

    calls = _count_absorbs(monkeypatch)
    n = 6
    _, _, trace = ground_state(build_mpo(transverse_field_ising(n, h=0.9)), DmrgConfig(max_bond=4))
    # one absorbed factor per local solve but the first of each sweep
    assert len(calls) == trace.n_sweeps * 2 * (n - 1)


def test_variational_apply_rejects_zero_target():
    psi = random_mps([2] * 3, max_bond=2, rng=1)
    zero = MatrixProductOperator(
        [np.zeros((1, 2, 2, 1), dtype=complex) for _ in range(3)]
    )
    with pytest.raises(ValueError):
        apply_mpo_variational(zero, psi, TruncationSpec(max_bond=2))
