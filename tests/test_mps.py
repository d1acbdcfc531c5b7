"""Matrix product state behavior against dense linear algebra."""

import math

import numpy as np
import pytest

from tnkit.mps import (
    MatrixProductState,
    _orth_left_step,
    _orth_right_step,
    bond_caps,
    canonical_residual,
    canonicalize,
    compress,
    correlator,
    entanglement_entropy,
    expect_local,
    expect_profile,
    gauge_transform,
    inner,
    norm,
    product_state,
    random_mps,
    schmidt_spectrum,
    to_dense,
)
from tnkit.models import SX, SZ
from tnkit.tensor import TruncationSpec

UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])


def ghz(n):
    """(|00...0> + |11...1>)/sqrt(2) as an explicit bond-2 MPS."""
    first = np.zeros((1, 2, 2), dtype=complex)
    first[0, 0, 0] = first[0, 1, 1] = 1.0 / np.sqrt(2)
    mid = np.zeros((2, 2, 2), dtype=complex)
    mid[0, 0, 0] = mid[1, 1, 1] = 1.0
    last = np.zeros((2, 2, 1), dtype=complex)
    last[0, 0, 0] = last[1, 1, 0] = 1.0
    return MatrixProductState([first] + [mid] * (n - 2) + [last])


def dense_ghz(n):
    v = np.zeros(2**n, dtype=complex)
    v[0] = v[-1] = 1.0 / np.sqrt(2)
    return v


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_constructor_validation():
    ok = np.ones((1, 2, 1), dtype=complex)
    with pytest.raises(ValueError):
        MatrixProductState([])
    with pytest.raises(ValueError):
        MatrixProductState([np.ones((2, 2))])
    with pytest.raises(ValueError):
        MatrixProductState([np.ones((2, 2, 1))])  # left boundary not 1
    with pytest.raises(ValueError):
        MatrixProductState([np.ones((1, 2, 3)), np.ones((2, 2, 1))])  # bond mismatch
    with pytest.raises(ValueError):
        MatrixProductState([ok], center=1)
    MatrixProductState([ok], center=0)


def test_product_state_matches_kron():
    v0 = np.array([0.6, 0.8j])
    v1 = np.array([1.0, 1.0]) / np.sqrt(2)
    v2 = np.array([0.0, 1.0])
    psi = product_state([v0, v1, v2])
    want = np.kron(np.kron(v0, v1), v2)
    np.testing.assert_allclose(to_dense(psi), want, atol=1e-14)
    assert psi.bond_dims == (1, 1)


def test_product_state_rejects_matrix_input():
    with pytest.raises(ValueError):
        product_state([np.eye(2)])


def test_dense_index_order_site0_most_significant():
    psi = product_state([UP, DOWN])  # |0>|1> -> basis index 1
    v = to_dense(psi)
    assert abs(v[1] - 1.0) < 1e-14
    assert np.linalg.norm(v) == pytest.approx(1.0)


def test_random_mps_profile_and_norm():
    psi = random_mps([2] * 6, max_bond=5, rng=7)
    assert psi.bond_dims == (2, 4, 5, 4, 2)
    assert random_mps([2, 5, 3, 1, 4, 2], max_bond=7, rng=1).bond_dims == (2, 7, 7, 7, 2)
    assert psi.center == 0
    assert norm(psi) == pytest.approx(1.0, abs=1e-12)
    assert canonical_residual(psi) < 1e-12
    again = random_mps([2] * 6, max_bond=5, rng=7)
    for a, b in zip(psi.sites, again.sites):
        np.testing.assert_array_equal(a, b)
    other = random_mps([2] * 6, max_bond=5, rng=8)
    assert abs(abs(inner(psi, other)) - 1.0) > 1e-3


@pytest.mark.parametrize(
    "phys_dims, max_bond",
    [
        ((3,), 4),
        ((2, 5, 3, 4, 2, 7), 9),
        ((4, 1, 2, 3, 1, 5, 2), 1000),
        ((2, 3) * 100, 64),  # the products pass 2^62 mid-chain
        ((2, 3) * 100, 2**70),  # every bond is capped by d^k or d^(N-k) alone
    ],
)
def test_bond_caps_match_the_exact_formula(phys_dims, max_bond):
    n = len(phys_dims)
    expected = [
        min(max_bond, math.prod(phys_dims[: b + 1]), math.prod(phys_dims[b + 1 :]))
        for b in range(n - 1)
    ]
    caps = bond_caps(phys_dims, max_bond)
    assert caps == expected
    assert all(type(c) is int for c in caps)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [float, complex])
def test_orth_steps_keep_the_state_and_leave_isometries(dtype):
    rng = np.random.default_rng(21)
    # unequal bond extents on both sides of every moved site
    shapes = [(1, 2, 3), (3, 3, 5), (5, 2, 4), (4, 3, 2), (2, 2, 1)]

    def draw(shape):
        a = rng.normal(size=shape)
        return a + 1j * rng.normal(size=shape) if dtype is complex else a

    sites = [draw(sh) for sh in shapes]
    want = to_dense(MatrixProductState(sites))
    for k in range(2):
        _orth_left_step(sites, k)
        dl, d, dr = sites[k].shape
        m = sites[k].reshape(dl * d, dr)
        np.testing.assert_allclose(m.conj().T @ m, np.eye(dr), rtol=0, atol=1e-13)
    for k in range(4, 2, -1):
        _orth_right_step(sites, k)
        dl, d, dr = sites[k].shape
        m = sites[k].reshape(dl, d * dr)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(dl), rtol=0, atol=1e-13)
    got = to_dense(MatrixProductState(sites))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.linalg.norm(want))
    assert all(a.dtype == np.dtype(dtype) for a in sites)
    assert canonical_residual(MatrixProductState(sites, center=2)) < 1e-13


def test_canonicalize_every_center_preserves_state():
    psi = random_mps([2] * 5, max_bond=4, rng=1)
    v = to_dense(psi)
    for c in range(5):
        can = canonicalize(psi, c)
        assert can.center == c
        assert canonical_residual(can) < 1e-10
        np.testing.assert_allclose(to_dense(can), v, atol=1e-12)


def test_canonicalize_incremental_matches_fresh():
    psi = random_mps([3] * 4, max_bond=6, rng=2)
    moved = canonicalize(canonicalize(psi, 3), 1)
    fresh = canonicalize(psi, 1)
    np.testing.assert_allclose(to_dense(moved), to_dense(fresh), atol=1e-12)
    assert canonical_residual(moved) < 1e-10


def test_canonicalize_handles_unnormalized_and_uncentered():
    rng = np.random.default_rng(3)
    sites = [
        rng.normal(size=(1, 2, 3)) + 1j * rng.normal(size=(1, 2, 3)),
        rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)),
        rng.normal(size=(2, 2, 1)) + 1j * rng.normal(size=(2, 2, 1)),
    ]
    psi = MatrixProductState(sites)
    assert psi.center is None
    v = to_dense(psi)
    can = canonicalize(psi, 2)
    np.testing.assert_allclose(to_dense(can), v, atol=1e-12)
    assert norm(can) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_norm_agrees_between_paths():
    psi = random_mps([2] * 4, max_bond=3, rng=4)
    scaled = MatrixProductState([psi.sites[0] * 2.5] + list(psi.sites[1:]))
    assert norm(scaled) == pytest.approx(2.5, rel=1e-12)
    assert norm(canonicalize(scaled, 2)) == pytest.approx(2.5, rel=1e-12)


# ---------------------------------------------------------------------------
# overlaps and observables
# ---------------------------------------------------------------------------


def test_inner_matches_dense():
    a = random_mps([2] * 5, max_bond=4, rng=5)
    b = random_mps([2] * 5, max_bond=3, rng=6)
    want = np.vdot(to_dense(a), to_dense(b))
    got = inner(a, b)
    assert abs(got - want) < 1e-12
    assert abs(inner(b, a) - np.conj(got)) < 1e-12
    assert inner(a, a).real == pytest.approx(1.0, abs=1e-12)


def test_inner_rejects_mismatched_lattices():
    a = random_mps([2] * 3, max_bond=2, rng=0)
    b = random_mps([2] * 4, max_bond=2, rng=0)
    with pytest.raises(ValueError):
        inner(a, b)
    c = random_mps([3] * 3, max_bond=2, rng=0)
    with pytest.raises(ValueError):
        inner(a, c)


def test_expect_local_matches_dense():
    psi = random_mps([2] * 6, max_bond=5, rng=9)
    v = to_dense(psi)
    for site in (0, 2, 5):
        op = np.kron(np.eye(2**site), np.kron(SZ, np.eye(2 ** (5 - site))))
        want = np.vdot(v, op @ v).real
        got = expect_local(psi, SZ, site)
        assert abs(got.imag) < 1e-12
        assert got.real == pytest.approx(want, abs=1e-12)


def _count_factorizations(monkeypatch):
    import tnkit.mps as mps_module

    calls = []
    for name in ("qr_matrix", "rq_matrix", "svd_matrix"):
        real = getattr(mps_module, name)
        monkeypatch.setattr(mps_module, name, lambda *a, real=real: calls.append(1) or real(*a))
    return calls


def _unnormalized_state(center, seed):
    """A random 7-site state, scaled away from norm 1 on purpose."""
    psi = random_mps([2] * 7, max_bond=6, rng=np.random.default_rng(seed))
    if center is None:
        return MatrixProductState([a * 1.3 for a in psi.sites], center=None)
    psi = canonicalize(psi, center)
    work = list(psi.sites)
    work[center] = work[center] * 2.5
    return MatrixProductState(work, center=center)


@pytest.mark.parametrize("center", [0, 3, 6])
def test_expect_local_on_centered_state_needs_no_qr(monkeypatch, center):
    psi = _unnormalized_state(center, seed=center)
    v = to_dense(psi)
    ops = [SZ, SX, np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -1.2]])]
    want = {}
    for site in range(7):
        for i, op in enumerate(ops):
            full = np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (6 - site))))
            want[site, i] = np.vdot(v, full @ v) / np.vdot(v, v)
    calls = _count_factorizations(monkeypatch)
    for (site, i), value in want.items():
        assert expect_local(psi, ops[i], site) == pytest.approx(value, abs=1e-12)
    assert calls == []
    # the same state without a center makes no factorization either
    uncentered = MatrixProductState(psi.sites, center=None)
    assert expect_local(uncentered, SZ, 3) == pytest.approx(want[3, 0], abs=1e-12)
    assert calls == []


def test_measurements_take_array_like_operators():
    # an operator written as nested tuples or lists is the array it spells,
    # and is checked against its site's physical dimension like one
    psi = _unnormalized_state(3, seed=5)
    sz, sx = ((1, 0), (0, -1)), [[0, 1], [1, 0]]
    assert expect_local(psi, sz, 2) == pytest.approx(_dense_local(psi, SZ, 2), abs=1e-12)
    np.testing.assert_allclose(
        expect_profile(psi, sz), [_dense_local(psi, SZ, k) for k in range(7)], rtol=0, atol=1e-12
    )
    assert correlator(psi, sz, 1, sx, 4) == pytest.approx(correlator(psi, SZ, 1, SX, 4), abs=1e-14)
    assert correlator(psi, sz, 2, sx, 2) == pytest.approx(
        _dense_local(psi, SZ @ SX, 2), abs=1e-12
    )
    for bad in (((1, 0, 0), (0, -1, 0)), (1, -1)):
        with pytest.raises(ValueError, match="operator must be 2 x 2"):
            expect_local(psi, bad, 2)
        with pytest.raises(ValueError, match="operator must be 2 x 2"):
            correlator(psi, SZ, 1, bad, 4)
    with pytest.raises(ValueError, match="site 7 out of range"):
        expect_local(psi, sz, 7)


def _count_transfers(monkeypatch):
    import tnkit.mps as mps_module

    closes = []
    for name in ("_close_left", "_close_right"):
        real = getattr(mps_module, name)
        monkeypatch.setattr(mps_module, name, lambda a, t, real=real: closes.append(1) or real(a, t))
    return closes


def _dense_local(psi, op, site):
    """<op_site> / <psi|psi> from the dense state vector."""
    v = to_dense(psi)
    n = psi.n_sites
    full = np.kron(np.eye(2**site), np.kron(op, np.eye(2 ** (n - 1 - site))))
    return np.vdot(v, full @ v) / np.vdot(v, v)


@pytest.mark.parametrize("center", [0, 3, 6, None])
def test_expect_profile_matches_expect_local(monkeypatch, center):
    # both run the center walk, so the reference is the dense vector
    psi = _unnormalized_state(center, seed=40)
    ops = [SZ, SX, np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -1.2]])]
    want = [[_dense_local(psi, op, site) for site in range(7)] for op in ops]
    calls = _count_factorizations(monkeypatch)
    for op, w in zip(ops, want):
        got = expect_profile(psi, op)
        assert got.shape == (7,)
        np.testing.assert_allclose(got, w, rtol=0, atol=1e-12)
        local = [expect_local(psi, op, site) for site in range(7)]
        np.testing.assert_allclose(got, local, rtol=0, atol=1e-14)
    assert calls == []


@pytest.mark.parametrize("center", [0, 3, 6])
@pytest.mark.parametrize("sites", [(3,), (1, 1, 5), (0, 6), (4, 2), (5, 6), (0, 1)])
def test_walk_transfers_only_between_the_center_and_its_outermost_terms(
    monkeypatch, center, sites
):
    import tnkit.mps as mps_module

    psi = _unnormalized_state(center, seed=60 + center)
    op_c = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -1.2]])
    terms = [{site: (SX, SZ, op_c)[i % 3]} for i, site in enumerate(sites)]
    want = [_dense_local(psi, op, site) for term in terms for site, op in term.items()]
    closes = _count_transfers(monkeypatch)
    calls = _count_factorizations(monkeypatch)
    values, n2 = mps_module._walk(psi, [{k: (1, op) for k, op in t.items()} for t in terms])
    np.testing.assert_allclose(values / n2, want, rtol=0, atol=1e-12)
    assert len(closes) == max(max(sites), center) - min(min(sites), center)
    assert calls == []


@pytest.mark.parametrize("sites", [(3,), (1, 1, 5), (0, 6), (4, 2), (5, 6), (0, 1), ()])
def test_walk_without_a_center_runs_in_from_both_ends(monkeypatch, sites):
    import tnkit.mps as mps_module

    psi = _unnormalized_state(None, seed=70)
    v = to_dense(psi)
    terms = [{site: (SX, SZ)[i % 2]} for i, site in enumerate(sites)]
    want = [_dense_local(psi, op, site) for term in terms for site, op in term.items()]
    closes = _count_transfers(monkeypatch)
    calls = _count_factorizations(monkeypatch)
    values, n2 = mps_module._walk(psi, [{k: (1, op) for k, op in t.items()} for t in terms])
    assert n2 == pytest.approx(np.vdot(v, v).real, rel=1e-13)
    np.testing.assert_allclose(values / n2, want, rtol=0, atol=1e-12)
    # left environments from site 0 to the rightmost term, right ones from
    # site 6 to the leftmost (the norm alone: from site 6 to site 0)
    assert len(closes) == max(sites, default=0) + 6 - min(sites, default=0)
    assert calls == []


def test_expect_profile_validation():
    psi = product_state([UP, UP])
    with pytest.raises(ValueError):
        expect_profile(psi, np.eye(3))
    zero = MatrixProductState([np.zeros((1, 2, 1))] * 2, center=0)
    with pytest.raises(ValueError):
        expect_profile(zero, SZ)


@pytest.mark.parametrize("center", [0, 3, 6])
def test_correlator_on_centered_state_needs_no_qr(monkeypatch, center):
    psi = _unnormalized_state(center, seed=50 + center)
    v = to_dense(psi)
    op_b = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -1.2]])
    pairs = [(0, 6), (1, 2), (2, 5), (4, 6), (3, 4), (5, 1)]
    want = {}
    for i, j in pairs:
        full = [np.eye(2)] * 7
        full[i], full[j] = SX, op_b
        m = full[0]
        for f in full[1:]:
            m = np.kron(m, f)
        want[i, j] = np.vdot(v, m @ v) / np.vdot(v, v)
    calls = _count_factorizations(monkeypatch)
    for (i, j), value in want.items():
        assert abs(correlator(psi, SX, i, op_b, j) - value) < 1e-12
    assert calls == []


def test_correlator_without_a_center_needs_no_factorization(monkeypatch):
    psi = _unnormalized_state(None, seed=55)
    v = to_dense(psi)
    op_b = np.array([[0.3, 1.0 - 0.5j], [1.0 + 0.5j, -1.2]])
    calls = _count_factorizations(monkeypatch)
    for i, j in [(0, 6), (1, 2), (2, 5), (4, 6), (3, 3), (5, 1)]:
        full = [np.eye(2)] * 7
        full[i] = SX
        full[j] = full[j] @ op_b
        m = full[0]
        for f in full[1:]:
            m = np.kron(m, f)
        want = np.vdot(v, m @ v) / np.vdot(v, v)
        assert abs(correlator(psi, SX, i, op_b, j) - want) < 1e-12
    assert calls == []


def test_expect_local_normalizes():
    psi = product_state([UP, DOWN])
    scaled = MatrixProductState([psi.sites[0] * 3.0, psi.sites[1]])
    assert expect_local(scaled, SZ, 0).real == pytest.approx(1.0, abs=1e-14)
    assert expect_local(scaled, SZ, 1).real == pytest.approx(-1.0, abs=1e-14)


def test_expect_local_validation():
    psi = product_state([UP, UP])
    with pytest.raises(ValueError):
        expect_local(psi, SZ, 2)
    with pytest.raises(ValueError):
        expect_local(psi, np.eye(3), 0)


def test_ghz_correlations():
    psi = ghz(6)
    np.testing.assert_allclose(to_dense(psi), dense_ghz(6), atol=1e-14)
    for j in range(1, 6):
        assert correlator(psi, SZ, 0, SZ, j).real == pytest.approx(1.0, abs=1e-12)
    assert expect_local(psi, SZ, 3).real == pytest.approx(0.0, abs=1e-12)
    assert expect_local(psi, SX, 3).real == pytest.approx(0.0, abs=1e-12)


def test_correlator_matches_dense():
    psi = random_mps([2] * 6, max_bond=4, rng=11)
    v = to_dense(psi)

    def dense_corr(i, j, opi, opj):
        full = [np.eye(2)] * 6
        full[i] = full[i] @ opi
        full[j] = full[j] @ opj
        m = full[0]
        for f in full[1:]:
            m = np.kron(m, f)
        return np.vdot(v, m @ v)

    assert abs(correlator(psi, SZ, 1, SX, 4) - dense_corr(1, 4, SZ, SX)) < 1e-12
    # reversed site order: operators on distinct sites commute
    assert abs(correlator(psi, SX, 4, SZ, 1) - dense_corr(1, 4, SZ, SX)) < 1e-12
    # equal sites multiply in the given order
    assert abs(correlator(psi, SZ, 2, SZ, 2).real - 1.0) < 1e-12
    got = correlator(psi, SZ, 3, SX, 3)
    want = np.vdot(v, np.kron(np.eye(8), np.kron(SZ @ SX, np.eye(4))) @ v)
    assert abs(got - want) < 1e-12


# ---------------------------------------------------------------------------
# spectra and entropy
# ---------------------------------------------------------------------------


def test_ghz_schmidt_and_entropy():
    psi = ghz(5)
    for bond in range(4):
        s = schmidt_spectrum(psi, bond)
        np.testing.assert_allclose(s, [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert entanglement_entropy(psi, bond) == pytest.approx(np.log(2), abs=1e-12)


def test_product_state_entropy_zero():
    psi = product_state([UP, DOWN, UP])
    assert entanglement_entropy(psi, 0) == pytest.approx(0.0, abs=1e-12)
    assert entanglement_entropy(psi, 1) == pytest.approx(0.0, abs=1e-12)


def test_schmidt_matches_dense_svd():
    psi = random_mps([2] * 6, max_bond=5, rng=12)
    v = to_dense(psi)
    for bond in (0, 2, 4):
        want = np.linalg.svd(v.reshape(2 ** (bond + 1), -1), compute_uv=False)
        got = schmidt_spectrum(psi, bond)
        want = want[: got.size]
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_entropy_bounded_by_log_bond():
    for seed in range(5):
        psi = random_mps([2] * 7, max_bond=6, rng=seed)
        for bond, extent in enumerate(psi.bond_dims):
            assert entanglement_entropy(psi, bond) <= np.log(extent) + 1e-10


def test_spectrum_bond_range():
    psi = random_mps([2] * 3, max_bond=2, rng=0)
    with pytest.raises(ValueError):
        schmidt_spectrum(psi, 2)
    with pytest.raises(ValueError):
        schmidt_spectrum(psi, -1)


# ---------------------------------------------------------------------------
# gauge freedom
# ---------------------------------------------------------------------------


def test_gauge_transform_is_invisible():
    psi = random_mps([2] * 5, max_bond=4, rng=13)
    v = to_dense(psi)
    rng = np.random.default_rng(14)
    out = psi
    for bond in (0, 2, 3):
        dim = out.sites[bond].shape[2]
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        out = gauge_transform(out, bond, x)
    assert out.center is None
    np.testing.assert_allclose(to_dense(out), v, atol=1e-9)
    assert expect_local(out, SZ, 2).real == pytest.approx(
        expect_local(psi, SZ, 2).real, abs=1e-9
    )


def test_gauge_transform_validation():
    psi = random_mps([2] * 4, max_bond=4, rng=15)
    dim = psi.sites[1].shape[2]
    with pytest.raises(ValueError):
        gauge_transform(psi, 1, np.zeros((dim, dim)))  # singular
    with pytest.raises(ValueError):
        gauge_transform(psi, 1, np.eye(dim + 1))  # wrong shape
    with pytest.raises(ValueError):
        gauge_transform(psi, 3, np.eye(1))  # no such bond


# ---------------------------------------------------------------------------
# compression
# ---------------------------------------------------------------------------


def test_compress_full_rank_is_exact():
    psi = random_mps([2] * 6, max_bond=8, rng=16)
    out, discarded = compress(psi, TruncationSpec(max_bond=8))
    assert discarded == 0.0
    np.testing.assert_allclose(to_dense(out), to_dense(psi), atol=1e-12)
    assert out.center == 5
    assert canonical_residual(out) < 1e-10


def test_compress_ghz_to_product():
    psi = ghz(2)
    out, discarded = compress(psi, TruncationSpec(max_bond=1))
    assert discarded == pytest.approx(0.5, abs=1e-12)
    assert out.bond_dims == (1,)
    assert norm(out) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    renorm, discarded2 = compress(
        psi, TruncationSpec(max_bond=1, norm_policy="renormalize")
    )
    assert discarded2 == pytest.approx(0.5, abs=1e-12)
    assert norm(renorm) == pytest.approx(1.0, abs=1e-12)


def test_compress_fidelity_tracks_discarded_weight():
    psi = random_mps([2] * 8, max_bond=12, rng=17)
    out, discarded = compress(psi, TruncationSpec(max_bond=4, norm_policy="keep"))
    assert 0.0 < discarded < 0.5
    overlap = abs(inner(psi, out)) ** 2 / inner(out, out).real
    assert overlap == pytest.approx(1.0 - discarded, abs=0.1 * discarded)
    assert max(out.bond_dims) <= 4


def test_compress_rel_cutoff_drops_tiny_bonds():
    # a product state padded to bond dimension 3 must compress back to 1
    psi = product_state([UP, DOWN, UP])
    rng = np.random.default_rng(18)
    work = []
    bonds = [1, 3, 3, 1]
    for k, a in enumerate(psi.sites):
        pad = np.zeros((bonds[k], 2, bonds[k + 1]), dtype=complex)
        pad[: a.shape[0], :, : a.shape[2]] = a
        pad += 1e-13 * (rng.normal(size=pad.shape))
        work.append(pad)
    padded = MatrixProductState(work)
    out, discarded = compress(padded, TruncationSpec(max_bond=3, rel_cutoff=1e-10))
    assert out.bond_dims == (1, 1)
    assert discarded < 1e-20
