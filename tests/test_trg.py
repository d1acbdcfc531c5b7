"""Coarse graining of the 2D Ising model against brute force and the
exact infinite-lattice free energy."""

import numpy as np
import pytest

from tnkit.models import ClassicalModelSpec
from tnkit.oracle import ising_brute_force, onsager_f
from tnkit.tensor import TruncationSpec
from tnkit.trg import (
    _merge_isometry,
    _merge_vertical,
    _split,
    _top_eigh,
    build_plaquette_tensor,
    coarse_grain,
    free_energy_density,
    hotrg_step,
    initial_state,
    torus_trace,
    trg_step,
)

FULL = TruncationSpec(max_bond=64)
BETA_C = 0.4406867935097715

# per-step free energies at beta_c, max_bond 32, n_iters 7, as computed by
# full SVD / full eigh before the top-k eigensolver replaced them
PINNED_FLOWS = {
    "trg": (
        -2.8193568384446035,
        -2.4859076214730687,
        -2.28929769613372,
        -2.201381412966471,
        -2.154868555415273,
        -2.132387235934684,
        -2.1209841907511633,
    ),
    "hotrg": (
        -2.9660992533934856,
        -2.48590762147307,
        -2.326463622233654,
        -2.2013814129664726,
        -2.161115098034319,
        -2.1323879864635975,
        -2.1223043516072146,
    ),
}


def lnz_per_site_torus(length, beta):
    return np.log(ising_brute_force(length, beta)) / length**2


def test_plaquette_tensor_closes_to_small_tori():
    for beta in (0.2, 0.44, 0.9):
        t = build_plaquette_tensor(ClassicalModelSpec(beta=beta))
        assert t.dtype == np.float64
        z1 = np.einsum("ulul->", t)
        assert z1 == pytest.approx(ising_brute_force(1, beta), rel=1e-12)
        #   a   c          bonds: i,j horizontal; a,b,c,d vertical
        #  i t j t i   ...with both directions wrapped
        z4 = np.einsum("aibj,cjdi,bkal,dlck->", t, t, t, t)
        assert z4 == pytest.approx(ising_brute_force(2, beta), rel=1e-12)


def test_plaquette_tensor_splits_bond_weight_symmetrically():
    beta = 0.6
    x = beta * 1.0
    m = np.array([[np.exp(x), np.exp(-x)], [np.exp(-x), np.exp(x)]])
    w, v = np.linalg.eigh(m)
    root = (v * np.sqrt(w)) @ v.T
    np.testing.assert_allclose(root @ root, m, atol=1e-14)
    np.testing.assert_allclose(root, root.T, atol=1e-14)


def test_ferromagnetic_coupling_required():
    with pytest.raises(ValueError):
        build_plaquette_tensor(ClassicalModelSpec(beta=0.5, J=-1.0))


def test_two_exact_plaquette_steps_give_2x2_torus():
    for beta in (0.25, 0.44, 0.8):
        state = initial_state(ClassicalModelSpec(beta=beta))
        state, w1 = trg_step(state, FULL)
        state, w2 = trg_step(state, FULL)
        assert w1 == 0.0 and w2 == 0.0
        assert state.sites_represented == 4
        got = -beta * free_energy_density(state, beta)
        assert got == pytest.approx(lnz_per_site_torus(2, beta), abs=1e-12)


def test_exact_merging_steps_give_square_tori():
    for beta in (0.25, 0.44, 0.8):
        state = initial_state(ClassicalModelSpec(beta=beta))
        state, _ = hotrg_step(state, FULL, "v")
        state, _ = hotrg_step(state, FULL, "h")
        got = -beta * free_energy_density(state, beta)
        assert got == pytest.approx(lnz_per_site_torus(2, beta), abs=1e-12)
        state, _ = hotrg_step(state, FULL, "v")
        state, _ = hotrg_step(state, FULL, "h")
        got = -beta * free_energy_density(state, beta)
        assert got == pytest.approx(lnz_per_site_torus(4, beta), abs=1e-12)
        assert state.sites_represented == 16


def test_step_validation():
    state = initial_state(ClassicalModelSpec(beta=0.4))
    with pytest.raises(ValueError):
        hotrg_step(state, FULL, "x")
    with pytest.raises(ValueError):
        coarse_grain(ClassicalModelSpec(beta=0.4), method="dmrg")
    with pytest.raises(ValueError):
        coarse_grain(ClassicalModelSpec(beta=0.4), n_iters=0)


def test_plaquette_flow_converges_to_onsager():
    model = ClassicalModelSpec(beta=0.3)
    f, trace = coarse_grain(model, "trg", max_bond=16, n_iters=18)
    want = onsager_f(0.3)
    assert abs(f - want) / abs(want) < 1e-6
    assert len(trace.free_energies) == 18
    assert max(trace.bond_dims) <= 16
    # thermodynamic limit reached: late iterations stop moving
    assert abs(trace.free_energies[-1] - trace.free_energies[-2]) < 1e-9


def test_merging_flow_converges_to_onsager():
    model = ClassicalModelSpec(beta=0.3)
    f, trace = coarse_grain(model, "hotrg", max_bond=10, n_iters=18)
    want = onsager_f(0.3)
    assert abs(f - want) / abs(want) < 1e-6
    assert trace.method == "hotrg"


def test_high_temperature_limit():
    f, _ = coarse_grain(ClassicalModelSpec(beta=0.1), "trg", max_bond=8, n_iters=15)
    want = onsager_f(0.1)
    assert abs(f - want) / abs(want) < 1e-7


def test_schemes_agree_off_criticality():
    model = ClassicalModelSpec(beta=0.35)
    f_plaq, _ = coarse_grain(model, "trg", max_bond=16, n_iters=20)
    f_merge, _ = coarse_grain(model, "hotrg", max_bond=16, n_iters=20)
    assert abs(f_plaq - f_merge) / abs(f_plaq) < 1e-6


def test_flow_is_deterministic():
    model = ClassicalModelSpec(beta=0.42)
    f1, t1 = coarse_grain(model, "trg", max_bond=12, n_iters=12)
    f2, t2 = coarse_grain(model, "trg", max_bond=12, n_iters=12)
    assert f1 == f2
    assert t1.free_energies == t2.free_energies
    f3, _ = coarse_grain(model, "hotrg", max_bond=12, n_iters=12)
    f4, _ = coarse_grain(model, "hotrg", max_bond=12, n_iters=12)
    assert f3 == f4


def test_torus_trace_positive_along_flow():
    state = initial_state(ClassicalModelSpec(beta=0.5))
    spec = TruncationSpec(max_bond=8)
    for _ in range(10):
        state, _ = trg_step(state, spec)
        assert torus_trace(state) > 0.0
        assert np.max(np.abs(state.tensor)) == pytest.approx(1.0)


def _with_spectrum(s, shape, rng):
    """A real matrix of the given shape with singular values s."""
    q1, _ = np.linalg.qr(rng.standard_normal((shape[0], len(s))))
    q2, _ = np.linalg.qr(rng.standard_normal((shape[1], len(s))))
    return (q1 * s) @ q2.T


def _rank_k(m, k):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :k] * s[:k]) @ vh[:k]


def test_top_eigh_matches_full_eigh():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((20, 30))
    gram = m @ m.T
    full_w, full_v = np.linalg.eigh(gram)
    full_w, full_v = full_w[::-1], full_v[:, ::-1]
    v, discarded = _top_eigh(gram, TruncationSpec(max_bond=6))
    np.testing.assert_allclose(v.T @ gram @ v, np.diag(full_w[:6]), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v @ v.T, full_v[:, :6] @ full_v[:, :6].T, atol=1e-12)
    assert discarded == pytest.approx(np.sum(full_w[6:]) / np.sum(full_w), abs=1e-12)
    # a cap at or beyond the size returns the whole spectrum, nothing discarded
    v, discarded = _top_eigh(gram, TruncationSpec(max_bond=20))
    np.testing.assert_allclose(v.T @ gram @ v, np.diag(full_w), rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v @ v.T, np.eye(20), atol=1e-12)
    assert discarded == 0.0


def test_split_matches_truncated_svd():
    rng = np.random.default_rng(12)
    for shape, k in (((16, 24), 5), ((24, 16), 9), ((10, 10), 10)):
        m = _with_spectrum(0.8 ** np.arange(min(shape)), shape, rng)
        s = np.linalg.svd(m, compute_uv=False)
        a, b, discarded = _split(m, TruncationSpec(max_bond=k))
        assert a.shape == (shape[0], k) and b.shape == (k, shape[1])
        np.testing.assert_allclose(np.sum(a * a, axis=0), s[:k], rtol=1e-12)
        np.testing.assert_allclose(np.sum(b * b, axis=1), s[:k], rtol=1e-12)
        want = _rank_k(m, k)
        assert np.linalg.norm(a @ b - want) <= 1e-12 * np.linalg.norm(want)
        assert discarded == pytest.approx(np.sum(s[k:] ** 2) / np.sum(s**2), abs=1e-12)
        if k == min(shape):
            assert discarded == 0.0


def test_split_with_zero_singular_values_in_kept_set():
    rng = np.random.default_rng(13)
    m = _with_spectrum(np.array([1.0, 0.5, 0.25]), (8, 8), rng)
    a, b, discarded = _split(m, TruncationSpec(max_bond=5))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    np.testing.assert_allclose(a @ b, m, atol=1e-12)
    assert 0.0 <= discarded <= 1e-14
    a, b, discarded = _split(np.zeros((4, 4)), TruncationSpec(max_bond=2))
    assert not a.any() and not b.any() and discarded == 0.0


def test_split_keeps_degenerate_group_at_relative_cutoff():
    rng = np.random.default_rng(14)
    # the group at 0.5 straddles the cutoff by far less than the
    # degeneracy tolerance, so all three members are kept
    s = np.array([1.0, 0.5 * (1 + 2e-15), 0.5, 0.5 * (1 - 2e-15), 0.2, 0.1])
    m = _with_spectrum(s, (9, 7), rng)
    a, b, discarded = _split(m, TruncationSpec(max_bond=6, rel_cutoff=0.5))
    assert a.shape[1] == 4
    want = _rank_k(m, 4)
    assert np.linalg.norm(a @ b - want) <= 1e-12 * np.linalg.norm(want)
    assert discarded == pytest.approx(np.sum(s[4:] ** 2) / np.sum(s**2), abs=1e-12)


def test_merge_isometry_matches_full_eigh():
    rng = np.random.default_rng(15)
    t = rng.standard_normal((3, 4, 3, 4))
    k = 5
    # the vertical pair with the two left legs, then the two right legs, as rows
    pair = np.einsum("uamc,mbdn->abucdn", t, t)
    sides = [pair.reshape(16, -1), pair.transpose(3, 5, 0, 1, 2, 4).reshape(16, -1)]
    best = None
    for rows in sides:
        w, v = np.linalg.eigh(rows @ rows.T)
        w, v = w[::-1], v[:, ::-1]
        err = np.sum(w[k:]) / np.sum(w)
        if best is None or err < best[0]:
            best = (err, v[:, :k])
    iso, discarded = _merge_isometry(t, TruncationSpec(max_bond=k))
    np.testing.assert_allclose(iso.T @ iso, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(iso @ iso.T, best[1] @ best[1].T, atol=1e-12)
    assert discarded == pytest.approx(best[0], abs=1e-12)


def test_merge_vertical_matches_dense_contraction():
    rng = np.random.default_rng(16)
    spec = TruncationSpec(max_bond=5)
    t = rng.standard_normal((3, 4, 3, 4))
    # a contiguous tensor and the transposed view a horizontal merge passes
    for tensor in (t, t.transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2)):
        iso, _ = _merge_isometry(tensor, spec)
        u3 = iso.reshape(4, 4, -1)
        want = np.einsum("xya,uxmr,mydn,rnb->uadb", u3, tensor, tensor, u3)
        got, _ = _merge_vertical(tensor, spec)
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_non_finite_gram_raises():
    spec = TruncationSpec(max_bond=2)
    with pytest.raises(ValueError):
        _top_eigh(np.full((3, 3), np.nan), spec)
    with pytest.raises(ValueError):
        _split(np.array([[1.0, np.inf], [0.0, 1.0]]), spec)


@pytest.mark.parametrize("method", ["trg", "hotrg"])
def test_flow_at_criticality_is_pinned(method):
    _, trace = coarse_grain(ClassicalModelSpec(beta=BETA_C), method, max_bond=32, n_iters=7)
    np.testing.assert_allclose(trace.free_energies, PINNED_FLOWS[method], rtol=1e-10, atol=0)
    assert trace.bond_dims[-1] == 32
