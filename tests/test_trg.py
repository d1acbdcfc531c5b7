"""Coarse graining of the 2D Ising model against brute force and the
exact infinite-lattice free energy."""

import tracemalloc

import numpy as np
import pytest

from tnkit import trg
from tnkit.models import ClassicalModelSpec
from tnkit.oracle import ising_brute_force, onsager_f
from tnkit.tensor import GaussianStream, TruncationSpec
from tnkit.trg import (
    _SUBSPACE_SEED,
    CoarseGrainConfig,
    CoarseGrainState,
    _bond_root,
    _halves,
    _merge_isometry,
    _merge_vertical,
    _regroup,
    _rescaled,
    _split,
    _start_block,
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

# the flows at beta_c, max_bond 32, n_iters 7: per-step free energies as
# computed by full SVD / full eigh before the top-k eigensolver replaced
# them; bond dimensions and discarded weights as computed by the dense Gram
# route before the parity blocks replaced it
PINNED_FLOWS = {
    "trg": {
        "free_energies": (
            -2.8193568384446035,
            -2.4859076214730687,
            -2.28929769613372,
            -2.201381412966471,
            -2.154868555415273,
            -2.132387235934684,
            -2.1209841907511633,
        ),
        "bond_dims": (4, 16, 32, 32, 32, 32, 32),
        "discarded": (0.0, 0.0, 0.0, 0.0, 0.0, 1.6850706787581414e-07, 3.625157481061911e-06),
    },
    "hotrg": {
        "free_energies": (
            -2.9660992533934856,
            -2.48590762147307,
            -2.326463622233654,
            -2.2013814129664726,
            -2.161115098034319,
            -2.1323879864635975,
            -2.1223043516072146,
        ),
        "bond_dims": (4, 4, 16, 16, 32, 32, 32),
        "discarded": (
            0.0,
            0.0,
            0.0,
            0.0,
            7.398924622727712e-06,
            6.654206191573616e-07,
            0.00010975675403720934,
        ),
    },
}


def lnz_per_site_torus(length, beta):
    return np.log(ising_brute_force(length, beta)) / length**2


def test_plaquette_tensor_closes_to_small_tori():
    for beta in (0.2, 0.44, 0.9):
        t = build_plaquette_tensor(ClassicalModelSpec(beta=beta))
        assert t.dtype == np.float64
        # the tensor of the model is e^(2 beta J) t, two bonds per site
        z1 = np.einsum("ulul->", t) * np.exp(2 * beta)
        assert z1 == pytest.approx(ising_brute_force(1, beta), rel=1e-12)
        #   a   c          bonds: i,j horizontal; a,b,c,d vertical
        #  i t j t i   ...with both directions wrapped
        z4 = np.einsum("aibj,cjdi,bkal,dlck->", t, t, t, t) * np.exp(8 * beta)
        assert z4 == pytest.approx(ising_brute_force(2, beta), rel=1e-12)


def _odd_entries(tensor, even):
    """Mask of the entries whose indices have odd total parity under the
    grading ``even`` (each leg sorted even-first)."""
    parity = np.zeros((1,) * tensor.ndim, dtype=int)
    for axis, (dim, e) in enumerate(zip(tensor.shape, even)):
        shape = [1] * tensor.ndim
        shape[axis] = dim
        parity = parity + (np.arange(dim) >= e).reshape(shape)
    return np.broadcast_to(parity % 2 == 1, tensor.shape)


def test_plaquette_tensor_is_z2_graded():
    for beta in (0.05, 0.6, 1.3, 400.0):
        x = beta * 1.0
        # the bond transfer matrix over its largest entry e^x
        m = np.array([[1.0, np.exp(-2 * x)], [np.exp(-2 * x), 1.0]])
        root = _bond_root(ClassicalModelSpec(beta=beta))
        assert np.all((0.0 <= np.abs(root)) & (np.abs(root) <= 1.0))
        if beta < 400.0:
            np.testing.assert_allclose(root @ root.T, m, rtol=1e-14)
        else:  # e^-2x underflows; the off-diagonal is a rounding-level difference
            np.testing.assert_allclose(root @ root.T, m, rtol=1e-14, atol=1e-16)
        # column 0 is the even eigenvector (1, 1), column 1 the odd (1, -1)
        assert root[0, 0] == root[1, 0] and root[0, 1] == -root[1, 1]
        t = build_plaquette_tensor(ClassicalModelSpec(beta=beta))
        odd = _odd_entries(t, (1, 1, 1, 1))
        assert np.all(t[odd] == 0.0)
        assert np.all(t[~odd] > 0.0)
        assert initial_state(ClassicalModelSpec(beta=beta)).even == (1, 1, 1, 1)


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


# the flows at beta 350, max_bond 8, n_iters 6, as computed before the bond
# matrix was divided by e^(beta J); both schemes give these values
PINNED_COLD_FLOW = (
    -2.000990210257943,
    -2.0004951051289717,
    -2.000247552564486,
    -2.0001237762822432,
    -2.0000618881411216,
    -2.0000309440705606,
)


@pytest.mark.parametrize("method", ["trg", "hotrg"])
def test_flows_at_low_temperature(method):
    _, trace = coarse_grain(ClassicalModelSpec(beta=350.0), CoarseGrainConfig(8, 6, method))
    np.testing.assert_allclose(trace.free_energies, PINNED_COLD_FLOW, rtol=1e-13, atol=0)
    # a site tensor of cosh(beta J)^2 would overflow above beta J ~ 355;
    # the two ground states leave f = -2J - ln 2 / (beta sites)
    for beta in (356.0, 400.0, 1e3):
        _, trace = coarse_grain(ClassicalModelSpec(beta=beta), CoarseGrainConfig(8, 6, method))
        for i, f in enumerate(trace.free_energies):
            assert np.isfinite(f) and f <= -2.0
            assert -2.0 - f <= 2 * np.log(2) / (beta * 2 ** (i + 1))


def test_step_validation():
    state = initial_state(ClassicalModelSpec(beta=0.4))
    with pytest.raises(ValueError):
        hotrg_step(state, FULL, "x")
    with pytest.raises(ValueError):
        coarse_grain(ClassicalModelSpec(beta=0.4), CoarseGrainConfig(32, 25, "dmrg"))
    with pytest.raises(ValueError):
        coarse_grain(ClassicalModelSpec(beta=0.4), CoarseGrainConfig(32, 0))


def test_plaquette_flow_converges_to_onsager():
    model = ClassicalModelSpec(beta=0.3)
    f, trace = coarse_grain(model, CoarseGrainConfig(16, 18, "trg"))
    want = onsager_f(0.3)
    assert abs(f - want) / abs(want) < 1e-6
    assert len(trace.free_energies) == 18
    assert max(trace.bond_dims) <= 16
    # thermodynamic limit reached: late iterations stop moving
    assert abs(trace.free_energies[-1] - trace.free_energies[-2]) < 1e-9


def test_merging_flow_converges_to_onsager():
    model = ClassicalModelSpec(beta=0.3)
    f, trace = coarse_grain(model, CoarseGrainConfig(10, 18, "hotrg"))
    want = onsager_f(0.3)
    assert abs(f - want) / abs(want) < 1e-6
    assert trace.method == "hotrg"


def test_high_temperature_limit():
    f, _ = coarse_grain(ClassicalModelSpec(beta=0.1), CoarseGrainConfig(8, 15, "trg"))
    want = onsager_f(0.1)
    assert abs(f - want) / abs(want) < 1e-7


def test_schemes_agree_off_criticality():
    model = ClassicalModelSpec(beta=0.35)
    f_plaq, _ = coarse_grain(model, CoarseGrainConfig(16, 20, "trg"))
    f_merge, _ = coarse_grain(model, CoarseGrainConfig(16, 20, "hotrg"))
    assert abs(f_plaq - f_merge) / abs(f_plaq) < 1e-6


def test_flow_is_deterministic():
    # a trg, a hotrg and a trg flow in one process: the cached start blocks
    # of the subspace iteration are shared, and neither flow changes them
    model = ClassicalModelSpec(beta=0.42)
    f1, t1 = coarse_grain(model, CoarseGrainConfig(12, 12, "trg"))
    f3, t3 = coarse_grain(model, CoarseGrainConfig(12, 12, "hotrg"))
    f2, t2 = coarse_grain(model, CoarseGrainConfig(12, 12, "trg"))
    assert f1 == f2
    assert t1 == t2
    assert sum(t1.subspace_iterations) > 0 and sum(t3.subspace_iterations) > 0
    f4, t4 = coarse_grain(model, CoarseGrainConfig(12, 12, "hotrg"))
    assert f3 == f4
    assert t3 == t4


def test_start_block_is_cached_and_read_only():
    block = _start_block(40, 8)
    assert _start_block(40, 8) is block
    assert not block.flags.writeable
    with pytest.raises(ValueError):
        block[0, 0] = 1.0
    want = GaussianStream(_SUBSPACE_SEED).normal(size=(40, 8))
    assert np.array_equal(block, want)


def _steps(state, spec, method, n):
    for i in range(n):
        if method == "trg":
            state, _ = trg_step(state, spec)
        else:
            state, _ = hotrg_step(state, spec, "v" if i % 2 == 0 else "h")
    return state


@pytest.mark.parametrize("method, direction", [("trg", None), ("hotrg", "v"), ("hotrg", "h")])
def test_steps_leave_their_input_unchanged(method, direction):
    # the coarse tensor is divided by its max-norm in place; the input
    # state's tensor is never written. Four steps at max_bond 10 saturate
    # every leg, so the step runs the subspace iteration
    spec = TruncationSpec(max_bond=10)
    state = _steps(initial_state(ClassicalModelSpec(beta=BETA_C)), spec, method, 4)
    before = state.tensor.tobytes()
    if method == "trg":
        new, _ = trg_step(state, spec)
    else:
        new, _ = hotrg_step(state, spec, direction)
    assert new.subspace_iterations > 0
    assert state.tensor.tobytes() == before
    assert not np.shares_memory(new.tensor, state.tensor)
    assert np.max(np.abs(new.tensor)) == 1.0


@pytest.mark.parametrize("method, bound", [("trg", 2.0), ("hotrg", 2.5)])
def test_saturated_steps_free_their_temporaries(method, bound):
    # a step drops each chi^4 temporary once used: traced from its entry, a
    # saturated step's peak is at most bound times the larger of its input
    # and output tensors (trg 1.76, hotrg 2.38); holding the Gram views or
    # the recombination's factor blocks to the end reads 2.76 and 3.07
    spec = TruncationSpec(max_bond=16)
    state = _steps(initial_state(ClassicalModelSpec(beta=BETA_C)), spec, method, 4)
    for direction in ("v", "h", "v"):
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            if method == "trg":
                new, _ = trg_step(state, spec)
            else:
                new, _ = hotrg_step(state, spec, direction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert new.subspace_iterations > 0
        assert peak - entry <= bound * max(state.tensor.nbytes, new.tensor.nbytes)
        state = new


def test_non_finite_coarse_tensor_raises():
    state = initial_state(ClassicalModelSpec(beta=0.4))
    even = (1, 1, 1, 1)
    for bad in (np.nan, np.inf, -np.inf):
        t = build_plaquette_tensor(ClassicalModelSpec(beta=0.4))
        t[0, 1, 0, 1] = bad  # an entry of the torus closure
        with pytest.raises(RuntimeError, match="torus closure"):
            free_energy_density(CoarseGrainState(t, 0.0, 1, even), 0.4)
        with pytest.raises(RuntimeError, match="not finite"):
            _rescaled(t, even, state, (0, 0))
    with pytest.raises(RuntimeError, match="vanished"):
        _rescaled(np.zeros((2, 2, 2, 2)), even, state, (0, 0))
    negative = CoarseGrainState(-build_plaquette_tensor(ClassicalModelSpec(beta=0.4)), 0.0, 1, even)
    with pytest.raises(RuntimeError, match="torus closure"):
        free_energy_density(negative, 0.4)


@pytest.mark.parametrize("method", ["trg", "hotrg"])
def test_trace_counts_the_eigensolver_work(method, dense_eigh_calls, monkeypatch):
    # one QR per subspace iteration, one _dense_top per dense solve
    qr_calls = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        qr_calls.append(a.shape)
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    _, trace = coarse_grain(ClassicalModelSpec(beta=BETA_C), CoarseGrainConfig(16, 8, method))
    assert len(trace.subspace_iterations) == len(trace.dense_solves) == 8
    assert sum(trace.subspace_iterations) == len(qr_calls) > 0
    assert sum(trace.dense_solves) == len(dense_eigh_calls) > 0
    assert all(type(n) is int for n in trace.subspace_iterations + trace.dense_solves)


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


def _graded_matrix(rows, cols, spectra, rng):
    """A matrix that vanishes unless the parities of its row and column
    indices agree, with singular values spectra[p] in the block of parity
    p; rows and cols are parity vectors in any order."""
    m = np.zeros((len(rows), len(cols)))
    for p, s in enumerate(spectra):
        r, c = np.flatnonzero(rows == p), np.flatnonzero(cols == p)
        if len(s):
            m[np.ix_(r, c)] = _with_spectrum(np.asarray(s), (len(r), len(c)), rng)
    return m


def _graded_tensor(shape, even, rng):
    """A random tensor whose odd-parity entries are 0.0."""
    t = rng.standard_normal(shape)
    t[_odd_entries(t, even)] = 0.0
    return t


def _embed(v_even, v_odd, parity):
    """Columns of v_even on the even entries of a parity vector, then those
    of v_odd on the odd entries."""
    v = np.zeros((len(parity), v_even.shape[1] + v_odd.shape[1]))
    v[np.ix_(parity == 0, np.arange(v_even.shape[1]))] = v_even
    v[np.ix_(parity == 1, np.arange(v_even.shape[1], v.shape[1]))] = v_odd
    return v


# parities in a shuffled order, uneven counts, and one without odd entries
GRAM_PARITIES = [
    np.array([0, 1, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 1]),
    np.zeros(20, dtype=int),
]


@pytest.fixture
def dense_eigh_calls(monkeypatch):
    """The row counts of the matrices handed to ``_dense_top``, the dense
    solver of ``_top_eigh``."""
    calls = []
    dense = trg._dense_top

    def counted(a, *args, **kwargs):
        calls.append(a.shape[0])
        return dense(a, *args, **kwargs)

    monkeypatch.setattr(trg, "_dense_top", counted)
    return calls


def _gram_with_spectrum(w, n, rng):
    """An n x n Gram matrix m m^T with eigenvalues w and zeros past them."""
    m = _with_spectrum(np.sqrt(w), (n, len(w)), rng)
    return m @ m.T


# Gram blocks of more than 4 max_bond rows, which subspace iteration
# solves: (eigenvalues of the even and of the odd block, their row counts,
# max_bond); a geometric spectrum, blocks of rank 6 and 5 below max_bond,
# and one block twice over with max_bond 15, so that the cut falls between
# two equal values
LARGE_GRAMS = [
    ((0.64 ** np.arange(300), 0.81 * 0.64 ** np.arange(200)), (300, 200), 16),
    ((0.5 ** np.arange(6), 0.7 * 0.5 ** np.arange(5)), (300, 200), 16),
    (None, (200, 200), 15),
]


def test_top_eigh_matches_full_eigh(dense_eigh_calls):
    rng = np.random.default_rng(11)
    for parity in GRAM_PARITIES:
        _check_top_eigh(parity, rng)
    del dense_eigh_calls[:]
    for spectra, rows, k in LARGE_GRAMS:
        if spectra is None:
            block = _gram_with_spectrum(0.8 ** np.arange(rows[0]), rows[0], rng)
            blocks = [block, block.copy()]
        else:
            blocks = [_gram_with_spectrum(w, n, rng) for w, n in zip(spectra, rows)]
        k_even = _check_large_top_eigh(blocks, k)
        if spectra is None:
            assert k_even == 8  # the equal pair at the cut is taken even-first
    assert dense_eigh_calls == []


def _check_top_eigh(parity, rng):
    cols = (np.arange(30) % 3 == 0).astype(int)
    m = rng.standard_normal((20, 30)) * (parity[:, None] == cols[None, :])
    gram = m @ m.T
    blocks = [gram[np.ix_(parity == p, parity == p)] for p in (0, 1)]
    full_w, full_v = np.linalg.eigh(gram)
    full_w, full_v = full_w[::-1], full_v[:, ::-1]
    v_even, v_odd, discarded, _ = _top_eigh(blocks, TruncationSpec(max_bond=6))
    v = _embed(v_even, v_odd, parity)
    assert v.shape[1] == 6
    # the kept values are the top of the merged spectrum, each block largest first
    kept = np.diag(v.T @ gram @ v)
    np.testing.assert_allclose(np.sort(kept)[::-1], full_w[:6], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v.T @ gram @ v, np.diag(kept), atol=1e-12)
    for part in np.split(kept, [v_even.shape[1]]):
        assert np.all(np.diff(part) <= 0.0)
    np.testing.assert_allclose(v @ v.T, full_v[:, :6] @ full_v[:, :6].T, atol=1e-12)
    assert discarded == pytest.approx(np.sum(full_w[6:]) / np.sum(full_w), abs=1e-12)
    # a cap at or beyond the size of each block returns the whole spectrum
    v_even, v_odd, discarded, _ = _top_eigh(blocks, TruncationSpec(max_bond=20))
    v = _embed(v_even, v_odd, parity)
    kept = np.sort(np.diag(v.T @ gram @ v))[::-1]
    np.testing.assert_allclose(kept, full_w, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v @ v.T, np.eye(20), atol=1e-12)
    assert discarded == 0.0


def _check_large_top_eigh(blocks, k):
    """``_top_eigh`` against np.linalg.eigh of each block: the kept vectors
    of each block are orthonormal, diagonalize it with its top values in
    order, and span its top eigenvectors (those of nonzero value); no value
    left out exceeds a kept one; two calls agree bit for bit. Returns the
    even count."""
    v_even, v_odd, discarded, _ = _top_eigh(blocks, TruncationSpec(max_bond=k))
    again = _top_eigh(blocks, TruncationSpec(max_bond=k))
    assert np.array_equal(again[0], v_even) and np.array_equal(again[1], v_odd)
    assert again[2] == discarded
    dense = [np.linalg.eigh(b) for b in blocks]
    scale = max(w[-1] for w, _ in dense)
    assert v_even.shape[1] + v_odd.shape[1] == k
    kept, left = [], []
    for (w, u), v, b in zip(dense, (v_even, v_odd), blocks):
        w, u = w[::-1], u[:, ::-1]
        n = v.shape[1]
        np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-12)
        np.testing.assert_allclose(v.T @ b @ v, np.diag(w[:n]), atol=1e-12 * scale)
        live = int(np.count_nonzero(w[:n] > 1e-10 * scale))
        np.testing.assert_allclose(
            v[:, :live] @ v[:, :live].T, u[:, :live] @ u[:, :live].T, atol=1e-12
        )
        kept.append(w[:n])
        left.append(w[n:])
    assert np.min(np.concatenate(kept)) >= np.max(np.concatenate(left)) - 1e-12 * scale
    total = sum(np.sum(w) for w, _ in dense)
    want = 1.0 - np.sum(np.concatenate(kept)) / total
    assert discarded == pytest.approx(want, abs=1e-12)
    return v_even.shape[1]


def test_top_eigh_falls_back_to_dense_solver(dense_eigh_calls):
    # a flat spectrum: subspace iteration cannot meet its residual bound
    # within the iteration cap, so the dense solver gives the answer
    rng = np.random.default_rng(17)
    gram = _gram_with_spectrum(1.0 + 0.5 * rng.random(200), 200, rng)
    v_even, v_odd, discarded, _ = _top_eigh([gram, np.zeros((0, 0))], TruncationSpec(max_bond=16))
    assert dense_eigh_calls == [200]
    w, v = np.linalg.eigh(gram)
    assert np.array_equal(v_even, v[:, :-17:-1]) and v_odd.shape == (0, 0)
    assert discarded == pytest.approx(1.0 - np.sum(w[-16:]) / np.trace(gram), abs=1e-12)


def _leg_parity(*legs):
    """Parity of the C-order combined index of legs given as (extent, even
    count) pairs, each leg sorted even-first."""
    p = np.zeros(1, dtype=int)
    for dim, even in legs:
        p = (p[:, None] ^ (np.arange(dim) >= even)).ravel()
    return p


def _split_view(m, rows, cols, axes, spec):
    """``_split`` of the tensor whose matrix view along ``axes`` is m, with
    row legs ``rows`` and column legs ``cols`` as (extent, even count);
    returns A and B as matrices, the even count and the discarded weight."""
    legs = rows + cols
    order = np.argsort(axes)
    t = m.reshape([dim for dim, _ in legs]).transpose(order)
    halves = [_halves(*legs[i]) for i in order]
    a, b, k_even, discarded, _ = _split(t, axes, halves, spec)
    assert a.shape[:2] == (rows[0][0], rows[1][0]) and b.shape[:2] == (cols[0][0], cols[1][0])
    return a.reshape(m.shape[0], -1), b.reshape(m.shape[1], -1).T, k_even, discarded


SPLIT_CASES = [
    # (row legs, column legs, matrix-view axes, singular values of the even
    # and the odd block, cap); legs are (extent, even count)
    (
        ((4, 2), (4, 2)),
        ((4, 1), (6, 1)),
        (3, 0, 1, 2),
        ([1.0, 0.7, 0.3, 0.1, 0.05], [0.9, 0.5, 0.2]),
        5,
    ),
    (
        ((4, 1), (6, 0)),
        ((4, 2), (4, 2)),
        (1, 0, 3, 2),
        ([0.8, 0.4, 0.25, 0.12, 0.04, 0.02], [1.0, 0.6, 0.35, 0.15, 0.07, 0.01]),
        9,
    ),
    # no odd block
    (((10, 10), (1, 1)), ((2, 2), (5, 5)), (0, 1, 2, 3), (0.8 ** np.arange(10), []), 10),
    # blocks of 904 and 120 rows, as in the first saturated plaquette step
    (
        ((32, 30), (32, 30)),
        ((4, 3), (4, 1)),
        (3, 0, 1, 2),
        (0.7 ** np.arange(6), 0.75 ** np.arange(10)),
        8,
    ),
    # every leg odd, so there is no odd block; and no even block
    (((3, 0), (5, 0)), ((4, 0), (2, 0)), (2, 3, 0, 1), (0.6 ** np.arange(8), []), 6),
    (((3, 3), (5, 0)), ((4, 0), (2, 2)), (1, 0, 3, 2), ([], 0.6 ** np.arange(8)), 6),
]


def test_split_matches_truncated_svd():
    rng = np.random.default_rng(12)
    for row_legs, col_legs, axes, spectra, k in SPLIT_CASES:
        _check_split(row_legs, col_legs, axes, spectra, k, rng)


def _check_split(row_legs, col_legs, axes, spectra, k, rng):
    rows, cols = _leg_parity(*row_legs), _leg_parity(*col_legs)
    m = _graded_matrix(rows, cols, spectra, rng)
    s = np.linalg.svd(m, compute_uv=False)
    a, b, k_even, discarded = _split_view(m, row_legs, col_legs, axes, TruncationSpec(max_bond=k))
    assert a.shape == (len(rows), k) and b.shape == (k, len(cols))
    # the new index is sorted even-first and keeps the grading
    new = (np.arange(k) >= k_even).astype(int)
    assert np.all(a[rows[:, None] != new[None, :]] == 0.0)
    assert np.all(b[new[:, None] != cols[None, :]] == 0.0)
    assert k_even == np.count_nonzero(np.asarray(spectra[0]) >= s[k - 1])
    np.testing.assert_allclose(np.sort(np.sum(a * a, axis=0))[::-1], s[:k], rtol=1e-12)
    np.testing.assert_allclose(np.sum(a * a, axis=0), np.sum(b * b, axis=1), rtol=1e-12)
    want = _rank_k(m, k)
    assert np.linalg.norm(a @ b - want) <= 1e-12 * np.linalg.norm(want)
    assert discarded == pytest.approx(np.sum(s[k:] ** 2) / np.sum(s**2), abs=1e-12)
    if k == min(m.shape):
        assert discarded == 0.0


def test_split_with_zero_singular_values_in_kept_set():
    rng = np.random.default_rng(13)
    legs = ((8, 5), (1, 1))
    parity = _leg_parity(*legs)
    m = _graded_matrix(parity, parity, ([1.0, 0.25], [0.5]), rng)
    a, b, k_even, discarded = _split_view(m, legs, legs, (0, 1, 2, 3), TruncationSpec(max_bond=5))
    assert np.isfinite(a).all() and np.isfinite(b).all()
    np.testing.assert_allclose(a @ b, m, atol=1e-12)
    assert 0.0 <= discarded <= 1e-14
    legs = ((2, 1), (2, 1))
    a, b, k_even, discarded = _split_view(
        np.zeros((4, 4)), legs, legs, (0, 1, 2, 3), TruncationSpec(max_bond=2)
    )
    assert not a.any() and not b.any() and discarded == 0.0


def test_split_keeps_degenerate_group_at_relative_cutoff():
    rng = np.random.default_rng(14)
    # the group at 0.5 straddles the cutoff by far less than the
    # degeneracy tolerance, and its members sit in both parity blocks,
    # so all three are kept
    s = np.array([1.0, 0.5 * (1 + 2e-15), 0.5, 0.5 * (1 - 2e-15), 0.2, 0.1])
    row_legs, col_legs = ((9, 4), (1, 1)), ((7, 4), (1, 1))
    rows, cols = _leg_parity(*row_legs), _leg_parity(*col_legs)
    m = _graded_matrix(rows, cols, (s[[0, 2, 4]], s[[1, 3, 5]]), rng)
    spec = TruncationSpec(max_bond=6, rel_cutoff=0.5)
    a, b, k_even, discarded = _split_view(m, row_legs, col_legs, (0, 1, 2, 3), spec)
    assert a.shape[1] == 4 and k_even == 2
    want = _rank_k(m, 4)
    assert np.linalg.norm(a @ b - want) <= 1e-12 * np.linalg.norm(want)
    assert discarded == pytest.approx(np.sum(s[4:] ** 2) / np.sum(s**2), abs=1e-12)


# shapes and gradings of a tensor: uneven counts; horizontal legs with no
# odd index, so every odd block is empty; legs with no even index; and
# merged legs of 8 x 8 in blocks of 50 and 14
MERGE_GRADINGS = [
    ((3, 4, 3, 4), (2, 1, 2, 1)),
    ((3, 4, 3, 4), (1, 3, 1, 3)),
    ((3, 4, 3, 4), (2, 4, 2, 4)),
    ((3, 4, 3, 4), (0, 4, 0, 4)),
    ((3, 4, 3, 4), (3, 0, 3, 0)),
    ((3, 4, 3, 4), (0, 0, 0, 0)),
    ((2, 8, 2, 8), (1, 7, 1, 7)),
]


def test_merge_isometry_matches_full_eigh():
    rng = np.random.default_rng(15)
    for shape, even in MERGE_GRADINGS:
        _check_merge_isometry(shape, even, rng)


def _isometry(t, even, spec):
    """``_merge_isometry`` as a dense matrix with rows (top leg, bottom leg)
    in C order: the rows of each parity block are the C order of the
    entries of that parity."""
    v_even, v_odd, discarded, _ = _merge_isometry(t, even, spec)
    rows = _leg_parity((t.shape[1], even[1]), (t.shape[1], even[1]))
    return _embed(v_even, v_odd, rows), v_even.shape[1], discarded


def _check_merge_isometry(shape, even, rng):
    t = _graded_tensor(shape, even, rng)
    k = 5
    n = shape[1] ** 2
    # the vertical pair with the two left legs, then the two right legs, as rows
    pair = np.einsum("uamc,mbdn->abucdn", t, t)
    sides = [pair.reshape(n, -1), pair.transpose(3, 5, 0, 1, 2, 4).reshape(n, -1)]
    best = None
    for rows in sides:
        w, v = np.linalg.eigh(rows @ rows.T)
        w, v = w[::-1], v[:, ::-1]
        err = np.sum(w[k:]) / np.sum(w)
        if best is None or err < best[0]:
            best = (err, v[:, :k])
    iso, k_even, discarded = _isometry(t, even, TruncationSpec(max_bond=k))
    np.testing.assert_allclose(iso.T @ iso, np.eye(k), atol=1e-12)
    np.testing.assert_allclose(iso @ iso.T, best[1] @ best[1].T, atol=1e-12)
    assert discarded == pytest.approx(best[0], abs=1e-12)
    # columns even-first, each supported on the rows of its own parity
    leg = (np.arange(shape[1]) >= even[1]).astype(int)
    rows = (np.add.outer(leg, leg) % 2).ravel()
    new = (np.arange(k) >= k_even).astype(int)
    assert np.all(iso[rows[:, None] != new[None, :]] == 0.0)


def test_merge_vertical_matches_dense_contraction():
    rng = np.random.default_rng(16)
    for shape, even in MERGE_GRADINGS:
        _check_merge_vertical(_graded_tensor(shape, even, rng), even)


def _check_merge_vertical(t, even):
    spec = TruncationSpec(max_bond=5)
    chi = t.shape[1]
    # a contiguous tensor and the transposed view a horizontal merge passes
    for tensor in (t, t.transpose(1, 2, 3, 0).copy().transpose(3, 0, 1, 2)):
        iso, k_even, _ = _isometry(tensor, even, spec)
        u3 = iso.reshape(chi, chi, -1)
        want = np.einsum("xya,uxmr,mydn,rnb->uadb", u3, tensor, tensor, u3)
        got, got_even, _, _ = _merge_vertical(tensor, even, spec)
        assert got_even == k_even
        np.testing.assert_allclose(got, want, atol=1e-12)
        assert np.all(got[_odd_entries(got, (even[0], k_even, even[2], k_even))] == 0.0)
    # the horizontal merge through hotrg_step: a left tensor A beside a
    # right tensor B, both up legs and both down legs merged by the
    # isometry of the rotated tensor, rows (A's leg, B's leg)
    e_u, e_l, e_d, e_r = even
    rotated = t.transpose(1, 2, 3, 0)
    iso, k_even, _ = _isometry(rotated, (e_l, e_d, e_r, e_u), spec)
    u3 = iso.reshape(t.shape[0], t.shape[0], -1)
    want = np.einsum("xyb,xlzm,ymwr,zwa->blar", u3, t, t, u3)
    scale = np.max(np.abs(want))
    got, _ = hotrg_step(CoarseGrainState(t, 0.0, 1, even), spec, "h")
    assert got.even == (k_even, e_l, k_even, e_r) and got.sites_represented == 2
    np.testing.assert_allclose(got.tensor, want / scale, atol=1e-12)
    assert got.log_norm_per_site == pytest.approx(np.log(scale) / 2, abs=1e-14)
    assert np.all(got.tensor[_odd_entries(got.tensor, got.even)] == 0.0)


REGROUP_LEGS = [
    # (extent, even count) of i, j, i' and j' of G[(i j), (i' j')]
    ((3, 2), (4, 1), (5, 3), (2, 1)),
    ((2, 2), (3, 1), (4, 0), (3, 3)),  # an all-odd and an all-even leg
    ((4, 2), (3, 1), (4, 2), (3, 1)),  # rows and columns on the same legs
]


def test_regroup_matches_dense_transpose():
    rng = np.random.default_rng(17)
    for legs in REGROUP_LEGS:
        g = _graded_tensor([n for n, _ in legs], [e for _, e in legs], rng)
        i, j, i2, j2 = (_halves(*leg) for leg in legs)
        rows, cols = _leg_parity(legs[0], legs[1]), _leg_parity(legs[2], legs[3])
        dense = g.reshape(len(rows), len(cols))
        got = _regroup([dense[np.ix_(rows == s, cols == s)] for s in (0, 1)], (i, j), (i2, j2))
        # H[(i i'), (j j')] = G[(i j), (i' j')], graded as G is
        h = g.transpose(0, 2, 1, 3).reshape(legs[0][0] * legs[2][0], -1)
        rows, cols = _leg_parity(legs[0], legs[2]), _leg_parity(legs[1], legs[3])
        assert np.all(h[rows[:, None] != cols[None, :]] == 0.0)
        for r in (0, 1):
            np.testing.assert_array_equal(got[r], h[np.ix_(rows == r, cols == r)])


def test_non_finite_gram_raises(monkeypatch):
    spec = TruncationSpec(max_bond=2)
    with pytest.raises(ValueError):
        _top_eigh([np.full((3, 3), np.nan), np.eye(2)], spec)
    with pytest.raises(ValueError):
        _top_eigh([np.eye(2), np.full((3, 3), np.nan)], spec)
    # blocks of more than 4 max_bond rows, solved by subspace iteration,
    # are checked before any LAPACK call sees them
    for bad in (np.nan, np.inf):
        gram = np.eye(300)
        gram[7, 250] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            _top_eigh([gram, np.eye(2)], spec)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _top_eigh([np.eye(2), gram], spec)
    legs = ((2, 2), (1, 1))
    with pytest.raises(ValueError):
        _split_view(np.array([[1.0, np.inf], [0.0, 1.0]]), legs, legs, (0, 1, 2, 3), spec)

    # a plaquette split solves M M^T from its factor blocks M without forming
    # it; a factor block of more than 4 max_bond rows with a NaN or an inf,
    # in either parity, raises ValueError before any LAPACK call
    def no_lapack(*args, **kwargs):
        raise AssertionError("LAPACK called on non-finite input")

    rng = np.random.default_rng(18)
    legs = ((10, 5), (10, 5))
    cases = []
    for bad in (np.nan, np.inf):
        m = rng.standard_normal((300, 40))
        m[7, 25] = bad
        # the same through a split of a tensor with 50-row parity blocks
        t = _graded_matrix(_leg_parity(*legs), _leg_parity(*legs), ([1.0] * 3, [0.5] * 3), rng)
        t[3, 4] = bad
        cases.append((m, t))
    # patched only once the inputs exist: their helpers call numpy's QR
    for name in ("qr", "eigh"):
        monkeypatch.setattr(np.linalg, name, no_lapack)
    for m, t in cases:
        for blocks in ([m, np.eye(2)], [np.eye(2), m]):
            with pytest.raises(ValueError, match="infs or NaNs"):
                _top_eigh(blocks, spec, factors=True)
        with pytest.raises(ValueError, match="infs or NaNs"):
            _split_view(t, legs, legs, (0, 1, 2, 3), spec)


@pytest.mark.parametrize("method", ["trg", "hotrg"])
def test_flow_at_criticality_is_pinned(method):
    _, trace = coarse_grain(ClassicalModelSpec(beta=BETA_C), CoarseGrainConfig(32, 7, method))
    pinned = PINNED_FLOWS[method]
    np.testing.assert_allclose(trace.free_energies, pinned["free_energies"], rtol=1e-10, atol=0)
    assert trace.bond_dims == pinned["bond_dims"]
    np.testing.assert_allclose(trace.discarded, pinned["discarded"], rtol=0, atol=1e-14)


def _check_grading(state):
    t, even = state.tensor, state.even
    assert np.all(t[_odd_entries(t, even)] == 0.0)
    # no other even count of any leg fits the nonzero pattern: moving a
    # boundary by one index puts a nonzero entry at odd total parity
    for axis in range(4):
        for moved in (even[axis] - 1, even[axis] + 1):
            if 0 <= moved <= t.shape[axis]:
                other = even[:axis] + (moved,) + even[axis + 1 :]
                assert np.any(t[_odd_entries(t, other)] != 0.0)


@pytest.mark.parametrize("method", ["trg", "hotrg"])
@pytest.mark.parametrize("beta,rel_cutoff", [(BETA_C, 0.0), (0.2, 0.0), (BETA_C, 1e-3)])
def test_flows_keep_the_z2_grading(method, beta, rel_cutoff):
    spec = TruncationSpec(max_bond=32, rel_cutoff=rel_cutoff)
    state = initial_state(ClassicalModelSpec(beta=beta))
    _check_grading(state)
    for i in range(7):
        if method == "trg":
            state, _ = trg_step(state, spec)
        else:
            state, _ = hotrg_step(state, spec, "v" if i % 2 == 0 else "h")
        _check_grading(state)
