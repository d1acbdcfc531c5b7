"""Trotter evolution against dense propagators and Gibbs states."""

import numpy as np
import pytest

from tnkit.models import SZ, heisenberg_xxz, transverse_field_ising
from tnkit.mpo import build_mpo, expect_mpo, mpo_to_dense
from tnkit.mps import (
    MatrixProductState,
    _move_center,
    bond_caps,
    canonical_residual,
    canonicalize,
    expect_local,
    norm,
    product_state,
    random_mps,
    to_dense,
)
from tnkit.oracle import dense_evolve, dense_gibbs, dense_hamiltonian, ed_ground
from tnkit.tebd import (
    TebdConfig,
    ThermalConfig,
    TrotterGate,
    TrotterScheme,
    _gate_inplace,
    apply_gate,
    build_trotter,
    evolve,
    evolve_gates,
    imaginary_time_ground_state,
    infinite_temperature_state,
    lift_gate,
    lift_mpo,
    lift_site_operator,
    thermal_state,
)
from tnkit.tensor import TruncationSpec

UP = np.array([1.0, 0.0])
DOWN = np.array([0.0, 1.0])


def neel(n):
    return product_state([UP if k % 2 == 0 else DOWN for k in range(n)])


def _dense_gate(dims, bond, gate):
    """A two-site gate on (bond, bond+1) embedded in the full Hilbert space."""
    left = int(np.prod(dims[:bond]))
    right = int(np.prod(dims[bond + 2 :]))
    return np.kron(np.kron(np.eye(left), gate), np.eye(right))


def _random_unitary(n, rng):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q


def _positive_gate(n, rng):
    """A real symmetric positive gate, like exp(-tau h) of a real bond term."""
    h = rng.normal(size=(n, n))
    w, v = np.linalg.eigh(h + h.T)
    return (v * np.exp(-0.3 * w)) @ v.T


def _gate_sweep_cases():
    rng = np.random.default_rng(7)
    unitary = [_random_unitary(4, rng) for _ in range(7)]
    positive = [_positive_gate(4, rng) for _ in range(7)]
    lifted = [lift_gate(_random_unitary(4, rng), 2) for _ in range(3)]

    def halves(dtype):
        """Two independent 4-site states at full rank side by side: bonds
        2, 4, 2, 1, 2, 4, 2."""
        return MatrixProductState(
            random_mps([2] * 4, 4, 8, dtype=dtype).sites
            + random_mps([2] * 4, 4, 9, dtype=dtype).sites
        )

    # (state, gates, imaginary time, max_bond, directions of the splits)
    return {
        # at max_bond 64 no bond can cut, and every bond of these full-rank
        # states is at its cap, so each chain is one block, and every gate
        # acts on its two sites' factor of the block
        "complex": (random_mps([2] * 6, 8, 3), unitary, False, 64, []),
        "real-imaginary-time": (random_mps([2] * 6, 8, 4, dtype=float), positive, True, 64, []),
        "lifted-d4": (random_mps([4] * 4, 16, 5), lifted, False, 64, []),
        # at max_bond 4 bonds 2-4 of 8 sites can cut, and bonds 0, 1, 5 and
        # 6 are at their caps: blocks of sites 0-2, 3, 4 and 5-7. Only the
        # gates between blocks split, bonds 2 and 4 rightward from site 0,
        # then bond 3 leftward back; across the middle bond of extent 1 one
        # step reaches rank 4 at most, so nothing is cut
        "complex-cuttable": (halves(complex), unitary, False, 4, [False, False, True]),
        "real-imaginary-time-cuttable": (halves(float), positive, True, 4, [False, False, True]),
    }


@pytest.mark.parametrize(
    "case",
    [
        "complex",
        "real-imaginary-time",
        "lifted-d4",
        "complex-cuttable",
        "real-imaginary-time-cuttable",
    ],
)
def test_gate_kernel_sweeps_both_ways_like_the_dense_embedding(monkeypatch, case):
    import tnkit.tebd as tebd_module

    psi, gates, imag, max_bond, directions = _gate_sweep_cases()[case]
    n = psi.n_sites
    dims = psi.phys_dims
    even = tuple(TrotterGate(b, gates[b]) for b in range(0, n - 1, 2))
    odd = tuple(TrotterGate(b, gates[b]) for b in range(1, n - 1, 2))
    scheme = TrotterScheme(layers=(even, odd), dt=0.1, order=1, imag=imag)
    seen = []

    def recording(sites, bond, gate, spec, leftward=False):
        a, b = sites[bond], sites[bond + 1]
        seen.append((leftward, a.shape[0], b.shape[2]))
        return _gate_inplace(sites, bond, gate, spec, leftward)

    monkeypatch.setattr(tebd_module, "_gate_inplace", recording)
    out, trace = evolve_gates(
        psi, scheme, 1, max_bond=max_bond, rel_cutoff=0.0, abort_threshold=1e-3
    )
    assert [lw for lw, _, _ in seen] == directions
    # the blocks seen as the sites of a gate meet unequal outer extents
    assert not seen or any(dl != dr for _, dl, dr in seen)
    assert trace.discarded == (0.0,)
    want = to_dense(psi)
    for layer in (even, odd):
        for g in layer:
            want = _dense_gate(dims, g.bond, g.matrix) @ want
    got = to_dense(out) * np.exp(sum(trace.log_norms))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(want))
    assert canonical_residual(out) < 1e-12
    if imag:
        assert all(a.dtype == np.float64 for a in out.sites)


def test_truncating_gate_discards_the_dense_schmidt_tail():
    psi = random_mps([2] * 6, 8, 11)
    rng = np.random.default_rng(12)
    gate = _random_unitary(4, rng)
    bond, keep = 2, 3
    out, report = apply_gate(psi, bond, gate, TruncationSpec(max_bond=keep))
    # Schmidt values of the gated state across the cut after site ``bond``
    full = _dense_gate(psi.phys_dims, bond, gate) @ to_dense(psi)
    m = full.reshape(2 ** (bond + 1), -1)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    tail = float(np.sum(s[keep:] ** 2) / np.sum(s**2))
    assert tail > 1e-3
    assert report.kept == keep
    assert report.discarded_weight == pytest.approx(tail, rel=0, abs=1e-12)
    # the truncated state is the best rank-``keep`` approximation
    best = (u[:, :keep] * s[:keep]) @ vh[:keep]
    np.testing.assert_allclose(to_dense(out), best.reshape(-1), rtol=0, atol=1e-12)
    assert out.bond_dims[bond] == keep


def test_build_trotter_structure():
    spec = transverse_field_ising(7, h=0.8)
    s1 = build_trotter(spec, 0.1, order=1, imag=False)
    assert len(s1.layers) == 2
    assert [g.bond for g in s1.layers[0]] == [0, 2, 4]
    assert [g.bond for g in s1.layers[1]] == [1, 3, 5]
    s2 = build_trotter(spec, 0.1, order=2, imag=False)
    assert len(s2.layers) == 3
    assert [g.bond for g in s2.layers[0]] == [0, 2, 4]
    assert [g.bond for g in s2.layers[2]] == [0, 2, 4]
    for layer in s2.layers:
        for g in layer:
            defect = np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(4)))
            assert defect < 1e-12
    with pytest.raises(ValueError):
        build_trotter(spec, 0.0, order=2, imag=False)
    with pytest.raises(ValueError):
        build_trotter(spec, 0.1, order=3, imag=False)


def test_apply_gate_identity_and_dense():
    psi = neel(4)
    out, report = apply_gate(psi, 1, np.eye(4), TruncationSpec(max_bond=4))
    assert report.discarded_weight == 0.0
    np.testing.assert_allclose(to_dense(out), to_dense(psi), atol=1e-14)
    # entangling gate against the dense embedding
    rng = np.random.default_rng(1)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    q, _ = np.linalg.qr(m)
    out, _ = apply_gate(psi, 1, q, TruncationSpec(max_bond=4))
    want = np.kron(np.kron(np.eye(2), q), np.eye(2)) @ to_dense(psi)
    np.testing.assert_allclose(to_dense(out), want, atol=1e-12)
    with pytest.raises(ValueError):
        apply_gate(psi, 3, np.eye(4), TruncationSpec(max_bond=4))
    with pytest.raises(ValueError):
        apply_gate(psi, 1, np.eye(3), TruncationSpec(max_bond=4))


@pytest.mark.parametrize("order,slope", [(1, 1.0), (2, 2.0)])
def test_real_time_error_scales_with_dt(order, slope):
    spec = transverse_field_ising(5, J=1.0, h=0.9)
    dh = dense_hamiltonian(spec)
    psi0 = neel(5)
    want = dense_evolve(dh, to_dense(psi0), 0.4)
    errs = []
    for dt in (0.04, 0.02):
        config = TebdConfig(dt=dt, n_steps=round(0.4 / dt), max_bond=16, order=order)
        out, trace = evolve(psi0, spec, config)
        errs.append(np.linalg.norm(to_dense(out) - want))
        assert not trace.aborted
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(2.0**slope, rel=0.25)


def test_real_time_preserves_norm_and_energy_full_rank():
    spec = heisenberg_xxz(6, J=1.0, delta=0.6)
    op = build_mpo(spec)
    psi0 = neel(6)
    e0 = expect_mpo(psi0, op).real
    config = TebdConfig(dt=0.01, n_steps=100, max_bond=8)
    out, trace = evolve(psi0, spec, config)
    assert abs(norm(out) - 1.0) < 1e-10
    assert trace.log_norms == (0.0,) * 100
    assert expect_mpo(out, op).real == pytest.approx(e0, abs=2e-4)
    assert max(trace.discarded) == 0.0  # bond 8 is full rank for 6 sites


def test_observable_series_and_times():
    spec = transverse_field_ising(4, h=1.0)
    config = TebdConfig(dt=0.05, n_steps=10, max_bond=8)
    out, trace = evolve(neel(4), spec, config, observables={"sz0": (0, SZ)})
    assert trace.times == tuple(pytest.approx(0.05 * k) for k in range(11))
    assert len(trace.observables["sz0"]) == 11
    assert trace.observables["sz0"][0] == pytest.approx(1.0, abs=1e-12)
    dh = dense_hamiltonian(spec)
    v = dense_evolve(dh, to_dense(neel(4)), 0.5)
    op = np.kron(SZ, np.eye(8))
    want = np.vdot(v, op @ v).real
    assert trace.observables["sz0"][-1] == pytest.approx(want, abs=1e-4)


def _forward_only(psi, scheme, n_steps, max_bond, watched, op=SZ):
    """Every layer of every step swept left to right, the center walked
    back each time, no layer fused; <op> at the ``watched`` sites after
    every step, and in imaginary time the norm pulled out per step."""
    trunc = TruncationSpec(max_bond=max_bond)
    sites, center = list(canonicalize(psi, 0).sites), 0
    series = {k: [expect_local(psi, op, k)] for k in watched}
    log_norms = []
    for _ in range(n_steps):
        for layer in scheme.layers:
            for gate in layer:
                _move_center(sites, center, gate.bond)
                _gate_inplace(sites, gate.bond, gate.matrix, trunc)
                center = gate.bond + 1
        scale = np.linalg.norm(sites[center]) if scheme.imag else 1.0
        sites[center] = sites[center] / scale
        log_norms.append(float(np.log(scale)))
        state = MatrixProductState(sites, center=center)
        for k in watched:
            series[k].append(expect_local(state, op, k))
    return state, series, log_norms


def _count_center_moves(monkeypatch):
    import tnkit.mps as mps_module

    calls = []
    for name in ("qr_matrix", "rq_matrix"):
        real = getattr(mps_module, name)
        monkeypatch.setattr(
            mps_module, name, lambda m, real=real: calls.append(1) or real(m)
        )
    return calls


def test_gate_sweeps_skip_the_center_walk_back(monkeypatch):
    import tnkit.tebd as tebd_module
    import tnkit.tensor as tensor_module

    spec = transverse_field_ising(14, h=1.0)
    scheme = build_trotter(spec, 0.05, order=2, imag=False)
    psi0 = neel(14)
    calls = _count_center_moves(monkeypatch)
    splits, svds, steps = [], [], []
    real_split, real_svd = tebd_module.split_matrix, tensor_module.svd_matrix
    real_join = tebd_module._join_saturated
    monkeypatch.setattr(
        tebd_module, "split_matrix",
        lambda m, spec, leftward: splits.append(m.shape) or real_split(m, spec, leftward),
    )
    monkeypatch.setattr(
        tensor_module, "svd_matrix", lambda m, spec: svds.append(m.shape) or real_svd(m, spec)
    )

    def join(tensors, blocks, center, uncut):
        # each step starts here: the splits and moves so far, this step's blocks
        joined = real_join(tensors, blocks, center, uncut)
        blocks = joined[1] if joined else blocks
        steps.append((len(splits), len(calls), [(b.start, b.stop) for b in blocks if len(b) > 1]))
        return joined

    monkeypatch.setattr(tebd_module, "_join_saturated", join)
    n_steps = 6
    out, _ = evolve_gates(psi0, scheme, n_steps, max_bond=32, rel_cutoff=0.0, abort_threshold=1e-3)
    # only bonds 5-7 can cut (caps[b-1]·2 and 2·caps[b+1] both above 32);
    # every other bond joins its two sides into one block once the gates
    # have grown it to its cap, from the chain's ends inward
    caps = [1, *bond_caps([2] * 14, 32), 1]
    cut = {b for b in range(13) if min(caps[b], caps[b + 2]) * 2 > 32}
    assert cut == {5, 6, 7}
    blocks = [b for _, _, b in steps]
    assert blocks == [[], [(0, 3), (11, 14)], [(0, 5), (9, 14)], *[[(0, 6), (8, 14)]] * 3]
    # a gate splits only between blocks: the first step is the sweep over
    # sites (13 splits and 12 center moves, as every step of it was, 85
    # splits in all), and once the end blocks stand a step makes 3 splits
    # (bond 6 in the even layer, 5 and 7 in the odd one) and 3 moves; the
    # last step adds the owed layer's split on bond 6. So no QR splits a
    # bond that cannot cut once it has reached its cap
    gates = [scheme.layers[0] + scheme.layers[1]] * n_steps
    gates[-1] += scheme.layers[0]  # the owed layer
    between = [
        sum(not any(a <= g.bond < b - 1 for a, b in step_blocks) for g in step)
        for step, step_blocks in zip(gates, blocks)
    ]
    done = [n for n, _, _ in steps] + [len(splits)]
    assert np.diff(done).tolist() == between == [13, 9, 5, 3, 3, 4]
    assert len(splits) == 37
    # only a gate whose theta has more than max_bond rows and columns can
    # cut, so only those go through the SVD: the same 12 SVDs as the sweep
    # over sites made
    assert svds == [shape for shape in splits if min(shape) > 32] == [(64, 64)] * 12
    # the center moves between blocks only: 12 moves a step in the sweep
    # over sites, 3 once the end blocks stand; the last step also moves
    # twice for the owed layer, and 10 exact QRs split the end blocks back
    # into sites
    moves = np.diff([m for _, m, _ in steps] + [len(calls)]).tolist()
    assert moves == [12, 9, 5, 3, 3, 3 + 2 + 2 * 5]
    assert out.bond_dims == tuple(bond_caps([2] * 14, 32))
    assert canonical_residual(out) < 1e-12
    # no step, no owed layer: the start state comes back as it was
    calls.clear()
    splits.clear()
    same, trace = evolve_gates(
        psi0, scheme, 0, max_bond=32, rel_cutoff=0.0, abort_threshold=1e-3,
        observables={"sz0": (0, SZ)},
    )
    assert trace.times == (0.0,) and trace.discarded == () and trace.log_norms == ()
    assert trace.observables == {"sz0": (1.0,)}
    assert splits == [] and calls == []
    assert same.center == psi0.center
    for a, b in zip(same.sites, psi0.sites):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("order", [1, 2])
def test_imaginary_time_observables_cost_no_factorization(monkeypatch, order):
    # the owed layer leaves the pair-block state of a second-order step
    # without a center; its norm and observables come from one walk
    spec = transverse_field_ising(8, h=1.0)
    config = TebdConfig(dt=0.05, n_steps=10, max_bond=16, order=order, imag=True)
    calls = _count_center_moves(monkeypatch)
    counts = []
    for observables in (None, {"sz0": (0, SZ), "sz5": (5, SZ)}):
        calls.clear()
        evolve(neel(8), spec, config, observables=observables)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_gate_sweeps_match_forward_only_order_without_truncation():
    # (sites, imaginary time, order)
    cases = [
        (14, False, 2), (14, True, 2), (14, False, 1), (13, False, 2), (13, True, 2), (13, True, 1)
    ]
    for n, imag, order in cases:
        spec = heisenberg_xxz(n, J=1.0, delta=0.6)
        scheme = build_trotter(spec, 0.05, order=order, imag=imag)
        # both ends and one interior site; on 13 sites the last lies on no
        # even bond
        watched = (0, 6, n - 1)
        psi0 = random_mps([2] * n, 4, 9, dtype=float) if imag else neel(n)
        out, trace = evolve_gates(
            psi0, scheme, 4, max_bond=128, rel_cutoff=0.0, abort_threshold=1e-3,
            observables={k: (k, SZ) for k in watched},
        )
        assert max(trace.discarded) == 0.0
        ref, ref_series, ref_log_norms = _forward_only(psi0, scheme, 4, 128, watched)
        np.testing.assert_allclose(to_dense(out), to_dense(ref), rtol=0, atol=1e-12)
        np.testing.assert_allclose(trace.log_norms, ref_log_norms, rtol=0, atol=1e-12)
        for k in watched:
            np.testing.assert_allclose(trace.observables[k], ref_series[k], rtol=0, atol=1e-12)


def _purified_scheme(n, dt, order):
    """Imaginary-time gates of a transverse-field Ising chain on purified
    sites (d = 4), as ``thermal_state`` builds them."""
    base = build_trotter(transverse_field_ising(n, J=1.0, h=0.8), dt, order, imag=True)
    layers = tuple(
        tuple(TrotterGate(g.bond, lift_gate(g.matrix, 2)) for g in layer) for layer in base.layers
    )
    return TrotterScheme(layers=layers, dt=dt, order=order, imag=True)


@pytest.mark.parametrize(
    "d,imag,order,max_bond,n_steps,full_rank",
    [
        # 14 sites at max_bond 64 from a product state: the end regions
        # (bonds 0-5 and 7-12 cannot cut) join into blocks as their bonds
        # reach their caps, from step 2 on; only the even gates cross bond
        # 6, each at most quadrupling its rank, so none of these steps cuts
        (2, False, 2, 64, 2, False),
        (2, True, 2, 64, 2, False),
        (2, False, 1, 64, 3, False),
        (2, True, 1, 64, 3, False),
        # every bond at its cap from the start and none can cut at max_bond
        # 128: the chain is one block of physical dimension 2^14 throughout
        (2, False, 2, 128, 2, True),
        (2, True, 1, 128, 2, True),
        # 5 purified sites: one block once the bonds reach full rank
        # (max_bond 16); at max_bond 8 only the first step is exact, and it
        # runs over sites, as no bond starts at its cap
        (4, True, 2, 16, 4, False),
        (4, True, 1, 8, 1, False),
    ],
)
def test_fused_blocks_match_forward_only_without_a_cut(
    d, imag, order, max_bond, n_steps, full_rank
):
    if d == 2:
        n, op, watched = 14, SZ, (0, 3, 6, 7, 13)  # block edges and one inside
        scheme = build_trotter(heisenberg_xxz(n, J=1.0, delta=0.6), 0.05, order, imag)
        if full_rank:
            psi0 = random_mps([2] * n, max_bond, 9, dtype=float if imag else complex)
        else:
            psi0 = random_mps([2] * n, 1, 9, dtype=float) if imag else neel(n)
    else:
        n, op, watched = 5, lift_site_operator(SZ, 2), (0, 1, 2, 4)
        scheme = _purified_scheme(n, 0.1, order)
        psi0 = infinite_temperature_state(n, 2)
    out, trace = evolve_gates(
        psi0, scheme, n_steps, max_bond=max_bond, rel_cutoff=0.0, abort_threshold=1e-3,
        observables={k: (k, op) for k in watched},
    )
    assert max(trace.discarded) < 1e-28
    ref, ref_series, ref_log_norms = _forward_only(psi0, scheme, n_steps, 256, watched, op)
    np.testing.assert_allclose(to_dense(out), to_dense(ref), rtol=0, atol=1e-12)
    np.testing.assert_allclose(trace.log_norms, ref_log_norms, rtol=0, atol=1e-12)
    for k in watched:
        np.testing.assert_allclose(trace.observables[k], ref_series[k], rtol=0, atol=1e-12)
    assert canonical_residual(out) < 1e-12


def test_fused_abort_returns_the_state_of_its_last_step():
    # 14 sites at max_bond 16: blocks of sites 0-4 and 9-13 once their
    # bonds reach their caps, with single sites between; the cuts grow from
    # rounding until one step aborts
    scheme = build_trotter(transverse_field_ising(14, h=1.0), 0.1, order=2, imag=False)
    watched = (0, 2, 4, 5, 13)

    def run(n_steps, threshold):
        return evolve_gates(
            neel(14), scheme, n_steps, max_bond=16, rel_cutoff=0.0, abort_threshold=threshold,
            observables={k: (k, SZ) for k in watched},
        )

    out, trace = run(50, 1e-20)
    k = len(trace.discarded)
    assert trace.aborted and k < 50
    assert max(trace.discarded[:-1]) <= 1e-20 < trace.discarded[-1]
    # the steps before any cut above rounding are exact
    exact = next(j for j, w in enumerate(trace.discarded) if w > 1e-28)
    assert exact > 2
    _, ref_series, _ = _forward_only(neel(14), scheme, exact, 256, watched)
    for site in watched:
        np.testing.assert_allclose(
            trace.observables[site][: exact + 1], ref_series[site], rtol=0, atol=1e-12
        )
    # the aborted step applied the owed layer and split the blocks back into
    # sites: the state is the one a run of exactly k steps returns
    same, same_trace = run(k, np.inf)
    assert not same_trace.aborted and same_trace.discarded == trace.discarded
    assert same.center == out.center and same.bond_dims == out.bond_dims
    for a, b in zip(same.sites, out.sites):
        np.testing.assert_array_equal(a, b)
    assert canonical_residual(out) < 1e-12


def _site_sweep(psi, scheme, n_steps, trunc):
    """The sweep over sites: every gate split, each layer swept from the
    end nearer the center, a second-order scheme's trailing and leading
    half-layers run as one layer of squared gates and the last one owed.
    Returns the sites, the center and each step's discarded weight; no
    norm is pulled out, so in imaginary time only the bonds compare."""
    if scheme.order == 2:
        owed, middle = scheme.layers[:2]
        squared = tuple(TrotterGate(g.bond, g.matrix @ g.matrix) for g in owed)
        steps = [(owed, middle)] + [(squared, middle)] * (n_steps - 1)
    else:
        owed, steps = (), [scheme.layers] * n_steps
    sites, center = list(canonicalize(psi, 0).sites), 0

    def sweep(layer):
        nonlocal center
        weight = 0.0
        leftward = abs(layer[-1].bond + 1 - center) < abs(layer[0].bond - center)
        for gate in reversed(layer) if leftward else layer:
            _move_center(sites, center, min(max(center, gate.bond), gate.bond + 1))
            weight += _gate_inplace(sites, gate.bond, gate.matrix, trunc, leftward).discarded_weight
            center = gate.bond if leftward else gate.bond + 1
        return weight

    weights = [sum(sweep(layer) for layer in step) for step in steps]
    if owed:
        weights[-1] += sweep(owed)
    return sites, center, weights


@pytest.mark.parametrize(
    "case", ["full-rank", "neel", "purified", "short-long-chain", "long-chain"]
)
def test_fused_evolution_keeps_the_bonds_of_the_sweep_over_sites(case):
    import tracemalloc

    # (start state, scheme, steps, max_bond); a bond joins a block only once
    # the gates have grown it to its cap, so the bonds come back as the
    # sweep over sites leaves them: at their caps where it reaches them,
    # and as far as the gates grew them where it does not
    n = 20 if "long" in case else 10
    spec = transverse_field_ising(n, h=1.0)
    psi, scheme, n_steps, max_bond = {
        # every bond starts at its cap: one block from the first step
        "full-rank": (random_mps([2] * n, 32, 6), build_trotter(spec, 0.05, 2, False), 2, 32),
        "neel": (neel(n), build_trotter(spec, 0.05, 2, False), 3, 32),
        "purified": (infinite_temperature_state(5, 2), _purified_scheme(5, 0.05, 2), 4, 16),
        # the bonds of 20 sites could reach 1024, but one step grows them to
        # 8 at most (blocks joined by the caps alone made one block of 2^20
        # entries here, about 100 MB)
        "short-long-chain": (neel(n), build_trotter(spec, 0.05, 2, False), 1, 1024),
        "long-chain": (neel(n), build_trotter(spec, 0.05, 1, False), 3, 1024),
    }[case]

    def traced(run):
        """run() and the peak of the memory it allocates."""
        tracemalloc.start()
        try:
            return run(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (out, trace), peak = traced(
        lambda: evolve_gates(
            psi, scheme, n_steps, max_bond=max_bond, rel_cutoff=0.0, abort_threshold=1e-3
        )
    )
    (sites, _, weights), sweep_peak = traced(
        lambda: _site_sweep(psi, scheme, n_steps, TruncationSpec(max_bond=max_bond))
    )
    assert max(weights) < 1e-28 and max(trace.discarded) < 1e-28
    assert out.bond_dims == tuple(a.shape[2] for a in sites[:-1])
    if case in ("full-rank", "purified"):
        assert out.bond_dims == tuple(bond_caps(psi.phys_dims, max_bond))
    # the blocks hold no more than the sites they replace; evolve_gates also
    # builds the state it returns, which the sweep does not (read 0.7-1.6
    # times here, and over 100 times for the 20-site runs when all such
    # bonds joined before the first step)
    assert peak < 2 * sweep_peak
    if case == "short-long-chain":
        assert max(out.bond_dims) == 8
    if not scheme.imag:
        ref = MatrixProductState(sites)
        np.testing.assert_allclose(to_dense(out), to_dense(ref), rtol=0, atol=1e-12)
    assert canonical_residual(out) < 1e-12


def test_a_positive_rel_cutoff_sweeps_site_by_site():
    # with rel_cutoff > 0 every bond can cut, every block is one site, and
    # the evolution is the sweep over sites, bit for bit
    scheme = build_trotter(transverse_field_ising(14, h=1.0), 0.05, order=2, imag=False)
    n_steps, trunc = 8, TruncationSpec(max_bond=32, rel_cutoff=1e-10)
    out, trace = evolve_gates(
        neel(14), scheme, n_steps, max_bond=32, rel_cutoff=1e-10, abort_threshold=1e-3
    )
    sites, center, weights = _site_sweep(neel(14), scheme, n_steps, trunc)
    assert trace.discarded == tuple(weights) and max(weights) > 0.0
    assert out.center == center
    assert [a.tobytes() for a in out.sites] == [a.tobytes() for a in sites]


def test_lifting_onto_a_large_block_forms_no_block_matrix():
    import tracemalloc

    import tnkit.tebd as tebd_module

    # twelve sites at max_bond 64 with every bond at its cap are one block
    # of physical dimension 2^12: one operator of that dimension would take
    # 2^24 entries (128 MB)
    dims, n = (2,) * 12, 12
    psi = random_mps(dims, 64, 13)
    blocks = [range(n)]
    scheme = build_trotter(transverse_field_ising(n, h=1.0), 0.05, order=2, imag=False)
    layout = tebd_module._owed_layout(blocks, dims, scheme.layers[0])
    tracemalloc.start()
    try:
        lifted = tebd_module._lift_terms([(k, SZ) for k in range(n)], layout, dims)
        lift_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        _, trace = evolve_gates(
            psi, scheme, 2, max_bond=64, rel_cutoff=0.0, abort_threshold=1e-3,
            observables={k: (k, SZ) for k in range(n)},
        )
        run_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [term[0][0] for term in lifted] == [2**k for k in range(n)]
    assert lift_peak < 2**14
    # the block state itself is 2^12 complex entries (64 kB)
    assert run_peak < 2**20
    for k in range(n):
        assert trace.observables[k][0] == pytest.approx(expect_local(psi, SZ, k), abs=1e-12)


@pytest.mark.parametrize("h", [0.0, 0.9])
def test_untruncated_quench_splits_like_the_svd(h):
    # rel_cutoff 1e-15 sends every gate through the SVD; with 0 and a bond
    # cap above the full rank, every gate splits by QR or RQ
    n = 8
    spec = transverse_field_ising(n, J=1.0, h=h)
    rng = np.random.default_rng(31)
    vectors = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    psi0 = product_state(vectors / np.linalg.norm(vectors, axis=1, keepdims=True))
    runs = {}
    for cutoff in (0.0, 1e-15):
        config = TebdConfig(dt=0.05, n_steps=20, max_bond=16, rel_cutoff=cutoff)
        out, trace = evolve(psi0, spec, config, observables={"sz3": (3, SZ)})
        assert max(trace.discarded) < 1e-28
        runs[cutoff] = to_dense(out), trace.observables["sz3"]
    (qr_state, qr_sz), (svd_state, svd_sz) = runs[0.0], runs[1e-15]
    np.testing.assert_allclose(qr_state, svd_state, rtol=0, atol=1e-12)
    np.testing.assert_allclose(qr_sz, svd_sz, rtol=0, atol=1e-12)
    if h == 0.0:
        # commuting bond terms: the Trotter steps are exact
        want = dense_evolve(dense_hamiltonian(spec), to_dense(psi0), 1.0)
        np.testing.assert_allclose(qr_state, want, rtol=0, atol=1e-10)


def test_thermal_ln_z_splits_like_the_svd():
    spec = transverse_field_ising(5, J=1.0, h=0.8)
    ln_z = {}
    for cutoff in (0.0, 1e-15):
        config = ThermalConfig(beta=1.0, dt=0.05, max_bond=32, rel_cutoff=cutoff)
        _, ln_z[cutoff], _ = thermal_state(spec, config)
    assert ln_z[0.0] == pytest.approx(ln_z[1e-15], rel=0, abs=1e-12)
    assert ln_z[0.0] == pytest.approx(dense_gibbs(dense_hamiltonian(spec), 1.0).ln_z, rel=1e-3)


def test_two_site_chain_with_an_empty_layer():
    spec = transverse_field_ising(2, h=0.7)
    assert build_trotter(spec, 0.01, order=2, imag=False).layers[1] == ()
    out, _ = evolve(neel(2), spec, TebdConfig(dt=0.01, n_steps=50, max_bond=2))
    want = dense_evolve(dense_hamiltonian(spec), to_dense(neel(2)), 0.5)
    assert abs(np.vdot(want, to_dense(out))) == pytest.approx(1.0, abs=1e-6)


def test_truncated_quench_aborts_on_weight_threshold():
    spec = heisenberg_xxz(8, J=1.0, delta=0.5)
    config = TebdConfig(
        dt=0.1, n_steps=50, max_bond=2, abort_threshold=1e-8
    )
    out, trace = evolve(neel(8), spec, config)
    assert trace.aborted
    steps_done = len(trace.discarded)
    assert steps_done < 50
    assert trace.discarded[-1] > 1e-8
    assert len(trace.times) == steps_done + 1
    assert max(out.bond_dims) <= 2
    # the aborted step applied the owed half-layer: the state is psi(t_k),
    # as a run of exactly k steps leaves it
    full = TebdConfig(dt=0.1, n_steps=steps_done, max_bond=2, abort_threshold=np.inf)
    same, same_trace = evolve(neel(8), spec, full)
    assert not same_trace.aborted
    assert same_trace.discarded == trace.discarded
    np.testing.assert_array_equal(to_dense(same), to_dense(out))
    # on the last step the abort check sees the owed layer's weight: two
    # sites have no odd layer, and one step cuts after the leading half
    # and again after the owed one
    pair = heisenberg_xxz(2, J=1.0, delta=0.5)
    half = build_trotter(pair, 0.3, order=2, imag=False).layers[0][0].matrix
    lead_weight = apply_gate(neel(2), 0, half, TruncationSpec(max_bond=1))[1].discarded_weight
    once = TebdConfig(dt=0.3, n_steps=1, max_bond=1, abort_threshold=np.inf)
    _, one = evolve(neel(2), pair, once)
    assert one.discarded[0] > 1.5 * lead_weight > 0.0
    threshold = (lead_weight + one.discarded[0]) / 2
    _, tripped = evolve(
        neel(2), pair, TebdConfig(dt=0.3, n_steps=1, max_bond=1, abort_threshold=threshold)
    )
    assert tripped.aborted and tripped.discarded == one.discarded


def test_imaginary_time_reaches_ground_state():
    spec = transverse_field_ising(6, J=1.0, h=1.5)
    schedule = ((0.1, 150), (0.02, 100), (0.005, 100))
    psi = imaginary_time_ground_state(spec, max_bond=16, schedule=schedule)
    assert norm(psi) == pytest.approx(1.0, abs=1e-10)
    e = expect_mpo(psi, build_mpo(spec)).real
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert e == pytest.approx(e0, rel=1e-4)


def test_lift_helpers():
    assert np.allclose(lift_site_operator(SZ, 2), np.kron(SZ, np.eye(2)))
    op = build_mpo(transverse_field_ising(2, h=0.7))
    np.testing.assert_allclose(
        mpo_to_dense(lift_mpo(op)), lift_gate(mpo_to_dense(op), 2), atol=1e-13
    )
    with pytest.raises(ValueError):
        lift_site_operator(np.eye(3), 2)


def test_infinite_temperature_state_is_maximally_mixed():
    psi = infinite_temperature_state(4, 2)
    assert norm(psi) == pytest.approx(1.0, abs=1e-14)
    for k in range(4):
        val = expect_local(psi, lift_site_operator(SZ, 2), k)
        assert abs(val) < 1e-14


def test_thermal_state_beta_zero():
    spec = transverse_field_ising(5, h=1.1)
    psi, ln_z, trace = thermal_state(spec, ThermalConfig(beta=0.0, dt=0.01, max_bond=8))
    assert ln_z == pytest.approx(5 * np.log(2), abs=1e-12)
    assert trace.times == (0.0,)
    e = expect_mpo(psi, lift_mpo(build_mpo(spec))).real
    assert abs(e) < 1e-12  # traceless Hamiltonian at infinite temperature


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_thermal_state_matches_dense_gibbs(beta):
    spec = transverse_field_ising(5, J=1.0, h=0.8)
    dh = dense_hamiltonian(spec)
    ref = dense_gibbs(dh, beta)
    psi, ln_z, _ = thermal_state(spec, ThermalConfig(beta=beta, dt=0.005, max_bond=32))
    assert ln_z == pytest.approx(ref.ln_z, abs=5e-4 * abs(ref.ln_z))
    e = expect_mpo(psi, lift_mpo(build_mpo(spec))).real
    assert e == pytest.approx(ref.energy, rel=2e-4)
    lifted_sz = lift_site_operator(SZ, 2)
    for k in range(5):
        got = expect_local(psi, lifted_sz, k).real
        assert got == pytest.approx(ref.local[k], abs=2e-4)


def test_config_validation():
    with pytest.raises(ValueError):
        TebdConfig(dt=-0.1, n_steps=10, max_bond=4)
    with pytest.raises(ValueError):
        TebdConfig(dt=0.1, n_steps=0, max_bond=4)
    with pytest.raises(ValueError):
        TebdConfig(dt=0.1, n_steps=10, max_bond=4, order=4)
    with pytest.raises(ValueError):
        TebdConfig(dt=0.1, n_steps=10, max_bond=4, abort_threshold=0.0)


def test_evolve_rejects_wrong_lattice():
    spec = transverse_field_ising(5, h=1.0)
    with pytest.raises(ValueError):
        evolve(neel(4), spec, TebdConfig(dt=0.1, n_steps=1, max_bond=4))


def test_imaginary_time_and_thermal_states_of_real_models_are_real():
    spec = transverse_field_ising(5, J=1.0, h=0.8)
    psi, _, _ = thermal_state(spec, ThermalConfig(beta=0.4, dt=0.05, max_bond=16))
    assert all(a.dtype == np.float64 for a in psi.sites)
    cooled = imaginary_time_ground_state(spec, max_bond=8, schedule=((0.1, 5),))
    assert all(a.dtype == np.float64 for a in cooled.sites)
    # real-time gates are complex by construction
    out, _ = evolve(neel(5), spec, TebdConfig(dt=0.05, n_steps=1, max_bond=8))
    assert all(a.dtype == np.complex128 for a in out.sites)
