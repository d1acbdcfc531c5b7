"""Trotter evolution against dense propagators and Gibbs states."""

import numpy as np
import pytest

from tnkit.models import SZ, heisenberg_xxz, transverse_field_ising
from tnkit.mpo import build_mpo, expect_mpo, mpo_to_dense
from tnkit.mps import (
    MatrixProductState,
    _move_center,
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
    unitary = [_random_unitary(4, rng) for _ in range(5)]
    positive = [_positive_gate(4, rng) for _ in range(5)]
    lifted = [lift_gate(_random_unitary(4, rng), 2) for _ in range(3)]
    return {
        # bonds (2, 4, 8, 4, 2): every inner gate meets unequal left and
        # right extents
        "complex": (random_mps([2] * 6, 8, 3), unitary, False),
        "real-imaginary-time": (random_mps([2] * 6, 8, 4, dtype=float), positive, True),
        "lifted-d4": (random_mps([4] * 4, 16, 5), lifted, False),
    }


@pytest.mark.parametrize("case", ["complex", "real-imaginary-time", "lifted-d4"])
def test_gate_kernel_sweeps_both_ways_like_the_dense_embedding(monkeypatch, case):
    import tnkit.tebd as tebd_module

    psi, gates, imag = _gate_sweep_cases()[case]
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
    out, trace = evolve_gates(psi, scheme, 1, max_bond=64)
    # the first layer runs rightward from site 0, the second leftward back
    assert [lw for lw, _, _ in seen] == [False] * len(even) + [True] * len(odd)
    assert any(dl != dr for _, dl, dr in seen)
    assert trace.discarded == (0.0,)
    want = to_dense(psi)
    for layer in (even, odd):
        for g in layer:
            want = _dense_gate(dims, g.bond, g.matrix) @ want
    got = to_dense(out) * np.exp(sum(trace.log_norms))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.linalg.norm(want))
    assert canonical_residual(out) < 1e-12
    if case == "real-imaginary-time":
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
    s1 = build_trotter(spec, 0.1, order=1)
    assert len(s1.layers) == 2
    assert [g.bond for g in s1.layers[0]] == [0, 2, 4]
    assert [g.bond for g in s1.layers[1]] == [1, 3, 5]
    s2 = build_trotter(spec, 0.1, order=2)
    assert len(s2.layers) == 3
    assert [g.bond for g in s2.layers[0]] == [0, 2, 4]
    assert [g.bond for g in s2.layers[2]] == [0, 2, 4]
    for layer in s2.layers:
        for g in layer:
            defect = np.max(np.abs(g.matrix.conj().T @ g.matrix - np.eye(4)))
            assert defect < 1e-12
    with pytest.raises(ValueError):
        build_trotter(spec, 0.0)
    with pytest.raises(ValueError):
        build_trotter(spec, 0.1, order=3)


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
    out, trace = evolve(
        neel(4),
        spec,
        config,
        observables={"sz0": lambda m: expect_local(m, SZ, 0).real},
    )
    assert trace.times == tuple(pytest.approx(0.05 * k) for k in range(11))
    assert len(trace.observables["sz0"]) == 11
    assert trace.observables["sz0"][0] == pytest.approx(1.0, abs=1e-12)
    dh = dense_hamiltonian(spec)
    v = dense_evolve(dh, to_dense(neel(4)), 0.5)
    op = np.kron(SZ, np.eye(8))
    want = np.vdot(v, op @ v).real
    assert trace.observables["sz0"][-1] == pytest.approx(want, abs=1e-4)


def _forward_only(psi, scheme, n_steps, max_bond):
    """Every layer swept left to right, the center walked back each time."""
    trunc = TruncationSpec(max_bond=max_bond)
    sites, center = list(canonicalize(psi, 0).sites), 0
    for _ in range(n_steps):
        for layer in scheme.layers:
            for gate in layer:
                _move_center(sites, center, gate.bond)
                _gate_inplace(sites, gate.bond, gate.matrix, trunc)
                center = gate.bond + 1
    return MatrixProductState(sites, center=center)


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
    spec = transverse_field_ising(14, h=1.0)
    scheme = build_trotter(spec, 0.05, order=2)
    psi0 = neel(14)
    calls = _count_center_moves(monkeypatch)
    n_steps = 6
    out, _ = evolve_gates(psi0, scheme, n_steps, max_bond=32)
    # a forward-only sweep walks the center back before each layer: 54 per step
    assert len(calls) / n_steps <= 20
    assert canonical_residual(out) < 1e-12


def test_gate_sweeps_match_forward_only_order_without_truncation():
    spec = heisenberg_xxz(14, J=1.0, delta=0.6)
    scheme = build_trotter(spec, 0.05, order=2)
    out, trace = evolve_gates(neel(14), scheme, 4, max_bond=128)
    assert max(trace.discarded) == 0.0
    ref = _forward_only(neel(14), scheme, 4, max_bond=128)
    np.testing.assert_allclose(to_dense(out), to_dense(ref), rtol=0, atol=1e-12)
    for site in (0, 6, 13):
        assert expect_local(out, SZ, site) == pytest.approx(
            expect_local(ref, SZ, site), abs=1e-12
        )


def test_two_site_chain_with_an_empty_layer():
    spec = transverse_field_ising(2, h=0.7)
    assert build_trotter(spec, 0.01).layers[1] == ()
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
    psi, ln_z, trace = thermal_state(spec, beta=0.0, dt=0.01, max_bond=8)
    assert ln_z == pytest.approx(5 * np.log(2), abs=1e-12)
    assert trace.times == (0.0,)
    e = expect_mpo(psi, lift_mpo(build_mpo(spec))).real
    assert abs(e) < 1e-12  # traceless Hamiltonian at infinite temperature


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_thermal_state_matches_dense_gibbs(beta):
    spec = transverse_field_ising(5, J=1.0, h=0.8)
    dh = dense_hamiltonian(spec)
    ref = dense_gibbs(dh, beta)
    psi, ln_z, _ = thermal_state(spec, beta=beta, dt=0.005, max_bond=32)
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
    psi, _, _ = thermal_state(spec, beta=0.4, dt=0.05, max_bond=16)
    assert all(a.dtype == np.float64 for a in psi.sites)
    cooled = imaginary_time_ground_state(spec, max_bond=8, schedule=((0.1, 5),))
    assert all(a.dtype == np.float64 for a in cooled.sites)
    # real-time gates are complex by construction
    out, _ = evolve(neel(5), spec, TebdConfig(dt=0.05, n_steps=1, max_bond=8))
    assert all(a.dtype == np.complex128 for a in out.sites)
