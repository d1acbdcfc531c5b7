"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line with the measured margins.

Later criteria reuse states produced by earlier ones (collected in
PRODUCED) so the entropy bound is enforced on everything the suite makes.
"""

import contextlib
import io
import json
import time

import numpy as np

from tnkit.cli import main
from tnkit.dmrg import DmrgConfig, ground_state
from tnkit.models import (
    ClassicalModelSpec,
    SX,
    SZ,
    heisenberg_xxz,
    transverse_field_ising,
)
from tnkit.mpo import (
    apply_mpo_exact,
    apply_mpo_variational,
    build_mpo,
    expect_mpo,
)
from tnkit.mps import (
    compress,
    correlator,
    entanglement_entropy,
    expect_local,
    gauge_transform,
    norm,
    product_state,
    random_mps,
    to_dense,
)
from tnkit.oracle import (
    dense_evolve,
    dense_gibbs,
    dense_hamiltonian,
    ed_ground,
    ising_brute_force,
    onsager_f,
    site_operator,
)
from tnkit.tebd import (
    TebdConfig,
    ThermalConfig,
    build_trotter,
    evolve,
    imaginary_time_ground_state,
    lift_mpo,
    lift_site_operator,
    thermal_state,
)
from tnkit.tensor import TruncationSpec
from tnkit.trg import (
    CoarseGrainConfig,
    coarse_grain,
    hotrg_step,
    initial_state,
    torus_trace,
    trg_step,
)

BETA_C = 0.5 * np.log(1.0 + np.sqrt(2.0))

PRODUCED = []


def _report(number, description, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status} {description} ({detail})")
    assert ok, f"criterion {number}: {description} ({detail})"


def _collect(psi):
    """Track a produced state and enforce the entropy bound on every cut."""
    for bond, extent in enumerate(psi.bond_dims):
        assert entanglement_entropy(psi, bond) <= np.log(extent) + 1e-10
    PRODUCED.append(psi)
    return psi


def _neel(n):
    up, dn = np.array([1.0, 0.0], complex), np.array([0.0, 1.0], complex)
    return product_state([up if i % 2 == 0 else dn for i in range(n)])


def test_criterion_01_dmrg_energy_matches_exact_diagonalization():
    worst_rel, worst_time = 0.0, 0.0
    for h in (0.5, 1.0, 1.5):
        spec = transverse_field_ising(12, J=1.0, h=h)
        e_ref, _ = ed_ground(dense_hamiltonian(spec))
        t0 = time.perf_counter()
        energy, psi, trace = ground_state(build_mpo(spec), DmrgConfig(max_bond=32, seed=1))
        wall = time.perf_counter() - t0
        _collect(psi)
        worst_rel = max(worst_rel, abs(energy - e_ref) / abs(e_ref))
        worst_time = max(worst_time, wall)
    _report(
        1,
        "ground-state energy vs brute force, 12 sites, 3 fields, bond 32",
        worst_rel <= 1e-8 and worst_time < 60.0,
        f"worst rel err {worst_rel:.2e} <= 1e-8, worst time {worst_time:.1f}s < 60s",
    )


def test_criterion_02_sweep_energies_never_increase():
    spec = transverse_field_ising(10, J=1.0, h=1.0)
    op = build_mpo(spec)
    worst = -np.inf
    for seed in range(100):
        cfg = DmrgConfig(max_bond=8, n_sweeps=4, seed=seed)
        _, _, trace = ground_state(op, cfg)
        if len(trace.sweep_energies) > 1:
            worst = max(worst, float(np.max(np.diff(trace.sweep_energies))))
    _report(
        2,
        "no sweep-to-sweep energy increase over 100 random-seed runs, 10 sites",
        worst <= 1e-9,
        f"largest increase {worst:.2e} <= 1e-9",
    )


def test_criterion_03_gauge_transformations_are_invisible():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 8))
        psi = random_mps((2,) * n, int(rng.integers(2, 7)), rng)
        bond = int(rng.integers(0, n - 1))
        dim = psi.bond_dims[bond]
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        x = q @ np.diag(rng.uniform(0.5, 2.0, dim))
        riffled = gauge_transform(psi, bond, x)

        worst = max(worst, abs(norm(riffled) - norm(psi)))
        site = int(rng.integers(0, n))
        worst = max(
            worst, abs(expect_local(riffled, SZ, site) - expect_local(psi, SZ, site))
        )
        a, b = sorted(rng.choice(n, size=2, replace=False))
        worst = max(
            worst,
            abs(correlator(riffled, SZ, a, SZ, b) - correlator(psi, SZ, a, SZ, b)),
            abs(correlator(riffled, SX, a, SX, b) - correlator(psi, SX, a, SX, b)),
        )
    _report(
        3,
        "norms, local values and correlators unchanged by 50 random gauge moves",
        worst <= 1e-9,
        f"worst deviation {worst:.2e} <= 1e-9",
    )


def test_criterion_04_entropy_never_exceeds_bond_capacity():
    rng = np.random.default_rng(11)
    spec = transverse_field_ising(10, J=1.0, h=0.8)
    _, tight, _ = ground_state(build_mpo(spec), DmrgConfig(max_bond=4, seed=2))
    PRODUCED.append(tight)
    squeezed, _ = compress(random_mps((2,) * 8, 16, rng), TruncationSpec(max_bond=3))
    PRODUCED.append(squeezed)
    crushed, _ = evolve(
        _neel(8),
        heisenberg_xxz(8, J=1.0, delta=0.5),
        TebdConfig(dt=0.1, n_steps=10, max_bond=4, abort_threshold=np.inf),
    )
    PRODUCED.append(crushed)
    cooled = imaginary_time_ground_state(
        transverse_field_ising(6, h=1.0), 8, schedule=((0.1, 80), (0.02, 60))
    )
    PRODUCED.append(cooled)
    purified, _, _ = thermal_state(transverse_field_ising(4, h=1.0), ThermalConfig(1.0, 0.05, 8))
    PRODUCED.append(purified)

    worst, cuts = -np.inf, 0
    for psi in PRODUCED:
        for bond, extent in enumerate(psi.bond_dims):
            worst = max(worst, entanglement_entropy(psi, bond) - np.log(extent))
            cuts += 1
    _report(
        4,
        f"single-cut entropy <= ln(bond extent) on {cuts} cuts of {len(PRODUCED)} states",
        worst <= 1e-10,
        f"worst excess {worst:.2e} <= 1e-10",
    )


def test_criterion_05_second_order_evolution_error_scales_as_dt_squared():
    spec = transverse_field_ising(6, J=1.0, h=1.0)
    site = 2
    v = dense_evolve(dense_hamiltonian(spec), to_dense(_neel(6)), 1.0)
    op = site_operator(SZ, site, 6).toarray()
    exact = np.vdot(v, op @ v).real

    errs, drift = [], 0.0
    for dt in (0.1, 0.05):
        cfg = TebdConfig(dt=dt, n_steps=round(1.0 / dt), max_bond=16, order=2)
        out, trace = evolve(_neel(6), spec, cfg)
        assert not trace.aborted and max(trace.discarded) == 0.0
        _collect(out)
        errs.append(abs(expect_local(out, SZ, site).real - exact))
        drift = max(drift, abs(norm(out) - 1.0))
    ratio = errs[0] / errs[1]
    _report(
        5,
        "halving dt cuts the t=1 quench observable error 4x, norm drift tiny",
        3.2 <= ratio <= 4.8 and drift < 1e-8,
        f"ratio {ratio:.3f} in [3.2, 4.8], norm drift {drift:.2e} < 1e-8",
    )


def test_criterion_06_imaginary_time_evolution_agrees_with_dmrg():
    spec = transverse_field_ising(10, J=1.0, h=1.0)
    op = build_mpo(spec)
    e_exact, _ = ed_ground(dense_hamiltonian(spec))
    e_dmrg, psi_dmrg, _ = ground_state(op, DmrgConfig(max_bond=32, seed=1))
    _collect(psi_dmrg)
    psi_cooled = imaginary_time_ground_state(spec, 32)
    _collect(psi_cooled)
    e_cooled = expect_mpo(psi_cooled, op).real

    rel = abs(e_cooled - e_dmrg) / abs(e_dmrg)
    slack = 1e-9 * abs(e_exact)
    variational = e_dmrg >= e_exact - slack and e_cooled >= e_exact - slack
    _report(
        6,
        "cooled energy within 1e-4 of dmrg energy, both above the exact value",
        rel <= 1e-4 and variational,
        f"rel gap {rel:.2e} <= 1e-4, margins {e_dmrg - e_exact:.2e} and "
        f"{e_cooled - e_exact:.2e} >= -{slack:.0e}",
    )


def test_criterion_07_thermal_states_match_dense_gibbs():
    spec = transverse_field_ising(6, J=1.0, h=1.25)
    dh = dense_hamiltonian(spec)
    lifted_h = lift_mpo(build_mpo(spec))
    worst = 0.0
    for beta in (0.5, 1.0, 2.0):
        psi, _, _ = thermal_state(spec, ThermalConfig(beta, 0.005, 32))
        _collect(psi)
        energy = expect_mpo(psi, lifted_h).real
        ref = dense_gibbs(dh, beta).energy
        worst = max(worst, abs(energy - ref) / abs(ref))

    psi0, ln_z0, _ = thermal_state(spec, ThermalConfig(0.0, 0.005, 32))
    mixed = 0.0
    for op in (SZ, SX):
        lifted = lift_site_operator(op, 2)
        for i in range(6):
            mixed = max(mixed, abs(expect_local(psi0, lifted, i)))
    mixed = max(mixed, abs(ln_z0 - 6.0 * np.log(2.0)))
    _report(
        7,
        "purified energies vs dense Gibbs at beta 0.5/1/2, maximally mixed at beta 0",
        worst <= 1e-4 and mixed <= 1e-10,
        f"worst energy rel err {worst:.2e} <= 1e-4, beta=0 deviation {mixed:.2e} <= 1e-10",
    )


def test_criterion_08_operator_application_matches_dense_matvec():
    rng = np.random.default_rng(3)
    worst = 0.0
    for spec in (transverse_field_ising(8, h=0.7), heisenberg_xxz(8, J=1.0, delta=0.8)):
        op = build_mpo(spec)
        psi = random_mps((2,) * 8, 16, rng)
        want = dense_hamiltonian(spec).to_array() @ to_dense(psi)
        scale = np.linalg.norm(want)

        exact = apply_mpo_exact(op, psi)
        worst = max(worst, np.linalg.norm(to_dense(exact) - want) / scale)
        fitted, _, _ = apply_mpo_variational(op, psi, TruncationSpec(max_bond=48))
        _collect(fitted)
        worst = max(worst, np.linalg.norm(to_dense(fitted) - want) / scale)
    _report(
        8,
        "operator-times-state agrees with dense matvec at full bond, 8 sites",
        worst <= 1e-9,
        f"worst rel err {worst:.2e} <= 1e-9",
    )


def test_criterion_09_coarse_graining_reproduces_onsager():
    details = []
    ok = True
    for method in ("trg", "hotrg"):
        for beta, tol in ((BETA_C, 1e-5), (0.2, 1e-7)):
            model = ClassicalModelSpec(beta=beta)
            t0 = time.perf_counter()
            f, _ = coarse_grain(model, CoarseGrainConfig(32, 25, method))
            wall = time.perf_counter() - t0
            rel = abs(f - onsager_f(beta)) / abs(onsager_f(beta))
            ok = ok and rel < tol and wall < 120.0
            details.append(f"{method}@{beta:.3f}: {rel:.1e}<{tol:.0e} {wall:.0f}s")
    f_a, _ = coarse_grain(ClassicalModelSpec(beta=0.35), CoarseGrainConfig(16, 25, "trg"))
    f_b, _ = coarse_grain(ClassicalModelSpec(beta=0.35), CoarseGrainConfig(16, 25, "hotrg"))
    cross = abs(f_a - f_b) / abs(f_a)
    ok = ok and cross < 1e-6
    details.append(f"cross {cross:.1e}<1e-6")
    _report(9, "free energy vs exact solution, chi 32, 25 steps", ok, ", ".join(details))


def test_criterion_10_truncating_operations_are_exact_at_full_rank():
    rng = np.random.default_rng(5)
    details = []

    psi = random_mps((2,) * 6, 8, rng)
    packed, weight = compress(psi, TruncationSpec(max_bond=64))
    rel = np.linalg.norm(to_dense(packed) - to_dense(psi)) / np.linalg.norm(to_dense(psi))
    details.append(f"compress {rel:.1e}")
    ok = rel <= 1e-10 and weight == 0.0

    spec = transverse_field_ising(6, h=0.9)
    op = build_mpo(spec)
    want = dense_hamiltonian(spec).to_array() @ to_dense(psi)
    fitted, _, _ = apply_mpo_variational(op, psi, TruncationSpec(max_bond=24))
    rel = np.linalg.norm(to_dense(fitted) - want) / np.linalg.norm(want)
    details.append(f"fit {rel:.1e}")
    ok = ok and rel <= 1e-10

    xxz = heisenberg_xxz(4, J=1.0, delta=0.6)
    scheme = build_trotter(xxz, 0.05, order=2, imag=False)
    out, _ = evolve(_neel(4), xxz, TebdConfig(dt=0.05, n_steps=3, max_bond=16))
    v = to_dense(_neel(4))
    for _ in range(3):
        for layer in scheme.layers:
            for gate in layer:
                full = np.kron(
                    np.eye(2**gate.bond),
                    np.kron(gate.matrix, np.eye(2 ** (4 - gate.bond - 2))),
                )
                v = full @ v
    rel = np.linalg.norm(to_dense(out) - v)
    details.append(f"gates {rel:.1e}")
    ok = ok and rel <= 1e-10

    full = TruncationSpec(max_bond=64)
    for beta in (0.3, 0.6):
        state = initial_state(ClassicalModelSpec(beta=beta))
        state, w1 = trg_step(state, full)
        state, w2 = trg_step(state, full)
        lnz = np.log(torus_trace(state)) / 4 + state.log_norm_per_site
        want = np.log(ising_brute_force(2, beta)) / 4
        rel = abs(lnz - want) / abs(want)
        details.append(f"plaquette@{beta} {rel:.1e}")
        ok = ok and rel <= 1e-10 and w1 == 0.0 and w2 == 0.0

        state = initial_state(ClassicalModelSpec(beta=beta))
        state, _ = hotrg_step(state, full, "v")
        state, _ = hotrg_step(state, full, "h")
        lnz = np.log(torus_trace(state)) / 4 + state.log_norm_per_site
        rel = abs(lnz - want) / abs(want)
        details.append(f"merge@{beta} {rel:.1e}")
        ok = ok and rel <= 1e-10

    _report(10, "truncating paths reproduce brute force when caps exceed rank", ok,
            ", ".join(details) + " all <= 1e-10")


def test_criterion_11_reruns_are_byte_identical(tmp_path):
    configs = {
        "dmrg": {
            "seed": 9,
            "model": {"name": "transverse_field_ising", "n_sites": 8, "h": 1.0},
            "max_bond": 16,
            "scan": {"model.h": [0.6, 1.4]},
        },
        "tebd": {
            "seed": 9,
            "model": {"name": "heisenberg_xxz", "n_sites": 6, "delta": 0.5},
            "state": "random",
            "dt": 0.05,
            "n_steps": 10,
            "max_bond": 16,
            "observables": [{"op": "sz", "site": 1}],
        },
        "thermal": {
            "seed": 9,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            "beta": 0.5,
            "dt": 0.02,
            "max_bond": 16,
        },
        "trg": {
            "seed": 9,
            "model": {"name": "ising_2d", "beta": 0.3},
            "max_bond": 8,
            "n_iters": 8,
        },
        "oracle": {
            "seed": 9,
            "task": "gibbs",
            "beta": 0.5,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
        },
    }
    identical = True
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for attempt in ("first", "second"):
            out = tmp_path / f"{name}-{attempt}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([name, "--config", str(cfg_path), "--out", str(out)]) == 0
            blobs.append((out / "results.jsonl").read_bytes())
        identical = identical and blobs[0] == blobs[1]
    _report(
        11,
        "rerunning every subcommand with the same config and seed",
        identical,
        f"{len(configs)} configs byte-identical",
    )
