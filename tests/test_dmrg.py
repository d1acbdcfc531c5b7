"""Ground and excited state search against exact diagonalization."""

import numpy as np
import pytest

from tnkit.dmrg import DmrgConfig, excited_state, ground_state, lanczos_ground
from tnkit.models import SZ, heisenberg_xxz, transverse_field_ising
from tnkit.mpo import build_mpo, expect_mpo
from tnkit.mps import (
    canonical_residual,
    entanglement_entropy,
    expect_local,
    inner,
    norm,
    random_mps,
    to_dense,
)
from tnkit.oracle import dense_hamiltonian, ed_ground, ed_spectrum


def test_lanczos_on_dense_matrix():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = (m + m.conj().T) / 2
    want = np.linalg.eigvalsh(m)[0]
    theta, vec, ok = lanczos_ground(lambda x: m @ x, rng.normal(size=40), 100, 1e-12)
    assert ok
    assert theta == pytest.approx(want, abs=1e-10)
    assert np.linalg.norm(m @ vec - theta * vec) < 1e-8


def test_lanczos_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        lanczos_ground(lambda x: m @ x, np.array([1.0, 1.0j]), 50, 1e-10)


def test_lanczos_invariant_subspace():
    # start vector is an exact eigenvector: one step must suffice
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    theta, vec, ok = lanczos_ground(lambda x: m @ x, np.array([0.0, 1.0, 0.0]), 50, 1e-12)
    assert ok
    assert theta == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("dim, max_iter", [(6, 50), (300, 120)])
def test_lanczos_matches_dense_eigh(dim, max_iter):
    # dim < max_iter: the Krylov space fills the whole space, an invariant
    # subspace, and the basis never needs more than dim rows
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    spectrum = np.linspace(0.0, 1.0, dim)
    spectrum[0] = -1.0  # a gap that converges within max_iter
    m = (q * spectrum) @ q.conj().T
    w, v = np.linalg.eigh(m)
    theta, vec, ok = lanczos_ground(lambda y: m @ y, rng.normal(size=dim), max_iter, 1e-12)
    assert ok
    assert theta == pytest.approx(w[0], abs=1e-12)
    assert abs(np.vdot(v[:, 0], vec)) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("h", [0.4, 1.0, 1.6])
def test_tfi_ground_energy_matches_ed(h):
    spec = transverse_field_ising(8, J=1.0, h=h)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=30, seed=3)
    energy, psi, trace = ground_state(op, config)
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert energy == pytest.approx(e0, rel=1e-10)
    assert trace.converged
    assert norm(psi) == pytest.approx(1.0, abs=1e-10)
    assert canonical_residual(psi) < 1e-10
    assert expect_mpo(psi, op).real == pytest.approx(energy, abs=1e-10)


def test_xxz_ground_energy_matches_ed():
    spec = heisenberg_xxz(8, J=1.0, delta=0.7, field=0.25)
    op = build_mpo(spec)
    energy, psi, _ = ground_state(op, DmrgConfig(max_bond=20, n_sweeps=30, seed=5))
    e0, v0 = ed_ground(dense_hamiltonian(spec))
    assert energy == pytest.approx(e0, rel=1e-10)
    # state itself matches up to a phase
    assert abs(np.vdot(v0, to_dense(psi))) == pytest.approx(1.0, abs=1e-8)


def test_energies_monotone_and_seed_deterministic():
    spec = transverse_field_ising(7, h=0.9)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=8, n_sweeps=6, seed=11)
    energy, psi, trace = ground_state(op, config)
    diffs = np.diff(trace.update_energies)
    assert np.max(diffs, initial=-np.inf) <= 1e-9
    energy2, psi2, trace2 = ground_state(op, config)
    assert energy2 == energy
    assert trace2.update_energies == trace.update_energies
    for a, b in zip(psi.sites, psi2.sites):
        np.testing.assert_array_equal(a, b)


def test_warm_start_converges_immediately():
    spec = transverse_field_ising(8, h=1.1)
    op = build_mpo(spec)
    energy, psi, trace = ground_state(op, DmrgConfig(max_bond=12, seed=1))
    e2, _, trace2 = ground_state(op, DmrgConfig(max_bond=12, seed=1), psi0=psi)
    assert trace2.n_sweeps < trace.n_sweeps
    assert e2 == pytest.approx(energy, abs=1e-10)


def test_bounded_bond_dimension_is_variational():
    spec = heisenberg_xxz(10, J=1.0, delta=1.0)
    op = build_mpo(spec)
    e_small, psi, _ = ground_state(op, DmrgConfig(max_bond=4, n_sweeps=20, seed=7))
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert max(psi.bond_dims) <= 4
    assert e_small >= e0 - 1e-12
    for bond, extent in enumerate(psi.bond_dims):
        assert entanglement_entropy(psi, bond) <= np.log(extent) + 1e-10


def test_initial_state_validation():
    op = build_mpo(transverse_field_ising(6, h=1.0))
    config = DmrgConfig(max_bond=4, seed=0)
    with pytest.raises(ValueError):
        ground_state(op, config, psi0=random_mps([2] * 5, max_bond=4, rng=0))
    with pytest.raises(ValueError):
        ground_state(op, config, psi0=random_mps([2] * 6, max_bond=8, rng=0))


def test_config_validation():
    with pytest.raises(ValueError):
        DmrgConfig(max_bond=0)
    with pytest.raises(ValueError):
        DmrgConfig(max_bond=4, n_sweeps=0)
    with pytest.raises(ValueError):
        DmrgConfig(max_bond=4, noise=-1.0)


def test_first_excited_state_tfi():
    spec = transverse_field_ising(8, J=1.0, h=1.3)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=30, seed=2)
    e0, psi0, _ = ground_state(op, config)
    e1, psi1, trace = excited_state(op, config, [psi0], penalty_weight=20.0)
    levels, _ = ed_spectrum(dense_hamiltonian(spec), 3)
    assert e0 == pytest.approx(levels[0], rel=1e-9)
    assert e1 == pytest.approx(levels[1], rel=1e-7)
    assert trace.final_overlaps[0] < 1e-6
    assert abs(inner(psi0, psi1)) < 1e-6


def test_second_excited_state_xxz():
    spec = heisenberg_xxz(6, J=1.0, delta=0.4, field=0.1)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=40, seed=9)
    e0, psi0, _ = ground_state(op, config)
    e1, psi1, _ = excited_state(op, config, [psi0], penalty_weight=20.0)
    e2, psi2, trace = excited_state(op, config, [psi0, psi1], penalty_weight=20.0)
    levels, _ = ed_spectrum(dense_hamiltonian(spec), 4)
    assert e1 == pytest.approx(levels[1], rel=1e-7)
    assert e2 == pytest.approx(levels[2], rel=1e-6)
    assert max(trace.final_overlaps) < 1e-5


def test_ordered_phase_ground_state():
    # small transverse field: near-degenerate doublet, still must find the
    # symmetric combination at the bottom
    spec = transverse_field_ising(10, J=1.0, h=0.3)
    op = build_mpo(spec)
    energy, psi, _ = ground_state(op, DmrgConfig(max_bond=12, n_sweeps=40, seed=4))
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert energy == pytest.approx(e0, rel=1e-9)
    # magnetization vanishes in the symmetric state
    assert abs(expect_local(psi, SZ, 5).real) < 1e-3
