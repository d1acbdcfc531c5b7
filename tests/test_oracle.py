"""Self-consistency checks between the independent reference computations."""

import numpy as np
import pytest

from tnkit import models, oracle
from tnkit.models import SX, SZ


def test_tfi_two_sites_closed_form():
    # H = -J sz sz - h (sx + sx); ground energy -2 sqrt(J^2/4 + h^2) at J=h=1
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(2, 1.0, 1.0))
    e0, v0 = oracle.ed_ground(dh)
    assert np.isclose(e0, -np.sqrt(5.0), atol=1e-12)
    assert np.isclose(np.linalg.norm(dh.matrix @ v0 - e0 * v0), 0.0, atol=1e-10)


def test_tfi_classical_limit():
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(5, 1.0, 0.0))
    e0, _ = oracle.ed_ground(dh)
    assert np.isclose(e0, -4.0, atol=1e-12)


@pytest.mark.parametrize("J, h", [(1.0, 0.7), (1.0, 1.0), (0.8, 1.4), (1.0, 0.0), (0.0, 0.5)])
def test_free_fermion_ground_matches_ed(J, h):
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(8, J, h))
    e0, _ = oracle.ed_ground(dh)
    assert oracle.free_fermion_ground(8, J, h) == pytest.approx(e0, rel=1e-12, abs=1e-12)


def test_free_fermion_ground_single_site_and_bad_length():
    assert oracle.free_fermion_ground(1, 1.0, 0.3) == pytest.approx(-0.3, abs=1e-15)
    with pytest.raises(ValueError):
        oracle.free_fermion_ground(0)


def test_hamiltonian_is_hermitian_and_real_spectrum():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    two = m + m.conj().T
    one = rng.normal(size=(2, 2))
    one = one + one.T
    dh = oracle.dense_hamiltonian(models.custom_nn(4, two, one))
    arr = dh.to_array()
    assert np.max(np.abs(arr - arr.conj().T)) < 1e-12


def test_custom_nn_matches_tfi():
    # the TFI bond+field terms written as an explicit custom model
    J, h = 0.9, 0.6
    two = -J * np.kron(SZ, SZ)
    one = -h * SX
    n = 5
    d_tfi = oracle.dense_hamiltonian(models.transverse_field_ising(n, J, h)).to_array()
    d_cus = oracle.dense_hamiltonian(models.custom_nn(n, two, one)).to_array()
    # custom applies one_site on every site once; identical here
    assert np.allclose(d_cus, d_tfi, atol=1e-12)


def test_ed_spectrum_ordering_and_residuals():
    dh = oracle.dense_hamiltonian(models.heisenberg_xxz(4, 1.0, 0.5, 0.2))
    w, v = oracle.ed_spectrum(dh, 5)
    assert np.all(np.diff(w) >= -1e-12)
    for i in range(5):
        r = dh.matrix @ v[:, i] - w[i] * v[:, i]
        assert np.linalg.norm(r) < 1e-8


def test_ed_sparse_path_agrees_with_dense():
    spec = models.transverse_field_ising(11, 1.0, 0.8)  # dim 2048 -> iterative path
    dh = oracle.dense_hamiltonian(spec)
    e_sparse, _ = oracle.ed_ground(dh)
    e_dense = np.linalg.eigvalsh(dh.to_array())[0]
    assert np.isclose(e_sparse, e_dense, atol=1e-9)


def test_dense_evolve_unitary_and_stationary():
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(4, 1.0, 1.3))
    rng = np.random.default_rng(3)
    v0 = rng.normal(size=dh.dim) + 1j * rng.normal(size=dh.dim)
    v0 /= np.linalg.norm(v0)
    vt = oracle.dense_evolve(dh, v0, 1.7)
    assert np.isclose(np.linalg.norm(vt), 1.0, atol=1e-12)
    # an eigenstate only picks up a phase
    e0, g = oracle.ed_ground(dh)
    gt = oracle.dense_evolve(dh, g, 0.9)
    assert np.allclose(gt, np.exp(-1j * e0 * 0.9) * g, atol=1e-10)


def test_dense_evolve_composes():
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(3, 1.0, 0.7))
    rng = np.random.default_rng(5)
    v0 = rng.normal(size=dh.dim) + 1j * rng.normal(size=dh.dim)
    a = oracle.dense_evolve(dh, oracle.dense_evolve(dh, v0, 0.4), 0.6)
    b = oracle.dense_evolve(dh, v0, 1.0)
    assert np.allclose(a, b, atol=1e-10)


def test_gibbs_infinite_temperature():
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(3, 1.0, 0.7))
    g = oracle.dense_gibbs(dh, 0.0)
    assert np.isclose(g.ln_z, 3 * np.log(2.0), atol=1e-12)
    assert np.allclose(g.local, 0.0, atol=1e-12)
    assert np.isclose(g.energy, 0.0, atol=1e-12)  # Tr H = 0 for Pauli strings


def test_gibbs_zero_temperature_limit():
    dh = oracle.dense_hamiltonian(models.transverse_field_ising(4, 1.0, 1.2))
    e0, _ = oracle.ed_ground(dh)
    g = oracle.dense_gibbs(dh, 60.0)
    assert np.isclose(g.energy, e0, atol=1e-8)


def test_gibbs_energy_is_lnz_derivative():
    # E = -d ln Z / d beta, via central differences
    dh = oracle.dense_hamiltonian(models.heisenberg_xxz(3, 1.0, 0.8, 0.1))
    beta, eps = 0.7, 1e-5
    gp = oracle.dense_gibbs(dh, beta + eps)
    gm = oracle.dense_gibbs(dh, beta - eps)
    e = oracle.dense_gibbs(dh, beta).energy
    assert np.isclose(e, -(gp.ln_z - gm.ln_z) / (2 * eps), atol=1e-6)


def test_brute_force_small_torus():
    # L=1 torus: one site, two self-bonds -> Z = 2 e^{2 beta J}... summed over s:
    # coupling = s*s + s*s = 2 for both configurations
    assert np.isclose(oracle.ising_brute_force(1, 0.3), 2 * np.exp(0.6), atol=1e-12)
    # independent loop-based sum for L=2
    beta = 0.37
    z = 0.0
    for conf in range(16):
        s = 1 - 2 * np.array([(conf >> k) & 1 for k in range(4)], dtype=float)
        s = s.reshape(2, 2)
        e = 0.0
        for x in range(2):
            for y in range(2):
                e -= s[x, y] * s[(x + 1) % 2, y] + s[x, y] * s[x, (y + 1) % 2]
        z += np.exp(-beta * e)
    assert np.isclose(oracle.ising_brute_force(2, beta), z, rtol=1e-12)


def test_transfer_matrix_width_one():
    # width-1 cylinder: vertical chain with a doubled ring bond per site;
    # transfer "matrix" is 2x2 with lam_max = 2 e^{beta} cosh(beta)... compute directly
    beta = 0.45
    t = np.exp(beta * np.array([[1.0, -1.0], [-1.0, 1.0]]) + beta)
    lam = np.linalg.eigvalsh(t)[-1]
    assert np.isclose(oracle.ising_transfer_matrix(1, beta), -np.log(lam) / beta, atol=1e-12)


BETA_C = np.log(1.0 + np.sqrt(2.0)) / 2.0


def test_onsager_high_temperature_limit():
    # -beta f -> ln 2 as beta -> 0
    beta = 1e-6
    assert np.isclose(-beta * oracle.onsager_f(beta), np.log(2.0), atol=1e-9)


def test_onsager_low_temperature_limit():
    # -beta f -> 2 beta J as beta -> oo, also past beta ~ 177, where
    # sinh(2 beta J)^2 leaves the float range, and past beta ~ 355, where
    # sinh(2 beta J) does
    assert oracle.onsager_f(100.0) == pytest.approx(-2.0, abs=1e-14)
    for beta in (178.0, 200.0, 400.0, 1e3):
        assert abs(oracle.onsager_f(beta) + 2.0) <= 1e-15 * 2.0, beta


def test_onsager_scales_with_the_coupling():
    # ln Z depends on beta J only, so f(beta, J) = J f(beta J, 1)
    for beta in (0.1, 0.6, BETA_C, 2.0 * BETA_C, 1.0, 10.0, 178.0, 400.0, 1e3):
        want = 0.5 * oracle.onsager_f(0.5 * beta)
        assert abs(oracle.onsager_f(beta, J=0.5) - want) <= 1e-15 * abs(want), beta


def test_onsager_is_even_in_the_coupling():
    # flipping one sublattice of the bipartite lattice maps J to -J
    for beta in (0.1, 0.3, BETA_C, 0.5, 2.0 * BETA_C, 10.0):
        for coupling in (0.5, 1.0, 1.5):
            assert oracle.onsager_f(beta, -coupling) == oracle.onsager_f(beta, coupling), beta


# values of the rule with unscaled terms; scaling them must not move these
ONSAGER_PINNED = {
    0.1: -7.0323124228583245,
    0.2: -3.6726540613816305,
    0.3: -2.6351969031708764,
    0.35: -2.3714822353167895,
    BETA_C: -2.1096511446082076,
    0.45: -2.0964083846639854,
    0.6: -2.0168873138140215,
    1.0: -2.00034828370071,
    10.0: -1.9999999999999996,
    100.0: -1.9999999999999998,
}


def test_onsager_matches_pinned_values():
    for beta, want in ONSAGER_PINNED.items():
        assert abs(oracle.onsager_f(beta) - want) <= 1e-14 * abs(want), beta


def test_onsager_critical_value():
    # at the self-dual point the integral has the known Catalan-constant form
    beta_c = np.log(1.0 + np.sqrt(2.0)) / 2.0
    catalan = 0.915965594177219015054603514932
    f_exact = -(0.5 * np.log(2.0) + 2.0 * catalan / np.pi) / beta_c
    assert np.isclose(oracle.onsager_f(beta_c), f_exact, atol=1e-12)


def _onsager_quad(beta):
    """Onsager's free energy by scipy's adaptive quadrature."""
    import scipy.integrate

    c, sn = np.cosh(2.0 * beta) ** 2, np.sinh(2.0 * beta)

    def integrand(theta):
        a = c - sn * np.cos(theta)
        return np.log(0.5 * (a + np.sqrt(max(a * a - sn * sn, 0.0))))

    val, _ = scipy.integrate.quad(
        integrand, 0.0, np.pi, epsabs=1e-13, epsrel=1e-13, limit=400, points=[0.0]
    )
    return -(np.log(2.0) + val / (2.0 * np.pi)) / beta


def test_onsager_matches_adaptive_quadrature():
    # away from beta_c, where the branch point of the integrand stays far
    # enough from the real axis for adaptive quadrature to resolve it
    betas = [b for b in np.linspace(0.02, 2.0, 45) if abs(b - BETA_C) > 1e-5]
    betas += [BETA_C - 1e-5 * 1.5, BETA_C + 1e-5 * 1.5, BETA_C - 1e-3, BETA_C + 1e-3]
    for beta in betas:
        want = _onsager_quad(beta)
        assert abs(oracle.onsager_f(beta) - want) <= 1e-13 * abs(want), beta


def test_onsager_rule_is_converged_near_criticality():
    # doubling the nodes of every panel of the graded rule moves f by less
    # than 1e-14 relative, also where the branch point nearly touches 0
    for beta in (BETA_C - 1e-6, BETA_C + 1e-6, BETA_C - 1e-9, BETA_C + 1e-9, BETA_C):
        sn = np.sinh(2.0 * beta)
        values = []
        for nodes in (20, 40):
            theta, weights = oracle._graded_rule(nodes)
            a = np.cosh(2.0 * beta) ** 2 - sn * np.cos(theta)
            inner = (a - sn) * (a + sn)
            val = weights @ np.log(0.5 * (a + np.sqrt(np.maximum(inner, 0.0))))
            values.append(-(np.log(2.0) + val / (2.0 * np.pi)) / beta)
        assert abs(values[1] - values[0]) < 1e-14 * abs(values[0])
        assert abs(oracle.onsager_f(beta) - values[1]) < 1e-14 * abs(values[1])


def test_onsager_raises_when_the_rules_disagree(monkeypatch):
    # the rule with 10 nodes per panel checks the one with 20
    rule = oracle._graded_rule

    def coarse_is_off(n_nodes):
        theta, weights = rule(n_nodes)
        return theta, weights * (1.0 + 1e-8 * (n_nodes == 10))

    monkeypatch.setattr(oracle, "_graded_rule", coarse_is_off)
    with pytest.raises(RuntimeError):
        oracle.onsager_f(0.3)


def test_transfer_matrix_extrapolates_to_onsager():
    # strips converge geometrically in width; accelerate the (8, 10, 12)
    # sequence and compare with the exact bulk value
    beta = 0.3
    f8, f10, f12 = (oracle.ising_transfer_matrix(w, beta) for w in (8, 10, 12))
    d1, d2 = f10 - f8, f12 - f10
    f_inf = f12 + d2 * d2 / (d1 - d2)
    fo = oracle.onsager_f(beta)
    assert abs(f_inf - fo) / abs(fo) < 1e-6


def test_transfer_matrix_direct_agreement_off_criticality():
    # deep in the disordered phase width 12 is already converged to ~1e-8
    beta = 0.2
    assert np.isclose(
        oracle.ising_transfer_matrix(12, beta), oracle.onsager_f(beta), rtol=1e-6
    )


def test_input_validation():
    with pytest.raises(ValueError):
        oracle.dense_hamiltonian(models.transverse_field_ising(15, 1.0, 1.0))
    with pytest.raises(ValueError):
        oracle.ising_brute_force(5, 0.3)
    with pytest.raises(ValueError):
        oracle.ising_transfer_matrix(13, 0.3)
    with pytest.raises(ValueError):
        oracle.onsager_f(0.0)
    with pytest.raises(ValueError):
        models.transverse_field_ising(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        models.custom_nn(3, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        models.ClassicalModelSpec(beta=-1.0)
    with pytest.raises(TypeError):
        models.ClassicalModelSpec(beta=1.0, field=0.2)
