"""Ground and excited state search against exact diagonalization."""

import math

import numpy as np
import pytest
import scipy.linalg

import tnkit.dmrg
from tnkit.dmrg import (
    DmrgConfig,
    _ritz_step,
    _ritz_vector,
    _Workspace,
    excited_state,
    ground_state,
    lanczos_ground,
)
from tnkit.models import SX, SY, SZ, custom_nn, heisenberg_xxz, transverse_field_ising
from tnkit.mpo import build_mpo, expect_mpo, mpo_to_dense
from tnkit.mps import (
    canonical_residual,
    canonicalize,
    entanglement_entropy,
    expect_local,
    inner,
    norm,
    random_mps,
    to_dense,
)
from tnkit.oracle import dense_hamiltonian, ed_ground, ed_spectrum, free_fermion_ground


def _hermitian_with_spectrum(spectrum, complex_entries, seed):
    """Q diag(spectrum) Q^dag with a random orthogonal (real) or unitary Q."""
    dim = len(spectrum)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim))
    if complex_entries:
        x = x + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(x)
    return (q * spectrum) @ q.conj().T


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


def _recorded(apply):
    """``apply`` as a matvec that keeps a copy of every vector handed to
    it; each of them is a row of the Lanczos basis."""
    seen = []

    def matvec(y):
        seen.append(y.copy())
        return apply(y)

    return matvec, seen


def _gram_error(rows):
    """Largest entry of |Q Q^dag - 1| over the recorded basis rows Q."""
    q = np.array(rows)
    return np.max(np.abs(q.conj() @ q.T - np.eye(len(rows))))


# Lanczos runs a full Gram-Schmidt pass on every step, so its basis is
# orthonormal to rounding
ORTHONORMAL = 1e-13


def test_lanczos_invariant_subspace():
    # start vector is an exact eigenvector: one step must suffice
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    theta, vec, ok = lanczos_ground(lambda x: m @ x, np.array([0.0, 1.0, 0.0]), 50, 1e-12)
    assert ok
    assert theta == pytest.approx(2.0, abs=1e-14)
    # three distinct eigenvalues close the Krylov space after three
    # vectors: the residual of the third is rounding, so the Gram-Schmidt
    # pass over it cancels, and the solve must stop there, exact
    spectrum = np.repeat([-1.0, 0.5, 2.0], [50, 70, 80])
    for complex_entries in (False, True):
        m = _hermitian_with_spectrum(spectrum, complex_entries, seed=3)
        matvec, seen = _recorded(lambda y: m @ y)
        start = np.random.default_rng(4).normal(size=spectrum.size)
        theta, vec, ok = lanczos_ground(matvec, start, 100, 1e-12)
        assert ok
        assert len(seen) == 3
        assert abs(theta + 1.0) <= 1e-14
        assert np.linalg.norm(m @ vec - theta * vec) < 1e-12
        assert _gram_error(seen) <= 1e-13


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
    matvec, seen = _recorded(lambda y: m @ y)
    theta, vec, ok = lanczos_ground(matvec, rng.normal(size=dim), max_iter, 1e-12)
    assert ok
    assert theta == pytest.approx(w[0], abs=1e-12)
    assert abs(np.vdot(v[:, 0], vec)) == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-14)
    assert _gram_error(seen) <= ORTHONORMAL


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_lanczos_basis_stays_orthonormal_over_many_steps(complex_entries):
    # the lowest pair 1e-3 apart converges slowly, and the separated top
    # eigenvalues converge early, which is where a Lanczos basis without
    # reorthogonalization loses orthogonality
    spectrum = np.linspace(0.0, 1.0, 600)
    spectrum[0] = -1e-3
    spectrum[-3:] = [2.0, 3.0, 5.0]
    m = _hermitian_with_spectrum(spectrum, complex_entries, seed=7)
    matvec, seen = _recorded(lambda y: m @ y)
    start = np.random.default_rng(8).normal(size=spectrum.size)
    theta, vec, ok = lanczos_ground(matvec, start, 300, 1e-12)
    assert ok
    assert len(seen) >= 60
    assert _gram_error(seen) <= ORTHONORMAL
    assert abs(theta - spectrum[0]) <= 1e-12
    assert np.linalg.norm(m @ vec - theta * vec) < 1e-10


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_lanczos_second_pass_runs_when_the_first_cancels(complex_entries):
    # a rank-one term 1e6 |q0><r| that is not Hermitian puts a large
    # component along the first basis row into every residual: one pass
    # removes it only to 1e-16 of its size, about 1e-10 of what is left, so
    # the rows stay orthonormal only if the cancelling pass is repeated
    rng = np.random.default_rng(5)
    x = rng.normal(size=(60, 60))
    m = (x + x.T) / 2
    if complex_entries:
        y = rng.normal(size=(60, 60))
        m = m + 0.5j * (y - y.T)
    r = rng.normal(size=60)
    v0 = rng.normal(size=60)
    q0 = v0 / np.linalg.norm(v0)
    matvec, seen = _recorded(lambda y: m @ y + 1e6 * q0 * (r @ y))
    lanczos_ground(matvec, v0, 30, 1e-12)
    assert len(seen) == 30
    assert _gram_error(seen) <= 1e-13


@pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
def test_lanczos_keeps_ghost_eigenvalues_out_of_a_long_run(complex_entries, monkeypatch):
    # an isolated -1 below a uniform cluster in [0, 1] converges within a
    # few dozen steps; run on to 300 steps, a Lanczos basis without
    # reorthogonalization loses orthogonality along its Ritz vector and
    # takes the eigenvalue in again as a ghost copy
    spectrum = np.concatenate([[-1.0], np.linspace(0.0, 1.0, 599)])
    m = _hermitian_with_spectrum(spectrum, complex_entries, seed=11)
    start = np.random.default_rng(12).normal(size=spectrum.size)
    matvec, seen = _recorded(lambda y: m @ y)
    theta, vec, _ = lanczos_ground(matvec, start, 300, 0.0)
    assert len(seen) == 300
    assert abs(theta + 1.0) <= 1e-12
    assert np.linalg.norm(m @ vec - theta * vec) <= 1e-12
    assert _gram_error(seen) <= ORTHONORMAL
    # with the Gram-Schmidt pass a no-op, the same run loses orthogonality
    monkeypatch.setattr(tnkit.dmrg, "_orthogonalize", lambda q, w, norm_in: norm_in)
    matvec, seen = _recorded(lambda y: m @ y)
    lanczos_ground(matvec, start, 300, 0.0)
    assert _gram_error(seen) > 0.5


def _lanczos_coefficients(m, start, steps):
    """alphas and betas of ``steps`` Lanczos steps on the real symmetric
    ``m`` from ``start``, with two Gram-Schmidt passes against the whole
    basis on every step (numpy only, independent of tnkit)."""
    q = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    for j in range(steps):
        w = m @ q[j]
        alphas.append(float(q[j] @ w))
        basis = np.array(q)
        for _ in range(2):
            w = w - basis.T @ (basis @ w)
        if j + 1 < steps:
            betas.append(float(np.linalg.norm(w)))
            q.append(w / betas[-1])
    return alphas, betas


def _feed(alphas, betas):
    """The Ritz step on the leading 1 x 1, 2 x 2, ... matrices in turn, as
    Lanczos runs it; yields (k, theta, |u[-1]|, u or None) for each k."""
    theta, last, u = alphas[0], 1.0, None
    yield 1, theta, last, u
    for k in range(2, len(alphas) + 1):
        theta, last, u = _ritz_step(alphas[:k], betas[: k - 1], theta, last)
        yield k, theta, last, u


def _tridiagonal(alphas, betas):
    return np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)


@pytest.mark.parametrize("k", [1, 2, 3, 10, 60, 100])
def test_ritz_step_matches_eigh_tridiagonal(k):
    """Fed the Lanczos coefficients of a symmetric matrix one row at a
    time, the Ritz step finds the lowest eigenvalue of every leading
    tridiagonal to within 1e-15 relative of LAPACK's bisection, and its
    last vector component and the final vector match inverse iteration's
    (up to sign) to within the perturbation bound eps ||T|| / gap; on a
    spectrum with a separated ground state and on a normal one."""
    rng = np.random.default_rng(k)
    eps = np.finfo(float).eps
    for values in (np.concatenate([[-3.0], np.linspace(-2.0, 4.0, 199)]), rng.normal(size=200)):
        m = _hermitian_with_spectrum(values, False, seed=k + 1)
        alphas, betas = _lanczos_coefficients(m, rng.normal(size=200), k)
        for j, theta, last, u in _feed(alphas, betas):
            w, v = scipy.linalg.eigh_tridiagonal(
                alphas[:j], betas[: j - 1], select="i", select_range=(0, 0)
            )
            assert isinstance(theta, float) and isinstance(last, float)
            assert abs(theta - w[0]) <= 1e-15 * max(1.0, abs(w[0]))
            spread = np.linalg.eigvalsh(_tridiagonal(alphas[:j], betas[: j - 1]))
            size = np.max(np.abs(spread))
            gap = spread[1] - spread[0] if j > 1 else size
            bound = 64 * eps * size / gap
            # relative down to 1e-8; a smaller component is known only to
            # the bound times 1e-8 (at 3e-49, LAPACK's is off by 12%)
            assert abs(last - abs(v[-1, 0])) <= bound * max(abs(v[-1, 0]), 1e-8)
        if u is None:
            u = _ritz_vector(alphas, betas, theta)
        assert u[0] > 0.0
        assert np.max(np.abs(u - np.sign(v[0, 0]) * v[:, 0])) <= bound
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-15 * k


def test_ritz_step_falls_back_to_eigh_away_from_the_top(monkeypatch):
    """A ground vector localized far below the first row cannot be
    certified from an upward pass, since v[0] is rounding; the dense
    safeguard then gives the eigenpair, with the oracle's eigenvalue and a
    residual to the accuracy of a dense solve, eps ||T|| (against a 40-digit
    solve, its eigenvalues here are off by up to 5.7e-15, LAPACK's
    bisection by 1.0e-15)."""
    rng = np.random.default_rng(5)
    alphas = list(rng.uniform(0.0, 1.0, size=40))
    alphas[25] = -5.0  # a deep well, 25 rows below the top
    betas = list(rng.uniform(0.1, 0.5, size=39))
    dense = []
    original = tnkit.dmrg._dense_ground

    def counted(a, b):
        dense.append(len(a))
        return original(a, b)

    monkeypatch.setattr(tnkit.dmrg, "_dense_ground", counted)
    for k, theta, last, u in _feed(alphas, betas):
        size = np.linalg.norm(_tridiagonal(alphas[:k], betas[: k - 1]), 2)
        w = scipy.linalg.eigh_tridiagonal(
            alphas[:k], betas[: k - 1], select="i", select_range=(0, 0), eigvals_only=True
        )
        assert abs(theta - w[0]) <= 1e-14 * size
    assert dense and min(dense) <= 27 and max(dense) == 40
    t = _tridiagonal(alphas, betas)
    assert u is not None
    assert np.linalg.norm(t @ u - theta * u) <= 1e-14 * size
    assert u[0] >= 0.0


def test_ritz_step_keeps_a_tiny_last_component():
    """The ground vector of this tridiagonal falls by 4 per row: on 500 rows
    its last component is 2^-998 sqrt(15/16). An upward pass grows by the
    same factor, so it must rescale to keep |v|^2 finite, and |u[-1]| may
    not round to 0 (a Lanczos run with tol 0 would stop on it)."""
    k = 500
    alphas = [0.0] + [4.0] * (k - 2) + [3.75]
    betas = [1.0] * (k - 1)
    steps = list(_feed(alphas, betas))
    assert all(last > 0.0 for _, _, last, _ in steps)
    _, theta, last, u = steps[-1]
    assert u is None
    assert theta == pytest.approx(-0.25, abs=1e-15)
    want = math.ldexp(math.sqrt(15 / 16), -2 * (k - 1))
    assert abs(last - want) <= 1e-13 * want
    u = _ritz_vector(alphas, betas, theta)
    assert np.max(np.abs(u - np.sqrt(15 / 16) * (-0.25) ** np.arange(k))) <= 1e-15


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["alpha", "beta"])
def test_ritz_step_rejects_a_non_finite_coefficient(bad, where):
    alphas = [0.5, 1.0, 2.0]
    betas = [0.3, 0.4]
    if where == "alpha":
        alphas[-1] = bad
    else:
        betas[-1] = bad
    theta, last = _ritz_step(alphas[:2], betas[:1], 0.5, 1.0)[:2]
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        _ritz_step(alphas, betas, theta, last)


def _poisoned(value, from_call):
    """A Hermitian matvec that returns ``value`` everywhere from its
    ``from_call``-th application on."""
    m = np.diag(np.arange(8.0)).astype(complex) + 0.5 * np.eye(8, k=1) + 0.5 * np.eye(8, k=-1)
    calls = [0]

    def matvec(x):
        calls[0] += 1
        return np.full(8, value, dtype=complex) if calls[0] >= from_call else m @ x

    return matvec


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("max_iter, from_call", [(1, 1), (5, 1), (5, 3)])
def test_lanczos_rejects_non_finite_matvec(value, max_iter, from_call):
    with pytest.raises(ValueError, match="not finite"):
        lanczos_ground(_poisoned(value, from_call), np.ones(8), max_iter, 1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("max_iter", [1, 5])
def test_lanczos_rejects_non_finite_start_vector(max_iter):
    v0 = np.ones(8)
    v0[3] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        lanczos_ground(_poisoned(0.0, 99), v0, max_iter, 1e-12)


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("tol", [3e-1, 3e-3, 2e-6])
def test_loose_tolerance_stops_at_the_first_step_that_meets_it(tol, complex_entries):
    """The step at which Lanczos stops is the first whose Ritz pair has
    ||H x - theta x|| <= tol * max(1, |theta|), found here by running every
    shorter basis to its end (tol 0) and measuring its residual directly.
    The residuals of this operator do not fall monotonically (steps 4 and
    5), so the test also checks that the first crossing is taken, not the
    last. The Ritz value never exceeds the start vector's Rayleigh
    quotient."""
    spectrum = np.concatenate([[-3.0], np.linspace(-2.0, 4.0, 199)])
    m = _hermitian_with_spectrum(spectrum, complex_entries, seed=21)
    start = np.random.default_rng(22).normal(size=spectrum.size)

    def relative_residual(steps):
        theta, vec, _ = lanczos_ground(lambda x: m @ x, start, steps, 0.0)
        return np.linalg.norm(m @ vec - theta * vec) / max(1.0, abs(theta))

    want = next(j for j in range(1, 40) if relative_residual(j) <= tol)
    matvec, seen = _recorded(lambda x: m @ x)
    theta, vec, ok = lanczos_ground(matvec, start, 100, tol)
    assert ok
    assert len(seen) == want
    assert np.linalg.norm(m @ vec - theta * vec) <= tol * max(1.0, abs(theta))
    assert theta <= np.vdot(start, m @ start).real / np.vdot(start, start).real


def _dense_site_operator(psi_sites, op, site, lowers, weight):
    """P^dag H P + weight * sum_c P^dag |c><c| P, where P is the linear map
    from the site tensor to the full state vector with the other sites
    fixed; built with einsum from dense blocks, not from environments."""
    left = np.ones((1, 1))
    for a in psi_sites[:site]:
        left = np.einsum("ia,asb->isb", left, a).reshape(-1, a.shape[2])
    right = np.ones((1, 1))
    for a in reversed(psi_sites[site + 1 :]):
        right = np.einsum("asb,bj->asj", a, right).reshape(a.shape[0], -1)
    d = psi_sites[site].shape[1]
    p = np.einsum("ia,st,bj->isjatb", left, np.eye(d), right)
    p = p.reshape(left.shape[0] * d * right.shape[1], -1)
    h = p.conj().T @ mpo_to_dense(op) @ p
    for c in lowers:
        g = p.conj().T @ to_dense(c)
        h = h + weight * np.einsum("i,j->ij", g, g.conj())
    return h


@pytest.mark.parametrize("penalized", [False, True])
@pytest.mark.parametrize("site", [0, 3, 5])
def test_site_operator_matches_dense_effective_hamiltonian(site, penalized):
    op = build_mpo(heisenberg_xxz(6, J=1.0, delta=0.7, field=0.3))
    psi = canonicalize(random_mps([2] * 6, max_bond=4, rng=5), site)
    lowers = [random_mps([2] * 6, max_bond=3, rng=6)] if penalized else []
    ws = _Workspace(op, list(psi.sites), lowers, 2.5)
    for k in range(site):
        for env in [ws.env, *ws.penalties]:
            env.grow(k, True)
    dim = psi.sites[site].size
    want = _dense_site_operator(psi.sites, op, site, lowers, 2.5)
    scale = np.linalg.norm(want)
    # the rightward and the leftward sweep build the operator differently
    for rightward in (True, False):
        matvec = ws.site_matvec(site, rightward)
        got = np.column_stack([matvec(e) for e in np.eye(dim, dtype=complex)])
        assert np.linalg.norm(got - want) <= 1e-12 * scale
        assert np.linalg.norm(got - got.conj().T) <= 1e-12 * scale
    assert ws.matvecs == 2 * dim


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


def test_each_local_solve_cuts_its_own_start_residual(monkeypatch):
    """Every solve of a ground and of an excited search gets lanczos_tol and
    the module's reduction factor, and none stops at its first matvec unless
    its start vector's residual already meets lanczos_tol * max(1, |theta|).
    A tolerance taken from the last update's energy change stopped 12 of
    this chain's solves at their first matvec with start residuals up to
    about 4e10 times that bound."""
    solves = []

    def spy(matvec, v0, max_iter, tol, *rest):
        images = []

        def counted(x):
            y = matvec(x)
            images.append((x.copy(), y.copy()))
            return y

        theta, vec, ok = lanczos_ground(counted, v0, max_iter, tol, *rest)
        x, y = images[0]  # the normalized start vector and its image
        start_residual = np.linalg.norm(y - np.vdot(x, y).real * x)
        solves.append((tol, rest, len(images), start_residual, theta, np.linalg.norm(y)))
        return theta, vec, ok

    monkeypatch.setattr(tnkit.dmrg, "lanczos_ground", spy)
    op = build_mpo(transverse_field_ising(16, h=1.0))
    config = DmrgConfig(max_bond=16, n_sweeps=40, seed=9, lanczos_tol=1e-11)
    _, psi, ground = ground_state(op, config)
    n_ground = len(solves)
    _, _, excited = excited_state(op, config, [psi])
    assert ground.converged and excited.converged
    assert n_ground == len(ground.update_energies)  # one Lanczos call per update
    assert len(solves) - n_ground == len(excited.update_energies)
    eps = np.finfo(float).eps
    for tol, rest, matvecs, start_residual, theta, image_norm in solves:
        if matvecs == 1:
            bound = 1e-11 * max(1.0, abs(theta))
            assert start_residual <= bound + 64 * eps * image_norm
    assert 0.0 < tnkit.dmrg._REDUCTION < 1.0
    assert {(tol, rest) for tol, rest, *_ in solves} == {(1e-11, (tnkit.dmrg._REDUCTION,))}


@pytest.mark.parametrize("complex_entries", [False, True])
@pytest.mark.parametrize("reduction", [0.5, 0.2, 1e-3])
def test_reduction_cuts_the_start_residual_by_its_factor(reduction, complex_entries):
    """With a reduction factor eta, Lanczos stops once the Ritz residual is
    at most eta times the start vector's own residual ||A x0 - rho x0||
    (rho its Rayleigh quotient): the returned pair's measured residual
    meets that, theta stays at or below rho, and the solve is shorter than
    one run to lanczos_tol."""
    spectrum = np.concatenate([[-3.0], np.linspace(-2.0, 4.0, 199)])
    m = _hermitian_with_spectrum(spectrum, complex_entries, seed=21)
    start = np.random.default_rng(23).normal(size=spectrum.size)
    x0 = start / np.linalg.norm(start)
    rho = np.vdot(x0, m @ x0).real
    start_residual = np.linalg.norm(m @ x0 - rho * x0)
    matvec, seen = _recorded(lambda x: m @ x)
    theta, vec, ok = lanczos_ground(matvec, start, 100, 1e-12, reduction=reduction)
    assert ok
    rounding = 1e-12 * np.abs(spectrum).max()
    assert np.linalg.norm(m @ vec - theta * vec) <= reduction * start_residual + rounding
    assert theta <= rho
    full, unseen = _recorded(lambda x: m @ x)
    lanczos_ground(full, start, 100, 1e-12)
    assert 1 < len(seen) < len(unseen)


@pytest.mark.parametrize("h", [0.7, 1.0, 1.4])
def test_ground_energy_matches_free_fermions_on_24_sites(h):
    """Past exact diagonalization: the open transverse-field Ising chain of
    24 sites against its free-fermion solution."""
    op = build_mpo(transverse_field_ising(24, J=1.0, h=h))
    energy, _, trace = ground_state(op, DmrgConfig(max_bond=32, seed=4))
    assert trace.converged
    assert energy == pytest.approx(free_fermion_ground(24, 1.0, h), rel=1e-12, abs=0)


def test_search_stops_at_the_first_sweep_whose_last_pass_is_flat():
    """The benchmark's chain: 40 critical sites at bond dimension 32. The
    third sweep's last pass, one solve per site from the last site down to
    site 0, spreads by less than ``tol·|E|``, so the search stops there
    instead of confirming it with a fourth sweep."""
    op = build_mpo(transverse_field_ising(40, J=1.0, h=1.0))
    energy, _, trace = ground_state(op, DmrgConfig(max_bond=32, seed=12))
    assert trace.converged and trace.n_sweeps == 3
    last_pass = trace.update_energies[-40:]
    assert max(last_pass) - min(last_pass) <= 1e-12 * abs(energy)
    assert energy == pytest.approx(free_fermion_ground(40, 1.0, 1.0), rel=1e-13, abs=0)


@pytest.mark.parametrize("lanczos_max_iter", [100, 2])
def test_sweep_matvecs_split_lanczos_matvecs(lanczos_max_iter):
    # with two Krylov steps every solve is retried, and retries count too
    op = build_mpo(transverse_field_ising(8, h=1.0))
    config = DmrgConfig(max_bond=8, n_sweeps=6, seed=2, lanczos_max_iter=lanczos_max_iter)
    _, psi, ground = ground_state(op, config)
    _, _, excited = excited_state(op, config, [psi])
    for trace in (ground, excited):
        assert len(trace.sweep_matvecs) == len(trace.sweep_energies) == trace.n_sweeps
        assert sum(trace.sweep_matvecs) == trace.lanczos_matvecs
        assert min(trace.sweep_matvecs) > 0
    assert (ground.unconverged_solves > 0) == (lanczos_max_iter == 2)


def test_warm_start_converges_immediately():
    spec = transverse_field_ising(8, h=1.1)
    op = build_mpo(spec)
    energy, psi, trace = ground_state(op, DmrgConfig(max_bond=12, seed=1))
    e2, _, trace2 = ground_state(op, DmrgConfig(max_bond=12, seed=1), psi0=psi)
    assert trace2.n_sweeps < trace.n_sweeps
    assert e2 == pytest.approx(energy, abs=1e-10)


@pytest.mark.parametrize("dtype", [float, complex])
def test_warm_start_padding_fills_the_bond_profile_and_keeps_the_state(dtype):
    n = 9
    op = build_mpo(heisenberg_xxz(n, J=1.0, delta=0.6, field=0.2))
    psi = random_mps([2] * n, max_bond=3, rng=5, dtype=dtype)
    padded = tnkit.dmrg._prepare_initial(op, DmrgConfig(max_bond=8, seed=7), psi)
    assert padded.center == 0
    assert padded.bond_dims == random_mps([2] * n, max_bond=8, rng=0).bond_dims
    assert canonical_residual(padded) < 1e-14
    for new, old in zip(padded.sites, psi.sites):
        assert new.dtype == old.dtype
        dl, _, dr = old.shape
        # the old entries bit for bit, zero columns, and new right-isometry rows
        assert np.array_equal(new[:dl, :, :dr], old)
        assert not new[:dl, :, dr:].any()
    np.testing.assert_allclose(to_dense(padded), to_dense(psi), rtol=0, atol=1e-14)
    assert abs(expect_mpo(padded, op) - expect_mpo(psi, op)) < 1e-13


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


def test_first_excited_state_tfi():
    spec = transverse_field_ising(8, J=1.0, h=1.3)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=30, seed=2, penalty_weight=20.0)
    e0, psi0, _ = ground_state(op, config)
    e1, psi1, trace = excited_state(op, config, [psi0])
    levels, _ = ed_spectrum(dense_hamiltonian(spec), 3)
    assert e0 == pytest.approx(levels[0], rel=1e-9)
    assert e1 == pytest.approx(levels[1], rel=1e-7)
    assert trace.final_overlaps[0] < 1e-6
    assert abs(inner(psi0, psi1)) < 1e-6


def test_second_excited_state_xxz():
    spec = heisenberg_xxz(6, J=1.0, delta=0.4, field=0.1)
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=40, seed=9, penalty_weight=20.0)
    e0, psi0, _ = ground_state(op, config)
    e1, psi1, _ = excited_state(op, config, [psi0])
    e2, psi2, trace = excited_state(op, config, [psi0, psi1])
    levels, _ = ed_spectrum(dense_hamiltonian(spec), 4)
    assert e1 == pytest.approx(levels[1], rel=1e-7)
    assert e2 == pytest.approx(levels[2], rel=1e-6)
    assert max(trace.final_overlaps) < 1e-5


def test_excited_states_on_ten_sites_are_pinned():
    """The first two excited states of a 10-site XXZ chain, pinned to the
    values of the environment code that carried each penalized state by
    pure overlap transfers. The energies and matvec counts must hold; the
    final overlaps are set by the sweep tolerance, and their leading digits
    must hold too (the smallest is near the rounding of psi0 itself).

    A search stops at the first sweep whose last pass, one solve per site,
    is flat, one pass before the whole sweep would be: the overlaps of the
    second state grew from 3.9e-11 and 7.6e-11 to 1.5e-9 and 5.7e-9. Their
    weight in the penalized energy, w |<c|psi>|^2 ~ 6e-16, is still far
    below what ``tol`` resolves."""
    op = build_mpo(heisenberg_xxz(10, J=1.0, delta=0.4, field=0.1))
    config = DmrgConfig(max_bond=16, n_sweeps=40, seed=9, penalty_weight=20.0)
    _, psi0, _ = ground_state(op, config)
    e1, psi1, trace1 = excited_state(op, config, [psi0])
    e2, _, trace2 = excited_state(op, config, [psi0, psi1])
    assert e1 == pytest.approx(-13.21817119384246, rel=1e-12, abs=0)
    assert e2 == pytest.approx(-12.818171193842462, rel=1e-12, abs=0)
    assert (trace1.n_sweeps, trace2.n_sweeps) == (4, 4)
    assert (trace1.lanczos_matvecs, trace2.lanczos_matvecs) == (355, 367)
    np.testing.assert_allclose(trace1.final_overlaps, [2.1043319853440556e-12], rtol=1e-2)
    np.testing.assert_allclose(
        trace2.final_overlaps, [1.4730582556636187e-09, 5.700011552464141e-09], rtol=1e-2
    )


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


# ---------------------------------------------------------------------------
# dtype contract: real problems run real, complex data is never made real
# ---------------------------------------------------------------------------


def _hermitian_with_gap(dim, complex_entries, seed):
    spectrum = np.linspace(0.0, 1.0, dim)
    spectrum[0] = -1.0
    return _hermitian_with_spectrum(spectrum, complex_entries, seed)


@pytest.mark.parametrize(
    "complex_matrix, complex_start", [(True, False), (False, True)], ids=["real-start", "real-matrix"]
)
def test_lanczos_mixed_dtypes_match_dense_eigh(complex_matrix, complex_start):
    dim = 40
    m = _hermitian_with_gap(dim, complex_matrix, seed=dim)
    rng = np.random.default_rng(1)
    start = rng.normal(size=dim)
    if complex_start:
        start = start + 1j * rng.normal(size=dim)
    w, v = np.linalg.eigh(m)
    matvec, seen = _recorded(lambda y: m @ y)
    theta, vec, ok = lanczos_ground(matvec, start, 100, 1e-12)
    assert ok
    assert vec.dtype == np.complex128
    assert theta == pytest.approx(w[0], abs=1e-12)
    assert abs(np.vdot(v[:, 0], vec)) == pytest.approx(1.0, abs=1e-10)
    assert _gram_error(seen) <= ORTHONORMAL


def test_lanczos_keeps_a_complex_image_after_real_ones():
    # an operator that hands back real arrays while its images are real: the
    # real start and its first image are real, the second image is not
    m = np.diag([0.3, -0.2, 0.5, 0.1, -0.4]).astype(complex)
    m[0, 1] = m[1, 0] = 1.0
    m[1, 2], m[2, 1] = 0.7j, -0.7j
    m[2, 3] = m[3, 2] = 0.4
    m[3, 4], m[4, 3] = 0.2 - 0.3j, 0.2 + 0.3j

    def matvec(y):
        out = m @ y
        return out if out.imag.any() else out.real

    start = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
    assert matvec(start).dtype == np.float64
    w, v = np.linalg.eigh(m)
    recorded, seen = _recorded(matvec)
    theta, vec, ok = lanczos_ground(recorded, start, 50, 1e-12)
    assert ok
    assert theta == pytest.approx(w[0], abs=1e-12)
    assert abs(np.vdot(v[:, 0], vec)) == pytest.approx(1.0, abs=1e-12)
    # the basis rows before and after the promotion to complex
    assert _gram_error(seen) <= 1e-13


@pytest.mark.parametrize(
    "spec",
    [transverse_field_ising(8, J=1.0, h=0.9), heisenberg_xxz(8, J=1.0, delta=0.6, field=0.2)],
    ids=["tfi", "xxz"],
)
def test_real_models_run_real_and_match_complex_runs(spec):
    op = build_mpo(spec)
    config = DmrgConfig(max_bond=16, n_sweeps=30, seed=4)
    energy, psi, trace = ground_state(op, config)
    assert trace.converged
    assert all(a.dtype == np.float64 for a in psi.sites)
    start = random_mps([2] * spec.n_sites, max_bond=16, rng=4, dtype=complex)
    e_complex, psi_complex, _ = ground_state(op, config, psi0=start)
    assert all(a.dtype == np.complex128 for a in psi_complex.sites)
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert abs(energy - e_complex) <= 1e-12 * abs(e0)
    assert abs(energy - e0) <= 1e-12 * abs(e0)


def test_complex_custom_model_stays_complex():
    # a Dzyaloshinskii-Moriya term sx sy - sy sx is Hermitian and complex
    two = np.kron(SX, SY) - np.kron(SY, SX) + 0.5 * np.kron(SZ, SZ)
    spec = custom_nn(6, two, one_site=-0.3 * SX)
    op = build_mpo(spec)
    assert all(w.dtype == np.complex128 for w in op.sites)
    energy, psi, trace = ground_state(op, DmrgConfig(max_bond=8, n_sweeps=30, seed=2))
    assert trace.converged
    assert all(a.dtype == np.complex128 for a in psi.sites)
    e0, _ = ed_ground(dense_hamiltonian(spec))
    assert energy == pytest.approx(e0, abs=1e-10)

