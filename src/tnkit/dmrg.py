"""Variational ground-state search for chain MPOs (single-site DMRG).

Sweeps move the orthogonality center across the chain, replacing each site
tensor with the lowest eigenvector of the effective Hamiltonian built from
cached left/right environments. The sweep and the environments are those
of the mpo module (``mpo._sweep_center``, ``mpo._Environments``), which
the variational operator fit runs too. With zero noise every local solve
is a Rayleigh-quotient minimization seeded with the current tensor, so
recorded energies never increase.

Each local solve is Lanczos on the operator of one site. It is built once
per site (``_Environments.site_operator``): the left environment times the
site's MPO tensor as a ``(f·o·w', k·s)`` matrix and the right environment
as a ``(w'·k', f')`` matrix, so every Krylov vector costs two matrix
products and no transposed copy. Each new Krylov vector is orthogonalized
against the whole basis by one classical Gram-Schmidt pass; a second pass
runs only when the first cancels, when the residual keeps less than
1/sqrt(2) of its norm (Daniel, Gragg, Kaufman & Stewart 1976). That is
rare: 2 of the 4851 Krylov steps of a 40-site critical transverse-field
Ising ground state at bond dimension 32. The Ritz pair of the small
tridiagonal matrix is found on each iteration by calling LAPACK directly
(dstebz for the lowest eigenvalue, dstein for its vector) on coefficients
kept in preallocated arrays; non-finite coefficients raise before anything
divides by them.

Arithmetic is real when the problem is: the environments start from real
seeds, a random start state takes the dtype of the MPO, and the Lanczos
basis is complex only when the start vector or the operator is, so a real
Hamiltonian runs every solve, environment transfer and QR in float64.

Excited states reuse the same machinery on H + sum_c w |c><c| with the
already-found states penalized out of the low end of the spectrum. Each
penalized state c is one more set of environments, of <psi|1|c>, swept
with the Hamiltonian's; the site operator of the identity applied to c's
own tensor is the g with <c|psi> = vdot(g, x) for the center tensor x.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dstebz, dstein

from .mpo import (
    MatrixProductOperator,
    _Environments,
    _sweep_center,
    expect_mpo,
    identity_mpo,
)
from .mps import MatrixProductState, canonicalize, inner, random_mps
from .tensor import ConfigError, TruncationSpec


@dataclass(frozen=True)
class DmrgConfig:
    max_bond: int
    n_sweeps: int = 30
    tol: float = 1e-12
    lanczos_max_iter: int = 100
    lanczos_tol: float = 1e-12
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        TruncationSpec(self.max_bond)
        for name in ("n_sweeps", "lanczos_max_iter"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}", field=name)
        for name in ("tol", "lanczos_tol", "noise"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative", field=name)


def check_penalty_weight(penalty_weight: float) -> None:
    """The rule on the penalty of excited-state searches."""
    if not penalty_weight > 0.0:
        raise ConfigError("penalty_weight must be positive", field="penalty_weight")


@dataclass(frozen=True)
class DmrgTrace:
    """sweep_energies has one entry per completed sweep; update_energies one
    per local solve (monotone nonincreasing when noise is zero).
    lanczos_matvecs counts the effective-Hamiltonian applications of all
    local solves, retries included. final_overlaps holds |<c|psi>| against
    each penalized state."""

    sweep_energies: tuple[float, ...]
    update_energies: tuple[float, ...]
    converged: bool
    n_sweeps: int
    unconverged_solves: int
    lanczos_matvecs: int
    final_overlaps: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


def _tridiag_ground(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the real symmetric tridiagonal matrix with
    diagonal ``alphas`` and off-diagonal ``betas``: bisection for the one
    eigenvalue (LAPACK dstebz, by index) and inverse iteration for its
    vector (dstein). These are the routines behind
    ``scipy.linalg.eigh_tridiagonal(select="i")``, called without its input
    validation; the caller passes finite float64 arrays."""
    if alphas.size == 1:
        return float(alphas[0]), np.ones(1)
    _, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info {info}")
    v, info = dstein(alphas, betas, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed with info {info}")
    return float(w[0]), v[:, 0]


def _check_finite(name: str, x) -> None:
    if not cmath.isfinite(x):
        raise ValueError(
            f"Lanczos {name} is not finite (NaN or inf in the operator or the start vector)"
        )


# Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)
_DGKS = 1.0 / np.sqrt(2.0)


def lanczos_ground(matvec, v0: np.ndarray, max_iter: int, tol: float):
    """Smallest Ritz pair of a Hermitian operator given as a matvec.

    Full reorthogonalization keeps the basis clean at these small subspace
    sizes. The basis is the rows of one array, filled row by row, so a
    Gram-Schmidt pass is two matrix-vector products. Each new residual gets
    one pass, and a second only when the first cancels, that is when it
    leaves less than 1/sqrt(2) of the residual's norm (the DGKS test); one
    pass that does not cancel is enough. The tridiagonal coefficients live
    in preallocated arrays. The basis is float64 when the start vector and
    the operator's images are real and complex128 as soon as either is
    complex, so an imaginary part is never dropped. Returns
    (value, normalized vector, converged). Raises if the operator is
    detectably non-Hermitian, or as soon as the start-vector norm or a
    Lanczos coefficient is not finite.
    """
    v = np.asarray(v0).reshape(-1)
    nv = np.linalg.norm(v)
    _check_finite("start-vector norm", nv)
    if nv == 0.0:
        raise ValueError("Lanczos start vector is zero")
    v = v / nv
    hv = matvec(v)
    # at most dim orthonormal vectors exist; rows never written cost no memory
    m = min(max_iter, v.size)
    basis = np.empty((m, v.size), dtype=np.result_type(v, hv, float))
    alphas = np.empty(m)
    betas = np.empty(m)  # betas[j] couples rows j and j + 1
    basis[0] = v
    k = 1
    a = np.vdot(basis[0], hv)
    _check_finite("alpha", a)
    scale = max(1.0, float(np.linalg.norm(hv)))
    if abs(a.imag) > 1e-8 * scale:
        raise ValueError("operator is not Hermitian: <v|Hv> has an imaginary part")
    alphas[0] = a.real
    w = hv - a.real * basis[0]
    theta, u = _tridiag_ground(alphas[:1], betas[:0])
    converged = False
    for _ in range(max_iter - 1):
        # a pass that keeps more than _DGKS of the norm leaves w orthogonal
        # to rounding; only one that cancelled is repeated
        q = basis[:k]
        norm_in = np.linalg.norm(w)
        w -= (q @ w.conj()).conj() @ q
        beta = float(np.linalg.norm(w))
        if beta < _DGKS * norm_in:
            w -= (q @ w.conj()).conj() @ q
            beta = float(np.linalg.norm(w))
        _check_finite("beta", beta)
        if beta * abs(u[-1]) <= tol * max(1.0, abs(theta)):
            converged = True
            break
        if beta <= 1e-14 * scale or k == m:  # invariant subspace
            converged = True
            break
        basis[k] = w / beta
        betas[k - 1] = beta
        hv = matvec(basis[k])
        if np.iscomplexobj(hv) and not np.iscomplexobj(basis):
            # a complex operator whose first images happened to be real
            basis = basis.astype(complex)
        a = np.vdot(basis[k], hv).real
        _check_finite("alpha", a)
        alphas[k] = a
        w = hv - a * basis[k] - beta * basis[k - 1]
        k += 1
        theta, u = _tridiag_ground(alphas[:k], betas[: k - 1])
    vec = u @ basis[:k]
    vec /= np.linalg.norm(vec)
    return float(theta), vec, converged


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


class _Workspace:
    """Mutable sweep state: the site list, its Hamiltonian environments, and
    one <psi|lower> environment per penalized state."""

    def __init__(self, op, sites, lowers, weight):
        self.sites = sites
        self.env = _Environments(sites, op.sites, sites)
        ident = identity_mpo(op.phys_dims).sites
        self.penalties = [_Environments(sites, ident, canonicalize(c, 0).sites) for c in lowers]
        self.weight = weight
        self.matvecs = 0

    def site_matvec(self, k):
        """The effective Hamiltonian of site k, plus the penalties, as a
        matvec on the flattened center tensor. Counts its applications in
        ``self.matvecs``."""
        apply = self.env.site_operator(k)
        gs = [pen.site_operator(k)(pen.ket[k]).reshape(-1) for pen in self.penalties]

        def matvec(x):
            self.matvecs += 1
            y = apply(x).reshape(-1)
            for g in gs:
                y = y + self.weight * g * np.vdot(g, x)
            return y

        return matvec

    def solve_site(self, k, x0, max_iter, tol):
        """Lowest Ritz pair of site k, seeded with ``x0``, the site's
        current tensor. An unconverged solve is retried once from its Ritz
        vector with twice the iterations. Returns (value, tensor,
        converged)."""
        matvec = self.site_matvec(k)
        theta, vec, ok = lanczos_ground(matvec, x0.reshape(-1), max_iter, tol)
        if not ok:
            theta, vec, ok = lanczos_ground(matvec, vec, 2 * max_iter, tol)
        return theta, vec.reshape(x0.shape), ok


def _prepare_initial(op, config, psi0):
    phys = tuple(w.shape[1] for w in op.sites)
    for w in op.sites:
        if w.shape[1] != w.shape[2]:
            raise ValueError("DMRG needs a square operator")
    if psi0 is None:
        dtype = np.result_type(*op.sites)
        return canonicalize(random_mps(phys, config.max_bond, config.seed, dtype), 0)
    if psi0.phys_dims != phys:
        raise ValueError("initial state does not match the operator")
    if max(psi0.bond_dims, default=1) > config.max_bond:
        raise ValueError("initial state exceeds max_bond")
    return canonicalize(psi0, 0)


def _sweep(op, config, psi, lowers, weight):
    ws = _Workspace(op, list(psi.sites), lowers, weight)
    rng = np.random.default_rng(config.seed + 1)
    update_energies: list[float] = []
    sweep_energies: list[float] = []
    unconverged = 0
    converged = False

    def solve(k, start):
        nonlocal unconverged
        theta, vec, ok = ws.solve_site(
            k, start(), config.lanczos_max_iter, config.lanczos_tol
        )
        if not ok:
            unconverged += 1
        if config.noise > 0.0:
            bump = rng.normal(size=vec.shape)
            if np.iscomplexobj(vec):
                bump = bump + 1j * rng.normal(size=vec.shape)
            vec = vec + config.noise * bump * np.linalg.norm(vec) / np.linalg.norm(bump)
            vec = vec / np.linalg.norm(vec)
        ws.sites[k] = vec
        update_energies.append(theta)

    for _ in range(config.n_sweeps):
        first_update = len(update_energies)
        _sweep_center(ws.sites, [ws.env, *ws.penalties], solve)
        sweep_energies.append(update_energies[-1])
        # converged when a whole sweep no longer moves the energy
        this_sweep = update_energies[first_update:]
        spread = max(this_sweep) - min(this_sweep)
        if spread <= config.tol * max(1.0, abs(sweep_energies[-1])):
            converged = True
            break
    trace = DmrgTrace(
        sweep_energies=tuple(sweep_energies),
        update_energies=tuple(update_energies),
        converged=converged,
        n_sweeps=len(sweep_energies),
        unconverged_solves=unconverged,
        lanczos_matvecs=ws.matvecs,
    )
    return MatrixProductState(ws.sites, center=0), trace


def ground_state(
    op: MatrixProductOperator,
    config: DmrgConfig,
    psi0: MatrixProductState | None = None,
) -> tuple[float, MatrixProductState, DmrgTrace]:
    """Lowest eigenstate of the MPO within the bond-dimension budget.

    Returns (energy, normalized state with center at site 0, trace).
    """
    psi = _prepare_initial(op, config, psi0)
    out, trace = _sweep(op, config, psi, [], 0.0)
    return trace.sweep_energies[-1], out, trace


def excited_state(
    op: MatrixProductOperator,
    config: DmrgConfig,
    below: list[MatrixProductState],
    penalty_weight: float,
    psi0: MatrixProductState | None = None,
) -> tuple[float, MatrixProductState, DmrgTrace]:
    """Lowest eigenstate orthogonal to the given states, found by penalizing
    their projectors with ``penalty_weight`` (choose it larger than the
    target gap). The returned energy is <psi|H|psi>; the trace records the
    penalized Ritz values."""
    if not below:
        return ground_state(op, config, psi0)
    check_penalty_weight(penalty_weight)
    for c in below:
        if c.n_sites != op.n_sites:
            raise ValueError("penalized state lives on a different lattice")
    psi = _prepare_initial(op, config, psi0)
    out, trace = _sweep(op, config, psi, list(below), penalty_weight)
    overlaps = tuple(float(abs(inner(c, out))) for c in below)
    energy = float(expect_mpo(out, op).real)
    return energy, out, replace(trace, final_overlaps=overlaps)
