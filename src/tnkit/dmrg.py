"""Variational ground-state search for chain MPOs (single-site DMRG).

Sweeps move the orthogonality center across the chain, replacing each site
tensor with the lowest eigenvector of the effective Hamiltonian built from
cached left/right environments. With zero noise every local solve is a
Rayleigh-quotient minimization seeded with the current tensor, so recorded
energies never increase.

Excited states reuse the same machinery on H + sum_c w |c><c| with the
already-found states penalized out of the low end of the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .mpo import (
    MatrixProductOperator,
    _fit_local,
    _transfer_left,
    _transfer_right,
    expect_mpo,
)
from .mps import (
    MatrixProductState,
    _orth_left_step,
    _orth_right_step,
    _overlap_left,
    _overlap_right,
    canonicalize,
    inner,
    random_mps,
)
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
    final_overlaps holds |<c|psi>| against each penalized state."""

    sweep_energies: tuple[float, ...]
    update_energies: tuple[float, ...]
    converged: bool
    n_sweeps: int
    unconverged_solves: int
    final_overlaps: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


def _tridiag_ground(alphas, betas) -> tuple[float, np.ndarray]:
    if len(alphas) == 1:
        return float(alphas[0]), np.ones(1)
    w, v = scipy.linalg.eigh_tridiagonal(
        alphas, betas, select="i", select_range=(0, 0)
    )
    return float(w[0]), v[:, 0]


def lanczos_ground(matvec, v0: np.ndarray, max_iter: int, tol: float):
    """Smallest Ritz pair of a Hermitian operator given as a matvec.

    Full reorthogonalization keeps the basis clean at these small subspace
    sizes. The basis is the rows of one array, filled row by row, so each
    reorthogonalization pass is two matrix-vector products. Returns (value,
    normalized vector, converged). Raises if the operator is detectably
    non-Hermitian.
    """
    v = np.asarray(v0, dtype=complex).reshape(-1)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("Lanczos start vector is zero")
    # at most dim orthonormal vectors exist; rows never written cost no memory
    basis = np.empty((min(max_iter, v.size), v.size), dtype=complex)
    basis[0] = v / nv
    k = 1
    alphas: list[float] = []
    betas: list[float] = []
    hv = matvec(basis[0])
    scale = max(1.0, float(np.linalg.norm(hv)))
    a = np.vdot(basis[0], hv)
    if abs(a.imag) > 1e-8 * scale:
        raise ValueError("operator is not Hermitian: <v|Hv> has an imaginary part")
    alphas.append(a.real)
    w = hv - a.real * basis[0]
    theta, u = _tridiag_ground(alphas, betas)
    converged = False
    for _ in range(max_iter - 1):
        q = basis[:k]
        for _ in range(2):  # two passes keep orthogonality at machine precision
            w -= (q @ w.conj()).conj() @ q
        beta = float(np.linalg.norm(w))
        if beta * abs(u[-1]) <= tol * max(1.0, abs(theta)):
            converged = True
            break
        if beta <= 1e-14 * scale or k == basis.shape[0]:  # invariant subspace
            converged = True
            break
        basis[k] = w / beta
        betas.append(beta)
        hv = matvec(basis[k])
        a = np.vdot(basis[k], hv).real
        alphas.append(a)
        w = hv - a * basis[k] - beta * basis[k - 1]
        k += 1
        theta, u = _tridiag_ground(alphas, betas)
    vec = u @ basis[:k]
    vec /= np.linalg.norm(vec)
    return float(theta), vec, converged


# ---------------------------------------------------------------------------
# environments
# ---------------------------------------------------------------------------


def _penalty_vector(left, right, lower_site):
    """g with <lower|psi> = vdot(g, x) for the center tensor x."""
    tmp = np.tensordot(left, lower_site.conj(), axes=(0, 0))  # (p, s, c')
    overlap_coeff = np.tensordot(tmp, right, axes=(2, 0))  # (p, s, p'), right is (c', p')
    return overlap_coeff.conj()


class _Workspace:
    """Mutable sweep state: site list, H environments, and one overlap
    environment pair per penalized state."""

    def __init__(self, op, sites, lowers, weight):
        self.op = op
        self.sites = sites
        self.lowers = [canonicalize(c, 0).sites for c in lowers]
        self.weight = weight
        n = len(sites)
        self.left = [None] * (n + 1)
        self.right = [None] * (n + 1)
        self.left[0] = np.ones((1, 1, 1), dtype=complex)
        self.right[n] = np.ones((1, 1, 1), dtype=complex)
        self.oleft = [[None] * (n + 1) for _ in self.lowers]
        self.oright = [[None] * (n + 1) for _ in self.lowers]
        for i in range(len(self.lowers)):
            self.oleft[i][0] = np.ones((1, 1), dtype=complex)
            self.oright[i][n] = np.ones((1, 1), dtype=complex)
        for k in range(n - 1, 0, -1):
            self._grow_right(k)

    def _grow_left(self, k):
        self.left[k + 1] = _transfer_left(
            self.left[k], self.sites[k], self.op.sites[k], self.sites[k]
        )
        for i, low in enumerate(self.lowers):
            self.oleft[i][k + 1] = _overlap_left(self.oleft[i][k], low[k], self.sites[k])

    def _grow_right(self, k):
        self.right[k] = _transfer_right(
            self.right[k + 1], self.sites[k], self.op.sites[k], self.sites[k]
        )
        for i, low in enumerate(self.lowers):
            self.oright[i][k] = _overlap_right(self.oright[i][k + 1], low[k], self.sites[k])

    def solve_site(self, k, v0, max_iter, tol):
        l, r, w = self.left[k], self.right[k + 1], self.op.sites[k]
        shape = v0.shape
        gs = [
            _penalty_vector(self.oleft[i][k], self.oright[i][k + 1], low[k]).reshape(-1)
            for i, low in enumerate(self.lowers)
        ]

        def matvec(x):
            y = _fit_local(l, r, w, x.reshape(shape)).reshape(-1)
            for g in gs:
                y = y + self.weight * g * np.vdot(g, x)
            return y

        theta, vec, ok = lanczos_ground(matvec, v0.reshape(-1), max_iter, tol)
        return theta, vec.reshape(shape), ok


def _prepare_initial(op, config, psi0):
    phys = tuple(w.shape[1] for w in op.sites)
    for w in op.sites:
        if w.shape[1] != w.shape[2]:
            raise ValueError("DMRG needs a square operator")
    if psi0 is None:
        return canonicalize(random_mps(phys, config.max_bond, rng=config.seed), 0)
    if psi0.phys_dims != phys:
        raise ValueError("initial state does not match the operator")
    if max(psi0.bond_dims, default=1) > config.max_bond:
        raise ValueError("initial state exceeds max_bond")
    return canonicalize(psi0, 0)


def _sweep(op, config, psi, lowers, weight):
    n = op.n_sites
    ws = _Workspace(op, list(psi.sites), lowers, weight)
    rng = np.random.default_rng(config.seed + 1)
    update_energies: list[float] = []
    sweep_energies: list[float] = []
    unconverged = 0
    converged = False

    def solve(k):
        nonlocal unconverged
        theta, vec, ok = ws.solve_site(
            k, ws.sites[k], config.lanczos_max_iter, config.lanczos_tol
        )
        if not ok:
            theta, vec, ok = ws.solve_site(
                k, vec, 2 * config.lanczos_max_iter, config.lanczos_tol
            )
            if not ok:
                unconverged += 1
        if config.noise > 0.0:
            bump = rng.normal(size=vec.shape) + 1j * rng.normal(size=vec.shape)
            vec = vec + config.noise * bump * np.linalg.norm(vec) / np.linalg.norm(bump)
            vec = vec / np.linalg.norm(vec)
        ws.sites[k] = vec
        update_energies.append(theta)

    for _ in range(config.n_sweeps):
        first_update = len(update_energies)
        for k in range(n - 1):
            solve(k)
            _orth_left_step(ws.sites, k)
            ws._grow_left(k)
        for k in range(n - 1, 0, -1):
            solve(k)
            _orth_right_step(ws.sites, k)
            ws._grow_right(k)
        solve(0)
        sweep_energies.append(update_energies[-1])
        # converged when a whole sweep no longer moves the energy
        this_sweep = update_energies[first_update:]
        spread = max(this_sweep) - min(this_sweep)
        if spread <= config.tol * max(1.0, abs(sweep_energies[-1])):
            converged = True
            break
    out = MatrixProductState(ws.sites, center=0)
    return out, sweep_energies, update_energies, converged, unconverged


def ground_state(
    op: MatrixProductOperator,
    config: DmrgConfig,
    psi0: MatrixProductState | None = None,
) -> tuple[float, MatrixProductState, DmrgTrace]:
    """Lowest eigenstate of the MPO within the bond-dimension budget.

    Returns (energy, normalized state with center at site 0, trace).
    """
    psi = _prepare_initial(op, config, psi0)
    out, sweep_e, update_e, converged, unconv = _sweep(op, config, psi, [], 0.0)
    trace = DmrgTrace(
        sweep_energies=tuple(sweep_e),
        update_energies=tuple(update_e),
        converged=converged,
        n_sweeps=len(sweep_e),
        unconverged_solves=unconv,
    )
    return sweep_e[-1], out, trace


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
    out, sweep_e, update_e, converged, unconv = _sweep(
        op, config, psi, list(below), penalty_weight
    )
    overlaps = tuple(float(abs(inner(c, out))) for c in below)
    energy = float(expect_mpo(out, op).real)
    trace = DmrgTrace(
        sweep_energies=tuple(sweep_e),
        update_energies=tuple(update_e),
        converged=converged,
        n_sweeps=len(sweep_e),
        unconverged_solves=unconv,
        final_overlaps=overlaps,
    )
    return energy, out, trace
