"""Variational ground-state search for chain MPOs (single-site DMRG).

Sweeps move the orthogonality center across the chain, replacing each site
tensor with the lowest eigenvector of the effective Hamiltonian built from
cached left/right environments. The sweep and the environments are those
of the mpo module (``mpo._sweep_center``, ``mpo._Environments``), which
the variational operator fit runs too. Every local solve is a
Rayleigh-quotient minimization seeded with the current tensor, so recorded
energies never increase.

A sweep runs from site 0 to the last site and back, 2N - 1 solves, and
the search stops after the first sweep whose last pass, the N solves from
the last site down to site 0, spreads its update energies by at most
``tol·max(1, |E|)``. That pass updates every site once, so the test is as
strict, site by site, as one over the whole sweep, whose rightward half
only repeats what the previous sweep's test saw. On a 40-site critical
transverse-field Ising chain at bond dimension 32 the test over the whole
sweep made every search run a fourth sweep only to confirm the third; the
last pass stops 11 of 13 seeds (0-9, 12, 101, 160) after the third sweep,
within 1.5e-14 relative of the free-fermion energy, and seeds 2 and 9
still need the fourth. A warm start's bonds are first
padded to the cold start's profile (``_pad_bonds``), since single-site
sweeps never change a bond's extent.

Each local solve is Lanczos on the operator of one site. It is built once
per site (``_Environments.site_operator``) from the product of the site's
MPO tensor with the environment the sweep comes from, the same product
that then grows the next environment, so every Krylov vector costs two
matrix products and no transposed copy. Each new Krylov vector is
orthogonalized against the whole basis by one classical Gram-Schmidt pass,
repeated only when it cancels (Daniel, Gragg, Kaufman & Stewart 1976), so
the basis stays orthonormal to rounding. The solves are short, so the pass
is cheap: on the 40-site chain above (seeds 12, 101 and 160), each search
makes 237 solves over 3 sweeps and 1994-2080 matvecs, and a solve runs a
median of 7 Krylov steps (90th percentile 15-16, at most 25-33). The Ritz
pair of the small tridiagonal matrix is found on each iteration by calling
LAPACK directly (dstebz for the lowest eigenvalue, dstein for its vector)
on coefficients kept in preallocated arrays; non-finite coefficients raise
before anything divides by them. The two routines come from
scipy.linalg, which loads a second BLAS library (about 27 MB and 0.13 s
per process), so they are bound on first use (``_load_lapack``, called
when a ``DmrgConfig`` is built and at the start of each solve), and runs
of the other algorithms never load it. A numpy-only search, with a dense
``np.linalg.eigh`` of the tridiagonal matrix on each step, costs more than
that library saves: on one BLAS thread the dense solve takes 8.7 against
3.2 µs at k = 7 Krylov steps and 53 against 9 µs at k = 25, a 40-site
search runs 9-18% longer, and the ``dmrg_chain`` benchmark runs 12% longer
although its start-up falls by 0.15 s and its peak memory from 63 to 43 MB.

A local solve is converged only as far as the next sweep can use it. It
stops once its Ritz residual is at most ``max(lanczos_tol * max(1,
|theta|), eta * r0)``, where r0 = ||H x0 - <x0|H|x0> x0|| is the residual
of its start vector x0, the site's current tensor, and eta is the module
constant ``_REDUCTION`` (0.2): the fixed forcing term of an inexact
iteration (Eisenstat & Walker, SIAM J. Sci. Comput. 17, 16 (1996)), as
production codes stop their local solves early (Hauschild & Pollmann,
SciPost Phys. Lect. Notes 5 (2018)). Every solve cuts its residual by at
least 1/eta unless it reaches ``lanczos_tol`` first, so none sits idle,
and none solves an early sweep's still unconverged environments to
rounding. Each solve is still seeded with the current tensor, whose
Rayleigh quotient bounds its Ritz value, so energies never increase. A
search converges only once the last pass of a sweep spreads by at most
``tol·|E|``; the energy error of a solve is second order in its residual,
so what the cut leaves then is of order eta^2 times that spread. On the
40-site chain above (seed 12) the search makes 2015 Krylov steps over 237
solves in 3 sweeps. A tolerance taken from the last update's energy change
made 3392 over 158 in 2 sweeps: it stopped every other solve of the first
half-sweep at its first matvec, with the energy unmoved, and ran the rest
to ``lanczos_tol``.

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
import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .mpo import (
    MatrixProductOperator,
    _Environments,
    _sweep_center,
    expect_mpo,
    identity_mpo,
)
from .mps import MatrixProductState, bond_caps, canonicalize, inner, random_mps
from .tensor import ConfigError, TruncationSpec, rq_matrix


@dataclass(frozen=True)
class DmrgConfig:
    max_bond: int
    n_sweeps: int = 30
    tol: float = 1e-12
    lanczos_max_iter: int = 100
    lanczos_tol: float = 1e-12
    seed: int = 0
    penalty_weight: float = 10.0

    def __post_init__(self):
        TruncationSpec(self.max_bond)
        for name in ("n_sweeps", "lanczos_max_iter"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}", field=name)
        for name in ("tol", "lanczos_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative", field=name)
        if not self.penalty_weight > 0.0:
            raise ConfigError("penalty_weight must be positive", field="penalty_weight")
        _load_lapack()


@dataclass(frozen=True)
class DmrgTrace:
    """sweep_energies has one entry per completed sweep; update_energies one
    per local solve (monotone nonincreasing), 2N - 1 per sweep of N
    sites. converged says that the last sweep's last pass, its
    final N update energies (sites N - 1 down to 0), spread by at most
    ``tol·max(1, |E|)``; every sweep is complete, and the state's center
    is at site 0.
    lanczos_matvecs counts the effective-Hamiltonian applications of all
    local solves, retries included, and sweep_matvecs splits it by sweep,
    aligned with sweep_energies. unconverged_solves counts the solves that
    met neither ``lanczos_tol`` nor the cut of their start residual even
    after a retry. final_overlaps holds |<c|psi>| against each penalized
    state."""

    sweep_energies: tuple[float, ...]
    update_energies: tuple[float, ...]
    converged: bool
    n_sweeps: int
    unconverged_solves: int
    lanczos_matvecs: int
    sweep_matvecs: tuple[int, ...]
    final_overlaps: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# Lanczos
# ---------------------------------------------------------------------------


@functools.cache
def _load_lapack() -> None:
    """Bind LAPACK's dstebz and dstein to this module's globals, importing
    scipy.linalg on the first call only."""
    global dstebz, dstein
    from scipy.linalg.lapack import dstebz, dstein


def _tridiag_ground(alphas: np.ndarray, betas: np.ndarray) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the real symmetric tridiagonal matrix with
    diagonal ``alphas`` and off-diagonal ``betas``: bisection for the one
    eigenvalue (LAPACK dstebz, by index) and inverse iteration for its
    vector (dstein). These are the routines behind
    ``scipy.linalg.eigh_tridiagonal(select="i")``, called without its input
    validation; the caller passes finite float64 arrays and has bound the
    routines by ``_load_lapack``, so a Krylov step makes no call for
    them."""
    if alphas.size == 1:
        return float(alphas[0]), np.ones(1)
    _, w, iblock, isplit, info = dstebz(alphas, betas, 2, 0.0, 1.0, 1, 1, 0.0, "B")
    if info != 0:
        raise np.linalg.LinAlgError(f"dstebz failed with info {info}")
    v, info = dstein(alphas, betas, w[:1], iblock, isplit)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstein failed with info {info}")
    return float(w[0]), v[:, 0]


def _not_finite(name: str) -> ValueError:
    return ValueError(
        f"Lanczos {name} is not finite (NaN or inf in the operator or the start vector)"
    )


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-D float or complex array, by the same dot
    arithmetic (so the same bits) without its dispatch."""
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


# Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976)
_DGKS = 1.0 / np.sqrt(2.0)


def _orthogonalize(q: np.ndarray, w: np.ndarray, norm_in: float) -> float:
    """Classical Gram-Schmidt of ``w`` (of norm ``norm_in``) against the
    rows ``q``, in place, as two matrix-vector products. A pass that keeps
    more than 1/sqrt(2) of the norm leaves ``w`` orthogonal to rounding;
    only one that cancelled is repeated (the DGKS test). Returns the norm
    of what is left."""
    w -= (q @ w.conj()).conj() @ q
    beta = _norm(w)
    if beta < _DGKS * norm_in:
        w -= (q @ w.conj()).conj() @ q
        beta = _norm(w)
    return beta


def lanczos_ground(matvec, v0: np.ndarray, max_iter: int, tol: float, reduction: float = 0.0):
    """Smallest Ritz pair of a Hermitian operator given as a matvec.

    Stops at the first step whose Ritz residual ``beta_k |u_k|`` is at most
    ``max(tol * max(1, |theta|), reduction * r0)``, with r0 the residual
    ``||H v0 - <v0|H|v0> v0||`` of the normalized start vector (the first
    step's beta). The default ``reduction`` of 0 stops at ``tol`` alone; a
    reduction in (0, 1) cuts the start vector's own residual by that
    factor, and a loose ``tol`` stops early. Since the start vector is the
    first basis row, theta never exceeds its Rayleigh quotient. The basis
    is the rows of one array, filled row by row, and kept for the Ritz
    vector.

    Full reorthogonalization keeps the basis orthonormal to rounding. The
    three-term update writes each new residual straight into the next
    basis row, and ``_orthogonalize`` then takes it against the whole
    basis, with a second pass only when the first cancels; at the few
    dozen rows a DMRG local solve needs, that pass costs little beside the
    matvec. The tridiagonal coefficients live in preallocated arrays. The
    basis is float64 when the start vector and the operator's images are
    real and complex128 as soon as either is complex, so an imaginary part
    is never dropped. Returns (value, normalized vector, converged). Raises
    if the operator is detectably non-Hermitian, or as soon as the
    start-vector norm or a Lanczos coefficient is not finite.
    """
    _load_lapack()
    v = np.asarray(v0).reshape(-1)
    nv = np.linalg.norm(v)
    if not math.isfinite(nv):
        raise _not_finite("start-vector norm")
    if nv == 0.0:
        raise ValueError("Lanczos start vector is zero")
    v = v / nv
    hv = matvec(v)
    # at most v.size orthonormal vectors exist; row k holds the residual of row
    # k - 1 until it is normalized, and rows never written cost no memory
    m = min(max_iter, v.size)
    basis = np.empty((m + 1, v.size), dtype=np.result_type(v, hv, float))
    alphas = np.empty(m)
    betas = np.empty(m)  # betas[j] couples rows j and j + 1
    basis[0] = v
    k = 1
    a = np.vdot(basis[0], hv)
    if not cmath.isfinite(a):
        raise _not_finite("alpha")
    scale = max(1.0, _norm(hv))
    if abs(a.imag) > 1e-8 * scale:
        raise ValueError("operator is not Hermitian: <v|Hv> has an imaginary part")
    alphas[0] = a.real
    w = basis[1]
    np.subtract(hv, a.real * basis[0], out=w)
    theta, u = _tridiag_ground(alphas[:1], betas[:0])
    converged = False
    for _ in range(max_iter - 1):
        beta = _norm(w)
        if not math.isfinite(beta):
            raise _not_finite("beta")
        beta = _orthogonalize(basis[:k], w, beta)
        if k == 1:  # the start vector's own residual, cut by the factor
            target = reduction * beta
        if beta * abs(u[-1]) <= max(tol * max(1.0, abs(theta)), target):
            converged = True
            break
        if beta <= 1e-14 * scale or k == m:  # invariant subspace
            converged = True
            break
        w /= beta
        betas[k - 1] = beta
        hv = matvec(basis[k])
        if hv.dtype.kind == "c" and basis.dtype.kind != "c":
            # a complex operator whose first images happened to be real
            basis = basis.astype(complex)
        a = np.vdot(basis[k], hv).real
        if not math.isfinite(a):
            raise _not_finite("alpha")
        alphas[k] = a
        w = basis[k + 1]
        np.subtract(hv, a * basis[k], out=w)
        w -= beta * basis[k - 1]
        k += 1
        theta, u = _tridiag_ground(alphas[:k], betas[: k - 1])
    vec = u @ basis[:k]
    vec /= _norm(vec)
    return float(theta), vec, converged


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


# the forcing term of every local solve (module docstring): it stops once its
# Ritz residual is this fraction of its start vector's, unless lanczos_tol
# ends it first. On the 40-site chain's seeds 0.1 made 22% more matvecs, and
# 0.3 left the penalized states of a 10-site XXZ chain about 10 times less
# orthogonal to the states below
_REDUCTION = 0.2


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

    def site_matvec(self, k, rightward):
        """The effective Hamiltonian of site k, plus the penalties, as a
        matvec on the flattened center tensor, built for a sweep moving
        rightward or leftward. Counts its applications in
        ``self.matvecs``."""
        apply = self.env.site_operator(k, rightward)
        gs = [pen.site_operator(k, rightward)(pen.ket[k]).reshape(-1) for pen in self.penalties]

        def matvec(x):
            self.matvecs += 1
            y = apply(x).reshape(-1)
            for g in gs:
                y = y + self.weight * g * np.vdot(g, x)
            return y

        return matvec

    def solve_site(self, k, rightward, x0, max_iter, tol):
        """Lowest Ritz pair of site k, seeded with ``x0``, the site's
        current tensor, converged to ``tol`` or to ``_REDUCTION`` times its
        start residual. An unconverged solve is retried once from its Ritz
        vector with twice the iterations, which cuts that vector's residual
        by the same factor. Returns (value, tensor, converged)."""
        matvec = self.site_matvec(k, rightward)
        theta, vec, ok = lanczos_ground(matvec, x0.reshape(-1), max_iter, tol, _REDUCTION)
        if not ok:
            theta, vec, ok = lanczos_ground(matvec, vec, 2 * max_iter, tol, _REDUCTION)
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
    return _pad_bonds(canonicalize(psi0, 0), config.max_bond, config.seed)


def _pad_bonds(psi, max_bond, seed):
    """``psi``, centered at site 0, with every bond below its cap ``min(d^k,
    d^(N-k), max_bond)`` grown to the cap, as a cold start's random state
    has them: single-site sweeps never change a bond's extent. Working from
    the right end, each right isometry gains seeded orthonormal rows
    orthogonal to its own and its left neighbour gains zero columns, so the
    state is unchanged and its old entries stay bit for bit."""
    sites = list(psi.sites)
    caps = bond_caps(psi.phys_dims, max_bond)
    rng = np.random.default_rng(seed)
    for k in range(len(sites) - 1, 0, -1):
        dl, d, dr = sites[k].shape
        cap = caps[k - 1]
        if dl >= cap:
            continue
        b = sites[k].reshape(dl, d * dr)
        extra = rng.normal(size=(cap - dl, d * dr))
        if b.dtype.kind == "c":
            extra = extra + 1j * rng.normal(size=extra.shape)
        for _ in range(2):  # twice is enough (Daniel, Gragg, Kaufman & Stewart)
            extra -= (extra @ b.conj().T) @ b
        sites[k] = np.concatenate([b, rq_matrix(extra)[1]]).reshape(cap, d, dr)
        a = sites[k - 1]
        zeros = np.zeros(a.shape[:2] + (cap - dl,), dtype=a.dtype)
        sites[k - 1] = np.concatenate([a, zeros], axis=2)
    return MatrixProductState(sites, center=0)


def _sweep(op, config, psi, lowers):
    ws = _Workspace(op, list(psi.sites), lowers, config.penalty_weight)
    update_energies: list[float] = []
    sweep_energies: list[float] = []
    sweep_matvecs: list[int] = []
    unconverged = 0
    converged = False

    def solve(k, start, rightward):
        nonlocal unconverged
        theta, vec, ok = ws.solve_site(
            k, rightward, start(), config.lanczos_max_iter, config.lanczos_tol
        )
        if not ok:
            unconverged += 1
        ws.sites[k] = vec
        update_energies.append(theta)

    n = len(ws.sites)
    for _ in range(config.n_sweeps):
        first_matvec = ws.matvecs
        _sweep_center(ws.sites, [ws.env, *ws.penalties], solve)
        sweep_energies.append(update_energies[-1])
        sweep_matvecs.append(ws.matvecs - first_matvec)
        # converged when the sweep's last pass, one solve per site from the
        # last site down to site 0, no longer moves the energy
        last_pass = update_energies[-n:]
        spread = max(last_pass) - min(last_pass)
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
        sweep_matvecs=tuple(sweep_matvecs),
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
    out, trace = _sweep(op, config, psi, [])
    return trace.sweep_energies[-1], out, trace


def excited_state(
    op: MatrixProductOperator,
    config: DmrgConfig,
    below: list[MatrixProductState],
    psi0: MatrixProductState | None = None,
) -> tuple[float, MatrixProductState, DmrgTrace]:
    """Lowest eigenstate orthogonal to the given states, found by penalizing
    their projectors with ``config.penalty_weight`` (choose it larger than
    the target gap). The returned energy is <psi|H|psi>; the trace records
    the penalized Ritz values."""
    if not below:
        return ground_state(op, config, psi0)
    for c in below:
        if c.n_sites != op.n_sites:
            raise ValueError("penalized state lives on a different lattice")
    psi = _prepare_initial(op, config, psi0)
    out, trace = _sweep(op, config, psi, list(below))
    overlaps = tuple(float(abs(inner(c, out))) for c in below)
    energy = float(expect_mpo(out, op).real)
    return energy, out, replace(trace, final_overlaps=overlaps)
