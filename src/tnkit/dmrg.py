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
still need the fourth. (The seed figures in this docstring were taken
with numpy's generator. Drawn from ``tensor.GaussianStream``, seeds 0-399
need the fourth sweep in 63 searches against 66 before, with 0.2% fewer
matvecs in all.) A warm start's bonds are first padded to the cold
start's profile (``_pad_bonds``), since single-site sweeps never change a
bond's extent.

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
median of 7 Krylov steps (90th percentile 15-16, at most 25-33).

The Ritz pair of the k x k tridiagonal matrix T is found on each Krylov
step by a Ritz step in Python floats (``_ritz_step``), started from the
previous step's pair (theta', u'), whose last component and the new
coefficients alpha and beta give the 2 x 2 Rayleigh-Ritz matrix [[theta',
beta |u'[-1]|], [beta |u'[-1]|, alpha]]. Its lowest eigenvalue bounds the
new theta from above and is the start t. A pass (``_upward``) solves rows
k - 1 ... 1 of (T - t) v = 0 upward from v[k - 1] = 1, so that (T - t) v =
r e_0, and moves t to the Rayleigh quotient of v, t + r v[0] / |v|^2 (a
Newton step on 1 / [(T - t)^-1]_00, which converges quadratically); only
an update of at most 4 eps max(1, |t|) stops the passes, since the
|u[-1]| = 1 / |v| of a pass at a t off by delta is off by about delta /
gap, and the stop test of the solve reads it. A result counts only with
a certificate (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998): v
alternates in sign, so every trailing minor of T - t is positive and, by
interlacing, t lies below the second eigenvalue of T; and v[0]^2 >= 1e-12
|v|^2, since the upward pass is accurate only while the vector is not small
at the top. A step that fails the certificate, or whose passes do not
settle within 12, takes the dense ``np.linalg.eigh`` of T
(``_dense_ground``), the only second path. A pass rescales v by 2^-256
whenever |v|^2 passes 2^512 and carries the scale into |u[-1]|, so the
last component of a long run, which falls off geometrically once theta
has converged, rounds to 0 only below the smallest double, as a solve run
with tol 0 needs. The solve forms its vector once, at the end, by one
more pass at the accepted theta (or takes the safeguard's), with u[0] >
0. On the 40-site chain (seeds 0-39) a step makes 2.4 passes and 0.36%
of the steps take the safeguard; on one BLAS thread the Ritz steps of a
search take 11 ms against 13 ms for LAPACK's dstebz and dstein. Those
live in scipy.linalg, which loads a second BLAS library, about 20 MB and
0.15 s per process; no dmrg run loads it. The coefficients are checked
finite before the step sees them, and the safeguard raises on a matrix
that is not.

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
from .tensor import ConfigError, GaussianStream, TruncationSpec, rq_matrix


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


# the Ritz step (module docstring): a pass rescales its vector by 2**-_SHIFT
# once |v|^2 exceeds 2**(2 * _SHIFT); a step gives up on its passes after
# _MAX_PASSES, and a pass certifies only a vector with v[0]^2 >= _TOP |v|^2
_SHIFT = 256
_BIG = 2.0 ** (2 * _SHIFT)
_TINY = 2.0**-_SHIFT
_MAX_PASSES = 12
_TOP = 1e-12
_EPS4 = 2.0**-50  # 4 eps, a Python float like every number of the step


def _upward(alphas: list, betas: list, t: float, store: list | None = None):
    """One pass: rows k - 1 ... 1 of (T - t) v = 0 solved upward from v[k - 1]
    = 1, for the k x k tridiagonal T with diagonal ``alphas`` and
    off-diagonal ``betas`` (lists of Python floats), so that (T - t) v = r
    e_0. v is carried scaled by 2**(-_SHIFT * shift), so that |v|^2 never
    overflows. Returns (r, v[0], |v|^2, shift, alternates), where alternates
    says that v alternates in sign. With a ``store`` list, appends v[k - 1],
    ..., v[0] to it, all at the final scale."""
    x, y, ssq, shift, alternates = 1.0, 0.0, 1.0, 0, True
    if store is not None:
        store.append(x)
    below = 0.0  # couples row i to row i + 1; row k - 1 has none
    for i in range(len(alphas) - 1, 0, -1):
        b = betas[i - 1]
        x, y = -((alphas[i] - t) * x + below * y) / b, x
        below = b
        if x * y >= 0.0:
            alternates = False
        ssq += x * x
        if store is not None:
            store.append(x)
        if ssq > _BIG:
            x, y, ssq, shift = x * _TINY, y * _TINY, ssq * _TINY * _TINY, shift + 1
            if store is not None:
                store[:] = [z * _TINY for z in store]
    return (alphas[0] - t) * x + below * y, x, ssq, shift, alternates


def _dense_ground(alphas: list, betas: list) -> tuple[float, float, np.ndarray]:
    """The safeguard of the Ritz step: the lowest eigenpair of the dense
    tridiagonal by ``np.linalg.eigh``. Returns (theta, |u[-1]|, u), with
    u[0] >= 0."""
    t = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
    if not np.isfinite(t).all():
        raise np.linalg.LinAlgError("Ritz step: the tridiagonal matrix is not finite")
    w, q = np.linalg.eigh(t)
    u = q[:, 0] if q[0, 0] >= 0.0 else -q[:, 0]
    return float(w[0]), abs(float(u[-1])), u


def _ritz_step(alphas: list, betas: list, theta: float, last: float):
    """Lowest eigenvalue theta of the k x k tridiagonal and the size |u[-1]|
    of its vector's last component, from the (k - 1) x (k - 1) matrix's
    ``theta`` and ``last`` (module docstring). Returns (theta, |u[-1]|,
    u), u being None unless the dense safeguard ran."""
    a, b = alphas[-1], betas[-1] * last
    # lowest eigenvalue of the 2 x 2 Rayleigh-Ritz matrix [[theta, b], [b, a]]
    t = 0.5 * (a + theta) - math.hypot(0.5 * (a - theta), b)
    for _ in range(_MAX_PASSES):
        r, top, ssq, shift, alternates = _upward(alphas, betas, t)
        step = r * top / ssq
        if abs(step) <= _EPS4 * max(1.0, abs(t)):
            if alternates and top * top >= _TOP * ssq:
                return t + step, math.ldexp(1.0 / math.sqrt(ssq), -_SHIFT * shift), None
            break
        t += step
    return _dense_ground(alphas, betas)


def _ritz_vector(alphas: list, betas: list, theta: float) -> np.ndarray:
    """The normalized vector of a certified Ritz value theta, u[0] > 0, from
    one more upward pass."""
    v: list = []
    _, top, ssq, _, _ = _upward(alphas, betas, theta, v)
    u = np.array(v[::-1])
    u *= math.copysign(1.0 / math.sqrt(ssq), top)
    return u


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
_DGKS = 1.0 / math.sqrt(2.0)


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
    matvec. The tridiagonal coefficients are Python floats in two lists.
    Each step's Ritz pair comes from the Ritz step of the module docstring:
    upward passes from the previous pair until the update is at rounding,
    accepted under a sign-count certificate that it is the lowest
    eigenvalue, with a dense ``np.linalg.eigh`` of the tridiagonal matrix
    as the safeguard; the Ritz vector is formed once, at the end. The
    basis is float64 when the start vector and the operator's images are
    real and complex128 as soon as either is complex, so an imaginary part
    is never dropped. Returns (value, normalized vector, converged). Raises
    if the operator is detectably non-Hermitian, or as soon as the
    start-vector norm or a Lanczos coefficient is not finite.
    """
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
    basis[0] = v
    k = 1
    a = np.vdot(basis[0], hv)
    if not cmath.isfinite(a):
        raise _not_finite("alpha")
    scale = max(1.0, _norm(hv))
    if abs(a.imag) > 1e-8 * scale:
        raise ValueError("operator is not Hermitian: <v|Hv> has an imaginary part")
    theta = float(a.real)
    alphas = [theta]
    betas = []  # betas[j] couples rows j and j + 1
    w = basis[1]
    np.subtract(hv, theta * basis[0], out=w)
    last, u = 1.0, None  # |u[-1]|, and u itself when the safeguard gave it
    converged = False
    for _ in range(max_iter - 1):
        beta = _norm(w)
        if not math.isfinite(beta):
            raise _not_finite("beta")
        beta = _orthogonalize(basis[:k], w, beta)
        if k == 1:  # the start vector's own residual, cut by the factor
            target = reduction * beta
        if beta * last <= max(tol * max(1.0, abs(theta)), target):
            converged = True
            break
        if beta <= 1e-14 * scale or k == m:  # invariant subspace
            converged = True
            break
        w /= beta
        betas.append(beta)
        hv = matvec(basis[k])
        if hv.dtype.kind == "c" and basis.dtype.kind != "c":
            # a complex operator whose first images happened to be real
            basis = basis.astype(complex)
        a = float(np.vdot(basis[k], hv).real)
        if not math.isfinite(a):
            raise _not_finite("alpha")
        alphas.append(a)
        w = basis[k + 1]
        np.subtract(hv, a * basis[k], out=w)
        w -= beta * basis[k - 1]
        k += 1
        theta, last, u = _ritz_step(alphas, betas, theta, last)
    if u is None:
        u = _ritz_vector(alphas, betas, theta)
    vec = u @ basis[:k]
    vec /= _norm(vec)
    return theta, vec, converged


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
    rng = GaussianStream(seed)
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
