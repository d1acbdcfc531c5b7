"""Real-space coarse graining of the 2D classical Ising partition function.

The local tensor lives on lattice sites with index order (up, left, down,
right); bond weights are split symmetrically between neighbours, so a
torus of N tensors contracts to Z. Internals are real float64: for J > 0
every quantity in the flow stays real and positive-definite.

Two schemes are provided. The plaquette scheme splits each tensor along
its two diagonals and recombines four half-tensors into one coarse tensor
on a lattice rotated 45 degrees, doubling the area per tensor each step.
The merging scheme contracts a pair of tensors along one axis and projects
the doubled transverse legs with the dominant eigenvectors of the
left/right Gram matrices, keeping whichever side discards less weight.

Both schemes truncate through one kernel, ``_top_eigh``: only the leading
``max_bond`` eigenpairs of a symmetric Gram matrix are computed (M M^T for
a plaquette split, the left/right density of a merged pair), with
``scipy.linalg.eigh(subset_by_index=...)``, and the package-wide rule of
``tensor.truncate_spectrum`` is applied to their square roots. For an
n x n Gram matrix that is one O(n^3) reduction to tridiagonal form plus
O(n^2 max_bond) for the eigenvectors, several times cheaper than the full
SVD it replaces (n = 1024 at chi = 32). The discarded weight is the trace
minus the kept eigenvalues, over the trace; it is exactly 0.0 when nothing
is cut, but on a rank-deficient step that cuts only zero values it is a
difference of two sums and sits at rounding level (~1e-16), not ~1e-30.
When the cut falls inside a near-degenerate group the kept subspace is
arbitrary and moves with rounding: at chi = 16, beta = 0.35 the plaquette
flow differs from a full-SVD flow by up to ~2e-9 relative at intermediate
steps (~1e-14 after 25 steps). The merged pair is contracted one new leg
index at a time, so no intermediate has more than chi^4 entries.

Each step pulls out the max-norm of the coarse tensor; the running
per-site log normalization plus the one-tensor torus closure give the free
energy density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import ClassicalModelSpec
from .tensor import TruncationSpec, truncate_spectrum


@dataclass(frozen=True)
class CoarseGrainState:
    """tensor is (up, left, down, right); one tensor stands for
    sites_represented original lattice sites and the true tensor is
    exp(log_norm_per_site * sites_represented) times the stored one."""

    tensor: np.ndarray
    log_norm_per_site: float
    sites_represented: int


def build_plaquette_tensor(spec: ClassicalModelSpec) -> np.ndarray:
    """Site tensor T[u,l,d,r] = sum_s W[s,u] W[s,l] W[s,d] W[s,r] with W the
    symmetric square root of the bond transfer matrix."""
    if spec.J <= 0.0:
        raise ValueError("only ferromagnetic coupling (J > 0) is supported")
    x = spec.beta * spec.J
    m = np.array([[np.exp(x), np.exp(-x)], [np.exp(-x), np.exp(x)]])
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return np.einsum("su,sl,sd,sr->uldr", root, root, root, root)


def initial_state(spec: ClassicalModelSpec) -> CoarseGrainState:
    t = build_plaquette_tensor(spec)
    scale = float(np.max(np.abs(t)))
    return CoarseGrainState(t / scale, float(np.log(scale)), 1)


def torus_trace(state: CoarseGrainState) -> float:
    """Closure of a single tensor into a torus."""
    return float(np.einsum("ulul->", state.tensor))


def free_energy_density(state: CoarseGrainState, beta: float) -> float:
    closure = torus_trace(state)
    if closure <= 0.0:
        raise RuntimeError("torus closure is not positive; flow has broken down")
    ln_z_per_site = state.log_norm_per_site + np.log(closure) / state.sites_represented
    return float(-ln_z_per_site / beta)


def _rescaled(tensor: np.ndarray, state: CoarseGrainState) -> CoarseGrainState:
    n_new = 2 * state.sites_represented
    scale = float(np.max(np.abs(tensor)))
    if scale == 0.0:
        raise RuntimeError("coarse tensor vanished; flow has broken down")
    log_norm = state.log_norm_per_site + np.log(scale) / n_new
    return CoarseGrainState(tensor / scale, float(log_norm), n_new)


def _top_eigh(gram: np.ndarray, spec: TruncationSpec):
    """Leading eigenpairs of a symmetric positive semi-definite Gram matrix,
    cut by the truncation rule applied to their square roots.

    Only the top ``max_bond`` eigenpairs are computed; the discarded weight
    is the trace minus the kept eigenvalues, over the trace, so the rest of
    the spectrum is never formed. It is exactly 0.0 when nothing is cut.
    Non-finite input raises ValueError. Returns (v, discarded) with the
    kept eigenvectors as the columns of v, largest eigenvalue first.
    """
    n = gram.shape[0]
    top = min(spec.max_bond, n)
    w, v = scipy.linalg.eigh(gram, subset_by_index=[n - top, n - 1])
    w = np.clip(w[::-1], 0.0, None)
    k, _ = truncate_spectrum(np.sqrt(w), spec.max_bond, spec.rel_cutoff)
    total = float(np.trace(gram))
    if k == n or total <= 0.0:
        discarded = 0.0
    else:
        discarded = max(total - float(np.sum(w[:k])), 0.0) / total
    return v[:, ::-1][:, :k], discarded


def _split(matrix: np.ndarray, spec: TruncationSpec):
    """Truncated symmetric split M ~ A @ B with the spectrum shared
    evenly: A = U sqrt(s), B = sqrt(s) V. U are the leading eigenvectors
    of M M^T; the singular values are the row norms of U^T M = s V."""
    u, discarded = _top_eigh(matrix @ matrix.T, spec)
    sv = u.T @ matrix
    root = np.sqrt(np.linalg.norm(sv, axis=1))
    # rows with s == 0 are zero in sv and stay zero
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
    return u * root, inv_root[:, None] * sv, discarded


def trg_step(state: CoarseGrainState, spec: TruncationSpec) -> tuple[CoarseGrainState, float]:
    """One plaquette coarse-graining step; doubles the area per tensor.
    Returns the new state and the summed discarded weight of both splits."""
    t = state.tensor
    chi_u, chi_l, chi_d, chi_r = t.shape
    # diagonal split 1: (right, up) x (left, down)
    m1 = t.transpose(3, 0, 1, 2).reshape(chi_r * chi_u, chi_l * chi_d)
    a1, b1, w1 = _split(m1, spec)
    t3 = a1.reshape(chi_r, chi_u, -1)  # (r, u, new)
    t1 = b1.T.reshape(chi_l, chi_d, -1)  # (l, d, new)
    # diagonal split 2: (left, up) x (right, down)
    m2 = t.transpose(1, 0, 3, 2).reshape(chi_l * chi_u, chi_r * chi_d)
    a2, b2, w2 = _split(m2, spec)
    t4 = a2.reshape(chi_l, chi_u, -1)  # (l, u, new)
    t2 = b2.T.reshape(chi_r, chi_d, -1)  # (r, d, new)
    # recombine four halves around a plaquette of the rotated lattice
    top = np.tensordot(t1, t2, axes=(0, 0))  # (d1, a, d2, b)
    bot = np.tensordot(t3, t4, axes=(0, 0))  # (u3, c, u4, e)
    new = np.tensordot(top, bot, axes=([0, 2], [2, 0]))  # (a, b, c, e)
    new = new.transpose(1, 2, 3, 0)  # -> (up, left, down, right)
    return _rescaled(new, state), float(w1 + w2)


def _merge_isometry(t: np.ndarray, spec: TruncationSpec):
    """Projector for the doubled horizontal legs of a vertical pair, chosen
    from the side whose Gram spectrum loses less weight (ties pick left).

    Returns (isometry with rows (top leg, bottom leg), discarded weight).
    """
    chi_u, chi_l, chi_d, chi_r = t.shape
    # the four half-row Gram matrices are products of two matrix views of t
    # with their own transposes, which BLAS forms as symmetric rank-k updates:
    # x is (l d, u r), y is (u l, d r)
    x = t.transpose(1, 2, 0, 3).reshape(chi_l * chi_d, chi_u * chi_r)
    y = t.reshape(chi_u * chi_l, chi_d * chi_r)
    a1 = (x @ x.T).reshape(chi_l, chi_d, chi_l, chi_d)  # (l, m, l', m') from top row
    a2 = (y @ y.T).reshape(chi_u, chi_l, chi_u, chi_l)  # (m, l, m', l') from bottom row
    rho_l = np.einsum("amcn,mbnd->abcd", a1, a2, optimize=True)
    rho_l = rho_l.reshape(chi_l * chi_l, chi_l * chi_l)
    b1 = (y.T @ y).reshape(chi_d, chi_r, chi_d, chi_r)  # (m, r, m', r') from top row
    b2 = (x.T @ x).reshape(chi_u, chi_r, chi_u, chi_r)  # (m, r, m', r') from bottom row
    rho_r = np.einsum("manc,mbnd->abcd", b1, b2, optimize=True)
    rho_r = rho_r.reshape(chi_r * chi_r, chi_r * chi_r)

    ul, err_l = _top_eigh(rho_l, spec)
    ur, err_r = _top_eigh(rho_r, spec)
    if err_l <= err_r:
        return ul, err_l
    return ur, err_r


def _merge_vertical(t: np.ndarray, spec: TruncationSpec):
    """Contract a vertical pair (top above bottom) and compress both merged
    horizontal legs with one shared isometry. Works one new left index at
    a time, as three matrix products on layouts prepared once, so no
    intermediate exceeds chi^4 entries."""
    chi_u, chi, chi_d, _ = t.shape
    iso, err = _merge_isometry(t, spec)
    k = iso.shape[1]
    iso_t = np.ascontiguousarray(iso.T)  # (new, top leg bottom leg)
    top = t.transpose(0, 3, 2, 1).reshape(-1, chi)  # (u rt m, lt)
    bottom = t.transpose(0, 1, 3, 2).reshape(chi_d * chi, chi * chi_d)  # (m lb, rb d)
    out = np.empty((k, chi_u, k, chi_d))  # (a, u, b, d)
    for a in range(k):
        left = iso_t[a].reshape(chi, chi)  # (lt, lb)
        pair = (top @ left).reshape(chi_u * chi, chi_d * chi) @ bottom  # (u rt, rb d)
        np.matmul(iso_t, pair.reshape(chi_u, chi * chi, chi_d), out=out[a])
    return out.transpose(1, 0, 3, 2), err  # -> (u, l, d, r)


def hotrg_step(
    state: CoarseGrainState, spec: TruncationSpec, direction: str
) -> tuple[CoarseGrainState, float]:
    """Merge neighbouring tensors along one axis ('v' stacks vertically,
    'h' chains horizontally); doubles the area per tensor."""
    if direction not in ("v", "h"):
        raise ValueError(f"direction must be 'v' or 'h', got {direction!r}")
    t = state.tensor
    if direction == "h":
        # rotate so the horizontal merge becomes a vertical one, then undo
        new, err = _merge_vertical(t.transpose(1, 2, 3, 0), spec)
        new = new.transpose(3, 0, 1, 2)
    else:
        new, err = _merge_vertical(t, spec)
    return _rescaled(new, state), err


@dataclass(frozen=True)
class CoarseGrainTrace:
    """free_energies[i] is the estimate after i+1 steps; bond_dims the
    largest tensor extent then; discarded the weight dropped at that step."""

    free_energies: tuple[float, ...]
    bond_dims: tuple[int, ...]
    discarded: tuple[float, ...]
    method: str


def coarse_grain(
    model: ClassicalModelSpec,
    method: str = "trg",
    max_bond: int = 32,
    n_iters: int = 25,
    rel_cutoff: float = 0.0,
) -> tuple[float, CoarseGrainTrace]:
    """Free energy per site of the infinite lattice, approached by iterated
    coarse graining. The merging scheme alternates directions starting
    vertically."""
    if method not in ("trg", "hotrg"):
        raise ValueError(f"method must be 'trg' or 'hotrg', got {method!r}")
    if n_iters < 1:
        raise ValueError(f"n_iters must be >= 1, got {n_iters}")
    spec = TruncationSpec(max_bond=max_bond, rel_cutoff=rel_cutoff)
    state = initial_state(model)
    fs: list[float] = []
    dims: list[int] = []
    weights: list[float] = []
    for i in range(n_iters):
        if method == "trg":
            state, err = trg_step(state, spec)
        else:
            state, err = hotrg_step(state, spec, "v" if i % 2 == 0 else "h")
        fs.append(free_energy_density(state, model.beta))
        dims.append(max(state.tensor.shape))
        weights.append(err)
    trace = CoarseGrainTrace(
        free_energies=tuple(fs),
        bond_dims=tuple(dims),
        discarded=tuple(weights),
        method=method,
    )
    return fs[-1], trace
