"""Real-space coarse graining of the 2D classical Ising partition function.

The local tensor lives on lattice sites with index order (up, left, down,
right); each bond transfer matrix m, divided by its largest entry
e^(beta J), is split as W W^T between the two neighbours, so a torus of N
tensors contracts to Z e^(-2 beta J N) and the flow starts its log
normalization at 2 beta J per site. Internals are real float64: for J > 0
every quantity in the flow stays real.

Parity basis. W = V sqrt(w) is built from the eigenvectors of m, the even
one (1, 1) first and the odd one (1, -1) second, so the spin-flip symmetry
of the model becomes a Z2 grading of every bond: T[u,l,d,r] is exactly
0.0 unless u + l + d + r is even. Every leg is kept sorted even-first and
``CoarseGrainState.even`` holds the even count of each leg. A coarse
tensor inherits the grading, so all work runs on parity blocks (Singh,
Pfeifer & Vidal, PRA 82, 050301(R) (2010)): a matrix view of a graded
tensor vanishes unless the parities of its row and column indices agree,
so each product is two half-size products and each Gram matrix two
half-size blocks.

Two schemes are provided. The plaquette scheme (TRG; Levin & Nave, PRL 99,
120601 (2007)) splits each tensor along its two diagonals and recombines
four half-tensors into one coarse tensor on a lattice rotated 45 degrees,
doubling the area per tensor each step. The merging scheme (HOTRG; Xie et
al., PRB 86, 045139 (2012)) contracts a pair of tensors along one axis and
projects the doubled transverse legs with the dominant eigenvectors of
the left/right Gram matrices, keeping whichever side discards less weight.

Merge by value. Both schemes truncate through one kernel, ``_top_eigh``:
the leading ``max_bond`` eigenpairs of each parity block of a symmetric
Gram matrix G (M M^T for a plaquette split, given by its factor blocks M;
the left/right density of a merged pair, given as G) are merged by value
and the package-wide rule of ``tensor.truncate_spectrum`` is applied once
to the square roots of the merged list. The kept vectors of each parity
become the even and the odd part of the new leg. The discarded weight is
the trace minus the kept eigenvalues, over the trace of both blocks (for a
factor, trace M M^T = ||M||_F^2); it is exactly 0.0 when nothing is cut,
but on a rank-deficient step that cuts only zero values it is a difference
of two sums and sits at rounding level (~1e-16).

Top eigenpairs. A block of more than 4 ``max_bond`` rows is solved by
randomized subspace iteration (``_subspace_top``; Halko, Martinsson &
Tropp, SIAM Rev. 53, 217 (2011)): a Gaussian start block of width
2 ``max_bond`` from a fixed seed, drawn once per shape and kept read-only
(``_start_block``), so reruns are byte-identical, then per iteration
Q = qr(Y), one product Y = G Q and a Rayleigh-Ritz ``eigh`` of Q^T Y. The
schemes differ only in that product: a plaquette split applies
G Q = M (M^T Q) and never forms M M^T, a merging step multiplies by its
density. It stops once every kept Ritz pair has a residual |G v - theta v|
of at most 64 eps theta_max, the backward error of a dense solver. Gram
spectra fall off steeply past the cut, so few iterations are needed; each
step records its count, summed over its blocks, in
``CoarseGrainTrace.subspace_iterations`` (at beta_c and chi = 32 about 3
per block on a plaquette step and up to 7 on a saturated merging step).
Smaller blocks, and a block still above the bound after 30 iterations, go
to a full dense ``np.linalg.eigh`` (``_dense_top``), counted in
``CoarseGrainTrace.dense_solves``; only there is M M^T formed. The module
runs on numpy alone: scipy.linalg would load a second BLAS library into
every trg process.

Cost per step, with every leg of extent chi and even and odd halves near
chi/2: a plaquette step applies its two chi^2 x chi^2 Gram matrices
through their factors, two O(chi^5) products per iteration, and recombines
the halves, O(chi^6); a merging step forms its four half-row Gram matrices
and two densities, O(chi^6), and contracts the pair, O(chi^7), one new
index at a time so that no intermediate has more than chi^4 entries. On
parity blocks each product costs about a quarter of the dense one: at
chi = 32 the eigensolver sees two blocks near 512 x 512 instead of one
1024 x 1024 matrix, and multiplies each by a block of 64 columns instead
of tridiagonalizing it. The O(chi^7) products of a merging step run at the
rate of a large matrix product: the pair of each new index is two products
of a 512 x 512 block of the top tensor, which stays in cache across all
new indices, with a 512 x 256 block. Every chi^4 temporary is dropped
once used, so, counted from a step's entry in units of the larger of its
input and output tensors, a saturated plaquette step peaks at about 1.8
(the coarse tensor, its two product blocks and the four halves) and a
merging step at about 2.4 (the coarse tensor, the blocks ``tops`` and
``bottoms`` of its input, half a tensor each, and two product buffers).

Block layouts. With every leg sorted even-first, the entries of parity q
of a combined index (i, j) are two contiguous sub-blocks, (i even, j q)
then (i odd, j 1 - q) (``_pair_blocks``), in the C order of the combined
index. So every parity block of a matrix view of a tensor is assembled
from contiguous slices of the 4D array (``_block``), written in place with
one transposed copy per sub-block, and every regrouping of a Gram matrix
G[(i j), (i' j')] into H[(i i'), (j j')] moves sub-blocks the same way
(``_regroup``). Both schemes regroup through it: a merging step its
half-row Grams and densities, a plaquette step the products of its halves,
whose (i j) and (i' j') run over different legs. Nothing is gathered or
scattered by index arrays. The pair of a merging step is never transposed:
each row block of a product, fixed parities of u and rt, is the contiguous
array (u, (rt rb), d), and the isometry block of the parity of (rt rb) is
applied to it by one batched product that writes the coarse tensor in (u,
l, d, r) order.

Degenerate cuts. When the cut falls inside a degenerate group the kept
subspace is arbitrary: between blocks, exactly equal values are taken
even-first, and inside a near-degenerate group the choice moves with
rounding (at chi = 16, beta = 0.35 the plaquette flow differs from a
full-SVD flow by up to ~2e-9 relative at intermediate steps, ~1e-14 after
25 steps).

Each step pulls out the max-norm of the coarse tensor; the running
per-site log normalization plus the one-tensor torus closure give the free
energy density.

``CoarseGrainConfig`` holds a flow's settings, their defaults and rules;
the trg settings of the command line extend it."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .models import ClassicalModelSpec
from .tensor import ConfigError, TruncationSpec, truncate_spectrum


@dataclass(frozen=True)
class CoarseGrainState:
    """tensor is (up, left, down, right); one tensor stands for
    sites_represented original lattice sites and the true tensor is
    exp(log_norm_per_site * sites_represented) times the stored one.
    Each leg is sorted even-first and even[i] counts the even indices of
    leg i; entries whose four indices have odd total parity are 0.0.
    subspace_iterations and dense_solves count the eigensolver work of the
    step that built the tensor (``_top_eigh``; 0 for the initial tensor)."""

    tensor: np.ndarray
    log_norm_per_site: float
    sites_represented: int
    even: tuple[int, int, int, int]
    subspace_iterations: int = 0
    dense_solves: int = 0


def _bond_root(spec: ClassicalModelSpec) -> np.ndarray:
    """W with W W^T = m e^-x, the bond transfer matrix m = [[e^x, e^-x],
    [e^-x, e^x]], x = beta J, over its largest entry: W = V sqrt(w) with the
    even eigenvector (1, 1)/sqrt(2) of eigenvalue 1 + e^-2x in column 0 and
    the odd one (1, -1)/sqrt(2) of eigenvalue 1 - e^-2x in column 1. Every
    entry lies in [0, 1], so nothing overflows however large beta is."""
    x = spec.beta * spec.J
    c, s = np.sqrt(0.5 + 0.5 * np.exp(-2.0 * x)), np.sqrt(-0.5 * np.expm1(-2.0 * x))
    return np.array([[c, s], [c, -s]])


def build_plaquette_tensor(spec: ClassicalModelSpec) -> np.ndarray:
    """Site tensor T[u,l,d,r] = sum_s W[s,u] W[s,l] W[s,d] W[s,r] with W
    from ``_bond_root``, so e^(2 beta J) T is the tensor of the model (two
    bonds per site); index 0 of every leg is even and index 1 odd, and the
    two spin terms cancel exactly where u + l + d + r is odd."""
    root = _bond_root(spec)
    return np.einsum("su,sl,sd,sr->uldr", root, root, root, root)


def initial_state(spec: ClassicalModelSpec) -> CoarseGrainState:
    t = build_plaquette_tensor(spec)
    scale = float(np.max(np.abs(t)))
    log_norm = 2.0 * spec.beta * spec.J + np.log(scale)
    return CoarseGrainState(t / scale, float(log_norm), 1, (1, 1, 1, 1))


def torus_trace(state: CoarseGrainState) -> float:
    """Closure of a single tensor into a torus."""
    return float(np.einsum("ulul->", state.tensor))


def free_energy_density(state: CoarseGrainState, beta: float) -> float:
    closure = torus_trace(state)
    if not (np.isfinite(closure) and closure > 0.0):
        raise RuntimeError(f"torus closure is {closure}; flow has broken down")
    ln_z_per_site = state.log_norm_per_site + np.log(closure) / state.sites_represented
    return float(-ln_z_per_site / beta)


def _rescaled(tensor: np.ndarray, even, state: CoarseGrainState, work) -> CoarseGrainState:
    """The state after a step: tensor, which the step has just built and
    nothing else holds, divided in place by its max-norm; work is the
    step's (subspace iterations, dense solves)."""
    n_new = 2 * state.sites_represented
    scale = float(max(tensor.max(), -tensor.min()))
    if not np.isfinite(scale):
        raise RuntimeError("coarse tensor is not finite; flow has broken down")
    if scale == 0.0:
        raise RuntimeError("coarse tensor vanished; flow has broken down")
    tensor /= scale
    log_norm = state.log_norm_per_site + np.log(scale) / n_new
    return CoarseGrainState(tensor, float(log_norm), n_new, tuple(even), *work)


def _halves(dim: int, even: int) -> tuple[slice, slice]:
    """The even and the odd index range of a leg sorted even-first."""
    return slice(0, even), slice(even, dim)


def _size(s: slice) -> int:
    return s.stop - s.start


def _pair_blocks(first, second, q: int):
    """The layout of the entries of parity q of a combined index (first,
    second), given the even and odd ranges of each leg: for p = 0, 1 the
    block (first p, second p ^ q), each in C order, one after the other.
    Sorting both legs even-first makes this the C order of those entries.
    Returns [(p, first range, second range, combined range)] by p."""
    out, start = [], 0
    for p in (0, 1):
        a, b = first[p], second[p ^ q]
        stop = start + _size(a) * _size(b)
        out.append((p, a, b, slice(start, stop)))
        start = stop
    return out


def _put(dst: np.ndarray, src: np.ndarray) -> None:
    """Write src into dst, a view whose axes src's shape splits."""
    dst.reshape(src.shape, copy=False)[...] = src


def _block(t: np.ndarray, axes, halves, q: int) -> np.ndarray:
    """The parity-q block of the matrix view of a graded tensor with rows
    (axes[0], axes[1]) and columns (axes[2], axes[3]): rows and columns of
    parity q, each laid out by ``_pair_blocks``, copied from contiguous
    slices of t. halves holds the even and odd range of each leg of t."""
    i, j, k, l = axes
    rows = _pair_blocks(halves[i], halves[j], q)
    cols = _pair_blocks(halves[k], halves[l], q)
    out = np.empty((rows[1][3].stop, cols[1][3].stop))
    for _, ri, rj, rr in rows:
        for _, ck, cl, cc in cols:
            index = [None] * 4
            index[i], index[j], index[k], index[l] = ri, rj, ck, cl
            _put(out[rr, cc], t[tuple(index)].transpose(axes))
    return out


def _regroup(blocks, rows, cols) -> list[np.ndarray]:
    """From the blocks of G[(i j), (i' j')], rows and columns of parity s
    in ``blocks[s]``, the rows laid out by ``_pair_blocks(*rows, s)`` and
    the columns by ``_pair_blocks(*cols, s)``, the blocks of H[(i i'),
    (j j')] = G: rows (i i') and columns (j j') of parity r in entry r,
    laid out by ``_pair_blocks`` of the ranges of i and i' and of j and
    j'. Each sub-block is one transposed copy of a slice."""
    row_layouts = [_pair_blocks(*rows, s) for s in (0, 1)]
    col_layouts = [_pair_blocks(*cols, s) for s in (0, 1)]
    out = []
    for r in (0, 1):
        firsts = _pair_blocks(rows[0], cols[0], r)
        seconds = _pair_blocks(rows[1], cols[1], r)
        h = np.empty((firsts[1][3].stop, seconds[1][3].stop))
        for a, i, i2, rr in firsts:
            for d, j, j2, cc in seconds:
                s = a ^ d  # parity of (i j) and of (i' j')
                g = blocks[s][row_layouts[s][a][3], col_layouts[s][a ^ r][3]]
                shape = (_size(i), _size(j), _size(i2), _size(j2))
                _put(h[rr, cc], g.reshape(shape).transpose(0, 2, 1, 3))
        out.append(h)
    return out


_SUBSPACE_SEED = 2011  # seed of the Gaussian start block of ``_subspace_top``
_SUBSPACE_TOL = 64.0  # Ritz residual bound in units of eps * largest Ritz value
_SUBSPACE_ITERS = 30  # iterations before the dense solver takes over


@functools.lru_cache(maxsize=8)
def _start_block(n: int, width: int) -> np.ndarray:
    """The seeded Gaussian start block of ``_subspace_top``, read-only: a
    function of its shape alone, drawn once per shape."""
    block = np.random.default_rng(_SUBSPACE_SEED).standard_normal((n, width))
    block.flags.writeable = False
    return block


def _subspace_top(apply, n: int, top: int):
    """The top eigenpairs of an n x n symmetric positive semi-definite
    matrix G, given as apply(Q) = G Q, by randomized subspace iteration of
    width 2 top with a Rayleigh-Ritz step (Halko, Martinsson & Tropp, SIAM
    Rev. 53, 217 (2011)), largest first. Returns (theta, v, iterations);
    theta and v are None when some kept residual |G v - theta v| is still
    above ``_SUBSPACE_TOL`` eps theta_max after ``_SUBSPACE_ITERS``
    iterations. The start block is seeded, so the result is a function of
    G alone."""
    y = apply(_start_block(n, 2 * top))
    for iteration in range(1, _SUBSPACE_ITERS + 1):
        q = np.linalg.qr(y)[0]
        y = apply(q)
        theta, s = np.linalg.eigh(q.T @ y)
        theta, s = theta[::-1][:top], s[:, ::-1][:, :top]
        v = q @ s
        residual = np.linalg.norm(y @ s - v * theta, axis=0)
        if np.all(residual <= _SUBSPACE_TOL * np.finfo(float).eps * abs(theta[0])):
            return theta, v, iteration
    return None, None, _SUBSPACE_ITERS


def _dense_top(gram: np.ndarray, top: int):
    """The top ``top`` eigenpairs of a symmetric matrix, largest first, from
    a full ``np.linalg.eigh``. At the blocks of 4 ``max_bond`` rows that a
    flow solves densely this beats scipy's subset solve (1.3 against 2.1 ms
    at 128 rows, one BLAS thread); it loses on the rare large block that
    subspace iteration leaves unconverged (33 against 17 ms at 512 rows
    with 32 kept)."""
    w, v = np.linalg.eigh(gram)
    return w[: -top - 1 : -1], v[:, : -top - 1 : -1]


def _top_eigh(blocks, spec: TruncationSpec, factors: bool = False):
    """Leading eigenpairs of a symmetric positive semi-definite Gram matrix
    given as its even and odd blocks, or with ``factors`` as the blocks m of
    a factor, G = m m^T, cut by the truncation rule applied to their square
    roots.

    The top ``max_bond`` eigenpairs of each block are computed and merged by
    value (equal values even-first); the discarded weight is the trace of
    both blocks (||m||_F^2 for a factor) minus the kept eigenvalues, over
    that trace, so the rest of the spectrum is never formed. It is exactly
    0.0 when nothing is cut. A block of more than 4 ``max_bond`` rows is
    solved by ``_subspace_top``, which applies a factor as m (m^T Q);
    smaller blocks, and a block it leaves unconverged, by ``_dense_top``,
    the only place m m^T is formed. Non-finite input raises ValueError
    before any LAPACK call.
    Returns (v_even, v_odd, discarded, (subspace iterations, dense solves))
    with the kept eigenvectors of each block as columns, largest first.
    """
    if not all(np.isfinite(m).all() for m in blocks):
        raise ValueError("array must not contain infs or NaNs")
    values, vectors = [], []
    total, iterations, dense = 0.0, 0, 0
    for m in blocks:
        n = m.shape[0]
        top = min(spec.max_bond, n)
        w = None
        if n > 4 * top:
            apply = (lambda x, m=m: m @ (m.T @ x)) if factors else m.__matmul__
            w, v, steps = _subspace_top(apply, n, top)
            iterations += steps
        if w is None and top > 0:
            gram = m @ m.T if factors else m
            w, v = _dense_top(gram, top)
            dense += 1
        elif w is None:
            w, v = np.zeros(0), np.zeros((n, 0))
        values.append(np.clip(w, 0.0, None))
        vectors.append(v)
        total += float(np.vdot(m, m)) if factors else float(np.trace(m))
    w = np.concatenate(values)
    order = np.argsort(-w, kind="stable")
    k, _ = truncate_spectrum(np.sqrt(w[order]), spec.max_bond, spec.rel_cutoff)
    k_even = int(np.count_nonzero(order[:k] < values[0].size))
    if k == sum(m.shape[0] for m in blocks) or total <= 0.0:
        discarded = 0.0
    else:
        discarded = max(total - float(np.sum(w[order[:k]])), 0.0) / total
    return vectors[0][:, :k_even], vectors[1][:, : k - k_even], discarded, (iterations, dense)


def _split(t: np.ndarray, axes, halves, spec: TruncationSpec):
    """Truncated symmetric split M ~ A @ B of the matrix view M of a graded
    tensor with rows (axes[0], axes[1]) and columns (axes[2], axes[3]),
    with the spectrum shared evenly: A = U sqrt(s), B = sqrt(s) V. U are
    the leading eigenvectors of the two blocks of M M^T, solved from the
    blocks of M (``_block``) without forming M M^T; the singular values are
    the row norms of U^T M = s V. Returns (A as (row legs, new), B^T as
    (column legs, new), the even count of the new index, discarded weight,
    eigensolver work); the new index is sorted even-first."""
    i, j, k, l = axes
    blocks = [_block(t, axes, halves, q) for q in (0, 1)]
    *us, discarded, work = _top_eigh(blocks, spec, factors=True)
    k_even = us[0].shape[1]
    new = _halves(k_even + us[1].shape[1], k_even)
    a = np.zeros((t.shape[i], t.shape[j], new[1].stop))
    b = np.zeros((t.shape[k], t.shape[l], new[1].stop))
    for q, u, m in zip((0, 1), us, blocks):
        sv = u.T @ m
        root = np.sqrt(np.linalg.norm(sv, axis=1))
        # rows with s == 0 are zero in sv and stay zero
        inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        us_q, vs_q = u * root, (inv_root[:, None] * sv).T
        for _, ri, rj, rr in _pair_blocks(halves[i], halves[j], q):
            a[ri, rj, new[q]] = us_q[rr].reshape(_size(ri), _size(rj), u.shape[1])
        for _, ck, cl, cc in _pair_blocks(halves[k], halves[l], q):
            b[ck, cl, new[q]] = vs_q[cc].reshape(_size(ck), _size(cl), u.shape[1])
    return a, b, k_even, discarded, work


def trg_step(state: CoarseGrainState, spec: TruncationSpec) -> tuple[CoarseGrainState, float]:
    """One plaquette coarse-graining step; doubles the area per tensor.
    Returns the new state and the summed discarded weight of both splits."""
    t = state.tensor
    halves = [_halves(n, e) for n, e in zip(t.shape, state.even)]
    # diagonal split 1: (right, up) x (left, down); diagonal split 2:
    # (left, up) x (right, down). The halves are t3 (r, u, a), t1 (l, d, a),
    # t4 (l, u, b) and t2 (r, d, b)
    t3, t1, e1, w1, work1 = _split(t, (3, 0, 1, 2), halves, spec)
    t4, t2, e2, w2, work2 = _split(t, (1, 0, 3, 2), halves, spec)
    n1, n2 = _halves(t1.shape[2], e1), _halves(t2.shape[2], e2)
    # the four halves around a plaquette of the rotated lattice: the left
    # leg x of one half meets the right leg of the next (same grading), and
    # new[(a b), (e c)] = sum top[(a b), (d1 d2)] bot[(d1 d2), (e c)] with
    # top = sum_x t1[x, d1, a] t2[x, d2, b], bot = sum_x t4[x, d1, e] t3[x, d2, c],
    # each one product per parity of x (t1 and t2 read as (x, a, d)),
    # regrouped by ``_regroup`` as the Gram matrices of a merging step are
    hor, down = halves[1], halves[2]

    def view(half, x, legs):
        """half[x, i, j] for x of parity x as the matrix (x, (i j) of
        parity x), legs holding the even and odd ranges of i and of j."""
        width = _size(hor[x])
        pieces = _pair_blocks(*legs, x)
        blocks = [half[hor[x], i, j].reshape(width, _size(i) * _size(j)) for _, i, j, _ in pieces]
        return np.concatenate(blocks, axis=1)

    def gram(f, g, rows, cols):
        """sum_x f[x, i, j] g[x, i', j'] as the blocks of [(i i'), (j j')]."""
        return _regroup([view(f, x, rows).T @ view(g, x, cols) for x in (0, 1)], rows, cols)

    top = gram(t1.transpose(0, 2, 1), t2.transpose(0, 2, 1), (n1, down), (n2, down))
    bot = gram(t4, t3, (down, n2), (down, n1))
    # both products before the output, each factor block dropped once used,
    # and each product dropped once scattered
    news = []
    for q in (0, 1):
        news.append(top[q] @ bot[q])
        top[q] = bot[q] = None
    out = np.zeros((t2.shape[2], t1.shape[2], t2.shape[2], t1.shape[2]))  # (b, c, e, a)
    for q in (0, 1):
        for _, a, b, rows in _pair_blocks(n1, n2, q):
            for _, e, c, cols in _pair_blocks(n2, n1, q):
                shape = (_size(a), _size(b), _size(e), _size(c))
                out[b, c, e, a] = news[q][rows, cols].reshape(shape).transpose(1, 3, 2, 0)
        news[q] = None
    work = (work1[0] + work2[0], work1[1] + work2[1])
    return _rescaled(out, (e2, e1, e2, e1), state, work), float(w1 + w2)


def _merge_isometry(t: np.ndarray, even, spec: TruncationSpec):
    """Projector for the doubled horizontal legs of a vertical pair, chosen
    from the side whose Gram spectrum loses less weight (ties pick left).

    Returns (v_even, v_odd, discarded, eigensolver work of both sides): the
    kept columns of each parity, rows (top leg, bottom leg) of that parity
    laid out by ``_pair_blocks``.
    """
    halves = [_halves(n, e) for n, e in zip(t.shape, even)]
    up, left, down, right = halves
    # the four half-row Gram matrices are products of two matrix views of t
    # with their own transposes: x is (l d, u r), y is (u l, d r). The
    # density of a side, rho[(a b), (c e)] = sum g1[(a c), (m m')]
    # g2[(m m'), (b e)], pairs its top-row Gram g1 with its bottom-row g2;
    # a Gram matrix has the same legs in (i j) as in (i' j')
    ld, ul, dr, ur = (left, down), (up, left), (down, right), (up, right)
    ll, rr = (left, left), (right, right)

    def gram(axes, legs, transpose=False):
        """m m^T (m^T m with transpose) of the matrix view m of t with rows
        (axes[0], axes[1]), regrouped: each parity block of m is copied,
        multiplied by its transpose and dropped before the next."""
        square = (lambda b: b.T @ b) if transpose else (lambda b: b @ b.T)
        return _regroup([square(_block(t, axes, halves, s)) for s in (0, 1)], legs, legs)

    def density(g1, g2, legs):
        """sum g1 g2 regrouped, each pair of blocks dropped once multiplied."""
        products = []
        for s in (0, 1):
            products.append(g1[s] @ g2[s])
            g1[s] = g2[s] = None
        return _regroup(products, legs, legs)

    # alive beside t: while the second Gram of a side is built, the first
    # (chi^4/2 entries) and one parity block of the view and its product,
    # then both products and their regrouping; no view x or y is held
    # across the call, and each density is dropped once its eigenpairs are
    # taken. Left: x x^T (l, m, l', m') with y y^T (m, l, m', l'); right:
    # y^T y (m, r, m', r'), transposed, with x^T x (m, r, m', r')
    on_left = _top_eigh(density(gram((1, 2, 0, 3), ld), gram((0, 1, 2, 3), ul), ll), spec)
    g1 = [g.T for g in gram((0, 1, 2, 3), dr, transpose=True)]
    on_right = _top_eigh(density(g1, gram((1, 2, 0, 3), ur, transpose=True), rr), spec)
    work = (on_left[3][0] + on_right[3][0], on_left[3][1] + on_right[3][1])
    return (*(on_left if on_left[2] <= on_right[2] else on_right)[:3], work)


def _merge_vertical(t: np.ndarray, even, spec: TruncationSpec):
    """Contract a vertical pair (top above bottom) and compress both merged
    horizontal legs with one shared isometry. Returns (tensor (u, l, d, r),
    even count of the new legs, discarded weight, eigensolver work).

    Works one new left index a at a time, as matrix products on layouts
    prepared once, so no intermediate exceeds chi^4 entries. For a of
    parity p the pair P[(u rt), (rb d)] = top[(u rt), (lt m)] R[(lt m),
    (rb d)], with R = sum_lb iso[lt, lb, a] T[m, lb, d, rb], vanishes
    unless the rows have parity q and the columns q ^ p, so it is a product
    of half-size blocks, one per parity of rb, each combined index laid out
    by ``_pair_blocks``. The parity q is the outer loop, so each block of
    top stays in cache across all a. Every row block of a product, fixed
    parities of u and rt, is the contiguous array (u, (rt rb), d), and the
    isometry block of the parity of (rt rb) is applied to it by one batched
    product, written straight into the output: the two parities q add up.
    """
    chi_u, _, chi_d, _ = t.shape
    halves = [_halves(n, e) for n, e in zip(t.shape, even)]
    U, L, D, R = halves
    *vs, err, work = _merge_isometry(t, even, spec)
    k_even = vs[0].shape[1]
    k = k_even + vs[1].shape[1]
    new = _halves(k, k_even)
    isos = [np.ascontiguousarray(v.T) for v in vs]  # (new, (leg leg)) of each parity
    legs = [_pair_blocks(L, L, s) for s in (0, 1)]  # (lt lb) and (rt rb)
    tops = [_block(t, (0, 3, 1, 2), halves, q) for q in (0, 1)]  # ((u rt), (lt m)) of parity q
    bottom = t.transpose(1, 0, 3, 2)  # (lb, m, rb, d)
    # the matrix (lb, (m rb d)) of each parity block of the bottom tensor
    # that the grading lets be nonzero, p_d = p_lb ^ p_m ^ p_rb
    bottoms = {
        (p_lb, p_m, p_rb): np.ascontiguousarray(bottom[lb, m, rb, d]).reshape(
            _size(lb), _size(m) * _size(rb) * _size(d)
        )
        for p_lb, lb in enumerate(L)
        for p_m, m in enumerate(D)
        for p_rb, rb in enumerate(R)
        for d in [D[p_lb ^ p_m ^ p_rb]]
    }
    out = np.zeros((chi_u, k, chi_d, k))  # (u, a, d, b)
    # one buffer each for R and for the pair, reused by every product
    most = max(_size(rb) * _size(d) for rb in R for d in D)
    r_buf = np.empty(max(top.shape[1] for top in tops) * most)
    pair_buf = np.empty(max(top.shape[0] for top in tops) * most)
    for q in (0, 1):
        inner = _pair_blocks(L, D, q)  # (lt m)
        rows_q = _pair_blocks(U, R, q)  # (u rt)
        n_rows, n_inner = tops[q].shape
        for a in range(k):
            p = int(a >= k_even)
            row = isos[p][a - new[p].start]  # (lt lb), nonzero where p(lt) + p(lb) = p
            for p_rb, rb in enumerate(R):
                d = D[p_rb ^ q ^ p]
                width = _size(rb) * _size(d)
                r = r_buf[: n_inner * width].reshape(n_inner, width)
                for p_lt, lt, m, rows in inner:
                    block = bottoms[p_lt ^ p, p_lt ^ q, p_rb]  # (lb, (m rb d))
                    np.matmul(
                        row[legs[p][p_lt][3]].reshape(_size(lt), len(block)),
                        block,
                        out=r[rows].reshape(_size(lt), _size(m) * width),
                    )
                pair = pair_buf[: n_rows * width].reshape(n_rows, width)
                np.matmul(tops[q], r, out=pair)
                for p_u, u, rt, rows in rows_q:
                    s = p_u ^ q ^ p_rb  # parity of (rt rb)
                    shape = (_size(u), _size(rt) * _size(rb), _size(d))
                    x = pair[rows].reshape(shape).transpose(0, 2, 1)
                    iso = isos[s][:, legs[s][p_u ^ q][3]].T  # ((rt rb), b)
                    dst = out[u, a, d, new[s]]
                    if q == 0:
                        np.matmul(x, iso, out=dst)
                    else:
                        dst += x @ iso
    return out, k_even, err, work


def hotrg_step(
    state: CoarseGrainState, spec: TruncationSpec, direction: str
) -> tuple[CoarseGrainState, float]:
    """Merge neighbouring tensors along one axis ('v' stacks vertically,
    'h' chains horizontally); doubles the area per tensor."""
    if direction not in ("v", "h"):
        raise ValueError(f"direction must be 'v' or 'h', got {direction!r}")
    t = state.tensor
    e_u, e_l, e_d, e_r = state.even
    if direction == "h":
        # rotate so the horizontal merge becomes a vertical one, then undo
        new, k_even, err, work = _merge_vertical(
            t.transpose(1, 2, 3, 0), (e_l, e_d, e_r, e_u), spec
        )
        new, even = new.transpose(3, 0, 1, 2), (k_even, e_l, k_even, e_r)
    else:
        new, k_even, err, work = _merge_vertical(t, state.even, spec)
        even = (e_u, k_even, e_d, k_even)
    return _rescaled(new, even, state, work), err


@dataclass(frozen=True)
class CoarseGrainConfig:
    """A flow of ``n_iters`` steps of the plaquette (``trg``) or merging
    (``hotrg``) scheme, truncated to ``max_bond``."""

    max_bond: int
    n_iters: int
    method: str = "trg"
    rel_cutoff: float = 0.0

    def __post_init__(self):
        if self.method not in ("trg", "hotrg"):
            raise ConfigError(f"method must be 'trg' or 'hotrg', got {self.method!r}", "method")
        if self.n_iters < 1:
            raise ConfigError(f"n_iters must be >= 1, got {self.n_iters}", field="n_iters")
        TruncationSpec(self.max_bond, self.rel_cutoff)


@dataclass(frozen=True)
class CoarseGrainTrace:
    """free_energies[i] is the estimate after i+1 steps; bond_dims the
    largest tensor extent then; discarded the weight dropped at that step;
    subspace_iterations and dense_solves the eigensolver work of that step
    (``CoarseGrainState``). Every field reaches the run's record in
    ``results.jsonl`` under its own name, so each must stay deterministic."""

    free_energies: tuple[float, ...]
    bond_dims: tuple[int, ...]
    discarded: tuple[float, ...]
    method: str
    subspace_iterations: tuple[int, ...]
    dense_solves: tuple[int, ...]


def coarse_grain(
    model: ClassicalModelSpec, config: CoarseGrainConfig
) -> tuple[float, CoarseGrainTrace]:
    """Free energy per site of the infinite lattice, approached by iterated
    coarse graining. The merging scheme alternates directions starting
    vertically."""
    spec = TruncationSpec(max_bond=config.max_bond, rel_cutoff=config.rel_cutoff)
    state = initial_state(model)
    fs: list[float] = []
    dims: list[int] = []
    weights: list[float] = []
    work: list[tuple[int, int]] = []
    for i in range(config.n_iters):
        if config.method == "trg":
            state, err = trg_step(state, spec)
        else:
            state, err = hotrg_step(state, spec, "v" if i % 2 == 0 else "h")
        fs.append(free_energy_density(state, model.beta))
        dims.append(max(state.tensor.shape))
        weights.append(err)
        work.append((state.subspace_iterations, state.dense_solves))
    iterations, dense = zip(*work)
    trace = CoarseGrainTrace(
        free_energies=tuple(fs),
        bond_dims=tuple(dims),
        discarded=tuple(weights),
        method=config.method,
        subspace_iterations=iterations,
        dense_solves=dense,
    )
    return fs[-1], trace
