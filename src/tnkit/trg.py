"""Real-space coarse graining of the 2D classical Ising partition function.

The local tensor lives on lattice sites with index order (up, left, down,
right); each bond transfer matrix m is split as W W^T between the two
neighbours, so a torus of N tensors contracts to Z. Internals are real
float64: for J > 0 every quantity in the flow stays real.

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
Gram matrix (M M^T for a plaquette split, the left/right density of a
merged pair), from ``scipy.linalg.eigh(subset_by_index=...)``, are merged
by value and the package-wide rule of ``tensor.truncate_spectrum`` is
applied once to the square roots of the merged list. The kept vectors of
each parity become the even and the odd part of the new leg. The
discarded weight is the trace minus the kept eigenvalues, over the trace
of both blocks; it is exactly 0.0 when nothing is cut, but on a
rank-deficient step that cuts only zero values it is a difference of two
sums and sits at rounding level (~1e-16).

Cost per step, with every leg of extent chi and even and odd halves near
chi/2: a plaquette step forms two chi^2 x chi^2 Gram matrices, solves
their top eigenpairs and recombines the halves, each O(chi^6); a merging
step forms its four half-row Gram matrices and two densities, O(chi^6),
and contracts the pair, O(chi^7), one new index at a time so that no
intermediate has more than chi^4 entries. On parity blocks each of these
costs about a quarter of the dense one: at chi = 32 the eigensolver sees
two blocks near 512 x 512 instead of one 1024 x 1024 matrix.

Degenerate cuts. When the cut falls inside a degenerate group the kept
subspace is arbitrary: between blocks, exactly equal values are taken
even-first, and inside a near-degenerate group the choice moves with
rounding (at chi = 16, beta = 0.35 the plaquette flow differs from a
full-SVD flow by up to ~2e-9 relative at intermediate steps, ~1e-14 after
25 steps).

Each step pulls out the max-norm of the coarse tensor; the running
per-site log normalization plus the one-tensor torus closure give the free
energy density."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import ClassicalModelSpec
from .tensor import ConfigError, TruncationSpec, truncate_spectrum


@dataclass(frozen=True)
class CoarseGrainState:
    """tensor is (up, left, down, right); one tensor stands for
    sites_represented original lattice sites and the true tensor is
    exp(log_norm_per_site * sites_represented) times the stored one.
    Each leg is sorted even-first and even[i] counts the even indices of
    leg i; entries whose four indices have odd total parity are 0.0."""

    tensor: np.ndarray
    log_norm_per_site: float
    sites_represented: int
    even: tuple[int, int, int, int]


def _bond_root(spec: ClassicalModelSpec) -> np.ndarray:
    """W with W W^T the bond transfer matrix m = [[e^x, e^-x], [e^-x, e^x]],
    x = beta J: W = V sqrt(w) with the even eigenvector (1, 1)/sqrt(2) of
    eigenvalue 2 cosh x in column 0 and the odd one (1, -1)/sqrt(2) of
    eigenvalue 2 sinh x in column 1."""
    if spec.J <= 0.0:
        raise ValueError("only ferromagnetic coupling (J > 0) is supported")
    x = spec.beta * spec.J
    c, s = np.sqrt(np.cosh(x)), np.sqrt(np.sinh(x))
    return np.array([[c, s], [c, -s]])


def build_plaquette_tensor(spec: ClassicalModelSpec) -> np.ndarray:
    """Site tensor T[u,l,d,r] = sum_s W[s,u] W[s,l] W[s,d] W[s,r] with W
    from ``_bond_root``; index 0 of every leg is even and index 1 odd, and
    the two spin terms cancel exactly where u + l + d + r is odd."""
    root = _bond_root(spec)
    return np.einsum("su,sl,sd,sr->uldr", root, root, root, root)


def initial_state(spec: ClassicalModelSpec) -> CoarseGrainState:
    t = build_plaquette_tensor(spec)
    scale = float(np.max(np.abs(t)))
    return CoarseGrainState(t / scale, float(np.log(scale)), 1, (1, 1, 1, 1))


def torus_trace(state: CoarseGrainState) -> float:
    """Closure of a single tensor into a torus."""
    return float(np.einsum("ulul->", state.tensor))


def free_energy_density(state: CoarseGrainState, beta: float) -> float:
    closure = torus_trace(state)
    if closure <= 0.0:
        raise RuntimeError("torus closure is not positive; flow has broken down")
    ln_z_per_site = state.log_norm_per_site + np.log(closure) / state.sites_represented
    return float(-ln_z_per_site / beta)


def _rescaled(tensor: np.ndarray, even, state: CoarseGrainState) -> CoarseGrainState:
    n_new = 2 * state.sites_represented
    scale = float(np.max(np.abs(tensor)))
    if scale == 0.0:
        raise RuntimeError("coarse tensor vanished; flow has broken down")
    log_norm = state.log_norm_per_site + np.log(scale) / n_new
    return CoarseGrainState(tensor / scale, float(log_norm), n_new, tuple(even))


def _parity(*legs) -> np.ndarray:
    """Parity (0 even, 1 odd) of the C-order combined index of legs given as
    (extent, even count) pairs, each leg sorted even-first."""
    p = np.zeros(1, dtype=np.intp)
    for dim, even in legs:
        p = (p[:, None] ^ (np.arange(dim) >= even)).ravel()
    return p


def _halves(dim: int, even: int) -> tuple[slice, slice]:
    """The even and the odd index range of a leg sorted even-first."""
    return slice(0, even), slice(even, dim)


def _sectors(parity: np.ndarray):
    """Indices of the even and of the odd entries of a parity vector."""
    return np.flatnonzero(parity == 0), np.flatnonzero(parity == 1)


def _block_matmul(x, y, rows, inner, cols) -> np.ndarray:
    """x @ y for matrices that vanish unless the parities of their row and
    column indices agree: one product per parity block."""
    out = np.zeros((x.shape[0], y.shape[1]))
    for r, i, c in zip(_sectors(rows), _sectors(inner), _sectors(cols)):
        out[np.ix_(r, c)] = x[np.ix_(r, i)] @ y[np.ix_(i, c)]
    return out


def _block_gram(x, rows, cols) -> np.ndarray:
    """x @ x^T for a matrix that vanishes unless the parities of its row and
    column indices agree."""
    out = np.zeros((x.shape[0], x.shape[0]))
    for r, c in zip(_sectors(rows), _sectors(cols)):
        xp = x[np.ix_(r, c)]
        out[np.ix_(r, r)] = xp @ xp.T
    return out


def _top_eigh(blocks, spec: TruncationSpec):
    """Leading eigenpairs of a symmetric positive semi-definite Gram matrix
    given as its even and odd blocks, cut by the truncation rule applied to
    their square roots.

    The top ``max_bond`` eigenpairs of each block are computed and merged by
    value (equal values even-first); the discarded weight is the trace of
    both blocks minus the kept eigenvalues, over that trace, so the rest of
    the spectrum is never formed. It is exactly 0.0 when nothing is cut.
    Non-finite input raises ValueError. Returns (v_even, v_odd, discarded)
    with the kept eigenvectors of each block as columns, largest first.
    """
    values, vectors = [], []
    for gram in blocks:
        n = gram.shape[0]
        top = min(spec.max_bond, n)
        if top == 0:
            w, v = np.zeros(0), np.zeros((n, 0))
        else:
            w, v = scipy.linalg.eigh(gram, subset_by_index=[n - top, n - 1])
        values.append(np.clip(w[::-1], 0.0, None))
        vectors.append(v[:, ::-1])
    w = np.concatenate(values)
    order = np.argsort(-w, kind="stable")
    k, _ = truncate_spectrum(np.sqrt(w[order]), spec.max_bond, spec.rel_cutoff)
    k_even = int(np.count_nonzero(order[:k] < values[0].size))
    total = sum(float(np.trace(gram)) for gram in blocks)
    if k == sum(gram.shape[0] for gram in blocks) or total <= 0.0:
        discarded = 0.0
    else:
        discarded = max(total - float(np.sum(w[order[:k]])), 0.0) / total
    return vectors[0][:, :k_even], vectors[1][:, : k - k_even], discarded


def _split(matrix: np.ndarray, rows: np.ndarray, cols: np.ndarray, spec: TruncationSpec):
    """Truncated symmetric split M ~ A @ B with the spectrum shared evenly:
    A = U sqrt(s), B = sqrt(s) V, for an M that vanishes unless the
    parities ``rows`` and ``cols`` of its row and column indices agree.
    U are the leading eigenvectors of the two blocks of M M^T; the singular
    values are the row norms of U^T M = s V. Returns (A, B, the even count
    of the new index, discarded weight); the new index is sorted even-first."""
    row_sets, col_sets = _sectors(rows), _sectors(cols)
    blocks = [matrix[np.ix_(r, c)] for r, c in zip(row_sets, col_sets)]
    *us, discarded = _top_eigh([m @ m.T for m in blocks], spec)
    k_even = us[0].shape[1]
    k = k_even + us[1].shape[1]
    a = np.zeros((matrix.shape[0], k))
    b = np.zeros((k, matrix.shape[1]))
    new_sets = (slice(0, k_even), slice(k_even, k))
    for u, block, r, c, new in zip(us, blocks, row_sets, col_sets, new_sets):
        sv = u.T @ block
        root = np.sqrt(np.linalg.norm(sv, axis=1))
        # rows with s == 0 are zero in sv and stay zero
        inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=root > 0.0)
        a[r, new] = u * root
        b[new, c] = inv_root[:, None] * sv
    return a, b, k_even, discarded


def trg_step(state: CoarseGrainState, spec: TruncationSpec) -> tuple[CoarseGrainState, float]:
    """One plaquette coarse-graining step; doubles the area per tensor.
    Returns the new state and the summed discarded weight of both splits."""
    t = state.tensor
    chi_u, chi_l, chi_d, chi_r = t.shape
    up, left, down, right = zip(t.shape, state.even)
    # diagonal split 1: (right, up) x (left, down)
    m1 = t.transpose(3, 0, 1, 2).reshape(chi_r * chi_u, chi_l * chi_d)
    a1, b1, e1, w1 = _split(m1, _parity(right, up), _parity(left, down), spec)
    t3 = a1.reshape(chi_r, chi_u, -1)  # (r, u, new)
    t1 = b1.T.reshape(chi_l, chi_d, -1)  # (l, d, new)
    # diagonal split 2: (left, up) x (right, down)
    m2 = t.transpose(1, 0, 3, 2).reshape(chi_l * chi_u, chi_r * chi_d)
    a2, b2, e2, w2 = _split(m2, _parity(left, up), _parity(right, down), spec)
    t4 = a2.reshape(chi_l, chi_u, -1)  # (l, u, new)
    t2 = b2.T.reshape(chi_r, chi_d, -1)  # (r, d, new)
    new1, new2 = (t1.shape[2], e1), (t2.shape[2], e2)
    # recombine four halves around a plaquette of the rotated lattice; the
    # left leg of one half meets the right leg of the next (same grading)
    hor = _parity(left)
    top = _block_matmul(  # (d1 a, d2 b)
        t1.reshape(chi_l, -1).T,
        t2.reshape(chi_r, -1),
        _parity(down, new1),
        hor,
        _parity(down, new2),
    )
    bot = _block_matmul(  # (u3 c, u4 e)
        t3.reshape(chi_r, -1).T,
        t4.reshape(chi_l, -1),
        _parity(up, new1),
        hor,
        _parity(up, new2),
    )
    k1, k2 = new1[0], new2[0]
    top = top.reshape(chi_d, k1, chi_d, k2).transpose(1, 3, 0, 2)  # (a, b, d1, d2)
    bot = bot.reshape(chi_u, k1, chi_u, k2).transpose(2, 0, 1, 3)  # (u4, u3, c, e)
    top, bot = top.reshape(k1 * k2, -1), bot.reshape(-1, k1 * k2)
    pairs = _parity(new1, new2)
    new = _block_matmul(top, bot, pairs, _parity(down, down), pairs).reshape(k1, k2, k1, k2)
    new = new.transpose(1, 2, 3, 0)  # (a, b, c, e) -> (up, left, down, right)
    return _rescaled(new, (e2, e1, e2, e1), state), float(w1 + w2)


def _side_isometry(
    g1: np.ndarray, g2: np.ndarray, leg, mid: np.ndarray, spec: TruncationSpec
):
    """Isometry of one side of a merged pair from its density rho[a, b, c, d]
    = sum_mn g1[a, c, m, n] g2[m, n, b, d], formed as one product (a c) x
    (m n) @ (m n) x (b d) blocked by the parity of (a c). leg is the
    (extent, even count) of the merged legs, mid the parity of (m n).
    Returns (isometry with its columns sorted even-first, even count of the
    columns, discarded weight)."""
    chi = leg[0]
    pairs = _parity(leg, leg)
    rho = _block_matmul(g1.reshape(chi * chi, -1), g2.reshape(-1, chi * chi), pairs, mid, pairs)
    rho = rho.reshape(chi, chi, chi, chi).transpose(0, 2, 1, 3).reshape(chi * chi, -1)
    sets = _sectors(pairs)
    v_even, v_odd, err = _top_eigh([rho[np.ix_(s, s)] for s in sets], spec)
    iso = np.zeros((chi * chi, v_even.shape[1] + v_odd.shape[1]))
    iso[sets[0], : v_even.shape[1]] = v_even
    iso[sets[1], v_even.shape[1] :] = v_odd
    return iso, v_even.shape[1], err


def _merge_isometry(t: np.ndarray, even, spec: TruncationSpec):
    """Projector for the doubled horizontal legs of a vertical pair, chosen
    from the side whose Gram spectrum loses less weight (ties pick left).

    Returns (isometry with rows (top leg, bottom leg) and its columns sorted
    even-first, even count of the columns, discarded weight).
    """
    chi_u, chi_l, chi_d, chi_r = t.shape
    up, left, down, right = zip(t.shape, even)
    # the four half-row Gram matrices are products of two matrix views of t
    # with their own transposes: x is (l d, u r), y is (u l, d r)
    x = t.transpose(1, 2, 0, 3).reshape(chi_l * chi_d, chi_u * chi_r)
    y = t.reshape(chi_u * chi_l, chi_d * chi_r)
    ld, ur = _parity(left, down), _parity(up, right)
    ul, dr = _parity(up, left), _parity(down, right)
    mid = _parity(down, down)
    # one side at a time, so that only two of the Gram matrices are held
    a1 = _block_gram(x, ld, ur).reshape(chi_l, chi_d, chi_l, chi_d)  # (l, m, l', m') top row
    a2 = _block_gram(y, ul, dr).reshape(chi_u, chi_l, chi_u, chi_l)  # (m, l, m', l') bottom row
    on_left = _side_isometry(a1.transpose(0, 2, 1, 3), a2.transpose(0, 2, 1, 3), left, mid, spec)
    del a1, a2
    b1 = _block_gram(y.T, dr, ul).reshape(chi_d, chi_r, chi_d, chi_r)  # (m, r, m', r') top row
    b2 = _block_gram(x.T, ur, ld).reshape(chi_u, chi_r, chi_u, chi_r)  # (m, r, m', r') bottom row
    on_right = _side_isometry(b1.transpose(1, 3, 0, 2), b2.transpose(0, 2, 1, 3), right, mid, spec)
    return on_left if on_left[2] <= on_right[2] else on_right


def _pair_blocks(first, second, q: int):
    """The sub-blocks of a combined index (first, second) of parity q, given
    the even and odd ranges of each leg: for p = 0, 1 the block (first p,
    second p ^ q) and its range in the concatenation of the two, each block
    in C order. Yields (p, first range, second range, combined range)."""
    start = 0
    for p in (0, 1):
        a, b = first[p], second[p ^ q]
        stop = start + _size(a) * _size(b)
        yield p, a, b, slice(start, stop)
        start = stop


def _size(s: slice) -> int:
    return s.stop - s.start


def _merge_vertical(t: np.ndarray, even, spec: TruncationSpec):
    """Contract a vertical pair (top above bottom) and compress both merged
    horizontal legs with one shared isometry. Returns (tensor, even count
    of the new legs, discarded weight).

    Works one new left index a at a time, as matrix products on layouts
    prepared once, so no intermediate exceeds chi^4 entries. For a of
    parity p the pair P[(u rt), (rb d)] = top[(u rt), (lt m)] R[(lt m),
    (rb d)], with R = sum_lb iso[lt, lb, a] T[m, lb, d, rb], vanishes
    unless the rows have parity q and the columns q ^ p, so it is two
    products of half-size blocks, each combined index laid out by
    ``_pair_blocks``.
    """
    chi_u, chi, chi_d, chi_r = t.shape
    U, L, D, R = (_halves(n, e) for n, e in zip(t.shape, even))
    iso, k_even, err = _merge_isometry(t, even, spec)
    k = iso.shape[1]
    iso_t = np.ascontiguousarray(iso.T)  # (new, top leg bottom leg)
    top = t.transpose(0, 3, 1, 2)  # (u, rt, lt, m)
    tops = [  # ((u rt) of parity q, (lt m) of parity q)
        np.block([
            [
                top[u, rt, lt, m].reshape(_size(rows), _size(inner))
                for _, lt, m, inner in _pair_blocks(L, D, q)
            ]
            for _, u, rt, rows in _pair_blocks(U, R, q)
        ])
        for q in (0, 1)
    ]
    bottom = t.transpose(1, 0, 3, 2)  # (lb, m, rb, d)
    bottoms = [  # (lb, m, (rb d) of parity c)
        np.concatenate(
            [
                bottom[:, :, rb, d].reshape(chi, chi_d, _size(cols))
                for _, rb, d, cols in _pair_blocks(R, D, c)
            ],
            axis=2,
        )
        for c in (0, 1)
    ]
    out = np.empty((k, k, chi_u, chi_d))  # (a, b, u, d)
    # one pair per parity of a: the blocks that vanish for it are never written
    pairs = np.zeros((2, chi_r, chi_r, chi_u, chi_d))  # (rt, rb, u, d)
    for a in range(k):
        p = int(a >= k_even)
        left = iso_t[a].reshape(chi, chi)  # (lt, lb), zero unless p(lt) + p(lb) = p
        pair = pairs[p]
        for q in (0, 1):
            c = q ^ p
            width = bottoms[c].shape[2]
            r = np.empty((tops[q].shape[1], width))
            for p_lt, lt, m, inner in _pair_blocks(L, D, q):
                lb = L[p_lt ^ p]
                np.matmul(
                    left[lt, lb],
                    bottoms[c][lb, m].reshape(_size(lb), _size(m) * width),
                    out=r[inner].reshape(_size(lt), _size(m) * width),
                )
            block = tops[q] @ r
            for _, u, rt, rows in _pair_blocks(U, R, q):
                for _, rb, d, cols in _pair_blocks(R, D, c):
                    shape = (_size(u), _size(rt), _size(rb), _size(d))
                    pair[rt, rb, u, d] = block[rows, cols].reshape(shape).transpose(1, 2, 0, 3)
        np.matmul(iso_t, pair.reshape(chi_r * chi_r, chi_u * chi_d), out=out[a].reshape(k, -1))
    return out.transpose(2, 0, 3, 1), k_even, err  # -> (u, l, d, r)


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
        new, k_even, err = _merge_vertical(t.transpose(1, 2, 3, 0), (e_l, e_d, e_r, e_u), spec)
        new, even = new.transpose(3, 0, 1, 2), (k_even, e_l, k_even, e_r)
    else:
        new, k_even, err = _merge_vertical(t, state.even, spec)
        even = (e_u, k_even, e_d, k_even)
    return _rescaled(new, even, state), err


def check_flow(method: str, n_iters: int) -> None:
    """The rules on the scheme and length of a coarse-graining flow."""
    if method not in ("trg", "hotrg"):
        raise ConfigError(f"method must be 'trg' or 'hotrg', got {method!r}", field="method")
    if n_iters < 1:
        raise ConfigError(f"n_iters must be >= 1, got {n_iters}", field="n_iters")


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
    *,
    max_bond: int,
    n_iters: int,
    rel_cutoff: float = 0.0,
) -> tuple[float, CoarseGrainTrace]:
    """Free energy per site of the infinite lattice, approached by iterated
    coarse graining. The merging scheme alternates directions starting
    vertically."""
    check_flow(method, n_iters)
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
