"""Matrix product states on open chains.

Site tensors are rank-3 arrays with index order ``(left bond, physical,
right bond)``; the outermost bonds have extent 1. A state may carry an
orthogonality center: sites to its left are then left-isometries, sites to
its right right-isometries, which the algorithms below maintain via QR
moves. ``center=None`` means no canonical structure is claimed. No
measurement factorizes: ``expect_local``, ``expect_profile`` and
``correlator`` are terms of one walk (``_walk``) over <psi|psi>
environments, which run from the center out to the outermost measured site
on each side (the isometries beyond contract to identities), or in from
both ends on a state without a center.

States are values: stored arrays are frozen, operations return new states.
Site tensors are float64 when built from real data and complex128
otherwise (see the tensor module); overlaps and environments start from
real seeds and so follow the states they contract.
Dense reconstructions order the basis with site 0 as the most significant
digit, matching the Kronecker-product convention of the oracle module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    GaussianStream,
    TruncationSpec,
    _freeze,
    qr_matrix,
    rq_matrix,
    split_matrix,
    svd_matrix,
)


@dataclass(frozen=True, eq=False)
class MatrixProductState:
    sites: tuple[np.ndarray, ...]
    center: int | None = None

    def __init__(self, sites, center: int | None = None):
        sites = tuple(_freeze(a) for a in sites)
        if not sites:
            raise ValueError("an MPS needs at least one site")
        for k, a in enumerate(sites):
            if a.ndim != 3:
                raise ValueError(f"site {k} must be rank-3, got shape {a.shape}")
        if sites[0].shape[0] != 1 or sites[-1].shape[2] != 1:
            raise ValueError("boundary bonds must have extent 1")
        for k in range(len(sites) - 1):
            if sites[k].shape[2] != sites[k + 1].shape[0]:
                raise ValueError(
                    f"bond mismatch between sites {k} and {k + 1}: "
                    f"{sites[k].shape[2]} vs {sites[k + 1].shape[0]}"
                )
        if center is not None and not 0 <= center < len(sites):
            raise ValueError(f"center {center} out of range")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "center", center)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[1] for a in self.sites)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        """Extents of the internal bonds (bond b sits between sites b, b+1)."""
        return tuple(a.shape[2] for a in self.sites[:-1])


def product_state(vectors) -> MatrixProductState:
    """Bond-dimension-1 state from one local vector per site."""
    sites = []
    for v in vectors:
        v = np.asarray(v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"local vectors must be 1-d, got shape {v.shape}")
        sites.append(v.reshape(1, -1, 1))
    return canonicalize(MatrixProductState(sites), 0)


def bond_caps(phys_dims, max_bond: int) -> list[int]:
    """min(d_0 ... d_b, d_(b+1) ... d_(N-1), max_bond) for each internal bond
    b, the largest extent it can usefully take: exact integers from running
    products capped at max_bond, so no product grows past max_bond max(d)."""
    left, right = [1], [1]
    for d in phys_dims[:-1]:
        left.append(min(left[-1] * d, max_bond))
    for d in phys_dims[:0:-1]:
        right.append(min(right[-1] * d, max_bond))
    return [min(a, b) for a, b in zip(left[1:], right[:0:-1])]


def random_mps(phys_dims, max_bond: int, rng, dtype=complex) -> MatrixProductState:
    """Normalized random state with the full representable bond profile
    capped at ``max_bond``. ``rng`` is an integer seed, which selects the
    package's own :class:`~tnkit.tensor.GaussianStream`, or a numpy
    Generator (anything with its ``normal(size=...)``). Entries are
    standard normal draws, site by site, with an independent imaginary
    part drawn after the real part when ``dtype`` is complex; a real
    ``dtype`` gives a float64 state."""
    if isinstance(rng, (int, np.integer)):
        rng = GaussianStream(rng)
    phys_dims = tuple(int(d) for d in phys_dims)
    n = len(phys_dims)
    if n < 1 or any(d < 1 for d in phys_dims):
        raise ValueError(f"bad physical dimensions {phys_dims}")
    bonds = [1, *bond_caps(phys_dims, max_bond), 1]
    draw_imag = np.dtype(dtype).kind == "c"
    sites = []
    for k in range(n):
        shape = (bonds[k], phys_dims[k], bonds[k + 1])
        a = rng.normal(size=shape)
        sites.append(a + 1j * rng.normal(size=shape) if draw_imag else a)
    psi = canonicalize(MatrixProductState(sites), 0)
    work = list(psi.sites)
    work[0] = work[0] / np.linalg.norm(work[0])
    return MatrixProductState(work, center=0)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def _left_factor(sites: list, k: int) -> np.ndarray:
    """Turn site k into a left isometry; return its R factor, which the
    caller owes to site k+1 (``_absorb_left``)."""
    a = sites[k]
    dl, d, dr = a.shape
    q, r = qr_matrix(a.reshape(dl * d, dr))
    sites[k] = q.reshape(dl, d, -1)
    return r


def _right_factor(sites: list, k: int) -> np.ndarray:
    """Turn site k into a right isometry; return its L factor, which the
    caller owes to site k-1 (``_absorb_right``)."""
    a = sites[k]
    dl, d, dr = a.shape
    l, q = rq_matrix(a.reshape(dl, d * dr))
    sites[k] = q.reshape(-1, d, dr)
    return l


def _absorb_left(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``r`` contracted into the left bond of site tensor ``b``."""
    dl, d, dr = b.shape
    return (r @ b.reshape(dl, d * dr)).reshape(-1, d, dr)


def _absorb_right(a: np.ndarray, l: np.ndarray) -> np.ndarray:
    """``l`` contracted into the right bond of site tensor ``a``."""
    dl, d, dr = a.shape
    return (a.reshape(dl * d, dr) @ l).reshape(dl, d, -1)


def _orth_left_step(sites: list, k: int) -> None:
    """Turn site k into a left isometry, pushing its R factor into k+1."""
    sites[k + 1] = _absorb_left(_left_factor(sites, k), sites[k + 1])


def _orth_right_step(sites: list, k: int) -> None:
    """Turn site k into a right isometry, pushing its L factor into k-1."""
    sites[k - 1] = _absorb_right(sites[k - 1], _right_factor(sites, k))


def _move_center(sites: list, frm: int, to: int) -> None:
    while frm < to:
        _orth_left_step(sites, frm)
        frm += 1
    while frm > to:
        _orth_right_step(sites, frm)
        frm -= 1


def canonicalize(psi: MatrixProductState, center: int) -> MatrixProductState:
    """The same state in mixed-canonical form around ``center``.

    Incremental QR moves when the input already has a center, a full
    two-sided sweep otherwise. The state vector is unchanged exactly.
    """
    n = psi.n_sites
    if not 0 <= center < n:
        raise ValueError(f"center {center} out of range")
    work = list(psi.sites)
    for frm in (0, n - 1) if psi.center is None else (psi.center,):
        _move_center(work, frm, center)
    return MatrixProductState(work, center=center)


def canonical_residual(psi: MatrixProductState) -> float:
    """Largest isometry defect around the center: |A^dag A - 1| for the
    sites left of it and |A A^dag - 1| for those right of it (0.0 for a
    single site). Raises ``ValueError`` for a state without a center."""
    if psi.center is None:
        raise ValueError("state has no orthogonality center")
    worst = 0.0
    for k, a in enumerate(psi.sites):
        dl, d, dr = a.shape
        if k < psi.center:
            m = a.reshape(dl * d, dr)
            worst = max(worst, float(np.max(np.abs(m.conj().T @ m - np.eye(dr)))))
        elif k > psi.center:
            m = a.reshape(dl, d * dr)
            worst = max(worst, float(np.max(np.abs(m @ m.conj().T - np.eye(dl)))))
    return worst


def gauge_transform(psi: MatrixProductState, bond: int, x: np.ndarray) -> MatrixProductState:
    """Insert ``x @ inv(x)`` on a bond: physically the identity, but it
    changes the site tensors. The canonical structure is dropped."""
    n = psi.n_sites
    if not 0 <= bond < n - 1:
        raise ValueError(f"bond {bond} out of range")
    x = np.asarray(x)
    dim = psi.sites[bond].shape[2]
    if x.shape != (dim, dim):
        raise ValueError(f"gauge matrix must be {dim} x {dim}, got {x.shape}")
    try:
        xinv = np.linalg.inv(x)
    except np.linalg.LinAlgError:
        raise ValueError("gauge matrix is singular") from None
    if not np.isfinite(xinv).all():
        raise ValueError("gauge matrix is singular")
    work = list(psi.sites)
    work[bond] = _absorb_right(work[bond], x)
    work[bond + 1] = _absorb_left(xinv, work[bond + 1])
    return MatrixProductState(work, center=None)


# ---------------------------------------------------------------------------
# overlaps and observables
# ---------------------------------------------------------------------------


def _close_left(bra_site, tmp):
    """The conjugate bra site contracted with ``tmp`` (bra, s, ket') over
    its left bond and physical index: a (bra', ket') environment."""
    dl, d, dr = bra_site.shape
    return bra_site.reshape(dl * d, dr).conj().T @ tmp.reshape(dl * d, -1)


def _close_right(bra_site, tmp):
    """The conjugate bra site contracted with ``tmp`` (ket, s, bra') over
    its physical index and right bond: a (bra, ket) environment."""
    dl, d, dr = bra_site.shape
    return bra_site.reshape(dl, d * dr).conj() @ tmp.reshape(-1, d * dr).T


def _overlap_left(env, bra_site, ket_site):
    """Carry a <bra|ket> environment (bra bond, ket bond) across one site
    from its left bond to its right bond."""
    return _close_left(bra_site, _absorb_left(env, ket_site))


def inner(a: MatrixProductState, b: MatrixProductState) -> complex:
    """<a|b> (conjugation on ``a``)."""
    if a.n_sites != b.n_sites or a.phys_dims != b.phys_dims:
        raise ValueError("states live on different lattices")
    env = np.ones((1, 1))
    for sa, sb in zip(a.sites, b.sites):
        env = _overlap_left(env, sa, sb)
    return complex(env[0, 0])


def norm(psi: MatrixProductState) -> float:
    if psi.center is not None:
        return float(np.linalg.norm(psi.sites[psi.center]))
    return float(np.sqrt(max(inner(psi, psi).real, 0.0)))


def to_dense(psi: MatrixProductState) -> np.ndarray:
    """Full state vector; site 0 is the most significant index."""
    acc = psi.sites[0].reshape(psi.sites[0].shape[1], -1)
    for a in psi.sites[1:]:
        acc = np.tensordot(acc, a, axes=(1, 0))
        acc = acc.reshape(acc.shape[0] * acc.shape[1], -1)
    return np.ascontiguousarray(acc.reshape(-1))


def _site_op(psi: MatrixProductState, site: int, op) -> np.ndarray:
    if not 0 <= site < psi.n_sites:
        raise ValueError(f"site {site} out of range")
    d = psi.phys_dims[site]
    op = np.asarray(op)
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d} x {d}, got {op.shape}")
    return op


def _on_physical(op: np.ndarray, t: np.ndarray, left: int = 1) -> np.ndarray:
    """``op`` (m × m) applied to the physical index p of the site tensor
    ``t`` (Dl, p, Dr), or, when the site fuses several (p = left·m·right),
    to the factor of p that follows ``left`` states: one batched product
    over a reshape, with no Kronecker product of dimension p."""
    dl, p, dr = t.shape
    return np.matmul(op, t.reshape(dl * left, len(op), -1)).reshape(dl, p, dr)


def _close(sites, a: int, b: int, ops: dict, left: dict, right: dict) -> complex:
    """<psi| ops |psi> over sites a..b between the (bra, ket) environment
    on the left bond of a (``left[a]``) and the one on the right bond of b
    (``right[b]``); an absent environment is the identity. Each site takes
    its environments before its operator, an ``(left, op)`` pair applied
    by ``_on_physical``."""
    env = left.get(a)
    for k in range(a, b + 1):
        ket = sites[k] if env is None else _absorb_left(env, sites[k])
        if k == b and b in right:
            ket = _absorb_right(ket, right[b].T)
        if k in ops:
            ket = _on_physical(ops[k][1], ket, ops[k][0])
        if k < b:
            env = _close_left(sites[k], ket)
    return np.vdot(sites[b], ket)


def _walk(psi: MatrixProductState, terms) -> tuple[np.ndarray, float]:
    """The unnormalized <psi| term |psi> of each ``{site: op}`` string of
    one-site operators, and <psi|psi>, from one set of environments and no
    factorization. With a center c the isometries beyond it contract to
    identities: left environments run from c to the rightmost term start,
    right ones from c to the leftmost term end, so terms spanning lo..hi
    cost max(hi, c) - min(lo, c) transfers, and <psi|psi> is the center's
    own norm. Without a center they run in from sites 0 and N-1, and
    <psi|psi> closes at the leftmost term (site 0 if none).

    Each operator comes as a pair ``(left, op)`` of arrays the caller has
    checked: ``op`` acts on the factor of its site's physical index that
    follows ``left`` states (``_on_physical``), so ``(1, _site_op(...))``
    is a plain one-site operator."""
    sites = psi.sites
    if psi.center is None:
        first, last, m = 0, psi.n_sites - 1, min((min(t) for t in terms), default=0)
    else:
        first = last = m = psi.center
    left, right, env = {}, {}, None
    for k in range(first, max([m] + [min(t) for t in terms])):
        env = _close_left(sites[k], sites[k] if env is None else _absorb_left(env, sites[k]))
        left[k + 1] = env
    env = None
    for k in range(last, min([m] + [max(t) for t in terms]), -1):
        env = _close_right(sites[k], sites[k] if env is None else _absorb_right(sites[k], env.T))
        right[k - 1] = env
    n2 = _close(sites, m, m, {}, left, right).real
    if n2 == 0.0:
        raise ValueError("cannot take expectation values in the zero state")
    values = [_close(sites, min(t), max(t), t, left, right) for t in terms]
    return np.array(values, dtype=complex), n2


def expect_local(psi: MatrixProductState, op, site: int) -> complex:
    """<op_site>, normalized by the state norm: one term of the walk
    (``_walk``), which makes no factorization and, on a state with a
    center, carries the environment only between ``site`` and the center."""
    values, n2 = _walk(psi, [{site: (1, _site_op(psi, site, op))}])
    return complex(values[0] / n2)


def expect_profile(psi: MatrixProductState, op) -> np.ndarray:
    """<op_i> at every site i, normalized by the state norm: one walk
    (``_walk``) to both ends, O(N) transfers and no factorization."""
    values, n2 = _walk(psi, [{k: (1, _site_op(psi, k, op))} for k in range(psi.n_sites)])
    return values / n2


def correlator(psi: MatrixProductState, op_a, site_a: int, op_b, site_b: int) -> complex:
    """<op_a(site_a) op_b(site_b)>, normalized: one two-site term of the walk
    (``_walk``), which makes no factorization. Operators on distinct sites
    commute, so only the site indices matter; equal sites multiply the
    operators in the given order."""
    op_a, op_b = _site_op(psi, site_a, op_a), _site_op(psi, site_b, op_b)
    if site_a == site_b:
        term = {site_a: (1, op_a @ op_b)}
    else:
        term = {site_a: (1, op_a), site_b: (1, op_b)}
    values, n2 = _walk(psi, [term])
    return complex(values[0] / n2)


# ---------------------------------------------------------------------------
# spectra and truncation
# ---------------------------------------------------------------------------


def schmidt_spectrum(psi: MatrixProductState, bond: int) -> np.ndarray:
    """Singular values across the cut at ``bond`` (between sites bond and
    bond+1), descending. For a normalized state their squares sum to 1."""
    if not 0 <= bond < psi.n_sites - 1:
        raise ValueError(f"bond {bond} out of range")
    c = canonicalize(psi, bond)
    a = c.sites[bond]
    dl, d, dr = a.shape
    _, s, _, _ = svd_matrix(a.reshape(dl * d, dr))
    return s


def entanglement_entropy(psi: MatrixProductState, bond: int) -> float:
    """Von Neumann entropy of the cut, from the normalized Schmidt spectrum.

    Bounded by ln(bond extent) for any state.
    """
    s = schmidt_spectrum(psi, bond)
    total = float(np.sum(s**2))
    if total <= 0.0:
        raise ValueError("zero state has no entanglement spectrum")
    p = s**2 / total
    p = p[p > 1e-300]
    return float(-np.sum(p * np.log(p)))


def compress(
    psi: MatrixProductState, spec: TruncationSpec
) -> tuple[MatrixProductState, float]:
    """Truncate every bond by a left-to-right sweep of local splits
    (``tensor.split_matrix``: an SVD where ``spec`` can cut, an exact QR
    elsewhere), starting from the right-canonical form so each cut is
    optimal for the current state. Returns the compressed state (center
    at the last site) and the summed per-bond discarded weight, which
    bounds the fidelity loss."""
    c = canonicalize(psi, 0)
    work = list(c.sites)
    total = 0.0
    for b in range(len(work) - 1):
        a = work[b]
        dl, d, dr = a.shape
        left, right, rep = split_matrix(a.reshape(dl * d, dr), spec)
        total += rep.discarded_weight
        work[b] = left.reshape(dl, d, -1)
        work[b + 1] = _absorb_left(right, work[b + 1])
    return MatrixProductState(work, center=len(work) - 1), float(total)
