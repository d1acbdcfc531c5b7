"""Matrix product states on open chains.

Site tensors are rank-3 arrays with index order ``(left bond, physical,
right bond)``; the outermost bonds have extent 1. A state may carry an
orthogonality center: sites to its left are then left-isometries, sites to
its right right-isometries, which the algorithms below maintain via QR
moves. ``center=None`` means no canonical structure is claimed. On a state
with a center, ``expect_local``, ``expect_profile`` and ``correlator`` cost
no factorization: they carry environments between the measured sites and
the center, and the isometries outside contract to identities.

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

from .tensor import TruncationSpec, _freeze, qr_matrix, rq_matrix, svd_matrix


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


def random_mps(phys_dims, max_bond: int, rng, dtype=complex) -> MatrixProductState:
    """Normalized random state with the full representable bond profile
    capped at ``max_bond``. ``rng`` is a seed or a numpy Generator. Entries
    are standard normal draws, with an independent imaginary part when
    ``dtype`` is complex; a real ``dtype`` gives a float64 state."""
    rng = np.random.default_rng(rng)
    phys_dims = tuple(int(d) for d in phys_dims)
    n = len(phys_dims)
    if n < 1 or any(d < 1 for d in phys_dims):
        raise ValueError(f"bad physical dimensions {phys_dims}")
    bonds = [1]
    for k in range(1, n):
        left = int(np.prod(phys_dims[:k], dtype=np.float64).clip(max=2**62))
        right = int(np.prod(phys_dims[k:], dtype=np.float64).clip(max=2**62))
        bonds.append(min(max_bond, left, right))
    bonds.append(1)
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


def _orth_left_step(sites: list, k: int) -> None:
    """Turn site k into a left isometry, pushing its R factor into k+1."""
    a = sites[k]
    dl, d, dr = a.shape
    q, r = qr_matrix(a.reshape(dl * d, dr))
    sites[k] = q.reshape(dl, d, -1)
    sites[k + 1] = np.tensordot(r, sites[k + 1], axes=(1, 0))


def _orth_right_step(sites: list, k: int) -> None:
    """Turn site k into a right isometry, pushing its L factor into k-1."""
    a = sites[k]
    dl, d, dr = a.shape
    l, q = rq_matrix(a.reshape(dl, d * dr))
    sites[k] = q.reshape(-1, d, dr)
    sites[k - 1] = np.tensordot(sites[k - 1], l, axes=(2, 0))


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
    if psi.center is None:
        for k in range(center):
            _orth_left_step(work, k)
        for k in range(n - 1, center, -1):
            _orth_right_step(work, k)
    else:
        _move_center(work, psi.center, center)
    return MatrixProductState(work, center=center)


def canonical_residual(psi: MatrixProductState) -> float:
    """Largest isometry defect around the center (0.0 for center=None states
    with a single site; requires a center otherwise)."""
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
    work[bond] = np.tensordot(work[bond], x, axes=(2, 0))
    work[bond + 1] = np.tensordot(xinv, work[bond + 1], axes=(1, 0))
    return MatrixProductState(work, center=None)


# ---------------------------------------------------------------------------
# overlaps and observables
# ---------------------------------------------------------------------------


def _overlap_left(env, bra_site, ket_site):
    """Carry a <bra|ket> environment (bra bond, ket bond) across one site
    from its left bond to its right bond."""
    tmp = np.tensordot(env, ket_site, axes=(1, 0))  # (bra, s, ket')
    return np.tensordot(bra_site.conj(), tmp, axes=([0, 1], [0, 1]))  # (bra', ket')


def _overlap_right(env, bra_site, ket_site):
    """Carry a <bra|ket> environment (bra bond, ket bond) across one site
    from its right bond to its left bond."""
    tmp = np.tensordot(ket_site, env, axes=(2, 1))  # (ket', s, bra)
    return np.tensordot(bra_site.conj(), tmp, axes=([1, 2], [1, 2]))  # (bra', ket')


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


def _site_op(op, d: int) -> np.ndarray:
    op = np.asarray(op)
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d} x {d}, got {op.shape}")
    return op


def expect_local(psi: MatrixProductState, op, site: int) -> complex:
    """<op_site>, normalized by the state norm.

    On a state with a center no factorization is made: the sites between
    ``site`` and the center are isometries, so an environment carried from
    ``site`` to the center closes on the center tensor. A state without a
    center is canonicalized around ``site`` first.
    """
    if not 0 <= site < psi.n_sites:
        raise ValueError(f"site {site} out of range")
    op = _site_op(op, psi.phys_dims[site])
    if psi.center is None:
        psi = canonicalize(psi, site)
    sites, c = psi.sites, psi.center
    a = sites[c]
    n2 = np.vdot(a, a).real
    if n2 == 0.0:
        raise ValueError("cannot take expectation values in the zero state")
    oa = np.einsum("st,ltr->lsr", op, sites[site])
    if site < c:
        env = np.tensordot(sites[site].conj(), oa, axes=([0, 1], [0, 1]))
        for k in range(site + 1, c):
            env = _overlap_left(env, sites[k], sites[k])
        oa = np.tensordot(env, a, axes=(1, 0))
    elif site > c:
        env = np.tensordot(sites[site].conj(), oa, axes=([1, 2], [1, 2]))
        for k in range(site - 1, c, -1):
            env = _overlap_right(env, sites[k], sites[k])
        oa = np.tensordot(a, env, axes=(2, 1))
    return complex(np.vdot(a, oa) / n2)


def expect_profile(psi: MatrixProductState, op) -> np.ndarray:
    """<op_i> at every site i, normalized by the state norm, in one pass.

    On a state with a center no factorization is made: an environment is
    carried once from the center to the right end and once from the center
    to the left end, and each site's value closes it on that site (the
    isometries beyond it contract to identities), so the profile costs
    O(N) transfers. A state without a center is canonicalized around site
    0 first.
    """
    if psi.center is None:
        psi = canonicalize(psi, 0)
    sites, c = psi.sites, psi.center
    ops = [_site_op(op, d) for d in psi.phys_dims]
    n2 = np.vdot(sites[c], sites[c]).real
    if n2 == 0.0:
        raise ValueError("cannot take expectation values in the zero state")
    out = np.empty(len(sites), dtype=complex)
    env = np.eye(sites[c].shape[0])  # (bra, ket) left of site k
    for k in range(c, len(sites)):
        tmp = np.tensordot(env, sites[k], axes=(1, 0))  # (bra, s, ket')
        out[k] = np.vdot(sites[k], np.einsum("st,ltr->lsr", ops[k], tmp))
        env = np.tensordot(sites[k].conj(), tmp, axes=([0, 1], [0, 1]))
    # (bra, ket) right of site c - 1
    env = np.tensordot(sites[c].conj(), sites[c], axes=([1, 2], [1, 2]))
    for k in range(c - 1, -1, -1):
        tmp = np.tensordot(sites[k], env, axes=(2, 1))  # (ket, s, bra')
        out[k] = np.vdot(sites[k], np.einsum("st,ltr->lsr", ops[k], tmp))
        env = np.tensordot(sites[k].conj(), tmp, axes=([1, 2], [1, 2]))
    return out / n2


def correlator(psi: MatrixProductState, op_a, site_a: int, op_b, site_b: int) -> complex:
    """<op_a(site_a) op_b(site_b)>, normalized. Operators on distinct sites
    commute, so only the site indices matter; equal sites multiply the
    operators in the given order.

    On a state with a center no factorization is made: the window from the
    leftmost to the rightmost of the two sites and the center is contracted
    left to right, and the isometries outside it contract to identities. A
    state without a center is canonicalized around ``site_a`` first.
    """
    n = psi.n_sites
    if not (0 <= site_a < n and 0 <= site_b < n):
        raise ValueError("correlator site out of range")
    if site_a == site_b:
        d = psi.phys_dims[site_a]
        return expect_local(psi, _site_op(op_a, d) @ _site_op(op_b, d), site_a)
    if site_a > site_b:
        site_a, site_b = site_b, site_a
        op_a, op_b = op_b, op_a
    ops = {
        site_a: _site_op(op_a, psi.phys_dims[site_a]),
        site_b: _site_op(op_b, psi.phys_dims[site_b]),
    }
    if psi.center is None:
        psi = canonicalize(psi, site_a)
    sites, c = psi.sites, psi.center
    n2 = np.vdot(sites[c], sites[c]).real
    if n2 == 0.0:
        raise ValueError("cannot take expectation values in the zero state")
    lo, hi = min(site_a, c), max(site_b, c)
    env = np.eye(sites[lo].shape[0])
    for k in range(lo, hi + 1):
        ket = np.einsum("st,ltr->lsr", ops[k], sites[k]) if k in ops else sites[k]
        env = _overlap_left(env, sites[k], ket)
    return complex(np.trace(env) / n2)


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
    """Truncate every bond by a left-to-right sweep of local SVDs, starting
    from the right-canonical form so each cut is optimal for the current
    state. Returns the compressed state (center at the last site) and the
    summed per-bond discarded weight, which bounds the fidelity loss."""
    c = canonicalize(psi, 0)
    work = list(c.sites)
    total = 0.0
    for b in range(len(work) - 1):
        a = work[b]
        dl, d, dr = a.shape
        u, s, vh, rep = svd_matrix(a.reshape(dl * d, dr), spec)
        total += rep.discarded_weight
        work[b] = u.reshape(dl, d, -1)
        work[b + 1] = np.tensordot(s[:, None] * vh, work[b + 1], axes=(1, 0))
    return MatrixProductState(work, center=len(work) - 1), float(total)
