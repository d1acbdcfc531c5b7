"""Dense labeled tensors, pairwise contraction, and truncated factorizations.

Conventions used throughout the package:

* Tensor data is row-major, and its dtype follows the data: real input
  (ints and bools included) is stored as float64, complex input as
  complex128. Real problems so run in real arithmetic, and anything that
  meets a complex factor becomes complex by numpy's promotion. Arrays
  handed to ``DenseTensor`` are copied unless they are already frozen
  (non-writeable) and of that dtype; the stored array is always
  non-writeable, so tensors behave as values.
* Axis labels are strings, distinct within one tensor. Contraction matches
  labels by name.
* Singular values are returned in descending order. The left factor of an
  SVD or QR is made unique by phasing each column so that its
  largest-magnitude entry is real and positive; on real data the phase is
  a sign.
* Truncation keeps singular values ``>= rel_cutoff * s_max``, extends the
  kept set across any degenerate group at the cutoff boundary (equal within
  1e-14 relative), and finally caps at ``max_bond``. The discarded weight
  is the truncated squared norm relative to the total squared norm.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

DEGENERACY_RTOL = 1e-14


def _freeze(arr) -> np.ndarray:
    """Return ``arr`` as a non-writeable, C-contiguous array: complex128 when
    the input is complex, float64 otherwise.

    Frozen inputs of that dtype are reused without copying; anything
    writeable is copied first so later writes by the caller cannot leak
    into a tensor.
    """
    out = np.asarray(arr)
    out = np.asarray(
        out, dtype=np.complex128 if np.iscomplexobj(out) else np.float64, order="C"
    )
    if out is arr:
        if not out.flags.writeable:
            return out
        out = out.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class DenseTensor:
    """A dense float64 or complex128 tensor with one string label per axis."""

    data: np.ndarray
    labels: tuple[str, ...]

    def __init__(self, data, labels: Sequence[str]):
        data = _freeze(data)
        labels = tuple(labels)
        if data.ndim != len(labels):
            raise ValueError(
                f"got {len(labels)} labels for a rank-{data.ndim} tensor"
            )
        if len(set(labels)) != len(labels):
            raise ValueError(f"labels must be distinct, got {labels}")
        if not all(isinstance(l, str) for l in labels):
            raise ValueError("labels must be strings")
        if not np.isfinite(data).all():
            raise ValueError("tensor data contains non-finite entries")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "labels", labels)

    @property
    def rank(self) -> int:
        return self.data.ndim

    @property
    def dims(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def dim(self, label: str) -> int:
        return self.data.shape[self.axis(label)]

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r}, have {self.labels}") from None

    def relabel(self, mapping: dict[str, str]) -> "DenseTensor":
        """Rename axes; labels not in ``mapping`` are kept."""
        for old in mapping:
            self.axis(old)
        return DenseTensor(self.data, tuple(mapping.get(l, l) for l in self.labels))

    def transpose(self, labels: Sequence[str]) -> "DenseTensor":
        """Reorder axes into the given label order."""
        labels = tuple(labels)
        if sorted(labels) != sorted(self.labels):
            raise ValueError(f"transpose needs a permutation of {self.labels}")
        perm = [self.axis(l) for l in labels]
        return DenseTensor(np.transpose(self.data, perm), labels)

    def to_array(self) -> np.ndarray:
        """A writeable copy of the underlying array."""
        return np.array(self.data)

    def item(self) -> complex:
        """The single entry of a rank-0 (or size-1) tensor."""
        if self.data.size != 1:
            raise ValueError(f"item() needs a size-1 tensor, shape {self.dims}")
        return complex(self.data.reshape(()))


class ConfigError(ValueError):
    """An invalid configuration value; ``field`` is its dotted path when
    known. The config dataclasses of every module raise it, so it lives in
    this bottom module beside ``TruncationSpec``."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class TruncationSpec:
    """How to truncate a singular-value spectrum.

    ``max_bond`` caps the number of kept values, ``rel_cutoff`` drops values
    below that fraction of the largest one, and ``norm_policy`` chooses
    whether the kept values are rescaled to restore the original norm
    (``"renormalize"``) or left as they are (``"keep"``).
    """

    max_bond: int
    rel_cutoff: float = 0.0
    norm_policy: str = "keep"

    def __post_init__(self):
        if not isinstance(self.max_bond, (int, np.integer)) or self.max_bond < 1:
            raise ConfigError(f"max_bond must be a positive int, got {self.max_bond}", "max_bond")
        if not 0.0 <= self.rel_cutoff < 1.0:
            raise ConfigError(f"rel_cutoff must lie in [0, 1), got {self.rel_cutoff}", "rel_cutoff")
        if self.norm_policy not in ("keep", "renormalize"):
            raise ValueError(f"norm_policy must be 'keep' or 'renormalize', got {self.norm_policy!r}")


@dataclass(frozen=True)
class TruncationReport:
    """Outcome of one truncation: kept bond size and relative discarded weight."""

    kept: int
    discarded_weight: float


# ---------------------------------------------------------------------------
# matrix kernels
#
# These operate on plain 2D arrays and are the single home of the truncation
# and phase conventions; the labeled operations below and the MPS/MPO/TRG
# modules all route through them.
# ---------------------------------------------------------------------------


def _phase_fix_columns(u: np.ndarray, other: np.ndarray) -> None:
    """Phase each column of ``u`` so its largest-magnitude entry is real
    and positive, absorbing the inverse phase into the rows of ``other``.
    On real arrays the phase is a sign, so real data stays real.

    Modifies both arrays in place; ``u @ other`` is unchanged. The first
    of tied maxima decides, and an all-zero column keeps phase 1.
    """
    a = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    mag = np.abs(a)
    ph = np.divide(a, mag, out=np.ones_like(a), where=mag != 0.0)
    u *= ph.conj()
    other *= ph[:, None]


def truncate_spectrum(s: np.ndarray, max_bond: int, rel_cutoff: float) -> tuple[int, float]:
    """Number of singular values kept under the truncation rule, and the
    discarded weight (truncated squared norm over total squared norm).

    Values equal (within 1e-14 relative) to the last one kept by the cutoff
    are kept as well; ``max_bond`` is a hard cap applied afterwards.
    """
    total = float(np.real(np.vdot(s, s)))
    n = s.size
    if rel_cutoff > 0.0 and s[0] > 0.0:
        k = int(np.count_nonzero(s >= rel_cutoff * s[0]))
    else:
        k = n
    if 0 < k < n:
        boundary = s[k - 1]
        while k < n and boundary - s[k] <= DEGENERACY_RTOL * boundary:
            k += 1
    k = max(1, min(k, max_bond))
    if total > 0.0:
        discarded = float(np.sum(s[k:] ** 2) / total)
    else:
        discarded = 0.0
    return k, discarded


def svd_matrix(m: np.ndarray, spec: TruncationSpec | None = None):
    """Truncated SVD of a matrix: ``m ~ u @ diag(s) @ vh``.

    Returns ``(u, s, vh, report)`` with phase-fixed columns of ``u`` and the
    spectrum truncated (and optionally renormalized) per ``spec``.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but robust
        u, s, vh = scipy.linalg.svd(m, full_matrices=False, lapack_driver="gesvd")
    if spec is None:
        kept, discarded = s.size, 0.0
    else:
        kept, discarded = truncate_spectrum(s, spec.max_bond, spec.rel_cutoff)
    u = np.ascontiguousarray(u[:, :kept])
    vh = np.ascontiguousarray(vh[:kept, :])
    s = s[:kept].copy()
    _phase_fix_columns(u, vh)
    if spec is not None and spec.norm_policy == "renormalize" and discarded > 0.0:
        s *= 1.0 / np.sqrt(1.0 - discarded)
    return u, s, vh, TruncationReport(kept=kept, discarded_weight=discarded)


def qr_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with phase-fixed columns of Q."""
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    q, r = np.linalg.qr(m, mode="reduced")
    q = np.ascontiguousarray(q)
    _phase_fix_columns(q, r)
    return q, r


def rq_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``m = r @ q`` with orthonormal rows of ``q``.

    Built from the QR of the conjugate transpose; the phase convention on q's
    rows mirrors the column convention of :func:`qr_matrix`.
    """
    qt, rt = qr_matrix(m.conj().T)
    return rt.conj().T, qt.conj().T


# ---------------------------------------------------------------------------
# labeled operations
# ---------------------------------------------------------------------------


def _normalize_pairs(pairs) -> list[tuple[str, str]]:
    out = []
    for p in pairs:
        if isinstance(p, str):
            out.append((p, p))
        else:
            la, lb = p
            out.append((str(la), str(lb)))
    return out


def contract(a: DenseTensor, b: DenseTensor, pairs) -> DenseTensor:
    """Contract two tensors over the given label pairs.

    ``pairs`` is a sequence of ``(label_in_a, label_in_b)`` tuples; a bare
    string stands for the same label on both sides. An empty sequence gives
    the outer product. Surviving labels keep their order: first the
    remaining axes of ``a``, then those of ``b``.
    """
    pairs = _normalize_pairs(pairs)
    axes_a, axes_b = [], []
    for la, lb in pairs:
        ia, ib = a.axis(la), b.axis(lb)
        if ia in axes_a or ib in axes_b:
            raise ValueError(f"label used twice in contraction pairs: {(la, lb)}")
        if a.dims[ia] != b.dims[ib]:
            raise ValueError(
                f"dimension mismatch contracting {la!r} ({a.dims[ia]}) with {lb!r} ({b.dims[ib]})"
            )
        axes_a.append(ia)
        axes_b.append(ib)
    keep_a = [l for i, l in enumerate(a.labels) if i not in axes_a]
    keep_b = [l for i, l in enumerate(b.labels) if i not in axes_b]
    clash = set(keep_a) & set(keep_b)
    if clash:
        raise ValueError(f"surviving labels would collide: {sorted(clash)}")
    data = np.tensordot(a.data, b.data, axes=(axes_a, axes_b))
    return DenseTensor(data, tuple(keep_a) + tuple(keep_b))


def trace(t: DenseTensor, pairs) -> DenseTensor:
    """Contract pairs of axes of a single tensor (partial trace).

    ``pairs`` is a sequence of ``(label1, label2)`` tuples naming distinct
    axes of ``t`` with equal extents.
    """
    pairs = _normalize_pairs(pairs)
    seen: set[str] = set()
    for la, lb in pairs:
        if la == lb:
            raise ValueError("trace pairs must name two distinct labels")
        if t.dim(la) != t.dim(lb):
            raise ValueError(f"dimension mismatch tracing {la!r} with {lb!r}")
        if la in seen or lb in seen:
            raise ValueError("label used twice in trace pairs")
        seen.update((la, lb))
    letters = {}
    alphabet = iter(string.ascii_letters)
    for la, lb in pairs:
        c = next(alphabet)
        letters[la] = c
        letters[lb] = c
    keep = [l for l in t.labels if l not in seen]
    for l in keep:
        letters[l] = next(alphabet)
    sub_in = "".join(letters[l] for l in t.labels)
    sub_out = "".join(letters[l] for l in keep)
    data = np.einsum(f"{sub_in}->{sub_out}", t.data)
    return DenseTensor(data, tuple(keep))


def _shared_labels(a: DenseTensor, b: DenseTensor) -> list[str]:
    in_b = set(b.labels)
    return [l for l in a.labels if l in in_b]


def _pair_cost(a: DenseTensor, b: DenseTensor) -> int:
    """Number of scalar multiplications for this pair: the product of the
    extents of the union of both label sets."""
    shared = set(_shared_labels(a, b))
    cost = 1
    for t in (a, b):
        for l, d in zip(t.labels, t.dims):
            if t is b and l in shared:
                continue
            cost *= d
    return cost


def _greedy_pair(work: Sequence[DenseTensor]) -> tuple[int, int]:
    """Position pair the greedy heuristic contracts next: the cheapest one
    (smallest multiply count), ties broken by first position order."""
    best = None
    best_cost = None
    for i in range(len(work)):
        for j in range(i + 1, len(work)):
            cost = _pair_cost(work[i], work[j])
            if best_cost is None or cost < best_cost:
                best, best_cost = (i, j), cost
    return best


def contract_network(tensors: Sequence[DenseTensor], order=None) -> DenseTensor:
    """Contract a list of tensors into one.

    Labels are matched by name and must appear at most twice across the
    network; matched extents must agree. With ``order=None`` a greedy
    heuristic repeatedly contracts the pair with the cheapest contraction
    (smallest product of involved extents), ties broken by first position.
    ``order`` may instead give an explicit sequence of ``(i, j)`` position
    pairs; positions refer to the current working list, and each result is
    appended at the end (so new tensors are addressed by growing indices).

    A network whose parts share no labels reduces to an outer product.
    """
    work = list(tensors)
    if not work:
        raise ValueError("contract_network needs at least one tensor")
    counts: dict[str, int] = {}
    extents: dict[str, int] = {}
    for t in work:
        if not isinstance(t, DenseTensor):
            raise ValueError("contract_network expects DenseTensor inputs")
        for l, d in zip(t.labels, t.dims):
            counts[l] = counts.get(l, 0) + 1
            if counts[l] > 2:
                raise ValueError(f"label {l!r} appears more than twice in the network")
            if extents.setdefault(l, d) != d:
                raise ValueError(f"label {l!r} has mismatched extents in the network")
    if len(work) == 1:
        return work[0]

    def join(i: int, j: int) -> None:
        a, b = work[i], work[j]
        pairs = [(l, l) for l in _shared_labels(a, b)]
        res = contract(a, b, pairs)
        del work[j]
        del work[i]
        work.append(res)

    if order is not None:
        for step, (i, j) in enumerate(order):
            if i == j or not (0 <= i < len(work)) or not (0 <= j < len(work)):
                raise ValueError(f"invalid contraction pair {(i, j)} at step {step}")
            if i > j:
                i, j = j, i
            join(i, j)
        if len(work) != 1:
            raise ValueError(f"contraction order left {len(work)} tensors unmerged")
        return work[0]

    while len(work) > 1:
        join(*_greedy_pair(work))
    return work[0]


def svd_split(
    t: DenseTensor,
    left_labels: Sequence[str],
    spec: TruncationSpec | None = None,
    bond_label: str = "bond",
):
    """Split a tensor by truncated SVD into ``u * diag(s) * v``.

    The axes named in ``left_labels`` (in that order) become the row group;
    the remaining axes, in their original order, the column group. Returns
    ``(u, s, v, report)`` where ``u`` carries the left labels plus
    ``bond_label``, ``v`` carries ``bond_label`` plus the right labels, and
    ``s`` is the kept (possibly renormalized) spectrum as a real vector.
    """
    left = tuple(left_labels)
    if not left or len(left) >= t.rank:
        raise ValueError("left_labels must be a nonempty proper subset of the axes")
    right = tuple(l for l in t.labels if l not in left)
    if len(left) + len(right) != t.rank or len(set(left)) != len(left):
        raise ValueError(f"left_labels {left} do not select a subset of {t.labels}")
    for l in left:
        t.axis(l)
    if bond_label in t.labels:
        raise ValueError(f"bond label {bond_label!r} collides with an existing axis")
    perm = t.transpose(left + right)
    ldim = int(np.prod([t.dim(l) for l in left], dtype=np.int64))
    rdim = int(np.prod([t.dim(l) for l in right], dtype=np.int64))
    u, s, vh, report = svd_matrix(perm.data.reshape(ldim, rdim), spec)
    k = s.size
    u_t = DenseTensor(u.reshape(*(t.dim(l) for l in left), k), left + (bond_label,))
    v_t = DenseTensor(vh.reshape(k, *(t.dim(l) for l in right)), (bond_label,) + right)
    return u_t, s, v_t, report


def qr_split(t: DenseTensor, left_labels: Sequence[str], bond_label: str = "bond"):
    """Split a tensor as ``q * r`` with ``q`` isometric over the left group.

    Grouping follows the same rules as :func:`svd_split`. Returns
    ``(q, r)``.
    """
    left = tuple(left_labels)
    if not left or len(left) >= t.rank:
        raise ValueError("left_labels must be a nonempty proper subset of the axes")
    right = tuple(l for l in t.labels if l not in left)
    for l in left:
        t.axis(l)
    if bond_label in t.labels:
        raise ValueError(f"bond label {bond_label!r} collides with an existing axis")
    perm = t.transpose(left + right)
    ldim = int(np.prod([t.dim(l) for l in left], dtype=np.int64))
    rdim = int(np.prod([t.dim(l) for l in right], dtype=np.int64))
    q, r = qr_matrix(perm.data.reshape(ldim, rdim))
    k = q.shape[1]
    q_t = DenseTensor(q.reshape(*(t.dim(l) for l in left), k), left + (bond_label,))
    r_t = DenseTensor(r.reshape(k, *(t.dim(l) for l in right)), (bond_label,) + right)
    return q_t, r_t


def scale_axis(t: DenseTensor, label: str, weights: np.ndarray) -> DenseTensor:
    """Multiply a tensor along one axis by a vector of weights."""
    ax = t.axis(label)
    w = np.asarray(weights)
    if w.ndim != 1 or w.size != t.dims[ax]:
        raise ValueError(f"weights must be a vector of length {t.dims[ax]}")
    shape = [1] * t.rank
    shape[ax] = w.size
    return DenseTensor(t.data * w.reshape(shape), t.labels)
