"""Dense matrix kernels (truncated SVD, QR and RQ under one phase
convention, and the split that chooses between them), the truncation
rule, and the truncation settings and configuration error that every
module shares.

Conventions used throughout the package:

* Tensor data is row-major, and its dtype follows the data: real input
  (ints and bools included) is stored as float64, complex input as
  complex128. Real problems so run in real arithmetic, and anything that
  meets a complex factor becomes complex by numpy's promotion. The
  ``MatrixProductState`` and ``MatrixProductOperator`` constructors copy
  the site arrays they are handed unless they are already frozen
  (non-writeable) and of that dtype; the stored arrays are always
  non-writeable, so states and operators behave as values.
* Singular values are returned in descending order. The left factor of an
  SVD or QR is made unique by phasing each column so that its
  largest-magnitude entry is real and positive; on real data the phase is
  a sign.
* Truncation keeps singular values ``>= rel_cutoff * s_max``, extends the
  kept set across any degenerate group at the cutoff boundary (equal within
  1e-14 relative), and finally caps at ``max_bond``. The discarded weight
  is the truncated squared norm relative to the total squared norm.
* A split (``split_matrix``) goes through the SVD only when the rule can
  cut: ``rel_cutoff > 0`` or ``min(m.shape) > max_bond``. Otherwise the
  rule keeps every value, and the exact split is a QR (an RQ leftward),
  which restores the canonical form for less.
* Every seeded draw of the package (random start states, the padding of
  a warm start, the start block of the coarse-graining subspace
  iteration) comes from :class:`GaussianStream`, a counter hash on numpy
  alone. ``numpy.random`` is never imported: it loads OpenSSL's
  libcrypto through ``secrets`` and ``hmac``, about 6 MB of resident
  memory in a process that does no hashing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEGENERACY_RTOL = 1e-14

# SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the Weyl increment and the
# two multipliers of its finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


class GaussianStream:
    """A seeded stream of standard normal draws on numpy alone.

    The k-th 64-bit word (k = 1, 2, ...) is SplitMix64's finalizer applied
    to ``seed + k * gamma`` (mod 2^64), so the stream is a pure function of
    the seed and of how many draws came before. Its top 53 bits give a
    uniform u in (0, 1], and Box-Muller turns each pair of uniforms into
    two normals. ``normal(size)`` returns the next ``prod(size)`` draws as
    a float64 array of that shape; the last normal of an odd-sized draw is
    discarded, and the next draw starts on a fresh pair.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) % 2**64)
        self._words = 0

    def _uniform(self, n: int) -> np.ndarray:
        # uint64 arithmetic on arrays wraps silently, as the hash needs;
        # numpy warns only on scalar overflow
        z = np.arange(self._words + 1, self._words + n + 1, dtype=np.uint64)
        self._words += n
        z *= _GAMMA
        z += self._seed
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        # 1 .. 2^53 over 2^53: never 0, so the logarithm below is finite
        return ((z >> np.uint64(11)) + np.uint64(1)) * 2.0**-53

    def normal(self, size) -> np.ndarray:
        shape = (size,) if isinstance(size, (int, np.integer)) else tuple(size)
        n = math.prod(shape)
        half = (n + 1) // 2
        u = self._uniform(2 * half)
        radius = np.sqrt(-2.0 * np.log(u[:half]))
        angle = (2.0 * np.pi) * u[half:]
        out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return out[:n].reshape(shape)


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
# and phase conventions; the MPS, MPO, TEBD and TRG modules route through
# them.
# ---------------------------------------------------------------------------


def _phase_fix_columns(u: np.ndarray, other: np.ndarray) -> None:
    """Phase each column of ``u`` so its largest-magnitude entry is real
    and positive, absorbing the inverse phase into the rows of ``other``.
    On real arrays the phase is a sign, so real data stays real.

    Modifies both arrays in place; ``u @ other`` is unchanged. The first
    of tied maxima decides, and an all-zero column keeps phase 1.
    """
    a = u[np.abs(u).argmax(0), np.arange(u.shape[1])]
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
    total = float(np.vdot(s, s).real)
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
    if k < n and total > 0.0:
        return k, float((s[k:] ** 2).sum() / total)
    return k, 0.0


def svd_matrix(m: np.ndarray, spec: TruncationSpec | None = None):
    """Truncated SVD of a matrix: ``m ~ u @ diag(s) @ vh``.

    Returns ``(u, s, vh, report)`` with phase-fixed columns of ``u`` and the
    spectrum truncated (and optionally renormalized) per ``spec``. The
    factors are views of LAPACK's output, so a truncated ``u`` is a
    column slice, not a copy.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError:
        # gesdd occasionally fails to converge; gesvd is slower but robust.
        # Imported here: scipy.linalg loads a second BLAS library, which
        # costs every process about 20 MB and 0.15 s
        import scipy.linalg

        u, s, vh = scipy.linalg.svd(
            m, full_matrices=False, lapack_driver="gesvd", check_finite=False
        )
    if spec is None:
        kept, discarded = s.size, 0.0
    else:
        kept, discarded = truncate_spectrum(s, spec.max_bond, spec.rel_cutoff)
    u, s, vh = u[:, :kept], s[:kept], vh[:kept]
    _phase_fix_columns(u, vh)
    if spec is not None and spec.norm_policy == "renormalize" and discarded > 0.0:
        s *= 1.0 / np.sqrt(1.0 - discarded)
    return u, s, vh, TruncationReport(kept=kept, discarded_weight=discarded)


def split_matrix(m: np.ndarray, spec: TruncationSpec, leftward: bool = False):
    """Split a matrix under the truncation rule: ``m ~ a @ b``.

    Returns ``(a, b, report)``. ``a`` is a left isometry, or ``b`` a right
    one when ``leftward``. When the rule can cut (``rel_cutoff > 0`` or
    ``min(m.shape) > max_bond``) the split goes through :func:`svd_matrix`
    and the kept singular values are absorbed into ``b`` (into ``a`` when
    ``leftward``). Otherwise the rule keeps all ``min(m.shape)`` values,
    and the split is the exact QR (RQ) of ``m``, with the report that
    :func:`truncate_spectrum` gives for such a spectrum.
    """
    if spec.rel_cutoff > 0.0 or min(m.shape) > spec.max_bond:
        u, s, vh, report = svd_matrix(m, spec)
        if leftward:
            return u * s, vh, report
        return u, s[:, None] * vh, report
    a, b = rq_matrix(m) if leftward else qr_matrix(m)
    return a, b, TruncationReport(kept=min(m.shape), discarded_weight=0.0)


def qr_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with phase-fixed columns of Q."""
    if not np.isfinite(m).all():
        raise ValueError("matrix contains non-finite entries")
    q, r = np.linalg.qr(m)
    _phase_fix_columns(q, r)
    return q, r


def rq_matrix(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor ``m = r @ q`` with orthonormal rows of ``q``.

    Built from the QR of the conjugate transpose; the phase convention on q's
    rows mirrors the column convention of :func:`qr_matrix`.
    """
    qt, rt = qr_matrix(m.conj().T)
    return rt.conj().T, qt.conj().T
