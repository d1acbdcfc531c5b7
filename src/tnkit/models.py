"""Model definitions shared by the MPO builders, the evolution gates, and
the brute-force oracles, and the input limits of those oracles, which the
command-line settings apply too.

Spin-1/2 conventions (Pauli matrices, not spin operators):

* ``transverse_field_ising``:  H = -J sum_i sz_i sz_{i+1} - h sum_i sx_i
* ``heisenberg_xxz``:          H = J sum_i (sx sx + sy sy + delta sz sz)
                                   - field sum_i sz_i
* ``custom_nn``:               H = sum_i two_site_{i,i+1} + sum_i one_site_i

All chains are open. The classical model is the zero-field 2D Ising model
E = -J sum_<ij> s_i s_j on the square lattice.

``sx``, ``sz`` and the identity are real (float64); only ``sy`` is complex.
The XXZ hopping is built as sx sx + sy sy = 2 (s+ s- + s- s+) with the real
ladder operators s+ = (sx + i sy) / 2 and s- = (sx - i sy) / 2, as in
Schollwoeck, Ann. Phys. 326, 96 (2011), section 6.1, so its matrices and
MPO stay real. The ``custom_nn`` matrices keep the dtype of their data
(float64 when real, complex128 when complex). Every algorithm downstream
follows these dtypes, so a real model runs in real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ConfigError, _freeze

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)
SP = np.array([[0.0, 1.0], [0.0, 0.0]])  # s+ = (sx + i sy) / 2
SM = SP.T.copy()  # s- = (sx - i sy) / 2

PAULI = {"sx": SX, "sy": SY, "sz": SZ, "id": ID2}

# each chain model and the parameters it reads besides ``n_sites``
CHAIN_MODELS = {
    "transverse_field_ising": ("J", "h"),
    "heisenberg_xxz": ("J", "delta", "field"),
    "custom_nn": ("two_site", "one_site"),
}


def _hermiticity(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


@dataclass(frozen=True)
class HamiltonianSpec:
    """A nearest-neighbour chain Hamiltonian; see the module docstring for
    the exact form of each model."""

    model: str
    n_sites: int
    J: float = 1.0
    h: float = 0.0
    delta: float = 1.0
    field: float = 0.0
    two_site: np.ndarray | None = None
    one_site: np.ndarray | None = None

    def __post_init__(self):
        if self.model not in CHAIN_MODELS:
            raise ConfigError(
                f"unknown model {self.model!r}, expected one of {tuple(CHAIN_MODELS)}", "model"
            )
        if not isinstance(self.n_sites, (int, np.integer)) or self.n_sites < 2:
            raise ConfigError(f"n_sites must be an integer >= 2, got {self.n_sites}", "n_sites")
        if self.model == "custom_nn":
            if self.two_site is None:
                raise ConfigError("custom_nn needs a two_site matrix", "two_site")
            ts = _freeze(self.two_site)
            d2 = ts.shape[0]
            d = int(round(np.sqrt(d2)))
            if ts.ndim != 2 or ts.shape != (d2, d2) or d * d != d2:
                raise ConfigError(
                    f"two_site must be square d^2 x d^2, got shape {ts.shape}", "two_site"
                )
            if _hermiticity(ts) > 1e-12:
                raise ConfigError("two_site matrix is not Hermitian", "two_site")
            object.__setattr__(self, "two_site", ts)
            if self.one_site is not None:
                os = _freeze(self.one_site)
                if os.shape != (d, d):
                    raise ConfigError(
                        f"one_site must be {d} x {d}, got shape {os.shape}", "one_site"
                    )
                if _hermiticity(os) > 1e-12:
                    raise ConfigError("one_site matrix is not Hermitian", "one_site")
                object.__setattr__(self, "one_site", os)
        elif self.two_site is not None or self.one_site is not None:
            field = "two_site" if self.two_site is not None else "one_site"
            raise ConfigError("two_site/one_site are only valid for custom_nn", field)

    @property
    def phys_dim(self) -> int:
        if self.model == "custom_nn":
            return int(round(np.sqrt(self.two_site.shape[0])))
        return 2


def transverse_field_ising(n_sites: int, J: float = 1.0, h: float = 1.0) -> HamiltonianSpec:
    return HamiltonianSpec(model="transverse_field_ising", n_sites=n_sites, J=J, h=h)


def heisenberg_xxz(
    n_sites: int, J: float = 1.0, delta: float = 1.0, field: float = 0.0
) -> HamiltonianSpec:
    return HamiltonianSpec(model="heisenberg_xxz", n_sites=n_sites, J=J, delta=delta, field=field)


def custom_nn(n_sites: int, two_site, one_site=None) -> HamiltonianSpec:
    return HamiltonianSpec(model="custom_nn", n_sites=n_sites, two_site=two_site, one_site=one_site)


def term_matrices(spec: HamiltonianSpec) -> tuple[np.ndarray, np.ndarray]:
    """The raw interaction pieces of a chain model: a d^2 x d^2 two-site
    matrix (acting on an ordered neighbour pair) and a d x d one-site
    matrix. ``H = sum_bonds two(i, i+1) + sum_sites one(i)``."""
    if spec.model == "transverse_field_ising":
        return -spec.J * np.kron(SZ, SZ), -spec.h * SX
    if spec.model == "heisenberg_xxz":
        hop = 2.0 * (np.kron(SP, SM) + np.kron(SM, SP))  # sx sx + sy sy
        two = spec.J * (hop + spec.delta * np.kron(SZ, SZ))
        return two, -spec.field * SZ
    one = spec.one_site
    if one is None:
        one = np.zeros((spec.phys_dim, spec.phys_dim))
    return np.array(spec.two_site), np.array(one)


def bond_terms(spec: HamiltonianSpec) -> list[np.ndarray]:
    """One Hermitian d^2 x d^2 matrix per bond whose sum reproduces H.

    The one-site part of each site is shared half-and-half between the two
    touching bonds; boundary sites put their full share on their only bond.
    """
    two, one = term_matrices(spec)
    d = spec.phys_dim
    eye = np.eye(d)
    n = spec.n_sites
    out = []
    for b in range(n - 1):
        left_share = 1.0 if b == 0 else 0.5
        right_share = 1.0 if b + 1 == n - 1 else 0.5
        out.append(two + left_share * np.kron(one, eye) + right_share * np.kron(eye, one))
    return out


@dataclass(frozen=True)
class ClassicalModelSpec:
    """The 2D classical model for real-space coarse graining. Only the
    zero-field square-lattice Ising model is supported."""

    beta: float
    J: float = 1.0

    def __post_init__(self):
        if not self.beta > 0.0:
            raise ConfigError(f"beta must be positive, got {self.beta}", field="beta")
        if not self.J > 0.0:
            raise ConfigError(f"only ferromagnetic J > 0 is supported, got {self.J}", field="J")


# ---------------------------------------------------------------------------
# limits of the brute-force oracles: each rule is shared by the oracle
# function it guards and the oracle settings of the command line, and names
# the config field it checks
# ---------------------------------------------------------------------------

MAX_SITES = 14  # largest chain the oracles assemble on the full Hilbert space


def check_dense_size(n_sites: int) -> None:
    """The chain length the full-Hilbert-space assembly accepts."""
    if n_sites > MAX_SITES:
        raise ConfigError(
            f"n_sites {n_sites} exceeds the brute-force cap {MAX_SITES}", field="model.n_sites"
        )


def check_spectrum(k: int, dim: int) -> None:
    """The number of levels ``ed_spectrum`` can return for a space of ``dim``."""
    if not 1 <= k < dim:
        raise ConfigError(f"need 1 <= k < {dim}, got {k}", field="k")


def check_gibbs(beta: float) -> None:
    if not beta >= 0.0:
        raise ConfigError(f"beta must be >= 0, got {beta}", field="beta")


def check_onsager(beta: float) -> None:
    if not beta > 0.0:
        raise ConfigError(f"beta must be positive, got {beta}", field="beta")


def check_brute_force(length: int) -> None:
    if not 1 <= length <= 4:
        raise ConfigError(f"brute force supports 1 <= L <= 4, got {length}", field="length")


def check_transfer_matrix(width: int, beta: float) -> None:
    if not 1 <= width <= 12:
        raise ConfigError(
            f"transfer matrix supports 1 <= width <= 12, got {width}", field="width"
        )
    check_onsager(beta)
