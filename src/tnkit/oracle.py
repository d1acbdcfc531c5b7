"""Brute-force reference computations.

Everything here works on the full Hilbert space (or the full configuration
space for the classical model) and is deliberately independent of the
tensor-network modules: Hamiltonians are assembled by Kronecker products,
states are plain vectors, and partition functions come from explicit spin
sums, transfer matrices, or quadrature. Intended for small sizes only.
The one exception is ``free_fermion_ground``, the transverse-field Ising
chain solved as free fermions, which checks chains far past the reach of
exact diagonalization.
The module imports no scipy at load time: ``scipy.sparse`` is imported
inside the functions that build sparse matrices or call ``eigsh``, so
``onsager_f`` runs on numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    ID2,
    SX,
    SY,
    SZ,
    HamiltonianSpec,
    check_brute_force,
    check_dense_size,
    check_gibbs,
    check_onsager,
    check_spectrum,
    check_transfer_matrix,
)

if TYPE_CHECKING:
    import scipy.sparse

_DENSE_DIM = 1024  # below this, use dense eigensolvers outright


@dataclass(frozen=True)
class DenseHamiltonian:
    """Full-Hilbert-space Hamiltonian, stored sparse (d^N grows fast)."""

    n_sites: int
    phys_dim: int
    matrix: scipy.sparse.csr_matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def to_array(self) -> np.ndarray:
        return self.matrix.toarray()


def _kron_chain(ops: dict[int, np.ndarray], n: int, d: int) -> scipy.sparse.csr_matrix:
    """Kronecker product over n sites with identities where ops has no entry."""
    import scipy.sparse

    out = None
    eye = scipy.sparse.identity(d, dtype=complex, format="csr")
    for i in range(n):
        factor = scipy.sparse.csr_matrix(ops[i]) if i in ops else eye
        out = factor if out is None else scipy.sparse.kron(out, factor, format="csr")
    return out


def site_operator(op: np.ndarray, site: int, n: int, d: int = 2) -> scipy.sparse.csr_matrix:
    """op acting on one site, identity elsewhere."""
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} sites")
    return _kron_chain({site: np.asarray(op, dtype=complex)}, n, d)


def dense_hamiltonian(spec: HamiltonianSpec) -> DenseHamiltonian:
    """Assemble the chain Hamiltonian term by term on the full Hilbert space."""
    import scipy.sparse

    n = spec.n_sites
    check_dense_size(n)
    d = spec.phys_dim
    dim = d**n
    h = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    if spec.model == "transverse_field_ising":
        for i in range(n - 1):
            h = h - spec.J * _kron_chain({i: SZ, i + 1: SZ}, n, d)
        for i in range(n):
            h = h - spec.h * _kron_chain({i: SX}, n, d)
    elif spec.model == "heisenberg_xxz":
        for i in range(n - 1):
            h = h + spec.J * (
                _kron_chain({i: SX, i + 1: SX}, n, d)
                + _kron_chain({i: SY, i + 1: SY}, n, d)
                + spec.delta * _kron_chain({i: SZ, i + 1: SZ}, n, d)
            )
        for i in range(n):
            h = h - spec.field * _kron_chain({i: SZ}, n, d)
    else:  # custom_nn
        block = scipy.sparse.csr_matrix(spec.two_site)
        for i in range(n - 1):
            # embed the two-site matrix h[(s_i s_{i+1}), (s_i' s_{i+1}')]
            left = scipy.sparse.identity(d**i, dtype=complex, format="csr")
            right = scipy.sparse.identity(d ** (n - i - 2), dtype=complex, format="csr")
            h = h + scipy.sparse.kron(scipy.sparse.kron(left, block), right, format="csr")
        if spec.one_site is not None:
            for i in range(n):
                h = h + _kron_chain({i: spec.one_site}, n, d)
    h = h.tocsr()
    resid = h - h.conj().T.tocsr()
    if resid.nnz and np.max(np.abs(resid.data)) > 1e-12:
        raise ValueError("assembled Hamiltonian is not Hermitian")
    return DenseHamiltonian(n_sites=n, phys_dim=d, matrix=h)


def _eigsh(matrix, k: int, which: str) -> tuple[np.ndarray, np.ndarray]:
    """k extremal eigenpairs from ``scipy.sparse.linalg.eigsh``."""
    import scipy.sparse.linalg

    # fixed, nowhere-zero start vector keeps the iterative solver deterministic
    v0 = np.cos(np.arange(matrix.shape[0]) * 0.7) + 0.1
    return scipy.sparse.linalg.eigsh(matrix, k=k, which=which, v0=v0 / np.linalg.norm(v0))


def ed_ground(dh: DenseHamiltonian) -> tuple[float, np.ndarray]:
    """Lowest eigenpair by exact diagonalization."""
    if dh.dim <= _DENSE_DIM:
        w, v = np.linalg.eigh(dh.to_array())
        return float(w[0]), v[:, 0].astype(complex)
    w, v = _eigsh(dh.matrix, 1, "SA")
    return float(w[0]), v[:, 0].astype(complex)


def ed_spectrum(dh: DenseHamiltonian, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k lowest eigenvalues (ascending) and their eigenvectors as columns."""
    check_spectrum(k, dh.dim)
    if dh.dim <= _DENSE_DIM:
        w, v = np.linalg.eigh(dh.to_array())
        return w[:k].copy(), v[:, :k].astype(complex)
    w, v = _eigsh(dh.matrix, k, "SA")
    order = np.argsort(w)
    return w[order], v[:, order].astype(complex)


def free_fermion_ground(n: int, J: float = 1.0, h: float = 1.0) -> float:
    """Ground energy of the open chain H = -J sum Z_i Z_{i+1} - h sum X_i of
    n sites (the ``transverse_field_ising`` model) by its single-particle
    spectrum. The Jordan-Wigner transformation makes H quadratic in the
    Majorana operators, coupled by a bidiagonal matrix with 2h on the
    diagonal and 2J above it; its singular values are the single-particle
    energies, and the ground state fills none of them, so E0 is minus half
    their sum (Lieb, Schultz & Mattis, Ann. Phys. 16, 407 (1961); Pfeuty,
    Ann. Phys. 57, 79 (1970)). O(n^3) for any n."""
    if n < 1:
        raise ValueError(f"free-fermion chain needs n >= 1, got {n}")
    coupling = np.diag(np.full(n, 2.0 * h)) + np.diag(np.full(n - 1, 2.0 * J), 1)
    return float(-0.5 * np.linalg.svd(coupling, compute_uv=False).sum())


def dense_evolve(dh: DenseHamiltonian, v0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) v0 via full eigendecomposition."""
    v0 = np.asarray(v0, dtype=complex).reshape(-1)
    if v0.size != dh.dim:
        raise ValueError(f"state has dimension {v0.size}, expected {dh.dim}")
    w, v = np.linalg.eigh(dh.to_array())
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ v0))


@dataclass(frozen=True)
class GibbsResult:
    energy: float
    local: np.ndarray  # per-site expectation of site_op
    ln_z: float


def dense_gibbs(dh: DenseHamiltonian, beta: float, site_op: np.ndarray = SZ) -> GibbsResult:
    """Thermal equilibrium values from the full spectrum.

    ln Z uses the convention Z = Tr exp(-beta H), so beta = 0 gives
    ln Z = N ln d and the maximally mixed state.
    """
    check_gibbs(beta)
    w, v = np.linalg.eigh(dh.to_array())
    logw = -beta * w
    top = np.max(logw)
    ln_z = float(top + np.log(np.sum(np.exp(logw - top))))
    p = np.exp(logw - ln_z)
    energy = float(p @ w)
    local = np.empty(dh.n_sites)
    for i in range(dh.n_sites):
        op = site_operator(site_op, i, dh.n_sites, dh.phys_dim)
        local[i] = float(np.real(np.einsum("in,in->n", v.conj(), op @ v) @ p))
    return GibbsResult(energy=energy, local=local, ln_z=ln_z)


def ising_brute_force(L: int, beta: float, J: float = 1.0) -> float:
    """Exact Z of the L x L Ising torus by summing all 2^(L^2) configurations."""
    check_brute_force(L)
    m = L * L
    idx = np.arange(2**m, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(m)) & 1
    s = (1 - 2 * bits).astype(np.float64)  # (configs, sites)
    coupling = np.zeros(2**m)
    for x in range(L):
        for y in range(L):
            a = x + L * y
            right = ((x + 1) % L) + L * y
            down = x + L * ((y + 1) % L)
            coupling += s[:, a] * s[:, right]
            coupling += s[:, a] * s[:, down]
    return float(np.sum(np.exp(beta * J * coupling)))


def ising_transfer_matrix(width: int, beta: float, J: float = 1.0) -> float:
    """Free energy per site of an infinitely long cylinder of the given width
    (periodic across the strip), from the largest transfer-matrix eigenvalue."""
    check_transfer_matrix(width, beta)
    dim = 2**width
    idx = np.arange(dim, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(width)) & 1
    s = (1 - 2 * bits).astype(np.float64)
    ring = np.sum(s * np.roll(s, -1, axis=1), axis=1)  # intra-row couplings
    t = np.exp(beta * J * (s @ s.T) + 0.5 * beta * J * (ring[:, None] + ring[None, :]))
    if dim <= 64:
        lam = float(np.linalg.eigvalsh(t)[-1])
    else:
        lam = float(_eigsh(t, 1, "LA")[0][0])
    return -np.log(lam) / (beta * width)


def _graded_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi]: n_nodes nodes on each of
    51 panels that halve toward 0, [0, pi 2^-50] and [pi 2^-k-1, pi 2^-k]
    for k = 49, ..., 0. Returns (nodes, weights)."""
    edges = np.concatenate(([0.0], np.pi * 2.0 ** -np.arange(50.0, -1.0, -1.0)))
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


def onsager_f(beta: float, J: float = 1.0) -> float:
    """Exact free energy per site of the infinite square-lattice Ising model.

    The angular integral is reduced to one dimension analytically and then
    summed by a fixed composite Gauss-Legendre rule whose panels halve
    toward theta = 0, the point that the square-root branch point of the
    integrand approaches at beta_c. The rule with 20 nodes per panel must
    agree with the one with 10 to 1e-10 relative, else RuntimeError. Above
    beta_c, where sn = sinh(2 beta J) > 1, the terms are divided by sn^2 and
    2 ln sn is added outside the sum, so nothing overflows however large
    beta is, and f tends to -2|J|. The square lattice is bipartite, so
    flipping the spins of one sublattice maps J to -J: f(beta, J) =
    f(beta, |J|).
    """
    check_onsager(beta)
    # the integrand's terms in units of m^2, m = max(1, sn), with p = 1/m
    # and r = sn/m: ln(0.5 (a + root)) = 2 ln m + ln(0.5 (a + root) / m^2)
    x = 2.0 * beta * abs(J)
    if x > math.asinh(1.0):  # sn > 1; ln sinh x = x - ln 2 + log1p(-e^-2x)
        p, r = 2.0 * math.exp(-x) / -math.expm1(-2.0 * x), 1.0
        ln_m = x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
    else:
        p, r, ln_m = 1.0, np.sinh(x), 0.0

    def ln_z(n_nodes):
        # a = cosh^2(2 beta J) - sn cos(theta); a - sn and a + sn written
        # as sums of nonnegative terms, so a^2 - sn^2 has no cancellation,
        # and their roots taken apart
        theta, weights = _graded_rule(n_nodes)
        s2 = 2.0 * p * r * np.sin(0.5 * theta) ** 2
        a = p * p + r * r - p * r + s2
        root = np.sqrt((p - r) ** 2 + s2) * np.sqrt(p * p + r * r + s2)
        val = weights @ np.log(0.5 * (a + root))
        return np.log(2.0) + ln_m + val / (2.0 * np.pi)

    fine, coarse = ln_z(20), ln_z(10)
    if not abs(fine - coarse) <= 1e-10 * abs(fine):  # also when not finite
        raise RuntimeError(f"quadrature did not converge: rules differ by {abs(fine - coarse)}")
    return float(-fine / beta)
