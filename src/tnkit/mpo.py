"""Matrix product operators and their action on matrix product states.

Site tensors are rank-4 arrays with index order ``(left bond, output
physical, input physical, right bond)``; boundary bonds have extent 1.
Chain Hamiltonians are built in the standard lower-triangular form, so the
bond dimension is 3 for the transverse-field Ising model, 5 for the XXZ
model, and 2 + rank of the two-site term for custom models.

Environments used throughout carry indices ``(bra bond, operator bond,
ket bond)``. Their seeds are real, so every tensor takes its dtype from
the states and operators it is built from: a real Hamiltonian gives a
float64 MPO, and real states and operators give float64 environments.

The variational fit and DMRG are one sweep (Schollwöck, Ann. Phys. 326,
96 (2011)): ``_sweep_center`` updates one site, makes it an isometry and
carries the cached environments of ``_Environments`` across it, from
site 0 to the last site and back. The fit's update is the target
projected onto the environments; DMRG's is the lowest eigenvector of the
site's effective Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .models import SM, SP, SX, SZ, HamiltonianSpec, term_matrices
from .mps import (
    MatrixProductState,
    _absorb_left,
    _absorb_right,
    _left_factor,
    _right_factor,
    canonicalize,
    compress,
    inner,
)
from .tensor import TruncationSpec, _freeze


@dataclass(frozen=True, eq=False)
class MatrixProductOperator:
    sites: tuple[np.ndarray, ...]

    def __init__(self, sites):
        sites = tuple(_freeze(a) for a in sites)
        if not sites:
            raise ValueError("an MPO needs at least one site")
        for k, a in enumerate(sites):
            if a.ndim != 4:
                raise ValueError(f"site {k} must be rank-4, got shape {a.shape}")
        if sites[0].shape[0] != 1 or sites[-1].shape[3] != 1:
            raise ValueError("boundary bonds must have extent 1")
        for k in range(len(sites) - 1):
            if sites[k].shape[3] != sites[k + 1].shape[0]:
                raise ValueError(f"bond mismatch between sites {k} and {k + 1}")
        object.__setattr__(self, "sites", sites)

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        """Output physical dimensions."""
        return tuple(a.shape[1] for a in self.sites)

    @property
    def bond_dims(self) -> tuple[int, ...]:
        return tuple(a.shape[3] for a in self.sites[:-1])


def identity_mpo(phys_dims) -> MatrixProductOperator:
    return MatrixProductOperator(
        [np.eye(int(d)).reshape(1, d, d, 1) for d in phys_dims]
    )


def mpo_to_dense(op: MatrixProductOperator) -> np.ndarray:
    """Full matrix; site 0 is the most significant index on both sides."""
    first = op.sites[0]
    acc = first.reshape(first.shape[1], first.shape[2], first.shape[3])
    for a in op.sites[1:]:
        acc = np.tensordot(acc, a, axes=(2, 0))  # (O, I, o, i, w)
        acc = acc.transpose(0, 2, 1, 3, 4)
        acc = acc.reshape(acc.shape[0] * acc.shape[1], acc.shape[2] * acc.shape[3], -1)
    return np.ascontiguousarray(acc[:, :, 0])


def mpo_dagger(op: MatrixProductOperator) -> MatrixProductOperator:
    return MatrixProductOperator([a.conj().transpose(0, 2, 1, 3) for a in op.sites])


def mpo_multiply(a: MatrixProductOperator, b: MatrixProductOperator) -> MatrixProductOperator:
    """The product operator, (a b) psi = a (b psi). Bond dimensions multiply."""
    if a.n_sites != b.n_sites:
        raise ValueError("operators live on different lattices")
    sites = []
    for ta, tb in zip(a.sites, b.sites):
        if ta.shape[2] != tb.shape[1]:
            raise ValueError("inner physical dimensions do not match")
        t = np.einsum("aomb,cmid->acoibd", ta, tb)
        s = t.shape
        sites.append(t.reshape(s[0] * s[1], s[2], s[3], s[4] * s[5]))
    return MatrixProductOperator(sites)


# ---------------------------------------------------------------------------
# chain Hamiltonians
# ---------------------------------------------------------------------------


def _triangular_mpo(n: int, d: int, pairs, one: np.ndarray) -> MatrixProductOperator:
    """Lower-triangular bulk tensor from interaction pairs [(left op,
    right op), ...] plus a one-site term; first site keeps the bottom row,
    last site the first column."""
    w = 2 + len(pairs)
    bulk = np.zeros((w, d, d, w), dtype=np.result_type(one, *(m for p in pairs for m in p)))
    eye = np.eye(d)
    bulk[0, :, :, 0] = eye
    bulk[w - 1, :, :, w - 1] = eye
    bulk[w - 1, :, :, 0] = one
    for r, (left, right) in enumerate(pairs):
        bulk[1 + r, :, :, 0] = right
        bulk[w - 1, :, :, 1 + r] = left
    first = bulk[w - 1 : w, :, :, :]
    last = bulk[:, :, :, 0:1]
    return MatrixProductOperator([first] + [bulk] * (n - 2) + [last])


def _custom_pairs(spec: HamiltonianSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split the two-site matrix into a minimal sum of left (x) right
    operator products via an SVD across the site partition."""
    d = spec.phys_dim
    two, _ = term_matrices(spec)
    m = two.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    u, s, vh = np.linalg.svd(m)
    keep = s > 1e-14 * (s[0] if s.size and s[0] > 0 else 1.0)
    pairs = []
    for r in np.nonzero(keep)[0]:
        scale = np.sqrt(s[r])
        pairs.append((scale * u[:, r].reshape(d, d), scale * vh[r, :].reshape(d, d)))
    return pairs


def build_mpo(spec: HamiltonianSpec) -> MatrixProductOperator:
    """MPO for a chain Hamiltonian; see the models module for the forms."""
    n, d = spec.n_sites, spec.phys_dim
    if spec.model == "transverse_field_ising":
        pairs = [(-spec.J * SZ, SZ)]
        one = -spec.h * SX
    elif spec.model == "heisenberg_xxz":
        # sx sx + sy sy = 2 (s+ s- + s- s+) keeps the operator real
        pairs = [
            (2.0 * spec.J * SP, SM),
            (2.0 * spec.J * SM, SP),
            (spec.J * spec.delta * SZ, SZ),
        ]
        one = -spec.field * SZ
    else:
        pairs = _custom_pairs(spec)
        _, one = term_matrices(spec)
    return _triangular_mpo(n, d, pairs, one)


# ---------------------------------------------------------------------------
# sandwiches and application
# ---------------------------------------------------------------------------


def _transfer_left(env, bra_site, op_site, ket_site):
    """Grow a (bra, op, ket) environment by one site from the left."""
    tmp = np.tensordot(env, ket_site, axes=(2, 0))  # (b, w, s, k')
    tmp = np.tensordot(tmp, op_site, axes=([1, 2], [0, 2]))  # (b, k', o, w')
    new = np.tensordot(bra_site.conj(), tmp, axes=([0, 1], [0, 2]))  # (b', k', w')
    return new.transpose(0, 2, 1)


def _transfer_right(env, bra_site, op_site, ket_site):
    """Grow a (bra, op, ket) environment by one site from the right."""
    tmp = np.tensordot(ket_site, env, axes=(2, 2))  # (k, s, b, w)
    tmp = np.tensordot(op_site, tmp, axes=([2, 3], [1, 3]))  # (w', o, k, b)
    new = np.tensordot(tmp, bra_site.conj(), axes=([1, 3], [1, 2]))  # (w', k, b')
    return new.transpose(2, 0, 1)


def _sandwich(bra: MatrixProductState, op: MatrixProductOperator, ket: MatrixProductState) -> complex:
    env = np.ones((1, 1, 1))
    for bs, os_, ks in zip(bra.sites, op.sites, ket.sites):
        env = _transfer_left(env, bs, os_, ks)
    return complex(env[0, 0, 0])


def expect_mpo(psi: MatrixProductState, op: MatrixProductOperator) -> complex:
    """<psi|op|psi> / <psi|psi>."""
    if op.n_sites != psi.n_sites:
        raise ValueError("operator and state live on different lattices")
    n2 = inner(psi, psi).real
    if n2 == 0.0:
        raise ValueError("cannot take expectation values in the zero state")
    return _sandwich(psi, op, psi) / n2


def apply_mpo_exact(op: MatrixProductOperator, psi: MatrixProductState) -> MatrixProductState:
    """op |psi> without approximation; bond dimensions multiply."""
    if op.n_sites != psi.n_sites:
        raise ValueError("operator and state live on different lattices")
    sites = []
    for w, a in zip(op.sites, psi.sites):
        if w.shape[2] != a.shape[1]:
            raise ValueError("operator input dimension does not match the state")
        t = np.tensordot(w, a, axes=(2, 1))  # (wl, o, wr, Dl, Dr)
        t = t.transpose(3, 0, 1, 4, 2)  # (Dl, wl, o, Dr, wr)
        s = t.shape
        sites.append(t.reshape(s[0] * s[1], s[2], s[3] * s[4]))
    return MatrixProductState(sites, center=None)


@dataclass(frozen=True)
class FitTrace:
    """Relative residuals |phi - op psi| / |op psi| after each sweep."""

    residuals: tuple[float, ...]
    converged: bool


class _Environments:
    """The left and right environments of <bra|op|ket> over site lists that
    a sweep edits in place: ``left[k]`` covers sites ``0..k-1`` and
    ``right[k]`` sites ``k..n-1``. Built for a sweep that starts at site 0;
    the sweep grows them across each site it moves the center off."""

    def __init__(self, bra, op_sites, ket):
        self.bra, self.op, self.ket = bra, op_sites, ket
        n = len(op_sites)
        self.left = [np.ones((1, 1, 1))] + [None] * n
        self.right = [None] * n + [np.ones((1, 1, 1))]
        for k in range(n - 1, 0, -1):
            self.grow_right(k)

    def grow_left(self, k):
        self.left[k + 1] = _transfer_left(self.left[k], self.bra[k], self.op[k], self.ket[k])

    def grow_right(self, k):
        self.right[k] = _transfer_right(self.right[k + 1], self.bra[k], self.op[k], self.ket[k])

    def site_operator(self, k):
        """The operator that site k sees through its environments, as a
        function of the ket tensor (flattened or not) giving the bra tensor
        ``(f, o, f')``.

        The left environment and the site's MPO tensor are contracted once
        into a ``(f·o·w', k·s)`` matrix and the right environment is laid
        out as ``(w'·k', f')``, so each application is two matrix products
        and pure reshapes.
        """
        left, op_site, right = self.left[k], self.op[k], self.right[k + 1]
        f, _, kl = left.shape
        _, o, s, w = op_site.shape
        fr, _, kr = right.shape
        lw = np.tensordot(left, op_site, axes=(1, 0))  # (f, k, o, s, w')
        lw = lw.transpose(0, 2, 4, 1, 3).reshape(f * o * w, kl * s)
        r = right.transpose(1, 2, 0).reshape(w * kr, fr)

        def apply(ket):
            y = lw @ ket.reshape(kl * s, kr)  # (f·o·w', k')
            return (y.reshape(f * o, w * kr) @ r).reshape(f, o, fr)

        return apply


def _sweep_center(sites, envs, update):
    """One sweep of the orthogonality center from site 0 to the last site
    and back. ``update(k, start)`` must write a new tensor into
    ``sites[k]``; each site but the last one updated is then made an
    isometry, and every environment in ``envs`` is carried across it. The
    QR/RQ factor that the isometry leaves behind is owed to the next site:
    ``start()`` returns that site's tensor with the factor absorbed, so an
    update that reads the old tensor (DMRG's Lanczos seed) pays for the
    contraction and one that overwrites it unread (the fit) does not."""
    n = len(sites)
    start = lambda: sites[0]  # site 0 holds the center: no factor is owed to it
    for k in range(n - 1):
        update(k, start)
        r = _left_factor(sites, k)
        for env in envs:
            env.grow_left(k)
        start = partial(_absorb_left, r, sites[k + 1])
    for k in range(n - 1, 0, -1):
        update(k, start)
        l = _right_factor(sites, k)
        for env in envs:
            env.grow_right(k)
        start = partial(_absorb_right, sites[k - 1], l)
    update(0, start)


def apply_mpo_variational(
    op: MatrixProductOperator,
    psi: MatrixProductState,
    spec: TruncationSpec,
    guess: MatrixProductState | None = None,
    max_sweeps: int = 20,
    tol: float = 1e-12,
) -> tuple[MatrixProductState, float, FitTrace]:
    """Fit an MPS of bounded bond dimension to op |psi| by alternating
    local least squares. Returns the fitted state (center at site 0), the
    final relative residual, and the per-sweep trace.

    The default starting point is the truncated exact application, so a
    single sweep already gives a near-optimal state at full rank.
    """
    if op.n_sites != psi.n_sites:
        raise ValueError("operator and state live on different lattices")
    n = psi.n_sites
    target_norm2 = _sandwich(psi, mpo_multiply(mpo_dagger(op), op), psi).real
    if target_norm2 <= 0.0:
        raise ValueError("op |psi> vanishes, nothing to fit")
    if guess is None:
        guess = compress(apply_mpo_exact(op, psi), spec)[0]
    elif guess.n_sites != n:
        raise ValueError("guess lives on a different lattice")
    phi = list(canonicalize(guess, 0).sites)
    env = _Environments(phi, op.sites, psi.sites)

    def update(k, start):
        # the optimal center tensor is the target projected onto the fixed
        # environments, since the gauge makes the normal matrix the identity
        phi[k] = env.site_operator(k)(psi.sites[k])

    residuals = []
    converged = False
    for _ in range(max_sweeps):
        _sweep_center(phi, [env], update)
        # at the optimum <phi|op psi> = |phi|^2, so the distance collapses
        overlap2 = float(np.vdot(phi[0], phi[0]).real)
        dist2 = max(target_norm2 - overlap2, 0.0)
        residuals.append(float(np.sqrt(dist2 / target_norm2)))
        if len(residuals) > 1 and abs(residuals[-2] - residuals[-1]) < tol:
            converged = True
            break
        if residuals[-1] < tol:
            converged = True
            break
    out = MatrixProductState(phi, center=0)
    return out, residuals[-1], FitTrace(tuple(residuals), converged)
