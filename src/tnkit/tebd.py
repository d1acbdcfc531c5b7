"""Trotterized time evolution of matrix product states.

Bond Hamiltonians come from the models module (one-site parts shared onto
the touching bonds). A first-order step applies all even-bond gates then
all odd-bond gates at the full step size; a second-order step symmetrizes
as even(dt/2), odd(dt), even(dt/2). Real-time gates are unitary; imaginary
time makes gates positive and build_trotter tracks that mode so evolution
can renormalize after every step and account the removed factors.

Gates take the dtype of their exponent: a real bond Hamiltonian gives
real imaginary-time gates, so imaginary-time cooling and purified thermal
states of real models run in float64, while real-time gates are complex by
construction.

Cost per gate: two matrix products and one truncated SVD. The first
product joins the two sites' matrix views, (Dl·d1, χ) times (χ, d2·Dr);
the second applies the gate to the physical pair of every (Dl, Dr) entry
as one batched matmul. The SVD splits the result back into two sites. A
layer's gates act on every other bond, so between two gates the center
moves one site: one QR (or RQ) and one product that pushes its factor into
the neighbour. Every factorization goes through the tensor module's
kernels, so the LAPACK SVDs and QRs set most of the time of a saturated
quench.

Thermal states use purification: each physical site of dimension d is fused
with an ancilla into a site of dimension d*d (system index major). Evolving
the infinite-temperature product state to beta/2 in imaginary time gives
ln Z = N ln d + 2 * sum(log_norms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .models import HamiltonianSpec, bond_terms
from .mpo import MatrixProductOperator
from .mps import MatrixProductState, _move_center, canonicalize, product_state
from .tensor import ConfigError, TruncationSpec, svd_matrix


@dataclass(frozen=True)
class TrotterGate:
    """One two-site gate; ``matrix`` acts on the ordered pair (bond, bond+1)
    with row index (left physical, right physical)."""

    bond: int
    matrix: np.ndarray


@dataclass(frozen=True)
class TrotterScheme:
    layers: tuple[tuple[TrotterGate, ...], ...]
    dt: float
    order: int
    imag: bool


def _herm_gate(h: np.ndarray, z: complex) -> np.ndarray:
    """exp(z * h) for Hermitian h via eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(z * w)) @ v.conj().T


def check_step(dt: float, order: int) -> None:
    """The rules on a Trotter step size and order."""
    if not dt > 0.0:
        raise ConfigError(f"dt must be positive, got {dt}", field="dt")
    if order not in (1, 2):
        raise ConfigError(f"order must be 1 or 2, got {order}", field="order")


def check_thermal(beta: float, dt: float, order: int) -> None:
    """The rules on the inputs of a purified thermal state."""
    if not beta >= 0.0:
        raise ConfigError(f"beta must be nonnegative, got {beta}", field="beta")
    check_step(dt, order)


def build_trotter(
    spec: HamiltonianSpec, dt: float, order: int = 2, imag: bool = False
) -> TrotterScheme:
    """Gate layers for one step of size dt. Real-time gates are verified
    unitary to 1e-12 before the scheme is returned."""
    check_step(dt, order)
    terms = bond_terms(spec)
    even = [b for b in range(len(terms)) if b % 2 == 0]
    odd = [b for b in range(len(terms)) if b % 2 == 1]

    def layer(bonds, step):
        z = -step if imag else -1j * step
        gates = []
        for b in bonds:
            g = _herm_gate(terms[b], z)
            if not imag:
                defect = np.max(np.abs(g.conj().T @ g - np.eye(g.shape[0])))
                if defect > 1e-12:
                    raise RuntimeError(f"gate at bond {b} is not unitary ({defect:.2e})")
            gates.append(TrotterGate(bond=b, matrix=g))
        return tuple(gates)

    if order == 1:
        layers = (layer(even, dt), layer(odd, dt))
    else:
        half = layer(even, dt / 2)
        layers = (half, layer(odd, dt), half)
    return TrotterScheme(layers=layers, dt=float(dt), order=order, imag=imag)


def apply_gate(
    psi: MatrixProductState, bond: int, gate: np.ndarray, spec: TruncationSpec
):
    """Apply a two-site gate across one bond and re-truncate it.

    Returns (state with center at bond+1, truncation report).
    """
    n = psi.n_sites
    if not 0 <= bond < n - 1:
        raise ValueError(f"bond {bond} out of range")
    sites = list(canonicalize(psi, bond).sites)
    report = _gate_inplace(sites, bond, np.asarray(gate), spec)
    return MatrixProductState(sites, center=bond + 1), report


def _gate_inplace(
    sites: list, bond: int, gate: np.ndarray, spec: TruncationSpec, leftward: bool = False
):
    """Center must already sit at ``bond`` (or bond+1). Leaves it at bond+1,
    or at ``bond`` when ``leftward`` absorbs the singular values to the left."""
    a, b = sites[bond], sites[bond + 1]
    dl, d1, chi = a.shape
    _, d2, dr = b.shape
    if gate.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"gate must be {d1 * d2} x {d1 * d2}, got {gate.shape}")
    theta = (a.reshape(dl * d1, chi) @ b.reshape(chi, d2 * dr)).reshape(dl, d1 * d2, dr)
    theta = np.matmul(gate, theta)  # the gate on the physical pair of every (Dl, Dr)
    u, s, vh, report = svd_matrix(theta.reshape(dl * d1, d2 * dr), spec)
    if leftward:
        u = u * s
    else:
        vh = s[:, None] * vh
    sites[bond] = u.reshape(dl, d1, -1)
    sites[bond + 1] = vh.reshape(-1, d2, dr)
    return report


@dataclass(frozen=True)
class EvolutionTrace:
    """times[k] is the evolved time after k steps (times[0] = 0); each
    observable series has one value per entry of times. discarded and
    log_norms have one entry per completed step."""

    times: tuple[float, ...]
    observables: dict[str, tuple]
    discarded: tuple[float, ...]
    log_norms: tuple[float, ...]
    aborted: bool


@dataclass(frozen=True)
class TebdConfig:
    dt: float
    n_steps: int
    max_bond: int
    order: int = 2
    imag: bool = False
    rel_cutoff: float = 0.0
    abort_threshold: float = 1e-3

    def __post_init__(self):
        check_step(self.dt, self.order)
        TruncationSpec(self.max_bond, self.rel_cutoff)
        if self.n_steps < 1:
            raise ConfigError(f"n_steps must be >= 1, got {self.n_steps}", field="n_steps")
        if not self.abort_threshold > 0.0:
            raise ConfigError("abort_threshold must be positive", field="abort_threshold")


def evolve_gates(
    psi: MatrixProductState,
    scheme: TrotterScheme,
    n_steps: int,
    max_bond: int,
    rel_cutoff: float = 0.0,
    abort_threshold: float = 1e-3,
    observables: Mapping[str, Callable[[MatrixProductState], object]] | None = None,
) -> tuple[MatrixProductState, EvolutionTrace]:
    """Repeat a Trotter step, truncating after every gate.

    Real time keeps the raw norm so drift stays measurable; imaginary time
    renormalizes each truncation and pulls the state norm out once per step
    into log_norms. The gates of one layer act on distinct bonds and
    commute, so each layer is swept from whichever end is nearer the
    current center. A step whose summed discarded weight exceeds
    abort_threshold still completes, but evolution stops there and the
    trace comes back with aborted=True.
    """
    observables = dict(observables or {})
    trunc = TruncationSpec(
        max_bond=max_bond,
        rel_cutoff=rel_cutoff,
        norm_policy="renormalize" if scheme.imag else "keep",
    )
    state = canonicalize(psi, 0)
    sites = list(state.sites)
    center = 0

    times = [0.0]
    series: dict[str, list] = {name: [] for name in observables}
    discarded: list[float] = []
    log_norms: list[float] = []
    aborted = False

    def measure():
        snap = MatrixProductState(sites, center=center)
        for name, fn in observables.items():
            series[name].append(fn(snap))

    measure()
    for step in range(n_steps):
        step_discarded = 0.0
        for layer in scheme.layers:
            if not layer:  # two sites have no odd bond
                continue
            leftward = abs(layer[-1].bond + 1 - center) < abs(layer[0].bond - center)
            for gate in reversed(layer) if leftward else layer:
                # either site of the gate may hold the center
                _move_center(sites, center, min(max(center, gate.bond), gate.bond + 1))
                report = _gate_inplace(sites, gate.bond, gate.matrix, trunc, leftward)
                center = gate.bond if leftward else gate.bond + 1
                step_discarded += report.discarded_weight
        if scheme.imag:
            scale = float(np.linalg.norm(sites[center]))
            if scale == 0.0:
                raise RuntimeError("state collapsed to zero during evolution")
            sites[center] = sites[center] / scale
            log_norms.append(float(np.log(scale)))
        else:
            log_norms.append(0.0)
        discarded.append(step_discarded)
        times.append((step + 1) * scheme.dt)
        measure()
        if step_discarded > abort_threshold:
            aborted = True
            break

    out = MatrixProductState(sites, center=center)
    trace = EvolutionTrace(
        times=tuple(times),
        observables={k: tuple(v) for k, v in series.items()},
        discarded=tuple(discarded),
        log_norms=tuple(log_norms),
        aborted=aborted,
    )
    return out, trace


def evolve(
    psi: MatrixProductState,
    spec: HamiltonianSpec,
    config: TebdConfig,
    observables: Mapping[str, Callable[[MatrixProductState], object]] | None = None,
) -> tuple[MatrixProductState, EvolutionTrace]:
    """exp(-i H t) |psi> (or exp(-tau H) |psi> when imag) by Trotter steps."""
    if psi.phys_dims != (spec.phys_dim,) * spec.n_sites:
        raise ValueError("state does not match the model lattice")
    scheme = build_trotter(spec, config.dt, config.order, config.imag)
    return evolve_gates(
        psi,
        scheme,
        config.n_steps,
        config.max_bond,
        config.rel_cutoff,
        config.abort_threshold,
        observables,
    )


# ---------------------------------------------------------------------------
# imaginary-time ground states
# ---------------------------------------------------------------------------

DEFAULT_COOLING_SCHEDULE = (
    (0.1, 300),
    (0.0316, 150),
    (0.01, 150),
    (0.00316, 150),
    (0.001, 150),
)


def imaginary_time_ground_state(
    spec: HamiltonianSpec,
    max_bond: int,
    schedule=DEFAULT_COOLING_SCHEDULE,
    psi0: MatrixProductState | None = None,
    rel_cutoff: float = 0.0,
) -> MatrixProductState:
    """Cool towards the ground state with second-order imaginary-time steps
    of geometrically shrinking size, so the Trotter bias of the final stage
    sets the accuracy. Starts from the uniform product state unless given."""
    if psi0 is None:
        d = spec.phys_dim
        psi = product_state([np.full(d, 1.0 / np.sqrt(d))] * spec.n_sites)
    else:
        psi = psi0
    for dt, steps in schedule:
        scheme = build_trotter(spec, dt, order=2, imag=True)
        psi, _ = evolve_gates(
            psi, scheme, steps, max_bond, rel_cutoff, abort_threshold=np.inf
        )
    return psi


# ---------------------------------------------------------------------------
# thermal states by purification
# ---------------------------------------------------------------------------


def lift_site_operator(op: np.ndarray, d: int) -> np.ndarray:
    """A one-site observable on the fused (system x ancilla) site."""
    op = np.asarray(op)
    if op.shape != (d, d):
        raise ValueError(f"operator must be {d} x {d}, got {op.shape}")
    return np.kron(op, np.eye(d))


def lift_gate(gate: np.ndarray, d: int) -> np.ndarray:
    """A two-site system gate acting on two fused sites (identity on both
    ancillas)."""
    gate = np.asarray(gate)
    if gate.shape != (d * d, d * d):
        raise ValueError(f"gate must be {d * d} x {d * d}, got {gate.shape}")
    g4 = gate.reshape(d, d, d, d)
    eye = np.eye(d)
    big = np.einsum("pqrs,ab,cd->paqcrbsd", g4, eye, eye)
    return big.reshape(d**4, d**4)


def lift_mpo(op: MatrixProductOperator) -> MatrixProductOperator:
    """An MPO on the system, extended by ancilla identities to fused sites."""
    sites = []
    for w in op.sites:
        d = w.shape[1]
        if w.shape[2] != d:
            raise ValueError("only square operators can be lifted")
        eye = np.eye(d)
        t = np.einsum("wpqv,ab->wpaqbv", w, eye)
        sites.append(t.reshape(w.shape[0], d * d, d * d, w.shape[3]))
    return MatrixProductOperator(sites)


def infinite_temperature_state(n_sites: int, d: int) -> MatrixProductState:
    """Normalized purification of rho = (I/d)^N on fused sites."""
    v = np.zeros(d * d)
    for s in range(d):
        v[s * d + s] = 1.0 / np.sqrt(d)
    return product_state([v] * n_sites)


def thermal_state(
    spec: HamiltonianSpec,
    beta: float,
    dt: float,
    max_bond: int,
    order: int = 2,
    rel_cutoff: float = 0.0,
) -> tuple[MatrixProductState, float, EvolutionTrace]:
    """Purified Gibbs state at inverse temperature beta, plus ln Z.

    The step count is beta / (2 dt) rounded to the nearest integer (at
    least one), with dt adjusted to land on beta/2 exactly.
    """
    check_thermal(beta, dt, order)
    n, d = spec.n_sites, spec.phys_dim
    psi = infinite_temperature_state(n, d)
    if beta == 0.0:
        trace = EvolutionTrace((0.0,), {}, (), (), False)
        return psi, n * np.log(d), trace
    n_steps = max(1, round(beta / 2.0 / dt))
    dt_eff = beta / 2.0 / n_steps
    base = build_trotter(spec, dt_eff, order=order, imag=True)
    layers = tuple(
        tuple(TrotterGate(bond=g.bond, matrix=lift_gate(g.matrix, d)) for g in layer)
        for layer in base.layers
    )
    scheme = TrotterScheme(layers=layers, dt=dt_eff, order=order, imag=True)
    psi, trace = evolve_gates(
        psi, scheme, n_steps, max_bond, rel_cutoff, abort_threshold=np.inf
    )
    ln_z = n * np.log(d) + 2.0 * float(np.sum(trace.log_norms))
    return psi, ln_z, trace
