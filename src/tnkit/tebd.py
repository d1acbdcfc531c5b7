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

Cost per gate: two matrix products and one split. The first product
joins the two sites' matrix views, (Dl·d1, χ) times (χ, d2·Dr); the
second applies the gate to the physical pair of every (Dl, Dr) entry as
one batched matmul. ``tensor.split_matrix`` splits the result back into
two sites: by a truncated SVD when the rule can cut (a positive
``rel_cutoff``, or more than ``max_bond`` rows and columns), otherwise by
an exact QR (RQ leftward), which costs less and keeps every value. A
layer's gates act on every other bond, so between two gates the center
moves one site: one QR (or RQ) and one product that pushes its factor into
the neighbour. Every factorization goes through the tensor module's
kernels, so the LAPACK SVDs of the gates that cut set most of the time of
a saturated quench.

The trailing even(dt/2) of one second-order step and the leading one of
the next act on the same bonds and commute, so they run as one layer of
squared gates: n steps cost n·(|E|+|O|) gates plus |E| once, where E and O
are the even and odd layers. Between steps the evolution holds φ_n, and
ψ(t_n) is the owed half-layer applied to it. Observables of ψ(t_n) are
measured without splitting that layer: each owed gate joins its two sites
into one pair block of physical dimension d², every one-site operator is
lifted onto its block, and one walk (``mps._walk``) evaluates them all
together with the block state's norm, which in imaginary time is ν_n. No
measurement factorizes, whether the block state keeps the center (unitary
gates) or not. The owed layer itself is applied, with truncation, only
after the last step or after a step that aborts.

Thermal states use purification: each physical site of dimension d is fused
with an ancilla into a site of dimension d*d (system index major). Evolving
the infinite-temperature product state to beta/2 in imaginary time gives
ln Z = N ln d + 2 * sum(log_norms).

``TebdConfig`` and ``ThermalConfig`` hold the defaults and rules of an
evolution and of a thermal state (the tebd and thermal settings of the
command line extend them); ``build_trotter`` and ``evolve_gates`` take every
setting explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .models import HamiltonianSpec, bond_terms
from .mpo import MatrixProductOperator
from .mps import MatrixProductState, _move_center, _walk, canonicalize, product_state
from .tensor import ConfigError, TruncationSpec, split_matrix


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


def build_trotter(spec: HamiltonianSpec, dt: float, order: int, imag: bool) -> TrotterScheme:
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

    The gated pair is split by ``tensor.split_matrix``: a truncated SVD
    when ``spec`` can cut it, an exact QR otherwise. Returns (state with
    center at bond+1, truncation report).
    """
    n = psi.n_sites
    if not 0 <= bond < n - 1:
        raise ValueError(f"bond {bond} out of range")
    sites = list(canonicalize(psi, bond).sites)
    report = _gate_inplace(sites, bond, np.asarray(gate), spec)
    return MatrixProductState(sites, center=bond + 1), report


def _gated_pair(sites: list, bond: int, gate: np.ndarray) -> np.ndarray:
    """The gate applied to sites (bond, bond+1) joined into one
    (Dl, d1·d2, Dr) block."""
    a, b = sites[bond], sites[bond + 1]
    dl, d1, chi = a.shape
    _, d2, dr = b.shape
    if gate.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"gate must be {d1 * d2} x {d1 * d2}, got {gate.shape}")
    theta = (a.reshape(dl * d1, chi) @ b.reshape(chi, d2 * dr)).reshape(dl, d1 * d2, dr)
    return np.matmul(gate, theta)  # the gate on the physical pair of every (Dl, Dr)


def _gate_inplace(
    sites: list, bond: int, gate: np.ndarray, spec: TruncationSpec, leftward: bool = False
):
    """Center must already sit at ``bond`` (or bond+1). Leaves it at bond+1,
    or at ``bond`` when ``leftward`` splits off a right isometry."""
    theta = _gated_pair(sites, bond, gate)
    dl, d1 = sites[bond].shape[:2]
    d2, dr = sites[bond + 1].shape[1:]
    left, right, report = split_matrix(theta.reshape(dl * d1, d2 * dr), spec, leftward)
    sites[bond] = left.reshape(dl, d1, -1)
    sites[bond + 1] = right.reshape(-1, d2, dr)
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


def _owed_layout(n: int, owed) -> list:
    """The blocks of a chain of n sites once the gates of ``owed`` join
    their pairs: (first site, gate) per block, gate None for a site that no
    owed bond covers."""
    gates = {g.bond: g.matrix for g in owed}
    layout, k = [], 0
    while k < n:
        layout.append((k, gates.get(k)))
        k += 1 if gates.get(k) is None else 2
    return layout


def _lift_terms(terms, layout, dims) -> list:
    """``(site, op)`` terms as ``{block: op}`` terms on the blocks of
    ``layout``: an op on the left site of a pair becomes kron(op, I), on the
    right site kron(I, op)."""
    lifted = []
    for site, op in terms:
        i = max(j for j, (k, _) in enumerate(layout) if k <= site)
        k, gate = layout[i]
        if gate is not None:
            op = np.kron(op, np.eye(dims[k + 1])) if site == k else np.kron(np.eye(dims[k]), op)
        lifted.append({i: op})
    return lifted


def _owed_state(sites: list, center: int, layout, keep_center: bool) -> MatrixProductState:
    """The state with every gate of ``layout`` applied exactly, as pair
    blocks. Unitary gates keep the center in the block that holds it
    (``keep_center``); other gates leave no canonical structure."""
    blocks, block_center = [], None
    for i, (k, gate) in enumerate(layout):
        blocks.append(sites[k] if gate is None else _gated_pair(sites, k, gate))
        if k <= center <= k + (gate is not None):
            block_center = i
    return MatrixProductState(blocks, center=block_center if keep_center else None)


def evolve_gates(
    psi: MatrixProductState,
    scheme: TrotterScheme,
    n_steps: int,
    *,
    max_bond: int,
    rel_cutoff: float,
    abort_threshold: float,
    observables: Mapping[str, tuple[int, np.ndarray]] | None = None,
) -> tuple[MatrixProductState, EvolutionTrace]:
    """Repeat a Trotter step, truncating after every gate.

    ``observables`` maps names to one-site ``(site, op)`` terms; each
    series holds <op> of the untruncated ψ(t_n), normalized, as complex
    numbers. Real time keeps the raw norm so drift stays measurable;
    imaginary time renormalizes each truncation and pulls the norm of
    ψ(t_n) out once per step into log_norms. The gates of one layer act on
    distinct bonds and commute, so each layer is swept from whichever end
    is nearer the current center.

    A second-order scheme (``order == 2``, layers E, O, E) runs step 1 as
    E then O, every later step as E·E (one layer of squared gates, which
    carries the previous step's trailing half) then O, and owes the final
    E: it is measured through exactly (see the module docstring) and
    applied with truncation after the last step, its discarded weight
    counted in that step. A step whose summed discarded weight exceeds
    abort_threshold still completes, owed layer included, but evolution
    stops there and the trace comes back with aborted=True.
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
    if scheme.order == 2:
        owed, middle = scheme.layers[:2]
        first = (owed, middle)
        # later steps run the owed half-layer and their own leading one as one
        later = (tuple(TrotterGate(g.bond, g.matrix @ g.matrix) for g in owed), middle)
    else:
        owed, first = (), scheme.layers
        later = first
    layout = _owed_layout(len(sites), owed)

    times = [0.0]
    series: dict[str, list] = {name: [] for name in observables}
    discarded: list[float] = []
    log_norms: list[float] = []
    aborted = False

    def sweep(layer) -> float:
        nonlocal center
        weight = 0.0
        if not layer:  # two sites have no odd bond
            return weight
        leftward = abs(layer[-1].bond + 1 - center) < abs(layer[0].bond - center)
        for gate in reversed(layer) if leftward else layer:
            # either site of the gate may hold the center
            _move_center(sites, center, min(max(center, gate.bond), gate.bond + 1))
            weight += _gate_inplace(sites, gate.bond, gate.matrix, trunc, leftward).discarded_weight
            center = gate.bond if leftward else gate.bond + 1
        return weight

    def pull_norm() -> float:
        scale = float(np.linalg.norm(sites[center]))
        if scale == 0.0:
            raise RuntimeError("state collapsed to zero during evolution")
        sites[center] = sites[center] / scale
        return scale

    def measure(snapshot, terms) -> float:
        """Record every series on ``snapshot``; return its norm."""
        values, n2 = _walk(snapshot, terms)
        for name, value in zip(series, values / n2):
            series[name].append(complex(value))
        return float(np.sqrt(n2))

    terms = [{site: op} for site, op in observables.values()]
    if terms:  # also checks every site and operator before any step
        measure(state, terms)
        terms = _lift_terms(observables.values(), layout, state.phys_dims)
    owed_norm = 1.0
    for step in range(n_steps):
        weight = sum(sweep(layer) for layer in (later if step else first))
        scale = pull_norm() if scheme.imag else 1.0
        if terms or (scheme.imag and owed):
            nu = measure(_owed_state(sites, center, layout, not (scheme.imag and owed)), terms)
        if scheme.imag:
            previous, owed_norm = owed_norm, nu if owed else 1.0
            log_norms.append(float(np.log(scale) + np.log(owed_norm) - np.log(previous)))
        else:
            log_norms.append(0.0)
        if step == n_steps - 1 or weight > abort_threshold:
            weight += sweep(owed)
            if scheme.imag:
                pull_norm()  # the owed layer's norm, already in log_norms
        discarded.append(weight)
        times.append((step + 1) * scheme.dt)
        if weight > abort_threshold:
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
    observables: Mapping[str, tuple[int, np.ndarray]] | None = None,
) -> tuple[MatrixProductState, EvolutionTrace]:
    """exp(-i H t) |psi> (or exp(-tau H) |psi> when imag) by Trotter steps."""
    if psi.phys_dims != (spec.phys_dim,) * spec.n_sites:
        raise ValueError("state does not match the model lattice")
    scheme = build_trotter(spec, config.dt, config.order, config.imag)
    return evolve_gates(
        psi,
        scheme,
        config.n_steps,
        max_bond=config.max_bond,
        rel_cutoff=config.rel_cutoff,
        abort_threshold=config.abort_threshold,
        observables=observables,
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
            psi, scheme, steps, max_bond=max_bond, rel_cutoff=rel_cutoff, abort_threshold=np.inf
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


@dataclass(frozen=True)
class ThermalConfig:
    """A purified Gibbs state at inverse temperature ``beta``, reached by
    imaginary-time steps of about ``dt`` and truncated to ``max_bond``."""

    beta: float
    dt: float
    max_bond: int
    order: int = 2
    rel_cutoff: float = 0.0

    def __post_init__(self):
        if not self.beta >= 0.0:
            raise ConfigError(f"beta must be nonnegative, got {self.beta}", field="beta")
        check_step(self.dt, self.order)
        TruncationSpec(self.max_bond, self.rel_cutoff)


def thermal_state(
    spec: HamiltonianSpec, config: ThermalConfig
) -> tuple[MatrixProductState, float, EvolutionTrace]:
    """Purified Gibbs state at inverse temperature beta, plus ln Z.

    The step count is beta / (2 dt) rounded to the nearest integer (at
    least one), with dt adjusted to land on beta/2 exactly.
    """
    n, d = spec.n_sites, spec.phys_dim
    psi = infinite_temperature_state(n, d)
    if config.beta == 0.0:
        trace = EvolutionTrace((0.0,), {}, (), (), False)
        return psi, n * np.log(d), trace
    n_steps = max(1, round(config.beta / 2.0 / config.dt))
    dt_eff = config.beta / 2.0 / n_steps
    base = build_trotter(spec, dt_eff, config.order, imag=True)
    layers = tuple(
        tuple(TrotterGate(bond=g.bond, matrix=lift_gate(g.matrix, d)) for g in layer)
        for layer in base.layers
    )
    scheme = TrotterScheme(layers=layers, dt=dt_eff, order=config.order, imag=True)
    psi, trace = evolve_gates(
        psi,
        scheme,
        n_steps,
        max_bond=config.max_bond,
        rel_cutoff=config.rel_cutoff,
        abort_threshold=np.inf,
    )
    ln_z = n * np.log(d) + 2.0 * float(np.sum(trace.log_norms))
    return psi, ln_z, trace
