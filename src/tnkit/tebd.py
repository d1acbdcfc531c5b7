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

A bond stops being split once splitting it can change nothing. A gate
on bond b splits a (Dl·d, d·Dr) matrix whose outer bonds never exceed
their caps min(d^k, d^(N-k), max_bond) (``mps.bond_caps``), so without a
``rel_cutoff`` it can cut only when both caps[b-1]·d and d·caps[b+1]
exceed ``max_bond``: the middle bonds of the chain. Any other split is an
exact QR whose extent only grows, up to the bond's cap. Once a bond that
cannot cut has reached its cap, its split keeps every state it can hold
and returns it at the cap again, so from the start of the next step its
two sides evolve as one block tensor (Dl, d^len, Dr); blocks only grow,
and after the last step (or a step that aborts) exact QR moves split them
back into sites, each bond at its cap. A bond that has not reached its
cap is split gate by gate as before, so a short or weakly entangled run
keeps the bonds its gates make, and a block holds no more entries than
the largest site it replaces: a block of the left end region, (d^len, Dr),
is the size of its last site, (d^(len-1), d, Dr). With a positive
``rel_cutoff`` every bond can cut and every block is one site.

Cost per gate. A gate inside a block is one batched matmul on a reshape
of the block's physical index, (Dl·d^k, d², d^(len-k-2)·Dr): no split, no
center move, no phase fix. A gate between blocks sees each block as a
site, e.g. (Dl·d^(len-1), d, Dr) for its last one, and costs two matrix
products and one split. The first product joins the two matrix views,
(Dl·d1, χ) times (χ, d2·Dr); the second applies the gate to the physical
pair of every (Dl, Dr) entry as the same batched matmul.
``tensor.split_matrix`` splits the result back: by a truncated SVD when
the rule can cut (a positive ``rel_cutoff``, or more than ``max_bond``
rows and columns), otherwise by an exact QR (RQ leftward). Each layer
visits the blocks in sweep order, so a block's gates run while it holds
the center, and the center moves only between blocks: one QR (or RQ) and
one product that pushes its factor into the neighbour. On the benchmark's
quench (14 sites, ``max_bond`` 32, from a Néel state) only bonds 5-7 can
cut; the end regions reach their caps within the first three steps, and
from then on sites 0-5 and 8-13 are blocks and a step makes 3 splits and
3 center moves where a sweep over sites makes 13 and 12. Every
factorization goes through the tensor module's kernels, so the LAPACK
SVDs of the gates that cut set most of the time of a saturated quench.

The trailing even(dt/2) of one second-order step and the leading one of
the next act on the same bonds and commute, so they run as one layer of
squared gates: n steps cost n·(|E|+|O|) gates plus |E| once, where E and O
are the even and odd layers. Between steps the evolution holds φ_n, and
ψ(t_n) is the owed half-layer applied to it. Observables of ψ(t_n) are
measured without splitting that layer: each owed gate joins the blocks of
its two sites into one, or acts on a copy of the block that holds both;
every one-site operator acts on its site's factor of its block's physical
index (``mps._on_physical``, never a Kronecker product of the block's
dimension); and one walk (``mps._walk``) evaluates them all together with
the block state's norm, which in imaginary time is ν_n. No measurement
factorizes, whether the block state keeps the center (unitary gates) or
not. The owed layer itself is applied, with truncation, only after the
last step or after a step that aborts.

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
from functools import reduce
from math import prod
from typing import Mapping

import numpy as np

from .models import HamiltonianSpec, bond_terms
from .mpo import MatrixProductOperator
from .mps import (
    MatrixProductState,
    _left_factor,
    _move_center,
    _on_physical,
    _right_factor,
    _site_op,
    _walk,
    bond_caps,
    canonicalize,
    product_state,
)
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


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Neighbouring tensors (Dl, p1, χ) and (χ, p2, Dr) as one (Dl, p1·p2, Dr)
    block: one product of their matrix views."""
    dl, p1, chi = a.shape
    _, p2, dr = b.shape
    return (a.reshape(dl * p1, chi) @ b.reshape(chi, p2 * dr)).reshape(dl, p1 * p2, dr)


def _check_gate(gate: np.ndarray, d1: int, d2: int) -> None:
    if gate.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"gate must be {d1 * d2} x {d1 * d2}, got {gate.shape}")


def _gated_pair(sites: list, bond: int, gate: np.ndarray) -> np.ndarray:
    """The gate applied to sites (bond, bond+1) joined into one
    (Dl, d1·d2, Dr) block."""
    _check_gate(gate, sites[bond].shape[1], sites[bond + 1].shape[1])
    # the gate on the physical pair of every (Dl, Dr)
    return _on_physical(gate, _join(sites[bond], sites[bond + 1]))


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


def _uncut_caps(dims, max_bond: int, rel_cutoff: float) -> dict[int, int]:
    """The cap of each bond that no split can cut, by bond. A gate on bond
    b splits a (Dl·d_b, d_(b+1)·Dr) matrix whose outer bonds never exceed
    their caps (``mps.bond_caps``), so without a ``rel_cutoff`` it can cut
    only when both caps[b-1]·d_b and d_(b+1)·caps[b+1] exceed
    ``max_bond``."""
    if rel_cutoff > 0.0:
        return {}
    caps = [1, *bond_caps(dims, max_bond), 1]
    return {
        b: caps[b + 1]
        for b in range(len(dims) - 1)
        if min(caps[b] * dims[b], dims[b + 1] * caps[b + 2]) <= max_bond
    }


def _join_saturated(tensors: list, blocks: list, center: int, uncut: dict):
    """Join neighbouring blocks across every bond of ``uncut`` (its caps)
    whose extent has reached its cap: (the joined tensors, their sites,
    the index of the one that holds the center), or None when no bond
    joins. Joined isometries stay isometries, so the center stays exact."""
    starts = [0] + [
        i + 1
        for i, sites in enumerate(blocks[:-1])
        if tensors[i].shape[2] != uncut.get(sites.stop - 1)
    ]
    if len(starts) == len(blocks):
        return None
    groups = [range(a, b) for a, b in zip(starts, starts[1:] + [len(blocks)])]
    return (
        [reduce(_join, tensors[g.start : g.stop]) for g in groups],
        [range(blocks[g.start].start, blocks[g.stop - 1].stop) for g in groups],
        next(i for i, g in enumerate(groups) if center in g),
    )


def _block_sites(block: np.ndarray, dims, from_left: bool) -> list:
    """A block (Dl, prod(dims), Dr) as sites of physical ``dims``, split by
    exact QR moves from the left (RQ moves from the right otherwise). The
    last (first) site holds the factor left over, so the sites of a left
    (right) isometry are left (right) isometries."""
    dl, _, dr = block.shape
    if from_left:
        sites = [block.reshape(dl, dims[0], -1)]
        for d in dims[1:]:
            r = _left_factor(sites, len(sites) - 1)
            sites.append(r.reshape(len(r), d, -1))
        return sites
    sites = [block.reshape(-1, dims[-1], dr)]
    for d in dims[-2::-1]:
        l = _right_factor(sites, 0)
        sites.insert(0, l.reshape(-1, d, l.shape[1]))
    return sites


def _owed_layout(blocks, dims, owed) -> list:
    """The blocks of the state once the gates of ``owed`` are applied: the
    runs of ``blocks`` that an owed gate joins, each as (its sites, the
    indices of its blocks, its owed gates as (states left of the gate's
    sites in the run, matrix))."""
    joins = {g.bond for g in owed}
    runs = []
    for i, sites in enumerate(blocks):
        if runs and sites.start - 1 in joins:
            first, members = runs[-1]
            runs[-1] = (range(first.start, sites.stop), range(members.start, i + 1))
        else:
            runs.append((sites, range(i, i + 1)))
    layout = []
    for sites, members in runs:
        gates = [(prod(dims[sites.start : g.bond]), g.matrix) for g in owed if g.bond in sites]
        layout.append((sites, members, gates))
    return layout


def _lift_terms(terms, layout, dims) -> list:
    """``(site, op)`` terms as ``{block: (left, op)}`` terms on the blocks of
    ``layout``: ``op`` acts on the factor of the block's physical index
    that follows the ``left`` states of the sites before it
    (``mps._on_physical``)."""
    lifted = []
    for site, op in terms:
        i, sites = next((i, s) for i, (s, _, _) in enumerate(layout) if site in s)
        lifted.append({i: (prod(dims[sites.start : site]), op)})
    return lifted


def _owed_state(blocks: list, center: int, layout, keep_center: bool) -> MatrixProductState:
    """The state with every owed gate of ``layout`` applied exactly, to
    copies of the joined ``blocks``. Unitary gates keep the center in the
    block that holds it (``keep_center``); other gates leave no canonical
    structure."""
    owed, owed_center = [], None
    for i, (_, members, gates) in enumerate(layout):
        block = reduce(_join, (blocks[j] for j in members))
        for left, gate in gates:
            block = _on_physical(gate, block, left)
        owed.append(block)
        if center in members:
            owed_center = i
    return MatrixProductState(owed, center=owed_center if keep_center else None)


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
    """Repeat a Trotter step, truncating after every gate that splits.

    Once a bond that no split can cut has reached its cap, its two sides
    evolve as one block from the next step on (see the module docstring);
    the blocks come back as sites split by exact QRs, with the center at
    the last site of the block that holds it. A run whose bonds never
    reach their caps is the sweep over sites, and with no step to take the
    state comes back as it was.

    ``observables`` maps names to one-site ``(site, op)`` terms; each
    series holds <op> of the untruncated ψ(t_n), normalized, as complex
    numbers. Real time keeps the raw norm so drift stays measurable;
    imaginary time renormalizes each truncation and pulls the norm of
    ψ(t_n) out once per step into log_norms. The gates of one layer act on
    distinct bonds and commute, so each layer is swept from whichever end
    (in blocks) is nearer the current center.

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
    dims = state.phys_dims
    if scheme.order == 2:
        owed, middle = scheme.layers[:2]
        first = (owed, middle)
        # later steps run the owed half-layer and their own leading one as one
        later = (tuple(TrotterGate(g.bond, g.matrix @ g.matrix) for g in owed), middle)
    else:
        owed, first = (), scheme.layers
        later = first
    for gate in (g for layer in scheme.layers for g in layer):
        _check_gate(gate.matrix, dims[gate.bond], dims[gate.bond + 1])
    uncut = _uncut_caps(dims, max_bond, rel_cutoff)
    # every block starts as one site; _join_saturated joins them step by step
    tensors, center = list(state.sites), 0
    blocks = [range(k, k + 1) for k in range(len(dims))]

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
        block_of = [i for i, sites in enumerate(blocks) for _ in sites]
        lo, hi = block_of[layer[0].bond], block_of[layer[-1].bond + 1]
        leftward = abs(hi - center) < abs(lo - center)
        for gate in reversed(layer) if leftward else layer:
            i, j = block_of[gate.bond], block_of[gate.bond + 1]
            # either block of the gate may hold the center
            to = min(max(center, i), j)
            _move_center(tensors, center, to)
            center = to
            if i == j:  # no split: the gate on its two sites' factor of the block
                left = prod(dims[blocks[i].start : gate.bond])
                tensors[i] = _on_physical(gate.matrix, tensors[i], left)
                continue
            # each block seen as the site of the gate, e.g. (Dl·p/d, d, Dr);
            # only shapes are kept, so the old blocks go once they are split
            (dl, p, chi), (_, q, dr) = tensors[i].shape, tensors[j].shape
            pair = [
                tensors[i].reshape(-1, dims[gate.bond], chi),
                tensors[j].reshape(chi, dims[gate.bond + 1], -1),
            ]
            weight += _gate_inplace(pair, 0, gate.matrix, trunc, leftward).discarded_weight
            tensors[i] = pair[0].reshape(dl, p, -1)
            tensors[j] = pair[1].reshape(-1, q, dr)
            center = i if leftward else j
        return weight

    def pull_norm() -> float:
        scale = float(np.linalg.norm(tensors[center]))
        if scale == 0.0:
            raise RuntimeError("state collapsed to zero during evolution")
        tensors[center] = tensors[center] / scale
        return scale

    def measure(snapshot, terms) -> float:
        """Record every series on ``snapshot``; return its norm."""
        values, n2 = _walk(snapshot, terms)
        for name, value in zip(series, values / n2):
            series[name].append(complex(value))
        return float(np.sqrt(n2))

    # checks every site and operator before any step
    terms = [(site, _site_op(state, site, op)) for site, op in observables.values()]
    if terms:
        measure(state, [{site: (1, op)} for site, op in terms])
    layout = _owed_layout(blocks, dims, owed)
    lifted = _lift_terms(terms, layout, dims)
    owed_norm = 1.0
    for step in range(n_steps):
        joined = _join_saturated(tensors, blocks, center, uncut)
        if joined:
            tensors, blocks, center = joined
            layout = _owed_layout(blocks, dims, owed)
            lifted = _lift_terms(terms, layout, dims)
        weight = sum(sweep(layer) for layer in (later if step else first))
        scale = pull_norm() if scheme.imag else 1.0
        if terms or (scheme.imag and owed):
            nu = measure(_owed_state(tensors, center, layout, not (scheme.imag and owed)), lifted)
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

    # the blocks up to the center's split from the left, the rest from the
    # right, each dropped from ``tensors`` as it is split
    sites = []
    for i, span in enumerate(blocks):
        sites += _block_sites(tensors.pop(0), dims[span.start : span.stop], i <= center)
    out = MatrixProductState(sites, center=blocks[center].stop - 1)
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
