"""Run configuration: JSON schema, typed settings, and scan expansion.

A config is one JSON object. Common keys: ``run`` (the subcommand: it must
match the subcommand when one is given, and names it when the caller passes
None, as ``cli.run`` does), ``seed`` (required integer, even for
deterministic runs), ``scan`` (optional mapping from dotted setting paths
to lists of values), plus the settings of the subcommand. Scans expand to
the cross product of the listed values, ordered by sorted path name then
list position, which fixes the run indexing.

Each resolved run is parsed once into the frozen settings dataclass of its
subcommand, which extends the config class of its algorithm (``DmrgConfig``,
``TebdConfig``, ``ThermalConfig``, ``CoarseGrainConfig``) by the run-level
fields. The dataclass fields are the accepted keys, their defaults are the
config defaults, and their ``__post_init__`` rules (with those of
``TruncationSpec`` and the model specs) are the range checks. Errors carry
the dotted path of the offending field.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import sys
import types
import typing
from dataclasses import dataclass

import numpy as np

from .dmrg import DmrgConfig
from .models import (
    CHAIN_MODELS,
    PAULI,
    ClassicalModelSpec,
    HamiltonianSpec,
    check_brute_force,
    check_dense_size,
    check_gibbs,
    check_onsager,
    check_spectrum,
    check_transfer_matrix,
)
from .tebd import TebdConfig, ThermalConfig
from .tensor import ConfigError
from .trg import CoarseGrainConfig


def _non_finite_path(value, path: str) -> str | None:
    """The dotted path of the first number in a JSON tree that is NaN or
    infinite, or too large to be a float."""
    if isinstance(value, dict):
        children = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        children = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        finite = not isinstance(value, (int, float)) or abs(value) <= sys.float_info.max
        return None if finite else path
    for child, item in children:
        found = _non_finite_path(item, child)
        if found is not None:
            return found
    return None


def load_config(path: str) -> dict:
    """The JSON object of a config file. NaN, Infinity and literals that
    overflow to infinity are rejected with the dotted path of the value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    where = _non_finite_path(raw, "")
    if where is not None:
        raise ConfigError(f"field '{where}' must be a finite number", field=where)
    return raw


def _coerce(value, kind, path: str):
    """``value`` checked against the type annotation ``kind``; ints widen to
    float, lists become tuples or arrays, objects become dataclasses."""
    if isinstance(kind, types.UnionType):  # X | None
        if value is None:
            return None
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    elif value is None:
        raise ConfigError(f"missing required field '{path}'", field=path)
    if kind in _SPECS:
        return _SPECS[kind]({"model": value})
    if dataclasses.is_dataclass(kind):
        return _typed(kind, _coerce(value, dict, path), f"{path}.")
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        item, items = typing.get_args(kind)[0], _coerce(value, list, path)
        return tuple(_coerce(v, item, f"{path}[{i}]") for i, v in enumerate(items))
    if kind is np.ndarray:
        try:
            return np.array(_coerce(value, list, path), dtype=float)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"field '{path}' is not a real matrix: {exc}", field=path) from None
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise ConfigError(
            f"field '{path}' must be {kind.__name__}, got {type(value).__name__}", path
        )
    return value


def _reject_unknown(node: dict, allowed, prefix: str = "") -> None:
    for key in node:
        if key not in allowed:
            raise ConfigError(f"unknown field '{prefix}{key}'", field=f"{prefix}{key}")


def _typed(cls, node: dict, prefix: str = ""):
    """Dataclass ``cls`` from the JSON object ``node``. Every key must name a
    field, absent fields take the dataclass default, and a rule broken in
    the dataclass comes back with ``prefix`` on its field."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    _reject_unknown(node, {f.name for f in fields}, prefix)
    kwargs = {
        f.name: _coerce(node.get(f.name), hints[f.name], prefix + f.name)
        for f in fields
        if f.name in node or f.default is dataclasses.MISSING
    }
    try:
        return cls(**kwargs)
    except ValueError as exc:
        field = getattr(exc, "field", None)
        path = prefix + field if field else prefix.rstrip(".") or None
        raise ConfigError(str(exc), path) from None


def chain_spec(settings: dict) -> HamiltonianSpec:
    """The chain Hamiltonian of the ``model`` object of ``settings``."""
    node = _coerce(settings.get("model"), dict, "model")
    name = _coerce(node.get("name"), str, "model.name")
    if name not in CHAIN_MODELS:
        raise ConfigError(f"unknown model name {name!r}", field="model.name")
    _reject_unknown(node, ("name", "n_sites") + CHAIN_MODELS[name], "model.")
    fields = {("model" if k == "name" else k): v for k, v in node.items()}
    return _typed(HamiltonianSpec, fields, "model.")


def classical_spec(settings: dict) -> ClassicalModelSpec:
    """The 2D classical model of the ``model`` object of ``settings``."""
    node = _coerce(settings.get("model"), dict, "model")
    name = _coerce(node.get("name", "ising_2d"), str, "model.name")
    if name != "ising_2d":
        raise ConfigError(f"unknown model name {name!r}", field="model.name")
    return _typed(ClassicalModelSpec, {k: v for k, v in node.items() if k != "name"}, "model.")


_SPECS = {HamiltonianSpec: chain_spec, ClassicalModelSpec: classical_spec}


def pauli_by_name(name: str, field: str, phys_dim: int) -> np.ndarray:
    """The Pauli operator ``name`` on the model's sites of dimension ``phys_dim``."""
    if not isinstance(name, str) or name not in PAULI or phys_dim != 2:
        raise ConfigError(
            f"field '{field}' must be one of {sorted(PAULI)} on spin-1/2 sites, got {name!r} "
            f"on sites of dimension {phys_dim}",
            field=field,
        )
    return PAULI[name]


@dataclass(frozen=True, kw_only=True)
class _RunSettings:
    """The ``seed`` every run requires: a nonnegative integer, also for the
    runs that draw nothing from it."""

    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}", field="seed")
        # then the rules of the algorithm config that the settings extend
        getattr(super(), "__post_init__", lambda: None)()


@dataclass(frozen=True, kw_only=True)
class DmrgSettings(_RunSettings, DmrgConfig):
    """Variational ground and excited states of a chain model."""

    model: HamiltonianSpec
    n_excited: int = 0
    observables: tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        # the chain has d**N levels; the power is taken only as far as
        # n_excited reaches, so that a long chain costs nothing
        d, n = self.model.phys_dim, self.model.n_sites
        if not 0 <= self.n_excited < d ** min(n, self.n_excited.bit_length()):
            raise ConfigError(f"need 0 <= n_excited < {d}**{n}, got {self.n_excited}", "n_excited")
        for i, name in enumerate(self.observables):
            pauli_by_name(name, f"observables[{i}]", d)


@dataclass(frozen=True)
class SiteObservable:
    """One Pauli operator recorded at one site after every step."""

    op: str
    site: int


@dataclass(frozen=True, kw_only=True)
class TebdSettings(_RunSettings, TebdConfig):
    """Real- or imaginary-time evolution of a chain model."""

    model: HamiltonianSpec
    state: str = "neel"
    observables: tuple[SiteObservable, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        if self.state not in ("neel", "all_up", "uniform", "random"):
            raise ConfigError(
                f"state must be neel|all_up|uniform|random, got {self.state!r}", "state"
            )
        for i, obs in enumerate(self.observables):
            pauli_by_name(obs.op, f"observables[{i}].op", self.model.phys_dim)
            if not 0 <= obs.site < self.model.n_sites:
                raise ConfigError("site is outside the chain", field=f"observables[{i}].site")


@dataclass(frozen=True, kw_only=True)
class ThermalSettings(_RunSettings, ThermalConfig):
    """Purified Gibbs state of a chain model."""

    model: HamiltonianSpec
    observables: tuple[str, ...] = ()

    def __post_init__(self):
        super().__post_init__()
        for i, name in enumerate(self.observables):
            pauli_by_name(name, f"observables[{i}]", self.model.phys_dim)


@dataclass(frozen=True, kw_only=True)
class TrgSettings(_RunSettings, CoarseGrainConfig):
    """Free energy of the 2D Ising model by coarse graining."""

    model: ClassicalModelSpec


# the fields each oracle task reads besides ``J`` and ``site_op``; a task
# takes none of the others
_ORACLE_TASKS = {
    "ed_ground": ("model",),
    "ed_spectrum": ("model", "k"),
    "gibbs": ("model", "beta"),
    "onsager": ("beta",),
    "brute_force": ("length", "beta"),
    "transfer_matrix": ("width", "beta"),
}


@dataclass(frozen=True, kw_only=True)
class OracleSettings(_RunSettings):
    """Brute-force reference computations."""

    task: str
    model: HamiltonianSpec | None = None
    beta: float | None = None
    J: float = 1.0
    k: int | None = None
    length: int | None = None
    width: int | None = None
    site_op: str = "sz"

    def __post_init__(self):
        super().__post_init__()
        if self.task not in _ORACLE_TASKS:
            raise ConfigError(f"unknown oracle task {self.task!r}", field="task")
        for name in ("model", "beta", "k", "length", "width"):
            needed = name in _ORACLE_TASKS[self.task]
            if needed == (getattr(self, name) is None):
                what = "missing required" if needed else f"the {self.task} task reads no"
                raise ConfigError(f"{what} field '{name}'", field=name)
        # the oracle functions apply the same rules
        if "model" in _ORACLE_TASKS[self.task]:
            check_dense_size(self.model.n_sites)
        if self.task == "ed_spectrum":
            check_spectrum(self.k, self.model.phys_dim**self.model.n_sites)
        elif self.task == "gibbs":
            check_gibbs(self.beta)
        elif self.task == "onsager":
            check_onsager(self.beta)
        elif self.task == "brute_force":
            check_brute_force(self.length)
        elif self.task == "transfer_matrix":
            check_transfer_matrix(self.width, self.beta)
        # only the gibbs task applies site_op to the model
        pauli_by_name(self.site_op, "site_op", self.model.phys_dim if self.task == "gibbs" else 2)


SETTINGS = {
    "dmrg": DmrgSettings,
    "tebd": TebdSettings,
    "thermal": ThermalSettings,
    "trg": TrgSettings,
    "oracle": OracleSettings,
}
SUBCOMMANDS = tuple(SETTINGS)


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved run of a (possibly scanned) config; ``settings`` is
    the typed settings object of its subcommand."""

    index: int
    settings: DmrgSettings | TebdSettings | ThermalSettings | TrgSettings | OracleSettings
    scan_values: dict


@dataclass(frozen=True)
class RunConfig:
    """A validated configuration: the subcommand, the raw mapping as loaded
    (the source of the config hash), and the scan-expanded, typed runs."""

    subcommand: str
    raw: dict
    runs: tuple[RunSpec, ...]


def parse_run_config(subcommand: str | None, path: str) -> RunConfig:
    """The config file at ``path``, read once and resolved into typed runs of
    ``subcommand``; a ``subcommand`` of None takes it from the 'run' field."""
    raw = load_config(path)
    if subcommand is None:
        subcommand = raw.get("run")
    return RunConfig(
        subcommand=subcommand, raw=raw, runs=tuple(resolve_runs(subcommand, raw))
    )


def _assign_dotted(settings: dict, path: str, value) -> None:
    parts = path.split(".")
    node = settings
    for part in parts[:-1]:
        if not isinstance(node.get(part), dict):
            raise ConfigError(f"scan path '{path}' does not exist", field=f"scan.{path}")
        node = node[part]
    if parts[-1] not in node:
        raise ConfigError(f"scan path '{path}' does not exist", field=f"scan.{path}")
    node[parts[-1]] = value


def resolve_runs(subcommand: str, cfg: dict) -> list[RunSpec]:
    """Expand scans and parse every resolved run into typed settings."""
    # SUBCOMMANDS is a tuple: a 'run' value that is a list or an object
    # compares unequal to every name instead of failing to hash
    if subcommand not in SUBCOMMANDS:
        raise ConfigError("config must name its subcommand in the 'run' field", "run")
    declared = cfg.get("run")
    if declared is not None and declared != subcommand:
        raise ConfigError(
            f"config is for '{declared}' but the '{subcommand}' subcommand was invoked",
            field="run",
        )
    scan = cfg.get("scan", {})
    if not isinstance(scan, dict):
        raise ConfigError("field 'scan' must be an object", field="scan")
    base = {k: v for k, v in cfg.items() if k not in ("run", "scan")}

    paths = sorted(scan)
    for path in paths:
        if not isinstance(scan[path], list) or not scan[path]:
            raise ConfigError(
                f"scan values for '{path}' must be a nonempty list", field=f"scan.{path}"
            )
    combos = itertools.product(*(scan[p] for p in paths)) if paths else [()]

    runs = []
    for index, combo in enumerate(combos):
        settings = copy.deepcopy(base)
        values = {}
        for path, value in zip(paths, combo):
            _assign_dotted(settings, path, value)
            values[path] = value
        typed = _typed(SETTINGS[subcommand], settings)
        runs.append(RunSpec(index=index, settings=typed, scan_values=values))
    return runs
