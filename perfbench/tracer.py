"""Outside-in tracer: spans around the public functions of tnkit's modules.

Nothing inside the package is edited. ``Tracer.install`` replaces every
module-level binding of a public function of the traced modules with a
wrapper that records a span. The package imports functions by name (for
example ``from .tensor import qr_matrix`` in ``mps``, ``dmrg`` and
``mpo``), so patching the defining module alone would miss those calls:
every ``tnkit.*`` module namespace that holds the same function object is
patched.

Spans are kept in memory as (name, start_ns, end_ns, parent index) and
written once, when the traced process ends. ``aggregate`` turns them into
per-function call counts, inclusive time and self time (a span's duration
minus the time its direct child spans cover).

A few functions also feed counters computed from their arguments and
results; see ``_HOOKS``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

TRACED_MODULES = ("tensor", "mps", "mpo", "dmrg", "tebd", "trg", "checkpoint", "config", "cli")

MATVEC = "dmrg.lanczos_ground.matvec"


def _shape_ratio_hook(tracer, args, result):
    """trg/hotrg step: new bond extent over the square of the old one, the
    share of the merged (chi^2) leg that the truncation keeps."""
    chi_in = max(args[0].tensor.shape)
    chi_out = max(result[0].tensor.shape)
    tracer.add("trg.kept_ratio.sum", chi_out / (chi_in * chi_in))
    tracer.add("trg.kept_ratio.n", 1)


def _svd_hook(tracer, args, result):
    m = args[0]
    tracer.add("tensor.svd_matrix.bytes_in", m.size * m.itemsize)
    tracer.add("tensor.svd_matrix.kept_ratio.sum", result[3].kept / min(m.shape))
    tracer.add("tensor.svd_matrix.kept_ratio.n", 1)


def _lanczos_hook(tracer, args, result):
    if not result[2]:
        tracer.add("dmrg.lanczos_ground.unconverged", 1)


def _ground_state_hook(tracer, args, result):
    tracer.add("dmrg.sweeps", result[2].n_sweeps)


def _evolve_gates_hook(tracer, args, result):
    tracer.add("tebd.steps", len(result[1].discarded))


def _checkpoint_hook(tracer, args, result):
    path = args[1] if len(args) > 1 else None
    if path is not None and os.path.exists(path):
        tracer.add("checkpoint.checkpoint_write.bytes", os.path.getsize(path))


_HOOKS = {
    "trg.trg_step": _shape_ratio_hook,
    "trg.hotrg_step": _shape_ratio_hook,
    "tensor.svd_matrix": _svd_hook,
    "dmrg.lanczos_ground": _lanczos_hook,
    "dmrg.ground_state": _ground_state_hook,
    "tebd.evolve_gates": _evolve_gates_hook,
    "checkpoint.checkpoint_write": _checkpoint_hook,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def add(self, key: str, amount) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _traced(self, name: str, fn, hook=None):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        # the matvec argument is the mpo environment contraction; time it too
        wraps_matvec = name == "dmrg.lanczos_ground"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if wraps_matvec:
                args = (self._traced(MATVEC, args[0]),) + args[1:]
            index = len(spans)
            spans.append([nid, 0, 0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def install(self) -> int:
        """Wrap the public functions of TRACED_MODULES at every tnkit binding.
        Returns the number of bindings replaced."""
        originals = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"tnkit.{short}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                originals[id(fn)] = self._traced(name, fn, _HOOKS.get(name))
        replaced = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "tnkit" or mod_name.startswith("tnkit.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    setattr(mod, attr, wrapper)
                    replaced += 1
        return replaced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counters": self.counters}, fh)


def aggregate(dump: dict) -> dict:
    """Per-name calls, inclusive seconds and self seconds, plus the counters.

    Also counts spans by name and set of ancestor names (``paths``), for
    ratios such as QRs per time step measured where the work happens.
    """
    names, spans = dump["names"], dump["spans"]
    child_ns = [0] * len(spans)
    for nid, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (nid, start, end, _) in enumerate(spans):
        s = stats.setdefault(names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        s["calls"] += 1
        s["total_s"] += (end - start) * 1e-9
        s["self_s"] += (end - start - child_ns[i]) * 1e-9
    # (name, ancestor names) -> spans; few distinct keys, so queries are cheap
    paths: dict[tuple, int] = {}
    for nid, _, _, parent in spans:
        ancestors = set()
        while parent >= 0:
            ancestors.add(names[spans[parent][0]])
            parent = spans[parent][3]
        key = (names[nid], frozenset(ancestors))
        paths[key] = paths.get(key, 0) + 1
    return {"stats": stats, "paths": paths, "counters": dump["counters"], "n_spans": len(spans)}


def count_under(agg: dict, name: str, ancestor: str, excluding: str | None = None) -> int:
    """Spans called ``name`` that ran beneath an ``ancestor`` span, not
    counting those that also ran beneath an ``excluding`` span."""
    return sum(
        n
        for (span, ancestors), n in agg["paths"].items()
        if span == name and ancestor in ancestors and excluding not in ancestors
    )
