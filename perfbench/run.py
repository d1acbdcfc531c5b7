"""Benchmark of the tnkit command line on three batch workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see README.md for why each one is here):

    ising2d_flow  tnkit trg: 2D Ising at beta_c, max_bond 32, 7 steps each
                  of the plaquette (trg) and merging (hotrg) schemes
    dmrg_chain    tnkit dmrg: critical transverse-field Ising, 40 sites,
                  max_bond 32, sz/sx on every site, --checkpoint
    tebd_quench   tnkit tebd: transverse-field Ising, 14 sites, Neel start,
                  100 real-time steps of 0.05, max_bond 32, sz at 3 sites

The load is a closed loop with one client: one ``tnkit.cli.main`` call at
a time, each in a fresh interpreter (child.py), with ``--threads 1``, one
BLAS thread and a fixed hash seed. A call starts while a call of the
run's median length would still end within --seconds, and a run makes at
least two untraced calls. Every call's output is checked against an
independent reference after all timed calls have finished (workloads.py).

--trace 0 reports the end-to-end metrics: wall_per_gauge (median, over the
calls, of one cli.main call's time over the mean time of a fixed host
gauge timed at the end of the interpreter before and of the call's own
interpreter; see child.py), setup_s (median, over fresh interpreters, of
importing tnkit and its CLI and parsing the config), peak_rss_mb (median
peak resident set of the interpreters that ran a call). The median wall
time itself is printed with the summary.

--trace 1 alternates untraced calls with calls traced from outside the
package (tracer.py) and reports per-layer metrics from the traced calls,
plus the tracing overhead: median traced minus median untraced wall time.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The lines before it give every
metric with its unit, the reference error and failure fraction of the
run, and the machine fingerprint; a fuller report is written under
perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

from tracer import MATVEC, aggregate, count_under
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")

# A run must end within 180 s. No call starts unless the longest call so
# far still fits before LAST_END_S, every call is stopped there, and the
# checks after the calls take a few seconds.
LAST_END_S = 160.0
# untraced calls of a --trace 0 run, even when fewer fit in --seconds
MIN_CALLS = 2
MIN_SETUP_SAMPLES = 5
MIN_TRACED_CALLS = 2
# one BLAS thread on both sides of every comparison: the thread count changes
# which workload is fastest, and a single thread is steadier on a shared host.
# A fixed hash seed gives every interpreter the same dict and set layouts.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail_percentile(samples):
    """The highest percentile with at least ten samples beyond it, as
    (percent, value), or None when there are fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


class Runner:
    def __init__(self, spec: dict, cfg: dict, run_dir: str, t_start: float):
        self.spec = spec
        self.run_dir = run_dir
        self.t_start = t_start
        self.config_path = os.path.join(run_dir, "config.json")
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        self.env = dict(os.environ, **CHILD_ENV)
        self.n = 0
        self.longest = 0.0  # seconds, of any interpreter so far
        self.call_s = []  # seconds, of each interpreter that made a call
        self.last_gauge = None  # seconds, of the latest host gauge

    def fits(self) -> bool:
        return self.elapsed() + self.longest < LAST_END_S

    def typical_call(self) -> float:
        """Median lifetime of the interpreters that made a call so far."""
        return statistics.median(self.call_s) if self.call_s else 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def spawn(self, setup_only=False, traced=False) -> dict:
        """Run child.py once and return its record; 'ok' is False when the
        interpreter failed or was stopped at the deadline. Every interpreter
        times the host gauge at its end; a call's record gets the gauge
        timed before it (by the previous interpreter) and after it as
        'gauge_pair'."""
        self.n += 1
        tag = f"c{self.n:03d}"
        rec = {"tag": tag, "traced": traced, "setup_only": setup_only, "ok": False}
        cmd = [
            sys.executable,
            os.path.join(HERE, "child.py"),
            "--subcommand", self.spec["subcommand"],
            "--config", self.config_path,
            "--result", os.path.join(self.run_dir, tag + ".json"),
        ]
        if setup_only:
            cmd.append("--setup-only")
        else:
            rec["out"] = os.path.join(self.run_dir, tag)
            cmd += ["--out", rec["out"]]
            if self.spec["checkpoint"]:
                # a fresh path: dmrg warm-starts from an existing checkpoint
                rec["checkpoint"] = os.path.join(self.run_dir, tag + ".ckpt")
                cmd += ["--checkpoint", rec["checkpoint"]]
            if traced:
                rec["spans"] = os.path.join(self.run_dir, tag + ".spans.json")
                cmd += ["--trace", rec["spans"]]
        timeout = max(1.0, LAST_END_S - self.elapsed())
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                env=self.env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                timeout=timeout,
                text=True,
            )
        except subprocess.TimeoutExpired:
            # subprocess.run kills the child and waits for it before raising
            rec["error"] = f"stopped after {timeout:.0f} s"
            return rec
        finally:
            lifetime = time.perf_counter() - t0
            self.longest = max(self.longest, lifetime)
            if not setup_only:
                self.call_s.append(lifetime)
        if proc.returncode != 0:
            lines = proc.stderr.strip().splitlines()
            rec["error"] = lines[-1] if lines else f"exit code {proc.returncode}"
            return rec
        with open(os.path.join(self.run_dir, tag + ".json"), encoding="utf-8") as fh:
            rec.update(json.load(fh))
        rec["ok"] = setup_only or rec["exit_code"] == 0
        if not setup_only:
            rec["gauge_pair"] = [self.last_gauge, rec["gauge_s"]]
        self.last_gauge = rec["gauge_s"]
        if not rec["ok"]:
            rec["error"] = f"tnkit exited with {rec['exit_code']}"
        return rec


# ---------------------------------------------------------------------------
# per-layer metrics from one traced call
# ---------------------------------------------------------------------------


def layer_metrics(agg: dict, wall_s: float) -> dict:
    """Per-layer values of one traced call. Time is reported as a share of
    the traced call's wall time (self time over wall time), so a layer the
    workload never calls reads 0 as a ratio, not as a time."""
    stats, counters = agg["stats"], agg["counters"]

    def calls(name):
        return stats.get(name, {}).get("calls", 0)

    def self_frac(name):
        return stats.get(name, {}).get("self_s", 0.0) / wall_s

    def mean(key):
        n = counters.get(key + ".n", 0)
        return counters[key + ".sum"] / n if n else 0.0

    steps = counters.get("tebd.steps", 0)

    def per_step(name):
        # the gate sweep of each step, without the measurements made in it
        if not steps:
            return 0.0
        return count_under(agg, name, "tebd.evolve_gates", excluding="mps.expect_local") / steps

    return {
        "trg.trg_step.calls": calls("trg.trg_step"),
        "trg.trg_step.self_frac": self_frac("trg.trg_step"),
        "trg.hotrg_step.calls": calls("trg.hotrg_step"),
        "trg.hotrg_step.self_frac": self_frac("trg.hotrg_step"),
        "trg.kept_ratio": mean("trg.kept_ratio"),
        "dmrg.lanczos_ground.calls": calls("dmrg.lanczos_ground"),
        "dmrg.lanczos_ground.self_frac": self_frac("dmrg.lanczos_ground"),
        "dmrg.lanczos_ground.matvecs": calls(MATVEC),
        "dmrg.lanczos_ground.matvec_frac": stats.get(MATVEC, {}).get("total_s", 0.0) / wall_s,
        "dmrg.lanczos_ground.unconverged": counters.get("dmrg.lanczos_ground.unconverged", 0),
        "dmrg.sweeps": counters.get("dmrg.sweeps", 0),
        "tensor.svd_matrix.calls": calls("tensor.svd_matrix"),
        "tensor.svd_matrix.self_frac": self_frac("tensor.svd_matrix"),
        "tensor.svd_matrix.kept_ratio": mean("tensor.svd_matrix.kept_ratio"),
        "tensor.svd_matrix.bytes_in": counters.get("tensor.svd_matrix.bytes_in", 0),
        "tensor.qr_matrix.calls": calls("tensor.qr_matrix"),
        "tensor.qr_matrix.self_frac": self_frac("tensor.qr_matrix"),
        "tensor.rq_matrix.calls": calls("tensor.rq_matrix"),
        "tensor.rq_matrix.self_frac": self_frac("tensor.rq_matrix"),
        "mps.expect_local.calls": calls("mps.expect_local"),
        "mps.expect_local.self_frac": self_frac("mps.expect_local"),
        "mps.expect_local.qr_calls": count_under(agg, "tensor.qr_matrix", "mps.expect_local"),
        "mps.canonicalize.calls": calls("mps.canonicalize"),
        "mps.canonicalize.self_frac": self_frac("mps.canonicalize"),
        "tebd.evolve_gates.self_frac": self_frac("tebd.evolve_gates"),
        "tebd.build_trotter.self_frac": self_frac("tebd.build_trotter"),
        "tebd.qr_per_step": per_step("tensor.qr_matrix"),
        "tebd.svd_per_step": per_step("tensor.svd_matrix"),
        "mpo.build_mpo.self_frac": self_frac("mpo.build_mpo"),
        "mpo.expect_mpo.calls": calls("mpo.expect_mpo"),
        "mpo.expect_mpo.self_frac": self_frac("mpo.expect_mpo"),
        "checkpoint.checkpoint_write.calls": calls("checkpoint.checkpoint_write"),
        "checkpoint.checkpoint_write.self_frac": self_frac("checkpoint.checkpoint_write"),
        "checkpoint.checkpoint_write.bytes": counters.get("checkpoint.checkpoint_write.bytes", 0),
        "config.parse_run_config.self_frac": self_frac("config.parse_run_config"),
        "cli.main.self_frac": self_frac("cli.main"),
        "trace.spans": agg["n_spans"],
    }


def _is_exact(name: str) -> bool:
    """Counts and shape ratios repeat exactly between two traced calls of one
    seed; time shares do not."""
    return not name.endswith("_frac")


def load_metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and of the per-layer metrics, by name."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ---------------------------------------------------------------------------
# machine fingerprint
# ---------------------------------------------------------------------------


def fingerprint(load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "load_avg_at_start": list(load_at_start),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "child_env": CHILD_ENV,
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def main() -> int:
    t_start = time.perf_counter()
    # a stop request unwinds: subprocess.run then kills the running child and
    # waits for it, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    load_at_start = os.getloadavg()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "tnkit", "__init__.py")):
        print(f"perfbench: no tnkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    e2e_units, layer_units = load_metric_units()
    units = layer_units if args.trace else e2e_units

    spec = WORKLOADS[args.workload]
    cfg = spec["config"](args.seed)
    os.makedirs(WORK, exist_ok=True)
    run_dir = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return _run(args, spec, cfg, run_dir, t_start, load_at_start, units)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, spec, cfg, run_dir, t_start, load_at_start, units) -> int:
    runner = Runner(spec, cfg, run_dir, t_start)
    # first interpreter: compiles bytecode and fills the page cache; its set-up
    # time is discarded, its gauge is the one before the first call
    warm = runner.spawn(setup_only=True)
    if not warm.get("ok"):
        print(f"perfbench: set-up failed: {warm.get('error')}", file=sys.stderr)
        return 1

    calls = []
    loop_start = runner.elapsed()
    need_traced = MIN_TRACED_CALLS if args.trace else 0
    need_untraced = 1 if args.trace else MIN_CALLS
    while runner.fits():
        n_traced = sum(c["traced"] for c in calls)
        n_untraced = len(calls) - n_traced
        # a call starts while one of typical length still ends inside --seconds
        in_window = runner.elapsed() - loop_start + runner.typical_call() <= args.seconds
        if in_window:
            # traced calls alternate with untraced ones, the first untraced
            traced = bool(args.trace) and n_traced < n_untraced
        elif n_untraced < need_untraced:
            traced = False
        elif n_traced < need_traced:
            traced = True
        else:
            break
        calls.append(runner.spawn(traced=traced))
    setups = [c["setup_s"] for c in calls if "setup_s" in c]
    while len(setups) < MIN_SETUP_SAMPLES and runner.fits():
        extra = runner.spawn(setup_only=True)
        if extra.get("ok"):
            setups.append(extra["setup_s"])

    # ---- correctness, outside the timed region --------------------------
    sys.path.insert(0, os.path.join(ROOT, "src"))
    reference = spec["reference"](cfg)
    ref_errs = []
    for c in calls:
        if not c["ok"]:
            continue
        try:
            err, problems = spec["check"](cfg, c["out"], c.get("checkpoint"), reference)
        except Exception:  # a broken output fails its call, not the run
            err, problems = float("nan"), [traceback.format_exc(limit=2)]
        c["ref_err"] = float(err)
        if not math.isnan(err):
            ref_errs.append(float(err))
        if problems:
            c["ok"] = False
            c["error"] = "; ".join(problems)
    attempted = len(calls)
    failed = sum(not c["ok"] for c in calls)
    # metrics come from the calls that passed their check; when none did,
    # from those that finished, so a wrong program still gets a result line
    good = [c for c in calls if c["ok"]] or [c for c in calls if "wall_s" in c]
    untraced = [c for c in good if not c["traced"]]
    if not untraced:
        for c in calls:
            print(f"perfbench: call {c['tag']} failed: {c.get('error')}", file=sys.stderr)
        return 1

    walls = [c["wall_s"] for c in untraced]
    gauges = [statistics.mean(c["gauge_pair"]) for c in untraced]
    per_gauge = [w / g for w, g in zip(walls, gauges)]
    metrics = {
        "wall_per_gauge": _median(per_gauge),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in untraced]),
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "config": cfg,
        "machine": fingerprint(load_at_start),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "ref_err_max": max(ref_errs) if ref_errs else float("nan"),
        "ref_err_meaning": spec["ref_err"],
        "calls": [{k: v for k, v in c.items() if k not in ("out", "spans", "checkpoint")} for c in calls],
        "wall_s_samples": walls,
        "gauge_s_samples": gauges,
        "wall_per_gauge_samples": per_gauge,
        "setup_s_samples": setups,
        "end_to_end": metrics,
    }

    if args.trace:
        traced = [c for c in good if c["traced"]]
        if not traced:
            print("perfbench: every traced call failed", file=sys.stderr)
            return 1
        per_call = []
        self_s = []
        for c in traced:
            with open(c["spans"], encoding="utf-8") as fh:
                agg = aggregate(json.load(fh))
            per_call.append(layer_metrics(agg, c["wall_s"]))
            self_s.append({k: (v["calls"], v["self_s"]) for k, v in sorted(agg["stats"].items())})
        unrepeated = {
            k: [m[k] for m in per_call]
            for k in per_call[0]
            if _is_exact(k) and len({m[k] for m in per_call}) > 1
        }
        layer = {
            k: per_call[0][k] if k not in unrepeated and _is_exact(k) else _median([m[k] for m in per_call])
            for k in per_call[0]
        }
        traced_wall = _median([c["wall_s"] for c in traced])
        layer["trace.wall_s"] = traced_wall
        layer["trace.overhead_s"] = traced_wall - _median(walls)
        layer["trace.counters_unrepeated"] = len(unrepeated)
        report["per_layer"] = layer
        report["unrepeated_counters"] = unrepeated
        report["self_s_per_traced_call"] = self_s
        metrics = layer

    if set(metrics) != set(units):
        print(
            f"perfbench: metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}",
            file=sys.stderr,
        )
        return 1
    with open(os.path.join(WORK, f"report-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    _print_summary(report, metrics, units, args.trace)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_summary(report, metrics, units, trace):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {trace}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for name, unit in (("wall_per_gauge", "ratio"), ("wall_s", "s"), ("gauge_s", "s")):
        xs = report[name + "_samples"]
        tail = tail_percentile(xs)
        tail_txt = (
            f"p{tail[0]:.0f} {tail[1]:.4f} {unit}"
            if tail
            else "no percentile above the median has ten samples beyond it"
        )
        print(
            f"  {name:14s} {_median(xs):.4f} {unit}  median of n={len(xs)} "
            f"(min {min(xs):.4f}, max {max(xs):.4f}; {tail_txt})"
        )
    setups = report["setup_s_samples"]
    print(f"  setup_s        {_median(setups):.4f} s  median of n={len(setups)}")
    print(f"  peak_rss_mb    {report['end_to_end']['peak_rss_mb']:.1f} MB")
    print(
        f"  ref_err        {report['ref_err_max']:.3e} ({report['ref_err_meaning']}; "
        "largest over the checked calls)"
    )
    print(f"  failed_frac    {report['failed_frac']:.3f} ratio ({report['failed']}/{report['attempted']})")
    for c in report["calls"]:
        if not c["ok"]:
            print(f"  FAILED {c['tag']}: {c.get('error')}")
    if trace:
        for name in sorted(metrics):
            print(f"  {name:42s} {metrics[name]:.6g} {units[name]}")
        first = report["self_s_per_traced_call"][0]
        print("  first traced call, by self time: function, calls, self seconds")
        for name, (n, sec) in sorted(first.items(), key=lambda kv: -kv[1][1]):
            print(f"    {name:42s} {n:8d} {sec:.4f} s")
        if report["unrepeated_counters"]:
            print("  counters that differ between traced calls: " + json.dumps(report["unrepeated_counters"]))


if __name__ == "__main__":
    sys.exit(main())
