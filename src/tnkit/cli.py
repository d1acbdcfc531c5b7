"""Command-line driver.

Subcommands: dmrg, tebd, thermal, trg, oracle. Each takes --config (JSON
run configuration), --out (output directory), --threads (worker pool size
for scans) and --checkpoint (MPS state file, where it makes sense).

Outputs written to --out:
  results.jsonl  one canonical-JSON record per run: index, scan values,
                 config hash, code version and the numeric results. This
                 file is byte-identical across reruns of the same config.
  run.json       run-level metadata: config hash, version, wall times and
                 the machine fingerprint (CPU count, library versions,
                 BLAS, thread settings).
  summary.txt    human-readable digest, includes wall times.
  error.json     written instead of results on failure; for config errors
                 it names the offending field, and for a failed run its
                 index and scan values (a broken worker pool names the
                 earliest run without a result).

Exit codes: 0 success, 2 config error, 3 numerical failure (a checkpoint
that cannot be read or written, a failed allocation and an output file
that cannot be written count as one), 4 non-convergence. results.jsonl is
written last, after run.json and summary.txt, so it marks a complete
result set; a failed write removes the outputs already written.

Scans run in a bounded process pool (--threads). Workers return records
to the parent, which writes all files itself in run-index order, so the
output does not depend on the pool size or completion order.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import datetime
import itertools
import json
import os
import platform
import sys
import time

import numpy as np
import scipy

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .checkpoint import CheckpointError, checkpoint_read, checkpoint_write, write_atomic
from .config import (
    SETTINGS,
    SUBCOMMANDS,
    ConfigError,
    DmrgSettings,
    OracleSettings,
    RunSpec,
    TebdSettings,
    ThermalSettings,
    TrgSettings,
    _non_finite_path,
    parse_run_config,
)
from .dmrg import excited_state, ground_state
from .models import PAULI, bond_terms
from .mpo import build_mpo, expect_mpo
from .mps import expect_profile, norm, product_state
from .tebd import evolve, lift_mpo, lift_site_operator, thermal_state
from .tensor import GaussianStream
from .trg import coarse_grain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4


class NonConvergenceError(RuntimeError):
    """The run finished without meeting its convergence contract."""


def config_hash(cfg: dict) -> str:
    """SHA-256 of the config's canonical JSON, as hex. The digest comes
    from CPython's built-in module: ``hashlib`` would load OpenSSL's
    libcrypto, about 3.7 MB of resident memory, for this one hash."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()


def _pyify(value):
    if isinstance(value, dict):
        return {k: _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_pyify(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


# ---------------------------------------------------------------------------
# per-subcommand runners: each returns its record and final state (or None)
# ---------------------------------------------------------------------------


def _initial_state(kind: str, spec, seed: int, real: bool):
    """Product start state; ``random`` draws real vectors when ``real``,
    else complex ones."""
    d, n = spec.phys_dim, spec.n_sites
    if kind == "all_up":
        vecs = [np.eye(d)[0]] * n
    elif kind == "neel":
        vecs = [np.eye(d)[0 if i % 2 == 0 else d - 1] for i in range(n)]
    elif kind == "uniform":
        vecs = [np.full(d, 1.0 / np.sqrt(d))] * n
    else:
        rng = GaussianStream(seed)
        vecs = []
        for _ in range(n):
            v = rng.normal(size=d) if real else rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(v / np.linalg.norm(v))
    return product_state(vecs)


def _run_dmrg(s: DmrgSettings, warm):
    op = build_mpo(s.model)
    energy, psi, trace = ground_state(op, s, psi0=warm)
    if not trace.converged:
        raise NonConvergenceError(f"dmrg did not converge within {s.n_sweeps} sweeps")
    record = {
        "energy": energy,
        "n_sweeps": trace.n_sweeps,
        "sweep_energies": list(trace.sweep_energies),
        "unconverged_solves": trace.unconverged_solves,
        "lanczos_matvecs": trace.lanczos_matvecs,
        "sweep_matvecs": list(trace.sweep_matvecs),
        "bond_dims": list(psi.bond_dims),
        "warm_start": warm is not None,
    }
    states, energies = [psi], [energy]
    for k in range(s.n_excited):
        ek, pk, tk = excited_state(op, s, states)
        if not tk.converged:
            raise NonConvergenceError(f"excited level {k + 1} did not converge")
        states.append(pk)
        energies.append(ek)
        record["unconverged_solves"] += tk.unconverged_solves
        record["lanczos_matvecs"] += tk.lanczos_matvecs
    if len(energies) > 1:
        record["energies"] = energies
    obs = {}
    for name in s.observables:
        obs[name] = expect_profile(psi, PAULI[name]).real.tolist()
    if obs:
        record["observables"] = obs
    return record, psi


def _run_tebd(s: TebdSettings, warm):
    # imaginary-time gates of real bond terms are real, so a random start
    # needs no imaginary part
    real = s.imag and all(np.isrealobj(term) for term in bond_terms(s.model))
    psi0 = _initial_state(s.state, s.model, s.seed, real)
    watched = {f"{item.op}[{item.site}]": (item.site, PAULI[item.op]) for item in s.observables}
    psi, trace = evolve(psi0, s.model, s, watched)
    if trace.aborted:
        raise NonConvergenceError(
            "evolution aborted: per-step truncation loss exceeded abort_threshold"
        )
    record = {
        "times": list(trace.times),
        "observables": {name: [v.real for v in vs] for name, vs in trace.observables.items()},
        "discarded": list(trace.discarded),
        "norm": norm(psi),
        "energy": expect_mpo(psi, build_mpo(s.model)).real,
        "bond_dims": list(psi.bond_dims),
    }
    if s.imag:
        record["log_norms"] = list(trace.log_norms)
    return record, psi


def _run_thermal(s: ThermalSettings, warm):
    psi, ln_z, trace = thermal_state(s.model, s)
    energy = expect_mpo(psi, lift_mpo(build_mpo(s.model))).real
    record = {
        "beta": s.beta,
        "ln_z": ln_z,
        "energy": energy,
        "bond_dims": list(psi.bond_dims),
        "discarded": list(trace.discarded),
        "log_norms": list(trace.log_norms),
    }
    obs = {}
    d = s.model.phys_dim
    for name in s.observables:
        obs[name] = expect_profile(psi, lift_site_operator(PAULI[name], d)).real.tolist()
    if obs:
        record["observables"] = obs
    return record, psi


def _run_trg(s: TrgSettings, warm):
    # imported here: only the trg and oracle runners need the oracle
    from .oracle import onsager_f

    f, trace = coarse_grain(s.model, s)
    f_exact = onsager_f(s.model.beta, s.model.J)
    return {
        "beta": s.model.beta,
        "chi": s.max_bond,
        "iterations": s.n_iters,
        "f": f,
        "abs_err_onsager": abs(f - f_exact),
        "f_onsager": f_exact,
        **dataclasses.asdict(trace),
    }, None


def _run_oracle(s: OracleSettings, warm):
    from .oracle import (
        dense_gibbs,
        dense_hamiltonian,
        ed_ground,
        ed_spectrum,
        ising_brute_force,
        ising_transfer_matrix,
        onsager_f,
    )

    task = s.task
    if task == "ed_ground":
        e, _ = ed_ground(dense_hamiltonian(s.model))
        return {"task": task, "energy": e}, None
    if task == "ed_spectrum":
        levels, _ = ed_spectrum(dense_hamiltonian(s.model), s.k)
        return {"task": task, "energies": list(levels)}, None
    if task == "gibbs":
        g = dense_gibbs(dense_hamiltonian(s.model), s.beta, site_op=PAULI[s.site_op])
        return {
            "task": task,
            "beta": s.beta,
            "energy": g.energy,
            "ln_z": g.ln_z,
            "local": list(g.local),
        }, None
    if task == "onsager":
        return {"task": task, "beta": s.beta, "f": onsager_f(s.beta, s.J)}, None
    if task == "brute_force":
        z = ising_brute_force(s.length, s.beta, s.J)
        return {"task": task, "length": s.length, "beta": s.beta, "ln_z": float(np.log(z))}, None
    f = ising_transfer_matrix(s.width, s.beta, s.J)
    return {"task": task, "width": s.width, "beta": s.beta, "f": f}, None


_RUNNERS = {
    DmrgSettings: _run_dmrg,
    TebdSettings: _run_tebd,
    ThermalSettings: _run_thermal,
    TrgSettings: _run_trg,
    OracleSettings: _run_oracle,
}


def _execute_run(run: RunSpec, checkpoint: str | None, warm=None) -> tuple[dict, float]:
    t0 = time.perf_counter()
    record, state = _RUNNERS[type(run.settings)](run.settings, warm)
    record = _pyify(record)
    where = _non_finite_path(record, "result")
    if where is not None:
        raise RuntimeError(f"non-finite value in {where}")
    if checkpoint:  # only a run that passed the check replaces the file
        checkpoint_write(state, checkpoint)
    return record, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------


def _headline(subcommand: str, record: dict) -> str:
    if subcommand == "dmrg":
        return f"energy={record['energy']:.12g} sweeps={record['n_sweeps']}"
    if subcommand == "tebd":
        return f"t={record['times'][-1]:.6g} norm={record['norm']:.12g}"
    if subcommand == "thermal":
        return (
            f"beta={record['beta']:.6g} energy={record['energy']:.12g} "
            f"ln_z={record['ln_z']:.12g}"
        )
    if subcommand == "trg":
        return (
            f"beta={record['beta']:.6g} chi={record['chi']} f={record['f']:.12g} "
            f"err={record['abs_err_onsager']:.3e}"
        )
    pieces = [f"{k}={v:.12g}" for k, v in record.items() if isinstance(v, float)]
    return f"task={record['task']} " + " ".join(pieces)


# the settings that fix the BLAS thread count (and so the last bits of some
# results) and whether interpreters compile tnkit afresh
_MACHINE_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "PYTHONDONTWRITEBYTECODE",
)


def _machine(workers: int) -> dict:
    """The machine fingerprint of run.json; an unset variable is None."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": None, "version": None}
    machine = {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "env": {name: os.environ.get(name) for name in _MACHINE_ENV},
    }
    if workers > 1:
        machine["worker_blas"] = f"{workers} worker processes, each with its own BLAS thread pool"
    return machine


def _write_text(out_dir: str, name: str, text: str) -> None:
    write_atomic(os.path.join(out_dir, name), [text.encode("utf-8")])


def _fail(
    out_dir: str, kind: str, label: str, exc: Exception, code: int, run: RunSpec | None
) -> int:
    body = {"kind": kind, "message": str(exc)}
    if getattr(exc, "field", None) is not None:
        body["field"] = exc.field
    if run is not None:
        body["run"] = run.index
        body["scan"] = run.scan_values
        label = f"{label} in run {run.index}"
    try:
        _write_text(out_dir, "error.json", json.dumps({"error": body}, indent=2) + "\n")
    except OSError:
        pass
    print(f"tnkit: {label}: {exc}", file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnkit", description="Tensor-network toolkit command-line driver."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        s = sub.add_parser(name, help=SETTINGS[name].__doc__)
        s.add_argument("--config", required=True, help="path to the JSON run configuration")
        s.add_argument("--out", default=".", help="output directory, created if missing")
        s.add_argument("--threads", type=int, default=1, help="worker pool size for scans")
        s.add_argument(
            "--checkpoint",
            default=None,
            help="MPS checkpoint path: dmrg warm-starts from it when present and "
            "always writes the final state; tebd/thermal write the final state",
        )
    return parser


def _warm_start(subcommand: str, runs: tuple[RunSpec, ...], checkpoint: str | None):
    """Check --checkpoint before any run, so that a path that can never be
    written fails at once; return the dmrg start state from an existing
    file, else None."""
    if checkpoint is None:
        return None
    if subcommand in ("trg", "oracle"):
        raise ConfigError("--checkpoint applies only to dmrg, tebd and thermal", "--checkpoint")
    if len(runs) > 1:
        raise ConfigError("--checkpoint cannot be combined with a scan", "--checkpoint")
    if os.path.isdir(checkpoint):
        raise ConfigError(f"--checkpoint {checkpoint!r} is a directory", "--checkpoint")
    parent = os.path.dirname(checkpoint)
    if parent and not os.path.isdir(parent):
        raise ConfigError(f"--checkpoint directory {parent!r} does not exist", "--checkpoint")
    if subcommand != "dmrg" or not os.path.exists(checkpoint):
        return None
    psi = checkpoint_read(checkpoint)
    model = runs[0].settings.model
    if psi.phys_dims != (model.phys_dim,) * model.n_sites:
        raise ConfigError(
            f"checkpoint site dimensions {psi.phys_dims} do not match the model's "
            f"{model.n_sites} sites of dimension {model.phys_dim}",
            "--checkpoint",
        )
    if max(psi.bond_dims, default=1) > runs[0].settings.max_bond:
        raise ConfigError(f"checkpoint bonds {psi.bond_dims} exceed max_bond", "max_bond")
    return psi


def _drive(
    subcommand: str | None, config_path: str, out_dir: str, threads: int, checkpoint: str | None
) -> int:
    """Execute a config and write --out; a ``subcommand`` of None takes it
    from the config's 'run' field."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        # no output of an earlier run may survive beside the outcome of this one
        for name in ("results.jsonl", "run.json", "summary.txt", "error.json"):
            if os.path.exists(os.path.join(out_dir, name)):
                os.remove(os.path.join(out_dir, name))
    except OSError as exc:
        print(f"tnkit: cannot prepare output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    t_start = time.perf_counter()
    runs, outcomes, workers = (), None, 1

    def fail(kind, label, exc, code):
        # results arrive in run order, so once runs have started a failure
        # belongs to the earliest run without a result
        lost = runs[len(outcomes)] if outcomes is not None and len(outcomes) < len(runs) else None
        return _fail(out_dir, kind, label, exc, code, lost)

    try:
        rc = parse_run_config(subcommand, config_path)
        subcommand = rc.subcommand
        if threads < 1:
            raise ConfigError("--threads must be >= 1", field="--threads")
        runs = rc.runs
        warm = _warm_start(subcommand, runs, checkpoint)
        outcomes = []
        if threads == 1 or len(runs) == 1:
            for r in runs:
                outcomes.append(_execute_run(r, checkpoint, warm))
        else:
            workers = min(threads, len(runs))
            # imported here: with its logging import it costs about 4 ms of
            # a set-up, which a run on one process never repays
            import concurrent.futures

            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                for outcome in pool.map(_execute_run, runs, itertools.repeat(None)):
                    outcomes.append(outcome)
    except ConfigError as exc:
        return fail("config", "config error", exc, EXIT_CONFIG)
    except NonConvergenceError as exc:
        return fail("non_convergence", "non-convergence", exc, EXIT_NONCONVERGENCE)
    except CheckpointError as exc:
        return fail("checkpoint", "checkpoint error", exc, EXIT_NUMERICAL)
    except (ValueError, ArithmeticError, RuntimeError, MemoryError, np.linalg.LinAlgError) as exc:
        return fail("numerical", "numerical failure", exc, EXIT_NUMERICAL)
    wall_total = time.perf_counter() - t_start

    digest = config_hash(rc.raw)
    lines = []
    for spec, (record, _) in zip(runs, outcomes):
        line = {
            "index": spec.index,
            "run": subcommand,
            "scan": spec.scan_values,
            "config_hash": digest,
            "version": __version__,
            "result": record,
        }
        lines.append(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
    results = "".join(lines)

    run_meta = {
        "subcommand": subcommand,
        "version": __version__,
        "config_path": os.path.abspath(config_path),
        "config_hash": digest,
        "n_runs": len(runs),
        "threads": threads,
        "wall_time_s": wall_total,
        "per_run_wall_s": [w for (_, w) in outcomes],
        "finished_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "machine": _machine(workers),
    }

    lines = [
        f"tnkit {subcommand} (version {__version__})",
        f"config: {os.path.abspath(config_path)}",
        f"config hash: {digest}",
        f"runs: {len(runs)}  threads: {threads}",
    ]
    for spec, (record, w) in zip(runs, outcomes):
        scan_txt = (
            " ".join(f"{k}={v}" for k, v in spec.scan_values.items())
            if spec.scan_values
            else "-"
        )
        lines.append(
            f"run {spec.index}: {scan_txt}  {_headline(subcommand, record)}  [{w:.2f}s]"
        )
    lines.append(f"total wall time: {wall_total:.2f}s")
    # results.jsonl goes last, so that it marks a complete result set; a
    # failed write takes back what was already written
    written = []
    try:
        for name, text in (
            ("run.json", json.dumps(run_meta, indent=2) + "\n"),
            ("summary.txt", "\n".join(lines) + "\n"),
            ("results.jsonl", results),
        ):
            _write_text(out_dir, name, text)
            written.append(name)
    except OSError as exc:
        for name in written:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(out_dir, name))
        return fail("output", "cannot write outputs", exc, EXIT_NUMERICAL)

    print(f"ok: {len(runs)} run(s), results in {out_dir}")
    return EXIT_OK


def run(
    config_path: str,
    out_dir: str = ".",
    threads: int = 1,
    checkpoint: str | None = None,
) -> int:
    """Execute a config file start to finish and return the exit status.

    The subcommand comes from the config's 'run' field, which is required
    on this path (the command line supplies it as the subcommand instead).
    """
    return _drive(None, config_path, out_dir, threads, checkpoint)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _drive(args.subcommand, args.config, args.out, args.threads, args.checkpoint)


if __name__ == "__main__":
    sys.exit(main())
