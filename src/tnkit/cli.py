"""Command-line driver.

Subcommands: dmrg, tebd, thermal, trg, oracle. Each takes --config (JSON
run configuration), --out (output directory), --threads (worker pool size
for scans) and --checkpoint (MPS state file, where it makes sense).

Outputs written to --out:
  results.jsonl  one canonical-JSON record per run: index, scan values,
                 config hash, code version and the numeric results. This
                 file is byte-identical across reruns of the same config.
  run.json       run-level metadata: config hash, version, wall times.
  summary.txt    human-readable digest, includes wall times.
  error.json     written instead of results on failure; for config errors
                 it names the offending field.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 non-convergence.

Scans run in a bounded process pool (--threads). Workers return records
to the parent, which writes all files itself in run-index order, so the
output does not depend on the pool size or completion order.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import hashlib
import itertools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .checkpoint import CheckpointError, checkpoint_read, checkpoint_write
from .config import (
    ConfigError,
    RunSpec,
    chain_spec,
    classical_spec,
    load_config,
    parse_run_config,
)
from .dmrg import DmrgConfig, excited_state, ground_state
from .models import PAULI
from .mpo import build_mpo, expect_mpo
from .mps import expect_local, norm, product_state
from .oracle import (
    dense_gibbs,
    dense_hamiltonian,
    ed_ground,
    ed_spectrum,
    ising_brute_force,
    ising_transfer_matrix,
    onsager_f,
)
from .tebd import TebdConfig, evolve, lift_mpo, lift_site_operator, thermal_state
from .trg import coarse_grain

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NONCONVERGENCE = 4


class NonConvergenceError(RuntimeError):
    """The run finished without meeting its convergence contract."""


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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


def _check_finite(value, where="result"):
    if isinstance(value, dict):
        for k, v in value.items():
            _check_finite(v, f"{where}.{k}")
    elif isinstance(value, list):
        for i, v in enumerate(value):
            _check_finite(v, f"{where}[{i}]")
    elif isinstance(value, float) and not np.isfinite(value):
        raise RuntimeError(f"non-finite value in {where}")


# ---------------------------------------------------------------------------
# per-subcommand runners
# ---------------------------------------------------------------------------


def _initial_state(kind: str, spec, seed: int):
    d, n = spec.phys_dim, spec.n_sites
    if kind == "all_up":
        vecs = [np.eye(d)[0]] * n
    elif kind == "neel":
        vecs = [np.eye(d)[0 if i % 2 == 0 else d - 1] for i in range(n)]
    elif kind == "uniform":
        vecs = [np.full(d, 1.0 / np.sqrt(d))] * n
    else:
        rng = np.random.default_rng(seed)
        vecs = []
        for _ in range(n):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            vecs.append(v / np.linalg.norm(v))
    return product_state(vecs)


def _run_dmrg(settings: dict, checkpoint: str | None) -> dict:
    spec = chain_spec(settings)
    op = build_mpo(spec)
    cfg = DmrgConfig(
        max_bond=settings["max_bond"],
        n_sweeps=settings.get("n_sweeps", 30),
        tol=settings.get("tol", 1e-12),
        lanczos_max_iter=settings.get("lanczos_max_iter", 100),
        lanczos_tol=settings.get("lanczos_tol", 1e-12),
        noise=settings.get("noise", 0.0),
        seed=settings["seed"],
    )
    psi0 = None
    if checkpoint and os.path.exists(checkpoint):
        psi0 = checkpoint_read(checkpoint)
    energy, psi, trace = ground_state(op, cfg, psi0=psi0)
    if not trace.converged:
        raise NonConvergenceError(f"dmrg did not converge within {cfg.n_sweeps} sweeps")
    record = {
        "energy": energy,
        "n_sweeps": trace.n_sweeps,
        "sweep_energies": list(trace.sweep_energies),
        "bond_dims": list(psi.bond_dims),
        "warm_start": psi0 is not None,
    }
    states, energies = [psi], [energy]
    for k in range(settings.get("n_excited", 0)):
        ek, pk, tk = excited_state(
            op, cfg, states, penalty_weight=settings.get("penalty_weight", 10.0)
        )
        if not tk.converged:
            raise NonConvergenceError(f"excited level {k + 1} did not converge")
        states.append(pk)
        energies.append(ek)
    if len(energies) > 1:
        record["energies"] = energies
    obs = {}
    for name in settings.get("observables", []):
        obs[name] = [expect_local(psi, PAULI[name], i).real for i in range(spec.n_sites)]
    if obs:
        record["observables"] = obs
    if checkpoint:
        checkpoint_write(psi, checkpoint)
    return record


def _run_tebd(settings: dict, checkpoint: str | None) -> dict:
    spec = chain_spec(settings)
    cfg = TebdConfig(
        dt=settings["dt"],
        n_steps=settings["n_steps"],
        max_bond=settings["max_bond"],
        order=settings.get("order", 2),
        imag=settings.get("imag", False),
        rel_cutoff=settings.get("rel_cutoff", 0.0),
        abort_threshold=settings.get("abort_threshold", 1e-3),
    )
    psi0 = _initial_state(settings.get("state", "neel"), spec, settings["seed"])
    watchers = {}
    for item in settings.get("observables", []):
        op_m, site = PAULI[item["op"]], item["site"]
        name = item.get("name", f"{item['op']}[{site}]")

        def watcher(state, m=op_m, s=site):
            return expect_local(state, m, s).real

        watchers[name] = watcher
    psi, trace = evolve(psi0, spec, cfg, watchers)
    if trace.aborted:
        raise NonConvergenceError(
            "evolution aborted: per-step truncation loss exceeded abort_threshold"
        )
    record = {
        "times": list(trace.times),
        "observables": {k: list(v) for k, v in trace.observables.items()},
        "discarded": list(trace.discarded),
        "norm": norm(psi),
        "energy": expect_mpo(psi, build_mpo(spec)).real,
        "bond_dims": list(psi.bond_dims),
    }
    if cfg.imag:
        record["log_norms"] = list(trace.log_norms)
    if checkpoint:
        checkpoint_write(psi, checkpoint)
    return record


def _run_thermal(settings: dict, checkpoint: str | None) -> dict:
    spec = chain_spec(settings)
    psi, ln_z, _ = thermal_state(
        spec,
        settings["beta"],
        settings["dt"],
        settings["max_bond"],
        order=settings.get("order", 2),
        rel_cutoff=settings.get("rel_cutoff", 0.0),
    )
    energy = expect_mpo(psi, lift_mpo(build_mpo(spec))).real
    record = {
        "beta": settings["beta"],
        "ln_z": ln_z,
        "energy": energy,
        "bond_dims": list(psi.bond_dims),
    }
    obs = {}
    d = spec.phys_dim
    for name in settings.get("observables", []):
        lifted = lift_site_operator(PAULI[name], d)
        obs[name] = [expect_local(psi, lifted, i).real for i in range(spec.n_sites)]
    if obs:
        record["observables"] = obs
    if checkpoint:
        checkpoint_write(psi, checkpoint)
    return record


def _run_trg(settings: dict) -> dict:
    model = classical_spec(settings)
    method = settings.get("method", "trg")
    f, trace = coarse_grain(
        model,
        method=method,
        max_bond=settings["max_bond"],
        n_iters=settings["n_iters"],
        rel_cutoff=settings.get("rel_cutoff", 0.0),
    )
    f_exact = onsager_f(model.beta, model.J)
    return {
        "beta": model.beta,
        "chi": settings["max_bond"],
        "iterations": settings["n_iters"],
        "f": f,
        "abs_err_onsager": abs(f - f_exact),
        "f_onsager": f_exact,
        "method": method,
        "free_energies": list(trace.free_energies),
        "bond_dims": list(trace.bond_dims),
        "discarded": list(trace.discarded),
    }


def _run_oracle(settings: dict) -> dict:
    task = settings["task"]
    if task == "ed_ground":
        e, _ = ed_ground(dense_hamiltonian(chain_spec(settings)))
        return {"task": task, "energy": e}
    if task == "ed_spectrum":
        levels, _ = ed_spectrum(dense_hamiltonian(chain_spec(settings)), settings["k"])
        return {"task": task, "energies": list(levels)}
    if task == "gibbs":
        g = dense_gibbs(
            dense_hamiltonian(chain_spec(settings)),
            settings["beta"],
            site_op=PAULI[settings.get("site_op", "sz")],
        )
        return {
            "task": task,
            "beta": settings["beta"],
            "energy": g.energy,
            "ln_z": g.ln_z,
            "local": list(g.local),
        }
    if task == "onsager":
        beta = settings["beta"]
        return {"task": task, "beta": beta, "f": onsager_f(beta, settings.get("J", 1.0))}
    if task == "brute_force":
        length, beta = settings["length"], settings["beta"]
        z = ising_brute_force(length, beta, settings.get("J", 1.0))
        return {"task": task, "length": length, "beta": beta, "ln_z": float(np.log(z))}
    width, beta = settings["width"], settings["beta"]
    f = ising_transfer_matrix(width, beta, settings.get("J", 1.0))
    return {"task": task, "width": width, "beta": beta, "f": f}


def _execute_run(run: RunSpec, checkpoint: str | None) -> tuple[dict, float]:
    t0 = time.perf_counter()
    if run.subcommand == "dmrg":
        record = _run_dmrg(run.settings, checkpoint)
    elif run.subcommand == "tebd":
        record = _run_tebd(run.settings, checkpoint)
    elif run.subcommand == "thermal":
        record = _run_thermal(run.settings, checkpoint)
    elif run.subcommand == "trg":
        record = _run_trg(run.settings)
    else:
        record = _run_oracle(run.settings)
    record = _pyify(record)
    _check_finite(record)
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


def _write_error(out_dir: str, kind: str, message: str, field: str | None = None) -> None:
    body = {"kind": kind, "message": message}
    if field is not None:
        body["field"] = field
    try:
        with open(os.path.join(out_dir, "error.json"), "w", encoding="utf-8") as fh:
            json.dump({"error": body}, fh, indent=2)
            fh.write("\n")
    except OSError:
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnkit", description="Tensor-network toolkit command-line driver."
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, text in [
        ("dmrg", "variational ground and excited states of a chain model"),
        ("tebd", "real- or imaginary-time evolution of a chain model"),
        ("thermal", "purified Gibbs state of a chain model"),
        ("trg", "free energy of the 2D Ising model by coarse graining"),
        ("oracle", "brute-force reference computations"),
    ]:
        s = sub.add_parser(name, help=text)
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


def _drive(
    subcommand: str, config_path: str, out_dir: str, threads: int, checkpoint: str | None
) -> int:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"tnkit: cannot create output directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    stale = os.path.join(out_dir, "error.json")
    if os.path.exists(stale):
        os.remove(stale)

    t_start = time.perf_counter()
    try:
        rc = parse_run_config(subcommand, config_path)
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
        if checkpoint is not None:
            if subcommand in ("trg", "oracle"):
                raise ConfigError("--checkpoint applies only to dmrg, tebd and thermal")
            if len(rc.runs) > 1:
                raise ConfigError("--checkpoint cannot be combined with a scan")
    except ConfigError as exc:
        _write_error(out_dir, "config", str(exc), exc.field)
        print(f"tnkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    runs = rc.runs
    digest = config_hash(rc.raw)
    try:
        if threads == 1 or len(runs) == 1:
            outcomes = [_execute_run(r, checkpoint) for r in runs]
        else:
            workers = min(threads, len(runs))
            with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                outcomes = list(pool.map(_execute_run, runs, itertools.repeat(None)))
    except NonConvergenceError as exc:
        _write_error(out_dir, "non_convergence", str(exc))
        print(f"tnkit: non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except CheckpointError as exc:
        _write_error(out_dir, "checkpoint", str(exc))
        print(f"tnkit: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        _write_error(out_dir, "numerical", str(exc))
        print(f"tnkit: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    wall_total = time.perf_counter() - t_start

    results_path = os.path.join(out_dir, "results.jsonl")
    with open(results_path, "w", encoding="utf-8") as fh:
        for spec, (record, _) in zip(runs, outcomes):
            line = {
                "index": spec.index,
                "run": spec.subcommand,
                "scan": spec.scan_values,
                "config_hash": digest,
                "version": __version__,
                "result": record,
            }
            fh.write(json.dumps(line, sort_keys=True, separators=(",", ":")))
            fh.write("\n")

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
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(run_meta, fh, indent=2)
        fh.write("\n")

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
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")

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
    try:
        sub = load_config(config_path).get("run")
        if sub not in ("dmrg", "tebd", "thermal", "trg", "oracle"):
            raise ConfigError(
                "config must name its subcommand in the 'run' field", field="run"
            )
    except ConfigError as exc:
        try:
            os.makedirs(out_dir, exist_ok=True)
            _write_error(out_dir, "config", str(exc), exc.field)
        except OSError:
            pass
        print(f"tnkit: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return _drive(sub, config_path, out_dir, threads, checkpoint)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _drive(args.subcommand, args.config, args.out, args.threads, args.checkpoint)


if __name__ == "__main__":
    sys.exit(main())
