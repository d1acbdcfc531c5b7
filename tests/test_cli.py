import builtins
import hashlib
import json
import os
import subprocess
import sys
import types
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import tnkit
from tnkit import cli, mps, trg
from tnkit.checkpoint import checkpoint_read, checkpoint_write
from tnkit.cli import (
    EXIT_CONFIG,
    EXIT_NONCONVERGENCE,
    EXIT_NUMERICAL,
    EXIT_OK,
    _initial_state,
    main,
    run,
)
from tnkit.dmrg import DmrgConfig, excited_state, ground_state
from tnkit.models import PAULI, ClassicalModelSpec, transverse_field_ising
from tnkit.mpo import build_mpo, expect_mpo
from tnkit.mps import expect_local, expect_profile, random_mps, to_dense
from tnkit.oracle import dense_gibbs, dense_hamiltonian, ed_ground, free_fermion_ground
from tnkit.tebd import (
    ThermalConfig,
    apply_gate,
    build_trotter,
    lift_mpo,
    lift_site_operator,
    thermal_state,
)
from tnkit.tensor import ConfigError, TruncationSpec
from tnkit.trg import CoarseGrainConfig, coarse_grain

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_every_export_resolves():
    assert len(set(tnkit.__all__)) == len(tnkit.__all__)
    for name in tnkit.__all__:
        assert hasattr(tnkit, name), name
    namespace = {}
    exec("from tnkit import *", namespace)
    assert set(tnkit.__all__) <= set(namespace)


def test_all_lists_every_public_name():
    # an export added to the package root but not to __all__, or the other
    # way round, fails here
    public = {
        name
        for name, value in vars(tnkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(tnkit.__all__) - {"__version__"}


def test_import_leaves_the_oracle_unloaded(tmp_path):
    # only the trg and oracle runners need the oracle and the scipy modules
    # it pulls in; every other run skips their import time
    src = str(Path(tnkit.__file__).resolve().parent.parent)
    code = (
        "import sys, tnkit.cli; "
        "print([m for m in ('tnkit.oracle', 'scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
    # a trg run computes its Onsager reference with numpy only; scipy's
    # integrate, optimize and special modules would cost it 0.25 s, and
    # its sparse modules another 30-45 ms
    cfg = {
        "run": "trg",
        "seed": 1,
        "model": {"name": "ising_2d", "beta": 0.4},
        "method": "trg",
        "max_bond": 4,
        "n_iters": 3,
        "scan": {"method": ["trg", "hotrg"]},
    }
    argv = ["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    code = (
        "import sys, tnkit.cli; "
        f"assert tnkit.cli.main({argv!r}) == 0; "
        "print([m for m in ('scipy.integrate', 'scipy.optimize', 'scipy.special', "
        "'scipy.sparse') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert len(_read_results(tmp_path / "out")) == 2


def test_no_run_loads_scipy_linalg(tmp_path):
    # scipy.linalg loads a second BLAS library, about 20 MB and 0.15 s per
    # process; dmrg's Ritz step runs on Python floats and numpy, so the
    # import, the parse of every subcommand and a run of each, dmrg ground
    # and excited states included, leave it unloaded
    src = str(Path(tnkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    parsed = {
        name: str(CONFIGS_DIR / f"{name}.json")
        for name in ("dmrg_tfi", "tebd_quench", "thermal_tfi", "trg_ising", "oracle_ed")
    }
    dmrg = {**json.loads((CONFIGS_DIR / "dmrg_tfi.json").read_text()), "max_bond": 8}
    dmrg["model"] = {**dmrg["model"], "n_sites": 8}
    excited = {**dmrg, "n_excited": 1}
    tebd = {**json.loads((CONFIGS_DIR / "tebd_quench.json").read_text()), "n_steps": 5}
    thermal = {**json.loads((CONFIGS_DIR / "thermal_tfi.json").read_text()), "beta": 0.1}
    trg_cfg = {**json.loads((CONFIGS_DIR / "trg_ising.json").read_text()), "n_iters": 3}
    del thermal["scan"], trg_cfg["scan"]
    runs = [
        [cfg["run"], "--config", _write_cfg(tmp_path, cfg, f"{name}.json"),
         "--out", str(tmp_path / name)]
        for name, cfg in (
            ("ground", dmrg), ("excited", excited), ("tebd", tebd), ("thermal", thermal),
            ("trg", trg_cfg),
        )
    ]
    code = f"""
import sys
import tnkit, tnkit.cli
loaded = lambda: "scipy.linalg" in sys.modules
assert not loaded(), "import"
for name, path in {parsed!r}.items():
    tnkit.parse_run_config(name.split("_")[0], path)
    assert not loaded(), name
for argv in {runs!r}:
    assert tnkit.cli.main(argv) == 0, argv
    assert not loaded(), argv[-1]
print(loaded())
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip().splitlines()[-1] == "False"
    for name in ("ground", "excited", "tebd", "thermal", "trg"):
        assert _read_results(tmp_path / name)
    assert len(_read_results(tmp_path / "excited")[0]["result"]["energies"]) == 2


def _write_cfg(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _read_results(out_dir):
    lines = (out_dir / "results.jsonl").read_text().strip().splitlines()
    return [json.loads(line) for line in lines]


def _dmrg_cfg(**over):
    cfg = {
        "run": "dmrg",
        "seed": 1,
        "model": {"name": "transverse_field_ising", "n_sites": 8, "J": 1.0, "h": 1.0},
        "max_bond": 16,
        "observables": ["sz"],
    }
    cfg.update(over)
    return cfg


_TFI4 = {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0}

# the config class of each algorithm, the required fields of a small run and
# its model
_ALGORITHM_RUNS = {
    "dmrg": (DmrgConfig, {"max_bond": 8}, _TFI4),
    "thermal": (ThermalConfig, {"beta": 0.5, "dt": 0.05, "max_bond": 8}, _TFI4),
    "trg": (CoarseGrainConfig, {"max_bond": 4, "n_iters": 2}, {"name": "ising_2d", "beta": 0.3}),
}


class TestDmrgRuns:
    def test_single_run_outputs(self, tmp_path):
        cfg = _dmrg_cfg()
        cfg_path = _write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["dmrg", "--config", cfg_path, "--out", str(out)]) == EXIT_OK

        records = _read_results(out)
        assert len(records) == 1
        rec = records[0]
        assert rec["index"] == 0 and rec["run"] == "dmrg" and rec["scan"] == {}
        canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert rec["config_hash"] == hashlib.sha256(canon.encode()).hexdigest()

        e_ref, _ = ed_ground(dense_hamiltonian(transverse_field_ising(8, 1.0, 1.0)))
        assert abs(rec["result"]["energy"] - e_ref) <= 1e-8 * abs(e_ref)
        assert len(rec["result"]["observables"]["sz"]) == 8
        assert rec["result"]["unconverged_solves"] == 0

        assert (out / "run.json").exists()
        assert (out / "summary.txt").exists()
        assert not (out / "error.json").exists()
        meta = json.loads((out / "run.json").read_text())
        assert meta["wall_time_s"] > 0 and meta["config_hash"] == rec["config_hash"]
        assert "wall" not in (out / "results.jsonl").read_text()

    def test_unconverged_local_solves_are_reported(self, tmp_path):
        # two Lanczos steps never meet the tolerance, yet the sweeps settle
        cfg = _dmrg_cfg(lanczos_max_iter=2)
        out = tmp_path / "out"
        assert main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        assert _read_results(out)[0]["result"]["unconverged_solves"] > 0

    def test_lanczos_matvecs_sum_over_all_searches(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, _dmrg_cfg(n_excited=1))
        assert main(["dmrg", "--config", cfg, "--out", str(out)]) == EXIT_OK
        op = build_mpo(transverse_field_ising(8, 1.0, 1.0))
        config = DmrgConfig(max_bond=16, seed=1)
        _, psi, ground = ground_state(op, config)
        _, _, excited = excited_state(op, config, [psi])
        assert ground.lanczos_matvecs > 0 and excited.lanczos_matvecs > 0
        want = ground.lanczos_matvecs + excited.lanczos_matvecs
        assert _read_results(out)[0]["result"]["lanczos_matvecs"] == want

    def test_sweep_matvecs_split_the_ground_search(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, _dmrg_cfg(n_excited=1))
        assert main(["dmrg", "--config", cfg, "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        op = build_mpo(transverse_field_ising(8, 1.0, 1.0))
        _, _, ground = ground_state(op, DmrgConfig(max_bond=16, seed=1))
        assert rec["sweep_matvecs"] == list(ground.sweep_matvecs)
        assert len(rec["sweep_matvecs"]) == len(rec["sweep_energies"]) == rec["n_sweeps"]
        # the record's lanczos_matvecs also counts the excited search
        assert sum(rec["sweep_matvecs"]) == ground.lanczos_matvecs < rec["lanczos_matvecs"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, _dmrg_cfg())
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["dmrg", "--config", cfg_path, "--out", str(out1)]) == EXIT_OK
        assert main(["dmrg", "--config", cfg_path, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()

    def test_scan_fans_out_and_threads_do_not_change_bytes(self, tmp_path):
        cfg = _dmrg_cfg(scan={"model.h": [0.6, 1.4]})
        del cfg["observables"]
        cfg_path = _write_cfg(tmp_path, cfg)
        serial, pooled = tmp_path / "serial", tmp_path / "pooled"
        assert main(["dmrg", "--config", cfg_path, "--out", str(serial)]) == EXIT_OK
        assert (
            main(["dmrg", "--config", cfg_path, "--out", str(pooled), "--threads", "2"])
            == EXIT_OK
        )
        records = _read_results(serial)
        assert [r["index"] for r in records] == [0, 1]
        assert [r["scan"]["model.h"] for r in records] == [0.6, 1.4]
        for r in records:
            h = r["scan"]["model.h"]
            e_ref, _ = ed_ground(dense_hamiltonian(transverse_field_ising(8, 1.0, h)))
            assert abs(r["result"]["energy"] - e_ref) <= 1e-8 * abs(e_ref)
        assert (serial / "results.jsonl").read_bytes() == (pooled / "results.jsonl").read_bytes()
        # each pool worker is its own interpreter with its own BLAS threads
        serial_meta = json.loads((serial / "run.json").read_text())
        pooled_meta = json.loads((pooled / "run.json").read_text())
        assert "worker_blas" not in serial_meta["machine"]
        assert "own BLAS thread pool" in pooled_meta["machine"]["worker_blas"]

    def test_run_json_records_the_machine(self, tmp_path, monkeypatch):
        import platform

        import scipy

        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        cfg_path = _write_cfg(tmp_path, _dmrg_cfg())
        out = tmp_path / "out"
        assert main(["dmrg", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        machine = json.loads((out / "run.json").read_text())["machine"]
        assert set(machine) == {"cpu_count", "python", "numpy", "scipy", "blas", "env"}
        assert machine["cpu_count"] == os.cpu_count()
        assert machine["python"] == platform.python_version()
        assert (machine["numpy"], machine["scipy"]) == (np.__version__, scipy.__version__)
        assert set(machine["blas"]) == {"name", "version"}
        assert machine["env"] == {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": None,
            "PYTHONDONTWRITEBYTECODE": "1",
        }
        # the fingerprint stays out of the byte-identical results
        text = (out / "results.jsonl").read_text()
        assert "cpu_count" not in text and "machine" not in text

    def test_checkpoint_round_trip_warm_start(self, tmp_path):
        cfg = _dmrg_cfg(model={"name": "transverse_field_ising", "n_sites": 12, "h": 1.0})
        cfg["max_bond"] = 32
        cfg_path = _write_cfg(tmp_path, cfg)
        ck = tmp_path / "state.mps"
        out1, out2 = tmp_path / "cold", tmp_path / "warm"
        assert (
            main(["dmrg", "--config", cfg_path, "--out", str(out1), "--checkpoint", str(ck)])
            == EXIT_OK
        )
        psi = checkpoint_read(str(ck))
        assert psi.n_sites == 12
        assert (
            main(["dmrg", "--config", cfg_path, "--out", str(out2), "--checkpoint", str(ck)])
            == EXIT_OK
        )
        cold = _read_results(out1)[0]["result"]
        warm = _read_results(out2)[0]["result"]
        assert not cold["warm_start"] and warm["warm_start"]
        assert warm["n_sweeps"] < cold["n_sweeps"]
        # the real model's checkpoint reads back real, so the warm start runs
        # real too; the pinned energy was measured in complex arithmetic
        assert all(a.dtype == np.float64 for a in psi.sites)
        assert all(a.dtype == np.float64 for a in checkpoint_read(str(ck)).sites)
        assert warm["energy"] == pytest.approx(-14.92597110990865, rel=1e-12, abs=0)

    def test_warm_start_from_a_smaller_bond_dimension_reaches_max_bond(self, tmp_path):
        # single-site sweeps never grow a bond, so the warm start's bonds are
        # padded to the profile of a cold start before the first sweep
        model = {"name": "transverse_field_ising", "n_sites": 24, "J": 1.0, "h": 1.0}
        small = _write_cfg(tmp_path, _dmrg_cfg(model=model, max_bond=4), "small.json")
        large = _write_cfg(tmp_path, _dmrg_cfg(model=model, max_bond=32), "large.json")
        ck = str(tmp_path / "state.mps")
        out_small, out_warm, out_cold = tmp_path / "small", tmp_path / "warm", tmp_path / "cold"
        assert main(["dmrg", "--config", small, "--out", str(out_small), "--checkpoint", ck]) == 0
        assert max(checkpoint_read(ck).bond_dims) == 4
        assert main(["dmrg", "--config", large, "--out", str(out_warm), "--checkpoint", ck]) == 0
        assert main(["dmrg", "--config", large, "--out", str(out_cold)]) == EXIT_OK
        warm = _read_results(out_warm)[0]["result"]
        cold = _read_results(out_cold)[0]["result"]
        assert warm["warm_start"]
        assert warm["bond_dims"] == cold["bond_dims"]
        exact = free_fermion_ground(24, 1.0, 1.0)
        assert warm["energy"] == pytest.approx(exact, rel=1e-12, abs=0)


class TestFailureModes:
    def test_malformed_config_names_field(self, tmp_path):
        cfg = {
            "run": "thermal",
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            "dt": 0.05,
            "max_bond": 8,
        }
        cfg_path = _write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["thermal", "--config", cfg_path, "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "beta"
        assert not (out / "results.jsonl").exists()

    def test_missing_seed_is_config_error(self, tmp_path):
        cfg = _dmrg_cfg()
        del cfg["seed"]
        out = tmp_path / "out"
        assert main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        assert json.loads((out / "error.json").read_text())["error"]["field"] == "seed"

    @pytest.mark.parametrize(
        "name, extra",
        [
            ("dmrg_tfi", {}),
            ("tebd_quench", {"state": "random"}),
            ("thermal_tfi", {}),
            ("trg_ising", {}),
            ("oracle_ed", {}),
        ],
    )
    def test_negative_seed_is_config_error(self, tmp_path, name, extra):
        # every subcommand applies the same rule, also those that never
        # draw from the seed; dmrg and a random tebd start used to hand it
        # to numpy and exit 3
        cfg = {**json.loads((CONFIGS_DIR / f"{name}.json").read_text()), **extra, "seed": -1}
        out = tmp_path / "out"
        code = main([cfg["run"], "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "seed"
        assert not (out / "results.jsonl").exists()

    def test_removed_noise_field_is_config_error(self, tmp_path):
        # dmrg's noise could not grow a bond and is gone; a config that
        # still sets it fails as an unknown field
        out = tmp_path / "out"
        cfg = _write_cfg(tmp_path, _dmrg_cfg(noise=1e-3))
        assert main(["dmrg", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "noise"
        assert not (out / "results.jsonl").exists()

    def test_subcommand_mismatch_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(["tebd", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_missing_config_file_is_config_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(["dmrg", "--config", str(tmp_path / "none.json"), "--out", str(out)])
        assert code == EXIT_CONFIG

    def test_checkpoint_with_scan_rejected(self, tmp_path):
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.5]})
        out = tmp_path / "out"
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
             "--checkpoint", str(tmp_path / "x.mps")]
        )
        assert code == EXIT_CONFIG

    def test_checkpoint_with_trg_rejected(self, tmp_path):
        cfg = {
            "run": "trg",
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 0.3},
            "max_bond": 4,
            "n_iters": 2,
        }
        out = tmp_path / "out"
        code = main(
            ["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
             "--checkpoint", str(tmp_path / "x.mps")]
        )
        assert code == EXIT_CONFIG

    def test_corrupt_checkpoint_is_numerical_failure(self, tmp_path):
        ck = tmp_path / "state.mps"
        ck.write_bytes(b"TNMPS1garbage")
        out = tmp_path / "out"
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out),
             "--checkpoint", str(ck)]
        )
        assert code == EXIT_NUMERICAL
        assert json.loads((out / "error.json").read_text())["error"]["kind"] == "checkpoint"

    @pytest.mark.parametrize("subcommand", ["dmrg", "tebd"])
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_checkpoint_path_is_config_error(
        self, tmp_path, monkeypatch, subcommand, where
    ):
        ck = tmp_path / "ck" if where == "directory" else tmp_path / "missing" / "state.mps"
        if where == "directory":
            ck.mkdir()
        cfg = _dmrg_cfg()
        if subcommand == "tebd":
            cfg = {
                "run": "tebd",
                "seed": 1,
                "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
                "dt": 0.05,
                "n_steps": 2,
                "max_bond": 8,
            }

        def no_run(*args, **kwargs):
            raise AssertionError("the checkpoint path must be rejected before any run")

        monkeypatch.setattr(cli, "_execute_run", no_run)
        out = tmp_path / "out"
        code = main(
            [subcommand, "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
             "--checkpoint", str(ck)]
        )
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "--checkpoint"
        assert not (out / "results.jsonl").exists()

    def test_checkpoint_write_failure_is_checkpoint_error(self, tmp_path, monkeypatch):
        def disk_full(path, data):
            raise OSError("no space left on device")

        # only the checkpoint write fails; the CLI's own files use its import
        monkeypatch.setattr("tnkit.checkpoint.write_atomic", disk_full)
        out = tmp_path / "out"
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out),
             "--checkpoint", str(tmp_path / "state.mps")]
        )
        assert code == EXIT_NUMERICAL
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "checkpoint" and "no space" in err["message"]
        assert not (out / "results.jsonl").exists()
        assert not (tmp_path / "state.mps").exists()

    @pytest.mark.parametrize("failing", ["results.jsonl", "run.json", "summary.txt"])
    def test_failed_output_write_leaves_no_partial_result_set(
        self, tmp_path, monkeypatch, capsys, failing
    ):
        # results.jsonl is written last and marks a complete run; a write
        # that fails takes back the outputs written before it and exits 3
        written = []
        write = cli._write_text

        def disk_full(out_dir, name, text):
            if name == failing:
                raise OSError(28, "No space left on device")
            write(out_dir, name, text)
            written.append(name)

        monkeypatch.setattr(cli, "_write_text", disk_full)
        out = tmp_path / "out"
        assert main(["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out)]) == (
            EXIT_NUMERICAL
        )
        assert sorted(os.listdir(out)) == ["error.json"]
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "output" and "No space" in err["message"]
        assert "run" not in err
        assert written[-1] == "error.json"
        assert "results.jsonl" not in written
        assert "cannot write outputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, extra",
        [
            ("dmrg", {}),
            ("tebd", {"dt": 0.05, "n_steps": 2}),
            ("thermal", {"beta": 0.5, "dt": 0.05}),
        ],
    )
    def test_failed_run_keeps_its_checkpoint(self, tmp_path, monkeypatch, subcommand, extra):
        # the final state replaces the checkpoint only after the record has
        # passed the finite check
        ck = tmp_path / "state.mps"
        checkpoint_write(random_mps((2,) * 4, 2, np.random.default_rng(0)), str(ck))
        before = ck.read_bytes()
        nan = float("nan")
        if subcommand == "dmrg":
            monkeypatch.setattr(
                cli, "ground_state", lambda op, s, psi0: (nan, *ground_state(op, s, psi0)[1:])
            )
        else:
            monkeypatch.setattr(cli, "expect_mpo", lambda psi, op: complex(nan))
        cfg = {"run": subcommand, "seed": 1, "model": _TFI4, "max_bond": 8, **extra}
        out = tmp_path / "out"
        code = main(
            [subcommand, "--config", _write_cfg(tmp_path, cfg), "--out", str(out),
             "--checkpoint", str(ck)]
        )
        assert code == EXIT_NUMERICAL
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "numerical" and "result.energy" in err["message"]
        assert not (out / "results.jsonl").exists()
        assert ck.read_bytes() == before

    @pytest.mark.parametrize(
        "subcommand, field, bad",
        [
            ("thermal", "beta", -0.5),
            ("thermal", "dt", 0.0),
            ("thermal", "order", 3),
            ("thermal", "max_bond", 0),
            ("thermal", "rel_cutoff", 1.0),
            ("trg", "method", "ctmrg"),
            ("trg", "n_iters", 0),
            ("trg", "max_bond", 0),
            ("trg", "rel_cutoff", 1.5),
            ("dmrg", "penalty_weight", 0.0),
        ],
    )
    def test_algorithm_rule_names_its_field(self, tmp_path, subcommand, field, bad):
        # the library config class and a CLI config break the same rule
        config_cls, required, model = _ALGORITHM_RUNS[subcommand]
        with pytest.raises(ConfigError) as err:
            config_cls(**{**required, field: bad})
        assert err.value.field == field
        cfg = {"run": subcommand, "seed": 1, "model": model, **required, field: bad}
        out = tmp_path / "out"
        code = main([subcommand, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == field

    @pytest.mark.parametrize(
        "exc", [MemoryError(), BrokenProcessPool("a worker died")], ids=["memory", "broken-pool"]
    )
    def test_resource_failure_is_numerical_failure(self, tmp_path, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "_execute_run", fail)
        out = tmp_path / "out"
        code = main(["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert json.loads((out / "error.json").read_text())["error"]["kind"] == "numerical"
        assert not (out / "results.jsonl").exists()

    def test_failed_run_of_a_scan_is_named(self, tmp_path, monkeypatch, capsys):
        def second_fails(run, checkpoint, warm=None):
            if run.index == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return {"energy": 0.0, "n_sweeps": 1}, 0.0

        monkeypatch.setattr(cli, "_execute_run", second_fails)
        out = tmp_path / "out"
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.0, 1.5]})
        code = main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "numerical"
        assert err["run"] == 1 and err["scan"] == {"model.h": 1.0}
        assert "in run 1" in capsys.readouterr().err
        assert not (out / "results.jsonl").exists()

    def test_broken_pool_names_the_earliest_run_without_a_result(self, tmp_path, monkeypatch):
        # a stand-in for the process pool: it yields run 0's result, then
        # reports the pool broken, as it does for every pending run once a
        # worker dies; no process is started
        class BrokenAfterFirst:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, runs, checkpoints):
                yield {"energy": 0.0, "n_sweeps": 1}, 0.0
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", BrokenAfterFirst)
        out = tmp_path / "out"
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.0, 1.5]})
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out), "--threads", "2"]
        )
        assert code == EXIT_NUMERICAL
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "numerical" and "worker died" in err["message"]
        assert err["run"] == 1 and err["scan"] == {"model.h": 1.0}

    def test_failure_before_any_run_names_no_run(self, tmp_path):
        out = tmp_path / "out"
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.0]})
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out), "--threads", "0"]
        )
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "--threads" and "run" not in err and "scan" not in err

    @pytest.mark.parametrize(
        "cfg",
        [
            {
                "run": "tebd",
                "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
                "dt": 0.05,
                "n_steps": 2,
                "max_bond": 8,
            },
            {
                "run": "thermal",
                "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
                "beta": 0.5,
                "dt": 0.05,
                "max_bond": 8,
            },
            {"run": "trg", "model": {"name": "ising_2d", "beta": 0.3}, "max_bond": 4, "n_iters": 2},
        ],
        ids=["tebd", "thermal", "trg"],
    )
    @pytest.mark.parametrize("rel_cutoff", [1.0, 2.5])
    def test_rel_cutoff_of_one_or_more_is_config_error(self, tmp_path, cfg, rel_cutoff):
        cfg = {**cfg, "seed": 1, "rel_cutoff": rel_cutoff}
        out = tmp_path / "out"
        code = main([cfg["run"], "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "rel_cutoff"

    @pytest.mark.parametrize(
        "text, field",
        [
            ('"dt": NaN', "dt"),
            ('"dt": 1e999', "dt"),
            ('"dt": -Infinity', "dt"),
            ('"dt": 0.05, "scan": {"model.h": [0.5, Infinity]}', "scan.model.h[1]"),
        ],
        ids=["nan", "overflowing-literal", "infinity", "in-scan-list"],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, text, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"run": "tebd", "seed": 1, "n_steps": 2, "max_bond": 8, '
            '"model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0}, '
            + text + "}"
        )
        out = tmp_path / "out"
        assert main(["tebd", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == field

    def test_thermal_infinite_beta_is_config_error(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"run": "thermal", "seed": 1, "beta": Infinity, "dt": 0.05, "max_bond": 8, '
            '"model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0}}'
        )
        out = tmp_path / "out"
        assert main(["thermal", "--config", str(cfg_path), "--out", str(out)]) == EXIT_CONFIG
        assert json.loads((out / "error.json").read_text())["error"]["field"] == "beta"

    def test_warm_start_checkpoint_wider_than_max_bond_is_config_error(self, tmp_path):
        ck = tmp_path / "state.mps"
        checkpoint_write(random_mps((2,) * 8, 8, np.random.default_rng(0)), str(ck))
        out = tmp_path / "out"
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg(max_bond=4)), "--out", str(out),
             "--checkpoint", str(ck)]
        )
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "max_bond"

    @pytest.mark.parametrize("phys_dims", [(2,) * 6, (3,) * 8], ids=["6-sites", "d3"])
    def test_warm_start_checkpoint_from_another_lattice_is_config_error(
        self, tmp_path, phys_dims
    ):
        # such a checkpoint used to reach the search and exit 3 as a
        # numerical failure
        ck = tmp_path / "state.mps"
        checkpoint_write(random_mps(phys_dims, 2, np.random.default_rng(0)), str(ck))
        out = tmp_path / "out"
        code = main(
            ["dmrg", "--config", _write_cfg(tmp_path, _dmrg_cfg()), "--out", str(out),
             "--checkpoint", str(ck)]
        )
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "--checkpoint"
        assert not (out / "results.jsonl").exists()

    def test_more_excited_states_than_levels_is_config_error(self, tmp_path):
        # 3 sites have 8 levels; asking for 10 used to exit 0 and list the
        # ground and first levels again at the end of its energies
        cfg = _dmrg_cfg(model={"name": "transverse_field_ising", "n_sites": 3, "h": 1.0})
        for n_excited, code in ((7, EXIT_OK), (8, EXIT_CONFIG), (9, EXIT_CONFIG)):
            out = tmp_path / f"out{n_excited}"
            cfg_path = _write_cfg(tmp_path, {**cfg, "n_excited": n_excited})
            assert main(["dmrg", "--config", cfg_path, "--out", str(out)]) == code
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "n_excited"
        assert not (out / "results.jsonl").exists()

    def test_unconverged_dmrg_exits_nonconvergence(self, tmp_path):
        # the 40-site critical chain stops after its third sweep (test_dmrg),
        # so two sweeps at the default tol are one too few
        chain = {"name": "transverse_field_ising", "n_sites": 40, "J": 1.0, "h": 1.0}
        for name, cfg in [
            ("tol0", _dmrg_cfg(n_sweeps=1, tol=0.0)),
            ("short", _dmrg_cfg(seed=12, model=chain, max_bond=32, n_sweeps=2)),
        ]:
            out = tmp_path / name
            code = main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
            assert code == EXIT_NONCONVERGENCE
            err = json.loads((out / "error.json").read_text())["error"]
            assert err["kind"] == "non_convergence"
            assert not (out / "results.jsonl").exists()

    def test_aborted_evolution_exits_nonconvergence(self, tmp_path):
        cfg = {
            "run": "tebd",
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 8, "h": 1.0},
            "state": "neel",
            "dt": 0.1,
            "n_steps": 40,
            "max_bond": 2,
            "abort_threshold": 1e-12,
        }
        out = tmp_path / "out"
        code = main(["tebd", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NONCONVERGENCE

    def test_overflow_is_numerical_failure(self, tmp_path):
        cfg = {"run": "oracle", "seed": 1, "task": "brute_force", "length": 3, "beta": 1e6}
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            code = main(["oracle", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        assert json.loads((out / "error.json").read_text())["error"]["kind"] == "numerical"

    @pytest.mark.parametrize("method", ["trg", "hotrg"])
    @pytest.mark.parametrize("where", ["closure", "coarse tensor"])
    def test_non_finite_flow_is_numerical_failure(self, tmp_path, monkeypatch, method, where):
        # one NaN in a step's coarse tensor or in the torus closure stops the
        # flow before an f of NaN can reach results.jsonl
        nan = float("nan")
        if where == "closure":
            monkeypatch.setattr(trg, "torus_trace", lambda state: nan)
        else:
            rescaled = trg._rescaled

            def poisoned(tensor, *args):
                tensor[(0,) * tensor.ndim] = nan
                return rescaled(tensor, *args)

            monkeypatch.setattr(trg, "_rescaled", poisoned)
        cfg = {
            "run": "trg",
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 0.4},
            "method": method,
            "max_bond": 4,
            "n_iters": 3,
        }
        out = tmp_path / "out"
        code = main(["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NUMERICAL
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "numerical"
        assert ("torus closure is nan" if where == "closure" else "not finite") in err["message"]
        assert not (out / "results.jsonl").exists()

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"task": "brute_force", "length": 5, "beta": 0.3}, "length"),
            ({"task": "transfer_matrix", "width": 13, "beta": 0.3}, "width"),
            ({"task": "transfer_matrix", "width": 4, "beta": 0.0}, "beta"),
            ({"task": "onsager", "beta": -0.2}, "beta"),
            ({"task": "gibbs", "beta": -1.0, "model": {"name": "heisenberg_xxz", "n_sites": 3}},
             "beta"),
            ({"task": "ed_spectrum", "k": 8, "model": {"name": "heisenberg_xxz", "n_sites": 3}},
             "k"),
            ({"task": "ed_ground", "model": {"name": "heisenberg_xxz", "n_sites": 15}},
             "model.n_sites"),
            # a field that the task does not read
            ({"task": "ed_ground", "model": _TFI4, "k": 3}, "k"),
            ({"task": "ed_ground", "model": _TFI4, "beta": 0.7}, "beta"),
            ({"task": "ed_ground", "model": _TFI4, "width": 5}, "width"),
            ({"task": "ed_spectrum", "model": _TFI4, "k": 3, "length": 2}, "length"),
            ({"task": "gibbs", "model": _TFI4, "beta": 0.5, "k": 2}, "k"),
            ({"task": "onsager", "beta": 0.3,
              "model": {"name": "transverse_field_ising", "n_sites": 40}}, "model"),
            ({"task": "brute_force", "length": 3, "beta": 0.3, "width": 4}, "width"),
            ({"task": "transfer_matrix", "width": 4, "beta": 0.3, "length": 3}, "length"),
        ],
        ids=["brute-force-length", "transfer-width", "transfer-beta", "onsager-beta",
             "gibbs-beta", "spectrum-k", "dense-n-sites", "unread-ground-k",
             "unread-ground-beta", "unread-ground-width", "unread-spectrum-length",
             "unread-gibbs-k", "unread-onsager-model", "unread-brute-force-width",
             "unread-transfer-length"],
    )
    def test_oracle_limit_is_config_error(self, tmp_path, extra, field):
        cfg = {"run": "oracle", "seed": 1, **extra}
        out = tmp_path / "out"
        assert main(["oracle", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == field

    @pytest.mark.parametrize(
        "model, field",
        [
            ({"name": "transverse_field_ising", "n_sites": 1, "h": 1.0}, "model.n_sites"),
            ({"name": "custom_nn", "n_sites": 4, "two_site": [[0, 1, 0, 0]] * 4},
             "model.two_site"),
            ({"name": "custom_nn", "n_sites": 4, "two_site": np.eye(3).tolist()},
             "model.two_site"),
            ({"name": "custom_nn", "n_sites": 4, "two_site": np.eye(4).tolist(),
              "one_site": np.eye(3).tolist()}, "model.one_site"),
            ({"name": "custom_nn", "n_sites": 4, "two_site": np.eye(4).tolist(),
              "one_site": [[0, 1], [0, 0]]}, "model.one_site"),
        ],
        ids=["n-sites", "two-site-hermiticity", "two-site-shape", "one-site-shape",
             "one-site-hermiticity"],
    )
    def test_model_error_names_its_field(self, tmp_path, model, field):
        cfg = {"run": "tebd", "seed": 1, "model": model, "dt": 0.05, "n_steps": 2, "max_bond": 4}
        out = tmp_path / "out"
        assert main(["tebd", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == field

    @pytest.mark.parametrize("coupling", [0.0, -0.5, -1.0])
    def test_trg_coupling_that_is_not_ferromagnetic_is_config_error(self, tmp_path, coupling):
        cfg = {
            "run": "trg",
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 0.4, "J": coupling},
            "max_bond": 4,
            "n_iters": 2,
        }
        out = tmp_path / "out"
        assert main(["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "model.J"

    @pytest.mark.parametrize(
        "subcommand, extra, field",
        [
            ("dmrg", {"max_bond": 8, "observables": ["sz"]}, "observables[0]"),
            ("tebd", {"dt": 0.05, "n_steps": 2, "max_bond": 8,
                      "observables": [{"op": "sx", "site": 1}]}, "observables[0].op"),
            ("thermal", {"beta": 0.5, "dt": 0.05, "max_bond": 8, "observables": ["sz"]},
             "observables[0]"),
            ("oracle", {"task": "gibbs", "beta": 0.5}, "site_op"),
        ],
        ids=["dmrg", "tebd", "thermal", "oracle-gibbs"],
    )
    def test_pauli_observable_on_sites_that_are_not_spin_half_is_config_error(
        self, tmp_path, subcommand, extra, field
    ):
        # a spin-1 chain: the Pauli matrices do not act on its sites
        two_site = np.kron(np.diag([1.0, 0.0, -1.0]), np.diag([1.0, 0.0, -1.0]))
        model = {"name": "custom_nn", "n_sites": 3, "two_site": two_site.tolist()}
        cfg = {"run": subcommand, "seed": 1, "model": model, **extra}
        out = tmp_path / "out"
        code = main([subcommand, "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == field
        assert "spin-1/2" in err["message"]

    def test_stale_error_record_is_cleared(self, tmp_path):
        out = tmp_path / "out"
        bad = _dmrg_cfg()
        del bad["seed"]
        assert main(["dmrg", "--config", _write_cfg(tmp_path, bad, "bad.json"), "--out", str(out)]) == EXIT_CONFIG
        assert (out / "error.json").exists()
        good = _write_cfg(tmp_path, _dmrg_cfg(), "good.json")
        assert main(["dmrg", "--config", good, "--out", str(out)]) == EXIT_OK
        assert not (out / "error.json").exists()
        # a failed rerun leaves only its own error record
        bad_path = str(tmp_path / "bad.json")
        assert main(["dmrg", "--config", bad_path, "--out", str(out)]) == EXIT_CONFIG
        assert sorted(p.name for p in out.iterdir()) == ["error.json"]


class TestOtherSubcommands:
    def test_tebd_quench_record(self, tmp_path):
        cfg = {
            "run": "tebd",
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 6, "h": 1.0},
            "state": "neel",
            "dt": 0.05,
            "n_steps": 10,
            "max_bond": 32,
            # two operators on one site, a repeated watcher, and sites on
            # both sides of the center (it alternates between the two ends)
            "observables": [
                {"op": "sz", "site": 2},
                {"op": "sx", "site": 2},
                {"op": "sz", "site": 5},
                {"op": "sz", "site": 2},
                {"op": "sy", "site": 0},
                {"op": "sx", "site": 4},
            ],
        }
        out = tmp_path / "out"
        assert main(["tebd", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        assert len(rec["times"]) == 11
        assert rec["times"][-1] == pytest.approx(0.5)
        assert len(rec["observables"]["sz[2]"]) == 11
        assert rec["observables"]["sz[2]"][0] == pytest.approx(1.0)
        assert rec["norm"] == pytest.approx(1.0, abs=1e-8)
        # every series is expect_local on a full-rank state evolved by
        # all three layers of every step, nothing fused or owed
        spec = transverse_field_ising(6, 1.0, 1.0)
        scheme = build_trotter(spec, 0.05, order=2, imag=False)
        psi = _initial_state("neel", spec, 1, False)
        want = {name: [] for name in rec["observables"]}
        for step in range(11):
            if step:
                for layer in scheme.layers:
                    for gate in layer:
                        psi, _ = apply_gate(psi, gate.bond, gate.matrix, TruncationSpec(32))
            for item in cfg["observables"]:
                name = f"{item['op']}[{item['site']}]"
                value = expect_local(psi, PAULI[item["op"]], item["site"]).real
                if len(want[name]) == step:  # a repeated watcher records once
                    want[name].append(value)
        assert sorted(rec["observables"]) == sorted(want)
        for name, series in want.items():
            np.testing.assert_allclose(rec["observables"][name], series, rtol=0, atol=1e-12)

    def test_every_watched_site_is_one_walk_per_step(self, tmp_path, monkeypatch):
        # every measurement carries the environment at most across the
        # chain once, not from each watched site to the center
        n, n_steps = 14, 3
        closes = []
        for name in ("_close_left", "_close_right"):
            real = getattr(mps, name)
            monkeypatch.setattr(mps, name, lambda a, t, real=real: closes.append(1) or real(a, t))
        counts = []
        for observables in ([], [{"op": "sz", "site": k} for k in range(n)]):
            cfg = {
                "run": "tebd",
                "seed": 1,
                "model": {"name": "transverse_field_ising", "n_sites": n, "h": 1.0},
                "state": "neel",
                "dt": 0.05,
                "n_steps": n_steps,
                "max_bond": 8,
                "observables": observables,
            }
            closes.clear()
            out = tmp_path / f"out{len(observables)}"
            path = _write_cfg(tmp_path, cfg, f"cfg{len(observables)}.json")
            assert main(["tebd", "--config", path, "--out", str(out)]) == EXIT_OK
            counts.append(len(closes))
        assert (counts[1] - counts[0]) / (n_steps + 1) <= n - 1

    def test_imaginary_time_from_random_state_stays_real(self, tmp_path):
        cfg = {
            "run": "tebd",
            "seed": 3,
            "model": {"name": "transverse_field_ising", "n_sites": 6, "h": 1.0},
            "state": "random",
            "imag": True,
            "dt": 0.05,
            "n_steps": 10,
            "max_bond": 16,
        }
        out, ck = tmp_path / "out", tmp_path / "state.mps"
        cfg_path = _write_cfg(tmp_path, cfg)
        assert main(["tebd", "--config", cfg_path, "--out", str(out), "--checkpoint", str(ck)]) == 0
        assert all(site.dtype == np.float64 for site in checkpoint_read(str(ck)).sites)
        # real time keeps the complex draw, in its order
        rng = np.random.default_rng(3)
        want = np.ones(1)
        for _ in range(6):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            want = np.kron(want, v / np.linalg.norm(v))
        psi = _initial_state("random", transverse_field_ising(6, 1.0, 1.0), 3, False)
        np.testing.assert_allclose(to_dense(psi), want, rtol=0, atol=1e-14)
        cfg.update(imag=False, observables=[{"op": "sz", "site": 2}])
        cfg_path = _write_cfg(tmp_path, cfg, "real_time.json")
        assert main(["tebd", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
        sz_start = _read_results(out)[0]["result"]["observables"]["sz[2]"][0]
        assert sz_start == pytest.approx(expect_local(psi, PAULI["sz"], 2).real, abs=1e-14)

    def test_thermal_record_holds_its_trace(self, tmp_path):
        cfg = {
            "run": "thermal",
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 5, "h": 0.8},
            "beta": 0.6,
            "dt": 0.05,
            "max_bond": 4,
        }
        out = tmp_path / "out"
        assert main(["thermal", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        assert len(rec["discarded"]) == len(rec["log_norms"]) == 6
        assert all(w >= 0.0 for w in rec["discarded"]) and max(rec["discarded"]) > 0.0
        assert rec["ln_z"] == pytest.approx(5 * np.log(2.0) + 2.0 * sum(rec["log_norms"]), rel=1e-14)

    def test_thermal_matches_dense_gibbs(self, tmp_path):
        cfg = {
            "run": "thermal",
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.25},
            "beta": 1.0,
            "dt": 0.02,
            "max_bond": 16,
            "observables": ["sz"],
        }
        out = tmp_path / "out"
        assert main(["thermal", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        ref = dense_gibbs(dense_hamiltonian(transverse_field_ising(4, 1.0, 1.25)), 1.0)
        assert rec["energy"] == pytest.approx(ref.energy, rel=1e-3)
        assert rec["ln_z"] == pytest.approx(ref.ln_z, rel=1e-3)
        assert rec["observables"]["sz"] == pytest.approx(list(ref.local), abs=1e-3)

    def test_trg_emits_tabular_fields(self, tmp_path):
        cfg = {
            "run": "trg",
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 0.3},
            "method": "trg",
            "max_bond": 8,
            "n_iters": 8,
        }
        out = tmp_path / "out"
        assert main(["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        for key in ("beta", "chi", "iterations", "f", "abs_err_onsager"):
            assert key in rec
        assert rec["chi"] == 8 and rec["iterations"] == 8
        assert rec["abs_err_onsager"] < 1e-4
        assert len(rec["free_energies"]) == len(rec["bond_dims"]) == len(rec["discarded"]) == 8
        assert rec["bond_dims"][0] == 4 and max(rec["bond_dims"]) == 8
        assert all(0.0 <= w < 1e-3 for w in rec["discarded"])
        # the eigensolver work of each step: every step solves its blocks
        # with one of the two solvers
        for key in ("subspace_iterations", "dense_solves"):
            assert len(rec[key]) == 8 and all(isinstance(n, int) and n >= 0 for n in rec[key])
        assert all(i + d > 0 for i, d in zip(rec["subspace_iterations"], rec["dense_solves"]))

    @pytest.mark.parametrize("method", ["trg", "hotrg"])
    def test_trg_at_low_temperature(self, tmp_path, method):
        # a site tensor of cosh(beta J)^2 would overflow here; the free
        # energy is -2J less the two ground states' ln 2 / (beta sites)
        cfg = {
            "run": "trg",
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 800.0},
            "method": method,
            "max_bond": 8,
            "n_iters": 4,
        }
        out = tmp_path / "out"
        assert main(["trg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        assert rec["f_onsager"] == -2.0
        assert -2.0 - np.log(2) / (800.0 * 16) <= rec["f"] <= -2.0

    def test_oracle_tasks(self, tmp_path):
        tasks = [
            {"task": "onsager", "beta": 0.3},
            {"task": "brute_force", "length": 3, "beta": 0.3},
            {"task": "transfer_matrix", "width": 4, "beta": 0.3},
            {
                "task": "gibbs",
                "beta": 0.5,
                "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            },
            {
                "task": "ed_spectrum",
                "k": 3,
                "model": {"name": "heisenberg_xxz", "n_sites": 4},
            },
        ]
        for i, extra in enumerate(tasks):
            cfg = {"run": "oracle", "seed": 1, **extra}
            out = tmp_path / f"out{i}"
            cfg_path = _write_cfg(tmp_path, cfg, f"cfg{i}.json")
            assert main(["oracle", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
            rec = _read_results(out)[0]["result"]
            assert rec["task"] == extra["task"]

    def test_onsager_task_at_low_temperature(self, tmp_path):
        # sinh(2 beta J)^2 overflows a float here, the free energy does not
        cfg = {"run": "oracle", "seed": 1, "task": "onsager", "beta": 200.0}
        out = tmp_path / "out"
        assert main(["oracle", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        assert _read_results(out)[0]["result"]["f"] == pytest.approx(-2.0, rel=1e-15)

    def test_onsager_task_with_antiferromagnetic_coupling(self, tmp_path):
        # the square lattice is bipartite: J = -1 has the free energy of J = 1
        values = []
        for coupling in (-1.0, 1.0):
            cfg = {"run": "oracle", "seed": 1, "task": "onsager", "beta": 0.5, "J": coupling}
            out = tmp_path / f"out{coupling}"
            cfg_path = _write_cfg(tmp_path, cfg, f"cfg{coupling}.json")
            assert main(["oracle", "--config", cfg_path, "--out", str(out)]) == EXIT_OK
            values.append(_read_results(out)[0]["result"]["f"])
        assert values[0] == values[1]

    def test_summary_mentions_each_run(self, tmp_path):
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.5]})
        del cfg["observables"]
        out = tmp_path / "out"
        assert main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        text = (out / "summary.txt").read_text()
        assert "run 0" in text and "run 1" in text
        assert "model.h=0.5" in text and "model.h=1.5" in text
        assert "wall time" in text


class TestRunEntry:
    def test_run_reads_subcommand_from_config(self, tmp_path):
        cfg = _dmrg_cfg(model={"name": "transverse_field_ising", "n_sites": 6, "h": 1.0})
        out = tmp_path / "out"
        assert run(_write_cfg(tmp_path, cfg), out_dir=str(out)) == EXIT_OK
        rec = _read_results(out)[0]
        assert rec["run"] == "dmrg"
        exact = ed_ground(dense_hamiltonian(transverse_field_ising(6, 1.0, 1.0)))[0]
        assert rec["result"]["energy"] == pytest.approx(exact, rel=1e-8)

    def test_run_requires_run_field(self, tmp_path):
        cfg = _dmrg_cfg()
        del cfg["run"]
        out = tmp_path / "out"
        assert run(_write_cfg(tmp_path, cfg), out_dir=str(out)) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["field"] == "run"

    @pytest.mark.parametrize("value", [None, 3, [], {}, "bogus"], ids=repr)
    def test_run_field_that_names_no_subcommand_is_config_error(self, tmp_path, capsys, value):
        cfg = _dmrg_cfg(run=value)
        out = tmp_path / "out"
        assert run(_write_cfg(tmp_path, cfg), out_dir=str(out)) == EXIT_CONFIG
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "config" and err["field"] == "run"
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["run", "main"])
    def test_config_file_is_read_once(self, tmp_path, monkeypatch, entry):
        # every open of the config file counts, whichever module makes it
        cfg_path, out = _write_cfg(tmp_path, _dmrg_cfg()), str(tmp_path / "out")
        reads, real_open = [], builtins.open

        def counted(file, *args, **kwargs):
            if file == cfg_path:
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counted)
        if entry == "run":
            assert run(cfg_path, out_dir=out) == EXIT_OK
        else:
            assert main(["dmrg", "--config", cfg_path, "--out", out]) == EXIT_OK
        assert reads == [cfg_path]

    def test_run_matches_main_byte_for_byte(self, tmp_path):
        cfg_path = _write_cfg(tmp_path, _dmrg_cfg())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(cfg_path, out_dir=str(out_a)) == EXIT_OK
        assert main(["dmrg", "--config", cfg_path, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "results.jsonl").read_bytes() == (out_b / "results.jsonl").read_bytes()


class TestBundledConfigs:
    def test_dmrg_config_lanczos_matvecs_are_pinned(self, tmp_path):
        # a change to the Krylov path moves this count, as the dtype of the
        # random start state does
        out = tmp_path / "dmrg"
        assert run(str(CONFIGS_DIR / "dmrg_tfi.json"), out_dir=str(out)) == EXIT_OK
        assert _read_results(out)[0]["result"]["lanczos_matvecs"] == 282

    def test_dmrg_scan_lanczos_matvecs_are_pinned(self, tmp_path):
        # a change to the Krylov path moves these counts
        out = tmp_path / "scan"
        assert run(str(CONFIGS_DIR / "dmrg_scan.json"), out_dir=str(out)) == EXIT_OK
        counts = [rec["result"]["lanczos_matvecs"] for rec in _read_results(out)]
        assert counts == [254, 282, 229]

    def test_dmrg_and_oracle_configs_agree(self, tmp_path):
        out_dmrg, out_ed = tmp_path / "dmrg", tmp_path / "ed"
        assert run(str(CONFIGS_DIR / "dmrg_tfi.json"), out_dir=str(out_dmrg)) == EXIT_OK
        assert run(str(CONFIGS_DIR / "oracle_ed.json"), out_dir=str(out_ed)) == EXIT_OK
        e_dmrg = _read_results(out_dmrg)[0]["result"]["energy"]
        e_ed = _read_results(out_ed)[0]["result"]["energy"]
        assert e_dmrg == pytest.approx(e_ed, rel=1e-8)

    def test_library_calls_match_the_first_cli_runs(self, tmp_path):
        # the settings object is the algorithm's config, so a library call
        # with the same values gives the CLI record bit for bit
        out = tmp_path / "thermal"
        assert run(str(CONFIGS_DIR / "thermal_tfi.json"), out_dir=str(out)) == EXIT_OK
        got = _read_results(out)[0]["result"]
        spec = transverse_field_ising(6, J=1.0, h=1.25)
        psi, ln_z, trace = thermal_state(spec, ThermalConfig(beta=0.5, dt=0.01, max_bond=32))
        assert got["ln_z"] == ln_z
        assert got["energy"] == expect_mpo(psi, lift_mpo(build_mpo(spec))).real
        assert got["discarded"] == list(trace.discarded)
        assert got["log_norms"] == list(trace.log_norms)
        assert got["bond_dims"] == list(psi.bond_dims)
        assert got["observables"] == {
            name: expect_profile(psi, lift_site_operator(PAULI[name], 2)).real.tolist()
            for name in ("sz", "sx")
        }

        out = tmp_path / "dmrg"
        assert run(str(CONFIGS_DIR / "dmrg_tfi.json"), out_dir=str(out)) == EXIT_OK
        got = _read_results(out)[0]["result"]
        spec = transverse_field_ising(12, J=1.0, h=1.0)
        energy, psi, trace = ground_state(
            build_mpo(spec), DmrgConfig(max_bond=32, n_sweeps=30, tol=1e-12, seed=1)
        )
        assert got["energy"] == energy
        assert got["sweep_energies"] == list(trace.sweep_energies)
        assert got["bond_dims"] == list(psi.bond_dims)
        assert got["observables"] == {
            name: expect_profile(psi, PAULI[name]).real.tolist() for name in ("sz", "sx")
        }

        out = tmp_path / "trg"
        assert run(str(CONFIGS_DIR / "trg_ising.json"), out_dir=str(out)) == EXIT_OK
        got = _read_results(out)[0]["result"]
        f, trace = coarse_grain(
            ClassicalModelSpec(beta=0.2), CoarseGrainConfig(max_bond=16, n_iters=25, method="trg")
        )
        assert got["f"] == f
        assert got["free_energies"] == list(trace.free_energies)
        assert got["bond_dims"] == list(trace.bond_dims)
        assert got["discarded"] == list(trace.discarded)
        assert got["subspace_iterations"] == list(trace.subspace_iterations)
        assert got["dense_solves"] == list(trace.dense_solves)
