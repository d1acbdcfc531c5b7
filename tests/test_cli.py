import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import tnkit
from tnkit import cli
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
from tnkit.models import PAULI, transverse_field_ising
from tnkit.mpo import build_mpo
from tnkit.mps import expect_local, random_mps, to_dense
from tnkit.oracle import dense_gibbs, dense_hamiltonian, ed_ground

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_every_export_resolves():
    assert len(set(tnkit.__all__)) == len(tnkit.__all__)
    for name in tnkit.__all__:
        assert hasattr(tnkit, name), name
    namespace = {}
    exec("from tnkit import *", namespace)
    assert set(tnkit.__all__) <= set(namespace)


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
        _, _, excited = excited_state(op, config, [psi], penalty_weight=10.0)
        assert ground.lanczos_matvecs > 0 and excited.lanczos_matvecs > 0
        want = ground.lanczos_matvecs + excited.lanczos_matvecs
        assert _read_results(out)[0]["result"]["lanczos_matvecs"] == want

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

    def test_unconverged_dmrg_exits_nonconvergence(self, tmp_path):
        cfg = _dmrg_cfg(n_sweeps=1, tol=0.0)
        out = tmp_path / "out"
        code = main(["dmrg", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == EXIT_NONCONVERGENCE
        err = json.loads((out / "error.json").read_text())["error"]
        assert err["kind"] == "non_convergence"

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
        ],
        ids=["brute-force-length", "transfer-width", "transfer-beta", "onsager-beta",
             "gibbs-beta", "spectrum-k", "dense-n-sites"],
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
            "observables": [{"op": "sz", "site": 2}],
        }
        out = tmp_path / "out"
        assert main(["tebd", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == EXIT_OK
        rec = _read_results(out)[0]["result"]
        assert len(rec["times"]) == 11
        assert rec["times"][-1] == pytest.approx(0.5)
        assert len(rec["observables"]["sz[2]"]) == 11
        assert rec["observables"]["sz[2]"][0] == pytest.approx(1.0)
        assert rec["norm"] == pytest.approx(1.0, abs=1e-8)

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
        assert _read_results(out)[0]["result"]["lanczos_matvecs"] == 349

    def test_dmrg_scan_lanczos_matvecs_are_pinned(self, tmp_path):
        # a change to the Krylov path moves these counts
        out = tmp_path / "scan"
        assert run(str(CONFIGS_DIR / "dmrg_scan.json"), out_dir=str(out)) == EXIT_OK
        counts = [rec["result"]["lanczos_matvecs"] for rec in _read_results(out)]
        assert counts == [351, 349, 310]

    def test_dmrg_and_oracle_configs_agree(self, tmp_path):
        out_dmrg, out_ed = tmp_path / "dmrg", tmp_path / "ed"
        assert run(str(CONFIGS_DIR / "dmrg_tfi.json"), out_dir=str(out_dmrg)) == EXIT_OK
        assert run(str(CONFIGS_DIR / "oracle_ed.json"), out_dir=str(out_ed)) == EXIT_OK
        e_dmrg = _read_results(out_dmrg)[0]["result"]["energy"]
        e_ed = _read_results(out_ed)[0]["result"]["energy"]
        assert e_dmrg == pytest.approx(e_ed, rel=1e-8)
