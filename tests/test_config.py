import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from tnkit import oracle
from tnkit.config import (
    ConfigError,
    chain_spec,
    classical_spec,
    load_config,
    parse_run_config,
    resolve_runs,
)
from tnkit.models import heisenberg_xxz

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def _write(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


def _dmrg_cfg(**over):
    cfg = {
        "seed": 1,
        "model": {"name": "transverse_field_ising", "n_sites": 6, "h": 1.0},
        "max_bond": 8,
    }
    cfg.update(over)
    return cfg


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(_write(tmp_path, "{broken"))

    def test_non_object(self, tmp_path):
        with pytest.raises(ConfigError, match="JSON object"):
            load_config(_write(tmp_path, [1, 2]))

    def test_round_trip(self, tmp_path):
        cfg = _dmrg_cfg()
        assert load_config(_write(tmp_path, cfg)) == cfg


class TestValidation:
    def test_missing_seed_names_field(self):
        cfg = _dmrg_cfg()
        del cfg["seed"]
        with pytest.raises(ConfigError, match="'seed'") as err:
            resolve_runs("dmrg", cfg)
        assert err.value.field == "seed"

    def test_seed_type_checked(self):
        with pytest.raises(ConfigError, match="must be int"):
            resolve_runs("dmrg", _dmrg_cfg(seed="one"))

    def test_bool_is_not_an_int(self):
        with pytest.raises(ConfigError, match="must be int"):
            resolve_runs("dmrg", _dmrg_cfg(seed=True))

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown field 'bond_max'"):
            resolve_runs("dmrg", _dmrg_cfg(bond_max=3))

    def test_missing_model_field(self):
        cfg = _dmrg_cfg()
        del cfg["model"]["n_sites"]
        with pytest.raises(ConfigError) as err:
            resolve_runs("dmrg", cfg)
        assert err.value.field == "model.n_sites"

    def test_unknown_model_name(self):
        cfg = _dmrg_cfg()
        cfg["model"]["name"] = "ising_3d"
        with pytest.raises(ConfigError) as err:
            resolve_runs("dmrg", cfg)
        assert err.value.field == "model.name"

    @pytest.mark.parametrize("name", ["potts", 3])
    def test_unknown_classical_model_name(self, name):
        cfg = {"seed": 1, "model": {"name": name, "beta": 0.3}, "max_bond": 8, "n_iters": 4}
        with pytest.raises(ConfigError) as err:
            resolve_runs("trg", cfg)
        assert err.value.field == "model.name"

    def test_thermal_missing_beta(self):
        cfg = {
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            "dt": 0.05,
            "max_bond": 8,
        }
        with pytest.raises(ConfigError, match="'beta'") as err:
            resolve_runs("thermal", cfg)
        assert err.value.field == "beta"

    def test_bad_observable_name(self):
        with pytest.raises(ConfigError, match="observables"):
            resolve_runs("dmrg", _dmrg_cfg(observables=["qz"]))

    def test_tebd_observable_needs_site(self):
        cfg = {
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            "dt": 0.05,
            "n_steps": 3,
            "max_bond": 8,
            "observables": [{"op": "sz"}],
        }
        with pytest.raises(ConfigError) as err:
            resolve_runs("tebd", cfg)
        assert err.value.field == "observables[0].site"

    def test_tebd_observable_takes_only_op_and_site(self):
        cfg = {
            "seed": 1,
            "model": {"name": "transverse_field_ising", "n_sites": 4, "h": 1.0},
            "dt": 0.05,
            "n_steps": 3,
            "max_bond": 8,
            "observables": [{"op": "sz", "site": 1, "name": "mid"}],
        }
        with pytest.raises(ConfigError) as err:
            resolve_runs("tebd", cfg)
        assert err.value.field == "observables[0].name"

    def test_trg_method_checked(self):
        cfg = {
            "seed": 1,
            "model": {"name": "ising_2d", "beta": 0.3},
            "method": "ctmrg",
            "max_bond": 8,
            "n_iters": 4,
        }
        with pytest.raises(ConfigError, match="method"):
            resolve_runs("trg", cfg)

    def test_oracle_task_checked(self):
        with pytest.raises(ConfigError, match="task"):
            resolve_runs("oracle", {"seed": 1, "task": "guess"})

    @pytest.mark.parametrize(
        "extra, field, direct",
        [
            ({"task": "brute_force", "length": 5, "beta": 0.3}, "length",
             lambda: oracle.ising_brute_force(5, 0.3)),
            ({"task": "transfer_matrix", "width": 13, "beta": 0.3}, "width",
             lambda: oracle.ising_transfer_matrix(13, 0.3)),
            ({"task": "transfer_matrix", "width": 4, "beta": -0.3}, "beta",
             lambda: oracle.ising_transfer_matrix(4, -0.3)),
            ({"task": "onsager", "beta": 0.0}, "beta", lambda: oracle.onsager_f(0.0)),
            ({"task": "ed_spectrum", "k": 16, "model": {"name": "heisenberg_xxz", "n_sites": 4}},
             "k", lambda: oracle.ed_spectrum(oracle.dense_hamiltonian(heisenberg_xxz(4)), 16)),
            ({"task": "gibbs", "beta": -1.0, "model": {"name": "heisenberg_xxz", "n_sites": 4}},
             "beta", lambda: oracle.dense_gibbs(oracle.dense_hamiltonian(heisenberg_xxz(4)), -1.0)),
            ({"task": "ed_ground", "model": {"name": "heisenberg_xxz", "n_sites": 15}},
             "model.n_sites", lambda: oracle.dense_hamiltonian(heisenberg_xxz(15))),
        ],
        ids=["length", "width", "transfer-beta", "onsager-beta", "k", "gibbs-beta", "n-sites"],
    )
    def test_oracle_limits_are_shared_rules(self, extra, field, direct):
        # the settings and the oracle function break the same rule on the same field
        with pytest.raises(ConfigError) as parsed:
            resolve_runs("oracle", {"seed": 1, **extra})
        with pytest.raises(ConfigError) as called:
            direct()
        assert parsed.value.field == called.value.field == field

    def test_run_field_must_match_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            resolve_runs("tebd", _dmrg_cfg(run="dmrg"))


class TestSpecBuilders:
    def test_chain_spec_tfi(self):
        spec = chain_spec(_dmrg_cfg())
        assert spec.model == "transverse_field_ising"
        assert spec.n_sites == 6 and spec.h == 1.0

    def test_chain_spec_custom_from_lists(self):
        two = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
        cfg = {
            "model": {
                "name": "custom_nn",
                "n_sites": 4,
                "two_site": two.tolist(),
            }
        }
        spec = chain_spec(cfg)
        assert spec.phys_dim == 2
        assert np.allclose(spec.two_site, two)

    def test_chain_spec_rejects_non_hermitian(self):
        cfg = {
            "model": {
                "name": "custom_nn",
                "n_sites": 4,
                "two_site": [[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4],
            }
        }
        with pytest.raises(ConfigError, match="Hermitian"):
            chain_spec(cfg)

    def test_classical_spec_needs_positive_beta(self):
        with pytest.raises(ConfigError, match="beta"):
            classical_spec({"model": {"name": "ising_2d", "beta": -0.2}})


class TestScans:
    def test_no_scan_single_run(self):
        runs = resolve_runs("dmrg", _dmrg_cfg())
        assert len(runs) == 1
        assert runs[0].index == 0 and runs[0].scan_values == {}

    def test_scan_expands_cross_product_in_sorted_path_order(self):
        cfg = _dmrg_cfg(scan={"model.h": [0.5, 1.5], "max_bond": [4, 8]})
        runs = resolve_runs("dmrg", cfg)
        combos = [(r.scan_values["max_bond"], r.scan_values["model.h"]) for r in runs]
        # "max_bond" sorts before "model.h", so it is the slow axis
        assert combos == [(4, 0.5), (4, 1.5), (8, 0.5), (8, 1.5)]
        assert [r.index for r in runs] == [0, 1, 2, 3]
        assert runs[2].settings.max_bond == 8
        assert runs[2].settings.model.h == 0.5

    def test_scan_values_validated_per_run(self):
        cfg = _dmrg_cfg(scan={"max_bond": [8, 0]})
        with pytest.raises(ConfigError, match="max_bond"):
            resolve_runs("dmrg", cfg)

    def test_scan_path_must_exist(self):
        with pytest.raises(ConfigError, match="does not exist"):
            resolve_runs("dmrg", _dmrg_cfg(scan={"model.g": [1.0]}))

    def test_scan_needs_nonempty_list(self):
        with pytest.raises(ConfigError, match="nonempty list"):
            resolve_runs("dmrg", _dmrg_cfg(scan={"model.h": []}))

    def test_runs_do_not_share_settings(self):
        runs = resolve_runs("dmrg", _dmrg_cfg(scan={"model.h": [0.5, 1.5]}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            runs[0].settings.model.h = 99.0
        assert [r.settings.model.h for r in runs] == [0.5, 1.5]


def _tfi(n_sites, h):
    return {
        "model": "transverse_field_ising", "n_sites": n_sites, "J": 1.0, "h": h,
        "delta": 1.0, "field": 0.0, "two_site": None, "one_site": None,
    }


def _dmrg(h, observables):
    return {
        "max_bond": 32, "n_sweeps": 30, "tol": 1e-12, "lanczos_max_iter": 100,
        "lanczos_tol": 1e-12, "seed": 1, "penalty_weight": 10.0,
        "model": _tfi(12, h), "n_excited": 0, "observables": observables,
    }


def _thermal(beta):
    return {
        "beta": beta, "dt": 0.01, "max_bond": 32, "order": 2, "rel_cutoff": 0.0,
        "seed": 1, "model": _tfi(6, 1.25), "observables": ("sz", "sx"),
    }


def _trg(beta):
    return {
        "max_bond": 16, "n_iters": 25, "method": "trg", "rel_cutoff": 0.0,
        "seed": 1, "model": {"beta": beta, "model": "ising_2d", "J": 1.0},
    }


# every field of every resolved run, defaults included, as the bundled
# configs resolved before the settings became typed objects
BUNDLED_SETTINGS = {
    "dmrg_scan": ("dmrg", [_dmrg(0.5, ()), _dmrg(1.0, ()), _dmrg(1.5, ())]),
    "dmrg_tfi": ("dmrg", [_dmrg(1.0, ("sz", "sx"))]),
    "oracle_ed": ("oracle", [{
        "seed": 1, "task": "ed_ground", "model": _tfi(12, 1.0), "beta": None, "J": 1.0,
        "k": None, "length": None, "width": None, "site_op": "sz",
    }]),
    "tebd_quench": ("tebd", [{
        "dt": 0.02, "n_steps": 100, "max_bond": 64, "order": 2, "imag": False,
        "rel_cutoff": 0.0, "abort_threshold": 1e-3, "seed": 1, "model": _tfi(8, 1.0),
        "state": "neel", "observables": ({"op": "sz", "site": 0}, {"op": "sz", "site": 3}),
    }]),
    "thermal_tfi": ("thermal", [_thermal(0.5), _thermal(1.0), _thermal(2.0)]),
    "trg_ising": ("trg", [_trg(0.2), _trg(0.3), _trg(0.4406867935097715)]),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_SETTINGS))
def test_bundled_configs_resolve_to_pinned_settings(name):
    subcommand, expected = BUNDLED_SETTINGS[name]
    rc = parse_run_config(subcommand, str(CONFIGS_DIR / f"{name}.json"))
    got = [dataclasses.asdict(r.settings) for r in rc.runs]
    assert got == expected
    for a, b in zip(got, expected):
        assert [type(v) for v in a.values()] == [type(v) for v in b.values()]
