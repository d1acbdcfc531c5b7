"""The benchmark's workloads: configs made from the seed, and the checks of
each run's output against an independent reference.

Every check runs after the timed region, in the benchmark's parent
process. The references never go through the code path that is timed:

* dmrg_chain: the free-fermion ground energy of the open transverse-field
  Ising chain, plus a read-back of the checkpoint the run wrote.
* tebd_quench: the exact state exp(-iHt)|Neel> from scipy's
  ``expm_multiply`` on the sparse Hamiltonian that ``tnkit.oracle``
  assembles (``oracle.dense_evolve`` diagonalizes the dense matrix, which
  is too heavy at 14 sites).
* ising2d_flow: the free energies of every coarse-graining step as the
  parent commit of this benchmark computed them (``ising_reference.json``),
  plus Onsager's exact free energy as a sanity bound.
"""

from __future__ import annotations

import json
import os

BETA_C = 0.4406867935097715

# relative deviation of each step's free energy from the stored values
ISING_SEED_RTOL = 1e-9
# a 7-step flow at beta_c sits about 6e-3 from Onsager (finite size)
ISING_ONSAGER_RTOL = 3e-2
# the chain at max_bond 32 is exact up to the Lanczos and sweep tolerances
DMRG_ENERGY_RTOL = 1e-9
# second-order Trotter error at dt = 0.05 plus truncation to max_bond 32
TEBD_SZ_ATOL = 2e-3
TEBD_SITES = (0, 7, 13)

_HERE = os.path.dirname(os.path.abspath(__file__))


def ising_config(seed: int) -> dict:
    return {
        "run": "trg",
        "seed": seed,
        "model": {"name": "ising_2d", "beta": BETA_C, "J": 1.0},
        # the scan path must already exist in the config
        "method": "trg",
        "max_bond": 32,
        "n_iters": 7,
        "scan": {"method": ["trg", "hotrg"]},
    }


def dmrg_config(seed: int) -> dict:
    return {
        "run": "dmrg",
        "seed": seed,
        "model": {"name": "transverse_field_ising", "n_sites": 40, "J": 1.0, "h": 1.0},
        "max_bond": 32,
        "observables": ["sz", "sx"],
    }


def tebd_config(seed: int) -> dict:
    return {
        "run": "tebd",
        "seed": seed,
        "model": {"name": "transverse_field_ising", "n_sites": 14, "J": 1.0, "h": 1.0},
        "state": "neel",
        "dt": 0.05,
        "n_steps": 100,
        "order": 2,
        "max_bond": 32,
        "observables": [{"op": "sz", "site": s} for s in TEBD_SITES],
    }


def _read_results(out_dir: str) -> list[dict]:
    with open(os.path.join(out_dir, "results.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line)["result"] for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# references (computed once per benchmark run)
# ---------------------------------------------------------------------------


def ising_reference(cfg: dict) -> dict:
    from tnkit.oracle import onsager_f

    with open(os.path.join(_HERE, "ising_reference.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    for key in ("max_bond", "n_iters"):
        if stored["config"][key] != cfg[key]:
            raise RuntimeError(f"ising_reference.json was made for another {key}")
    if stored["config"]["beta"] != cfg["model"]["beta"]:
        raise RuntimeError("ising_reference.json was made for another beta")
    return {
        "free_energies": stored["free_energies"],
        "onsager": onsager_f(cfg["model"]["beta"], cfg["model"]["J"]),
    }


def free_fermion_energy(n: int, J: float, h: float) -> float:
    """Ground energy of H = -J sum Z Z - h sum X on an open chain of n
    sites: minus half the sum of the single-particle energies, which are
    the singular values of the bidiagonal matrix with 2h on the diagonal
    and 2J above it."""
    import numpy as np

    b = np.diag(np.full(n, 2.0 * h)) + np.diag(np.full(n - 1, 2.0 * J), 1)
    return float(-0.5 * np.sum(np.linalg.svd(b, compute_uv=False)))


def dmrg_reference(cfg: dict) -> dict:
    m = cfg["model"]
    return {"energy": free_fermion_energy(m["n_sites"], m["J"], m["h"])}


def tebd_reference(cfg: dict) -> dict:
    """<sz> at the watched sites at every step time, from the exact state."""
    import numpy as np
    from scipy.sparse.linalg import expm_multiply

    from tnkit.config import chain_spec
    from tnkit.oracle import dense_hamiltonian

    spec = chain_spec(cfg)
    n = spec.n_sites
    if cfg["state"] != "neel":
        raise RuntimeError("the reference assumes the Neel start")
    # site 0 is the most significant digit; even sites up (0), odd down (1)
    start = sum(1 << (n - 1 - i) for i in range(1, n, 2))
    v0 = np.zeros(2**n, dtype=complex)
    v0[start] = 1.0
    h = dense_hamiltonian(spec).matrix
    steps = cfg["n_steps"]
    states = expm_multiply(
        -1j * h, v0, start=0.0, stop=steps * cfg["dt"], num=steps + 1, endpoint=True
    )
    probs = np.abs(states) ** 2
    basis = np.arange(2**n)
    sz = {}
    for item in cfg["observables"]:
        site = item["site"]
        z = 1.0 - 2.0 * ((basis >> (n - 1 - site)) & 1)
        sz[f"sz[{site}]"] = probs @ z
    return {"sz": sz}


# ---------------------------------------------------------------------------
# checks: each returns (ref_err, list of problems)
# ---------------------------------------------------------------------------


def ising_check(cfg: dict, out_dir: str, checkpoint: str | None, ref: dict):
    problems = []
    records = _read_results(out_dir)
    methods = cfg["scan"]["method"]
    if [r["method"] for r in records] != methods:
        return float("nan"), [f"expected one result per method {methods}"]
    worst_onsager = 0.0
    for rec in records:
        want = ref["free_energies"][rec["method"]]
        got = rec["free_energies"]
        if len(got) != len(want):
            problems.append(f"{rec['method']}: {len(got)} steps, expected {len(want)}")
            continue
        dev = max(abs(g - w) / abs(w) for g, w in zip(got, want))
        if not dev <= ISING_SEED_RTOL:
            problems.append(f"{rec['method']}: free energies deviate by {dev:.3e}")
        rel = abs(rec["f"] - ref["onsager"]) / abs(ref["onsager"])
        if not rel <= ISING_ONSAGER_RTOL:
            problems.append(f"{rec['method']}: {rel:.3e} away from Onsager")
        worst_onsager = max(worst_onsager, rel)
    return worst_onsager, problems


def dmrg_check(cfg: dict, out_dir: str, checkpoint: str | None, ref: dict):
    from tnkit.checkpoint import checkpoint_read
    from tnkit.config import chain_spec
    from tnkit.models import PAULI
    from tnkit.mpo import build_mpo, expect_mpo
    from tnkit.mps import expect_local, norm

    problems = []
    (rec,) = _read_results(out_dir)
    err = abs(rec["energy"] - ref["energy"]) / abs(ref["energy"])
    if not err <= DMRG_ENERGY_RTOL:
        problems.append(f"energy {rec['energy']!r} is {err:.3e} from the free-fermion value")
    psi = checkpoint_read(checkpoint)
    if list(psi.bond_dims) != rec["bond_dims"]:
        problems.append("checkpoint bond dimensions differ from the result")
    if abs(norm(psi) - 1.0) > 1e-10:
        problems.append("checkpoint state is not normalized")
    e_ck = expect_mpo(psi, build_mpo(chain_spec(cfg))).real
    if abs(e_ck - rec["energy"]) > 1e-10 * abs(rec["energy"]):
        problems.append(f"checkpoint energy {e_ck!r} differs from the result")
    n = psi.n_sites
    for name in cfg["observables"]:
        for site in (0, n // 2, n - 1):
            val = expect_local(psi, PAULI[name], site).real
            if abs(val - rec["observables"][name][site]) > 1e-10:
                problems.append(f"checkpoint {name}[{site}] differs from the result")
    return err, problems


def tebd_check(cfg: dict, out_dir: str, checkpoint: str | None, ref: dict):
    problems = []
    (rec,) = _read_results(out_dir)
    steps = cfg["n_steps"]
    if len(rec["times"]) != steps + 1:
        return float("nan"), [f"{len(rec['times']) - 1} steps, expected {steps}"]
    worst = 0.0
    for name, exact in ref["sz"].items():
        got = rec["observables"][name]
        worst = max(worst, max(abs(g - e) for g, e in zip(got, exact)))
    if not worst <= TEBD_SZ_ATOL:
        problems.append(f"sz deviates from the exact evolution by {worst:.3e}")
    return worst, problems


WORKLOADS = {
    "ising2d_flow": {
        "subcommand": "trg",
        "config": ising_config,
        "reference": ising_reference,
        "check": ising_check,
        "ref_err": "relative distance of the final free energy from Onsager",
        "checkpoint": False,
    },
    "dmrg_chain": {
        "subcommand": "dmrg",
        "config": dmrg_config,
        "reference": dmrg_reference,
        "check": dmrg_check,
        "ref_err": "relative distance of the energy from the free-fermion value",
        "checkpoint": True,
    },
    "tebd_quench": {
        "subcommand": "tebd",
        "config": tebd_config,
        "reference": tebd_reference,
        "check": tebd_check,
        "ref_err": "largest absolute deviation of sz from the exact evolution",
        "checkpoint": False,
    },
}
