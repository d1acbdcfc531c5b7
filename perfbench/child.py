"""One workload run in a fresh interpreter.

Usage: python3 perfbench/child.py --subcommand SUB --config PATH
           --result PATH [--out DIR] [--checkpoint PATH] [--trace PATH]
           [--setup-only]

tnkit is imported from the src/ directory next to this benchmark's
directory, never from an installed copy.

Measures set-up (``import tnkit``, the CLI module and ``parse_run_config``
of the config, before any algorithm call), then one ``tnkit.cli.main`` call
with ``--threads 1`` (none with --setup-only), then one timing of a fixed
host gauge (``host_gauge``), and writes a JSON object to --result:
setup_s, wall_s, peak_rss_mb, the exit code, gauge_s. With --trace the
public functions of the package are wrapped first (see tracer.py) and the
spans are written to that path when the run ends. Nothing is imported
from numpy or tnkit before the set-up clock starts.
"""

import argparse
import json
import os
import resource
import sys
import time


def host_gauge() -> float:
    """Seconds taken by a fixed mix of work, none of it tnkit code:
    interpreter work, a Python loop of small vector operations,
    factorizations of small complex and mid-size real matrices, a larger
    matrix product and SVD, and small tensor contractions.

    The host's speed drifts by tens of percent from minute to minute, and
    all of these slow down with it, so a call's time over this gauge,
    timed right before the call (at the end of the previous interpreter)
    and right after it, repeats far better than the call's time alone."""
    import numpy as np

    rng = np.random.default_rng(0)
    vec = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
    basis = [rng.standard_normal(4096) + 1j * rng.standard_normal(4096) for _ in range(20)]
    c64 = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    m192 = rng.standard_normal((192, 192))
    m600 = rng.standard_normal((600, 600))
    env = rng.standard_normal((32, 3, 32))
    site = rng.standard_normal((32, 2, 32))
    w = rng.standard_normal((3, 3, 2, 2))

    t0 = time.perf_counter()
    table = {}
    for i in range(150_000):
        # a small table: interpreter work, not memory growth
        table[i % 997] = str(i * i)
    for _ in range(240):
        x = vec.copy()
        for b in basis:
            x -= np.vdot(b, x) * b
        np.linalg.norm(x)
    for _ in range(30):
        np.linalg.svd(c64, full_matrices=False)
        np.linalg.qr(c64)
    for _ in range(6):
        np.linalg.svd(m192)
        m192 @ m192
    for _ in range(2):
        m600 @ m600
        np.linalg.svd(m600[:300, :300])
    for _ in range(1050):
        np.tensordot(np.tensordot(env, site, axes=(2, 0)), w, axes=([1, 2], [0, 2]))
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--subcommand", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--out")
    p.add_argument("--checkpoint")
    p.add_argument("--trace")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import tnkit
    import tnkit.cli

    tnkit.parse_run_config(args.subcommand, args.config)
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(tnkit.__file__)) != os.path.join(src, "tnkit"):
        raise RuntimeError(f"imported tnkit from {tnkit.__file__}, not from {src}")

    result = {"setup_s": setup_s}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            result["bindings_wrapped"] = tracer.install()
        argv = [args.subcommand, "--config", args.config, "--out", args.out, "--threads", "1"]
        if args.checkpoint:
            argv += ["--checkpoint", args.checkpoint]
        t1 = time.perf_counter()
        rc = tnkit.cli.main(argv)
        result["wall_s"] = time.perf_counter() - t1
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["exit_code"] = rc
        if tracer is not None:
            tracer.dump(args.trace)
    # after the call, so that the gauge never raises the peak read above
    result["gauge_s"] = host_gauge()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
