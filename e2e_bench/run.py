"""Outside-in benchmark of the repro PPSP library: end-to-end and per layer.

Run from the root of a source checkout::

    python3 e2e_bench/run.py --workload road-query --seed 1 --seconds 40 --trace 0
    python3 e2e_bench/run.py --workload all --seconds 40      # every workload, as a table

``--trace 0`` measures the end-to-end metrics with the program exactly as
shipped.  ``--trace 1`` installs timing wrappers around each layer's
public entry points (``tracing.py``) and reports the per-layer metrics;
it also prints its own end-to-end figures on a ``traced-end-to-end``
line, so the tracing overhead is the difference from an untraced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A line starting
with ``noise`` before it records what else the figures depend on.
See README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: end-to-end metrics and their units.
END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_qps": "queries/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
WORKLOAD_NAMES = ("road-query", "social-batch", "road-service")

#: set-up is repeated in this many fresh processes (each pays the
#: per-process lazy costs), plus the measuring process itself.
SETUP_PROCESSES = 3
#: a run stops starting new rounds after this long, whatever else holds.
MAX_LOOP_S = 120.0


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small graphs and one set-up process: a smoke test in seconds")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_workloads():
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def _child_args(args, *extra) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    return cmd + list(extra)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def setup_only(args, workloads) -> int:
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny)
    try:
        seconds = wl.setup()
    finally:
        wl.finish()
    print(json.dumps({"setup_s": seconds}))
    return 0


def setup_samples(args) -> list[float]:
    """Set-up seconds measured in fresh processes, one after another."""
    samples = []
    for _ in range(1 if args.tiny else SETUP_PROCESSES):
        done = subprocess.run(_child_args(args, "--setup-only"), capture_output=True,
                              text=True, timeout=150, check=True)
        samples.append(_last_json(done.stdout)["setup_s"])
    return samples


def _percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q))


def measure(args, workloads) -> dict:
    import numpy as np

    loadavg = os.getloadavg()
    setups = [] if args.trace else setup_samples(args)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer().install()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.tiny, tracer)
    ops, timed, checks, peak_rss_mb = [], 0.0, [], None
    try:
        setups.append(wl.setup())
        start = perf_counter()
        rounds = 0
        while rounds == 0 or (
            (perf_counter() - start < args.seconds or len(ops) < workloads.MIN_OPS)
            and perf_counter() - start < MAX_LOOP_S
        ):
            round_ops, waited = wl.round(rounds)
            ops += round_ops
            timed += waited
            rounds += 1
            if peak_rss_mb is None and len(ops) >= workloads.MIN_OPS:
                # Every run gets this far, so the peak covers the same work
                # in every run; a maximum over a longer, speed-dependent
                # run would grow with the host's speed.
                peak_rss_mb = wl.peak_rss_mb()
    finally:
        checks = wl.finish()
    if tracer is not None:
        tracer.uninstall()

    from repro.kernels import scatter_threshold

    noise = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "scatter_threshold": scatter_threshold(),
        **wl.noise(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(x, 2) for x in loadavg],
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    print("noise " + json.dumps(noise), flush=True)

    walls = [op.wall for op in ops]
    end_to_end = {
        "latency_ms_p50": 1e3 * statistics.median(walls),
        "latency_ms_p90": 1e3 * _percentile(walls, 90),
        "throughput_qps": sum(op.pairs for op in ops if op.ok) / timed,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else wl.peak_rss_mb(),
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end.items()}
    else:
        print("traced-end-to-end " + json.dumps(end_to_end), flush=True)
        metrics = {
            k: {"value": v, "unit": workloads.LAYER_METRICS[k]}
            for k, v in wl.layer_metrics(ops).items()
        }
    for name, ok in checks:
        if not ok:
            print(f"check failed: {name}", file=sys.stderr)
    return {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops) + len(checks),
        "failed": sum(not op.ok for op in ops) + sum(not ok for _, ok in checks),
        "metrics": metrics,
    }


def run_all(args) -> int:
    """Every workload in turn, each in its own process; prints a table."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        sub = argparse.Namespace(**{**vars(args), "workload": name})
        done = subprocess.run(_child_args(sub), capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"{name}: exited with code {done.returncode}")
            status = 1
            continue
        res = results[name] = _last_json(done.stdout)
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:36s} {m['value']:14.4f} {m['unit']}")
        if res["failed"] or not res["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workloads = _import_workloads()
    if args.setup_only:
        return setup_only(args, workloads)
    result = measure(args, workloads)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
