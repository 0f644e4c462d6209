"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload stream-fresh --seed 1 --seconds 30 --trace 0

Run from the repository root. ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` prints every per-layer
metric (layers a workload never reaches read 0). Human-readable detail
goes to the lines before the final JSON object. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("stream-fresh", "poll-mixed")

#: Thread pools of the numerical libraries, capped at one thread in this
#: process and (inherited through the environment) every child it starts.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def steady_environment() -> None:
    """Run on one CPU with one BLAS thread per process.

    Children inherit both. On a 2-vCPU VM this cut poll-mixed's
    cache-hit latency from about 3.2 to 2.6 ms and narrowed its
    run-to-run spread: requests no longer hop between vCPUs, and no BLAS
    worker threads compete with the server's threads. The server is
    GIL-bound, so one CPU carries the same closed-loop throughput as two.
    """
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="RIHGCN serving benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"no program source under {os.path.join(ROOT, 'src')}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    steady_environment()  # before NumPy is imported
    # A shell that starts a command in the background starts it with SIGINT
    # ignored, and children inherit that; the server is stopped with SIGINT.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.path.insert(0, os.path.join(ROOT, "src"))

    workdir = os.path.join(ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        import serving

        report = serving.run(args.workload, args.seed, args.seconds, bool(args.trace),
                             ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(workdir))

    for note in report["notes"]:
        print(f"invalid: {note}")
    print("summary: " + json.dumps(report["summary"]))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["layers"] if args.trace else report["metrics"]
    # A layer a workload never reaches reads 0.
    metrics = {m["name"]: {"value": float(values[m["name"]] if not args.trace
                                          else values.get(m["name"], 0.0)),
                           "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({
        "correct": bool(report["valid"] and report["failed"] == 0),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
