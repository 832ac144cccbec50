"""diracstep benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload sweep|query|evolve|algebra \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Problems
found by the output checks go to stderr.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS and OpenMP thread: threaded matrix products on a small shared
# machine are a large source of run-to-run spread.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# Fresh starts timed per run for setup_s (one more, untimed, fills caches).
SETUP_STARTS = 9


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports diracstep and
    prepares the workload's first operation."""
    command = [sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)]
    times = []
    for i in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        probe = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL)
        # Popen.wait(timeout) polls in steps of up to 50 ms, which would
        # quantise the times; a timer kills a hung probe instead.
        watchdog = threading.Timer(60.0, probe.kill)
        watchdog.start()
        try:
            code = probe.wait()
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"set-up probe {command} exited with {code}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def measure(workload, seconds: float, start_tracing=None) -> dict:
    """Run one warm-up round, then whole rounds until `seconds` of them are
    timed, then check outputs.

    The warm-up round fills caches and finishes lazy set-up; its outputs are
    checked like any other round's but its times are not kept.  Each timed
    round keeps only the median of its operation times, so memory does not
    grow with the number of operations a run gets through.
    """
    first = workload.run_round([])
    attempted = len(workload.ops)
    failed = workload.failures(first)
    fingerprint = workload.fingerprint(first)
    tracer = start_tracing() if start_tracing else None
    op_ms: list[float] = []
    round_s: list[float] = []
    differing = 0
    while not round_s or sum(round_s) < seconds:
        op_ns: list[int] = []
        start = time.perf_counter()
        outputs = workload.run_round(op_ns)
        round_s.append(time.perf_counter() - start)
        op_ms.append(statistics.median(op_ns) / 1e6)
        attempted += len(workload.ops)
        failed += workload.failures(outputs)
        differing += workload.fingerprint(outputs) != fingerprint
    if tracer is not None:
        tracer.restore()
    problems = workload.check(outputs)
    if differing:
        problems.append(f"{differing} timed rounds did not reproduce the warm-up round")
    return {"op_ms": op_ms, "round_s": round_s, "attempted": attempted,
            "failed": failed, "problems": problems, "tracer": tracer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "query", "evolve", "algebra"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diracstep", "__init__.py")):
        print(f"error: no diracstep package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import diracstep
    if os.path.dirname(os.path.dirname(os.path.abspath(diracstep.__file__))) != SRC:
        print(f"error: diracstep imported from {diracstep.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import tracer as tracing
    from workloads import WORKLOADS

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    os.makedirs(OUT, exist_ok=True)
    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, outdir)
        result = measure(workload, args.seconds,
                         tracing.start if args.trace else None)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    rounds = len(result["round_s"])
    throughput = workload.units_per_round / statistics.median(result["round_s"])
    if args.trace:
        tracer = result["tracer"]
        tracer.save(os.path.join(OUT, f"trace-{args.workload}.npz"))
        metrics = tracing.layer_metrics(tracer, rounds)
        metrics["traced.throughput_per_s"] = (throughput, "1/s")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "throughput_per_s": (throughput, "1/s"),
            "op_ms": (statistics.median(result["op_ms"]), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "MiB"),
        }
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
