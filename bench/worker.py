"""Benchmark worker: one fresh interpreter that sets up one workload and runs it.

Started by ``run.py`` as::

    python bench/worker.py --workload W --seed N --seconds S --trace T [--setup-only]

It imports povmkit before anything else, so the import time it reports covers
numpy and scipy too, builds the seeded inputs and runs one untimed warm-up
item, then prints ``READY <json>``.  Unless ``--setup-only`` is given it runs
items for S seconds and prints ``RESULT <json>``.  With ``--trace 1`` traced
and untraced stretches of about a second alternate, so the tracing overhead
is measured in the same process and under the same machine load.
"""

import sys
import time

_start = time.perf_counter_ns()
try:
    import povmkit
except ImportError as exc:
    print(f"cannot import povmkit: {exc}", file=sys.stderr)
    sys.exit(2)
IMPORT_NS = time.perf_counter_ns() - _start

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from importlib.metadata import PackageNotFoundError  # noqa: E402
from importlib.metadata import version as package_version  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from calibration import Calibrator  # noqa: E402
from tracer import LAYERS, TARGET_NAMES, TARGETS, Tracer  # noqa: E402

#: Fewest samples above the reported tail latency, and its highest percentile.
#: Beyond p99 a 20-second run of sub-millisecond items counts a handful of
#: garbage-collector and host pauses rather than items, and the figure jumps
#: between runs with how many of them fell inside the run.
TAIL_SAMPLES = 10
TAIL_MAX_PCT = 99.0
#: Length of each traced and each untraced stretch of a traced run.
TRACE_CHUNK_S = 1.0
#: Reference-work samples taken right after set-up, to correct ``setup_s``.
SETUP_CALIBRATION_SAMPLES = 30


def latency_summary(latencies_ns: list[int]) -> dict:
    """Median, throughput and the tail.

    The tail is the latency at the highest percentile, up to p99, that still
    has at least 10 samples above it.
    """
    xs = sorted(latencies_ns)  # ns, or ns at nominal host speed
    n = len(xs)
    rank = max(min(n - TAIL_SAMPLES - 1, math.ceil(n * TAIL_MAX_PCT / 100.0) - 1), 0)
    return {
        "n": n,
        "items_per_s": n / (sum(xs) / 1e9),
        "p50_ms": statistics.median(xs) / 1e6,
        "tail_ms": xs[rank] / 1e6,
        "tail_pct": 100.0 * (rank + 1) / n,
    }


def run_phase(workload, seconds: float, first: int, tracer=None, calibrator=None):
    """Run whole passes of items until ``seconds`` have elapsed.

    Only the item call is timed; its check, and the calibrator's reference
    work, run outside the timed region.
    """
    clock = time.perf_counter_ns
    latencies: list[int] = []
    stamps: list[int] = []
    errors: list[str] = []
    i = first
    deadline = clock() + int(seconds * 1e9)
    while clock() < deadline:
        for _ in range(workload.pass_len):
            if tracer is not None:
                tracer.item = i
            start = clock()
            try:
                out = workload.item(i)
            except Exception as exc:  # an item that raises is a failed item
                latencies.append(clock() - start)
                errors.append(f"item {i}: raised {exc!r}")
            else:
                latencies.append(clock() - start)
                error = workload.check(i, out)
                if error:
                    errors.append(f"item {i}: {error}")
            stamps.append(start + latencies[-1] // 2)
            if calibrator is not None:
                calibrator.tick(latencies[-1])
            if tracer is not None and workload.child_processes:
                child = workload.read_child_trace()
                if child is not None:
                    tracer.absorb(child)
            i += 1
    return latencies, stamps, errors


def per_layer(tracer: Tracer, items: int, traced_ns: int, untraced_ips: float,
              traced_ips: float, workload) -> tuple[dict, dict]:
    totals = tracer.totals()
    metrics: dict[str, float | None] = {}
    for name in TARGET_NAMES:
        present = name not in totals["absent"]
        metrics[f"{name}.calls_per_item"] = totals["calls"][name] / items if present else None
        metrics[f"{name}.self_us_per_item"] = (
            totals["self_ns"][name] / items / 1e3 if present else None
        )
    for layer in LAYERS:
        metrics[f"{layer}.raised"] = sum(
            totals["raised"][f"{module}.{name}"] for module, name in TARGETS if module == layer
        )
    metrics["feasibility.feasible_frac"] = workload.feasible_frac
    metrics["trace.coverage_frac"] = totals["top_ns"] / traced_ns
    metrics["trace.overhead_frac"] = 1.0 - traced_ips / untraced_ips
    return metrics, totals


def installed_version(package: str) -> str:
    try:
        return package_version(package)
    except PackageNotFoundError:
        return "not installed"


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = (workloads.ROOT / "src").resolve()
    if src not in workloads.Path(povmkit.__file__).resolve().parents:
        print(f"povmkit was imported from {povmkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_dir = workloads.Path(args.out_dir) / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload, povmkit, args.seed, work_dir)
    warm_error = workload.check(0, workload.item(0))
    if warm_error:
        print(f"warm-up item failed its check: {warm_error}", file=sys.stderr)
        return 1
    ready = {"import_ms": IMPORT_NS / 1e6, "digest": workload.digest, "inputs": workload.describe()}
    print("READY " + json.dumps(ready), flush=True)
    # Not part of set-up: the reference work that scales the set-up time,
    # and versions read without importing anything the library does not.
    setup_calibrator = Calibrator()
    for _ in range(SETUP_CALIBRATION_SAMPLES):
        setup_calibrator.sample()
    info = {
        "speed_factor": setup_calibrator.speed_factor(),
        "numpy": np.__version__,
        "scipy": installed_version("scipy"),
        "blas": blas_info(),
    }
    print("INFO " + json.dumps(info), flush=True)
    if args.setup_only:
        return 0

    result: dict = {}
    calibrator = Calibrator()
    if args.trace:
        untraced, untraced_stamps, traced, errors = [], [], [], []
        tracer = Tracer()
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            lat, stamps, errs = run_phase(
                workload, TRACE_CHUNK_S, 1 + len(untraced) + len(traced), calibrator=calibrator
            )
            untraced += lat
            untraced_stamps += stamps
            errors += errs
            tracer.install()
            workload.traced = True
            try:
                lat, _, errs = run_phase(
                    workload, TRACE_CHUNK_S, 1 + len(untraced) + len(traced), tracer
                )
            finally:
                workload.traced = False
                tracer.uninstall()
            traced += lat
            errors += errs
        traced_summary = latency_summary(traced)
        layers, totals = per_layer(
            tracer, len(traced), sum(traced), latency_summary(untraced)["items_per_s"],
            traced_summary["items_per_s"], workload,
        )
        spans_path = workloads.Path(args.out_dir) / f"spans-{args.workload}-s{args.seed}.csv"
        tracer.write_spans(spans_path)
        result.update(
            traced_latency=traced_summary, layers=layers,
            totals=totals, spans=str(spans_path),
            child_import_ms=[ns / 1e6 for ns in tracer.child_import_ns],
        )
        attempted = len(untraced) + len(traced)
        latencies, stamps = untraced, untraced_stamps
    else:
        latencies, stamps, errors = run_phase(workload, args.seconds, 1, calibrator=calibrator)
        attempted = len(latencies)
    scaled = calibrator.scale(latencies, stamps)
    result["latency"] = latency_summary(scaled)
    result["raw_latency"] = latency_summary(latencies)
    slot_latencies = scaled

    who = resource.RUSAGE_CHILDREN if workload.child_processes else resource.RUSAGE_SELF
    result.update(
        speed_factor=calibrator.speed_factor(),
        calibration_samples=len(calibrator.samples_ns),
        attempted=attempted,
        failed=len(errors),
        errors=errors[:20],
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
    )
    if workload.slot_names:
        # Items of a rotation differ in kind; report each kind's median too.
        # Timed items start at index 1, after the warm-up item 0.
        n = len(workload.slot_names)
        result["slot_p50_ms"] = {
            name: statistics.median(
                lat for j, lat in enumerate(slot_latencies) if (1 + j) % n == k
            ) / 1e6
            for k, name in enumerate(workload.slot_names)
        }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
