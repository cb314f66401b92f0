"""Seeded benchmark of povmkit: end-to-end metrics per workload, or a traced per-layer run.

Run from the repository root::

    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``tradeoff`` (one 101-point
``tradeoff_sweep`` per item), ``bell`` (``standard_composite`` plus one fixed
arrangement), ``boxes`` (one ``joint_exists`` per pre-built box) and ``cli``
(one ``python -m povmkit.cli`` process per item); ``all`` runs each in turn.

Each workload runs in fresh worker interpreters (``worker.py``) with one
thread of load: BLAS pools are pinned to one thread and items run one at a
time, in a closed loop.  ``setup_s`` is the median over several fresh
interpreters of the time from process start to the first timed item (import,
inputs and one untimed warm-up item); the last of them goes on to run items
for ``--seconds``.  Every item's output is checked against a reference the
benchmark computes itself; a failed check makes the exit code 1.

Times are reported at a nominal host speed.  A shared host's speed drifts by
about +-20% over seconds to minutes, so each worker also times a fixed
reference computation (``calibration.py``) between items, and every item's
time is scaled by the reference's nominal time over its median time within
half a second of the item; set-up times are scaled by the reference timed
right after set-up.  The raw figures and the run's overall factor are printed
beside the scaled ones and kept in the record.  Workers also run without address-space randomization, so that
memory layout does not differ from run to run.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run instead, and the tables above it set the traced breakdown next to
the ROADMAP baseline.  Every run also writes its full record (environment,
input digest, sample counts) to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("tradeoff", "bell", "boxes", "cli")

#: Fresh interpreters timed for ``setup_s`` (the last one also runs the items).
SETUP_SAMPLES = 5
#: Seconds a worker may take beyond its ``--seconds`` of items before it is killed.
WORKER_GRACE_S = 60.0
#: BLAS thread settings of every worker: one thread of load.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: ``personality(2)`` flag that turns off address-space randomization.
_ADDR_NO_RANDOMIZE = 0x0040000


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _fixed_layout() -> None:
    """In the forked child, before exec: keep the worker's memory layout fixed."""
    libc = ctypes.CDLL(None, use_errno=True)
    libc.personality.argtypes = [ctypes.c_ulong]
    libc.personality.restype = ctypes.c_int
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | _ADDR_NO_RANDOMIZE)


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.update(BLAS_ENV)
    # Bytecode is cached inside this directory for every module, so imports
    # cost the same on every run and nothing is written outside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    env["PYTHONUNBUFFERED"] = "1"
    # A fixed string-hash seed gives every worker the same dict layouts.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(workload: str, seed: int, seconds: float, trace: int,
                 setup_only: bool) -> tuple[float, dict, dict | None]:
    """Start one worker; return its raw set-up time, READY record and RESULT record.

    The READY record gains the INFO the worker prints after set-up: its
    ``speed_factor`` and the library versions.
    """
    command = [
        sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True, preexec_fn=_fixed_layout)
    timer = threading.Timer((0.0 if setup_only else seconds) + WORKER_GRACE_S, proc.kill)
    timer.start()
    setup_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                setup_s = time.perf_counter() - start
                ready = json.loads(line[6:])
            elif line.startswith("INFO ") and ready is not None:
                ready.update(json.loads(line[5:]))
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
    finally:
        proc.stdout.close()
        code = proc.wait()
        timer.cancel()
    if code != 0 or ready is None or "speed_factor" not in ready or (
        result is None and not setup_only
    ):
        raise BenchError(f"worker for {workload} exited {code} without a result")
    return setup_s, ready, result


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not (OUT_DIR / "pycache").exists():
        # Untimed: fills the bytecode cache on the first run in a checkout.
        spawn_worker(workload, seed, seconds, trace, setup_only=True)
    setup, imports = [], []
    for k in range(SETUP_SAMPLES):
        last = k == SETUP_SAMPLES - 1
        setup_s, ready, result = spawn_worker(workload, seed, seconds, trace, setup_only=not last)
        setup.append((setup_s, ready["speed_factor"]))
        imports.append(ready["import_ms"])
    latency, raw = result["latency"], result["raw_latency"]
    n = latency["n"]
    # name: (value at nominal host speed, raw value, unit, samples)
    end_to_end = {
        "setup_s": (statistics.median(t * f for t, f in setup),
                    statistics.median(t for t, _ in setup), "s", len(setup)),
        "items_per_s": (latency["items_per_s"], raw["items_per_s"], "1/s", n),
        "item_ms_p50": (latency["p50_ms"], raw["p50_ms"], "ms", n),
        "item_ms_tail": (latency["tail_ms"], raw["tail_ms"], "ms", n),
        "peak_rss_mb": (result["peak_rss_mb"], result["peak_rss_mb"], "MB", 1),
    }
    failed_frac = result["failed"] / result["attempted"]
    end_to_end["failed_frac"] = (failed_frac, failed_frac, "fraction", result["attempted"])
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": ready["numpy"],
            "scipy": ready["scipy"],
            "blas": ready["blas"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_ENV,
            "python_hash_seed": 0,
            "address_randomization": "off",
            "git_commit": git_commit(),
            "platform": platform.platform(),
        },
        "inputs": {"digest": ready["digest"], "description": ready["inputs"]},
        "end_to_end": {
            name: {"value": value, "raw": as_timed, "unit": unit, "samples": count}
            for name, (value, as_timed, unit, count) in end_to_end.items()
        },
        "tail_percentile": latency["tail_pct"],
        "speed_factor": result["speed_factor"],
        "setup_samples": [{"raw_s": t, "speed_factor": f} for t, f in setup],
        "import_samples_ms": imports,
        "worker": result,
    }
    if trace:
        layers = dict(result["layers"])
        layers["import.povmkit_ms"] = statistics.median(imports)
        record["per_layer"] = layers
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{workload}-s{seed}-t{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    w = record["workload"]
    print(f"== {w}: seed {record['seed']}, {record['seconds']:g} s, trace {record['trace']}")
    print(f"   python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']} ({env['blas']}), "
          f"nproc {env['nproc']}, BLAS threads 1, commit {env['git_commit'] or 'unknown'}")
    print(f"   inputs: {record['inputs']['description']}; sha256 {record['inputs']['digest'][:16]}")
    label = "untraced stretches" if record["trace"] else "end to end"
    print(f"   {label}, at nominal host speed (raw: as timed; "
          f"speed factor {record['speed_factor']:.4f}):")
    print(f"   {'metric':<14}{'value':>14}{'raw':>14}  {'unit':<9}samples")
    for name, m in record["end_to_end"].items():
        extra = f"  (p{record['tail_percentile']:.4g})" if name == "item_ms_tail" else ""
        print(f"   {name:<14}{m['value']:>14.6g}{m['raw']:>14.6g}  {m['unit']:<9}{m['samples']}{extra}")
    slots = record["worker"].get("slot_p50_ms")
    if slots:
        print("   median per command: " + ", ".join(f"{k} {v:.1f} ms" for k, v in slots.items()))
    for error in record["worker"]["errors"]:
        print(f"   FAILED {error}")
    if record["trace"]:
        print_breakdown(record)
    print(f"   record: {record['path']}")


def print_breakdown(record: dict) -> None:
    worker = record["worker"]
    totals = worker["totals"]
    items = worker["traced_latency"]["n"]
    item_us = 1e6 / worker["traced_latency"]["items_per_s"]
    layers = record["per_layer"]
    print(f"   traced breakdown over {items} items ({item_us / 1e3:.3f} ms mean traced item; "
          f"coverage {layers['trace.coverage_frac']:.3f}, overhead {layers['trace.overhead_frac']:.3f}):")
    print(f"   {'span':<34}{'calls/item':>11}{'self us/item':>14}{'self %':>8}{'incl us/call':>14}")
    rows = sorted(
        (name for name, calls in totals["calls"].items() if calls),
        key=lambda name: -totals["self_ns"][name],
    )
    for name in rows:
        calls = totals["calls"][name]
        self_us = totals["self_ns"][name] / items / 1e3
        print(f"   {name:<34}{calls / items:>11.6g}{self_us:>14.2f}{100 * self_us / item_us:>8.1f}"
              f"{totals['incl_ns'][name] / calls / 1e3:>14.2f}")
    by_layer: dict[str, float] = {}
    for name, ns in totals["self_ns"].items():
        by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0) + ns / items / 1e3
    if worker["child_import_ms"]:
        by_layer["import (child)"] = sum(worker["child_import_ms"]) * 1e3 / items
    print("   self time by layer: " + ", ".join(
        f"{layer} {100 * us / item_us:.1f}%" for layer, us in
        sorted(by_layer.items(), key=lambda kv: -kv[1]) if us))
    if worker["child_import_ms"]:
        print(f"   child import povmkit: {statistics.median(worker['child_import_ms']):.1f} ms median "
              f"of {len(worker['child_import_ms'])}")
    if totals["absent"]:
        print("   absent at this commit: " + ", ".join(totals["absent"]))
    print("   ROADMAP baseline row: baseline | this run")
    for label, baseline, measured in baseline_rows(record):
        print(f"   {label}: {baseline} | {measured}")


def baseline_rows(record: dict) -> list[tuple[str, str, str]]:
    """Rows of the ROADMAP "Baseline measured at this re-anchor" table beside this run.

    The baseline was taken on 2 vCPU with Python 3.11.7, numpy 2.4.6 and scipy
    1.17.1, as means of a few runs (about +-20%).
    """
    worker = record["worker"]
    totals = worker["totals"]
    items = worker["traced_latency"]["n"]
    traced_item_ns = 1e9 / worker["traced_latency"]["items_per_s"]
    p50 = worker["latency"]["p50_ms"]

    def per_call(name: str) -> str:
        if name in totals["absent"]:
            return "absent"
        calls = totals["calls"][name]
        return f"{totals['incl_ns'][name] / calls / 1e6:.3f} ms traced" if calls else "not called"

    workload = record["workload"]
    rows = []
    if workload == "tradeoff":
        share = totals["incl_ns"]["measures.PovmMeasure"] / items / traced_item_ns
        constructions = totals["calls"]["measures.PovmMeasure"] / items
        rows.append(("tradeoff_sweep, 101 points, serial",
                     "~180 ms; 56% in PovmMeasure, 808 constructions",
                     f"{p50:.1f} ms untraced p50; {100 * share:.0f}% in PovmMeasure, "
                     f"{constructions:g} constructions"))
    elif workload == "bell":
        rows.append(("standard_composite", "~4.8 ms", per_call("aspect.standard_composite")))
        rows.append(("joint_probabilities (one arrangement)", "~1.2-1.8 ms",
                     per_call("aspect.joint_probabilities")))
    elif workload == "boxes":
        rows.append(("joint_exists, per box", "~0.43 ms",
                     f"{p50:.3f} ms untraced p50; {per_call('feasibility.joint_exists')}"))
        rows.append(("phase1_simplex, per box", "~0.27 ms", per_call("feasibility.phase1_simplex")))
    elif workload == "cli":
        rows.append(("povmkit srt sweep --points 101 (process)", "~0.68 s",
                     f"{worker['slot_p50_ms']['srt sweep'] / 1e3:.3f} s untraced p50"))
    rows.append(("import povmkit", "~0.5 s",
                 f"{record['per_layer']['import.povmkit_ms']:.0f} ms "
                 f"(median of {len(record['import_samples_ms'])})"))
    return rows


def result_line(records: list[dict], trace: int, prefix: bool) -> dict:
    """The last output line: the metrics BENCHMARK.json lists, with its units.

    ``failed_frac`` is not among them: it is 0 on a correct run, and the
    line's ``failed`` and ``attempted`` carry it.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {}
    for record in records:
        tag = f"{record['workload']}." if prefix else ""
        if trace:
            values = record["per_layer"]
            listed = spec["per_layer"]
        else:
            values = {name: m["value"] for name, m in record["end_to_end"].items()}
            listed = spec["end_to_end"]
        for m in listed:
            metrics[tag + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    failed = sum(r["worker"]["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["worker"]["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in chosen:
            record = run_workload(workload, args.seed, args.seconds, args.trace)
            print_record(record)
            records.append(record)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    line = result_line(records, args.trace, prefix=len(chosen) > 1)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
