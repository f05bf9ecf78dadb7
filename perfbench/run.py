#!/usr/bin/env python3
"""mrdikit benchmark: four seeded workloads, end-to-end metrics measured with
tracing off, and per-layer metrics from a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload detcrt-pool --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

The program is imported from ``src/`` of the checkout; pool workers find it,
and this directory's worker hook, through PYTHONPATH.  Every line but the
last is a readable report: the host and run record, then each metric by name
with its unit, the median, the highest percentile with at least ten samples
beyond it, and the sample count.  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans of a traced
run are written to ``.perfbench/`` at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ["detcrt-pool", "detcrt-heuristic", "kernel-pool", "mrdi-docs"]

END_TO_END = [
    ("solve_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("doc_write_s", "s"),
    ("doc_read_s", "s"),
]


def describe(values) -> str:
    from bench_trace import tail

    found = tail(values)
    spread = f"p{found[0]:g} {found[1]:.6g}" if found else "no percentile has 10 samples beyond it"
    return f"median of {len(values)}; {spread}"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "git_commit": git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import bench_workloads as bw

    workload = bw.WORKLOADS[name](seed)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "workers": workload.workers,
        "shape": workload.shape,
    }
    print(f"== {name} ==")
    print("record " + json.dumps({"host": host_record(), "run": record}))
    if not trace:
        outcome = bw.measure(workload, seconds)
        metrics = {}
        for metric, unit in END_TO_END:
            if metric == "peak_rss_mb":
                metrics[metric] = (outcome.peak_rss_mb, unit)
                print(f"  {metric:<14} {outcome.peak_rss_mb:.3f} {unit}  (highest VmHWM)")
                continue
            values = outcome.samples[metric]
            metrics[metric] = (statistics.median(values), unit)
            print(f"  {metric:<14} {metrics[metric][0]:.6f} {unit}  ({describe(values)})")
    else:
        outcome = bw.measure_traced(workload, seconds, OUT_DIR)
        metrics = outcome.layers
        for metric, (value, unit) in metrics.items():
            print(f"  {metric:<44} {value:.6g} {unit}")
        for line in outcome.notes:
            print("  " + line)
    ratio = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'fail_ratio':<14} {ratio:g}  ({outcome.failed} failed of {outcome.attempted})")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "mrdikit" / "__init__.py").is_file():
        print(f"error: no mrdikit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, result in results.items()
                for metric, entry in result["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
