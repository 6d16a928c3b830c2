"""Run the benchmark once per seed and report each metric's median, quartiles
and spread (quartile distance as a share of the median) across the runs.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]

Runs are sequential and use BENCHMARK.json's run_seconds.  The table goes to
standard output and, with the pass-level samples pooled over all runs (scaled
and raw), to results/spread-<workloads>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run
import workloads

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range A-B")
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lo, hi = (int(x) for x in args.seeds.split("-"))
    names = args.workload or list(workloads.NAMES)
    report = {}
    for name in names:
        values: dict[str, list[float]] = {}
        pooled: dict[str, list[float]] = {}
        extra: dict[str, list[float]] = {}  # per-op medians and depth_exponent, one value per run
        failed = attempted = 0
        for seed in range(lo, hi + 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            detail = json.loads((run.RESULTS / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            plain = [p for p in detail["passes"] if not p["traced"]]
            key = "wall" if args.trace else "scaled"
            for label in plain[0]["ops"]:
                pooled.setdefault(f"{label}_s", []).extend(p["ops"][label][key] for p in plain)
                pooled.setdefault(f"raw.{label}_s", []).extend(p["ops"][label]["wall"] for p in plain)
            pooled.setdefault("workload_s", []).extend(p[key] for p in plain)
            pooled.setdefault("setup_s", []).extend(detail["setup_s"])
            for key_, val in detail["summary"].items():
                if not key_.startswith(("e2e.", "raw.")):
                    extra.setdefault(key_, []).append(val["median"] if isinstance(val, dict) else val)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        rows = {}
        for metric, vals in (values | extra).items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                            "bound": bounds.get(metric), "end_to_end": metric in values, "runs": vals}
            spread = "n/a" if rows[metric]["spread"] is None else f"{rows[metric]['spread']:.3f}"
            print(f"{name:16s} {metric:44s} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread}"
                  f"  bound {bounds.get(metric, '-')}")
        report[name] = {
            "attempted": attempted,
            "failed": failed,
            "metrics": rows,
            "pooled_passes": {k: run.quartiles(v) for k, v in pooled.items() if v},
        }
    run.RESULTS.mkdir(exist_ok=True)
    path = run.RESULTS / f"spread-{'+'.join(names)}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
