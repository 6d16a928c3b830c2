"""Record the sha256 of every output file of one untraced pass per workload
and seed into digests.json, which run.py then holds every pass to.

    python3 perfbench/record_digests.py [--seeds 0-15] [--workload NAME ...]

Run it only on a commit whose outputs are the reference.  A pass that fails
any other check is reported and not recorded (exit code 1).  Seeds already
recorded are overwritten.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-15", help="inclusive range A-B")
    parser.add_argument("--workload", action="append", choices=workloads.NAMES)
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.is_file() else {}
    refused = 0
    for name in args.workload or workloads.NAMES:
        for seed in range(lo, hi + 1):
            workload = workloads.build(name, seed)
            workdir = run.WORK / f"record-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workloads.write_config(workload, workdir)
            runner = run.Runner(workdir)
            _, _, runs = runner.run_pass(workload, workdir / "pass", traced=False)
            problems = {k: v for k, v in run.check_pass(workload, runs, None).items() if v}
            digests = run.pass_digests(runs)
            shutil.rmtree(workdir)
            if problems:
                refused += 1
                print(f"{name} seed {seed}: not recorded: {problems}", file=sys.stderr, flush=True)
                continue
            table.setdefault(name, {})[str(seed)] = digests
            run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{name} seed {seed}: {len(table[name][str(seed)])} files", flush=True)
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
