"""Benchmark for treeharmonics: runs one workload through the CLI entry point
and prints its metrics as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the library from the
checkout's src/ and writes only under perfbench/work (removed at exit) and
perfbench/results.

Each CLI invocation ("operation") runs in a fresh child process, one at a
time, so the library's never-freed intern tables start empty and each child's
ru_maxrss is a user's peak memory.  (ru_maxrss also counts what the driver
held before the exec, which is why the driver itself stays small.)  A pass runs the workload's operation list
once; the run repeats passes for --seconds (at least MIN_PASSES) and reports
medians.  Every operation's outputs are checked (checks.py); a failed check
counts the operation as failed.

--trace 0: end-to-end metrics, untraced.  setup_s comes from SETUP_PROBES extra
    children per pass that stop at the witness command's first synthesis call.
--trace 1: per-layer metrics.  Traced passes (child.py, spans.py) alternate
    with untraced ones; trace.overhead_s is the difference of their medians.
    The spans of every pass go to results/<run>-spans.jsonl and a per-layer
    busy/self-time summary to results/<run>-layers.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 3  # before each untraced pass, so set-up samples spread over the run
MIN_PASSES = 3  # untraced passes of a --trace 0 run
MIN_TRACED_PASSES = 2  # traced and untraced passes each, of a --trace 1 run
# children still running this long after the start are killed, so a run
# always ends inside the three minutes a run may take
HARD_LIMIT_S = 170.0
# On the shared 2-core host the baseline in NOTES.md comes from, speed drifted
# by up to 1.7x within minutes and CPU time drifted with wall time, so no
# number of repeats made raw times steady from run to run.  Untraced runs therefore time a fixed reference
# kernel (reference.py, in a helper process) before and after every child and
# report the child's wall time rescaled to a constant kernel time:
#     scaled = wall * REFERENCE_S / mean(kernel before, kernel after)
# Raw wall times are kept in results/.  The kernel does not use the library,
# so no change to the library moves it.
REFERENCE_S = 0.1
CLI_ENTRY = "import sys; from treeharmonics.cli import main; sys.exit(main(sys.argv[1:]))"

END_TO_END = {
    "setup_s": "s",
    "workload_s": "s",
    "witness_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MiB",
}
# per-layer time metric -> (span name, busy or self time)
LAYER_TIMES = {
    "cli.import_s": ("cli.import", "busy"),
    "trees.build_tree_s": ("trees.build_tree", "busy"),
    "universality.enumerate_targets_s": ("universality.enumerate_targets", "busy"),
    "boundary.p_metric_s": ("boundary.p_metric", "busy"),
    "boundary.mismatch_measure_s": ("boundary.mismatch_measure", "busy"),
    "harmonic.restrict_to_level_s": ("harmonic.restrict_to_level", "busy"),
    "harmonic.check_harmonic_s": ("harmonic.check_harmonic", "busy"),
    "universality.build_witness_s": ("universality.build_witness", "busy"),
    "universality.synthesis_self_s": ("universality.build_witness", "self"),
    "universality.certify_hits_s": ("universality.certify_hits", "busy"),
    "density.profile_s": ("density.profile", "busy"),
    "serialize.witness_to_doc_s": ("serialize.witness_to_doc", "busy"),
    "serialize.canonical_json_s": ("serialize.canonical_json", "busy"),
    "serialize.witness_from_doc_s": ("serialize.witness_from_doc", "busy"),
    "serialize.density_csv_s": ("serialize.density_csv", "busy"),
}
# counters summed over a pass's operations, except those taken as a maximum
LAYER_COUNTS = (
    "trees.vertices",
    "boundary.p_metric.calls",
    "boundary.mismatch_measure.calls",
    "boundary.level_scale.calls",
    "harmonic.restrict_to_level.calls",
    "harmonic.check_harmonic.checked",
    "harmonic.linear_combination.calls",
    "universality.hit_set.calls",
    "universality.levels_certified",
    "universality.span_inclusion_check.calls",
    "universality.dense_family.calls",
    "boundary.sector_splits",
    "harmonic.func_splits",
    "harmonic.witness_nodes",
    "harmonic.max_bits",
    "serialize.output_bytes",
)
MAX_COUNTS = ("trees.vertices", "harmonic.max_bits")


class Reference:
    """The reference kernel's process (reference.py); calling it runs the
    kernel once and returns its duration in seconds."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class OpRun:
    op: workloads.Op
    code: int
    start: float
    end: float
    maxrss_kib: int
    out_dir: Path
    witness_path: Path | None
    trace_path: Path | None
    ref: float | None = None  # mean reference-kernel time around this child

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def scaled(self) -> float | None:
        return None if self.ref is None else self.wall * REFERENCE_S / self.ref


class Runner:
    """Starts children one at a time and waits for each to end."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = perf_counter() + HARD_LIMIT_S

    def spawn(self, cmd: list[str], stderr_path: Path) -> tuple[int, float, float, int]:
        """Run one child to completion: exit code, start, end, ru_maxrss (KiB)."""
        with open(stderr_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=self.env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
            )
            killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
            killer.start()
            status = None
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if status is None:  # interrupted: leave no child behind
                    proc.kill()
                    proc.wait()
            end = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, start, end, usage.ru_maxrss

    def expired(self) -> bool:
        return perf_counter() >= self.deadline

    def check_source(self) -> None:
        """Import the library once, which also writes its bytecode cache, and
        make sure the import resolves to this checkout."""
        probe = self.workdir / "import.txt"
        cmd = [sys.executable, "-c", f"import treeharmonics.cli as m; open({str(probe)!r}, 'w').write(m.__file__)"]
        code, *_ = self.spawn(cmd, self.workdir / "import.stderr")
        if code != 0 or not Path(probe.read_text()).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"treeharmonics does not import from {SRC}")

    def run_op(self, op: workloads.Op, out: Path, witness: Path | None, trace_path: Path | None) -> OpRun:
        argv = [*op.argv, "--out", str(out)]
        if witness is not None:
            argv += ["--witness", str(witness)]
        if trace_path is not None:
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(trace_path), "--", *argv]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        code, start, end, rss = self.spawn(cmd, out.with_name(f"{out.name}.stderr"))
        return OpRun(op, code, start, end, rss, out, witness, trace_path)

    def run_pass(
        self, workload: workloads.Workload, pass_dir: Path, traced: bool, reference: Reference | None = None
    ) -> tuple[float, float, dict]:
        """Run the op list once; with a reference, time its kernel around
        every op (the kernel time then falls between the ops)."""
        pass_dir.mkdir(parents=True)
        runs: dict[str, OpRun] = {}
        before = reference() if reference else None
        pass_start = perf_counter()
        for op in workload.ops:
            witness = pass_dir / op.witness_from / "witness.json" if op.witness_from else None
            trace_path = pass_dir / f"{op.label}.trace.json" if traced else None
            run = runs[op.label] = self.run_op(op, pass_dir / op.label, witness, trace_path)
            if reference:
                after = reference()
                run.ref, before = (before + after) / 2, after
        return pass_start, perf_counter(), runs

    def probe_setup(self, workload: workloads.Workload, probe_dir: Path) -> float | None:
        """Seconds from spawning the witness command to its first synthesis call."""
        op = next(o for o in workload.ops if o.label == workload.witness_op)
        probe_dir.mkdir(parents=True, exist_ok=True)
        result = probe_dir / "probe.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "probe", str(result), "--", *op.argv, "--out", str(probe_dir / "out")]
        code, start, _, _ = self.spawn(cmd, probe_dir / "probe.stderr")
        doc = json.loads(result.read_text()) if result.is_file() else {}
        return doc["setup_end"] - start if code == 0 and "setup_end" in doc else None


def pass_digests(runs: dict[str, OpRun]) -> dict[str, str]:
    out: dict[str, str] = {}
    for label, r in runs.items():
        out.update(checks.output_digests(label, r.out_dir))
    return out


def check_pass(workload: workloads.Workload, runs: dict[str, OpRun], expected: dict | None) -> dict[str, list[str]]:
    problems = {}
    for label, r in runs.items():
        source = runs.get(r.op.witness_from)
        problems[label] = checks.check_op(
            label, r.code, r.out_dir, expected, r.witness_path, source.out_dir if source else None
        )
    if workload.name == "explicit-random":
        # the tree the library built must be the one the seed selection measured
        want = workloads.explicit_vertex_count(workload.config["seed"])
        report = runs[workload.witness_op].out_dir / "report.json"
        try:
            got = sum(int(n) for n in json.loads(report.read_text())["tree"]["level_sizes"])
        except (OSError, ValueError, KeyError):
            got = None
        if got != want:
            problems[workload.witness_op].append(f"tree has {got} vertices, the seed selection expected {want}")
    if workload.name == "combos-skewed":
        # the span-check cases must be the ones the seed selection counted
        report = runs["span"].out_dir / "report.json"
        try:
            got = len({tuple(c["coeffs"]) for c in json.loads(report.read_text())["cases"] if len(c["coeffs"]) >= 2})
        except (OSError, ValueError, KeyError, TypeError):
            got = None
        if got != workloads.SPAN_COMBOS:
            problems["span"].append(f"span-check has {got} distinct combinations, the seed selection expected {workloads.SPAN_COMBOS}")
    return problems


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with at
    least ten samples beyond it (absent below eleven samples)."""
    v = sorted(values)
    n = len(v)
    out = {"n": n, "median": statistics.median(v)}
    if n >= 2:
        q1, _, q3 = statistics.quantiles(v, n=4)
        out.update(q1=q1, q3=q3)
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = v[math.ceil(pct / 100 * n) - 1]
    return out


def _layer_tables(pass_id: int, pass_start: float, pass_end: float, runs: dict[str, OpRun]) -> tuple[list[dict], dict]:
    """Spans of one traced pass (parents first) and its per-layer busy/self/calls."""
    spans: list[dict] = []

    def add(name, start, end, parent, op=None, outer=True):
        spans.append({"pass": pass_id, "op": op, "id": len(spans), "parent": parent, "name": name,
                      "start": start, "end": end, "outer": outer})
        return len(spans) - 1

    root = add("bench.pass", pass_start, pass_end, -1)
    counters: dict[str, int] = {}
    for label, r in runs.items():
        proc = add("cli.process", r.start, r.end, root, label)
        doc = json.loads(r.trace_path.read_text()) if r.trace_path and r.trace_path.is_file() else None
        if doc is None:
            continue
        add("cli.import", r.start, doc["imported"], proc, label)
        add("trace.install", doc["imported"], doc["main_start"], proc, label)
        main = add("cli.main", doc["main_start"], doc["main_end"], proc, label)
        base = len(spans)
        for name, start, end, parent, outer in doc["spans"]:
            add(name, start, end, base + parent if parent >= 0 else main, label, outer)
        add("trace.collect", doc["main_end"], doc["collected"], proc, label)
        for key, val in doc["counters"].items():
            counters[key] = max(counters.get(key, 0), val) if key in MAX_COUNTS else counters.get(key, 0) + val
    covered = [0.0] * len(spans)
    for s in spans[1:]:
        covered[s["parent"]] += s["end"] - s["start"]
    layers: dict[str, dict] = {}
    for s, cov in zip(spans, covered):
        dur = s["end"] - s["start"]
        row = layers.setdefault(s["name"], {"calls": 0, "busy": 0.0, "self": 0.0})
        row["calls"] += 1
        row["busy"] += dur if s["outer"] else 0.0
        row["self"] += dur - cov
    self_sum = sum(row["self"] for row in layers.values())
    if min(d["end"] - d["start"] - c for d, c in zip(spans, covered)) < -1e-6 or abs(self_sum - (pass_end - pass_start)) > 1e-6:
        raise RuntimeError(f"pass {pass_id}: spans do not nest inside their parents")
    counters["serialize.output_bytes"] = sum(
        p.stat().st_size for r in runs.values() if r.out_dir.is_dir() for p in r.out_dir.iterdir()
    )
    return spans, {"wall": pass_end - pass_start, "layers": layers, "counters": counters}


def _per_layer_metrics(traced: list[dict], untraced_walls: list[float]) -> tuple[dict, dict]:
    metrics = {}
    for metric, (name, kind) in LAYER_TIMES.items():
        metrics[metric] = (statistics.median(p["layers"].get(name, {}).get(kind, 0.0) for p in traced), "s")
    for metric in LAYER_COUNTS:
        metrics[metric] = (statistics.median(p["counters"].get(metric, 0) for p in traced), "count")
    traced_wall = statistics.median(p["wall"] for p in traced)
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(untraced_walls), "s")
    names = sorted({n for p in traced for n in p["layers"]})
    summary = {
        "traced_workload_s": traced_wall,
        "untraced_workload_s": statistics.median(untraced_walls),
        "self_time_sum_s": statistics.median(sum(r["self"] for r in p["layers"].values()) for p in traced),
        "layers": {
            n: {
                k: statistics.median(p["layers"].get(n, {}).get(k, 0) for p in traced)
                for k in ("calls", "busy", "self")
            }
            for n in names
        },
    }
    for row in summary["layers"].values():
        row["busy_share"] = row["busy"] / traced_wall
        row["self_share"] = row["self"] / traced_wall
    busy = {n: row["busy"] for n, row in summary["layers"].items()}
    summary["shares"] = {
        "p_metric+mismatch_measure+restrict_to_level": sum(
            busy.get(n, 0) for n in ("boundary.p_metric", "boundary.mismatch_measure", "harmonic.restrict_to_level")
        ) / traced_wall,
        "check_harmonic+serialize": sum(
            busy.get(n, 0)
            for n in ("harmonic.check_harmonic", "serialize.witness_to_doc", "serialize.canonical_json",
                      "serialize.witness_from_doc", "serialize.density_csv")
        ) / traced_wall,
    }
    return metrics, summary


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    begin = perf_counter()
    workload = workloads.build(name, seed)
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    workdir = WORK / run_id
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.write_config(workload, workdir)
    runner = Runner(workdir)
    runner.check_source()

    recorded = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if DIGESTS.is_file() else None
    expected = recorded
    attempted = failed = 0
    failures: list[str] = []

    setup: list[float] = []
    passes: list[dict] = []
    spans: list[dict] = []
    traced_tables: list[dict] = []
    pass_counters: list[dict] = []
    reference = None if trace else Reference()
    try:
        step_s: list[float] = []  # duration of each loop step: probes, pass and its checks
        while not runner.expired():
            step_start = perf_counter()
            n_traced = sum(p["traced"] for p in passes)
            n_plain = len(passes) - n_traced
            if trace:
                enough = min(n_traced, n_plain) >= MIN_TRACED_PASSES
            else:
                enough = n_plain >= MIN_PASSES
            if enough and step_start - begin + statistics.median(step_s) > seconds:
                break
            traced = trace and n_traced <= n_plain
            if not trace:
                before = reference()
                probes = [runner.probe_setup(workload, workdir / "probe") for _ in range(SETUP_PROBES)]
                ref = (before + reference()) / 2
                attempted += len(probes)
                failed += probes.count(None)
                failures.extend(f"pass {len(passes)}: set-up probe did not reach synthesis" for t in probes if t is None)
                setup.extend(t * REFERENCE_S / ref for t in probes if t is not None)
            pass_dir = workdir / f"pass{len(passes)}"
            start, end, runs = runner.run_pass(workload, pass_dir, traced, reference)
            digests = pass_digests(runs)
            if expected is None:
                expected = digests
            problems = check_pass(workload, runs, expected)
            row = {
                "traced": traced,
                "wall": sum(r.wall for r in runs.values()) if not trace else end - start,
                "scaled": None if trace else sum(r.scaled for r in runs.values()),
                "ops": {
                    label: {"wall": r.wall, "ref": r.ref, "scaled": r.scaled, "maxrss_kib": r.maxrss_kib, "code": r.code}
                    for label, r in runs.items()
                },
                "problems": {k: v for k, v in problems.items() if v},
            }
            if traced:
                pass_spans, table = _layer_tables(len(passes), start, end, runs)
                spans.extend(pass_spans)
                traced_tables.append(table)
                counts = {k: table["counters"].get(k, 0) for k in LAYER_COUNTS}
                if pass_counters and counts != pass_counters[0]:
                    # the same input must do exactly the same work on every pass
                    diff = sorted(k for k in counts if counts[k] != pass_counters[0][k])
                    row["problems"]["counters"] = [f"counters differ from the first traced pass: {diff}"]
                pass_counters.append(counts)
            attempted += len(runs)
            failed += sum(1 for label in runs if row["problems"].get(label) or "counters" in row["problems"])
            failures.extend(f"pass {len(passes)} {k}: {'; '.join(v)}" for k, v in row["problems"].items())
            passes.append(row)
            shutil.rmtree(pass_dir)
            step_s.append(perf_counter() - step_start)
    finally:
        if reference:
            reference.close()

    plain = [p for p in passes if not p["traced"]]
    if not plain or (trace and not traced_tables):
        raise SystemExit("the hard time limit ended the run before it measured a pass")
    key = "wall" if trace else "scaled"
    extra = {f"{label}_s": quartiles([p["ops"][label][key] for p in plain]) for label in plain[0]["ops"]}
    extra.update({f"raw.{label}_s": quartiles([p["ops"][label]["wall"] for p in plain]) for label in plain[0]["ops"]})
    if name == "ufm-deep":
        small = statistics.median(p["ops"]["witness60"][key] + p["ops"]["certify60"][key] for p in plain)
        large = statistics.median(p["ops"]["witness120"][key] + p["ops"]["certify120"][key] for p in plain)
        extra["depth_exponent"] = math.log2(large / small)

    if trace:
        values, summary = _per_layer_metrics(traced_tables, [p["wall"] for p in plain])
    else:
        samples = {
            "setup_s": setup,
            "workload_s": [p["scaled"] for p in plain],
            "witness_s": [p["ops"][workload.witness_op]["scaled"] for p in plain],
            "certify_s": [p["ops"][workload.certify_op]["scaled"] for p in plain],
            "peak_rss_mb": [max(o["maxrss_kib"] for o in p["ops"].values()) / 1024 for p in plain],
        }
        extra.update({f"e2e.{k}": quartiles(v) for k, v in samples.items() if v})
        values = {k: (statistics.median(v) if v else float("nan"), END_TO_END[k]) for k, v in samples.items()}
        summary = None

    RESULTS.mkdir(exist_ok=True)
    detail = {
        "workload": name,
        "seed": seed,
        "config_seed": workload.config["seed"],
        "trace": trace,
        "digests_recorded": recorded is not None,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "summary": extra,
        "setup_s": setup,
        "passes": passes,
    }
    (RESULTS / f"{run_id}.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    if trace:
        (RESULTS / f"{run_id}-layers.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
        with open(RESULTS / f"{run_id}-spans.jsonl", "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    for line in failures[:20]:
        print(f"failed: {line}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": _json_number(v), "unit": u} for k, (v, u) in values.items()},
    }


def _json_number(value: float) -> float:
    """The value as a number every JSON reader can hold: integers beyond a
    double's 53-bit mantissa (the 2**121 - 1 vertices of ufm-deep's depth-120
    tree) overflow readers that map integers to 64 bits, so they go out as
    doubles."""
    return float(value) if isinstance(value, int) and abs(value) >= 2**53 else value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "treeharmonics" / "cli.py").is_file():
        print(f"no library source at {SRC}: run the benchmark inside a treeharmonics checkout", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
