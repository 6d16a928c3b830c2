"""Workload definitions: the inputs each workload builds from its seed and the
CLI invocations ("operations") one pass runs.

Every workload runs in exact mode.  The seed only ever reaches the library
through the config's ``seed`` field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from random import Random

# explicit-random: random trees whose per-vertex arity is drawn from {2, 3}
# have a vertex count with a relative spread of about 24% across seeds, which
# no timing bound could absorb.  The workload therefore keeps the seeded
# random rules but only accepts a tree seed whose tree has EXPLICIT_VERTICES
# vertices within EXPLICIT_BAND, so every seed measures the same amount of work.
EXPLICIT_DEPTH = 12
EXPLICIT_MAX_ARITY = 3
EXPLICIT_VERTICES = 75_000
EXPLICIT_BAND = 0.02
# combos-skewed: the seed draws span-check's cases, and span-check sets the
# pass's peak RSS, which follows how many distinct coefficient tuples of two
# or more components the cases hold.  Over config seeds 0-59 the peak ranged
# from 37.7 to 51.5 MiB (quartile spread 0.065); over 16 seeds selected to
# have exactly SPAN_COMBOS such tuples, from 40.4 to 44.3 MiB (0.051).
SPAN_CASES = 20
SPAN_COMBOS = 13
SPAN_COMPONENTS = 3  # the default config's three targets
COEFF_LATTICE_SIZE = 6  # len(universality.COEFF_LATTICE)


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `--out` (and `--witness` for a certify) are added
    when the pass runs, so one op list serves every pass."""

    label: str
    argv: tuple[str, ...]
    witness_from: str | None = None  # label of the op whose witness.json a certify reads


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    witness_op: str  # timed as witness_s; its set-up is timed as setup_s
    certify_op: str  # timed as certify_s
    config: dict


def _config(seed: int, tree: dict) -> dict:
    return {"schema": "runconfig/1", "mode": "exact", "seed": seed, "tree": tree}


def _uniform_tree(depth: int, w_rule: dict | None = None) -> dict:
    return {
        "depth": depth,
        "branching": {"kind": "uniform", "arity": 2},
        "q_rule": {"kind": "uniform"},
        "w_rule": w_rule or {"kind": "uniform"},
    }


def explicit_vertex_count(tree_seed: int) -> int:
    """Vertex count of the random-branching tree for `tree_seed`.

    Mirrors the order in which trees.build_tree draws child counts (level by
    level, one randint per vertex, before any row is drawn); the benchmark
    checks the count against each pass's report.json, so a change in that
    order shows up as a failed operation instead of a silent change of input.
    """
    rng = Random(tree_seed)
    size = total = 1
    for _ in range(EXPLICIT_DEPTH):
        size = sum(rng.randint(2, EXPLICIT_MAX_ARITY) for _ in range(size))
        total += size
    return total


def explicit_tree_seed(seed: int) -> int:
    """First tree seed of the stream drawn from `seed` whose tree lies in the band."""
    return _select_seed(seed, lambda c: abs(explicit_vertex_count(c) / EXPLICIT_VERTICES - 1) <= EXPLICIT_BAND)


def span_combo_count(config_seed: int) -> int:
    """Distinct coefficient tuples of two or more components among span-check's
    cases for `config_seed`.

    Mirrors the order in which cli.cmd_span_check draws each case (component
    count, one lattice index per coefficient, then a target index on odd
    cases); the benchmark checks the count against each pass's report.json.
    """
    rng = Random(config_seed)
    combos = set()
    for case in range(SPAN_CASES):
        coeffs = tuple(rng.randrange(COEFF_LATTICE_SIZE) for _ in range(rng.randint(1, SPAN_COMPONENTS)))
        if case % 2:
            rng.randrange(SPAN_COMPONENTS)
        if len(coeffs) >= 2:
            combos.add(coeffs)
    return len(combos)


def combos_config_seed(seed: int) -> int:
    """First config seed of the stream drawn from `seed` with SPAN_COMBOS tuples."""
    return _select_seed(seed, lambda c: span_combo_count(c) == SPAN_COMBOS)


def _select_seed(seed: int, accept) -> int:
    rng = Random(seed)
    while True:
        candidate = rng.randrange(2**31)
        if accept(candidate):
            return candidate


def witness_certify_ops(label: str, command: str, extra: tuple[str, ...] = ()) -> tuple[Op, Op]:
    witness = Op(f"witness{label}", (command, "--config", "config.json", *extra))
    certify = Op(f"certify{label}", ("certify", "--config", "config.json", *extra), witness_from=witness.label)
    return witness, certify


def build(name: str, seed: int) -> Workload:
    if name == "ufm-deep":
        ops = (
            *witness_certify_ops("60", "witness-ufm", ("--depth", "60", "--block-length", "10")),
            *witness_certify_ops("120", "witness-ufm", ("--depth", "120", "--block-length", "10")),
        )
        return Workload(name, ops, "witness120", "certify120", _config(seed, _uniform_tree(120)))
    if name == "combos-skewed":
        skewed = {"kind": "per_level", "rows": [["1/100", "99/100"]] * 60}
        ops = (
            *witness_certify_ops("", "witness-ufm", ("--block-length", "10")),
            Op("span", ("span-check", "--config", "config.json", "--cases", str(SPAN_CASES))),
            # double-genericity is left out: for about one seed in eight (11, 17,
            # 26, 28 and 31 of 0-39, on this tree and on the unskewed one) it
            # exits 3 with "sampled a zero combination from nonzero coefficients"
            Op("dense", ("dense-family", "--config", "config.json", "--count", "10")),
        )
        return Workload(name, ops, "witness", "certify", _config(combos_config_seed(seed), _uniform_tree(60, skewed)))
    if name == "explicit-random":
        tree = {
            "depth": EXPLICIT_DEPTH,
            "branching": {"kind": "random", "max_arity": EXPLICIT_MAX_ARITY},
            "q_rule": {"kind": "random", "max_weight": 30},
            "w_rule": {"kind": "random", "max_weight": 9},
        }
        ops = witness_certify_ops("", "witness-x")
        return Workload(name, ops, "witness", "certify", _config(explicit_tree_seed(seed), tree))
    raise KeyError(name)


NAMES = ("ufm-deep", "combos-skewed", "explicit-random")


def write_config(workload: Workload, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "config.json"
    path.write_text(json.dumps(workload.config, sort_keys=True), encoding="utf-8")
    return path
