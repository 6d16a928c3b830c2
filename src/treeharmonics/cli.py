"""Config-driven command line entry point.

One subcommand per certifiable result: build a tree, synthesize a witness on
either schedule kind, check span inclusions, emit the dense family, run the
double-genericity contrast, or re-certify a saved witness.  Reports are JSON
plus per-target density CSVs; identical config and seed produce byte-identical
files.  Exit codes: 0 success, 1 validation failure, 2 infeasible schedule,
3 internal invariant violation or a tree too deep for the recursion limit.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from .boundary import LevelFunction
from .errors import InfeasibleScheduleError, InvariantError, ValidationError
from .scalars import format_scalar
from .values import Value
from .serialize import (
    canonical_json,
    config_hash,
    density_csv,
    hit_report_to_doc,
    schedule_to_doc,
    block_log_to_doc,
    target_to_doc,
    tree_to_doc,
    witness_from_doc,
    witness_to_doc,
)
from .trees import Tree, TreeSpec, build_tree
from .universality import (
    COEFF_LATTICE,
    X_WARMUP,
    HitReport,
    Witness,
    build_ufm_witness,
    build_x_witness,
    certify_hits,
    dense_family,
    double_genericity_check,
    enumerate_targets,
    span_inclusion_check,
)

SCHEMA = "report/1"

DEFAULT_CONFIG = {
    "schema": "runconfig/1",
    "mode": "exact",  # the only mode; kept because config_hash covers it
    "seed": 0,
    "dim": 1,
    "width": None,
    "horizon": None,
    "warmup": None,
    "growth": 5,
    "block_length": 10,
    "count": 10,
    "cases": 20,
    "out": "out",
    "tree": {
        "depth": 60,
        "branching": {"kind": "uniform", "arity": 2},
        "q_rule": {"kind": "uniform"},
        "w_rule": {"kind": "uniform"},
    },
    "targets": {"count": 3, "resolution": 0, "bound": 1, "epsilon": "1/8"},
}


def merge_config(cfg: dict, override: dict) -> dict:
    """Merge override into cfg in place: objects merge key by key, any other
    value replaces.  Only cfg's own nesting is walked, so an unknown key is
    taken over whole, however deep it is."""
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(cfg.get(key), dict):
            merge_config(cfg[key], val)
        else:
            cfg[key] = val
    return cfg


# (flag, config path): a flag that is given overrides the config entry at its path
FLAG_PATHS = (
    ("depth", ("tree", "depth")),
    ("seed", ("seed",)),
    ("dim", ("dim",)),
    ("width", ("width",)),
    ("horizon", ("horizon",)),
    ("warmup", ("warmup",)),
    ("growth", ("growth",)),
    ("out", ("out",)),
    ("block_length", ("block_length",)),
    ("count", ("count",)),
    ("cases", ("cases",)),
    ("targets", ("targets", "count")),
    ("resolution", ("targets", "resolution")),
    ("bound", ("targets", "bound")),
    ("epsilon", ("targets", "epsilon")),
)


def apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Write every given flag into cfg in place.  A flag whose section is not
    an object is dropped; validate_config reports that section."""
    given = [(path, getattr(args, flag, None)) for flag, path in FLAG_PATHS]
    if args.arity is not None:
        given.append((("tree", "branching"), {"kind": "uniform", "arity": args.arity}))
    for (*parents, key), val in given:
        node = cfg
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if val is not None and isinstance(node, dict):
            node[key] = val
    return cfg


# (key, least value, may be null) of every integer the commands read
INTEGER_KEYS = (
    ("tree.depth", 1, False), ("targets.count", 1, False), ("targets.resolution", 0, False),
    ("targets.bound", 1, False), ("dim", 1, False), ("growth", 2, False),
    ("block_length", 1, False), ("count", 1, False), ("cases", 0, False),
    ("width", 1, True), ("horizon", 1, True), ("warmup", 0, True),
)


def validate_config(cfg: dict) -> None:
    issues = []
    if cfg.get("schema") != "runconfig/1":
        issues.append(f"unsupported config schema {cfg.get('schema')!r}")
    if cfg.get("mode") != "exact":
        issues.append(f"unsupported arithmetic mode {cfg.get('mode')!r}; the only mode is 'exact'")
    tree, targets = cfg.get("tree"), cfg.get("targets")
    for name, section in (("tree", tree), ("targets", targets)):
        if not isinstance(section, dict):
            issues.append(f"{name} must be an object")
    tree = tree if isinstance(tree, dict) else {}
    targets = targets if isinstance(targets, dict) else {}
    for name in ("branching", "q_rule", "w_rule"):
        if name in tree and not isinstance(tree[name], dict):
            issues.append(f"tree.{name} must be an object")
    sections = {"": cfg, "tree": tree, "targets": targets}
    for key, least, nullable in INTEGER_KEYS:
        section, _, name = key.rpartition(".")
        value = sections[section].get(name)
        if not (value is None and nullable) and (not isinstance(value, int) or value < least):
            null = " or null" if nullable else ""
            issues.append(f"{key} must be an integer of at least {least}{null}, got {value!r}")
    if targets.get("epsilon") is not None:
        try:
            eps = Fraction(str(targets["epsilon"]))
            if not 0 < eps < 1:
                issues.append("targets.epsilon must lie in (0,1)")
        except (ValueError, ZeroDivisionError):
            issues.append(f"targets.epsilon {targets.get('epsilon')!r} is not a fraction")
    horizon = cfg.get("horizon")
    if isinstance(horizon, int) and isinstance(tree.get("depth"), int) and horizon > tree["depth"]:
        issues.append("horizon exceeds tree depth")
    if issues:
        raise ValidationError("invalid configuration", issues)


def _tree_from_cfg(cfg: dict) -> Tree:
    t = cfg["tree"]
    spec = TreeSpec(
        depth=t["depth"],
        branching=t.get("branching", {"kind": "uniform", "arity": 2}),
        q_rule=t.get("q_rule", {"kind": "uniform"}),
        w_rule=t.get("w_rule", {"kind": "uniform"}),
        seed=cfg["seed"],
    )
    return build_tree(spec)


def _targets_from_cfg(tree: Tree, cfg: dict):
    t = cfg["targets"]
    eps = None if t.get("epsilon") is None else Fraction(str(t["epsilon"]))
    return enumerate_targets(
        tree,
        count=t["count"],
        dim=cfg["dim"],
        resolution=t["resolution"],
        bound=t["bound"],
        epsilon=eps,
    )


def _tree_summary(tree: Tree) -> dict:
    shown = min(tree.depth, 64)
    return {
        "depth": tree.depth,
        "mode": "exact",
        "kind": type(tree).__name__,
        "level_sizes": [str(tree.level_size(n)) for n in range(shown + 1)],
    }


def _report_skeleton(command: str, cfg: dict) -> dict:
    # the output path does not influence results, so it stays out of the hash
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    return {"schema": SCHEMA, "command": command, "config_hash": config_hash(hashed)}


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}")


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _write_hits(out_dir: Path, report: dict, tree: Tree, hits: HitReport) -> None:
    """Write report.json with the tree summary and the hit report, and one
    density CSV per target."""
    report["tree"] = _tree_summary(tree)
    report["hits"] = hit_report_to_doc(hits)
    _write(out_dir, "report.json", canonical_json(report))
    for entry in hits.entries:
        _write(out_dir, f"density_t{entry.target_index}.csv", density_csv(entry.profile))


def _emit_witness_outputs(out_dir: Path, witness: Witness, report: dict) -> None:
    report["schedule"] = schedule_to_doc(witness.schedule)
    report["targets"] = [target_to_doc(witness.tree, t) for t in witness.targets]
    report["logs"] = [block_log_to_doc(log) for log in witness.logs]
    _write_hits(out_dir, report, witness.tree, certify_hits(witness))
    _write(out_dir, "witness.json", canonical_json(witness_to_doc(witness)))


def _x_witness(cfg: dict) -> Witness:
    """The x-kind witness over the configured tree and targets."""
    tree = _tree_from_cfg(cfg)
    return build_x_witness(
        tree,
        _targets_from_cfg(tree, cfg),
        growth=cfg["growth"],
        width=cfg["width"],
        horizon=cfg["horizon"],
        warmup=X_WARMUP if cfg["warmup"] is None else cfg["warmup"],
    )


def cmd_build(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    report = _report_skeleton("build", cfg)
    report["tree"] = _tree_summary(tree)
    _write(out_dir, "tree.json", canonical_json(tree_to_doc(tree)))
    _write(out_dir, "report.json", canonical_json(report))


def cmd_witness_x(cfg: dict, out_dir: Path) -> None:
    _emit_witness_outputs(out_dir, _x_witness(cfg), _report_skeleton("witness-x", cfg))


def cmd_witness_ufm(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    targets = _targets_from_cfg(tree, cfg)
    witness = build_ufm_witness(
        tree,
        targets,
        block_length=cfg["block_length"],
        horizon=cfg["horizon"],
        warmup=cfg["warmup"],
    )
    _emit_witness_outputs(out_dir, witness, _report_skeleton("witness-ufm", cfg))


def cmd_span_check(cfg: dict, out_dir: Path) -> None:
    witness = _x_witness(cfg)
    targets = witness.targets
    components = list(witness.function.components[: len(targets)])
    horizon = witness.schedule.horizon
    rng = Random(cfg["seed"])
    cases = []
    any_violation = False
    zero_lf = LevelFunction.constant(0, Value.zero(cfg["dim"]))
    for case_idx in range(cfg["cases"]):
        s = rng.randint(1, min(3, len(components)))
        coeffs = tuple(rng.choice(COEFF_LATTICE) for _ in range(s))
        if case_idx % 2 == 0:
            psi, psi_ref = zero_lf, "zero"
        else:
            t = targets[rng.randrange(len(targets))]
            psi, psi_ref = t.level_function, f"target-{t.index}"
        eps = Fraction(str(cfg["targets"].get("epsilon") or "1/8"))
        rep = span_inclusion_check(components[:s], coeffs, psi, eps, horizon)
        any_violation = any_violation or not rep.ok
        cases.append(
            {
                "coeffs": [format_scalar(c) for c in coeffs],
                "psi": psi_ref,
                "epsilon": format_scalar(rep.epsilon),
                "delta": format_scalar(rep.delta),
                "hat_hits": list(rep.hat_hits),
                "combo_hits": list(rep.combo_hits),
                "violations": list(rep.violations),
                "ok": rep.ok,
            }
        )
    report = _report_skeleton("span-check", cfg)
    report["tree"] = _tree_summary(witness.tree)
    report["cases"] = cases
    report["all_ok"] = not any_violation
    _write(out_dir, "report.json", canonical_json(report))
    if any_violation:
        raise InvariantError("span inclusion violated; see report.json")


def cmd_dense_family(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    count = cfg["count"]
    result = dense_family(
        tree,
        count=count,
        dim=cfg["dim"],
        resolution=cfg["targets"]["resolution"],
        bound=cfg["targets"]["bound"],
        growth=cfg["growth"],
        horizon=cfg["horizon"],
        width=max(cfg["width"] or 0, count),
    )
    report = _report_skeleton("dense-family", cfg)
    report["tree"] = _tree_summary(tree)
    report["members"] = [
        {
            "index": m.index,
            "cut_level": m.cut_level,
            "prefix_terms": m.prefix_terms,
            "rho_partial": format_scalar(m.rho.partial),
            "rho_tail": format_scalar(m.rho.tail_bound),
            "bound": format_scalar(m.bound),
            "certified": m.certified,
        }
        for m in result.members
    ]
    report["all_certified"] = result.all_certified
    _write(out_dir, "report.json", canonical_json(report))
    if not result.all_certified:
        raise InvariantError("a dense-family member missed its pointwise bound")


def cmd_double_genericity(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    report_data = double_genericity_check(
        tree,
        horizon=cfg["horizon"],
        seed=cfg["seed"],
        dim=cfg["dim"],
        block_length=cfg["block_length"],
        growth=cfg["growth"],
    )
    report = _report_skeleton("double-genericity", cfg)
    report["tree"] = _tree_summary(tree)
    report["reference"] = {
        "epsilon": format_scalar(report_data.reference_epsilon),
        "far_distance": format_scalar(report_data.far_distance),
        "non_dense": True,
    }
    report["steady_combos"] = [
        {
            "coeffs": [format_scalar(c) for c in e.coeffs],
            "hit_count": len(e.hits),
            "lower": format_scalar(e.lower),
            "passed": e.passed,
        }
        for e in report_data.steady_combos
    ]
    report["burst_dips"] = [
        {
            "component": e.component,
            "hit_count": len(e.hits),
            "min_foreign_ratio": format_scalar(e.min_foreign_ratio),
            "passed": e.passed,
        }
        for e in report_data.burst_dips
    ]
    report["intersection_distinct"] = report_data.intersection_distinct
    report["all_pass"] = report_data.all_pass
    _write(out_dir, "report.json", canonical_json(report))


def cmd_certify(cfg: dict, out_dir: Path, witness_path: str) -> None:
    witness = witness_from_doc(_read_json(witness_path, "witness"))
    horizon = cfg["horizon"] or witness.schedule.horizon
    warmup = witness.schedule.warmup if cfg["warmup"] is None else cfg["warmup"]
    hits = certify_hits(witness, horizon=horizon, warmup=warmup)
    _write_hits(out_dir, _report_skeleton("certify", cfg), witness.tree, hits)


COMMANDS = {
    "build": cmd_build,
    "witness-x": cmd_witness_x,
    "witness-ufm": cmd_witness_ufm,
    "span-check": cmd_span_check,
    "dense-family": cmd_dense_family,
    "double-genericity": cmd_double_genericity,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors exit 1 with JSON like any other bad input."""

    def error(self, message: str):
        raise ValidationError(message)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", type=str, help="JSON config file (runconfig/1)")
    common.add_argument("--depth", type=int)
    common.add_argument("--arity", type=int)
    common.add_argument("--dim", type=int)
    common.add_argument("--width", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--horizon", type=int)
    common.add_argument("--warmup", type=int)
    common.add_argument("--growth", type=int)
    common.add_argument("--block-length", dest="block_length", type=int)
    common.add_argument("--targets", type=int, help="number of enumerated targets")
    common.add_argument("--resolution", type=int)
    common.add_argument("--bound", type=int)
    common.add_argument("--epsilon", type=str)
    common.add_argument("--out", type=str)

    parser = _Parser(
        prog="treeharmonics",
        description="Construct weighted trees, synthesize harmonic witnesses, certify hit densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("build", "witness-x", "witness-ufm", "double-genericity"):
        sub.add_parser(name, parents=[common])
    p = sub.add_parser("span-check", parents=[common])
    p.add_argument("--cases", type=int)
    p = sub.add_parser("dense-family", parents=[common])
    p.add_argument("--count", type=int)
    p = sub.add_parser("certify", parents=[common])
    p.add_argument("--witness", type=str, required=True)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = copy.deepcopy(DEFAULT_CONFIG)
        if args.config:
            override = _read_json(args.config, "config")
            if not isinstance(override, dict):
                raise ValidationError("the config must be a JSON object")
            merge_config(cfg, override)
        apply_flags(cfg, args)
        validate_config(cfg)
        out_dir = Path(cfg["out"])
        if args.command == "certify":
            cmd_certify(cfg, out_dir, args.witness)
        else:
            COMMANDS[args.command](cfg, out_dir)
        return 0
    except ValidationError as exc:
        print(json.dumps({"errors": exc.issues}, sort_keys=True), file=sys.stderr)
        return 1
    except InfeasibleScheduleError as exc:
        print(json.dumps({"errors": [str(exc)]}, sort_keys=True), file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(json.dumps({"errors": [str(exc)]}, sort_keys=True), file=sys.stderr)
        return 3
    except RecursionError:
        # the DAG walks recurse about once per tree level
        tree = "the witness tree" if args.command == "certify" else f"a tree of depth {cfg['tree']['depth']}"
        message = f"recursion limit exceeded on {tree}; the DAG walks cannot go this deep"
        print(json.dumps({"errors": [message]}, sort_keys=True), file=sys.stderr)
        return 3
    except Exception as exc:
        # the last resort: every outcome is one of the documented exit codes
        message = f"internal error: {type(exc).__name__}: {exc}"
        print(json.dumps({"errors": [message]}, sort_keys=True), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
