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
import gc
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
    tree_to_doc,
    witness_from_doc,
    witness_to_doc,
)
from .trees import Tree, TreeSpec, build_tree
from .universality import (
    COEFF_LATTICE,
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
# CPython's limit on int/text conversion (0: none); Pythons before it have none to set
_set_digit_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)

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


# (flag, config key, least value or None for any, may be null) of every
# integer the commands read, never a bool; a flag that is given overrides its key
INTEGER_KEYS = (
    ("--seed", "seed", None, False), ("--depth", "tree.depth", 1, False), ("--targets", "targets.count", 1, False),
    ("--resolution", "targets.resolution", 0, False), ("--bound", "targets.bound", 1, False), ("--dim", "dim", 1, False),
    ("--growth", "growth", 2, False), ("--block-length", "block_length", 1, False), ("--count", "count", 1, False),
    ("--cases", "cases", 0, False), ("--width", "width", 1, True), ("--horizon", "horizon", 1, True),
    ("--warmup", "warmup", 0, True),
)
OWN_FLAGS = {"--cases": "span-check", "--count": "dense-family"}  # flags of one subcommand only


def apply_flags(cfg: dict, args: argparse.Namespace) -> dict:
    """Write every given flag into cfg in place.  A flag whose section is not
    an object is dropped; validate_config reports that section."""
    given = [(key.split("."), getattr(args, flag[2:].replace("-", "_"), None)) for flag, key, *_ in INTEGER_KEYS]
    given += [(["out"], args.out), (["targets", "epsilon"], args.epsilon)]
    if args.arity is not None:
        given.append((["tree", "branching"], {"kind": "uniform", "arity": args.arity}))
    for (*parents, key), val in given:
        node = cfg
        for name in parents:
            node = node.get(name) if isinstance(node, dict) else None
        if val is not None and isinstance(node, dict):
            node[key] = val
    return cfg


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
    for _, key, least, nullable in INTEGER_KEYS:
        section, _, name = key.rpartition(".")
        value = sections[section].get(name)
        if not (value is None and nullable) and (type(value) is not int or least is not None and value < least):
            least_text = "" if least is None else f" of at least {least}"
            issues.append(f"{key} must be an integer{least_text}{' or null' if nullable else ''}, got {value!r}")
    if targets.get("epsilon") is not None:
        try:
            eps = Fraction(str(targets["epsilon"]))
            if not 0 < eps < 1:
                issues.append("targets.epsilon must lie in (0,1)")
        except (ValueError, ZeroDivisionError):
            issues.append(f"targets.epsilon {targets.get('epsilon')!r} is not a fraction")
    if issues:
        raise ValidationError("invalid configuration", issues)


def _tree_from_cfg(cfg: dict) -> Tree:
    """The configured tree, whose depth the horizon must not exceed."""
    t = cfg["tree"]
    if cfg["horizon"] is not None and cfg["horizon"] > t["depth"]:
        raise ValidationError("horizon exceeds tree depth")
    spec = TreeSpec(
        depth=t["depth"],
        branching=t["branching"],
        q_rule=t["q_rule"],
        w_rule=t["w_rule"],
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


def _read_json(path: str, what: str):
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals longer than CPython's default digit limit: it holds while a
    # document is parsed, and main lifts it for the exact scalars otherwise
    _set_digit_limit(getattr(sys.int_info, "default_max_str_digits", 0))
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError) as exc:
        raise ValidationError(f"cannot read {what}: {exc}")
    finally:
        _set_digit_limit(0)


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text, encoding="utf-8")


def _write_report(out_dir: Path, command: str, cfg: dict, tree: Tree, **fields) -> None:
    """Write report.json: the schema, the command, the config hash, a summary
    of the tree and the command's own fields."""
    # the output path does not influence results, so it stays out of the hash
    hashed = {k: v for k, v in cfg.items() if k != "out"}
    summary = {
        "depth": tree.depth,
        "mode": "exact",
        "kind": type(tree).__name__,
        "level_sizes": [str(tree.level_size(n)) for n in range(min(tree.depth, 64) + 1)],
    }
    report = {"schema": SCHEMA, "command": command, "config_hash": config_hash(hashed), "tree": summary, **fields}
    _write(out_dir, "report.json", canonical_json(report))


def _write_hits(out_dir: Path, command: str, cfg: dict, tree: Tree, hits: HitReport, **fields) -> None:
    """Write report.json with the hit report and the command's fields, and one
    density CSV per target."""
    _write_report(out_dir, command, cfg, tree, hits=hit_report_to_doc(hits), **fields)
    for entry in hits.entries:
        _write(out_dir, f"density_t{entry.target_index}.csv", density_csv(entry.profile))


def _emit_witness_outputs(out_dir: Path, command: str, cfg: dict, witness: Witness) -> None:
    """Write witness.json, then report.json, which repeats its schedule, targets and logs."""
    doc = witness_to_doc(witness)
    _write(out_dir, "witness.json", canonical_json(doc))
    sections = {key: doc[key] for key in ("schedule", "targets", "logs")}
    _write_hits(out_dir, command, cfg, witness.tree, certify_hits(witness), **sections)


def _x_witness(cfg: dict) -> Witness:
    """The x-kind witness over the configured tree and targets."""
    tree = _tree_from_cfg(cfg)
    return build_x_witness(
        tree,
        _targets_from_cfg(tree, cfg),
        growth=cfg["growth"],
        width=cfg["width"],
        horizon=cfg["horizon"],
        warmup=cfg["warmup"],
    )


def cmd_build(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    _write(out_dir, "tree.json", canonical_json(tree_to_doc(tree)))
    _write_report(out_dir, "build", cfg, tree)


def cmd_witness_x(cfg: dict, out_dir: Path) -> None:
    _emit_witness_outputs(out_dir, "witness-x", cfg, _x_witness(cfg))


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
    _emit_witness_outputs(out_dir, "witness-ufm", cfg, witness)


def cmd_span_check(cfg: dict, out_dir: Path) -> None:
    witness = _x_witness(cfg)
    targets = witness.targets
    components = list(witness.function.components[: len(targets)])
    horizon = witness.schedule.horizon
    rng = Random(cfg["seed"])
    zero_lf = LevelFunction.constant(0, Value.zero(cfg["dim"]))
    drawn = []  # (coeffs, psi, psi_ref) per case
    for case_idx in range(cfg["cases"]):
        s = rng.randint(1, min(3, len(components)))
        coeffs = tuple(rng.choice(COEFF_LATTICE) for _ in range(s))
        if case_idx % 2 == 0:
            drawn.append((coeffs, zero_lf, "zero"))
        else:
            t = targets[rng.randrange(len(targets))]
            drawn.append((coeffs, t.level_function, f"target-{t.index}"))
    eps = Fraction(str(cfg["targets"].get("epsilon") or "1/8"))
    reports = span_inclusion_check(components, [(c, psi) for c, psi, _ in drawn], eps, horizon)
    any_violation = not all(rep.ok for rep in reports)
    cases = [
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
        for (coeffs, _, psi_ref), rep in zip(drawn, reports)
    ]
    _write_report(out_dir, "span-check", cfg, witness.tree, cases=cases, all_ok=not any_violation)
    if any_violation:
        raise InvariantError("span inclusion violated; see report.json")


def cmd_dense_family(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    result = dense_family(
        tree,
        count=cfg["count"],
        dim=cfg["dim"],
        resolution=cfg["targets"]["resolution"],
        bound=cfg["targets"]["bound"],
        growth=cfg["growth"],
        horizon=cfg["horizon"],
        width=cfg["width"],
    )
    members = [
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
    _write_report(out_dir, "dense-family", cfg, tree, members=members, all_certified=result.all_certified)
    if not result.all_certified:
        raise InvariantError("a dense-family member missed its pointwise bound")


def cmd_double_genericity(cfg: dict, out_dir: Path) -> None:
    tree = _tree_from_cfg(cfg)
    report_data = double_genericity_check(
        tree,
        horizon=cfg["horizon"],
        dim=cfg["dim"],
        block_length=cfg["block_length"],
        growth=cfg["growth"],
    )
    _write_report(
        out_dir, "double-genericity", cfg, tree,
        reference={
            "epsilon": format_scalar(report_data.reference_epsilon),
            "far_distance": format_scalar(report_data.far_distance),
            "non_dense": True,
        },
        steady_span={
            "hit_count": len(report_data.steady_span.hits),
            "lower": format_scalar(report_data.steady_span.lower),
            "passed": report_data.steady_span.passed,
        },
        burst_dips=[
            {
                "component": e.component,
                "hit_count": len(e.hits),
                "min_foreign_ratio": format_scalar(e.min_foreign_ratio),
                "passed": e.passed,
            }
            for e in report_data.burst_dips
        ],
        span_ranks=report_data.span_ranks._asdict(),
        intersection_trivial=report_data.span_ranks.intersection_trivial,
        all_pass=report_data.all_pass,
    )
    if not report_data.all_pass:
        raise InvariantError("double genericity failed; see report.json")


def cmd_certify(cfg: dict, out_dir: Path, witness_path: str) -> None:
    witness = witness_from_doc(_read_json(witness_path, "witness"))
    hits = certify_hits(witness, horizon=cfg["horizon"], warmup=cfg["warmup"])
    _write_hits(out_dir, "certify", cfg, witness.tree, hits)


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
    common.add_argument("--arity", type=int)
    common.add_argument("--epsilon", type=str)
    common.add_argument("--out", type=str)
    for flag, *_ in INTEGER_KEYS:
        if flag not in OWN_FLAGS:
            common.add_argument(flag, type=int, help="number of enumerated targets" if flag == "--targets" else None)

    parser = _Parser(
        prog="treeharmonics",
        description="Construct weighted trees, synthesize harmonic witnesses, certify hit densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, parents=[common]) for name in (*COMMANDS, "certify")}
    for flag, name in OWN_FLAGS.items():
        parsers[name].add_argument(flag, type=int)
    parsers["certify"].add_argument("--witness", type=str, required=True)
    return parser


def _fail(errors: list[str], code: int) -> int:
    """Print errors as a JSON object on stderr and return the exit code."""
    print(json.dumps({"errors": errors}, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The command runs with CPython's cyclic garbage collector off, and main
    restores the caller's setting on return.  Reference counting frees
    everything a command makes: the DAGs are interned and acyclic, and no
    recursive walk is a nested function that refers to itself, so none is
    left in a cycle whether it returns or raises (tests/test_gc.py checks
    that no library function is left in a cycle)."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    _set_digit_limit(0)  # exact scalars pass CPython's default of 4300 digits from about depth 550
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
        return _fail(exc.issues, 1)
    except InfeasibleScheduleError as exc:
        return _fail([str(exc)], 2)
    except InvariantError as exc:
        return _fail([str(exc)], 3)
    except RecursionError:
        # the DAG walks recurse about once per tree level
        tree = "the witness tree" if args.command == "certify" else f"a tree of depth {cfg['tree']['depth']}"
        return _fail([f"recursion limit exceeded on {tree}; the DAG walks cannot go this deep"], 3)
    except Exception as exc:
        # the last resort: every outcome is one of the documented exit codes
        return _fail([f"internal error: {type(exc).__name__}: {exc}"], 3)
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
