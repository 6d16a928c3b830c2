"""Versioned JSON documents and CSV export.

Everything serializes deterministically: canonical JSON uses sorted keys and
fixed separators, exact scalars print as 'p/q' strings, and structure DAGs
are emitted in postorder with shared nodes written once.  Identical inputs
therefore produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Sequence

from .boundary import LevelFunction, Node, leaf, level_values
from .density import DensityProfile, csv_rows
from .errors import ValidationError
from .harmonic import HarmonicFunction, HarmonicTuple, func_split
from .scalars import format_scalar, parse_scalar
from .trees import Tree, tree_from_doc, tree_to_doc
from .universality import (
    BlockLog,
    HitReport,
    Schedule,
    ScheduleBlock,
    Target,
    TargetHits,
    Witness,
)
from .values import Value


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def config_hash(doc) -> str:
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def value_to_doc(v: Value) -> list[str]:
    return [format_scalar(c) for c in v.coords]


def value_from_doc(doc: Sequence[str]) -> Value:
    return Value(tuple(parse_scalar(s) for s in doc))


# ----------------------------------------------------------------------
# Structure DAGs


def dag_to_doc(node: Node) -> dict:
    """Postorder node list of a harmonic function's DAG."""
    order: list[dict] = []
    index: dict[int, int] = {}

    def rec(n) -> int:
        if id(n) in index:
            return index[id(n)]
        kids = None if n.children is None else [rec(c) for c in n.children]
        i = len(order)
        order.append({"v": value_to_doc(n.value), "c": kids})
        index[id(n)] = i
        return i

    root = rec(node)
    return {"nodes": order, "root": root}


def dag_from_doc(doc: dict) -> Node:
    """Inverse of dag_to_doc."""
    nodes: list = []
    for nd in doc["nodes"]:
        value = value_from_doc(nd["v"])
        if nd["c"] is None:
            nodes.append(leaf(value))
        else:
            nodes.append(func_split(value, tuple(nodes[i] for i in nd["c"])))
    return nodes[doc["root"]]


# ----------------------------------------------------------------------
# Level functions, targets, schedules


def level_function_to_doc(tree: Tree, lf: LevelFunction) -> dict:
    """Per-vertex values of the level: targets lie on levels of at most
    ENUMERATION_LEVEL_LIMIT vertices."""
    return {"level": lf.level, "dim": lf.dim, "values": [value_to_doc(v) for v in level_values(tree, lf)]}


def level_function_from_doc(tree: Tree, doc: dict) -> LevelFunction:
    vals = [value_from_doc(v) for v in doc["values"]]
    return LevelFunction.from_values(tree, int(doc["level"]), vals)


def target_to_doc(tree: Tree, t: Target) -> dict:
    return {
        "index": t.index,
        "epsilon": format_scalar(t.epsilon),
        "level_function": level_function_to_doc(tree, t.level_function),
    }


def target_from_doc(tree: Tree, doc: dict) -> Target:
    return Target(
        index=int(doc["index"]),
        level_function=level_function_from_doc(tree, doc["level_function"]),
        epsilon=Fraction(doc["epsilon"]),
    )


def schedule_to_doc(s: Schedule) -> dict:
    return {
        "kind": s.kind,
        "width": s.width,
        "horizon": s.horizon,
        "warmup": s.warmup,
        "blocks": [
            {"component": b.component, "target": b.target_index, "start": b.start, "end": b.end}
            for b in s.blocks
        ],
    }


def schedule_from_doc(doc: dict) -> Schedule:
    return Schedule(
        kind=str(doc["kind"]),
        width=int(doc["width"]),
        horizon=int(doc["horizon"]),
        warmup=int(doc["warmup"]),
        blocks=tuple(
            ScheduleBlock(
                component=int(b["component"]),
                target_index=int(b["target"]),
                start=int(b["start"]),
                end=int(b["end"]),
            )
            for b in doc["blocks"]
        ),
    )


def block_log_to_doc(log: BlockLog) -> dict:
    return {
        "component": log.component,
        "target": log.target_index,
        "start": log.start,
        "end": log.end,
        "mismatch": [[lvl, format_scalar(m)] for lvl, m in log.mismatch],
        "terminal_p": format_scalar(log.terminal_p),
    }


def block_log_from_doc(doc: dict) -> BlockLog:
    return BlockLog(
        component=int(doc["component"]),
        target_index=int(doc["target"]),
        start=int(doc["start"]),
        end=int(doc["end"]),
        mismatch=tuple((int(lvl), parse_scalar(m)) for lvl, m in doc["mismatch"]),
        terminal_p=parse_scalar(doc["terminal_p"]),
    )


# ----------------------------------------------------------------------
# Witnesses


def witness_to_doc(w: Witness) -> dict:
    tree = w.tree
    is_tuple = isinstance(w.function, HarmonicTuple)
    components = w.function.components if is_tuple else (w.function,)
    return {
        "schema": "witness/1",
        "kind": w.kind,
        "tuple": is_tuple,
        "dim": w.function.dim,
        "depth": w.function.depth,
        "tree": tree_to_doc(tree),
        "targets": [target_to_doc(tree, t) for t in w.targets],
        "target_components": list(w.target_components),
        "schedule": schedule_to_doc(w.schedule),
        "logs": [block_log_to_doc(log) for log in w.logs],
        "components": [dag_to_doc(c.node) for c in components],
    }


def witness_from_doc(doc: dict) -> Witness:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "witness/1":
        raise ValidationError(f"unsupported witness schema {schema!r}")
    try:
        tree = tree_from_doc(doc["tree"])
        dim = int(doc["dim"])
        depth = int(doc["depth"])
        comps = tuple(HarmonicFunction(tree, depth, dim, dag_from_doc(c)) for c in doc["components"])
        function = HarmonicTuple(comps) if doc["tuple"] else comps[0]
        targets = tuple(target_from_doc(tree, t) for t in doc["targets"])
        target_components = tuple(int(c) for c in doc["target_components"])
        width = len(comps) if doc["tuple"] else 1
        if len(target_components) != len(targets):
            raise ValidationError(
                f"target_components lists {len(target_components)} entries for {len(targets)} targets"
            )
        for c in target_components:
            if not 1 <= c <= width:
                raise ValidationError(f"target_components entry {c} outside the components 1..{width}")
        kind = doc["kind"]
        if kind not in ("x", "ufm"):
            raise ValidationError(f"unknown witness kind {kind!r}; expected 'x' or 'ufm'")
        return Witness(
            kind=kind,
            function=function,
            schedule=schedule_from_doc(doc["schedule"]),
            targets=targets,
            target_components=target_components,
            logs=tuple(block_log_from_doc(l) for l in doc["logs"]),
        )
    except KeyError as exc:
        raise ValidationError(f"witness document lacks the key {exc}") from exc
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed witness document: {exc}") from exc


# ----------------------------------------------------------------------
# Reports


def profile_to_doc(p: DensityProfile) -> dict:
    return {"horizon": p.horizon, "warmup": p.warmup, "counts": list(p.counts)}


def hits_entry_to_doc(e: TargetHits) -> dict:
    return {
        "target": e.target_index,
        "component": e.component,
        "hits": list(e.hits),
        "upper": format_scalar(e.upper),
        "lower": format_scalar(e.lower),
        "verdict": e.verdict,
        "profile": profile_to_doc(e.profile),
    }


def hit_report_to_doc(r: HitReport) -> dict:
    return {
        "kind": r.kind,
        "horizon": r.horizon,
        "warmup": r.warmup,
        "all_pass": r.all_pass,
        "entries": [hits_entry_to_doc(e) for e in r.entries],
    }


def density_csv(p: DensityProfile) -> str:
    lines = ["n,hits,ratio_decimal,ratio_exact"]
    for n, c, dec, exact in csv_rows(p):
        lines.append(f"{n},{c},{dec},{exact}")
    return "\n".join(lines) + "\n"
