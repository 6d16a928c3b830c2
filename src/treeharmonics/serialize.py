"""Versioned JSON documents and CSV export.

Everything serializes deterministically: canonical JSON is the text json.dumps
writes with sorted keys and an indent of 2, from a writer of its own (json
encodes with an indent in pure Python), exact scalars print as 'p/q'
strings, and structure DAGs are emitted in postorder with shared nodes
written once.  Identical inputs therefore produce byte-identical files.

A witness document holds its Tree itself, and canonical_json writes it as its
tree/1 document: an explicit tree's q and w tables are written straight from
the integer rows, each distinct row's text built once per document.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from itertools import filterfalse
from json.encoder import encode_basestring_ascii as _escape
from typing import Callable, Sequence

from .boundary import LevelFunction, Node, leaf, level_values
from .density import DensityProfile, csv_rows
from .errors import InfeasibleScheduleError, ValidationError
from .harmonic import HarmonicFunction, HarmonicTuple, func_split
from .scalars import canonical, format_scalar, parse_scalar, read_int
from .trees import RowTable, Tree, _format_entry, tree_from_doc, tree_layout
from .universality import (
    BlockLog,
    HitReport,
    Schedule,
    ScheduleBlock,
    Target,
    TargetHits,
    Witness,
    _validate_schedule,
)
from .values import Value


def canonical_json(doc) -> str:
    """The text json.dumps writes for `doc` with sort_keys=True and indent=2,
    plus a newline, byte for byte, but not by that call: json runs its
    pure-Python encoder whenever an indent is set.  This keeps json's type
    dispatch, its C string escaper and the C-encoded json.dumps for other
    scalars.  A Tree found in `doc`, `doc` itself included, is written as its
    tree/1 document (tree_layout); an explicit tree's q and w tables are
    written straight from their integer rows (_write_table)."""
    out: list[str] = []
    _write(doc, "", out.append, {})
    out.append("\n")
    return "".join(out)


def _write(o, ind: str, emit: Callable[[str], None], texts: dict[str, dict]) -> None:
    """Emit canonical_json's text of o at indent ind, without the newline;
    texts holds _write_table's texts, by indent."""
    if not (isinstance(o, (dict, list, tuple)) and o):
        if isinstance(o, Tree):
            return _write(tree_layout(o), ind, emit, texts)
        if type(o) is RowTable:
            return _write_table(o, ind, emit, texts.setdefault(ind, {}))
        return emit(json.dumps(o))
    inner = ind + "  "
    lead, sep = "\n" + inner, ",\n" + inner
    if isinstance(o, dict):
        emit("{")
        for k, v in sorted(o.items()):
            # _escape raises json's TypeError on a key that is no str or scalar
            emit(f"{lead}{_escape(json.dumps(k) if k is None or isinstance(k, (int, float)) else k)}: ")
            _write(v, inner, emit, texts)
            lead = sep
        return emit(f"\n{ind}}}")
    types = set(map(type, o))  # bool is not int here, as in json
    if types == {str}:
        return emit(f"[{lead}{sep.join(map(_escape, o))}\n{ind}]")
    if types == {int}:
        return emit(f"[{lead}{sep.join(map(int.__repr__, o))}\n{ind}]")
    emit("[")
    for x in o:
        emit(lead)
        _write(x, inner, emit, texts)
        lead = sep
    emit(f"\n{ind}]")


def _write_table(table: RowTable, ind: str, emit: Callable[[str], None], known: dict) -> None:
    """Emit the text of an explicit tree's q or w table at indent ind, each
    level as one chunk.  known maps the bytes of each row met at this indent
    to its text and each (numerator, denominator) to its entry's text, so
    rows repeated within a level, across levels or between the q and w
    tables are formatted once per document."""
    level_ind = ind + "  "
    row_ind = level_ind + "  "
    entry_ind = row_ind + "  "
    lead = "[\n" + level_ind
    for n in range(table.tree.depth):
        rows = list(table.level_rows(n))
        for row in filterfalse(known.__contains__, dict.fromkeys(rows)):
            nums = array("q", row)
            den = sum(nums)
            entries = []
            for num in nums:
                text = known.get((num, den))
                if text is None:
                    text = known[num, den] = _escape(_format_entry(num, den))
                entries.append(text)
            known[row] = f"[\n{entry_ind}" + f",\n{entry_ind}".join(entries) + f"\n{row_ind}]"
        emit(f"{lead}[\n{row_ind}" + f",\n{row_ind}".join(map(known.__getitem__, rows)) + f"\n{level_ind}]")
        lead = ",\n" + level_ind
    emit(f"\n{ind}]")


def config_hash(doc) -> str:
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def _int(value, name: str) -> int:
    """An integer of a witness document, named by its key."""
    return read_int(value, f"witness {name!r}")


def _index(value, size: int, name: str) -> int:
    """A position among `size` entries: an integer of a witness document in 0..size-1."""
    if not 0 <= _int(value, name) < size:
        raise ValidationError(f"witness {name!r} must lie in 0..{size - 1}, got {value!r}")
    return value


def value_to_doc(v: Value) -> list[str]:
    return [str(c) for c in v.coords]  # an int prints as the Fraction it equals


def value_from_doc(doc: Sequence[str], dim: int) -> Value:
    """A value of `dim` scalars; a list of any other length is rejected."""
    if type(doc) is not list or len(doc) != dim:
        raise ValidationError(f"witness values must hold 'dim' = {dim} scalars, got {doc!r}")
    return Value(tuple(canonical(parse_scalar(s)) for s in doc))


# ----------------------------------------------------------------------
# Structure DAGs


def dag_to_doc(node: Node) -> dict:
    """Postorder node list of a harmonic function's DAG."""
    order: list[dict] = []
    root = _postorder(node, order, {})
    return {"nodes": order, "root": root}


def _postorder(n: Node, order: list[dict], index: dict[int, int]) -> int:
    """The position of n in order, appending n and then those of its nodes
    not yet indexed, children first."""
    if id(n) in index:
        return index[id(n)]
    kids = None if n.children is None else []
    for c in n.children or ():  # a loop, not a comprehension: one frame per level
        kids.append(_postorder(c, order, index))
    i = len(order)
    order.append({"v": value_to_doc(n.value), "c": kids})
    index[id(n)] = i
    return i


def dag_from_doc(doc: dict, dim: int) -> Node:
    """Inverse of dag_to_doc: only its postorder form, each child an earlier
    node, each value of `dim` scalars."""
    nodes: list = []
    for nd in doc["nodes"]:
        value = value_from_doc(nd["v"], dim)
        c = nd["c"]
        if c is None:
            nodes.append(leaf(value))
        elif type(c) is list and c:
            kids = tuple(nodes[_index(i, len(nodes), "components.nodes.c")] for i in c)
            nodes.append(func_split(value, kids))
        else:
            raise ValidationError(f"witness 'components.nodes.c' must be null or a non-empty list, got {c!r}")
    if not nodes:
        raise ValidationError("witness 'components.nodes' lists no nodes")
    return nodes[_index(doc["root"], len(nodes), "components.root")]


# ----------------------------------------------------------------------
# Level functions, targets, schedules


def level_function_to_doc(tree: Tree, lf: LevelFunction) -> dict:
    """Per-vertex values of the level: targets lie on levels of at most
    ENUMERATION_LEVEL_LIMIT vertices."""
    return {"level": lf.level, "dim": lf.dim, "values": [value_to_doc(v) for v in level_values(tree, lf)]}


def level_function_from_doc(tree: Tree, doc: dict, dim: int) -> LevelFunction:
    if _int(doc["dim"], "targets.level_function.dim") != dim:
        raise ValidationError(f"witness 'targets.level_function.dim' {doc['dim']} differs from the witness 'dim' {dim}")
    vals = [value_from_doc(v, dim) for v in doc["values"]]
    return LevelFunction.from_values(tree, _int(doc["level"], "targets.level_function.level"), vals)


def target_to_doc(tree: Tree, t: Target) -> dict:
    return {
        "index": t.index,
        "epsilon": format_scalar(t.epsilon),
        "level_function": level_function_to_doc(tree, t.level_function),
    }


def target_from_doc(tree: Tree, doc: dict, dim: int) -> Target:
    return Target(
        index=_int(doc["index"], "targets.index"),
        level_function=level_function_from_doc(tree, doc["level_function"], dim),
        epsilon=parse_scalar(doc["epsilon"]),
    )


# the document keys of a block's four fields, in ScheduleBlock's order
_BLOCK_KEYS = ("component", "target", "start", "end")


def _block_to_doc(b: ScheduleBlock | BlockLog) -> dict:
    return dict(zip(_BLOCK_KEYS, b))


def _block_from_doc(doc: dict, where: str) -> ScheduleBlock:
    return ScheduleBlock(*(_int(doc[key], f"{where}.{key}") for key in _BLOCK_KEYS))


def schedule_to_doc(s: Schedule) -> dict:
    return {
        "kind": s.kind,
        "width": s.width,
        "horizon": s.horizon,
        "warmup": s.warmup,
        "blocks": [_block_to_doc(b) for b in s.blocks],
    }


def schedule_from_doc(doc: dict) -> Schedule:
    return Schedule(
        kind=doc["kind"],
        width=_int(doc["width"], "schedule.width"),
        horizon=_int(doc["horizon"], "schedule.horizon"),
        warmup=_int(doc["warmup"], "schedule.warmup"),
        blocks=tuple(_block_from_doc(b, "schedule.blocks") for b in doc["blocks"]),
    )


def block_log_to_doc(log: BlockLog) -> dict:
    return {
        **_block_to_doc(log),
        "mismatch": [[lvl, format_scalar(m)] for lvl, m in log.mismatch],
        "terminal_p": format_scalar(log.terminal_p),
    }


def block_log_from_doc(doc: dict) -> BlockLog:
    return BlockLog(
        *_block_from_doc(doc, "logs"),
        mismatch=tuple((_int(lvl, "logs.mismatch"), parse_scalar(m)) for lvl, m in doc["mismatch"]),
        terminal_p=parse_scalar(doc["terminal_p"]),
    )


# ----------------------------------------------------------------------
# Witnesses


def witness_to_doc(w: Witness, logs: Sequence[BlockLog]) -> dict:
    """The witness/1 document of w and its logs (log_and_certify), the Tree itself
    under "tree", which canonical_json writes as its tree/1 document."""
    tree = w.tree
    is_tuple = isinstance(w.function, HarmonicTuple)
    components = w.function.components if is_tuple else (w.function,)
    return {
        "schema": "witness/1",
        "kind": w.kind,
        "tuple": is_tuple,
        "dim": w.function.dim,
        "depth": w.function.depth,
        "tree": tree,
        "targets": [target_to_doc(tree, t) for t in w.targets],
        "target_components": list(w.target_components),
        "schedule": schedule_to_doc(w.schedule),
        "logs": [block_log_to_doc(log) for log in logs],
        "components": [dag_to_doc(c.node) for c in components],
    }


def witness_from_doc(doc: dict) -> Witness:
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "witness/1":
        raise ValidationError(f"unsupported witness schema {schema!r}")
    try:
        tree = tree_from_doc(doc["tree"])
        dim, depth, is_tuple = _int(doc["dim"], "dim"), _int(doc["depth"], "depth"), doc["tuple"]
        if type(is_tuple) is not bool:
            raise ValidationError(f"witness 'tuple' must be true or false, got {is_tuple!r}")
        if dim < 1:
            raise ValidationError(f"witness 'dim' must be at least 1, got {dim}")
        if depth != tree.depth:
            raise ValidationError(f"witness 'depth' {depth} differs from the tree depth {tree.depth}")
        comps = tuple(HarmonicFunction(tree, depth, dim, dag_from_doc(c, dim)) for c in doc["components"])
        if not is_tuple and len(comps) != 1:
            raise ValidationError(f"witness 'components' must list one function when 'tuple' is false, got {len(comps)}")
        function = HarmonicTuple(comps) if is_tuple else comps[0]
        targets = tuple(target_from_doc(tree, t, dim) for t in doc["targets"])
        if not targets:
            raise ValidationError("witness lists no targets; at least one target required")
        if len({t.index for t in targets}) != len(targets):
            raise ValidationError(f"witness target indices {[t.index for t in targets]} must be distinct")
        target_components = tuple(_int(c, "target_components") for c in doc["target_components"])
        width = len(comps) if is_tuple else 1
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
        schedule = schedule_from_doc(doc["schedule"])
        if schedule.kind != kind:
            raise ValidationError(f"witness schedule kind {schedule.kind!r} does not match its kind {kind!r}")
        if schedule.width != width:
            raise ValidationError(f"witness schedule width {schedule.width} does not match its {width} components")
        try:
            _validate_schedule(schedule, tree, targets)
        except InfeasibleScheduleError as exc:  # a malformed file, not an infeasible request
            raise ValidationError(f"witness schedule: {exc}") from exc
        logs = tuple(block_log_from_doc(log) for log in doc["logs"])
        # checked, not kept: log_and_certify logs each component's blocks in turn, one mismatch per level
        if [log[:4] for log in logs] != [b for c in range(1, width + 1) for b in schedule.component_blocks(c)]:
            raise ValidationError("witness 'logs' must list the schedule's blocks, component by component")
        for log in logs:
            if [lvl for lvl, _ in log.mismatch] != list(range(log.start, log.end + 1)):
                raise ValidationError(f"witness 'logs.mismatch' of block {log[:4]} lists levels other than its own")
        return Witness(
            function=function,
            schedule=schedule,
            targets=targets,
            target_components=target_components,
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
