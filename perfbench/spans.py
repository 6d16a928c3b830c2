"""Outside-in tracing: wrap the library's public functions in the namespaces
where their callers look them up, record one span per call, and read the
structural counters from the returned objects and the module intern tables.

Nothing here edits the library; the wrappers live only in the traced child
process.  Spans are kept in memory and handed back to the driver.
"""

from __future__ import annotations

import functools
from time import perf_counter

# (module, attribute, span name).  A function appears once per namespace its
# callers use, e.g. universality.p_metric for the certification loops and
# cli.build_tree for the command entry.  Each call passes through exactly one
# wrapper; calls that recurse through their own module (check_harmonic on a
# tuple) nest under a span of the same name and count once toward busy time.
WRAPPED = (
    ("cli", "build_tree", "trees.build_tree"),
    ("trees", "build_tree", "trees.build_tree"),
    ("cli", "enumerate_targets", "universality.enumerate_targets"),
    ("universality", "enumerate_targets", "universality.enumerate_targets"),
    ("cli", "build_ufm_witness", "universality.build_witness"),
    ("cli", "build_x_witness", "universality.build_witness"),
    ("universality", "build_x_witness", "universality.build_witness"),
    ("cli", "certify_hits", "universality.certify_hits"),
    ("universality", "hit_set", "universality.hit_set"),
    ("cli", "span_inclusion_check", "universality.span_inclusion_check"),
    ("cli", "dense_family", "universality.dense_family"),
    ("universality", "p_metric", "boundary.p_metric"),
    ("universality", "mismatch_measure", "boundary.mismatch_measure"),
    ("universality", "level_scale", "boundary.level_scale"),
    ("universality", "restrict_to_level", "harmonic.restrict_to_level"),
    ("harmonic", "restrict_to_level", "harmonic.restrict_to_level"),
    ("universality", "check_harmonic", "harmonic.check_harmonic"),
    ("harmonic", "check_harmonic", "harmonic.check_harmonic"),
    ("universality", "linear_combination", "harmonic.linear_combination"),
    ("harmonic", "linear_combination", "harmonic.linear_combination"),
    ("universality", "profile", "density.profile"),
    ("cli", "witness_to_doc", "serialize.witness_to_doc"),
    ("cli", "witness_from_doc", "serialize.witness_from_doc"),
    ("cli", "canonical_json", "serialize.canonical_json"),
    ("cli", "density_csv", "serialize.density_csv"),
)


class Tracer:
    """Span store and counters for one traced CLI invocation."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, outermost]
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self.levels_certified = 0
        self.checked = 0
        self.vertices = 0
        self.witnesses: list = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer = not tracer._active.get(name)
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, outer])
            tracer._stack.append(idx)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._active[name] -= 1
                tracer._stack.pop()
                tracer.spans[idx][1:3] = start, end
            tracer._observe(name, outer, args, kwargs, result)
            return result

        return wrapper

    def _observe(self, name: str, outer: bool, args, kwargs, result) -> None:
        if name == "universality.hit_set":
            self.levels_certified += kwargs["horizon"] if "horizon" in kwargs else args[3]
        elif name == "harmonic.check_harmonic" and outer:
            self.checked += result.checked
        elif name == "trees.build_tree":
            self.vertices = max(self.vertices, result.vertex_count_through(result.depth))
        elif name == "universality.build_witness" and outer:
            self.witnesses.append(result)

    def install(self, modules: dict) -> None:
        for module, attr, name in WRAPPED:
            setattr(modules[module], attr, self.wrap(name, getattr(modules[module], attr)))

    def counters(self, modules: dict) -> dict:
        """Deterministic structural counters, read once the command returned."""
        nodes, max_bits = _witness_stats(self.witnesses)
        calls: dict[str, int] = {}
        for name, *_ in self.spans:
            calls[name] = calls.get(name, 0) + 1
        return {
            "trees.vertices": self.vertices,
            "boundary.sector_splits": len(modules["boundary"]._SECTOR_SPLITS),
            "harmonic.func_splits": len(modules["harmonic"]._FUNC_SPLITS),
            "harmonic.witness_nodes": nodes,
            "harmonic.max_bits": max_bits,
            "harmonic.check_harmonic.checked": self.checked,
            "universality.levels_certified": self.levels_certified,
            **{f"{name}.calls": n for name, n in calls.items()},
        }


def _witness_stats(witnesses) -> tuple[int, int]:
    """Distinct FuncNodes reachable from each witness (summed over witnesses)
    and the largest numerator or denominator bit length among their values."""
    total = 0
    max_bits = 0
    for w in witnesses:
        comps = getattr(w.function, "components", None) or (w.function,)
        seen: set[int] = set()
        todo = [c.node for c in comps]
        while todo:
            node = todo.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            for c in node.value.coords:
                max_bits = max(max_bits, c.numerator.bit_length(), c.denominator.bit_length())
            if node.children is not None:
                todo.extend(node.children)
        total += len(seen)
    return total, max_bits
