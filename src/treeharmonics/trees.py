"""Finite-depth weighted rooted trees with boundary sector measures.

Every non-leaf vertex has at least two children, a positive transition row q
summing to one (defining the boundary measure: the measure of the sector below
a vertex is the product of q along the root path), and a nonzero weight row w
summing to one (defining the harmonicity law).  A tree holds each row in one
form, integer numerators over one denominator (``q_ints``, ``w_ints``), and
every kernel reads it so; ``q_row``/``w_row`` rebuild a row as fractions.
``build_tree`` reads and checks each row of a spec once (``_row_to_ints``),
and both backings store the integer rows it returns as they are.  An
explicit table is read a level at a time in C-level passes: each row is keyed
by its entry texts joined into one string, and only a row text not met before
runs bytecode.  ``tree_layout`` owns the tree/1 document's keys; it leaves an
explicit tree's tables as ``RowTable``s, which canonical_json writes from the
integer rows, keyed by their bytes, and ``tree_to_doc`` turns into lists of
entry texts, the plain data form.

Two backings share one interface:

* ``ExplicitTree`` stores per-vertex rows in flat arrays and supports
  arbitrary (small) trees, including seeded-random ones.
* ``UniformTree`` stores one arity and one q/w row per level, so every vertex
  of a level is interchangeable.  Levels are never materialized, which is what
  makes deep trees (e.g. depth 60 binary) workable: offsets are plain
  integers and all bulk algorithms memoize on the level, not the vertex.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, filterfalse, pairwise, repeat, starmap
from math import gcd, lcm
from random import Random
from struct import unpack
from typing import Iterator, NamedTuple, Sequence

from .errors import ValidationError
from .scalars import Scalar, parse_scalar, read_int

MAX_EXPLICIT_VERTICES = 4_000_000
MAX_LEVEL_MEASURES = 1 << 20  # vertices of a level that level_measures lists
INT64_MAX = (1 << 63) - 1  # largest row numerator an explicit tree stores
ROW_SEP = ","  # joins a row's entry texts into its key; no scalar text holds it


class VertexId(NamedTuple):
    """A vertex by level and offset; ordered as the tuple (level, offset)."""

    level: int
    offset: int


ROOT = VertexId(0, 0)


class Tree:
    """Shared interface of the two backings.  build_tree, the only caller,
    makes every row valid; check_harmonic relies on the w rows summing to one."""

    depth: int
    _sizes: tuple[int, ...]  # vertex count of each level 0..depth

    # --- structure ----------------------------------------------------
    def level_size(self, n: int) -> int:
        if not 0 <= n <= self.depth:
            raise ValidationError(f"level {n} outside 0..{self.depth}")
        return self._sizes[n]

    def arity(self, x: VertexId) -> int:
        raise NotImplementedError

    def child(self, x: VertexId, i: int) -> VertexId:
        raise NotImplementedError

    def parent(self, x: VertexId) -> VertexId:
        raise NotImplementedError

    def child_index(self, x: VertexId) -> int:
        raise NotImplementedError

    def q_ints(self, x: VertexId) -> tuple[Sequence[int], int]:
        """The q row of x as integer numerators over one common denominator."""
        raise NotImplementedError

    def w_ints(self, x: VertexId) -> tuple[Sequence[int], int]:
        """The w row of x as integer numerators over one common denominator."""
        raise NotImplementedError

    def pos_key(self, x: VertexId):
        """Memoization key: vertices sharing a key have identical rows below."""
        raise NotImplementedError

    # --- generic helpers ----------------------------------------------
    def q_row(self, x: VertexId) -> tuple[Fraction, ...]:
        nums, den = self.q_ints(x)
        return tuple(Fraction(n, den) for n in nums)

    def w_row(self, x: VertexId) -> tuple[Fraction, ...]:
        nums, den = self.w_ints(x)
        return tuple(Fraction(n, den) for n in nums)

    def min_child(self, x: VertexId) -> int:
        """Index of the minimum-q child of x, ties to the smallest offset; x
        is no leaf (min_child_probability checks that)."""
        nums = self.q_ints(x)[0]
        return nums.index(min(nums))

    @property
    def root(self) -> VertexId:
        return ROOT

    def contains(self, x: VertexId) -> bool:
        return 0 <= x.level <= self.depth and 0 <= x.offset < self.level_size(x.level)

    def require_vertex(self, x: VertexId) -> None:
        if not self.contains(x):
            raise ValidationError(f"unknown vertex {x}")

    def is_leaf(self, x: VertexId) -> bool:
        return x.level == self.depth

    def children(self, x: VertexId) -> list[VertexId]:
        return [self.child(x, i) for i in range(self.arity(x))]

    def path_indices(self, x: VertexId) -> list[int]:
        """Child indices along the root path to x (length = x.level)."""
        out: list[int] = []
        while x.level > 0:
            out.append(self.child_index(x))
            x = self.parent(x)
        out.reverse()
        return out

    def vertices(self, n: int) -> Iterator[VertexId]:
        for o in range(self.level_size(n)):
            yield VertexId(n, o)

    def bfs(self, limit: int | None = None) -> Iterator[VertexId]:
        """Level-major enumeration starting at the root."""
        emitted = 0
        for n in range(self.depth + 1):
            for o in range(self.level_size(n)):
                yield VertexId(n, o)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return

    def vertex_count_through(self, n: int) -> int:
        return sum(self.level_size(k) for k in range(n + 1))


class UniformTree(Tree):
    """Tree whose arity and q/w rows depend only on the level."""

    def __init__(self, arities: list[int], q_ints: list[tuple[list[int], int]], w_ints: list[tuple[list[int], int]]):
        self.depth = len(arities)
        self.arities = tuple(arities)
        self._q_ints, self._w_ints = q_ints, w_ints
        sizes = [1]
        for a in self.arities:
            sizes.append(sizes[-1] * a)
        self._sizes = tuple(sizes)

    def arity(self, x: VertexId) -> int:
        if x.level >= self.depth:
            raise ValidationError(f"leaf vertex {x} has no children")
        return self.arities[x.level]

    def child(self, x: VertexId, i: int) -> VertexId:
        return VertexId(x.level + 1, x.offset * self.arities[x.level] + i)

    def parent(self, x: VertexId) -> VertexId:
        if x.level == 0:
            raise ValidationError("root has no parent")
        return VertexId(x.level - 1, x.offset // self.arities[x.level - 1])

    def child_index(self, x: VertexId) -> int:
        return x.offset % self.arities[x.level - 1]

    def q_ints(self, x: VertexId) -> tuple[Sequence[int], int]:
        return self._q_ints[x.level]

    def w_ints(self, x: VertexId) -> tuple[Sequence[int], int]:
        return self._w_ints[x.level]

    def pos_key(self, x: VertexId) -> int:
        return x.level


class ExplicitTree(Tree):
    """Tree with per-vertex rows held in flat per-level arrays.

    It keeps one integer numerator per edge; every row sums to one, so a
    row's denominator is the sum of its numerators, which q_ints and w_ints
    return beside the row's slice of numerators.
    """

    def __init__(self, child_counts: list[array], q_edge: list, w_edge: list):
        self.depth = len(child_counts)
        self._counts = child_counts          # per level 0..depth-1, per vertex
        self._q_edge = q_edge                # per level 1..depth, per child vertex
        self._w_edge = w_edge
        starts: list[array] = []
        sizes = [1]
        for counts in child_counts:
            st = array("q", accumulate(counts, initial=0))
            sizes.append(st.pop())  # the level below's size
            starts.append(st)
        self._starts = starts
        self._sizes = tuple(sizes)

    def arity(self, x: VertexId) -> int:
        if x.level >= self.depth:
            raise ValidationError(f"leaf vertex {x} has no children")
        return self._counts[x.level][x.offset]

    def child(self, x: VertexId, i: int) -> VertexId:
        return VertexId(x.level + 1, self._starts[x.level][x.offset] + i)

    def parent(self, x: VertexId) -> VertexId:
        if x.level == 0:
            raise ValidationError("root has no parent")
        return VertexId(x.level - 1, bisect_right(self._starts[x.level - 1], x.offset) - 1)

    def child_index(self, x: VertexId) -> int:
        p = self.parent(x)
        return x.offset - self._starts[p.level][p.offset]

    def _ints(self, edges: list, x: VertexId) -> tuple[array, int]:
        st = self._starts[x.level][x.offset]
        nums = edges[x.level + 1][st : st + self._counts[x.level][x.offset]]
        return nums, sum(nums)

    def q_ints(self, x: VertexId) -> tuple[array, int]:
        return self._ints(self._q_edge, x)

    def w_ints(self, x: VertexId) -> tuple[array, int]:
        return self._ints(self._w_edge, x)

    def pos_key(self, x: VertexId) -> VertexId:
        return x


# ----------------------------------------------------------------------
# Specs and construction

UNIFORM_RULE = {"kind": "uniform"}  # the default q and w rule, shared: build_tree only reads rules


class TreeSpec(NamedTuple):
    """Declarative tree description; building is deterministic given the seed.

    branching: {"kind": "uniform", "arity": k}
             | {"kind": "per_level", "arities": [...]}
             | {"kind": "explicit", "counts": [[...] per level]}
             | {"kind": "random", "max_arity": k, "min_arity": 2}
    q_rule:   {"kind": "uniform"}
             | {"kind": "per_level", "rows": [["p/q", ...] per level]}
             | {"kind": "explicit", "rows": [[["p/q", ...] per vertex] per level]}
             | {"kind": "random", "max_weight": m}
    w_rule:   same shapes as q_rule (entries may be negative, never zero).
    """

    depth: int
    branching: dict
    q_rule: dict = UNIFORM_RULE
    w_rule: dict = UNIFORM_RULE
    seed: int = 0


# the key each branching kind cannot do without
BRANCHING_KEYS = {"uniform": "arity", "per_level": "arities", "explicit": "counts", "random": "max_arity"}


def build_tree(spec: TreeSpec) -> Tree:
    """Construct a tree satisfying every invariant, or raise ValidationError."""
    if spec.depth < 1:
        raise ValidationError("tree depth must be at least 1")
    bkind = spec.branching.get("kind")
    if bkind not in BRANCHING_KEYS:
        raise ValidationError(f"unknown branching kind {bkind!r}")
    if BRANCHING_KEYS[bkind] not in spec.branching:
        raise ValidationError(f"{bkind} branching lacks the key {BRANCHING_KEYS[bkind]!r}")
    for name, rule in (("q_rule", spec.q_rule), ("w_rule", spec.w_rule)):
        if rule.get("kind") not in ("uniform", "per_level", "explicit", "random"):
            raise ValidationError(f"unknown {name} kind {rule.get('kind')!r}")

    if all(kind in ("uniform", "per_level") for kind in (bkind, spec.q_rule["kind"], spec.w_rule["kind"])):
        return _build_uniform(spec)
    return _build_explicit(spec)


def _spec_list(value, name: str) -> list:
    """A branching or rule field that must be a list; else a ValidationError naming it."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{name} must be a list, got {value!r}")
    return value


def _doc_ints(rows, name: str) -> None:
    """Raise unless every entry of the lists in rows is a JSON integer, never a
    bool, a float or a text; one C-level pass, since an explicit tree document
    holds a child count per vertex.  Anything else in rows is left to _spec_list."""
    lists = [r for r in rows if isinstance(r, list)] if isinstance(rows, list) else []
    if not set(map(type, chain.from_iterable(lists))) <= {int}:
        bad = next(c for c in chain.from_iterable(lists) if type(c) is not int)
        raise ValidationError(f"tree {name!r} must hold integers, got {bad!r}")


def _level_arities(spec: TreeSpec) -> list[int]:
    b = spec.branching
    if b["kind"] == "uniform":
        return [read_int(b["arity"], "branching 'arity'", 2)] * spec.depth
    arities = [read_int(a, "branching 'arities'", 2) for a in _spec_list(b["arities"], "branching 'arities'")]
    if len(arities) != spec.depth:
        raise ValidationError("per_level branching must list one arity per level")
    return arities


def _parse_entry(s: str) -> tuple[int, int]:
    """A row entry as a reduced (numerator, denominator) pair, the denominator positive."""
    v = parse_scalar(s)
    return v.numerator, v.denominator


def _level_rows(rule: dict, arities: list[int], what: str) -> list[tuple[list[int], int]]:
    """Each level's row of a uniform or per_level rule as (numerators,
    denominator), checked by _row_to_ints."""
    if rule["kind"] == "uniform":
        return [([1] * a, a) for a in arities]
    rows = _spec_list(rule.get("rows", []), f"{what}_rule 'rows'")
    if len(rows) != len(arities):
        raise ValidationError(f"per_level {what} rule must list one row per level")
    out = []
    for lvl, (row, a) in enumerate(zip(rows, arities)):
        if len(_spec_list(row, f"{what}_rule 'rows'")) != a:
            raise ValidationError(f"{what} row at level {lvl} has {len(row)} entries, expected {a}")
        out.append(_row_to_ints([_parse_entry(str(s)) for s in row], what, f"level {lvl}"))
    return out


def _build_uniform(spec: TreeSpec) -> UniformTree:
    arities = _level_arities(spec)
    return UniformTree(arities, _level_rows(spec.q_rule, arities, "q"), _level_rows(spec.w_rule, arities, "w"))


def _row_to_ints(row: Sequence[tuple[int, int]], what: str, where: str) -> tuple[list[int], int]:
    """Integer numerators over the common denominator of a row of reduced
    (numerator, denominator) pairs; raises unless the row is a valid q
    (positive) or w (nonzero) row summing to one.  `where` names the row in
    the error."""
    # plain loops: on rows of a few entries they beat a generator and a
    # comprehension, which each start a frame, and a table reads many rows
    den = 1
    for _, d in row:
        den = lcm(den, d)
    nums = []
    for n, d in row:
        nums.append(n * (den // d))
    if what == "q" and min(nums, default=1) <= 0:
        problem = "transition probabilities must be positive"
    elif what == "w" and 0 in nums:
        problem = "harmonic weights must be nonzero"
    elif sum(nums) == den:
        return nums, den
    else:
        problem = f"{what} row sums to {Fraction(sum(nums), den)}, not 1"
    raise ValidationError(f"{where}: {problem}")


def _draws_below(rng: Random, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)], n >= 1, read from the same
    words of rng's MT19937 stream.  randrange(n) repeats getrandbits(k), k =
    n.bit_length(), until a value below n comes up; for k <= 32 a try is one
    32-bit word shifted right by 32 - k, and getrandbits(32 * m) is m words,
    least significant first.  One try per missing value never takes a word
    too many."""
    k = n.bit_length()
    if k > 32:
        return [rng.randrange(n) for _ in range(count)]
    shift = 32 - k
    limit = n << shift  # w >> shift < n exactly when w < limit
    out: list[int] = []
    while len(out) < count:
        m = count - len(out)
        # unpacked inline, so the m words are freed once they are read
        out += [w >> shift for w in unpack(f"<{m}I", rng.getrandbits(32 * m).to_bytes(4 * m, "little")) if w < limit]
    return out


def _build_explicit(spec: TreeSpec) -> ExplicitTree:
    rng = Random(spec.seed)
    b = spec.branching
    level_arities = _level_arities(spec) if b["kind"] in ("uniform", "per_level") else None

    # child counts per level
    counts: list[list[int]] = []
    size = 1
    total = 1
    for lvl in range(spec.depth):
        if level_arities is not None:
            row = [level_arities[lvl]] * size
        elif b["kind"] == "explicit":
            table = _spec_list(b["counts"], "branching 'counts'")
            if len(table) != spec.depth or len(_spec_list(table[lvl], "branching 'counts'")) != size:
                raise ValidationError("explicit branching table incomplete")
            row = table[lvl]
            if not set(map(type, row)) <= {int} or min(row) < 2:  # the first bad count is named
                row = [read_int(c, "branching 'counts'", 2) for c in row]
        else:
            lo = read_int(b.get("min_arity", 2), "branching 'min_arity'", 2)
            hi = read_int(b["max_arity"], "branching 'max_arity'", lo)
            row = [lo + i for i in _draws_below(rng, hi - lo + 1, size)]  # randint(lo, hi) each
        counts.append(row)
        size = sum(row)
        total += size
        if total > MAX_EXPLICIT_VERTICES:
            raise ValidationError(
                f"tree exceeds {MAX_EXPLICIT_VERTICES} vertices; "
                "use level-uniform rules for deep trees"
            )

    def gather(rule: dict, what: str) -> list:
        """Per level, the edge numerators as an array, one per child; level
        0 has no edges."""
        kind = rule["kind"]
        edge: list = [None]
        if kind == "uniform":
            for row_counts in counts:
                edge.append(array("q", [1]) * sum(row_counts))
        elif kind == "per_level":
            # each level's row is parsed once; every vertex of the level must fit it
            level_rows = _level_rows(rule, [row[0] for row in counts], what)
            for lvl, (row_counts, (nums, _)) in enumerate(zip(counts, level_rows)):
                for o, k in enumerate(row_counts):
                    if len(nums) != k:
                        raise ValidationError(f"level {lvl} vertex {o}: {what} row has {len(nums)} entries, expected {k}")
                edge.append(array("q", nums * len(row_counts)))
        elif kind == "explicit":
            table = _spec_list(rule.get("rows", []), f"{what}_rule 'rows'")
            shape = [len(_spec_list(r, f"{what}_rule 'rows'")) for r in table]
            if len(table) != spec.depth or any(n != len(c) for n, c in zip(shape, counts)):
                raise ValidationError(f"explicit {what} table incomplete")
            # Each level is read in C-level passes.  A row is keyed by its
            # entry texts (str of each entry, so 1 and "1" read alike and true
            # is no 1) joined with ROW_SEP, and each distinct key is read once,
            # in first-occurrence order.  The first row that fails its shape or
            # holds ROW_SEP is left to fail(), which raises its error once the
            # rows before it are read, as a per-vertex reader would meet them.
            read: dict[str, list[int]] = {}
            parse = lru_cache(maxsize=None)(_parse_entry)

            def fail(lvl: int, o: int, raw, k: int) -> None:
                """Raise the error of the row at vertex o of level lvl, a row that fails."""
                where = f"level {lvl} vertex {o}"
                if not isinstance(raw, (list, tuple)):
                    raise ValidationError(f"{where}: {what} row must be a list, got {raw!r}")
                if len(raw) != k:
                    raise ValidationError(f"{where}: {what} row has {len(raw)} entries, expected {k}")
                _row_to_ints(list(map(parse, map(str, raw))), what, where)

            for lvl, (raws, row_counts) in enumerate(zip(table, counts)):
                stop = len(raws)
                if not (set(map(type, raws)) <= {list, tuple} and list(map(len, raws)) == row_counts):
                    fits = (isinstance(raw, (list, tuple)) and len(raw) == k for raw, k in zip(raws, row_counts))
                    stop = next((o for o, fit in enumerate(fits) if not fit), stop)
                rows = raws[:stop]
                try:
                    keys = list(map(ROW_SEP.join, rows))
                except TypeError:  # an entry is no text
                    keys = list(map(ROW_SEP.join, map(map, repeat(str), rows)))
                # a key holds k - 1 ROW_SEP exactly when no entry of its row
                # does, and then it splits back into the row's k texts
                if "".join(keys).count(ROW_SEP) != sum(map(len, rows)) - len(rows):
                    stop = next(o for o, (key, raw) in enumerate(zip(keys, rows)) if key.count(ROW_SEP) >= len(raw))
                    del keys[stop:]
                for key in filterfalse(read.__contains__, dict.fromkeys(keys)):
                    try:
                        read[key] = _row_to_ints(list(map(parse, key.split(ROW_SEP))), what, "")[0]
                    except ValidationError:
                        o = keys.index(key)
                        fail(lvl, o, rows[o], row_counts[o])
                if stop < len(raws):
                    fail(lvl, stop, raws[stop], row_counts[stop])
                # a numerator past 64 bits raises here, once every row of the level is checked
                edge.append(array("q", chain.from_iterable(map(read.__getitem__, keys))))
        else:
            mw = read_int(rule.get("max_weight", 30 if what == "q" else 9), f"{what}_rule 'max_weight'", 1)
            if mw > INT64_MAX:
                raise ValidationError(f"{what}_rule 'max_weight' must fit in 64 bits, got {mw}")
            if what == "q":
                for row_counts in counts:
                    # the vertices' rows in order, randint(1, mw) each
                    edge.append(array("q", [1 + i for i in _draws_below(rng, mw, sum(row_counts))]))
            else:

                def draws(count: int) -> list[int]:
                    # rng.choice over the nonzero integers -mw..mw, without the list
                    return [i - mw if i < mw else i - mw + 1 for i in _draws_below(rng, 2 * mw, count)]

                for row_counts in counts:
                    need = sum(row_counts)  # values the rows not yet taken need at least
                    values = draws(need)
                    level_nums: list[int] = []
                    at = 0
                    for k in row_counts:
                        while True:  # a row summing to zero is redrawn from the next values
                            if at + k > len(values):
                                values += draws(need - (len(values) - at))
                            nums = values[at : at + k]
                            at += k
                            den = sum(nums)
                            if den:
                                break
                        need -= k
                        level_nums += nums if den > 0 else [-n for n in nums]
                    edge.append(array("q", level_nums))
        return edge

    edges = []
    for rule, what in ((spec.q_rule, "q"), (spec.w_rule, "w")):
        try:
            edges.append(gather(rule, what))
        except OverflowError:
            raise ValidationError(f"{what}_rule: a row's numerators over its common denominator do not fit in 64 bits") from None
    return ExplicitTree([array("q", row) for row in counts], *edges)


# ----------------------------------------------------------------------
# Measure operations


def sector_measure(tree: Tree, x: VertexId) -> Scalar:
    """Boundary measure of the sector below x: product of q along the root path."""
    tree.require_vertex(x)
    num = den = 1
    v = tree.root
    for i in tree.path_indices(x):
        nums, qden = tree.q_ints(v)
        num *= nums[i]
        den *= qden
        v = tree.child(v, i)
    return Fraction(num, den)


def level_measures(tree: Tree, n: int) -> list[Scalar]:
    """Sector measures of every vertex at level n; they sum to 1 exactly."""
    if tree.level_size(n) > MAX_LEVEL_MEASURES:
        raise ValidationError(f"level {n} has {tree.level_size(n)} vertices; too large to materialize")
    measures: list[Scalar] = [Fraction(1)]
    for lvl in range(n):
        measures = [m * q for x, m in zip(tree.vertices(lvl), measures) for q in tree.q_row(x)]
    return measures


def min_child_probability(tree: Tree, x: VertexId) -> tuple[VertexId, Scalar]:
    """The absorbing child: minimum q, ties to the smallest offset; value <= 1/2."""
    tree.require_vertex(x)
    if tree.is_leaf(x):
        raise ValidationError(f"vertex {x} is a leaf")
    i = tree.min_child(x)
    nums, den = tree.q_ints(x)
    return tree.child(x, i), Fraction(nums[i], den)


# ----------------------------------------------------------------------
# Serialization


def _format_entry(num: int, den: int) -> str:
    """num/den (den > 0) reduced and written as str(Fraction) writes it."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class RowTable:
    """The q or w table of an explicit tree, left unformatted in tree_layout's
    document: per level, each vertex's row of integer numerators over their
    sum.  canonical_json writes it straight from those integers."""

    __slots__ = ("tree", "what")

    def __init__(self, tree: ExplicitTree, what: str):
        self.tree, self.what = tree, what

    def level_rows(self, n: int) -> Iterator[bytes]:
        """The rows of level n (0 <= n < depth) in offset order, each as the
        bytes of its int64 numerators: equal rows give equal bytes, and
        array("q", row) holds the row again."""
        tree = self.tree
        edges = (tree._q_edge if self.what == "q" else tree._w_edge)[n + 1]
        data = edges.tobytes()
        bounds = accumulate(map(edges.itemsize.__mul__, tree._counts[n]), initial=0)
        return map(data.__getitem__, starmap(slice, pairwise(bounds)))

    def to_lists(self) -> list[list[list[str]]]:
        """The table as plain data: per level, each vertex's row as the list
        of its entry texts, read vertex by vertex through q_ints or w_ints."""
        ints = self.tree.q_ints if self.what == "q" else self.tree.w_ints
        rows = (map(ints, self.tree.vertices(n)) for n in range(self.tree.depth))
        return [[[_format_entry(m, den) for m in nums] for nums, den in level] for level in rows]


def tree_layout(tree: Tree) -> dict:
    """The tree/1 document, an explicit tree's q and w tables left as
    RowTables; its "mode" is always "exact", the only arithmetic."""
    if not isinstance(tree, (UniformTree, ExplicitTree)):
        raise TypeError(f"no tree/1 document for a {type(tree).__name__}")
    header = {"schema": "tree/1", "mode": "exact", "depth": tree.depth}
    if isinstance(tree, UniformTree):
        return {
            **header,
            "kind": "uniform",
            "arities": list(tree.arities),
            "q_rows": [[_format_entry(n, den) for n in nums] for nums, den in tree._q_ints],
            "w_rows": [[_format_entry(n, den) for n in nums] for nums, den in tree._w_ints],
        }
    return {
        **header,
        "kind": "explicit",
        "child_counts": [list(c) for c in tree._counts],
        "q_rows": RowTable(tree, "q"),
        "w_rows": RowTable(tree, "w"),
    }


def tree_to_doc(tree: Tree) -> dict:
    """The tree/1 document as plain data: tree_layout with each explicit
    table as lists of entry texts."""
    return {key: v.to_lists() if isinstance(v, RowTable) else v for key, v in tree_layout(tree).items()}


def tree_from_doc(doc: dict) -> Tree:
    if doc.get("schema") != "tree/1":
        raise ValidationError(f"unsupported tree schema {doc.get('schema')!r}")
    if doc.get("mode", "exact") != "exact":
        raise ValidationError(f"unsupported arithmetic mode {doc.get('mode')!r}; the only mode is 'exact'")
    kind, depth = doc.get("kind"), doc.get("depth")
    if kind not in ("uniform", "explicit"):
        raise ValidationError(f"tree 'kind' must be 'uniform' or 'explicit', got {kind!r}")
    read_int(depth, "tree 'depth'")
    if kind == "uniform":
        _doc_ints([doc["arities"]], "arities")
        branching = {"kind": "per_level", "arities": doc["arities"]}
    else:
        _doc_ints(doc["child_counts"], "child_counts")
        branching = {"kind": "explicit", "counts": doc["child_counts"]}
    # the rows are given per level or per vertex, as the branching is
    q_rule, w_rule = ({"kind": branching["kind"], "rows": doc[key]} for key in ("q_rows", "w_rows"))
    return build_tree(TreeSpec(depth, branching, q_rule, w_rule))
