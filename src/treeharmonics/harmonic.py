"""Harmonic functions on the finite-depth tree.

A function assigns a value to every vertex; it is harmonic when each non-leaf
value equals the w-weighted sum of its children's values.  Functions are
stored as interned nodes mirroring the boundary module: a leaf node means
"this value continues constantly below" (constants are harmonic because every
weight row sums to one), a split node lists explicit children.  All
constructors here emit exactly harmonic functions in exact mode; the checker
re-derives that from scratch rather than trusting them.

level_profile gives the boundary distance of every level restriction up to a
horizon in one forward sweep: it pushes q-mass down the function and target
DAGs one level at a time and folds pairs that can no longer change into a
running sum, so certifying H levels costs O(H x frontier width) rather than
the O(H x DAG) of restricting and integrating each level from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .boundary import (
    LevelFunction,
    SectorNode,
    TupleLevelFunction,
    _expand as _expand_sector,
    sector_leaf,
    sector_split,
    value_key,
)
from .errors import DimensionMismatchError, InvariantError, ValidationError
from .scalars import Scalar
from .trees import Tree, VertexId
from .values import Value, bounded_metric, centered_grid


class FuncNode:
    """Interned vertex-function node: a value plus either children or "constant below"."""

    __slots__ = ("value", "children")

    def __init__(self, value: Value, children: tuple["FuncNode", ...] | None):
        self.value = value
        self.children = children

    @property
    def is_constant(self) -> bool:
        return self.children is None


_FUNC_LEAVES: dict[tuple, FuncNode] = {}
_FUNC_SPLITS: dict[tuple, FuncNode] = {}


def func_leaf(value: Value) -> FuncNode:
    key = value_key(value)
    node = _FUNC_LEAVES.get(key)
    if node is None:
        node = FuncNode(value, None)
        _FUNC_LEAVES[key] = node
    return node


def func_split(value: Value, children: tuple[FuncNode, ...]) -> FuncNode:
    first = children[0]
    if first.is_constant and first.value == value and all(c is first for c in children):
        return first
    key = (value_key(value), tuple(id(c) for c in children))
    node = _FUNC_SPLITS.get(key)
    if node is None:
        node = FuncNode(value, children)
        _FUNC_SPLITS[key] = node
    return node


def _expand(node: FuncNode, arity: int) -> tuple[FuncNode, ...]:
    if node.children is None:
        return (node,) * arity
    if len(node.children) != arity:
        raise InvariantError(
            f"function structure has {len(node.children)} children where the tree has {arity}"
        )
    return node.children


@dataclass(frozen=True)
class HarmonicFunction:
    """Values on all vertices through `depth`, satisfying the weighted-average law."""

    tree: Tree
    depth: int
    dim: int
    node: FuncNode

    def value_at(self, x: VertexId) -> Value:
        self.tree.require_vertex(x)
        node = self.node
        for i in self.tree.path_indices(x):
            if node.children is None:
                return node.value
            node = node.children[i]
        return node.value


@dataclass(frozen=True)
class HarmonicTuple:
    """A finite-width tuple of harmonic functions over one tree."""

    components: tuple[HarmonicFunction, ...]

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def tree(self) -> Tree:
        return self.components[0].tree

    @property
    def depth(self) -> int:
        return self.components[0].depth

    @property
    def dim(self) -> int:
        return self.components[0].dim


def zero_function(tree: Tree, dim: int) -> HarmonicFunction:
    return HarmonicFunction(tree, tree.depth, dim, func_leaf(Value.zero(dim, tree.mode)))


def constant_function(tree: Tree, value: Value) -> HarmonicFunction:
    return HarmonicFunction(tree, tree.depth, value.dim, func_leaf(value))


# ----------------------------------------------------------------------
# Harmonicity checking


@dataclass(frozen=True)
class HarmonicityReport:
    passed: bool
    checked: int
    violations: int
    max_residual: Scalar
    samples: tuple[tuple[int, Scalar], ...]  # (level, residual size), first few offenders


def check_harmonic(
    f: HarmonicFunction | HarmonicTuple,
    tolerance: Scalar | None = None,
) -> HarmonicityReport:
    """Recompute every weighted-average residual; pass iff all are zero (exact)
    or within tolerance (float mode)."""
    if isinstance(f, HarmonicTuple):
        reports = [check_harmonic(c, tolerance) for c in f.components]
        return HarmonicityReport(
            passed=all(r.passed for r in reports),
            checked=sum(r.checked for r in reports),
            violations=sum(r.violations for r in reports),
            max_residual=max((r.max_residual for r in reports), default=0),
            samples=tuple(s for r in reports for s in r.samples)[:8],
        )
    tree = f.tree
    tol: Scalar = (Fraction(0) if tree.mode == "exact" else 1e-9) if tolerance is None else tolerance
    seen: set = set()
    checked = 0
    violations = 0
    max_res: Scalar = 0
    samples: list[tuple[int, Scalar]] = []

    def visit(node: FuncNode, x: VertexId) -> None:
        nonlocal checked, violations, max_res
        if x.level >= f.depth:
            return
        key = (id(node), tree.pos_key(x))
        if key in seen:
            return
        seen.add(key)
        kids = _expand(node, tree.arity(x))
        ws = tree.w_row(x)
        acc = kids[0].value.scale(ws[0])
        for w, c in zip(ws[1:], kids[1:]):
            acc = acc + c.value.scale(w)
        residual = sum(abs(a - b) for a, b in zip(node.value.coords, acc.coords))
        checked += 1
        if residual > tol:
            violations += 1
            if len(samples) < 8:
                samples.append((x.level, residual))
        if residual > max_res:
            max_res = residual
        for i, c in enumerate(kids):
            visit(c, tree.child(x, i))

    visit(f.node, tree.root)
    return HarmonicityReport(
        passed=violations == 0,
        checked=checked,
        violations=violations,
        max_residual=max_res,
        samples=tuple(samples),
    )


def function_from_level_values(tree: Tree, values_per_level: Sequence[Sequence[Value]]) -> HarmonicFunction:
    """Assemble a candidate function from dense per-level values (no harmonicity
    assumed; feed the result to check_harmonic to obtain residuals)."""
    depth = len(values_per_level) - 1
    if depth < 0 or depth > tree.depth:
        raise ValidationError("values must cover levels 0..depth of the tree")
    for lvl, vals in enumerate(values_per_level):
        if len(vals) != tree.level_size(lvl):
            raise ValidationError(f"level {lvl}: expected {tree.level_size(lvl)} values, got {len(vals)}")
    dim = values_per_level[0][0].dim
    nodes = [func_leaf(v) for v in values_per_level[depth]]
    for lvl in range(depth - 1, -1, -1):
        grouped: list[FuncNode] = []
        i = 0
        for o, v in enumerate(values_per_level[lvl]):
            k = tree.arity(VertexId(lvl, o))
            grouped.append(func_split(v, tuple(nodes[i : i + k])))
            i += k
        nodes = grouped
    return HarmonicFunction(tree, depth, dim, nodes[0])


# ----------------------------------------------------------------------
# Constructors


def aggregate_upward(tree: Tree, leaf_values: Sequence[Value], max_size: int = 1 << 16) -> HarmonicFunction:
    """The unique harmonic function with the given deepest-level values."""
    size = tree.level_size(tree.depth)
    if size > max_size:
        raise ValidationError(f"deepest level has {size} vertices; aggregate from a level function instead")
    if len(leaf_values) != size:
        raise ValidationError(f"expected {size} leaf values, got {len(leaf_values)}")
    psi = LevelFunction.from_values(tree, tree.depth, list(leaf_values))
    return aggregate_from_level(tree, psi)


def aggregate_from_level(tree: Tree, psi: LevelFunction) -> HarmonicFunction:
    """Harmonic function equal to psi at its level, constant below, aggregated above."""
    memo: dict[tuple, FuncNode] = {}

    def rec(snode: SectorNode, x: VertexId) -> FuncNode:
        if snode.is_leaf:
            return func_leaf(snode.value)
        key = (id(snode), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        kids = tuple(rec(c, tree.child(x, i)) for i, c in enumerate(snode.children))
        ws = tree.w_row(x)
        acc = kids[0].value.scale(ws[0])
        for w, c in zip(ws[1:], kids[1:]):
            acc = acc + c.value.scale(w)
        node = func_split(acc, kids)
        memo[key] = node
        return node

    return HarmonicFunction(tree, tree.depth, psi.dim, rec(psi.node, tree.root))


def extend_constant(f: HarmonicFunction, to_depth: int) -> HarmonicFunction:
    """Extend descendants by copying ancestor values; harmonic since weights sum to one."""
    if to_depth < f.depth:
        raise ValidationError(f"cannot extend depth {f.depth} down to {to_depth}")
    if to_depth > f.tree.depth:
        raise ValidationError(f"depth {to_depth} exceeds tree depth {f.tree.depth}")
    return HarmonicFunction(f.tree, to_depth, f.dim, f.node)


def restrict_to_level(f: HarmonicFunction, n: int) -> LevelFunction:
    """The level-n values of f, viewed as a simple function on the boundary."""
    if not 0 <= n <= f.depth:
        raise ValidationError(f"level {n} outside 0..{f.depth}")
    memo: dict[tuple[int, int], SectorNode] = {}

    def rec(node: FuncNode, remaining: int) -> SectorNode:
        if remaining == 0 or node.children is None:
            return sector_leaf(node.value)
        key = (id(node), remaining)
        hit = memo.get(key)
        if hit is not None:
            return hit
        out = sector_split(tuple(rec(c, remaining - 1) for c in node.children))
        memo[key] = out
        return out

    return LevelFunction(n, f.dim, rec(f.node, n))


def level_profile(
    f: HarmonicFunction,
    target: LevelFunction,
    integrand: Callable[[Value, Value], Scalar],
    horizon: int,
) -> list[Scalar]:
    """Distances [I_1, ..., I_horizon] of the level restrictions of f to target.

    I_n integrates integrand(value of f at level n, target value) against the
    boundary measure, exactly as the boundary metrics do on
    restrict_to_level(f, n) (zero terms are skipped, so an all-zero distance
    stays the int 0).  One forward sweep serves every level: the frontier maps
    (function node, target node, position) to the q-mass of the sectors it
    covers and moves down one level per step.  A pair whose function node is
    constant never changes below, so its integral joins a running frozen sum
    and leaves the frontier.  The cost is horizon times the frontier width,
    not horizon times the DAG.
    """
    if not 0 <= horizon <= f.depth:
        raise ValidationError(f"level {horizon} outside 0..{f.depth}")
    if f.dim != target.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {target.dim}")
    tree = f.tree

    def against(value: Value, tnode: SectorNode, x: VertexId) -> Scalar:
        # a value held constant below x, integrated against the target sector
        if tnode.is_leaf:
            return integrand(value, tnode.value)
        qs = tree.q_row(x)
        r: Scalar = 0
        for i, c in enumerate(_expand_sector(tnode, tree.arity(x))):
            part = against(value, c, tree.child(x, i))
            if part:
                r = r + qs[i] * part
        return r

    frozen: Scalar = 0

    def push(into: dict, fnode: FuncNode, tnode: SectorNode, x: VertexId, mass: Scalar) -> None:
        nonlocal frozen
        if fnode.is_constant:
            part = against(fnode.value, tnode, x)
            if part:
                frozen = frozen + mass * part
            return
        key = (id(fnode), id(tnode), tree.pos_key(x))
        entry = into.get(key)
        if entry is None:
            into[key] = [fnode, tnode, x, mass]
        else:
            entry[3] = entry[3] + mass

    frontier: dict[tuple, list] = {}
    push(frontier, f.node, target.node, tree.root, 1)
    out: list[Scalar] = []
    for _ in range(horizon):
        below: dict[tuple, list] = {}
        for fnode, tnode, x, mass in frontier.values():
            k = tree.arity(x)
            fkids = _expand(fnode, k)
            tkids = _expand_sector(tnode, k)
            qs = tree.q_row(x)
            for i in range(k):
                push(below, fkids[i], tkids[i], tree.child(x, i), mass * qs[i])
        frontier = below
        total = frozen
        for fnode, tnode, x, mass in frontier.values():
            part = against(fnode.value, tnode, x)
            if part:
                total = total + mass * part
        out.append(total)
    return out


def restrict_tuple(ft: HarmonicTuple, n: int) -> TupleLevelFunction:
    return TupleLevelFunction(tuple(restrict_to_level(c, n) for c in ft.components))


def linear_combination(coeffs: Sequence[Scalar], fs: Sequence[HarmonicFunction]) -> HarmonicFunction:
    """Vertex-wise linear combination; harmonic because the law is linear."""
    if len(coeffs) != len(fs):
        raise ValidationError(f"{len(coeffs)} coefficients for {len(fs)} functions")
    if not fs:
        raise ValidationError("empty combination")
    tree = fs[0].tree
    depth = fs[0].depth
    dim = fs[0].dim
    for g in fs[1:]:
        if g.tree is not tree:
            raise ValidationError("combination requires functions over one tree")
        if g.depth != depth:
            raise ValidationError("combination requires equal depths")
        if g.dim != dim:
            raise DimensionMismatchError(f"dimension mismatch: {g.dim} vs {dim}")
    memo: dict[tuple, FuncNode] = {}

    def rec(nodes: tuple[FuncNode, ...], x: VertexId) -> FuncNode:
        key = (tuple(map(id, nodes)), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = nodes[0].value.scale(coeffs[0])
        for a, n in zip(coeffs[1:], nodes[1:]):
            acc = acc + n.value.scale(a)
        if all(n.children is None for n in nodes):
            out = func_leaf(acc)
        else:
            k = tree.arity(x)
            expanded = [_expand(n, k) for n in nodes]
            kids = tuple(
                rec(tuple(e[i] for e in expanded), tree.child(x, i)) for i in range(k)
            )
            out = func_split(acc, kids)
        memo[key] = out
        return out

    return HarmonicFunction(tree, depth, dim, rec(tuple(f.node for f in fs), tree.root))


def add_functions(f: HarmonicFunction, g: HarmonicFunction) -> HarmonicFunction:
    one = Fraction(1) if f.tree.mode == "exact" else 1.0
    return linear_combination((one, one), (f, g))


def subtract_functions(f: HarmonicFunction, g: HarmonicFunction) -> HarmonicFunction:
    one = Fraction(1) if f.tree.mode == "exact" else 1.0
    return linear_combination((one, -one), (f, g))


def truncate_and_extend(p: HarmonicFunction, h: HarmonicFunction, cut: int) -> HarmonicFunction:
    """(p - h) on levels 0..cut, then constant extension below.

    The result is harmonic: above the cut because differences of harmonic
    functions are harmonic, below it because constants are.
    """
    if p.tree is not h.tree:
        raise ValidationError("functions live on different trees")
    if not 0 <= cut <= min(p.depth, h.depth):
        raise ValidationError(f"cut level {cut} outside 0..{min(p.depth, h.depth)}")
    if p.dim != h.dim:
        raise DimensionMismatchError(f"dimension mismatch: {p.dim} vs {h.dim}")
    tree = p.tree
    memo: dict[tuple, FuncNode] = {}

    def rec(np_: FuncNode, nh: FuncNode, x: VertexId) -> FuncNode:
        diff = np_.value - nh.value
        if x.level == cut or (np_.children is None and nh.children is None):
            return func_leaf(diff)
        key = (id(np_), id(nh), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        k = tree.arity(x)
        ca, cb = _expand(np_, k), _expand(nh, k)
        kids = tuple(rec(ca[i], cb[i], tree.child(x, i)) for i in range(k))
        out = func_split(diff, kids)
        memo[key] = out
        return out

    return HarmonicFunction(tree, tree.depth, p.dim, rec(p.node, h.node, tree.root))


# ----------------------------------------------------------------------
# Pointwise-convergence metric


@dataclass(frozen=True)
class RhoResult:
    """Truncated vertex-enumeration metric plus a certified tail bound.

    The true value lies in [partial, partial + tail_bound]; the tail bound is
    the geometric remainder past the last enumerated vertex (zero when the
    finite tree was exhausted).
    """

    partial: Scalar
    tail_bound: Fraction
    terms: int

    @property
    def upper(self) -> Scalar:
        return self.partial + self.tail_bound


def pointwise_metric(f: HarmonicFunction, g: HarmonicFunction, max_terms: int = 64) -> RhoResult:
    """Sum over the level-major vertex enumeration z_1, z_2, ... of
    2^-n d(f(z_n), g(z_n)) / (1 + d), truncated at max_terms."""
    if f.tree is not g.tree:
        raise ValidationError("functions live on different trees")
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")
    tree = f.tree
    partial: Scalar = 0
    weight = Fraction(1, 2)
    emitted = 0
    for x in tree.bfs(limit=max_terms):
        if x.level > min(f.depth, g.depth):
            break
        d = bounded_metric(f.value_at(x), g.value_at(x))
        if d:
            partial = partial + weight * d
        weight = weight / 2
        emitted += 1
    exhausted = emitted >= tree.vertex_count_through(min(f.depth, g.depth))
    tail = Fraction(0) if exhausted else Fraction(1, 2**emitted)
    return RhoResult(partial=partial, tail_bound=tail, terms=emitted)


# ----------------------------------------------------------------------
# Dense enumeration


def harmonic_from_assignment(
    tree: Tree,
    level: int,
    assignment_index: int,
    grid: Sequence[Value],
) -> HarmonicFunction:
    """Harmonic function determined by the assignment_index-th grid labeling of
    a level (big-endian digits over the grid, offset order), constant below."""
    size = tree.level_size(level)
    g = len(grid)
    if not 1 <= assignment_index <= g**size:
        raise ValidationError(f"assignment index {assignment_index} outside 1..{g}^{size}")
    t = assignment_index - 1
    digits = []
    for _ in range(size):
        digits.append(t % g)
        t //= g
    digits.reverse()
    psi = LevelFunction.from_values(tree, level, [grid[d] for d in digits])
    return aggregate_from_level(tree, psi)


def diagonal_pair(tree: Tree, index: int, grid_size: int, max_level_size: int = 4096) -> tuple[int, int]:
    """The (level, assignment) pair at `index` of the diagonal enumeration."""
    if index < 1:
        raise ValidationError("enumeration index starts at 1")
    eligible = [
        k for k in range(tree.depth + 1) if tree.level_size(k) <= max_level_size
    ]
    if not eligible:
        raise ValidationError("no level fits the enumeration size guard")
    last_d = max(k + grid_size ** tree.level_size(k) for k in eligible)
    remaining = index
    d = 1
    while d <= last_d:
        for k in range(0, d):
            j = d - k
            if k > tree.depth:
                continue
            sk = tree.level_size(k)
            if sk > max_level_size:
                continue
            if j > grid_size**sk:
                continue
            remaining -= 1
            if remaining == 0:
                return k, j
        d += 1
    raise ValidationError(f"enumeration exhausted before index {index}")


def enumerate_harmonics(
    tree: Tree,
    index: int,
    dim: int = 1,
    resolution: int = 0,
    bound: int = 1,
    max_level_size: int = 4096,
) -> HarmonicFunction:
    """Deterministic enumeration whose first element is the zero function.

    Diagonal over (level, grid assignment); every pair within the level-size
    guard appears at exactly one index.  Assignments aggregate upward, so each
    emitted function is harmonic with exactly-zero residuals.
    """
    grid = centered_grid(dim, resolution, bound, tree.mode)
    k, j = diagonal_pair(tree, index, len(grid), max_level_size)
    return harmonic_from_assignment(tree, k, j, grid)
