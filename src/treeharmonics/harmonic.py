"""Harmonic functions on the finite-depth tree.

A function assigns a value to every vertex; it is harmonic when each non-leaf
value equals the w-weighted sum of its children's values.  Functions are
DAGs of the boundary module's interned nodes, with a value on every node: a
leaf means "this value continues constantly below" (constants are harmonic
because every weight row sums to one), a split lists explicit children.  All
constructors here emit exactly harmonic functions; the checker does not trust
them.  It recomputes the residual at every position of a split node exactly
and certifies a constant node in one step, since the tree invariant that each
w row sums to one makes a constant harmonic at every vertex below it.

level_profile gives the boundary distance of every level restriction up to a
horizon in one forward sweep: it pushes q-mass down the function DAG and the
DAGs of any number of targets together, one level at a time, and folds pairs
that can no longer change into a running sum per target and integrand, so
certifying H levels costs O(H x frontier width) rather than the O(H x DAG) of
restricting and integrating each level from the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .boundary import (
    MAX_LEVEL_VALUES,
    LevelFunction,
    Node,
    TupleLevelFunction,
    _child_groups,
    _expand,
    leaf,
    sector_split,
)
from .errors import DimensionMismatchError, ValidationError
from .scalars import Scalar
from .trees import Tree, VertexId
from .values import Value, bounded_metric, centered_grid

ENUMERATION_LEVEL_LIMIT = 4096  # largest level the diagonal enumerations assign


_FUNC_SPLITS: dict[tuple, Node] = {}


def func_split(value: Value, children: tuple[Node, ...]) -> Node:
    first = children[0]
    if first.is_leaf and first.value == value and all(c is first for c in children):
        return first
    key = (value, tuple(id(c) for c in children))
    node = _FUNC_SPLITS.get(key)
    if node is None:
        node = Node(value, children)
        _FUNC_SPLITS[key] = node
    return node


@dataclass(frozen=True)
class HarmonicFunction:
    """Values on all vertices through `depth`, satisfying the weighted-average law."""

    tree: Tree
    depth: int
    dim: int
    node: Node

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
    return HarmonicFunction(tree, tree.depth, dim, leaf(Value.zero(dim)))


def constant_function(tree: Tree, value: Value) -> HarmonicFunction:
    return HarmonicFunction(tree, tree.depth, value.dim, leaf(value))


# ----------------------------------------------------------------------
# Harmonicity checking


@dataclass(frozen=True)
class HarmonicityReport:
    passed: bool
    checked: int  # DAG positions certified: distinct (node, pos_key) pairs above f.depth
    violations: int
    max_residual: Scalar
    samples: tuple[tuple[int, Scalar], ...]  # (level, residual size), first few offenders


def _w_average(tree: Tree, x: VertexId, kids: Sequence[Node]) -> Value:
    """The w-weighted sum of the children's values at x."""
    ws = tree.w_row(x)
    acc = kids[0].value.scale(ws[0])
    for w, c in zip(ws[1:], kids[1:]):
        acc = acc + c.value.scale(w)
    return acc


def check_harmonic(f: HarmonicFunction | HarmonicTuple) -> HarmonicityReport:
    """Recompute every weighted-average residual of a split node; pass iff all
    are zero.  A constant node is certified where it is reached: each w row
    sums to one, so its residual is zero there and at every vertex below."""
    if isinstance(f, HarmonicTuple):
        reports = [check_harmonic(c) for c in f.components]
        return HarmonicityReport(
            passed=all(r.passed for r in reports),
            checked=sum(r.checked for r in reports),
            violations=sum(r.violations for r in reports),
            max_residual=max((r.max_residual for r in reports), default=0),
            samples=tuple(s for r in reports for s in r.samples)[:8],
        )
    tree = f.tree
    seen: set = set()
    checked = 0
    violations = 0
    max_res: Scalar = 0
    samples: list[tuple[int, Scalar]] = []

    def visit(node: Node, x: VertexId) -> None:
        nonlocal checked, violations, max_res
        if x.level >= f.depth:
            return
        key = (id(node), tree.pos_key(x))
        if key in seen:
            return
        seen.add(key)
        checked += 1
        if node.children is None:
            return
        kids = _expand(node, tree.arity(x))
        acc = _w_average(tree, x, kids)
        residual = sum(abs(a - b) for a, b in zip(node.value.coords, acc.coords))
        if residual:
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
    nodes = [leaf(v) for v in values_per_level[depth]]
    for lvl in range(depth - 1, -1, -1):
        nodes = [func_split(v, kids) for v, kids in zip(values_per_level[lvl], _child_groups(tree, lvl, nodes))]
    return HarmonicFunction(tree, depth, dim, nodes[0])


# ----------------------------------------------------------------------
# Constructors


def aggregate_upward(tree: Tree, leaf_values: Sequence[Value]) -> HarmonicFunction:
    """The unique harmonic function with the given deepest-level values."""
    size = tree.level_size(tree.depth)
    if size > MAX_LEVEL_VALUES:
        raise ValidationError(f"deepest level has {size} vertices; aggregate from a level function instead")
    if len(leaf_values) != size:
        raise ValidationError(f"expected {size} leaf values, got {len(leaf_values)}")
    psi = LevelFunction.from_values(tree, tree.depth, list(leaf_values))
    return aggregate_from_level(tree, psi)


def aggregate_from_level(tree: Tree, psi: LevelFunction) -> HarmonicFunction:
    """Harmonic function equal to psi at its level, constant below, aggregated above."""
    memo: dict[tuple, Node] = {}

    def rec(snode: Node, x: VertexId) -> Node:
        if snode.is_leaf:
            return snode
        key = (id(snode), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        kids = tuple(rec(c, tree.child(x, i)) for i, c in enumerate(snode.children))
        node = func_split(_w_average(tree, x, kids), kids)
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
    memo: dict[tuple[int, int], Node] = {}

    def rec(node: Node, remaining: int) -> Node:
        if node.children is None:
            return node
        if remaining == 0:
            return leaf(node.value)
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
    sweeps: Sequence[tuple[LevelFunction, Callable[[Value, Value], Scalar], int]],
) -> list[list[Scalar]]:
    """Distances [I_1, ..., I_horizon] of the level restrictions of f to
    target, one list per (target, integrand, horizon) triple of sweeps.

    I_n integrates integrand(value of f at level n, target value) against the
    boundary measure, exactly as the boundary metrics do on
    restrict_to_level(f, n) (zero terms are skipped, so an all-zero distance
    stays the int 0).  One forward sweep serves every level and triple: the
    frontier maps (function node, the node of each distinct target, position)
    to the q-mass of the sectors it covers and moves down one level per step,
    to the largest horizon.  A pair whose function node is constant never
    changes below, so its integral joins each triple's frozen sum and leaves
    the frontier.  The cost is the largest horizon times the frontier width.
    """
    for target, _, horizon in sweeps:
        if not 0 <= horizon <= f.depth:
            raise ValidationError(f"level {horizon} outside 0..{f.depth}")
        if f.dim != target.dim:
            raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {target.dim}")
    tree = f.tree
    roots = tuple({id(target.node): target.node for target, _, _ in sweeps}.values())  # each distinct target once
    plan = [(roots.index(target.node), integrand, horizon) for target, integrand, horizon in sweeps]

    def against(value: Value, tnode: Node, x: VertexId, integrand) -> Scalar:
        # a value held constant below x, integrated against the target sector
        if tnode.is_leaf:
            return integrand(value, tnode.value)
        qs = tree.q_row(x)
        r: Scalar = 0
        for i, c in enumerate(_expand(tnode, tree.arity(x))):
            part = against(value, c, tree.child(x, i), integrand)
            if part:
                r = r + qs[i] * part
        return r

    frozen: list[Scalar] = [0] * len(plan)

    def push(into: dict, fnode: Node, tnodes: tuple, x: VertexId, mass: Scalar) -> None:
        if fnode.is_leaf:
            for j, (slot, integrand, horizon) in enumerate(plan):
                if horizon >= x.level:
                    part = against(fnode.value, tnodes[slot], x, integrand)
                    if part:
                        frozen[j] = frozen[j] + mass * part
            return
        key = (id(fnode), tnodes, tree.pos_key(x))
        entry = into.get(key)
        if entry is None:
            into[key] = [fnode, tnodes, x, mass]
        else:
            entry[3] = entry[3] + mass

    frontier: dict[tuple, list] = {}
    push(frontier, f.node, roots, tree.root, 1)
    out: list[list[Scalar]] = [[] for _ in plan]
    for n in range(1, max((horizon for _, _, horizon in plan), default=0) + 1):
        below: dict[tuple, list] = {}
        for fnode, tnodes, x, mass in frontier.values():
            k = tree.arity(x)
            fkids = _expand(fnode, k)
            tkids = [_expand(t, k) for t in tnodes]
            qs = tree.q_row(x)
            for i in range(k):
                push(below, fkids[i], tuple(e[i] for e in tkids), tree.child(x, i), mass * qs[i])
        frontier = below
        for j, (slot, integrand, horizon) in enumerate(plan):
            if n <= horizon:
                total = frozen[j]
                for fnode, tnodes, x, mass in frontier.values():
                    part = against(fnode.value, tnodes[slot], x, integrand)
                    if part:
                        total = total + mass * part
                out[j].append(total)
    return out


def restrict_tuple(ft: HarmonicTuple, n: int) -> TupleLevelFunction:
    return TupleLevelFunction(tuple(restrict_to_level(c, n) for c in ft.components))


def linear_combination(coeffs: Sequence[Scalar], fs: Sequence[HarmonicFunction]) -> HarmonicFunction:
    """Vertex-wise linear combination through the functions' depth, constant
    below it; harmonic because the law is linear."""
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
    memo: dict[tuple, Node] = {}

    def rec(nodes: tuple[Node, ...], x: VertexId) -> Node:
        key = (tuple(map(id, nodes)), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = nodes[0].value.scale(coeffs[0])
        for a, n in zip(coeffs[1:], nodes[1:]):
            acc = acc + n.value.scale(a)
        if x.level == depth or all(n.children is None for n in nodes):
            out = leaf(acc)
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
    return linear_combination((Fraction(1), Fraction(1)), (f, g))


def subtract_functions(f: HarmonicFunction, g: HarmonicFunction) -> HarmonicFunction:
    return linear_combination((Fraction(1), Fraction(-1)), (f, g))


def truncate_and_extend(p: HarmonicFunction, h: HarmonicFunction, cut: int) -> HarmonicFunction:
    """(p - h) on levels 0..cut, then constant extension below.

    The result is harmonic: above the cut because differences of harmonic
    functions are harmonic, below it because constants are.
    """
    if not 0 <= cut <= min(p.depth, h.depth):
        raise ValidationError(f"cut level {cut} outside 0..{min(p.depth, h.depth)}")
    views = [HarmonicFunction(f.tree, cut, f.dim, f.node) for f in (p, h)]
    return extend_constant(subtract_functions(*views), p.tree.depth)


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


def level_function_from_assignment(
    tree: Tree, level: int, assignment_index: int, grid: Sequence[Value]
) -> LevelFunction:
    """The assignment_index-th grid labeling of a level: big-endian digits
    over the grid, one per vertex in offset order."""
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
    return LevelFunction.from_values(tree, level, [grid[d] for d in digits])


def harmonic_from_assignment(
    tree: Tree,
    level: int,
    assignment_index: int,
    grid: Sequence[Value],
) -> HarmonicFunction:
    """Harmonic function equal to the assignment_index-th grid labeling of a
    level, constant below."""
    return aggregate_from_level(tree, level_function_from_assignment(tree, level, assignment_index, grid))


def _diagonal(tree: Tree, grid_size: int) -> Iterator[tuple[int, int]]:
    """Every (level, assignment) pair within the level-size guard, ordered by
    level + assignment and then by level."""
    eligible = [k for k in range(tree.depth + 1) if tree.level_size(k) <= ENUMERATION_LEVEL_LIMIT]
    if not eligible:
        raise ValidationError("no level fits the enumeration size guard")
    last_d = max(k + grid_size ** tree.level_size(k) for k in eligible)
    for d in range(1, last_d + 1):
        for k in range(min(d, tree.depth + 1)):
            sk = tree.level_size(k)
            if sk <= ENUMERATION_LEVEL_LIMIT and d - k <= grid_size**sk:
                yield k, d - k


def diagonal_pair(tree: Tree, index: int, grid_size: int) -> tuple[int, int]:
    """The (level, assignment) pair at `index` of the diagonal enumeration."""
    if index < 1:
        raise ValidationError("enumeration index starts at 1")
    for i, pair in enumerate(_diagonal(tree, grid_size), 1):
        if i == index:
            return pair
    raise ValidationError(f"enumeration exhausted before index {index}")


def enumerate_harmonics(
    tree: Tree,
    index: int,
    dim: int = 1,
    resolution: int = 0,
    bound: int = 1,
) -> HarmonicFunction:
    """Deterministic enumeration whose first element is the zero function.

    Diagonal over (level, grid assignment); every pair within the level-size
    guard appears at exactly one index.  Assignments aggregate upward, so each
    emitted function is harmonic with exactly-zero residuals.
    """
    grid = centered_grid(dim, resolution, bound)
    k, j = diagonal_pair(tree, index, len(grid))
    return harmonic_from_assignment(tree, k, j, grid)
