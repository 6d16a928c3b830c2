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

One forward sweep, _sweep, serves every level up to a horizon: it pushes
q-mass down the DAGs of one or more functions and of any number of targets
together, one level at a time, sets aside the entries that can no longer
change, and keeps one running total per sweep, so H levels cost O(H x
frontier width) rather than the O(H x DAG) of restricting and integrating
each level from the root.  Its callers supply only a fold.
level_profile folds exact distances, whose digits grow quadratically with
depth; the witness commands use it because they write block-end distances
and mismatch logs exactly.  hit_levels folds integer bounds scaled by 2^P,
decides d_n < radius from them as each level comes and sums exactly only a
level whose bounds straddle the radius; walking functions jointly, it bounds
their linear combinations from the component values.  certify on a witness
file, span-check and double-genericity's burst dips use it because they
write hit sets only; double-genericity's steady span folds support measures.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

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
from .errors import ValidationError
from .scalars import Scalar
from .trees import Tree, VertexId
from .values import Value, _check_dims, base_metric, bounded_metric, centered_grid, weighted_sum

ENUMERATION_LEVEL_LIMIT = 4096  # largest level the diagonal enumerations assign
P = 128  # fractional bits of the fixed-point bounds hit_levels decides from


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


class HarmonicFunction(NamedTuple):
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


class HarmonicTuple(NamedTuple):
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


class HarmonicityReport(NamedTuple):
    passed: bool
    checked: int  # DAG positions certified: distinct (node, pos_key) pairs above f.depth
    violations: int
    max_residual: Scalar
    samples: tuple[tuple[int, Scalar], ...]  # (level, residual size), first few offenders


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
        acc = weighted_sum(tree.w_row(x), [c.value for c in kids])
        residual = base_metric(node.value, acc)
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
        node = func_split(weighted_sum(tree.w_row(x), [c.value for c in kids]), kids)
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


def _against(tree: Tree, value: Value, tnode: Node, x: VertexId, integrand) -> Scalar:
    """integrand(value, target value) over the target sector at x, with value
    held constant below x; zero terms are skipped."""
    if tnode.is_leaf:
        return integrand(value, tnode.value)
    qs = tree.q_row(x)
    r: Scalar = 0
    for i, c in enumerate(_expand(tnode, tree.arity(x))):
        part = _against(tree, value, c, tree.child(x, i), integrand)
        if part:
            r = r + qs[i] * part
    return r


def _sweep(fs: Sequence[HarmonicFunction], sweeps: Sequence[tuple], fold: Callable, start) -> Iterator[tuple]:
    """Walk the functions fs and the distinct sweep targets (each sweep's
    first item) together to the largest horizon (its last), and yield
    (sweep index, level n, total) for n = 1..horizon of each sweep.

    The walk pushes q-mass down the DAGs one level at a time.  An entry
    (function node per function, target node per distinct target, vertex,
    mass) freezes once every function node is constant below it.  Each sweep
    keeps a running total, from start, of fold(frozen entries, its target's
    slot, sweep index, total) at levels 0..n; its level-n total folds the
    level-n frontier into that.  Nothing is kept of a level once it is
    yielded.
    """
    tree = fs[0].tree
    for g in fs:
        if g.tree is not tree:
            raise ValidationError("a joint walk requires functions over one tree")
        for target, *_, horizon in sweeps:
            if not 0 <= horizon <= g.depth:
                raise ValidationError(f"level {horizon} outside 0..{g.depth}")
            _check_dims(g, target)
    roots = tuple({id(s[0].node): s[0].node for s in sweeps}.values())  # each distinct target once
    slots = [roots.index(s[0].node) for s in sweeps]

    def push(frozen: list, into: dict, fnodes: tuple, tnodes: tuple, x: VertexId, mass: Scalar) -> None:
        if all(n.children is None for n in fnodes):
            frozen.append((fnodes, tnodes, x, mass))
            return
        key = (fnodes, tnodes, tree.pos_key(x))
        entry = into.get(key)
        if entry is None:
            into[key] = [fnodes, tnodes, x, mass]
        else:
            entry[3] = entry[3] + mass

    frozen, frontier = [], {}
    push(frozen, frontier, tuple(g.node for g in fs), roots, tree.root, 1)
    totals = [fold(frozen, slot, j, start) for j, slot in enumerate(slots)]
    for n in range(1, max((s[-1] for s in sweeps), default=0) + 1):
        frozen, below = [], {}
        for fnodes, tnodes, x, mass in frontier.values():
            k = tree.arity(x)
            fkids = [_expand(node, k) for node in fnodes]
            tkids = [_expand(t, k) for t in tnodes]
            qs = tree.q_row(x)
            for i, (fchild, tchild) in enumerate(zip(zip(*fkids), zip(*tkids))):
                push(frozen, below, fchild, tchild, tree.child(x, i), mass * qs[i])
        frontier = below
        for j, (slot, sweep) in enumerate(zip(slots, sweeps)):
            if n <= sweep[-1]:
                totals[j] = fold(frozen, slot, j, totals[j])
                yield j, n, fold(frontier.values(), slot, j, totals[j])


def level_profile(
    f: HarmonicFunction,
    sweeps: Sequence[tuple[LevelFunction, Callable[[Value, Value], Scalar], int]],
) -> list[list[Scalar]]:
    """Distances [I_1, ..., I_horizon] of the level restrictions of f to
    target, one list per (target, integrand, horizon) triple of sweeps.

    I_n integrates integrand(value of f at level n, target value) against the
    boundary measure, exactly as the boundary metrics do on
    restrict_to_level(f, n) (zero terms are skipped, so an all-zero distance
    stays the int 0): _sweep's running sums of exact terms.
    """
    tree = f.tree

    def fold(entries, slot: int, j: int, total: Scalar) -> Scalar:
        integrand = sweeps[j][1]
        for (fnode,), tnodes, x, mass in entries:
            part = _against(tree, fnode.value, tnodes[slot], x, integrand)
            if part:
                total = total + mass * part
        return total

    out: list[list[Scalar]] = [[] for _ in sweeps]
    for j, _, total in _sweep((f,), sweeps, fold, 0):
        out[j].append(total)
    return out


def hit_levels(
    fs: Sequence[HarmonicFunction], sweeps: Sequence[tuple[LevelFunction, Sequence[Scalar], Scalar, int]]
) -> list[list[int]]:
    """The levels n in 1..horizon with bounded_metric(a_1 f_1 + a_2 f_2 + ...
    at level n, target) < radius, one list per (target, coefficients a,
    radius, horizon) sweep, all decided in one joint walk of the functions fs
    (missing trailing coefficients are zero).

    The bounds, in units of 2^-P, round outward each term a_i u_i of a
    coordinate, d/(1+d) (which increases in d) and each term of mass times
    integrand; the combined value is formed only against a split target node.
    Each level is decided as _sweep yields its bounds.  The levels of a
    sweep whose bounds straddle the radius are decided by one exact
    level_profile walk of that sweep up to the last of them, so every
    decision is the exact one; only there is a combination of two or more
    functions built.
    """
    tree = fs[0].tree
    if any(len(s[1]) > len(fs) for s in sweeps):
        raise ValidationError(f"more coefficients than the {len(fs)} functions")
    one = 1 << P
    # (function, coefficient) terms; all coefficients zero: f_1 scaled by 0
    nonzero = [[(i, a) for i, a in enumerate(s[1]) if a] or [(0, 0)] for s in sweeps]
    scales = [[a for _, a in terms] for terms in nonzero]

    def outward(s: Scalar, a: Scalar = 1) -> tuple[int, int]:
        num, den = a.numerator * s.numerator << P, a.denominator * s.denominator
        return num // den, -(-num // den)

    def bounds(entries, slot: int, j: int, total: tuple[int, int]) -> tuple[int, int]:
        lo, hi = total
        for fnodes, tnodes, x, mass in entries:
            tnode = tnodes[slot]
            if tnode.is_leaf:
                dl = dh = 0
                for k, v in enumerate(tnode.value.coords):
                    ul = uh = 0
                    for i, a in nonzero[j]:
                        l, h = outward(fnodes[i].value.coords[k], a)
                        ul, uh = ul + l, uh + h
                    vl, vh = outward(v)
                    dl += max(ul - vh, vl - uh, 0)
                    dh += max(uh - vl, vh - ul)
                tl, th = dl * one // (one + dl), -(-dh * one // (one + dh))
            else:
                value = weighted_sum(scales[j], [fnodes[i].value for i, _ in nonzero[j]])
                tl, th = outward(_against(tree, value, tnode, x, bounded_metric))
            lo += mass.numerator * tl // mass.denominator
            hi -= -mass.numerator * th // mass.denominator
        return lo, hi

    hits, undecided = [[] for _ in sweeps], [[] for _ in sweeps]
    for j, n, (lo, hi) in _sweep(fs, sweeps, bounds, (0, 0)):
        radius = sweeps[j][2]
        edge = radius.numerator << P
        if hi * radius.denominator < edge:
            hits[j].append(n)
        elif lo * radius.denominator < edge:
            undecided[j].append(n)
    for j, levels in enumerate(undecided):
        if levels:
            (i, a), *more = nonzero[j]
            g, a = (linear_combination(sweeps[j][1], fs[: len(sweeps[j][1])]), 1) if more else (fs[i], a)
            d = level_profile(g, [(sweeps[j][0], lambda u, v: bounded_metric(u.scale(a), v), levels[-1])])[0]
            hits[j] = sorted(hits[j] + [n for n in levels if d[n - 1] < sweeps[j][2]])
    return hits


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
    for g in fs[1:]:
        if g.tree is not tree:
            raise ValidationError("combination requires functions over one tree")
        if g.depth != depth:
            raise ValidationError("combination requires equal depths")
        _check_dims(g, fs[0])
    memo: dict[tuple, Node] = {}

    def rec(nodes: tuple[Node, ...], x: VertexId) -> Node:
        key = (tuple(map(id, nodes)), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = weighted_sum(coeffs, [n.value for n in nodes])
        if x.level == depth or all(n.children is None for n in nodes):
            out = leaf(acc)
        else:
            k = tree.arity(x)
            expanded = [_expand(n, k) for n in nodes]
            kids = []
            for i in range(k):  # a loop, not a generator: one frame per level
                kids.append(rec(tuple(e[i] for e in expanded), tree.child(x, i)))
            out = func_split(acc, tuple(kids))
        memo[key] = out
        return out

    return HarmonicFunction(tree, depth, fs[0].dim, rec(tuple(f.node for f in fs), tree.root))


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


class RhoResult(NamedTuple):
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
    _check_dims(f, g)
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
