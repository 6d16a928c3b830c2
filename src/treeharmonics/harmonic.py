"""Harmonic functions on the finite-depth tree.

A function assigns a value to every vertex; it is harmonic when each non-leaf
value equals the w-weighted sum of its children's values.  Functions are
DAGs of the boundary module's interned nodes, with a value on every node: a
leaf means "this value continues constantly below" (constants are harmonic
because every weight row sums to one), a split lists explicit children.  All
constructors here emit exactly harmonic functions; the checker does not trust
them.  It tests the law at every position of a split node in integers, with
the w row as numerators over one denominator (Tree.w_ints), builds the exact
residual only where the law fails, and certifies a constant node in one step,
since the tree invariant that each w row sums to one makes a constant harmonic
at every vertex below it.

One forward sweep, _sweep, serves the levels a caller lists: it pushes q-mass
down the DAGs of one or more functions and of any number of targets together,
one level at a time, sets aside the entries that can no longer change, and
keeps one running total per sweep, so H levels cost O(H x frontier width)
rather than the O(H x DAG) of restricting and integrating each level from the
root.  Masses are ints over one denominator per level, so pushing them costs
no gcd; callers supply a fold per sweep, given that den, which sees the
frontier only at a listed level.  profile_and_hits folds two kinds of sweep in
one walk.  Its exact fold sums one function's distances, whose digits grow
quadratically with depth, as one int numerator over the lcm of their
denominators, reduced once per fold; witnesses ask it only for the levels
their files log.  Its bounds fold sums integer bounds scaled by 2^P, decides
d_n < radius from them as each level comes and sums exactly only a level whose
bounds straddle the radius; walking functions jointly, it bounds their linear
combinations from the component values.  level_profile and hit_levels are its
exact-only and bounds-only restrictions.  Every hit set comes from the bounds
fold: the witness commands' (in one walk with their block logs), certify's,
span-check's and double-genericity's burst dips (its steady span folds support
measures).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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
from .scalars import Scalar, canonical
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
    """Test the weighted-average law at every position of a split node; pass
    iff it holds everywhere.  Per coordinate, the children's values times the
    w numerators (Tree.w_ints) must sum to the node's value times their
    denominator; only where that fails is the residual built, as base_metric
    gives it.  A constant node is certified where it is reached: each w row
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
    seen: set = set()
    bad: list[tuple[int, Scalar]] = []  # (level, residual) of each violation, in walk order
    _check(f.tree, f.depth, f.node, f.tree.root, seen, bad)
    return HarmonicityReport(
        passed=not bad,
        checked=len(seen),
        violations=len(bad),
        max_residual=max((r for _, r in bad), default=0),
        samples=tuple(bad[:8]),
    )


def _check(tree: Tree, depth: int, node: Node, x: VertexId, seen: set, bad: list) -> None:
    """Walk check_harmonic's positions below x above depth once each, adding
    each to seen and each violation of the law to bad."""
    if x.level >= depth:
        return
    key = (id(node), tree.pos_key(x))
    if key in seen:
        return
    seen.add(key)
    if node.children is None:
        return
    kids = _expand(node, tree.arity(x))
    sums, den = _child_sums(tree, x, kids)
    if any(s != v * den for s, v in zip(sums, node.value.coords)):
        bad.append((x.level, base_metric(node.value, Value(tuple(canonical(Fraction(s, den)) for s in sums)))))
    for i, c in enumerate(kids):
        _check(tree, depth, c, tree.child(x, i), seen, bad)


def _child_sums(tree: Tree, x: VertexId, kids: Sequence[Node]) -> tuple[list[Scalar], int]:
    """The weighted-average law at x in integers: per coordinate, the sum of
    the children's values times the w numerators (Tree.w_ints), which must
    equal the parent's coordinate times the row's denominator, and that den."""
    nums, den = tree.w_ints(x)
    return [sum(c * n for c, n in zip(column, nums)) for column in zip(*(c.value.coords for c in kids))], den


def function_from_level_values(tree: Tree, values_per_level: Sequence[Sequence[Value]]) -> HarmonicFunction:
    """Assemble a candidate function from dense per-level values (no harmonicity
    assumed; feed the result to check_harmonic to obtain residuals)."""
    depth = len(values_per_level) - 1
    if depth < 0 or depth > tree.depth:
        raise ValidationError("values must cover levels 0..depth of the tree")
    for lvl, vals in enumerate(values_per_level):
        if len(vals) != tree.level_size(lvl):
            raise ValidationError(f"level {lvl}: expected {tree.level_size(lvl)} values, got {len(vals)}")
        for v in vals:  # check_harmonic reads every value at one dimension
            _check_dims(values_per_level[0][0], v)
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
    return HarmonicFunction(tree, tree.depth, psi.dim, _aggregate(tree, psi.node, tree.root, {}))


def _aggregate(tree: Tree, snode: Node, x: VertexId, memo: dict[tuple, Node]) -> Node:
    if snode.is_leaf:
        return snode
    key = (id(snode), tree.pos_key(x))
    hit = memo.get(key)
    if hit is not None:
        return hit
    kids = tuple(_aggregate(tree, c, tree.child(x, i), memo) for i, c in enumerate(snode.children))
    sums, den = _child_sums(tree, x, kids)
    node = func_split(Value(tuple(canonical(Fraction(s, den)) for s in sums)), kids)
    memo[key] = node
    return node


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
    return LevelFunction(n, f.dim, _restrict(f.node, n, {}))


def _restrict(node: Node, remaining: int, memo: dict[tuple[int, int], Node]) -> Node:
    if node.children is None:
        return node
    if remaining == 0:
        return leaf(node.value)
    key = (id(node), remaining)
    hit = memo.get(key)
    if hit is not None:
        return hit
    out = sector_split(tuple(_restrict(c, remaining - 1, memo) for c in node.children))
    memo[key] = out
    return out


def _against(tree: Tree, value: Value, tnode: Node, x: VertexId, integrand) -> Scalar:
    """integrand(value, target value) over the target sector at x, with value
    held constant below x: the children's parts times the q numerators
    (Tree.q_ints), over the row's denominator once.  Zero terms are skipped,
    so an all-zero sum stays the int 0."""
    if tnode.is_leaf:
        return integrand(value, tnode.value)
    nums, den = tree.q_ints(x)
    r: Scalar = 0
    for i, c in enumerate(_expand(tnode, tree.arity(x))):
        part = _against(tree, value, c, tree.child(x, i), integrand)
        if part:
            r = r + part * nums[i]
    return Fraction(r.numerator, r.denominator * den) if r else 0  # r / den, never a float


def _sweep(fs: Sequence[HarmonicFunction], sweeps: Sequence[tuple], folds: Sequence[Callable], starts: Sequence) -> Iterator[tuple]:
    """Walk the functions fs and the distinct sweep targets (each sweep's
    first item) together, and yield (sweep index, level n, total) for each
    level n its last item lists (ascending, in 1..depth).

    The walk pushes q-mass down the DAGs one level at a time.  An entry
    (function node per function, target node per distinct target, vertex,
    mass) freezes once every function node is constant below it; its mass is
    an int over den, which each level multiplies by the lcm of the frontier's
    q denominators (tree.q_ints).  Each sweep j keeps a running total, from
    starts[j], of folds[j](frozen entries, its target's slot, j, total, den)
    at each level up to its last listed one; at a listed level n it yields
    that total with the level-n frontier folded in.  Nothing is kept of a
    level once it is passed.
    """
    tree = fs[0].tree
    listed = [set(s[-1]) for s in sweeps]
    for g in fs:
        if g.tree is not tree:
            raise ValidationError("a joint walk requires functions over one tree")
        for (target, *_), levels in zip(sweeps, listed):
            if levels and not 1 <= min(levels) <= max(levels) <= g.depth:
                raise ValidationError(f"levels {min(levels)}..{max(levels)} outside 1..{g.depth}")
            _check_dims(g, target)
    roots = tuple({id(s[0].node): s[0].node for s in sweeps}.values())  # each distinct target once
    slots = [roots.index(s[0].node) for s in sweeps]
    lasts = [max(levels, default=0) for levels in listed]

    def push(frozen: list, into: dict, fnodes: tuple, tnodes: tuple, x: VertexId, mass: int) -> None:
        if all(n.children is None for n in fnodes):
            frozen.append((fnodes, tnodes, x, mass))
            return
        key = (fnodes, tnodes, tree.pos_key(x))
        entry = into.get(key)
        if entry is None:
            into[key] = [fnodes, tnodes, x, mass]
        else:
            entry[3] = entry[3] + mass

    frozen, frontier, den = [], {}, 1
    push(frozen, frontier, tuple(g.node for g in fs), roots, tree.root, 1)
    totals = [fold(frozen, slot, j, start, den) for j, (slot, fold, start) in enumerate(zip(slots, folds, starts))]
    for n in range(1, max(lasts, default=0) + 1):
        rows = [tree.q_ints(x) for _, _, x, _ in frontier.values()]
        step = lcm(*(qden for _, qden in rows))
        den *= step
        frozen, below = [], {}
        for (fnodes, tnodes, x, mass), (qnums, qden) in zip(frontier.values(), rows):
            k = len(qnums)
            fkids = [_expand(node, k) for node in fnodes]
            tkids = [_expand(t, k) for t in tnodes]
            mass *= step // qden
            for i, (fchild, tchild) in enumerate(zip(zip(*fkids), zip(*tkids))):
                push(frozen, below, fchild, tchild, tree.child(x, i), mass * qnums[i])
        frontier = below
        for j, (slot, fold, levels, last) in enumerate(zip(slots, folds, listed, lasts)):
            if n <= last:
                totals[j] = fold(frozen, slot, j, totals[j], den)
                if n in levels:
                    yield j, n, fold(frontier.values(), slot, j, totals[j], den)


def level_profile(
    f: HarmonicFunction,
    sweeps: Sequence[tuple[LevelFunction, Callable[[Value, Value], Scalar], Iterable[int]]],
) -> list[list[Scalar]]:
    """profile_and_hits' distances, one list per (target, integrand, levels) logged on f."""
    return profile_and_hits((f,), [(target, 0, integrand, levels) for target, integrand, levels in sweeps], [])[0]


def hit_levels(
    fs: Sequence[HarmonicFunction], sweeps: Sequence[tuple[LevelFunction, Sequence[Scalar], Scalar, int]]
) -> list[list[int]]:
    """profile_and_hits' hit sets of the sweeps over fs, with nothing logged."""
    return profile_and_hits(fs, [], sweeps)[1]


def profile_and_hits(
    fs: Sequence[HarmonicFunction],
    logged: Sequence[tuple[LevelFunction, int, Callable[[Value, Value], Scalar], Iterable[int]]],
    sweeps: Sequence[tuple[LevelFunction, Sequence[Scalar], Scalar, int]],
) -> tuple[list[list[Scalar]], list[list[int]]]:
    """One joint walk of the functions fs serves both kinds of sweep.

    Per logged (target, function index i, integrand, ascending levels): the
    distance I_n of the level restriction of fs[i] to target at each listed
    level n, integrand(value of fs[i] at level n, target value) integrated
    against the boundary measure, exactly as the boundary metrics do on
    restrict_to_level(fs[i], n) (zero terms are skipped, so an all-zero
    distance stays the int 0).  Its fold reads fs[i]'s node out of each joint
    entry and sums the parts times their masses as one int over their lcm,
    reduced once.

    Per hit (target, coefficients a, radius, horizon): the levels n in
    1..horizon with bounded_metric(a_1 f_1 + a_2 f_2 + ... at level n,
    target) < radius (missing trailing coefficients are zero).  The bounds,
    in units of 2^-P, round outward each term a_i u_i of a coordinate, d/(1+d)
    (which increases in d) and each term of mass times integrand; the combined
    value is formed only against a split target node.  Each level is decided
    as _sweep yields its bounds.  The levels of a sweep whose bounds straddle
    the radius are decided by one exact level_profile walk of that sweep up
    to the last of them, so every decision is the exact one; only there is a
    combination of two or more functions built.
    """
    tree = fs[0].tree
    if any(len(s[1]) > len(fs) for s in sweeps):
        raise ValidationError(f"more coefficients than the {len(fs)} functions")
    if any(s[-1] < 0 for s in sweeps):
        raise ValidationError(f"horizon {min(s[-1] for s in sweeps)} below 0")
    one = 1 << P
    # (function, coefficient) terms; all coefficients zero: f_1 scaled by 0
    nonzero = [[(i, a) for i, a in enumerate(s[1]) if a] or [(0, 0)] for s in sweeps]
    index: dict[tuple[int, Scalar], int] = {}  # each distinct term of the sweeps once
    picks = [[index.setdefault(term, len(index)) for term in terms] for terms in nonzero]

    def outward(s: Scalar, a: Scalar = 1) -> tuple[int, int]:
        num, den = a.numerator * s.numerator << P, a.denominator * s.denominator
        return num // den, -(-num // den)

    def exact(entries, slot: int, j: int, total: Scalar, den: int) -> Scalar:
        _, i, integrand, _ = logged[j - len(sweeps)]
        num, dd = 0, 1  # the fold's sum so far: num / dd
        for fnodes, tnodes, x, mass in entries:
            part = _against(tree, fnodes[i].value, tnodes[slot], x, integrand)
            if part:
                pd = part.denominator
                if pd == dd:
                    num += part.numerator * mass
                else:
                    g = gcd(dd, pd)
                    num = num * (pd // g) + part.numerator * mass * (dd // g)
                    dd = dd // g * pd
        return total + Fraction(num, dd * den) if num else total

    # the coordinates of each distinct term rounded once per entry for all sweeps, by the id of
    # its function node tuple (a level's entries live while den stays); and of each leaf target
    rounded: dict[int, list] = {}
    centers: dict[int, list] = {}
    level = 1

    def bounds(entries, slot: int, j: int, total: tuple[int, int], den: int) -> tuple[int, int]:
        nonlocal rounded, level
        if den != level:
            rounded, level = {}, den
        lo, hi = total
        for fnodes, tnodes, x, mass in entries:
            tnode = tnodes[slot]
            if tnode.is_leaf:
                terms = rounded.get(id(fnodes)) or rounded.setdefault(
                    id(fnodes), [[outward(c, a) for c in fnodes[i].value.coords] for i, a in index]
                )
                center = centers.get(id(tnode)) or centers.setdefault(id(tnode), [outward(v) for v in tnode.value.coords])
                dl = dh = 0
                for k, (vl, vh) in enumerate(center):
                    ul = uh = 0
                    for t in picks[j]:
                        l, h = terms[t][k]
                        ul, uh = ul + l, uh + h
                    dl += max(ul - vh, vl - uh, 0)
                    dh += max(uh - vl, vh - ul)
                tl, th = dl * one // (one + dl), -(-dh * one // (one + dh))
            else:
                value = weighted_sum([a for _, a in nonzero[j]], [fnodes[i].value for i, _ in nonzero[j]])
                tl, th = outward(_against(tree, value, tnode, x, bounded_metric))
            lo += mass * tl // den
            hi -= -mass * th // den
        return lo, hi

    # the hit sweeps walk first, then the logged ones
    walked = [*((*s[:-1], range(1, s[-1] + 1)) for s in sweeps), *logged]
    folds, starts = [bounds] * len(sweeps) + [exact] * len(logged), [(0, 0)] * len(sweeps) + [0] * len(logged)
    hits, undecided, distances = [[] for _ in sweeps], [[] for _ in sweeps], [[] for _ in logged]
    for j, n, total in _sweep(fs, walked, folds, starts):
        if j >= len(sweeps):
            distances[j - len(sweeps)].append(total)
            continue
        lo, hi = total
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
            exact_sweep = (sweeps[j][0], lambda u, v: bounded_metric(u.scale(a), v), range(1, levels[-1] + 1))
            d = level_profile(g, [exact_sweep])[0]
            hits[j] = sorted(hits[j] + [n for n in levels if d[n - 1] < sweeps[j][2]])
    return distances, hits


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
    node = _combine(tree, depth, coeffs, tuple(f.node for f in fs), tree.root, {})
    return HarmonicFunction(tree, depth, fs[0].dim, node)


def _combine(tree: Tree, depth: int, coeffs: Sequence, nodes: tuple[Node, ...], x: VertexId, memo: dict) -> Node:
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
            kids.append(_combine(tree, depth, coeffs, tuple(e[i] for e in expanded), tree.child(x, i), memo))
        out = func_split(acc, tuple(kids))
    memo[key] = out
    return out


def add_functions(f: HarmonicFunction, g: HarmonicFunction) -> HarmonicFunction:
    return linear_combination((1, 1), (f, g))


def subtract_functions(f: HarmonicFunction, g: HarmonicFunction) -> HarmonicFunction:
    return linear_combination((1, -1), (f, g))


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
