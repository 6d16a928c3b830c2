"""Cylinder-level simple functions on the tree boundary and their metrics.

A level function assigns one value to every vertex of a level, viewed as a
simple function on the boundary (constant on each sector).  It and the
harmonic functions of the harmonic module are stored as DAGs of one interned
node type: a leaf means "this value continues constantly below", a split
lists one child node per child vertex.  A level function's split carries no
value; a harmonic function's split carries its vertex's value.  Interning
makes structural equality pointer equality, lets refinement be a free
relabeling, and keeps functions on deep uniform trees tiny because identical
sectors share one node.  Both kinds share one leaf table, so a constant is
the same node whichever kind of function holds it.

The probability metric integrates d/(1+d) against the boundary measure; on
level functions that integral is an exact finite weighted sum evaluated by
one memoized joint recursion over the structures (_integral).  These metrics
serve single-level comparisons and the tests' exact oracles.  The levels of
a harmonic function that a caller lists come from one forward walk in the
harmonic module instead, folded into exact distances (level_profile) or into
hit decisions from outward-rounded integer bounds (hit_levels).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatchError, InvariantError, ValidationError
from .scalars import Scalar
from .trees import Tree, VertexId
from .values import TupleValue, Value, _check_dims, _check_widths, bounded_metric, tuple_metric

MAX_LEVEL_VALUES = 1 << 16  # vertices of a level materialized one value each


class Node:
    """Interned DAG node of a function below one vertex: a value plus either
    one child node per child vertex or None, "this value continues constantly
    below".  A level function's split has the value None."""

    __slots__ = ("value", "children")

    def __init__(self, value: Value | None, children: tuple["Node", ...] | None):
        self.value = value
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.children is None


_LEAVES: dict[Value, Node] = {}
_SECTOR_SPLITS: dict[tuple[int, ...], Node] = {}


def leaf(value: Value) -> Node:
    node = _LEAVES.get(value)
    if node is None:
        node = Node(value, None)
        _LEAVES[value] = node
    return node


def sector_split(children: tuple[Node, ...]) -> Node:
    first = children[0]
    if first.is_leaf and all(c is first for c in children):
        return first
    key = tuple(id(c) for c in children)
    node = _SECTOR_SPLITS.get(key)
    if node is None:
        node = Node(None, children)
        _SECTOR_SPLITS[key] = node
    return node


def _expand(node, arity: int) -> tuple:
    """The children of a node; a node without children stands for itself on
    every child.  A child count unlike the tree's comes from caller input."""
    if node.children is None:
        return (node,) * arity
    if len(node.children) != arity:
        raise ValidationError(
            f"structure has {len(node.children)} children where the tree has {arity}"
        )
    return node.children


def _child_groups(tree: Tree, lvl: int, nodes: Sequence[Node]) -> Iterator[tuple[Node, ...]]:
    """The nodes of level lvl + 1, in offset order, as one tuple of children
    per vertex of level lvl."""
    i = 0
    for x in tree.vertices(lvl):
        k = tree.arity(x)
        yield tuple(nodes[i : i + k])
        i += k


class LevelFunction(NamedTuple):
    """A simple function measurable at `level`: constant on each level sector."""

    level: int
    dim: int
    node: Node

    @staticmethod
    def constant(level: int, value: Value) -> "LevelFunction":
        return LevelFunction(level, value.dim, leaf(value))

    @staticmethod
    def from_values(tree: Tree, level: int, values: Sequence[Value]) -> "LevelFunction":
        if len(values) != tree.level_size(level):
            raise ValidationError(
                f"expected {tree.level_size(level)} values at level {level}, got {len(values)}"
            )
        dims = {v.dim for v in values}
        if len(dims) != 1:
            raise DimensionMismatchError("values of a level function must share a dimension")
        nodes: list[Node] = [leaf(v) for v in values]
        for lvl in range(level - 1, -1, -1):
            nodes = [sector_split(kids) for kids in _child_groups(tree, lvl, nodes)]
        return LevelFunction(level, dims.pop(), nodes[0])


def refine(tree: Tree, psi: LevelFunction, n: int) -> LevelFunction:
    """View psi as a level-n function; values are inherited from ancestors."""
    if n < psi.level:
        raise ValidationError(f"cannot refine level {psi.level} down to {n}")
    if n > tree.depth:
        raise ValidationError(f"level {n} exceeds tree depth {tree.depth}")
    return LevelFunction(n, psi.dim, psi.node)


def level_values(tree: Tree, psi: LevelFunction) -> list[Value]:
    """Materialize one value per vertex of psi's level (small trees only)."""
    size = tree.level_size(psi.level)
    if size > MAX_LEVEL_VALUES:
        raise ValidationError(f"level {psi.level} has {size} vertices; too large to materialize")
    out: list[Value] = []
    _collect(tree, psi.level, psi.node, tree.root, out)
    return out


def _collect(tree: Tree, level: int, node: Node, x: VertexId, out: list[Value]) -> None:
    """Append the level-`level` values below x, in offset order, to out."""
    if x.level == level:
        if not node.is_leaf:
            raise InvariantError("structure deeper than its level")
        out.append(node.value)
        return
    for i, c in enumerate(_expand(node, tree.arity(x))):
        _collect(tree, level, c, tree.child(x, i), out)


def sector_zip(psi: LevelFunction, phi: LevelFunction, fn: Callable[[Value, Value], Value]) -> LevelFunction:
    """Pointwise combination after common refinement; exact and structure-shared."""
    return LevelFunction(max(psi.level, phi.level), psi.dim, _zip(psi.node, phi.node, fn, {}))


def _zip(a: Node, b: Node, fn: Callable[[Value, Value], Value], memo: dict[tuple[int, int], Node]) -> Node:
    key = (id(a), id(b))
    if key in memo:
        return memo[key]
    if a.is_leaf and b.is_leaf:
        r = leaf(fn(a.value, b.value))
    else:
        k = len((a.children or b.children))
        ca, cb = _expand(a, k), _expand(b, k)
        r = sector_split(tuple(_zip(x, y, fn, memo) for x, y in zip(ca, cb)))
    memo[key] = r
    return r


def level_add(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    _check_dims(psi, phi)
    return sector_zip(psi, phi, lambda a, b: a + b)


def level_sub(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    _check_dims(psi, phi)
    return sector_zip(psi, phi, lambda a, b: a - b)


def level_scale(a: Scalar, psi: LevelFunction) -> LevelFunction:
    return sector_zip(psi, psi, lambda v, _: v.scale(a))


def _integral(tree: Tree, nodes: Sequence[Node], integrand: Callable[..., Scalar]) -> Scalar:
    """Integrate integrand(the leaf value of each node) against the boundary
    measure, exactly, over the common refinement of the nodes' structures.

    Memoized on (the nodes, pos_key).  A split weights its children's parts
    by the q numerators (Tree.q_ints) and divides by the row's denominator
    once.  A zero term becomes the int 0 and is skipped, so every all-zero
    integral stays the int 0.
    """
    return _integrate(tree, tuple(nodes), tree.root, integrand, {})


def _integrate(tree: Tree, ns: tuple[Node, ...], x: VertexId, integrand: Callable[..., Scalar], memo: dict) -> Scalar:
    """The part of _integral over the sector at x."""
    key = (ns, tree.pos_key(x))
    hit = memo.get(key)
    if hit is not None:
        return hit
    if all(n.children is None for n in ns):
        r = integrand(*(n.value for n in ns)) or 0
    else:
        k = tree.arity(x)
        kids = [_expand(n, k) for n in ns]
        nums, den = tree.q_ints(x)
        r = 0
        for i in range(k):
            part = _integrate(tree, tuple(e[i] for e in kids), tree.child(x, i), integrand, memo)
            if part:
                r = r + part * nums[i]
        if r:  # r / den, a Fraction even where r is an int
            r = Fraction(r.numerator, r.denominator * den)
    memo[key] = r
    return r


def p_metric(tree: Tree, psi: LevelFunction, phi: LevelFunction) -> Scalar:
    """Integral of d/(1+d) over the boundary: the convergence-in-probability metric.

    Evaluated as the exact finite sum over the common refinement of the two
    structures; translation invariant because the base metric is.
    """
    _check_dims(psi, phi)
    return _integral(tree, (psi.node, phi.node), bounded_metric)


def mismatch_measure(tree: Tree, psi: LevelFunction, phi: LevelFunction) -> Scalar:
    """Boundary measure of the set where the two functions differ.

    Dominates p_metric because the integrand d/(1+d) stays below one.
    """
    _check_dims(psi, phi)
    return _integral(tree, (psi.node, phi.node), mismatch_integrand)


_ONE = Fraction(1)


def mismatch_integrand(u: Value, v: Value) -> Scalar:
    """The integrand of mismatch_measure: 0 where the values agree, else 1."""
    return 0 if u == v else _ONE


def mismatch_indicator(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    """0/1-valued level function marking the sectors where psi and phi differ."""
    one = Value.of(1)
    zero = Value.of(0)
    return sector_zip(psi, phi, lambda a, b: zero if a == b else one)


class TupleLevelFunction(NamedTuple):
    """A finite-width tuple of level functions, one per product coordinate."""

    components: tuple[LevelFunction, ...]

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim if self.components else 0


def tuple_p_metric(tree: Tree, a: TupleLevelFunction, b: TupleLevelFunction) -> Scalar:
    """Direct form: integrate the truncated product metric over the boundary.

    Equals the component decomposition (sum of 2^-k p_metric over coordinates)
    exactly; both routes are kept and the equality is asserted by tests.
    """
    _check_widths(a, b)
    w = a.width

    def integrand(*values: Value) -> Scalar:
        return tuple_metric(TupleValue(values[:w]), TupleValue(values[w:]))

    return _integral(tree, [c.node for c in a.components + b.components], integrand)


def tuple_p_metric_by_components(tree: Tree, a: TupleLevelFunction, b: TupleLevelFunction) -> Scalar:
    """Decomposed form: sum over coordinates k of 2^-k p_metric(a_k, b_k)."""
    _check_widths(a, b)
    return sum(Fraction(p_metric(tree, ca, cb), 1 << k) for k, (ca, cb) in enumerate(zip(a.components, b.components), 1))
