"""Cylinder-level simple functions on the tree boundary and their metrics.

A level function assigns one value to every vertex of a level, viewed as a
simple function on the boundary (constant on each sector).  Functions are
stored as interned sector structures: a leaf means "constant on everything
below here", a split lists one child structure per child vertex.  Interning
makes structural equality pointer equality, lets refinement be a free
relabeling, and keeps functions on deep uniform trees tiny because identical
sectors share one node.

The probability metric integrates d/(1+d) against the boundary measure; on
level functions that integral is an exact finite weighted sum evaluated by a
joint recursion over the two structures.  These metrics serve single-level
comparisons; the distances of a harmonic function at every level up to a
horizon come from one forward sweep, harmonic.level_profile, which costs
O(horizon x frontier width) instead of one recursion per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatchError, InvariantError, ValidationError
from .scalars import Mode, Scalar
from .trees import Tree, VertexId
from .values import TupleValue, Value, bounded_metric, tuple_metric


class SectorNode:
    """Interned description of a boundary function below one vertex."""

    __slots__ = ("value", "children")

    def __init__(self, value: Value | None, children: tuple["SectorNode", ...] | None):
        self.value = value
        self.children = children

    @property
    def is_leaf(self) -> bool:
        return self.children is None


def value_key(value: Value) -> tuple:
    """Interning key separating exact and float coordinates: Fraction(0) and
    0.0 compare equal, but exact computations must never receive float nodes."""
    return (tuple(isinstance(c, float) for c in value.coords), value)


_SECTOR_LEAVES: dict[tuple, SectorNode] = {}
_SECTOR_SPLITS: dict[tuple[int, ...], SectorNode] = {}


def sector_leaf(value: Value) -> SectorNode:
    key = value_key(value)
    node = _SECTOR_LEAVES.get(key)
    if node is None:
        node = SectorNode(value, None)
        _SECTOR_LEAVES[key] = node
    return node


def sector_split(children: tuple[SectorNode, ...]) -> SectorNode:
    first = children[0]
    if first.is_leaf and all(c is first for c in children):
        return first
    key = tuple(id(c) for c in children)
    node = _SECTOR_SPLITS.get(key)
    if node is None:
        node = SectorNode(None, children)
        _SECTOR_SPLITS[key] = node
    return node


def node_depth(node: SectorNode) -> int:
    memo: dict[int, int] = {}

    def rec(n: SectorNode) -> int:
        if n.is_leaf:
            return 0
        k = id(n)
        if k not in memo:
            memo[k] = 1 + max(rec(c) for c in n.children)
        return memo[k]

    return rec(node)


def _expand(node: SectorNode, arity: int) -> tuple[SectorNode, ...]:
    if node.is_leaf:
        return (node,) * arity
    if len(node.children) != arity:
        raise InvariantError(
            f"structure has {len(node.children)} children where the tree has {arity}"
        )
    return node.children


@dataclass(frozen=True)
class LevelFunction:
    """A simple function measurable at `level`: constant on each level sector."""

    level: int
    dim: int
    node: SectorNode

    @staticmethod
    def constant(level: int, value: Value) -> "LevelFunction":
        return LevelFunction(level, value.dim, sector_leaf(value))

    @staticmethod
    def from_values(tree: Tree, level: int, values: Sequence[Value]) -> "LevelFunction":
        if not 0 <= level <= tree.depth:
            raise ValidationError(f"level {level} outside 0..{tree.depth}")
        if len(values) != tree.level_size(level):
            raise ValidationError(
                f"expected {tree.level_size(level)} values at level {level}, got {len(values)}"
            )
        dims = {v.dim for v in values}
        if len(dims) != 1:
            raise DimensionMismatchError("values of a level function must share a dimension")
        nodes: list[SectorNode] = [sector_leaf(v) for v in values]
        for lvl in range(level - 1, -1, -1):
            grouped: list[SectorNode] = []
            i = 0
            for x in tree.vertices(lvl):
                k = tree.arity(x)
                grouped.append(sector_split(tuple(nodes[i : i + k])))
                i += k
            nodes = grouped
        return LevelFunction(level, dims.pop(), nodes[0])


def refine(tree: Tree, psi: LevelFunction, n: int) -> LevelFunction:
    """View psi as a level-n function; values are inherited from ancestors."""
    if n < psi.level:
        raise ValidationError(f"cannot refine level {psi.level} down to {n}")
    if n > tree.depth:
        raise ValidationError(f"level {n} exceeds tree depth {tree.depth}")
    return LevelFunction(n, psi.dim, psi.node)


def level_values(tree: Tree, psi: LevelFunction, max_size: int = 1 << 16) -> list[Value]:
    """Materialize one value per vertex of psi's level (small trees only)."""
    size = tree.level_size(psi.level)
    if size > max_size:
        raise ValidationError(f"level {psi.level} has {size} vertices; too large to materialize")
    out: list[Value] = []

    def rec(node: SectorNode, x: VertexId) -> None:
        if x.level == psi.level:
            if not node.is_leaf:
                raise InvariantError("structure deeper than its level")
            out.append(node.value)
            return
        for i, c in enumerate(_expand(node, tree.arity(x))):
            rec(c, tree.child(x, i))

    rec(psi.node, tree.root)
    return out


def sector_map(psi: LevelFunction, fn: Callable[[Value], Value], dim: int | None = None) -> LevelFunction:
    """Apply fn to every value of psi (structure preserved, then re-canonicalized)."""
    memo: dict[int, SectorNode] = {}

    def rec(node: SectorNode) -> SectorNode:
        k = id(node)
        if k in memo:
            return memo[k]
        if node.is_leaf:
            r = sector_leaf(fn(node.value))
        else:
            r = sector_split(tuple(rec(c) for c in node.children))
        memo[k] = r
        return r

    out = rec(psi.node)
    return LevelFunction(psi.level, dim if dim is not None else psi.dim, out)


def sector_zip(psi: LevelFunction, phi: LevelFunction, fn: Callable[[Value, Value], Value]) -> LevelFunction:
    """Pointwise combination after common refinement; exact and structure-shared."""
    memo: dict[tuple[int, int], SectorNode] = {}

    def rec(a: SectorNode, b: SectorNode) -> SectorNode:
        key = (id(a), id(b))
        if key in memo:
            return memo[key]
        if a.is_leaf and b.is_leaf:
            r = sector_leaf(fn(a.value, b.value))
        else:
            k = len((a.children or b.children))
            if a.children is not None and b.children is not None and len(a.children) != len(b.children):
                raise InvariantError("combined structures disagree on a child count")
            ca, cb = _expand(a, k), _expand(b, k)
            r = sector_split(tuple(rec(x, y) for x, y in zip(ca, cb)))
        memo[key] = r
        return r

    level = max(psi.level, phi.level)
    return LevelFunction(level, psi.dim, rec(psi.node, phi.node))


def level_add(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return sector_zip(psi, phi, lambda a, b: a + b)


def level_sub(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return sector_zip(psi, phi, lambda a, b: a - b)


def level_scale(a: Scalar, psi: LevelFunction) -> LevelFunction:
    return sector_map(psi, lambda v: v.scale(a))


def _weighted_integral(
    tree: Tree,
    a: SectorNode,
    b: SectorNode,
    integrand: Callable[[Value, Value], Scalar],
) -> Scalar:
    """Integrate integrand(psi, phi) against the boundary measure, exactly."""
    memo: dict[tuple, Scalar] = {}

    def rec(na: SectorNode, nb: SectorNode, x: VertexId) -> Scalar:
        if na is nb:
            return 0
        key = (id(na), id(nb), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if na.is_leaf and nb.is_leaf:
            r = integrand(na.value, nb.value)
        else:
            k = tree.arity(x)
            ca, cb = _expand(na, k), _expand(nb, k)
            qs = tree.q_row(x)
            r = 0
            for i in range(k):
                part = rec(ca[i], cb[i], tree.child(x, i))
                if part:
                    r = r + qs[i] * part
        memo[key] = r
        return r

    return rec(a, b, tree.root)


def p_metric(tree: Tree, psi: LevelFunction, phi: LevelFunction) -> Scalar:
    """Integral of d/(1+d) over the boundary: the convergence-in-probability metric.

    Evaluated as the exact finite sum over the common refinement of the two
    structures; translation invariant because the base metric is.
    """
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return _weighted_integral(tree, psi.node, phi.node, bounded_metric)


def mismatch_measure(tree: Tree, psi: LevelFunction, phi: LevelFunction) -> Scalar:
    """Boundary measure of the set where the two functions differ.

    Dominates p_metric because the integrand d/(1+d) stays below one.
    """
    if psi.dim != phi.dim:
        raise DimensionMismatchError(f"dimension mismatch: {psi.dim} vs {phi.dim}")
    return _weighted_integral(tree, psi.node, phi.node, mismatch_integrand(tree.mode))


def mismatch_integrand(mode: Mode) -> Callable[[Value, Value], Scalar]:
    """The integrand of mismatch_measure: 0 where the values agree, else 1."""
    one = Fraction(1) if mode == "exact" else 1.0
    return lambda u, v: 0 if u == v else one


def mismatch_indicator(psi: LevelFunction, phi: LevelFunction) -> LevelFunction:
    """0/1-valued level function marking the sectors where psi and phi differ."""
    one = Value.of(1)
    zero = Value.of(0)
    return sector_zip(psi, phi, lambda a, b: zero if a == b else one)


@dataclass(frozen=True)
class TupleLevelFunction:
    """A finite-width tuple of level functions, one per product coordinate."""

    components: tuple[LevelFunction, ...]

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def level(self) -> int:
        return max(c.level for c in self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def _check_tuple_pair(a: TupleLevelFunction, b: TupleLevelFunction) -> None:
    if a.width != b.width:
        raise DimensionMismatchError(f"tuple width mismatch: {a.width} vs {b.width}")
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def tuple_p_metric(tree: Tree, a: TupleLevelFunction, b: TupleLevelFunction) -> Scalar:
    """Direct form: integrate the truncated product metric over the boundary.

    Equals the component decomposition (sum of 2^-k p_metric over coordinates)
    exactly; both routes are kept and the equality is asserted by tests.
    """
    _check_tuple_pair(a, b)
    memo: dict[tuple, Scalar] = {}

    def rec(nas: tuple[SectorNode, ...], nbs: tuple[SectorNode, ...], x: VertexId) -> Scalar:
        if all(na is nb for na, nb in zip(nas, nbs)):
            return 0
        key = (tuple(map(id, nas)), tuple(map(id, nbs)), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        if all(n.is_leaf for n in nas) and all(n.is_leaf for n in nbs):
            u = TupleValue(tuple(n.value for n in nas))
            v = TupleValue(tuple(n.value for n in nbs))
            r = tuple_metric(u, v)
        else:
            k = tree.arity(x)
            eas = [_expand(n, k) for n in nas]
            ebs = [_expand(n, k) for n in nbs]
            qs = tree.q_row(x)
            r = 0
            for i in range(k):
                part = rec(tuple(e[i] for e in eas), tuple(e[i] for e in ebs), tree.child(x, i))
                if part:
                    r = r + qs[i] * part
        memo[key] = r
        return r

    return rec(
        tuple(c.node for c in a.components),
        tuple(c.node for c in b.components),
        tree.root,
    )


def tuple_p_metric_by_components(tree: Tree, a: TupleLevelFunction, b: TupleLevelFunction) -> Scalar:
    """Decomposed form: sum over coordinates k of 2^-k p_metric(a_k, b_k)."""
    _check_tuple_pair(a, b)
    total: Scalar = 0
    weight = Fraction(1, 2)
    for ca, cb in zip(a.components, b.components):
        total += weight * p_metric(tree, ca, cb)
        weight = weight / 2
    return total
