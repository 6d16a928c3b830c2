"""The value space: fixed-dimension vectors with an L1 base metric.

The base metric is translation invariant, which is the one property the rest
of the package leans on (all boundary and pointwise metrics inherit it).  The
bounded form d/(1+d) caps every comparison below one, and the truncated
product metric weights component k by 2^-k.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, ValidationError
from .scalars import Scalar, canonical

MAX_GRID_POINTS = 1 << 20  # points of a dense grid built one Value each


class Value(NamedTuple):
    """A point of the value space: an immutable vector of scalars."""

    coords: tuple[Scalar, ...]

    @property
    def dim(self) -> int:
        return len(self.coords)

    @staticmethod
    def of(*coords: int | Fraction | str) -> "Value":
        return Value(tuple(canonical(Fraction(c)) for c in coords))

    @staticmethod
    def zero(dim: int) -> "Value":
        return Value((0,) * dim)

    def __add__(self, other: "Value") -> "Value":
        _check_dims(self, other)
        return Value(tuple(canonical(a + b) for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Value") -> "Value":
        _check_dims(self, other)
        return Value(tuple(canonical(a - b) for a, b in zip(self.coords, other.coords)))

    def scale(self, a: Scalar) -> "Value":
        return Value(tuple(canonical(a * c) for c in self.coords))


def weighted_sum(coeffs: Sequence[Scalar], values: Sequence[Value]) -> Value:
    """The sum of a * v over paired coefficients and values, at least one
    pair, one coordinate at a time.  Each coordinate is an int exactly when
    it is integral, so integral coefficients and values never leave ints."""
    for v in values[1:]:
        _check_dims(values[0], v)
    columns = zip(*(v.coords for v in values))
    return Value(tuple(canonical(sum(a * c for a, c in zip(coeffs, column))) for column in columns))


def _check_dims(u, v) -> None:
    """u and v share a dimension: values, level or harmonic functions, tuples."""
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} vs {v.dim}")


class TupleValue(NamedTuple):
    """A truncated point of the countable product of the value space."""

    components: tuple[Value, ...]

    @property
    def width(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim if self.components else 0

    def __add__(self, other: "TupleValue") -> "TupleValue":
        _check_widths(self, other)
        return TupleValue(tuple(a + b for a, b in zip(self.components, other.components)))


def _check_widths(u, v) -> None:
    """u and v share a width, then a dimension: tuples of values or level functions."""
    if u.width != v.width:
        raise DimensionMismatchError(f"tuple width mismatch: {u.width} vs {v.width}")
    _check_dims(u, v)


def base_metric(u: Value, v: Value) -> Scalar:
    """L1 distance; translation invariant and exact over rationals."""
    _check_dims(u, v)
    return sum(abs(a - b) for a, b in zip(u.coords, v.coords))


def bounded_metric(u: Value, v: Value) -> Scalar:
    """d/(1+d) for d the base metric: strictly below one, increasing in d."""
    d = base_metric(u, v)
    return Fraction(d.numerator, d.denominator + d.numerator)  # n/m over 1 + n/m


def tuple_metric(u: TupleValue, v: TupleValue) -> Scalar:
    """Sum over components k of 2^-k * bounded_metric, k starting at 1."""
    _check_widths(u, v)
    return sum(Fraction(bounded_metric(a, b), 1 << k) for k, (a, b) in enumerate(zip(u.components, v.components), 1))


def dense_grid(dim: int, resolution: int, bound: int) -> list[Value]:
    """All vectors with coordinates k/2^resolution, |k| <= bound * 2^resolution.

    Lexicographic order over coordinate tuples; deterministic.
    """
    if resolution < 0 or bound < 1:
        raise ValidationError("dense_grid requires resolution >= 0 and bound >= 1")
    if dim < 1:
        raise ValidationError("dense_grid requires dim >= 1")
    cut = MAX_GRID_POINTS.bit_length()  # a shift or a power past it is over the cap anyway
    if (2 * (bound << min(resolution, cut)) + 1) ** min(dim, cut) > MAX_GRID_POINTS:
        raise ValidationError(
            f"a dense grid of dim {dim}, resolution {resolution} and bound {bound} has more than {MAX_GRID_POINTS} points"
        )
    step = bound * (1 << resolution)
    axis = [canonical(Fraction(k, 1 << resolution)) for k in range(-step, step + 1)]
    return [Value(coords) for coords in itertools.product(axis, repeat=dim)]


def centered_grid(dim: int, resolution: int, bound: int) -> list[Value]:
    """The dense grid reordered so the zero vector comes first.

    Used by the enumerations that must start at the zero assignment; the
    remaining points keep their lexicographic order.
    """
    points = dense_grid(dim, resolution, bound)
    z = Value.zero(dim)
    return [z] + [p for p in points if p != z]
