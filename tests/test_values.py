from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from treeharmonics import (
    DimensionMismatchError,
    LevelFunction,
    TreeSpec,
    TupleLevelFunction,
    TupleValue,
    Value,
    ValidationError,
    base_metric,
    bounded_metric,
    build_tree,
    centered_grid,
    dense_grid,
    hit_levels,
    level_add,
    level_sub,
    linear_combination,
    mismatch_measure,
    one_level_approximation,
    p_metric,
    pointwise_metric,
    span_inclusion_check,
    tuple_metric,
    tuple_p_metric,
    tuple_p_metric_by_components,
    zero_function,
)
from treeharmonics.values import MAX_GRID_POINTS, weighted_sum

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=8)


def vec(*coords):
    return Value.of(*coords)


def test_base_metric_identity():
    u = vec(1, Fraction(1, 2))
    assert base_metric(u, u) == 0


def test_base_metric_coordinate_sum_oracle():
    # oracle: sum coordinate gaps by hand
    u, v = vec(1, 0), vec(0, 1)
    assert base_metric(u, v) == abs(1 - 0) + abs(0 - 1) == 2


def test_base_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        base_metric(vec(1), vec(1, 2))


@given(st.tuples(small_fractions, small_fractions),
       st.tuples(small_fractions, small_fractions),
       st.tuples(small_fractions, small_fractions))
def test_base_metric_translation_invariance(a, b, c):
    u, v, shift = Value(a), Value(b), Value(c)
    assert base_metric(u + shift, v + shift) == base_metric(u, v)


@given(st.tuples(small_fractions, small_fractions),
       st.tuples(small_fractions, small_fractions),
       st.tuples(small_fractions, small_fractions))
def test_metric_axioms(a, b, c):
    u, v, w = Value(a), Value(b), Value(c)
    assert base_metric(u, v) == base_metric(v, u)
    assert base_metric(u, v) >= 0
    assert (base_metric(u, v) == 0) == (u == v)
    assert base_metric(u, w) <= base_metric(u, v) + base_metric(v, w)
    # bounded form inherits the triangle inequality (t/(1+t) subadditive, monotone)
    assert bounded_metric(u, w) <= bounded_metric(u, v) + bounded_metric(v, w)


def test_bounded_metric_values():
    assert bounded_metric(vec(0), vec(0)) == 0
    assert bounded_metric(vec(1), vec(0)) == Fraction(1, 2)
    # d = 3 evaluates to 3/4
    assert bounded_metric(vec(3), vec(0)) == Fraction(3, 4)
    assert bounded_metric(vec(100), vec(0)) < 1


def test_tuple_metric_zero():
    t = TupleValue((vec(1), vec(2)))
    assert tuple_metric(t, t) == 0


def test_tuple_metric_two_term_oracle():
    # slot 1 differs with d = 1: weight 1/2 times 1/2
    a = TupleValue((vec(1), vec(0)))
    b = TupleValue((vec(0), vec(0)))
    assert tuple_metric(a, b) == Fraction(1, 4)
    # both slots d = 1: 1/4 + 1/8
    c = TupleValue((vec(1), vec(1)))
    assert tuple_metric(c, b) == Fraction(3, 8)


def test_tuple_metric_width_mismatch():
    with pytest.raises(DimensionMismatchError):
        tuple_metric(TupleValue((vec(1),)), TupleValue((vec(1), vec(0))))


@given(st.lists(small_fractions, min_size=2, max_size=2),
       st.lists(small_fractions, min_size=2, max_size=2),
       small_fractions)
def test_tuple_metric_translation_invariance(a, b, s):
    u = TupleValue((Value((a[0],)), Value((a[1],))))
    v = TupleValue((Value((b[0],)), Value((b[1],))))
    shift = TupleValue((Value((s,)), Value((s,))))
    assert tuple_metric(u + shift, v + shift) == tuple_metric(u, v)


def _terms(dim):
    """1-4 (coefficient, dim-vector) pairs."""
    return st.lists(st.tuples(small_fractions, st.tuples(*[small_fractions] * dim)), min_size=1, max_size=4)


@given(st.integers(1, 3).flatmap(_terms))
def test_weighted_sum_is_the_coordinate_wise_sum(terms):
    # zero, negative and fractional coefficients; oracle: plain Fraction arithmetic per
    # coordinate, which the result equals, holding an int exactly where the sum is integral
    coeffs = [a for a, _ in terms]
    got = weighted_sum(coeffs, [Value(v) for _, v in terms])
    want = [sum((a * v[k] for a, v in terms), Fraction(0)) for k in range(len(terms[0][1]))]
    assert list(got.coords) == want
    assert [type(c) for c in got.coords] == [int if c.denominator == 1 else Fraction for c in want]


@given(small_fractions.filter(bool), st.tuples(small_fractions, small_fractions), st.tuples(small_fractions, small_fractions))
def test_weighted_sum_gives_the_absorbing_child_value(w, c, t):
    # the value _run_blocks forces on the absorbing child of weight w (signed,
    # since w rows are), as the kernel computes it and as written in the law
    got = weighted_sum((1 / w, 1 - 1 / w), (Value(c), Value(t)))
    assert got == (Value(c) - Value(t).scale(1 - w)).scale(1 / w)
    assert got.coords == tuple((ck - (1 - w) * tk) / w for ck, tk in zip(c, t))
    # the parent's weighted average holds: w * absorbing + (1 - w) * target = c
    assert weighted_sum((w, 1 - w), (got, Value(t))) == Value(c)


def test_dense_grid_resolution_zero():
    pts = dense_grid(1, 0, 1)
    assert [p.coords[0] for p in pts] == [Fraction(-1), Fraction(0), Fraction(1)]


def test_dense_grid_resolution_one():
    pts = dense_grid(1, 1, 1)
    assert [p.coords[0] for p in pts] == [
        Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)
    ]


def test_dense_grid_dim_two_count():
    # oracle: 3 choices per coordinate
    assert len(dense_grid(2, 0, 1)) == 3**2
    assert dense_grid(2, 0, 1)[0] == Value.of(-1, -1)


def test_dense_grid_validation():
    with pytest.raises(ValidationError):
        dense_grid(1, -1, 1)
    with pytest.raises(ValidationError):
        dense_grid(1, 0, 0)


@pytest.mark.parametrize("dim, resolution, bound", [(2, 9, 1), (1, 19, 1), (21, 0, 1), (1, 10**12, 1), (10**12, 0, 1)])
def test_dense_grid_over_the_point_cap(dim, resolution, bound):
    # 1025^2, 2^20 + 1 and 3^21 points; the last two are refused without forming 2^(10^12) or 3^(10^12)
    with pytest.raises(ValidationError, match=f"more than {MAX_GRID_POINTS} points"):
        dense_grid(dim, resolution, bound)


def test_centered_grid_zero_first():
    pts = centered_grid(2, 0, 1)
    assert pts[0] == Value.zero(2)
    assert len(pts) == 9
    assert len(set(pts)) == 9


_TREE = build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2}))
_ONE, _TWO = (LevelFunction.constant(0, Value.zero(d)) for d in (1, 2))
_F1, _F2 = zero_function(_TREE, 1), zero_function(_TREE, 2)
_NARROW, _WIDE, _NARROW_DIM2 = TupleLevelFunction((_ONE,)), TupleLevelFunction((_ONE, _ONE)), TupleLevelFunction((_TWO,))


@pytest.mark.parametrize(
    "call,message",
    [
        pytest.param(lambda: level_add(_ONE, _TWO), "dimension mismatch: 1 vs 2", id="level_add"),
        pytest.param(lambda: level_sub(_TWO, _ONE), "dimension mismatch: 2 vs 1", id="level_sub"),
        pytest.param(lambda: p_metric(_TREE, _ONE, _TWO), "dimension mismatch: 1 vs 2", id="p_metric"),
        pytest.param(lambda: mismatch_measure(_TREE, _TWO, _ONE), "dimension mismatch: 2 vs 1", id="mismatch_measure"),
        pytest.param(
            lambda: tuple_p_metric(_TREE, _NARROW, _WIDE), "tuple width mismatch: 1 vs 2", id="tuple_p_metric-width"
        ),
        pytest.param(
            lambda: tuple_p_metric(_TREE, _NARROW, _NARROW_DIM2), "dimension mismatch: 1 vs 2", id="tuple_p_metric-dim"
        ),
        pytest.param(
            lambda: tuple_p_metric_by_components(_TREE, _WIDE, _NARROW),
            "tuple width mismatch: 2 vs 1",
            id="tuple_p_metric_by_components-width",
        ),
        pytest.param(
            lambda: tuple_p_metric_by_components(_TREE, _NARROW_DIM2, _NARROW),
            "dimension mismatch: 2 vs 1",
            id="tuple_p_metric_by_components-dim",
        ),
        pytest.param(
            lambda: tuple_metric(TupleValue(()), TupleValue((vec(0),))),
            "tuple width mismatch: 0 vs 1",
            id="tuple_metric-width",
        ),
        pytest.param(
            lambda: tuple_metric(TupleValue((vec(0),)), TupleValue((vec(0, 0),))),
            "dimension mismatch: 1 vs 2",
            id="tuple_metric-dim",
        ),
        pytest.param(
            lambda: linear_combination((1, 1), (_F1, _F2)), "dimension mismatch: 2 vs 1", id="linear_combination"
        ),
        pytest.param(lambda: pointwise_metric(_F2, _F1), "dimension mismatch: 2 vs 1", id="pointwise_metric"),
        pytest.param(
            lambda: span_inclusion_check([_F1], [((Fraction(1),), _TWO)], Fraction(1, 8), 4),
            "dimension mismatch: 2 vs 1",
            id="span_inclusion_check",
        ),
        pytest.param(
            lambda: hit_levels((_F1,), [(_TWO, (1,), Fraction(1, 8), 4)]), "dimension mismatch: 1 vs 2", id="hit_levels"
        ),
        pytest.param(
            lambda: one_level_approximation(_F1, _TWO, 1), "dimension mismatch: 2 vs 1", id="one_level_approximation"
        ),
    ],
)
def test_every_shape_check_raises_the_same_message(call, message):
    # each call site names its operands' dims (or widths) in the order it was given them
    with pytest.raises(DimensionMismatchError) as exc:
        call()
    assert str(exc.value) == message
