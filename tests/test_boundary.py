import random
from fractions import Fraction

import pytest

from treeharmonics import (
    DimensionMismatchError,
    LevelFunction,
    TupleLevelFunction,
    Value,
    ValidationError,
    VertexId,
    level_add,
    level_scale,
    level_sub,
    level_values,
    mismatch_indicator,
    mismatch_measure,
    p_metric,
    refine,
    sector_measure,
    tuple_p_metric,
    tuple_p_metric_by_components,
)
from treeharmonics.boundary import _integral
from treeharmonics.trees import level_measures
from treeharmonics.values import bounded_metric

from conftest import random_level_function


def test_refine_identity(binary4):
    psi = LevelFunction.from_values(binary4, 1, [Value.of(1), Value.of(2)])
    assert refine(binary4, psi, 1).node is psi.node


def test_refine_constant(binary4):
    psi = LevelFunction.constant(1, Value.of(7))
    out = refine(binary4, psi, 3)
    assert level_values(binary4, out) == [Value.of(7)] * 8


def test_refine_ancestor_lookup_oracle(binary4):
    a, b = Value.of(3), Value.of(-2)
    psi = LevelFunction.from_values(binary4, 1, [a, b])
    refined = refine(binary4, psi, 2)
    got = level_values(binary4, refined)
    # oracle: each level-2 vertex inherits its level-1 ancestor's value
    expected = []
    for o in range(4):
        anc = VertexId(2, o)
        while anc.level > 1:
            anc = binary4.parent(anc)
        expected.append(a if anc.offset == 0 else b)
    assert got == expected == [a, a, b, b]


def test_refine_below_level_rejected(binary4):
    psi = LevelFunction.from_values(binary4, 2, [Value.of(i) for i in range(4)])
    with pytest.raises(ValidationError):
        refine(binary4, psi, 1)


def test_p_metric_identity(binary4):
    psi = LevelFunction.from_values(binary4, 1, [Value.of(1), Value.of(0)])
    assert p_metric(binary4, psi, psi) == 0


def test_p_metric_two_term_oracle(binary4):
    psi = LevelFunction.from_values(binary4, 1, [Value.of(0), Value.of(0)])
    phi = LevelFunction.from_values(binary4, 1, [Value.of(1), Value.of(0)])
    # oracle: sum sector measures times d/(1+d) by hand
    expected = Fraction(1, 2) * Fraction(1, 2) + Fraction(1, 2) * 0
    assert p_metric(binary4, psi, phi) == expected == Fraction(1, 4)


def test_p_metric_bounded_by_mismatch(binary4, lopsided3):
    rng = random.Random(3)
    for tree in (binary4, lopsided3):
        for _ in range(20):
            psi = random_level_function(tree, rng, rng.randint(0, tree.depth), 2)
            phi = random_level_function(tree, rng, rng.randint(0, tree.depth), 2)
            assert p_metric(tree, psi, phi) <= mismatch_measure(tree, psi, phi)


def test_p_metric_axioms_random_triples(binary4, lopsided3):
    rng = random.Random(9)
    for tree in (binary4, lopsided3):
        for _ in range(25):
            psi = random_level_function(tree, rng, rng.randint(0, tree.depth), 1)
            phi = random_level_function(tree, rng, rng.randint(0, tree.depth), 1)
            chi = random_level_function(tree, rng, rng.randint(0, tree.depth), 1)
            assert p_metric(tree, psi, phi) == p_metric(tree, phi, psi)
            assert p_metric(tree, psi, phi) >= 0
            assert p_metric(tree, psi, chi) <= p_metric(tree, psi, phi) + p_metric(tree, phi, chi)
            shifted = p_metric(tree, level_add(psi, chi), level_add(phi, chi))
            assert shifted == p_metric(tree, psi, phi)


def test_p_metric_zero_iff_equal(binary4):
    rng = random.Random(4)
    for _ in range(10):
        psi = random_level_function(binary4, rng, 2, 1)
        phi = random_level_function(binary4, rng, 2, 1)
        d = p_metric(binary4, psi, phi)
        if psi.node is phi.node:
            assert d == 0
        else:
            assert d > 0


def test_refinement_invariance_dense_oracle(binary4):
    rng = random.Random(7)
    for _ in range(10):
        psi = random_level_function(binary4, rng, 1, 2)
        phi = random_level_function(binary4, rng, 2, 2)
        base = p_metric(binary4, psi, phi)
        for n in (2, 3, 4):
            # route 1: semantic refinement
            assert p_metric(binary4, refine(binary4, psi, n), refine(binary4, phi, n)) == base
            # route 2: independent dense rebuild at level n, then the raw
            # weighted sum over that level
            dense_psi = LevelFunction.from_values(binary4, n, level_values(binary4, refine(binary4, psi, n)))
            dense_phi = LevelFunction.from_values(binary4, n, level_values(binary4, refine(binary4, phi, n)))
            flat = sum(
                sector_measure(binary4, VertexId(n, o)) * bounded_metric(u, v)
                for o, (u, v) in enumerate(
                    zip(level_values(binary4, dense_psi), level_values(binary4, dense_phi))
                )
            )
            assert flat == base


def test_p_metric_dimension_mismatch(binary4):
    psi = LevelFunction.constant(0, Value.of(1))
    phi = LevelFunction.constant(0, Value.of(1, 2))
    with pytest.raises(DimensionMismatchError):
        p_metric(binary4, psi, phi)


def test_mismatch_measure_examples(binary4):
    psi = LevelFunction.from_values(binary4, 2, [Value.of(0)] * 4)
    assert mismatch_measure(binary4, psi, psi) == 0
    vals = [Value.of(0)] * 4
    vals[2] = Value.of(5)
    phi = LevelFunction.from_values(binary4, 2, vals)
    assert mismatch_measure(binary4, psi, phi) == Fraction(1, 4)
    ind = mismatch_indicator(refine(binary4, psi, 2), phi)
    assert level_values(binary4, ind) == [Value.of(0), Value.of(0), Value.of(1), Value.of(0)]


def test_level_scale_and_sub(binary4):
    psi = LevelFunction.from_values(binary4, 1, [Value.of(2), Value.of(-4)])
    doubled = level_scale(Fraction(2), psi)
    assert level_values(binary4, doubled) == [Value.of(4), Value.of(-8)]
    diff = level_sub(doubled, psi)
    assert level_values(binary4, diff) == [Value.of(2), Value.of(-4)]


def test_tuple_p_metric_zero(binary4):
    rng = random.Random(1)
    comps = tuple(random_level_function(binary4, rng, 1, 1) for _ in range(3))
    t = TupleLevelFunction(comps)
    assert tuple_p_metric(binary4, t, t) == 0


def test_tuple_p_metric_single_component_oracle(binary4):
    # only component k differs: the tuple metric is that component's value over 2^k
    zero = LevelFunction.constant(0, Value.of(0))
    phi = LevelFunction.from_values(binary4, 1, [Value.of(1), Value.of(0)])
    rho0 = p_metric(binary4, zero, phi)
    for k in (1, 2, 3):
        comps_a = [zero] * 3
        comps_b = [zero] * 3
        comps_b[k - 1] = phi
        got = tuple_p_metric(binary4, TupleLevelFunction(tuple(comps_a)), TupleLevelFunction(tuple(comps_b)))
        assert got == rho0 / 2**k


def test_tuple_p_metric_decomposition_random(binary4, lopsided3):
    rng = random.Random(12)
    for tree in (binary4, lopsided3):
        for _ in range(15):
            width = rng.randint(1, 4)
            a = TupleLevelFunction(
                tuple(random_level_function(tree, rng, rng.randint(0, tree.depth), 2) for _ in range(width))
            )
            b = TupleLevelFunction(
                tuple(random_level_function(tree, rng, rng.randint(0, tree.depth), 2) for _ in range(width))
            )
            assert tuple_p_metric(tree, a, b) == tuple_p_metric_by_components(tree, a, b)


def test_tuple_p_metric_of_empty_tuples(binary4):
    # an empty tuple has dim 0, as an empty TupleValue has, and both forms agree on it
    empty = TupleLevelFunction(())
    assert empty.dim == 0
    assert tuple_p_metric(binary4, empty, empty) == tuple_p_metric_by_components(binary4, empty, empty) == 0


def test_tuple_p_metric_width_mismatch(binary4):
    zero = LevelFunction.constant(0, Value.of(0))
    with pytest.raises(DimensionMismatchError):
        tuple_p_metric(binary4, TupleLevelFunction((zero,)), TupleLevelFunction((zero, zero)))


def test_integral_of_scaled_integrand_on_one_function(binary4, lopsided3):
    # both slots hold the same node, yet bounded_metric(u.scale(a), u) is
    # nonzero wherever u is, so the integral must not short-cut to zero
    rng = random.Random(9)
    for tree in (binary4, lopsided3):
        u = random_level_function(tree, rng, tree.depth, 1)
        a = Fraction(3, 2)

        def integrand(x, y):
            return bounded_metric(x.scale(a), y)

        got = _integral(tree, (u.node, u.node), integrand)
        values = level_values(tree, u)
        dense = sum(m * integrand(v, v) for m, v in zip(level_measures(tree, tree.depth), values))
        assert any(v != Value.of(0) for v in values)
        assert got == dense != 0


def test_integral_of_equal_functions_is_the_int_zero(binary4):
    psi = random_level_function(binary4, random.Random(4), 3, 2)
    for got in (
        p_metric(binary4, psi, psi),
        mismatch_measure(binary4, psi, psi),
        tuple_p_metric(binary4, TupleLevelFunction((psi, psi)), TupleLevelFunction((psi, psi))),
    ):
        assert got == 0 and type(got) is int
