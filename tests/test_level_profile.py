"""The forward level sweep against the per-level restriction route.

Every distance level_profile returns must equal the one obtained by
restricting the function to that level and integrating from the root, with
the same value and the same type (an all-zero distance is the int 0).
"""

import random
from fractions import Fraction

import pytest

from treeharmonics import (
    DimensionMismatchError,
    LevelFunction,
    TreeSpec,
    ValidationError,
    Value,
    aggregate_upward,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    enumerate_targets,
    level_profile,
    level_scale,
    mismatch_measure,
    p_metric,
    restrict_to_level,
    zero_function,
)
from treeharmonics.boundary import mismatch_integrand
from treeharmonics.values import bounded_metric

from conftest import random_level_function, random_value

SKEWED = {"kind": "per_level", "rows": [["1/100", "99/100"]] * 30}


def same(got, want):
    return got == want and type(got) is type(want)


def assert_profiles_match(f, target, horizon):
    tree = f.tree
    metric = level_profile(f, target, bounded_metric, horizon)
    mismatch = level_profile(f, target, mismatch_integrand(tree.mode), horizon)
    assert len(metric) == len(mismatch) == horizon
    for n in range(1, horizon + 1):
        r = restrict_to_level(f, n)
        assert same(metric[n - 1], p_metric(tree, r, target)), n
        assert same(mismatch[n - 1], mismatch_measure(tree, r, target)), n


def random_harmonic(tree, rng):
    return aggregate_upward(tree, [random_value(rng, 1) for _ in range(tree.level_size(tree.depth))])


def test_uniform_binary_witnesses():
    tree = build_tree(TreeSpec(depth=40, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    x = build_x_witness(tree, targets)
    for t, f in zip(targets, x.function.components):
        assert_profiles_match(f, t.level_function, 40)
    ufm = build_ufm_witness(tree, targets[:2], block_length=10)
    for t in targets:
        assert_profiles_match(ufm.function, t.level_function, 40)


def test_skewed_rows():
    tree = build_tree(
        TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}, q_rule=SKEWED, w_rule=SKEWED)
    )
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    witness = build_ufm_witness(tree, targets, block_length=5)
    for t in targets:
        assert_profiles_match(witness.function, t.level_function, 30)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_explicit_tree_and_deeper_targets(seed):
    tree = build_tree(
        TreeSpec(
            depth=5,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 7},
            w_rule={"kind": "random", "max_weight": 5},
            seed=seed,
        )
    )
    rng = random.Random(seed)
    f = random_harmonic(tree, rng)
    # targets at levels 0..3 are deeper than the first levels of the sweep
    for level in range(4):
        assert_profiles_match(f, random_level_function(tree, rng, level, 1), 5)


def test_target_deeper_than_early_levels(binary6):
    rng = random.Random(4)
    f = random_harmonic(binary6, rng)
    assert_profiles_match(f, random_level_function(binary6, rng, 4, 1), 6)


def test_scaled_span_integrand(binary6):
    rng = random.Random(9)
    f = random_harmonic(binary6, rng)
    center = random_level_function(binary6, rng, 2, 1)
    for a in (Fraction(-2), Fraction(1, 2), Fraction(1)):
        got = level_profile(f, center, lambda u, v: bounded_metric(u.scale(a), v), 6)
        for n in range(1, 7):
            want = p_metric(binary6, level_scale(a, restrict_to_level(f, n)), center)
            assert same(got[n - 1], want), (a, n)


def test_all_zero_distance_is_int_zero(binary4):
    zero = LevelFunction.constant(0, Value.of(0))
    got = level_profile(zero_function(binary4, 1), zero, bounded_metric, 4)
    assert got == [0] * 4 and all(type(d) is int for d in got)


def test_horizon_and_dimension_validated(binary4):
    f = zero_function(binary4, 1)
    assert level_profile(f, LevelFunction.constant(0, Value.of(0)), bounded_metric, 0) == []
    with pytest.raises(ValidationError):
        level_profile(f, LevelFunction.constant(0, Value.of(0)), bounded_metric, 5)
    with pytest.raises(DimensionMismatchError):
        level_profile(f, LevelFunction.constant(0, Value.of(0, 0)), bounded_metric, 2)
