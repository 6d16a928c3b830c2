"""The forward level sweep against the per-level restriction route.

Every distance level_profile returns must equal the one obtained by
restricting the function to that level and integrating from the root, with
the same value and the same type (an all-zero distance is the int 0).  A
sweep over several (target, integrand, horizon) triples must return, for
each triple, exactly what a sweep over that triple alone returns.
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
SCALE = Fraction(-1, 2)

# integrand and the restrict-and-integrate oracle for one level restriction r
INTEGRANDS = {
    "metric": (bounded_metric, lambda tree, r, t: p_metric(tree, r, t)),
    "mismatch": (mismatch_integrand, lambda tree, r, t: mismatch_measure(tree, r, t)),
    # the coefficient-scaled metric of span_inclusion_check
    "scaled": (
        lambda u, v, a=SCALE: bounded_metric(u.scale(a), v),
        lambda tree, r, t: p_metric(tree, level_scale(SCALE, r), t),
    ),
}


def same(got, want):
    return got == want and type(got) is type(want)


def mixed(targets, horizon):
    """Each target with its own integrand and horizon, the first target once
    more with another integrand, and the last one at horizon 0."""
    names = list(INTEGRANDS)
    sweeps = [(t, names[i % len(names)], horizon - 2 * i) for i, t in enumerate(targets)]
    return sweeps + [(targets[0], "mismatch", horizon // 2), (targets[-1], "metric", 0)]


def assert_sweeps_match(f, sweeps):
    """One joint sweep equals one sweep per triple and the per-level route."""
    tree = f.tree
    joint = level_profile(f, [(t, INTEGRANDS[name][0], h) for t, name, h in sweeps])
    assert len(joint) == len(sweeps)
    restricted = [restrict_to_level(f, n) for n in range(1, max(h for _, _, h in sweeps) + 1)]
    for got, (target, name, horizon) in zip(joint, sweeps):
        integrand, oracle = INTEGRANDS[name]
        assert len(got) == horizon
        assert repr(got) == repr(level_profile(f, [(target, integrand, horizon)])[0]), name
        for n in range(1, horizon + 1):
            assert same(got[n - 1], oracle(tree, restricted[n - 1], target)), (name, n)


def assert_profiles_match(f, targets, horizon):
    assert_sweeps_match(f, [(t, name, horizon) for t in targets for name in INTEGRANDS])
    assert_sweeps_match(f, mixed(targets, horizon))


def random_harmonic(tree, rng):
    return aggregate_upward(tree, [random_value(rng, 1) for _ in range(tree.level_size(tree.depth))])


def test_uniform_binary_witnesses():
    tree = build_tree(TreeSpec(depth=40, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    lfs = [t.level_function for t in targets]
    x = build_x_witness(tree, targets)
    for f in x.function.components:
        assert_profiles_match(f, lfs, 40)
    ufm = build_ufm_witness(tree, targets[:2], block_length=10)
    assert_profiles_match(ufm.function, lfs, 40)
    assert_profiles_match(ufm.function, lfs[1:], 40)


def test_skewed_rows():
    tree = build_tree(
        TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}, q_rule=SKEWED, w_rule=SKEWED)
    )
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    witness = build_ufm_witness(tree, targets, block_length=5)
    assert_profiles_match(witness.function, [t.level_function for t in targets], 30)


def test_ternary_witness():
    tree = build_tree(TreeSpec(depth=20, branching={"kind": "uniform", "arity": 3}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 4))
    witness = build_ufm_witness(tree, targets[1:], block_length=4)
    assert_profiles_match(witness.function, [t.level_function for t in targets], 20)


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
    targets = [random_level_function(tree, rng, level, 1) for level in range(4)]
    for t in targets:
        assert_sweeps_match(f, [(t, name, 5) for name in INTEGRANDS])
    assert_sweeps_match(f, mixed(targets[1:], 5))
    assert_sweeps_match(f, mixed(targets[2:], 5))


def test_target_deeper_than_early_levels(binary6):
    rng = random.Random(4)
    f = random_harmonic(binary6, rng)
    assert_profiles_match(f, [random_level_function(binary6, rng, 4, 1), random_level_function(binary6, rng, 2, 1)], 6)


def test_scaled_span_integrand(binary6):
    rng = random.Random(9)
    f = random_harmonic(binary6, rng)
    center = random_level_function(binary6, rng, 2, 1)
    for a in (Fraction(-2), Fraction(1, 2), Fraction(1)):
        got = level_profile(f, [(center, lambda u, v: bounded_metric(u.scale(a), v), 6)])[0]
        for n in range(1, 7):
            want = p_metric(binary6, level_scale(a, restrict_to_level(f, n)), center)
            assert same(got[n - 1], want), (a, n)


def test_all_zero_distance_is_int_zero(binary4):
    zero = LevelFunction.constant(0, Value.of(0))
    got = level_profile(zero_function(binary4, 1), [(zero, bounded_metric, 4), (zero, mismatch_integrand, 3)])
    assert got == [[0] * 4, [0] * 3] and all(type(d) is int for d in got[0] + got[1])


def test_horizon_and_dimension_validated(binary4):
    f = zero_function(binary4, 1)
    zero = LevelFunction.constant(0, Value.of(0))
    assert level_profile(f, [(zero, bounded_metric, 0)]) == [[]]
    assert level_profile(f, []) == []
    for bad in ([(zero, bounded_metric, 5)], [(zero, bounded_metric, 2), (zero, mismatch_integrand, 5)], [(zero, bounded_metric, 2), (zero, bounded_metric, -1)]):
        with pytest.raises(ValidationError):
            level_profile(f, bad)
    with pytest.raises(DimensionMismatchError):
        level_profile(f, [(zero, bounded_metric, 2), (LevelFunction.constant(0, Value.of(0, 0)), bounded_metric, 2)])
