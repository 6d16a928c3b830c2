"""The forward level sweep against the per-level restriction route.

Every distance level_profile returns must equal the one obtained by
restricting the function to that level and integrating from the root, with
the same value and the same type (an all-zero distance is the int 0).  A
sweep over several (target, integrand, horizon) triples must return, for
each triple, exactly what a sweep over that triple alone returns.

hit_levels must decide every level as the exact comparison of those
distances with the radius does, and its integer bounds must enclose them.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeharmonics import (
    DimensionMismatchError,
    LevelFunction,
    Target,
    TreeSpec,
    ValidationError,
    Value,
    aggregate_from_level,
    aggregate_upward,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    enumerate_targets,
    harmonic,
    hit_levels,
    hit_set,
    level_profile,
    level_scale,
    linear_combination,
    mismatch_measure,
    p_metric,
    restrict_to_level,
    span_inclusion_check,
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
    joint = level_profile(f, [(t, INTEGRANDS[name][0], range(1, h + 1)) for t, name, h in sweeps])
    assert len(joint) == len(sweeps)
    restricted = [restrict_to_level(f, n) for n in range(1, max(h for _, _, h in sweeps) + 1)]
    for got, (target, name, horizon) in zip(joint, sweeps):
        integrand, oracle = INTEGRANDS[name]
        assert len(got) == horizon
        assert repr(got) == repr(level_profile(f, [(target, integrand, range(1, horizon + 1))])[0]), name
        for n in range(1, horizon + 1):
            assert same(got[n - 1], oracle(tree, restricted[n - 1], target)), (name, n)


def assert_profiles_match(f, targets, horizon):
    assert_sweeps_match(f, [(t, name, horizon) for t in targets for name in INTEGRANDS])
    assert_sweeps_match(f, mixed(targets, horizon))
    for scale in (1, SCALE):
        assert_bounds_enclose(f, targets, scale, horizon)


def scaled_metric(a):
    return lambda u, v: bounded_metric(u.scale(a), v)


def exact_hits(f, target, scale, radius, horizon):
    """The exact decision d_n < radius on level_profile's distances."""
    distances = level_profile(f, [(target, scaled_metric(scale), range(1, horizon + 1))])[0]
    return [n for n, d in enumerate(distances, 1) if d < radius]


def assert_bounds_enclose(f, targets, scale, horizon):
    """lo <= d_n * 2^P <= hi for hit_levels' bounds [lo, hi] at every level n.

    Read through its decisions, one sweep per level: it may call n a hit
    without the exact distance only when hi * 2^-P lies below the radius,
    and a miss only when lo * 2^-P does not.  So at radius d_n it leaves n
    out iff hi >= d_n * 2^P, and at radius (floor(d_n * 2^P) + 1) * 2^-P it
    takes n in iff lo <= d_n * 2^P.
    """
    one = 1 << harmonic.P
    for target in targets:
        distances = level_profile(f, [(target, scaled_metric(scale), range(1, horizon + 1))])[0]
        above = [Fraction(d * one // 1 + 1, one) for d in distances]
        sweeps = [(target, (scale,), d, n) for n, d in enumerate(distances, 1)]
        sweeps += [(target, (scale,), r, n) for n, r in enumerate(above, 1)]
        got = hit_levels((f,), sweeps)
        for n in range(1, horizon + 1):
            assert n not in got[n - 1], ("hi below the distance", n)
            assert n in got[horizon + n - 1], ("lo above the distance", n)


class ReadLevels(list):
    """An exact distance list that records the levels hit_levels reads from
    it, which are the levels its bounds left undecided."""

    def __init__(self, distances, read):
        super().__init__(distances)
        self.read = read

    def __getitem__(self, i):
        self.read.append(i + 1)
        return super().__getitem__(i)


def record_fallback(monkeypatch):
    """Make hit_levels' exact fallback report each level it decides."""
    read: list[int] = []
    exact = harmonic.level_profile
    monkeypatch.setattr(harmonic, "level_profile", lambda f, sweeps: [ReadLevels(d, read) for d in exact(f, sweeps)])
    return read


def random_harmonic(tree, rng, dim=1):
    return aggregate_upward(tree, [random_value(rng, dim) for _ in range(tree.level_size(tree.depth))])


def random_tree(seed, depth=4):
    return build_tree(
        TreeSpec(
            depth=depth,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 7},
            w_rule={"kind": "random", "max_weight": 5},
            seed=seed,
        )
    )


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


def test_rows_with_a_denominator_per_level():
    # masses are integers over one denominator per level, scaled at each level
    # by the lcm of the frontier's q denominators: here 3 and 5 in turn, with
    # q numerators other than 1, and absorbing weights 1/3 (an integral
    # driving coefficient) and 2/5 (not one)
    rows = [["1/3", "2/3"], ["2/5", "3/5"]] * 12
    tree = build_tree(
        TreeSpec(
            depth=24,
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "per_level", "rows": rows},
            w_rule={"kind": "per_level", "rows": rows},
        )
    )
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 4))
    witness = build_ufm_witness(tree, targets, block_length=4)
    lfs = [t.level_function for t in targets]
    assert_profiles_match(witness.function, lfs, 24)
    rng = random.Random(7)
    f = aggregate_from_level(tree, random_level_function(tree, rng, 5, 1))
    assert_profiles_match(f, lfs + [random_level_function(tree, rng, 3, 1)], 24)


def test_fold_over_many_shared_denominators():
    # dim 2 values with denominators 3, 6, 9 and 15 on rows 1/3, 2/3 and
    # 2/5, 3/5: one fold call adds parts d/(1+d) over many distinct
    # denominators that share factors, so its running lcm grows by less
    # than each product
    rows = [["1/3", "2/3"], ["2/5", "3/5"]] * 4
    tree = build_tree(
        TreeSpec(
            depth=8,
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "per_level", "rows": rows},
            w_rule={"kind": "per_level", "rows": rows},
        )
    )
    rng = random.Random(11)

    def level_function(level):
        def value():
            return Value(tuple(Fraction(rng.randint(-20, 20), rng.choice([3, 6, 9, 15])) for _ in range(2)))

        return LevelFunction.from_values(tree, level, [value() for _ in range(tree.level_size(level))])

    f = aggregate_from_level(tree, level_function(6))
    assert_profiles_match(f, [level_function(level) for level in (0, 2, 3)], 8)


def test_ternary_witness():
    tree = build_tree(TreeSpec(depth=20, branching={"kind": "uniform", "arity": 3}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 4))
    witness = build_ufm_witness(tree, targets[1:], block_length=4)
    assert_profiles_match(witness.function, [t.level_function for t in targets], 20)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_explicit_tree_and_deeper_targets(seed):
    tree = random_tree(seed, 5)
    rng = random.Random(seed)
    f = random_harmonic(tree, rng)
    # targets at levels 0..3 are deeper than the first levels of the sweep
    targets = [random_level_function(tree, rng, level, 1) for level in range(4)]
    for t in targets:
        assert_sweeps_match(f, [(t, name, 5) for name in INTEGRANDS])
    assert_bounds_enclose(f, targets, 1, 5)
    assert_bounds_enclose(f, targets, SCALE, 5)
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
        got = level_profile(f, [(center, lambda u, v: bounded_metric(u.scale(a), v), range(1, 7))])[0]
        for n in range(1, 7):
            want = p_metric(binary6, level_scale(a, restrict_to_level(f, n)), center)
            assert same(got[n - 1], want), (a, n)
        assert_bounds_enclose(f, [center], a, 6)


def test_radius_at_an_exact_distance_falls_back_to_no_hit(binary6, monkeypatch):
    rng = random.Random(9)
    f = random_harmonic(binary6, rng)
    center = random_level_function(binary6, rng, 2, 1)
    distances = level_profile(f, [(center, bounded_metric, range(1, 7))])[0]
    assert all((d * 2**harmonic.P).denominator > 1 for d in distances)  # no bound can equal one
    read = record_fallback(monkeypatch)
    for n, d in enumerate(distances, 1):
        got = hit_levels((f,), [(center, (1,), d, 6)])[0]
        assert got == [m for m, e in enumerate(distances, 1) if e < d]
        assert n not in got and read == [n]
        read.clear()


def test_radius_just_above_a_non_dyadic_distance_falls_back_to_a_hit(monkeypatch):
    """A leaf 13/14 from a target value of 1/3 and one at it: the level-1
    distance is 13/54, and the radius is the next multiple of 2^-P above it.
    The lower bound of a coordinate difference |U - V| (in 2^-P units) is the
    gap between the intervals [floor U, ceil U] and [floor V, ceil V]; the
    gap of the floors, |floor U - floor V|, exceeds |U - V| here by nearly a
    unit and lifts the level's lower bound onto the radius, a miss.  The
    level must go to the exact fallback, which finds the hit."""
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    v = Fraction(1, 3)
    f = aggregate_upward(tree, [Value.of(v + Fraction(13, 14)), Value.of(v)])
    target = LevelFunction.constant(0, Value.of(v))
    [[d]] = level_profile(f, [(target, bounded_metric, [1])])
    one = 1 << harmonic.P
    radius = Fraction(d * one // 1 + 1, one)
    assert d == Fraction(13, 54) and radius - d < Fraction(1, one)
    read = record_fallback(monkeypatch)
    assert hit_levels((f,), [(target, (1,), radius, 1)]) == [[1]]
    assert read == [1]


def test_coarse_bounds_fall_back_to_the_same_hits(monkeypatch):
    """With 2 fractional bits most levels are undecided; the hits stay."""
    tree = build_tree(
        TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}, q_rule=SKEWED, w_rule=SKEWED)
    )
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    witness = build_ufm_witness(tree, targets, block_length=5).function
    cases = [(witness, [(t.level_function, (1,), t.epsilon, 30) for t in targets])]
    for seed in range(3):
        tree = random_tree(seed, 5)
        rng = random.Random(seed)
        f = random_harmonic(tree, rng)
        centers = [random_level_function(tree, rng, level, 1) for level in range(4)]
        cases.append((f, [(t, (a,), r, 5) for t in centers for a in (1, SCALE) for r in (Fraction(1, 8), Fraction(1, 2))]))
    want = [[exact_hits(f, t, a, r, h) for t, (a,), r, h in sweeps] for f, sweeps in cases]
    monkeypatch.setattr(harmonic, "P", 2)
    read = record_fallback(monkeypatch)
    assert [hit_levels((f,), sweeps) for f, sweeps in cases] == want
    assert len(read) > sum(horizon for _, sweeps in cases for *_, horizon in sweeps) // 2
    assert [hit_set(witness.tree, witness, t, 30) for t in targets] == want[0]


def test_all_zero_distance_is_int_zero(binary4):
    zero = LevelFunction.constant(0, Value.of(0))
    got = level_profile(zero_function(binary4, 1), [(zero, bounded_metric, range(1, 5)), (zero, mismatch_integrand, range(1, 4))])
    assert got == [[0] * 4, [0] * 3] and all(type(d) is int for d in got[0] + got[1])


def test_horizon_and_dimension_validated(binary4):
    f = zero_function(binary4, 1)
    zero = LevelFunction.constant(0, Value.of(0))
    assert level_profile(f, [(zero, bounded_metric, range(1, 1))]) == [[]]
    assert level_profile(f, []) == []
    for bad in (
        [(zero, bounded_metric, range(1, 6))],
        [(zero, bounded_metric, range(1, 3)), (zero, mismatch_integrand, range(1, 6))],
        [(zero, bounded_metric, range(1, 3)), (zero, bounded_metric, [-1])],
        [(zero, bounded_metric, [0])],
        [(zero, bounded_metric, [1]), (zero, mismatch_integrand, [0, 2])],
        [(zero, bounded_metric, [2, 5])],
    ):
        with pytest.raises(ValidationError):
            level_profile(f, bad)
    with pytest.raises(DimensionMismatchError):
        level_profile(f, [(zero, bounded_metric, range(1, 3)), (LevelFunction.constant(0, Value.of(0, 0)), bounded_metric, range(1, 3))])


def test_gapped_levels_equal_the_full_profile(binary6):
    """A sweep that lists some levels returns the full profile's values at
    them, with the same type, in one joint sweep with other level lists."""
    rng = random.Random(5)
    zero = LevelFunction.constant(0, Value.of(0))
    center = random_level_function(binary6, rng, 2, 1)
    sweeps = [(t, integrand) for t in (center, zero) for integrand in (bounded_metric, mismatch_integrand)]
    lists = [[2, 3, 6], [6], [1, 4], [5]]
    for f in (random_harmonic(binary6, rng), zero_function(binary6, 1)):
        full = level_profile(f, [(t, integrand, range(1, 7)) for t, integrand in sweeps])
        got = level_profile(f, [(t, integrand, levels) for (t, integrand), levels in zip(sweeps, lists)])
        assert repr(got) == repr([[d[n - 1] for n in levels] for d, levels in zip(full, lists)])
    assert got[2] == [0, 0] and all(type(d) is int for d in got[2])


def exact_span(components, coeffs, psi, epsilon, horizon):
    """span_inclusion_check's hat hits, combination hits and violations from
    exact distances."""
    delta = epsilon / len(components)
    centers = [LevelFunction.constant(0, Value.of(0))] * (len(components) - 1) + [psi]
    near = [exact_hits(f, c, a or 1, delta, horizon) for f, c, a in zip(components, centers, coeffs)]
    hat = tuple(n for n in range(1, horizon + 1) if all(n in h for h in near))
    combo = tuple(exact_hits(linear_combination(coeffs, components), psi, 1, epsilon, horizon))
    return hat, combo, tuple(n for n in hat if n not in combo)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    scales=st.lists(st.fractions(-3, 3, max_denominator=6), min_size=2, max_size=2),
    pick=st.integers(0, 3),
    radius=st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50),
)
def test_random_trees_decide_as_the_exact_sweep(seed, scales, pick, radius):
    tree = random_tree(seed)
    rng = random.Random(seed)
    f, g = random_harmonic(tree, rng), random_harmonic(tree, rng)
    targets = [random_level_function(tree, rng, level, 1) for level in (0, 1, 2)]
    for t in targets:
        for scale in scales:
            tie = level_profile(f, [(t, scaled_metric(scale), range(1, 5))])[0][pick]  # a radius that is a distance
            for r in (tie, radius):
                assert hit_levels((f,), [(t, (scale,), r, 4)])[0] == exact_hits(f, t, scale, r, 4), (scale, r)
        assert hit_set(tree, f, Target(1, t, radius), 4) == exact_hits(f, t, 1, radius, 4)
    coeffs = (scales[0], scales[1] or Fraction(1))
    [rep] = span_inclusion_check([f, g], [(coeffs, targets[pick % 3])], radius, 4)
    assert (rep.hat_hits, rep.combo_hits, rep.violations) == exact_span([f, g], coeffs, targets[pick % 3], radius, 4)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    dim=st.sampled_from([1, 2]),
    coeffs=st.lists(st.fractions(-3, 3, max_denominator=6), min_size=2, max_size=2),
    pick=st.integers(0, 3),
    radius=st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50),
)
def test_joint_walk_decides_combinations_as_the_exact_sweep(seed, dim, coeffs, pick, radius):
    """hit_levels((f, g), ...) decides each coefficient vector as the exact
    sweep of the built combination does, against targets at levels 0 to 2
    (level 2 reaches split target nodes below the root), at a random radius
    and at a radius equal to one of the combination's distances, which the
    bounds cannot decide."""
    tree = random_tree(seed)
    rng = random.Random(seed)
    fs = (random_harmonic(tree, rng, dim), random_harmonic(tree, rng, dim))
    targets = [random_level_function(tree, rng, level, dim) for level in (0, 1, 2)]
    vectors = [
        tuple(coeffs),
        (0, coeffs[1] or 1),
        (coeffs[0], 0),
        (Fraction(-1, 2), Fraction(3, 4)),
        (Fraction(-2),),  # g's coefficient left out: zero
        (0, 0),
    ]
    sweeps, want = [], []
    for t in targets:
        for a in vectors:
            combo = linear_combination(a + (0,) * (2 - len(a)), fs)
            tie = level_profile(combo, [(t, bounded_metric, range(1, 5))])[0][pick]
            sweeps += [(t, a, tie, 4), (t, a, radius, 4)]
            want += [exact_hits(combo, t, 1, tie, 4), exact_hits(combo, t, 1, radius, 4)]
    assert hit_levels(fs, sweeps) == want


def test_combinations_are_built_only_for_undecided_levels(binary6, monkeypatch):
    rng = random.Random(9)
    fs = (random_harmonic(binary6, rng), random_harmonic(binary6, rng))
    center = random_level_function(binary6, rng, 2, 1)
    a = (Fraction(1, 2), Fraction(-3))
    distances = level_profile(linear_combination(a, fs), [(center, bounded_metric, range(1, 7))])[0]
    assert all((d * 2**harmonic.P).denominator > 1 for d in distances)  # no bound can equal one
    built = []
    combine = harmonic.linear_combination
    monkeypatch.setattr(harmonic, "linear_combination", lambda c, gs: built.append(tuple(c)) or combine(c, gs))
    read = record_fallback(monkeypatch)
    radius = Fraction(1, 3)
    assert hit_levels(fs, [(center, a, radius, 6)]) == [[n for n, d in enumerate(distances, 1) if d < radius]]
    assert built == [] and read == []
    tie = distances[3]
    got = hit_levels(fs, [(center, a, tie, 6), (center, (0, a[1]), tie, 6)])
    assert got[0] == [n for n, d in enumerate(distances, 1) if d < tie]
    assert built == [a] and read[: distances.count(tie)] == [n for n, d in enumerate(distances, 1) if d == tie]


def test_joint_walk_validates_its_sweeps(binary4):
    f = zero_function(binary4, 1)
    zero = LevelFunction.constant(0, Value.of(0))
    with pytest.raises(ValidationError):
        hit_levels((f,), [(zero, (1, 1), Fraction(1, 2), 2)])
    for horizon in (-1, 5):
        with pytest.raises(ValidationError):
            hit_levels((f,), [(zero, (1,), Fraction(1, 2), 2), (zero, (1,), Fraction(1, 2), horizon)])
    with pytest.raises(ValidationError):
        hit_levels((f, zero_function(build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2})), 1)), [(zero, (1, 1), Fraction(1, 2), 2)])
    with pytest.raises(DimensionMismatchError):
        hit_levels((f, zero_function(binary4, 2)), [(zero, (1, 1), Fraction(1, 2), 2)])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    drawn=st.lists(
        st.tuples(
            st.lists(st.fractions(-3, 3, max_denominator=4), max_size=2),
            st.fractions(-3, 3, max_denominator=4).filter(bool),
            st.integers(0, 2),
        ),
        min_size=1,
        max_size=5,
    ),
    radius=st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50),
)
def test_batched_span_check_matches_the_exact_cases(seed, drawn, radius):
    """One span_inclusion_check over a case list with a duplicate case, s = 1
    cases and both kinds of psi reports each case as exact_span does, also
    when coarse bounds leave most levels to the exact fallback."""
    tree = random_tree(seed)
    rng = random.Random(seed)
    components = [random_harmonic(tree, rng) for _ in range(3)]
    psis = [LevelFunction.constant(0, Value.of(0))] + [random_level_function(tree, rng, level, 1) for level in (1, 2)]
    cases = [([*head, last], psis[k]) for head, last, k in drawn]
    last = drawn[0][1]
    cases += [cases[0], ([last], psis[0]), ([last], psis[2])]
    want = [exact_span(components[: len(c)], c, psi, radius, 4) for c, psi in cases]
    for bits in (harmonic.P, 2):
        with mock.patch.object(harmonic, "P", bits):
            reports = span_inclusion_check(components, cases, radius, 4)
        assert [(r.hat_hits, r.combo_hits, r.violations) for r in reports] == want, bits
        assert [(r.coeffs, r.epsilon, r.delta) for r in reports] == [(tuple(c), radius, radius / len(c)) for c, _ in cases]


@pytest.mark.parametrize(
    "coeffs, psi_dim, error, issue",
    [
        ((), 1, ValidationError, "need one coefficient per component"),
        ((Fraction(1), Fraction(0)), 1, ValidationError, "the last coefficient must be nonzero"),
        ((Fraction(1),) * 4, 1, ValidationError, "need one coefficient per component"),
        ((Fraction(1),), 2, DimensionMismatchError, "dimension mismatch: 2 vs 1"),
    ],
)
def test_invalid_span_case_raises(binary4, coeffs, psi_dim, error, issue):
    rng = random.Random(3)
    components = [random_harmonic(binary4, rng) for _ in range(3)]
    zero = LevelFunction.constant(0, Value.of(0))
    cases = [((Fraction(1),), zero), (coeffs, LevelFunction.constant(0, Value.zero(psi_dim)))]
    with pytest.raises(error, match=issue):
        span_inclusion_check(components, cases, Fraction(1, 8), 4)
    assert span_inclusion_check(components, [], Fraction(1, 8), 4) == []
