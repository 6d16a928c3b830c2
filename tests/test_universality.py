import random
from fractions import Fraction

import pytest

from treeharmonics import (
    InfeasibleScheduleError,
    LevelFunction,
    Target,
    TreeSpec,
    TupleLevelFunction,
    Value,
    ValidationError,
    VertexId,
    aggregate_upward,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    certify_hits,
    check_harmonic,
    constant_function,
    dense_family,
    double_genericity_check,
    enumerate_targets,
    hit_set,
    level_scale,
    level_values,
    linear_combination,
    min_child_probability,
    mismatch_measure,
    one_level_approximation,
    p_metric,
    refine,
    refine_mismatch,
    restrict_to_level,
    restrict_tuple,
    sector_measure,
    span_inclusion_check,
    tuple_p_metric,
    zero_function,
)
from treeharmonics.universality import (
    COEFF_LATTICE,
    min_block_length,
    refinement_levels,
    x_schedule,
)
from treeharmonics.values import centered_grid

from conftest import random_value


@pytest.fixture(scope="module")
def deep60():
    return build_tree(TreeSpec(depth=60, branching={"kind": "uniform", "arity": 2}))


@pytest.fixture(scope="module")
def three_targets(deep60):
    return enumerate_targets(deep60, count=3, epsilon=Fraction(1, 8))


@pytest.fixture(scope="module")
def x_witness(deep60, three_targets):
    return build_x_witness(deep60, three_targets, growth=5, width=3, horizon=60, warmup=5)


# ----------------------------------------------------------------------
# Targets


def test_first_target_is_zero(binary4):
    targets = enumerate_targets(binary4, count=1)
    assert targets[0].level_function.node.is_leaf
    assert targets[0].level_function.node.value == Value.zero(1)
    assert targets[0].epsilon == Fraction(1, 2)  # ladder default


def test_target_epsilon_ladder(binary4):
    targets = enumerate_targets(binary4, count=3)
    assert [t.epsilon for t in targets] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_target_levels_within_depth(binary4):
    targets = enumerate_targets(binary4, count=12)
    assert all(t.level <= binary4.depth for t in targets)
    # deduped: pairwise distinct as boundary functions
    nodes = [id(t.level_function.node) for t in targets]
    assert len(set(nodes)) == len(nodes)


def test_target_prefix_covers_level_one_assignments(binary4):
    # counting oracle: the resolution-0 grid has 3 points and level 1 has 2
    # vertices, so there are 9 level-1 assignments; walk the diagonal to count
    # how many distinct functions precede the last of them, then check that
    # prefix (constants collapse to their level-0 form, hence the dedupe)
    from treeharmonics.harmonic import diagonal_pair
    from treeharmonics.universality import level_function_from_assignment

    grid = centered_grid(1, 0, 1)
    wanted = {
        id(level_function_from_assignment(binary4, 1, j, grid).node) for j in range(1, 10)
    }
    seen: set[int] = set()
    missing = set(wanted)
    idx = 0
    while missing:
        idx += 1
        k, j = diagonal_pair(binary4, idx, len(grid))
        lf = level_function_from_assignment(binary4, k, j, grid)
        seen.add(id(lf.node))
        missing.discard(id(lf.node))
    bound = len(seen)
    prefix = enumerate_targets(binary4, count=bound)
    got = {id(t.level_function.node) for t in prefix}
    assert wanted <= got


def test_enumeration_exhaustion_guarded():
    # depth-1 binary with the 3-point grid holds only 9 distinct functions
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    assert len(enumerate_targets(tree, count=9)) == 9
    with pytest.raises(ValidationError):
        enumerate_targets(tree, count=10)


def test_target_epsilon_validation(binary4):
    lf = LevelFunction.constant(0, Value.of(0))
    with pytest.raises(ValidationError):
        Target(index=1, level_function=lf, epsilon=Fraction(3, 2))


# ----------------------------------------------------------------------
# One-level approximation


def test_one_level_approximation_symmetric_oracle():
    # w = (1/2, 1/2), f(root) = 0, target constant 1: solving the
    # weighted-average constraint by hand gives children (-1, 1) with the
    # correction on the absorbing (first) child
    tree = build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2}))
    f = zero_function(tree, 1)
    target = LevelFunction.constant(0, Value.of(1))
    g, rep = one_level_approximation(f, target, 1)
    assert level_values(tree, restrict_to_level(g, 1)) == [Value.of(-1), Value.of(1)]
    assert rep.measure == Fraction(1, 2)
    assert rep.corrected_measure == 1
    assert rep.measure <= Fraction(1, 2) * rep.corrected_measure
    assert check_harmonic(g).passed


def test_one_level_approximation_matched_is_noop(binary4):
    f = constant_function(binary4, Value.of(1))
    target = LevelFunction.constant(0, Value.of(1))
    g, rep = one_level_approximation(f, target, 2)
    assert rep.measure == 0
    assert g.node is f.node


def test_one_level_approximation_weighted_oracle():
    # q = (2/3, 1/3) makes the second child absorbing; w = (1/3, 2/3),
    # f(root) = 1, target 0: correction (1 - 1/3*0) / (2/3) = 3/2
    tree = build_tree(
        TreeSpec(
            depth=2,
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "per_level", "rows": [["2/3", "1/3"], ["1/2", "1/2"]]},
            w_rule={"kind": "per_level", "rows": [["1/3", "2/3"], ["1/2", "1/2"]]},
        )
    )
    f = constant_function(tree, Value.of(1))
    target = LevelFunction.constant(0, Value.of(0))
    g, rep = one_level_approximation(f, target, 1)
    assert level_values(tree, restrict_to_level(g, 1)) == [Value.of(0), Value.of(Fraction(3, 2))]
    assert check_harmonic(g).passed
    # the mismatch sits exactly on the absorbing child
    absorbing, _ = min_child_probability(tree, VertexId(0, 0))
    assert absorbing == VertexId(1, 1)
    assert rep.measure == sector_measure(tree, absorbing)


def test_mismatch_set_on_absorbing_children(lopsided3):
    rng = random.Random(23)
    f = zero_function(lopsided3, 1)
    target = LevelFunction.constant(0, random_value(rng, 1))
    n = 2
    g, rep = one_level_approximation(f, target, n)
    indicator = level_values(lopsided3, rep.indicator)
    absorbing_offsets = set()
    for x in lopsided3.vertices(n - 1):
        child, _ = min_child_probability(lopsided3, x)
        absorbing_offsets.add(child.offset)
    for offset, flag in enumerate(indicator):
        if flag == Value.of(1):
            assert offset in absorbing_offsets


# ----------------------------------------------------------------------
# Mismatch refinement


def test_refine_mismatch_zero_steps(binary4):
    f = zero_function(binary4, 1)
    target = LevelFunction.constant(0, Value.of(1))
    g, _ = one_level_approximation(f, target, 1)
    g2, log = refine_mismatch(g, target, 1, 0)
    assert g2.node is g.node
    assert log == [(1, Fraction(1, 2))]


def test_refine_mismatch_halving_simulation():
    tree = build_tree(TreeSpec(depth=10, branching={"kind": "uniform", "arity": 2}))
    f = zero_function(tree, 1)
    target = LevelFunction.constant(0, Value.of(1))
    g, rep = one_level_approximation(f, target, 1)
    assert rep.measure == Fraction(1, 2)
    g, log = refine_mismatch(g, target, 1, 3)
    # simulate and compare against the halving bound: 2^-3 * 1/2
    assert log[-1][1] == Fraction(1, 16)
    for (l0, m0), (l1, m1) in zip(log, log[1:]):
        assert m1 <= m0 / 2
    # the orbit distance is dominated by the logged mismatch at every step
    for lvl, m in log:
        d = p_metric(tree, restrict_to_level(g, lvl), refine(tree, target, lvl))
        assert d <= m


def test_refine_mismatch_random_trees():
    for seed in range(4):
        tree = build_tree(
            TreeSpec(
                depth=9,
                branching={"kind": "random", "max_arity": 3},
                q_rule={"kind": "random", "max_weight": 9},
                w_rule={"kind": "random", "max_weight": 5},
                seed=seed,
            )
        )
        f = zero_function(tree, 1)
        target = LevelFunction.constant(0, Value.of(2))
        g, rep = one_level_approximation(f, target, 1)
        g, log = refine_mismatch(g, target, 1, 7)
        m0 = log[0][1]
        for k, (lvl, m) in enumerate(log):
            assert m <= Fraction(1, 2**k) * m0
        assert check_harmonic(g).passed


def test_refine_mismatch_log_matches_per_level_measures(binary6):
    # start 0 logs the root level too, which the level sweep does not cover
    rng = random.Random(2)
    f = aggregate_upward(binary6, [random_value(rng, 1) for _ in range(binary6.level_size(6))])
    target = LevelFunction.constant(0, Value.of(1))
    for start in (0, 1, 2):
        g, log = refine_mismatch(f, target, start, 6 - start)
        assert [lvl for lvl, _ in log] == list(range(start, 7))
        for lvl, m in log:
            want = mismatch_measure(binary6, restrict_to_level(g, lvl), target)
            assert m == want and type(m) is type(want)


def test_refine_mismatch_depth_exhaustion(binary4):
    f = zero_function(binary4, 1)
    target = LevelFunction.constant(0, Value.of(1))
    g, _ = one_level_approximation(f, target, 1)
    with pytest.raises(ValidationError):
        refine_mismatch(g, target, 1, 10)


# ----------------------------------------------------------------------
# Witnesses


def test_single_target_whole_depth_block():
    tree = build_tree(TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=2, epsilon=Fraction(1, 8))
    nonzero = targets[1]  # constant -1
    w = build_x_witness(tree, [Target(1, nonzero.level_function, nonzero.epsilon)], growth=100)
    assert len(w.schedule.blocks) == 1
    block = w.schedule.blocks[0]
    rep = certify_hits(w)
    first_guaranteed = block.start + refinement_levels(Fraction(1, 8)) - 1
    assert set(range(first_guaranteed, 31)) <= set(rep.entries[0].hits)


def test_zero_target_zero_function_hits_everywhere():
    tree = build_tree(TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}))
    zero_target = enumerate_targets(tree, count=1, epsilon=Fraction(1, 2))
    w = build_x_witness(tree, zero_target, growth=5)
    rep = certify_hits(w)
    assert list(rep.entries[0].hits) == list(range(1, 31))


def test_x_witness_densities(deep60, x_witness):
    rep = certify_hits(x_witness)
    assert rep.all_pass
    for e in rep.entries:
        assert e.upper >= Fraction(3, 4)
    # construction log: non-increasing mismatch, terminal distance below epsilon
    for log in x_witness.logs:
        values = [m for _, m in log.mismatch]
        assert all(b <= a for a, b in zip(values, values[1:]))
        target = x_witness.targets[log.target_index - 1]
        assert log.terminal_p < target.epsilon
    # extra tuple components would stay zero; here width equals target count
    assert check_harmonic(x_witness.function).passed


def test_hit_guarantee_from_mismatch_log(deep60, x_witness):
    # wherever the logged mismatch is below epsilon, the orbit is inside the
    # ball: the metric never exceeds the mismatched mass
    for log in x_witness.logs:
        target = x_witness.targets[log.target_index - 1]
        comp = x_witness.function.components[log.component - 1]
        for lvl, m in log.mismatch:
            d = p_metric(deep60, restrict_to_level(comp, lvl), target.level_function)
            assert d <= m
            if m < target.epsilon:
                assert d < target.epsilon


def test_x_witness_extra_components_stay_zero(deep60, three_targets):
    w = build_x_witness(deep60, three_targets, growth=5, width=5, horizon=60)
    zero_node = zero_function(deep60, 1).node
    for comp in w.function.components[3:]:
        assert comp.node is zero_node


def test_ufm_witness_single_target():
    tree = build_tree(TreeSpec(depth=40, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=2, epsilon=Fraction(1, 8))
    w = build_ufm_witness(tree, [Target(1, targets[1].level_function, targets[1].epsilon)], block_length=10)
    rep = certify_hits(w)
    entry = rep.entries[0]
    # hits cover the tail of every block
    for b in w.schedule.blocks:
        assert {b.end - 1, b.end} <= set(entry.hits)
    assert entry.lower >= Fraction(10 - 5, 10) - Fraction(2, 10)


def test_ufm_witness_three_targets(deep60, three_targets):
    w = build_ufm_witness(deep60, three_targets, block_length=10)
    rep = certify_hits(w)
    assert rep.all_pass
    for e in rep.entries:
        assert e.lower >= Fraction(1, 20)


def test_ufm_block_length_validation(deep60, three_targets):
    with pytest.raises(InfeasibleScheduleError):
        build_ufm_witness(deep60, three_targets, block_length=3)


def test_x_schedule_shape(deep60, three_targets):
    s = x_schedule(deep60, three_targets, growth=5, width=3, horizon=60)
    ends = sorted({b.end for b in s.blocks})
    assert ends == [12, 60]
    # each component's final block carries its own target
    for comp in (1, 2, 3):
        last = s.component_blocks(comp)[-1]
        assert last.target_index == comp
    # all lengths respect the setup bound
    for b in s.blocks:
        eps = three_targets[b.target_index - 1].epsilon
        assert b.end - b.start + 1 >= min_block_length(eps)


def test_x_witness_on_random_explicit_tree():
    # per-vertex rows: the absorbing child and the correction weights differ
    # from vertex to vertex, unlike the level-uniform fixtures
    tree = build_tree(
        TreeSpec(
            depth=12,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 9},
            w_rule={"kind": "random", "max_weight": 5},
            seed=31,
        )
    )
    targets = enumerate_targets(tree, count=2, epsilon=Fraction(1, 8))
    w = build_x_witness(tree, targets, growth=5, width=2, horizon=12)
    report = check_harmonic(w.function)
    assert report.passed and report.max_residual == 0
    rep = certify_hits(w)
    for entry, block in zip(rep.entries, (w.schedule.component_blocks(1)[-1], w.schedule.component_blocks(2)[-1])):
        first_guaranteed = block.start + refinement_levels(Fraction(1, 8)) - 1
        assert set(range(first_guaranteed, 13)) <= set(entry.hits)
    for log in w.logs:
        values = [m for _, m in log.mismatch]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_infeasible_horizon():
    tree = build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=1, epsilon=Fraction(1, 64))
    with pytest.raises(InfeasibleScheduleError):
        build_x_witness(tree, targets, growth=5)


# ----------------------------------------------------------------------
# Hit certification


def test_hit_set_zero_on_zero(binary4):
    f = zero_function(binary4, 1)
    target = Target(1, LevelFunction.constant(0, Value.of(0)), Fraction(1, 2))
    assert hit_set(binary4, f, target, 4) == [1, 2, 3, 4]


def test_certify_deterministic(x_witness):
    a = certify_hits(x_witness)
    b = certify_hits(x_witness)
    assert a == b


def test_tuple_hits_project_to_component_intersections(deep60, x_witness, three_targets):
    # product-target membership is the intersection of component hit sets;
    # the tuple metric bounds confirm it in both directions
    horizon = 20
    eps = [t.epsilon for t in three_targets]
    comp_hits = [
        set(hit_set(deep60, f, t, horizon))
        for f, t in zip(x_witness.function.components, three_targets)
    ]
    product_hits = comp_hits[0] & comp_hits[1] & comp_hits[2]
    target_tuple = TupleLevelFunction(tuple(t.level_function for t in three_targets))
    for n in range(1, horizon + 1):
        omega = restrict_tuple(x_witness.function, n)
        tp = tuple_p_metric(deep60, omega, target_tuple)
        if n in product_hits:
            # all components within their radii forces a small tuple distance
            assert tp < sum(Fraction(1, 2**k) * e for k, e in enumerate(eps, start=1))
        for k, (t, hits) in enumerate(zip(three_targets, comp_hits), start=1):
            comp_d = p_metric(
                deep60, restrict_to_level(x_witness.function.components[k - 1], n), t.level_function
            )
            # tuple distance dominates each weighted component distance
            assert Fraction(1, 2**k) * comp_d <= tp


# ----------------------------------------------------------------------
# Span inclusion


def test_span_single_component_is_direct_membership(deep60, x_witness, three_targets):
    comp = x_witness.function.components[0]
    t = three_targets[0]
    rep = span_inclusion_check([comp], [Fraction(1)], t.level_function, t.epsilon, 30)
    direct = hit_set(deep60, comp, t, 30)
    assert list(rep.hat_hits) == direct
    assert list(rep.combo_hits) == direct
    assert rep.ok


def test_span_inclusion_pair(deep60, x_witness):
    comps = x_witness.function.components[:2]
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    rep = span_inclusion_check(list(comps), [Fraction(1), Fraction(1)], zero_lf, Fraction(1, 8), 60)
    assert rep.ok
    assert rep.hat_hits  # nonvacuous: both components are zero before block one
    assert set(rep.hat_hits) <= set(rep.combo_hits)


def test_span_triangle_bound(deep60, x_witness, three_targets):
    # independent evaluation of every term of the chained triangle bound
    comps = list(x_witness.function.components)
    coeffs = [Fraction(1), Fraction(-2), Fraction(1, 2)]
    psi = three_targets[2].level_function
    combo = linear_combination(coeffs, comps)
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    for n in range(1, 31):
        lhs = p_metric(deep60, restrict_to_level(combo, n), psi)
        bound = Fraction(0)
        for i in range(2):
            scaled = level_scale(coeffs[i], restrict_to_level(comps[i], n))
            bound += p_metric(deep60, scaled, zero_lf)
        scaled_last = level_scale(coeffs[2], restrict_to_level(comps[2], n))
        bound += p_metric(deep60, scaled_last, psi)
        assert lhs <= bound


def test_span_zero_last_coefficient_rejected(x_witness):
    comps = list(x_witness.function.components[:2])
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    with pytest.raises(ValidationError):
        span_inclusion_check(comps, [Fraction(1), Fraction(0)], zero_lf, Fraction(1, 8), 10)


def test_span_zero_coefficient_in_middle_ok(deep60, x_witness):
    comps = list(x_witness.function.components)
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    rep = span_inclusion_check(comps, [Fraction(0), Fraction(1), Fraction(1)], zero_lf, Fraction(1, 8), 40)
    assert rep.ok


# ----------------------------------------------------------------------
# Dense family


def test_dense_family_certified(deep60):
    result = dense_family(deep60, count=6)
    assert result.all_certified
    for m in result.members:
        assert m.rho.upper < m.bound
        assert check_harmonic(m.function).passed
    # member 1 has the trivial bound and the zero-level cut
    assert result.members[0].cut_level == 0
    assert result.members[0].prefix_terms == 1


def test_dense_family_depth_guard():
    tree = build_tree(TreeSpec(depth=12, branching={"kind": "uniform", "arity": 2}))
    result = dense_family(tree, count=4, growth=3)
    assert result.all_certified


# ----------------------------------------------------------------------
# Double genericity


def test_double_genericity(deep60):
    rep = double_genericity_check(deep60, seed=3)
    assert rep.all_pass
    assert rep.far_distance > rep.reference_epsilon
    for e in rep.steady_combos:
        assert e.lower >= Fraction(1, 20)
    for e in rep.burst_dips:
        assert e.min_foreign_ratio <= Fraction(3, 10)
    assert rep.intersection_distinct


def test_double_genericity_deterministic(deep60):
    a = double_genericity_check(deep60, seed=5)
    b = double_genericity_check(deep60, seed=5)
    assert [e.coeffs for e in a.steady_combos] == [e.coeffs for e in b.steady_combos]
    assert [e.hits for e in a.steady_combos] == [e.hits for e in b.steady_combos]
    assert [e.min_foreign_ratio for e in a.burst_dips] == [e.min_foreign_ratio for e in b.burst_dips]


def test_coeff_lattice_matches_contract():
    assert set(COEFF_LATTICE) == {
        Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)
    }
