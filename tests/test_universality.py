import json
import random
from fractions import Fraction

import pytest

from treeharmonics import (
    InfeasibleScheduleError,
    InvariantError,
    LevelFunction,
    Target,
    TreeSpec,
    TupleLevelFunction,
    Value,
    ValidationError,
    VertexId,
    add_functions,
    aggregate_from_level,
    aggregate_upward,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    certify_hits,
    check_harmonic,
    constant_function,
    dense_family,
    double_genericity_check,
    enumerate_harmonics,
    enumerate_targets,
    hit_set,
    level_measures,
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
from treeharmonics import harmonic, universality
from treeharmonics.boundary import _expand, leaf, mismatch_integrand
from treeharmonics.errors import DimensionMismatchError
from treeharmonics.harmonic import (
    HarmonicFunction,
    func_split,
    harmonic_from_assignment,
    level_profile,
)
from treeharmonics.universality import (
    COEFF_LATTICE,
    REFERENCE_EPSILON,
    Schedule,
    ScheduleBlock,
    _family_ufm_schedule,
    _synthesize,
    _validate_schedule,
    log_and_certify,
    min_block_length,
    refinement_levels,
    span_sweep,
    x_schedule,
)
from treeharmonics.cli import main
from treeharmonics.serialize import canonical_json, witness_from_doc, witness_to_doc
from treeharmonics.values import bounded_metric, centered_grid

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


def test_refine_mismatch_past_the_tree(binary4):
    target = LevelFunction.constant(0, Value.of(1))
    with pytest.raises(ValidationError) as exc:
        refine_mismatch(zero_function(binary4, 1), target, 2, 3)
    assert str(exc.value) == "level 5 exceeds tree depth 4"


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
    logs, _ = log_and_certify(x_witness)
    for log in logs:
        values = [m for _, m in log.mismatch]
        assert all(b <= a for a, b in zip(values, values[1:]))
        target = x_witness.targets[log.target_index - 1]
        assert log.terminal_p < target.epsilon
    # extra tuple components would stay zero; here width equals target count
    assert check_harmonic(x_witness.function).passed


def test_hit_guarantee_from_mismatch_log(deep60, x_witness):
    # wherever the logged mismatch is below epsilon, the orbit is inside the
    # ball: the metric never exceeds the mismatched mass
    for log in log_and_certify(x_witness)[0]:
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
    for log in log_and_certify(w)[0]:
        values = [m for _, m in log.mismatch]
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_infeasible_horizon():
    tree = build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=1, epsilon=Fraction(1, 64))
    with pytest.raises(InfeasibleScheduleError):
        build_x_witness(tree, targets, growth=5)


# ----------------------------------------------------------------------
# Oracle: the one-pass block walk against block-by-block rebuilding


def _ref_drive(tree, c, t, x, end, memo):
    """Subtree below a vertex holding value c, driven toward the constant
    target t through level `end`, constant-extended afterwards."""
    if c == t:
        return leaf(c)
    if x.level >= end:
        return leaf(c)
    key = (c, t, tree.pos_key(x))
    hit = memo.get(key)
    if hit is not None:
        return hit
    j = tree.min_child(x)
    ws = tree.w_row(x)
    wstar = ws[j]
    cstar = (c - t.scale(1 - wstar)).scale(1 / wstar)
    kids = tuple(
        _ref_drive(tree, cstar, t, tree.child(x, j), end, memo) if i == j else leaf(t)
        for i in range(tree.arity(x))
    )
    node = func_split(c, kids)
    memo[key] = node
    return node


def _ref_rebuild(f, target, stop_level, end):
    """Copy f above stop_level, then drive each sector toward the target
    through `end`.  Below stop_level, f contributes only its restriction."""
    tree = f.tree
    drive_memo: dict = {}
    desc_memo: dict = {}

    def desc(fn, tn, x):
        if x.level == stop_level:
            assert tn.is_leaf
            return _ref_drive(tree, fn.value, tn.value, x, end, drive_memo)
        key = (id(fn), id(tn), tree.pos_key(x))
        hit = desc_memo.get(key)
        if hit is not None:
            return hit
        k = tree.arity(x)
        fc, tc = _expand(fn, k), _expand(tn, k)
        kids = tuple(desc(fc[i], tc[i], tree.child(x, i)) for i in range(k))
        node = func_split(fn.value, kids)
        desc_memo[key] = node
        return node

    return HarmonicFunction(tree, f.depth, f.dim, desc(f.node, target.node, tree.root))


def _assert_matches_block_by_block(witness, logs):
    """Each component's root is the node that rebuilding block by block
    yields, and each of the witness's block logs equals the sweeps over the
    function as it stood when that block ended (repr also pins int 0 against
    Fraction 0)."""
    want = []
    for comp in range(1, witness.schedule.width + 1):
        f = zero_function(witness.tree, witness.component_function(1).dim)
        for b in witness.schedule.component_blocks(comp):
            lf = witness.targets[b.target_index - 1].level_function
            f = _ref_rebuild(f, lf, b.start - 1, b.end)
            measures = level_profile(f, [(lf, mismatch_integrand, range(1, b.end + 1))])[0][b.start - 1 :]
            terminal = level_profile(f, [(lf, bounded_metric, range(1, b.end + 1))])[0][-1]
            want.append((comp, b.target_index, b.start, b.end, tuple(zip(range(b.start, b.end + 1), measures)), terminal))
        assert witness.component_function(comp).node is f.node
    got = [(g.component, g.target_index, g.start, g.end, g.mismatch, g.terminal_p) for g in logs]
    assert repr(got) == repr(want)


ORACLE_TREES = {
    # spec, target epsilon, ufm block length, nonzero targets per schedule
    "binary": (TreeSpec(depth=40, branching={"kind": "uniform", "arity": 2}), Fraction(1, 8), 5, 2),
    "skewed-per-level": (
        TreeSpec(
            depth=40,
            branching={"kind": "per_level", "arities": [2] * 40},
            q_rule={"kind": "per_level", "rows": [["1/100", "99/100"], ["3/4", "1/4"]] * 20},
            w_rule={"kind": "per_level", "rows": [["1/3", "2/3"], ["-1/2", "3/2"]] * 20},
        ),
        Fraction(1, 8),
        5,
        2,
    ),
    "ternary": (TreeSpec(depth=25, branching={"kind": "uniform", "arity": 3}), Fraction(1, 4), 4, 2),
    "random-explicit": (
        TreeSpec(
            depth=10,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 9},
            w_rule={"kind": "random", "max_weight": 5},
            seed=31,
        ),
        Fraction(1, 2),
        3,
        1,
    ),
}


@pytest.fixture(scope="module", params=sorted(ORACLE_TREES))
def oracle_case(request):
    spec, eps, block_length, nonzero = ORACLE_TREES[request.param]
    return build_tree(spec), eps, block_length, nonzero


def _oracle_witness(oracle_case, kind, horizon=None):
    tree, eps, block_length, nonzero = oracle_case
    if kind == "x":
        return build_x_witness(tree, enumerate_targets(tree, count=3, epsilon=eps), growth=3, horizon=horizon)
    if kind == "ufm":
        targets = enumerate_targets(tree, count=nonzero + 1, epsilon=eps)[1:]
        return build_ufm_witness(tree, targets, block_length=block_length, horizon=horizon)
    targets = enumerate_targets(tree, count=nonzero + 1, resolution=1, epsilon=eps)
    schedule = _family_ufm_schedule(tree, targets, block_length, width=nonzero, horizon=horizon or tree.depth)
    return _synthesize(tree, schedule, targets)


@pytest.mark.parametrize("kind", ["x", "ufm", "family"])
def test_one_pass_walk_matches_block_by_block(oracle_case, kind):
    witness = _oracle_witness(oracle_case, kind)
    logs, _ = log_and_certify(witness)
    assert len(logs) >= 2
    _assert_matches_block_by_block(witness, logs)


@pytest.mark.parametrize("kind", ["x", "ufm", "family"])
def test_log_and_certify_reports_as_certify_hits(oracle_case, kind):
    # the one walk that derives the logs decides the hits as certify_hits'
    # own walk does, on the witness and on the witness read back from its
    # text; each log, on an x-kind tuple its own component's, read out of
    # the joint entries, is the block-by-block oracle's
    witness = _oracle_witness(oracle_case, kind)
    logs, report = log_and_certify(witness)
    read_back = witness_from_doc(json.loads(canonical_json(witness_to_doc(witness, logs))))
    assert report == certify_hits(witness) == certify_hits(read_back)
    _assert_matches_block_by_block(witness, logs)


@pytest.mark.parametrize("kind", ["x", "ufm"])
def test_synthesized_hits_equal_read_back_and_exact_hits(oracle_case, kind):
    # a synthesized witness and the witness read back from its written text
    # certify alike, and each hit is the exact decision d < epsilon on its
    # component's distances
    tree = oracle_case[0]
    horizon = tree.depth - 2
    witness = _oracle_witness(oracle_case, kind, horizon)
    read_back = witness_from_doc(json.loads(canonical_json(witness_to_doc(witness, log_and_certify(witness)[0]))))
    for h in (horizon, horizon // 2, tree.depth):
        report = certify_hits(witness, horizon=h)
        assert report == certify_hits(read_back, horizon=h), h
        assert report.horizon == h and any(e.hits for e in report.entries)
        for t, entry in zip(witness.targets, report.entries):
            f = witness.component_function(entry.component)
            distances = level_profile(f, [(t.level_function, bounded_metric, range(1, h + 1))])[0]
            assert entry.hits == tuple(n for n, d in enumerate(distances, 1) if d < t.epsilon), (h, t.index)


@pytest.mark.parametrize("kind", ["x", "ufm", "family"])
def test_synthesis_sweeps_distances_at_block_ends_only(oracle_case, kind, monkeypatch):
    # the witness file logs each block's mismatches and its block-end
    # distance; synthesis sweeps nothing, and log_and_certify's one call
    # logs nothing else, the horizon included
    requested = []
    walk = universality.profile_and_hits
    monkeypatch.setattr(
        universality, "profile_and_hits", lambda fs, logged, sweeps: requested.append(logged) or walk(fs, logged, sweeps)
    )
    witness = _oracle_witness(oracle_case, kind, oracle_case[0].depth - 1)
    assert requested == []
    log_and_certify(witness)
    [logged_sweeps] = requested
    for comp in range(1, witness.schedule.width + 1):
        blocks = witness.schedule.component_blocks(comp)
        swept = {(integrand, n) for _, i, integrand, levels in logged_sweeps if i == comp - 1 for n in levels}
        ends = {(bounded_metric, b.end) for b in blocks}
        logged = {(mismatch_integrand, n) for b in blocks for n in range(b.start, b.end + 1)}
        assert swept == ends | logged, comp


# the _sweep walks each command makes on the binary and skewed oracle trees,
# where no level's bounds straddle a radius, so no exact fallback walks: a
# witness command derives its logs and hits in one walk, and the checks that
# write no log sum no exact distance
COMMAND_WALKS = {
    "witness-ufm": [{"exact", "bounds"}],
    "witness-x": [{"exact", "bounds"}],
    "dense-family": [],
    "span-check": [{"bounds"}],
    "double-genericity": [{"support"}, {"bounds"}],
}


@pytest.mark.parametrize("command", sorted(COMMAND_WALKS))
@pytest.mark.parametrize("tree_name", ["binary", "skewed-per-level"])
def test_each_command_walks_once_for_logs_and_hits(tree_name, command, tmp_path, monkeypatch):
    spec, eps, block_length, _ = ORACLE_TREES[tree_name]
    walks = []

    def spy(walk):
        def counted(fs, sweeps, folds, starts):
            walks.append({fold.__name__ for fold in folds})
            return walk(fs, sweeps, folds, starts)

        return counted

    monkeypatch.setattr(harmonic, "_sweep", spy(harmonic._sweep))
    monkeypatch.setattr(universality, "_sweep", spy(universality._sweep))  # span_sweep's name for it
    config = tmp_path / "config.json"
    tree = {"depth": spec.depth, "branching": spec.branching, "q_rule": spec.q_rule, "w_rule": spec.w_rule}
    config.write_text(json.dumps({"tree": tree, "block_length": block_length, "targets": {"epsilon": str(eps)}}))
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    assert walks == COMMAND_WALKS[command]


@pytest.mark.parametrize("kind", ["x", "ufm"])
def test_synthesized_witness_hashes_as_its_fields(kind):
    tree = build_tree(TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    witness = build_x_witness(tree, targets) if kind == "x" else build_ufm_witness(tree, targets, block_length=5)
    assert hash(witness) == hash(tuple(witness))


@pytest.mark.parametrize("spec", [ORACLE_TREES["binary"][0], ORACLE_TREES["skewed-per-level"][0]], ids=["binary", "skewed"])
def test_one_pass_walk_gap_and_level_two_target(spec):
    # blocks leave gaps, and the level-2 target is still split while the
    # first blocks are driven above it
    tree = build_tree(spec)
    rng = random.Random(4)
    level2 = LevelFunction.from_values(tree, 2, [random_value(rng, 1) for _ in range(tree.level_size(2))])
    targets = (
        Target(1, LevelFunction.constant(0, Value.of(1)), Fraction(1, 8)),
        Target(2, level2, Fraction(1, 8)),
    )
    blocks = (
        ScheduleBlock(component=1, target_index=1, start=1, end=6),
        ScheduleBlock(component=1, target_index=2, start=10, end=16),
        ScheduleBlock(component=1, target_index=1, start=20, end=26),
        ScheduleBlock(component=2, target_index=2, start=4, end=9),
        ScheduleBlock(component=2, target_index=1, start=9 + 3, end=18),
    )
    schedule = Schedule(kind="ufm", width=2, horizon=30, warmup=0, blocks=blocks)
    _validate_schedule(schedule, tree, targets)
    witness = _synthesize(tree, schedule, targets)
    _assert_matches_block_by_block(witness, log_and_certify(witness)[0])


def _split_levels(node):
    return 0 if node.children is None else 1 + max(_split_levels(c) for c in node.children)


def _structured(tree, levels):
    # the first enumerated harmonic function with a nonzero root whose DAG
    # has split nodes on `levels` levels
    for index in range(1, 200):
        f = enumerate_harmonics(tree, index)
        if _split_levels(f.node) >= levels and f.node.value != Value.of(0):
            return f
    raise AssertionError("no such function in the enumeration prefix")


@pytest.mark.parametrize("tree_name", ["binary", "ternary", "random-explicit"])
def test_single_block_calls_match_rebuild_from_nonzero_start(tree_name):
    tree = build_tree(ORACLE_TREES[tree_name][0])
    f = _structured(tree, 3)
    for target in (LevelFunction.constant(0, Value.of(1)), LevelFunction.constant(0, Value.of(0))):
        for n in (1, 2, 4):
            g, _ = one_level_approximation(f, target, n)
            assert g.node is _ref_rebuild(f, target, n - 1, n).node
        for start, steps in ((0, 3), (1, 4), (2, 0), (1, 0)):
            g, log = refine_mismatch(f, target, start, steps)
            assert g.node is _ref_rebuild(f, target, start, start + steps).node
            assert [lvl for lvl, _ in log] == list(range(start, start + steps + 1))


def test_refine_mismatch_zero_steps_cuts_structure_below_start(binary6):
    # zero steps still replace f below `start` by its level-start values
    f = harmonic_from_assignment(binary6, 3, 100, centered_grid(1, 0, 1))
    assert f.node.children[0].children is not None
    target = LevelFunction.constant(0, Value.of(1))
    g, log = refine_mismatch(f, target, 1, 0)
    assert g.node is not f.node
    assert g.node.value == f.node.value
    assert [c.value for c in g.node.children] == [c.value for c in f.node.children]
    assert all(c.children is None for c in g.node.children)
    assert log == [(1, mismatch_measure(binary6, restrict_to_level(f, 1), target))]


def test_block_walk_checks_keep_their_messages(binary4):
    f = zero_function(binary4, 1)
    with pytest.raises(DimensionMismatchError, match="dimension mismatch: 2 vs 1"):
        one_level_approximation(f, LevelFunction.constant(0, Value.of(1, 1)), 1)
    level2 = LevelFunction.from_values(binary4, 2, [Value.of(v) for v in (1, 0, 0, 1)])
    with pytest.raises(ValidationError, match="cannot approximate a level-2 target from level 1"):
        refine_mismatch(f, level2, 1, 2)
    # a level function whose structure runs deeper than its level
    deep = LevelFunction(0, 1, level2.node)
    with pytest.raises(InvariantError, match="target structure deeper than the approximation level"):
        one_level_approximation(f, deep, 1)


def test_mismatch_growth_inside_a_block_is_an_invariant_error(binary6, monkeypatch):
    # zero on levels 0 to 2, nonzero from level 3 on: the mismatch against
    # the zero target grows inside the first block, levels 1 to 3
    grown = aggregate_upward(binary6, [Value.of(v) for v in (1, -1) * 4 for _ in range(8)])
    assert restrict_to_level(grown, 2).node.is_leaf
    monkeypatch.setattr(universality, "_run_blocks", lambda f, blocks: grown)
    targets = enumerate_targets(binary6, count=1, epsilon=Fraction(1, 2))
    witness = build_ufm_witness(binary6, targets, block_length=3)
    with pytest.raises(InvariantError, match="mismatch grew from 0 to 1 at level 3"):
        log_and_certify(witness)


def test_missed_epsilon_is_an_invariant_error(deep60, three_targets, monkeypatch):
    monkeypatch.setattr(universality, "_run_blocks", lambda f, blocks: f)
    witness = build_ufm_witness(deep60, three_targets, block_length=10)
    with pytest.raises(InvariantError, match="block ending at 20 left distance 1/2, not below epsilon 1/8"):
        log_and_certify(witness)


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
    [rep] = span_inclusion_check([comp], [([Fraction(1)], t.level_function)], t.epsilon, 30)
    direct = hit_set(deep60, comp, t, 30)
    assert list(rep.hat_hits) == direct
    assert list(rep.combo_hits) == direct
    assert rep.ok


def test_span_inclusion_pair(deep60, x_witness):
    comps = x_witness.function.components[:2]
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    [rep] = span_inclusion_check(list(comps), [([Fraction(1), Fraction(1)], zero_lf)], Fraction(1, 8), 60)
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
        span_inclusion_check(comps, [([Fraction(1), Fraction(0)], zero_lf)], Fraction(1, 8), 10)


def test_span_zero_coefficient_in_middle_ok(deep60, x_witness):
    comps = list(x_witness.function.components)
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    [rep] = span_inclusion_check(comps, [([Fraction(0), Fraction(1), Fraction(1)], zero_lf)], Fraction(1, 8), 40)
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
    rep = double_genericity_check(deep60)
    assert rep.all_pass
    assert rep.far_distance > rep.reference_epsilon
    assert len(rep.steady_span.hits) == 18
    assert rep.steady_span.lower == Fraction(5, 21)
    for e in rep.burst_dips:
        assert e.min_foreign_ratio <= Fraction(3, 10)
    # the three burst components sum to zero
    assert rep.span_ranks == (3, 2, 5)
    assert rep.span_ranks.intersection_trivial


def test_double_genericity_deterministic(deep60):
    a = double_genericity_check(deep60)
    b = double_genericity_check(deep60)
    assert a.steady_span == b.steady_span
    assert a.span_ranks == b.span_ranks
    assert [e.min_foreign_ratio for e in a.burst_dips] == [e.min_foreign_ratio for e in b.burst_dips]


def elimination_rank(rows) -> int:
    """Rank over Q by plain Fraction row reduction."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def vertex_rows(tree, fs):
    """One row per function: its coordinates at every vertex of levels 0..depth."""
    return [
        [c for n in range(tree.depth + 1) for v in level_values(tree, restrict_to_level(f, n)) for c in v.coords]
        for f in fs
    ]


def support_measures(tree, fs, depth):
    """The measure, at each level 1..depth, of the vertices where some function is nonzero."""
    out = []
    for n in range(1, depth + 1):
        values = zip(*(level_values(tree, restrict_to_level(f, n)) for f in fs))
        nonzero = [m for m, vs in zip(level_measures(tree, n), values) if any(any(v.coords) for v in vs)]
        out.append(sum(nonzero, Fraction(0)))
    return out


@pytest.mark.parametrize("dim", [1, 2])
def test_span_sweep_matches_level_values(dim):
    tree = build_tree(
        TreeSpec(
            depth=5,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random"},
            w_rule={"kind": "random"},
            seed=4,
        )
    )
    rng = random.Random(dim)

    def sparse_leaves():
        zero = Value.zero(dim)
        return [random_value(rng, dim) if rng.random() < 0.3 else zero for _ in range(tree.level_size(tree.depth))]

    leaves = [sparse_leaves() for _ in range(6)]
    steady = [aggregate_upward(tree, vs) for vs in leaves[:3]]
    bursts = [aggregate_upward(tree, vs) for vs in leaves[3:]]
    # a burst component replaced by a combination of the others: the spans share a nonzero element
    shared = linear_combination((Fraction(2), Fraction(-1), Fraction(1, 2)), (steady[0], steady[2], bursts[1]))
    # burst components summing to zero, as the geometric witness's do
    summing = linear_combination((Fraction(-1), Fraction(-1)), bursts[:2])
    cases = [(steady, bursts, True), (steady, (shared, *bursts[1:]), False), (steady, (*bursts[:2], summing), True)]
    # a zero span meets the other only at zero, but the spans are not two subspaces then
    cases.append(((zero_function(tree, dim),), bursts, False))
    if dim == 2:
        # a component and its coordinate swap are independent, but a row per
        # (component, coordinate) would put the same two rows in both spans
        swapped = aggregate_upward(tree, [Value(v.coords[::-1]) for v in leaves[0]])
        cases.append((steady[:1], (swapped,), True))
    for s, b, trivial in cases:
        measures, ranks = span_sweep(s, b, tree.depth)
        assert measures == support_measures(tree, s, tree.depth)
        rows = vertex_rows(tree, (*s, *b))
        assert ranks == (elimination_rank(rows[: len(s)]), elimination_rank(rows[len(s) :]), elimination_rank(rows))
        assert ranks.intersection_trivial is trivial


def test_double_genericity_loses_hits_where_a_steady_component_stays_nonzero(deep60, monkeypatch):
    zero_block = range(1, 11)  # every steady component holds zero through the first block
    base = double_genericity_check(deep60)
    assert set(zero_block) <= set(base.steady_span.hits)
    # zero through level 1, then nonzero on half the boundary at every level
    quarter = LevelFunction.from_values(deep60, 2, [Value.of(1), Value.of(-1), Value.of(0), Value.of(0)])
    bump = aggregate_from_level(deep60, quarter)
    swept = []

    def tampered(steady, bursts, horizon):
        swept.append((add_functions(steady[0], bump), *steady[1:]))
        return span_sweep(swept[-1], bursts, horizon)

    monkeypatch.setattr(universality, "span_sweep", tampered)
    rep = double_genericity_check(deep60)
    for n, m in enumerate(support_measures(deep60, swept[0], 12), 1):
        assert (n in rep.steady_span.hits) == (m < REFERENCE_EPSILON), n
    assert [n for n in zero_block if n in rep.steady_span.hits] == [1]


def test_double_genericity_fails_when_the_spans_share_an_element(deep60, monkeypatch):
    def shared(steady, bursts, horizon):
        combo = linear_combination((Fraction(1), Fraction(-1)), (steady[0], bursts[1]))
        return span_sweep(steady, (combo, *bursts[1:]), horizon)

    monkeypatch.setattr(universality, "span_sweep", shared)
    rep = double_genericity_check(deep60)
    assert rep.span_ranks == (3, 3, 5)
    assert not rep.span_ranks.intersection_trivial
    assert not rep.all_pass


def test_coeff_lattice_matches_contract():
    assert set(COEFF_LATTICE) == {
        Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2)
    }
