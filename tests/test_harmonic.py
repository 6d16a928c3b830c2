import random
from fractions import Fraction

import pytest

from treeharmonics import (
    LevelFunction,
    TreeSpec,
    Value,
    ValidationError,
    VertexId,
    add_functions,
    aggregate_from_level,
    aggregate_upward,
    build_tree,
    check_harmonic,
    constant_function,
    enumerate_harmonics,
    extend_constant,
    function_from_level_values,
    level_values,
    linear_combination,
    pointwise_metric,
    refine,
    restrict_to_level,
    subtract_functions,
    truncate_and_extend,
    zero_function,
)
from treeharmonics.boundary import _expand, leaf
from treeharmonics.harmonic import diagonal_pair, func_split, harmonic_from_assignment
from treeharmonics.values import centered_grid

from conftest import random_level_function, random_value


def two_level_binary():
    return build_tree(TreeSpec(depth=2, branching={"kind": "uniform", "arity": 2}))


def weighted_pair_tree():
    return build_tree(
        TreeSpec(
            depth=1,
            branching={"kind": "uniform", "arity": 2},
            w_rule={"kind": "per_level", "rows": [["1/3", "2/3"]]},
        )
    )


def random_harmonic(tree, rng, dim=1):
    leaves = [random_value(rng, dim) for _ in range(tree.level_size(tree.depth))]
    return aggregate_upward(tree, leaves)


def test_constant_function_is_harmonic(binary4):
    f = constant_function(binary4, Value.of(5))
    report = check_harmonic(f)
    assert report.passed and report.max_residual == 0


def test_symmetric_cancellation_passes():
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    f = function_from_level_values(tree, [[Value.of(0)], [Value.of(1), Value.of(-1)]])
    assert check_harmonic(f).passed


def test_residual_oracle_on_bad_candidate():
    # weighted-sum oracle: residual size is |0 - (1/2 + 1/2)| = 1
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    f = function_from_level_values(tree, [[Value.of(0)], [Value.of(1), Value.of(1)]])
    report = check_harmonic(f)
    assert not report.passed
    assert report.max_residual == 1
    assert report.violations == 1


def test_aggregate_upward_average():
    tree = two_level_binary()
    f = aggregate_upward(tree, [Value.of(2), Value.of(4), Value.of(2), Value.of(4)])
    assert f.value_at(VertexId(1, 0)) == Value.of(3)
    assert f.value_at(VertexId(0, 0)) == Value.of(3)
    assert check_harmonic(f).passed


def test_aggregate_upward_weighted_oracle():
    tree = weighted_pair_tree()
    f = aggregate_upward(tree, [Value.of(3), Value.of(6)])
    # oracle: 1/3 * 3 + 2/3 * 6
    assert f.value_at(VertexId(0, 0)) == Value.of(5)


def test_aggregate_upward_constant():
    tree = two_level_binary()
    c = Value.of(Fraction(7, 3))
    f = aggregate_upward(tree, [c] * 4)
    assert f.node.is_leaf and f.node.value == c


def test_extend_constant_identity_and_commutation(binary4):
    rng = random.Random(2)
    psi = LevelFunction.from_values(binary4, 2, [random_value(rng, 1) for _ in range(4)])
    f = aggregate_from_level(binary4, psi)
    # identity at the same depth
    assert extend_constant(f, f.depth).node is f.node
    ext = extend_constant(f, 4)
    assert check_harmonic(ext).passed
    # levels past the data level are refinements of the level-2 restriction
    for k in (3, 4):
        lhs = level_values(binary4, restrict_to_level(ext, k))
        rhs = level_values(binary4, refine(binary4, restrict_to_level(f, 2), k))
        assert lhs == rhs


def test_extend_constant_validation(binary4):
    f = zero_function(binary4, 1)
    with pytest.raises(ValidationError):
        extend_constant(f, 5)


def test_restriction_linearity(binary4):
    rng = random.Random(8)
    for _ in range(10):
        f = random_harmonic(binary4, rng)
        g = random_harmonic(binary4, rng)
        a = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        b = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        combo = linear_combination((a, b), (f, g))
        for n in (0, 2, 4):
            lhs = level_values(binary4, restrict_to_level(combo, n))
            fa = level_values(binary4, restrict_to_level(f, n))
            ga = level_values(binary4, restrict_to_level(g, n))
            rhs = [u.scale(a) + v.scale(b) for u, v in zip(fa, ga)]
            assert lhs == rhs


def test_pointwise_metric_single_term_oracle(binary4):
    f = zero_function(binary4, 1)
    # differ by d = 1 only at the root: first enumeration term, weight 1/2
    vals = [[Value.of(1)]] + [[Value.of(0)] * binary4.level_size(n) for n in range(1, 5)]
    g = function_from_level_values(binary4, vals)
    rho = pointwise_metric(f, g)
    assert rho.partial == Fraction(1, 4)
    assert rho.tail_bound == 0  # 31 vertices, all enumerated
    assert pointwise_metric(f, f).partial == 0


def test_pointwise_metric_translation_invariance(binary4):
    rng = random.Random(21)
    f, g, h = (random_harmonic(binary4, rng) for _ in range(3))
    lhs = pointwise_metric(add_functions(f, h), add_functions(g, h))
    rhs = pointwise_metric(f, g)
    assert lhs.partial == rhs.partial and lhs.tail_bound == rhs.tail_bound


def test_pointwise_metric_tail_bound(deep_binary):
    f = zero_function(deep_binary, 1)
    g = constant_function(deep_binary, Value.of(1))
    rho = pointwise_metric(f, g, max_terms=10)
    assert rho.terms == 10
    assert rho.tail_bound == Fraction(1, 2**10)
    # every term is 2^-n * 1/2
    assert rho.partial == sum(Fraction(1, 2**n) * Fraction(1, 2) for n in range(1, 11))


def test_linear_combination_identity_and_cancellation(binary4):
    rng = random.Random(5)
    f = random_harmonic(binary4, rng)
    assert linear_combination((Fraction(1),), (f,)).node is f.node
    zero = linear_combination((Fraction(1), Fraction(-1)), (f, f))
    assert zero.node is zero_function(binary4, 1).node


def test_linear_combination_random_harmonicity(binary4, lopsided3):
    rng = random.Random(6)
    for tree in (binary4, lopsided3):
        fs = [random_harmonic(tree, rng) for _ in range(3)]
        coeffs = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(3))
        combo = linear_combination(coeffs, fs)
        report = check_harmonic(combo)
        assert report.passed and report.max_residual == 0


def test_linear_combination_length_mismatch(binary4):
    f = zero_function(binary4, 1)
    with pytest.raises(ValidationError):
        linear_combination((Fraction(1),), (f, f))


def test_truncate_and_extend_trivial_cases(binary4):
    rng = random.Random(13)
    p = random_harmonic(binary4, rng)
    g = truncate_and_extend(p, p, 2)
    assert g.node is zero_function(binary4, 1).node
    h = random_harmonic(binary4, rng)
    full = truncate_and_extend(p, h, binary4.depth)
    diff = subtract_functions(p, h)
    assert full.node is diff.node
    assert pointwise_metric(diff, full).partial == 0


def test_truncate_and_extend_levels_freeze(binary4):
    rng = random.Random(14)
    p = random_harmonic(binary4, rng)
    h = random_harmonic(binary4, rng)
    cut = 2
    g = truncate_and_extend(p, h, cut)
    assert check_harmonic(g).passed
    diff = subtract_functions(p, h)
    # equal through the cut
    for n in range(cut + 1):
        assert level_values(binary4, restrict_to_level(g, n)) == level_values(
            binary4, restrict_to_level(diff, n)
        )
    # constant below the cut: deeper restrictions refine the cut-level one
    for k in range(cut + 1, binary4.depth + 1):
        lhs = level_values(binary4, restrict_to_level(g, k))
        rhs = level_values(binary4, refine(binary4, restrict_to_level(g, cut), k))
        assert lhs == rhs
    # pointwise gap is confined to vertices past the cut prefix
    j0 = binary4.vertex_count_through(cut)
    rho = pointwise_metric(diff, g)
    assert rho.upper <= Fraction(1, 2**j0)


def _reference_truncate_and_extend(p, h, cut):
    """The root node of (p - h) cut at level `cut`, built by the joint walk
    truncate_and_extend ran before it was a linear combination of cut views."""
    tree = p.tree
    memo = {}

    def rec(np_, nh, x):
        diff = np_.value - nh.value
        if x.level == cut or (np_.children is None and nh.children is None):
            return leaf(diff)
        key = (id(np_), id(nh), tree.pos_key(x))
        hit = memo.get(key)
        if hit is not None:
            return hit
        k = tree.arity(x)
        ca, cb = _expand(np_, k), _expand(nh, k)
        out = func_split(diff, tuple(rec(ca[i], cb[i], tree.child(x, i)) for i in range(k)))
        memo[key] = out
        return out

    return rec(p.node, h.node, tree.root)


@pytest.mark.parametrize("name", ["binary4", "ternary3", "lopsided3"])
def test_truncate_and_extend_matches_reference_walk(request, name):
    tree = request.getfixturevalue(name)
    rng = random.Random(22)
    p, h = random_harmonic(tree, rng), random_harmonic(tree, rng)
    # constant below level 1, so the walk also meets leaves above the cut
    shallow = aggregate_from_level(tree, random_level_function(tree, rng, 1, 1))
    for f, g in ((p, h), (p, shallow), (shallow, p), (p, p)):
        for cut in range(tree.depth + 1):
            got = truncate_and_extend(f, g, cut)
            assert got.depth == tree.depth
            assert got.node is _reference_truncate_and_extend(f, g, cut), cut


def test_enumeration_starts_at_zero(binary4):
    f = enumerate_harmonics(binary4, 1)
    assert f.node is zero_function(binary4, 1).node


def test_enumeration_pairs_injective(binary4):
    pairs = [diagonal_pair(binary4, i, grid_size=3) for i in range(1, 60)]
    assert len(set(pairs)) == len(pairs)
    ks = {k for k, _ in pairs}
    assert {0, 1, 2} <= ks  # several levels reached early


def test_enumeration_search_oracle(binary4):
    # a random level-2 grid labeling is reproduced exactly within the catalog
    # prefix that exhausts levels 0..2
    rng = random.Random(17)
    grid = centered_grid(1, 0, 1)
    pick = rng.randint(1, len(grid) ** 4)
    target = harmonic_from_assignment(binary4, 2, pick, grid)
    g = len(grid)
    bound = 0
    # the catalog bound: the index at which (level=2, assignment=g^4) appears
    while True:
        bound += 1
        if diagonal_pair(binary4, bound, g) == (2, g ** binary4.level_size(2)):
            break
    found = None
    for idx in range(1, bound + 1):
        cand = enumerate_harmonics(binary4, idx)
        if cand.node is target.node:
            found = idx
            break
    assert found is not None
    rho = pointwise_metric(target, enumerate_harmonics(binary4, found))
    assert rho.upper < Fraction(1, 2 ** binary4.vertex_count_through(2))


def test_diagonal_pair_exhaustion():
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    # 3 + 9 pairs exist in total for the 3-point grid
    assert diagonal_pair(tree, 12, 3) == (1, 9)
    with pytest.raises(ValidationError):
        diagonal_pair(tree, 13, 3)


def test_enumeration_emits_harmonic(deep_binary):
    for idx in (1, 2, 5, 9):
        f = enumerate_harmonics(deep_binary, idx)
        assert check_harmonic(f).passed



def test_level_and_harmonic_constants_share_one_node(binary4):
    c = Value.of(Fraction(5, 3))
    psi = LevelFunction.constant(2, c)
    f = constant_function(binary4, c)
    assert psi.node is f.node and psi.node.is_leaf
    assert aggregate_from_level(binary4, psi).node is psi.node
    assert restrict_to_level(f, 3).node is f.node
