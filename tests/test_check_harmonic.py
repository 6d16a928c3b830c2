"""check_harmonic against the per-vertex walk it replaced.

The walk below computes the residual at every (node, position) pair that a
function reaches, constant nodes included.  check_harmonic certifies a
constant node without descending, so it counts fewer positions; its verdict,
violation count, largest residual and offender samples must equal the walk's.
"""

import random
from fractions import Fraction

import pytest

from treeharmonics import (
    DimensionMismatchError,
    HarmonicFunction,
    HarmonicTuple,
    TreeSpec,
    Value,
    VertexId,
    aggregate_from_level,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    check_harmonic,
    enumerate_targets,
    extend_constant,
    function_from_level_values,
)
from treeharmonics.boundary import _expand
from treeharmonics.harmonic import HarmonicityReport

from conftest import random_level_function, random_value


def walk_check(f):
    """The residual at every reached position, as check_harmonic computed it
    before constant nodes were certified in one step."""
    if isinstance(f, HarmonicTuple):
        reports = [walk_check(c) for c in f.components]
        return HarmonicityReport(
            passed=all(r.passed for r in reports),
            checked=sum(r.checked for r in reports),
            violations=sum(r.violations for r in reports),
            max_residual=max((r.max_residual for r in reports), default=0),
            samples=tuple(s for r in reports for s in r.samples)[:8],
        )
    tree = f.tree
    seen = set()
    checked = violations = 0
    max_res = 0
    samples = []

    def visit(node, x):
        nonlocal checked, violations, max_res
        if x.level >= f.depth:
            return
        key = (id(node), tree.pos_key(x))
        if key in seen:
            return
        seen.add(key)
        kids = _expand(node, tree.arity(x))
        ws = tree.w_row(x)
        acc = kids[0].value.scale(ws[0])
        for w, c in zip(ws[1:], kids[1:]):
            acc = acc + c.value.scale(w)
        residual = sum(abs(a - b) for a, b in zip(node.value.coords, acc.coords))
        checked += 1
        if residual:
            violations += 1
            if len(samples) < 8:
                samples.append((x.level, residual))
        if residual > max_res:
            max_res = residual
        for i, c in enumerate(kids):
            visit(c, tree.child(x, i))

    visit(f.node, tree.root)
    return HarmonicityReport(violations == 0, checked, violations, max_res, tuple(samples))


def assert_same_verdict(f):
    got, want = check_harmonic(f), walk_check(f)
    assert got.passed == want.passed
    assert got.violations == want.violations
    assert got.max_residual == want.max_residual
    assert type(got.max_residual) is type(want.max_residual)
    assert got.samples == want.samples
    assert 0 < got.checked <= want.checked
    return got


TREES = {
    "binary": TreeSpec(depth=30, branching={"kind": "uniform", "arity": 2}),
    "ternary-signed-w": TreeSpec(
        depth=8,
        branching={"kind": "uniform", "arity": 3},
        w_rule={"kind": "per_level", "rows": [["1/7", "-3/7", "9/7"]] * 8},
    ),
    **{
        f"explicit-{seed}": TreeSpec(
            depth=6,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random"},
            w_rule={"kind": "random"},
            seed=seed,
        )
        for seed in range(3)
    },
}


@pytest.fixture(params=list(TREES), scope="module")
def tree(request):
    return build_tree(TREES[request.param])


def test_synthesized_witnesses(tree):
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    x = build_x_witness(tree, targets)
    assert assert_same_verdict(x.function).passed
    if tree.depth >= 30:
        ufm = build_ufm_witness(tree, targets, block_length=5)
        assert assert_same_verdict(ufm.function).passed


def test_checked_positions_of_a_binary_x_witness():
    # the benchmark reports this count as harmonic.check_harmonic.checked
    tree = build_tree(TREES["binary"])
    x = build_x_witness(tree, enumerate_targets(tree, count=3, epsilon=Fraction(1, 8)))
    assert check_harmonic(x.function).checked == 215


def test_extend_constant_results(tree):
    rng = random.Random(tree.depth)
    for level in (0, 2, 3):
        g = aggregate_from_level(tree, random_level_function(tree, rng, level, 2))
        f = extend_constant(HarmonicFunction(tree, level, g.dim, g.node), tree.depth)
        report = assert_same_verdict(f)
        assert report.passed
        if level == 0:
            assert report.checked == 1  # one constant node certifies every vertex


def dense_values(f, depth):
    return [[f.value_at(VertexId(lvl, o)) for o in range(f.tree.level_size(lvl))] for lvl in range(depth + 1)]


# perturbed level -> levels of the residuals that turn nonzero
PERTURBED = {"root": (0, [0]), "split": (3, [2, 3]), "leaf": (4, [3])}


@pytest.mark.parametrize("where", list(PERTURBED))
def test_candidates_with_one_perturbed_value(tree, where):
    # g is constant below level 2, so the candidate's deeper nodes collapse to
    # constants except along the perturbed vertex's path
    rng = random.Random(7)
    g = aggregate_from_level(tree, random_level_function(tree, rng, 2, 2))
    depth = 4
    values = dense_values(g, depth)
    lvl, offenders = PERTURBED[where]
    o = rng.randrange(tree.level_size(lvl))
    values[lvl][o] = values[lvl][o] + random_value(rng, 2) + Value((Fraction(1, 3), Fraction(0)))
    candidate = function_from_level_values(tree, values)
    report = assert_same_verdict(candidate)
    assert [level for level, _ in report.samples] == offenders
    assert assert_same_verdict(extend_constant(candidate, tree.depth)).violations == report.violations
    assert assert_same_verdict(function_from_level_values(tree, dense_values(g, depth))).passed


def test_candidate_with_more_violations_than_samples(tree):
    """Random values at every vertex break the law at almost every split, and
    one large shift late in the walk makes the largest residual fall past the
    eight samples kept."""
    rng = random.Random(11)
    depth = 4
    values = [[random_value(rng, 2) for _ in range(tree.level_size(lvl))] for lvl in range(depth + 1)]
    values[depth - 1][-1] = values[depth - 1][-1] + Value.of(100, 100)
    candidate = function_from_level_values(tree, values)
    report = assert_same_verdict(candidate)
    assert report.violations > 8 and len(report.samples) == 8
    assert report.max_residual > max(r for _, r in report.samples)
    assert report.checked == walk_check(candidate).checked  # no constant node above the last level


@pytest.mark.parametrize(
    "w_row, values, kind",
    [
        # |0 - (1/2 + 1/2)| over int coordinates: base_metric's int 1
        (["1/2", "1/2"], (0, 1, 1), int),
        # w row 1/3, 2/3 on children 1/2 and 2: the weighted sum 3/2 misses
        # the parent 1/2 by an integral 1, which base_metric gives as Fraction(1)
        (["1/3", "2/3"], ("1/2", "1/2", 2), Fraction),
    ],
)
def test_residual_type_at_one_violation(w_row, values, kind):
    tree = build_tree(
        TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}, w_rule={"kind": "per_level", "rows": [w_row]})
    )
    parent, *kids = (Value.of(v) for v in values)
    report = check_harmonic(function_from_level_values(tree, [[parent], kids]))
    assert report.violations == 1
    assert report.max_residual == 1 and type(report.max_residual) is kind
    assert report.samples == ((0, 1),) and type(report.samples[0][1]) is kind


def test_candidate_values_share_one_dimension():
    # check_harmonic reads the law one coordinate column at a time
    tree = build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 2}))
    with pytest.raises(DimensionMismatchError):
        function_from_level_values(tree, [[Value.of(0)], [Value.of(0, 1), Value.of(0, 1)]])


@pytest.mark.parametrize("name", ["binary", "ternary-signed-w"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("base", [0, Fraction(1, 2)])
def test_residual_types_of_perturbed_constants(name, dim, base):
    """A constant candidate, int or not, with one leaf moved by an int in
    every coordinate: each residual is the type base_metric gives."""
    tree = build_tree(TREES[name])
    depth = 3
    values = [[Value((base,) * dim)] * tree.level_size(lvl) for lvl in range(depth + 1)]
    for shift in (2, 7):
        moved = [list(level) for level in values]
        moved[depth][1] = Value(tuple(c + shift for c in moved[depth][1].coords))
        report = assert_same_verdict(function_from_level_values(tree, moved))
        assert report.violations == 1 and report.samples[0][0] == depth - 1
