import json
import random
import time
from array import array
from fractions import Fraction
from itertools import chain
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treeharmonics import (
    TreeSpec,
    UniformTree,
    ValidationError,
    VertexId,
    build_tree,
    level_measures,
    min_child_probability,
    sector_measure,
    tree_from_doc,
    tree_to_doc,
)
from treeharmonics.cli import main
from treeharmonics.serialize import canonical_json
from treeharmonics import trees
from treeharmonics.trees import INT64_MAX, ROW_SEP, _draws_below, _parse_entry, _row_to_ints


def test_uniform_binary_leaf_count():
    tree = build_tree(TreeSpec(depth=3, branching={"kind": "uniform", "arity": 2}))
    assert tree.level_size(3) == 8


def test_per_level_arities():
    tree = build_tree(TreeSpec(depth=2, branching={"kind": "per_level", "arities": [2, 3]}))
    assert tree.level_size(2) == 6


def test_q_row_not_summing_rejected():
    with pytest.raises(ValidationError):
        build_tree(
            TreeSpec(
                depth=1,
                branching={"kind": "uniform", "arity": 3},
                q_rule={"kind": "per_level", "rows": [["1/3", "1/3", "1/4"]]},
            )
        )


def test_arity_below_two_rejected():
    with pytest.raises(ValidationError):
        build_tree(TreeSpec(depth=1, branching={"kind": "uniform", "arity": 1}))


def test_zero_weight_rejected():
    with pytest.raises(ValidationError):
        build_tree(
            TreeSpec(
                depth=1,
                branching={"kind": "uniform", "arity": 2},
                w_rule={"kind": "per_level", "rows": [["0", "1"]]},
            )
        )


def test_incomplete_explicit_table_rejected():
    with pytest.raises(ValidationError, match="explicit branching table incomplete"):
        build_tree(
            TreeSpec(
                depth=2,
                branching={"kind": "explicit", "counts": [[2]]},  # level 1 missing
            )
        )


HALVES = [["1/2", "1/2"]]


@pytest.mark.parametrize(
    "rows,message",
    [
        (None, "explicit q table incomplete"),
        ([HALVES], "explicit q table incomplete"),  # level 1 missing
        ([HALVES, HALVES], "explicit q table incomplete"),  # a level-1 vertex missing
        ([HALVES, HALVES * 2 + [["1/2", "1/2", "0"]]], "explicit q table incomplete"),
        ([HALVES, [["1"], ["1/2", "1/2"]]], "level 1 vertex 0: q row has 1 entries, expected 2"),
        ([HALVES, HALVES + [["1/2", "1/4", "1/4"]]], "level 1 vertex 1: q row has 3 entries, expected 2"),
        ([HALVES, HALVES + [["1/2", "1/4"]]], "level 1 vertex 1: q row sums to 3/4, not 1"),
        ([[["1", "0"]], HALVES * 2], "level 0 vertex 0: transition probabilities must be positive"),
        ([HALVES, [["1/2", "1/2"], 5]], "level 1 vertex 1: q row must be a list, got 5"),
        ([HALVES, [["1/2", "1/2"], {"1/2": 0, " 1/2": 0}]], "level 1 vertex 1: q row must be a list, got {'1/2': 0, ' 1/2': 0}"),
        # a bad row is named where it first occurs, before any later bad row
        ([[["1/2", "1/4"]], [["1/2", "1/4"], ["1/2", "1/4"]]], "level 0 vertex 0: q row sums to 3/4, not 1"),
        ([HALVES, [["1/2", "1/4"], "ab"]], "level 1 vertex 0: q row sums to 3/4, not 1"),
        ([HALVES, [["1/2", "1/2", "0"], ["1/2", "1/4"]]], "level 1 vertex 0: q row has 3 entries, expected 2"),
        ([HALVES, [["1/2", "1/4"], ["1/2", "1/4"]]], "level 1 vertex 0: q row sums to 3/4, not 1"),
    ],
    ids=[
        "absent", "level-missing", "vertex-missing", "vertex-extra", "row-short", "row-long", "row-sum", "row-zero",
        "row-int", "row-dict", "bad-row-repeated", "bad-row-then-string", "long-row-then-bad-row",
        "bad-row-repeated-in-level",
    ],
)
def test_explicit_row_table_errors(rows, message):
    rule = {"kind": "explicit"} if rows is None else {"kind": "explicit", "rows": rows}
    spec = TreeSpec(depth=2, branching={"kind": "explicit", "counts": [[2], [2, 2]]}, q_rule=rule)
    with pytest.raises(ValidationError) as exc:
        build_tree(spec)
    assert exc.value.issues == [message]


def _explicit_3x3(q_rows, w_rows):
    """A depth-2 tree of arity 3 throughout with explicit q and w tables."""
    return build_tree(
        TreeSpec(
            depth=2,
            branching={"kind": "explicit", "counts": [[3], [3, 3, 3]]},
            q_rule={"kind": "explicit", "rows": q_rows},
            w_rule={"kind": "explicit", "rows": w_rows},
        )
    )


def _arrays(tree):
    return tree._q_edge, tree._w_edge


def test_repeated_rows_spelled_differently_read_alike():
    q = ["1/4", "1/4", "1/2"]
    w = ["1", "1", "-1"]
    q_rows = [[q], [["2/8", "0.25", "1/2"], q, ["1/4", "0.25", "2/4"]]]
    w_rows = [[[1, "1", "-1"]], [["1", 1, "-1"], [1, "1", "-1"], ["2/2", "1", "-1.0"]]]
    tree = _explicit_3x3(q_rows, w_rows)
    once = _explicit_3x3([[q], [q] * 3], [[w], [w] * 3])
    assert _arrays(tree) == _arrays(once)
    for lvl, (q_level, w_level) in enumerate(zip(q_rows, w_rows)):
        for x, q_raw, w_raw in zip(tree.vertices(lvl), q_level, w_level):
            assert tree.q_row(x) == tuple(Fraction(str(s)) for s in q_raw)
            assert tree.w_row(x) == tuple(Fraction(str(s)) for s in w_raw)


def test_true_row_after_equal_valued_row_rejected():
    # True == 1, so a row of true must not reuse the reading of a row of 1
    q = [["1/4", "1/4", "1/2"]]
    with pytest.raises(ValidationError, match="cannot parse scalar 'True'"):
        _explicit_3x3([q, q * 3], [[[1, "1", "-1"]], [[1, "1", "-1"], [True, "1", "-1"], [1, "1", "-1"]]])


def test_row_of_other_arity_with_equal_joined_text_rejected():
    # a row's key joins its entry texts with ROW_SEP; a row of two entries
    # that joins to a valid row of three must not reuse its reading
    spec = TreeSpec(
        depth=2,
        branching={"kind": "explicit", "counts": [[3], [2, 2, 2]]},
        q_rule={"kind": "explicit", "rows": [[["1/4", "1/4", "1/2"]], [[f"1/4{ROW_SEP}1/4", "1/2"], HALVES[0], HALVES[0]]]},
    )
    with pytest.raises(ValidationError) as exc:
        build_tree(spec)
    assert exc.value.issues == [f"cannot parse scalar '1/4{ROW_SEP}1/4'"]


def test_row_checker_runs_once_per_distinct_row_text(monkeypatch):
    a, b, c = ["1/2", "1/2"], ["1/4", "3/4"], ["2/4", "1/2"]  # c reads as a, but its text differs
    q_rows = [[a], [b, a], [a, c, b, a]]
    checked = []

    def spy(row, what, where):
        checked.append(list(row))
        return _row_to_ints(row, what, where)

    monkeypatch.setattr(trees, "_row_to_ints", spy)
    tree = build_tree(TreeSpec(depth=3, branching={"kind": "uniform", "arity": 2}, q_rule={"kind": "explicit", "rows": q_rows}))
    assert checked == [[_parse_entry(s) for s in row] for row in (a, b, c)]
    assert [list(tree.q_ints(x)[0]) for lvl in range(3) for x in tree.vertices(lvl)] == [[1, 1], [1, 3], [1, 1], [1, 1], [1, 1], [1, 3], [1, 1]]


def test_sector_measure_root_is_one(binary4):
    assert sector_measure(binary4, VertexId(0, 0)) == 1


def test_sector_measure_uniform_binary(binary4):
    for o in range(4):
        assert sector_measure(binary4, VertexId(2, o)) == Fraction(1, 4)


def test_sector_measure_unknown_vertex(binary4):
    with pytest.raises(ValidationError):
        sector_measure(binary4, VertexId(2, 99))


def custom_two_level_tree():
    return build_tree(
        TreeSpec(
            depth=2,
            branching={"kind": "uniform", "arity": 2},
            q_rule={
                "kind": "explicit",
                "rows": [
                    [["1/3", "2/3"]],
                    [["1/4", "3/4"], ["1/2", "1/2"]],
                ],
            },
        )
    )


def test_sector_measure_path_product_oracle():
    tree = custom_two_level_tree()
    # oracle: enumerate all root-to-leaf index paths and sum the products that
    # land in the sector of c = (2, 0); the sector holds exactly one leaf here
    rows = {
        (0, 0): [Fraction(1, 3), Fraction(2, 3)],
        (1, 0): [Fraction(1, 4), Fraction(3, 4)],
        (1, 1): [Fraction(1, 2), Fraction(1, 2)],
    }
    total = Fraction(0)
    for i in range(2):
        for j in range(2):
            leaf_offset = 2 * i + j
            if leaf_offset == 0:
                total += rows[(0, 0)][i] * rows[(1, i)][j]
    assert total == Fraction(1, 12)
    assert sector_measure(tree, VertexId(2, 0)) == total


def test_level_measures_uniform(binary4):
    assert level_measures(binary4, 3) == [Fraction(1, 8)] * 8
    assert level_measures(binary4, 0) == [Fraction(1)]
    with pytest.raises(ValidationError):
        level_measures(binary4, 5)


def test_level_measure_consistency_oracle():
    # summing children's measures reproduces the parent's, level by level
    tree = custom_two_level_tree()
    lvl1 = level_measures(tree, 1)
    lvl2 = level_measures(tree, 2)
    assert sum(lvl1) == 1 and sum(lvl2) == 1
    for o in range(2):
        assert lvl2[2 * o] + lvl2[2 * o + 1] == lvl1[o]


def test_min_child_tie_break(binary4):
    child, prob = min_child_probability(binary4, VertexId(0, 0))
    assert child == VertexId(1, 0) and prob == Fraction(1, 2)


def test_min_child_argmin():
    tree = build_tree(
        TreeSpec(
            depth=1,
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "per_level", "rows": [["99/100", "1/100"]]},
        )
    )
    child, prob = min_child_probability(tree, VertexId(0, 0))
    assert child == VertexId(1, 1) and prob == Fraction(1, 100)


def test_min_child_leaf_rejected(binary4):
    with pytest.raises(ValidationError):
        min_child_probability(binary4, VertexId(4, 0))


def test_min_child_pigeonhole(lopsided3):
    for lvl in range(lopsided3.depth):
        for x in lopsided3.vertices(lvl):
            _, prob = min_child_probability(lopsided3, x)
            assert prob <= Fraction(1, 2)


def test_random_tree_children_sum_to_parent():
    rng = random.Random(5)
    for seed in range(8):
        tree = build_tree(
            TreeSpec(
                depth=rng.randint(1, 5),
                branching={"kind": "random", "max_arity": 3},
                q_rule={"kind": "random", "max_weight": 9},
                w_rule={"kind": "random", "max_weight": 5},
                seed=seed,
            )
        )
        for lvl in range(tree.depth):
            for x in tree.vertices(lvl):
                kids = tree.children(x)
                assert sum(sector_measure(tree, y) for y in kids) == sector_measure(tree, x)
        for lvl in range(tree.depth + 1):
            assert sum(level_measures(tree, lvl)) == 1



def test_explicit_parent_inverts_child():
    tree = build_tree(TreeSpec(depth=4, branching={"kind": "random", "max_arity": 4}, seed=3))
    for lvl in range(tree.depth):
        for x in tree.vertices(lvl):
            for i in range(tree.arity(x)):
                y = tree.child(x, i)
                assert tree.parent(y) == x and tree.child_index(y) == i


def _reference_random_rows(depth, max_arity, q_weight, w_weight, seed):
    """The q and w rows a random spec draws, one randint per arity and q
    entry, and w entries as rng.choice over the list of nonzero weights
    draws them."""
    rng = random.Random(seed)
    counts, size = [], 1
    for _ in range(depth):
        counts.append([rng.randint(2, max_arity) for _ in range(size)])
        size = sum(counts[-1])
    q_rows = []
    for row_counts in counts:
        nums = [rng.randint(1, q_weight) for _ in range(sum(row_counts))]
        it = iter(nums)
        q_rows.append([[next(it) for _ in range(k)] for k in row_counts])
    choices = [i for i in range(-w_weight, w_weight + 1) if i != 0] if w_weight <= 30 else None

    def draw():
        if choices is not None:
            return rng.choice(choices)
        # too many weights to list: choice(seq) is seq[randbelow(len(seq))]
        i = rng.randrange(2 * w_weight)
        return i - w_weight if i < w_weight else i - w_weight + 1

    w_rows = []
    for row_counts in counts:
        level = []
        for k in row_counts:
            while True:
                nums = [draw() for _ in range(k)]
                if sum(nums):
                    break
            level.append(nums)
        w_rows.append(level)
    return q_rows, w_rows


# past 2**31 a draw's range needs all 32 bits of a word, past 2**32 two words
@pytest.mark.parametrize("w_weight", [1, 5, 9, 30, 2**31 - 1, 2**31, 2**32, INT64_MAX])
def test_random_w_rule_draws_as_choice_over_the_weights(w_weight):
    q_weight = 7 if w_weight <= 30 else w_weight
    spec = TreeSpec(
        depth=4,
        branching={"kind": "random", "max_arity": 3},
        q_rule={"kind": "random", "max_weight": q_weight},
        w_rule={"kind": "random", "max_weight": w_weight},
        seed=w_weight,
    )
    tree = build_tree(spec)
    q_rows, w_rows = _reference_random_rows(4, 3, q_weight, w_weight, w_weight)
    for lvl in range(tree.depth):
        for x, q, w in zip(tree.vertices(lvl), q_rows[lvl], w_rows[lvl], strict=True):
            assert tree.q_row(x) == tuple(Fraction(n, sum(q)) for n in q)
            assert tree.w_row(x) == tuple(Fraction(n, sum(w)) for n in w)


@pytest.mark.parametrize("n", [1, 2, 3, 18, 30, 2**32 - 1, 2**32, 2**32 + 1, 2**64])
def test_bulk_draws_take_the_words_randrange_takes(n):
    for seed in range(4):
        for count in (0, 1, 5, 300):
            oracle, rng = random.Random(seed), random.Random(seed)
            oracle.random(), rng.random()  # start two words into the stream
            assert _draws_below(rng, n, count) == [oracle.randrange(n) for _ in range(count)]
            assert rng.getstate() == oracle.getstate()


def test_huge_random_max_weight_builds_at_once():
    # no list of 2 * max_weight candidates is built
    spec = TreeSpec(
        depth=2,
        branching={"kind": "random", "max_arity": 2},
        q_rule={"kind": "random", "max_weight": 10**9},
        w_rule={"kind": "random", "max_weight": 10**9},
    )
    start = time.perf_counter()
    tree = build_tree(spec)
    assert time.perf_counter() - start < 1.0
    assert sum(tree.w_row(tree.root)) == 1

def test_build_is_deterministic():
    spec = TreeSpec(
        depth=4,
        branching={"kind": "random", "max_arity": 3},
        q_rule={"kind": "random", "max_weight": 9},
        w_rule={"kind": "random", "max_weight": 5},
        seed=42,
    )
    doc_a = tree_to_doc(build_tree(spec))
    doc_b = tree_to_doc(build_tree(spec))
    assert doc_a == doc_b
    other = TreeSpec(
        depth=4,
        branching={"kind": "random", "max_arity": 3},
        q_rule={"kind": "random", "max_weight": 9},
        w_rule={"kind": "random", "max_weight": 5},
        seed=43,
    )
    assert tree_to_doc(build_tree(other)) != doc_a


def test_serialization_roundtrip(lopsided3, binary4):
    # integral entries are written as "2" and "-1", as read back
    int_rows = build_tree(TreeSpec(1, {"kind": "uniform", "arity": 2}, w_rule={"kind": "per_level", "rows": [["2", "-1"]]}))
    for tree in (lopsided3, binary4, int_rows):
        doc = tree_to_doc(tree)
        again = tree_from_doc(doc)
        assert tree_to_doc(again) == doc


def test_tree_doc_shares_repeated_rows():
    tree = build_tree(
        TreeSpec(
            depth=5,
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 3},
            w_rule={"kind": "random", "max_weight": 2},
            seed=4,
        )
    )
    doc = tree_to_doc(tree)
    text = canonical_json(doc)
    unshared = json.loads(text)
    for key, row_of in (("q_rows", tree.q_row), ("w_rows", tree.w_row)):
        rows = [row for level in doc[key] for row in level]
        assert all(isinstance(row, tuple) for row in rows)
        assert len({id(row) for row in rows}) < len(rows)  # repeated rows share a tuple
        expected = [[[str(v) for v in row_of(x)] for x in tree.vertices(lvl)] for lvl in range(tree.depth)]
        assert unshared[key] == expected
    assert canonical_json(unshared) == text


def test_deep_uniform_tree_is_implicit(deep_binary):
    assert isinstance(deep_binary, UniformTree)
    assert deep_binary.level_size(60) == 2**60
    assert sector_measure(deep_binary, VertexId(60, 12345)) == Fraction(1, 2**60)
    assert sector_measure(deep_binary, VertexId(60, 2**60 - 1)) == Fraction(1, 2**60)
    # parent/child arithmetic agrees at depth
    x = VertexId(59, 7)
    assert deep_binary.parent(deep_binary.child(x, 1)) == x


def test_w_rows_independent_of_q():
    tree = build_tree(
        TreeSpec(
            depth=1,
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "per_level", "rows": [["2/3", "1/3"]]},
            w_rule={"kind": "per_level", "rows": [["1/3", "2/3"]]},
        )
    )
    root = VertexId(0, 0)
    assert tree.q_row(root) == (Fraction(2, 3), Fraction(1, 3))
    assert tree.w_row(root) == (Fraction(1, 3), Fraction(2, 3))


def test_negative_weights_allowed():
    tree = build_tree(
        TreeSpec(
            depth=1,
            branching={"kind": "uniform", "arity": 2},
            w_rule={"kind": "per_level", "rows": [["-1", "2"]]},
        )
    )
    assert tree.w_row(VertexId(0, 0)) == (Fraction(-1), Fraction(2))


def test_tree_doc_with_float_mode_rejected(binary4):
    doc = tree_to_doc(binary4)
    assert doc["mode"] == "exact"
    doc["mode"] = "float"
    with pytest.raises(ValidationError):
        tree_from_doc(doc)


@pytest.mark.parametrize(
    "key,value,issue",
    [
        ("kind", "banana", "tree 'kind' must be 'uniform' or 'explicit', got 'banana'"),
        ("kind", None, "tree 'kind' must be 'uniform' or 'explicit', got None"),
        ("depth", 3.7, "tree 'depth' must be an integer, got 3.7"),
        ("depth", 3.0, "tree 'depth' must be an integer, got 3.0"),
        ("depth", "3", "tree 'depth' must be an integer, got '3'"),
        ("depth", True, "tree 'depth' must be an integer, got True"),
        ("depth", None, "tree 'depth' must be an integer, got None"),
        ("depth", 0, "tree depth must be at least 1"),
        ("depth", -2, "tree depth must be at least 1"),
    ],
)
def test_tree_doc_with_bad_kind_or_depth_rejected(lopsided3, binary4, key, value, issue):
    for tree in (lopsided3, binary4):
        doc = tree_to_doc(tree)
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        with pytest.raises(ValidationError) as exc:
            tree_from_doc(doc)
        assert exc.value.issues == [issue]


# per_level rows with one invalid row each; build_tree's row reader is the only check
BAD_ROW_RULES = [
    ({"q_rule": {"kind": "per_level", "rows": [["1/2", "1/2"], ["3/2", "-1/2"]]}}, "level 1: transition probabilities must be positive"),
    ({"w_rule": {"kind": "per_level", "rows": [["1/2", "1/2"], ["1", "0"]]}}, "level 1: harmonic weights must be nonzero"),
    ({"w_rule": {"kind": "per_level", "rows": [["1/2", "1/4"], ["1/2", "1/2"]]}}, "level 0: w row sums to 3/4, not 1"),
]


@pytest.mark.parametrize("rules,issue", BAD_ROW_RULES, ids=["q-negative", "w-zero", "w-sum"])
def test_uniform_backing_rejects_bad_row(tmp_path, capsys, rules, issue):
    with pytest.raises(ValidationError) as exc:
        build_tree(TreeSpec(2, {"kind": "uniform", "arity": 2}, **rules))
    assert exc.value.issues == [issue]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tree": {"depth": 2, **rules}}), encoding="utf-8")
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert json.loads(capsys.readouterr().err) == {"errors": [issue]}


def test_per_level_rows_on_explicit_backing():
    # a random w rule forces the explicit backing; the per_level q rows are
    # read once per level and must fit every vertex of that level
    spec = TreeSpec(
        depth=2,
        branching={"kind": "per_level", "arities": [2, 3]},
        q_rule={"kind": "per_level", "rows": [["1/3", "2/3"], ["1/2", "1/4", "1/4"]]},
        w_rule={"kind": "random", "max_weight": 5},
        seed=3,
    )
    tree = build_tree(spec)
    assert type(tree).__name__ == "ExplicitTree"
    assert tree.q_row(VertexId(1, 1)) == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
    assert level_measures(tree, 2) == [
        sector_measure(tree, VertexId(2, o)) for o in range(tree.level_size(2))
    ]
    assert level_measures(tree, 2)[3] == Fraction(2, 3) * Fraction(1, 2)
    uneven = TreeSpec(
        depth=2,
        branching={"kind": "explicit", "counts": [[2], [2, 3]]},
        q_rule={"kind": "per_level", "rows": [["1/2", "1/2"], ["1/2", "1/2"]]},
    )
    with pytest.raises(ValidationError, match="level 1 vertex 1: q row has 2 entries, expected 3"):
        build_tree(uneven)


def fraction_entry(s) -> Fraction:
    """An entry read by Fraction alone: text it cannot read is a ValidationError."""
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError):
        raise ValidationError(f"cannot parse scalar {str(s)!r}")


def fraction_route(raw, what):
    """Row integers read without the library's parser: Fraction reads each
    entry, then the numerators go over the lcm of the denominators."""
    row = [fraction_entry(s) for s in raw]
    den = lcm(*(v.denominator for v in row)) if row else 1
    nums = [v.numerator * (den // v.denominator) for v in row]
    if what == "q" and any(n <= 0 for n in nums):
        raise ValidationError("here: transition probabilities must be positive")
    if what == "w" and any(n == 0 for n in nums):
        raise ValidationError("here: harmonic weights must be nonzero")
    if sum(nums) != den:
        raise ValidationError(f"here: {what} row sums to {Fraction(sum(nums), den)}, not 1")
    return nums, den


def outcome(read, raw, what):
    try:
        return read(raw, what)
    except ValidationError as exc:
        return ("error", exc.issues)


def assert_rows_read_alike(raw):
    for what in ("q", "w"):
        want = outcome(fraction_route, raw, what)
        got = outcome(lambda r, w: _row_to_ints([_parse_entry(str(s)) for s in r], w, "here"), raw, what)
        assert got == want, (raw, what)


@st.composite
def row_entries(draw):
    """Rows of "p/q" and "p" strings with signed, unreduced and zero
    numerators; about half the rows sum to one."""
    k = draw(st.integers(2, 4))
    values = [Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40))) for _ in range(k - 1)]
    values.append(1 - sum(values) if draw(st.booleans()) else Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 40))))
    raw = []
    for v in values:
        scale = draw(st.integers(1, 6))
        sign = "+" if v >= 0 and draw(st.booleans()) else ""
        if v.denominator == 1 and draw(st.booleans()):
            raw.append(f"{sign}{v.numerator}")
        else:
            raw.append(f"{sign}{v.numerator * scale}/{v.denominator * scale}")
    return raw


@given(row_entries())
def test_entry_parser_reads_rows_like_fractions(raw):
    assert_rows_read_alike(raw)
    for s in raw:
        v = Fraction(s)
        assert _parse_entry(s) == (v.numerator, v.denominator)


OTHER_FORMS = {
    "plus": "+3/4",
    "padded": " 3/4 ",
    "space-after-slash": "3/ 4",
    "space-after-sign": "- 3/4",
    "decimal": "0.25",
    "exponent": "1e-2",
    "zero-denominator": "3/0",
    "double-slash": "3//4",
    "letters": "a/b",
    "empty": "",
    "5000-digits": "1" * 5000 + "/3",
    "int": 1,
}


@pytest.mark.parametrize("entry", list(OTHER_FORMS.values()), ids=list(OTHER_FORMS))
def test_entry_parser_on_other_forms(entry):
    assert_rows_read_alike([entry, "1/4"])
    assert_rows_read_alike(["1/4", entry, "-1/2"])


def per_vertex_rows(table, counts, what):
    """The explicit row reader written plainly, one vertex at a time: each
    row is checked and keyed by its entry texts where it occurs, and a new
    key is read then.  It is the oracle of build_tree's explicit row reader."""
    read = {}
    edge = [None]
    for lvl, (raws, row_counts) in enumerate(zip(table, counts)):
        level_nums = []
        for o, (raw, k) in enumerate(zip(raws, row_counts)):
            if not isinstance(raw, (list, tuple)):
                raise ValidationError(f"level {lvl} vertex {o}: {what} row must be a list, got {raw!r}")
            if len(raw) != k:
                raise ValidationError(f"level {lvl} vertex {o}: {what} row has {len(raw)} entries, expected {k}")
            key = tuple(map(str, raw))
            nums = read.get(key)
            if nums is None:
                nums = read[key] = _row_to_ints([_parse_entry(s) for s in key], what, f"level {lvl} vertex {o}")[0]
            level_nums.append(nums)
        edge.append(array("q", chain.from_iterable(level_nums)))
    return edge


# rows that read as valid q and w rows, in several spellings and containers
VALID_ROWS = {
    2: [["1/2", "1/2"], ("1/2", "1/2"), ["2/4", "0.5"], ["1/3", "2/3"], ("1/4", "3/4")],
    3: [["1/3", "1/3", "1/3"], ("1/4", "1/4", "1/2"), ["1/4", "0.25", "2/4"]],
}
# valid rows with a numerator past INT64_MAX over the row's common denominator
OVERFLOWING_ROWS = {
    2: [["1/9223372036854775809", "9223372036854775808/9223372036854775809"]],
    3: [["9223372036854775808/9223372036854775809", "1/18446744073709551618", "1/18446744073709551618"]],
}
# entries that are valid only for some rows, not text, or not a scalar; the
# ones holding ROW_SEP join into the key of a valid row of another arity
ENTRIES = [
    "1/2", "1/4", "3/4", "1/3", "2/3", "-1/2", "1", "0", "1/9223372036854775808", "1/4,1/4", " 1/2", "x", "",
    ROW_SEP, f"1/2{ROW_SEP}", f"{ROW_SEP}1/2", f"1/3{ROW_SEP}1/3", 1, 0, True, 0.5, ["1/2"], ["1/2", "1/2"],
]


@st.composite
def explicit_tables(draw):
    """Per-vertex child counts and one table over them: mostly valid rows,
    repeated, with rows whose numerators overflow, rows of the wrong length,
    rows that are not lists and rows that do not sum to one mixed in."""
    counts, size = [], 1
    for _ in range(draw(st.integers(1, 3))):
        counts.append([draw(st.integers(2, 3)) for _ in range(size)])
        size = sum(counts[-1])
    table = []
    for row_counts in counts:
        level = []
        for k in row_counts:
            pick = draw(st.integers(0, 9))
            if pick < 6:
                level.append(draw(st.sampled_from(VALID_ROWS[k])))
            elif pick == 6:
                level.append(draw(st.sampled_from(OVERFLOWING_ROWS[k])))
            elif pick == 7:
                level.append(draw(st.sampled_from([5, "ab", None, {"1/2": 0}])))
            else:
                row = draw(st.lists(st.sampled_from(ENTRIES), min_size=k - 1, max_size=k + 1))
                level.append(tuple(row) if draw(st.booleans()) else row)
        table.append(level)
    return counts, table


@settings(max_examples=300, deadline=None)
@given(explicit_tables(), st.sampled_from(["q", "w"]))
def test_level_reader_matches_per_vertex_reader(counts_table, what):
    counts, table = counts_table
    try:
        want = per_vertex_rows(table, counts, what)
    except ValidationError as exc:
        want = ("error", exc.issues)
    except OverflowError:  # as build_tree reports it
        want = ("error", [f"{what}_rule: a row's numerators over its common denominator do not fit in 64 bits"])
    spec = TreeSpec(depth=len(counts), branching={"kind": "explicit", "counts": counts}, **{f"{what}_rule": {"kind": "explicit", "rows": table}})
    try:
        tree = build_tree(spec)
        got = tree._q_edge if what == "q" else tree._w_edge
    except ValidationError as exc:
        got = ("error", exc.issues)
    assert got == want

