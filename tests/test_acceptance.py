"""Acceptance suite: one test per certification criterion.

Each test prints a single [PASS]/[FAIL] line (visible with pytest -s or in the
captured output).  Tolerances are exact rational comparisons throughout; the
three runtime budgets are enforced with a monotonic clock.
"""

import functools
import random
import time
from fractions import Fraction

import pytest

from treeharmonics import (
    LevelFunction,
    TreeSpec,
    TupleLevelFunction,
    Value,
    aggregate_upward,
    build_tree,
    build_ufm_witness,
    build_x_witness,
    certify_hits,
    check_harmonic,
    dense_family,
    double_genericity_check,
    enumerate_targets,
    extend_constant,
    level_add,
    linear_combination,
    one_level_approximation,
    p_metric,
    refine,
    refine_mismatch,
    sector_measure,
    span_inclusion_check,
    truncate_and_extend,
    tuple_p_metric,
    tuple_p_metric_by_components,
    zero_function,
)
from treeharmonics.cli import main as cli_main
from treeharmonics.universality import COEFF_LATTICE

from conftest import random_level_function, random_value


def announce(number: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        return wrapper

    return deco


# ----------------------------------------------------------------------
# Shared artifacts (built once per module)


@pytest.fixture(scope="module")
def deep60():
    return build_tree(TreeSpec(depth=60, branching={"kind": "uniform", "arity": 2}))


@pytest.fixture(scope="module")
def targets3(deep60):
    return enumerate_targets(deep60, count=3, epsilon=Fraction(1, 8))


@pytest.fixture(scope="module")
def witness_x(deep60, targets3):
    return build_x_witness(deep60, targets3, growth=5, width=3, horizon=60, warmup=5)


@pytest.fixture(scope="module")
def witness_ufm(deep60, targets3):
    return build_ufm_witness(deep60, targets3, block_length=10, horizon=60)


@pytest.fixture(scope="module")
def family20(deep60):
    return dense_family(deep60, count=20)


@pytest.fixture(scope="module")
def genericity(deep60):
    return double_genericity_check(deep60, seed=0)


@pytest.fixture(scope="module")
def small_pool():
    return [
        build_tree(TreeSpec(depth=4, branching={"kind": "uniform", "arity": 2})),
        build_tree(TreeSpec(depth=3, branching={"kind": "uniform", "arity": 3})),
        build_tree(
            TreeSpec(
                depth=3,
                branching={"kind": "random", "max_arity": 3},
                q_rule={"kind": "random", "max_weight": 7},
                w_rule={"kind": "random", "max_weight": 5},
                seed=77,
            )
        ),
    ]


# ----------------------------------------------------------------------


@announce(1, "measure consistency on 50 seeded random trees")
def test_criterion_1():
    start = time.monotonic()
    rng = random.Random(101)
    specs = [
        TreeSpec(
            depth=rng.randint(1, 9),
            branching={"kind": "random", "max_arity": 3},
            q_rule={"kind": "random", "max_weight": 9},
            w_rule={"kind": "random", "max_weight": 5},
            seed=1000 + i,
        )
        for i in range(40)
    ] + [
        TreeSpec(
            depth=rng.randint(10, 12),
            branching={"kind": "uniform", "arity": 2},
            q_rule={"kind": "random", "max_weight": 9},
            w_rule={"kind": "random", "max_weight": 5},
            seed=2000 + i,
        )
        for i in range(10)
    ]
    assert len(specs) == 50
    for spec in specs:
        tree = build_tree(spec)
        # independent oracle: measures by direct product evaluation, level by level
        measures = [[Fraction(1)]]
        for lvl in range(tree.depth):
            nxt = []
            for x in tree.vertices(lvl):
                m = measures[lvl][x.offset]
                for q in tree.q_row(x):
                    nxt.append(m * q)
            measures.append(nxt)
        for lvl in range(tree.depth):
            for x in tree.vertices(lvl):
                child_sum = sum(measures[lvl + 1][y.offset] for y in tree.children(x))
                assert child_sum == measures[lvl][x.offset]
        for lvl in range(tree.depth + 1):
            assert sum(measures[lvl]) == 1
        # spot-check the library's path-product against the oracle
        probe = random.Random(spec.seed)
        for _ in range(10):
            lvl = probe.randint(0, tree.depth)
            off = probe.randrange(tree.level_size(lvl))
            from treeharmonics import VertexId

            assert sector_measure(tree, VertexId(lvl, off)) == measures[lvl][off]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"


@announce(2, "p_metric axioms, translation and refinement invariance, 200 triples")
def test_criterion_2(small_pool):
    start = time.monotonic()
    rng = random.Random(202)
    for case in range(200):
        tree = small_pool[case % len(small_pool)]
        psi = random_level_function(tree, rng, rng.randint(0, tree.depth), 2)
        phi = random_level_function(tree, rng, rng.randint(0, tree.depth), 2)
        chi = random_level_function(tree, rng, rng.randint(0, tree.depth), 2)
        d = p_metric(tree, psi, phi)
        assert d == p_metric(tree, phi, psi)
        assert d >= 0
        assert (d == 0) == (psi.node is phi.node)
        assert p_metric(tree, psi, chi) <= d + p_metric(tree, phi, chi)
        assert p_metric(tree, level_add(psi, chi), level_add(phi, chi)) == d
        n = max(psi.level, phi.level)
        for k in range(n, min(tree.depth, n + 2) + 1):
            assert p_metric(tree, refine(tree, psi, k), refine(tree, phi, k)) == d
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"


@announce(3, "tuple metric decomposition exact on 100 random pairs")
def test_criterion_3(small_pool):
    rng = random.Random(303)
    for case in range(100):
        tree = small_pool[case % len(small_pool)]
        width = rng.randint(1, 4)
        a = TupleLevelFunction(
            tuple(random_level_function(tree, rng, rng.randint(0, tree.depth), 2) for _ in range(width))
        )
        b = TupleLevelFunction(
            tuple(random_level_function(tree, rng, rng.randint(0, tree.depth), 2) for _ in range(width))
        )
        assert tuple_p_metric(tree, a, b) == tuple_p_metric_by_components(tree, a, b)


@announce(4, "every constructor output has exactly-zero residuals")
def test_criterion_4(small_pool, witness_x, witness_ufm, family20, genericity):
    rng = random.Random(404)
    corpus = []
    for tree in small_pool:
        leaves = [random_value(rng, 2) for _ in range(tree.level_size(tree.depth))]
        f = aggregate_upward(tree, leaves)
        corpus.append(f)
        g = aggregate_upward(tree, [random_value(rng, 2) for _ in leaves])
        corpus.append(truncate_and_extend(f, g, 2))
        coeffs = tuple(Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(2))
        corpus.append(linear_combination(coeffs, (f, g)))
        psi = random_level_function(tree, rng, 2, 2)
        from treeharmonics import aggregate_from_level

        corpus.append(extend_constant(aggregate_from_level(tree, psi), tree.depth))
    corpus.extend(witness_x.function.components)
    corpus.append(witness_ufm.function)
    corpus.extend(m.function for m in family20.members)
    corpus.extend(genericity.steady_witness.function.components)
    corpus.extend(genericity.burst_witness.function.components)
    assert len(corpus) > 40
    for f in corpus:
        report = check_harmonic(f)
        assert report.passed and report.max_residual == 0


@announce(5, "mismatch halves per refinement level, exactly bounded")
def test_criterion_5():
    # uniform binary: exact halving comparison through k = 8
    tree = build_tree(TreeSpec(depth=12, branching={"kind": "uniform", "arity": 2}))
    f = zero_function(tree, 1)
    target = LevelFunction.constant(0, Value.of(1))
    g, rep = one_level_approximation(f, target, 1)
    g, log = refine_mismatch(g, target, 1, 8)
    m0 = log[0][1]
    assert m0 == rep.measure == Fraction(1, 2)
    for k, (lvl, m) in enumerate(log):
        assert m <= Fraction(1, 2**k) * m0
        if k:
            assert m <= log[k - 1][1] / 2
    # random trees: approximating at the root leaves a single correction
    # chain, so the mismatch after k steps is bounded by the product of the
    # selected absorbing probabilities, each of which is at most one half
    from treeharmonics import min_child_probability, sector_measure as measure_of

    for seed in range(6):
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
        target = LevelFunction.constant(0, Value.of(3))
        g, rep = one_level_approximation(f, target, 1)
        g, log = refine_mismatch(g, target, 1, 7)
        vertex = tree.root
        chain_product = Fraction(1)
        for k, (lvl, m) in enumerate(log):
            vertex, prob = min_child_probability(tree, vertex)
            chain_product *= prob
            assert chain_product == measure_of(tree, vertex)
            assert m <= chain_product <= Fraction(1, 2 ** (k + 1))


@announce(6, "geometric-block witness reaches upper density >= 3/4 per target")
def test_criterion_6():
    start = time.monotonic()
    tree = build_tree(TreeSpec(depth=60, branching={"kind": "uniform", "arity": 2}))
    targets = enumerate_targets(tree, count=3, epsilon=Fraction(1, 8))
    witness = build_x_witness(tree, targets, growth=5, width=3, horizon=60, warmup=5)
    report = certify_hits(witness)
    for entry in report.entries:
        assert entry.upper >= Fraction(3, 4), f"target {entry.target_index}: {entry.upper}"
        assert entry.verdict == "empirical-upper-density-pass"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 6 took {elapsed:.2f}s"


@announce(7, "cyclic-block witness keeps lower density >= 1/20 per target")
def test_criterion_7(witness_ufm):
    report = certify_hits(witness_ufm)
    for entry in report.entries:
        assert entry.lower >= Fraction(1, 20), f"target {entry.target_index}: {entry.lower}"
        assert entry.verdict == "empirical-lower-density-pass"


@announce(8, "span inclusion holds level-by-level for 20 random combinations")
def test_criterion_8(deep60, targets3, witness_x):
    rng = random.Random(808)
    components = list(witness_x.function.components)
    zero_lf = LevelFunction.constant(0, Value.zero(1))
    psis = [zero_lf] + [t.level_function for t in targets3]
    cases = []
    for _ in range(20):
        s = rng.randint(1, 3)
        coeffs = [rng.choice(COEFF_LATTICE) for _ in range(s)]
        assert coeffs[-1] != 0  # the lattice contains no zero
        cases.append((coeffs, psis[rng.randrange(len(psis))]))
    reports = span_inclusion_check(components, cases, Fraction(1, 8), 60)
    assert len(reports) == 20
    nonvacuous = 0
    for case, rep in enumerate(reports):
        assert rep.violations == (), f"case {case}: violations at {rep.violations}"
        assert set(rep.hat_hits) <= set(rep.combo_hits)
        if rep.hat_hits:
            nonvacuous += 1
    assert nonvacuous > 0


@announce(9, "dense family certified: pointwise gap below 1/n for n = 1..20")
def test_criterion_9(family20):
    assert len(family20.members) == 20
    for m in family20.members:
        assert m.rho.upper < m.bound, f"member {m.index}: {m.rho.upper} !< {m.bound}"
        assert m.rho.partial + m.rho.tail_bound == m.rho.upper


@announce(10, "double genericity: steady floor, bursty dips, empty overlap")
def test_criterion_10(genericity):
    assert genericity.steady_combos, "no sampled combinations"
    for e in genericity.steady_combos:
        assert e.lower >= Fraction(1, 20), f"combo {e.coeffs}: lower {e.lower}"
        assert e.passed
    assert genericity.burst_dips, "no sampled single witnesses"
    for e in genericity.burst_dips:
        assert e.min_foreign_ratio <= Fraction(3, 10), f"component {e.component}: {e.min_foreign_ratio}"
        assert e.passed
    assert genericity.intersection_distinct
    assert genericity.far_distance > genericity.reference_epsilon
    assert genericity.all_pass


@announce(11, "byte-identical reports for identical config and seed")
def test_criterion_11(tmp_path):
    for command, extra in (
        (["witness-x", "--depth", "40", "--horizon", "40"], ["report.json", "witness.json", "density_t1.csv", "density_t2.csv", "density_t3.csv"]),
        (["witness-ufm", "--depth", "60"], ["report.json", "witness.json", "density_t1.csv", "density_t2.csv", "density_t3.csv"]),
        (["build", "--depth", "6"], ["report.json", "tree.json"]),
    ):
        a = tmp_path / (command[0] + "-a")
        b = tmp_path / (command[0] + "-b")
        assert cli_main(command + ["--seed", "9", "--out", str(a)]) == 0
        assert cli_main(command + ["--seed", "9", "--out", str(b)]) == 0
        for name in extra:
            assert (a / name).read_bytes() == (b / name).read_bytes(), f"{command[0]}/{name}"
