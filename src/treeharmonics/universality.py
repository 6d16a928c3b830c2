"""Constructive synthesis and certification of universality witnesses.

The synthesis primitive drives a harmonic function toward a level-function
target one level at a time: every child copies the target except the
minimum-probability ("absorbing") child, which receives whatever value keeps
the parent's weighted average intact.  The mismatched boundary mass therefore
shrinks by at least half per level, so a block of consecutive levels ends with
the orbit inside any prescribed metric ball.

A witness component runs all its blocks in one memoized top-down walk over the
function and target DAGs (the apply construction of decision diagrams).  A
block writes only its own levels, so the finished function agrees with the
function at block time on every level that block logs.  One level sweep per
component serves every block's mismatch log and terminal distance at only
the levels a witness file logs; every hit set comes from certify_hits.

Two block plans realize the two density behaviors at a finite horizon:

* geometric blocks anchored at the horizon ("x" kind), cycling targets per
  tuple component with each component's final block assigned its own target,
  so every target's prefix hit ratio peaks near (growth-1)/growth;
* fixed-length cyclic blocks ("ufm" kind), so every target is revisited each
  cycle and its prefix ratio never falls below an explicit positive floor.

The double-genericity contrast checks every element of its steady span at
once: one joint sweep measures where some steady component is nonzero, which
bounds each combination's distance to zero, and ranks the distinct value
columns over Q to show that the steady and burst spans meet only at zero.

All verdicts are empirical: they describe the horizon that was actually
certified, never an infinite-horizon class membership.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

# level_scale and linear_combination are unused here but stay importable from
# this module, as do the other primitives: perfbench/spans.py traces them here
from .boundary import (
    LevelFunction,
    Node,
    _expand,
    leaf,
    level_scale,
    mismatch_indicator,
    mismatch_integrand,
    mismatch_measure,
    p_metric,
    refine,
)
from .density import DensityProfile, empirical_lower_density, empirical_upper_density, profile
from .errors import (
    DimensionMismatchError,
    InfeasibleScheduleError,
    InvariantError,
    ValidationError,
)
from .harmonic import (
    HarmonicFunction,
    HarmonicTuple,
    RhoResult,
    _diagonal,
    _sweep,
    add_functions,
    check_harmonic,
    enumerate_harmonics,
    func_split,
    hit_levels,
    level_function_from_assignment,
    level_profile,
    linear_combination,
    pointwise_metric,
    restrict_to_level,
    truncate_and_extend,
    zero_function,
)
from .scalars import Scalar, canonical
from .trees import Tree, VertexId
from .values import Value, _check_dims, bounded_metric, centered_grid, weighted_sum

UPPER_DENSITY_THRESHOLD = Fraction(3, 4)
LOWER_DENSITY_FLOOR = Fraction(1, 20)
FOREIGN_DIP_CEILING = Fraction(3, 10)
X_WARMUP = 5  # levels an x-kind witness skips before its densities count


# ----------------------------------------------------------------------
# Targets


class _Target(NamedTuple):
    index: int
    level_function: LevelFunction
    epsilon: Fraction


class Target(_Target):
    """A neighborhood to hit: a level function with a radius below one."""

    __slots__ = ()

    def __new__(cls, index: int, level_function: LevelFunction, epsilon: Fraction):
        if not 0 < epsilon < 1:
            raise ValidationError(f"target epsilon must lie in (0,1), got {epsilon}")
        return super().__new__(cls, index, level_function, epsilon)

    @property
    def level(self) -> int:
        return self.level_function.level


def enumerate_targets(
    tree: Tree,
    count: int,
    dim: int = 1,
    resolution: int = 0,
    bound: int = 1,
    epsilon: Fraction | None = None,
) -> list[Target]:
    """Deterministic diagonal enumeration over (level, grid assignment).

    Starts at the zero function; semantically duplicate level functions
    (e.g. the zero assignment at successive levels) are skipped so the
    returned targets are pairwise distinct.  Without an explicit epsilon the
    ladder 1/2, 1/4, ... is attached in output order.
    """
    if count < 1:
        raise ValidationError("target count must be at least 1")
    grid = centered_grid(dim, resolution, bound)
    targets: list[Target] = []
    seen: set[int] = set()
    for k, j in _diagonal(tree, len(grid)):
        lf = level_function_from_assignment(tree, k, j, grid)
        if id(lf.node) in seen:
            continue
        seen.add(id(lf.node))
        pos = len(targets) + 1
        eps = epsilon if epsilon is not None else Fraction(1, 2**pos)
        targets.append(Target(index=pos, level_function=lf, epsilon=Fraction(eps)))
        if len(targets) == count:
            return targets
    raise ValidationError(f"only {len(targets)} distinct targets exist within the size guard")


# ----------------------------------------------------------------------
# Schedules


class ScheduleBlock(NamedTuple):
    component: int      # 1-based tuple slot owning this block
    target_index: int   # 1-based position in the witness target list
    start: int          # approximation level
    end: int            # last level written (inclusive)


class Schedule(NamedTuple):
    kind: str           # "x" (geometric blocks) or "ufm" (fixed cyclic blocks)
    width: int
    horizon: int
    warmup: int
    blocks: tuple[ScheduleBlock, ...]

    def component_blocks(self, component: int) -> list[ScheduleBlock]:
        return [b for b in self.blocks if b.component == component]


def refinement_levels(epsilon: Fraction) -> int:
    """Smallest j with 2^-j <= epsilon."""
    j = 0
    while Fraction(1, 2**j) > epsilon:
        j += 1
    return j


def min_block_length(epsilon: Fraction) -> int:
    """The approximation level and the mismatch-refinement levels a block
    spends before hits are guaranteed, plus one level that hits."""
    return refinement_levels(epsilon) + 2


def _validate_schedule(schedule: Schedule, tree: Tree, targets: Sequence[Target]) -> Schedule:
    """The schedule, once it is checked against the tree and the targets."""
    if schedule.horizon > tree.depth:
        raise InfeasibleScheduleError(
            f"horizon {schedule.horizon} exceeds tree depth {tree.depth}"
        )
    if not 0 <= schedule.warmup < schedule.horizon:
        raise ValidationError("warmup must satisfy 0 <= warmup < horizon")
    for b in schedule.blocks:
        if not 1 <= b.component <= schedule.width:
            raise ValidationError(f"block {b} names a component outside 1..{schedule.width}")
        if not 1 <= b.target_index <= len(targets):
            raise ValidationError(f"block {b} names a target outside 1..{len(targets)}")
    for c in range(1, schedule.width + 1):
        prev_end = 0
        for b in schedule.component_blocks(c):
            t = targets[b.target_index - 1]
            if b.start <= prev_end:
                raise ValidationError(f"component {c}: blocks overlap at level {b.start}")
            if not 1 <= b.start <= b.end <= schedule.horizon:
                raise ValidationError(f"block {b} outside 1..{schedule.horizon}")
            if b.start < t.level + 1:
                raise InfeasibleScheduleError(
                    f"block starting at {b.start} cannot approximate a level-{t.level} target"
                )
            length = b.end - b.start + 1
            if length < min_block_length(t.epsilon):
                raise InfeasibleScheduleError(
                    f"block of length {length} cannot reach epsilon {t.epsilon}; "
                    f"needs at least {min_block_length(t.epsilon)} levels"
                )
            prev_end = b.end
    return schedule


def x_schedule(
    tree: Tree,
    targets: Sequence[Target],
    growth: int,
    width: int,
    horizon: int,
    warmup: int | None = None,
) -> Schedule:
    """Geometric block boundaries anchored at the horizon, targets cycling per
    component so that component i's final block is assigned target i."""
    if growth < 2:
        raise ValidationError("growth factor must be at least 2")
    n_targets = len(targets)
    if width < n_targets:
        raise ValidationError(f"tuple width {width} below target count {n_targets}")
    lmin = max(min_block_length(t.epsilon) for t in targets)
    min_boundary = max(1, max(t.level for t in targets))
    boundaries = [horizon]
    while boundaries[-1] // growth >= min_boundary:
        boundaries.append(boundaries[-1] // growth)
    boundaries.reverse()
    while len(boundaries) >= 2 and boundaries[1] - boundaries[0] < lmin:
        boundaries.pop(0)
    if len(boundaries) == 1:
        if horizon - min_boundary >= lmin:
            boundaries = [min_boundary, horizon]
        else:
            raise InfeasibleScheduleError(
                f"horizon {horizon} leaves no room for a block of length {lmin}"
            )
    k_blocks = len(boundaries) - 1
    blocks: list[ScheduleBlock] = []
    for comp in range(1, n_targets + 1):
        for k in range(1, k_blocks + 1):
            t_idx = ((comp - 1 + k - k_blocks) % n_targets) + 1
            blocks.append(
                ScheduleBlock(
                    component=comp,
                    target_index=t_idx,
                    start=boundaries[k - 1] + 1,
                    end=boundaries[k],
                )
            )
    warmup = X_WARMUP if warmup is None else warmup
    schedule = Schedule(kind="x", width=width, horizon=horizon, warmup=warmup, blocks=tuple(blocks))
    return _validate_schedule(schedule, tree, targets)


def ufm_schedule(
    tree: Tree,
    targets: Sequence[Target],
    block_length: int,
    horizon: int,
    warmup: int | None = None,
) -> Schedule:
    """Fixed-length blocks cyclically assigned to targets, single component."""
    n_targets = len(targets)
    n_blocks = horizon // block_length
    if n_blocks < 2 * n_targets:
        raise InfeasibleScheduleError(
            f"horizon {horizon} holds {n_blocks} blocks; need two full cycles "
            f"({2 * n_targets} blocks) of length {block_length}"
        )
    if warmup is None:
        warmup = n_targets * block_length
    blocks = tuple(
        ScheduleBlock(
            component=1,
            target_index=((j - 1) % n_targets) + 1,
            start=(j - 1) * block_length + 1,
            end=j * block_length,
        )
        for j in range(1, n_blocks + 1)
    )
    return _validate_schedule(Schedule(kind="ufm", width=1, horizon=horizon, warmup=warmup, blocks=blocks), tree, targets)


# ----------------------------------------------------------------------
# Synthesis primitives


def _run_blocks(f: HarmonicFunction, blocks: Sequence[tuple[int, int, LevelFunction]]) -> HarmonicFunction:
    """Run the (start, end, target) blocks on f, ordered and each starting
    below the previous end, in one top-down walk.

    Above level start-1 of the first block the walk copies f.  From level
    start-1 it drives each vertex toward its block's target: every child
    copies the target value except the absorbing child, which receives the
    value that keeps the parent's weighted average.  A vertex on its target,
    or past end, holds its value until the next block starts.  The walk is
    memoized on (function node, the node of every distinct target, position,
    block index), so one pass equals running the blocks one after another.
    """
    tree = f.tree
    for start, end, target in blocks:
        _check_dims(target, f)
        if end > tree.depth:
            raise ValidationError(f"level {end} exceeds tree depth {tree.depth}")
        if start - 1 < target.level:
            raise ValidationError(f"cannot approximate a level-{target.level} target from level {start - 1}")
    roots = {id(target.node): target.node for _, _, target in blocks}  # each distinct target once
    slots = {key: i for i, key in enumerate(roots)}
    plan = [(start - 1, end, slots[id(target.node)]) for start, end, target in blocks]
    node = _walk_blocks(tree, plan, f.node, tuple(roots.values()), tree.root, 0, {})
    return HarmonicFunction(tree, f.depth, f.dim, node)


def _walk_blocks(tree: Tree, plan: list, node: Node, tnodes: tuple[Node, ...], x: VertexId, k: int, memo: dict) -> Node:
    """_run_blocks's walk below x from block k on, node being f's node and
    tnodes those of the distinct targets at x; plan lists each block's
    (start - 1, end, target slot)."""
    key = (id(node), tnodes, tree.pos_key(x), k)
    hit = memo.get(key)
    if hit is not None:
        return hit
    while k < len(plan):
        stop, end, slot = plan[k]
        if x.level < stop:  # above block k: copy the node
            kids = _expand(node, tree.arity(x))
            break
        tn = tnodes[slot]
        if x.level == stop and not tn.is_leaf:
            raise InvariantError("target structure deeper than the approximation level")
        c, t = node.value, tn.value
        if c != t and x.level < end:
            j = tree.min_child(x)
            nums, den = tree.w_ints(x)
            # value forced on the absorbing child so the parent's weighted
            # average holds: (c - (1 - wstar) t) / wstar, wstar = nums[j] / den
            a = canonical(Fraction(den, nums[j]))
            cstar = weighted_sum((a, 1 - a), (c, t))
            kids = tuple(leaf(cstar if i == j else t) for i in range(tree.arity(x)))
            break
        # on the target or past block k: hold c until the next block starts
        node = leaf(c)
        k += 1
    else:
        memo[key] = node
        return node
    tkids = [_expand(tn, len(kids)) for tn in tnodes]
    walked = []
    for i, kid in enumerate(kids):  # a loop, not a generator: one frame per level
        walked.append(_walk_blocks(tree, plan, kid, tuple(e[i] for e in tkids), tree.child(x, i), k, memo))
    out = func_split(node.value, tuple(walked))
    memo[key] = out
    return out


class MismatchReport(NamedTuple):
    level: int
    measure: Scalar
    corrected_measure: Scalar
    indicator: LevelFunction


def one_level_approximation(
    f: HarmonicFunction, target: LevelFunction, n: int
) -> tuple[HarmonicFunction, MismatchReport]:
    """Write level n: every child copies the refined target except the
    absorbing child, which keeps the parent harmonic.  Returns the new
    function (constant below n) and the measured mismatch at level n."""
    tree = f.tree
    if n < 1:
        raise ValidationError("approximation level must be at least 1")
    g = _run_blocks(f, [(n, n, target)])
    at_n, refined = restrict_to_level(g, n), refine(tree, target, n)
    corrected = mismatch_measure(tree, restrict_to_level(f, n - 1), refine(tree, target, n - 1))
    return g, MismatchReport(n, mismatch_measure(tree, at_n, refined), corrected, mismatch_indicator(at_n, refined))


def refine_mismatch(
    f: HarmonicFunction, target: LevelFunction, start: int, steps: int
) -> tuple[HarmonicFunction, list[tuple[int, Scalar]]]:
    """Extend matched sectors constantly and re-approximate inside mismatched
    ones for `steps` further levels.  The log holds the measured mismatch at
    each level start..start+steps; each step at most halves it."""
    tree = f.tree
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    end = start + steps
    g = _run_blocks(f, [(start + 1, end, target)])
    # the level sweep starts at level 1
    measures = [mismatch_measure(tree, restrict_to_level(g, 0), target)]
    measures += level_profile(g, [(target, mismatch_integrand, range(1, end + 1))])[0]
    return g, list(zip(range(start, end + 1), measures[start:]))


# ----------------------------------------------------------------------
# Witness construction


class BlockLog(NamedTuple):
    component: int
    target_index: int
    start: int
    end: int
    mismatch: tuple[tuple[int, Scalar], ...]
    terminal_p: Scalar


class Witness(NamedTuple):
    function: HarmonicFunction | HarmonicTuple
    schedule: Schedule
    targets: tuple[Target, ...]
    target_components: tuple[int, ...]  # component certifying each target
    logs: tuple[BlockLog, ...]

    @property
    def kind(self) -> str:
        return self.schedule.kind

    @property
    def tree(self) -> Tree:
        return self.function.tree

    def component_function(self, component: int) -> HarmonicFunction:
        if isinstance(self.function, HarmonicTuple):
            return self.function.components[component - 1]
        return self.function


def _checked_targets(targets: Sequence[Target]) -> tuple[Target, ...]:
    targets = tuple(targets)
    if not targets:
        raise ValidationError("at least one target required")
    dim = targets[0].level_function.dim
    if any(t.level_function.dim != dim for t in targets):
        raise DimensionMismatchError("targets must share a dimension")
    return targets


def _synthesize(
    tree: Tree,
    schedule: Schedule,
    targets: Sequence[Target],
    target_components: tuple[int, ...],
    as_tuple: bool,
) -> Witness:
    """Run the schedule's blocks on zero components, log each block's
    mismatches and terminal distance, re-check harmonicity and wrap the
    result: a HarmonicTuple when as_tuple, else the single component."""
    zero = zero_function(tree, targets[0].level_function.dim)
    components: list[HarmonicFunction] = []
    logs: list[BlockLog] = []
    for comp in range(1, schedule.width + 1):
        blocks = schedule.component_blocks(comp)
        f = _run_blocks(zero, [(b.start, b.end, targets[b.target_index - 1].level_function) for b in blocks])
        # a block writes levels start..end only, so f agrees with the function
        # at block time on every level the block logs: one sweep of f serves
        # them all, each target's blocks in level order
        own = {i: [b for b in blocks if b.target_index == i] for i in dict.fromkeys(b.target_index for b in blocks)}
        logged = [(targets[i - 1].level_function, bs) for i, bs in own.items()]
        wanted = [(lf, mismatch_integrand, [n for b in bs for n in range(b.start, b.end + 1)]) for lf, bs in logged]
        wanted += [(lf, bounded_metric, [b.end for b in bs]) for lf, bs in logged]
        profiles = [iter(p) for p in level_profile(f, wanted)]
        sweeps = dict(zip(own, zip(profiles, profiles[len(own) :])))
        for block in blocks:
            target = targets[block.target_index - 1]
            measures, distances = sweeps[block.target_index]
            mismatches = [(n, next(measures)) for n in range(block.start, block.end + 1)]
            for (_, prev), (lvl, m) in zip(mismatches, mismatches[1:]):
                if m > prev:
                    raise InvariantError(
                        f"mismatch grew from {prev} to {m} at level {lvl} inside a block"
                    )
            terminal = next(distances)
            if not terminal < target.epsilon:
                raise InvariantError(
                    f"block ending at {block.end} left distance {terminal}, "
                    f"not below epsilon {target.epsilon}"
                )
            logs.append(BlockLog(comp, block.target_index, block.start, block.end, tuple(mismatches), terminal))
        components.append(f)
    function = HarmonicTuple(tuple(components)) if as_tuple else components[0]
    if not check_harmonic(function).passed:
        raise InvariantError(f"synthesized {schedule.kind}-kind witness failed the harmonicity check")
    return Witness(
        function=function,
        schedule=schedule,
        targets=tuple(targets),
        target_components=target_components,
        logs=tuple(logs),
    )


def build_x_witness(
    tree: Tree,
    targets: Sequence[Target],
    growth: int = 5,
    width: int | None = None,
    horizon: int | None = None,
    warmup: int | None = None,
) -> Witness:
    """Tuple witness on geometric blocks; one component per target, extra
    components stay identically zero so tuple-metric tails vanish."""
    targets = _checked_targets(targets)
    horizon = tree.depth if horizon is None else horizon
    width = len(targets) if width is None else width
    schedule = x_schedule(tree, targets, growth, width, horizon, warmup)
    return _synthesize(tree, schedule, targets, tuple(range(1, len(targets) + 1)), as_tuple=True)


def build_ufm_witness(
    tree: Tree,
    targets: Sequence[Target],
    block_length: int,
    horizon: int | None = None,
    warmup: int | None = None,
) -> Witness:
    """Single-function witness on fixed-length blocks cycling the targets."""
    targets = _checked_targets(targets)
    horizon = tree.depth if horizon is None else horizon
    schedule = ufm_schedule(tree, targets, block_length, horizon, warmup)
    return _synthesize(tree, schedule, targets, (1,) * len(targets), as_tuple=False)


# ----------------------------------------------------------------------
# Certification


def hit_set(tree: Tree, f: HarmonicFunction, target: Target, horizon: int) -> list[int]:
    """Exact hit levels: {n : p_metric(level-n restriction, target) < epsilon}."""
    return hit_levels((f,), [(target.level_function, (1,), target.epsilon, horizon)])[0]


class TargetHits(NamedTuple):
    target_index: int
    component: int
    hits: tuple[int, ...]
    profile: DensityProfile
    upper: Fraction
    lower: Fraction
    verdict: str


class HitReport(NamedTuple):
    kind: str
    horizon: int
    warmup: int
    entries: tuple[TargetHits, ...]

    @property
    def all_pass(self) -> bool:
        return all(e.verdict.endswith("pass") for e in self.entries)


def certify_hits(
    witness: Witness,
    horizon: int | None = None,
    warmup: int | None = None,
) -> HitReport:
    """Exact per-target hit sets and density profiles with empirical verdicts.

    Geometric-kind witnesses are judged on the upper-density surrogate,
    cyclic-kind ones on the lower-density floor.  hit_levels decides every
    target in one joint walk of the components, for a synthesized witness as
    for one read from a file.
    """
    tree = witness.tree
    horizon = witness.schedule.horizon if horizon is None else horizon
    warmup = witness.schedule.warmup if warmup is None else warmup
    if horizon > tree.depth:
        raise ValidationError(f"horizon {horizon} exceeds tree depth {tree.depth}")
    pairs = list(zip(witness.targets, witness.target_components))
    fs = [witness.component_function(c) for c in range(1, max(witness.target_components, default=0) + 1)]
    sweeps = [(t.level_function, (0,) * (c - 1) + (1,), t.epsilon, horizon) for t, c in pairs]
    hit_sets = hit_levels(fs, sweeps) if sweeps else []
    entries = []
    for (t, comp), hits in zip(pairs, hit_sets):
        prof = profile(hits, horizon, min(warmup, horizon - 1))
        upper = empirical_upper_density(prof)
        lower = empirical_lower_density(prof)
        if witness.kind == "x":
            ok = upper >= UPPER_DENSITY_THRESHOLD
            verdict = f"empirical-upper-density-{'pass' if ok else 'fail'}"
        else:
            ok = lower >= LOWER_DENSITY_FLOOR
            verdict = f"empirical-lower-density-{'pass' if ok else 'fail'}"
        entries.append(
            TargetHits(
                target_index=t.index,
                component=comp,
                hits=tuple(hits),
                profile=prof,
                upper=upper,
                lower=lower,
                verdict=verdict,
            )
        )
    return HitReport(kind=witness.kind, horizon=horizon, warmup=warmup, entries=tuple(entries))


# ----------------------------------------------------------------------
# Span inclusion


class SpanInclusionReport(NamedTuple):
    coeffs: tuple[Scalar, ...]
    epsilon: Fraction
    delta: Fraction
    hat_hits: tuple[int, ...]
    combo_hits: tuple[int, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def span_inclusion_check(
    components: Sequence[HarmonicFunction],
    cases: Sequence[tuple[Sequence[Scalar], LevelFunction]],
    epsilon: Fraction,
    horizon: int,
) -> list[SpanInclusionReport]:
    """Level-by-level verification, for each (coeffs, psi) case over the
    first s = len(coeffs) components, that membership in the product
    neighborhood (components 1..s-1 near zero, component s near psi, all at
    radius epsilon/s after coefficient scaling) forces the linear combination
    into the epsilon-ball around psi.  The distinct sweeps of all cases are
    decided in one joint walk of the components; no combination is built
    unless its bounds leave a level undecided."""
    for coeffs, psi in cases:
        if not 0 < len(coeffs) <= len(components):
            raise ValidationError("need one coefficient per component")
        if coeffs[-1] == 0:
            raise ValidationError("the last coefficient must be nonzero")
        _check_dims(psi, components[0])
    if not cases:
        return []
    zero = LevelFunction.constant(0, Value.zero(components[0].dim))
    epsilon = Fraction(epsilon)
    sweeps: dict[tuple, int] = {}  # (center, coefficients, radius, horizon) -> index, each distinct sweep once
    plans = []
    for coeffs, psi in cases:
        s = len(coeffs)
        near = [(zero if i < s - 1 else psi, (0,) * i + (a or Fraction(1),), epsilon / s) for i, a in enumerate(coeffs)]
        combo = (psi, tuple(coeffs), epsilon)
        plans.append([sweeps.setdefault((*key, horizon), len(sweeps)) for key in (*near, combo)])
    hits = hit_levels(components[: max(len(coeffs) for coeffs, _ in cases)], list(sweeps))
    reports = []
    for (coeffs, _), (*near, combo) in zip(cases, plans):
        near_hits = [set(hits[j]) for j in near]
        hat_hits = tuple(n for n in range(1, horizon + 1) if all(n in h for h in near_hits))
        combo_hits = tuple(hits[combo])
        reports.append(
            SpanInclusionReport(
                coeffs=tuple(coeffs),
                epsilon=epsilon,
                delta=epsilon / len(coeffs),
                hat_hits=hat_hits,
                combo_hits=combo_hits,
                violations=tuple(n for n in hat_hits if n not in combo_hits),
            )
        )
    return reports


# ----------------------------------------------------------------------
# Dense family


class FamilyMember(NamedTuple):
    index: int
    cut_level: int
    prefix_terms: int
    function: HarmonicFunction
    rho: RhoResult
    bound: Fraction

    @property
    def certified(self) -> bool:
        return self.rho.upper < self.bound


class DenseFamilyResult(NamedTuple):
    members: tuple[FamilyMember, ...]
    witness: Witness

    @property
    def all_certified(self) -> bool:
        return all(m.certified for m in self.members)


def dense_family(
    tree: Tree,
    count: int,
    dim: int = 1,
    resolution: int = 0,
    bound: int = 1,
    growth: int = 5,
    horizon: int | None = None,
    width: int | None = None,
) -> DenseFamilyResult:
    """Members n = 1..count: take the n-th enumerated harmonic function p_n,
    the n-th tuple component h_n of a geometric-block witness, cut the
    difference at the smallest level whose vertex prefix certifies a 1/n
    pointwise gap, and return h_n + (p_n - h_n truncated and extended)."""
    if count < 1:
        raise ValidationError("family size must be at least 1")
    x_targets = enumerate_targets(tree, count=3, dim=dim, resolution=resolution, bound=bound, epsilon=Fraction(1, 8))
    width = max(width or 0, count, len(x_targets))
    witness = build_x_witness(tree, x_targets, growth=growth, width=width, horizon=horizon)
    members = []
    for n in range(1, count + 1):
        p_n = enumerate_harmonics(tree, n, dim=dim, resolution=resolution, bound=bound)
        j0 = 1
        while Fraction(1, 2**j0) >= Fraction(1, n):
            j0 += 1
        cut = 0
        while tree.vertex_count_through(cut) < j0:
            cut += 1
            if cut > tree.depth:
                raise ValidationError(
                    f"depth {tree.depth} too small: member {n} needs {j0} prefix vertices"
                )
        h_n = witness.function.components[n - 1]
        g_n = truncate_and_extend(p_n, h_n, cut)
        f_n = add_functions(h_n, g_n)
        rho = pointwise_metric(p_n, f_n, max_terms=j0 + 32)
        members.append(
            FamilyMember(
                index=n,
                cut_level=cut,
                prefix_terms=j0,
                function=f_n,
                rho=rho,
                bound=Fraction(1, n),
            )
        )
    return DenseFamilyResult(members=tuple(members), witness=witness)


# ----------------------------------------------------------------------
# Double genericity


COEFF_LATTICE = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)
REFERENCE_EPSILON = Fraction(1, 4)  # radius of the non-dense ball around zero


def _family_ufm_schedule(
    tree: Tree,
    targets: Sequence[Target],
    block_length: int,
    width: int,
    horizon: int,
) -> Schedule:
    """Synchronized cyclic blocks for a tuple: one all-zero block per cycle
    (every component re-approaches zero together), then the nonzero targets
    rotated across components so the components stay pairwise distinct."""
    cycle = len(targets)
    if not targets[0].level_function.node.is_leaf or any(
        c != 0 for c in targets[0].level_function.node.value.coords
    ):
        raise ValidationError("the first target of a synchronized cycle must be zero")
    nonzero = cycle - 1
    if nonzero < width:
        raise ValidationError("need at least one distinct nonzero target per component")
    n_blocks = horizon // block_length
    if n_blocks < cycle + 1:
        raise InfeasibleScheduleError(
            f"horizon {horizon} holds {n_blocks} blocks; the {cycle}-block cycle "
            "must restart at least once"
        )
    blocks = []
    for j in range(1, n_blocks + 1):
        phase = (j - 1) % cycle
        start, end = (j - 1) * block_length + 1, j * block_length
        for comp in range(1, width + 1):
            if phase == 0:
                t_idx = 1
            else:
                t_idx = 2 + ((phase - 1 + comp - 1) % nonzero)
            blocks.append(ScheduleBlock(component=comp, target_index=t_idx, start=start, end=end))
    schedule = Schedule(kind="ufm", width=width, horizon=horizon, warmup=cycle * block_length, blocks=tuple(blocks))
    return _validate_schedule(schedule, tree, targets)


class SteadySpan(NamedTuple):
    hits: tuple[int, ...]  # levels where every element of the steady span hits the reference ball
    lower: Fraction
    passed: bool


class DipEntry(NamedTuple):
    component: int
    hits: tuple[int, ...]
    min_foreign_ratio: Fraction
    passed: bool


class SpanRanks(NamedTuple):
    steady: int
    burst: int
    joint: int

    @property
    def intersection_trivial(self) -> bool:
        """The two spans are nonzero and meet only at zero."""
        return self.steady >= 1 and self.burst >= 1 and self.joint == self.steady + self.burst


def _rank(vectors: Iterable[Sequence[Scalar]]) -> int:
    """Rank over Q by fraction-free elimination: each vector, scaled to integers, is reduced
    against the basis so far, whose later members are zero at every earlier member's pivot."""
    basis: list[tuple[int, list[int]]] = []  # (pivot, integer vector with coprime entries)
    for v in vectors:
        den = lcm(*(x.denominator for x in v))
        v = [x.numerator * (den // x.denominator) for x in v]
        for pivot, b in basis:
            if c := v[pivot]:
                v = [b[pivot] * x - c * y for x, y in zip(v, b)]
        if any(v):
            g = gcd(*v)
            basis.append((next(i for i, x in enumerate(v) if x), [x // g for x in v]))
    return len(basis)


def span_sweep(
    steady: Sequence[HarmonicFunction], bursts: Sequence[HarmonicFunction], horizon: int
) -> tuple[list[Scalar], SpanRanks]:
    """One joint sweep of the steady and burst components: for n = 1..horizon,
    the measure of the level-n set where some steady component is nonzero,
    and the ranks over Q of the steady, burst and joint spans, one row per
    component and one column per distinct (position, coordinate) below the root."""
    width = len(steady)
    columns: set[tuple[Scalar, ...]] = set()

    def support(entries, slot: int, j: int, total: Scalar, den: int) -> Scalar:
        acc = 0
        for fnodes, _, _, mass in entries:
            coords = [node.value.coords for node in fnodes]
            columns.update(zip(*coords))
            if any(any(c) for c in coords[:width]):
                acc += mass
        return total + Fraction(acc, den) if acc else total

    zero = LevelFunction.constant(0, Value.zero(steady[0].dim))
    measures = [total for *_, total in _sweep((*steady, *bursts), [(zero, range(1, horizon + 1))], support, 0)]
    return measures, SpanRanks(_rank(c[:width] for c in columns), _rank(c[width:] for c in columns), _rank(columns))


class DoubleGenericityReport(NamedTuple):
    reference_epsilon: Fraction
    far_distance: Fraction
    steady_witness: Witness
    burst_witness: Witness
    steady_span: SteadySpan
    burst_dips: tuple[DipEntry, ...]
    span_ranks: SpanRanks

    @property
    def all_pass(self) -> bool:
        return self.steady_span.passed and all(e.passed for e in self.burst_dips) and self.span_ranks.intersection_trivial


def double_genericity_check(
    tree: Tree,
    horizon: int | None = None,
    dim: int = 1,
    block_length: int = 10,
    growth: int = 5,
) -> DoubleGenericityReport:
    """Contrast the two spans against one fixed non-dense reference ball
    around zero: every element of the cyclic-schedule span keeps a positive
    lower hit density (each cycle revisits zero synchronously), while single
    geometric-schedule witnesses dip during foreign blocks.  The ranks of the
    two spans and of their union certify that they meet only at zero."""
    horizon = tree.depth if horizon is None else horizon
    psi0 = LevelFunction.constant(0, Value.zero(dim))

    # the reference ball is non-dense: a constant function sits outside its closure
    far = LevelFunction.constant(0, Value.of(*([3] * dim)))
    far_distance = Fraction(p_metric(tree, psi0, far))
    if not far_distance > REFERENCE_EPSILON:
        raise ValidationError(f"reference epsilon {REFERENCE_EPSILON} too large to be non-dense here")

    steady_targets = enumerate_targets(tree, count=4, dim=dim, resolution=1, bound=1, epsilon=Fraction(1, 8))
    steady_schedule = _family_ufm_schedule(tree, steady_targets, block_length, width=3, horizon=horizon)
    steady_witness = _synthesize(tree, steady_schedule, steady_targets, (1,) * len(steady_targets), as_tuple=True)

    burst_targets = enumerate_targets(tree, count=3, dim=dim, resolution=0, bound=1, epsilon=Fraction(1, 8))
    burst_witness = build_x_witness(tree, burst_targets, growth=growth, width=len(burst_targets), horizon=horizon)
    bursts = burst_witness.function.components

    # D(d) = d/(1+d) < 1 and D(0) = 0, so a combination's distance to zero at
    # level n is at most the measure of the steady support there
    supports, ranks = span_sweep(steady_witness.function.components, bursts, horizon)
    steady_hits = [n for n, m in enumerate(supports, 1) if m < REFERENCE_EPSILON]
    lower = empirical_lower_density(profile(steady_hits, horizon, min(steady_schedule.warmup, horizon - 1)))
    steady_span = SteadySpan(hits=tuple(steady_hits), lower=lower, passed=lower >= LOWER_DENSITY_FLOOR)

    burst_hits = hit_levels(bursts, [(psi0, (0,) * i + (1,), REFERENCE_EPSILON, horizon) for i in range(len(bursts))])
    dips: list[DipEntry] = []
    for comp, hits in enumerate(burst_hits, 1):
        prof = profile(hits, horizon, min(burst_witness.schedule.warmup, horizon - 1))
        foreign_levels = [
            n
            for b in burst_witness.schedule.component_blocks(comp)
            if burst_witness.targets[b.target_index - 1].level_function.node is not psi0.node
            for n in range(b.start, b.end + 1)
            if n >= max(1, prof.warmup)
        ]
        if not foreign_levels:
            continue
        min_ratio = min(prof.ratio(n) for n in foreign_levels)
        passed = min_ratio <= FOREIGN_DIP_CEILING
        dips.append(DipEntry(component=comp, hits=tuple(hits), min_foreign_ratio=min_ratio, passed=passed))

    return DoubleGenericityReport(
        reference_epsilon=REFERENCE_EPSILON,
        far_distance=far_distance,
        steady_witness=steady_witness,
        burst_witness=burst_witness,
        steady_span=steady_span,
        burst_dips=tuple(dips),
        span_ranks=ranks,
    )
