"""Constructive synthesis and certification of universality witnesses.

The synthesis primitive drives a harmonic function toward a level-function
target one level at a time: every child copies the target except the
minimum-probability ("absorbing") child, which receives whatever value keeps
the parent's weighted average intact.  The mismatched boundary mass therefore
shrinks by at least half per level, so a block of consecutive levels ends with
the orbit inside any prescribed metric ball.

Two block plans realize the two density behaviors at a finite horizon:

* geometric blocks anchored at the horizon ("x" kind), cycling targets per
  tuple component with each component's final block assigned its own target,
  so every target's prefix hit ratio peaks near (growth-1)/growth;
* fixed-length cyclic blocks ("ufm" kind), so every target is revisited each
  cycle and its prefix ratio never falls below an explicit positive floor.

All verdicts are empirical: they describe the horizon that was actually
certified, never an infinite-horizon class membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence

# level_scale is unused here but stays importable from this module, as do the
# other per-level primitives: perfbench/spans.py traces them under these names
from .boundary import (
    LevelFunction,
    SectorNode,
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
    FuncNode,
    HarmonicFunction,
    HarmonicTuple,
    RhoResult,
    add_functions,
    check_harmonic,
    enumerate_harmonics,
    func_leaf,
    func_split,
    level_profile,
    linear_combination,
    pointwise_metric,
    restrict_to_level,
    truncate_and_extend,
    zero_function,
)
from .harmonic import _expand as _expand_func
from .scalars import Scalar
from .trees import Tree, VertexId
from .values import Value, bounded_metric, centered_grid

UPPER_DENSITY_THRESHOLD = Fraction(3, 4)
LOWER_DENSITY_FLOOR = Fraction(1, 20)
FOREIGN_DIP_CEILING = Fraction(3, 10)


# ----------------------------------------------------------------------
# Targets


@dataclass(frozen=True)
class Target:
    """A neighborhood to hit: a level function with a radius below one."""

    index: int
    level_function: LevelFunction
    epsilon: Fraction

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValidationError(f"target epsilon must lie in (0,1), got {self.epsilon}")

    @property
    def level(self) -> int:
        return self.level_function.level


def level_function_from_assignment(
    tree: Tree, level: int, assignment_index: int, grid: Sequence[Value]
) -> LevelFunction:
    size = tree.level_size(level)
    g = len(grid)
    if not 1 <= assignment_index <= g**size:
        raise ValidationError(f"assignment index {assignment_index} outside 1..{g}^{size}")
    t = assignment_index - 1
    digits = []
    for _ in range(size):
        digits.append(t % g)
        t //= g
    digits.reverse()
    return LevelFunction.from_values(tree, level, [grid[d] for d in digits])


def enumerate_targets(
    tree: Tree,
    count: int,
    dim: int = 1,
    resolution: int = 0,
    bound: int = 1,
    epsilon: Fraction | None = None,
    max_level_size: int = 4096,
) -> list[Target]:
    """Deterministic diagonal enumeration over (level, grid assignment).

    Starts at the zero function; semantically duplicate level functions
    (e.g. the zero assignment at successive levels) are skipped so the
    returned targets are pairwise distinct.  Without an explicit epsilon the
    ladder 1/2, 1/4, ... is attached in output order.
    """
    if count < 1:
        raise ValidationError("target count must be at least 1")
    grid = centered_grid(dim, resolution, bound, tree.mode)
    if not grid:
        raise ValidationError("empty grid")
    eligible = [k for k in range(tree.depth + 1) if tree.level_size(k) <= max_level_size]
    if not eligible:
        raise ValidationError("no level fits the enumeration size guard")
    last_d = max(k + len(grid) ** tree.level_size(k) for k in eligible)
    targets: list[Target] = []
    seen: set[int] = set()
    d = 1
    while len(targets) < count:
        if d > last_d:
            raise ValidationError(
                f"only {len(targets)} distinct targets exist within the size guard"
            )
        for k in range(0, d):
            j = d - k
            if k > tree.depth:
                continue
            sk = tree.level_size(k)
            if sk > max_level_size:
                continue
            if j > len(grid) ** sk:
                continue
            lf = level_function_from_assignment(tree, k, j, grid)
            if id(lf.node) in seen:
                continue
            seen.add(id(lf.node))
            pos = len(targets) + 1
            eps = epsilon if epsilon is not None else Fraction(1, 2**pos)
            targets.append(Target(index=pos, level_function=lf, epsilon=Fraction(eps)))
            if len(targets) == count:
                break
        d += 1
    return targets


# ----------------------------------------------------------------------
# Schedules


@dataclass(frozen=True)
class ScheduleBlock:
    component: int      # 1-based tuple slot owning this block
    target_index: int   # 1-based position in the witness target list
    start: int          # approximation level
    end: int            # last level written (inclusive)


@dataclass(frozen=True)
class Schedule:
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


def setup_levels(epsilon: Fraction) -> int:
    """Approximation level plus the mismatch-refinement levels a block spends
    before hits are guaranteed."""
    return 1 + refinement_levels(epsilon)


def min_block_length(epsilon: Fraction) -> int:
    return setup_levels(epsilon) + 1


def _validate_schedule(schedule: Schedule, tree: Tree, targets: Sequence[Target]) -> None:
    if schedule.horizon > tree.depth:
        raise InfeasibleScheduleError(
            f"horizon {schedule.horizon} exceeds tree depth {tree.depth}"
        )
    if not 0 <= schedule.warmup < schedule.horizon:
        raise ValidationError("warmup must satisfy 0 <= warmup < horizon")
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


def x_schedule(
    tree: Tree,
    targets: Sequence[Target],
    growth: int,
    width: int,
    horizon: int,
    warmup: int = 5,
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
    schedule = Schedule(kind="x", width=width, horizon=horizon, warmup=warmup, blocks=tuple(blocks))
    _validate_schedule(schedule, tree, targets)
    return schedule


def ufm_schedule(
    tree: Tree,
    targets: Sequence[Target],
    block_length: int,
    horizon: int,
    warmup: int | None = None,
) -> Schedule:
    """Fixed-length blocks cyclically assigned to targets, single component."""
    n_targets = len(targets)
    lmin = max(min_block_length(t.epsilon) for t in targets)
    if block_length < lmin:
        raise InfeasibleScheduleError(
            f"block length {block_length} below the setup bound {lmin}"
        )
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
    schedule = Schedule(kind="ufm", width=1, horizon=horizon, warmup=warmup, blocks=blocks)
    _validate_schedule(schedule, tree, targets)
    return schedule


# ----------------------------------------------------------------------
# Synthesis primitives


def _drive(tree: Tree, c: Value, t: Value, x: VertexId, end: int, memo: dict) -> FuncNode:
    """Subtree below a vertex holding value c, driven toward the constant
    target t through level `end`, constant-extended afterwards."""
    if c == t:
        return func_leaf(c)
    if x.level >= end:
        return func_leaf(c)
    key = (c, t, tree.pos_key(x))
    hit = memo.get(key)
    if hit is not None:
        return hit
    j, _ = tree.min_child(x)
    ws = tree.w_row(x)
    wstar = ws[j]
    # value forced on the absorbing child so the parent's weighted average holds
    cstar = (c - t.scale(1 - wstar)).scale(1 / wstar)
    kids = tuple(
        _drive(tree, cstar, t, tree.child(x, j), end, memo) if i == j else func_leaf(t)
        for i in range(tree.arity(x))
    )
    node = func_split(c, kids)
    memo[key] = node
    return node


def _rebuild(
    f: HarmonicFunction,
    target: LevelFunction,
    stop_level: int,
    end: int,
) -> HarmonicFunction:
    """Copy f above stop_level, then drive each sector toward the target
    through `end`.  Below stop_level, f contributes only its restriction."""
    tree = f.tree
    if target.dim != f.dim:
        raise DimensionMismatchError(f"dimension mismatch: {target.dim} vs {f.dim}")
    if end > tree.depth:
        raise ValidationError(f"level {end} exceeds tree depth {tree.depth}")
    if stop_level < target.level:
        raise ValidationError(
            f"cannot approximate a level-{target.level} target from level {stop_level}"
        )
    drive_memo: dict = {}
    desc_memo: dict = {}

    def desc(fn: FuncNode, tn: SectorNode, x: VertexId) -> FuncNode:
        if x.level == stop_level:
            if not tn.is_leaf:
                raise InvariantError("target structure deeper than the approximation level")
            return _drive(tree, fn.value, tn.value, x, end, drive_memo)
        key = (id(fn), id(tn), tree.pos_key(x))
        hit = desc_memo.get(key)
        if hit is not None:
            return hit
        k = tree.arity(x)
        fc = _expand_func(fn, k)
        tc = tn.children if tn.children is not None else (tn,) * k
        kids = tuple(desc(fc[i], tc[i], tree.child(x, i)) for i in range(k))
        node = func_split(fn.value, kids)
        desc_memo[key] = node
        return node

    return HarmonicFunction(tree, f.depth, f.dim, desc(f.node, target.node, tree.root))


@dataclass(frozen=True)
class MismatchReport:
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
    if n > tree.depth:
        raise ValidationError(f"level {n} exceeds tree depth {tree.depth}")
    if n < 1:
        raise ValidationError("approximation level must be at least 1")
    g = _rebuild(f, target, n - 1, n)
    refined = refine(tree, target, n)
    corrected = mismatch_measure(tree, restrict_to_level(f, n - 1), refine(tree, target, n - 1))
    report = MismatchReport(
        level=n,
        measure=mismatch_measure(tree, restrict_to_level(g, n), refined),
        corrected_measure=corrected,
        indicator=mismatch_indicator(restrict_to_level(g, n), refined),
    )
    return g, report


def refine_mismatch(
    f: HarmonicFunction, target: LevelFunction, start: int, steps: int
) -> tuple[HarmonicFunction, list[tuple[int, Scalar]]]:
    """Extend matched sectors constantly and re-approximate inside mismatched
    ones for `steps` further levels.  The log holds the measured mismatch at
    each level start..start+steps; each step at most halves it."""
    tree = f.tree
    if steps < 0:
        raise ValidationError("steps must be nonnegative")
    if start + steps > tree.depth:
        raise ValidationError(
            f"depth exhausted: level {start + steps} exceeds tree depth {tree.depth}"
        )
    g = _rebuild(f, target, start, start + steps)
    return g, _mismatch_log(g, target, start, start + steps)


def _mismatch_log(f: HarmonicFunction, target: LevelFunction, start: int, end: int) -> list[tuple[int, Scalar]]:
    """Measured mismatch of f against target at each level start..end."""
    measures = level_profile(f, target, mismatch_integrand(f.tree.mode), end)
    if start == 0:
        measures.insert(0, mismatch_measure(f.tree, restrict_to_level(f, 0), target))
    else:
        del measures[: start - 1]
    return list(zip(range(start, end + 1), measures))


# ----------------------------------------------------------------------
# Witness construction


@dataclass(frozen=True)
class BlockLog:
    component: int
    target_index: int
    start: int
    end: int
    mismatch: tuple[tuple[int, Scalar], ...]
    terminal_p: Scalar


@dataclass(frozen=True)
class Witness:
    kind: str
    function: HarmonicFunction | HarmonicTuple
    schedule: Schedule
    targets: tuple[Target, ...]
    target_components: tuple[int, ...]  # component certifying each target
    logs: tuple[BlockLog, ...]

    @property
    def tree(self) -> Tree:
        return self.function.tree

    def component_function(self, component: int) -> HarmonicFunction:
        if isinstance(self.function, HarmonicTuple):
            return self.function.components[component - 1]
        return self.function


def _run_schedule(
    tree: Tree, schedule: Schedule, targets: Sequence[Target], dim: int
) -> tuple[list[HarmonicFunction], list[BlockLog]]:
    components = [zero_function(tree, dim) for _ in range(schedule.width)]
    logs: list[BlockLog] = []
    for comp in range(1, schedule.width + 1):
        f = components[comp - 1]
        for block in schedule.component_blocks(comp):
            target = targets[block.target_index - 1]
            f = _rebuild(f, target.level_function, block.start - 1, block.end)
            mismatches = _mismatch_log(f, target.level_function, block.start, block.end)
            for (_, prev), (lvl, m) in zip(mismatches, mismatches[1:]):
                if m > prev:
                    raise InvariantError(
                        f"mismatch grew from {prev} to {m} at level {lvl} inside a block"
                    )
            terminal = level_profile(f, target.level_function, bounded_metric, block.end)[-1]
            if not terminal < target.epsilon:
                raise InvariantError(
                    f"block ending at {block.end} left distance {terminal}, "
                    f"not below epsilon {target.epsilon}"
                )
            logs.append(
                BlockLog(
                    component=comp,
                    target_index=block.target_index,
                    start=block.start,
                    end=block.end,
                    mismatch=tuple(mismatches),
                    terminal_p=terminal,
                )
            )
        components[comp - 1] = f
    return components, logs


def build_x_witness(
    tree: Tree,
    targets: Sequence[Target],
    growth: int = 5,
    width: int | None = None,
    horizon: int | None = None,
    warmup: int = 5,
) -> Witness:
    """Tuple witness on geometric blocks; one component per target, extra
    components stay identically zero so tuple-metric tails vanish."""
    targets = tuple(targets)
    if not targets:
        raise ValidationError("at least one target required")
    dim = targets[0].level_function.dim
    if any(t.level_function.dim != dim for t in targets):
        raise DimensionMismatchError("targets must share a dimension")
    horizon = tree.depth if horizon is None else horizon
    width = len(targets) if width is None else width
    schedule = x_schedule(tree, targets, growth, width, horizon, warmup)
    components, logs = _run_schedule(tree, schedule, targets, dim)
    function = HarmonicTuple(tuple(components))
    if not check_harmonic(function).passed:
        raise InvariantError("synthesized tuple failed the harmonicity check")
    return Witness(
        kind="x",
        function=function,
        schedule=schedule,
        targets=targets,
        target_components=tuple(range(1, len(targets) + 1)),
        logs=tuple(logs),
    )


def build_ufm_witness(
    tree: Tree,
    targets: Sequence[Target],
    block_length: int,
    horizon: int | None = None,
    warmup: int | None = None,
) -> Witness:
    """Single-function witness on fixed-length blocks cycling the targets."""
    targets = tuple(targets)
    if not targets:
        raise ValidationError("at least one target required")
    dim = targets[0].level_function.dim
    if any(t.level_function.dim != dim for t in targets):
        raise DimensionMismatchError("targets must share a dimension")
    horizon = tree.depth if horizon is None else horizon
    schedule = ufm_schedule(tree, targets, block_length, horizon, warmup)
    components, logs = _run_schedule(tree, schedule, targets, dim)
    function = components[0]
    if not check_harmonic(function).passed:
        raise InvariantError("synthesized function failed the harmonicity check")
    return Witness(
        kind="ufm",
        function=function,
        schedule=schedule,
        targets=targets,
        target_components=(1,) * len(targets),
        logs=tuple(logs),
    )


# ----------------------------------------------------------------------
# Certification


def hit_set(tree: Tree, f: HarmonicFunction, target: Target, horizon: int) -> list[int]:
    """Exact hit levels: {n : p_metric(level-n restriction, target) < epsilon}."""
    if horizon > f.depth:
        raise ValidationError(f"horizon {horizon} exceeds function depth {f.depth}")
    distances = level_profile(f, target.level_function, bounded_metric, horizon)
    return [n for n, d in enumerate(distances, 1) if d < target.epsilon]


@dataclass(frozen=True)
class TargetHits:
    target_index: int
    component: int
    hits: tuple[int, ...]
    profile: DensityProfile
    upper: Fraction
    lower: Fraction
    verdict: str


@dataclass(frozen=True)
class HitReport:
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
    cyclic-kind ones on the lower-density floor.
    """
    tree = witness.tree
    horizon = witness.schedule.horizon if horizon is None else horizon
    warmup = witness.schedule.warmup if warmup is None else warmup
    if horizon > tree.depth:
        raise ValidationError(f"horizon {horizon} exceeds tree depth {tree.depth}")
    entries = []
    for t, comp in zip(witness.targets, witness.target_components):
        f = witness.component_function(comp)
        hits = hit_set(tree, f, t, horizon)
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


@dataclass(frozen=True)
class SpanInclusionReport:
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
    coeffs: Sequence[Scalar],
    psi: LevelFunction,
    epsilon: Fraction,
    horizon: int,
) -> SpanInclusionReport:
    """Level-by-level verification that membership in the product neighborhood
    (components 1..s-1 near zero, component s near psi, all at radius
    epsilon/s after coefficient scaling) forces the linear combination into
    the epsilon-ball around psi."""
    if len(components) != len(coeffs) or not components:
        raise ValidationError("need one coefficient per component")
    if coeffs[-1] == 0:
        raise ValidationError("the last coefficient must be nonzero")
    tree = components[0].tree
    dim = components[0].dim
    if psi.dim != dim:
        raise DimensionMismatchError(f"dimension mismatch: {psi.dim} vs {dim}")
    s = len(components)
    epsilon = Fraction(epsilon)
    delta = epsilon / s
    b = [a if a != 0 else Fraction(1) for a in coeffs]
    combo = linear_combination(coeffs, components)
    zero_lf = LevelFunction.constant(0, Value.zero(dim, tree.mode))
    centers = [zero_lf] * (s - 1) + [psi]
    scaled = [
        level_profile(f, center, lambda u, v, a=a: bounded_metric(u.scale(a), v), horizon)
        for f, center, a in zip(components, centers, b)
    ]
    combo_distances = level_profile(combo, psi, bounded_metric, horizon)
    hat_hits: list[int] = []
    combo_hits: list[int] = []
    violations: list[int] = []
    for n in range(1, horizon + 1):
        ok = all(d[n - 1] < delta for d in scaled)
        in_combo = combo_distances[n - 1] < epsilon
        if ok:
            hat_hits.append(n)
            if not in_combo:
                violations.append(n)
        if in_combo:
            combo_hits.append(n)
    return SpanInclusionReport(
        coeffs=tuple(coeffs),
        epsilon=epsilon,
        delta=delta,
        hat_hits=tuple(hat_hits),
        combo_hits=tuple(combo_hits),
        violations=tuple(violations),
    )


# ----------------------------------------------------------------------
# Dense family


@dataclass(frozen=True)
class FamilyMember:
    index: int
    cut_level: int
    prefix_terms: int
    function: HarmonicFunction
    rho: RhoResult
    bound: Fraction

    @property
    def certified(self) -> bool:
        return self.rho.upper < self.bound


@dataclass(frozen=True)
class DenseFamilyResult:
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
    x_targets: Sequence[Target] | None = None,
    warmup: int = 5,
) -> DenseFamilyResult:
    """Members n = 1..count: take the n-th enumerated harmonic function p_n,
    the n-th tuple component h_n of a geometric-block witness, cut the
    difference at the smallest level whose vertex prefix certifies a 1/n
    pointwise gap, and return h_n + (p_n - h_n truncated and extended)."""
    if count < 1:
        raise ValidationError("family size must be at least 1")
    width = count if width is None else width
    if width < count:
        raise ValidationError(f"tuple width {width} below requested family size {count}")
    if x_targets is None:
        x_targets = enumerate_targets(tree, count=3, dim=dim, resolution=resolution, bound=bound, epsilon=Fraction(1, 8))
    witness = build_x_witness(tree, x_targets, growth=growth, width=width, horizon=horizon, warmup=warmup)
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
ZERO_SAMPLE_REDRAWS = 16


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
    schedule = Schedule(
        kind="ufm",
        width=width,
        horizon=horizon,
        warmup=cycle * block_length,
        blocks=tuple(blocks),
    )
    _validate_schedule(schedule, tree, targets)
    return schedule


@dataclass(frozen=True)
class ComboEntry:
    coeffs: tuple[Scalar, ...]
    hits: tuple[int, ...]
    lower: Fraction
    passed: bool


@dataclass(frozen=True)
class DipEntry:
    component: int
    hits: tuple[int, ...]
    min_foreign_ratio: Fraction
    passed: bool


@dataclass(frozen=True)
class DoubleGenericityReport:
    reference_epsilon: Fraction
    far_distance: Fraction
    steady_witness: Witness
    burst_witness: Witness
    steady_combos: tuple[ComboEntry, ...]
    burst_dips: tuple[DipEntry, ...]
    intersection_distinct: bool

    @property
    def all_pass(self) -> bool:
        return (
            all(e.passed for e in self.steady_combos)
            and all(e.passed for e in self.burst_dips)
            and self.intersection_distinct
        )


def double_genericity_check(
    tree: Tree,
    horizon: int | None = None,
    seed: int = 0,
    dim: int = 1,
    block_length: int = 10,
    growth: int = 5,
    combo_samples: int = 6,
    reference_epsilon: Fraction = Fraction(1, 4),
) -> DoubleGenericityReport:
    """Contrast the two spans against one fixed non-dense reference ball
    around zero: every sampled combination from the cyclic-schedule span keeps
    a positive lower hit density (each cycle revisits zero synchronously),
    while single geometric-schedule witnesses dip during foreign blocks.
    Sampled span elements from the two families are also compared vertex-wise
    and must be pairwise distinct."""
    horizon = tree.depth if horizon is None else horizon
    eps0 = Fraction(reference_epsilon)
    psi0 = LevelFunction.constant(0, Value.zero(dim, tree.mode))
    reference = Target(index=0, level_function=psi0, epsilon=eps0)

    # the reference ball is non-dense: a constant function sits outside its closure
    far = LevelFunction.constant(0, Value.of(*([3] * dim), mode=tree.mode))
    far_distance = Fraction(p_metric(tree, psi0, far))
    if not far_distance > eps0:
        raise ValidationError(f"reference epsilon {eps0} too large to be non-dense here")

    steady_targets = enumerate_targets(
        tree, count=4, dim=dim, resolution=1, bound=1, epsilon=Fraction(1, 8)
    )
    steady_schedule = _family_ufm_schedule(tree, steady_targets, block_length, width=3, horizon=horizon)
    steady_components, steady_logs = _run_schedule(tree, steady_schedule, steady_targets, dim)
    steady_witness = Witness(
        kind="ufm",
        function=HarmonicTuple(tuple(steady_components)),
        schedule=steady_schedule,
        targets=tuple(steady_targets),
        target_components=(1,) * len(steady_targets),
        logs=tuple(steady_logs),
    )
    if not check_harmonic(steady_witness.function).passed:
        raise InvariantError("cyclic-schedule tuple failed the harmonicity check")

    burst_targets = enumerate_targets(tree, count=3, dim=dim, resolution=0, bound=1, epsilon=Fraction(1, 8))
    burst_witness = build_x_witness(tree, burst_targets, growth=growth, width=len(burst_targets), horizon=horizon)

    rng = Random(seed)
    warm_steady = steady_schedule.warmup

    combos: list[ComboEntry] = []
    for _ in range(combo_samples):
        coeffs = tuple(rng.choice(COEFF_LATTICE) for _ in steady_components)
        combo = linear_combination(coeffs, steady_components)
        hits = hit_set(tree, combo, reference, horizon)
        prof = profile(hits, horizon, min(warm_steady, horizon - 1))
        lower = empirical_lower_density(prof)
        combos.append(
            ComboEntry(coeffs=coeffs, hits=tuple(hits), lower=lower, passed=lower >= LOWER_DENSITY_FLOOR)
        )

    dips: list[DipEntry] = []
    for comp in range(1, burst_witness.function.width + 1):
        f = burst_witness.function.components[comp - 1]
        hits = hit_set(tree, f, reference, horizon)
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
        dips.append(
            DipEntry(
                component=comp,
                hits=tuple(hits),
                min_foreign_ratio=min_ratio,
                passed=min_ratio <= FOREIGN_DIP_CEILING,
            )
        )

    zero_node = zero_function(tree, dim).node

    def nonzero_sample(components: Sequence[HarmonicFunction]) -> HarmonicFunction:
        # the burst components can sum to zero, so equal coefficients may
        # cancel; such a draw says nothing about distinctness and is redrawn
        for _ in range(ZERO_SAMPLE_REDRAWS):
            g = linear_combination(tuple(rng.choice(COEFF_LATTICE) for _ in components), components)
            if g.node is not zero_node:
                return g
        raise InvariantError(
            f"sampled a zero combination from nonzero coefficients {ZERO_SAMPLE_REDRAWS} times in a row"
        )

    steady_samples = []
    burst_samples = []
    for _ in range(max(2, combo_samples // 2)):
        steady_samples.append(nonzero_sample(steady_components))
        burst_samples.append(nonzero_sample(burst_witness.function.components))
    distinct = all(a.node is not b.node for a in steady_samples for b in burst_samples)

    return DoubleGenericityReport(
        reference_epsilon=eps0,
        far_distance=far_distance,
        steady_witness=steady_witness,
        burst_witness=burst_witness,
        steady_combos=tuple(combos),
        burst_dips=tuple(dips),
        intersection_distinct=distinct,
    )
