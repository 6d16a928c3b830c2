"""Exact natural-density bookkeeping for hit sets over a finite horizon.

The finite-horizon surrogates for limsup/liminf of prefix hit ratios are the
maximum/minimum of c_n/n over [warmup, horizon]; the warmup discards the
setup transient of a schedule before judging densities.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import ValidationError


class _DensityProfile(NamedTuple):
    horizon: int
    warmup: int
    counts: tuple[int, ...]  # cumulative hit counts c_1..c_horizon


class DensityProfile(_DensityProfile):
    __slots__ = ()

    def __new__(cls, horizon: int, warmup: int, counts: tuple[int, ...]):
        if horizon < 1:
            raise ValidationError("horizon must be at least 1")
        if not 0 <= warmup < horizon:
            raise ValidationError("warmup must satisfy 0 <= warmup < horizon")
        if len(counts) != horizon:
            raise ValidationError("counts must cover 1..horizon")
        prev = 0
        for n, c in enumerate(counts, start=1):
            if c < prev or c > n:
                raise ValidationError("counts must be non-decreasing with c_n <= n")
            prev = c
        return super().__new__(cls, horizon, warmup, counts)

    def ratio(self, n: int) -> Fraction:
        if not 1 <= n <= self.horizon:
            raise ValidationError(f"level {n} outside 1..{self.horizon}")
        return Fraction(self.counts[n - 1], n)

    def ratios(self) -> list[Fraction]:
        return [Fraction(c, n) for n, c in enumerate(self.counts, start=1)]


def profile(hits: Iterable[int], horizon: int, warmup: int = 0) -> DensityProfile:
    """Cumulative prefix ratios of a hit set, as exact rationals."""
    hit_set = set(hits)
    for h in hit_set:
        if not 1 <= h <= horizon:
            raise ValidationError(f"hit level {h} outside 1..{horizon}")
    counts = []
    c = 0
    for n in range(1, horizon + 1):
        if n in hit_set:
            c += 1
        counts.append(c)
    return DensityProfile(horizon=horizon, warmup=warmup, counts=tuple(counts))


def _window(p: DensityProfile) -> range:
    return range(max(1, p.warmup), p.horizon + 1)


def empirical_upper_density(p: DensityProfile) -> Fraction:
    """Max prefix ratio over [warmup, horizon]: finite surrogate for limsup."""
    return max(p.ratio(n) for n in _window(p))


def empirical_lower_density(p: DensityProfile) -> Fraction:
    """Min prefix ratio over [warmup, horizon]: finite surrogate for liminf."""
    return min(p.ratio(n) for n in _window(p))


def csv_rows(p: DensityProfile) -> list[tuple[int, int, str, str]]:
    """(n, c_n, ratio as decimal, ratio as exact fraction) for export."""
    out = []
    for n in range(1, p.horizon + 1):
        r = p.ratio(n)
        out.append((n, p.counts[n - 1], repr(float(r)), str(r)))
    return out
