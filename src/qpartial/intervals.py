"""Nonempty compact real intervals, ordered by reverse inclusion.

The order ``a <= b  iff  b is contained in a`` makes wider intervals
smaller: a computation that narrows its answer moves up. Suprema of
nested chains are intersections, which is what ``directed_intersection``
computes. Degenerate intervals [x, x] are first-class; they are how
ordinary point-valued expectations embed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_NEST_SLACK = 1e-12


@dataclass(frozen=True)
class CompactInterval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def translate(k: float, a: CompactInterval) -> CompactInterval:
    return CompactInterval(k + a.lo, k + a.hi)


def scale_interval(k: float, a: CompactInterval) -> CompactInterval:
    # endpoints swap when k < 0
    if k >= 0:
        return CompactInterval(k * a.lo, k * a.hi)
    return CompactInterval(k * a.hi, k * a.lo)


def add_intervals(a: CompactInterval, b: CompactInterval) -> CompactInterval:
    return CompactInterval(a.lo + b.lo, a.hi + b.hi)


def reverse_inclusion_leq(a: CompactInterval, b: CompactInterval) -> bool:
    """True iff b is contained in a."""
    return a.lo <= b.lo and b.hi <= a.hi


def directed_intersection(chain) -> CompactInterval:
    """Intersection of a finite nested (shrinking) sequence of intervals,
    read to its end.

    Each element must be contained in its predecessor, up to a tiny
    floating-point slack; violations raise ``ValueError``.
    """
    it = iter(chain)
    try:
        first = next(it)
    except StopIteration:
        raise ValueError("intersection of an empty chain is undefined") from None
    lo, hi = first.lo, first.hi
    for idx, a in enumerate(it, start=1):
        if a.lo < lo - _NEST_SLACK or a.hi > hi + _NEST_SLACK:
            raise ValueError(f"chain element {idx} is not contained in its predecessor")
        lo, hi = max(lo, a.lo), min(hi, a.hi)
    if lo > hi:
        # only possible through accumulated slack on a degenerate limit
        lo = hi = 0.5 * (lo + hi)
    return CompactInterval(lo, hi)
