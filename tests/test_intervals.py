import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qpartial.intervals import (
    CompactInterval,
    add_intervals,
    directed_intersection,
    reverse_inclusion_leq,
    scale_interval,
    translate,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = draw(finite), draw(finite)
    return CompactInterval(min(a, b), max(a, b))


def test_construction_rejects_bad_endpoints():
    with pytest.raises(ValueError):
        CompactInterval(1.0, 0.0)
    with pytest.raises(ValueError):
        CompactInterval(0.0, math.inf)


def test_translate_examples():
    assert translate(0.0, CompactInterval(1, 2)) == CompactInterval(1, 2)
    assert translate(0.25, CompactInterval(-0.25, 0.25)) == CompactInterval(0.0, 0.5)
    assert translate(-1.0, CompactInterval(0, 1)) == CompactInterval(-1, 0)


def test_scale_examples():
    assert scale_interval(1.0, CompactInterval(-2, 3)) == CompactInterval(-2, 3)
    assert scale_interval(-1.0, CompactInterval(0, 1)) == CompactInterval(-1, 0)
    assert scale_interval(2.0, CompactInterval(-1, 3)) == CompactInterval(-2, 6)


def test_add_examples():
    assert add_intervals(CompactInterval(0.0, 0.0), CompactInterval(2, 3)) == CompactInterval(2, 3)
    assert add_intervals(CompactInterval(-1, 1), CompactInterval(-1, 1)) == CompactInterval(-2, 2)
    assert add_intervals(CompactInterval(0, 0.5), CompactInterval(0.25, 0.75)) == CompactInterval(0.25, 1.25)


def test_reverse_inclusion_examples():
    a = CompactInterval(0, 1)
    assert reverse_inclusion_leq(a, a)
    assert reverse_inclusion_leq(a, CompactInterval(0.2, 0.8))
    assert not reverse_inclusion_leq(a, CompactInterval(0.5, 1.5))


@given(intervals(), finite)
def test_scale_preserves_orientation(a, k):
    scaled = scale_interval(k, a)
    assert scaled.lo <= scaled.hi


@given(intervals(), intervals(), finite)
def test_ops_monotone_in_reverse_inclusion(a, b, k):
    # narrow b to a sub-interval of a, then ops must preserve containment
    inner = CompactInterval(
        a.lo + 0.25 * a.width,
        a.hi - 0.25 * a.width,
    )
    assert reverse_inclusion_leq(a, inner)
    assert reverse_inclusion_leq(translate(k, a), translate(k, inner))
    assert reverse_inclusion_leq(scale_interval(k, a), scale_interval(k, inner))
    assert reverse_inclusion_leq(add_intervals(a, b), add_intervals(inner, b))


@given(intervals(), intervals())
def test_add_endpointwise(a, b):
    s = add_intervals(a, b)
    assert s.lo == a.lo + b.lo and s.hi == a.hi + b.hi


def test_directed_intersection_constant_chain():
    a = CompactInterval(0.25, 0.75)
    assert directed_intersection([a, a, a]) == a


def test_directed_intersection_shrinking_chain():
    # the whole chain is read, so the limit is its last element
    chain = [CompactInterval(-1.0 / n, 1.0 / n) for n in range(1, 200)]
    limit = directed_intersection(chain)
    assert limit == chain[-1]
    for c in chain:
        assert c.lo <= limit.lo and limit.hi <= c.hi


def test_directed_intersection_crossed_within_slack_is_the_midpoint():
    # the last element lies 2e-13 above the first's hi, within the nesting
    # slack: the running bounds cross, and the limit is their midpoint
    chain = [CompactInterval(0.5, 0.5 + 4e-13), CompactInterval(0.5 + 6e-13, 0.5 + 6e-13)]
    limit = directed_intersection(chain)
    assert limit.lo == limit.hi
    assert abs(limit.lo - (0.5 + 5e-13)) <= 1e-15


def test_directed_intersection_rejects_non_nested():
    with pytest.raises(ValueError, match="not contained"):
        directed_intersection([CompactInterval(0, 1), CompactInterval(0.5, 1.5)])


def test_directed_intersection_rejects_empty():
    with pytest.raises(ValueError):
        directed_intersection([])
