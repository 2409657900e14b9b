"""Building blocks described by their dimension functions.

A block is determined by a lower-semicontinuous, strictly positive,
integer-valued step function on [0,1] (its dimension function).  The
same data can be presented as an n x n nested-matrix picture: a chain of
open subsets A_1 >= A_2 >= ... of [0,1], with the dimension at t equal
to one plus the number of sets containing t.  This module converts
between the two presentations and validates them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .pwcalc import (
    ONE,
    ZERO,
    Interval,
    Record,
    StepFunction,
    is_lsc,
    json_int,
    json_list,
    json_obj,
    le_pointwise,
    linear_combine_steps,
)


@dataclass(frozen=True)
class SpecialCheck(Record):
    valid: bool
    reason: Union[str, None] = None
    witness: Union[Fraction, None] = None

    def __bool__(self) -> bool:
        return self.valid


def validate_special(d: StepFunction) -> SpecialCheck:
    """Check that d is a valid dimension function.

    Required: lower semicontinuous, integer-valued, >= 1 everywhere,
    finitely many pieces (automatic for this representation).
    """
    if not isinstance(d, StepFunction):
        return SpecialCheck(False, "not a step function")
    lsc = is_lsc(d)
    if not lsc:
        return SpecialCheck(False, "not lower semicontinuous", lsc.witness)
    if all(den == 1 and num >= 1 for num, den in d._vals + d._opens):
        return SpecialCheck(True)
    # the pieces carry the same values; the first failing one gives the witness
    p = next(p for p in d.pieces if p.value.denominator != 1 or p.value < 1)
    if p.value.denominator != 1:
        return SpecialCheck(False, f"non-integer value {p.value}", p.interval.sample())
    return SpecialCheck(False, f"value {p.value} below 1", p.interval.sample())


def ensure_dimension_function(d: StepFunction) -> StepFunction:
    check = validate_special(d)
    if not check:
        raise ValueError(f"invalid dimension function: {check.reason}")
    return d


def _validate_open_set(intervals: Sequence[Interval]) -> tuple:
    """Validate a finite union of intervals open in [0,1]; returns it sorted."""
    ivs = tuple(sorted(intervals, key=lambda iv: iv.lo))
    for iv in ivs:
        if iv.is_point:
            raise ValueError("single points are not open in [0,1]")
        if iv.lo_closed and iv.lo != ZERO:
            raise ValueError(f"interval closed at {iv.lo} is not open in [0,1]")
        if iv.hi_closed and iv.hi != ONE:
            raise ValueError(f"interval closed at {iv.hi} is not open in [0,1]")
        if iv.lo < ZERO or iv.hi > ONE:
            raise ValueError(f"interval from {iv.lo} to {iv.hi} reaches outside [0,1]")
    for cur, nxt in zip(ivs, ivs[1:]):
        if cur.hi > nxt.lo:
            raise ValueError("intervals of an open set must be disjoint")
    return ivs


def _indicator(opens: Sequence[Interval]) -> StepFunction:
    """The 0/1 step function of a validated open set: 1 on each interval's
    open cell and at its closed endpoints (only 0 and 1 can be closed), so
    a point shared by two touching intervals stays 0."""
    pts, at, cells = [ZERO], [ZERO], []
    for iv in opens:
        if iv.lo != pts[-1]:
            pts.append(iv.lo)
            cells.append(ZERO)
            at.append(ZERO)
        at[-1] = ONE if iv.lo_closed else ZERO
        pts.append(iv.hi)
        cells.append(ONE)
        at.append(ONE if iv.hi_closed else ZERO)
    if pts[-1] != ONE:
        pts.append(ONE)
        cells.append(ZERO)
        at.append(ZERO)
    return StepFunction.from_profile(pts, at, cells)


@dataclass(frozen=True)
class NestedPresentation(Record):
    """Nested-open-set presentation: n-1 open subsets with A_{i+1} <= A_i."""

    n: int
    opens: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("matrix size must be >= 1")
        opens = tuple(_validate_open_set(s) for s in self.opens)
        if len(opens) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} open sets, got {len(opens)}")
        indicators = [_indicator(s) for s in opens]
        for bigger, smaller in zip(indicators, indicators[1:]):
            # indicators are canonical, so equal sets are equal functions
            if smaller != bigger and not le_pointwise(smaller, bigger):
                raise ValueError("open sets are not nested")
        object.__setattr__(self, "opens", opens)
        # not a field, so never a JSON key: dim_from_nested sums them
        object.__setattr__(self, "_indicators", indicators)

    @classmethod
    def from_json(cls, obj: dict) -> "NestedPresentation":
        return cls(json_int(obj["n"], "n"), tuple(
            tuple(Interval.from_json(json_obj(iv, "each interval of opens"))
                  for iv in json_list(s, "each entry of opens"))
            for s in json_list(obj["opens"], "opens")))


def dim_from_nested(p: NestedPresentation) -> StepFunction:
    """Dimension function d(t) = 1 + #{i : t in A_i} of a presentation."""
    steps = [StepFunction.constant(1), *p._indicators]
    return linear_combine_steps([1] * len(steps), steps)


def nested_from_dim(d: StepFunction) -> NestedPresentation:
    """Recover the nested presentation in one walk along d's profile.

    d is lsc, so it rises only onto a cell (or at 0) and falls only onto a
    point: a rise starts the sets of the levels it passes and a fall ends
    them, both open at that point.  Sets still running at 1 end there, closed.
    """
    ensure_dimension_function(d)
    n = int(d.max_value())
    opens = [[] for _ in range(n - 1)]  # opens[k] is the set of level k + 2
    starts = []  # (lo, lo_closed) of the running interval of each level from 2 up

    def move(value, t, closed):
        while len(starts) < value - 1:
            starts.append((t, closed))
        while len(starts) > value - 1:
            lo, lo_closed = starts.pop()
            opens[len(starts)].append(Interval(lo, t, lo_closed, closed))

    for i, t in enumerate(d.points):
        move(int(d.point_values[i]), t, t == ZERO)
        if i < len(d.open_values):
            move(int(d.open_values[i]), t, False)
    move(1, ONE, True)
    return NestedPresentation(n, tuple(tuple(s) for s in opens))
