"""Exact calculus of piecewise-linear and step functions on [0,1].

All coordinates and values are arbitrary-precision rationals
(:class:`fractions.Fraction`); floats appear in this module only as
order keys with an exact fallback on ties (:func:`_keyed`), never as
values.  Operations are pure and return canonical representations:
collinear interior breakpoints and equal-valued adjacent step pieces are
always merged, so ``==`` between two values is equality as functions on
[0,1].  A step function is stored as its profile: its values at its
breakpoints and on the open cells between them, so an isolated point
value differing from both one-sided limits is just a point value.  Its
pieces, with open/closed endpoint flags and degenerate single-point
pieces, are the form used for JSON and witnesses.

Comparisons at open endpoints use one-sided limits; a supremum that is
approached but not attained is reported with a limit flag pointing at
the endpoint it is approached from.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

# Fraction itself also reads decimals and exponents, and "1e-10000000"
# would cost it a 10^7-digit power before anything could refuse it
_RATIONAL_STR = re.compile(r"\s*[-+]?\d+(?:/\d+)?\s*")


def frac(x) -> Fraction:
    """Coerce ``x`` (Fraction, int, 'a/b' string, or [num, den] integer pair) to a Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if not _RATIONAL_STR.fullmatch(x):
            raise ValueError(f"{x!r} is not an integer or a/b rational")
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
    if isinstance(x, (list, tuple)) and len(x) == 2:
        num, den = x
        if isinstance(num, bool) or isinstance(den, bool) or not (
                isinstance(num, int) and isinstance(den, int)):
            raise TypeError(f"a [num, den] pair needs two integers, not {x!r}")
        if den == 0:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(num, den)
    raise TypeError(f"cannot interpret {x!r} as a rational")


def json_bool(x, what: str) -> bool:
    """``x`` if it is a JSON boolean; anything else is a schema error."""
    if not isinstance(x, bool):
        raise TypeError(f"{what} must be a JSON boolean, not {x!r}")
    return x


def json_obj(x, what: str) -> dict:
    """``x`` if it is a JSON object; anything else is a schema error."""
    if not isinstance(x, dict):
        raise TypeError(f"{what} must be a JSON object, not {type(x).__name__}")
    return x


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (not a boolean, not a float)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be a JSON integer, not {x!r}")
    return x


def json_list(x, what: str) -> list:
    """``x`` if it is a JSON array; a string or an object is a schema error."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} must be a JSON array, not {type(x).__name__}")
    return x


def frac_pair(x: Fraction) -> list:
    """Encode a Fraction as a reduced [numerator, denominator] pair."""
    return [x.numerator, x.denominator]


def _json_value(x):
    if isinstance(x, Fraction):
        return frac_pair(x)
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json()
    return x


class Record:
    """A dataclass whose JSON form is its fields, by name.

    A ``Fraction`` becomes a ``[num, den]`` pair, a tuple or list an
    array, anything with a ``to_json`` its own form, and everything else
    (booleans, integers, strings, ``None``) stays as it is.  The field
    names are the JSON keys, so a field added to a record reaches stdout.
    """

    def to_json(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class Interval(Record):
    """A nonempty rational subinterval of [0,1] with endpoint flags.

    Degenerate single-point intervals are allowed and must be closed on
    both sides.
    """

    lo: Fraction
    hi: Fraction
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self):
        self._store(frac(self.lo), frac(self.hi), self.lo_closed, self.hi_closed)

    def _store(self, lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> "Interval":
        """Check and store Fraction ends and their flags; returns ``self``."""
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if lo == hi and not (lo_closed and hi_closed):
            raise ValueError("a single-point interval must be closed on both sides")
        vars(self).update(lo=lo, hi=hi, lo_closed=lo_closed, hi_closed=hi_closed)
        return self

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: Fraction) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.lo_closed:
            return False
        if t == self.hi and not self.hi_closed:
            return False
        return True

    def sample(self) -> Fraction:
        """A point guaranteed to lie in the interval."""
        if self.is_point:
            return self.lo
        return (self.lo + self.hi) / 2

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        # coerced as read, so the first defect is the one reported, and stored once
        return object.__new__(cls)._store(
            frac(obj["lo"]), frac(obj["hi"]),
            json_bool(obj["lo_closed"], "lo_closed"),
            json_bool(obj["hi_closed"], "hi_closed"),
        )


@dataclass(frozen=True)
class Piece:
    interval: Interval
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))


@dataclass(frozen=True, init=False)
class StepFunction:
    """A finite-piece function on [0,1], stored as its profile.

    ``points`` runs strictly increasing from 0 to 1; ``point_values[i]``
    is the value at ``points[i]`` and ``open_values[i]`` the value on the
    open cell after it.  Canonical form drops every interior point whose
    value equals both neighbouring cells, so ``==`` is equality as
    functions.  ``StepFunction(pieces)`` takes :class:`Piece` objects or
    ``(Interval, value)`` pairs and checks that they tile [0,1] exactly
    once; :attr:`pieces` gives back the maximal constant intervals.
    """

    points: tuple
    point_values: tuple
    open_values: tuple

    def __init__(self, pieces):
        pieces = [(p.interval, p.value) if isinstance(p, Piece) else (p[0], frac(p[1]))
                  for p in pieces]
        if not pieces:
            raise ValueError("a step function needs at least one piece")
        pieces.sort(key=lambda p: (p[0].lo, not p[0].lo_closed))
        first, last = pieces[0][0], pieces[-1][0]
        if first.lo != ZERO or not first.lo_closed:
            raise ValueError("pieces must start at 0 (closed)")
        if last.hi != ONE or not last.hi_closed:
            raise ValueError("pieces must end at 1 (closed)")
        for (cur, _), (nxt, _) in zip(pieces, pieces[1:]):
            if cur.hi != nxt.lo:
                raise ValueError(
                    f"pieces do not tile [0,1]: gap or overlap at {cur.hi} vs {nxt.lo}"
                )
            if cur.hi_closed == nxt.lo_closed:
                raise ValueError(
                    f"endpoint {cur.hi} covered {'twice' if cur.hi_closed else 'by no piece'}"
                )
        # the tiling covers each endpoint once, by a closed side
        points, point_values, open_values = [ZERO], [], []
        for iv, value in pieces:
            if iv.lo_closed:
                point_values.append(value)
            if not iv.is_point:
                points.append(iv.hi)
                open_values.append(value)
                if iv.hi_closed:
                    point_values.append(value)
        self._store(points, point_values, open_values)

    def _store(self, points, point_values, open_values) -> None:
        """Store a valid profile of Fractions in canonical form."""
        pts, vals, opens = [points[0]], [point_values[0]], []
        for t, v, cell in zip(points[1:], point_values[1:], open_values):
            # Fractions are reduced, so equal ones have equal terms
            if opens and (opens[-1].numerator == vals[-1].numerator == cell.numerator
                          and opens[-1].denominator == vals[-1].denominator == cell.denominator):
                # the previous point changes nothing: widen its left cell
                pts.pop()
                vals.pop()
            else:
                opens.append(cell)
            pts.append(t)
            vals.append(v)
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "point_values", tuple(vals))
        object.__setattr__(self, "open_values", tuple(opens))

    @classmethod
    def _from_kernel(cls, points, point_values, open_values) -> "StepFunction":
        """Build from a profile a kernel made: Fraction points strictly
        increasing from 0 to 1 and Fraction values, so only canonicalised."""
        self = object.__new__(cls)
        self._store(points, point_values, open_values)
        return self

    @classmethod
    def constant(cls, v) -> "StepFunction":
        return cls.from_profile((ZERO, ONE), (v, v), (v,))

    @classmethod
    def from_profile(cls, points: Sequence[Fraction],
                     point_values: Sequence[Fraction],
                     open_values: Sequence[Fraction]) -> "StepFunction":
        """Build from values at ``points`` and on the open gaps between them."""
        if len(point_values) != len(points) or len(open_values) != len(points) - 1:
            raise ValueError("a profile needs one value per point and per gap")
        if len(points) < 2 or frac(points[0]) != ZERO or frac(points[-1]) != ONE:
            raise ValueError("profile points must start at 0 and end at 1")
        pts, vals, opens = [ZERO], [frac(point_values[0])], []
        for t, v, cell in zip(points[1:], point_values[1:], open_values):
            t, v, cell = frac(t), frac(v), frac(cell)
            if t <= pts[-1]:
                raise ValueError("profile points must be strictly increasing")
            pts.append(t)
            vals.append(v)
            opens.append(cell)
        return cls._from_kernel(pts, vals, opens)

    def _runs(self):
        """The maximal constant intervals, in order, as (lo, hi, lo_closed, hi_closed, value)."""
        pts, vals, opens = self.points, self.point_values, self.open_values
        lo, lo_closed, value = pts[0], True, vals[0]
        for i in range(1, len(pts)):
            if opens[i - 1] != value:
                yield lo, pts[i - 1], lo_closed, True, value
                lo, lo_closed, value = pts[i - 1], False, opens[i - 1]
            if vals[i] != value:
                yield lo, pts[i], lo_closed, False, value
                lo, lo_closed, value = pts[i], True, vals[i]
        yield lo, pts[-1], lo_closed, True, value

    @property
    def pieces(self) -> tuple:
        """The maximal constant intervals, in order, as :class:`Piece` objects."""
        return tuple(Piece(Interval(lo, hi, lc, hc), v) for lo, hi, lc, hc, v in self._runs())

    def eval(self, t) -> Fraction:
        """Exact value at t: its point value, or the value of its open cell."""
        t = frac(t)
        if t < ZERO or t > ONE:
            raise ValueError(f"t={t} outside [0,1]")
        i = bisect.bisect_left(self.points, t)
        if self.points[i] == t:
            return self.point_values[i]
        return self.open_values[i - 1]

    def partition_points(self) -> tuple:
        return self.points

    def min_value(self) -> Fraction:
        return min(self.point_values + self.open_values)

    def max_value(self) -> Fraction:
        return max(self.point_values + self.open_values)

    def scale(self, c) -> "StepFunction":
        c = frac(c)
        return StepFunction.from_profile(
            self.points,
            [c * v for v in self.point_values],
            [c * v for v in self.open_values],
        )

    def jumps(self) -> tuple:
        """Discontinuity records (t, left limit, value, right limit).

        Limits are None beyond the endpoints 0 and 1.
        """
        pts, vals, opens = self.points, self.point_values, self.open_values
        out = []
        for i, t in enumerate(pts):
            v = vals[i]
            left = opens[i - 1] if i > 0 else None
            right = opens[i] if i + 1 < len(pts) else None
            if (left is not None and left != v) or (right is not None and right != v):
                out.append(Jump(t, left, v, right))
        return tuple(out)

    def to_json(self) -> dict:
        return {"kind": "step", "pieces": [
            {"lo": frac_pair(lo), "hi": frac_pair(hi), "lo_closed": lc, "hi_closed": hc,
             "value": frac_pair(v)}
            for lo, hi, lc, hc, v in self._runs()
        ]}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        if json_obj(obj, "a step function").get("kind") != "step":
            raise ValueError("not a step-function payload")
        # lazily, so each piece's value is coerced before the next piece is read
        return cls((Interval.from_json(p), p["value"]) for p in obj["pieces"])


@dataclass(frozen=True)
class Jump:
    t: Fraction
    left: Union[Fraction, None]
    value: Fraction
    right: Union[Fraction, None]


@dataclass(frozen=True)
class PLFunction:
    """A continuous piecewise-linear function on [0,1].

    ``breakpoints`` is strictly increasing from 0 to 1; between
    consecutive breakpoints the function interpolates linearly.
    Collinear interior breakpoints are removed on construction.
    """

    breakpoints: tuple
    values: tuple

    def __post_init__(self):
        bps = tuple(frac(t) for t in self.breakpoints)
        vals = tuple(frac(v) for v in self.values)
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        if len(bps) < 2:
            raise ValueError("need at least the two endpoints 0 and 1")
        if bps[0] != ZERO or bps[-1] != ONE:
            raise ValueError("breakpoints must start at 0 and end at 1")
        self._store(bps, vals)

    def _store(self, bps, vals) -> None:
        """Store Fraction points from 0 to 1 without collinear interior ones."""
        # The last kept point is always the previous input point, so the
        # slope into the current point is the slope of the segment it would
        # extend; equal slopes drop the previous point.  Kept points are
        # never collinear, so nothing before it can drop too.  Slopes are
        # integer ratios num/den with den > 0 exactly when t increases.
        kept_t, kept_v = [bps[0]], [vals[0]]
        pn, pd = 0, 1
        qn, qd = vals[0].numerator, vals[0].denominator
        sn = sd = 0
        for t, v in zip(bps[1:], vals[1:]):
            tn, td, vn, vd = t.numerator, t.denominator, v.numerator, v.denominator
            den = (tn * pd - pn * td) * (vd * qd)
            if den <= 0:
                raise ValueError("breakpoints must be strictly increasing")
            num = (vn * qd - qn * vd) * (td * pd)
            if len(kept_t) > 1 and num * sd == sn * den:
                kept_t[-1], kept_v[-1] = t, v
            else:
                kept_t.append(t)
                kept_v.append(v)
                sn, sd = num, den
            pn, pd, qn, qd = tn, td, vn, vd
        object.__setattr__(self, "breakpoints", tuple(kept_t))
        object.__setattr__(self, "values", tuple(kept_v))

    def __hash__(self):
        # the dataclass hash, once: patterns count their eigenfunctions often
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.breakpoints, self.values)))
            return self._hash

    @classmethod
    def _from_kernel(cls, bps, vals) -> "PLFunction":
        """Build from Fraction breakpoints and values a kernel made, already
        running from 0 to 1, so only collinear points are dropped."""
        self = object.__new__(cls)
        self._store(bps, vals)
        return self

    @classmethod
    def constant(cls, v) -> "PLFunction":
        v = frac(v)
        return cls((ZERO, ONE), (v, v))

    @classmethod
    def identity(cls) -> "PLFunction":
        return cls((ZERO, ONE), (ZERO, ONE))

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "PLFunction":
        pairs = list(pairs)
        return cls(
            tuple(t for t, _ in pairs), tuple(v for _, v in pairs)
        )

    def eval(self, t) -> Fraction:
        """Exact value at t by linear interpolation."""
        t = frac(t)
        if t < ZERO or t > ONE:
            raise ValueError(f"t={t} outside [0,1]")
        i = bisect.bisect_right(self.breakpoints, t) - 1
        if i >= len(self.breakpoints) - 1:
            return self.values[-1]
        t0, t1 = self.breakpoints[i], self.breakpoints[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (t - t0) * (v1 - v0) / (t1 - t0)

    def segments(self):
        """Yield (t0, t1, v0, v1) for each maximal linear segment."""
        for i in range(len(self.breakpoints) - 1):
            yield (
                self.breakpoints[i], self.breakpoints[i + 1],
                self.values[i], self.values[i + 1],
            )

    def into_unit_interval(self) -> bool:
        # denominators are positive
        return all(0 <= v.numerator <= v.denominator for v in self.values)

    def shift(self, c) -> "PLFunction":
        c = frac(c)
        return PLFunction(self.breakpoints, tuple(v + c for v in self.values))

    def scale(self, c) -> "PLFunction":
        c = frac(c)
        return PLFunction(self.breakpoints, tuple(c * v for v in self.values))

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return linear_combine([1, 1], [self, other])

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return linear_combine([1, -1], [self, other])

    def __neg__(self) -> "PLFunction":
        return self.scale(-1)

    def to_json(self) -> dict:
        return {
            "kind": "pl",
            "points": [
                [frac_pair(t), frac_pair(v)]
                for t, v in zip(self.breakpoints, self.values)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PLFunction":
        if json_obj(obj, "a piecewise-linear function").get("kind") != "pl":
            raise ValueError("not a piecewise-linear payload")
        pts = obj["points"]
        # __post_init__ coerces each coordinate
        return cls(tuple(t for t, _ in pts), tuple(v for _, v in pts))


PiecewiseFunction = Union[PLFunction, StepFunction]


def function_from_json(obj: dict) -> PiecewiseFunction:
    kind = json_obj(obj, "a function").get("kind")
    if kind == "pl":
        return PLFunction.from_json(obj)
    if kind == "step":
        return StepFunction.from_json(obj)
    raise ValueError(f"unknown function kind: {kind!r}")


# ---------------------------------------------------------------------------
# merged-refinement machinery
# ---------------------------------------------------------------------------


def _keyed(xs) -> list:
    """``(float, x)`` order keys for Fractions ``xs``.

    int/int true division is correctly rounded, so the float is monotone
    in x: keys with different floats compare on the float alone, and only
    equal floats fall back to comparing the Fractions.
    """
    return [(x.numerator / x.denominator, x) for x in xs]


def merged_points(*fns: PiecewiseFunction) -> tuple:
    """Sorted union of all breakpoints / partition points, including 0 and 1.

    Returns ``(pts, own)``: ``own[i]`` gives the position in ``pts`` of each
    of ``fns[i]``'s own points, in order.  Every function starts at 0 and
    ends at 1, so only interior points are merged, each keyed with the
    index of its function.
    """
    keys = []
    for i, f in enumerate(fns):
        if isinstance(f, PLFunction):
            run = f.breakpoints
        elif isinstance(f, StepFunction):
            run = f.points
        else:
            raise TypeError(f"not a piecewise function: {f!r}")
        keys.extend((t.numerator / t.denominator, t, i) for t in run[1:-1])
    own = [[0] for _ in fns]
    # each function's points are one sorted run, which sorted() merges
    pts, last = [ZERO], 0.0
    for x, t, i in sorted(keys):
        # only equal floats need the terms, and equal reduced Fractions share them
        if x != last or t.numerator != pts[-1].numerator or t.denominator != pts[-1].denominator:
            pts.append(t)
            last = x
        own[i].append(len(pts) - 1)
    pts.append(ONE)
    for pos in own:
        pos.append(len(pts) - 1)
    return tuple(pts), own


def _line(x0: Fraction, x1: Fraction, y0: Fraction, y1: Fraction) -> tuple:
    """Integers ``(a, b, c)`` with ``c > 0`` such that the line through
    (x0, y0) and (x1, y1), x0 != x1, takes the value (a*q + b*p) / (c*q)
    at x = p/q."""
    a0, b0, a1, b1 = x0.numerator, x0.denominator, x1.numerator, x1.denominator
    n0, d0, n1, d1 = y0.numerator, y0.denominator, y1.numerator, y1.denominator
    # the slope sn/sd, with sd > 0
    sn, sd = (n1 * d0 - n0 * d1) * b0 * b1, (a1 * b0 - a0 * b1) * d0 * d1
    if sd < 0:
        sn, sd = -sn, -sd
    g = math.gcd(sn, sd)
    sn, sd = sn // g, sd // g
    # y0 + (p/q - a0/b0) * sn/sd over the denominator d0*b0*sd*q
    a, b, c = n0 * b0 * sd - d0 * a0 * sn, d0 * b0 * sn, d0 * b0 * sd
    g = math.gcd(a, b, c)
    return a // g, b // g, c // g


def _walk_pl(f: PLFunction, pts, pos) -> list:
    """f's values at ``pts``, where its breakpoints sit at positions ``pos``."""
    bps, vals = f.breakpoints, f.values
    at = [vals[0]]
    for k in range(len(pos) - 1):
        if pos[k + 1] - pos[k] > 1:
            a, b, c = _line(bps[k], bps[k + 1], vals[k], vals[k + 1])
            for t in pts[pos[k] + 1:pos[k + 1]]:
                q = t.denominator
                at.append(Fraction(a * q + b * t.numerator, c * q))
        at.append(vals[k + 1])
    return at


def _walk_step(f: StepFunction, pos) -> tuple:
    """f's values at the merged points and on the open cells between them,
    where its own points sit at positions ``pos``."""
    vals, opens = f.point_values, f.open_values
    at, cells = [], []
    for k, cell in enumerate(opens):
        n = pos[k + 1] - pos[k]
        at.append(vals[k])
        if n > 1:
            at += [cell] * (n - 1)
        cells += [cell] * n
    at.append(vals[-1])
    return at, cells


def refine(*fns: PiecewiseFunction) -> tuple:
    """Sample functions on their merged refinement ``pts``.

    Returns ``(pts, samples)`` with one ``(at, above, below)`` triple of
    lists per function: ``at[i]`` is its value at ``pts[i]``, and
    ``above[i]``, ``below[i]`` its limits at ``pts[i]+`` and ``pts[i+1]-``,
    which determine it on that cell since it is linear there.  Every exact
    comparison in this module samples its functions through here.  Each
    function is walked once along ``pts``, by the positions of its own
    points in it.
    """
    pts, own = merged_points(*fns)
    samples = []
    for f, pos in zip(fns, own):
        if isinstance(f, PLFunction):
            at = _walk_pl(f, pts, pos)
            samples.append((at, at[:-1], at[1:]))
        else:
            at, cells = _walk_step(f, pos)
            samples.append((at, cells, cells))
    return pts, samples


@dataclass(frozen=True)
class LeResult(Record):
    holds: bool
    witness: Union[Fraction, None] = None

    def __bool__(self) -> bool:
        return self.holds


def _violation_point(a, b, hA, hB, allow_equal):
    """A point of (a,b) where the linear h with limits (hA,hB) is > 0 (or >= 0)."""
    if allow_equal and hA == 0 and hB == 0:
        return (a + b) / 2
    if hA > 0 and hB > 0:
        return (a + b) / 2
    if hA > 0:
        root = a + (b - a) * hA / (hA - hB)
        return (a + root) / 2
    if hB > 0:
        root = a + (b - a) * hA / (hA - hB)
        return (root + b) / 2
    return None


def _sign_of_difference(x: Fraction, y: Fraction) -> int:
    """The sign of x - y, from cross-multiplied integer numerators."""
    lhs, rhs = x.numerator * y.denominator, y.numerator * x.denominator
    return (lhs > rhs) - (lhs < rhs)


def le_pointwise(f: PiecewiseFunction, g: PiecewiseFunction,
                 strict: bool = False) -> LeResult:
    """Exact pointwise comparison f <= g (or f < g when ``strict``).

    On failure the witness is a point t with f(t) > g(t) (>= for strict).
    """
    pts, ((f_at, f_above, f_below), (g_at, g_above, g_below)) = refine(f, g)
    for t, fv, gv in zip(pts, f_at, g_at):
        d = _sign_of_difference(fv, gv)
        if d > 0 or (strict and d == 0):
            return LeResult(False, t)
    cells = zip(pts, pts[1:], f_above, f_below, g_above, g_below)
    for a, b, fa, fb, ga, gb in cells:
        sA, sB = _sign_of_difference(fa, ga), _sign_of_difference(fb, gb)
        if sA > 0 or sB > 0 or (strict and sA == 0 and sB == 0):
            return LeResult(False, _violation_point(a, b, fa - ga, fb - gb, strict))
    return LeResult(True, None)


AT = "at"
ABOVE = "above"   # one-sided limit approaching the point from above
BELOW = "below"   # one-sided limit approaching the point from below


@dataclass(frozen=True)
class Extremum(Record):
    value: Fraction
    at: Fraction
    side: str

    @property
    def attained(self) -> bool:
        return self.side == AT


def _sup_scan(pts, at, above, below, h_above, h_below) -> tuple:
    """The largest value of a quantity that is linear in some h on each cell.

    Values are integer ``(num, den)`` pairs with ``den > 0``: ``at[i]`` at
    ``pts[i]``, ``above[i]`` and ``below[i]`` the limits at ``pts[i]+``
    and ``pts[i+1]-``, and ``h_above``, ``h_below`` h's own limits there.
    The cell is one candidate at its midpoint when h's limits agree; the
    values cannot tell (|h| has equal limits when h runs from -1 to 1).
    Candidates go point, cell, next point and are compared by
    cross-multiplying, so the first of equal ones wins.  Returns ``(num,
    den, t, side)``; only the winner's midpoint is built.
    """
    bn, bd = at[0]
    won, side = 0, AT  # a point index, or a cell index when side is None
    for i in range(len(pts) - 1):
        xn, xd = above[i]
        hn, hd = h_above[i]
        gn, gd = h_below[i]
        if hn * gd == gn * hd:
            if xn * bd > bn * xd:
                bn, bd, won, side = xn, xd, i, None
        else:
            if xn * bd > bn * xd:
                bn, bd, won, side = xn, xd, i, ABOVE
            xn, xd = below[i]
            if xn * bd > bn * xd:
                bn, bd, won, side = xn, xd, i + 1, BELOW
        xn, xd = at[i + 1]
        if xn * bd > bn * xd:
            bn, bd, won, side = xn, xd, i + 1, AT
    if side is None:
        return bn, bd, (pts[won] + pts[won + 1]) / 2, AT
    return bn, bd, pts[won], side


def weighted_sup_norm(f: PLFunction, w: StepFunction) -> Extremum:
    """Exact supremum of |f(t)| / w(t) over [0,1].

    The weight must be strictly positive.  The supremum is attained at a
    merged breakpoint or approached as a one-sided limit at an open
    piece endpoint; ``side`` records which.
    """
    if not isinstance(f, PLFunction):
        raise TypeError("weighted_sup_norm expects a piecewise-linear function")
    if not isinstance(w, StepFunction):
        raise TypeError("weights are step functions")
    if w.min_value() <= 0:
        raise ValueError("weight must be strictly positive")
    pts, ((f_at, _, _), (w_at, w_open, _)) = refine(f, w)
    h = [(v.numerator, v.denominator) for v in f_at]
    # |f| / w as (|fn| * wd) / (fd * wn), with wn > 0
    at = [(abs(fn) * v.denominator, fd * v.numerator) for (fn, fd), v in zip(h, w_at)]
    above = [(abs(fn) * v.denominator, fd * v.numerator) for (fn, fd), v in zip(h, w_open)]
    below = [(abs(fn) * v.denominator, fd * v.numerator) for (fn, fd), v in zip(h[1:], w_open)]
    num, den, t, side = _sup_scan(pts, at, above, below, h, h[1:])
    return Extremum(Fraction(num, den), t, side)


def inf_difference(upper: PiecewiseFunction, lower: PiecewiseFunction) -> Extremum:
    """Exact infimum of upper(t) - lower(t) over [0,1], with attainment info."""
    pts, (u, l) = refine(upper, lower)
    # the supremum of lower - upper, as unreduced integer pairs
    at, above, below = (
        [(y.numerator * x.denominator - x.numerator * y.denominator, x.denominator * y.denominator)
         for x, y in zip(us, ls)]
        for us, ls in zip(u, l)
    )
    num, den, t, side = _sup_scan(pts, at, above, below, above, below)
    return Extremum(Fraction(-num, den), t, side)


def is_lsc(d: StepFunction) -> LeResult:
    """Check lower semicontinuity: no point value exceeds a one-sided limit."""
    pts, vals, opens = d.points, d.point_values, d.open_values
    for i, t in enumerate(pts):
        if i > 0 and vals[i] > opens[i - 1]:
            return LeResult(False, t)
        if i + 1 < len(pts) and vals[i] > opens[i]:
            return LeResult(False, t)
    return LeResult(True, None)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _weighted_sums(coeffs: Sequence, fns: Sequence, cells: bool = False) -> tuple:
    """``refine(*fns)``'s points and sum(c_i * f_i) at each of them, then on
    each cell after them when ``cells``.  Each value is summed as one
    integer ratio over a running common denominator and reduced once."""
    if not coeffs or not fns:
        raise ValueError("empty linear combination")
    if len(coeffs) != len(fns):
        raise ValueError("coefficient/function count mismatch")
    terms = [(c.numerator, c.denominator) for c in map(frac, coeffs)]
    pts, samples = refine(*fns)
    out = []
    for vs in zip(*(at + opens if cells else at for at, opens, _ in samples)):
        num, den = 0, 1
        for (cn, cd), v in zip(terms, vs):
            d = cd * v.denominator
            if d == 1:
                num += cn * v.numerator * den
            else:
                g = math.gcd(den, d)
                num = num * (d // g) + cn * v.numerator * (den // g)
                den = den // g * d
        out.append(Fraction(num) if den == 1 else Fraction(num, den))
    return pts, out


def linear_combine(coeffs: Sequence, fns: Sequence[PLFunction]) -> PLFunction:
    """Exact pointwise linear combination sum(c_i * f_i)."""
    return PLFunction._from_kernel(*_weighted_sums(coeffs, fns))


def linear_combine_steps(coeffs: Sequence, steps: Sequence[StepFunction]) -> StepFunction:
    """Exact pointwise linear combination sum(c_i * s_i) of step functions."""
    if not all(isinstance(s, StepFunction) for s in steps):
        raise TypeError("linear_combine_steps combines step functions")
    pts, sums = _weighted_sums(coeffs, steps, cells=True)
    return StepFunction._from_kernel(pts, sums[:len(pts)], sums[len(pts):])


def _preimage_refinement(g: PLFunction, targets: Sequence[Fraction]) -> tuple:
    """g's breakpoints and the preimages of ``targets``, in increasing order.

    ``targets`` runs strictly increasing from 0 to 1.  A value is placed by
    its slot: slot 2i is ``targets[i]`` and slot 2i+1 the open gap
    (targets[i], targets[i+1]).  Returns ``(pts, g_vals, at, cells)``:
    ``g_vals[k]`` is g's value at ``pts[k]`` and ``at[k]`` its slot, and
    ``cells[k]`` the slot g maps the open cell after ``pts[k]`` into (where
    g is constant there, its value's slot).  One bisect over
    :func:`_keyed` targets places each breakpoint value of g, which also
    checks that g maps into [0,1]; a segment's preimages are the targets
    strictly between its two end slots, emitted in t-order.
    """
    keys, top = _keyed(targets), 2 * len(targets) - 2
    slots = []
    for y in g.values:
        x = y.numerator / y.denominator
        r = bisect.bisect_right(keys, (x, y))
        # targets[r - 1] <= y < targets[r]: y is in gap r - 1 unless it is
        # targets[r - 1], whose reduced terms it then shares
        s = 2 * r - 1
        if r and keys[r - 1][0] == x:
            t = targets[r - 1]
            if t.numerator == y.numerator and t.denominator == y.denominator:
                s -= 1
        if not 0 <= s <= top:
            raise ValueError("inner function must map [0,1] into [0,1]")
        slots.append(s)
    bps, ys = g.breakpoints, g.values
    pts, g_vals, at, cells = [], [], [], []
    for t0, t1, y0, y1, s0, s1 in zip(bps, bps[1:], ys, ys[1:], slots, slots[1:]):
        pts.append(t0)
        g_vals.append(y0)
        at.append(s0)
        if s0 == s1:
            # constant, or inside one gap: no target in between
            cells.append(s0)
            continue
        rising = s0 < s1
        if rising:
            cells.append(s0 | 1)
            lo, hi = s0 // 2 + 1, (s1 + 1) // 2
        else:
            cells.append((s0 - 1) | 1)
            lo, hi = s1 // 2 + 1, (s0 + 1) // 2
        if lo == hi:
            continue
        # the preimage of p/q on this segment
        a, b, c = _line(y0, y1, t0, t1)
        for i in (range(lo, hi) if rising else range(hi - 1, lo - 1, -1)):
            y = targets[i]
            q = y.denominator
            pts.append(Fraction(a * q + b * y.numerator, c * q))
            g_vals.append(y)
            at.append(2 * i)
            cells.append(2 * i + 1 if rising else 2 * i - 1)
    pts.append(ONE)
    g_vals.append(ys[-1])
    at.append(slots[-1])
    return pts, g_vals, at, cells


def compose_pl(f: PLFunction, g: PLFunction) -> PLFunction:
    """Exact composition f(g(t)) for g mapping [0,1] into [0,1]."""
    pts, g_vals, at, _ = _preimage_refinement(g, f.breakpoints)
    bps, vals = f.breakpoints, f.values
    out = []
    for y, s in zip(g_vals, at):
        i = s >> 1
        if s & 1:
            # y lies inside f's segment i
            a, b, c = _line(bps[i], bps[i + 1], vals[i], vals[i + 1])
            q = y.denominator
            out.append(Fraction(a * q + b * y.numerator, c * q))
        else:
            out.append(vals[i])
    return PLFunction._from_kernel(pts, out)


def compose_step_pl(d: StepFunction, g: PLFunction) -> StepFunction:
    """Exact composition d(g(t)) as a step function.

    Finite because g is piecewise monotone; preserves lower
    semicontinuity of d.
    """
    pts, _, at, cells = _preimage_refinement(g, d.points)
    # d's value on each slot: point values on even slots, cells on odd ones
    by_slot = [None] * (2 * len(d.points) - 1)
    by_slot[::2], by_slot[1::2] = d.point_values, d.open_values
    return StepFunction._from_kernel(pts, [by_slot[s] for s in at], [by_slot[c] for c in cells])


def combine_steps(steps: Sequence[StepFunction],
                  op: Callable) -> StepFunction:
    """Pointwise combination op(v_1, ..., v_n) of several step functions."""
    if not steps:
        raise ValueError("nothing to combine")
    pts, samples = refine(*steps)
    point_vals = [op(*vs) for vs in zip(*(at for at, _, _ in samples))]
    open_vals = [op(*vs) for vs in zip(*(opens for _, opens, _ in samples))]
    return StepFunction.from_profile(pts, point_vals, open_vals)


def unit_weight() -> StepFunction:
    return StepFunction.constant(1)
