"""Exact calculus of piecewise-linear and step functions on [0,1].

A function stores its rational coordinates as reduced integer ``(num,
den)`` pairs, den > 0, and the kernels pass each other such pairs, left
unreduced where the next loop only sums or compares them; a
:class:`fractions.Fraction` is built only for what a caller reads.
Floats appear only as order keys with an exact fallback on ties.
Operations are pure and return canonical representations:
collinear interior breakpoints and equal-valued adjacent step pieces are
always merged, so ``==`` between two values is equality as functions on
[0,1].  One rule says who canonicalizes: outside input (the constructors,
``from_profile``, JSON) and ``combine_steps``, whose ``op`` is arbitrary,
are scanned point by point; every other kernel builds canonical terms
from the positions its refinement already holds.  A step function is
stored as its profile: its values at its breakpoints and on the open
cells between them, so an isolated point value differing from both
one-sided limits is just a point value.  Its pieces, with open/closed
endpoint flags and degenerate single-point pieces, are the form used for
JSON and witnesses.

Comparisons at open endpoints use one-sided limits; a supremum that is
approached but not attained is reported with a limit flag pointing at
the endpoint it is approached from.
"""

from __future__ import annotations

import bisect
import functools
import math
import re
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Final, Iterable, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)
# 0 and 1 as stored pairs: the identity's breakpoints, and its values
_ENDS = ((0, 1), (1, 1))

# Fraction itself also reads decimals and exponents, and "1e-10000000"
# would cost it a 10^7-digit power before anything could refuse it
_RATIONAL_STR = re.compile(r"\s*[-+]?\d+(?:/\d+)?\s*")


def frac(x) -> Fraction:
    """Coerce ``x`` (Fraction, int, 'a/b' string, or [num, den] integer pair) to a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(*_reduced(x))


def _reduced(x) -> tuple:
    """The reduced terms ``(num, den)``, den > 0, of what :func:`frac` reads."""
    # pairs first: a Fraction check of anything else takes the slow ABC
    # path.  A JSON list and exact ints pass on their class alone; a bool
    # or an int subclass takes the isinstance checks.
    if (x.__class__ is list or isinstance(x, (list, tuple))) and len(x) == 2:
        num, den = x
        if (num.__class__ is not int or den.__class__ is not int) and (
                isinstance(num, bool) or isinstance(den, bool) or not (
                    isinstance(num, int) and isinstance(den, int))):
            raise TypeError(f"a [num, den] pair needs two integers, not {x!r}")
        if den > 0:
            g = math.gcd(num, den)
        elif den < 0:
            g = -math.gcd(num, den)
        else:
            raise ValueError(f"zero denominator in {x!r}")
        return num // g, den // g
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, str):
        if not _RATIONAL_STR.fullmatch(x):
            raise ValueError(f"{x!r} is not an integer or a/b rational")
        try:
            x = Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {x!r}") from None
        return x.numerator, x.denominator
    raise TypeError(f"cannot interpret {x!r} as a rational")


def json_bool(x, what: str) -> bool:
    """``x`` if it is a JSON boolean; anything else is a schema error."""
    if not isinstance(x, bool):
        raise TypeError(f"{what} must be a JSON boolean, not {x!r}")
    return x


def _json_type(x) -> str:
    """The JSON type of ``x`` that schema messages name; a boolean is not a number."""
    types = ((type(None), "null"), (bool, "boolean"), ((int, float), "number"),
             (str, "string"), ((list, tuple), "array"), (dict, "object"))
    return next((name for t, name in types if isinstance(x, t)), type(x).__name__)


def json_obj(x, what: str) -> dict:
    """``x`` if it is a JSON object; anything else is a schema error."""
    if not isinstance(x, dict):
        raise TypeError(f"{what} must be a JSON object, not {_json_type(x)}")
    return x


def json_int(x, what: str) -> int:
    """``x`` if it is a JSON integer (not a boolean, not a float)."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be a JSON integer, not {x!r}")
    return x


def json_number(x, what: str) -> float:
    """``x`` as a float if it is a JSON number (an integer or a float)."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise TypeError(f"{what} must be a JSON number, not a boolean, string, null or array: {x!r}")
    return float(x)


def json_list(x, what: str) -> list:
    """``x`` if it is a JSON array; a string or an object is a schema error."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} must be a JSON array, not {_json_type(x)}")
    return x


def json_entries(obj: dict, key: str, read) -> tuple:
    """``read`` of each JSON object in the array ``obj[key]``, refused by the field's name."""
    entry = f"each entry of {key}"
    return tuple([read(json_obj(e, entry)) for e in json_list(obj[key], key)])


def json_pair(x, what: str) -> list:
    """``x`` if it is a JSON array of exactly two entries."""
    if len(json_list(x, what)) != 2:
        raise ValueError(f"{what} must have two entries, not {len(x)}")
    return x


def frac_pair(x: Fraction) -> list:
    """Encode a Fraction as a reduced [numerator, denominator] pair."""
    return [x.numerator, x.denominator]


def json_form(x):
    """The JSON form of an exact answer: a ``Fraction`` is a ``[num, den]``
    pair, a tuple or list an array, anything with a ``to_json`` its own
    form, a dict its values' forms, ``math.inf`` the token ``"inf"``, and
    anything else (booleans, integers, strings, ``None``) itself."""
    # a record's common fields first; Fraction by class, as a miss on its ABC costs 300 ns
    if x.__class__ is Fraction:
        return frac_pair(x)
    if isinstance(x, (list, tuple)):
        return [json_form(v) for v in x]
    if hasattr(x, "to_json"):
        return x.to_json()
    if isinstance(x, dict):
        return {k: json_form(v) for k, v in x.items()}
    if x == math.inf:
        return "inf"
    return x


class Frozen:
    """Named fields, fixed once ``__init__`` has set them: a class's own
    annotated names, in order, with the class attribute of a name as its
    default.  ``__init__`` takes them positionally or by name, save one
    annotated ``Final``, a constant read from the class, then runs the
    class's ``__post_init__``, if any, which may set through ``vars`` or
    ``object.__setattr__``.  Equality and the hash read the fields; the
    repr is a dataclass's, less the fields named in ``_unshown``."""

    _unshown = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        notes = cls.__annotations__
        cls._fields = tuple(notes)
        names = tuple(name for name, note in notes.items() if note not in ("Final", Final))
        # defaults follow the fields without one: for each number of
        # positional arguments __init__ takes, the defaults after them
        defaults = [vars(cls)[name] for name in names if name in vars(cls)]
        first = len(names) - len(defaults)
        tails = {first + i: tuple(defaults[i:]) for i in range(len(defaults) + 1)}
        post, store = getattr(cls, "__post_init__", None), object.__setattr__

        def __init__(self, *args, **kwargs):
            tail = tails.get(len(args))
            if kwargs or tail is None:
                # dict() refuses a field given twice
                given = dict(zip(names[first:], defaults), **dict(zip(names, args)), **kwargs)
                if args[len(names):] or given.keys() != set(names):
                    raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, each once")
                args, tail = tuple(map(given.__getitem__, names)), ()
            # as a dataclass stores them: from Python 3.11 on the values
            # stay inline, smaller and faster to read than a dict
            for name, value in zip(names, args + tail):
                store(self, name, value)
            if post is not None:
                post(self)

        if "__init__" not in vars(cls):
            cls.__init__ = __init__

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields
                          if name not in self._unshown)
        return f"{self.__class__.__qualname__}({shown})"


def field_names(record) -> tuple:
    """The field names of a :class:`Frozen` class or instance, in order."""
    return record._fields


class Record(Frozen):
    """Frozen fields whose JSON form is the fields, by name.

    Each field is written by :func:`json_form`.  The field names are the
    JSON keys, so a field added to a record reaches stdout.
    """

    def to_json(self) -> dict:
        return {name: json_form(getattr(self, name)) for name in self._fields}


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
        lo, hi = frac(self.lo), frac(self.hi)
        _check_interval(_reduced(lo), _reduced(hi), self.lo_closed, self.hi_closed)
        vars(self).update(lo=lo, hi=hi)

    @property
    def is_point(self) -> bool:
        return (self.lo.numerator, self.lo.denominator) == (self.hi.numerator, self.hi.denominator)

    def sample(self) -> Fraction:
        """A point guaranteed to lie in the interval."""
        if self.is_point:
            return self.lo
        return (self.lo + self.hi) / 2

    @classmethod
    def from_json(cls, obj: dict) -> "Interval":
        lo, hi, lo_closed, hi_closed = _interval_json(obj)
        return cls(Fraction(*lo), Fraction(*hi), lo_closed, hi_closed)


def _check_interval(lo: tuple, hi: tuple, lo_closed: bool, hi_closed: bool) -> None:
    """Refuse reduced ends and flags that make no :class:`Interval`."""
    order = lo[0] * hi[1] - hi[0] * lo[1]
    if order > 0:
        raise ValueError(f"empty interval: lo={Fraction(*lo)} > hi={Fraction(*hi)}")
    if order == 0 and not (lo_closed and hi_closed):
        raise ValueError("a single-point interval must be closed on both sides")


def _interval_json(obj: dict) -> tuple:
    """An interval's JSON as reduced ends and flags, checked; each is read
    in turn, so the first defect is the one reported."""
    lo, hi = _reduced(obj["lo"]), _reduced(obj["hi"])
    flags = json_bool(obj["lo_closed"], "lo_closed"), json_bool(obj["hi_closed"], "hi_closed")
    _check_interval(lo, hi, *flags)
    return (lo, hi, *flags)


class Piece(Frozen):
    interval: Interval
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", frac(self.value))


class _Stored(Frozen):
    """A function stored as reduced pairs: ``_stored`` names the attributes
    holding the terms of the fields ``_public``, whose tuples of Fractions
    are built on first read, as the repr reads them.  Equality, the hash
    and ``eval`` read the terms, so they build no such tuple.  ``_store``
    canonicalizes outside input, the output of ``combine_steps`` and the f'
    and sigma that ``existence`` builds from jump windows; every other
    kernel builds canonical terms and stores them through ``_from_canonical``."""

    def __getattr__(self, name):
        # reached only for a missing attribute: a public tuple not built yet
        try:
            terms = vars(self)[self._stored[self._public.index(name)]]
        except (ValueError, KeyError):
            raise AttributeError(name) from None
        vars(self)[name] = out = tuple(Fraction(n, d) for n, d in terms)
        return out

    @classmethod
    def _from_canonical(cls, *terms):
        """Build from canonical terms of reduced pairs a kernel made, as they are."""
        self = object.__new__(cls)
        vars(self).update(zip(cls._stored, map(tuple, terms)))
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        own, theirs = vars(self), vars(other)
        return all(own[s] == theirs[s] for s in self._stored)

    def __hash__(self):
        # once: patterns count their eigenfunctions often
        own = vars(self)
        if "_hash" not in own:
            own["_hash"] = hash(tuple(own[s] for s in self._stored))
        return own["_hash"]


class StepFunction(_Stored):
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
    _public, _stored = ("points", "point_values", "open_values"), ("_pts", "_vals", "_opens")

    def __init__(self, pieces):
        pieces = [(p.interval, p.value) if isinstance(p, Piece) else p for p in pieces]
        self._tile([(_reduced(iv.lo), _reduced(iv.hi), iv.lo_closed, iv.hi_closed, _reduced(v))
                    for iv, v in pieces])

    def _tile(self, runs: list) -> "StepFunction":
        """Check that pieces, as reduced ``(lo, hi, lo_closed, hi_closed,
        value)``, tile [0,1] exactly once, and store their profile; returns ``self``."""
        if not runs:
            raise ValueError("a step function needs at least one piece")
        # runs that meet end to end already have nondecreasing keys, which
        # the stable sort would leave as they are
        if any(r[1] != s[0] for r, s in zip(runs, runs[1:])):
            # float keys, exact on equal floats
            runs.sort(key=lambda r: (r[0][0] / r[0][1], _by_value(r[0]), not r[2]))
        if runs[0][0][0] != 0 or not runs[0][2]:
            raise ValueError("pieces must start at 0 (closed)")
        if runs[-1][1] != (1, 1) or not runs[-1][3]:
            raise ValueError("pieces must end at 1 (closed)")
        for (_, hi, _, hi_closed, _), (lo, _, lo_closed, _, _) in zip(runs, runs[1:]):
            if hi != lo:
                raise ValueError(f"pieces do not tile [0,1]: gap or overlap at "
                                 f"{Fraction(*hi)} vs {Fraction(*lo)}")
            if hi_closed == lo_closed:
                raise ValueError(f"endpoint {Fraction(*hi)} covered "
                                 f"{'twice' if hi_closed else 'by no piece'}")
        # the tiling covers each endpoint once, by a closed side
        points, point_values, open_values = [(0, 1)], [], []
        for lo, hi, lo_closed, hi_closed, value in runs:
            if lo_closed:
                point_values.append(value)
            if lo != hi:
                points.append(hi)
                open_values.append(value)
                if hi_closed:
                    point_values.append(value)
        return self._store(points, point_values, open_values)

    def _store(self, points, point_values, open_values) -> "StepFunction":
        """Store a valid profile of reduced pairs in canonical form; returns ``self``."""
        pts, vals, opens = [points[0]], [point_values[0]], []
        for t, v, cell in zip(points[1:], point_values[1:], open_values):
            if opens and opens[-1] == vals[-1] == cell:
                # the previous point changes nothing: widen its left cell
                pts.pop()
                vals.pop()
            else:
                opens.append(cell)
            pts.append(t)
            vals.append(v)
        vars(self).update(_pts=tuple(pts), _vals=tuple(vals), _opens=tuple(opens))
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
        if len(points) < 2 or _reduced(points[0]) != (0, 1) or _reduced(points[-1]) != (1, 1):
            raise ValueError("profile points must start at 0 and end at 1")
        pts, vals, opens = [(0, 1)], [_reduced(point_values[0])], []
        for t, v, cell in zip(points[1:], point_values[1:], open_values):
            t, v, cell = _reduced(t), _reduced(v), _reduced(cell)
            if t[0] * pts[-1][1] <= pts[-1][0] * t[1]:
                raise ValueError("profile points must be strictly increasing")
            pts.append(t)
            vals.append(v)
            opens.append(cell)
        return object.__new__(cls)._store(pts, vals, opens)

    def _runs(self):
        """The maximal constant intervals, in order, as (lo, hi, lo_closed,
        hi_closed, value) with ends and value as reduced pairs."""
        pts, vals, opens = self._pts, self._vals, self._opens
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
        return tuple(Piece(Interval(Fraction(*lo), Fraction(*hi), lc, hc), Fraction(*v))
                     for lo, hi, lc, hc, v in self._runs())

    def eval(self, t) -> Fraction:
        """Exact value at t: its point value, or the value of its open cell."""
        t = frac(t)
        if t < ZERO or t > ONE:
            raise ValueError(f"t={t} outside [0,1]")
        i = bisect.bisect_left(self._pts, t, key=lambda p: Fraction(*p))
        return Fraction(*(self._vals[i] if self._pts[i] == (t.numerator, t.denominator)
                          else self._opens[i - 1]))

    def partition_points(self) -> tuple:
        return self.points

    def max_value(self) -> Fraction:
        return Fraction(*max(self._vals + self._opens, key=_by_value))

    def scale(self, c) -> "StepFunction":
        return linear_combine_steps([c], [self])

    def jumps(self) -> tuple:
        """Discontinuity records (t, left limit, value, right limit).

        Limits are None beyond the endpoints 0 and 1.
        """
        opens = self.open_values
        return tuple(Jump(t, left, v, right) for t, left, v, right
                     in zip(self.points, (None, *opens), self.point_values, (*opens, None))
                     if (left is not None and left != v) or (right is not None and right != v))

    def to_json(self) -> dict:
        return {"kind": "step", "pieces": [
            {"lo": list(lo), "hi": list(hi), "lo_closed": lc, "hi_closed": hc, "value": list(v)}
            for lo, hi, lc, hc, v in self._runs()
        ]}

    @classmethod
    def from_json(cls, obj: dict) -> "StepFunction":
        if json_obj(obj, "a step function").get("kind") != "step":
            raise ValueError("not a step-function payload")
        runs = []
        for p in json_list(obj["pieces"], "pieces"):
            p = json_obj(p, "each entry of pieces")
            runs.append((*_interval_json(p), _reduced(p["value"])))
        return object.__new__(cls)._tile(runs)


class Jump(Frozen):
    t: Fraction
    left: Union[Fraction, None]
    value: Fraction
    right: Union[Fraction, None]

    # its fields by name, as a Record writes them (no CLI answer is a Jump)
    to_json = Record.to_json


class PLFunction(_Stored):
    """A continuous piecewise-linear function on [0,1].

    ``breakpoints`` is strictly increasing from 0 to 1; between
    consecutive breakpoints the function interpolates linearly.
    Collinear interior breakpoints are removed on construction.
    """

    breakpoints: tuple
    values: tuple
    _public, _stored = ("breakpoints", "values"), ("_pts", "_vals")

    def __post_init__(self):
        own = vars(self)
        bps = tuple(map(_reduced, own.pop("breakpoints")))
        vals = tuple(map(_reduced, own.pop("values")))
        if len(bps) != len(vals):
            raise ValueError("breakpoints and values must have equal length")
        self._store(bps, vals)

    def _store(self, bps, vals) -> "PLFunction":
        """Store as many reduced breakpoints and values, the breakpoints
        strictly increasing from 0 to 1, without collinear interior points;
        returns ``self``."""
        if len(bps) < 2:
            raise ValueError("need at least the two endpoints 0 and 1")
        if bps[0] != (0, 1) or bps[-1] != (1, 1):
            raise ValueError("breakpoints must start at 0 and end at 1")
        # The last kept point is always the previous input point, so the
        # slope into the current point is the slope of the segment it would
        # extend; equal slopes drop the previous point.  Kept points are
        # never collinear, so nothing before it can drop too.  Slopes are
        # integer ratios num/den with den > 0 exactly when t increases.
        kept_t, kept_v = [bps[0]], [vals[0]]
        (pn, pd), (qn, qd) = bps[0], vals[0]
        sn = sd = 0
        for t, v in zip(bps[1:], vals[1:]):
            (tn, td), (vn, vd) = t, v
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
        vars(self).update(_pts=tuple(kept_t), _vals=tuple(kept_v))
        return self

    @classmethod
    def constant(cls, v) -> "PLFunction":
        return cls((ZERO, ONE), (v, v))

    @classmethod
    def identity(cls) -> "PLFunction":
        return cls((ZERO, ONE), (ZERO, ONE))

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "PLFunction":
        pairs = list(pairs)
        return cls(tuple(t for t, _ in pairs), tuple(v for _, v in pairs))

    def eval(self, t) -> Fraction:
        """Exact value at t by linear interpolation."""
        t = frac(t)
        if t < ZERO or t > ONE:
            raise ValueError(f"t={t} outside [0,1]")
        bps, vals = self._pts, self._vals
        i = bisect.bisect_right(bps, t, key=lambda p: Fraction(*p)) - 1
        if i >= len(bps) - 1:
            return Fraction(*vals[-1])
        a, b, c = _line(bps[i], bps[i + 1], vals[i], vals[i + 1])
        return Fraction(a * t.denominator + b * t.numerator, c * t.denominator)

    def into_unit_interval(self) -> bool:
        # denominators are positive
        return all(0 <= n <= d for n, d in self._vals)

    def shift(self, c) -> "PLFunction":
        return linear_combine([1, c], [self, PLFunction.constant(1)])

    def scale(self, c) -> "PLFunction":
        return linear_combine([c], [self])

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return linear_combine([1, 1], [self, other])

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return linear_combine([1, -1], [self, other])

    def __neg__(self) -> "PLFunction":
        return self.scale(-1)

    def to_json(self) -> dict:
        return {"kind": "pl",
                "points": [[list(t), list(v)] for t, v in zip(self._pts, self._vals)]}

    @classmethod
    def from_json(cls, obj: dict) -> "PLFunction":
        if json_obj(obj, "a piecewise-linear function").get("kind") != "pl":
            raise ValueError("not a piecewise-linear payload")
        # as __post_init__ reads them: every entry's shape, then every
        # breakpoint, then every value, so the first defect is reported
        points = [json_pair(p, "each entry of points") for p in json_list(obj["points"], "points")]
        bps = [_reduced(t) for t, _ in points]
        return object.__new__(cls)._store(bps, [_reduced(v) for _, v in points])


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


def _merge(*fns, exact: bool = False) -> tuple:
    """:func:`merged_points` on reduced pairs.  Points sort by their floats,
    monotone as int/int division rounds correctly; terms order equal floats
    right only for equal values, so a merge meeting two values that share a
    float is redone on exact keys."""
    keys = []
    for i, f in enumerate(fns):
        if not isinstance(f, _Stored):
            raise TypeError(f"not a piecewise function: {f!r}")
        keys.extend((p[0] / p[1], p, i) for p in f._pts[1:-1])
    # each function's points are one sorted run, which sort() merges
    keys.sort(key=(lambda k: (k[0], Fraction(*k[1]), k[2])) if exact else None)
    pts, own = [(0, 1)], [[0] for _ in fns]
    lx, tied = 0.0, False
    for x, p, i in keys:
        if x != lx or p != pts[-1]:
            tied |= x == lx
            pts.append(p)
            lx = x
        own[i].append(len(pts) - 1)
    if tied and not exact:
        return _merge(*fns, exact=True)
    pts.append((1, 1))
    for pos in own:
        pos.append(len(pts) - 1)
    return pts, own


def merged_points(*fns: PiecewiseFunction) -> tuple:
    """Sorted union of all breakpoints / partition points, including 0 and 1.

    Returns ``(pts, own)``: ``own[i]`` gives the position in ``pts`` of each
    of ``fns[i]``'s own points, in order.  Every function starts at 0 and
    ends at 1, so only interior points are merged.
    """
    pts, own = _merge(*fns)
    return tuple(Fraction(n, d) for n, d in pts), own


def _line(x0: tuple, x1: tuple, y0: tuple, y1: tuple) -> tuple:
    """Integers ``(a, b, c)`` with ``c > 0`` such that the line through
    (x0, y0) and (x1, y1), x0 != x1, takes the value (a*q + b*p) / (c*q)
    at x = p/q."""
    (a0, b0), (a1, b1), (n0, d0), (n1, d1) = x0, x1, y0, y1
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
    bps, vals = f._pts, f._vals
    at = [vals[0]]
    for k in range(len(pos) - 1):
        if pos[k + 1] - pos[k] > 1:
            a, b, c = _line(bps[k], bps[k + 1], vals[k], vals[k + 1])
            at += [(a * q + b * p, c * q) for p, q in pts[pos[k] + 1:pos[k + 1]]]
        at.append(vals[k + 1])
    return at


def _walk_step(vals, opens, pos) -> tuple:
    """A step function's values at the merged points and on the cells
    between them, from its values ``vals`` at its own points, ``opens`` on
    its cells, and their positions ``pos``."""
    at, cells = [], []
    for v, cell, a, b in zip(vals, opens, pos, pos[1:]):
        at.append(v)
        at += [cell] * (b - a - 1)
        cells += [cell] * (b - a)
    at.append(vals[-1])
    return at, cells


def refine(*fns: PiecewiseFunction) -> tuple:
    """Sample functions on their merged refinement ``pts``.

    Returns ``(pts, samples)`` with one ``(at, above, below)`` triple of
    lists per function: ``at[i]`` is its value at ``pts[i]``, and
    ``above[i]``, ``below[i]`` its limits at ``pts[i]+`` and ``pts[i+1]-``,
    which determine it on that cell since it is linear there, all integer
    pairs (the points reduced).  Every exact comparison in this module
    samples its functions through here, walking each once along ``pts`` by
    the positions of its own points in it.
    """
    pts, own = _merge(*fns)
    samples = []
    for f, pos in zip(fns, own):
        if isinstance(f, PLFunction):
            at = _walk_pl(f, pts, pos)
            samples.append((at, at[:-1], at[1:]))
        else:
            at, cells = _walk_step(f._vals, f._opens, pos)
            samples.append((at, cells, cells))
    return pts, samples


class LeResult(Record):
    holds: bool
    witness: Union[Fraction, None] = None

    def __bool__(self) -> bool:
        return self.holds


def _violation_point(a, b, hA, hB, allow_equal):
    """A point of (a,b) where the linear h with limits (hA,hB) is > 0 (or >= 0)."""
    if (allow_equal and hA == 0 and hB == 0) or (hA > 0 and hB > 0):
        return (a + b) / 2
    if hA > 0 or hB > 0:
        root = a + (b - a) * hA / (hA - hB)
        return (a + root) / 2 if hA > 0 else (root + b) / 2
    return None


def _sign_of_difference(x: tuple, y: tuple) -> int:
    """The sign of x - y, from cross-multiplied integer pairs."""
    lhs, rhs = x[0] * y[1], y[0] * x[1]
    return (lhs > rhs) - (lhs < rhs)


_by_value = functools.cmp_to_key(_sign_of_difference)


def le_pointwise(f: PiecewiseFunction, g: PiecewiseFunction,
                 strict: bool = False) -> LeResult:
    """Exact pointwise comparison f <= g (or f < g when ``strict``).

    On failure the witness is a point t with f(t) > g(t) (>= for strict).
    """
    pts, ((f_at, f_above, f_below), (g_at, g_above, g_below)) = refine(f, g)
    for t, fv, gv in zip(pts, f_at, g_at):
        d = _sign_of_difference(fv, gv)
        if d > 0 or (strict and d == 0):
            return LeResult(False, Fraction(*t))
    cells = zip(pts, pts[1:], f_above, f_below, g_above, g_below)
    for a, b, fa, fb, ga, gb in cells:
        sA, sB = _sign_of_difference(fa, ga), _sign_of_difference(fb, gb)
        if sA > 0 or sB > 0 or (strict and sA == 0 and sB == 0):
            # only the failing cell becomes Fractions
            a, b, fa, fb, ga, gb = (Fraction(*x) for x in (a, b, fa, fb, ga, gb))
            return LeResult(False, _violation_point(a, b, fa - ga, fb - gb, strict))
    return LeResult(True, None)


AT = "at"
ABOVE = "above"   # one-sided limit approaching the point from above
BELOW = "below"   # one-sided limit approaching the point from below


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
    den, t, side)`` with the winner's point t a Fraction.
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
        (pn, pd), (qn, qd) = pts[won], pts[won + 1]
        return bn, bd, Fraction(pn * qd + qn * pd, 2 * pd * qd), AT
    return bn, bd, Fraction(*pts[won]), side


def ensure_positive_weight(w: StepFunction) -> None:
    """Refuse ``w`` unless it is a step function whose every value is strictly positive."""
    if not isinstance(w, StepFunction):
        raise TypeError("weights are step functions")
    if any(n <= 0 for n, _ in w._vals + w._opens):
        raise ValueError("weights must be strictly positive")


def weighted_sup_norm(f: PLFunction, w: StepFunction) -> Extremum:
    """Exact supremum of |f(t)| / w(t) over [0,1].

    The weight must be strictly positive.  The supremum is attained at a
    merged breakpoint or approached as a one-sided limit at an open
    piece endpoint; ``side`` records which.
    """
    if not isinstance(f, PLFunction):
        raise TypeError("weighted_sup_norm expects a piecewise-linear function")
    ensure_positive_weight(w)
    pts, ((h, _, _), (w_at, w_open, _)) = refine(f, w)
    # |f| / w as (|fn| * wd) / (fd * wn), with wn > 0
    at = [(abs(fn) * wd, fd * wn) for (fn, fd), (wn, wd) in zip(h, w_at)]
    above = [(abs(fn) * wd, fd * wn) for (fn, fd), (wn, wd) in zip(h, w_open)]
    below = [(abs(fn) * wd, fd * wn) for (fn, fd), (wn, wd) in zip(h[1:], w_open)]
    num, den, t, side = _sup_scan(pts, at, above, below, h, h[1:])
    return Extremum(Fraction(num, den), t, side)


def _largest(ratios) -> Fraction:
    """The largest of integer ratios ``(n, d)`` with n >= 0 and d > 0, or 0."""
    bn, bd = 0, 1
    for n, d in ratios:
        if n * bd > bn * d:
            bn, bd = n, d
    return Fraction(bn, bd)


def sup_distance(f: PLFunction, g: PLFunction) -> Fraction:
    """Exact sup |f(t) - g(t)| over [0,1]: f - g is linear between the
    merged points, so the largest gap at one of them is the supremum."""
    if not (isinstance(f, PLFunction) and isinstance(g, PLFunction)):
        raise TypeError("sup_distance compares piecewise-linear functions")
    _, ((f_at, _, _), (g_at, _, _)) = refine(f, g)
    return _largest((abs(fn * gd - gn * fd), fd * gd) for (fn, fd), (gn, gd) in zip(f_at, g_at))


def inf_difference(upper: PiecewiseFunction, lower: PiecewiseFunction) -> Extremum:
    """Exact infimum of upper(t) - lower(t) over [0,1], with attainment info."""
    pts, (u, l) = refine(upper, lower)
    # the supremum of lower - upper, as unreduced integer pairs
    at, above, below = (
        [(yn * xd - xn * yd, xd * yd) for (xn, xd), (yn, yd) in zip(us, ls)]
        for us, ls in zip(u, l)
    )
    num, den, t, side = _sup_scan(pts, at, above, below, above, below)
    return Extremum(Fraction(-num, den), t, side)


def is_lsc(d: StepFunction) -> LeResult:
    """Check lower semicontinuity: no point value exceeds a one-sided limit."""
    pts, vals, opens = d._pts, d._vals, d._opens
    for i, t in enumerate(pts):
        if (i > 0 and _sign_of_difference(vals[i], opens[i - 1]) > 0) or (
                i + 1 < len(pts) and _sign_of_difference(vals[i], opens[i]) > 0):
            return LeResult(False, Fraction(*t))
    return LeResult(True, None)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _plus(x: tuple, n: int, d: int) -> tuple:
    """The reduced terms of x + n/d, for x a pair and d > 0."""
    xn, xd = x
    n, d = xn * d + n * xd, xd * d
    g = math.gcd(n, d)
    return n // g, d // g


def _sum_events(coeffs: Sequence, fns: Sequence, cells: bool) -> tuple:
    """``_merge(*fns)``'s points and positions, the value at 0 of sum(c_i *
    f_i) over PL f_i, and the events where the sum changes, by position:
    at f_i's own points, c_i times the change of its slope or, when
    ``cells``, of its value to the point and to the cell after.  Sums are
    reduced as made."""
    if not coeffs or not fns:
        raise ValueError("empty linear combination")
    if len(coeffs) != len(fns):
        raise ValueError("coefficient/function count mismatch")
    terms = [_reduced(c) for c in coeffs]
    pts, own = _merge(*fns)
    events, value = {}, (0, 1)
    for (cn, cd), f, pos in zip(terms, fns, own):
        if not cn:
            continue
        if cells:
            for j, (vn, vd), (bn, bd), (an, ad) in zip(
                    pos, f._vals, ((0, 1), *f._opens), (*f._opens, (0, 1))):
                at = cn * (vn * bd - bn * vd), cd * vd * bd
                after = cn * (an * bd - bn * ad), cd * ad * bd
                if j in events:
                    at, after = _plus(events[j][0], *at), _plus(events[j][1], *after)
                events[j] = at, after
            continue
        value = _plus(value, cn * f._vals[0][0], cd * f._vals[0][1])
        sn, sd = 0, 1
        for j, (t0n, t0d), (t1n, t1d), (v0n, v0d), (v1n, v1d) in zip(
                pos, f._pts, f._pts[1:], f._vals, f._vals[1:]):
            n = cn * (v1n * v0d - v0n * v1d) * t0d * t1d
            d = cd * v0d * v1d * (t1n * t0d - t0n * t1d)
            change = n * sd - sn * d, d * sd
            events[j] = _plus(events[j], *change) if j in events else change
            sn, sd = n, d
    return pts, own, value, events


def _weighted_sums(coeffs: Sequence, fns: Sequence) -> tuple:
    """``_merge(*fns)``'s points and positions, sum(c_i * f_i) at each
    point over PL f_i, and the positions its canonical form keeps: the two
    ends and each point where the summed slope changes.  One sweep changes
    the slope only at the events of :func:`_sum_events`."""
    pts, own, value, events = _sum_events(coeffs, fns, cells=False)
    # the value moves by the summed slope times the length of each cell
    out, (sn, sd), kept = [value], (0, 1), [0]
    for j, ((an, ad), (bn, bd)) in enumerate(zip(pts, pts[1:])):
        change = events.get(j)
        if change and change[0]:
            sn, sd = _plus((sn, sd), *change)
            if j:
                kept.append(j)
        if sn:
            value = _plus(value, sn * (bn * ad - an * bd), sd * ad * bd)
        out.append(value)
    kept.append(len(pts) - 1)
    return pts, own, out, kept


def linear_combine(coeffs: Sequence, fns: Sequence[PLFunction]) -> PLFunction:
    """Exact pointwise linear combination sum(c_i * f_i)."""
    if not all(isinstance(f, PLFunction) for f in fns):
        raise TypeError("linear_combine combines piecewise-linear functions")
    pts, _, sums, kept = _weighted_sums(coeffs, fns)
    pick = itemgetter(*kept)  # kept holds both ends, so pick gives tuples
    return PLFunction._from_canonical(pick(pts), pick(sums))


def _weighted_sup_of_sum(coeffs: Sequence, fns: Sequence[PLFunction], w: StepFunction) -> Fraction:
    """Exact sup |sum(c_i * f_i)| / w over PL f_i (0 for no terms), the value
    of ``weighted_sup_norm(linear_combine(coeffs, fns), w)`` read off one
    sweep that also merges w's points: the sum is linear and w constant
    between them, so the candidates are |sum| / w at each point and |sum| at
    both ends of each cell over the cell's weight."""
    ensure_positive_weight(w)
    # w, with coefficient 0, adds its points and no events
    _, own, sums, _ = _weighted_sums([*coeffs, 0], [*fns, w])
    at, cells = _walk_step(w._vals, w._opens, own[-1])
    return _largest((abs(hn) * wd, hd * wn) for (hn, hd), (wn, wd) in chain(
        zip(sums, at), zip(sums, cells), zip(sums[1:], cells)))


def linear_combine_steps(coeffs: Sequence, steps: Sequence[StepFunction]) -> StepFunction:
    """Exact pointwise linear combination sum(c_i * s_i) of step functions."""
    if not all(isinstance(s, StepFunction) for s in steps):
        raise TypeError("linear_combine_steps combines step functions")
    pts, _, _, events = _sum_events(coeffs, steps, cells=True)
    last, no_change = len(pts) - 1, ((0, 1), (0, 1))
    kept, point, cell, value = [], [], [], (0, 1)
    for j, t in enumerate(pts):
        at, after = events.get(j, no_change)
        # a point changes nothing exactly when neither its value nor the
        # cell after it moves the running sum, whose reduced terms are kept
        if at[0] or after[0] or not 0 < j < last:
            kept.append(t)
            point.append(_plus(value, *at) if at[0] else value)
            value = _plus(value, *after) if after[0] else value
            cell.append(value)
    return StepFunction._from_canonical(kept, point, cell[:-1])


def _preimage_refinement(g: PLFunction, targets: Sequence) -> tuple:
    """g's breakpoints and the preimages of ``targets``, in increasing order.

    Points and values are reduced pairs, ``targets`` strictly increasing
    from 0 to 1.  A value is placed by its slot: slot 2i is ``targets[i]``
    and slot 2i+1 the open gap after it.  Returns ``(pts, g_vals, at,
    cells, own)``: ``g_vals[k]`` is g's value at ``pts[k]`` and ``at[k]``
    its slot, ``cells[k]`` the slot of the open cell after ``pts[k]``, and
    ``own`` the positions of g's interior breakpoints in ``pts``.  One
    bisect over the targets' floats places each value of g, which also
    checks that g maps into [0,1]; a segment's preimages are the targets
    strictly between its two end slots, emitted in t-order.
    """
    xs, top = [n / d for n, d in targets], 2 * len(targets) - 2
    slots = []
    for y in g._vals:
        yn, yd = y
        x = yn / yd
        r = bisect.bisect_right(xs, x)
        s = 2 * r - 1
        if r and xs[r - 1] == x:
            # the targets sharing y's float are placed exactly: r counts
            # those <= y, and y is the last of them or in the gap after it
            lo = bisect.bisect_left(xs, x, 0, r)
            r = lo + sum(tn * yd <= yn * td for tn, td in targets[lo:r])
            s = 2 * r - 1 - (r > lo and targets[r - 1] == y)
        if not 0 <= s <= top:
            raise ValueError("inner function must map [0,1] into [0,1]")
        slots.append(s)
    bps, ys = g._pts, g._vals
    pts, g_vals, at, cells, own = [], [], [], [], []
    for t0, t1, y0, y1, s0, s1 in zip(bps, bps[1:], ys, ys[1:], slots, slots[1:]):
        own.append(len(pts))
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
            p, q = targets[i]
            n, d = a * q + b * p, c * q
            k = math.gcd(n, d)
            pts.append((n // k, d // k))
            g_vals.append(targets[i])
            at.append(2 * i)
            cells.append(2 * i + 1 if rising else 2 * i - 1)
    pts.append((1, 1))
    g_vals.append(ys[-1])
    at.append(slots[-1])
    # the first position is 0's
    return pts, g_vals, at, cells, own[1:]


def compose_pl(f: PLFunction, g: PLFunction) -> PLFunction:
    """Exact composition f(g(t)) for g mapping [0,1] into [0,1].

    The identity on either side gives back the other operand (g if both):
    its points 0 and 1 split no segment of g, and its preimages are f's own.
    """
    if f._vals == _ENDS == f._pts:
        # the refinement's range check, read off g's stored terms
        if not all(0 <= n <= d for n, d in g._vals):
            raise ValueError("inner function must map [0,1] into [0,1]")
        return g
    if g._vals == _ENDS == g._pts:
        return f
    pts, g_vals, at, _, own = _preimage_refinement(g, f._pts)
    bps, vals = f._pts, f._vals
    out = []
    for (p, q), s in zip(g_vals, at):
        i = s >> 1
        if s & 1:
            # y lies inside f's segment i
            a, b, c = _line(bps[i], bps[i + 1], vals[i], vals[i + 1])
            n, d = a * q + b * p, c * q
            k = math.gcd(n, d)
            out.append((n // k, d // k))
        else:
            out.append(vals[i])
    # f's slopes differ at a preimage inside a segment of g, whose slope is
    # not 0 there: only g's own interior points may be no bend of f(g)
    lost = [k for k in own if _collinear(pts, out, k)]
    for k in reversed(lost):
        del pts[k], out[k]
    return PLFunction._from_canonical(pts, out)


def compose_step_pl(d: StepFunction, g: PLFunction) -> StepFunction:
    """Exact composition d(g(t)) as a step function.

    Finite because g is piecewise monotone; preserves lower
    semicontinuity of d.  An identity g returns d itself.
    """
    if g._vals == _ENDS == g._pts:
        return d
    pts, _, at, cells, own = _preimage_refinement(g, d._pts)
    # d's value on each slot: point values on even slots, cells on odd ones
    by_slot = [None] * (2 * len(d._pts) - 1)
    by_slot[::2], by_slot[1::2] = d._vals, d._opens
    vals, opens = [by_slot[s] for s in at], [by_slot[c] for c in cells]
    # a preimage inside a segment of g is an interior point of d, which d
    # keeps: only g's own interior points may change nothing
    lost = [k for k in own if opens[k - 1] == vals[k] == opens[k]]
    for k in reversed(lost):
        del pts[k], vals[k], opens[k]
    return StepFunction._from_canonical(pts, vals, opens)


def _collinear(pts: list, vals: list, k: int) -> bool:
    """Whether the PL function through ``pts``, ``vals`` has equal slopes on
    either side of the interior position ``k``, by cross-multiplying."""
    (an, ad), (bn, bd), (cn, cd) = pts[k - 1:k + 2]
    (un, ud), (vn, vd), (wn, wd) = vals[k - 1:k + 2]
    # (v - u) / (b - a) == (w - v) / (c - b), cross-multiplied, less the common factor bd * vd
    return ((vn * ud - un * vd) * ad * wd * (cn * bd - bn * cd)
            == (wn * vd - vn * wd) * cd * ud * (bn * ad - an * bd))


def combine_steps(steps: Sequence[StepFunction],
                  op: Callable) -> StepFunction:
    """Pointwise combination op(v_1, ..., v_n) of several step functions."""
    if not steps:
        raise ValueError("nothing to combine")
    pts, own = _merge(*steps)
    walks = [_walk_step(s.point_values, s.open_values, pos) for s, pos in zip(steps, own)]
    at, on_cells = zip(*(at for at, _ in walks)), zip(*(cells for _, cells in walks))
    # op is arbitrary, so its output is scanned
    return object.__new__(StepFunction)._store(pts, [_reduced(op(*vs)) for vs in at],
                                               [_reduced(op(*vs)) for vs in on_cells])
