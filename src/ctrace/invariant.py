"""Finite models for the range-of-invariant computations.

The cone side is modeled by a simplex base with finitely many extreme
points; a trace-norm map assigns each extreme point a positive rational
or +infinity and extends affinely (infinity absorbs along positive
coordinates).  The group side is a dense (Q) or discrete (q*Z) subgroup
of the rationals on which each extreme state acts by a positive
rational rate.  On these models the dimension range, the
largest-element criterion for interval-algebra limits, the capped
decomposition of a lower-semicontinuous map, and the quadrant
classification of trace-norm pairs are all computable in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence, Union

from .pwcalc import Record, frac, frac_pair, json_form, json_int, json_list

INF = math.inf

ExtRational = Union[Fraction, float]


def ext(x) -> ExtRational:
    """Coerce to a Fraction or +infinity ('inf' token, math.inf)."""
    if isinstance(x, float):
        if x == INF:
            return INF
        raise TypeError("finite values must be exact rationals")
    if isinstance(x, str) and x.strip().lower() in ("inf", "+inf", "infinity"):
        return INF
    return frac(x)


def json_ext(x, what: str) -> ExtRational:
    """:func:`ext` of a JSON value, where only the 'inf' token is infinite:
    a float (JSON reads 1e400 as one) is a schema error."""
    if isinstance(x, float):
        raise TypeError(f"{what} must hold rationals or 'inf', not the float {x!r}")
    return ext(x)


def is_finite(x: ExtRational) -> bool:
    return x != INF


@dataclass(frozen=True)
class SimplexModel(Record):
    """Base of the trace cone with k extreme points."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one extreme point")

    def validate_barycentric(self, s: Sequence) -> tuple:
        coords = tuple(frac(c) for c in s)
        if len(coords) != self.k:
            raise ValueError(f"expected {self.k} coordinates, got {len(coords)}")
        if any(c < 0 for c in coords):
            raise ValueError("barycentric coordinates must be nonnegative")
        if sum(coords) != 1:
            raise ValueError("barycentric coordinates must sum to 1")
        return coords

    @classmethod
    def from_json(cls, obj: dict) -> "SimplexModel":
        return cls(json_int(obj["k"], "k"))


@dataclass(frozen=True)
class TraceNormMap:
    """Affine map on the simplex given by strictly positive vertex values,
    each a rational or +infinity."""

    vertex_values: tuple

    def __post_init__(self):
        vals = tuple(ext(v) for v in self.vertex_values)
        if not vals:
            raise ValueError("need at least one vertex value")
        if any(is_finite(v) and v <= 0 for v in vals):
            raise ValueError("vertex values must be strictly positive")
        vars(self).update(vertex_values=vals)

    @property
    def k(self) -> int:
        return len(self.vertex_values)

    def min_finite(self) -> Union[Fraction, None]:
        finite = [v for v in self.vertex_values if is_finite(v)]
        return min(finite) if finite else None

    def to_json(self) -> list:
        return json_form(self.vertex_values)

    @classmethod
    def from_json(cls, obj: Sequence) -> "TraceNormMap":
        # payloads call the map f; each value is checked and coerced as
        # __post_init__ reaches it, and JSON's float 1e400 is not infinity
        return cls(json_ext(v, "f") if isinstance(v, float) else v for v in json_list(obj, "f"))


def trace_norm_eval(f: TraceNormMap, s: Sequence) -> ExtRational:
    """Affine value at barycentric coordinates; +infinity absorbs on any
    vertex carried with positive weight."""
    simplex = SimplexModel(f.k)
    coords = simplex.validate_barycentric(s)
    if any(c > 0 and not is_finite(v) for c, v in zip(coords, f.vertex_values)):
        return INF
    return sum(
        (c * v for c, v in zip(coords, f.vertex_values) if c > 0), Fraction(0)
    )


class GroupKind(str, Enum):
    DENSE_RATIONALS = "Q"
    SCALED_INTEGERS = "qZ"


@dataclass(frozen=True)
class GroupModel:
    """A rational group (all of Q, or q*Z) with per-state action rates.

    State j evaluates x to rates[j] * x.  The order-unit condition
    (some element with a strictly positive state vector) holds exactly
    when every rate is positive; models violating it are representable
    but the closed-form criteria refuse to decide on them.
    """

    kind: GroupKind
    rates: tuple
    q: Union[Fraction, None] = None

    def __post_init__(self):
        # rates before kind: from_json passes its rows unread, and a
        # payload's first defect must be the one reported
        rates, kind, q = tuple(frac(r) for r in self.rates), GroupKind(self.kind), self.q
        if not rates:
            raise ValueError("need at least one state rate")
        if kind is GroupKind.SCALED_INTEGERS:
            if q is None:
                raise ValueError("scaled-integer groups need a scale q")
            q = frac(q)
            if q <= 0:
                raise ValueError("scale q must be positive")
        else:
            q = None
        vars(self).update(kind=kind, rates=rates, q=q)

    @property
    def k(self) -> int:
        return len(self.rates)

    def has_order_unit(self) -> bool:
        return all(r > 0 for r in self.rates)

    def contains(self, x: Fraction) -> bool:
        if self.kind is GroupKind.DENSE_RATIONALS:
            return True
        return (x / self.q).denominator == 1

    def state(self, j: int, x: Fraction) -> Fraction:
        return self.rates[j] * x

    def to_json(self) -> dict:
        out = {"kind": self.kind.value, "pairing": [[frac_pair(r)] for r in self.rates]}
        if self.q is not None:
            out["q"] = frac_pair(self.q)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GroupModel":
        rows = json_list(obj["pairing"], "pairing")

        def rates():
            for row in rows:
                if isinstance(row, (list, tuple)) and row and isinstance(row[0], (list, tuple)):
                    if len(row) != 1:
                        raise ValueError("pairing rows must have exactly one generator column")
                    row = row[0]
                yield row

        return cls(obj["kind"], rates(), obj.get("q"))


@dataclass(frozen=True)
class MembershipResult(Record):
    member: bool
    failing_vertex: Union[int, None] = None

    def __bool__(self) -> bool:
        return self.member


def dimension_range_membership(group: GroupModel, f: TraceNormMap, x,
                               require_positive: bool = True) -> MembershipResult:
    """Is x in the range D = {x in G : v(x) < f(v) for every nonzero state v}?

    Checking the extreme states suffices: a strict affine inequality on
    a simplex with the infinity-absorbing convention holds everywhere
    iff it holds at the extreme points.  By default x must additionally
    be nonnegative in the order induced by the states; pass
    ``require_positive=False`` for the literal, unfiltered set.
    """
    if group.k != f.k:
        raise ValueError("group and trace-norm map disagree on the state count")
    x = frac(x)
    if not group.contains(x):
        raise ValueError(f"{x} is not an element of the group")
    if require_positive:
        if any(group.state(j, x) < 0 for j in range(group.k)):
            return MembershipResult(False)
    for j in range(group.k):
        fj = f.vertex_values[j]
        if is_finite(fj) and not group.state(j, x) < fj:
            return MembershipResult(False, j)
    return MembershipResult(True)


class AiVerdict(str, Enum):
    AI = "AI"
    NOT_AI = "NOT_AI"
    NOT_DECIDABLE = "NOT_DECIDABLE"


@dataclass(frozen=True)
class VertexCheck(Record):
    f: ExtRational
    sup: Union[ExtRational, None]
    equal: bool


@dataclass(frozen=True)
class AiReport(Record):
    verdict: AiVerdict
    per_vertex: tuple = ()
    reason: Union[str, None] = None

    def __bool__(self) -> bool:
        return self.verdict is AiVerdict.AI


def _range_bound(group: GroupModel, f: TraceNormMap) -> ExtRational:
    """sup of the set {x : rate_j * x < f_j for all j} (infinity if unconstrained)."""
    return min((fj / r for fj, r in zip(f.vertex_values, group.rates) if is_finite(fj)),
               default=INF)


def ai_criterion(group: GroupModel, simplex: SimplexModel,
                 f: TraceNormMap) -> AiReport:
    """Decide whether f(v) = sup{v(g) : g in range} at every extreme point.

    Closed forms: over the dense rationals the supremum equals the
    binding bound; over q*Z it is the largest multiple of q strictly
    below the bound.  Models without a positive order unit are refused
    (NOT_DECIDABLE) rather than guessed at.
    """
    if not (group.k == simplex.k == f.k):
        raise ValueError("model components disagree on the state count")
    if not group.has_order_unit():
        return AiReport(
            AiVerdict.NOT_DECIDABLE,
            reason="no order unit: some state rate is not strictly positive",
        )
    top = _range_bound(group, f)
    if top != INF and group.kind is GroupKind.SCALED_INTEGERS:
        # the largest element of q*Z strictly below the bound
        top = group.q * (math.ceil(top / group.q) - 1)
    sups = [INF if top == INF else r * top for r in group.rates]
    checks = tuple(VertexCheck(fj, sup, sup == fj) for fj, sup in zip(f.vertex_values, sups))
    verdict = AiVerdict.AI if all(c.equal for c in checks) else AiVerdict.NOT_AI
    return AiReport(verdict, checks)


def lsc_decompose(f: TraceNormMap, caps: Sequence) -> list:
    """Telescoping decomposition of f against increasing caps.

    With f_n the map capped vertex-wise at c_n, returns
    g_1 = f_1 and g_n = f_n - f_{n-1}; each g_n is a nonnegative vertex
    vector and the partial sums reproduce the capped maps exactly.
    """
    caps = [frac(c) for c in caps]
    if not caps:
        raise ValueError("need at least one cap")
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ValueError("caps must be strictly increasing")
    if caps[0] <= 0:
        raise ValueError("the first cap must be positive")
    mn = f.min_finite()
    if mn is not None and caps[0] > mn:
        raise ValueError(
            "the first cap must not exceed the smallest finite vertex value"
        )
    prev = [Fraction(0)] * f.k
    out = []
    for c in caps:
        capped = [v if (is_finite(v) and v <= c) else c for v in f.vertex_values]
        out.append(tuple(cv - pv for cv, pv in zip(capped, prev)))
        prev = capped
    return out


class PointClass(str, Enum):
    AI_DIAGONAL = "ai-diagonal"
    OFF_DIAGONAL = "off-diagonal"
    UNBOUNDED_BOUNDARY = "unbounded-boundary"


def classify_point(f_values, group: GroupModel) -> PointClass:
    """Classify a pair of trace-norm coordinates in the open quadrant.

    A point with an infinite coordinate lies on the unbounded boundary;
    a finite point is on the realizable diagonal exactly when its
    coordinates agree and the diagonal group reaches the common value
    from below with supremum equal to it (true over Q, never over q*Z).
    """
    a, b = (ext(v) for v in f_values)
    for v in (a, b):
        if is_finite(v) and v <= 0:
            raise ValueError("coordinates must be strictly positive")
    if not is_finite(a) or not is_finite(b):
        return PointClass.UNBOUNDED_BOUNDARY
    if a != b:
        return PointClass.OFF_DIAGONAL
    if group.kind is GroupKind.DENSE_RATIONALS:
        return PointClass.AI_DIAGONAL
    return PointClass.OFF_DIAGONAL
