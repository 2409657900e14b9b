"""Eigenvalue-pattern maps on functions over [0,1].

A pattern is a finite multiset of continuous piecewise-linear
eigenfunctions [0,1] -> [0,1]; it acts on a function f by
T(f) = sum_i f(lambda_i(t)), optionally divided by the multiplicity so
that constants are preserved.  This module also provides the associated
checks: compatibility with a target dimension function (with optional
multiplicative slack), eigenvalue density over a uniform grid of
subintervals, the weighted-norm closeness hypothesis built from ramp
probe functions, gap computation between pushed and target dimension
functions, and exact verification of a strict inequality pushed through
a chain of stages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .blocks import ensure_dimension_function
from .errors import PreconditionFailed
from .pwcalc import (
    AT,
    LeResult,
    ONE,
    PLFunction,
    Record,
    StepFunction,
    ZERO,
    compose_pl,
    compose_step_pl,
    ensure_positive_weight,
    frac,
    inf_difference,
    json_entries,
    json_obj,
    le_pointwise,
    linear_combine,
    linear_combine_steps,
    weighted_sup_norm,
    _merge,
    _weighted_sup_of_sum,
)


@dataclass(frozen=True)
class EigenPattern(Record):
    """A nonempty multiset of eigenfunctions [0,1] -> [0,1]."""

    eigenfunctions: tuple

    def __post_init__(self):
        fns = tuple(self.eigenfunctions)
        if not fns:
            raise ValueError("a pattern needs at least one eigenfunction")
        for f in fns:
            if not isinstance(f, PLFunction):
                raise TypeError("eigenfunctions must be piecewise linear")
        # not a field, so never a JSON key: each distinct eigenfunction, in
        # first-seen order, with its count; read it, do not change it
        counts = Counter(fns)
        # copies of one function are range-checked once
        if not all(f.into_unit_interval() for f in counts):
            raise ValueError("eigenfunctions must map [0,1] into [0,1]")
        object.__setattr__(self, "eigenfunctions", fns)
        object.__setattr__(self, "counts", counts)

    @property
    def multiplicity(self) -> int:
        return len(self.eigenfunctions)

    @classmethod
    def identities(cls, m: int) -> "EigenPattern":
        return cls((PLFunction.identity(),) * m)

    @classmethod
    def from_json(cls, obj: dict) -> "EigenPattern":
        obj = json_obj(obj, "a pattern")
        return cls(json_entries(obj, "eigenfunctions", PLFunction.from_json))


def apply_pattern(pattern: EigenPattern, f: PLFunction,
                  normalized: bool = False) -> PLFunction:
    """Exact sum (or average, when ``normalized``) of f over the eigenfunctions.

    Each distinct eigenfunction is composed once and weighted by its count.
    """
    counts = pattern.counts
    coeff = Fraction(1, pattern.multiplicity) if normalized else Fraction(1)
    return linear_combine([coeff * n for n in counts.values()],
                          [compose_pl(f, lam) for lam in counts])


def _signed_terms(p: EigenPattern, q: EigenPattern, f: PLFunction) -> tuple:
    """The terms of p(f) - q(f): each eigenfunction's count in p minus its
    count in q, and f composed with it; those whose counts cancel are not
    composed."""
    counts = Counter(p.counts)
    counts.subtract(q.counts)
    terms = [(n, lam) for lam, n in counts.items() if n]
    return [n for n, _ in terms], [compose_pl(f, lam) for _, lam in terms]


def deviation(p: EigenPattern, q: EigenPattern, a: PLFunction, w_dom: StepFunction,
              w_cod: StepFunction) -> tuple:
    """The w_cod-weighted sup norm of p(a) - q(a) and the w_dom-weighted sup norm of a.

    The first is read off the sweep that sums p(a) - q(a), which builds no
    function."""
    return (_weighted_sup_of_sum(*_signed_terms(p, q, a), w_cod),
            weighted_sup_norm(a, w_dom).value)


def push_dimension(pattern: EigenPattern, d: StepFunction) -> StepFunction:
    """Exact sum of d over the eigenfunctions; lsc when d is lsc.

    Each distinct eigenfunction is composed once and weighted by its count.
    """
    ensure_dimension_function(d)
    counts = pattern.counts
    return linear_combine_steps(list(counts.values()), [compose_step_pl(d, lam) for lam in counts])


def check_compat(pattern: EigenPattern, f: PLFunction, d_target: StepFunction,
                 slack=0) -> LeResult:
    """Verify pattern(f) <= (1 + slack) * d_target pointwise, exactly."""
    slack = frac(slack)
    if slack < 0:
        raise ValueError("slack must be nonnegative")
    return le_pointwise(apply_pattern(pattern, f), d_target.scale(1 + slack))


@dataclass(frozen=True)
class DensityResult(Record):
    holds: bool
    witness_t: Union[Fraction, None] = None
    witness_bin: Union[int, None] = None

    def __bool__(self) -> bool:
        return self.holds


def density_check(pattern: EigenPattern, d: int, delta) -> DensityResult:
    """Check that at every t, each of the d subintervals [j/d,(j+1)/d]
    holds at least the fraction ``delta`` of the eigenvalues.

    Subintervals are closed, so boundary points count for both
    neighbors.  Exact: each distinct eigenfunction is pushed through the
    slot function (2j on the cut j/d, 2j+1 inside bin j), and one sweep
    along the merged points keeps each bin's count and the number of bins
    short, changing them only where a push changes its slot.  Every point
    is tried before any cell midpoint; the lowest short bin is reported.
    """
    delta = frac(delta)
    if d < 1:
        raise ValueError("need at least one subinterval")
    if not ZERO < delta <= Fraction(1, d):
        raise ValueError("delta must lie in (0, 1/d]")
    needed = math.ceil(delta * pattern.multiplicity)  # counts are integers
    cuts = [Fraction(j, d) for j in range(d + 1)]
    slots = StepFunction.from_profile(cuts, range(0, 2 * d + 1, 2), range(1, 2 * d, 2))
    counts = pattern.counts
    pushes = [compose_step_pl(slots, lam) for lam in counts]
    # the eigenfunctions' own breakpoints stay samples, where witnesses lie
    pts, own = _merge(*pushes, *counts)
    # at each own point a push moves its count from the cell before to the
    # point's slot, then to the cell after; slot -1 lies in no bin
    events = {}
    for push, pos, n in zip(pushes, own, counts.values()):
        cells = (-1, *(s for s, _ in push._opens), -1)
        for j, (s, _), before, after in zip(pos, push._vals, cells, cells[1:]):
            events.setdefault(j, []).append((n, before, s, after))
    count, short = [0] * d, d

    def move(n: int, old: int, new: int) -> None:
        # n eigenvalues leave slot old for slot new; 2j is in bins j-1 and j, 2j+1 in j
        nonlocal short
        for slot, k in ((old, -n), (new, n)) if old != new else ():
            for j in range(max((slot - 1) >> 1, 0), min(slot >> 1, d - 1) + 1):
                short += (count[j] + k < needed) - (count[j] < needed)
                count[j] += k

    failing_cell = None
    for j, t in enumerate(pts):
        here = events.get(j, ())
        for n, before, s, _ in here:
            move(n, before, s)
        if short:
            return DensityResult(False, Fraction(*t), next(
                b for b, c in enumerate(count) if c < needed))
        for n, _, s, after in here:
            move(n, s, after)
        if short and failing_cell is None and j + 1 < len(pts):
            (an, ad), (bn, bd) = t, pts[j + 1]
            failing_cell = Fraction(an * bd + bn * ad, 2 * ad * bd), next(
                b for b, c in enumerate(count) if c < needed)
    return DensityResult(False, *failing_cell) if failing_cell else DensityResult(True)


def ramp_functions(d: int) -> list:
    """The d probe ramps r_0..r_{d-1}: r_i is 0 on [0, i/d], 1 on
    [(i+1)/d, 1], and linear in between."""
    if d < 1:
        raise ValueError("need at least one ramp")
    out = []
    for i in range(d):
        pts = [(ZERO, ZERO)] if i == 0 else [(ZERO, ZERO), (Fraction(i, d), ZERO)]
        pts.append((Fraction(i + 1, d), ONE))
        if i + 1 < d:
            pts.append((ONE, ONE))
        out.append(PLFunction.from_pairs(pts))
    return out


@dataclass(frozen=True)
class UniquenessReport(Record):
    holds: bool
    density_ok: bool
    failing_ramp: Union[int, None] = None
    lhs_norm: Union[Fraction, None] = None
    rhs_bound: Union[Fraction, None] = None

    def __bool__(self) -> bool:
        return self.holds


def uniqueness_hypothesis_check(phi: EigenPattern, psi: EigenPattern, d: int,
                                delta, w_dom: StepFunction,
                                w_cod: StepFunction) -> UniquenessReport:
    """Check the closeness hypothesis for two patterns.

    Both patterns must pass the density check, and on every probe ramp
    the weighted norm of the difference must fall strictly below
    delta times the domain norm of the ramp.  The verdict is balanced:
    rescaling both weights by a common positive constant cannot change it.
    """
    delta = frac(delta)
    ensure_positive_weight(w_dom)
    ensure_positive_weight(w_cod)
    if not density_check(phi, d, delta) or not density_check(psi, d, delta):
        return UniquenessReport(False, density_ok=False)
    for i, ramp in enumerate(ramp_functions(d)):
        lhs, norm = deviation(phi, psi, ramp, w_dom, w_cod)
        rhs = delta * norm
        if not lhs < rhs:
            return UniquenessReport(False, True, i, lhs, rhs)
    return UniquenessReport(True, True)


@dataclass(frozen=True)
class GapReport(Record):
    """Exact infimum of target minus pushed-source, with its witness."""

    gap: Fraction
    at: Fraction
    attained: bool = True

    def __bool__(self) -> bool:
        return self.gap > 0


def compute_gap(pattern: EigenPattern, d_src: StepFunction,
                d_tgt: StepFunction) -> GapReport:
    """Exact inf over t of d_tgt(t) - sum_i d_src(lambda_i(t))."""
    pushed = push_dimension(pattern, d_src)
    ext = inf_difference(d_tgt, pushed)
    return GapReport(ext.value, ext.at, ext.side == AT)


@dataclass(frozen=True)
class ChainStage:
    """A stage of an intertwining chain: the map out of an algebra
    together with that algebra's dimension function."""

    pattern: EigenPattern
    dim: StepFunction


@dataclass(frozen=True)
class ChainReport(Record):
    verified: bool
    margin: Union[Fraction, None] = None
    margin_at: Union[Fraction, None] = None
    reason: Union[str, None] = None
    witness: Union[Fraction, None] = None
    stage_gaps: tuple = ()

    def __bool__(self) -> bool:
        return self.verified


def verify_chain(stages: Sequence, tau: EigenPattern, d_target: StepFunction,
                 f: PLFunction, delta_1, eps_n) -> ChainReport:
    """Push f through the chain and certify the strict target inequality.

    ``stages`` lists the :class:`ChainStage` of each horizontal map, in
    order: its pattern and its source algebra's dimension function;
    ``tau`` is the final map into the algebra with dimension function
    ``d_target``.  Patterns apply in normalized
    (constant-preserving) form, so adding a constant commutes with the
    chain.  Verifies exactly: every consecutive-stage gap exceeds
    delta_1; the pushed function plus delta_1 stays strictly below the
    target plus eps_n; and hence (since eps_n <= delta_1) the pushed
    function stays strictly below the target.  Returns the minimal
    residual margin between target and pushed function.
    """
    if not stages:
        raise PreconditionFailed("chain needs at least one stage")
    delta_1, eps_n = frac(delta_1), frac(eps_n)
    if eps_n > delta_1:
        raise PreconditionFailed(f"eps_n={eps_n} exceeds delta_1={delta_1}")
    for st in stages:
        ensure_dimension_function(st.dim)
    lead = le_pointwise(f, stages[0].dim)
    if not lead:
        raise PreconditionFailed(
            "f is not dominated by the first-stage dimension function",
            witness=lead.witness,
        )
    gaps = []
    for k in range(len(stages) - 1):
        rep = compute_gap(stages[k].pattern, stages[k].dim, stages[k + 1].dim)
        gaps.append(rep)
        if not rep.gap > delta_1:
            return ChainReport(
                False,
                reason=f"stage {k} gap {rep.gap} does not exceed delta_1",
                witness=rep.at,
                stage_gaps=tuple(gaps),
            )
    g = f
    for st in stages:
        g = apply_pattern(st.pattern, g, normalized=True)
    g = apply_pattern(tau, g, normalized=True)
    main = le_pointwise(g.shift(delta_1 - eps_n), d_target, strict=True)
    if not main:
        return ChainReport(
            False,
            reason="pushed function reaches the target within delta_1 - eps_n",
            witness=main.witness,
            stage_gaps=tuple(gaps),
        )
    margin = inf_difference(d_target, g)
    return ChainReport(
        True, margin=margin.value, margin_at=margin.at, stage_gaps=tuple(gaps)
    )
