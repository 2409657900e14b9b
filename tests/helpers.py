"""Shared test utilities: random instance generators and a dumb
sampling oracle for comparisons and extrema.

The oracle never reasons about refinements or witnesses: it evaluates
the per-cell linear formulas of both functions at the cell endpoints
(one-sided limits), the cell midpoint, and every grid sample inside the
cell, and takes the decision from those numbers alone.  Grid density
comes from CTRACE_GRID_SAMPLES (default 10000).  Inner loops run on
integers for speed; all reported values are exact.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import os
import random
from fractions import Fraction

from hypothesis import strategies as st

from ctrace.pwcalc import (
    ONE,
    PLFunction,
    StepFunction,
    ZERO,
    frac_pair,
    merged_points,
)

GRID = int(os.environ.get("CTRACE_GRID_SAMPLES", "10000"))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _cell_formula(f, a, b):
    """(alpha, beta) with f(t) = alpha + beta*t on the open cell (a,b)."""
    if isinstance(f, PLFunction):
        va, vb = f.eval(a), f.eval(b)
        beta = (vb - va) / (b - a)
        return va - beta * a, beta
    v = f.eval((a + b) / 2)
    return v, Fraction(0)


def _k_formula(alpha, beta, grid):
    """Integers (A, B, C) with alpha + beta*(k/grid) = (A + B*k)/C."""
    gamma = beta / grid
    den = math.lcm(alpha.denominator, gamma.denominator)
    return (
        alpha.numerator * (den // alpha.denominator),
        gamma.numerator * (den // gamma.denominator),
        den,
    )


def _interior_grid_range(a, b, grid):
    lo = math.floor(a * grid) + 1
    hi = math.ceil(b * grid) - 1
    return lo, hi


def oracle_le(f, g, strict=False, grid=GRID):
    """Sampling verdict for f <= g (< when strict): point values, cell
    endpoint limits, cell midpoints, and all grid samples.  A limit at a
    cell end refutes only when f's limit exceeds g's: under strict, f and
    g may tend to the same value at an end they never reach."""

    def bad(x, y):
        return x > y or (strict and x == y)

    pts = merged_points(f, g)[0]
    for t in pts:
        if bad(f.eval(t), g.eval(t)):
            return False, t
    for a, b in zip(pts, pts[1:]):
        fa, fb = _cell_formula(f, a, b)
        ga, gb = _cell_formula(g, a, b)
        mid = (a + b) / 2
        for t in (a, mid, b):
            x, y = fa + fb * t, ga + gb * t
            if bad(x, y) if t == mid else x > y:
                return False, t
        af, bf, cf = _k_formula(fa, fb, grid)
        ag, bg, cg = _k_formula(ga, gb, grid)
        lo, hi = _interior_grid_range(a, b, grid)
        for k in range(lo, hi + 1):
            lhs = (af + bf * k) * cg
            rhs = (ag + bg * k) * cf
            if lhs > rhs or (strict and lhs == rhs):
                return False, Fraction(k, grid)
    return True, None


def oracle_weighted_sup(f, w, grid=GRID) -> Fraction:
    """Sampling supremum of |f|/w over the same candidate set."""
    best_num, best_den = -1, 1  # value as best_num / best_den

    def offer(num, den):
        nonlocal best_num, best_den
        if num * best_den > best_num * den:
            best_num, best_den = num, den

    pts = merged_points(f, w)[0]
    for t in pts:
        v, wv = abs(f.eval(t)), w.eval(t)
        offer(v.numerator * wv.denominator, v.denominator * wv.numerator)
    for a, b in zip(pts, pts[1:]):
        fa, fb = _cell_formula(f, a, b)
        wv = w.eval((a + b) / 2)
        for t in (a, (a + b) / 2, b):
            v = abs(fa + fb * t)
            offer(v.numerator * wv.denominator, v.denominator * wv.numerator)
        af, bf, cf = _k_formula(fa, fb, grid)
        den = cf * wv.numerator
        lo, hi = _interior_grid_range(a, b, grid)
        for k in range(lo, hi + 1):
            offer(abs(af + bf * k) * wv.denominator, den)
    return Fraction(best_num, best_den)


def oracle_inf_diff(upper, lower, grid=GRID) -> Fraction:
    """Sampling infimum of upper - lower over the same candidate set."""
    best = None

    def offer(v):
        nonlocal best
        if best is None or v < best:
            best = v

    pts = merged_points(upper, lower)[0]
    for t in pts:
        offer(upper.eval(t) - lower.eval(t))
    for a, b in zip(pts, pts[1:]):
        ua, ub = _cell_formula(upper, a, b)
        la, lb = _cell_formula(lower, a, b)
        da, db = ua - la, ub - lb
        for t in (a, (a + b) / 2, b):
            offer(da + db * t)
        ad, bd, cd = _k_formula(da, db, grid)
        lo, hi = _interior_grid_range(a, b, grid)
        best_num = None
        for k in range(lo, hi + 1):
            num = ad + bd * k
            if best_num is None or num < best_num:
                best_num = num
        if best_num is not None:
            offer(Fraction(best_num, cd))
    return best


def enumeration_sup(group, f, j, max_den=10**4):
    """Brute-force sup of state j over the dimension range.

    For q*Z the scan walks every multiple below the bound; for Q it
    covers all fractions with denominator up to max_den.
    """
    from ctrace.invariant import INF, GroupKind, dimension_range_membership

    bound = INF
    for i, fi in enumerate(f.vertex_values):
        if fi != INF:
            ratio = fi / group.rates[i]
            if bound == INF or ratio < bound:
                bound = ratio
    if bound == INF:
        return INF
    if group.kind is GroupKind.SCALED_INTEGERS:
        best = None
        n = 0
        while True:
            x = group.q * n
            if not dimension_range_membership(group, f, x):
                break
            best = x
            n += 1
        return None if best is None else group.rates[j] * best
    best = Fraction(0)
    for den in range(1, max_den + 1):
        num = math.ceil(bound * den) - 1
        cand = Fraction(num, den)
        if cand > best and dimension_range_membership(group, f, cand):
            best = cand
    return group.rates[j] * best


# ---------------------------------------------------------------------------
# random instances
# ---------------------------------------------------------------------------

_DENOMS = (1, 2, 3, 4, 5, 6, 8, 12, 16)


def rand_fraction(rng: random.Random, lo=0, hi=1, max_den=16) -> Fraction:
    den = rng.choice([d for d in _DENOMS if d <= max_den])
    lo, hi = Fraction(lo), Fraction(hi)
    span = (hi - lo) * den
    k = rng.randint(0, math.floor(span))
    return lo + Fraction(k, den)


def rand_cuts(rng: random.Random, max_cuts=4) -> list:
    cuts = set()
    for _ in range(rng.randint(0, max_cuts)):
        t = rand_fraction(rng)
        if ZERO < t < ONE:
            cuts.add(t)
    return sorted(cuts)


def rand_pl(rng: random.Random, max_breaks=4, lo=-2, hi=3) -> PLFunction:
    pts = [ZERO] + rand_cuts(rng, max_breaks) + [ONE]
    vals = [rand_fraction(rng, lo, hi) for _ in pts]
    return PLFunction(tuple(pts), tuple(vals))


def rand_pl_unit(rng: random.Random, max_breaks=4) -> PLFunction:
    pts = [ZERO] + rand_cuts(rng, max_breaks) + [ONE]
    vals = [rand_fraction(rng, 0, 1) for _ in pts]
    return PLFunction(tuple(pts), tuple(vals))


def rand_step(rng: random.Random, max_cuts=4, lo=-2, hi=3) -> StepFunction:
    pts = [ZERO] + rand_cuts(rng, max_cuts) + [ONE]
    pvals = [rand_fraction(rng, lo, hi) for _ in pts]
    ovals = [rand_fraction(rng, lo, hi) for _ in pts[1:]]
    return StepFunction.from_profile(pts, pvals, ovals)


def rand_positive_step(rng: random.Random, max_cuts=3) -> StepFunction:
    pts = [ZERO] + rand_cuts(rng, max_cuts) + [ONE]
    pvals = [rand_fraction(rng, Fraction(1, 4), 3) for _ in pts]
    ovals = [rand_fraction(rng, Fraction(1, 4), 3) for _ in pts[1:]]
    return StepFunction.from_profile(pts, pvals, ovals)


def rand_lsc_int_step(rng: random.Random, max_jumps=5, vmax=5) -> StepFunction:
    """Random lsc integer step function with values >= 1.

    Point values never exceed the neighboring open values; with some
    probability a point dips strictly below both (an isolated pinch).
    """
    pts = [ZERO] + rand_cuts(rng, max_jumps) + [ONE]
    ovals = [Fraction(rng.randint(1, vmax)) for _ in pts[1:]]
    pvals = []
    for i in range(len(pts)):
        neighbors = []
        if i > 0:
            neighbors.append(ovals[i - 1])
        if i < len(ovals):
            neighbors.append(ovals[i])
        cap = min(neighbors)
        value = Fraction(rng.randint(1, int(cap))) if rng.random() < 0.3 else cap
        pvals.append(value)
    return StepFunction.from_profile(pts, pvals, ovals)


def rand_pattern(rng: random.Random, max_m=8, max_breaks=3):
    from ctrace.patterns import EigenPattern

    m = rng.randint(1, max_m)
    return EigenPattern(tuple(rand_pl_unit(rng, max_breaks) for _ in range(m)))


# ---------------------------------------------------------------------------
# per-point references for the cursor-walk kernels
# ---------------------------------------------------------------------------
#
# These are the bisect-and-eval versions the walks in ``pwcalc`` and the
# counted sums in ``patterns`` replaced.  They evaluate every function at
# every point they need, so they stay easy to check by eye.


def as_fractions(pairs) -> list:
    """Fractions of a kernel's integer ``(num, den)`` pairs."""
    return [Fraction(n, d) for n, d in pairs]


def as_pairs(xs) -> list:
    """The reduced ``(num, den)`` pairs the kernels take, of Fractions ``xs``."""
    return [(x.numerator, x.denominator) for x in xs]


def refine_as_fractions(out) -> tuple:
    """``refine``'s pairs as Fractions, in the shape ``ref_refine`` gives."""
    pts, samples = out
    return tuple(as_fractions(pts)), [tuple(map(as_fractions, s)) for s in samples]


def ref_refine(*fns) -> tuple:
    pts, _ = ref_merged_points(*fns)
    samples = []
    for f in fns:
        at = [f.eval(t) for t in pts]
        if isinstance(f, PLFunction):
            samples.append((at, at[:-1], at[1:]))
        else:
            opens = [f.open_values[bisect.bisect_right(f.points, a) - 1] for a in pts[:-1]]
            samples.append((at, opens, opens))
    return pts, samples


def ref_preimage_refinement(g: PLFunction, targets) -> tuple:
    """``(pts, g_vals, at, cells, own)`` as ``_preimage_refinement`` gives
    them: every target checked against every segment, each slot (2i on
    ``targets[i]``, 2i+1 inside the gap after it) found by Fraction
    bisects, for a cell at the value of its midpoint, and each interior
    breakpoint of g looked up in the sorted points."""
    if min(g.values) < 0 or max(g.values) > 1:
        raise ValueError("inner function must map [0,1] into [0,1]")
    values = dict(zip(g.breakpoints, g.values))
    bps, ys = g.breakpoints, g.values
    for t0, t1, y0, y1 in zip(bps, bps[1:], ys, ys[1:]):
        if y0 == y1:
            continue
        lo, hi = min(y0, y1), max(y0, y1)
        for c in targets:
            if lo < c < hi:
                values[t0 + (c - y0) * (t1 - t0) / (y1 - y0)] = c
    pts = sorted(values)
    g_vals = [values[t] for t in pts]

    def slot(y):
        i = bisect.bisect_left(targets, y)
        return 2 * i if i < len(targets) and targets[i] == y else 2 * i - 1

    at = [slot(y) for y in g_vals]
    cells = [slot((ya + yb) / 2) for ya, yb in zip(g_vals, g_vals[1:])]
    return pts, g_vals, at, cells, [pts.index(t) for t in bps[1:-1]]


def ref_compose_pl(f: PLFunction, g: PLFunction) -> PLFunction:
    pts, g_vals, *_ = ref_preimage_refinement(g, f.breakpoints)
    return PLFunction(tuple(pts), tuple(f.eval(y) for y in g_vals))


def ref_compose_step_pl(d: StepFunction, g: PLFunction) -> StepFunction:
    pts, g_vals, *_ = ref_preimage_refinement(g, d.points)
    point_vals = [d.eval(y) for y in g_vals]
    open_vals = [d.eval((ya + yb) / 2) for ya, yb in zip(g_vals, g_vals[1:])]
    return StepFunction.from_profile(pts, point_vals, open_vals)


def ref_linear_combine(coeffs, fns) -> PLFunction:
    pts, samples = ref_refine(*fns)
    vals = [sum((Fraction(c) * v for c, v in zip(coeffs, vs)), ZERO)
            for vs in zip(*(at for at, _, _ in samples))]
    return PLFunction(pts, tuple(vals))


def ref_add_steps(steps) -> StepFunction:
    pts, samples = ref_refine(*steps)
    point_vals = [sum(vs, ZERO) for vs in zip(*(at for at, _, _ in samples))]
    open_vals = [sum(vs, ZERO) for vs in zip(*(opens for _, opens, _ in samples))]
    return StepFunction.from_profile(pts, point_vals, open_vals)


def ref_validate_special(d: StepFunction):
    """The piece-by-piece value check, after the lsc check."""
    from ctrace.blocks import SpecialCheck
    from ctrace.pwcalc import is_lsc

    lsc = is_lsc(d)
    if not lsc:
        return SpecialCheck(False, "not lower semicontinuous", lsc.witness)
    for p in d.pieces:
        if p.value.denominator != 1:
            return SpecialCheck(False, f"non-integer value {p.value}", p.interval.sample())
        if p.value < 1:
            return SpecialCheck(False, f"value {p.value} below 1", p.interval.sample())
    return SpecialCheck(True)


def ref_apply_pattern(pattern, f: PLFunction, normalized=False) -> PLFunction:
    fns = [ref_compose_pl(f, lam) for lam in pattern.eigenfunctions]
    coeff = Fraction(1, pattern.multiplicity) if normalized else Fraction(1)
    return ref_linear_combine([coeff] * len(fns), fns)


def ref_push_dimension(pattern, d: StepFunction) -> StepFunction:
    return ref_add_steps([ref_compose_step_pl(d, lam) for lam in pattern.eigenfunctions])


# hypothesis strategies for the differential tests

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def cut_points(draw, max_cuts=5):
    """0, a few interior points, 1."""
    inner = draw(st.lists(unit_fractions.filter(lambda t: ZERO < t < ONE),
                          max_size=max_cuts, unique=True))
    return [ZERO] + sorted(inner) + [ONE]


@st.composite
def pl_functions(draw, lo=-2, hi=3):
    pts = draw(cut_points())
    vals = draw(st.lists(st.fractions(lo, hi, max_denominator=8),
                         min_size=len(pts), max_size=len(pts)))
    return PLFunction(tuple(pts), tuple(vals))


@st.composite
def step_functions(draw, lo=-2, hi=3):
    pts = draw(cut_points())
    values = st.fractions(lo, hi, max_denominator=4)
    point_vals = draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    open_vals = draw(st.lists(values, min_size=len(pts) - 1, max_size=len(pts) - 1))
    return StepFunction.from_profile(pts, point_vals, open_vals)


@st.composite
def lsc_step_functions(draw):
    """Lower semicontinuous step functions whose values are often integers,
    sometimes below 1 and sometimes not integers at all."""
    pts = draw(cut_points())
    value = st.sampled_from([Fraction(v) for v in (-1, 0, "1/2", 1, 2, "5/2", 3)])
    cells = draw(st.lists(value, min_size=len(pts) - 1, max_size=len(pts) - 1))
    # a point takes at most its neighbouring cells' values
    at = [min(draw(value), *cells[max(i - 1, 0):i + 1]) for i in range(len(pts))]
    return StepFunction.from_profile(pts, at, cells)


@st.composite
def inner_functions(draw, targets=()):
    """Maps [0,1] -> [0,1] with constant, rising and falling segments whose
    values often land exactly on ``targets`` or on 0 and 1."""
    if draw(st.integers(0, 9)) == 0:
        return PLFunction.identity()
    pts = draw(cut_points())
    pool = sorted({ZERO, ONE, *targets})
    value = st.one_of(st.sampled_from(pool), unit_fractions)
    vals = [draw(value)]
    for _ in pts[1:]:
        vals.append(vals[-1] if draw(st.integers(0, 3)) == 0 else draw(value))
    return PLFunction(tuple(pts), tuple(vals))


@st.composite
def repeated_patterns(draw, targets=(), max_distinct=3, max_m=8):
    """Patterns whose eigenfunctions are drawn, with repeats, from a few."""
    from ctrace.patterns import EigenPattern

    distinct = draw(st.lists(inner_functions(targets), min_size=1, max_size=max_distinct))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=max_m))
    return EigenPattern(tuple(picks))


# ---------------------------------------------------------------------------
# Fraction and per-index references for the integer and distinct-pair paths
# ---------------------------------------------------------------------------
#
# ``PLFunction`` now decides collinearity on integer slopes, ``le_pointwise``
# tests signs by cross-multiplying, ``perturb_pattern`` and
# ``verify_certificate`` handle each distinct eigenfunction (pair) once, and
# a pattern difference is one combination.  These are the versions they
# replaced: Fraction arithmetic, every index on its own, three refinements.


def ref_pl_canonical(bps, vals) -> tuple:
    """Collinear interior points removed with Fraction cross products."""
    pts = [(bps[0], vals[0])]
    for t, v in zip(bps[1:], vals[1:]):
        while len(pts) >= 2:
            (t0, v0), (t1, v1) = pts[-2], pts[-1]
            if (v1 - v0) * (t - t1) == (v - v1) * (t1 - t0):
                pts.pop()
            else:
                break
        pts.append((t, v))
    return tuple(t for t, _ in pts), tuple(v for _, v in pts)


def ref_le_pointwise(f, g, strict=False):
    from ctrace.pwcalc import LeResult

    pts, ((f_at, f_above, f_below), (g_at, g_above, g_below)) = ref_refine(f, g)
    for t, fv, gv in zip(pts, f_at, g_at):
        d = fv - gv
        if d > 0 or (strict and d == 0):
            return LeResult(False, t)
    for a, b, fa, fb, ga, gb in zip(pts, pts[1:], f_above, f_below, g_above, g_below):
        hA, hB = fa - ga, fb - gb
        ok = hA <= 0 and hB <= 0 and not (strict and hA == 0 and hB == 0)
        if not ok:
            return LeResult(False, _ref_violation_point(a, b, hA, hB))
    return LeResult(True, None)


def _ref_violation_point(a, b, hA, hB):
    """The midpoint of the part of the open cell (a, b) where the linear h
    with limits hA, hB is > 0, or of the whole cell when h is 0 on it
    (failing a strict order)."""
    if hA == hB or (hA > 0 and hB > 0):
        return (a + b) / 2
    root = (a * hB - b * hA) / (hB - hA)  # where the line through (a, hA), (b, hB) is 0
    lo, hi = (a, root) if hA > 0 else (root, b)
    return (lo + hi) / 2


def ref_perturb_pattern(d_a, f_prime, pattern, d_b, delta, test_elements,
                        eps, w_dom, w_cod):
    """Every eigenfunction perturbed and certified at its own index.

    The module's functions are looked up at call time, so a test that
    patches ``existence._squash``, which builds sigma in ``squash_map``,
    patches this reference too.
    """
    from ctrace import existence as ex
    from ctrace.errors import Infeasible, PreconditionFailed
    from ctrace.patterns import EigenPattern, apply_pattern, check_compat, push_dimension
    from ctrace.pwcalc import compose_pl, compose_step_pl, le_pointwise, weighted_sup_norm

    if f_prime != ex.make_underapprox(d_a, delta):
        raise PreconditionFailed("f_prime is not the canonical under-approximation")
    hypothesis = check_compat(pattern, f_prime, d_b, 0)
    if not hypothesis:
        raise Infeasible("pattern(f') exceeds d_B; no admissible perturbation exists",
                         witness=hypothesis.witness)
    sigma = ex.squash_map(d_a, delta)
    perturbed = EigenPattern(tuple(compose_pl(sigma, lam) for lam in pattern.eigenfunctions))
    eigen_facts = []
    for lam, lam_hat in zip(pattern.eigenfunctions, perturbed.eigenfunctions):
        dist = weighted_sup_norm(lam_hat - lam, StepFunction.constant(1)).value
        dom = le_pointwise(compose_step_pl(d_a, lam_hat), compose_pl(f_prime, lam))
        if not dom:
            raise Infeasible("perturbed eigenfunction escapes the under-approximation",
                             witness=dom.witness)
        eigen_facts.append(ex.EigenFact(dist))
    pushed = push_dimension(perturbed, d_a)
    below = le_pointwise(pushed, d_b)
    if not below:
        raise Infeasible("pushed dimension function exceeds d_B", witness=below.witness)
    element_facts = []
    for a in test_elements:
        diff = apply_pattern(pattern, a) - apply_pattern(perturbed, a)
        dev = weighted_sup_norm(diff, w_cod).value
        bound = eps * weighted_sup_norm(a, w_dom).value
        if dev > bound:
            raise Infeasible(f"deviation {dev} on a test element exceeds the budget {bound}")
        element_facts.append(ex.ElementFact(dev, bound))
    return ex.PerturbationCertificate(
        d_A=d_a, f_prime=f_prime, d_B=d_b, original=pattern, perturbed=perturbed,
        delta=delta, eps=eps, w_dom=w_dom, w_cod=w_cod,
        test_elements=tuple(test_elements), eigen_facts=tuple(eigen_facts),
        pushed=pushed, element_facts=tuple(element_facts),
    )


def ref_verify_certificate(cert):
    """Every fact re-derived at its own index, deviations in three refinements."""
    from ctrace.existence import CertificateCheck, CheckItem
    from ctrace.patterns import apply_pattern, push_dimension
    from ctrace.pwcalc import compose_pl, compose_step_pl, le_pointwise, weighted_sup_norm

    items = []

    def add(name, ok, detail=""):
        items.append(CheckItem(name, bool(ok), detail))

    add("pattern_sizes_match",
        cert.original.multiplicity == cert.perturbed.multiplicity
        and len(cert.eigen_facts) == cert.original.multiplicity)
    underapprox = le_pointwise(cert.f_prime, cert.d_A)
    add("f_prime_below_d_A", underapprox.holds,
        "" if underapprox else f"witness {underapprox.witness}")
    if cert.original.multiplicity == cert.perturbed.multiplicity:
        pairs = zip(cert.original.eigenfunctions, cert.perturbed.eigenfunctions)
        for i, (lam, lam_hat) in enumerate(pairs):
            dist = weighted_sup_norm(lam_hat - lam, StepFunction.constant(1)).value
            fact = cert.eigen_facts[i] if i < len(cert.eigen_facts) else None
            add(f"eigen_distance[{i}]",
                fact is not None and dist == fact.sup_distance and dist <= 2 * cert.delta,
                f"distance {dist}")
            dom = le_pointwise(compose_step_pl(cert.d_A, lam_hat), compose_pl(cert.f_prime, lam))
            add(f"eigen_domination[{i}]", dom.holds, "" if dom else f"witness {dom.witness}")
    pushed = push_dimension(cert.perturbed, cert.d_A)
    add("pushed_matches", pushed == cert.pushed)
    below = le_pointwise(pushed, cert.d_B)
    add("pushed_below_target", below.holds, "" if below else f"witness {below.witness}")
    add("element_count_matches", len(cert.element_facts) == len(cert.test_elements))
    for j, a in enumerate(cert.test_elements):
        diff = apply_pattern(cert.original, a) - apply_pattern(cert.perturbed, a)
        dev = weighted_sup_norm(diff, cert.w_cod).value
        bound = cert.eps * weighted_sup_norm(a, cert.w_dom).value
        fact = cert.element_facts[j] if j < len(cert.element_facts) else None
        add(f"element_deviation[{j}]",
            fact is not None and dev == fact.deviation and bound == fact.bound and dev <= bound,
            f"deviation {dev} vs bound {bound}")
    return CertificateCheck(all(i.ok for i in items), tuple(items))


# strategies with collinear runs, negative values and mixed, large denominators

wide_fractions = st.one_of(
    st.fractions(-3, 3, max_denominator=12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)


@st.composite
def wide_cut_points(draw, max_cuts=7):
    """0, interior points with small and large denominators, 1."""
    inner = st.one_of(
        unit_fractions,
        st.builds(Fraction, st.integers(1, 10**9 - 1), st.just(10**9)),
        st.builds(lambda n, d: Fraction(n % d, d), st.integers(1, 10**12), st.integers(2, 10**6)),
    ).filter(lambda t: ZERO < t < ONE)
    pts = draw(st.lists(inner, max_size=max_cuts, unique=True))
    return [ZERO] + sorted(pts) + [ONE]


@st.composite
def wide_pl_points(draw):
    """Breakpoints and values of a PL function that often run along a
    shared line, so that canonicalisation has collinear runs (and runs
    of equal slope that break and resume) to remove."""
    pts = draw(wide_cut_points())
    vals = []
    alpha, beta = draw(wide_fractions), draw(wide_fractions)
    for t in pts:
        if draw(st.integers(0, 2)) == 0:
            alpha, beta = draw(wide_fractions), draw(wide_fractions)
        vals.append(alpha + beta * t if draw(st.integers(0, 4)) else draw(wide_fractions))
    return pts, vals


# ---------------------------------------------------------------------------
# nested-presentation references
# ---------------------------------------------------------------------------
#
# ``dim_from_nested`` now adds the 0/1 indicators of the open sets and the
# nesting check compares consecutive indicators with ``le_pointwise``.
# These are the versions they replaced: a membership count at every
# endpoint and midpoint, and an interval-by-interval containment scan.


def _ref_contains_interval(outer, inner) -> bool:
    lo_ok = outer.lo < inner.lo or (
        outer.lo == inner.lo and (outer.lo_closed or not inner.lo_closed)
    )
    hi_ok = inner.hi < outer.hi or (
        inner.hi == outer.hi and (outer.hi_closed or not inner.hi_closed)
    )
    return lo_ok and hi_ok


def ref_nested(n, opens) -> tuple:
    """The validated open sets, or the ValueError a presentation raises."""
    from ctrace.blocks import _validate_open_set

    if n < 1:
        raise ValueError("matrix size must be >= 1")
    opens = tuple(_validate_open_set(s) for s in opens)
    if len(opens) != n - 1:
        raise ValueError(f"expected {n - 1} open sets, got {len(opens)}")
    for bigger, smaller in zip(opens, opens[1:]):
        # a connected interval inside a disjoint union lies inside one component
        if not all(any(_ref_contains_interval(o, i) for o in bigger) for i in smaller):
            raise ValueError("open sets are not nested")
    return opens


def interval_contains(iv, t) -> bool:
    """Whether the Interval ``iv`` contains the point t."""
    if t < iv.lo or t > iv.hi:
        return False
    if t == iv.lo and not iv.lo_closed:
        return False
    if t == iv.hi and not iv.hi_closed:
        return False
    return True


def ref_dim_from_nested(p) -> StepFunction:
    def count(t):
        return 1 + sum(1 for s in p.opens if any(interval_contains(iv, t) for iv in s))

    pts = {ZERO, ONE}
    for s in p.opens:
        for iv in s:
            pts.update((iv.lo, iv.hi))
    pts = sorted(pts)
    point_vals = [Fraction(count(t)) for t in pts]
    open_vals = [Fraction(count((a + b) / 2)) for a, b in zip(pts, pts[1:])]
    return StepFunction.from_profile(pts, point_vals, open_vals)


def open_set_on(pts, cells, at) -> tuple:
    """The set holding the cells (pts[i], pts[i+1]) where cells[i] and the
    points pts[j] where at[j], as maximal intervals.  It is open when a
    point is held only where its neighbouring cells are."""
    from ctrace.pwcalc import Interval

    out, lo = [], None
    for i, inside in enumerate(cells):
        if not inside:
            continue
        if lo is None:
            lo, lo_closed = pts[i], at[i]
        if i + 1 < len(cells) and cells[i + 1] and at[i + 1]:
            continue  # the interval runs on through pts[i + 1]
        out.append(Interval(lo, pts[i + 1], lo_closed, at[i + 1]))
        lo = None
    return tuple(out)


@st.composite
def open_set_chains(draw, max_sets=4):
    """Open sets on one grid of cut points: the superlevel sets of random
    lsc levels, so nested, except that one set is sometimes redrawn on its
    own.  Touching intervals that share an open point, sets closed at 0 or
    1, [0,1] itself and the empty set all come up."""
    pts = draw(cut_points(max_cuts=4))
    k = draw(st.integers(0, max_sets))
    cells = draw(st.lists(st.integers(0, k), min_size=len(pts) - 1, max_size=len(pts) - 1))
    # a point's level is at most that of each neighbouring cell
    at = [draw(st.integers(0, min(cells[max(j - 1, 0):j + 1]))) for j in range(len(pts))]
    sets = [
        open_set_on(pts, [c >= level for c in cells], [a >= level for a in at])
        for level in range(1, k + 1)
    ]
    if k and draw(st.booleans()):
        own = draw(st.lists(st.booleans(), min_size=len(pts) - 1, max_size=len(pts) - 1))
        own_at = [all(own[max(j - 1, 0):j + 1]) and draw(st.booleans())
                  for j in range(len(pts))]
        sets[draw(st.integers(0, k - 1))] = open_set_on(pts, own, own_at)
    return sets


# ---------------------------------------------------------------------------
# point-evaluating references for f' and sigma
# ---------------------------------------------------------------------------
#
# ``make_underapprox`` and ``squash_map`` now take one pass over the jump
# windows and read every value from the jump records and the profile.
# These are the versions they replaced: the windows checked in one pass and
# recomputed in another, d evaluated at the window edges and at 0 and 1,
# and the clamp point chosen by a side name.


def _window(s: Fraction, delta: Fraction) -> tuple:
    return max(ZERO, s - delta), min(ONE, s + delta)


def _check_windows(d: StepFunction, delta: Fraction):
    jumps = d.jumps()
    points = [j.t for j in jumps]
    for s, s2 in zip(points, points[1:]):
        if not s2 - s > 2 * delta:
            raise ValueError(
                f"windows overlap: jumps at {s} and {s2} closer than 2*delta"
            )
    for s in points:
        if s == ZERO or s == ONE:
            if not delta < ONE:
                raise ValueError("window around an endpoint jump covers all of [0,1]")
        elif not (delta < s and delta < ONE - s):
            raise ValueError(
                f"window around {s} reaches an endpoint; shrink delta"
            )
    return jumps


def _clamp_target(j) -> str:
    if j.left is not None and j.left == j.value:
        return "left"
    if j.right is not None and j.right == j.value:
        return "right"
    return "center"


def ref_make_underapprox(d: StepFunction, delta) -> PLFunction:
    from ctrace.blocks import ensure_dimension_function
    from ctrace.existence import _push
    from ctrace.pwcalc import frac

    delta = frac(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    ensure_dimension_function(d)
    jumps = _check_windows(d, delta)
    pts = [(ZERO, d.eval(ZERO))]
    for j in jumps:
        a, b = _window(j.t, delta)
        if a > ZERO:
            _push(pts, a, d.eval(a))
        _push(pts, j.t, j.value)
        if b < ONE:
            _push(pts, b, d.eval(b))
    _push(pts, ONE, d.eval(ONE))
    return PLFunction.from_pairs(pts)


def ref_squash_map(d: StepFunction, delta) -> PLFunction:
    from ctrace.blocks import ensure_dimension_function
    from ctrace.existence import _push
    from ctrace.pwcalc import frac

    delta = frac(delta)
    ensure_dimension_function(d)
    jumps = _check_windows(d, delta)
    pts = [(ZERO, ZERO)]
    windows = [_window(j.t, delta) for j in jumps]
    for idx, j in enumerate(jumps):
        a, b = windows[idx]
        side = _clamp_target(j)
        c = {"left": a, "right": b, "center": j.t}[side]
        if c != a:
            prev_end = windows[idx - 1][1] if idx > 0 else ZERO
            w_left = min(delta, a - prev_end) / 2
            _push(pts, a - w_left, a - w_left)
            _push(pts, a, c)
        else:
            _push(pts, a, c)
        _push(pts, b, c)
        if c != b:
            next_start = windows[idx + 1][0] if idx + 1 < len(windows) else ONE
            w_right = min(delta, next_start - b) / 2
            _push(pts, b + w_right, b + w_right)
    _push(pts, ONE, ONE)
    return PLFunction.from_pairs(pts)


@st.composite
def jump_windows_cases(draw, max_jumps=8):
    """(d, delta): an lsc integer step function with up to ``max_jumps``
    jumps, and a delta that often makes two windows overlap, an interior
    window reach 0 or 1, or an endpoint window cover [0,1].

    Each point value is the value of its left cell (a left clamp), of its
    right cell (a right clamp) or lies below both (a clamp at the jump),
    and 0 and 1 often carry a jump.  Sometimes d is not a dimension
    function at all (a value 0, or an upper semicontinuous point)."""
    pts = draw(cut_points(max_cuts=max_jumps))
    opens = draw(st.lists(st.integers(1, 4), min_size=len(pts) - 1, max_size=len(pts) - 1))
    vals = []
    for i in range(len(pts)):
        sides = opens[max(i - 1, 0):i + 1]
        kind = draw(st.sampled_from(["left", "right", "center"]))
        if kind == "center" and min(sides) > 1:
            vals.append(draw(st.integers(1, min(sides) - 1)))
        else:
            vals.append(sides[0] if kind == "left" else sides[-1])
        vals[-1] = min(vals[-1], *sides)
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(pts) - 1))
        vals[i] = draw(st.sampled_from([0, 5]))
    d = StepFunction.from_profile(pts, vals, opens)
    gaps = [t2 - t for t, t2 in zip(pts, pts[1:])]
    delta = draw(st.one_of(
        st.fractions(0, 1, max_denominator=64),
        st.sampled_from([min(gaps) / 2, min(gaps) / 2 + Fraction(1, 97),
                         min(gaps) / 2 - Fraction(1, 97), pts[1], 1 - pts[-2],
                         ONE, Fraction(-1, 8)]),
    ))
    return d, delta


# ---------------------------------------------------------------------------
# Fraction-ordered references for the keyed merge, search and scan
# ---------------------------------------------------------------------------
#
# ``merged_points`` and ``_preimage_refinement`` order integer-pair points
# by their floats, exactly where floats tie, and hand back integer
# positions and slots, and the extrema scan integer pairs compared by
# cross-multiplying.  These references sort, look up and compare the
# Fractions themselves (``ref_preimage_refinement`` above is the one for
# the compositions); the two extrema sample through ``ref_refine``.


def ref_merged_points(*fns) -> tuple:
    """``(pts, own)`` from a Fraction sort, and each function's own points
    found in ``pts`` by Fraction hashing."""
    runs = []
    for f in fns:
        runs.extend(_points(f))
    runs.append(ONE)
    pts = [ZERO]
    for t in sorted(runs):
        if t != pts[-1]:
            pts.append(t)
    index = {t: k for k, t in enumerate(pts)}
    return tuple(pts), [[index[t] for t in _points(f)] for f in fns]


def _points(f) -> tuple:
    return f.breakpoints if isinstance(f, PLFunction) else f.points


@contextlib.contextmanager
def fraction_ordered_kernels():
    """Run ``pwcalc`` with ``ref_merged_points`` and
    ``ref_preimage_refinement``, their points as integer pairs, in place
    of the keyed kernels, so that
    ``refine``, the compositions and ``le_pointwise`` give the
    Fraction-ordered answers.  The block must call one of them: a block
    that reaches neither would compare the keyed kernels with themselves."""
    import pytest

    from ctrace import pwcalc

    calls = []

    def counted(ref):
        def run(*args):
            calls.append(ref)
            return ref(*args)
        return run

    def merge(*fns):
        pts, own = ref_merged_points(*fns)
        return as_pairs(pts), own

    def preimages(g, targets):
        pts, g_vals, at, cells, own = ref_preimage_refinement(g, as_fractions(targets))
        return as_pairs(pts), as_pairs(g_vals), at, cells, own

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pwcalc, "_merge", counted(merge))
        mp.setattr(pwcalc, "_preimage_refinement", counted(preimages))
        yield
    assert calls, "no Fraction-ordered kernel ran inside fraction_ordered_kernels()"


def _ref_extremum(pts, h, at_value, cell_value, pick):
    from ctrace.pwcalc import ABOVE, AT, BELOW, Extremum

    h_at, h_above, h_below = h

    def candidates():
        for i, t in enumerate(pts):
            yield at_value(i, h_at[i]), t, AT
            if i + 1 < len(pts):
                a, b, hA, hB = t, pts[i + 1], h_above[i], h_below[i]
                if hA == hB:
                    yield cell_value(i, hA), (a + b) / 2, AT
                else:
                    yield cell_value(i, hA), a, ABOVE
                    yield cell_value(i, hB), b, BELOW

    return Extremum(*pick(candidates(), key=lambda c: c[0]))


def ref_weighted_sup_norm(f: PLFunction, w: StepFunction):
    pts, (f_samples, (w_at, w_open, _)) = ref_refine(f, w)
    return _ref_extremum(
        pts, f_samples,
        lambda i, v: abs(v) / w_at[i], lambda i, v: abs(v) / w_open[i], max,
    )


def ref_inf_difference(upper, lower):
    pts, (u, l) = ref_refine(upper, lower)
    h = tuple([x - y for x, y in zip(us, ls)] for us, ls in zip(u, l))
    return _ref_extremum(pts, h, lambda i, v: v, lambda i, v: v, min)


# Interior points that put float keys to the test: a few bases, each also
# moved by 10^-17 (often the same float), 10^-30 and 10^-400 (always the
# same float); points whose float is 0.0 or 1.0; a huge denominator whose
# float is 0.5; and plain points.
_NUDGES = [Fraction(1, 10**k) for k in (17, 30, 400)]
NEAR_TIES = sorted({
    *(b + s * e for b in (Fraction(1, 3), Fraction(1, 2), Fraction(5, 7))
      for e in _NUDGES for s in (-1, 0, 1)),
    Fraction(1, 10**400), Fraction(3, 10**400), 1 - Fraction(1, 10**30),
    Fraction(2**200 - 1, 2**201 + 3), Fraction(1, 4), Fraction(3, 4),
})

# a few values, so that cells are often constant and extremum candidates tie
tie_values = st.sampled_from([Fraction(v) for v in (-1, 0, 1, 2)] + [
    Fraction(1, 2), Fraction(-1, 2), Fraction(1, 2) + Fraction(1, 10**30),
])


@st.composite
def near_tie_cut_points(draw, max_cuts=6):
    inner = draw(st.lists(st.sampled_from(NEAR_TIES), max_size=max_cuts, unique=True))
    return [ZERO] + sorted(inner) + [ONE]


@st.composite
def near_tie_pl_functions(draw):
    pts = draw(near_tie_cut_points())
    vals = draw(st.lists(tie_values, min_size=len(pts), max_size=len(pts)))
    return PLFunction(tuple(pts), tuple(vals))


@st.composite
def near_tie_step_functions(draw, values=tie_values):
    pts = draw(near_tie_cut_points())
    point_vals = draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    open_vals = draw(st.lists(values, min_size=len(pts) - 1, max_size=len(pts) - 1))
    return StepFunction.from_profile(pts, point_vals, open_vals)


@st.composite
def near_tie_inner_functions(draw, targets=()):
    """Maps [0,1] -> [0,1] whose values land on ``targets``, on points with
    the same float as a target, or stay constant."""
    pts = draw(near_tie_cut_points())
    value = st.sampled_from(sorted({ZERO, ONE, *NEAR_TIES, *targets}))
    vals = [draw(value)]
    for _ in pts[1:]:
        vals.append(vals[-1] if draw(st.integers(0, 3)) == 0 else draw(value))
    return PLFunction(tuple(pts), tuple(vals))


# ---------------------------------------------------------------------------
# per-sample references for the density check and the nested presentation
# ---------------------------------------------------------------------------
#
# ``density_check`` now reads each distinct eigenfunction's slot from its
# push through one slot step function, and ``nested_from_dim`` builds every
# set in one walk along d's profile.  These are the versions they replaced:
# every eigenfunction evaluated at every sample and every bin rescanned,
# and one pass over d's pieces per level.


def ref_density_check(pattern, d: int, delta):
    from ctrace.patterns import DensityResult
    from ctrace.pwcalc import frac

    delta = frac(delta)
    if d < 1:
        raise ValueError("need at least one subinterval")
    if not ZERO < delta <= Fraction(1, d):
        raise ValueError("delta must lie in (0, 1/d]")
    needed = delta * pattern.multiplicity
    cuts = [Fraction(j, d) for j in range(d + 1)]
    pts = set()
    for lam in pattern.eigenfunctions:
        pts.update(ref_preimage_refinement(lam, cuts)[0])
    pts = sorted(pts)
    samples = pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]
    for t in samples:
        values = [lam.eval(t) for lam in pattern.eigenfunctions]
        for j in range(d):
            lo, hi = cuts[j], cuts[j + 1]
            if sum(1 for v in values if lo <= v <= hi) < needed:
                return DensityResult(False, t, j)
    return DensityResult(True)


def _ref_superlevel(pieces, level: int) -> tuple:
    """The set {t : d(t) >= level}, given d's pieces, as a sorted tuple of intervals."""
    from ctrace.pwcalc import Interval

    out = []
    for piece in pieces:
        if piece.value < level:
            continue
        iv = piece.interval
        if out:
            prev = out[-1]
            if prev.hi == iv.lo and (prev.hi_closed or iv.lo_closed):
                out[-1] = Interval(prev.lo, iv.hi, prev.lo_closed, iv.hi_closed)
                continue
        out.append(iv)
    return tuple(out)


def ref_nested_from_dim(d: StepFunction):
    from ctrace.blocks import NestedPresentation, ensure_dimension_function

    ensure_dimension_function(d)
    n = int(d.max_value())
    pieces = d.pieces
    return NestedPresentation(n, tuple(_ref_superlevel(pieces, level) for level in range(2, n + 1)))


def composite_pattern(first, later):
    """The pattern of the composite map: first ``first``, then ``later``, so
    apply_pattern(composite_pattern(p, q), f) == apply_pattern(q, apply_pattern(p, f))."""
    from ctrace.patterns import EigenPattern
    from ctrace.pwcalc import compose_pl

    return EigenPattern(tuple(
        compose_pl(mine, theirs)
        for theirs in later.eigenfunctions
        for mine in first.eigenfunctions
    ))


@st.composite
def density_cases(draw, max_d=5):
    """(pattern, d, delta): eigenfunctions drawn with repeats from a few
    whose values land on the cuts j/d, some of them constant on a cut, and
    a delta in (0, 1/d] that makes the needed count an integer or not."""
    from ctrace.patterns import EigenPattern

    d = draw(st.integers(1, max_d))
    cuts = [Fraction(j, d) for j in range(d + 1)]
    constants = st.sampled_from(cuts).map(PLFunction.constant)
    distinct = draw(st.lists(st.one_of(inner_functions(cuts), constants),
                             min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=10))
    delta = Fraction(1, d) * draw(st.fractions(0, 1, max_denominator=6).filter(bool))
    return EigenPattern(tuple(picks)), d, delta


@st.composite
def dimension_functions(draw, max_cuts=6, max_value=6):
    """lsc integer step functions >= 1: random cells, or a staircase that
    climbs one level per cut and comes back down; each point takes the
    smaller neighbouring cell or dips below it, so a pinch splits a
    superlevel set into touching open intervals."""
    pts = draw(cut_points(max_cuts=max_cuts))
    k = len(pts) - 1
    if draw(st.booleans()):
        cells = [1 + min(i, k - 1 - i) for i in range(k)]
    else:
        cells = draw(st.lists(st.integers(1, max_value), min_size=k, max_size=k))
    at = [draw(st.integers(1, min(cells[max(j - 1, 0):j + 1]))) for j in range(k + 1)]
    return StepFunction.from_profile(pts, at, cells)


# ---------------------------------------------------------------------------
# step-function JSON references
# ---------------------------------------------------------------------------
#
# ``StepFunction.from_json`` now reads each piece into an ``(Interval,
# value)`` pair and ``to_json`` writes dicts straight from the profile.
# These are the versions they replaced: every piece through ``Interval``
# and ``Piece``, the tiling check on the pieces, and the profile checked
# again by ``from_profile``; and the pieces written by their own
# ``to_json``.


def ref_step_from_json(obj) -> StepFunction:
    from ctrace.pwcalc import Interval, Piece, frac, json_bool, json_list, json_obj

    if json_obj(obj, "a step function").get("kind") != "step":
        raise ValueError("not a step-function payload")
    pieces = []
    for p in json_list(obj["pieces"], "pieces"):
        p = json_obj(p, "each entry of pieces")
        pieces.append(Piece(Interval(frac(p["lo"]), frac(p["hi"]),
                                     json_bool(p["lo_closed"], "lo_closed"),
                                     json_bool(p["hi_closed"], "hi_closed")), frac(p["value"])))
    if not pieces:
        raise ValueError("a step function needs at least one piece")
    pieces = tuple(sorted(pieces, key=lambda p: (p.interval.lo, not p.interval.lo_closed)))
    first, last = pieces[0].interval, pieces[-1].interval
    if first.lo != ZERO or not first.lo_closed:
        raise ValueError("pieces must start at 0 (closed)")
    if last.hi != ONE or not last.hi_closed:
        raise ValueError("pieces must end at 1 (closed)")
    for cur, nxt in zip(pieces, pieces[1:]):
        if cur.interval.hi != nxt.interval.lo:
            raise ValueError(
                f"pieces do not tile [0,1]: gap or overlap at "
                f"{cur.interval.hi} vs {nxt.interval.lo}"
            )
        if cur.interval.hi_closed == nxt.interval.lo_closed:
            raise ValueError(
                f"endpoint {cur.interval.hi} covered "
                f"{'twice' if cur.interval.hi_closed else 'by no piece'}"
            )
    points, point_values, open_values = [ZERO], [], []
    for p in pieces:
        iv = p.interval
        if iv.lo_closed:
            point_values.append(p.value)
        if not iv.is_point:
            points.append(iv.hi)
            open_values.append(p.value)
            if iv.hi_closed:
                point_values.append(p.value)
    return StepFunction.from_profile(points, point_values, open_values)


def ref_step_to_json(s: StepFunction) -> dict:
    from ctrace.pwcalc import Interval, Piece, frac_pair

    pts, vals, opens = s.points, s.point_values, s.open_values
    pieces = []
    lo, lo_closed, value = pts[0], True, vals[0]
    for i in range(1, len(pts)):
        if opens[i - 1] != value:
            pieces.append(Piece(Interval(lo, pts[i - 1], lo_closed, True), value))
            lo, lo_closed, value = pts[i - 1], False, opens[i - 1]
        if vals[i] != value:
            pieces.append(Piece(Interval(lo, pts[i], lo_closed, False), value))
            lo, lo_closed, value = pts[i], True, vals[i]
    pieces.append(Piece(Interval(lo, pts[-1], lo_closed, True), value))
    out = []
    for p in pieces:
        blob = p.interval.to_json()
        blob["value"] = frac_pair(p.value)
        out.append(blob)
    return {"kind": "step", "pieces": out}


@st.composite
def wide_step_functions(draw):
    """Step functions with large denominators in points and values, whose
    point values often differ from both neighbouring cells, so that single-
    point pieces are common."""
    pts = draw(wide_cut_points())
    values = st.one_of(tie_values, wide_fractions)
    open_vals = draw(st.lists(values, min_size=len(pts) - 1, max_size=len(pts) - 1))
    point_vals = draw(st.lists(values, min_size=len(pts), max_size=len(pts)))
    return StepFunction.from_profile(pts, point_vals, open_vals)


# ---------------------------------------------------------------------------
# hand-written JSON forms of the result records
# ---------------------------------------------------------------------------
#
# A result record's ``to_json`` now comes from ``pwcalc.Record``: its
# dataclass fields by name.  These are the forms it replaced, written out
# key by key as the CLI handlers and the records' own ``to_json`` methods
# wrote them.


def _ref_opt_pair(x):
    return None if x is None else frac_pair(x)


def ref_le_result_json(res) -> dict:
    return {"holds": res.holds, "witness": _ref_opt_pair(res.witness)}


def ref_extremum_json(res) -> dict:
    return {"value": frac_pair(res.value), "at": frac_pair(res.at), "side": res.side}


def ref_interval_json(iv) -> dict:
    return {
        "lo": frac_pair(iv.lo),
        "hi": frac_pair(iv.hi),
        "lo_closed": iv.lo_closed,
        "hi_closed": iv.hi_closed,
    }


def ref_special_check_json(check) -> dict:
    return {"valid": check.valid, "reason": check.reason, "witness": _ref_opt_pair(check.witness)}


def ref_nested_json(p) -> dict:
    return {"n": p.n, "opens": [[ref_interval_json(iv) for iv in s] for s in p.opens]}


def ref_pattern_json(p) -> dict:
    return {"eigenfunctions": [f.to_json() for f in p.eigenfunctions]}


def ref_density_json(res) -> dict:
    return {
        "holds": res.holds,
        "witness_t": _ref_opt_pair(res.witness_t),
        "witness_bin": res.witness_bin,
    }


def ref_uniqueness_json(rep) -> dict:
    return {
        "holds": rep.holds,
        "density_ok": rep.density_ok,
        "failing_ramp": rep.failing_ramp,
        "lhs_norm": _ref_opt_pair(rep.lhs_norm),
        "rhs_bound": _ref_opt_pair(rep.rhs_bound),
    }


def ref_gap_json(rep) -> dict:
    return {"gap": frac_pair(rep.gap), "at": frac_pair(rep.at), "attained": rep.attained}


def ref_chain_json(rep) -> dict:
    return {
        "verified": rep.verified,
        "margin": _ref_opt_pair(rep.margin),
        "margin_at": _ref_opt_pair(rep.margin_at),
        "reason": rep.reason,
        "witness": _ref_opt_pair(rep.witness),
        "stage_gaps": [ref_gap_json(g) for g in rep.stage_gaps],
    }


def ref_eigen_fact_json(e) -> dict:
    return {"sup_distance": frac_pair(e.sup_distance)}


def ref_element_fact_json(e) -> dict:
    return {"deviation": frac_pair(e.deviation), "bound": frac_pair(e.bound)}


def ref_check_item_json(i) -> dict:
    return {"name": i.name, "ok": i.ok, "detail": i.detail}


def ref_certificate_check_json(check) -> dict:
    return {"ok": check.ok, "items": [ref_check_item_json(i) for i in check.items]}


def ref_simplex_json(s) -> dict:
    return {"k": s.k}


def ref_membership_json(res) -> dict:
    return {"member": res.member, "failing_vertex": res.failing_vertex}


def ref_certificate_json(cert) -> dict:
    return {
        "kind": "perturbation_certificate",
        "d_A": cert.d_A.to_json(),
        "f_prime": cert.f_prime.to_json(),
        "d_B": cert.d_B.to_json(),
        "original": cert.original.to_json(),
        "perturbed": cert.perturbed.to_json(),
        "delta": frac_pair(cert.delta),
        "eps": frac_pair(cert.eps),
        "w_dom": cert.w_dom.to_json(),
        "w_cod": cert.w_cod.to_json(),
        "test_elements": [a.to_json() for a in cert.test_elements],
        "eigen_facts": [ref_eigen_fact_json(e) for e in cert.eigen_facts],
        "pushed": cert.pushed.to_json(),
        "element_facts": [ref_element_fact_json(e) for e in cert.element_facts],
    }


def ref_counterexample_json(rep) -> dict:
    return {
        "kind": "counterexample_report",
        "delta": frac_pair(rep.delta),
        "eps0": frac_pair(rep.eps0),
        "multiplicity": rep.multiplicity,
        "d_B_value": frac_pair(rep.d_B_value),
        "hypothesis_ok": rep.hypothesis_ok,
        "infeasible_ok": rep.infeasible_ok,
        "witness": frac_pair(rep.witness),
        "pushed_at_witness": frac_pair(rep.pushed_at_witness),
        "d_A": rep.d_A.to_json(),
        "f": rep.f.to_json(),
    }


def _ref_ext_json(x):
    return "inf" if x == math.inf else frac_pair(x)


def ref_vertex_check_json(v) -> dict:
    return {
        "f": _ref_ext_json(v.f),
        "sup": None if v.sup is None else _ref_ext_json(v.sup),
        "equal": v.equal,
    }


def ref_ai_report_json(rep) -> dict:
    return {
        "verdict": rep.verdict.value,
        "per_vertex": [ref_vertex_check_json(v) for v in rep.per_vertex],
        "reason": rep.reason,
    }
