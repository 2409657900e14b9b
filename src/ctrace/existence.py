"""Constraint-preserving perturbation of eigenvalue patterns.

Given a dimension function d_A with isolated jumps, a continuous
under-approximation f' of d_A, and a pattern T with T(f') dominated by a
target dimension function d_B, the eigenfunctions of T are perturbed by
at most 2*delta in the sup norm so that pushing d_A through the
perturbed pattern stays below d_B.  The construction is a single
"squash" reparametrization sigma of [0,1] applied inside every
perturbed eigenfunction: around each jump of d_A, sigma clamps a
2*delta window to a point where d_A is smallest and rejoins the
identity along short linear ramps, which gives d_A(sigma(x)) <= f'(x)
everywhere and hence d_A(sigma(lambda_i(t))) <= f'(lambda_i(t)) for
every eigenfunction.

Every produced certificate embeds the exact facts it claims, and
``verify_certificate`` re-derives all of them from scratch.

The module also reproduces a worked infeasibility instance showing that
a multiplicative slack on the domination hypothesis cannot be repaired
by small perturbations: with enough identical eigenfunctions, the
pattern is forced to overshoot a constant target at t = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Final, Sequence

from .blocks import ensure_dimension_function
from .errors import Infeasible, PreconditionFailed
from .patterns import EigenPattern, deviation
from .pwcalc import (
    ONE,
    PLFunction,
    Record,
    StepFunction,
    ZERO,
    _by_value,
    _plus,
    _reduced,
    compose_pl,
    compose_step_pl,
    ensure_positive_weight,
    frac,
    json_entries,
    json_obj,
    le_pointwise,
    linear_combine,
    linear_combine_steps,
    sup_distance,
)


def choose_delta(eps, m: int) -> Fraction:
    """The window half-width eps / (2 m^2) matching the norm budget."""
    eps = frac(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    return eps / (2 * m * m)


def _checked_delta(d: StepFunction, delta) -> tuple:
    """delta's reduced terms, once delta is positive and d a dimension function."""
    delta = _reduced(delta)
    if delta[0] <= 0:
        raise ValueError("delta must be positive")
    ensure_dimension_function(d)
    return delta


def _windows(d: StepFunction, delta: tuple) -> list:
    """The jump windows of the dimension function d at the half-width
    delta, a positive reduced pair.

    The jumps are read off d's stored profile: the points whose value
    differs from a neighbouring cell's.  Each window is ``(t, left, value,
    right, a, b)`` in reduced pairs: the jump t, d's limit from the left
    (None at 0), its value and its limit from the right (None at 1), and
    [a, b] = [t - delta, t + delta] cut to [0,1].  Overlapping windows, an
    interior window that reaches 0 or 1 and an endpoint window that covers
    [0,1] are refused, by cross-multiplying, so no other breakpoint of d
    lies within 2*delta of a jump and only a jump at 0 or 1 has its window
    cut; a Fraction is built only for an error message.
    """
    dn, dd = delta
    pts, vals, opens = d._pts, d._vals, d._opens
    last = len(pts) - 1
    jumps = [(t, opens[i - 1] if i else None, v, opens[i] if i < last else None)
             for i, (t, v) in enumerate(zip(pts, vals))
             if (i and opens[i - 1] != v) or (i < last and opens[i] != v)]
    for ((sn, sd), *_), ((rn, rd), *_) in zip(jumps, jumps[1:]):
        # r - s > 2 * delta, over the positive denominator sd * rd * dd
        if not (rn * sd - sn * rd) * dd > 2 * dn * sd * rd:
            raise ValueError(f"windows overlap: jumps at {Fraction(sn, sd)} and "
                             f"{Fraction(rn, rd)} closer than 2*delta")
    for (sn, sd), *_ in jumps:
        if sn == 0 or sn == sd:
            # truncated window; still must leave room on the far side
            if not dn < dd:
                raise ValueError("window around an endpoint jump covers all of [0,1]")
        elif not (dn * sd < sn * dd and dn * sd < (sd - sn) * dd):
            raise ValueError(
                f"window around {Fraction(sn, sd)} reaches an endpoint; shrink delta"
            )
    return [(t, left, v, right, _plus(t, -dn, dd) if t[0] else t,
             t if t == (1, 1) else _plus(t, dn, dd)) for t, left, v, right in jumps]


def _push(pts: list, t, v) -> None:
    """Append the breakpoint (t, v) unless t repeats the last one, whose
    value must then agree."""
    if pts and pts[-1][0] == t:
        if pts[-1][1] != v:
            raise AssertionError("inconsistent construction")
        return
    pts.append((t, v))


def _pl(pts: list) -> PLFunction:
    """The PL function through the reduced breakpoints ``pts``, stored in canonical form."""
    return object.__new__(PLFunction)._store([t for t, _ in pts], [v for _, v in pts])


def _underapprox(d: StepFunction, windows: list) -> PLFunction:
    """f' from the jump windows of d: see :func:`make_underapprox`."""
    pts = [((0, 1), d._vals[0])]
    for t, left, v, right, a, b in windows:
        if a[0]:
            _push(pts, a, left)
        _push(pts, t, v)
        if b != (1, 1):
            _push(pts, b, right)
    _push(pts, (1, 1), d._vals[-1])
    return _pl(pts)


def make_underapprox(d: StepFunction, delta) -> PLFunction:
    """Continuous piecewise-linear f' <= d equal to d away from its jumps.

    Around each jump s, within the window of half-width delta, f'
    interpolates linearly between the window-edge values of d and the
    point value d(s); in particular f'(s) = d(s).  No other breakpoint
    lies in a window, so its edge values are the jump's one-sided limits.
    """
    return _underapprox(d, _windows(d, _checked_delta(d, delta)))


def _ramp(lo: tuple, hi: tuple, delta: tuple) -> tuple:
    """Half of min(delta, hi - lo), for lo < hi reduced: how far into the
    gap [lo, hi] a ramp of sigma runs before it rejoins the identity."""
    (ln, ld), (hn, hd) = lo, hi
    wn, wd = min(delta, (hn * ld - ln * hd, ld * hd), key=_by_value)
    return wn, 2 * wd


def _squash(delta: tuple, windows: list) -> PLFunction:
    """sigma from the jump windows at the half-width delta: see :func:`squash_map`."""
    pts = [((0, 1), (0, 1))]
    for idx, (t, left, v, right, a, b) in enumerate(windows):
        c = a if left == v else b if right == v else t
        if c != a:
            wn, wd = _ramp(windows[idx - 1][5] if idx else (0, 1), a, delta)
            x = _plus(a, -wn, wd)
            _push(pts, x, x)
        _push(pts, a, c)
        _push(pts, b, c)
        if c != b:
            wn, wd = _ramp(b, windows[idx + 1][4] if idx + 1 < len(windows) else (1, 1), delta)
            x = _plus(b, wn, wd)
            _push(pts, x, x)
    _push(pts, (1, 1), (1, 1))
    return _pl(pts)


def squash_map(d: StepFunction, delta) -> PLFunction:
    """The reparametrization sigma with d(sigma(x)) <= f'(x) and
    |sigma(x) - x| <= 2*delta everywhere.

    sigma is the identity away from the jump windows of d; each window
    [s-delta, s+delta] is clamped to a point of minimal d-value among
    the window edges and s (a window edge whose one-sided limit equals
    d(s), the left one first, else s itself), and sigma rejoins the
    identity along linear ramps of half the available gap (at most
    delta/2 wide).
    """
    delta = _checked_delta(d, delta)
    return _squash(delta, _windows(d, delta))


class EigenFact(Record):
    """Per-eigenfunction certificate entry: the exact sup distance."""

    sup_distance: Fraction

    @classmethod
    def from_json(cls, obj: dict) -> "EigenFact":
        return cls(frac(obj["sup_distance"]))


def _eigen_check(lam: PLFunction, lam_hat: PLFunction, d_a_of_hat: StepFunction,
                 f_prime_of_lam: PLFunction) -> tuple:
    """The sup distance of lam_hat from lam, and the LeResult of d_A(lam_hat) <= f'(lam)."""
    return (sup_distance(lam_hat, lam),
            le_pointwise(d_a_of_hat, f_prime_of_lam))


class ElementFact(Record):
    """Per-test-element certificate entry: deviation and allowed bound."""

    deviation: Fraction
    bound: Fraction

    @classmethod
    def from_json(cls, obj: dict) -> "ElementFact":
        return cls(frac(obj["deviation"]), frac(obj["bound"]))


class PerturbationCertificate(Record):
    """Self-contained record of a successful perturbation.

    Every claimed fact is embedded exactly and can be re-derived by
    ``verify_certificate`` from the stored data alone.
    """

    kind: Final = "perturbation_certificate"
    d_A: StepFunction
    f_prime: PLFunction
    d_B: StepFunction
    original: EigenPattern
    perturbed: EigenPattern
    delta: Fraction
    eps: Fraction
    w_dom: StepFunction
    w_cod: StepFunction
    test_elements: tuple
    eigen_facts: tuple
    pushed: StepFunction
    element_facts: tuple

    @classmethod
    def from_json(cls, obj: dict) -> "PerturbationCertificate":
        if json_obj(obj, "a certificate").get("kind") != cls.kind:
            raise ValueError("not a perturbation certificate")
        return cls(
            d_A=StepFunction.from_json(obj["d_A"]),
            f_prime=PLFunction.from_json(obj["f_prime"]),
            d_B=StepFunction.from_json(obj["d_B"]),
            original=EigenPattern.from_json(obj["original"]),
            perturbed=EigenPattern.from_json(obj["perturbed"]),
            delta=frac(obj["delta"]),
            eps=frac(obj["eps"]),
            w_dom=StepFunction.from_json(obj["w_dom"]),
            w_cod=StepFunction.from_json(obj["w_cod"]),
            test_elements=json_entries(obj, "test_elements", PLFunction.from_json),
            eigen_facts=json_entries(obj, "eigen_facts", EigenFact.from_json),
            pushed=StepFunction.from_json(obj["pushed"]),
            element_facts=json_entries(obj, "element_facts", ElementFact.from_json),
        )


def perturb_pattern(d_a: StepFunction, f_prime: PLFunction, pattern: EigenPattern,
                    d_b: StepFunction, delta, test_elements: Sequence[PLFunction],
                    eps, w_dom: StepFunction,
                    w_cod: StepFunction) -> PerturbationCertificate:
    """Perturb the pattern so d_A pushes below d_B; emit an exact certificate.

    Certified facts: (a) each eigenfunction moves by at most 2*delta in
    the sup norm; (b) d_A composed with each perturbed eigenfunction is
    dominated by f' composed with the original one, so the pushed sum is
    at most the hypothesis sum pattern(f') <= d_B, and f' <= d_A since f'
    is the canonical under-approximation; these two follow here without a
    sweep, and ``verify_certificate`` sweeps both; (c) for each test
    element a, the weighted deviation between the original and perturbed
    pattern applied to a is at most eps times the domain norm of a.

    Raises :class:`Infeasible` with a witness point when the domination
    hypothesis pattern(f') <= d_B fails, or when no perturbation of the
    implemented family satisfies (b) or (c); facts are never weakened.
    """
    delta, eps = frac(delta), frac(eps)
    if delta <= 0 or eps <= 0:
        raise ValueError("delta and eps must be positive")
    ensure_dimension_function(d_a)
    ensure_dimension_function(d_b)
    ensure_positive_weight(w_dom)
    ensure_positive_weight(w_cod)
    # the windows serve f' and sigma, and d_A is checked once
    terms = delta.numerator, delta.denominator
    windows = _windows(d_a, terms)
    if f_prime != _underapprox(d_a, windows):
        raise PreconditionFailed(
            "f_prime is not the canonical under-approximation of d_A at this delta"
        )
    # f'(lam) and d_A(lam_hat) are composed once each, for the sums and the checks
    counts = pattern.counts
    f_prime_of = {lam: compose_pl(f_prime, lam) for lam in counts}
    hypothesis = le_pointwise(linear_combine([*counts.values()], [*f_prime_of.values()]), d_b)
    if not hypothesis:
        raise Infeasible(
            "pattern(f') exceeds d_B; no admissible perturbation exists",
            witness=hypothesis.witness,
        )

    sigma = _squash(terms, windows)
    # each distinct eigenfunction is perturbed and certified once, in
    # first-seen order, so the first failing one is the first failing index
    hats = {lam: compose_pl(sigma, lam) for lam in counts}
    d_a_of = {hat: compose_step_pl(d_a, hat) for hat in dict.fromkeys(hats.values())}
    facts = {}
    for lam, lam_hat in hats.items():
        dist, dom = _eigen_check(lam, lam_hat, d_a_of[lam_hat], f_prime_of[lam])
        if dist > 2 * delta:
            raise AssertionError("squash construction exceeded its own budget")
        if not dom:
            raise Infeasible(
                "perturbed eigenfunction escapes the under-approximation",
                witness=dom.witness,
            )
        facts[lam] = EigenFact(dist)
    perturbed = EigenPattern(tuple(hats[lam] for lam in pattern.eigenfunctions))
    eigen_facts = [facts[lam] for lam in pattern.eigenfunctions]
    pushed = linear_combine_steps([*perturbed.counts.values()], [*d_a_of.values()])
    element_facts = []
    for a in test_elements:
        dev, norm = deviation(pattern, perturbed, a, w_dom, w_cod)
        bound = eps * norm
        if dev > bound:
            raise Infeasible(
                f"deviation {dev} on a test element exceeds the budget {bound}"
            )
        element_facts.append(ElementFact(dev, bound))
    return PerturbationCertificate(
        d_A=d_a,
        f_prime=f_prime,
        d_B=d_b,
        original=pattern,
        perturbed=perturbed,
        delta=delta,
        eps=eps,
        w_dom=w_dom,
        w_cod=w_cod,
        test_elements=tuple(test_elements),
        eigen_facts=tuple(eigen_facts),
        pushed=pushed,
        element_facts=tuple(element_facts),
    )


class CheckItem(Record):
    name: str
    ok: bool
    detail: str = ""


class CertificateCheck(Record):
    ok: bool
    items: tuple

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list:
        return [i for i in self.items if not i.ok]


def verify_certificate(cert: PerturbationCertificate) -> CertificateCheck:
    """Independently re-check every fact embedded in a certificate.

    Uses only the exact calculus and pattern primitives; returns an
    itemized report rather than raising.
    """
    items = []

    def add(name, ok, detail=""):
        items.append(CheckItem(name, bool(ok), detail))

    add(
        "pattern_sizes_match",
        cert.original.multiplicity == cert.perturbed.multiplicity
        and len(cert.eigen_facts) == cert.original.multiplicity,
    )
    underapprox = le_pointwise(cert.f_prime, cert.d_A)
    add("f_prime_below_d_A", underapprox.holds,
        "" if underapprox else f"witness {underapprox.witness}")
    hats = cert.perturbed.counts
    d_a_of = {hat: compose_step_pl(cert.d_A, hat) for hat in hats}
    if cert.original.multiplicity == cert.perturbed.multiplicity:
        pairs = list(zip(cert.original.eigenfunctions, cert.perturbed.eigenfunctions))
        # each distinct (lambda, lambda_hat) pair is re-derived once
        derived = {(lam, hat): _eigen_check(lam, hat, d_a_of[hat], compose_pl(cert.f_prime, lam))
                   for lam, hat in dict.fromkeys(pairs)}
        for i, pair in enumerate(pairs):
            dist, dom = derived[pair]
            fact = cert.eigen_facts[i] if i < len(cert.eigen_facts) else None
            add(
                f"eigen_distance[{i}]",
                fact is not None and dist == fact.sup_distance
                and dist <= 2 * cert.delta,
                f"distance {dist}",
            )
            add(
                f"eigen_domination[{i}]",
                dom.holds,
                "" if dom else f"witness {dom.witness}",
            )
    ensure_dimension_function(cert.d_A)
    pushed = linear_combine_steps([*hats.values()], [*d_a_of.values()])
    add("pushed_matches", pushed == cert.pushed)
    below = le_pointwise(pushed, cert.d_B)
    add("pushed_below_target", below.holds,
        "" if below else f"witness {below.witness}")
    add(
        "element_count_matches",
        len(cert.element_facts) == len(cert.test_elements),
    )
    for j, a in enumerate(cert.test_elements):
        dev, norm = deviation(cert.original, cert.perturbed, a, cert.w_dom, cert.w_cod)
        bound = cert.eps * norm
        fact = cert.element_facts[j] if j < len(cert.element_facts) else None
        add(
            f"element_deviation[{j}]",
            fact is not None and dev == fact.deviation
            and bound == fact.bound and dev <= bound,
            f"deviation {dev} vs bound {bound}",
        )
    return CertificateCheck(all(i.ok for i in items), tuple(items))


# ---------------------------------------------------------------------------
# the slack-hypothesis counterexample
# ---------------------------------------------------------------------------


def pinched_dimension_function() -> StepFunction:
    """Value 2 on [0,1/2) and (1/2,1], value 1 at the single point 1/2."""
    half = Fraction(1, 2)
    return StepFunction.from_profile(
        [ZERO, half, ONE],
        [Fraction(2), Fraction(1), Fraction(2)],
        [Fraction(2), Fraction(2)],
    )


class CounterexampleReport(Record):
    """Worked instance where a slack-weakened hypothesis is unrepairable.

    With m identical identity eigenfunctions, 1/(2m-1) < delta makes the
    slack hypothesis pattern(f) <= (1+delta) * d_B hold for the constant
    target d_B = 2m-1, yet every pattern whose eigenfunctions stay
    within 2*eps0 < 1/2 of the identity at t = 0 pushes the pinched
    dimension function to 2m > 2m-1 there.
    """

    kind: Final = "counterexample_report"
    delta: Fraction
    eps0: Fraction
    multiplicity: int
    d_B_value: Fraction
    hypothesis_ok: bool
    infeasible_ok: bool
    witness: Fraction
    pushed_at_witness: Fraction
    d_A: StepFunction
    f: PLFunction
    _unshown = ("d_A", "f")

    def __bool__(self) -> bool:
        return self.hypothesis_ok and self.infeasible_ok


def reproduce_counterexample(delta, eps0) -> CounterexampleReport:
    """Build and exactly verify the slack-hypothesis counterexample.

    Picks the minimal multiplicity m with 1/(2m-1) < delta, which is
    floor((1/delta + 1)/2) + 1, the pinched dimension function as
    source, m identity eigenfunctions, and the constant target 2m-1.
    Verifies the slack hypothesis exactly (m identities push f to m*f),
    then certifies infeasibility at t = 0: any eigenfunction value within
    2*eps0 of 0 misses the pinch point 1/2, so the push there is 2m.
    """
    delta, eps0 = frac(delta), frac(eps0)
    if not ZERO < delta < ONE:
        raise ValueError("delta must lie in (0,1)")
    if not ZERO < eps0 < Fraction(1, 4):
        raise ValueError("eps0 must lie in (0, 1/4)")
    m = (1 / delta + 1) // 2 + 1
    d_a = pinched_dimension_function()
    d_b_value = Fraction(2 * m - 1)
    d_b = StepFunction.constant(d_b_value)
    f = make_underapprox(d_a, Fraction(1, 8))
    # m identities push f to m*f; check_compat would build, check and count
    # a pattern of m eigenfunctions, O(m) work for a tiny delta
    hypothesis = le_pointwise(f.scale(m), d_b.scale(1 + delta))

    # any eigenfunction within 2*eps0 of the identity at 0 lands in
    # [0, 2*eps0], where the pinched function is identically 2
    reach = 2 * eps0
    # the least value of d_A on [0, reach], read from its profile: its
    # points in the window and the open cells starting before reach
    forced_value = min(
        [v for t, v in zip(d_a.points, d_a.point_values) if t <= reach]
        + [v for t, v in zip(d_a.points, d_a.open_values) if t < reach]
    )
    pushed_at_zero = Fraction(m) * forced_value
    infeasible = (
        reach < Fraction(1, 2)
        and forced_value == 2
        and pushed_at_zero > d_b_value
    )
    return CounterexampleReport(
        delta=delta,
        eps0=eps0,
        multiplicity=m,
        d_B_value=d_b_value,
        hypothesis_ok=hypothesis.holds,
        infeasible_ok=infeasible,
        witness=ZERO,
        pushed_at_witness=pushed_at_zero,
        d_A=d_a,
        f=f,
    )
