"""Perturbation algorithm, certificates, and the slack counterexample."""

import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctrace.errors import Infeasible, PreconditionFailed
from ctrace.existence import (
    EigenFact,
    ElementFact,
    PerturbationCertificate,
    _eigen_check,
    choose_delta,
    make_underapprox,
    perturb_pattern,
    pinched_dimension_function,
    reproduce_counterexample,
    squash_map,
    verify_certificate,
)
from ctrace.patterns import EigenPattern, push_dimension
from ctrace.pwcalc import (
    Interval,
    PLFunction,
    Piece,
    StepFunction,
    combine_steps,
    compose_pl,
    compose_step_pl,
    le_pointwise,
    weighted_sup_norm,
)

from helpers import (
    jump_windows_cases,
    rand_lsc_int_step,
    rand_pattern,
    rand_pl,
    rand_pl_unit,
    ref_make_underapprox,
    ref_perturb_pattern,
    ref_squash_map,
    ref_verify_certificate,
)

seeds = st.integers(0, 10**9)


def jump_up_step(t0=F(1, 2)):
    return StepFunction((
        Piece(Interval(0, t0, True, True), 1),
        Piece(Interval(t0, 1, False, True), 2),
    ))


def jump_up_instance(m=3, eps=F(1, 2)):
    """Jump-up source, identity pattern, pushed target with unit margin."""
    d_a = jump_up_step()
    pattern = EigenPattern.identities(m)
    delta = choose_delta(eps, m)
    f_prime = make_underapprox(d_a, delta)
    d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
    w_dom = StepFunction.constant(1)
    w_cod = push_dimension(pattern, StepFunction.constant(1))
    return d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod


class TestChooseDelta:
    def test_budget_formula(self):
        assert choose_delta(F(1, 2), 2) == F(1, 16)

    def test_unit_case(self):
        assert choose_delta(1, 1) == F(1, 2)

    def test_larger_case(self):
        assert choose_delta(2, 10) == F(1, 100)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            choose_delta(0, 1)
        with pytest.raises(ValueError):
            choose_delta(F(1, 2), 0)


class TestMakeUnderapprox:
    def test_constant_is_unchanged(self):
        d = StepFunction.constant(4)
        assert make_underapprox(d, F(1, 8)) == PLFunction.constant(4)

    def test_jump_up_shape(self):
        fp = make_underapprox(jump_up_step(), F(1, 8))
        expected = PLFunction.from_pairs([
            (0, 1), (F(1, 2), 1), (F(5, 8), 2), (1, 2)
        ])
        assert fp == expected

    def test_pinch_shape(self):
        fp = make_underapprox(pinched_dimension_function(), F(1, 8))
        expected = PLFunction.from_pairs([
            (0, 2), (F(3, 8), 2), (F(1, 2), 1), (F(5, 8), 2), (1, 2)
        ])
        assert fp == expected

    def test_defining_properties(self):
        rng = random.Random(5)
        for _ in range(25):
            d = rand_lsc_int_step(rng)
            delta = F(1, 64)
            try:
                fp = make_underapprox(d, delta)
            except ValueError:
                continue  # jumps too close for this delta
            assert le_pointwise(fp, d)
            for jump in d.jumps():
                assert fp.eval(jump.t) == jump.value
            # equality on and outside the window edges
            edges = [F(0), F(1)]
            for jump in d.jumps():
                for off in (-delta, delta):
                    t = jump.t + off
                    if 0 <= t <= 1:
                        assert fp.eval(t) == d.eval(t)
                        edges.append(t)
            edges.sort()
            for a, b in zip(edges, edges[1:]):
                mid = (a + b) / 2
                if all(abs(mid - j.t) >= delta for j in d.jumps()):
                    assert fp.eval(mid) == d.eval(mid)

    def test_overlapping_windows_rejected(self):
        # jumps at 1/2 and 9/16 sit only 1/16 apart
        d = StepFunction.from_profile(
            [F(0), F(1, 2), F(9, 16), F(1)], [1, 1, 2, 3], [1, 2, 3]
        )
        assert len(d.jumps()) == 2
        with pytest.raises(ValueError):
            make_underapprox(d, F(1, 8))

    def test_window_reaching_endpoint_rejected(self):
        with pytest.raises(ValueError):
            make_underapprox(jump_up_step(F(1, 16)), F(1, 8))


class TestSquashMap:
    def test_jump_up_matches_clamp_and_ramp_formula(self):
        # clamp [t0-delta, t0+delta] to t0-delta, ramp of width w after
        delta = F(1, 8)
        sigma = squash_map(jump_up_step(), delta)
        t0 = F(1, 2)
        a, b = t0 - delta, t0 + delta
        w = delta / 2
        expected = PLFunction.from_pairs([
            (0, 0), (a, a), (b, a), (b + w, b + w), (1, 1)
        ])
        assert sigma == expected
        # ramp slope (2*delta + w) / w on [b, b + w]
        assert sigma.eval(b + w / 2) == a + (w / 2) * (2 * delta + w) / w

    def test_deviation_is_exactly_two_delta_for_edge_clamp(self):
        delta = F(1, 16)
        sigma = squash_map(jump_up_step(), delta)
        diff = sigma - PLFunction.identity()
        assert weighted_sup_norm(diff, StepFunction.constant(1)).value == 2 * delta

    def test_center_clamp_for_pinch(self):
        delta = F(1, 8)
        sigma = squash_map(pinched_dimension_function(), delta)
        assert sigma.eval(F(3, 8)) == F(1, 2)
        assert sigma.eval(F(1, 2)) == F(1, 2)
        assert sigma.eval(F(5, 8)) == F(1, 2)
        diff = sigma - PLFunction.identity()
        assert weighted_sup_norm(diff, StepFunction.constant(1)).value <= 2 * delta

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_domination_invariant(self, seed):
        rng = random.Random(seed)
        d = rand_lsc_int_step(rng)
        delta = F(1, 64)
        try:
            sigma = squash_map(d, delta)
            f_prime = make_underapprox(d, delta)
        except ValueError:
            return
        assert le_pointwise(compose_step_pl(d, sigma), f_prime)
        diff = sigma - PLFunction.identity()
        assert weighted_sup_norm(diff, StepFunction.constant(1)).value <= 2 * delta


def _profile(pts, vals, opens):
    return StepFunction.from_profile([F(t) for t in pts], vals, opens)


# (name, d, delta): each window shape and clamp kind, and each refusal
WINDOW_CASES = [
    ("left clamp", _profile([0, F(1, 2), 1], [1, 1, 2], [1, 2]), F(1, 8)),
    ("right clamp", _profile([0, F(1, 2), 1], [3, 2, 2], [3, 2]), F(1, 8)),
    ("center clamp", _profile([0, F(1, 2), 1], [2, 1, 2], [2, 2]), F(1, 8)),
    ("jump at 0", _profile([0, F(1, 2), 1], [1, 2, 3], [2, 3]), F(1, 8)),
    ("jump at 1", _profile([0, F(1, 2), 1], [1, 1, 1], [1, 2]), F(1, 8)),
    ("jumps at 0 and 1 only", _profile([0, 1], [1, 1], [2]), F(1, 3)),
    ("three clamps, ramps cut short", _profile(
        [0, F(1, 4), F(1, 2), F(3, 4), 1], [2, 2, 1, 1, 1], [2, 3, 1, 2]), F(1, 9)),
    ("windows touch", _profile([0, F(1, 4), F(1, 2), 1], [1, 1, 1, 1], [1, 2, 1]), F(1, 8)),
    ("windows overlap", _profile([0, F(1, 2), F(9, 16), 1], [1, 1, 2, 3], [1, 2, 3]), F(1, 8)),
    ("window reaches 0", _profile([0, F(1, 16), 1], [1, 1, 2], [1, 2]), F(1, 8)),
    ("window reaches 1", _profile([0, F(15, 16), 1], [1, 1, 2], [1, 2]), F(1, 8)),
    ("endpoint window covers [0,1]", _profile([0, 1], [1, 2], [2]), F(1)),
    ("no jumps, huge delta", StepFunction.constant(3), F(5)),
    ("zero delta", _profile([0, F(1, 2), 1], [1, 1, 2], [1, 2]), F(0)),
    ("negative delta", _profile([0, F(1, 2), 1], [1, 1, 2], [1, 2]), F(-1, 8)),
    ("not lsc", _profile([0, F(1, 2), 1], [1, 3, 2], [1, 2]), F(1, 8)),
    ("value 0", _profile([0, F(1, 2), 1], [0, 1, 2], [1, 2]), F(1, 8)),
]

# wide, unrelated denominators: delta = 1/(10^12 + 39) and jumps at p/q for
# large primes q, with windows at and near the spacings where the ramps
# change shape (2*delta apart, or under delta apart so they meet halfway)
WIDE_DELTA = F(1, 10**12 + 39)
WIDE_S = F(333334, 1000003)
WINDOW_CASES += [
    ("wide denominators", _profile([0, WIDE_S, F(666655, 999983), 1], [2, 1, 3, 4], [2, 3, 4]),
     WIDE_DELTA),
    ("wide jumps at 0, p/q and 1", _profile([0, WIDE_S, 1], [1, 2, 1], [2, 3]), WIDE_DELTA),
    ("windows 2*delta apart", _profile(
        [0, WIDE_S, WIDE_S + 4 * WIDE_DELTA, 1], [2, 1, 1, 2], [2, 3, 2]), WIDE_DELTA),
    ("windows 1/q short of 2*delta apart", _profile(
        [0, WIDE_S, WIDE_S + 4 * WIDE_DELTA - F(1, 10**12 + 61), 1], [2, 1, 1, 2], [2, 3, 2]),
     WIDE_DELTA),
    ("windows 1/q apart, ramps meet", _profile(
        [0, WIDE_S, WIDE_S + 2 * WIDE_DELTA + F(1, 1100000000003), 1], [2, 1, 1, 2], [2, 3, 2]),
     WIDE_DELTA),
    ("jumps 1/q short of 2*delta apart", _profile(
        [0, WIDE_S, WIDE_S + 2 * WIDE_DELTA - F(1, 1100000000003), 1], [2, 1, 1, 2], [2, 3, 2]),
     WIDE_DELTA),
]


def _run(fn, d, delta):
    """(result, its JSON) or (exception type, message)."""
    try:
        out = fn(d, delta)
    except Exception as exc:  # noqa: BLE001 - compared, not swallowed
        return type(exc), str(exc)
    return out, out.to_json()


def _expected_squash(d, delta):
    """What squash_map gives: the refusal of a delta <= 0, which the
    reference does not check, else the reference's answer."""
    if delta <= 0:
        return ValueError, "delta must be positive"
    return _run(ref_squash_map, d, delta)


class TestJumpWindowsMatchReferences:
    def check(self, d, delta):
        out = _run(make_underapprox, d, delta)
        assert out == _run(ref_make_underapprox, d, delta)
        if isinstance(out[0], PLFunction):
            # perturb_pattern relies on this instead of sweeping f' <= d_A
            assert le_pointwise(out[0], d)
        assert _run(squash_map, d, delta) == _expected_squash(d, delta)

    @pytest.mark.parametrize("name,d,delta", WINDOW_CASES, ids=[c[0] for c in WINDOW_CASES])
    def test_cases(self, name, d, delta):
        self.check(d, delta)

    @given(jump_windows_cases())
    @settings(max_examples=400, deadline=None)
    def test_random_functions(self, case):
        self.check(*case)

    def test_no_point_evaluation_of_d(self, monkeypatch):
        expected = [(_run(ref_make_underapprox, d, delta), _expected_squash(d, delta))
                    for _, d, delta in WINDOW_CASES]

        def refuse(self, t):
            raise AssertionError("StepFunction.eval called")

        monkeypatch.setattr(StepFunction, "eval", refuse)
        got = [(_run(make_underapprox, d, delta), _run(squash_map, d, delta))
               for _, d, delta in WINDOW_CASES]
        assert got == expected

    def test_no_fraction_arithmetic(self, monkeypatch):
        # the windows, f' and sigma are built on d's stored pairs
        built = [(d, delta) for _, d, delta in WINDOW_CASES
                 if isinstance(_run(ref_make_underapprox, d, delta)[0], PLFunction)]
        expected = [(_run(ref_make_underapprox, d, delta), _expected_squash(d, delta))
                    for d, delta in built]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic")

        for op in ("add", "sub", "mul", "truediv"):
            monkeypatch.setattr(F, f"__{op}__", refuse)
            monkeypatch.setattr(F, f"__r{op}__", refuse)
        got = [(_run(make_underapprox, d, delta), _run(squash_map, d, delta))
               for d, delta in built]
        assert got == expected


class TestPerturbPattern:
    def test_jump_up_reproduction(self):
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        cert = perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, w_dom, w_cod,
        )
        for fact in cert.eigen_facts:
            assert fact.sup_distance == 2 * delta
        assert le_pointwise(cert.pushed, d_b)
        sigma = squash_map(d_a, delta)
        assert cert.perturbed.eigenfunctions == (sigma,) * pattern.multiplicity

    def test_constant_source_is_left_alone(self):
        d_a = StepFunction.constant(2)
        pattern = EigenPattern.identities(2)
        delta = choose_delta(F(1, 2), 2)
        f_prime = make_underapprox(d_a, delta)
        cert = perturb_pattern(
            d_a, f_prime, pattern, StepFunction.constant(4), delta,
            [PLFunction.identity()], F(1, 2), StepFunction.constant(1),
            push_dimension(pattern, StepFunction.constant(1)),
        )
        assert cert.perturbed == pattern
        assert all(f.sup_distance == 0 for f in cert.eigen_facts)

    def test_counterexample_instance_is_infeasible(self):
        m = 6
        d_a = pinched_dimension_function()
        delta = F(1, 16)
        f_prime = make_underapprox(d_a, delta)
        pattern = EigenPattern.identities(m)
        with pytest.raises(Infeasible) as err:
            perturb_pattern(
                d_a, f_prime, pattern, StepFunction.constant(2 * m - 1), delta,
                [PLFunction.identity()], F(1, 2), StepFunction.constant(1),
                push_dimension(pattern, StepFunction.constant(1)),
            )
        assert err.value.witness == 0

    def test_deviation_over_budget_matches_reference(self):
        d_a = jump_up_step()
        delta = F(1, 8)
        args = (d_a, make_underapprox(d_a, delta), EigenPattern.identities(3),
                StepFunction.constant(10), delta, [PLFunction.identity()], F(1, 10**6),
                StepFunction.constant(1), StepFunction.constant(1))
        out = _outcome(perturb_pattern, *args)
        assert out == ("infeasible", "deviation 3/4 on a test element exceeds the budget "
                       "1/1000000", None)
        assert out == _outcome(ref_perturb_pattern, *args)

    def test_d_a_is_checked_once(self, monkeypatch):
        import ctrace.existence as existence

        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        checked, real = [], existence.ensure_dimension_function
        monkeypatch.setattr(existence, "ensure_dimension_function",
                            lambda d: checked.append(d) or real(d))
        perturb_pattern(d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
                        eps, w_dom, w_cod)
        assert [id(d) for d in checked] == [id(d_a), id(d_b)]

    @pytest.mark.parametrize("name, change, kind, message", [
        ("delta before d_A", dict(d_a=_profile([0, F(1, 2), 1], [0, 1, 2], [1, 2]), delta=0),
         ValueError, "delta and eps must be positive"),
        ("eps before d_A", dict(d_a=_profile([0, F(1, 2), 1], [0, 1, 2], [1, 2]), eps=0),
         ValueError, "delta and eps must be positive"),
        ("d_A before f'", dict(d_a=_profile([0, F(1, 2), 1], [0, 1, 2], [1, 2])),
         ValueError, "invalid dimension function: value 0 below 1"),
        ("d_B before the windows", dict(d_b=_profile([0, F(1, 2), 1], [1, 3, 2], [1, 2])),
         ValueError, "invalid dimension function: not lower semicontinuous"),
        ("weights before the windows", dict(w_cod=StepFunction.constant(-1)),
         ValueError, "weights must be strictly positive"),
        ("windows before f'", {}, ValueError,
         "windows overlap: jumps at 1/2 and 9/16 closer than 2*delta"),
    ])
    def test_first_refusal_is_kept(self, name, change, kind, message):
        one = StepFunction.constant(1)
        args = dict(d_a=_profile([0, F(1, 2), F(9, 16), 1], [1, 1, 2, 3], [1, 2, 3]),
                    f_prime=PLFunction.identity(), pattern=EigenPattern.identities(2),
                    d_b=StepFunction.constant(9), delta=F(1, 8),
                    test_elements=[PLFunction.identity()], eps=1, w_dom=one, w_cod=one)
        with pytest.raises(kind) as info:
            perturb_pattern(**{**args, **change})
        assert str(info.value) == message

    def test_wrong_f_prime_is_a_precondition_error(self):
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        with pytest.raises(PreconditionFailed):
            perturb_pattern(
                d_a, PLFunction.constant(1), pattern, d_b, delta,
                [], eps, w_dom, w_cod,
            )


class TestVerifyCertificate:
    def test_round_trip(self):
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        cert = perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, w_dom, w_cod,
        )
        assert verify_certificate(cert)
        rebuilt = PerturbationCertificate.from_json(cert.to_json())
        assert verify_certificate(rebuilt)

    def test_tampered_eigenfunction_fails_domination(self):
        m = 2
        d_a = pinched_dimension_function()
        eps = F(1, 2)
        delta = choose_delta(eps, m)
        f_prime = make_underapprox(d_a, delta)
        pattern = EigenPattern.identities(m)
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
        cert = perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, StepFunction.constant(1), push_dimension(pattern, StepFunction.constant(1)),
        )
        # the identity crosses the pinch window, where d_A exceeds f'
        tampered_pattern = EigenPattern(
            (PLFunction.identity(),) + cert.perturbed.eigenfunctions[1:]
        )
        tampered = PerturbationCertificate(
            **{**cert.__dict__, "perturbed": tampered_pattern}
        )
        check = verify_certificate(tampered)
        assert not check
        assert any("eigen_domination" in item.name for item in check.failures())

    def test_lowered_eps_fails_deviation(self):
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        cert = perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, w_dom, w_cod,
        )
        dev = cert.element_facts[0].deviation
        assert dev > 0
        squeezed = PerturbationCertificate(
            **{**cert.__dict__, "eps": dev / 2,
               "element_facts": cert.element_facts}
        )
        check = verify_certificate(squeezed)
        assert not check
        assert any("element_deviation" in item.name for item in check.failures())

    @staticmethod
    def _jump_up_certificate():
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = jump_up_instance()
        return perturb_pattern(d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
                               eps, w_dom, w_cod)

    def test_deviation_equal_to_its_bound_passes(self):
        cert = self._jump_up_certificate()
        dev, bound = cert.element_facts[0].deviation, cert.element_facts[0].bound
        assert 0 < dev < bound
        # the bound is eps times the norm of the test element
        tight = PerturbationCertificate(**{**cert.__dict__, "eps": cert.eps * dev / bound,
                                           "element_facts": (ElementFact(dev, dev),)})
        check = verify_certificate(tight)
        assert check
        assert [i.ok for i in check.items if i.name == "element_deviation[0]"] == [True]

    @pytest.mark.parametrize("facts, failing", [
        ("eigen_facts", {"pattern_sizes_match", "eigen_distance[2]"}),
        ("element_facts", {"element_count_matches", "element_deviation[0]"}),
    ])
    def test_missing_facts_fail_their_items(self, facts, failing):
        cert = self._jump_up_certificate()
        assert len(cert.eigen_facts) == 3 and len(cert.element_facts) == 1
        short = PerturbationCertificate(**{**cert.__dict__, facts: getattr(cert, facts)[:-1]})
        check = verify_certificate(short)
        assert not check
        assert {item.name for item in check.failures()} == failing

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_soundness_on_random_instances(self, seed):
        rng = random.Random(seed)
        cert = _random_certified_instance(rng)
        assert verify_certificate(cert)


def _random_certified_instance(rng, max_m=8):
    """An admissible random instance: pushed target plus a positive gap."""
    while True:
        d_a = rand_lsc_int_step(rng)
        eps = F(rng.randint(1, 4), rng.choice([1, 2, 4]))
        m = rng.randint(1, max_m)
        delta = choose_delta(eps, m)
        try:
            f_prime = make_underapprox(d_a, delta)
        except ValueError:
            continue  # jumps too close together for this delta
        pattern = rand_pattern(rng, max_m=m)
        gap = rng.randint(1, 3)
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + gap)
        w_dom = StepFunction.constant(1)
        w_cod = push_dimension(pattern, w_dom)
        return perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, w_dom, w_cod,
        )


def _repeated_instance(rng, max_m=8):
    """perturb_pattern arguments whose pattern repeats a few eigenfunctions;
    the target's margin may be negative, so some instances are infeasible."""
    while True:
        d_a = rand_lsc_int_step(rng)
        eps = F(rng.randint(1, 4), rng.choice([1, 2, 4]))
        m = rng.randint(2, max_m)
        delta = choose_delta(eps, m)
        try:
            f_prime = make_underapprox(d_a, delta)
        except ValueError:
            continue
        distinct = [PLFunction.identity()] + [rand_pl_unit(rng, 3) for _ in range(2)]
        pattern = EigenPattern(tuple(rng.choice(distinct) for _ in range(m)))
        gap = rng.choice([-1, 0, 1, 2])
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: max(v + gap, F(1)))
        w_dom = StepFunction.constant(1)
        w_cod = push_dimension(pattern, w_dom)
        elements = [PLFunction.identity(), rand_pl(rng, 3)]
        return d_a, f_prime, pattern, d_b, delta, elements, eps, w_dom, w_cod


def _outcome(fn, *args):
    """("ok", certificate JSON, certificate) or ("infeasible", message, witness)."""
    try:
        cert = fn(*args)
    except Infeasible as exc:
        return "infeasible", str(exc), exc.witness
    return "ok", cert.to_json(), cert


def _eigen_failures(check):
    return {item.name for item in check.failures() if item.name.startswith("eigen_")}


class TestDistinctEigenfunctionsMatchReferences:
    """Certifying each distinct eigenfunction (pair) once gives the same
    certificates, Infeasible witnesses and check items as every index on
    its own."""

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_perturb_and_verify(self, seed):
        args = _repeated_instance(random.Random(seed))
        out, ref = _outcome(perturb_pattern, *args), _outcome(ref_perturb_pattern, *args)
        assert out == ref
        if out[0] == "ok":
            check = verify_certificate(out[2])
            assert check.ok
            assert check == ref_verify_certificate(out[2])

    def test_first_failing_eigenfunction_is_the_first_failing_index(self, monkeypatch):
        import ctrace.existence as existence

        # without the squash, an eigenfunction crossing the pinch escapes f';
        # perturb_pattern and squash_map, so the reference too, build sigma here
        monkeypatch.setattr(existence, "_squash", lambda delta, windows: PLFunction.identity())
        d_a = pinched_dimension_function()
        delta = choose_delta(F(1, 2), 4)
        f_prime = make_underapprox(d_a, delta)
        safe = PLFunction.constant(F(1, 8))
        crossing = PLFunction((0, 1), (F(1, 4), F(3, 4)))
        crossing_too = PLFunction((0, 1), (F(1, 3), F(3, 4)))
        pattern = EigenPattern((safe, crossing_too, crossing, safe, crossing_too))
        args = (d_a, f_prime, pattern, StepFunction.constant(20), delta,
                [PLFunction.identity()], F(1, 2), StepFunction.constant(1), StepFunction.constant(4))
        with pytest.raises(Infeasible) as err:
            perturb_pattern(*args)
        with pytest.raises(Infeasible) as ref:
            ref_perturb_pattern(*args)
        assert (str(err.value), err.value.witness) == (str(ref.value), ref.value.witness)
        # index 1 fails first; index 2 would give another witness
        witness = {lam: le_pointwise(compose_step_pl(d_a, lam), compose_pl(f_prime, lam)).witness
                   for lam in (crossing_too, crossing)}
        assert err.value.witness == witness[crossing_too] != witness[crossing]

    @staticmethod
    def _identity_certificate():
        """Three copies of the identity across a pinch: one repeated pair."""
        m = 3
        d_a = pinched_dimension_function()
        eps = F(1, 2)
        delta = choose_delta(eps, m)
        pattern = EigenPattern.identities(m)
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
        return perturb_pattern(
            d_a, make_underapprox(d_a, delta), pattern, d_b, delta,
            [PLFunction.identity()], eps, StepFunction.constant(1),
            push_dimension(pattern, StepFunction.constant(1)),
        )

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_altered_copy_of_a_repeated_hat_fails_only_its_index(self, i):
        cert = self._identity_certificate()
        hats = list(cert.perturbed.eigenfunctions)
        assert len(set(hats)) == 1
        hats[i] = PLFunction.identity()
        tampered = PerturbationCertificate(
            **{**cert.__dict__, "perturbed": EigenPattern(tuple(hats))}
        )
        check = verify_certificate(tampered)
        assert _eigen_failures(check) == {f"eigen_distance[{i}]", f"eigen_domination[{i}]"}
        assert check == ref_verify_certificate(tampered)

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_altered_fact_of_a_repeated_pair_fails_only_its_index(self, i):
        cert = self._identity_certificate()
        facts = list(cert.eigen_facts)
        facts[i] = EigenFact(facts[i].sup_distance / 2)
        tampered = PerturbationCertificate(**{**cert.__dict__, "eigen_facts": tuple(facts)})
        check = verify_certificate(tampered)
        assert [item.name for item in check.failures()] == [f"eigen_distance[{i}]"]
        assert check == ref_verify_certificate(tampered)


def _counting(mp, name) -> list:
    """Patch the two-argument ``existence.<name>`` (``compose_step_pl``,
    ``le_pointwise``) to note the second argument of every call."""
    import ctrace.existence as existence

    calls, real = [], getattr(existence, name)

    def counted(f, g):
        calls.append(g)
        return real(f, g)

    mp.setattr(existence, name, counted)
    return calls


def _squash_collision_args():
    """Three eigenfunctions, two of them distinct, that differ only inside
    the clamped window of the jump at 1/2, so they squash to one lambda_hat."""
    m, eps = 3, F(1, 2)
    d_a = jump_up_step()
    delta = choose_delta(eps, m)
    half = F(1, 2)
    lam = PLFunction.identity()
    bent = PLFunction((0, half - delta, half, half + delta, 1),
                      (0, half - delta, half + delta / 2, half + delta, 1))
    pattern = EigenPattern((lam, bent, lam))
    d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
    return (d_a, make_underapprox(d_a, delta), pattern, d_b, delta,
            [PLFunction.identity(), bent], eps, StepFunction.constant(1), StepFunction.constant(m))


class TestCompositionsAreShared:
    """perturb_pattern and verify_certificate compose d_A with each distinct
    lambda_hat once, for the domination checks and the pushed sum, and give
    the certificates, witnesses and check items of every index on its own.
    perturb_pattern composes d_A with sigma once and builds d_A(lambda_hat)
    as d_A(sigma) composed with the first lambda that gives lambda_hat. It
    sweeps only the hypothesis and d_A(sigma) <= f', which gives every
    domination d_A(lambda_hat) <= f'(lambda), since each lambda maps [0,1]
    into [0,1]; f' <= d_A and the pushed sum <= d_B follow from them."""

    def test_two_eigenfunctions_squash_to_one(self):
        args = _squash_collision_args()
        pattern = args[2]
        assert len(pattern.counts) == 2
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp, "compose_step_pl")
            sweeps = _counting(mp, "le_pointwise")
            cert = perturb_pattern(*args)
            assert len(set(cert.perturbed.eigenfunctions)) == 1
            # sigma, then the first lambda of the one distinct lambda_hat
            assert calls == [squash_map(args[0], args[4]), pattern.eigenfunctions[0]]
            assert sweeps == [args[3], args[1]]
            check = verify_certificate(cert)
            assert len(calls) == 3
        assert _outcome(perturb_pattern, *args) == _outcome(ref_perturb_pattern, *args)
        assert check.ok and check == ref_verify_certificate(cert)

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_each_distinct_hat_composed_once(self, seed):
        args = _repeated_instance(random.Random(seed))
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp, "compose_step_pl")
            sweeps = _counting(mp, "le_pointwise")
            out = _outcome(perturb_pattern, *args)
            # the hypothesis, then d_A(sigma) <= f' once it holds
            assert sweeps == [args[3], args[1]][:len(sweeps)] and sweeps
            if len(sweeps) == 2:
                # sigma, then the first lambda of each distinct lambda_hat
                sigma = squash_map(args[0], args[4])
                assert calls[0] == sigma
                hats = [compose_pl(sigma, lam) for lam in calls[1:]]
                assert len(set(hats)) == len(hats)
            else:
                assert calls == []
            if out[0] == "ok":
                assert len(sweeps) == 2
                assert hats == list(out[2].perturbed.counts)
                del calls[:]
                check = verify_certificate(out[2])
                assert calls == hats
        assert out == _outcome(ref_perturb_pattern, *args)
        if out[0] == "ok":
            assert check == ref_verify_certificate(out[2])

    @pytest.mark.parametrize("keep", [1, 3])
    def test_mismatched_multiplicities(self, keep):
        cert = perturb_pattern(*_squash_collision_args())
        hats = cert.perturbed.eigenfunctions[:keep] + (PLFunction.constant(F(1, 3)),)
        tampered = PerturbationCertificate(
            **{**cert.__dict__, "perturbed": EigenPattern(hats)})
        with pytest.MonkeyPatch.context() as mp:
            calls = _counting(mp, "compose_step_pl")
            check = verify_certificate(tampered)
            assert calls == list(tampered.perturbed.counts)
        assert not check.ok
        assert check == ref_verify_certificate(tampered)


# (name, lambda, sup |sigma(lambda) - lambda|) around the jump of
# jump_up_step() at 1/2 with delta = 1/36: sigma clamps the window
# [17/36, 19/36] to 17/36 and ramps back to the identity at 13/24
RANGE_CASES = [
    ("constant inside the clamped window", PLFunction.constant(F(1, 2)), F(1, 36)),
    ("max at the window's left edge", PLFunction((0, 1), (0, F(17, 36))), 0),
    ("max at the window's right edge", PLFunction((0, 1), (0, F(19, 36))), F(1, 18)),
    ("max at the ramp's end", PLFunction((0, 1), (F(1, 4), F(13, 24))), F(1, 18)),
    ("min at the ramp's end", PLFunction((0, 1), (F(13, 24), 1)), 0),
    ("range inside the ramp", PLFunction((0, 1), (F(8, 15), F(27, 50))), F(1, 30)),
    ("decreasing across the window", PLFunction((0, 1), (F(3, 4), F(1, 4))), F(1, 18)),
    ("interior min in the window", PLFunction((0, F(1, 2), 1), (F(3, 4), F(1, 2), F(3, 4))),
     F(1, 18)),
    ("interior max at the window's right edge",
     PLFunction((0, F(1, 3), 1), (F(2, 5), F(19, 36), F(2, 5))), F(1, 18)),
    ("interior min on the ramp",
     PLFunction((0, F(2, 3), 1), (F(27, 50), F(8, 15), F(27, 50))), F(1, 30)),
]


class TestDistanceOnTheRange:
    """perturb_pattern reads each sup distance as sigma's distance from the
    identity on lambda's range [min lambda, max lambda], once per range."""

    @pytest.mark.parametrize("lam, distance", [c[1:] for c in RANGE_CASES],
                             ids=[c[0] for c in RANGE_CASES])
    def test_matches_the_reference_and_the_eigen_check(self, lam, distance):
        m, eps = 3, F(1, 2)
        d_a = jump_up_step()
        delta = choose_delta(eps, m)
        f_prime = make_underapprox(d_a, delta)
        pattern = EigenPattern((lam, PLFunction.identity(), lam))
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
        args = (d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()], eps,
                StepFunction.constant(1), StepFunction.constant(m))
        out = _outcome(perturb_pattern, *args)
        assert out == _outcome(ref_perturb_pattern, *args)
        assert out[0] == "ok"
        hat = compose_pl(squash_map(d_a, delta), lam)
        dist, dom = _eigen_check(lam, hat, compose_step_pl(d_a, hat), compose_pl(f_prime, lam))
        assert dom
        assert [f.sup_distance for f in out[2].eigen_facts] == [distance, 2 * delta, distance]
        assert dist == distance


class TestEigenCheckBuildsNoDifference:
    """``_eigen_check`` reads each sup distance off the merged walks of
    lambda and lambda_hat: no ``lam_hat - lam`` is summed, and no weighted
    norm refines it again."""

    def test_distance_without_a_difference(self, monkeypatch):
        from ctrace import existence, pwcalc

        d_a, f_prime, *_ = jump_up_instance()
        lam = PLFunction((0, F(1, 3), 1), (0, F(1, 2), 1))
        hat = compose_pl(squash_map(d_a, choose_delta(F(1, 2), 3)), lam)
        d_a_of_hat, f_prime_of_lam = compose_step_pl(d_a, hat), compose_pl(f_prime, lam)
        expected = (weighted_sup_norm(hat - lam, StepFunction.constant(1)).value,
                    le_pointwise(d_a_of_hat, f_prime_of_lam))
        assert expected[0] > 0

        def refuse(*args):
            raise AssertionError("a difference function or its norm was built")

        for module in (existence, pwcalc):
            monkeypatch.setattr(module, "linear_combine", refuse)
        monkeypatch.setattr(pwcalc, "weighted_sup_norm", refuse)
        assert existence._eigen_check(lam, hat, d_a_of_hat, f_prime_of_lam) == expected
        assert existence._eigen_check(lam, lam, d_a_of_hat, f_prime_of_lam)[0] == 0


class TestReproduceCounterexample:
    def test_delta_one_tenth(self):
        rep = reproduce_counterexample(F(1, 10), F(1, 5))
        assert rep.multiplicity == 6
        assert rep.d_B_value == 11
        assert rep.hypothesis_ok
        assert rep.infeasible_ok
        assert rep.witness == 0
        assert rep.pushed_at_witness == 12

    def test_delta_one_half(self):
        rep = reproduce_counterexample(F(1, 2), F(1, 5))
        assert rep.multiplicity == 2
        assert rep.d_B_value == 3
        assert rep.pushed_at_witness == 4
        assert rep.hypothesis_ok and rep.infeasible_ok

    def test_eps0_range_enforced(self):
        with pytest.raises(ValueError):
            reproduce_counterexample(F(1, 10), F(1, 3))
        with pytest.raises(ValueError):
            reproduce_counterexample(F(1, 10), 0)

    @pytest.mark.parametrize("delta, eps0, message", [
        (0, F(1, 5), "delta must lie in (0,1)"),
        (1, F(1, 5), "delta must lie in (0,1)"),
        (F(1, 10), 0, "eps0 must lie in (0, 1/4)"),
        (F(1, 10), F(1, 4), "eps0 must lie in (0, 1/4)"),
    ])
    def test_open_range_ends_refused(self, delta, eps0, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            reproduce_counterexample(delta, eps0)

    def test_log_grid_of_deltas(self):
        for k in range(1, 10):
            rep = reproduce_counterexample(F(1, 2 ** k), F(1, 5))
            assert rep.hypothesis_ok
            assert rep.infeasible_ok

    def test_closed_form_matches_linear_search(self):
        for den in range(2, 25):
            for num in range(1, den):
                delta = F(num, den)
                m = 1
                while not F(1, 2 * m - 1) < delta:
                    m += 1
                rep = reproduce_counterexample(delta, F(1, 5))
                assert rep.multiplicity == m
                assert rep.d_B_value == 2 * m - 1

    def test_json_shape(self):
        rep = reproduce_counterexample(F(1, 10), F(1, 5))
        blob = rep.to_json()
        assert blob["multiplicity"] == 6
        assert blob["d_B_value"] == [11, 1]
        assert blob["witness"] == [0, 1]


class TestNormChainBound:
    def test_deviation_bounded_by_quadratic_budget(self):
        # unit domain weight, pushed codomain weight, Lipschitz-1 element
        for m in (1, 2, 5):
            eps = F(1, 2)
            d_a = jump_up_step()
            pattern = EigenPattern.identities(m)
            delta = choose_delta(eps, m)
            f_prime = make_underapprox(d_a, delta)
            d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1)
            cert = perturb_pattern(
                d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
                eps, StepFunction.constant(1), push_dimension(pattern, StepFunction.constant(1)),
            )
            for fact in cert.element_facts:
                assert fact.deviation <= 2 * delta * m * m
