"""Eigenvalue-pattern maps: application, density, gaps, chains."""

import copy
import pickle
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctrace.errors import PreconditionFailed
from ctrace.existence import pinched_dimension_function
from ctrace.patterns import (
    ChainStage,
    EigenPattern,
    GapReport,
    UniquenessReport,
    apply_pattern,
    check_compat,
    compute_gap,
    density_check,
    deviation,
    push_dimension,
    ramp_functions,
    uniqueness_hypothesis_check,
    verify_chain,
)
from ctrace.pwcalc import (
    PLFunction,
    StepFunction,
    compose_pl,
    le_pointwise,
    linear_combine,
    weighted_sup_norm,
)

from helpers import (
    composite_pattern,
    density_cases,
    near_tie_inner_functions,
    near_tie_pl_functions,
    near_tie_step_functions,
    oracle_inf_diff,
    pl_functions,
    rand_lsc_int_step,
    rand_pattern,
    rand_pl,
    rand_pl_unit,
    rand_positive_step,
    ref_apply_pattern,
    ref_density_check,
    ref_preimage_refinement,
    ref_push_dimension,
    repeated_patterns,
    step_functions,
)

seeds = st.integers(0, 10**9)


class TestApplyPattern:
    def test_two_identities_double(self):
        t2 = apply_pattern(EigenPattern.identities(2), PLFunction.identity())
        assert t2 == PLFunction((0, 1), (0, 2))
        normalized = apply_pattern(
            EigenPattern.identities(2), PLFunction.identity(), normalized=True
        )
        assert normalized == PLFunction.identity()

    @given(seeds)
    @settings(max_examples=10, deadline=None)
    def test_identities_scale(self, seed):
        f = rand_pl(random.Random(seed))
        for m in range(1, 9):
            assert apply_pattern(EigenPattern.identities(m), f) == f.scale(m)

    def test_bounded_input_gives_bounded_sum(self):
        m = 5
        pattern = EigenPattern.identities(m)
        f = PLFunction((0, F(1, 2), 1), (2, F(1, 2), 2))
        out = apply_pattern(pattern, f)
        assert le_pointwise(out, StepFunction.constant(2 * m))

    def test_constant_eigenfunctions_sum(self):
        pattern = EigenPattern((
            PLFunction.constant(F(1, 4)), PLFunction.constant(F(3, 4))
        ))
        assert apply_pattern(pattern, PLFunction.identity()) == PLFunction.constant(1)

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, seed):
        rng = random.Random(seed)
        pattern = rand_pattern(rng, max_m=4)
        f, g = rand_pl(rng), rand_pl(rng)
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        lhs = apply_pattern(pattern, linear_combine([a, b], [f, g]))
        rhs = linear_combine(
            [a, b], [apply_pattern(pattern, f), apply_pattern(pattern, g)]
        )
        assert lhs == rhs

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_normalized_form_is_unital(self, seed):
        rng = random.Random(seed)
        pattern = rand_pattern(rng, max_m=6)
        out = apply_pattern(pattern, PLFunction.constant(1), normalized=True)
        assert out == PLFunction.constant(1)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, seed):
        rng = random.Random(seed)
        pattern = rand_pattern(rng, max_m=4)
        f = rand_pl(rng)
        g = f + PLFunction.constant(F(rng.randint(0, 3)))
        assert le_pointwise(apply_pattern(pattern, f), apply_pattern(pattern, g))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_composition_of_patterns(self, seed):
        rng = random.Random(seed)
        first = rand_pattern(rng, max_m=3)
        second = rand_pattern(rng, max_m=3)
        f = rand_pl(rng, max_breaks=2)
        combined = composite_pattern(first, second)
        assert apply_pattern(combined, f) == apply_pattern(
            second, apply_pattern(first, f)
        )


class TestPushDimension:
    def test_single_identity_is_identity_map(self):
        d = pinched_dimension_function()
        assert push_dimension(EigenPattern.identities(1), d) == d

    def test_identities_scale_the_pinch(self):
        m = 4
        d = pinched_dimension_function()
        pushed = push_dimension(EigenPattern.identities(m), d)
        assert pushed == d.scale(m)
        assert pushed.eval(0) == 2 * m
        assert pushed.eval(F(1, 2)) == m

    def test_constant_eigenfunctions_hit_the_pinch(self):
        pattern = EigenPattern((PLFunction.constant(F(1, 2)),) * 3)
        pushed = push_dimension(pattern, pinched_dimension_function())
        assert pushed == StepFunction.constant(3)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_monotone(self, seed):
        rng = random.Random(seed)
        pattern = rand_pattern(rng, max_m=4)
        d = rand_lsc_int_step(rng, max_jumps=3)
        bigger = d.scale(2)
        assert le_pointwise(
            push_dimension(pattern, d), push_dimension(pattern, bigger)
        )


class TestCountedPatternsMatchReferences:
    """Composing each distinct eigenfunction once and weighting it by its
    count gives exactly the per-eigenfunction sums."""

    @given(st.data(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_apply_pattern(self, data, normalized):
        f = data.draw(pl_functions())
        pattern = data.draw(repeated_patterns(f.breakpoints))
        out = apply_pattern(pattern, f, normalized=normalized)
        ref = ref_apply_pattern(pattern, f, normalized=normalized)
        assert out == ref
        assert out.to_json() == ref.to_json()

    @given(st.data(), seeds)
    @settings(max_examples=150, deadline=None)
    def test_push_dimension(self, data, seed):
        d = rand_lsc_int_step(random.Random(seed))
        pattern = data.draw(repeated_patterns(d.points))
        out, ref = push_dimension(pattern, d), ref_push_dimension(pattern, d)
        assert out == ref
        assert out.to_json() == ref.to_json()

    @given(st.data(), seeds, st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_push_dimension_repeated_large_values(self, data, seed, k):
        d = rand_lsc_int_step(random.Random(seed), vmax=10**30)
        pattern = EigenPattern(data.draw(repeated_patterns(d.points)).eigenfunctions * k)
        assert min(pattern.counts.values()) >= 2
        out, ref = push_dimension(pattern, d), ref_push_dimension(pattern, d)
        assert out == ref
        assert out.to_json() == ref.to_json()

    def test_counts_keep_first_seen_order(self):
        lam, mu = PLFunction.identity(), PLFunction.constant(F(1, 3))
        pattern = EigenPattern((mu, lam, mu, mu))
        assert list(pattern.counts.items()) == [(mu, 3), (lam, 1)]
        assert pattern.to_json() == {"eigenfunctions": [f.to_json() for f in (mu, lam, mu, mu)]}
        # equal functions built by other routes share one slot, whether
        # or not they have cached their hash yet
        nu, flip = PLFunction((0, F(1, 2), 1), (F(1, 3), 1, 0)), PLFunction((0, 1), (1, 0))
        # compose_pl(nu, lam) is nu itself, so the kernel route flips twice
        same = (PLFunction((0, F(1, 4), F(1, 2), 1), (F(1, 3), F(2, 3), 1, 0)),
                compose_pl(compose_pl(nu, flip), flip), PLFunction.from_json(nu.to_json()))
        hash(same[1])
        counts = EigenPattern((nu, lam, *same, lam)).counts
        assert list(counts.items()) == [(nu, 4), (lam, 2)]
        assert all(counts[f] == 4 for f in same)
        # a difference subtracts on its own copy of the counts
        other = EigenPattern((lam, nu, lam))
        deviation(pattern, other, nu, StepFunction.constant(1), StepFunction.constant(1))
        assert list(pattern.counts.items()) == [(mu, 3), (lam, 1)]
        assert list(other.counts.items()) == [(lam, 2), (nu, 1)]

    @pytest.mark.parametrize("m", [1, 2, 7])
    def test_identities_repeat_one_function(self, m):
        pattern = EigenPattern.identities(m)
        lam = pattern.eigenfunctions[0]
        assert all(f is lam for f in pattern.eigenfunctions)
        assert list(pattern.counts.items()) == [(PLFunction.identity(), m)]
        # the same pattern and JSON as m separately built identities
        built = EigenPattern(tuple(PLFunction.identity() for _ in range(m)))
        assert pattern == built and hash(pattern) == hash(built)
        assert pattern.to_json() == built.to_json()
        assert pattern.to_json() == {"eigenfunctions": [{"kind": "pl", "points": [
            [[0, 1], [0, 1]], [[1, 1], [1, 1]]]}] * m}

    def test_counted_once_when_built(self, monkeypatch):
        from ctrace import patterns

        built = []

        class Counting(Counter):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(patterns, "Counter", Counting)
        lam, mu = PLFunction.identity(), PLFunction.constant(F(1, 3))
        pattern = EigenPattern((mu, lam, mu))
        assert len(built) == 1
        for _ in range(5):
            assert pattern.counts == {mu: 2, lam: 1}
        assert len(built) == 1

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
                             ids=["deepcopy", "pickle"])
    def test_copies_keep_the_counts(self, clone):
        lam, mu = PLFunction.identity(), PLFunction.constant(F(1, 3))
        pattern = EigenPattern((mu, lam, mu))
        out = clone(pattern)
        assert out == pattern and hash(out) == hash(pattern)
        assert list(out.counts.items()) == list(pattern.counts.items()) == [(mu, 2), (lam, 1)]
        assert out.to_json() == pattern.to_json()


class TestPushedSumIsInteger:
    """push_dimension sums its pushes on integer terms."""

    def test_no_fraction_arithmetic(self, monkeypatch):
        rng = random.Random(13)
        d = rand_lsc_int_step(rng, vmax=10**12)
        lam, mu = rand_pl_unit(rng), PLFunction.constant(F(1, 2))
        pattern = EigenPattern((lam, mu, lam, lam, mu))
        refs = [ref_push_dimension(pattern, e) for e in (d, pinched_dimension_function())]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic")

        with monkeypatch.context() as mp:
            for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
                mp.setattr(F, name, refuse)
            with pytest.raises(AssertionError, match="Fraction arithmetic"):
                F(1, 2) + 1
            outs = [push_dimension(pattern, e) for e in (d, pinched_dimension_function())]
        assert outs == refs


positive_steps = st.one_of(step_functions(lo=F(1, 4), hi=3), near_tie_step_functions(
    values=st.sampled_from([F(1), F(2), F(1, 2), F(1, 2) + F(1, 10**30)])))


@st.composite
def overlapping_patterns(draw):
    """``(p, q, a)``: q shares some eigenfunctions with p, with other counts."""
    a = draw(pl_functions())
    p = draw(repeated_patterns(a.breakpoints))
    shared = draw(st.lists(st.sampled_from(p.eigenfunctions), max_size=4))
    other = draw(repeated_patterns(a.breakpoints)).eigenfunctions
    return p, EigenPattern(draw(st.permutations(shared + list(other)))), a


class TestDeviation:
    """``deviation`` reads the weighted sup of p(a) - q(a) off the sweep
    that sums it: the value of the norm of the difference of the two
    ``apply_pattern`` sums, which it does not build, with the refusals that
    norm made."""

    LAM, MU = PLFunction.identity(), PLFunction.constant(F(1, 3))
    A = PLFunction((0, F(1, 2), 1), (3, -1, 2))
    W = StepFunction.from_profile((0, F(1, 3), 1), (2, F(1, 2), 3), (1, 4))

    @staticmethod
    def check(p, q, a, w_dom, w_cod, apply=apply_pattern):
        for x, y in ((p, q), (q, p), (p, p)):
            out = deviation(x, y, a, w_dom, w_cod)
            diff = apply(x, a) - apply(y, a)
            assert out == (weighted_sup_norm(diff, w_cod).value,
                           weighted_sup_norm(a, w_dom).value)
            assert all(type(v) is F for v in out)

    @given(overlapping_patterns(), positive_steps, positive_steps)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_norm_of_the_difference(self, pqa, w_dom, w_cod):
        self.check(*pqa, w_dom, w_cod)

    @given(overlapping_patterns(), positive_steps)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_per_index_reference(self, pqa, w_cod):
        # each copy of an eigenfunction composed and summed on its own
        self.check(*pqa, StepFunction.constant(1), w_cod, ref_apply_pattern)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_near_ties(self, data):
        a = data.draw(near_tie_pl_functions())
        w_cod = data.draw(positive_steps)
        lams = st.lists(near_tie_inner_functions(a.breakpoints + w_cod.points), min_size=1, max_size=4)
        p, q = EigenPattern(tuple(data.draw(lams))), EigenPattern(tuple(data.draw(lams)))
        self.check(p, q, a, data.draw(positive_steps), w_cod)

    def test_equal_patterns_give_zero(self):
        lam, mu, a, w = self.LAM, self.MU, self.A, self.W
        assert deviation(EigenPattern((lam, mu, lam)), EigenPattern((mu, lam, lam)), a, w, w) == (0, 3)
        assert deviation(EigenPattern((mu,)), EigenPattern((mu,)), a, w, w) == (0, 3)

    def test_counts_that_cancel(self):
        lam, mu, a, w = self.LAM, self.MU, self.A, self.W
        # lam cancels, mu's counts differ: |a(1/3)| = 1/3 over the least weight 1/2
        p = EigenPattern((lam, mu, mu))
        assert deviation(p, EigenPattern((lam, mu)), a, w, w) == (F(2, 3), 3)
        self.check(p, EigenPattern((mu, lam, lam)), a, w, StepFunction.constant(1))

    def test_cancelled_terms_are_not_composed(self, monkeypatch):
        from ctrace import patterns

        composed, real = [], patterns.compose_pl
        monkeypatch.setattr(patterns, "compose_pl", lambda f, g: composed.append(g) or real(f, g))
        lam, mu, w = self.LAM, self.MU, StepFunction.constant(2)
        nu = PLFunction((0, 1), (F(1, 4), F(3, 4)))
        # nu's counts cancel; mu(a) - lam(a) = a(1/3) - a is at most 8/3 in size
        assert deviation(EigenPattern((lam, mu, nu, mu)), EigenPattern((mu, nu, lam, lam)),
                         self.A, w, w) == (F(4, 3), F(3, 2))
        assert composed == [lam, mu]

    @pytest.mark.parametrize("cancel", [True, False])
    def test_refusals_of_the_weight(self, cancel):
        lam, mu = self.LAM, self.MU
        p, q = EigenPattern((lam, mu)), EigenPattern((mu, lam) if cancel else (mu, mu))
        a = PLFunction.identity()
        for w_cod, kind, message in ((StepFunction.constant(0), ValueError,
                                      "weights must be strictly positive"),
                                     (StepFunction.from_profile((0, F(1, 2), 1), (1, -1, 1), (1, 1)),
                                      ValueError, "weights must be strictly positive"),
                                     (PLFunction.constant(1), TypeError, "weights are step functions")):
            with pytest.raises(kind, match=message):
                deviation(p, q, a, StepFunction.constant(1), w_cod)

    def test_builds_no_difference(self, monkeypatch):
        from ctrace import patterns, pwcalc

        lam, mu = self.LAM, PLFunction((0, 1), (F(1, 4), F(3, 4)))
        p, q = EigenPattern((lam, mu, mu)), EigenPattern((mu, lam, lam))
        a, w = self.A, StepFunction.constant(2)
        expected = deviation(p, q, a, w, w)
        norms = []
        real = patterns.weighted_sup_norm
        monkeypatch.setattr(patterns, "weighted_sup_norm",
                            lambda f, w: norms.append(f) or real(f, w))
        for module in (patterns, pwcalc):
            monkeypatch.setattr(module, "linear_combine", _no_combination)
        assert deviation(p, q, a, w, w) == expected
        assert norms == [a]


def _no_combination(*args):
    raise AssertionError("a difference function was built")


class TestCheckCompat:
    def test_slack_hypothesis_holds_on_counterexample_instance(self):
        from ctrace.existence import make_underapprox

        delta = F(1, 10)
        m = 6
        d_a = pinched_dimension_function()
        f = make_underapprox(d_a, F(1, 8))
        d_b = StepFunction.constant(2 * m - 1)
        assert check_compat(EigenPattern.identities(m), f, d_b, slack=delta)

    def test_exact_hypothesis_fails_at_zero(self):
        m = 6
        d_a = pinched_dimension_function()
        pushed_source = apply_pattern(
            EigenPattern.identities(m), PLFunction.constant(2)
        )
        # constant 2 stands in for the lsc source pushed by identities
        res = check_compat(
            EigenPattern.identities(1), pushed_source, StepFunction.constant(2 * m - 1), 0
        )
        assert not res
        assert pushed_source.eval(res.witness) == 2 * m

    def test_equality_is_allowed_without_slack(self):
        assert check_compat(
            EigenPattern.identities(1), PLFunction.constant(1), StepFunction.constant(1), 0
        )

    def test_rejects_negative_slack(self):
        with pytest.raises(ValueError):
            check_compat(
                EigenPattern.identities(1),
                PLFunction.constant(1),
                StepFunction.constant(1),
                slack=F(-1, 2),
            )


class TestDensityCheck:
    def test_spread_constants(self):
        pattern = EigenPattern(tuple(
            PLFunction.constant(F(2 * j + 1, 8)) for j in range(4)
        ))
        assert density_check(pattern, 4, F(1, 4))

    def test_identity_misses_far_bin_at_zero(self):
        res = density_check(EigenPattern.identities(1), 2, F(1, 2))
        assert not res
        assert res.witness_t == 0
        assert res.witness_bin == 1

    def test_whole_interval_always_passes(self):
        rng = random.Random(7)
        for _ in range(5):
            pattern = rand_pattern(rng, max_m=5)
            assert density_check(pattern, 1, F(1, pattern.multiplicity))

    def test_rejects_bad_parameters(self):
        pattern = EigenPattern.identities(1)
        with pytest.raises(ValueError):
            density_check(pattern, 0, F(1, 2))
        with pytest.raises(ValueError):
            density_check(pattern, 2, F(3, 4))
        with pytest.raises(ValueError):
            density_check(pattern, 2, 0)


def centres_and_falling_lines(d):
    """d constants at the bin centres and d falling lines through
    (1/2, (j+1)/(d+2)): each line crosses every cut, and the check holds
    for delta = 1/(4d)."""
    centres = [PLFunction.constant(F(2 * j + 1, 2 * d)) for j in range(d)]
    lines = []
    for j in range(d):
        mid = F(j + 1, d + 2)
        drop = min(mid, 1 - mid)
        lines.append(PLFunction((F(0), F(1)), (mid + drop, mid - drop)))
    return EigenPattern(tuple(centres + lines))


class TestDensityMatchesReference:
    """``density_check`` against the per-sample scan it replaced."""

    @given(density_cases())
    @settings(max_examples=300, deadline=None)
    def test_random_cases(self, case):
        pattern, d, delta = case
        assert density_check(pattern, d, delta) == ref_density_check(pattern, d, delta)

    @pytest.mark.parametrize("d", [1, 2, 5, 8])
    def test_centres_and_falling_lines(self, d):
        pattern = centres_and_falling_lines(d)
        assert density_check(pattern, d, F(1, 4 * d))
        for delta in (F(1, 2 * d), F(1, d)):
            res = density_check(pattern, d, delta)
            assert res == ref_density_check(pattern, d, delta)

    def test_values_on_cuts_count_for_both_bins(self):
        on_cut = EigenPattern((PLFunction.constant(F(1, 2)),) * 3)
        assert density_check(on_cut, 2, F(1, 2))
        tent = EigenPattern((PLFunction.from_pairs([(0, 0), (F(1, 2), F(1, 2)), (1, 0)]),))
        res = density_check(tent, 2, F(1, 2))
        assert res == ref_density_check(tent, 2, F(1, 2))
        assert (res.witness_t, res.witness_bin) == (F(0), 1)

    def test_failure_seen_only_between_samples(self):
        # bin 1 is held on the cut 1/2 at both ends and empty in between
        crossing = EigenPattern((PLFunction((0, 1), (F(1, 2), 0)), PLFunction((0, 1), (0, F(1, 2)))))
        res = density_check(crossing, 2, F(1, 2))
        assert res == ref_density_check(crossing, 2, F(1, 2))
        assert (res.holds, res.witness_t, res.witness_bin) == (False, F(1, 2), 1)

    def test_point_after_a_failing_cell_is_the_witness(self):
        # bin 1 is empty on the cell (0, 1/2) and again at the point 3/4
        first = PLFunction((0, F(1, 2), F(3, 4), 1), (F(1, 2), 0, 0, F(1, 2)))
        second = PLFunction((0, F(1, 2), F(3, 4), 1), (0, F(1, 2), F(1, 4), F(1, 2)))
        pattern = EigenPattern((first, second))
        res = density_check(pattern, 2, F(1, 2))
        assert res == ref_density_check(pattern, 2, F(1, 2))
        assert (res.holds, res.witness_t, res.witness_bin) == (False, F(3, 4), 1)

    def test_passes_point_and_cell_failures(self):
        rng = random.Random(2024)
        kinds = Counter()
        for _ in range(300):
            d = rng.randint(1, 4)
            cuts = [F(j, d) for j in range(d + 1)]
            # values on cuts and bin centres, on breakpoints the functions share,
            # so that a cut held at two points can be left on the cell between
            values = cuts + [F(2 * j + 1, 2 * d) for j in range(d)]
            inner = sorted({F(rng.randint(1, 11), 12) for _ in range(rng.randint(0, 3))})
            pts = (F(0), *inner, F(1))
            distinct = [PLFunction(pts, tuple(rng.choice(values) for _ in pts))
                        for _ in range(rng.randint(1, 4))]
            if d > 1 and rng.random() < 0.4:
                # two functions take turns on a cut and leave it to one side
                # between breakpoints, the other bins hold a constant each
                j = rng.randint(1, d - 1)
                off = F(2 * j + rng.choice([-1, 1]), 2 * d)
                distinct = [PLFunction(pts, tuple(cuts[j] if k % 2 == r else off
                                                  for k in range(len(pts)))) for r in (0, 1)]
                distinct += [PLFunction.constant(values[d + 1 + b]) for b in range(d)
                             if b not in (j - 1, j)]
            pattern = EigenPattern(tuple(rng.choice(distinct) for _ in range(rng.randint(1, 8))))
            delta = F(1, d) * rng.choice([1, F(1, 2), F(1, 3), F(2, 3)])
            res = density_check(pattern, d, delta)
            assert res == ref_density_check(pattern, d, delta)
            samples = set()
            for lam in pattern.eigenfunctions:
                samples.update(ref_preimage_refinement(lam, cuts)[0])
            kinds["pass" if res else "point" if res.witness_t in samples else "cell"] += 1
        assert min(kinds[k] for k in ("pass", "point", "cell")) >= 20, kinds

    def test_no_eigenfunction_evaluation(self, monkeypatch):
        def refuse(self, t):
            raise AssertionError("eval called")

        pattern = centres_and_falling_lines(4)
        expected = [ref_density_check(pattern, 4, delta) for delta in (F(1, 8), F(1, 4))]
        monkeypatch.setattr(PLFunction, "eval", refuse)
        monkeypatch.setattr(StepFunction, "eval", refuse)
        assert [density_check(pattern, 4, delta) for delta in (F(1, 8), F(1, 4))] == expected


class TestRampFunctions:
    def test_single_ramp(self):
        (r0,) = ramp_functions(1)
        assert r0 == PLFunction.identity()

    def test_midpoint_of_first_ramp(self):
        r0 = ramp_functions(2)[0]
        assert r0.eval(F(1, 4)) == F(1, 2)

    def test_last_of_four(self):
        r3 = ramp_functions(4)[3]
        assert r3.eval(F(3, 4)) == 0
        assert r3.eval(F(7, 8)) == F(1, 2)
        assert r3.eval(1) == 1

    def test_count_and_shape(self):
        for d in (1, 2, 5):
            ramps = ramp_functions(d)
            assert len(ramps) == d
            for i, r in enumerate(ramps):
                assert r.eval(F(i, d)) == 0
                assert r.eval(F(i + 1, d)) == 1


class TestUniquenessHypothesis:
    def test_equal_patterns_pass(self):
        rng = random.Random(3)
        pattern = rand_pattern(rng, max_m=4)
        assert uniqueness_hypothesis_check(
            pattern, pattern, 1, F(1, pattern.multiplicity),
            StepFunction.constant(1), StepFunction.constant(1),
        )

    def test_dropped_eigenfunction_fails(self):
        phi = EigenPattern.identities(2)
        psi = EigenPattern((PLFunction.identity(), PLFunction.constant(0)))
        rep = uniqueness_hypothesis_check(
            phi, psi, 1, F(1, 10), StepFunction.constant(1), StepFunction.constant(1)
        )
        assert not rep
        assert rep.density_ok
        assert rep.lhs_norm == 1
        assert rep.rhs_bound == F(1, 10)

    def test_small_uniform_shift_passes_for_large_delta(self):
        # shifting every eigenfunction by eta moves each probe ramp
        # value by at most d * eta, so m * d * eta bounds the deviation
        eta = F(1, 64)
        d = 2
        spread = (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
        phi = EigenPattern(tuple(PLFunction.constant(c) for c in spread))
        psi = EigenPattern(tuple(PLFunction.constant(c + eta) for c in spread))
        m = phi.multiplicity
        delta = m * d * eta + F(1, 32)
        assert delta <= F(1, d)
        rep = uniqueness_hypothesis_check(
            phi, psi, d, delta, StepFunction.constant(1), StepFunction.constant(1)
        )
        assert rep.holds

    def test_deviation_equal_to_the_bound_fails(self):
        # each pattern moves each probe ramp's sum by 1/16 everywhere, so
        # with delta = 1/16 the first ramp meets its bound exactly
        spread = (F(1, 8), F(3, 8), F(5, 8), F(7, 8))
        phi = EigenPattern(tuple(PLFunction.constant(c) for c in spread))
        psi = EigenPattern(tuple(PLFunction.constant(c + F(1, 64)) for c in spread))
        one = StepFunction.constant(1)
        assert uniqueness_hypothesis_check(phi, psi, 2, F(1, 15), one, one)
        rep = uniqueness_hypothesis_check(phi, psi, 2, F(1, 16), one, one)
        assert rep == UniquenessReport(False, True, 0, F(1, 16), F(1, 16))

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_balanced_under_common_rescaling(self, seed):
        rng = random.Random(seed)
        phi = rand_pattern(rng, max_m=4)
        psi = rand_pattern(rng, max_m=4)
        d = rng.choice([1, 2])
        delta = F(1, rng.randint(d, 4 * d))
        w_dom = rand_positive_step(rng)
        w_cod = rand_positive_step(rng)
        base = uniqueness_hypothesis_check(phi, psi, d, delta, w_dom, w_cod)
        for kappa in (F(1, 3), F(2), F(7)):
            scaled = uniqueness_hypothesis_check(
                phi, psi, d, delta, w_dom.scale(kappa), w_cod.scale(kappa)
            )
            assert scaled.holds == base.holds


class TestComputeGap:
    def test_trivial_gap(self):
        rep = compute_gap(
            EigenPattern.identities(2), StepFunction.constant(1), StepFunction.constant(3)
        )
        assert rep.gap == 1
        assert rep

    def test_zero_gap_is_false(self):
        assert not GapReport(F(0), F(1, 2))
        assert GapReport(F(1, 10**9), F(1, 2)) and not GapReport(F(-1), F(0))

    def test_attained_flag(self):
        # 1 at 0 and 2 after it: a step target's gap is attained, at a cell
        # midpoint; a PL target's can be approached as t -> 0+ only
        d_src = StepFunction.from_profile((0, 1), (1, 2), (2,))
        identity = EigenPattern.identities(1)
        step_gap = compute_gap(identity, d_src, StepFunction.constant(3))
        assert step_gap == GapReport(F(1), F(1, 2), True)
        limit_gap = compute_gap(identity, d_src, PLFunction((0, 1), (2, 3)))
        assert limit_gap == GapReport(F(0), F(0), False) and not limit_gap

    def test_pinch_against_tight_constant(self):
        m = 6
        rep = compute_gap(
            EigenPattern.identities(m),
            pinched_dimension_function(),
            StepFunction.constant(2 * m - 1),
        )
        assert rep.gap == -1
        assert rep.at == 0
        assert not rep

    def test_unit_margin_instance(self):
        from ctrace.pwcalc import combine_steps

        rng = random.Random(11)
        for _ in range(10):
            pattern = rand_pattern(rng, max_m=4)
            d = rand_lsc_int_step(rng, max_jumps=3)
            target = combine_steps([push_dimension(pattern, d)], lambda v: v + 1)
            rep = compute_gap(pattern, d, target)
            assert rep.gap >= 1

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        pattern = rand_pattern(rng, max_m=3)
        d_src = rand_lsc_int_step(rng, max_jumps=2)
        d_tgt = rand_lsc_int_step(rng, max_jumps=3)
        rep = compute_gap(pattern, d_src, d_tgt)
        pushed = push_dimension(pattern, d_src)
        assert rep.gap == oracle_inf_diff(d_tgt, pushed, grid=500)


class TestVerifyChain:
    def test_single_stage_margin(self):
        rep = verify_chain(
            [ChainStage(EigenPattern.identities(1), StepFunction.constant(3))],
            EigenPattern.identities(1),
            StepFunction.constant(3),
            PLFunction.constant(1),
            delta_1=1,
            eps_n=F(1, 2),
        )
        assert rep.verified
        assert rep.margin == 2

    def test_stages_are_chain_stages(self):
        # the (pattern, dim) tuple form is gone
        with pytest.raises(AttributeError):
            verify_chain(
                [(EigenPattern.identities(1), StepFunction.constant(3))],
                EigenPattern.identities(1),
                StepFunction.constant(3),
                PLFunction.constant(1),
                delta_1=1,
                eps_n=F(1, 2),
            )

    def test_eps_exceeding_delta_is_a_precondition_error(self):
        with pytest.raises(PreconditionFailed):
            verify_chain(
                [ChainStage(EigenPattern.identities(1), StepFunction.constant(3))],
                EigenPattern.identities(1),
                StepFunction.constant(3),
                PLFunction.constant(1),
                delta_1=F(1, 4),
                eps_n=F(1, 2),
            )

    def test_touching_instance_is_refused_with_witness(self):
        # pushed function climbs to the target value at t = 1
        f = PLFunction.identity()
        rep = verify_chain(
            [ChainStage(EigenPattern.identities(2), StepFunction.constant(1))],
            EigenPattern.identities(1),
            StepFunction.constant(1),
            f,
            delta_1=F(1, 8),
            eps_n=F(1, 8),
        )
        assert not rep.verified
        assert rep.witness == 1

    def test_f_above_first_stage_dim_is_a_precondition_error(self):
        with pytest.raises(PreconditionFailed):
            verify_chain(
                [ChainStage(EigenPattern.identities(1), StepFunction.constant(1))],
                EigenPattern.identities(1),
                StepFunction.constant(5),
                PLFunction.constant(2),
                delta_1=1,
                eps_n=1,
            )

    def test_multi_stage_gap_enforcement(self):
        # stage gap 3 - 2 = 1 is not strictly above delta_1 = 1
        stages = [
            ChainStage(EigenPattern.identities(2), StepFunction.constant(1)),
            ChainStage(EigenPattern.identities(1), StepFunction.constant(3)),
        ]
        rep = verify_chain(
            stages,
            EigenPattern.identities(1),
            StepFunction.constant(9),
            PLFunction.constant(F(1, 2)),
            delta_1=1,
            eps_n=F(1, 2),
        )
        assert not rep.verified
        assert "stage 0" in rep.reason

    def test_each_gap_reads_the_next_stage(self):
        # three stages, so the stage after each is not the one before it
        stages = [
            ChainStage(EigenPattern.identities(2), StepFunction.constant(1)),
            ChainStage(EigenPattern.identities(1), StepFunction.constant(4)),
            ChainStage(EigenPattern.identities(1), StepFunction.constant(9)),
        ]
        rep = verify_chain(stages, EigenPattern.identities(1), StepFunction.constant(20),
                           PLFunction.constant(F(1, 2)), delta_1=1, eps_n=F(1, 2))
        assert rep.verified
        assert [g.gap for g in rep.stage_gaps] == [2, 5]

    def test_margin_between_the_two_slacks(self):
        # margin 7/4 - 1/2 = 5/4 exceeds delta_1 - eps_n = 1/2, not delta_1 + eps_n = 3/2
        stage = ChainStage(EigenPattern.identities(1), StepFunction.constant(3))
        rep = verify_chain([stage], EigenPattern.identities(1), StepFunction.constant(F(7, 4)),
                           PLFunction.constant(F(1, 2)), delta_1=1, eps_n=F(1, 2))
        assert rep.verified and rep.margin == F(5, 4)

    def test_multi_stage_verified(self):
        stages = [
            ChainStage(EigenPattern.identities(2), StepFunction.constant(1)),
            ChainStage(EigenPattern.identities(1), StepFunction.constant(4)),
        ]
        rep = verify_chain(
            stages,
            EigenPattern.identities(3),
            StepFunction.constant(9),
            PLFunction.constant(F(1, 2)),
            delta_1=1,
            eps_n=F(1, 2),
        )
        assert rep.verified
        # normalized application keeps constants: margin 9 - 1/2
        assert rep.margin == F(17, 2)
