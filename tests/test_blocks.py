"""Nested-presentation / dimension-function conversions."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctrace.blocks import (
    NestedPresentation,
    dim_from_nested,
    nested_from_dim,
    validate_special,
)
from ctrace.existence import pinched_dimension_function
from ctrace.pwcalc import (
    Interval,
    PLFunction,
    Piece,
    StepFunction,
    is_lsc,
    le_pointwise,
)

from helpers import (
    dimension_functions,
    lsc_step_functions,
    open_set_chains,
    rand_lsc_int_step,
    ref_dim_from_nested,
    ref_nested,
    ref_nested_from_dim,
    ref_validate_special,
)

seeds = st.integers(0, 10**9)

FULL = Interval(0, 1, True, True)


def split_open(t0):
    """[0,t0) united with (t0,1]: the complement of a single point."""
    return (Interval(0, t0, True, False), Interval(t0, 1, False, True))


class TestDimFromNested:
    def test_full_matrix_algebra(self):
        p = NestedPresentation(3, ((FULL,), (FULL,)))
        assert dim_from_nested(p) == StepFunction.constant(3)

    def test_single_half_open_set(self):
        t0 = F(1, 3)
        p = NestedPresentation(2, ((Interval(t0, 1, False, True),),))
        expected = StepFunction((
            Piece(Interval(0, t0, True, True), 1),
            Piece(Interval(t0, 1, False, True), 2),
        ))
        assert dim_from_nested(p) == expected

    def test_punctured_interval_gives_pinch(self):
        p = NestedPresentation(2, (split_open(F(1, 2)),))
        assert dim_from_nested(p) == pinched_dimension_function()

    def test_rejects_non_nested(self):
        with pytest.raises(ValueError):
            NestedPresentation(
                3,
                (
                    (Interval(0, F(1, 2), True, False),),
                    (Interval(F(1, 2), 1, False, True),),
                ),
            )

    def test_rejects_non_open_sets(self):
        with pytest.raises(ValueError):
            NestedPresentation(2, ((Interval(F(1, 4), F(1, 2), True, False),),))


    @pytest.mark.parametrize("lo,hi,lo_closed,hi_closed,named", [
        (F(1, 2), 2, False, False, "from 1/2 to 2"),
        (-1, F(1, 2), False, False, "from -1 to 1/2"),
        (0, 2, True, False, "from 0 to 2"),
        (-1, 1, False, True, "from -1 to 1"),
        (F(3, 2), 2, False, False, "from 3/2 to 2"),
        (-2, -1, False, False, "from -2 to -1"),
    ])
    def test_refuses_sets_reaching_outside_the_unit_interval(self, lo, hi, lo_closed,
                                                             hi_closed, named):
        outside = Interval(lo, hi, lo_closed, hi_closed)
        for s in ((outside,), (Interval(F(1, 4), F(1, 3), False, False), outside)):
            with pytest.raises(ValueError) as info:
                NestedPresentation(2, (s,))
            assert str(info.value) == f"interval {named} reaches outside [0,1]"
        # the closed-end and single-point refusals keep their messages
        with pytest.raises(ValueError, match="interval closed at 2 is not open"):
            NestedPresentation(2, ((Interval(F(1, 2), 2, False, True),),))

class TestNestedFromDim:
    def test_constant_three(self):
        p = nested_from_dim(StepFunction.constant(3))
        assert p.n == 3
        assert p.opens == ((FULL,), (FULL,))

    def test_pinch_superlevel(self):
        p = nested_from_dim(pinched_dimension_function())
        assert p.n == 2
        assert p.opens == (split_open(F(1, 2)),)

    def test_half_open_superlevel(self):
        t0 = F(1, 3)
        d = StepFunction((
            Piece(Interval(0, t0, True, True), 1),
            Piece(Interval(t0, 1, False, True), 2),
        ))
        p = nested_from_dim(d)
        assert p.opens == ((Interval(t0, 1, False, True),),)

    def test_rejects_invalid_dimension_functions(self):
        not_lsc = StepFunction.from_profile([F(0), F(1, 2), F(1)], [1, 2, 1], [1, 1])
        with pytest.raises(ValueError):
            nested_from_dim(not_lsc)
        fractional = StepFunction.constant(F(3, 2))
        with pytest.raises(ValueError):
            nested_from_dim(fractional)


class TestValidateSpecial:
    def test_pinch_is_valid(self):
        assert validate_special(pinched_dimension_function())

    def test_zero_value_rejected(self):
        s = StepFunction.from_profile([F(0), F(1, 2), F(1)], [1, 0, 0], [1, 0])
        assert is_lsc(s)
        check = validate_special(s)
        assert not check
        assert "below 1" in check.reason

    def test_not_lsc_rejected_with_witness(self):
        s = StepFunction.from_profile([F(0), F(1, 2), F(1)], [1, 2, 1], [1, 1])
        check = validate_special(s)
        assert not check
        assert check.witness == F(1, 2)

    def test_non_integer_rejected(self):
        check = validate_special(StepFunction.constant(F(5, 2)))
        assert not check
        assert "non-integer" in check.reason

    @given(st.one_of(lsc_step_functions(), dimension_functions()))
    @settings(max_examples=200, deadline=None)
    def test_matches_piece_reference(self, d):
        assert validate_special(d) == ref_validate_special(d)


class TestProperties:
    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        d = rand_lsc_int_step(rng)
        assert dim_from_nested(nested_from_dim(d)) == d

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_nesting_implies_lsc(self, seed):
        rng = random.Random(seed)
        d = rand_lsc_int_step(rng)
        p = nested_from_dim(d)
        assert is_lsc(dim_from_nested(p))

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_enlarging_an_open_never_decreases_dim(self, seed):
        rng = random.Random(seed)
        d = rand_lsc_int_step(rng)
        p = nested_from_dim(d)
        if p.n < 2:
            return
        idx = rng.randrange(len(p.opens))
        # enlarging a set means enlarging every set containing it too
        bigger = NestedPresentation(
            p.n, ((FULL,),) * (idx + 1) + p.opens[idx + 1:]
        )
        assert le_pointwise(dim_from_nested(p), dim_from_nested(bigger))

    def test_json_round_trip(self):
        p = nested_from_dim(pinched_dimension_function())
        assert NestedPresentation.from_json(p.to_json()) == p


def outcome(build):
    """What ``build()`` returns, or the message of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


HALF = F(1, 2)
LOWER = Interval(0, HALF, True, False)            # [0, 1/2)
UPPER = Interval(HALF, 1, False, True)            # (1/2, 1]
INNER = Interval(F(1, 4), F(3, 4), False, False)  # (1/4, 3/4)

NESTING_CASES = {
    "empty chain": (1, ()),
    "empty set": (2, ((),)),
    "empty inside full": (3, ((FULL,), ())),
    "full inside empty": (3, ((), (FULL,))),
    "full twice": (3, ((FULL,), (FULL,))),
    "touching at an open point": (2, ((LOWER, UPPER),)),
    "touching inside full": (3, ((FULL,), (LOWER, UPPER))),
    "full inside touching": (3, ((LOWER, UPPER), (FULL,))),
    "bridge over the open point": (3, ((LOWER, UPPER), (INNER,))),
    "closed at 0 inside open at 0": (
        3, ((Interval(0, HALF, False, False),), (LOWER,))),
    "open at 0 inside closed at 0": (
        3, ((LOWER,), (Interval(0, HALF, False, False),))),
    "closed at 1 inside open at 1": (
        3, ((Interval(HALF, 1, False, False),), (UPPER,))),
    "closed at both ends": (3, ((LOWER, UPPER), (LOWER, UPPER))),
    "disjoint halves": (3, ((LOWER,), (UPPER,))),
    "count off by one": (3, ((FULL,),)),
    "closed inside, before the count": (
        4, ((Interval(F(1, 4), HALF, True, False),),)),
}


class TestIndicatorSweepMatchesReferences:
    """``dim_from_nested`` and the nesting check against the membership
    count and the interval containment scan they replaced."""

    def check(self, n, sets):
        new = outcome(lambda: NestedPresentation(n, sets))
        ref = outcome(lambda: ref_nested(n, sets))
        if isinstance(ref, str):
            assert new == ref
            return
        assert new.opens == ref
        d = dim_from_nested(new)
        expected = ref_dim_from_nested(new)
        assert d == expected
        assert d.to_json() == expected.to_json()

    @pytest.mark.parametrize("name", sorted(NESTING_CASES))
    def test_cases(self, name):
        self.check(*NESTING_CASES[name])

    def test_cases_cover_both_verdicts(self):
        verdicts = {name: outcome(lambda: ref_nested(*case))
                    for name, case in NESTING_CASES.items()}
        assert verdicts["touching inside full"] == ((FULL,), (LOWER, UPPER))
        assert verdicts["full inside touching"] == "ValueError: open sets are not nested"
        assert verdicts["bridge over the open point"] == "ValueError: open sets are not nested"
        assert verdicts["closed inside, before the count"].startswith(
            "ValueError: interval closed at 1/4")

    @given(open_set_chains(), st.integers(-1, 1), st.sampled_from([None, "closed", "point"]))
    @settings(max_examples=400, deadline=None)
    def test_random_chains(self, sets, shift, bad):
        if bad and sets:
            # a set that is not open must be refused before the count
            flaw = (Interval(F(1, 3), F(2, 3), True, False) if bad == "closed"
                    else Interval(F(1, 3), F(1, 3)))
            sets = sets[:-1] + [sets[-1] + (flaw,)]
        self.check(len(sets) + 1 + shift, sets)

    @given(seeds)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_matches_reference(self, seed):
        d = rand_lsc_int_step(random.Random(seed), max_jumps=8, vmax=6)
        p = nested_from_dim(d)
        assert ref_nested(p.n, p.opens) == p.opens
        assert ref_dim_from_nested(p) == dim_from_nested(p) == d

    def test_equal_sets_skip_the_sweep(self, monkeypatch):
        import ctrace.blocks

        def refuse(f, g, strict=False):
            raise AssertionError("le_pointwise called")

        monkeypatch.setattr(ctrace.blocks, "le_pointwise", refuse)
        assert NestedPresentation(1001, ((FULL,),) * 1000).opens == ((FULL,),) * 1000
        sets = [split_open(HALF) for _ in range(3)]
        assert NestedPresentation(4, sets).opens == tuple(sets)

    def test_no_point_evaluation(self, monkeypatch):
        def refuse(self, t):
            raise AssertionError("eval called")

        monkeypatch.setattr(StepFunction, "eval", refuse)
        monkeypatch.setattr(PLFunction, "eval", refuse)
        p = NestedPresentation(3, ((LOWER, UPPER), (Interval(0, F(1, 4), True, False),)))
        assert dim_from_nested(p) == StepFunction.from_profile(
            [F(0), F(1, 4), HALF, F(1)], [3, 2, 1, 2], [3, 2, 2]
        )
        assert nested_from_dim(dim_from_nested(p)) == p
        with pytest.raises(ValueError, match="not nested"):
            NestedPresentation(3, ((LOWER,), (UPPER,)))


class TestNestedFromDimMatchesReference:
    """``nested_from_dim`` against the per-level superlevel scan it replaced."""

    def check(self, d):
        p, expected = nested_from_dim(d), ref_nested_from_dim(d)
        assert p == expected
        assert p.to_json() == expected.to_json()
        return p

    @given(dimension_functions())
    @settings(max_examples=300, deadline=None)
    def test_random_dimension_functions(self, d):
        self.check(d)

    def test_pinches_give_touching_intervals(self):
        third = F(1, 3)
        d = StepFunction.from_profile([F(0), third, 2 * third, F(1)], [2, 1, 2, 3], [3, 3, 3])
        assert self.check(d).opens == (
            (Interval(0, third, True, False), Interval(third, 1, False, True)),
            (Interval(0, third, False, False), Interval(third, 2 * third, False, False),
             Interval(2 * third, 1, False, True)),
        )

    def test_staircase(self):
        k = 40
        pts = [F(i, 2 * k) for i in range(2 * k + 1)]
        cells = [1 + min(i, 2 * k - 1 - i) for i in range(2 * k)]
        at = [min(cells[max(j - 1, 0):j + 1]) for j in range(2 * k + 1)]
        p = self.check(StepFunction.from_profile(pts, at, cells))
        assert p.n == k
        assert p.opens[-1] == (Interval(F(k - 1, 2 * k), F(k + 1, 2 * k), False, False),)
