"""Exact calculus: construction, evaluation, composition, comparison."""

import contextlib
import copy
import inspect
import pickle
import random
from fractions import Fraction as F
from types import SimpleNamespace
from typing import Final, NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from ctrace.existence import pinched_dimension_function
from ctrace import pwcalc
from ctrace.patterns import EigenPattern, ramp_functions
from ctrace.pwcalc import (
    Extremum,
    Frozen,
    Interval,
    LeResult,
    PLFunction,
    Piece,
    StepFunction,
    combine_steps,
    compose_pl,
    compose_step_pl,
    _preimage_refinement,
    field_names,
    frac,
    function_from_json,
    inf_difference,
    is_lsc,
    json_list,
    json_obj,
    le_pointwise,
    linear_combine,
    linear_combine_steps,
    merged_points,
    refine,
    sup_distance,
    weighted_sup_norm,
    _weighted_sup_of_sum,
)

from helpers import (
    NEAR_TIES,
    as_fractions,
    as_pairs,
    cut_points,
    fraction_ordered_kernels,
    inner_functions,
    interval_contains,
    near_tie_inner_functions,
    near_tie_pl_functions,
    near_tie_step_functions,
    oracle_inf_diff,
    oracle_le,
    oracle_weighted_sup,
    pl_functions,
    rand_pl,
    rand_fraction,
    rand_pl_unit,
    rand_positive_step,
    rand_step,
    ref_add_steps,
    ref_compose_pl,
    ref_compose_step_pl,
    ref_inf_difference,
    ref_le_pointwise,
    ref_linear_combine,
    ref_merged_points,
    ref_pl_canonical,
    ref_preimage_refinement,
    ref_refine,
    ref_step_from_json,
    ref_step_to_json,
    ref_weighted_sup_norm,
    refine_as_fractions,
    step_functions,
    wide_fractions,
    wide_pl_points,
    wide_step_functions,
)

seeds = st.integers(0, 10**9)


class TestConstruction:
    def test_frac_coercions(self):
        assert frac("3/4") == F(3, 4)
        assert frac([3, 4]) == F(3, 4)
        assert frac(2) == F(2)
        with pytest.raises(TypeError):
            frac(True)
        with pytest.raises(TypeError):
            frac(0.5)

    @pytest.mark.parametrize("pair", [[1.9, 2], [True, 2], [1, False], ["3", "4"], [1, None],
                                      [True, 1], [1.0, 2], ["1", 2], (1, True)])
    def test_frac_pair_needs_two_ints(self, pair):
        with pytest.raises(TypeError) as info:
            frac(pair)
        assert str(info.value) == f"a [num, den] pair needs two integers, not {pair!r}"

    def test_frac_short_pair(self):
        with pytest.raises(TypeError) as info:
            frac([1])
        assert str(info.value) == "cannot interpret [1] as a rational"

    def test_frac_pair_takes_int_subclasses(self):
        class Count(int):
            pass

        assert frac([Count(3), Count(-4)]) == F(-3, 4)

    def test_pl_from_json_refuses_what_frac_refuses(self):
        bad = {"kind": "pl", "points": [[[0, 1], [1, 2]], [[1, 1], [True, 1]]]}
        with pytest.raises(TypeError) as info:
            PLFunction.from_json(bad)
        assert str(info.value) == "a [num, den] pair needs two integers, not [True, 1]"
        bad["points"][1][1] = [1, 0]
        with pytest.raises(ValueError, match=r"zero denominator in \[1, 0\]"):
            PLFunction.from_json(bad)

    @pytest.mark.parametrize("x", [[1, 0], (0, 0), "1/0", " -3/0 "])
    def test_frac_zero_denominator(self, x):
        with pytest.raises(ValueError) as info:
            frac(x)
        assert str(info.value) == f"zero denominator in {x!r}"

    @pytest.mark.parametrize("x,value", [("3/4", F(3, 4)), (" -3/4 ", F(-3, 4)),
                                         ("+2", F(2)), ("7\n", F(7))])
    def test_frac_strings(self, x, value):
        assert frac(x) == value

    @pytest.mark.parametrize("x", ["0.5", "1e3", "1e-10000000", "1_000", "3 / 4", "",
                                   "inf", "0x10", "3/-4"])
    def test_frac_strings_are_integers_or_a_over_b(self, x):
        with pytest.raises(ValueError, match="not an integer or a/b rational") as info:
            frac(x)
        assert repr(x) in str(info.value)

    @pytest.mark.parametrize("x", ["12", {"0": 1}, 5, None, 1.5, False])
    def test_json_list_refuses_non_arrays(self, x):
        json_type = {str: "string", dict: "object", int: "number", float: "number",
                     type(None): "null", bool: "boolean"}[type(x)]
        with pytest.raises(TypeError, match=f"caps must be a JSON array, not {json_type}$"):
            json_list(x, "caps")
        assert json_list([1, "2"], "caps") == [1, "2"]

    @pytest.mark.parametrize("x", [[1, 2], 5, "pl", None])
    def test_json_obj_refuses_non_objects(self, x):
        with pytest.raises(TypeError, match="must be a JSON object"):
            json_obj(x, "a function")
        for parse in (function_from_json, PLFunction.from_json, StepFunction.from_json):
            with pytest.raises(TypeError, match="must be a JSON object"):
                parse(x)

    def test_pl_collinear_points_removed(self):
        f = PLFunction((0, F(1, 4), F(1, 2), 1), (0, F(1, 4), F(1, 2), 1))
        assert f == PLFunction.identity()
        assert len(f.breakpoints) == 2

    def test_pl_rejects_bad_breakpoints(self):
        with pytest.raises(ValueError):
            PLFunction((0, F(1, 2)), (0, 1))
        with pytest.raises(ValueError):
            PLFunction((0, F(1, 2), F(1, 2), 1), (0, 1, 1, 0))
        with pytest.raises(ValueError):
            PLFunction((0, 1), (0,))

    def test_step_merges_equal_adjacent_pieces(self):
        s = StepFunction.from_profile([F(0), F(1, 2), F(1)], [2, 2, 2], [2, 2])
        assert s == StepFunction.constant(2)
        assert len(s.pieces) == 1

    def test_step_keeps_isolated_point_value(self):
        s = pinched_dimension_function()
        assert len(s.pieces) == 3
        assert s.pieces[1].interval.is_point

    def test_step_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            StepFunction((
                Piece(Interval(0, F(1, 2), True, True), 1),
                Piece(Interval(F(1, 2), 1, True, True), 2),
            ))
        with pytest.raises(ValueError):
            StepFunction((Piece(Interval(0, F(1, 2), True, False), 1),))

    def test_json_round_trips(self):
        f = PLFunction((0, F(1, 3), 1), (F(1, 2), 2, 0))
        assert function_from_json(f.to_json()) == f
        s = pinched_dimension_function()
        assert function_from_json(s.to_json()) == s

    @given(wide_pl_points())
    @settings(max_examples=150, deadline=None)
    def test_canonical_points(self, profile):
        bps, vals = profile
        f = PLFunction(tuple(bps), tuple(vals))
        assert (f.breakpoints, f.values) == ref_pl_canonical(bps, vals)
        assert all(type(x) is F for x in f.breakpoints + f.values)

    @given(wide_pl_points(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_non_increasing_breakpoints_rejected(self, profile, data):
        bps, vals = profile
        if len(bps) < 3:
            return
        i = data.draw(st.integers(1, len(bps) - 2))
        bps[i] = data.draw(st.sampled_from([bps[i - 1], bps[i + 1]]))
        with pytest.raises(ValueError, match="strictly increasing"):
            PLFunction(tuple(bps), tuple(vals))

    def test_collinear_runs(self):
        line = PLFunction((0, F(1, 3), F(1, 2), F(2, 3), 1), (-1, 0, F(1, 2), 1, 2))
        assert line.breakpoints == (0, 1) and line.values == (-1, 2)
        kink = PLFunction((0, F(1, 4), F(1, 2), F(3, 4), 1), (0, 1, 2, 1, 0))
        assert kink.breakpoints == (0, F(1, 2), 1)
        big = F(1, 10**9)
        runs = PLFunction((0, big, 2 * big, F(1, 2), 1), (0, -big, -2 * big, -1, 0))
        assert runs.breakpoints == (0, 2 * big, F(1, 2), 1)


def scan_eval(s, t):
    """Reference value at t: the piece scan StepFunction.eval once was."""
    for p in s.pieces:
        if interval_contains(p.interval, t):
            return p.value
    raise AssertionError("pieces do not cover t")


# (interior points k/24, point values, open values); values come from
# {0, 1, 2}, so equal neighbours and isolated point values are common
profiles = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.integers(1, 23), min_size=n - 1, max_size=n - 1, unique=True),
    st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1),
    st.lists(st.integers(0, 2), min_size=n, max_size=n),
))


def profile_points(ks):
    return [F(0)] + [F(k, 24) for k in sorted(ks)] + [F(1)]


class TestProfileBoundary:
    @given(profiles)
    @settings(max_examples=100, deadline=None)
    def test_pieces_are_the_same_function(self, profile):
        ks, point_vals, open_vals = profile
        pts = profile_points(ks)
        s = StepFunction.from_profile(pts, point_vals, open_vals)
        assert StepFunction(s.pieces) == s
        assert StepFunction.from_json(s.to_json()) == s
        assert all(p.value != q.value for p, q in zip(s.pieces, s.pieces[1:]))
        for i, t in enumerate(pts):
            assert s.eval(t) == scan_eval(s, t) == point_vals[i]
            if i + 1 < len(pts):
                mid = (t + pts[i + 1]) / 2
                assert s.eval(mid) == scan_eval(s, mid) == open_vals[i]

    @given(profiles, st.data())
    @settings(max_examples=50, deadline=None)
    def test_from_profile_rejects_non_increasing_points(self, profile, data):
        ks, point_vals, open_vals = profile
        pts = profile_points(ks)
        i = data.draw(st.integers(1, len(pts) - 1))
        shrink = data.draw(st.sampled_from([1, F(1, 2)]))
        bad = pts[:i] + [pts[i - 1] * shrink] + pts[i:]
        with pytest.raises(ValueError):
            StepFunction.from_profile(bad, point_vals + [0], open_vals + [0])



def _piece(lo, hi, lo_closed=True, hi_closed=True, value=(1, 1)):
    return {"lo": list(lo), "hi": list(hi), "lo_closed": lo_closed, "hi_closed": hi_closed,
            "value": list(value) if isinstance(value, tuple) else value}


def _step(*pieces):
    return {"kind": "step", "pieces": list(pieces)}


HALF, ZERO_, ONE_ = (1, 2), (0, 1), (1, 1)
# [0,1/2) -> 1, {1/2} -> 2, (1/2,1] -> 3
GOOD_PIECES = (
    _piece(ZERO_, HALF, True, False, (1, 1)),
    _piece(HALF, HALF, True, True, (2, 1)),
    _piece(HALF, ONE_, False, True, (3, 1)),
)


DROP = object()


def _with(i, **changes):
    """GOOD_PIECES with piece i changed (a value of DROP deletes the key)."""
    pieces = [dict(p) for p in GOOD_PIECES]
    for key, value in changes.items():
        if value is DROP:
            del pieces[i][key]
        else:
            pieces[i][key] = value
    return pieces


MALFORMED_STEPS = {
    "empty": _step(),
    "gap": _step(_piece(ZERO_, (1, 4)), _piece(HALF, ONE_, False)),
    "gap, pieces out of order": _step(_piece(HALF, ONE_, False), _piece(ZERO_, (1, 4))),
    "overlap": _step(_piece(ZERO_, (3, 4)), _piece(HALF, ONE_, False)),
    "end covered twice": _step(_piece(ZERO_, HALF), _piece(HALF, ONE_)),
    "end covered by no piece": _step(_piece(ZERO_, HALF, True, False),
                                     _piece(HALF, ONE_, False, True)),
    "point covered twice": _step(_piece(ZERO_, ZERO_), _piece(ZERO_, ONE_)),
    "point covered twice, other order": _step(_piece(ZERO_, ONE_), _piece(ZERO_, ZERO_)),
    "not starting at 0": _step(_piece((1, 4), ONE_)),
    "open at 0": _step(_piece(ZERO_, ONE_, False, True)),
    "not ending at 1": _step(_piece(ZERO_, (3, 4))),
    "open at 1": _step(_piece(ZERO_, ONE_, True, False)),
    "beyond 1": _step(_piece(ZERO_, (2, 1))),
    "lo > hi": _step(_piece((3, 4), (1, 4))),
    "open single point": _step(*_with(1, hi_closed=False)),
    "integer flag": _step(*_with(0, lo_closed=1)),
    "string flag": _step(*_with(2, hi_closed="true")),
    "null flag": _step(*_with(1, lo_closed=None)),
    "boolean end": _step(*_with(0, lo=True)),
    "boolean value": _step(*_with(1, value=[True, 1])),
    "zero denominator end": _step(*_with(2, hi=[1, 0])),
    "negative denominator end": _step(_piece(ZERO_, (1, -2))),
    "zero denominator value": _step(*_with(0, value="1/0")),
    "float end": _step(*_with(1, lo=0.5)),
    "decimal string value": _step(*_with(2, value="0.5")),
    "missing lo": _step(*_with(0, lo=DROP)),
    "missing hi_closed": _step(*_with(2, hi_closed=DROP)),
    "missing value": _step(*_with(1, value=DROP)),
    "missing pieces": {"kind": "step"},
    "missing kind": {"pieces": list(GOOD_PIECES)},
    "wrong kind": {"kind": "pl", "pieces": list(GOOD_PIECES)},
    "not an object": [list(GOOD_PIECES)],
    "piece is a number": _step(GOOD_PIECES[0], 5, GOOD_PIECES[2]),
    "piece is a list": _step([[0, 1], [1, 1], True, True, [1, 1]]),
    "piece is a string": _step("lo"),
    "pieces is a number": {"kind": "step", "pieces": 5},
    "pieces is an object": {"kind": "step", "pieces": GOOD_PIECES[0]},
    "bad value, then bad interval": _step(*_with(0, value="1/0")[:1],
                                          *_with(1, lo=[3, 4])[1:]),
    "bad interval, then bad value": _step(*_with(0, lo=[3, 4])[:1],
                                          *_with(1, value="1/0")[1:]),
    "tiling defect, then bad value": _step(_piece(ZERO_, (1, 4)), _piece(HALF, ONE_, False),
                                           _piece(HALF, HALF, value="x")),
    "bad lo and missing hi": _step(*_with(0, lo="1.5", hi=DROP)),
    "bad hi and bad flag": _step(*_with(2, hi=[1, 0], lo_closed=0)),
    "bad lo and bad value": _step(*_with(1, lo=[True, 2], value=[1, 0])),
    "lo > hi and bad value": _step(*_with(0, lo=[3, 4], value=None)),
    "bad end and missing value": _step(*_with(2, lo=[1, 0], value=DROP)),
}


def _outcome(parse, payload):
    try:
        return parse(payload).to_json()
    except Exception as exc:  # the refusal, compared by type and message
        return type(exc), str(exc)


class TestStepJsonBoundary:
    """Step functions cross the JSON boundary as (interval, value) pairs and
    profile walks, and do what the Piece round trip did."""

    @given(st.one_of(wide_step_functions(), step_functions(), near_tie_step_functions()),
           st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_matches_piece_reference(self, s, rng):
        blob = s.to_json()
        assert blob == ref_step_to_json(s)
        shuffled = {"kind": "step", "pieces": list(blob["pieces"])}
        rng.shuffle(shuffled["pieces"])
        out, ref = StepFunction.from_json(shuffled), ref_step_from_json(shuffled)
        assert out == ref == s
        assert out.to_json() == blob
        assert StepFunction(s.pieces) == s
        assert [p.interval for p in s.pieces] == [Interval.from_json(p) for p in blob["pieces"]]

    def test_single_point_pieces_and_large_denominators(self):
        t = F(10**30 + 1, 10**30 + 2)
        s = StepFunction.from_profile([0, t, 1], [F(-1, 10**40), 5, 0], [F(1, 3), F(1, 3)])
        blob = s.to_json()
        assert blob == ref_step_to_json(s)
        assert [[p["lo"], p["hi"]] for p in blob["pieces"]] == [
            [[0, 1], [0, 1]], [[0, 1], [t.numerator, t.denominator]],
            [[t.numerator, t.denominator]] * 2, [[t.numerator, t.denominator], [1, 1]],
            [[1, 1], [1, 1]],
        ]
        assert StepFunction.from_json(blob) == ref_step_from_json(blob) == s

    @pytest.mark.parametrize("name", sorted(MALFORMED_STEPS))
    def test_malformed_payload_refused_like_the_reference(self, name):
        payload = MALFORMED_STEPS[name]
        out = _outcome(StepFunction.from_json, payload)
        assert isinstance(out, tuple), f"{name} was accepted"
        assert out == _outcome(ref_step_from_json, payload)

    def test_string_rationals_accepted_like_the_reference(self):
        pieces = _with(1, lo="1/2", hi=" 1/2 ", value="2")
        payload = _step(*pieces)
        assert _outcome(StepFunction.from_json, payload) == _outcome(ref_step_from_json, payload)
        assert StepFunction.from_json(payload) == StepFunction.from_json(_step(*GOOD_PIECES))

    def test_from_json_coerces_each_coordinate_once(self, monkeypatch):
        s = StepFunction.from_profile([0, F(1, 3), F(1, 2), 1], [1, 2, 3, 0], [4, 5, 6])
        blob = s.to_json()
        calls = []
        real = pwcalc._reduced

        def counting(x):
            calls.append(x)
            return real(x)

        def no_piece(self):
            raise AssertionError("a Piece was built")

        monkeypatch.setattr(pwcalc, "_reduced", counting)
        monkeypatch.setattr(Piece, "__post_init__", no_piece)
        assert StepFunction.from_json(blob) == s
        # lo, hi and value of each piece, each once
        assert len(calls) == 3 * len(blob["pieces"]) == 3 * 7

    @pytest.mark.parametrize("s", [
        StepFunction.from_profile([0, F(1, 3), F(1, 2), 1], [1, 2, 3, 0], [4, F(-5, 7), 6]),
        # two ends that share a float, so the sort compares them exactly
        StepFunction.from_profile([0, F(1, 3), F(1, 3) + F(1, 10**30), 1],
                                  [1, F(10**40, 3), 1, 2], [1, 2, 2]),
    ])
    def test_from_json_builds_no_fraction(self, monkeypatch, s):
        blob = s.to_json()
        calls = counting("__new__")(monkeypatch)
        out = StepFunction.from_json(blob)
        assert calls == []
        monkeypatch.undo()
        assert out == ref_step_from_json(blob) == s

    def test_to_json_builds_no_interval_or_piece(self, monkeypatch):
        s = pinched_dimension_function()
        expected = ref_step_to_json(s)

        def refuse(self):
            raise AssertionError("built while writing JSON")

        monkeypatch.setattr(Interval, "__post_init__", refuse)
        monkeypatch.setattr(Piece, "__post_init__", refuse)
        monkeypatch.setattr(pwcalc, "frac", refuse)
        assert s.to_json() == expected

    def test_piece_values_are_rationals(self):
        with pytest.raises(ValueError, match="not an integer or a/b rational"):
            Piece(Interval(0, 1), "0.5")

    def test_interval_from_json_is_the_constructed_interval(self):
        for iv in (Interval(0, F(1, 2), True, False), Interval(F(1, 3), F(1, 3)),
                   Interval(F(10**20, 10**20 + 1), 1, False, True)):
            parsed = Interval.from_json(iv.to_json())
            assert parsed == iv and hash(parsed) == hash(iv) and repr(parsed) == repr(iv)
            for copied in (copy.copy(parsed), copy.deepcopy(parsed),
                           pickle.loads(pickle.dumps(parsed))):
                assert copied == iv
            with pytest.raises(AttributeError):
                parsed.lo = F(0)

class TestEval:
    def test_identity_at_half(self):
        assert PLFunction.identity().eval(F(1, 2)) == F(1, 2)

    def test_ramp_midpoint(self):
        # second of the four probe ramps: 0 on [0,1/4], 1 on [1/2,1]
        r1 = ramp_functions(4)[1]
        assert r1.eval(F(3, 8)) == F(1, 2)

    def test_pinched_point_value(self):
        assert pinched_dimension_function().eval(F(1, 2)) == 1

    def test_rejects_outside_domain(self):
        with pytest.raises(ValueError):
            PLFunction.identity().eval(F(3, 2))
        with pytest.raises(ValueError):
            StepFunction.constant(1).eval(F(-1, 2))


class TestLinearCombine:
    def test_doubling(self):
        two_t = linear_combine([1, 1], [PLFunction.identity()] * 2)
        assert two_t == PLFunction((0, 1), (0, 2))

    def test_cancellation(self):
        f = PLFunction((0, F(1, 3), 1), (1, 5, 0))
        assert linear_combine([1, -1], [f, f]) == PLFunction.constant(0)

    def test_affine_average(self):
        out = linear_combine(
            [F(1, 2), F(1, 2)], [PLFunction.constant(0), PLFunction.constant(2)]
        )
        assert out == PLFunction.constant(1)

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError):
            linear_combine([], [])
        with pytest.raises(ValueError):
            linear_combine([1], [PLFunction.identity(), PLFunction.identity()])

    def test_refuses_a_step_function(self):
        with pytest.raises(TypeError, match="combines piecewise-linear functions"):
            linear_combine([1, 1], [PLFunction.identity(), StepFunction.constant(1)])


class TestLinearCombineSteps:
    def test_rejects_empty_mismatched_and_pl(self):
        s = StepFunction.constant(1)
        with pytest.raises(ValueError, match="empty linear combination"):
            linear_combine_steps([], [])
        with pytest.raises(ValueError, match="count mismatch"):
            linear_combine_steps([1], [s, s])
        with pytest.raises(TypeError, match="combines step functions"):
            linear_combine_steps([1, 1], [s, PLFunction.identity()])


class _Point(Frozen):
    """Two fields with defaults after one without, a constant, one unshown."""

    x: int
    y: int = 0
    label: str = ""
    kind: Final = "point"
    _unshown = ("label",)


class TestFrozen:
    """The frozen-fields base of the records and the function classes."""

    def test_fields_defaults_and_constant(self):
        assert field_names(_Point) == field_names(_Point(1)) == ("x", "y", "label", "kind")
        p = _Point(1)
        assert (p.x, p.y, p.label, p.kind) == (1, 0, "", "point")
        # the constant is read from the class, as a dataclass's init=False field
        assert vars(p) == {"x": 1, "y": 0, "label": ""}
        assert field_names(Extremum) == ("value", "at", "side")

    @pytest.mark.parametrize("args, kwargs", [
        ((1, 2, "a"), {}), ((1, 2), {"label": "a"}), ((1,), {"label": "a", "y": 2}),
        ((), {"label": "a", "y": 2, "x": 1}),
    ])
    def test_fields_positionally_or_by_name(self, args, kwargs):
        assert list(vars(_Point(*args, **kwargs)).items()) == [("x", 1), ("y", 2), ("label", "a")]

    @pytest.mark.parametrize("args, kwargs", [
        ((), {}), ((), {"y": 2}), ((1, 2, "a", "b"), {}), ((1,), {"x": 1}), ((1,), {"z": 3}),
        ((1,), {"kind": "line"}),
    ])
    def test_refused_arguments(self, args, kwargs):
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)

    def test_no_default_and_no_argument(self):
        assert Extremum(1, 2, "at").side == "at" and Extremum(side="at", at=2, value=1).at == 2
        for args in ((), (1, 2), (1, 2, "at", 4)):
            with pytest.raises(TypeError):
                Extremum(*args)

    def test_generated_init_has_the_fields_as_parameters(self):
        assert str(inspect.signature(Extremum)) == "(value, at, side)"
        assert str(inspect.signature(LeResult)) == "(holds, witness=None)"
        # the constant is not a parameter; an __init__ of a class's own is kept
        assert str(inspect.signature(_Point)) == "(x, y=0, label='')"
        assert str(inspect.signature(PLFunction)) == "(breakpoints, values)"
        assert Extremum.__init__.__qualname__ == "Extremum.__init__"
        with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'side'"):
            Extremum(1, 2)

    def test_assignment_is_refused(self):
        p = _Point(1)
        for name in ("x", "kind", "other"):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(p, name, 2)
            with pytest.raises(AttributeError):
                delattr(p, name)
        # as a __post_init__ may
        object.__setattr__(p, "other", 3)
        assert p.other == 3 and p.x == 1

    def test_equality_and_hash_read_the_fields_only(self):
        p, q = _Point(1, 2, "a"), _Point(1, 2, "a")
        object.__setattr__(q, "cache", 5)
        assert p == q and hash(p) == hash(q) == hash((1, 2, "a", "point"))
        assert p != _Point(1, 2, "b") and p != _Point(2, 2, "a")
        assert p != (1, 2, "a", "point") and LeResult(True) != _Point(True)
        assert LeResult(True) == LeResult(True, None) != LeResult(True, F(1, 2))

    def test_repr_is_the_dataclass_repr(self):
        assert repr(_Point(1, 2, "a")) == "_Point(x=1, y=2, kind='point')"
        assert repr(LeResult(False, F(1, 3))) == "LeResult(holds=False, witness=Fraction(1, 3))"

    def test_post_init_sees_the_fields(self):
        iv = Interval("1/2", 1, hi_closed=False)
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (F(1, 2), 1, True, False)
        with pytest.raises(ValueError, match="empty interval"):
            Interval(1, 0)

    def test_pickle_and_copy_keep_the_instance_dict(self):
        for p in (_Point(1, 2, "a"), LeResult(False, F(1, 3)), Interval(0, F(1, 2))):
            for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert q == p and hash(q) == hash(p)
                assert list(vars(q).items()) == list(vars(p).items())


class TestCachedHash:
    """A PLFunction hashes its stored pairs once and otherwise keeps the
    surface it had as a dataclass: the same equality, repr and fields,
    through copies too."""

    @staticmethod
    def routes():
        f = PLFunction((0, F(1, 3), 1), (F(1, 2), 0, F(2, 3)))
        flip = PLFunction((0, 1), (1, 0))
        # the constructor, the kernel constructor, the JSON parser; composing
        # with the identity would give back f itself, so flip twice
        return [f, compose_pl(compose_pl(f, flip), flip), PLFunction.from_json(f.to_json())]

    def test_equal_functions_hash_alike(self):
        routes = self.routes()
        hashes = [hash(f) for f in routes]
        assert len(set(hashes)) == 1
        assert [hash(f) for f in routes] == hashes  # now from the cache

    def test_second_hash_reads_no_fraction(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Fraction hashed again")

        for f in self.routes():
            h = hash(f)
            with monkeypatch.context() as mp:
                mp.setattr(F, "__hash__", refuse)
                with pytest.raises(AssertionError, match="hashed again"):
                    hash(F(1, 3))
                assert hash(f) == h
                assert EigenPattern((f, f)).counts[f] == 2

    def test_dataclass_surface_unchanged(self):
        f, g, h = self.routes()
        text = f"PLFunction(breakpoints={f.breakpoints!r}, values={f.values!r})"
        assert repr(f) == text
        hash(f)  # only f caches its hash
        assert repr(f) == repr(g) == repr(h) == text
        assert f == g == h and g == f
        assert f != PLFunction.identity()
        # another class, or the public tuples, is not the function
        assert PLFunction.identity() != StepFunction.constant(0)
        assert f != (f.breakpoints, f.values)
        assert list(field_names(f)) == ["breakpoints", "values"]

    @pytest.mark.parametrize("cached", [False, True])
    def test_copies_keep_equality_and_hash(self, cached):
        for f in self.routes():
            if cached:
                hash(f)
            for g in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
                assert g == f
                assert hash(g) == hash(f)


class TestIntoUnitInterval:
    """The range test reads integer terms: 0 and 1 are inside, and values
    off [0,1] by less than a float can tell are outside."""

    @pytest.mark.parametrize("value,inside", [
        (F(0), True), (F(1), True), (F(-1, 10**400), False), (1 + F(1, 10**20), False),
    ])
    def test_ends_and_float_ties(self, value, inside):
        assert float(value) in (0.0, 1.0)
        for g in (PLFunction((0, F(1, 2), 1), (F(1, 2), value, F(1, 2))),
                  PLFunction((0, 1), (value, 1 - value))):
            assert g.into_unit_interval() is inside
            if inside:
                assert EigenPattern((g,)).eigenfunctions == (g,)
            else:
                with pytest.raises(ValueError, match=r"must map \[0,1\] into \[0,1\]"):
                    EigenPattern((g,))


class TestComposePL:
    def test_right_identity(self):
        f = PLFunction((0, F(1, 2), 1), (0, 1, 0))
        assert compose_pl(f, PLFunction.identity()) == f

    def test_left_identity(self):
        g = PLFunction((0, F(1, 3), 1), (F(1, 2), 0, 1))
        assert compose_pl(PLFunction.identity(), g) == g

    def test_tent_with_halving(self):
        tent = PLFunction((0, F(1, 2), 1), (0, 1, 0))
        halve = PLFunction((0, 1), (0, F(1, 2)))
        assert compose_pl(tent, halve) == PLFunction.identity()

    def test_rejects_escaping_inner(self):
        with pytest.raises(ValueError):
            compose_pl(PLFunction.identity(), PLFunction.constant(2))

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_composition_on_grid(self, seed):
        rng = random.Random(seed)
        f, g = rand_pl(rng), rand_pl_unit(rng)
        comp = compose_pl(f, g)
        for k in range(0, 101, 7):
            t = F(k, 100)
            assert comp.eval(t) == f.eval(g.eval(t))


class TestComposeStepPL:
    def test_right_identity(self):
        d = pinched_dimension_function()
        assert compose_step_pl(d, PLFunction.identity()) == d

    def test_constant_inner(self):
        d = pinched_dimension_function()
        assert compose_step_pl(d, PLFunction.constant(F(1, 2))) == StepFunction.constant(1)

    def test_pinch_preimage_through_clamped_ramp(self):
        # clamp [3/8,5/8] to 3/8, rejoin the identity over [5/8,3/4]:
        # the only preimage of the pinch point 1/2 is t = 2/3
        lam = PLFunction(
            (0, F(3, 8), F(5, 8), F(3, 4), 1),
            (0, F(3, 8), F(3, 8), F(3, 4), 1),
        )
        out = compose_step_pl(pinched_dimension_function(), lam)
        expected = StepFunction.from_profile(
            [F(0), F(2, 3), F(1)], [2, 1, 2], [2, 2]
        )
        assert out == expected

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_pointwise_composition_on_grid(self, seed):
        rng = random.Random(seed)
        d, g = rand_step(rng), rand_pl_unit(rng)
        comp = compose_step_pl(d, g)
        for k in range(0, 101, 7):
            t = F(k, 100)
            assert comp.eval(t) == d.eval(g.eval(t))


class TestLePointwise:
    def test_underapprox_below_dimension(self):
        from ctrace.existence import make_underapprox

        d = pinched_dimension_function()
        fp = make_underapprox(d, F(1, 8))
        assert le_pointwise(fp, d)

    def test_dimension_not_below_underapprox(self):
        from ctrace.existence import make_underapprox

        d = pinched_dimension_function()
        fp = make_underapprox(d, F(1, 8))
        res = le_pointwise(d, fp)
        assert not res
        assert F(3, 8) < res.witness < F(5, 8)
        assert d.eval(res.witness) > fp.eval(res.witness)

    def test_strict_fails_on_equality(self):
        res = le_pointwise(StepFunction.constant(2), StepFunction.constant(2), strict=True)
        assert not res
        assert res.witness is not None

    def test_mixed_types(self):
        assert le_pointwise(PLFunction.identity(), StepFunction.constant(1))
        res = le_pointwise(PLFunction.identity(), StepFunction.constant(F(1, 2)))
        assert not res.holds
        assert res.witness > F(1, 2)

    @given(seeds)
    @example(202545)  # strict, f(0) < g(0) with equal limits from the right
    @example(1201)
    @example(2843)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        mk = lambda: rand_pl(rng) if rng.random() < 0.5 else rand_step(rng)
        f, g = mk(), mk()
        strict = rng.random() < 0.5
        res = le_pointwise(f, g, strict=strict)
        oracle_holds, _ = oracle_le(f, g, strict=strict, grid=500)
        assert res.holds == oracle_holds
        if not res.holds:
            lhs, rhs = f.eval(res.witness), g.eval(res.witness)
            assert lhs > rhs or (strict and lhs == rhs)


class TestWeightedSupNorm:
    def test_unit_weight_is_sup_norm(self):
        f = PLFunction((0, F(1, 2), 1), (-3, 1, 2))
        res = weighted_sup_norm(f, StepFunction.constant(1))
        assert res.value == 3
        assert res.at == 0
        assert res.attained

    def test_perturbation_distance_is_two_delta(self):
        # clamp-and-ramp reparametrization against the identity
        delta = F(1, 8)
        lam_hat = PLFunction(
            (0, F(3, 8), F(5, 8), F(3, 4), 1),
            (0, F(3, 8), F(3, 8), F(3, 4), 1),
        )
        diff = lam_hat - PLFunction.identity()
        assert weighted_sup_norm(diff, StepFunction.constant(1)).value == 2 * delta

    def test_constant_weight_scales(self):
        res = weighted_sup_norm(PLFunction.constant(1), StepFunction.constant(2))
        assert res.value == F(1, 2)

    def test_rejects_nonpositive_weight(self):
        bad = StepFunction.from_profile([F(0), F(1)], [1, 0], [1])
        with pytest.raises(ValueError):
            weighted_sup_norm(PLFunction.identity(), bad)

    def test_refusals(self):
        with pytest.raises(TypeError, match="compares piecewise-linear functions"):
            sup_distance(PLFunction.identity(), StepFunction.constant(0))
        with pytest.raises(TypeError, match="compares piecewise-linear functions"):
            sup_distance(StepFunction.constant(0), PLFunction.identity())
        for w, kind, message in ((StepFunction.constant(0), ValueError, "strictly positive"),
                                 (PLFunction.constant(1), TypeError, "step functions")):
            for coeffs in ([], [1]):
                with pytest.raises(kind, match=message):
                    _weighted_sup_of_sum(coeffs, [PLFunction.identity()] * len(coeffs), w)

    def test_limit_supremum_reported_with_flag(self):
        # |t| / w with w jumping from 1 to 3 at 1/2: sup 1/2 approached at 1/2-
        w = StepFunction.from_profile(
            [F(0), F(1, 2), F(1)], [1, 3, 3], [1, 3]
        )
        res = weighted_sup_norm(PLFunction.identity(), w)
        assert res.value == F(1, 2)
        assert res.at == F(1, 2)
        assert res.side == "below"

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        f, w = rand_pl(rng), rand_positive_step(rng)
        res = weighted_sup_norm(f, w)
        assert res.value == oracle_weighted_sup(f, w, grid=500)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_in_the_weight(self, seed):
        rng = random.Random(seed)
        f, w = rand_pl(rng), rand_positive_step(rng)
        kappa = rand_fraction(rng, F(1, 8), 4)
        lhs = weighted_sup_norm(f, w.scale(kappa)).value
        rhs = weighted_sup_norm(f, w).value / kappa
        assert lhs == rhs

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, seed):
        rng = random.Random(seed)
        f, g, w = rand_pl(rng), rand_pl(rng), rand_positive_step(rng)
        assert (
            weighted_sup_norm(f + g, w).value
            <= weighted_sup_norm(f, w).value + weighted_sup_norm(g, w).value
        )


class TestIsLsc:
    def test_pinched_is_lsc(self):
        assert is_lsc(pinched_dimension_function())

    def test_point_above_limits_fails(self):
        s = StepFunction.from_profile([F(0), F(1, 2), F(1)], [1, 2, 1], [1, 1])
        res = is_lsc(s)
        assert not res
        assert res.witness == F(1, 2)

    def test_constant_is_lsc(self):
        assert is_lsc(StepFunction.constant(7))

    @given(seeds)
    @settings(max_examples=50, deadline=None)
    def test_preserved_under_composition(self, seed):
        from helpers import rand_lsc_int_step

        rng = random.Random(seed)
        d, g = rand_lsc_int_step(rng), rand_pl_unit(rng)
        assert is_lsc(d)
        assert is_lsc(compose_step_pl(d, g))


class TestInfDifference:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle(self, seed):
        rng = random.Random(seed)
        mk = lambda: rand_pl(rng) if rng.random() < 0.5 else rand_step(rng)
        upper, lower = mk(), mk()
        res = inf_difference(upper, lower)
        assert res.value == oracle_inf_diff(upper, lower, grid=500)


class TestCompositionIdentityProperties:
    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_identity_laws_hold_canonically(self, seed):
        rng = random.Random(seed)
        f = rand_pl(rng)
        g = rand_pl_unit(rng)
        d = rand_step(rng)
        # the identity on either side gives back the other operand itself,
        # unrefined (the outer one's when both are the identity)
        identity = PLFunction.identity()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pwcalc, "_preimage_refinement", _refuse)
            for outer, inner in ((f, identity), (identity, g), (identity, identity)):
                other = inner if outer == identity else outer
                assert compose_pl(outer, inner) is other
            assert compose_step_pl(d, identity) is d
            # rand_pl draws values >= -2, so f + 4 >= 2 leaves [0,1] whatever f is
            with pytest.raises(ValueError, match=r"inner function must map \[0,1\] into \[0,1\]"):
                compose_pl(identity, f.shift(4))

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_step_addition_matches_pointwise(self, seed):
        rng = random.Random(seed)
        s1, s2 = rand_step(rng), rand_step(rng)
        total = linear_combine_steps([1, 1], [s1, s2])
        for k in range(0, 33):
            t = F(k, 32)
            assert total.eval(t) == s1.eval(t) + s2.eval(t)


class TestKeyedRangeCheck:
    """The range check of the compositions reads the slots of g's values:
    a value off [0,1] by less than a float can tell is still refused, and
    values exactly on 0, 1 and the targets are kept."""

    f = PLFunction((0, F(1, 3), F(1, 2), 1), (3, -1, F(1, 2), 2))
    d = StepFunction.from_profile((0, F(1, 4), F(1, 2), 1), (1, 5, 2, 2), (4, 3, 6))

    @pytest.mark.parametrize("value", [1 + F(1, 10**20), F(-1, 10**400)])
    def test_escape_hidden_by_a_float_tie(self, value):
        assert value.numerator / value.denominator in (0.0, 1.0)
        for g in (PLFunction((0, F(1, 2), 1), (F(1, 2), value, F(1, 2))),
                  PLFunction((0, 1), (value, F(1, 3)))):
            # the identity as outer function takes the path that skips the refinement
            for f in (self.f, PLFunction.identity()):
                with pytest.raises(ValueError, match=r"inner function must map \[0,1\] into \[0,1\]"):
                    compose_pl(f, g)
            with pytest.raises(ValueError, match=r"inner function must map \[0,1\] into \[0,1\]"):
                compose_step_pl(self.d, g)

    def test_values_on_the_ends_and_every_target(self):
        targets = sorted({*self.f.breakpoints, *self.d.points})
        # up through every target, down through them again, then back to 1
        values = targets + targets[-2::-1] + [F(1)]
        g = PLFunction(tuple(F(k, len(values) - 1) for k in range(len(values))), tuple(values))
        assert set(targets) <= set(g.values)
        out = compose_pl(self.f, g), compose_step_pl(self.d, g)
        ref = ref_compose_pl(self.f, g), ref_compose_step_pl(self.d, g)
        assert out == ref
        assert [h.to_json() for h in out] == [h.to_json() for h in ref]
        with fraction_ordered_kernels():
            assert (compose_pl(self.f, g), compose_step_pl(self.d, g)) == out


class TestLostBends:
    """The kernels test for a vanished bend only where one can occur; each
    case here has points that only that test drops."""

    def test_compose_pl_drops_the_inner_points_where_f_is_flat(self):
        f = PLFunction((0, F(1, 4), F(3, 4), 1), (1, 0, 0, 1))
        # rises through 1/4, zigzags on f's flat cell, rises through 3/4
        g = PLFunction((0, F(1, 5), F(2, 5), F(3, 5), F(4, 5), 1),
                       (0, F(1, 2), F(1, 3), F(2, 3), F(1, 2), 1))
        out = compose_pl(f, g)
        pts, g_vals, *_ = ref_preimage_refinement(g, f.breakpoints)
        assert len(pts) == 8
        assert (out.breakpoints, out.values) == ref_pl_canonical(pts, [f.eval(y) for y in g_vals])
        assert out == ref_compose_pl(f, g) == PLFunction((0, F(1, 10), F(9, 10), 1), (1, 0, 0, 1))
        assert len(out.breakpoints) == 4

    def test_compose_step_pl_drops_the_inner_points_inside_a_cell(self):
        d = StepFunction.from_profile((0, F(1, 2), 1), (1, 2, 3), (1, 3))
        # g's points 1/3 and 2/3 map inside d's cell (0, 1/2)
        g = PLFunction((0, F(1, 3), F(2, 3), 1), (0, F(1, 4), F(1, 8), 1))
        out = compose_step_pl(d, g)
        assert len(ref_preimage_refinement(g, d.points)[0]) == 5
        assert out == ref_compose_step_pl(d, g) == StepFunction.from_profile(
            (0, F(17, 21), 1), (1, 2, 3), (1, 3))
        assert len(out.points) == 3

    def test_linear_combine_drops_the_points_of_a_cancelled_function(self):
        f = PLFunction((0, F(1, 3), F(2, 3), 1), (0, 1, -1, 2))
        h = PLFunction((0, F(1, 2), 1), (0, 1, 0))
        coeffs, fns = [F(3, 2), 1, F(-3, 2)], [f, h, f]
        out = linear_combine(coeffs, fns)
        assert len(merged_points(*fns)[0]) == 5
        assert out == ref_linear_combine(coeffs, fns) == h
        assert len(out.breakpoints) == 3

    def test_linear_combine_steps_drops_the_points_of_a_cancelled_function(self):
        s = StepFunction.from_profile((0, F(1, 4), F(1, 3), F(3, 4), 1), (1, 2, 0, 5, 1), (3, 4, 2, 0))
        t = StepFunction.from_profile((0, F(1, 2), 1), (0, 7, 1), (F(1, 3), 2))
        coeffs, steps = [F(5, 2), 3, F(-5, 2)], [s, t, s]
        out = linear_combine_steps(coeffs, steps)
        assert len(merged_points(*steps)[0]) == 6
        assert out == ref_add_steps([t] * 3) == StepFunction.from_profile(
            (0, F(1, 2), 1), (0, 21, 3), (1, 6))
        assert len(out.points) == len(t.points) == 3


# ---------------------------------------------------------------------------
# differential tests, one per kernel family
# ---------------------------------------------------------------------------
#
# Each family's check runs the kernels with ``eval`` and ``into_unit_interval``
# refused and compares them with the ``ref_*`` functions of ``helpers`` or,
# in ``REORDERED`` mode, with themselves on ``fraction_ordered_kernels()``.
# Its cases are the strategies it draws from, each with its example count
# and explicit examples, and sets of explicit examples of their own.

REF, REORDERED = "ref", "fraction-ordered"


class Case(NamedTuple):
    args: st.SearchStrategy | None  # draws the check's arguments, as a tuple
    max_examples: int
    mode: str = REF
    examples: tuple = ()  # argument tuples tried before any drawn one

    def run(self, check):
        if self.args is None:
            for args in self.examples:
                check(self.mode, *args)
            return

        # no example database: the cases of a family share one test function
        @settings(max_examples=self.max_examples, deadline=None, database=None)
        @given(self.args)
        def test(args):
            check(self.mode, *args)

        for args in self.examples:
            test = example(args)(test)
        test()


def examples_only(*examples):
    return Case(None, 0, examples=examples)


def _refuse(*args):
    raise AssertionError("a kernel reached what it must not")


@contextlib.contextmanager
def kernels_only():
    """Refuse per-point evaluation and range scans while the block runs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLFunction, "eval", _refuse)
        mp.setattr(StepFunction, "eval", _refuse)
        mp.setattr(PLFunction, "into_unit_interval", _refuse)
        yield


def public_values(h) -> list:
    """Every coordinate a caller reads of a function."""
    return [x for name in h._fields for x in getattr(h, name)]


def recanonicalized(h):
    """h's stored terms stored again through ``_store``, which scans every
    point for a lost bend: equal to h exactly when h is canonical."""
    out = object.__new__(type(h))
    out._store(*(vars(h)[name] for name in h._stored))
    return out


@st.composite
def flat_pl_functions(draw):
    """PL functions on three values, so often constant on a cell."""
    pts = draw(cut_points())
    vals = draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1)]),
                         min_size=len(pts), max_size=len(pts)))
    return PLFunction(tuple(pts), tuple(vals))


sweep_coefficients = st.one_of(st.just(0), st.integers(-3, 3), wide_fractions)
wide_pls = wide_pl_points().map(lambda p: PLFunction(tuple(p[0]), tuple(p[1])))
sweep_pl_functions = st.one_of(wide_pls, near_tie_pl_functions())
sweep_step_functions = st.one_of(wide_step_functions(), near_tie_step_functions())
wide_functions = st.one_of(wide_pls, step_functions())
near_tie_functions = st.one_of(near_tie_pl_functions(), near_tie_step_functions())
mixed_functions = st.one_of(near_tie_functions, wide_functions)
near_tie_weights = near_tie_step_functions(
    values=st.sampled_from([F(1), F(2), F(1, 2), F(1, 2) + F(1, 10**30)]))
positive_weights = st.one_of(near_tie_weights, wide_step_functions().map(
    lambda s: combine_steps([s], lambda v: abs(v) + F(1, 10**9))))
distance_pl_functions = st.one_of(sweep_pl_functions, near_tie_pl_functions())


def tie_free_functions():
    """A PL and a step function of about 200 points each whose interior
    points all have distinct floats, and functions made from them."""
    rng = random.Random(10)

    def points():
        cuts = {F(rng.randrange(1, 10**6), rng.randrange(10**6, 2 * 10**6)) for _ in range(198)}
        return [F(0), *sorted(cuts), F(1)]

    pts = points()
    pl = PLFunction(tuple(pts), tuple(F(rng.randrange(-50, 50), rng.randrange(1, 20)) for _ in pts))
    pts = points()
    step = StepFunction.from_profile(
        pts, [F(i % 3) for i in range(len(pts))], [F(i % 2) for i in range(len(pts) - 1)])
    merged = merged_points(pl, step)[0]
    assert len({t.numerator / t.denominator for t in merged}) == len(merged) > 390
    return SimpleNamespace(
        pl=pl, step=step, g=pl.scale(F(1, 3)).shift(F(1, 7)), coeffs=[F(1, 2), -3],
        # below every value of step, which never drops under 0
        below=linear_combine([F(1, 100), F(-1)], [pl, PLFunction.constant(1)]),
        weight=linear_combine_steps([1, 1], [step, StepFunction.constant(1)]))


BIG = tie_free_functions()
# two points that share a float, and a value with a large denominator
TIE_A, TIE_B, HUGE = F(1, 3), F(1, 3) + F(1, 10**30), F(10**40 + 1, 3 * 10**39)
TIED_PLS = [PLFunction((0, TIE_A, 1), (1, HUGE, -2)), PLFunction((0, TIE_B, 1), (F(1, 7), 0, 5)),
            PLFunction((0, TIE_A, TIE_B, 1), (0, 1, -1, 0))]
TIED_STEPS = [StepFunction.from_profile((0, TIE_A, 1), (1, HUGE, 2), (3, 4)),
              StepFunction.from_profile((0, TIE_B, 1), (0, 1, 0), (F(1, 10**30), 1))]
TIED_COEFFS = [F(3, 10**20 + 7), -2, HUGE]


def test_near_ties_share_floats():
    floats = [t.numerator / t.denominator for t in NEAR_TIES]
    assert len(set(floats)) < len(NEAR_TIES) - 10
    assert 0.0 in floats and 1.0 in floats
    assert float(TIE_A) == float(TIE_B)


def check_refinement(mode, fns):
    with kernels_only():
        merged, sampled = merged_points(*fns), refine(*fns)
    assert merged == ref_merged_points(*fns)
    assert all(type(t) is F for t in merged[0])
    assert refine_as_fractions(sampled) == ref_refine(*fns)


REFINEMENT_CASES = {
    "pl-or-step": Case(st.tuples(st.lists(st.one_of(pl_functions(), step_functions()),
                                          min_size=1, max_size=4)), 150),
    "pls-then-steps": Case(st.tuples(st.tuples(
        st.lists(pl_functions(), min_size=1, max_size=3),
        st.lists(step_functions(), min_size=1, max_size=3)).map(lambda p: p[0] + p[1])), 60),
    "wide-pl": Case(st.tuples(st.lists(wide_pls, min_size=1, max_size=3)), 60),
    "near-ties": Case(st.tuples(st.lists(near_tie_functions, min_size=1, max_size=4)), 200,
                      examples=((TIED_PLS,), (TIED_STEPS,), ([BIG.pl, BIG.step, BIG.pl],))),
}


@pytest.mark.parametrize("case", REFINEMENT_CASES)
def test_refinement(case):
    REFINEMENT_CASES[case].run(check_refinement)


INNER_ESCAPES = r"inner function must map \[0,1\] into \[0,1\]"
COMPOSE = {PLFunction: (compose_pl, ref_compose_pl),
           StepFunction: (compose_step_pl, ref_compose_step_pl)}


def check_compositions(mode, f, d, g):
    """The PL outer function f and the step outer function d, either of
    which may be None, and the identity, each composed with g and with the
    identity."""
    identity = PLFunction.identity()
    outers = [h for h in (f, identity, d) if h is not None]
    inners = [identity]
    if g.into_unit_interval():
        inners.append(g)
    else:
        # the reference finds the escape by Fraction min and max
        for outer in outers:
            for compose in COMPOSE[type(outer)]:
                with pytest.raises(ValueError, match=INNER_ESCAPES):
                    compose(outer, g)
    pairs = [(outer, inner) for inner in inners for outer in outers]
    with kernels_only():
        out = [COMPOSE[type(outer)][0](outer, inner) for outer, inner in pairs]
    ref = [COMPOSE[type(outer)][1](outer, inner) for outer, inner in pairs]
    assert out == ref
    assert [h.to_json() for h in out] == [h.to_json() for h in ref]
    assert all(type(x) is F for h in out for x in public_values(h))
    assert all(h == recanonicalized(h) for h in out)
    if mode == REORDERED:
        for targets in (f.breakpoints, d.points):
            pts, g_vals, at, cells, own = _preimage_refinement(g, as_pairs(targets))
            out = as_fractions(pts), as_fractions(g_vals), at, cells, own
            assert out == ref_preimage_refinement(g, targets)
        if g == identity:
            # both compositions return an operand and refine nothing
            assert compose_pl(f, g) is f and compose_step_pl(d, g) is d
        else:
            out = compose_pl(f, g), compose_step_pl(d, g)
            with fraction_ordered_kernels():
                assert (compose_pl(f, g), compose_step_pl(d, g)) == out


@st.composite
def outers_and_inner(draw, pls, steps, inners):
    """``(f, d, g)``: g drawn with the points of f and d as its targets."""
    f, d = draw(pls), draw(steps)
    targets = (() if f is None else f.breakpoints) + (() if d is None else d.points)
    return f, d, draw(inners(targets))


EDGE_PL = PLFunction((0, F(1, 2), 1), (3, -1, 2))
EDGE_STEP = StepFunction.from_profile((0, F(1, 2), 1), (1, 5, 2), (4, 3))
EDGE_INNERS = [PLFunction.identity(), PLFunction((0, 1), (1, 0)), PLFunction.constant(F(1, 2)),
               PLFunction.constant(0),
               PLFunction((0, F(1, 4), F(1, 2), F(3, 4), 1), (1, F(1, 2), F(1, 2), 0, 1))]
STORED = (PLFunction((0, F(1, 3), 1), (2, -1, 5)),
          StepFunction.from_profile((0, F(1, 2), 1), (1, 3, 2), (4, 2)),
          PLFunction((0, F(1, 4), F(1, 2), 1), (F(1, 5), 1, F(1, 3), F(2, 3))))

COMPOSITION_CASES = {
    "pl-outer": Case(outers_and_inner(pl_functions(), st.none(), inner_functions), 200),
    "step-outer": Case(outers_and_inner(st.none(), step_functions(), inner_functions), 200),
    "both-outers": Case(outers_and_inner(pl_functions(), step_functions(), inner_functions), 60),
    **{f"edge-inner-g{i}": examples_only((EDGE_PL, EDGE_STEP, g)) for i, g in enumerate(EDGE_INNERS)},
    "stored-fractions": examples_only(STORED),
    "near-ties": Case(outers_and_inner(near_tie_pl_functions(), near_tie_step_functions(),
                                       near_tie_inner_functions), 200, REORDERED,
                      examples=((TIED_PLS[0], TIED_STEPS[0], PLFunction.identity()),)),
    "any-inner": Case(st.tuples(sweep_pl_functions, sweep_step_functions, st.one_of(
        inner_functions(), near_tie_inner_functions(), sweep_pl_functions)), 150),
    # f flat where g bends, g bending inside a cell of d
    "lost-bends": Case(outers_and_inner(flat_pl_functions(), step_functions(), inner_functions), 150),
}


@pytest.mark.parametrize("case", COMPOSITION_CASES)
def test_compositions(case):
    COMPOSITION_CASES[case].run(check_compositions)


def check_sums(mode, terms):
    """``terms`` summed, against the reference and against each distinct
    function once with its coefficients summed; step sums also with every
    coefficient 1."""
    coeffs, fns = [c for c, _ in terms], [f for _, f in terms]
    steps = isinstance(fns[0], StepFunction)
    combine = linear_combine_steps if steps else linear_combine
    totals = {}
    for c, f in terms:
        totals[f] = totals.get(f, 0) + F(c)
    with kernels_only():
        out = combine(coeffs, fns)
        grouped = combine(list(totals.values()), list(totals))
        added = combine([1] * len(fns), fns) if steps else None
    if steps:
        ref = combine_steps(fns, lambda *vs: sum((F(c) * v for c, v in zip(coeffs, vs)), F(0)))
        assert added == ref_add_steps(fns)
    else:
        ref = ref_linear_combine(coeffs, fns)
    assert out == ref == grouped
    assert out.to_json() == ref.to_json()
    assert out == recanonicalized(out) and grouped == recanonicalized(grouped)
    assert all(type(x) is F for x in public_values(out))


@st.composite
def cancelling_terms(draw, fns):
    """Each drawn function twice, with opposite coefficients, in a drawn order: they sum to 0."""
    fs = draw(st.lists(fns, min_size=1, max_size=8))
    coeffs = draw(st.lists(sweep_coefficients, min_size=len(fs), max_size=len(fs)))
    return draw(st.permutations([*zip(coeffs, fs), *((-F(c), f) for c, f in zip(coeffs, fs))]))


@st.composite
def repeated_terms(draw, fns):
    """k copies of one function, each with its own coefficient."""
    f, k = draw(fns), draw(st.integers(1, 16))
    return [(c, f) for c in draw(st.lists(sweep_coefficients, min_size=k, max_size=k))]


def terms_of(functions, coefficients=sweep_coefficients, max_size=16):
    return st.lists(st.tuples(coefficients, functions), min_size=1, max_size=max_size)


either_kind = st.sampled_from([sweep_pl_functions, sweep_step_functions])
SUM_CASES = {
    "steps": Case(st.tuples(terms_of(step_functions(), st.one_of(
        st.integers(-3, 3), st.fractions(-3, 3, max_denominator=7)), max_size=4)), 150,
        examples=(([(-2, StepFunction.from_profile((0, F(1, 3), 1), (F(1, 2), F(-3, 4), 2),
                                                   (F(5, 4), 0))),
                    (0, StepFunction.constant(F(7, 3))),
                    (F(3, 4), StepFunction.from_profile((0, F(1, 2), 1), (0, F(1, 3), 1),
                                                        (F(-1, 2), 3)))],),)),
    "pl-sweep": Case(st.tuples(terms_of(sweep_pl_functions)), 80, examples=(
        ([(1, STORED[0]), (F(1, 2), STORED[2])],),
        (list(zip(BIG.coeffs, [BIG.pl, BIG.below])),),
        ([(F(1, 2), BIG.pl), (-3, BIG.pl.scale(F(1, 3)))],))),
    "step-sweep": Case(st.tuples(terms_of(sweep_step_functions)), 80, examples=(
        ([(2, BIG.step), (F(-1, 5), BIG.step.scale(3))],),)),
    "shared-floats": examples_only(*((list(zip(TIED_COEFFS, fns)),) for fns in (TIED_PLS, TIED_STEPS))),
    "cancelling": Case(st.tuples(either_kind.flatmap(cancelling_terms)), 60),
    "repeated": Case(st.tuples(either_kind.flatmap(repeated_terms)), 60),
    "wide-pl": Case(st.tuples(st.lists(wide_pls, min_size=1, max_size=3).map(
        lambda fns: [(F(k - 2, k + 1), f) for k, f in enumerate(fns)])), 60),
    # c f + k h - c f: f's points that are not h's are no bends
    "lost-bends": Case(st.tuples(st.tuples(
        sweep_coefficients, sweep_pl_functions, sweep_pl_functions, st.integers(-2, 2)).map(
            lambda a: [(a[0], a[1]), (a[3], a[2]), (-F(a[0]), a[1])])), 80),
    # c s + k t - c s: s's points that are not t's change nothing
    "lost-step-points": Case(st.tuples(st.tuples(
        sweep_coefficients, sweep_step_functions, sweep_step_functions, st.integers(-2, 2)).map(
            lambda a: [(a[0], a[1]), (a[3], a[2]), (-F(a[0]), a[1])])), 80),
}


@pytest.mark.parametrize("case", SUM_CASES)
def test_sums(case):
    SUM_CASES[case].run(check_sums)


def check_le_pointwise(mode, f, g, strict):
    pairs = (f, g), (g, f), (f, f)
    with kernels_only():
        out = [le_pointwise(a, b, strict) for a, b in pairs]
    for (a, b), res in zip(pairs, out):
        if not res:
            # the witness violates the order
            lhs, rhs = a.eval(res.witness), b.eval(res.witness)
            assert lhs > rhs or (strict and lhs == rhs)
    if mode == REORDERED:
        with fraction_ordered_kernels():
            assert [le_pointwise(a, b, strict) for a, b in pairs] == out
    else:
        assert [ref_le_pointwise(a, b, strict) for a, b in pairs] == out


LE_CASES = {
    "wide": Case(st.tuples(wide_functions, wide_functions, st.booleans()), 120),
    "near-ties": Case(st.tuples(near_tie_functions, near_tie_functions, st.booleans()), 150,
                      REORDERED),
    # below never exceeds the big step function, which fails below it at t = 0
    "mixed": Case(st.tuples(mixed_functions, mixed_functions, st.booleans()), 200,
                  examples=((BIG.below, BIG.step, False), (BIG.below, BIG.step, True))),
    # the step function rises above the PL one only inside the cell (1/2, 1), away from 0
    "pl-step": Case(st.tuples(pl_functions(), step_functions(), st.booleans()), 60, examples=tuple(
        (PLFunction((0, 1), (0, F(3, 2))), StepFunction.from_profile((0, F(1, 2), 1), (-1, 0, 0), (0, 1)),
         strict) for strict in (False, True))),
}


@pytest.mark.parametrize("case", LE_CASES)
def test_le_pointwise(case):
    LE_CASES[case].run(check_le_pointwise)


def _extremum_fields(e):
    assert type(e.value) is F and type(e.at) is F
    return e.value, e.at, e.side


def check_extrema(mode, upper, lower, f, w, terms):
    """``inf_difference`` of upper and lower both ways and of upper with
    itself; ``weighted_sup_norm`` of f and -f over w; ``_weighted_sup_of_sum``
    of ``terms`` over w, also with each term cancelled and with none, and
    ``sup_distance`` of their first and last functions both ways and of the
    first with itself.  A check whose arguments are None is skipped."""
    if upper is not None:
        pairs = (upper, lower), (lower, upper), (upper, upper)
        with kernels_only():
            out = [_extremum_fields(inf_difference(u, l)) for u, l in pairs]
        assert out == [_extremum_fields(ref_inf_difference(u, l)) for u, l in pairs]
        if mode == REORDERED:
            with fraction_ordered_kernels():
                assert [_extremum_fields(inf_difference(u, l)) for u, l in pairs] == out
    if f is not None:
        with kernels_only():
            out = [_extremum_fields(weighted_sup_norm(h, w)) for h in (f, -f)]
        assert out == [_extremum_fields(ref_weighted_sup_norm(f, w))] * 2
    if terms is not None:
        coeffs, fns = [c for c, _ in terms], [h for _, h in terms]
        first, last = fns[0], fns[-1]
        with kernels_only():
            out = (_weighted_sup_of_sum(coeffs, fns, w),
                   sup_distance(first, last), sup_distance(last, first), sup_distance(first, first))
            cancelled = (_weighted_sup_of_sum([*coeffs, *(-F(c) for c in coeffs)], fns + fns, w),
                         _weighted_sup_of_sum([], [], w))
        # the values of the norms of the functions they do not build
        distance = weighted_sup_norm(first - last, StepFunction.constant(1)).value
        assert out == (weighted_sup_norm(linear_combine(coeffs, fns), w).value,
                       distance, distance, 0)
        assert all(type(x) is F for x in out)
        assert cancelled == (0, 0)


def distance_args(f, g):
    """The arguments that make ``check_extrema`` compare f and g."""
    return None, None, None, StepFunction.constant(1), [(1, f), (-1, g)]


# |h| / w peaks on the point 1/2 when w is light there, else as the
# limit at 1/4 from the light cell before it; each sum below is h
PEAK = PLFunction((0, F(1, 4), F(1, 2), 1), (0, 2, 3, 0))
PEAK_SUMS = ([(1, PEAK)], [(F(1, 2), PEAK), (F(1, 2), PEAK)], [(3, PEAK), (2, -PEAK)])
PEAK_WEIGHTS = {name: StepFunction.from_profile((0, F(1, 4), F(1, 2), 1), (9, 5, at_half, 9), (1, 6, 4))
                for name, at_half in (("peak-on-the-point", 1), ("peak-as-a-limit", 4))}

EXTREMA_CASES = {
    "near-ties": Case(st.tuples(near_tie_functions, near_tie_functions, near_tie_pl_functions(),
                                near_tie_weights, st.none()), 200, REORDERED, examples=(
        # |f| has equal limits on a cell where f is not constant
        (PLFunction.identity(), PLFunction.identity(), PLFunction((0, 1), (-1, 1)),
         StepFunction.from_profile((0, 1), (2, 2), (1,)), None),)),
    "mixed": Case(st.tuples(mixed_functions, mixed_functions, st.one_of(
        near_tie_pl_functions(), wide_pls), positive_weights, st.none()), 200,
        examples=((BIG.step, BIG.below, BIG.pl, BIG.weight, None),)),
    "pls-and-steps": Case(st.tuples(
        st.lists(pl_functions(), min_size=1, max_size=3),
        st.lists(step_functions(), min_size=1, max_size=3), step_functions(lo=F(1, 4), hi=3)).map(
            lambda a: (a[0][-1], a[1][0], a[0][0], a[2], None)), 60),
    "distance": Case(st.tuples(distance_pl_functions, distance_pl_functions).map(
        lambda fg: distance_args(*fg)), 200, examples=(
            distance_args(PLFunction.identity(), PLFunction.identity()),
            # equal ends, a sign change
            distance_args(PLFunction((0, 1), (-1, 1)), PLFunction.constant(0)))),
    "weighted-sum": Case(st.tuples(st.none(), st.none(), st.none(), positive_weights,
                                   terms_of(distance_pl_functions, max_size=8)), 150, examples=(
        (None, None, None, combine_steps([BIG.step], lambda v: v + 1), [(2, BIG.pl), (-1, BIG.g)]),)),
    **{name: examples_only(*((None, None, None, w, terms) for terms in PEAK_SUMS))
       for name, w in PEAK_WEIGHTS.items()},
}


@pytest.mark.parametrize("case", EXTREMA_CASES)
def test_extrema(case):
    EXTREMA_CASES[case].run(check_extrema)


def counting(*names):
    """A guard that counts the calls of Fraction's methods ``names``."""
    def guard(mp):
        calls = []
        for name in names:
            def counted(*args, orig=getattr(F, name), **kwargs):
                calls.append(orig)
                return orig(*args, **kwargs)
            mp.setattr(F, name, staticmethod(counted) if name == "__new__" else counted)
        # each counter sees what it counts
        a, b = F(1, 2), F(1, 3)
        assert a != b and a > b and a >= b and not a < b and not a <= b
        assert {c.__name__ for c in calls} == set(names)
        calls.clear()
        return calls
    return guard


def refusing(*targets):
    """A guard that refuses each ``(owner, name)``."""
    def guard(mp):
        for owner, name in targets:
            mp.setattr(owner, name, _refuse)
    return guard


# name: (guard, the kernels on the tie-free functions, the counted calls they may make)
PINS = {
    "merged_points makes no Fraction order comparison": (
        counting("__lt__", "__gt__", "__le__", "__ge__"),
        lambda b: merged_points(b.pl, b.step, b.pl), 0),
    "refine makes no Fraction comparison": (
        counting("__eq__", "_richcmp"), lambda b: refine(b.pl, b.step), 0),
    "refine, sums and a holding le_pointwise build no Fraction": (
        counting("__new__"), lambda b: (
            refine(b.pl, b.step), linear_combine(b.coeffs, [b.pl, b.below]),
            le_pointwise(b.below, b.step), le_pointwise(b.below, b.step, strict=True)), 0),
    "a failing le_pointwise builds its witness": (
        counting("__new__"), lambda b: le_pointwise(b.step, b.below), 1),
    "an extremum builds its value and point": (
        counting("__new__"),
        lambda b: (weighted_sup_norm(b.pl, b.weight), inf_difference(b.step, b.below)), 4),
    "sums sample no function per point": (
        refusing((pwcalc, "refine"), (pwcalc, "_walk_pl"), (pwcalc, "_walk_step")),
        lambda b: (linear_combine(b.coeffs, [b.pl, b.g]), linear_combine_steps(b.coeffs, [
            b.step, b.weight])), 0),
    "sups build no function": (
        refusing((pwcalc, "linear_combine"), (pwcalc, "weighted_sup_norm"),
                 (PLFunction, "_store"), (PLFunction, "_from_canonical")),
        lambda b: (sup_distance(b.pl, b.g), _weighted_sup_of_sum([2, -1], [b.pl, b.g], b.weight)),
        0),
    "combine_steps evaluates no function per point": (
        refusing((PLFunction, "eval"), (StepFunction, "eval")),
        lambda b: combine_steps([b.step, b.weight], lambda *vs: max(vs)), 0),
}


@pytest.mark.parametrize("name", PINS)
def test_structural_pins(name, monkeypatch):
    guard, run, allowed = PINS[name]
    expected = run(BIG)
    calls = guard(monkeypatch)
    out = run(BIG)
    assert calls is None or len(calls) == allowed
    monkeypatch.undo()
    assert out == expected
