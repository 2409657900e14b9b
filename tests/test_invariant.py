"""Invariant-range models: trace-norm maps, range membership, AI criterion."""

import functools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctrace import invariant
from ctrace.invariant import (
    INF,
    AiVerdict,
    GroupKind,
    GroupModel,
    PointClass,
    SimplexModel,
    TraceNormMap,
    ai_criterion,
    classify_point,
    dimension_range_membership,
    ext,
    lsc_decompose,
    trace_norm_eval,
)

from helpers import enumeration_sup

seeds = st.integers(0, 10**9)


def q_group(rates=(1,)):
    return GroupModel(GroupKind.DENSE_RATIONALS, tuple(F(r) for r in rates))


def z_group(rates=(1,), q=1):
    return GroupModel(GroupKind.SCALED_INTEGERS, tuple(F(r) for r in rates), F(q))


class TestTraceNormEval:
    def test_vertex_points(self):
        f = TraceNormMap((F(1), F(3)))
        assert trace_norm_eval(f, (1, 0)) == 1
        assert trace_norm_eval(f, (0, 1)) == 3

    def test_infinity_absorbs(self):
        f = TraceNormMap((F(1), "inf"))
        assert trace_norm_eval(f, (F(1, 2), F(1, 2))) == INF
        assert trace_norm_eval(f, (1, 0)) == 1

    def test_affine_average(self):
        f = TraceNormMap((F(1), F(3)))
        assert trace_norm_eval(f, (F(1, 2), F(1, 2))) == 2

    def test_rejects_bad_coordinates(self):
        f = TraceNormMap((F(1), F(3)))
        with pytest.raises(ValueError):
            trace_norm_eval(f, (F(1, 2), F(1, 4)))
        with pytest.raises(ValueError):
            trace_norm_eval(f, (F(3, 2), F(-1, 2)))

    def test_rejects_nonpositive_vertex_values(self):
        with pytest.raises(ValueError):
            TraceNormMap((F(0), F(1)))


class TestDimensionRangeMembership:
    def test_integer_threshold(self):
        f = TraceNormMap((F(5, 2),))
        g = z_group()
        assert dimension_range_membership(g, f, 2)
        assert not dimension_range_membership(g, f, 3)

    def test_zero_is_always_a_member(self):
        assert dimension_range_membership(z_group(), TraceNormMap((F(1, 8),)), 0)

    def test_infinite_values_dominate(self):
        f = TraceNormMap(("inf",))
        assert dimension_range_membership(q_group(), f, F(10**6))

    def test_not_in_group_is_an_error(self):
        with pytest.raises(ValueError):
            dimension_range_membership(z_group(), TraceNormMap((F(5, 2),)), F(1, 2))

    def test_positivity_filter_is_optional(self):
        f = TraceNormMap((F(5, 2),))
        assert not dimension_range_membership(z_group(), f, -1)
        assert dimension_range_membership(z_group(), f, -1, require_positive=False)

    def test_monotone_in_f(self):
        rng = random.Random(9)
        for _ in range(50):
            k = rng.randint(1, 3)
            rates = tuple(F(rng.randint(1, 4)) for _ in range(k))
            vals = tuple(F(rng.randint(1, 9), rng.choice([1, 2, 4])) for _ in range(k))
            group = z_group(rates) if rng.random() < 0.5 else q_group(rates)
            f_small = TraceNormMap(vals)
            f_big = TraceNormMap(tuple(v + rng.randint(0, 3) for v in vals))
            x = F(rng.randint(0, 5))
            if dimension_range_membership(group, f_small, x):
                assert dimension_range_membership(group, f_big, x)


class TestAiCriterion:
    def test_dense_rationals_attain_the_bound(self):
        rep = ai_criterion(q_group(), SimplexModel(1), TraceNormMap((F(5, 2),)))
        assert rep.verdict is AiVerdict.AI
        assert rep.per_vertex[0].sup == F(5, 2)

    def test_integers_fall_short(self):
        rep = ai_criterion(z_group(), SimplexModel(1), TraceNormMap((F(5, 2),)))
        assert rep.verdict is AiVerdict.NOT_AI
        assert rep.per_vertex[0].sup == 2

    def test_integer_boundary_value(self):
        rep = ai_criterion(z_group(), SimplexModel(1), TraceNormMap((F(2),)))
        assert rep.verdict is AiVerdict.NOT_AI
        assert rep.per_vertex[0].sup == 1
        rep_q = ai_criterion(q_group(), SimplexModel(1), TraceNormMap((F(2),)))
        assert rep_q.verdict is AiVerdict.AI

    def test_all_infinite_is_ai(self):
        rep = ai_criterion(q_group((1, 2)), SimplexModel(2), TraceNormMap(("inf", "inf")))
        assert rep.verdict is AiVerdict.AI

    def test_mixed_infinite_vertex_not_ai(self):
        rep = ai_criterion(q_group((1, 1)), SimplexModel(2), TraceNormMap((F(1), "inf")))
        assert rep.verdict is AiVerdict.NOT_AI

    def test_missing_order_unit_is_not_decidable(self):
        broken = GroupModel(GroupKind.DENSE_RATIONALS, (F(1), F(0)))
        rep = ai_criterion(broken, SimplexModel(2), TraceNormMap((F(1), F(1))))
        assert rep.verdict is AiVerdict.NOT_DECIDABLE

    def test_matches_enumeration(self):
        cases = [
            (q_group(), TraceNormMap((F(5, 2),))),
            (z_group(), TraceNormMap((F(5, 2),))),
            (z_group(), TraceNormMap((F(2),))),
            (q_group(), TraceNormMap((F(2),))),
            (z_group((2,), q=F(1, 2)), TraceNormMap((F(7, 3),))),
            (q_group((1, 2)), TraceNormMap((F(1), F(2)))),
            (z_group((1, 2)), TraceNormMap((F(3), F(5)))),
        ]
        for group, f in cases:
            rep = ai_criterion(group, SimplexModel(group.k), f)
            for j, check in enumerate(rep.per_vertex):
                enum = enumeration_sup(group, f, j)
                if group.kind is GroupKind.SCALED_INTEGERS:
                    assert check.sup == enum
                else:
                    # the scan resolves the bound within 1/max_den per unit rate
                    slack = group.rates[j] * F(1, 10**4)
                    assert enum <= check.sup <= enum + slack

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_dense_rationals_single_state_always_ai(self, seed):
        rng = random.Random(seed)
        f = TraceNormMap((F(rng.randint(1, 40), rng.randint(1, 8)),))
        rep = ai_criterion(q_group((F(rng.randint(1, 5)),)), SimplexModel(1), f)
        assert rep.verdict is AiVerdict.AI

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_dense_rationals_aligned_states_always_ai(self, seed):
        # vertex values proportional to the state rates: the bound binds
        # at every vertex simultaneously
        rng = random.Random(seed)
        k = rng.randint(1, 4)
        rates = tuple(F(rng.randint(1, 5)) for _ in range(k))
        scale = F(rng.randint(1, 9), rng.choice([1, 2, 3]))
        f = TraceNormMap(tuple(scale * r for r in rates))
        rep = ai_criterion(q_group(rates), SimplexModel(k), f)
        assert rep.verdict is AiVerdict.AI


class TestLscDecompose:
    def test_single_cap_covering_everything(self):
        f = TraceNormMap((F(1), F(2)))
        parts = lsc_decompose(f, [1])
        assert parts == [(F(1), F(1))]
        parts = lsc_decompose(f, [1, 2, 3])
        assert parts[0] == (F(1), F(1))
        assert parts[1] == (F(0), F(1))
        assert parts[2] == (F(0), F(0))

    def test_unbounded_vertex_keeps_growing(self):
        f = TraceNormMap((F(1), "inf"))
        parts = lsc_decompose(f, [1, 2, 3])
        assert parts == [(F(1), F(1)), (F(0), F(1)), (F(0), F(1))]
        # partial sums: vertex 1 pinned at 1, vertex 2 reaches the cap
        totals = [sum(p[i] for p in parts) for i in range(2)]
        assert totals == [F(1), F(3)]

    def test_partial_sums_and_monotonicity(self):
        rng = random.Random(4)
        for _ in range(40):
            k = rng.randint(1, 4)
            vals = tuple(
                "inf" if rng.random() < 0.3 else F(rng.randint(1, 12), rng.choice([1, 2, 4]))
                for _ in range(k)
            )
            f = TraceNormMap(vals)
            mn = f.min_finite()
            start = mn if mn is not None else F(1)
            caps = [start]
            for _ in range(rng.randint(0, 4)):
                caps.append(caps[-1] + F(rng.randint(1, 5), rng.choice([1, 2])))
            parts = lsc_decompose(f, caps)
            prev = [F(0)] * k
            for c, part in zip(caps, parts):
                assert all(g >= 0 for g in part)
                cur = [a + b for a, b in zip(prev, part)]
                expected = [
                    v if (v != INF and v <= c) else c for v in f.vertex_values
                ]
                assert cur == expected
                assert all(a >= b for a, b in zip(cur, prev))
                prev = cur

    def test_rejects_bad_caps(self):
        f = TraceNormMap((F(2),))
        with pytest.raises(ValueError):
            lsc_decompose(f, [])
        with pytest.raises(ValueError):
            lsc_decompose(f, [1, 1])
        with pytest.raises(ValueError):
            lsc_decompose(f, [3])  # exceeds the smallest finite vertex value


class TestClassifyPoint:
    def test_rational_diagonal_over_q(self):
        assert classify_point((F(1), F(1)), q_group((1, 1))) is PointClass.AI_DIAGONAL

    def test_off_diagonal(self):
        assert classify_point((F(1), F(2)), q_group((1, 1))) is PointClass.OFF_DIAGONAL

    def test_unbounded_boundary(self):
        assert classify_point((F(1), "inf"), q_group((1, 1))) is PointClass.UNBOUNDED_BOUNDARY
        assert classify_point(("inf", "inf"), q_group((1, 1))) is PointClass.UNBOUNDED_BOUNDARY

    def test_discrete_diagonal_is_not_ai(self):
        assert classify_point((F(1), F(1)), z_group((1, 1))) is PointClass.OFF_DIAGONAL

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(ValueError):
            classify_point((F(0), F(1)), q_group((1, 1)))


class TestJson:
    def test_group_round_trip(self):
        g = z_group((1, 2), q=F(1, 3))
        assert GroupModel.from_json(g.to_json()) == g

    def test_group_accepts_flat_pairing(self):
        g = GroupModel.from_json({"kind": "Q", "pairing": [[1, 1], [2, 1]]})
        assert g.rates == (F(1), F(2))

    def test_trace_norm_round_trip(self):
        f = TraceNormMap((F(5, 2), "inf"))
        assert TraceNormMap.from_json(f.to_json()) == f

    def test_json_reads_only_the_inf_token_as_infinite(self):
        assert TraceNormMap.from_json(["inf", [1, 2]]).vertex_values == (INF, F(1, 2))
        # JSON reads 1e400 as a float infinity
        with pytest.raises(TypeError, match="f must hold rationals or 'inf', not the float inf"):
            TraceNormMap.from_json([math.inf])
        # the library still takes a float infinity
        assert ext(math.inf) == INF
        assert TraceNormMap((math.inf, 2)).vertex_values == (INF, F(2))

    def test_json_arrays_must_be_arrays(self):
        with pytest.raises(TypeError, match="f must be a JSON array, not string"):
            TraceNormMap.from_json("12")
        with pytest.raises(TypeError, match="pairing must be a JSON array, not string"):
            GroupModel.from_json({"kind": "Q", "pairing": "12"})

    def test_from_json_coerces_each_value_once(self, monkeypatch):
        calls = Counter()
        for name in ("ext", "frac"):
            real = getattr(invariant, name)
            monkeypatch.setattr(invariant, name, functools.partial(_counted, calls, name, real))
        TraceNormMap.from_json([[5, 2], "inf", "3"])
        assert calls == {"ext": 3, "frac": 2}
        calls.clear()
        GroupModel.from_json({"kind": "qZ", "q": [1, 2], "pairing": [[[1, 1]], [3, 2]]})
        assert calls == {"frac": 3}


def _counted(calls, name, real, x):
    calls[name] += 1
    return real(x)
