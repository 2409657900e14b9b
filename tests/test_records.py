"""Result records: a record's JSON is its fields, by name.

Each record's ``to_json`` is compared with the form the CLI handlers and
the records' own methods used to write out key by key (the ``ref_*_json``
functions in ``helpers``), byte for byte, on records built directly and
on records the library computes.  The field names are pinned, since they
are the JSON keys that reach stdout.
"""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ctrace.blocks import NestedPresentation, SpecialCheck, nested_from_dim, validate_special
from ctrace.existence import (
    CertificateCheck,
    CheckItem,
    CounterexampleReport,
    EigenFact,
    ElementFact,
    PerturbationCertificate,
    reproduce_counterexample,
)
from ctrace.invariant import (
    AiReport,
    AiVerdict,
    GroupModel,
    MembershipResult,
    SimplexModel,
    TraceNormMap,
    VertexCheck,
    ai_criterion,
)
from ctrace.patterns import (
    ChainReport,
    DensityResult,
    EigenPattern,
    GapReport,
    UniquenessReport,
    compute_gap,
    density_check,
)
from ctrace.pwcalc import (
    ABOVE,
    AT,
    BELOW,
    Extremum,
    Interval,
    LeResult,
    Record,
    field_names,
    inf_difference,
    json_form,
    le_pointwise,
    weighted_sup_norm,
)

from helpers import (
    density_cases,
    dimension_functions,
    lsc_step_functions,
    open_set_chains,
    pl_functions,
    ref_ai_report_json,
    ref_certificate_check_json,
    ref_certificate_json,
    ref_chain_json,
    ref_check_item_json,
    ref_counterexample_json,
    ref_density_json,
    ref_eigen_fact_json,
    ref_element_fact_json,
    ref_extremum_json,
    ref_gap_json,
    ref_interval_json,
    ref_le_result_json,
    ref_membership_json,
    ref_nested_json,
    ref_pattern_json,
    ref_simplex_json,
    ref_special_check_json,
    ref_uniqueness_json,
    ref_vertex_check_json,
    repeated_patterns,
    step_functions,
    wide_fractions,
)

FIELDS = {
    LeResult: ("holds", "witness"),
    Extremum: ("value", "at", "side"),
    Interval: ("lo", "hi", "lo_closed", "hi_closed"),
    SpecialCheck: ("valid", "reason", "witness"),
    NestedPresentation: ("n", "opens"),
    EigenPattern: ("eigenfunctions",),
    DensityResult: ("holds", "witness_t", "witness_bin"),
    UniquenessReport: ("holds", "density_ok", "failing_ramp", "lhs_norm", "rhs_bound"),
    GapReport: ("gap", "at", "attained"),
    ChainReport: ("verified", "margin", "margin_at", "reason", "witness", "stage_gaps"),
    EigenFact: ("sup_distance",),
    ElementFact: ("deviation", "bound"),
    CheckItem: ("name", "ok", "detail"),
    CertificateCheck: ("ok", "items"),
    SimplexModel: ("k",),
    MembershipResult: ("member", "failing_vertex"),
    VertexCheck: ("f", "sup", "equal"),
    AiReport: ("verdict", "per_vertex", "reason"),
    PerturbationCertificate: ("kind", "d_A", "f_prime", "d_B", "original", "perturbed", "delta",
                              "eps", "w_dom", "w_cod", "test_elements", "eigen_facts", "pushed",
                              "element_facts"),
    CounterexampleReport: ("kind", "delta", "eps0", "multiplicity", "d_B_value", "hypothesis_ok",
                           "infeasible_ok", "witness", "pushed_at_witness", "d_A", "f"),
}


def _all_subclasses(cls) -> set:
    return {sub for direct in cls.__subclasses__() for sub in {direct, *_all_subclasses(direct)}}


def test_every_record_is_pinned():
    # a class that keeps its own JSON form (StepFunction, PLFunction,
    # GroupModel, the unitary reports, ...) is not a record
    assert _all_subclasses(Record) == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_field_names_are_the_json_keys(cls):
    assert field_names(cls) == FIELDS[cls]


# --- strategies: records built directly, and records the library computes --

fracs = wide_fractions
opt_fracs = st.none() | fracs
opt_ints = st.none() | st.integers(0, 10**20)
texts = st.none() | st.text(max_size=8)


@st.composite
def intervals(draw):
    lo, hi = sorted(draw(st.lists(fracs, min_size=2, max_size=2)))
    if lo == hi:
        return Interval(lo, hi)
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


def open_set_intervals():
    return open_set_chains().filter(lambda sets: any(sets)).flatmap(
        lambda sets: st.sampled_from([iv for s in sets for iv in s]))


@st.composite
def computed_le(draw):
    f = draw(pl_functions() | step_functions())
    g = draw(pl_functions() | step_functions())
    return le_pointwise(f, g, strict=draw(st.booleans()))


@st.composite
def computed_extrema(draw):
    if draw(st.booleans()):
        return inf_difference(draw(step_functions()), draw(pl_functions() | step_functions()))
    return weighted_sup_norm(draw(pl_functions()), draw(step_functions(lo=1, hi=3)))


@st.composite
def computed_gaps(draw):
    return compute_gap(draw(repeated_patterns()), draw(dimension_functions()),
                       draw(dimension_functions()))


gaps = st.builds(GapReport, fracs, fracs, st.booleans()) | computed_gaps()
items = st.builds(CheckItem, st.text(max_size=8), st.booleans(), st.text(max_size=8))


def tuples(elements, n):
    return st.lists(elements, max_size=n).map(tuple)


certificates = st.builds(
    PerturbationCertificate, step_functions(), pl_functions(), step_functions(),
    repeated_patterns(), repeated_patterns(), fracs, fracs, step_functions(), step_functions(),
    tuples(pl_functions(), 2), tuples(st.builds(EigenFact, fracs), 3), step_functions(),
    tuples(st.builds(ElementFact, fracs, fracs), 2))
counterexamples = st.builds(
    CounterexampleReport, fracs, fracs, st.integers(1, 10**6), fracs, st.booleans(),
    st.booleans(), fracs, fracs, step_functions(), pl_functions(),
) | st.builds(
    reproduce_counterexample,
    st.fractions(0, 1, max_denominator=1000).filter(lambda x: 0 < x < 1),
    st.fractions(0, F(1, 4), max_denominator=1000).filter(lambda x: 0 < x < F(1, 4)))

exts = fracs | st.just(math.inf)
vertex_checks = st.builds(VertexCheck, exts, st.none() | exts, st.booleans())


@st.composite
def computed_ai_reports(draw):
    """ai_criterion on small models: a rate of 0 or less is undecidable, one
    vertex over Q is AI, and more vertices are mostly NOT_AI."""
    k = draw(st.integers(1, 3))
    small = st.fractions(0, 5, max_denominator=6)
    rates = draw(st.lists(small | st.just(F(-1)), min_size=k, max_size=k))
    q = draw(small.filter(lambda x: x > 0))
    values = draw(st.lists(small.filter(lambda x: x > 0) | st.just("inf"), min_size=k, max_size=k))
    group = GroupModel(draw(st.sampled_from(["Q", "qZ"])), rates, q)
    return ai_criterion(group, SimplexModel(k), TraceNormMap(values))


CASES = {
    "LeResult": (ref_le_result_json,
                 st.builds(LeResult, st.booleans(), opt_fracs) | computed_le()),
    "Extremum": (ref_extremum_json, st.builds(
        Extremum, fracs, fracs, st.sampled_from([AT, ABOVE, BELOW])) | computed_extrema()),
    "Interval": (ref_interval_json, intervals() | open_set_intervals()),
    "SpecialCheck": (ref_special_check_json,
                     st.builds(SpecialCheck, st.booleans(), texts, opt_fracs)
                     | (lsc_step_functions() | step_functions()).map(validate_special)),
    "NestedPresentation": (ref_nested_json, dimension_functions().map(nested_from_dim)),
    "EigenPattern": (ref_pattern_json, repeated_patterns()),
    "DensityResult": (ref_density_json,
                      st.builds(DensityResult, st.booleans(), opt_fracs, opt_ints)
                      | density_cases().map(lambda case: density_check(*case))),
    "UniquenessReport": (ref_uniqueness_json, st.builds(
        UniquenessReport, st.booleans(), st.booleans(), opt_ints, opt_fracs, opt_fracs)),
    "GapReport": (ref_gap_json, gaps),
    "ChainReport": (ref_chain_json, st.builds(
        ChainReport, st.booleans(), opt_fracs, opt_fracs, texts, opt_fracs,
        st.lists(gaps, max_size=3).map(tuple))),
    "EigenFact": (ref_eigen_fact_json, st.builds(EigenFact, fracs)),
    "ElementFact": (ref_element_fact_json, st.builds(ElementFact, fracs, fracs)),
    "CheckItem": (ref_check_item_json, items),
    "CertificateCheck": (ref_certificate_check_json, st.builds(
        CertificateCheck, st.booleans(), st.lists(items, max_size=5).map(tuple))),
    "SimplexModel": (ref_simplex_json, st.builds(SimplexModel, st.integers(1, 10**30))),
    "MembershipResult": (ref_membership_json, st.builds(
        MembershipResult, st.booleans(), st.none() | st.integers(0, 50))),
    "PerturbationCertificate": (ref_certificate_json, certificates),
    "CounterexampleReport": (ref_counterexample_json, counterexamples),
    "VertexCheck": (ref_vertex_check_json, vertex_checks),
    "AiReport": (ref_ai_report_json, st.builds(
        AiReport, st.sampled_from(AiVerdict), st.lists(vertex_checks, max_size=3).map(tuple),
        texts) | computed_ai_reports()),
}


def test_every_record_has_a_reference():
    assert set(CASES) == {cls.__name__ for cls in FIELDS}


def _text(blob) -> str:
    return json.dumps(blob, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_to_json_matches_the_hand_written_form(name, data):
    ref, records = CASES[name]
    rec = data.draw(records, label=name)
    assert _text(rec.to_json()) == _text(ref(rec))


def test_nested_tuples_and_records_become_arrays():
    gap = GapReport(F(-1), F(1, 2), False)
    rep = ChainReport(False, reason="r", witness=F(1, 2), stage_gaps=(gap, gap))
    assert rep.to_json() == {
        "verified": False, "margin": None, "margin_at": None, "reason": "r",
        "witness": [1, 2],
        "stage_gaps": [{"gap": [-1, 1], "at": [1, 2], "attained": False}] * 2,
    }


def test_json_form_writes_inf_in_dicts_and_tuples():
    answer = {"value": math.inf, "parts": [(F(1, 2), math.inf)], "nested": {"x": F(-3, 6)},
              "flags": (True, None, 7, "s")}
    assert json_form(answer) == {"value": "inf", "parts": [[[1, 2], "inf"]],
                                 "nested": {"x": [-1, 2]}, "flags": [True, None, 7, "s"]}


def test_trace_norm_map_keeps_its_form():
    assert TraceNormMap((F(5, 2), "inf", 3)).to_json() == [[5, 2], "inf", [3, 1]]
