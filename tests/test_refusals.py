"""Library refusals that no CLI payload reaches, each with its exact message,
the first defect the PL reader reports, and the README's worked example,
run through the CLI."""

import json
import re
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from ctrace import invariant, unitary
from ctrace.cli import main
from ctrace.patterns import EigenPattern, ramp_functions
from ctrace.pwcalc import (
    PLFunction,
    StepFunction,
    _merge,
    combine_steps,
    ensure_positive_weight,
    weighted_sup_norm,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def _pl(*points):
    return {"kind": "pl", "points": list(points)}


Z, H, O = [0, 1], [1, 2], [1, 1]
# malformed PL payloads and the first defect the reader reports: it checks
# every entry's shape, then every breakpoint, then every value
PL_REFUSALS = [
    ("pl_bool", _pl([Z, True], [O, O]), TypeError, "booleans are not rationals"),
    ("pl_string", _pl(["x", Z], [O, O]), ValueError, "'x' is not an integer or a/b rational"),
    ("pl_zero_denominator", _pl([Z, Z], [[1, 0], Z], [O, O]), ValueError,
     "zero denominator in [1, 0]"),
    ("pl_negative_denominator", _pl([Z, Z], [[1, -2], Z], [O, O]), ValueError,
     "breakpoints must be strictly increasing"),
    ("pl_breakpoint_before_value", _pl([Z, True], [["x"], O]), TypeError,
     "cannot interpret ['x'] as a rational"),
    ("pl_shape_before_breakpoint", _pl([["x"], Z], [O]), ValueError,
     "each entry of points must have two entries, not 1"),
    ("pl_one_entry_point", _pl([Z, Z], [O]), ValueError,
     "each entry of points must have two entries, not 1"),
    ("pl_one_point", _pl([Z, Z]), ValueError, "need at least the two endpoints 0 and 1"),
    ("pl_unsorted", _pl([Z, Z], [[3, 4], Z], [H, Z], [O, O]), ValueError,
     "breakpoints must be strictly increasing"),
    ("pl_ends", _pl([H, Z], [O, O]), ValueError, "breakpoints must start at 0 and end at 1"),
]

REFUSALS = [
    ("ext", lambda: invariant.ext(0.5), TypeError, "finite values must be exact rationals"),
    ("pattern_of_steps", lambda: EigenPattern((StepFunction.constant(0),)), TypeError,
     "eigenfunctions must be piecewise linear"),
    ("no_ramps", lambda: ramp_functions(0), ValueError, "need at least one ramp"),
    ("profile_shape", lambda: StepFunction.from_profile([0, 1], [0], [0]), ValueError,
     "a profile needs one value per point and per gap"),
    ("profile_ends", lambda: StepFunction.from_profile([0, F(1, 2)], [0, 0], [0]), ValueError,
     "profile points must start at 0 and end at 1"),
    ("combine_nothing", lambda: combine_steps([], max), ValueError, "nothing to combine"),
    ("pl_weight", lambda: ensure_positive_weight(PLFunction.constant(1)), TypeError,
     "weights are step functions"),
    ("norm_of_step", lambda: weighted_sup_norm(StepFunction.constant(1), StepFunction.constant(1)), TypeError,
     "weighted_sup_norm expects a piecewise-linear function"),
    ("merge_non_function", lambda: _merge(1), TypeError, "not a piecewise function: 1"),
    ("mat2_shape", lambda: unitary.as_mat2(np.zeros((2, 3))), ValueError,
     "expected a 2x2 matrix, got shape (2, 3)"),
    ("mat2_nan", lambda: unitary.as_mat2([[1, 0], [0, float("nan")]]), ValueError,
     "matrix entries must be finite"),
] + [(name, lambda payload=payload: PLFunction.from_json(payload), kind, message)
     for name, payload, kind, message in PL_REFUSALS]


@pytest.mark.parametrize("call, kind, message", [r[1:] for r in REFUSALS],
                         ids=[r[0] for r in REFUSALS])
def test_library_refusal(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["pl_breakpoint_before_value", "pl_unsorted"])
def test_pl_refusal_through_the_cli(name, tmp_path, capsys):
    _, payload, _, message = next(r for r in PL_REFUSALS if r[0] == name)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"f": payload, "t": [1, 2]}))
    assert main(["pw", "eval", str(path)]) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_negative_denominators_read_as_reduced_terms():
    pl = PLFunction.from_json(_pl([Z, [1, -2]], [O, [-2, -4]]))
    assert vars(pl)["_vals"] == ((-1, 2), (1, 2))


def test_readme_example_prints_what_it_shows(tmp_path, capsys):
    text = README.read_text()
    found = re.search(r"echo '(.*)' \\\n\s*\| ctrace pw eval\n# (.*)\n", text)
    assert found, "the README's pw eval example moved"
    payload, shown = found.groups()
    path = tmp_path / "payload.json"
    path.write_text(payload)
    assert main(["pw", "eval", str(path)]) == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (shown + "\n", "")
    assert json.loads(shown) == {"value": [1, 2]}
