"""Command-line integration: exit codes, determinism, JSON shapes."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from ctrace.cli import (
    _HANDLERS, BAD_INPUT, INFEASIBLE, MAX_BINS, MAX_NESTED_SETS, REFUTED, main,
)
from ctrace.existence import make_underapprox, pinched_dimension_function
from ctrace.patterns import EigenPattern, push_dimension
from ctrace.pwcalc import PLFunction, StepFunction
from ctrace.unitary import IsometryPath
from test_cli_fuzz import PAYLOADS


def run(capsys, args, payload=None, tmp_path=None):
    """main() on a payload file; a str payload is written verbatim."""
    if payload is not None:
        path = tmp_path / "payload.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        args = args + [str(path)]
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def pinched_gap_payload(m=6):
    return {
        "pattern": EigenPattern.identities(m).to_json(),
        "d_src": pinched_dimension_function().to_json(),
        "d_tgt": StepFunction.constant(2 * m - 1).to_json(),
    }


def infeasible_payload(m=6):
    pattern = EigenPattern.identities(m)
    return {
        "d_A": pinched_dimension_function().to_json(),
        "pattern": pattern.to_json(),
        "d_B": StepFunction.constant(2 * m - 1).to_json(),
        "delta": [1, 16],
        "eps": [1, 2],
        "test_elements": [PLFunction.identity().to_json()],
        "w_dom": StepFunction.constant(1).to_json(),
        "w_cod": push_dimension(pattern, StepFunction.constant(1)).to_json(),
    }


def jump_perturb_payload(**fields):
    """Three identities over d_A = 1 on [0,1/2] and 2 after, into d_B = 10."""
    d_a = StepFunction.from_profile((0, F(1, 2), 1), (1, 1, 2), (1, 2))
    return dict({
        "d_A": d_a.to_json(),
        "pattern": EigenPattern.identities(3).to_json(),
        "d_B": StepFunction.constant(10).to_json(),
        "delta": [1, 8],
        "eps": [1, 1],
        "test_elements": [PLFunction.identity().to_json()],
        "w_dom": StepFunction.constant(1).to_json(),
        "w_cod": StepFunction.constant(1).to_json(),
    }, **fields)


class TestExitCodes:
    def test_exit_0_pw_eval(self, capsys, tmp_path):
        payload = {"f": PLFunction.identity().to_json(), "t": [1, 2]}
        code, out, _ = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert code == 0
        assert json.loads(out) == {"value": [1, 2]}

    def test_exit_1_gap_refuted_with_witness(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["pattern", "gap"], pinched_gap_payload(), tmp_path)
        assert code == 1
        blob = json.loads(out)
        assert blob["gap"] == [-1, 1]
        assert blob["at"] == [0, 1]

    def test_exit_2_schema_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["pw", "eval"], {"t": [1, 2]}, tmp_path)
        assert code == 2
        assert err

    def test_exit_2_unknown_subcommand(self, capsys):
        code = main(["pw", "frobnicate"])
        out = capsys.readouterr()
        assert code == 2
        assert "usage" in out.err.lower()

    def test_exit_3_infeasible_perturbation(self, capsys, tmp_path):
        payload = infeasible_payload()
        code, out, _ = run(capsys, ["exist", "perturb"], payload, tmp_path)
        assert code == 3
        blob = json.loads(out)
        assert blob["error"] == "infeasible"
        assert blob["witness"] == [0, 1]

    def test_exit_4_not_decidable(self, capsys, tmp_path):
        payload = {
            "group": {"kind": "Q", "pairing": [[[1, 1]], [[0, 1]]]},
            "simplex": {"k": 2},
            "f": [[1, 1], [1, 1]],
        }
        code, out, _ = run(capsys, ["invariant", "ai"], payload, tmp_path)
        assert code == 4
        assert json.loads(out)["verdict"] == "NOT_DECIDABLE"

    def test_console_script_exits_with_the_code_of_main(self, capsys, monkeypatch):
        import ctrace.cli as cli

        monkeypatch.setattr(sys, "argv", ["ctrace", "pattern", "gap"])
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(pinched_gap_payload())))
        with pytest.raises(SystemExit) as exc:
            cli.entry()
        assert exc.value.code == REFUTED
        assert json.loads(capsys.readouterr().out)["gap"] == [-1, 1]

    def test_closed_stdout_keeps_the_verdict(self, capsys):
        # the reader is gone before the first write: every write to stdout
        # fails with a broken pipe
        argv = ["exist", "counterexample", "--delta", "1/1000", "--eps0", "1/5"]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ctrace.cli", *argv], stdout=write_end,
                stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == main(argv) == 0
        assert capsys.readouterr().out.startswith("{")


class TestMalformedRationals:
    @pytest.mark.parametrize("t", [[1, 0], [1.9, 2], [True, 2], ["3", "4"]])
    def test_pw_eval_bad_pair(self, capsys, tmp_path, t):
        payload = {"f": PLFunction.identity().to_json(), "t": t}
        code, out, err = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_counterexample_zero_denominator(self, capsys):
        code = main(["exist", "counterexample", "--delta", "1/0", "--eps0", "1/5"])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert "zero denominator" in out.err
        assert "Traceback" not in out.err


def _jump_path():
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    ts = np.linspace(0, 1, 11)
    mats = np.array([e11 if t <= 0.5 else np.eye(2) for t in ts], dtype=complex)
    return IsometryPath(ts, mats, 0.5, 1e-9, 1.0)


class TestUnitaryInputChecks:
    @pytest.mark.parametrize("key", ["tol", "lipschitz"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_unitary_validate_bad_tolerance(self, capsys, tmp_path, key, value):
        path = _jump_path()
        payload = {"path": dict(path.to_json(), **{key: value}),
                   "unitaries": path.to_json()["samples"]}
        code, out, err = run(capsys, ["unitary", "validate"], payload, tmp_path)
        assert code == 2
        assert out == ""
        assert key in err
        assert "Traceback" not in err

    def test_boolean_matrix_entry(self, capsys, tmp_path):
        blob = _jump_path().to_json()
        blob["samples"][0]["re"][0][0] = True
        code, out, err = run(capsys, ["unitary", "patch"], blob, tmp_path)
        assert code == 2
        assert out == ""
        assert "boolean" in err

    # Every number of a unitary payload must be a JSON number: a boolean, a
    # string, null or an array in its place is refused by the field's name.
    @pytest.mark.parametrize("field, value", [
        ("t", False), ("t", True), ("t", "0.5"), ("t", None),
        ("t_jump", "0.5"), ("t_jump", True), ("t_jump", None), ("t_jump", [0.5]),
        ("tol", True), ("tol", "1e-9"), ("tol", None),
        ("lipschitz", "2"), ("lipschitz", False), ("lipschitz", None),
        ("re", "1"), ("re", True), ("re", None), ("re", [1.0]),
        ("im", "0"), ("im", False), ("im", None),
        ("samples", {"t": 0.0}), ("samples", "samples"), ("samples", None),
    ])
    @pytest.mark.parametrize("cmd", ["patch", "validate"])
    def test_non_number_fields(self, capsys, tmp_path, cmd, field, value):
        blob = _jump_path().to_json()
        if field == "t":
            blob["samples"][3]["t"] = value
        elif field in ("re", "im"):
            blob["samples"][3][field][0][1] = value
        else:
            blob[field] = value
        payload = blob if cmd == "patch" else {"path": blob, "unitaries": blob["samples"]}
        code, out, err = run(capsys, ["unitary", cmd], payload, tmp_path)
        assert code == BAD_INPUT
        assert out == ""
        assert err.startswith(f"error: {field} must be a JSON ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("field", ["re", "im"])
    def test_non_number_unitary_entry(self, capsys, tmp_path, field):
        path = _jump_path().to_json()
        unitaries = json.loads(json.dumps(path["samples"]))
        unitaries[5][field][1][1] = "0"
        payload = {"path": path, "unitaries": unitaries}
        code, out, err = run(capsys, ["unitary", "validate"], payload, tmp_path)
        assert code == BAD_INPUT
        assert out == ""
        assert err.startswith(f"error: {field} must be a JSON number")

    def test_non_finite_result_is_not_printed(self, capsys, tmp_path, monkeypatch):
        import ctrace.cli as cli

        monkeypatch.setitem(
            cli._HANDLERS, ("pw", "eval"), (lambda payload, args: {"x": float("nan")}, True)
        )
        code, out, err = run(capsys, ["pw", "eval"], {}, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    # A huge finite entry overflows the defects to inf or NaN, which must
    # fail the checks (a NaN passes no `>` test) without a numpy warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("index", [0, 10], ids=["pre-jump", "post-jump"])
    @pytest.mark.parametrize("v", [1e155, 1e200, 1e300])
    def test_huge_entry_is_refused(self, capsys, tmp_path, index, v):
        blob = _jump_path().to_json()
        blob["samples"][index]["re"] = [[v, v], [v, -v]]
        code, out, err = run(capsys, ["unitary", "patch"], blob, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: sample {index} ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_unitary_entry_is_not_validated(self, capsys, tmp_path):
        for index in (0, 10):  # before and after the jump
            path = _jump_path().to_json()
            unitaries = path["samples"]
            unitaries[index] = dict(unitaries[index], re=[[1e300, 1e300], [1e300, -1e300]])
            payload = {"path": path, "unitaries": unitaries}
            code, out, err = run(capsys, ["unitary", "validate"], payload, tmp_path)
            assert code == REFUTED
            assert err == ""
            report = json.loads(out)
            assert report["ok"] is False
            assert report["max_unitarity_defect"] is None

    def test_off_grid_jump_is_not_patched(self, capsys, tmp_path):
        from test_unitary import off_grid_path

        code, out, err = run(capsys, ["unitary", "patch"], off_grid_path().to_json(), tmp_path)
        assert code == BAD_INPUT
        assert out == ""
        assert err == "error: t_jump=0.5 falls between samples 499 and 500: " \
            "the patch needs the jump on a sample\n"


class TestSubcommands:
    def test_counterexample_tiny_delta(self, capsys):
        code = main(["exist", "counterexample", "--delta", "1/100000000", "--eps0", "1/5"])
        blob = json.loads(capsys.readouterr().out)
        assert code == 0
        assert blob["multiplicity"] == 50000001
        assert blob["d_B_value"] == [100000001, 1]
        assert blob["hypothesis_ok"] and blob["infeasible_ok"]

    def test_counterexample_flags(self, capsys):
        code = main(["exist", "counterexample", "--delta", "1/10", "--eps0", "1/5"])
        out = capsys.readouterr().out
        assert code == 0
        blob = json.loads(out)
        assert blob["multiplicity"] == 6
        assert blob["d_B_value"] == [11, 1]
        assert blob["hypothesis_ok"] and blob["infeasible_ok"]

    def test_counterexample_bad_eps0(self, capsys):
        code = main(["exist", "counterexample", "--delta", "1/10", "--eps0", "1/3"])
        assert code == 2

    def test_exist_fprime_and_verify_round_trip(self, capsys, tmp_path):
        d = pinched_dimension_function()
        code, out, _ = run(
            capsys, ["exist", "fprime"],
            {"d": d.to_json(), "delta": [1, 8]}, tmp_path,
        )
        assert code == 0
        assert PLFunction.from_json(json.loads(out)) == make_underapprox(d, F(1, 8))

    def test_perturb_then_verify(self, capsys, tmp_path):
        pattern = EigenPattern.identities(2)
        pushed = push_dimension(pattern, pinched_dimension_function())
        from ctrace.pwcalc import combine_steps

        d_b = combine_steps([pushed], lambda v: v + 1)
        payload = {
            "d_A": pinched_dimension_function().to_json(),
            "pattern": pattern.to_json(),
            "d_B": d_b.to_json(),
            "delta": [1, 16],
            "eps": [2, 1],
            "test_elements": [PLFunction.identity().to_json()],
            "w_dom": StepFunction.constant(1).to_json(),
            "w_cod": push_dimension(pattern, StepFunction.constant(1)).to_json(),
        }
        code, out, _ = run(capsys, ["exist", "perturb"], payload, tmp_path)
        assert code == 0
        cert_blob = json.loads(out)
        code, out, _ = run(capsys, ["exist", "verify"], cert_blob, tmp_path)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_perturb_reads_an_explicit_f_prime(self, capsys, tmp_path):
        payload = jump_perturb_payload()
        d_a = StepFunction.from_json(payload["d_A"])
        code, out, _ = run(capsys, ["exist", "perturb"], payload, tmp_path)
        assert code == 0
        given = dict(payload, f_prime=make_underapprox(d_a, F(1, 8)).to_json())
        assert run(capsys, ["exist", "perturb"], given, tmp_path) == (0, out, "")
        other = dict(payload, f_prime=make_underapprox(d_a, F(1, 16)).to_json())
        assert run(capsys, ["exist", "perturb"], other, tmp_path) == (BAD_INPUT, "", (
            "error: f_prime is not the canonical under-approximation of d_A at this delta\n"))

    def test_perturb_over_the_deviation_budget(self, capsys, tmp_path):
        payload = jump_perturb_payload(eps=[1, 10**6])
        code, out, err = run(capsys, ["exist", "perturb"], payload, tmp_path)
        assert (code, err) == (INFEASIBLE, "")
        assert out == ('{"error":"infeasible","message":"deviation 3/4 on a test element '
                       'exceeds the budget 1/1000000","witness":null}\n')

    @pytest.mark.parametrize("cancel", [True, False])
    def test_verify_refuses_a_zero_codomain_weight(self, capsys, tmp_path, cancel):
        # with equal patterns p(a) - q(a) is 0, and the weight is still refused
        payload = (jump_perturb_payload(d_A=StepFunction.constant(1).to_json()) if cancel
                   else jump_perturb_payload())
        code, out, _ = run(capsys, ["exist", "perturb"], payload, tmp_path)
        cert = json.loads(out)
        assert code == 0 and (cert["original"] == cert["perturbed"]) == cancel
        cert["w_cod"] = StepFunction.constant(0).to_json()
        assert cert["w_cod"]["pieces"][0]["value"] == [0, 1]
        assert run(capsys, ["exist", "verify"], cert, tmp_path) == (
            BAD_INPUT, "", "error: weights must be strictly positive\n")

    def test_block_round_trip(self, capsys, tmp_path):
        d = pinched_dimension_function()
        code, out, _ = run(capsys, ["block", "to-nested"], d.to_json(), tmp_path)
        assert code == 0
        nested = json.loads(out)
        code, out, _ = run(capsys, ["block", "from-nested"], nested, tmp_path)
        assert code == 0
        assert StepFunction.from_json(json.loads(out)) == d

    def test_block_validate_refutes(self, capsys, tmp_path):
        bad = StepFunction.from_profile([F(0), F(1, 2), F(1)], [1, 2, 1], [1, 1])
        code, out, _ = run(capsys, ["block", "validate"], bad.to_json(), tmp_path)
        assert code == 1
        assert json.loads(out)["witness"] == [1, 2]

    def test_pattern_chain(self, capsys, tmp_path):
        payload = {
            "stages": [{
                "pattern": EigenPattern.identities(1).to_json(),
                "dim": StepFunction.constant(3).to_json(),
            }],
            "tau": EigenPattern.identities(1).to_json(),
            "d_target": StepFunction.constant(3).to_json(),
            "f": PLFunction.constant(1).to_json(),
            "delta_1": [1, 1],
            "eps_n": [1, 2],
        }
        code, out, _ = run(capsys, ["pattern", "chain"], payload, tmp_path)
        assert code == 0
        blob = json.loads(out)
        assert blob["verified"] and blob["margin"] == [2, 1]

    def test_pattern_chain_precondition_error(self, capsys, tmp_path):
        payload = {
            "stages": [{
                "pattern": EigenPattern.identities(1).to_json(),
                "dim": StepFunction.constant(3).to_json(),
            }],
            "tau": EigenPattern.identities(1).to_json(),
            "d_target": StepFunction.constant(3).to_json(),
            "f": PLFunction.constant(1).to_json(),
            "delta_1": [1, 4],
            "eps_n": [1, 2],
        }
        code, _, err = run(capsys, ["pattern", "chain"], payload, tmp_path)
        assert code == 2

    def test_invariant_ai_verdicts(self, capsys, tmp_path):
        base = {"simplex": {"k": 1}, "f": [[5, 2]]}
        code, out, _ = run(
            capsys, ["invariant", "ai"],
            {**base, "group": {"kind": "Q", "pairing": [[[1, 1]]]}}, tmp_path,
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["invariant", "ai"],
            {**base, "group": {"kind": "qZ", "q": [1, 1], "pairing": [[[1, 1]]]}},
            tmp_path,
        )
        assert code == 1
        assert json.loads(out)["per_vertex"][0]["sup"] == [2, 1]

    def test_invariant_classify_emits_plot_rows(self, capsys, tmp_path):
        payload = {
            "group": {"kind": "Q", "pairing": [[[1, 1]], [[1, 1]]]},
            "points": [[[1, 1], [1, 1]], [[1, 1], [2, 1]], [[1, 1], "inf"]],
        }
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(payload))
        plot = tmp_path / "plot.dat"
        code = main(["invariant", "classify", "--plot-out", str(plot), str(path)])
        out = capsys.readouterr().out
        assert code == 0
        classes = [p["class"] for p in json.loads(out)["points"]]
        assert classes == ["ai-diagonal", "off-diagonal", "unbounded-boundary"]
        rows = plot.read_text().strip().splitlines()
        assert rows == [
            "1 1 ai-diagonal",
            "1 2 off-diagonal",
            "1 inf unbounded-boundary",
        ]

    def test_unitary_patch_and_validate(self, capsys, tmp_path):
        e11 = np.array([[1, 0], [0, 0]], dtype=complex)
        ts = np.linspace(0, 1, 11)
        mats = np.array([e11 if t <= 0.5 else np.eye(2) for t in ts], dtype=complex)
        path = IsometryPath(ts, mats, 0.5, 1e-9, 1.0)
        code, out, _ = run(capsys, ["unitary", "patch"], path.to_json(), tmp_path)
        assert code == 0
        patched = json.loads(out)
        code, out, _ = run(
            capsys, ["unitary", "validate"],
            {"path": path.to_json(), "unitaries": patched["samples"]}, tmp_path,
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_batch_list_payload(self, capsys, tmp_path):
        entry = {"f": PLFunction.identity().to_json(), "t": [1, 4]}
        entry2 = {"f": PLFunction.identity().to_json(), "t": [3, 4]}
        code, out, _ = run(capsys, ["pw", "eval"], [entry, entry2], tmp_path)
        assert code == 0
        assert json.loads(out) == [{"value": [1, 4]}, {"value": [3, 4]}]

    def test_batch_worst_exit_code_wins(self, capsys, tmp_path):
        holds = {
            "f": PLFunction.constant(0).to_json(),
            "g": PLFunction.constant(1).to_json(),
        }
        fails = {
            "f": PLFunction.constant(2).to_json(),
            "g": PLFunction.constant(1).to_json(),
        }
        code, out, _ = run(capsys, ["pw", "le"], [holds, fails], tmp_path)
        assert code == 1


    @pytest.mark.parametrize("lo,hi", [([1, 2], [2, 1]), ([-1, 1], [1, 2])])
    def test_block_from_nested_refuses_sets_outside_unit_interval(self, capsys, tmp_path,
                                                                  lo, hi):
        outside = {"lo": lo, "hi": hi, "lo_closed": False, "hi_closed": False}
        code, out, err = run(capsys, ["block", "from-nested"],
                             {"n": 2, "opens": [[outside]]}, tmp_path)
        a, b = (f"{n}" if d == 1 else f"{n}/{d}" for n, d in (lo, hi))
        assert (code, out) == (2, "")
        assert err == f"error: interval from {a} to {b} reaches outside [0,1]\n"

class TestBatchSlots:
    def test_schema_error_fills_its_own_slot(self, capsys, tmp_path):
        f = PLFunction.identity().to_json()
        code, out, err = run(capsys, ["pw", "eval"], [{"f": f, "t": [1, 2]}, {"f": f}], tmp_path)
        assert code == 2
        assert out == '[{"value":[1,2]},{"error":"bad_input","message":"missing field \'t\'"}]\n'
        assert err == ""

    def test_infeasible_entry_fills_its_own_slot(self, capsys, tmp_path):
        code, single, _ = run(capsys, ["exist", "perturb"], infeasible_payload(), tmp_path)
        assert code == 3
        feasible = dict(infeasible_payload(), d_B=StepFunction.constant(12).to_json())
        code, good, _ = run(capsys, ["exist", "perturb"], feasible, tmp_path)
        assert code == 0
        code, out, _ = run(
            capsys, ["exist", "perturb"], [feasible, infeasible_payload()], tmp_path
        )
        assert code == 3
        assert json.loads(out) == [json.loads(good), json.loads(single)]
        assert json.loads(single)["error"] == "infeasible"

    def test_worst_code_over_all_slots(self, capsys, tmp_path):
        holds = {"f": PLFunction.constant(0).to_json(), "g": PLFunction.constant(1).to_json()}
        fails = {"f": PLFunction.constant(2).to_json(), "g": PLFunction.constant(1).to_json()}
        code, out, _ = run(capsys, ["pw", "le"], [fails, {"f": 1}, holds], tmp_path)
        assert code == 2
        slots = json.loads(out)
        assert slots[0]["holds"] is False and slots[2]["holds"] is True
        assert slots[1]["error"] == "bad_input"
        code, out, _ = run(capsys, ["pw", "le"], [], tmp_path)
        assert (code, out) == (0, "[]\n")

    def test_successful_batch_prints_the_same_bytes(self, capsys, tmp_path):
        entries = [{"f": PLFunction.identity().to_json(), "t": [k, 4]} for k in range(5)]
        code, out, _ = run(capsys, ["pw", "eval"], entries, tmp_path)
        assert code == 0
        assert out == ('[{"value":[0,1]},{"value":[1,4]},{"value":[1,2]},'
                       '{"value":[3,4]},{"value":[1,1]}]\n')

    def test_non_array_schema_error_keeps_stdout_empty(self, capsys, tmp_path):
        code, out, err = run(capsys, ["pw", "eval"], {"f": PLFunction.identity().to_json()},
                             tmp_path)
        assert (code, out, err) == (2, "", "error: missing field 't'\n")



class TestFileErrors:
    """An unreadable payload file or an unwritable plot file is exit 2 with
    one message, and a batch writes every successful entry's plot rows."""

    CLASSIFY = {"group": {"kind": "Q", "pairing": [[[1, 1]], [[1, 1]]]},
                "points": [[[1, 1], [1, 1]]]}

    def check_refused(self, code, out, err, message):
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err

    def test_missing_payload_file(self, capsys, tmp_path):
        code = main(["pw", "eval", str(tmp_path / "missing.json")])
        out = capsys.readouterr()
        self.check_refused(code, out.out, out.err, "No such file or directory")

    def test_directory_as_payload_file(self, capsys, tmp_path):
        code = main(["block", "validate", str(tmp_path)])
        out = capsys.readouterr()
        self.check_refused(code, out.out, out.err, "Is a directory")

    def test_plot_file_in_missing_directory(self, capsys, tmp_path):
        plot = tmp_path / "nodir" / "plot.dat"
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(self.CLASSIFY))
        code = main(["invariant", "classify", "--plot-out", str(plot), str(path)])
        out = capsys.readouterr()
        self.check_refused(code, out.out, out.err, "No such file or directory")
        assert not plot.parent.exists()

    def test_missing_file_in_a_fresh_process(self, tmp_path):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ctrace.cli", "pw", "eval", str(tmp_path / "missing.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"Traceback" not in proc.stderr
        assert proc.stderr.startswith(b"error: ") and b"missing.json" in proc.stderr

    def test_batch_plot_keeps_every_successful_entry(self, capsys, tmp_path):
        second = dict(self.CLASSIFY, points=[[[2, 1], [3, 1]], [[1, 1], "inf"]])
        bad = dict(self.CLASSIFY, points=[[[1, 1]]])
        path = tmp_path / "payload.json"
        path.write_text(json.dumps([self.CLASSIFY, bad, second]))
        plot = tmp_path / "plot.dat"
        code = main(["invariant", "classify", "--plot-out", str(plot), str(path)])
        slots = json.loads(capsys.readouterr().out)
        assert code == 2 and slots[1]["error"] == "bad_input"
        assert plot.read_text().splitlines() == [
            "1 1 ai-diagonal",
            "2 3 off-diagonal",
            "1 inf unbounded-boundary",
        ]

class TestEscapingExceptions:
    """Inputs that used to escape main() with a traceback and exit 1."""

    def check_refused(self, code, out, err, message):
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_function_that_is_not_an_object(self, capsys, tmp_path):
        code, out, err = run(capsys, ["pw", "eval"], {"f": [1, 2], "t": [1, 2]}, tmp_path)
        self.check_refused(code, out, err, "a function must be a JSON object")

    def test_eigenfunction_that_is_not_an_object(self, capsys, tmp_path):
        payload = {"pattern": {"eigenfunctions": [5]}, "f": PLFunction.identity().to_json()}
        code, out, err = run(capsys, ["pattern", "apply"], payload, tmp_path)
        self.check_refused(code, out, err, "must be a JSON object")

    def test_certificate_that_is_not_an_object(self, capsys, tmp_path):
        code, out, err = run(capsys, ["exist", "verify"], 1, tmp_path)
        self.check_refused(code, out, err, "a certificate must be a JSON object")
        code, out, err = run(capsys, ["exist", "verify"], [1], tmp_path)
        assert code == 2
        assert json.loads(out) == [
            {"error": "bad_input", "message": "a certificate must be a JSON object, not number"}
        ]

    @pytest.mark.parametrize("where", ["t_jump", "tol", "sample t"])
    def test_huge_integer_in_a_float_field(self, capsys, tmp_path, where):
        blob = _jump_path().to_json()
        if where == "sample t":
            blob["samples"][0]["t"] = 10**400
        else:
            blob[where] = 10**400
        code, out, err = run(capsys, ["unitary", "patch"], blob, tmp_path)
        self.check_refused(code, out, err, "too large to convert to float")

    def test_deeply_nested_arrays(self, capsys, tmp_path):
        code, out, err = run(capsys, ["pw", "eval"], "[" * 200_000, tmp_path)
        self.check_refused(code, out, err, "recursion")

    # An array or an entry of the wrong shape is refused by its field's name.
    @pytest.mark.parametrize("args, payload, message", [
        (["unitary", "patch"], dict(_jump_path().to_json(), samples=[1, 2, 3]),
         "each entry of samples must be a JSON object, not number"),
        (["unitary", "validate"], {"path": _jump_path().to_json(), "unitaries": {}},
         "unitaries must be a JSON array, not object"),
        (["unitary", "validate"], {"path": _jump_path().to_json(), "unitaries": [1]},
         "each entry of unitaries must be a JSON object, not number"),
        (["pw", "eval"], {"f": {"kind": "step", "pieces": {"a": 1}}, "t": 0},
         "pieces must be a JSON array, not object"),
        (["pw", "eval"], {"f": {"kind": "step", "pieces": [1]}, "t": 0},
         "each entry of pieces must be a JSON object, not number"),
        (["pw", "eval"], {"f": {"kind": "pl", "points": [1, 2]}, "t": 0},
         "each entry of points must be a JSON array, not number"),
        (["pw", "eval"], {"f": {"kind": "pl", "points": [[0, 0, 0], [1, 1]]}, "t": 0},
         "each entry of points must have two entries, not 3"),
        (["pw", "eval"], {"f": {"kind": "pl", "points": {"a": 1}}, "t": 0},
         "points must be a JSON array, not object"),
        (["pattern", "apply"], {"pattern": {"eigenfunctions": {"a": 1}}},
         "eigenfunctions must be a JSON array, not object"),
        (["pattern", "apply"], {"pattern": {"eigenfunctions": [1]}},
         "each entry of eigenfunctions must be a JSON object, not number"),
        (["pattern", "apply"], {"pattern": [1]}, "a pattern must be a JSON object, not array"),
        (["block", "from-nested"], {"n": 2, "opens": [5]},
         "each entry of opens must be a JSON array, not number"),
        (["block", "from-nested"], {"n": 2, "opens": 5}, "opens must be a JSON array, not number"),
        (["block", "from-nested"], {"n": 2, "opens": [[5]]},
         "each interval of opens must be a JSON object, not number"),
        (["pattern", "chain"], dict(PAYLOADS[("pattern", "chain")], stages=[1]),
         "each entry of stages must be a JSON object, not number"),
        (["pattern", "chain"], dict(PAYLOADS[("pattern", "chain")], stages={"a": 1}),
         "stages must be a JSON array, not object"),
        (["exist", "verify"], dict(PAYLOADS[("exist", "verify")], test_elements=5),
         "test_elements must be a JSON array, not number"),
        (["exist", "verify"], dict(PAYLOADS[("exist", "verify")], test_elements=[5]),
         "each entry of test_elements must be a JSON object, not number"),
        (["exist", "verify"], dict(PAYLOADS[("exist", "verify")], eigen_facts=[1]),
         "each entry of eigen_facts must be a JSON object, not number"),
        (["exist", "verify"], dict(PAYLOADS[("exist", "verify")], element_facts={"a": 1}),
         "element_facts must be a JSON array, not object"),
        (["exist", "perturb"], dict(PAYLOADS[("exist", "perturb")], test_elements=5),
         "test_elements must be a JSON array, not number"),
        (["exist", "perturb"], dict(PAYLOADS[("exist", "perturb")], test_elements={"a": 1}),
         "test_elements must be a JSON array, not object"),
        (["exist", "perturb"], dict(PAYLOADS[("exist", "perturb")], test_elements=[5]),
         "each entry of test_elements must be a JSON object, not number"),
        (["unitary", "validate"], dict(PAYLOADS[("unitary", "validate")], path=5),
         "path must be a JSON object, not number"),
        (["invariant", "ai"], dict(PAYLOADS[("invariant", "ai")], simplex=[2]),
         "simplex must be a JSON object, not array"),
    ])
    def test_array_shapes_name_the_field(self, capsys, tmp_path, args, payload, message):
        code, out, err = run(capsys, args, payload, tmp_path)
        assert (code, out, err) == (BAD_INPUT, "", f"error: {message}\n")

    # A payload the library refuses is an input error: exit 2 with its message.
    @pytest.mark.parametrize("args, payload, message", [
        (["block", "from-nested"], {"n": 2, "opens": [[
            {"lo": [0, 1], "hi": [1, 2], "lo_closed": True, "hi_closed": False},
            {"lo": [1, 4], "hi": [3, 4], "lo_closed": False, "hi_closed": False}]]},
         "intervals of an open set must be disjoint"),
        (["pattern", "apply"],
         dict(PAYLOADS[("pattern", "apply")], pattern={"eigenfunctions": []}),
         "a pattern needs at least one eigenfunction"),
        (["pattern", "chain"], dict(PAYLOADS[("pattern", "chain")], stages=[]),
         "chain needs at least one stage"),
        (["invariant", "ai"], dict(PAYLOADS[("invariant", "ai")], simplex={"k": 0}),
         "need at least one extreme point"),
        (["invariant", "eval"], dict(PAYLOADS[("invariant", "eval")], f=[]),
         "need at least one vertex value"),
        (["invariant", "range"], dict(PAYLOADS[("invariant", "range")], pairing=[]),
         "need at least one state rate"),
        (["invariant", "range"], dict(PAYLOADS[("invariant", "range")], group=dict(
            PAYLOADS[("invariant", "range")]["group"], q=[0, 1])),
         "scale q must be positive"),
        (["invariant", "range"],
         dict(PAYLOADS[("invariant", "range")], pairing=[[1, 1], [[1, 1], [2, 1]]]),
         "pairing rows must have exactly one generator column"),
        (["invariant", "decompose"], dict(PAYLOADS[("invariant", "decompose")], caps=[[0, 1]]),
         "the first cap must be positive"),
        (["unitary", "patch"],
         dict(_jump_path().to_json(), samples=_jump_path().to_json()["samples"][:1]),
         "need at least two samples"),
        (["unitary", "patch"], dict(_jump_path().to_json(), samples=[
            dict(s, re=np.eye(3).tolist(), im=np.zeros((3, 3)).tolist())
            for s in _jump_path().to_json()["samples"]]),
         "samples and matrices disagree"),
        (["unitary", "patch"], dict(_jump_path().to_json(), samples=[
            dict(s, t=1 - s["t"]) for s in _jump_path().to_json()["samples"]]),
         "sample times must be strictly increasing"),
        (["unitary", "patch"], dict(_jump_path().to_json(), t_jump=1.0),
         "t_jump must lie within the grid span"),
        (["exist", "perturb"], dict(PAYLOADS[("exist", "perturb")], eps=[0, 1]),
         "delta and eps must be positive"),
        (["exist", "counterexample", "--delta", "1", "--eps0", "1/5"], None,
         "delta must lie in (0,1)"),
    ])
    def test_library_refusals_are_input_errors(self, capsys, tmp_path, args, payload, message):
        code, out, err = run(capsys, args, payload, tmp_path)
        assert (code, out, err) == (BAD_INPUT, "", f"error: {message}\n")


class TestRationalStrings:
    def test_exponent_is_refused_at_once(self, capsys, tmp_path):
        payload = {"f": PLFunction.identity().to_json(), "t": "1e-10000000"}
        code, out, err = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert (code, out) == (2, "")
        assert err == "error: '1e-10000000' is not an integer or a/b rational\n"

    @pytest.mark.parametrize("t", ["0.5", "1/2.0", "5e-1"])
    def test_decimals_are_refused(self, capsys, tmp_path, t):
        payload = {"f": PLFunction.identity().to_json(), "t": t}
        code, out, err = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert (code, out) == (2, "")
        assert repr(t) in err

    def test_integer_and_a_over_b_strings_still_work(self, capsys, tmp_path):
        payload = {"f": PLFunction.identity().to_json(), "t": " 1/3 "}
        code, out, _ = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert (code, json.loads(out)) == (0, {"value": [1, 3]})
        code = main(["exist", "counterexample", "--delta", "1/10", "--eps0", "1/5"])
        assert code == 0


class TestLongIntegers:
    # f is the line from (0,0) to (1, 1/(10**2500+1)); at t = 1/(10**2500-1)
    # it is 1/(10**5000-1), whose denominator has 5000 digits
    N = 10 ** 2500
    F_LINE = {"kind": "pl", "points": [[[0, 1], [0, 1]], [[1, 1], [1, N + 1]]]}

    def test_result_longer_than_the_int_str_limit(self, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        payload = {"f": self.F_LINE, "t": [1, self.N - 1]}
        code, out, err = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert (code, err) == (0, "")
        assert out == '{"value":[1,' + "9" * 5000 + "]}\n"
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-to-str limit")
    def test_input_keeps_the_int_str_limit(self, capsys, tmp_path):
        payload = '{"f":' + json.dumps(self.F_LINE) + ',"t":[1,' + "9" * 5000 + "]}"
        code, out, err = run(capsys, ["pw", "eval"], payload, tmp_path)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestWorkLimits:
    """Each limit accepts its cap and refuses cap + 1 with exit 2.  The
    payloads past the cap stay cheap, so a missing check shows as a wrong
    exit code rather than a long run."""

    @staticmethod
    def nested_payload(sets):
        half = {"lo": [0, 1], "hi": [1, 2], "lo_closed": True, "hi_closed": False}
        return {"n": sets + 1, "opens": [[half]] * sets}

    def check_refused(self, capsys, tmp_path, args, payload, message):
        code, out, err = run(capsys, args, payload, tmp_path)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    def test_from_nested_sets(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["block", "from-nested"],
                           self.nested_payload(MAX_NESTED_SETS), tmp_path)
        assert code == 0 and json.loads(out)["pieces"][0]["value"] == [MAX_NESTED_SETS + 1, 1]
        self.check_refused(capsys, tmp_path, ["block", "from-nested"],
                           self.nested_payload(MAX_NESTED_SETS + 1),
                           f"number of open sets {MAX_NESTED_SETS + 1} exceeds the limit")

    def test_to_nested_largest_value(self, capsys, tmp_path):
        top = MAX_NESTED_SETS + 1
        code, out, _ = run(capsys, ["block", "to-nested"],
                           StepFunction.constant(top).to_json(), tmp_path)
        assert code == 0 and len(json.loads(out)["opens"]) == MAX_NESTED_SETS
        self.check_refused(capsys, tmp_path, ["block", "to-nested"],
                           StepFunction.constant(top + 1).to_json(),
                           f"largest value {top + 1} exceeds the limit")

    @pytest.mark.parametrize("sub", ["density", "uniqhyp"])
    def test_bins(self, capsys, tmp_path, sub):
        # the identity misses the far bins at t = 0, so both checks fail fast
        pattern = EigenPattern.identities(1).to_json()

        def payload(d):
            if sub == "density":
                return {"pattern": pattern, "d": d, "delta": [1, d]}
            return {"phi": pattern, "psi": pattern, "d": d, "delta": [1, d],
                    "w_dom": StepFunction.constant(1).to_json(), "w_cod": StepFunction.constant(1).to_json()}

        code, out, _ = run(capsys, ["pattern", sub], payload(MAX_BINS), tmp_path)
        assert code == 1 and json.loads(out)["holds"] is False
        self.check_refused(capsys, tmp_path, ["pattern", sub], payload(MAX_BINS + 1),
                           f"d {MAX_BINS + 1} exceeds the limit")


def _flagged_piece(flag, value):
    blob = StepFunction.constant(2).to_json()
    blob["pieces"][0][flag] = value
    return blob


_HALF_OPEN = {"lo": [0, 1], "hi": [1, 2], "lo_closed": True, "hi_closed": False}
_IDENTITY = PLFunction.identity().to_json()
_ONE_BIN = EigenPattern.identities(1).to_json()
_RANGE = {"group": {"kind": "qZ", "q": [1, 1]}, "pairing": [[1, 1]],
          "f": [[5, 2]], "x": [2, 1]}
_UNIQHYP = {"phi": _ONE_BIN, "psi": _ONE_BIN, "d": 1, "delta": [1, 2],
            "w_dom": StepFunction.constant(1).to_json(), "w_cod": StepFunction.constant(1).to_json()}


class TestStrictJsonTypes:
    """Flags must be JSON booleans and counts JSON integers: anything else
    is a schema error (exit 2), never coerced into a verdict."""

    BOOLEAN_CASES = [
        (["pw", "le"], {"f": _IDENTITY, "g": _IDENTITY, "strict": "false"}, "strict"),
        (["pw", "le"], {"f": _IDENTITY, "g": _IDENTITY, "strict": 0}, "strict"),
        (["pattern", "apply"], {"pattern": _ONE_BIN, "f": _IDENTITY, "normalized": 1},
         "normalized"),
        (["invariant", "range"], dict(_RANGE, require_positive="true"), "require_positive"),
        (["block", "validate"], _flagged_piece("lo_closed", "false"), "lo_closed"),
        (["block", "validate"], _flagged_piece("hi_closed", 1), "hi_closed"),
        (["block", "from-nested"],
         {"n": 2, "opens": [[dict(_HALF_OPEN, hi_closed="false")]]}, "hi_closed"),
    ]

    INTEGER_CASES = [
        (["block", "from-nested"], {"n": 2.7, "opens": [[_HALF_OPEN]]}, "n"),
        (["block", "from-nested"], {"n": 2.0, "opens": [[_HALF_OPEN]]}, "n"),
        (["block", "from-nested"], {"n": True, "opens": []}, "n"),
        (["pattern", "density"], {"pattern": _ONE_BIN, "d": True, "delta": [1, 2]}, "d"),
        (["pattern", "density"], {"pattern": _ONE_BIN, "d": 1.9, "delta": [1, 2]}, "d"),
        (["pattern", "uniqhyp"], dict(_UNIQHYP, d=True), "d"),
        (["pattern", "uniqhyp"], dict(_UNIQHYP, d=1.9), "d"),
        (["invariant", "ai"], {"group": {"kind": "Q"}, "pairing": [[[1, 1]]],
                               "simplex": {"k": 1.0}, "f": [[5, 2]]}, "k"),
        (["invariant", "ai"], {"group": {"kind": "Q"}, "pairing": [[[1, 1]]],
                               "simplex": {"k": True}, "f": [[5, 2]]}, "k"),
    ]

    def check_refused(self, capsys, tmp_path, args, payload, field, kind):
        code, out, err = run(capsys, args, payload, tmp_path)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {field} must be a JSON {kind}")
        assert "Traceback" not in err

    @pytest.mark.parametrize("args,payload,field", BOOLEAN_CASES)
    def test_flags_must_be_booleans(self, capsys, tmp_path, args, payload, field):
        self.check_refused(capsys, tmp_path, args, payload, field, "boolean")

    @pytest.mark.parametrize("args,payload,field", INTEGER_CASES)
    def test_counts_must_be_integers(self, capsys, tmp_path, args, payload, field):
        self.check_refused(capsys, tmp_path, args, payload, field, "integer")

    def test_missing_flags_keep_their_defaults(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["pw", "le"], {"f": _IDENTITY, "g": _IDENTITY}, tmp_path)
        assert code == 0 and json.loads(out)["holds"] is True
        code, _, _ = run(capsys, ["pw", "le"],
                         {"f": _IDENTITY, "g": _IDENTITY, "strict": True}, tmp_path)
        assert code == 1
        code, out, _ = run(capsys, ["invariant", "range"], _RANGE, tmp_path)
        assert code == 0 and json.loads(out)["member"] is True


class TestDeterminism:
    def test_identical_inputs_identical_bytes(self, capsys, tmp_path):
        payload = pinched_gap_payload()
        _, out1, _ = run(capsys, ["pattern", "gap"], payload, tmp_path)
        _, out2, _ = run(capsys, ["pattern", "gap"], payload, tmp_path)
        assert out1 == out2
        _, out3, _ = run(
            capsys,
            ["exist", "counterexample", "--delta", "1/10", "--eps0", "1/5"],
        )
        _, out4, _ = run(
            capsys,
            ["exist", "counterexample", "--delta", "1/10", "--eps0", "1/5"],
        )
        assert out3 == out4

    def test_keys_are_sorted(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["pattern", "gap"], pinched_gap_payload(), tmp_path)
        blob = json.loads(out)
        assert list(blob.keys()) == sorted(blob.keys())


class TestPayloadShapes:
    def test_top_level_pairing_accepted(self, capsys, tmp_path):
        payload = {
            "group": {"kind": "Q"},
            "pairing": [[[1, 1]]],
            "simplex": {"k": 1},
            "f": [[5, 2]],
        }
        code, out, _ = run(capsys, ["invariant", "ai"], payload, tmp_path)
        assert code == 0
        assert json.loads(out)["verdict"] == "AI"

    def test_invariant_range_and_eval(self, capsys, tmp_path):
        payload = {
            "group": {"kind": "qZ", "q": [1, 1]},
            "pairing": [[1, 1]],
            "f": [[5, 2]],
            "x": [2, 1],
        }
        code, out, _ = run(capsys, ["invariant", "range"], payload, tmp_path)
        assert code == 0 and json.loads(out)["member"] is True
        payload["x"] = [3, 1]
        code, out, _ = run(capsys, ["invariant", "range"], payload, tmp_path)
        assert code == 1
        code, out, _ = run(
            capsys, ["invariant", "eval"],
            {"f": [[1, 1], "inf"], "s": [[1, 2], [1, 2]]}, tmp_path,
        )
        assert code == 0 and json.loads(out)["value"] == "inf"

    def test_invariant_decompose(self, capsys, tmp_path):
        payload = {"f": [[1, 1], "inf"], "caps": [[1, 1], [2, 1], [3, 1]]}
        code, out, _ = run(capsys, ["invariant", "decompose"], payload, tmp_path)
        assert code == 0
        assert json.loads(out)["parts"] == [
            [[1, 1], [1, 1]], [[0, 1], [1, 1]], [[0, 1], [1, 1]]
        ]

    def test_pw_norm_and_density_and_uniqhyp(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, ["pw", "norm"],
            {"f": PLFunction.constant(1).to_json(),
             "w": StepFunction.constant(2).to_json()}, tmp_path,
        )
        assert code == 0 and json.loads(out)["value"] == [1, 2]
        pattern = EigenPattern.identities(1).to_json()
        code, out, _ = run(
            capsys, ["pattern", "density"],
            {"pattern": pattern, "d": 2, "delta": [1, 2]}, tmp_path,
        )
        assert code == 1
        payload = {
            "phi": pattern, "psi": pattern, "d": 1, "delta": [1, 2],
            "w_dom": StepFunction.constant(1).to_json(), "w_cod": StepFunction.constant(1).to_json(),
        }
        code, out, _ = run(capsys, ["pattern", "uniqhyp"], payload, tmp_path)
        assert code == 0

    def test_pattern_apply_push_compat(self, capsys, tmp_path):
        pattern = EigenPattern.identities(2).to_json()
        code, out, _ = run(
            capsys, ["pattern", "apply"],
            {"pattern": pattern, "f": PLFunction.identity().to_json()}, tmp_path,
        )
        assert code == 0
        assert PLFunction.from_json(json.loads(out)) == PLFunction((0, 1), (0, 2))
        code, out, _ = run(
            capsys, ["pattern", "push"],
            {"pattern": pattern, "d": StepFunction.constant(1).to_json()}, tmp_path,
        )
        assert code == 0
        code, out, _ = run(
            capsys, ["pattern", "compat"],
            {"pattern": pattern, "f": PLFunction.identity().to_json(),
             "d_B": StepFunction.constant(2).to_json(), "slack": [0, 1]}, tmp_path,
        )
        assert code == 0


GROUP = {"kind": "qZ", "q": [1, 2], "pairing": [[[1, 1]], [[3, 2]]]}


class TestInvariantArraysAndInfinity:
    """A string where an array belongs, a float where a rational or "inf"
    belongs, or a point without exactly two coordinates is a schema error
    that names its field; none is read as something else."""

    @pytest.mark.parametrize("sub, payload, field", [
        ("eval", {"f": "12", "s": [0, 1]}, "f"),
        ("eval", {"f": [[5, 2], "inf"], "s": "12"}, "s"),
        ("decompose", {"f": [[5, 2], "inf"], "caps": "12"}, "caps"),
        ("range", {"group": {"kind": "Q"}, "pairing": "12", "f": [[5, 2], [9, 2]],
                   "x": [1, 1]}, "pairing"),
        ("ai", '{"group":{"kind":"Q","pairing":[1]},"simplex":{"k":1},"f":[1e400]}', "f"),
        ("classify", '{"group":{"kind":"Q","pairing":[1,1]},"points":[[1e400,2]]}', "points"),
        ("classify", {"group": GROUP, "points": [[1, 1, 7]]}, "points"),
        ("classify", {"group": GROUP, "points": [[1]]}, "points"),
        ("classify", {"group": GROUP, "points": "12"}, "points"),
        ("classify", {"group": GROUP, "points": ["12"]}, "points"),
        ("classify", {"group": [["kind", "Q"], ["pairing", [1, 1]]], "points": [[1, 1]]},
         "group"),
    ])
    def test_refused_naming_the_field(self, capsys, tmp_path, sub, payload, field):
        code, out, err = run(capsys, ["invariant", sub], payload, tmp_path)
        assert code == BAD_INPUT
        assert out == ""
        assert re.search(rf"\b{field}\b", err), err

    def test_inf_token_still_reads_as_infinity(self, capsys, tmp_path):
        payload = {"group": GROUP, "points": [["inf", [2, 1]], [" Infinity ", 3]]}
        code, out, _ = run(capsys, ["invariant", "classify"], payload, tmp_path)
        assert code == 0
        assert [p["x"] for p in json.loads(out)["points"]] == ["inf", "inf"]


# The help and usage errors of `ctrace`, which builds the subcommands of the
# group it is given only: the exit code and the sha256 of stdout and of
# stderr, pinned as the parser that built every group printed them (the
# same on Python 3.10.13, 3.11.7, 3.12.1 and 3.13.0).  The keys are argv.
HELP_CASES = {
    "--help": (0, "b51bafb03a20989e", "e3b0c44298fc1c14"),
    "pw --help": (0, "eb84fafafdc717ea", "e3b0c44298fc1c14"),
    "block --help": (0, "d3fca21df1621fed", "e3b0c44298fc1c14"),
    "pattern --help": (0, "eacce4d3aad45c30", "e3b0c44298fc1c14"),
    "exist --help": (0, "7ca52d5dafde5b4d", "e3b0c44298fc1c14"),
    "invariant --help": (0, "ed955a88cb4f3350", "e3b0c44298fc1c14"),
    "unitary --help": (0, "3803b34abbb29982", "e3b0c44298fc1c14"),
    "pw eval --help": (0, "efb61f9bbec1f6c7", "e3b0c44298fc1c14"),
    "pw le --help": (0, "439e3754f17a1a56", "e3b0c44298fc1c14"),
    "pw norm --help": (0, "da2493df14f52856", "e3b0c44298fc1c14"),
    "block validate --help": (0, "ff3db4bdbd631e30", "e3b0c44298fc1c14"),
    "block from-nested --help": (0, "c524e5fb11e276cb", "e3b0c44298fc1c14"),
    "block to-nested --help": (0, "0cfcb2fbf245e954", "e3b0c44298fc1c14"),
    "pattern apply --help": (0, "115c0d5e620f645b", "e3b0c44298fc1c14"),
    "pattern push --help": (0, "e6bc058b666c22d9", "e3b0c44298fc1c14"),
    "pattern compat --help": (0, "17511b0375a126ea", "e3b0c44298fc1c14"),
    "pattern density --help": (0, "e213dee3e0c98b60", "e3b0c44298fc1c14"),
    "pattern gap --help": (0, "a9882c2cd2eadebd", "e3b0c44298fc1c14"),
    "pattern chain --help": (0, "548f58328e80a93c", "e3b0c44298fc1c14"),
    "pattern uniqhyp --help": (0, "dd909987e35e0c0e", "e3b0c44298fc1c14"),
    "exist fprime --help": (0, "6ee574ad74bbcda7", "e3b0c44298fc1c14"),
    "exist perturb --help": (0, "d40bcea189337669", "e3b0c44298fc1c14"),
    "exist verify --help": (0, "285a35f16ebccf1a", "e3b0c44298fc1c14"),
    "exist counterexample --help": (0, "81c1337294a956f2", "e3b0c44298fc1c14"),
    "invariant eval --help": (0, "cb878ffab24a9975", "e3b0c44298fc1c14"),
    "invariant range --help": (0, "80983556f6d13c17", "e3b0c44298fc1c14"),
    "invariant ai --help": (0, "59cd76b45e808ee1", "e3b0c44298fc1c14"),
    "invariant decompose --help": (0, "e0d7a96b8c40fe7a", "e3b0c44298fc1c14"),
    "invariant classify --help": (0, "43e71a3c65cf41da", "e3b0c44298fc1c14"),
    "unitary patch --help": (0, "6b1329481129a15d", "e3b0c44298fc1c14"),
    "unitary validate --help": (0, "97e2931d7c6fee68", "e3b0c44298fc1c14"),
    "frobnicate": (2, "e3b0c44298fc1c14", "deb05d45f0f83126"),
    "pw frobnicate": (2, "e3b0c44298fc1c14", "48307a7a50867a96"),
    "exist counterexample --eps0 1/5": (2, "e3b0c44298fc1c14", "2ef782b3af950caa"),
    "": (2, "e3b0c44298fc1c14", "93224397188d1b9d"),
    "pw": (2, "e3b0c44298fc1c14", "6a76e810119d37f7"),
}


@pytest.mark.parametrize("argv", list(HELP_CASES), ids=lambda argv: argv or "no-arguments")
def test_help_and_usage_errors_are_pinned(argv, capsys, monkeypatch):
    # argparse wraps its help at the terminal's width, which COLUMNS sets
    monkeypatch.setenv("COLUMNS", "80")
    code = main(argv.split())
    out = capsys.readouterr()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest()[:16] for text in (out.out, out.err))
    assert (code, *digests) == HELP_CASES[argv], out


def test_help_cases_cover_every_group_and_subcommand():
    helped = {tuple(argv.split()[:-1]) for argv in HELP_CASES if argv.endswith("--help")}
    assert helped == {(), *((group,) for group, _ in _HANDLERS), *_HANDLERS}
