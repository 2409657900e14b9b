"""Command-line front end.

Loads JSON payloads (from a file argument or stdin), dispatches to the
library, and prints a deterministic JSON result: keys sorted, rationals
as reduced [numerator, denominator] pairs.

Exit codes: 0 when the answer is true, 1 when it is false (witness in
the JSON), 2 precondition or schema error, 3 infeasible perturbation,
4 not decidable.  A plain value (`pw eval`, `invariant eval`,
`decompose` and `classify`) is always true.

A payload that is a JSON array is treated as a batch of independent
per-interval instances: each entry is processed on its own into its own
result slot (a schema error or an infeasible entry gives an error object
there), the slots are printed as one array, and the worst exit code wins.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .errors import Infeasible
from .pwcalc import (
    PLFunction,
    StepFunction,
    frac,
    function_from_json,
    json_bool,
    json_entries,
    json_form,
    json_int,
    json_list,
    json_obj,
    json_pair,
    le_pointwise,
    weighted_sup_norm,
)

OK = 0
REFUTED = 1
BAD_INPUT = 2
INFEASIBLE = 3
NOT_DECIDABLE = 4

# Exceptions that mean the payload is malformed: exit 2 with a message.
# OverflowError comes from float() of a huge integer, RecursionError from
# json.load of deeply nested arrays.
SCHEMA_ERRORS = (ValueError, KeyError, TypeError, IndexError, OverflowError, RecursionError)

# Work limits: a payload of a few bytes must not ask for unbounded work.
MAX_NESTED_SETS = 1000   # open sets read by from-nested, or written by to-nested
MAX_BINS = 100           # subintervals d of pattern density and pattern uniqhyp


def _emit(line: str) -> None:
    """Print one line; a reader that has gone away is ignored."""
    try:
        sys.stdout.write(line)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at interpreter exit would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


class _PayloadObject(dict):
    """A JSON object of a payload: a field it lacks is refused by name."""

    def __missing__(self, key):
        raise ValueError(f"missing field {key!r}")


def _load_payload(args):
    if args.infile and args.infile != "-":
        with open(args.infile, "r", encoding="utf-8") as fh:
            return json.load(fh, object_hook=_PayloadObject)
    return json.load(sys.stdin, object_hook=_PayloadObject)


def _capped(what: str, value, cap: int):
    if value > cap:
        raise ValueError(f"{what} {value} exceeds the limit {cap}")
    return value


def _group(payload):
    from .invariant import GroupModel

    # the pairing matrix may sit beside the group object or inside it
    obj = json_obj(payload["group"], "group")
    if "pairing" in payload:
        obj = _PayloadObject(obj, pairing=payload["pairing"])
    return GroupModel.from_json(obj)


# --- handlers: each takes (payload, args) and returns the answer `_run` prints --
# Each imports what it uses from its own group's module, so a subcommand
# loads only that group's modules (and only `unitary` loads numpy).


def _pw_eval(payload, args):
    f = function_from_json(payload["f"])
    return {"value": f.eval(frac(payload["t"]))}


def _pw_le(payload, args):
    f = function_from_json(payload["f"])
    g = function_from_json(payload["g"])
    return le_pointwise(f, g, strict=json_bool(payload.get("strict", False), "strict"))


def _pw_norm(payload, args):
    return weighted_sup_norm(
        PLFunction.from_json(payload["f"]), StepFunction.from_json(payload["w"])
    )


def _block_validate(payload, args):
    from .blocks import validate_special

    return validate_special(StepFunction.from_json(payload))


def _block_from_nested(payload, args):
    from .blocks import NestedPresentation, dim_from_nested

    _capped("number of open sets", len(json_list(payload["opens"], "opens")), MAX_NESTED_SETS)
    return dim_from_nested(NestedPresentation.from_json(payload))


def _block_to_nested(payload, args):
    from .blocks import nested_from_dim

    d = StepFunction.from_json(payload)
    # a largest value v gives v - 1 open sets
    _capped("largest value", d.max_value(), MAX_NESTED_SETS + 1)
    return nested_from_dim(d)


def _pattern_apply(payload, args):
    from .patterns import EigenPattern, apply_pattern

    return apply_pattern(
        EigenPattern.from_json(payload["pattern"]),
        PLFunction.from_json(payload["f"]),
        normalized=json_bool(payload.get("normalized", False), "normalized"),
    )


def _pattern_push(payload, args):
    from .patterns import EigenPattern, push_dimension

    return push_dimension(
        EigenPattern.from_json(payload["pattern"]), StepFunction.from_json(payload["d"])
    )


def _pattern_compat(payload, args):
    from .patterns import EigenPattern, check_compat

    return check_compat(
        EigenPattern.from_json(payload["pattern"]),
        PLFunction.from_json(payload["f"]),
        StepFunction.from_json(payload["d_B"]),
        slack=frac(payload.get("slack", 0)),
    )


def _pattern_density(payload, args):
    from .patterns import EigenPattern, density_check

    return density_check(
        EigenPattern.from_json(payload["pattern"]),
        _capped("d", json_int(payload["d"], "d"), MAX_BINS),
        frac(payload["delta"]),
    )


def _pattern_gap(payload, args):
    from .patterns import EigenPattern, compute_gap

    return compute_gap(
        EigenPattern.from_json(payload["pattern"]),
        StepFunction.from_json(payload["d_src"]),
        StepFunction.from_json(payload["d_tgt"]),
    )


def _pattern_chain(payload, args):
    from .patterns import ChainStage, EigenPattern, verify_chain

    def stage(s):
        return ChainStage(EigenPattern.from_json(s["pattern"]), StepFunction.from_json(s["dim"]))

    return verify_chain(
        json_entries(payload, "stages", stage),
        EigenPattern.from_json(payload["tau"]),
        StepFunction.from_json(payload["d_target"]),
        PLFunction.from_json(payload["f"]),
        frac(payload["delta_1"]),
        frac(payload["eps_n"]),
    )


def _pattern_uniqhyp(payload, args):
    from .patterns import EigenPattern, uniqueness_hypothesis_check

    return uniqueness_hypothesis_check(
        EigenPattern.from_json(payload["phi"]),
        EigenPattern.from_json(payload["psi"]),
        _capped("d", json_int(payload["d"], "d"), MAX_BINS),
        frac(payload["delta"]),
        StepFunction.from_json(payload["w_dom"]),
        StepFunction.from_json(payload["w_cod"]),
    )


def _exist_fprime(payload, args):
    from .existence import make_underapprox

    return make_underapprox(StepFunction.from_json(payload["d"]), frac(payload["delta"]))


def _exist_perturb(payload, args):
    from .existence import make_underapprox, perturb_pattern
    from .patterns import EigenPattern

    d_a = StepFunction.from_json(payload["d_A"])
    delta = frac(payload["delta"])
    f_prime = (
        PLFunction.from_json(payload["f_prime"])
        if "f_prime" in payload
        else make_underapprox(d_a, delta)
    )
    return perturb_pattern(
        d_a,
        f_prime,
        EigenPattern.from_json(payload["pattern"]),
        StepFunction.from_json(payload["d_B"]),
        delta,
        json_entries(payload, "test_elements", PLFunction.from_json)
        if "test_elements" in payload else (),
        frac(payload["eps"]),
        StepFunction.from_json(payload["w_dom"]),
        StepFunction.from_json(payload["w_cod"]),
    )


def _exist_verify(payload, args):
    from .existence import PerturbationCertificate, verify_certificate

    return verify_certificate(PerturbationCertificate.from_json(payload))


def _exist_counterexample(payload, args):
    from .existence import reproduce_counterexample

    return reproduce_counterexample(frac(args.delta), frac(args.eps0))


def _invariant_eval(payload, args):
    from .invariant import TraceNormMap, trace_norm_eval

    f = TraceNormMap.from_json(payload["f"])
    return {"value": trace_norm_eval(f, [frac(c) for c in json_list(payload["s"], "s")])}


def _invariant_range(payload, args):
    from .invariant import TraceNormMap, dimension_range_membership

    return dimension_range_membership(
        _group(payload),
        TraceNormMap.from_json(payload["f"]),
        frac(payload["x"]),
        require_positive=json_bool(payload.get("require_positive", True), "require_positive"),
    )


def _invariant_ai(payload, args):
    from .invariant import SimplexModel, TraceNormMap, ai_criterion

    return ai_criterion(_group(payload),
                        SimplexModel.from_json(json_obj(payload["simplex"], "simplex")),
                        TraceNormMap.from_json(payload["f"]))


def _invariant_decompose(payload, args):
    from .invariant import TraceNormMap, lsc_decompose

    return {"parts": lsc_decompose(
        TraceNormMap.from_json(payload["f"]),
        [frac(c) for c in json_list(payload["caps"], "caps")],
    )}


def _invariant_classify(payload, args):
    from .invariant import classify_point, json_ext

    group = _group(payload)
    points = []
    for xy in json_list(payload["points"], "points"):
        x, y = (json_ext(c, "points") for c in json_pair(xy, "each entry of points"))
        points.append({"x": x, "y": y, "class": classify_point((x, y), group).value})
    if args.plot:
        args.plot.writelines("{x} {y} {class}\n".format_map(p) for p in points)
    return {"points": points}


def _unitary_patch(payload, args):
    from .unitary import IsometryPath, patch_at_singularity

    return patch_at_singularity(IsometryPath.from_json(payload))


def _unitary_validate(payload, args):
    from .unitary import IsometryPath, matrices_from_json, validate_unitary_path

    path = IsometryPath.from_json(json_obj(payload["path"], "path"))
    return validate_unitary_path(matrices_from_json(payload["unitaries"], "unitaries"), path)


# each handler, and the name of the JSON object its payload must be (None: it reads none)
_PAYLOAD = "a payload"

_HANDLERS = {
    ("pw", "eval"): (_pw_eval, _PAYLOAD),
    ("pw", "le"): (_pw_le, _PAYLOAD),
    ("pw", "norm"): (_pw_norm, _PAYLOAD),
    ("block", "validate"): (_block_validate, "a step function"),
    ("block", "from-nested"): (_block_from_nested, "a nested presentation"),
    ("block", "to-nested"): (_block_to_nested, "a step function"),
    ("pattern", "apply"): (_pattern_apply, _PAYLOAD),
    ("pattern", "push"): (_pattern_push, _PAYLOAD),
    ("pattern", "compat"): (_pattern_compat, _PAYLOAD),
    ("pattern", "density"): (_pattern_density, _PAYLOAD),
    ("pattern", "gap"): (_pattern_gap, _PAYLOAD),
    ("pattern", "chain"): (_pattern_chain, _PAYLOAD),
    ("pattern", "uniqhyp"): (_pattern_uniqhyp, _PAYLOAD),
    ("exist", "fprime"): (_exist_fprime, _PAYLOAD),
    ("exist", "perturb"): (_exist_perturb, _PAYLOAD),
    ("exist", "verify"): (_exist_verify, "a certificate"),
    ("exist", "counterexample"): (_exist_counterexample, None),
    ("invariant", "eval"): (_invariant_eval, _PAYLOAD),
    ("invariant", "range"): (_invariant_range, _PAYLOAD),
    ("invariant", "ai"): (_invariant_ai, _PAYLOAD),
    ("invariant", "decompose"): (_invariant_decompose, _PAYLOAD),
    ("invariant", "classify"): (_invariant_classify, _PAYLOAD),
    ("unitary", "patch"): (_unitary_patch, "an isometry path"),
    ("unitary", "validate"): (_unitary_validate, _PAYLOAD),
}


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser, with the subcommands of just the groups ``argv`` names."""
    parser = argparse.ArgumentParser(
        prog="ctrace",
        description="Exact step/piecewise-linear calculus, eigenvalue-pattern "
        "checks, perturbation certificates, invariant-range models, and "
        "unitary path patching.",
    )
    sub = parser.add_subparsers(dest="group_cmd", required=True)
    groups = {}
    for (group, name), (_, what) in _HANDLERS.items():
        if group not in groups:
            group_parser = sub.add_parser(group)
            # argparse picks a group by its exact name, so a group that
            # argv does not name is never parsed and needs no subcommands
            groups[group] = group_parser.add_subparsers(
                dest="sub_cmd", required=True) if group in argv else None
        if groups[group] is None:
            continue
        leaf = groups[group].add_parser(name)
        if what:
            leaf.add_argument("infile", nargs="?", default="-",
                              help="JSON payload file (default: stdin)")
        if (group, name) == ("exist", "counterexample"):
            leaf.add_argument("--delta", required=True, help="slack, as a/b")
            leaf.add_argument("--eps0", required=True,
                              help="perturbation budget in (0,1/4), as a/b")
        elif (group, name) == ("invariant", "classify"):
            leaf.add_argument("--plot-out", default=None, help="write 'x y class' rows here")
    return parser


def _dumps(result) -> str:
    # An exact result may hold integers longer than Python's int-to-str
    # limit (4300 digits by default): lift it for the output only, so that
    # json.load keeps it on input.  Pythons before 3.10.7 have no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # a non-finite float has no JSON form: refuse it rather than print NaN
        return json.dumps(result, sort_keys=True, separators=(",", ":"), allow_nan=False)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _run(handler, what, payload, args) -> tuple:
    """The JSON line and exit code of one payload's answer; infeasible is an answer."""
    try:
        answer = handler(payload if what is None else json_obj(payload, what), args)
    except Infeasible as exc:
        answer = {"error": "infeasible", "message": str(exc), "witness": exc.witness}
        code = INFEASIBLE
    else:
        # by value: AiVerdict is a str enum, and invariant is imported only by
        # its handlers; a plain dict answer is never empty, so it is true
        undecided = getattr(answer, "verdict", None) == "NOT_DECIDABLE"
        code = NOT_DECIDABLE if undecided else OK if answer else REFUTED
    return _dumps(json_form(answer)), code


def _run_entry(handler, what, entry, args) -> tuple:
    """One batch entry: a schema error fills its own slot."""
    try:
        return _run(handler, what, entry, args)
    except SCHEMA_ERRORS as exc:
        return _dumps({"error": "bad_input", "message": str(exc)}), BAD_INPUT


def main(argv=None) -> int:
    parser = build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else BAD_INPUT
        return OK if code == 0 else BAD_INPUT
    handler, what = _HANDLERS[(args.group_cmd, args.sub_cmd)]
    plot_out = getattr(args, "plot_out", None)
    try:
        payload = _load_payload(args) if what else None
        # one plot file for all entries of a batch, opened before any runs
        plot = open(plot_out, "w", encoding="utf-8") if plot_out else contextlib.nullcontext()
        with plot as args.plot:
            if isinstance(payload, list):
                slots = [_run_entry(handler, what, entry, args) for entry in payload]
                line = "[" + ",".join(text for text, _ in slots) + "]"
                code = max([OK, *(c for _, c in slots)])
            else:
                line, code = _run(handler, what, payload, args)
    except (OSError, *SCHEMA_ERRORS) as exc:
        # OSError: an unreadable payload file or an unwritable plot file
        sys.stderr.write(f"error: {exc}\n")
        return BAD_INPUT
    _emit(line)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
