"""Fuzz every payload handler of the command line, in-process through main().

Each case starts from one valid payload per handler, replaces one random
subtree (or drops one key) with random JSON -- non-objects, NaN and
Infinity tokens, huge integers, strings -- and runs the result alone and
as one entry of a batch of 1-3.  Whatever the payload, main() returns an
exit code in 0..4, no exception escapes, and stdout is exactly one JSON
line, except on exit 2 for a payload that is not an array, where stdout is
empty and stderr carries the message.  In a batch, the fuzzed entry's slot
holds what it gives alone, and the worst exit code wins.
"""

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ctrace.blocks import nested_from_dim
from ctrace.cli import _HANDLERS, BAD_INPUT, main
from ctrace.existence import make_underapprox, perturb_pattern, pinched_dimension_function
from ctrace.invariant import AiVerdict
from ctrace.patterns import EigenPattern, push_dimension
from ctrace.pwcalc import PLFunction, StepFunction, combine_steps, json_form
from ctrace.unitary import IsometryPath, patch_at_singularity

MAX_EXAMPLES = 30


def valid_payloads() -> dict:
    """One small payload per handler that reads one, each a valid input."""
    d = pinched_dimension_function()
    pl = PLFunction.from_pairs([(0, F(1, 4)), (F(1, 2), F(3, 4)), (1, F(1, 2))])
    one = StepFunction.constant(1).to_json()
    pattern = EigenPattern.identities(2)
    spread = EigenPattern((PLFunction.constant(F(1, 4)), PLFunction.constant(F(3, 4))))
    d_b = combine_steps([push_dimension(pattern, d)], lambda v: v + 1)
    w_cod = push_dimension(pattern, StepFunction.constant(1))
    cert = perturb_pattern(d, make_underapprox(d, F(1, 16)), pattern, d_b, F(1, 16),
                           [PLFunction.identity()], F(2), StepFunction.constant(1), w_cod)
    e11 = np.array([[1, 0], [0, 0]], dtype=complex)
    ts = np.linspace(0, 1, 5)
    path = IsometryPath(ts, [e11 if t <= 0.5 else np.eye(2) for t in ts], 0.5, 1e-9, 1.0)
    group = {"kind": "qZ", "q": [1, 2], "pairing": [[[1, 1]], [[3, 2]]]}
    return {
        ("pw", "eval"): {"f": pl.to_json(), "t": "1/3"},
        ("pw", "le"): {"f": pl.to_json(), "g": d.to_json(), "strict": True},
        ("pw", "norm"): {"f": pl.to_json(), "w": d.to_json()},
        ("block", "validate"): d.to_json(),
        ("block", "from-nested"): nested_from_dim(d).to_json(),
        ("block", "to-nested"): d.to_json(),
        ("pattern", "apply"): {"pattern": pattern.to_json(), "f": pl.to_json(),
                               "normalized": False},
        ("pattern", "push"): {"pattern": pattern.to_json(), "d": d.to_json()},
        ("pattern", "compat"): {"pattern": pattern.to_json(), "f": pl.to_json(),
                                "d_B": d_b.to_json(), "slack": [0, 1]},
        ("pattern", "density"): {"pattern": spread.to_json(), "d": 2, "delta": [1, 8]},
        ("pattern", "gap"): {"pattern": pattern.to_json(), "d_src": d.to_json(),
                             "d_tgt": d_b.to_json()},
        ("pattern", "chain"): {
            "stages": [{"pattern": EigenPattern.identities(1).to_json(),
                        "dim": StepFunction.constant(3).to_json()}],
            "tau": EigenPattern.identities(1).to_json(),
            "d_target": StepFunction.constant(3).to_json(),
            "f": PLFunction.constant(1).to_json(), "delta_1": [1, 1], "eps_n": [1, 2]},
        ("pattern", "uniqhyp"): {"phi": spread.to_json(), "psi": spread.to_json(), "d": 2,
                                 "delta": [1, 8], "w_dom": one, "w_cod": one},
        ("exist", "fprime"): {"d": d.to_json(), "delta": [1, 8]},
        ("exist", "perturb"): {
            "d_A": d.to_json(), "pattern": pattern.to_json(), "d_B": d_b.to_json(),
            "delta": [1, 16], "eps": [2, 1], "test_elements": [PLFunction.identity().to_json()],
            "w_dom": StepFunction.constant(1).to_json(), "w_cod": w_cod.to_json()},
        ("exist", "verify"): cert.to_json(),
        ("invariant", "eval"): {"f": [[5, 2], "inf"], "s": [[1, 2], [1, 2]]},
        ("invariant", "range"): {"group": group, "f": [[5, 2], [9, 2]], "x": [1, 1]},
        ("invariant", "ai"): {"group": group, "simplex": {"k": 2}, "f": [[5, 2], [5, 1]]},
        ("invariant", "decompose"): {"f": [[5, 2], "inf"], "caps": [[1, 1], [3, 1]]},
        ("invariant", "classify"): {"group": group,
                                    "points": [[[5, 2], [5, 2]], ["inf", [2, 1]]]},
        ("unitary", "patch"): path.to_json(),
        ("unitary", "validate"): {"path": path.to_json(),
                                  "unitaries": patch_at_singularity(path).to_json()["samples"]},
    }


PAYLOADS = valid_payloads()


def _keys(x) -> set:
    if isinstance(x, dict):
        return set(x).union(*map(_keys, x.values()))
    if isinstance(x, list):
        return set().union(*map(_keys, x))
    return set()


KEYS = sorted(set().union(*map(_keys, PAYLOADS.values())))

HUGE = st.sampled_from([10**400, -10**400, 2**64, 10**1000, 1 << 4000])
TOKENS = st.sampled_from(["inf", "1/0", "1e-10000000", "1/3", " -3/0 ", "0x10", "NaN",
                          "pl", "step", "Q", "qZ", "perturbation_certificate"])
leaves = st.one_of(st.none(), st.booleans(), st.integers(), HUGE, st.floats(),
                   st.text(max_size=6), TOKENS)
json_values = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)), kids,
                        max_size=4),
    ),
    max_leaves=8,
)

DROP = object()


def subtrees(x, at=()):
    """Paths to every subtree of a JSON value, the value itself first."""
    yield at
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield from subtrees(value, at + (key,))


def replaced(x, at, new):
    """A copy of x with the subtree at ``at`` replaced (or its key dropped)."""
    if not at:
        return new
    x = dict(x) if isinstance(x, dict) else list(x)
    if len(at) == 1 and new is DROP:
        del x[at[0]]
    else:
        x[at[0]] = replaced(x[at[0]], at[1:], new)
    return x


def call(argv, text):
    """main() on a payload read from stdin: (exit code, stdout, stderr)."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _no_constant(token):
    raise AssertionError(f"non-finite {token} on stdout")


def check(payload, code, out, err):
    """The contract on one run; the parsed stdout, or None if it is empty."""
    assert code in range(5)
    if code == BAD_INPUT and not isinstance(payload, list):
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n")
        assert "Traceback" not in err
        return None
    assert out.endswith("\n") and out.count("\n") == 1
    parsed = json.loads(out, parse_constant=_no_constant)
    if isinstance(payload, list):
        assert isinstance(parsed, list) and len(parsed) == len(payload)
    return parsed


def as_slot(code, out, err):
    """What a run gives as one batch slot."""
    if out:
        return json.loads(out)
    return {"error": "bad_input", "message": err[len("error: "):-1]}


@functools.lru_cache(maxsize=None)
def valid_run(argv):
    code, out, err = call(argv, json.dumps(PAYLOADS[argv]))
    assert code in (0, 1) and out, (argv, code, err)
    return code, json.loads(out)


def test_every_payload_handler_is_fuzzed():
    assert set(PAYLOADS) == {key for key, (_, reads) in _HANDLERS.items() if reads}
    assert len(PAYLOADS) == 23


# Exit code and sha256 prefix of each valid payload's stdout, as printed
# when every handler still wrote its result's keys out by hand: the bytes
# must not move.
STDOUT_DIGESTS = {
    ("block", "from-nested"): (0, "1dde6384c015afc8"),
    ("block", "to-nested"): (0, "adfc7affa9eb0b0b"),
    ("block", "validate"): (0, "293a1dc9ce158f53"),
    ("exist", "fprime"): (0, "5a026ede8f781383"),
    ("exist", "perturb"): (0, "e94e349acfdfc111"),
    ("exist", "verify"): (0, "185d969339ec7583"),
    ("invariant", "ai"): (1, "13ec621f9052c9a1"),
    ("invariant", "classify"): (0, "646e94a6ad2d1ff2"),
    ("invariant", "decompose"): (0, "de51cdabb87eb2ec"),
    ("invariant", "eval"): (0, "8e9dba8cfa107b9f"),
    ("invariant", "range"): (0, "42045c324bf14e7e"),
    ("pattern", "apply"): (0, "74560478f60045ec"),
    ("pattern", "chain"): (0, "0a18faea86548c65"),
    ("pattern", "compat"): (0, "1cd6a9b905e2cea2"),
    ("pattern", "density"): (0, "32fdb7d4822e5af5"),
    ("pattern", "gap"): (0, "c5a9ebaab9e41665"),
    ("pattern", "push"): (0, "64c2ddae4c718a1c"),
    ("pattern", "uniqhyp"): (0, "59d3a66ceac87990"),
    ("pw", "eval"): (0, "d514f911277d4ff8"),
    ("pw", "le"): (0, "1cd6a9b905e2cea2"),
    ("pw", "norm"): (0, "0a02a372c660c48f"),
    ("unitary", "patch"): (0, "fb25869a18677468"),
    ("unitary", "validate"): (0, "aade40de90f58b78"),
}


@pytest.mark.parametrize("argv", sorted(PAYLOADS), ids="-".join)
def test_valid_payload_stdout_is_pinned(argv):
    code, out, _ = call(argv, json.dumps(PAYLOADS[argv]))
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16]) == STDOUT_DIGESTS[argv], out


# The answer rule: an undecided `invariant ai` exits 4, and any other answer
# 0 when it is true and 1 when it is false; a plain dict is never empty, so
# it exits 0.
ANSWER_CASES = [
    *((argv, PAYLOADS[argv]) for argv in sorted(PAYLOADS)),
    (("invariant", "ai"), {"group": {"kind": "Q", "pairing": [[[1, 1]], [[0, 1]]]},
                           "simplex": {"k": 2}, "f": [[1, 1], [1, 1]]}),
    (("pattern", "gap"), {"pattern": EigenPattern.identities(6).to_json(),
                          "d_src": pinched_dimension_function().to_json(),
                          "d_tgt": StepFunction.constant(11).to_json()}),
]


@pytest.mark.parametrize("argv, payload", ANSWER_CASES,
                         ids=["-".join(argv) for argv, _ in ANSWER_CASES])
def test_exit_code_follows_the_answer(argv, payload):
    handler, _ = _HANDLERS[argv]
    answer = handler(json.loads(json.dumps(payload)), argparse.Namespace(plot=None))
    if getattr(answer, "verdict", None) is AiVerdict.NOT_DECIDABLE:
        expected = 4
    else:
        expected = 0 if answer else 1
    assert answer or not isinstance(answer, dict)
    code, out, _ = call(argv, json.dumps(payload))
    assert code == expected
    assert json.loads(out) == json_form(answer)


# Keys a handler reads with a default, with that default; every other key
# of a valid payload is required.  (`f_prime` of `exist perturb` and
# `require_positive` of `invariant range` are optional too, but no valid
# payload here carries them.)
OPTIONAL = {
    ("pw", "le"): {"strict": False},
    ("pattern", "apply"): {"normalized": False},
    ("pattern", "compat"): {"slack": [0, 1]},
    ("exist", "perturb"): {"test_elements": []},
    ("unitary", "patch"): {"tol": 1e-9, "lipschitz": 1.0},
}
# a function's or a certificate's kind is read with a default, and its
# absence is refused as a wrong kind
WRONG_KIND = {"error: not a step-function payload\n", "error: not a perturbation certificate\n"}
MISSING = [(argv, key) for argv in sorted(PAYLOADS) for key in sorted(PAYLOADS[argv])
           if isinstance(PAYLOADS[argv], dict)]


@pytest.mark.parametrize("argv, key", MISSING, ids=[f"{'-'.join(a)}-{k}" for a, k in MISSING])
def test_a_missing_key_is_named(argv, key):
    payload = dict(PAYLOADS[argv])
    del payload[key]
    code, out, err = call(argv, json.dumps(payload))
    defaults = OPTIONAL.get(argv, {})
    if key in defaults:
        with_default = call(argv, json.dumps(dict(payload, **{key: defaults[key]})))
        assert code != BAD_INPUT and (code, out, err) == with_default
        return
    assert (code, out) == (BAD_INPUT, "")
    if key == "kind":
        assert err in WRONG_KIND
        return
    assert err == f"error: missing field {key!r}\n"
    # in a batch, the entry that lacks the key gets the message in its own slot
    b_code, b_out, _ = call(argv, json.dumps([PAYLOADS[argv], payload]))
    assert b_code == BAD_INPUT
    assert json.loads(b_out) == [valid_run(argv)[1],
                                 {"error": "bad_input", "message": f"missing field {key!r}"}]


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _nested_cases():
    step = PAYLOADS["pw", "le"]["g"]
    ai, validate = PAYLOADS["invariant", "ai"], PAYLOADS["unitary", "validate"]
    chain, cert = PAYLOADS["pattern", "chain"], PAYLOADS["exist", "verify"]
    group, path = ai["group"], validate["path"]
    return [
        (("pw", "eval"), {"f": dict(step, pieces=[_without(step["pieces"][0], "lo"),
                                                  *step["pieces"][1:]]), "t": 0}, "lo"),
        (("invariant", "ai"), dict(ai, group=_without(group, "pairing")), "pairing"),
        (("invariant", "ai"), dict(ai, group=_without(group, "kind"), pairing=group["pairing"]),
         "kind"),
        (("invariant", "ai"), dict(ai, simplex={}), "k"),
        (("unitary", "validate"), dict(validate, path=_without(path, "samples")), "samples"),
        (("unitary", "validate"), dict(validate, path=_without(path, "t_jump")), "t_jump"),
        (("unitary", "patch"), dict(path, samples=[_without(path["samples"][0], "re"),
                                                   *path["samples"][1:]]), "re"),
        (("pattern", "chain"), dict(chain, stages=[_without(chain["stages"][0], "dim")]), "dim"),
        (("exist", "verify"), dict(cert, eigen_facts=[{}, *cert["eigen_facts"][1:]]),
         "sup_distance"),
    ]


NESTED = _nested_cases()


@pytest.mark.parametrize("argv, payload, key", NESTED,
                         ids=[f"{'-'.join(a)}-{k}" for a, _, k in NESTED])
def test_a_missing_nested_key_is_named(argv, payload, key):
    assert call(argv, json.dumps(payload)) == (BAD_INPUT, "", f"error: missing field {key!r}\n")


# The name a handler's payload is refused by when it is not a JSON object.
PAYLOAD_NAMES = {("block", "validate"): "a step function", ("block", "to-nested"): "a step function",
                 ("block", "from-nested"): "a nested presentation",
                 ("exist", "verify"): "a certificate", ("unitary", "patch"): "an isometry path"}


@pytest.mark.parametrize("argv", sorted(PAYLOADS), ids="-".join)
@pytest.mark.parametrize("payload, type_name", [
    pytest.param(5, "number", id="5-int"), pytest.param("x", "string", id="x-str"),
    pytest.param(None, "null", id="None-NoneType"), pytest.param(True, "boolean", id="True-bool"),
])
def test_a_payload_that_is_not_an_object_is_named(argv, payload, type_name):
    name = PAYLOAD_NAMES.get(argv, "a payload")
    message = f"{name} must be a JSON object, not {type_name}"
    assert call(argv, json.dumps(payload)) == (BAD_INPUT, "", f"error: {message}\n")
    code, out, _ = call(argv, json.dumps([payload]))
    assert (code, json.loads(out)) == (BAD_INPUT, [{"error": "bad_input", "message": message}])


@pytest.mark.parametrize("argv", sorted(PAYLOADS), ids="-".join)
@settings(max_examples=MAX_EXAMPLES, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_any_payload_gets_a_defined_answer(argv, data):
    valid = PAYLOADS[argv]
    at = data.draw(st.sampled_from(list(subtrees(valid))), label="at")
    new = data.draw(st.one_of(st.just(DROP), json_values) if at else json_values, label="new")
    payload = replaced(valid, at, new)
    code, out, err = call(argv, json.dumps(payload))
    check(payload, code, out, err)

    valid_code, valid_slot = valid_run(argv)
    n = data.draw(st.integers(1, 3), label="batch size")
    i = data.draw(st.integers(0, n - 1), label="fuzzed entry")
    batch = [valid] * i + [payload] + [valid] * (n - 1 - i)
    b_code, b_out, b_err = call(argv, json.dumps(batch))
    slots = check(batch, b_code, b_out, b_err)
    assert slots[:i] + slots[i + 1:] == [valid_slot] * (n - 1)
    if not isinstance(payload, list):
        assert slots[i] == as_slot(code, out, err)
        assert b_code == max(code, valid_code if n > 1 else 0)
