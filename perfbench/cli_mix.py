"""The ``cli`` workload's payload mix: every one of the 24 handlers.

Each entry is one ``ctrace <group> <sub> <file>`` invocation with the
exit code the documented contract gives for its payload (0 verified,
1 refuted, 2 malformed, 3 infeasible, 4 not decidable).  Payloads are
built through the library's constructors and ``to_json`` from the seed.

``defect_entry`` is the known-defect payload: an evaluation point with a
zero denominator.  The contract asks for exit 2 and a message; the program
raises an uncaught ZeroDivisionError and exits 1 with a traceback.  It
is run once per run outside the timed mix and reported as
``cli.defect_fail_frac`` (failures per mix entry), so a fix shows as a
drop to 0 while the timed ops stay failure-free.

Left out: ``exist counterexample --delta 1/100000000`` does not finish
in usable time (its multiplicity search counts to 5*10^7 in Fractions
and then builds a pattern that large), so it cannot be timed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction as F

from ctrace.blocks import nested_from_dim
from ctrace.existence import make_underapprox, perturb_pattern
from ctrace.patterns import EigenPattern
from ctrace.pwcalc import PLFunction, StepFunction, frac_pair
from ctrace.unitary import patch_at_singularity

from gen import certify_instances, rand_lsc_int_step, rand_pl, rand_step, rng_for, unitary_path

OK, REFUTED, BAD_INPUT, INFEASIBLE, NOT_DECIDABLE = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Entry:
    id: str
    argv: tuple          # group, sub, options (the payload file is appended)
    payload: object      # JSON-able, or a str written verbatim
    expect: int
    floats: bool = False  # stdout carries float readings (unitary)

    def text(self) -> str:
        if isinstance(self.payload, str):
            return self.payload
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))


def _unit_pattern(rng, m, breaks=3):
    return EigenPattern(tuple(rand_pl(rng, breaks, 0, 1, den=16, grid=16) for _ in range(m)))


def build_mix(seed: int, size: str) -> list:
    r = lambda tag: rng_for(seed, "cli", tag)  # noqa: E731
    n = 12 if size == "smoke" else 40
    f_pl = rand_pl(r("f"), n, -2, 0)
    f_step = rand_step(r("fs"), n, -2, 0)
    g_step = rand_step(r("g"), n, 1, 3)
    w = rand_step(r("w"), n, F(1, 4), 3)
    d = rand_lsc_int_step(r("d"), 8, 1, 4, grid=32)
    pattern = _unit_pattern(r("p"), 4)
    top = 4 * 4
    d_b = rand_lsc_int_step(r("db"), 4, top + 1, top + 3, grid=32)
    f_small = PLFunction.constant(F(1, 2))
    spread = EigenPattern(tuple(PLFunction.constant(F(2 * i + 1, 16)) for i in range(8)))
    inst = next(i for i in certify_instances(seed, 1) if not i.identity and i.pattern.multiplicity == 4)
    cert = perturb_pattern(
        inst.d_a, make_underapprox(inst.d_a, inst.delta), inst.pattern, inst.d_b,
        inst.delta, [PLFunction.identity()], inst.eps, StepFunction.constant(1), inst.w_cod,
    ).to_json()
    tampered = json.loads(json.dumps(cert))
    tampered["eigen_facts"][0]["sup_distance"] = [1, 3]
    m_unit = 101 if size == "smoke" else 1001
    path = unitary_path(r("path"), m_unit)
    patched = patch_at_singularity(path).to_json()["samples"]
    nested = nested_from_dim(d)
    group_q = {"kind": "Q", "pairing": [[[1, 1]], [[2, 1]]]}
    group_z = {"kind": "qZ", "q": [1, 2], "pairing": [[[1, 1]], [[3, 2]]]}
    one = StepFunction.constant(1).to_json()

    def e(gs, payload, expect, floats=False, tag=""):
        return Entry("-".join(gs) + tag, tuple(gs), payload, expect, floats)

    entries = [
        e(("pw", "eval"), {"f": f_pl.to_json(), "t": [3, 7]}, OK),
        e(("pw", "eval"), [{"f": f_step.to_json(), "t": [k, 9]} for k in range(10)], OK, tag="-batch"),
        e(("pw", "le"), {"f": f_pl.to_json(), "g": g_step.to_json()}, OK),
        e(("pw", "le"), {"f": g_step.to_json(), "g": f_step.to_json()}, REFUTED, tag="-refuted"),
        e(("pw", "norm"), {"f": f_pl.to_json(), "w": w.to_json()}, OK),
        e(("block", "validate"), d.to_json(), OK),
        e(("block", "validate"), f_step.to_json(), REFUTED, tag="-invalid"),
        e(("block", "from-nested"), nested.to_json(), OK),
        e(("block", "to-nested"), d.to_json(), OK),
        e(("pattern", "apply"), {"pattern": pattern.to_json(), "f": f_pl.to_json()}, OK),
        e(("pattern", "push"), {"pattern": pattern.to_json(), "d": d.to_json()}, OK),
        e(("pattern", "compat"), {"pattern": pattern.to_json(), "f": f_pl.to_json(),
                                  "d_B": d_b.to_json()}, OK),
        e(("pattern", "compat"), {"pattern": pattern.to_json(), "f": PLFunction.constant(3).to_json(),
                                  "d_B": one}, REFUTED, tag="-refuted"),
        e(("pattern", "density"), {"pattern": spread.to_json(), "d": 4, "delta": [1, 8]}, OK),
        e(("pattern", "density"), {"pattern": EigenPattern.identities(3).to_json(), "d": 2,
                                   "delta": [1, 2]}, REFUTED, tag="-refuted"),
        e(("pattern", "gap"), {"pattern": pattern.to_json(), "d_src": d.to_json(),
                               "d_tgt": d_b.to_json()}, OK),
        e(("pattern", "gap"), {"pattern": pattern.to_json(), "d_src": d.to_json(),
                               "d_tgt": StepFunction.constant(2).to_json()}, REFUTED, tag="-refuted"),
        e(("pattern", "chain"), {
            "stages": [{"pattern": pattern.to_json(), "dim": d.to_json()}],
            "tau": _unit_pattern(r("tau"), 3).to_json(),
            "d_target": StepFunction.constant(int(d.max_value()) + 2).to_json(),
            "f": f_small.to_json(), "delta_1": [1, 4], "eps_n": [1, 8]}, OK),
        e(("pattern", "uniqhyp"), {"phi": spread.to_json(), "psi": spread.to_json(), "d": 4,
                                   "delta": [1, 8], "w_dom": w.to_json(), "w_cod": w.to_json()}, OK),
        e(("exist", "fprime"), {"d": inst.d_a.to_json(), "delta": frac_pair(inst.delta)}, OK),
        e(("exist", "perturb"), {
            "d_A": inst.d_a.to_json(), "pattern": inst.pattern.to_json(), "d_B": inst.d_b.to_json(),
            "delta": frac_pair(inst.delta), "eps": frac_pair(inst.eps),
            "test_elements": [PLFunction.identity().to_json()],
            "w_dom": one, "w_cod": inst.w_cod.to_json()}, OK),
        e(("exist", "perturb"), {
            "d_A": inst.d_a.to_json(), "pattern": inst.pattern.to_json(),
            "d_B": one,
            "delta": frac_pair(inst.delta), "eps": frac_pair(inst.eps),
            "w_dom": one, "w_cod": inst.w_cod.to_json()},
          INFEASIBLE, tag="-infeasible"),
        e(("exist", "verify"), cert, OK),
        e(("exist", "verify"), tampered, REFUTED, tag="-tampered"),
        Entry("exist-counterexample", ("exist", "counterexample", "--delta", "1/1000",
                                       "--eps0", "1/5"), None, OK),
        e(("invariant", "eval"), {"f": [[5, 2], "inf", [7, 3]], "s": [[1, 2], [0, 1], [1, 2]]}, OK),
        e(("invariant", "range"), {"group": group_q, "f": [[5, 2], [9, 2]], "x": [1, 1]}, OK),
        e(("invariant", "ai"), {"group": group_q, "simplex": {"k": 2}, "f": [[5, 2], [5, 1]]}, OK),
        e(("invariant", "ai"), {"group": {"kind": "Q", "pairing": [[[1, 1]], [[0, 1]]]},
                                "simplex": {"k": 2}, "f": [[5, 2], [5, 1]]},
          NOT_DECIDABLE, tag="-undecidable"),
        e(("invariant", "decompose"), {"f": [[5, 2], "inf", [7, 2]], "caps": [[5, 2], [3, 1], [4, 1]]}, OK),
        e(("invariant", "classify"), {"group": group_z, "points": [
            [[5, 2], [5, 2]], [[1, 1], [3, 1]], ["inf", [2, 1]]]}, OK),
        e(("unitary", "patch"), path.to_json(), OK, floats=True),
        e(("unitary", "validate"), {"path": path.to_json(), "unitaries": patched}, OK, floats=True),
        e(("pw", "eval"), {"f": f_pl.to_json()}, BAD_INPUT, tag="-missing-key"),
        e(("block", "validate"), {"kind": "pl", "points": []}, BAD_INPUT, tag="-wrong-kind"),
        e(("pattern", "gap"), '{"pattern": [', BAD_INPUT, tag="-not-json"),
    ]
    return entries


def defect_entry() -> Entry:
    return Entry("pw-eval-zero-denominator", ("pw", "eval"),
                 {"f": PLFunction.identity().to_json(), "t": [1, 0]}, BAD_INPUT)


def write_payloads(entries, workdir) -> list:
    """Write each payload to a file; returns the full argv tails."""
    argvs = []
    for i, ent in enumerate(entries):
        if ent.payload is None:
            argvs.append(list(ent.argv))
            continue
        path = workdir / f"{i:02d}-{ent.id}.json"
        path.write_text(ent.text(), encoding="utf-8")
        argvs.append(list(ent.argv) + [str(path)])
    return argvs


def float_readings(obj) -> list:
    """Every float in a parsed stdout, in document order."""
    if isinstance(obj, float):
        return [obj]
    if isinstance(obj, list):
        return [x for v in obj for x in float_readings(v)]
    if isinstance(obj, dict):
        return [x for k in sorted(obj) for x in float_readings(obj[k])]
    return []


def strip_floats(obj):
    if isinstance(obj, float):
        return None
    if isinstance(obj, list):
        return [strip_floats(v) for v in obj]
    if isinstance(obj, dict):
        return {k: strip_floats(v) for k, v in obj.items()}
    return obj
