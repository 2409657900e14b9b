"""The in-process workloads: ``certify``, ``refine`` and ``unitary``.

Each ``*_ops`` function returns a list of :class:`Op`.  An op is one call (or one
pipeline) into the library's public API; its ``check`` re-derives the
answer independently of the call where possible and returns a failure
reason or ``None``.  Its ``summary`` splits the output into an exact
part, whose digest is pinned for the default seed, and float readings
compared to a tolerance (only ``unitary`` has any).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

from ctrace.blocks import validate_special
from ctrace.existence import (
    PerturbationCertificate,
    make_underapprox,
    perturb_pattern,
    verify_certificate,
)
from ctrace.patterns import EigenPattern, compute_gap
from ctrace.pwcalc import (
    PLFunction,
    Piece,
    StepFunction,
    combine_steps,
    compose_pl,
    compose_step_pl,
    inf_difference,
    is_lsc,
    le_pointwise,
    linear_combine,
    weighted_sup_norm,
)
from ctrace.unitary import patch_at_singularity, validate_unitary_path

from gen import (
    certify_instances,
    rand_lsc_int_step,
    rand_pl,
    rand_step,
    rng_for,
    sample_points,
    unitary_path,
    zigzag,
)

ACCURACY = 1e-9


def plain_summary(out) -> dict:
    return {"exact": to_plain(out), "floats": []}


@dataclass
class Op:
    id: str
    run: Callable[[], object]
    check: Callable[[object], object]
    # {"exact": JSON-able output, "floats": readings compared to a tolerance}
    summary: Callable[[object], dict] = plain_summary
    samples: int = 0          # unitary path samples handled by the op
    kernel: str = ""          # refine: metric stem of the kernel
    n: int = 0                # refine: input size


def to_plain(obj):
    """JSON-able form of a library result: Fractions as [num, den] pairs."""
    if isinstance(obj, F):
        return [obj.numerator, obj.denominator]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (list, tuple)):
        return [to_plain(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if dataclasses.is_dataclass(obj):
        return {f.name: to_plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    raise TypeError(f"no plain form for {type(obj).__name__}")


def digest(plain) -> str:
    text = json.dumps(plain, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def max_int_bits(plain) -> int:
    """Largest bit length of any integer (numerator or denominator) in a plain output."""
    if isinstance(plain, bool):
        return 0
    if isinstance(plain, int):
        return abs(plain).bit_length()
    if isinstance(plain, list):
        return max((max_int_bits(x) for x in plain), default=0)
    if isinstance(plain, dict):
        return max((max_int_bits(x) for x in plain.values()), default=0)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

IDENTITY = PLFunction.identity()


def certify_op(inst, idx: int) -> Op:
    def run():
        gap = compute_gap(inst.pattern, inst.d_a, inst.d_b)
        f_prime = make_underapprox(inst.d_a, inst.delta)
        cert = perturb_pattern(
            inst.d_a, f_prime, inst.pattern, inst.d_b, inst.delta, [IDENTITY],
            inst.eps, StepFunction.constant(1), inst.w_cod,
        )
        text = json.dumps(cert.to_json(), sort_keys=True, separators=(",", ":"))
        back = PerturbationCertificate.from_json(json.loads(text))
        return {"gap": gap, "cert": text, "back": back, "check": verify_certificate(back)}

    def check(out):
        if not out["check"].ok:
            return "certificate does not re-verify"
        back = out["back"]
        if json.dumps(back.to_json(), sort_keys=True, separators=(",", ":")) != out["cert"]:
            return "certificate JSON round trip changed it"
        if any(e.sup_distance > 2 * inst.delta for e in back.eigen_facts):
            return "an eigenfunction moved by more than 2*delta"
        gap = out["gap"]
        lam = inst.pattern.eigenfunctions
        at_value = inst.d_b.eval(gap.at) - sum(inst.d_a.eval(x.eval(gap.at)) for x in lam)
        if gap.attained and at_value != gap.gap:
            return "gap differs from the value at its reported point"
        for t in sample_points([inst.d_b]):
            if inst.d_b.eval(t) - sum(inst.d_a.eval(x.eval(t)) for x in lam) < gap.gap:
                return f"gap is not a lower bound at t={t}"
        if not gap.gap > 0:
            return "feasible instance reported a nonpositive gap"
        return None

    def summary(out):
        exact = {"gap": out["gap"].to_json(), "cert": json.loads(out["cert"]),
                 "check": out["check"].to_json()}
        return {"exact": exact, "floats": []}

    return Op(f"certify/{idx}", run, check, summary)


def certify_ops(seed: int, size: str) -> list:
    blocks = 1 if size == "smoke" else 2
    return [certify_op(inst, i) for i, inst in enumerate(certify_instances(seed, blocks))]


# ---------------------------------------------------------------------------
# refine
# ---------------------------------------------------------------------------

# Size ladders.  The timed runs use the first three sizes; the traced run
# adds the fourth, untraced, for the growth slopes.  compose_pl's output
# grows as ~n^2 and compute_gap pushes through three compositions, so
# theirs are smaller.
REFINE_N = {"full": (50, 100, 200, 400), "smoke": (5, 10, 20, 40)}
COMPOSE_PL_N = {"full": (25, 50, 100, 200), "smoke": (3, 5, 10, 20)}
COMPUTE_GAP_N = {"full": (12, 25, 50, 100), "smoke": (3, 5, 10, 20)}


def _fails_at(points, pred):
    for t in points:
        if not pred(t):
            return f"output disagrees with the inputs at t={t}"
    return None


def _extremum_check(res, h, points, lower_bound: bool):
    """An attained extremum equals h at its point; it bounds h at the probes."""
    if res.attained and h(res.at) != res.value:
        return "attained extremum differs from the value at its point"
    if lower_bound:
        return _fails_at(points, lambda t: res.value <= h(t))
    return _fails_at(points, lambda t: res.value >= h(t))


def _refine_case(seed, stem, n):
    """(run, check) for one refine kernel at size n."""

    def r(*tags):
        return rng_for(seed, "refine", n, *tags)

    def le_step():
        f, g = rand_step(r("le_step"), n, -2, 0), rand_step(r("le_step_g"), n, 1, 3)
        return (lambda: le_pointwise(f, g)), (lambda res: None if res.holds else "pair built to hold was refuted")

    def le_pl():
        f, g = rand_pl(r("le_pl"), n, -2, 0), rand_step(r("le_pl_g"), n, 1, 3)
        return (lambda: le_pointwise(f, g)), (lambda res: None if res.holds else "pair built to hold was refuted")

    def le_late():
        rng = r("le_late")
        base = rand_step(rng, n, -2, 0)
        g = rand_step(r("le_late_g"), n, 1, 3)
        # the last open piece rises above g: every point and all but the
        # last cell pass, so the whole refinement is scanned
        pieces = list(base.pieces)
        last_open = max(i for i, p in enumerate(pieces) if not p.interval.is_point)
        pieces[last_open] = Piece(pieces[last_open].interval, F(4))
        f = StepFunction(tuple(pieces))

        def check(res):
            if res.holds:
                return "late violation was missed"
            return None if f.eval(res.witness) > g.eval(res.witness) else "witness is not a violation"
        return (lambda: le_pointwise(f, g)), check

    def inf_diff():
        upper, lower = rand_step(r("inf_u"), n, 0, 3), rand_pl(r("inf_l"), n, -1, 2)
        pts = sample_points([upper, lower])
        return (lambda: inf_difference(upper, lower)), (
            lambda res: _extremum_check(res, lambda t: upper.eval(t) - lower.eval(t), pts, True))

    def wsup():
        f, w = rand_pl(r("wsup_f"), n, -2, 2), rand_step(r("wsup_w"), n, F(1, 4), 3)
        pts = sample_points([f, w])
        return (lambda: weighted_sup_norm(f, w)), (
            lambda res: _extremum_check(res, lambda t: abs(f.eval(t)) / w.eval(t), pts, False))

    def jumps():
        d = rand_step(r("jumps"), n, 0, 3)
        tiny = F(1, 10**7)

        def check(res):
            for j in res[:: max(1, len(res) // 32)]:
                if d.eval(j.t) != j.value:
                    return "jump value differs from the value at its point"
                left = d.eval(j.t - tiny) if j.t > 0 else None
                right = d.eval(j.t + tiny) if j.t < 1 else None
                if (left, right) != (j.left, j.right):
                    return "jump limits differ from nearby values"
            return None
        return (lambda: d.jumps()), check

    def lsc():
        d = rand_lsc_int_step(r("lsc"), n, 1, 5)
        return (lambda: is_lsc(d)), (lambda res: None if res.holds else "lsc function refuted")

    def combine():
        a, b = rand_step(r("comb_a"), n, 0, 3), rand_step(r("comb_b"), n, 0, 3)
        pts = sample_points([a, b])
        return (lambda: combine_steps([a, b], max)), (
            lambda res: _fails_at(pts, lambda t: res.eval(t) == max(a.eval(t), b.eval(t))))

    def compose_step():
        d = rand_lsc_int_step(r("cstep_d"), n, 1, 5)
        g = zigzag(r("cstep_g"), 4)
        pts = sample_points([g])
        return (lambda: compose_step_pl(d, g)), (
            lambda res: _fails_at(pts, lambda t: res.eval(t) == d.eval(g.eval(t))))

    def lincomb():
        fns = [rand_pl(r("lin", i), n, -1, 1) for i in range(3)]
        cs = [F(1, 2), F(1, 3), F(-2)]
        pts = sample_points(fns)
        return (lambda: linear_combine(cs, fns)), (
            lambda res: _fails_at(pts, lambda t: res.eval(t) == sum(c * f.eval(t) for c, f in zip(cs, fns))))

    def valid():
        d = rand_lsc_int_step(r("valid"), n, 1, 5)
        return (lambda: validate_special(d)), (lambda res: None if res.valid else "valid dimension function rejected")

    def gap():
        rng = r("gap")
        pattern = EigenPattern(tuple(zigzag(rng, 2) for _ in range(3)))
        d_src = rand_lsc_int_step(r("gap_src"), n, 1, 5)
        d_tgt = rand_lsc_int_step(r("gap_tgt"), n, 16, 20)
        lam = pattern.eigenfunctions
        pts = sample_points([d_tgt])

        def h(t):
            return d_tgt.eval(t) - sum(d_src.eval(x.eval(t)) for x in lam)

        def check(res):
            if res.attained and h(res.at) != res.gap:
                return "gap differs from the value at its reported point"
            return _fails_at(pts, lambda t: res.gap <= h(t))
        return (lambda: compute_gap(pattern, d_src, d_tgt)), check

    def compose():
        f, g = rand_pl(r("cpl_f"), n, -1, 2), rand_pl(r("cpl_g"), n, 0, 1)
        pts = sample_points([g])
        return (lambda: compose_pl(f, g)), (
            lambda res: _fails_at(pts, lambda t: res.eval(t) == f.eval(g.eval(t))))

    return {
        "pwcalc.le_pointwise": le_step,
        "pwcalc.le_pointwise_pl": le_pl,
        "pwcalc.le_pointwise_late": le_late,
        "pwcalc.inf_difference": inf_diff,
        "pwcalc.weighted_sup_norm": wsup,
        "pwcalc.jumps": jumps,
        "pwcalc.is_lsc": lsc,
        "pwcalc.combine_steps": combine,
        "pwcalc.compose_step_pl": compose_step,
        "pwcalc.linear_combine": lincomb,
        "blocks.validate_special": valid,
        "patterns.compute_gap": gap,
        "pwcalc.compose_pl": compose,
    }[stem]()


REFINE_KERNELS = (
    "pwcalc.le_pointwise", "pwcalc.le_pointwise_pl", "pwcalc.le_pointwise_late",
    "pwcalc.inf_difference", "pwcalc.weighted_sup_norm", "pwcalc.jumps",
    "pwcalc.is_lsc", "pwcalc.combine_steps", "pwcalc.compose_step_pl",
    "pwcalc.linear_combine", "blocks.validate_special", "patterns.compute_gap",
    "pwcalc.compose_pl",
)
LADDERS = {"pwcalc.compose_pl": COMPOSE_PL_N, "patterns.compute_gap": COMPUTE_GAP_N}


def ladder(stem: str, size: str) -> tuple:
    return LADDERS.get(stem, REFINE_N)[size]


def refine_ops(seed: int, size: str, rungs=range(3)) -> list:
    """Every kernel at the given rungs of its size ladder, smallest first."""
    ops = []
    for i in rungs:
        for stem in REFINE_KERNELS:
            n = ladder(stem, size)[i]
            run, check = _refine_case(seed, stem, n)
            ops.append(Op(f"refine/{stem}/n{n}", run, check, kernel=stem, n=n))
    return ops


# ---------------------------------------------------------------------------
# unitary
# ---------------------------------------------------------------------------

UNITARY_PATHS = {"full": 30, "smoke": 12}
UNITARY_M = {"full": 1001, "smoke": 101}
UNITARY_SWEEP = {"full": (10001, 100001), "smoke": (1001, 2001)}
PROBE_POINTS = 9


def unitary_op(path, idx: int) -> Op:
    m = len(path.ts)

    def run():
        res = patch_at_singularity(path)
        return res, validate_unitary_path(res.unitaries, path)

    def check(out):
        res, rep = out
        if not rep.ok:
            return "validate_unitary_path reports ok=false"
        if rep.max_unitarity_defect > ACCURACY or rep.max_action_mismatch > ACCURACY:
            return "unitarity or action defect above 1e-9"
        if res.phase_residual > ACCURACY:
            return "phase residual above 1e-9"
        if abs(abs(res.c) - 1.0) > 1e-12:
            return "patch constant is not unimodular"
        if res.jump_index != path.jump_index or path.ts[res.jump_index] != path.t_jump:
            return "jump is not on a sample"
        return None

    return Op(f"unitary/{idx}/m{m}", run, check, unitary_summary, samples=m)


def unitary_summary(out) -> dict:
    """Exact structure plus float readings at evenly spaced samples."""
    res, rep = out
    m = len(res.ts)
    idx = [round(k * (m - 1) / (PROBE_POINTS - 1)) for k in range(PROBE_POINTS)]
    floats = [res.c.real, res.c.imag, rep.max_continuity_jump]
    for i in idx:
        floats.extend(float(x) for x in res.unitaries[i].view(float).ravel())
    exact = {"m": m, "jump_index": res.jump_index, "ok": rep.ok}
    # accuracy readings are checked against 1e-9 and never compared to pins
    accuracy = {"max_unitarity_defect": rep.max_unitarity_defect,
                "phase_residual": res.phase_residual}
    return {"exact": exact, "floats": floats, "accuracy": accuracy}


def unitary_ops(seed: int, size: str) -> list:
    """Paths of 10^3+1 samples; every one costs about the same."""
    m = UNITARY_M[size]
    return [unitary_op(unitary_path(rng_for(seed, "unitary", i), m), i)
            for i in range(UNITARY_PATHS[size])]


def unitary_sweep_ops(seed: int, size: str) -> list:
    """One path each of 10^4+1 and 10^5+1 samples (about 2 s and 20 s),
    run once per traced run."""
    return [unitary_op(unitary_path(rng_for(seed, "unitary", "sweep", m), m), f"sweep{m}")
            for m in UNITARY_SWEEP[size]]
