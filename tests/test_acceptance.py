"""End-to-end acceptance gates.

One test per criterion; each prints a single PASS line on success (run
with ``pytest -v`` for per-criterion pass/fail lines, or ``-s`` to see
the prints).  Tolerances are pinned here: the exact criteria use zero
tolerance (rational equality), the numeric patching criterion uses 1e-9.
"""

import random
import time
from fractions import Fraction as F

import numpy as np

from ctrace.existence import (
    choose_delta,
    make_underapprox,
    perturb_pattern,
    reproduce_counterexample,
    verify_certificate,
)
from ctrace.invariant import (
    AiVerdict,
    GroupKind,
    GroupModel,
    SimplexModel,
    TraceNormMap,
    ai_criterion,
    lsc_decompose,
)
from ctrace.patterns import (
    ChainStage,
    EigenPattern,
    apply_pattern,
    check_compat,
    compute_gap,
    density_check,
    push_dimension,
    uniqueness_hypothesis_check,
    verify_chain,
)
from ctrace.pwcalc import (
    Interval,
    PLFunction,
    Piece,
    StepFunction,
    combine_steps,
    le_pointwise,
    weighted_sup_norm,
)
from ctrace.unitary import patch_at_singularity, validate_unitary_path

from helpers import (
    GRID,
    enumeration_sup,
    oracle_inf_diff,
    oracle_le,
    oracle_weighted_sup,
    rand_lsc_int_step,
    rand_pattern,
    rand_pl,
    rand_positive_step,
    rand_step,
    ref_density_check,
)
from test_unitary import constant_jump_path, smooth_path, E11, E12, E22, I2, SWAP


def report(cid, detail):
    print(f"ACCEPTANCE {cid}: PASS - {detail}")


def jump_up_step(t0=F(1, 2)):
    return StepFunction((
        Piece(Interval(0, t0, True, True), 1),
        Piece(Interval(t0, 1, False, True), 2),
    ))


def test_criterion_1_counterexample_reproduction():
    start = time.monotonic()
    rep = reproduce_counterexample(F(1, 10), F(1, 5))
    assert rep.multiplicity == 6
    assert rep.d_B_value == 11
    # slack hypothesis, exact: sum over the pattern is at most 12 <= 121/10
    d_b = StepFunction.constant(11)
    f = rep.f
    pattern = EigenPattern.identities(6)
    assert rep.hypothesis_ok
    assert check_compat(pattern, f, d_b, slack=F(1, 10))
    assert le_pointwise(apply_pattern(pattern, f), StepFunction.constant(12))
    assert F(12) <= F(121, 10)
    # infeasibility at t = 0, exact: 12 > 11
    assert rep.infeasible_ok
    assert rep.witness == 0
    assert rep.pushed_at_witness == 12
    assert rep.pushed_at_witness > rep.d_B_value
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"multiplicity 6, target 11, 12 <= 121/10 and 12 > 11 exact "
              f"({elapsed:.3f}s)")


def _random_perturbation_instance(rng):
    while True:
        d_a = rand_lsc_int_step(rng, max_jumps=3)
        if len(d_a.jumps()) > 5:
            continue
        m = rng.randint(1, 8)
        eps = F(rng.randint(1, 4), rng.choice([1, 2, 4]))
        delta = choose_delta(eps, m)
        try:
            f_prime = make_underapprox(d_a, delta)
        except ValueError:
            continue
        pattern = rand_pattern(rng, max_m=m)
        gap = rng.randint(1, 3)
        d_b = combine_steps([push_dimension(pattern, d_a)], lambda v: v + gap)
        w_dom = StepFunction.constant(1)
        w_cod = push_dimension(pattern, w_dom)
        return d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod


def test_criterion_2_existence_certificates():
    start = time.monotonic()
    rng = random.Random(20240901)
    one = StepFunction.constant(1)
    for _ in range(500):
        d_a, f_prime, pattern, d_b, delta, eps, w_dom, w_cod = (
            _random_perturbation_instance(rng)
        )
        cert = perturb_pattern(
            d_a, f_prime, pattern, d_b, delta, [PLFunction.identity()],
            eps, w_dom, w_cod,
        )
        assert verify_certificate(cert)
        for lam, lam_hat, fact in zip(
            cert.original.eigenfunctions, cert.perturbed.eigenfunctions,
            cert.eigen_facts,
        ):
            dist = weighted_sup_norm(lam_hat - lam, one).value
            assert dist == fact.sup_distance
            assert dist <= 2 * delta
    # identity-eigenfunction reproduction: the distance equals 2*delta
    m, eps = 4, F(1, 2)
    delta = choose_delta(eps, m)
    d_a = jump_up_step()
    pattern = EigenPattern.identities(m)
    cert = perturb_pattern(
        d_a, make_underapprox(d_a, delta), pattern,
        combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1),
        delta, [PLFunction.identity()], eps, one,
        push_dimension(pattern, one),
    )
    for fact in cert.eigen_facts:
        assert fact.sup_distance == 2 * delta
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(2, f"500 certificates verified, all moves <= 2*delta, identity "
              f"reproduction attains 2*delta exactly ({elapsed:.1f}s)")


def test_criterion_3_norm_chain_bound():
    one = StepFunction.constant(1)
    checked = 0
    # Lipschitz-1 elements of unit sup norm, as in the identity setting
    lipschitz_one = [
        PLFunction.identity(),
        PLFunction((0, 1), (1, 0)),
        PLFunction((0, F(1, 2), 1), (1, F(1, 2), 1)),
    ]
    for m in (1, 2, 3, 5, 8):
        eps = F(1, 2)
        delta = choose_delta(eps, m)
        d_a = jump_up_step()
        pattern = EigenPattern.identities(m)
        cert = perturb_pattern(
            d_a, make_underapprox(d_a, delta), pattern,
            combine_steps([push_dimension(pattern, d_a)], lambda v: v + 1),
            delta, lipschitz_one, eps, one, push_dimension(pattern, one),
        )
        for fact in cert.element_facts:
            assert fact.deviation <= 2 * delta * m * m
            checked += 1
    report(3, f"{checked} recorded deviations all within 2*delta*m^2 exactly")


def test_criterion_4_oracle_equivalence():
    rng = random.Random(777)
    start = time.monotonic()
    for i in range(1000):
        mk = lambda: rand_pl(rng) if rng.random() < 0.5 else rand_step(rng)
        f, g = mk(), mk()
        strict = rng.random() < 0.5
        res = le_pointwise(f, g, strict=strict)
        o_holds, _ = oracle_le(f, g, strict=strict, grid=GRID)
        assert res.holds == o_holds
        if not res.holds:
            lhs, rhs = f.eval(res.witness), g.eval(res.witness)
            assert lhs > rhs or (strict and lhs == rhs)

        h, w = rand_pl(rng), rand_positive_step(rng)
        sup = weighted_sup_norm(h, w)
        assert sup.value == oracle_weighted_sup(h, w, grid=GRID)
        if sup.attained:
            assert abs(h.eval(sup.at)) / w.eval(sup.at) == sup.value

        pattern = rand_pattern(rng, max_m=3, max_breaks=2)
        d_src = rand_lsc_int_step(rng, max_jumps=2)
        d_tgt = rand_lsc_int_step(rng, max_jumps=2, vmax=8)
        rep = compute_gap(pattern, d_src, d_tgt)
        pushed = push_dimension(pattern, d_src)
        assert rep.gap == oracle_inf_diff(d_tgt, pushed, grid=GRID)
        assert d_tgt.eval(rep.at) - pushed.eval(rep.at) == rep.gap
    elapsed = time.monotonic() - start
    report(4, f"1000 instances x (le, sup-norm, gap) agree with the "
              f"{GRID}-sample oracle exactly ({elapsed:.1f}s)")


def test_criterion_5_gap_lemma_semantics():
    rng = random.Random(555)
    # unit ideal margin always yields gap >= 1
    for _ in range(100):
        pattern = rand_pattern(rng, max_m=4)
        d = rand_lsc_int_step(rng, max_jumps=3)
        target = combine_steps([push_dimension(pattern, d)], lambda v: v + 1)
        assert compute_gap(pattern, d, target).gap >= 1
    # the chain conclusion is derived whenever eps_n <= delta_1
    verified = 0
    for _ in range(50):
        d1 = rand_lsc_int_step(rng, max_jumps=2)
        stage = ChainStage(rand_pattern(rng, max_m=3), d1)
        tau = rand_pattern(rng, max_m=3)
        f = PLFunction.constant(F(1, 2))
        delta_1 = F(rng.randint(1, 4), 4)
        eps_n = delta_1 / rng.randint(1, 3)
        bound = int(d1.max_value()) + 2
        rep = verify_chain(
            [stage], tau, StepFunction.constant(bound), f, delta_1, eps_n
        )
        assert rep.verified
        assert rep.margin > 0
        verified += 1
    # touching instance is refused with the witness point
    rep = verify_chain(
        [ChainStage(EigenPattern.identities(2), StepFunction.constant(1))],
        EigenPattern.identities(1),
        StepFunction.constant(1),
        PLFunction.identity(),
        F(1, 8), F(1, 8),
    )
    assert not rep.verified
    assert rep.witness == 1
    report(5, f"100 unit-margin gaps >= 1, {verified} chains concluded "
              "strictly, touching instance refused at t=1")


def test_criterion_6_invariant_computations():
    f = TraceNormMap((F(5, 2),))
    simplex = SimplexModel(1)
    q_group = GroupModel(GroupKind.DENSE_RATIONALS, (F(1),))
    z_group = GroupModel(GroupKind.SCALED_INTEGERS, (F(1),), F(1))
    rep_q = ai_criterion(q_group, simplex, f)
    rep_z = ai_criterion(z_group, simplex, f)
    assert rep_q.verdict is AiVerdict.AI
    assert rep_z.verdict is AiVerdict.NOT_AI
    assert rep_z.per_vertex[0].sup == 2
    # brute-force enumeration agreement up to denominator 10^4
    assert enumeration_sup(z_group, f, 0) == 2
    enum_q = enumeration_sup(q_group, f, 0)
    assert enum_q <= rep_q.per_vertex[0].sup <= enum_q + F(1, 10**4)
    # capped decompositions: exact partial sums, monotone increasing
    rng = random.Random(99)
    for _ in range(100):
        k = rng.randint(1, 4)
        vals = tuple(
            "inf" if rng.random() < 0.25
            else F(rng.randint(1, 12), rng.choice([1, 2, 4]))
            for _ in range(k)
        )
        tn = TraceNormMap(vals)
        mn = tn.min_finite()
        caps = [mn if mn is not None else F(1)]
        for _ in range(rng.randint(0, 4)):
            caps.append(caps[-1] + F(rng.randint(1, 5), rng.choice([1, 2])))
        parts = lsc_decompose(tn, caps)
        prev = [F(0)] * k
        for c, part in zip(caps, parts):
            assert all(g >= 0 for g in part)
            cur = [a + b for a, b in zip(prev, part)]
            assert cur == [
                v if (v != "inf" and v != float("inf") and v <= c) else c
                for v in tn.vertex_values
            ]
            assert all(a >= b for a, b in zip(cur, prev))
            prev = cur
    report(6, "AI over Q at 5/2, refuted over Z (sup 2), enumeration to "
              "denominator 10^4 agrees; 100 capped decompositions exact")


def test_criterion_7_unitary_patching():
    start = time.monotonic()
    theta = 1.1
    paths = [
        constant_jump_path(E11, I2),
        constant_jump_path(E12, SWAP),
        constant_jump_path(E11, E11 + np.exp(1j * theta) * E22),
    ]
    for path in paths:
        res = patch_at_singularity(path)
        rep = validate_unitary_path(res.unitaries, path)
        assert rep.max_unitarity_defect <= 1e-9
        assert rep.max_action_mismatch <= 1e-9
        assert rep.ok
    coarse = smooth_path(101)
    fine = smooth_path(201)
    rep_c = validate_unitary_path(patch_at_singularity(coarse).unitaries, coarse)
    rep_f = validate_unitary_path(patch_at_singularity(fine).unitaries, fine)
    ratio = rep_f.max_continuity_jump / rep_c.max_continuity_jump
    assert 0.4 <= ratio <= 0.6
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(7, f"three example paths within 1e-9; refinement ratio "
              f"{ratio:.3f} in [0.4, 0.6] ({elapsed:.2f}s)")


def test_criterion_8_balanced_invariance():
    rng = random.Random(4242)
    flips = 0
    for _ in range(200):
        phi = rand_pattern(rng, max_m=4, max_breaks=2)
        psi = rand_pattern(rng, max_m=4, max_breaks=2)
        d = rng.choice([1, 2])
        delta = F(1, rng.randint(d, 4 * d))
        w_dom = rand_positive_step(rng, max_cuts=2)
        w_cod = rand_positive_step(rng, max_cuts=2)
        base = uniqueness_hypothesis_check(phi, psi, d, delta, w_dom, w_cod)
        for kappa in (F(1, 3), F(2), F(7)):
            scaled = uniqueness_hypothesis_check(
                phi, psi, d, delta, w_dom.scale(kappa), w_cod.scale(kappa)
            )
            if scaled.holds != base.holds:
                flips += 1
    assert flips == 0
    report(8, "200 instances x kappa in {1/3, 2, 7}: verdicts unchanged")


def distinct_lines(d):
    """d constants at the bin centres and d distinct falling lines from
    (0, 1) to (1, j/(2d+1)): each line crosses about half the cuts, so the
    pushes have about d^2 points between them."""
    centres = [PLFunction.constant(F(2 * j + 1, 2 * d)) for j in range(d)]
    lines = [PLFunction((0, 1), (1, F(j, 2 * d + 1))) for j in range(1, d + 1)]
    return EigenPattern(tuple(centres + lines))


def test_density_check_at_d_200():
    small = distinct_lines(25)
    for delta in (F(1, 50), F(1, 25)):
        assert density_check(small, 25, delta) == ref_density_check(small, 25, delta)
    pattern = distinct_lines(200)
    start = time.monotonic()
    res = density_check(pattern, 200, F(1, 400))
    elapsed = time.monotonic() - start
    assert res.holds
    assert elapsed < 1.0
    report("density", f"d = 200 bins, 400 eigenfunctions in one event sweep ({elapsed:.3f}s)")
