"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its ``random.Random`` (or seed
string), so one seed always yields the same inputs.  Inputs are built
through the library's public constructors; nothing is imported from the
repository's test suite, so editing a test cannot change a workload.

Rationals are drawn from small fixed grids (breakpoints at k/(8n),
values at multiples of 1/4 or 1/8) so that denominators do not differ
from seed to seed and timings stay comparable across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F

import numpy as np

from ctrace.existence import choose_delta
from ctrace.patterns import EigenPattern
from ctrace.pwcalc import PLFunction, StepFunction
from ctrace.unitary import IsometryPath

ZERO, ONE = F(0), F(1)


def rng_for(seed: int, *tags) -> random.Random:
    """An independent stream per (seed, tags); string seeds are stable across runs."""
    return random.Random("-".join(str(x) for x in (seed,) + tags))


def grid_points(rng: random.Random, n: int, grid: int) -> list:
    """0, 1 and n-1 distinct interior points k/grid, sorted."""
    ks = sorted(rng.sample(range(1, grid), n - 1))
    return [ZERO] + [F(k, grid) for k in ks] + [ONE]


def rand_value(rng: random.Random, lo, hi, den: int) -> F:
    return F(rng.randint(math.ceil(lo * den), math.floor(hi * den)), den)


def rand_step(rng, n, lo, hi, den=4, grid=None) -> StepFunction:
    """Step function with n open pieces (and n+1 point pieces) valued in [lo, hi]."""
    pts = grid_points(rng, n, grid or 8 * n)
    point_vals = [rand_value(rng, lo, hi, den) for _ in pts]
    open_vals = [rand_value(rng, lo, hi, den) for _ in pts[1:]]
    return StepFunction.from_profile(pts, point_vals, open_vals)


def rand_pl(rng, n, lo, hi, den=8, grid=None) -> PLFunction:
    """Piecewise-linear function with n segments valued in [lo, hi]."""
    pts = grid_points(rng, n, grid or 8 * n)
    return PLFunction(tuple(pts), tuple(rand_value(rng, lo, hi, den) for _ in pts))


def zigzag(rng, n, grid=16) -> PLFunction:
    """A map [0,1] -> [0,1] of n pieces, each sweeping all of [0,1] (up or
    down), with seeded breakpoints.  Each piece takes every value once, so
    the number of preimages it produces, which sets the cost of composing
    with it, does not depend on the seed."""
    pts = grid_points(rng, n, grid)
    first = rng.randint(0, 1)
    return PLFunction(tuple(pts), tuple(F((first + i) % 2) for i in range(len(pts))))


def lsc_profile(rng, open_vals, pinch=0.3) -> list:
    """Point values that never exceed a neighbouring open value (so the
    function is lower semicontinuous), sometimes dipping below both."""
    out = []
    for i in range(len(open_vals) + 1):
        cap = min(open_vals[max(i - 1, 0):i + 1])
        lo = min(open_vals)
        out.append(F(rng.randint(int(lo), int(cap))) if rng.random() < pinch else cap)
    return out


def rand_lsc_int_step(rng, n, vmin, vmax, grid=None, pinch=0.3) -> StepFunction:
    """Valid dimension function: lsc, integer valued, values in [vmin, vmax]."""
    pts = grid_points(rng, n, grid or 8 * n)
    open_vals = [F(rng.randint(vmin, vmax)) for _ in pts[1:]]
    return StepFunction.from_profile(pts, lsc_profile(rng, open_vals, pinch), open_vals)


def sample_points(fns, k=16) -> list:
    """Fixed probe points for output checks: 0, 1, the odd multiples of
    1/(2k+2), and every few breakpoints of the given functions."""
    pts = {F(2 * i + 1, 2 * k + 2) for i in range(k + 1)} | {ZERO, ONE}
    for f in fns:
        bps = f.breakpoints if isinstance(f, PLFunction) else f.partition_points()
        pts.update(bps[:: max(1, len(bps) // 8)])
    return sorted(pts)


# ---------------------------------------------------------------------------
# certify: small perturbation instances at the scale of acceptance criterion 2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyInstance:
    d_a: StepFunction
    pattern: EigenPattern
    d_b: StepFunction
    delta: F
    eps: F
    identity: bool

    @property
    def w_cod(self) -> StepFunction:
        # the unit weight pushed through a multiplicity-m pattern
        return StepFunction.constant(self.pattern.multiplicity)


def windows_fit(jumps, delta) -> bool:
    """The windows of half-width delta around the jumps are disjoint and
    interior jumps stay delta away from the endpoints."""
    if any(b - a <= 2 * delta for a, b in zip(jumps, jumps[1:])):
        return False
    for s in jumps:
        if s in (ZERO, ONE):
            if not delta < ONE:
                return False
        elif not (delta < s < ONE - delta):
            return False
    return True


def certify_instance(rng: random.Random, m: int, n_jumps: int, n_segments: int,
                     identity: bool) -> CertifyInstance:
    """Multiplicity m, exactly n_jumps (at most 3) interior jumps, random
    eigenfunctions of n_segments (at most 3) linear pieces; d_B sits
    above every possible push so the instance is always feasible."""
    vmax = 5
    cuts = sorted(F(k, 16) for k in rng.sample(range(1, 16), n_jumps))
    # eps is a share of the largest budget whose windows still fit
    room = min([(b - a) / 2 for a, b in zip(cuts, cuts[1:])] + [cuts[0], ONE - cuts[-1]])
    eps = 2 * m * m * room * F(rng.randint(1, 3), 4)
    delta = choose_delta(eps, m)
    pts = [ZERO] + cuts + [ONE]
    open_vals = [F(rng.randint(1, vmax))]
    for _ in pts[2:]:
        open_vals.append(F(rng.choice([v for v in range(1, vmax + 1) if v != open_vals[-1]])))
    # neighbouring open values differ, so every cut is a jump; the ends are not
    point_vals = lsc_profile(rng, open_vals)
    point_vals[0], point_vals[-1] = open_vals[0], open_vals[-1]
    d_a = StepFunction.from_profile(pts, point_vals, open_vals)
    if identity:
        pattern = EigenPattern.identities(m)
    else:
        pattern = EigenPattern(tuple(
            zigzag(rng, n_segments) for _ in range(m)
        ))
    top = m * vmax
    d_b = rand_lsc_int_step(rng, 2, top + 1, top + 3, grid=16)
    return CertifyInstance(d_a, pattern, d_b, delta, eps, identity)


CERTIFY_BLOCK = 32


def certify_instances(seed: int, blocks: int) -> list:
    """Blocks of 32 instances with the same shapes in every block and
    every seed: each multiplicity 1-8 once as an identity multiset
    (repeated eigenfunctions, a quarter of the block) and three times
    with random distinct eigenfunctions of 1, 2 and 3 pieces, cycling
    through 1-3 jumps, in that fixed order (so the warm-up op of every
    set-up has the same shape).  Only
    the rationals vary with the seed, so the cost of a block does too
    little to move the timings between seeds."""
    rng = rng_for(seed, "certify")
    out = []
    for _ in range(blocks):
        out.extend(certify_instance(rng, m, 1 + (m + k) % 3, max(k, 1), identity=(k == 0))
                   for m in range(1, 9) for k in range(4))
    return out


# ---------------------------------------------------------------------------
# unitary: smooth rank-jump paths with the jump on a sample
# ---------------------------------------------------------------------------


def _frame(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def unitary_path(rng: random.Random, m: int) -> IsometryPath:
    """Rank-one channel rotating before the jump, a phased complement after.

    ``t_jump`` is taken from the sample grid itself.  The patch extends
    the last sample at or before the jump constantly; when t_jump falls
    between samples the post-jump samples are built around W(t_jump)
    instead, the patched samples are not unitary, and
    ``validate_unitary_path`` reports ok=false (unitarity defect about
    7e-4 at 1000 samples with t_jump = 0.5).
    """
    ts = np.linspace(0.0, 1.0, m)
    j = rng.randint(m // 4, 3 * m // 4)
    t_jump = float(ts[j])
    speed = rng.uniform(0.5, 1.2)
    skew = rng.uniform(0.0, 0.6)
    phase_speed = rng.uniform(0.5, 2.0)
    u0, u0p = _frame(speed * t_jump)[:, 0], _frame(speed * t_jump)[:, 1]
    rv = _frame(skew + 0.8 * speed * t_jump)
    v0, v0p = rv[:, 0], rv[:, 1]
    mats = np.empty((m, 2, 2), dtype=complex)
    for i, t in enumerate(ts):
        if i <= j:
            u = _frame(speed * t)[:, 0]
            v = _frame(skew + 0.8 * speed * t)[:, 0]
            mats[i] = np.outer(u, v.conj())
        else:
            phase = np.exp(1j * phase_speed * (t - t_jump))
            mats[i] = np.outer(u0, v0.conj()) + phase * np.outer(u0p, v0p.conj())
    return IsometryPath(ts, mats, t_jump, 1e-9, lipschitz=4.0)
