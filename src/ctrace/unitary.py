"""Patching a sampled path of 2x2 partial isometries across a rank jump.

The input is a uniformly sampled family W(t) of 2x2 complex matrices
that are rank-one partial isometries up to a jump time and unitary
afterwards.  Before the jump, each sample is completed to a unitary by
adding the complementary partial isometry (kernel to co-range), with
the free phase propagated by continuity along the path.  Across the
jump, the pre-jump family is extended constantly and the complementary
part of the post-jump unitaries is rotated by a single unimodular
constant c so the completed family stays continuous.

Every step works on the whole (N, 2, 2) stack at once with closed-form 2x2
kernels in elementwise numpy: no SVD, and the norms, defects and complements
read the Gram entries of one kernel, with no matrix product.  Scalar helpers
apply them to one matrix.

Unlike the exact modules, everything here is double-precision numerics
with explicit tolerances: phases and polar data are irrational.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .pwcalc import json_list, json_number, json_obj

DEFAULT_TOL = 1e-9
# Steps may differ, and a sample lies at the jump, up to this fraction of
# the step: rounding moves sample times far from 0 by more than 1e-12.
_STEP_RTOL = 1e-6


def as_mat2(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("matrix entries must be finite")
    return out


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a b of each pair of matrices of two (broadcast) stacks."""
    return a[..., :, :1] * b[..., None, 0, :] + a[..., :, 1:] * b[..., None, 1, :]


def _gram(w: np.ndarray):
    """p, q, x of w* w = [[p, x], [x*, q]], with eigenvalues (p+q)/2 +- hypot((p-q)/2, |x|)."""
    sq = w.real ** 2 + w.imag ** 2
    x = w[..., 0, 0].conj() * w[..., 0, 1] + w[..., 1, 0].conj() * w[..., 1, 1]
    return sq[..., 0, 0] + sq[..., 1, 0], sq[..., 0, 1] + sq[..., 1, 1], x


def _norms(a: np.ndarray) -> np.ndarray:
    """The spectral norm of each matrix in a (..., 2, 2) stack, in closed form.

    With a a* = [[r0, x*], [x, r1]], the Gram entries of the transpose, it
    is sqrt((r0 + r1 + hypot(r0 - r1, 2|x|)) / 2).  No term cancels, also
    where the two singular values nearly coincide (the determinant form
    loses about half the digits there).
    """
    r0, r1, x = _gram(a.swapaxes(-1, -2))
    return np.sqrt((r0 + r1 + np.hypot(r0 - r1, 2 * np.abs(x))) / 2)


def _traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(a* b) for each pair of matrices of two stacks."""
    return (a.conj() * b).sum(axis=(-2, -1))


def _pi_defect(w: np.ndarray, p, q, x):
    """max s |s^2 - 1| over singular values; s2 = |det w| / s1 does not cancel (w = 0 at s1 = 0)."""
    s1 = np.sqrt((p + q) / 2 + np.hypot((p - q) / 2, np.abs(x)))
    s2 = np.abs(w[..., 0, 0] * w[..., 1, 1] - w[..., 0, 1] * w[..., 1, 0]) / np.where(s1, s1, 1)
    return np.maximum(s1 * np.abs(s1 ** 2 - 1.0), s2 * np.abs(s2 ** 2 - 1.0))


def partial_isometry_defect(w: np.ndarray):
    """How far w is from being a partial isometry: ||w w* w - w||.  Like the
    other defects, it takes one matrix or a (..., 2, 2) stack."""
    return _pi_defect(w, *_gram(w))


def rank_one_defect(w: np.ndarray):
    """Distance of tr(w* w) = p + q from 1; zero for a rank-one partial isometry."""
    p, q, _ = _gram(w)
    return np.abs(p + q - 1.0)


def unitary_defect(w: np.ndarray):
    """||w* w - I||, the larger distance of an eigenvalue of w* w from 1."""
    p, q, x = _gram(w)
    return np.abs((p + q) / 2 - 1.0) + np.hypot((p - q) / 2, np.abs(x))


def _overflow_quiet():
    """Silence numpy where a huge finite entry overflows a defect to inf or NaN.

    The checks that run under it test ``~(defect <= tol)``, so such a
    defect fails them: a NaN is never ``<=`` anything.
    """
    return np.errstate(over="ignore", invalid="ignore")


def _not_rank_one(w: np.ndarray, tol: float) -> np.ndarray:
    with _overflow_quiet():
        p, q, x = _gram(w)
        return ~((_pi_defect(w, p, q, x) <= tol) & (np.abs(p + q - 1.0) <= tol))


def _complements(a: np.ndarray, tol: float) -> np.ndarray:
    """``complement_isometry`` of each matrix of an (N, 2, 2) stack, unchecked.

    Before its phase is fixed the complement is u v*, with u and v unit
    eigenvectors of a a* and a* a = [[p, x], [x*, q]] for their smaller
    eigenvalue l = (p+q)/2 - hypot((p-q)/2, |x|).  Of the two solutions
    (x, l-p) and (l-q, x*) the longer is (x, m) if p >= q, else (m, x*),
    with m = -(|p-q|/2 + hypot((p-q)/2, |x|)): no term cancels.
    """
    (pr, qr, xr), (p, q, x) = _gram(a.swapaxes(-1, -2)), _gram(a)  # a a* (x conjugated), a* a
    d, x = np.array([pr - qr, p - q]) / 2, np.array([xr.conj(), x])
    ax = np.abs(x)
    m = -(np.abs(d) + np.hypot(d, ax))
    m[m == 0] = -1  # only a multiple of the identity: every vector is an eigenvector
    u, v = (np.where(d >= 0, [x, m], [m, x.conj()]) / np.hypot(m, ax)).transpose(1, 2, 0)
    comps = u[:, :, None] * v[:, None, :].conj()
    flat = comps.reshape(len(comps), 4)
    big = np.abs(flat) > tol
    if not big.any(axis=1).all():
        raise ValueError("cannot fix the phase of a (numerically) zero matrix")
    first = flat[np.arange(len(flat)), big.argmax(axis=1)]
    return comps * (np.abs(first) / first)[:, None, None]


def complement_isometry(w, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The complementary rank-one partial isometry of w.

    Maps the kernel of w onto the orthogonal complement of its range,
    with the first entry above tol made real positive; w plus the
    complement is unitary within 2*tol.  It is built in closed form from
    the eigenvectors of w w* and w* w for their smaller eigenvalue.
    """
    w = as_mat2(w)[None]
    if _not_rank_one(w, tol)[0]:
        raise ValueError("input is not a rank-one partial isometry within tol")
    return _complements(w, tol)[0]


def samples_to_json(ts, mats) -> list:
    """Encode timed 2x2 complex samples as ``{"t", "re", "im"}`` objects."""
    mats = np.asarray(mats)
    rows = zip(np.asarray(ts, dtype=float).tolist(), mats.real.tolist(), mats.imag.tolist())
    return [{"t": t, "re": re, "im": im} for t, re, im in rows]


def _sample_floats(samples, what: str, key: str) -> np.ndarray:
    """Field ``key`` (JSON numbers in nested arrays) of each object in array ``what``, as floats."""
    entry = f"each entry of {what}"
    values = np.array([json_obj(s, entry)[key] for s in json_list(samples, what)], dtype=object)
    bad = [v for v in values.flat if isinstance(v, bool) or not isinstance(v, (int, float))]
    if bad:
        json_number(bad[0], key)  # refuses it by name
    return values.astype(float)


def matrices_from_json(samples, what: str = "samples") -> np.ndarray:
    """Decode the matrices of the array ``what`` of ``{"re", "im"}`` sample objects."""
    return _sample_floats(samples, what, "re") + 1j * _sample_floats(samples, what, "im")


@dataclass(eq=False)
class IsometryPath:
    """Uniform samples of a rank-one-then-unitary matrix family.

    Samples at or before ``t_jump`` must be rank-one partial isometries
    within ``tol``; later samples must be unitary within ``tol``.
    Discrete continuity is required separately on each side of the jump,
    with allowance lipschitz * step + tol.
    """

    ts: np.ndarray
    mats: np.ndarray
    t_jump: float
    tol: float = DEFAULT_TOL
    lipschitz: float = 1.0

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.mats = np.asarray(self.mats, dtype=complex)
        if self.ts.ndim != 1 or len(self.ts) < 2:
            raise ValueError("need at least two samples")
        if self.mats.shape != (len(self.ts), 2, 2):
            raise ValueError("samples and matrices disagree")
        if not (np.isfinite(self.ts).all() and np.isfinite(self.mats).all()):
            raise ValueError("sample times and matrices must be finite")
        for name in ("tol", "lipschitz"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, not {value!r}")
        steps = np.diff(self.ts)
        if np.any(steps <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.max(steps) - np.min(steps) > _STEP_RTOL * np.min(steps):
            raise ValueError("sample grid must be uniform")
        self.t_jump = float(self.t_jump)
        if not self.ts[0] <= self.t_jump < self.ts[-1]:
            raise ValueError("t_jump must lie within the grid span")

    @property
    def step(self) -> float:
        return float(self.ts[1] - self.ts[0])

    @property
    def jump_index(self) -> int:
        """Index of the last sample at or before the jump."""
        return int(np.searchsorted(self.ts, self.t_jump + _STEP_RTOL * self.step) - 1)

    def check_structure(self):
        """Raise unless the jump is on a sample and the rank/unitarity and
        continuity invariants hold."""
        j = self.jump_index
        if abs(self.t_jump - self.ts[j]) > _STEP_RTOL * self.step:
            raise ValueError(
                f"t_jump={self.t_jump} falls between samples {j} and {j + 1}: "
                "the patch needs the jump on a sample"
            )
        allowance = self.lipschitz * self.step + self.tol
        with _overflow_quiet():
            bad = np.concatenate([
                _not_rank_one(self.mats[: j + 1], self.tol),
                ~(unitary_defect(self.mats[j + 1:]) <= self.tol),
            ])
            broken = ~(_norms(np.diff(self.mats, axis=0)) <= allowance)
        if bad.any():
            i = int(bad.argmax())
            kind = "a rank-one partial isometry" if i <= j else "unitary"
            raise ValueError(f"sample {i} (t={self.ts[i]}) is not {kind} within tol")
        broken[j: j + 1] = False  # the rank jump itself may be discontinuous
        if broken.any():
            raise ValueError(f"discrete continuity violated at sample {int(broken.argmax())}")

    def to_json(self) -> dict:
        return {
            "samples": samples_to_json(self.ts, self.mats),
            "t_jump": self.t_jump,
            "tol": self.tol,
            "lipschitz": self.lipschitz,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "IsometryPath":
        samples = obj["samples"]
        scalars = (json_number(obj[key] if default is None else obj.get(key, default), key)
                   for key, default in (("t_jump", None), ("tol", DEFAULT_TOL), ("lipschitz", 1.0)))
        return cls(_sample_floats(samples, "samples", "t"), matrices_from_json(samples), *scalars)


@dataclass(eq=False)
class PatchResult:
    ts: np.ndarray
    unitaries: np.ndarray
    c: complex
    phase_residual: float
    jump_index: int

    def to_json(self) -> dict:
        return {
            "samples": samples_to_json(self.ts, self.unitaries),
            "c": [float(self.c.real), float(self.c.imag)],
            "phase_residual": self.phase_residual,
            "jump_index": self.jump_index,
        }


def patch_at_singularity(path: IsometryPath) -> PatchResult:
    """Complete the path to a continuous family of unitaries.

    Before the jump each sample gets its phase-propagated complement
    added.  After the jump the samples are rewritten as
    W(t_jump) + c * (W(t) - W(t_jump)) with the unimodular constant c
    chosen from the first post-jump sample so that the family crosses
    the jump continuously; the reported residual measures how far the
    complement at the jump is from c times that one-sided difference.
    """
    path.check_structure()
    j = path.jump_index
    pre = path.mats[: j + 1]
    comps = _complements(pre, path.tol)
    # Complement i is turned by the phase of tr(comp_i* comp_{i-1}) times
    # the turn of complement i-1: a running product of unit phases,
    # renormalised because the rounding of a long product drifts its modulus.
    overlaps = _traces(comps[1:], comps[:-1])
    moduli = np.abs(overlaps)
    if np.any(moduli <= path.tol):
        raise ValueError(
            "cannot propagate complement phase: consecutive complements "
            "are numerically orthogonal"
        )
    phases = np.cumprod(overlaps / moduli)
    comps[1:] *= (phases / np.abs(phases))[:, None, None]
    out = np.empty_like(path.mats)
    out[: j + 1] = pre + comps
    w_jump = pre[-1]
    c = 1.0 + 0.0j
    residual = 0.0
    if j + 1 < len(path.ts):
        d = path.mats[j + 1] - w_jump
        inner = complex(_traces(d, comps[-1]))
        if abs(inner) <= path.tol:
            raise ValueError(
                "phase alignment failed: the post-jump increment does not "
                "match the complement's rank-one slot"
            )
        c = inner / abs(inner)
        residual = float(_norms(comps[-1] - c * d))
        out[j + 1:] = w_jump + c * (path.mats[j + 1:] - w_jump)
    return PatchResult(path.ts.copy(), out, c, residual, j)


@dataclass(frozen=True)
class PathReport:
    max_unitarity_defect: float
    max_continuity_jump: float
    continuity_allowance: float
    max_action_mismatch: float
    action_tolerance: float

    @property
    def ok_unitary(self) -> bool:
        return self.max_unitarity_defect <= self.action_tolerance

    @property
    def ok_continuity(self) -> bool:
        return self.max_continuity_jump <= self.continuity_allowance

    @property
    def ok_action(self) -> bool:
        return self.max_action_mismatch <= self.action_tolerance

    @property
    def ok(self) -> bool:
        return self.ok_unitary and self.ok_continuity and self.ok_action

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        # not pwcalc.json_form: an overflowed defect (inf or NaN) is null here, not "inf"
        out = {k: v if np.isfinite(v) else None for k, v in asdict(self).items()}
        out["ok"] = self.ok
        return out


def validate_unitary_path(unitaries, path: IsometryPath) -> PathReport:
    """Report unitarity, discrete continuity, and action agreement defects.

    Unitarity and action agreement are held to twice the path tolerance.

    Action agreement is measured on the initial space of the rank-one
    channel: W(t)*W(t) before the jump and, afterwards, the constant
    extension W(t_jump)*W(t_jump) — the subspace on which the completed
    family must keep acting like the original one.
    """
    mats = np.asarray(unitaries, dtype=complex)
    if mats.shape != path.mats.shape:
        raise ValueError("unitary path does not match the sample grid")
    if not np.isfinite(mats).all():
        raise ValueError("unitary path entries must be finite")
    j = path.jump_index
    pre, post = path.mats[: j + 1], path.mats[j + 1:]
    with _overflow_quiet():
        p, q, x = _gram(pre)  # W* W; after the jump, the constant extension p_init[-1]
        p_init = np.stack([p, x, x.conj(), q], axis=-1).reshape(-1, 2, 2)
        max_action = max(_norms(_mul(mats[: j + 1] - pre, p_init)).max(),
                         _norms(_mul(mats[j + 1:] - post, p_init[-1])).max(initial=0.0))
        max_unit = float(unitary_defect(mats).max())
        max_jump = float(_norms(np.diff(mats, axis=0)).max())
    allowance = path.lipschitz * path.step + path.tol
    return PathReport(max_unit, max_jump, allowance, float(max_action), 2 * path.tol)
