"""Patching a sampled path of 2x2 partial isometries across a rank jump.

The input is a uniformly sampled family W(t) of 2x2 complex matrices
that are rank-one partial isometries up to a jump time and unitary
afterwards.  Before the jump, each sample is completed to a unitary by
adding the complementary partial isometry (kernel to co-range), with
the free phase propagated by continuity along the path.  Across the
jump, the pre-jump family is extended constantly and the complementary
part of the post-jump unitaries is rotated by a single unimodular
constant c so the completed family stays continuous.

Unlike the exact modules, everything here is double-precision numerics
with explicit tolerances: phases and polar data are irrational.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9

_I2 = np.eye(2, dtype=complex)


def as_mat2(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out.view(float))):
        raise ValueError("matrix entries must be finite")
    return out


def _norm(m: np.ndarray) -> float:
    return float(np.linalg.norm(m, 2))


def partial_isometry_defect(w: np.ndarray) -> float:
    """How far w is from being a partial isometry: ||w w* w - w||."""
    return _norm(w @ w.conj().T @ w - w)


def rank_one_defect(w: np.ndarray) -> float:
    """Distance of tr(w* w) from 1; zero for a rank-one partial isometry."""
    return abs(float(np.trace(w.conj().T @ w).real) - 1.0)


def unitary_defect(w: np.ndarray) -> float:
    return _norm(w.conj().T @ w - _I2)


def _fix_phase(w: np.ndarray, tol: float) -> np.ndarray:
    """Make the first nonzero entry (row-major) real positive."""
    for entry in w.ravel():
        if abs(entry) > tol:
            return w * (abs(entry) / entry)
    raise ValueError("cannot fix the phase of a (numerically) zero matrix")


def complement_isometry(w, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The complementary rank-one partial isometry of w.

    Maps the kernel of w onto the orthogonal complement of its range,
    with the first nonzero entry made real positive; w plus the
    complement is unitary within 2*tol.
    """
    w = as_mat2(w)
    if partial_isometry_defect(w) > tol or rank_one_defect(w) > tol:
        raise ValueError("input is not a rank-one partial isometry within tol")
    u, _, vh = np.linalg.svd(w)
    comp = np.outer(u[:, 1], vh[1, :])
    return _fix_phase(comp, tol)


def samples_to_json(ts, mats) -> list:
    """Encode timed 2x2 complex samples as ``{"t", "re", "im"}`` objects."""
    return [
        {"t": float(t), "re": np.real(m).tolist(), "im": np.imag(m).tolist()}
        for t, m in zip(ts, mats)
    ]


def matrices_from_json(samples) -> np.ndarray:
    """Decode the matrices of ``{"re", "im"}`` sample objects."""
    return np.array(
        [np.array(s["re"]) + 1j * np.array(s["im"]) for s in samples],
        dtype=complex,
    )


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
        steps = np.diff(self.ts)
        if np.any(steps <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.max(steps) - np.min(steps) > 1e-12:
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
        return int(np.searchsorted(self.ts, self.t_jump + 1e-12) - 1)

    def check_structure(self):
        """Raise unless the rank/unitarity and continuity invariants hold."""
        j = self.jump_index
        for i, w in enumerate(self.mats):
            if i <= j:
                if partial_isometry_defect(w) > self.tol or rank_one_defect(w) > self.tol:
                    raise ValueError(
                        f"sample {i} (t={self.ts[i]}) is not a rank-one "
                        "partial isometry within tol"
                    )
            elif unitary_defect(w) > self.tol:
                raise ValueError(
                    f"sample {i} (t={self.ts[i]}) is not unitary within tol"
                )
        allowance = self.lipschitz * self.step + self.tol
        for i in range(len(self.ts) - 1):
            if i == j:
                continue  # the rank jump itself may be discontinuous
            if _norm(self.mats[i + 1] - self.mats[i]) > allowance:
                raise ValueError(f"discrete continuity violated at sample {i}")

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
        ts = np.array([s["t"] for s in samples], dtype=float)
        return cls(
            ts, matrices_from_json(samples), float(obj["t_jump"]),
            float(obj.get("tol", DEFAULT_TOL)),
            float(obj.get("lipschitz", 1.0)),
        )


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


def _align_phase(raw: np.ndarray, target: np.ndarray, tol: float) -> np.ndarray:
    inner = complex(np.trace(raw.conj().T @ target))
    if abs(inner) <= tol:
        raise ValueError(
            "cannot propagate complement phase: consecutive complements "
            "are numerically orthogonal"
        )
    return raw * (inner / abs(inner))


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
    comps = []
    for i in range(j + 1):
        raw = complement_isometry(path.mats[i], path.tol)
        comps.append(raw if not comps else _align_phase(raw, comps[-1], path.tol))
    out = np.empty_like(path.mats)
    for i in range(j + 1):
        out[i] = path.mats[i] + comps[i]
    w_jump = path.mats[j]
    c = 1.0 + 0.0j
    residual = 0.0
    if j + 1 < len(path.ts):
        d = path.mats[j + 1] - w_jump
        inner = complex(np.trace(d.conj().T @ comps[j]))
        if abs(inner) <= path.tol:
            raise ValueError(
                "phase alignment failed: the post-jump increment does not "
                "match the complement's rank-one slot"
            )
        c = inner / abs(inner)
        residual = _norm(comps[j] - c * d)
        for i in range(j + 1, len(path.ts)):
            out[i] = w_jump + c * (path.mats[i] - w_jump)
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
        return {
            "max_unitarity_defect": self.max_unitarity_defect,
            "max_continuity_jump": self.max_continuity_jump,
            "continuity_allowance": self.continuity_allowance,
            "max_action_mismatch": self.max_action_mismatch,
            "action_tolerance": self.action_tolerance,
            "ok": self.ok,
        }


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
    j = path.jump_index
    p_jump = path.mats[j].conj().T @ path.mats[j]
    max_unit = max(unitary_defect(u) for u in mats)
    max_jump = max(
        _norm(mats[i + 1] - mats[i]) for i in range(len(mats) - 1)
    )
    allowance = path.lipschitz * path.step + path.tol
    max_action = 0.0
    for i, (u, w) in enumerate(zip(mats, path.mats)):
        p_init = w.conj().T @ w if i <= j else p_jump
        max_action = max(max_action, _norm((u - w) @ p_init))
    return PathReport(max_unit, max_jump, allowance, max_action, 2 * path.tol)
