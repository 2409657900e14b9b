"""2x2 partial-isometry path patching across a rank jump."""

from dataclasses import astuple

import numpy as np
import pytest

from ctrace.unitary import (
    IsometryPath,
    _norms,
    complement_isometry,
    matrices_from_json,
    patch_at_singularity,
    unitary_defect,
    validate_unitary_path,
)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SWAP = E12 + E21

TOL = 1e-9


def constant_jump_path(before, after, m=41, t_jump=0.5, lipschitz=1.0):
    ts = np.linspace(0.0, 1.0, m)
    mats = np.array([before if t <= t_jump + 1e-12 else after for t in ts])
    return IsometryPath(ts, mats, t_jump, TOL, lipschitz)


class TestComplement:
    def test_diagonal_unit(self):
        comp = complement_isometry(E11)
        assert np.allclose(comp, E22, atol=1e-12)
        assert unitary_defect(E11 + comp) <= 2 * TOL

    def test_off_diagonal_unit(self):
        comp = complement_isometry(E12)
        assert np.allclose(comp, E21, atol=1e-12)
        assert unitary_defect(E12 + comp) <= 2 * TOL

    def test_rotated_column(self):
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
            dtype=complex,
        )
        w = rot @ E11  # first column of the rotation
        comp = complement_isometry(w)
        total = w + comp
        assert unitary_defect(total) <= 2 * TOL
        # complement occupies the complementary spaces
        assert np.linalg.norm(comp @ w.conj().T @ w, 2) <= 1e-12
        assert np.linalg.norm(w @ comp.conj().T @ comp, 2) <= 1e-12

    def test_rejects_non_isometries(self):
        with pytest.raises(ValueError):
            complement_isometry(0.5 * E11)
        with pytest.raises(ValueError):
            complement_isometry(I2)

    def test_involution_preserves_spaces(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            v = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            w = np.outer(u[:, 0], v[:, 0].conj())
            comp = complement_isometry(w)
            back = complement_isometry(comp)
            # same initial/final spaces as w, up to phase
            assert np.allclose(back.conj().T @ back, w.conj().T @ w, atol=1e-9)
            assert np.allclose(back @ back.conj().T, w @ w.conj().T, atol=1e-9)
            assert unitary_defect(w + comp) <= 2 * TOL


class TestPatch:
    def test_trivial_projection_to_identity(self):
        path = constant_jump_path(E11, I2)
        res = patch_at_singularity(path)
        assert abs(res.c - 1.0) <= 1e-12
        for u in res.unitaries:
            assert np.allclose(u, I2, atol=1e-12)

    def test_off_diagonal_to_swap(self):
        path = constant_jump_path(E12, SWAP)
        res = patch_at_singularity(path)
        assert abs(res.c - 1.0) <= 1e-12
        for u in res.unitaries:
            assert np.allclose(u, SWAP, atol=1e-12)

    def test_phased_complementary_block(self):
        theta = 1.1
        after = E11 + np.exp(1j * theta) * E22
        path = constant_jump_path(E11, after)
        res = patch_at_singularity(path)
        # c undoes the phase of the complementary block
        assert abs(res.c - np.exp(-1j * theta)) <= 1e-9
        assert abs(abs(res.c) - 1.0) <= 1e-12
        rep = validate_unitary_path(res.unitaries, path)
        assert rep.ok

    def test_absolute_value_of_c_is_one(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            theta = float(rng.uniform(-np.pi, np.pi))
            after = E11 + np.exp(1j * theta) * E22
            res = patch_at_singularity(constant_jump_path(E11, after))
            assert abs(abs(res.c) - 1.0) <= 1e-12

    def test_rejects_rank_violations(self):
        ts = np.linspace(0.0, 1.0, 11)
        mats = np.array([I2 for _ in ts])  # unitary before the jump: wrong
        path = IsometryPath(ts, mats, 0.5, TOL, 1.0)
        with pytest.raises(ValueError):
            patch_at_singularity(path)


def smooth_path(m, t_jump=0.5, speed=1.0, phase_speed=1.5):
    """Rank-one channel rotating before the jump, phased complement after."""
    ts = np.linspace(0.0, 1.0, m)

    def frame(angle):
        return np.array(
            [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]],
            dtype=complex,
        )

    u0 = frame(speed * t_jump)[:, 0]
    v0 = frame(0.3 + 0.8 * speed * t_jump)[:, 0]
    u0p = frame(speed * t_jump)[:, 1]
    v0p = frame(0.3 + 0.8 * speed * t_jump)[:, 1]
    mats = []
    for t in ts:
        if t <= t_jump + 1e-12:
            u = frame(speed * t)[:, 0]
            v = frame(0.3 + 0.8 * speed * t)[:, 0]
            mats.append(np.outer(u, v.conj()))
        else:
            phase = np.exp(1j * phase_speed * (t - t_jump))
            mats.append(np.outer(u0, v0.conj()) + phase * np.outer(u0p, v0p.conj()))
    return IsometryPath(ts, np.array(mats), t_jump, TOL, lipschitz=4.0)


class TestValidate:
    def test_patched_trivial_path_is_clean(self):
        path = constant_jump_path(E11, I2)
        rep = validate_unitary_path(patch_at_singularity(path).unitaries, path)
        assert rep.ok
        assert rep.max_unitarity_defect <= 1e-12
        assert rep.max_action_mismatch <= 1e-12
        assert rep.max_continuity_jump <= 1e-12

    def test_injected_jump_is_flagged(self):
        path = constant_jump_path(E11, I2)
        mats = patch_at_singularity(path).unitaries.copy()
        mats[7] = SWAP  # unitary, but discontinuous
        rep = validate_unitary_path(mats, path)
        assert not rep.ok
        assert rep.max_continuity_jump > rep.continuity_allowance
        assert rep.max_unitarity_defect <= 1e-12

    def test_skipping_the_phase_constant_breaks_continuity_only(self):
        theta = 1.3
        after = E11 + np.exp(1j * theta) * E22
        path = constant_jump_path(E11, after)
        j = path.jump_index
        naive = path.mats.copy()
        for i in range(j + 1):
            naive[i] = path.mats[i] + complement_isometry(path.mats[i])
        rep = validate_unitary_path(naive, path)
        assert rep.max_action_mismatch <= 1e-12
        assert rep.max_unitarity_defect <= 1e-12
        assert not rep.ok_continuity
        assert rep.max_continuity_jump >= abs(np.exp(1j * theta) - 1) - 1e-9

    def test_grid_mismatch_is_an_error(self):
        path = constant_jump_path(E11, I2)
        with pytest.raises(ValueError):
            validate_unitary_path(path.mats[:-1], path)

    def test_refinement_halves_the_continuity_defect(self):
        coarse = smooth_path(101)
        fine = smooth_path(201)
        rep_c = validate_unitary_path(patch_at_singularity(coarse).unitaries, coarse)
        rep_f = validate_unitary_path(patch_at_singularity(fine).unitaries, fine)
        assert rep_c.ok and rep_f.ok
        ratio = rep_f.max_continuity_jump / rep_c.max_continuity_jump
        assert 0.4 <= ratio <= 0.6


# --- reference: the per-sample loops that the stacked kernels replaced -----


def _ref_norm(m):
    return float(np.linalg.norm(m, 2))


def _ref_not_rank_one(w, tol):
    pi_defect = _ref_norm(w @ w.conj().T @ w - w)
    rank_defect = abs(float(np.trace(w.conj().T @ w).real) - 1.0)
    return pi_defect > tol or rank_defect > tol


def _ref_unitary_defect(w):
    return _ref_norm(w.conj().T @ w - I2)


def ref_check_structure(path):
    j = path.jump_index
    if abs(path.t_jump - path.ts[j]) > 1e-6 * path.step:
        raise ValueError(
            f"t_jump={path.t_jump} falls between samples {j} and {j + 1}: "
            "the patch needs the jump on a sample"
        )
    for i, w in enumerate(path.mats):
        if i <= j:
            if _ref_not_rank_one(w, path.tol):
                raise ValueError(
                    f"sample {i} (t={path.ts[i]}) is not a rank-one "
                    "partial isometry within tol"
                )
        elif _ref_unitary_defect(w) > path.tol:
            raise ValueError(f"sample {i} (t={path.ts[i]}) is not unitary within tol")
    allowance = path.lipschitz * path.step + path.tol
    for i in range(len(path.ts) - 1):
        if i != j and _ref_norm(path.mats[i + 1] - path.mats[i]) > allowance:
            raise ValueError(f"discrete continuity violated at sample {i}")


def _ref_complement(w, tol):
    u, _, vh = np.linalg.svd(w)
    comp = np.outer(u[:, 1], vh[1, :])
    for entry in comp.ravel():
        if abs(entry) > tol:
            return comp * (abs(entry) / entry)
    raise ValueError("cannot fix the phase of a (numerically) zero matrix")


def ref_patch(path):
    """(unitaries, c, phase_residual), one sample at a time."""
    ref_check_structure(path)
    j = path.jump_index
    comps = []
    for i in range(j + 1):
        raw = _ref_complement(path.mats[i], path.tol)
        if comps:
            inner = complex(np.trace(raw.conj().T @ comps[-1]))
            if abs(inner) <= path.tol:
                raise ValueError(
                    "cannot propagate complement phase: consecutive complements "
                    "are numerically orthogonal"
                )
            raw = raw * (inner / abs(inner))
        comps.append(raw)
    out = np.empty_like(path.mats)
    for i in range(j + 1):
        out[i] = path.mats[i] + comps[i]
    w_jump = path.mats[j]
    c, residual = 1.0 + 0.0j, 0.0
    if j + 1 < len(path.ts):
        d = path.mats[j + 1] - w_jump
        inner = complex(np.trace(d.conj().T @ comps[j]))
        if abs(inner) <= path.tol:
            raise ValueError(
                "phase alignment failed: the post-jump increment does not "
                "match the complement's rank-one slot"
            )
        c = inner / abs(inner)
        residual = _ref_norm(comps[j] - c * d)
        for i in range(j + 1, len(path.ts)):
            out[i] = w_jump + c * (path.mats[i] - w_jump)
    return out, c, residual


def ref_validate(mats, path):
    """The five PathReport fields, one sample at a time."""
    j = path.jump_index
    p_jump = path.mats[j].conj().T @ path.mats[j]
    max_unit = max(_ref_unitary_defect(u) for u in mats)
    max_jump = max(_ref_norm(mats[i + 1] - mats[i]) for i in range(len(mats) - 1))
    max_action = 0.0
    for i, (u, w) in enumerate(zip(mats, path.mats)):
        p_init = w.conj().T @ w if i <= j else p_jump
        max_action = max(max_action, _ref_norm((u - w) @ p_init))
    allowance = path.lipschitz * path.step + path.tol
    return max_unit, max_jump, allowance, max_action, 2 * path.tol


def random_path(rng, m, t_jump_offset=0.0, lipschitz=40.0):
    """A smooth rank-jump path with complex phases everywhere.

    The channel u v* turns with random quadratic angles and phases; after
    the jump at sample j (plus t_jump_offset steps), the complementary
    channel of sample j is added with a random linear phase.
    """
    ts = np.linspace(0.0, 1.0, m)
    j = int(rng.integers(0, m - 1))
    coef = rng.uniform(-2.0, 2.0, size=(6, 3))
    angle_u, phase_u, glob_u, angle_v, phase_v, glob_v = (
        c[0] + c[1] * ts + c[2] * ts ** 2 for c in coef
    )

    def frame(angle, phase, glob):
        e, g = np.exp(1j * phase), np.exp(1j * glob)[:, None]
        first = np.stack([np.cos(angle), e * np.sin(angle)], -1) * g
        second = np.stack([-e.conj() * np.sin(angle), np.cos(angle)], -1) * g
        return first, second

    u, u_perp = frame(angle_u, phase_u, glob_u)
    v, v_perp = frame(angle_v, phase_v, glob_v)
    mats = u[:, :, None] * v[:, None, :].conj()
    theta = rng.uniform(-3.0, 3.0) * (ts[j + 1:] - ts[j])
    mats[j + 1:] = mats[j] + np.exp(1j * theta)[:, None, None] * np.outer(
        u_perp[j], v_perp[j].conj()
    )
    t_jump = ts[j] + t_jump_offset * (ts[1] - ts[0])
    return IsometryPath(ts, mats, t_jump, TOL, lipschitz)


def off_grid_path():
    """1000 samples on [0, 1] with t_jump = 0.5, between samples 499 and 500."""
    path = random_path(np.random.default_rng(1965), 1000, t_jump_offset=0.5)
    assert path.t_jump == 0.5 and path.jump_index == 499
    return path


def raised(fn, *args):
    with pytest.raises(ValueError) as info:
        fn(*args)
    return str(info.value)


class TestStackedAgainstLoops:
    @pytest.mark.parametrize("seed, m, offset", [
        (0, 2, 0.0), (1, 3, 0.3), (2, 17, 0.0), (3, 101, 0.5),
        (4, 1001, 0.0), (5, 1001, 0.9), (6, 10001, 0.25),
    ])
    def test_patch_and_validate_agree(self, seed, m, offset):
        path = random_path(np.random.default_rng(seed), m, offset)
        if offset:
            # a jump between samples is refused; patch the same family with
            # the jump moved onto the last sample before it
            message = raised(patch_at_singularity, path)
            assert message == raised(ref_patch, path)
            assert "falls between samples" in message
            path = IsometryPath(path.ts, path.mats, path.ts[path.jump_index],
                                path.tol, path.lipschitz)
        res = patch_at_singularity(path)
        out, c, residual = ref_patch(path)
        assert np.max(np.abs(res.unitaries - out)) <= 1e-12
        assert abs(res.c - c) <= 1e-12
        assert abs(res.phase_residual - residual) <= 1e-12
        rep = validate_unitary_path(res.unitaries, path)
        assert np.allclose(astuple(rep), ref_validate(res.unitaries, path), rtol=0, atol=1e-12)
        # the running phase product is renormalised: its modulus does not drift
        assert rep.max_unitarity_defect <= 1e-14

    def test_validate_agrees_on_an_unpatched_path(self):
        path = random_path(np.random.default_rng(9), 301)
        mats = path.mats.copy()
        mats[40] = -mats[40]
        rep = validate_unitary_path(mats, path)
        assert np.allclose(astuple(rep), ref_validate(mats, path), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("defect", [
        "rank", "rank twice", "unitary", "continuity before", "continuity after",
    ])
    def test_injected_defects_name_the_same_sample(self, defect):
        path = random_path(np.random.default_rng(12), 201)
        j = path.jump_index
        mats = path.mats.copy()
        before, after = max(j // 2, 1), (j + 1 + len(mats)) // 2
        if defect == "rank":
            mats[before] *= 1.1
            expect = f"sample {before} "
        elif defect == "rank twice":
            mats[before] *= 1.1
            mats[j] *= 0.9
            expect = f"sample {min(before, j)} "
        elif defect == "unitary":
            mats[after] *= 1.1
            expect = f"sample {after} "
        elif defect == "continuity before":
            mats[before] = -mats[before]  # still a rank-one partial isometry
            expect = f"at sample {before - 1}"
        else:
            mats[after] = -mats[after]  # still unitary
            expect = f"at sample {after - 1}"
        bad = IsometryPath(path.ts, mats, path.t_jump, path.tol, path.lipschitz)
        message = raised(patch_at_singularity, bad)
        assert message == raised(ref_patch, bad)
        assert expect in message

    def test_off_grid_jump_is_refused(self):
        path = off_grid_path()
        message = raised(patch_at_singularity, path)
        assert message == raised(ref_patch, path)
        assert message == (
            "t_jump=0.5 falls between samples 499 and 500: the patch needs the jump on a sample"
        )
        # validate still reports on the family, against the same jump index
        rep = validate_unitary_path(path.mats, path)
        assert np.allclose(astuple(rep), ref_validate(path.mats, path), rtol=0, atol=1e-12)

    def test_jump_within_the_step_tolerance_is_on_the_sample(self):
        path = random_path(np.random.default_rng(4), 1001, t_jump_offset=1e-7)
        assert patch_at_singularity(path).jump_index == path.jump_index

    def test_orthogonal_complements_are_refused(self):
        ts = np.linspace(0.0, 1.0, 11)
        mats = np.array([(E11, E22)[i % 2] if t <= 0.5 else I2 for i, t in enumerate(ts)])
        path = IsometryPath(ts, mats, 0.5, TOL, lipschitz=1e3)
        message = raised(patch_at_singularity, path)
        assert message == raised(ref_patch, path)
        assert "numerically orthogonal" in message

    def test_misaligned_jump_is_refused(self):
        path = constant_jump_path(E11, SWAP, lipschitz=1e3)
        message = raised(patch_at_singularity, path)
        assert message == raised(ref_patch, path)
        assert message.startswith("phase alignment failed")

    def test_non_finite_input_is_an_error(self):
        path = constant_jump_path(E11, I2)
        mats = path.mats.copy()
        mats[3, 0, 0] = np.nan
        with pytest.raises(ValueError):
            patch_at_singularity(IsometryPath(path.ts, mats, 0.5, TOL, 1.0))
        with pytest.raises(ValueError):
            validate_unitary_path(mats, path)


def _random_unitaries(rng, n):
    z = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    return np.linalg.qr(z)[0]


class TestNorms:
    def _check(self, a):
        expected = np.linalg.norm(a, 2, axis=(-2, -1))
        assert np.max(np.abs(_norms(a) - expected) / expected) <= 1e-14

    @pytest.mark.parametrize("scale", np.logspace(-12, 3, 6))
    def test_scaled_unitaries(self, scale):
        # equal singular values: the case where a determinant form cancels
        self._check(scale * _random_unitaries(np.random.default_rng(1), 200))

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_nearly_equal_singular_values(self, gap):
        rng = np.random.default_rng(2)
        s = np.array([1.0, 1.0 + gap])
        a = _random_unitaries(rng, 200) * s[None, None, :] @ _random_unitaries(rng, 200)
        self._check(a)

    @pytest.mark.parametrize("scale", np.logspace(-12, 3, 6))
    def test_general_matrices(self, scale):
        rng = np.random.default_rng(3)
        self._check(scale * (rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2))))

    def test_single_matrix(self):
        assert _norms(2.0 * SWAP) == pytest.approx(2.0, rel=1e-15)


class TestRelativeTolerances:
    def test_grid_far_from_zero_is_uniform(self):
        ts = np.linspace(1e6, 1e6 + 1, 1001)
        mats = np.array([E11 if i <= 500 else I2 for i in range(len(ts))])
        path = IsometryPath(ts, mats, ts[500], TOL, 1.0)
        assert path.jump_index == 500
        path.check_structure()

    @pytest.mark.parametrize("ts", [np.linspace(0.0, 1e6, 1001), np.linspace(0.0, 1e-10, 101)])
    def test_jump_index_on_a_sample(self, ts):
        mid = len(ts) // 2
        mats = np.array([E11 if i <= mid else I2 for i in range(len(ts))])
        assert IsometryPath(ts, mats, ts[mid], TOL, 1.0).jump_index == mid

    def test_uneven_grid_is_refused(self):
        ts = np.linspace(0.0, 1.0, 11)
        ts[5] += 1e-3
        with pytest.raises(ValueError, match="uniform"):
            IsometryPath(ts, np.array([E11] * 5 + [I2] * 6), 0.35, TOL, 1.0)


class TestInputChecks:
    @pytest.mark.parametrize("key", ["tol", "lipschitz"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0, -1e-300])
    def test_tolerances_must_be_finite_and_nonnegative(self, key, value):
        path = constant_jump_path(E11, I2)
        kwargs = {"tol": path.tol, "lipschitz": path.lipschitz, key: value}
        with pytest.raises(ValueError, match=key):
            IsometryPath(path.ts, path.mats, path.t_jump, **kwargs)
        with pytest.raises(ValueError, match=key):
            IsometryPath.from_json(dict(path.to_json(), **{key: value}))

    def test_zero_tolerances_are_allowed(self):
        path = constant_jump_path(E11, I2)
        assert IsometryPath(path.ts, path.mats, path.t_jump, 0.0, 0.0).tol == 0.0

    @pytest.mark.parametrize("key", ["re", "im"])
    @pytest.mark.parametrize("entry", [True, False])
    def test_boolean_matrix_entries_are_refused(self, key, entry):
        samples = constant_jump_path(E11, I2).to_json()["samples"]
        samples[2][key][1][0] = entry
        with pytest.raises(TypeError, match="boolean"):
            matrices_from_json(samples)

    def test_matrices_round_trip(self):
        path = constant_jump_path(E11, SWAP)
        assert np.array_equal(matrices_from_json(path.to_json()["samples"]), path.mats)
