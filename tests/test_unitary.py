"""2x2 partial-isometry path patching across a rank jump."""

from dataclasses import astuple

import numpy as np
import pytest

from ctrace import unitary
from ctrace.unitary import (
    IsometryPath,
    _complements,
    _mul,
    _norms,
    _not_rank_one,
    _overflow_quiet,
    complement_isometry,
    matrices_from_json,
    partial_isometry_defect,
    patch_at_singularity,
    rank_one_defect,
    unitary_defect,
    validate_unitary_path,
)

E11 = np.array([[1, 0], [0, 0]], dtype=complex)
E12 = np.array([[0, 1], [0, 0]], dtype=complex)
E21 = np.array([[0, 0], [1, 0]], dtype=complex)
E22 = np.array([[0, 0], [0, 1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
SWAP = E12 + E21
ROT = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]], dtype=complex)

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
        w = ROT @ E11  # first column of the rotation
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


# --- reference: the row sums and row products _norms and _complements formed
# inline before both read _gram; the shared form must give the same bits
def ref_row_norms(a):
    sq = a.real ** 2 + a.imag ** 2
    r0 = sq[..., 0, 0] + sq[..., 0, 1]
    r1 = sq[..., 1, 0] + sq[..., 1, 1]
    x = a[..., 0, 0] * a[..., 1, 0].conj() + a[..., 0, 1] * a[..., 1, 1].conj()
    return np.sqrt((r0 + r1 + np.hypot(r0 - r1, 2 * np.abs(x))) / 2)


def ref_inline_complements(a, tol):
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    s00, s01, s10, s11 = (z.real ** 2 + z.imag ** 2 for z in (a00, a01, a10, a11))
    d = np.array([s00 + s01 - (s10 + s11), s00 + s10 - (s01 + s11)]) / 2
    x = np.array([a00 * a10.conj() + a01 * a11.conj(), a00.conj() * a01 + a10.conj() * a11])
    ax = np.abs(x)
    m = -(np.abs(d) + np.hypot(d, ax))
    m[m == 0] = -1
    u, v = (np.where(d >= 0, [x, m], [m, x.conj()]) / np.hypot(m, ax)).transpose(1, 2, 0)
    comps = u[:, :, None] * v[:, None, :].conj()
    flat = comps.reshape(len(comps), 4)
    first = flat[np.arange(len(flat)), (np.abs(flat) > tol).argmax(axis=1)]
    return comps * (np.abs(first) / first)[:, None, None]


def bits(x):
    return np.ascontiguousarray(x).view(np.uint64)


class TestGramMergeBits:
    """The norms and complements read _gram with the bits of the inline forms.

    The stacks stay below 16,384 matrices.  Above numpy's 256 KiB
    threshold for reusing temporaries, the references' ``a * b.conj()``
    is computed in the buffer of ``b.conj()`` with its operands swapped,
    so their own bits depend on the stack size.
    """

    @pytest.mark.parametrize("scale", [1e-150, 1e-9, 1e-3, 1.0, 1e3, 1e9, 1e150])
    def test_random_matrices(self, scale):
        rng = np.random.default_rng(31)
        a = scale * (rng.normal(size=(4000, 2, 2)) + 1j * rng.normal(size=(4000, 2, 2)))
        assert np.array_equal(bits(_norms(a)), bits(ref_row_norms(a)))
        assert np.array_equal(bits(_complements(a, TOL)), bits(ref_inline_complements(a, TOL)))

    def test_noisy_unimodular_multiples_of_the_identity(self):
        rng = np.random.default_rng(32)
        phases = np.exp(2j * np.pi * rng.random(4000))
        noise = rng.normal(size=(4000, 2, 2)) + 1j * rng.normal(size=(4000, 2, 2))
        a = phases[:, None, None] * I2 + 1e-9 * noise
        assert np.array_equal(bits(_norms(a)), bits(ref_row_norms(a)))
        assert np.array_equal(bits(_complements(a, TOL)), bits(ref_inline_complements(a, TOL)))

    def test_bits_do_not_depend_on_the_stack_size(self):
        rng = np.random.default_rng(33)
        a = rng.normal(size=(20000, 2, 2)) + 1j * rng.normal(size=(20000, 2, 2))
        for kernel in (_norms, lambda z: _complements(z, TOL)):
            halves = np.concatenate([kernel(a[:10000]), kernel(a[10000:])])
            assert np.array_equal(bits(kernel(a)), bits(halves))


# --- reference: the stacked SVD and the batched products the closed forms replaced --


def ref_complements(a, tol):
    """_complements by a stacked SVD, with the same phase rule."""
    u, _, vh = np.linalg.svd(a)
    comps = u[:, :, 1, None] * vh[:, None, 1, :]
    flat = comps.reshape(len(comps), 4)
    big = np.abs(flat) > tol
    if not big.any(axis=1).all():
        raise ValueError("cannot fix the phase of a (numerically) zero matrix")
    first = flat[np.arange(len(flat)), big.argmax(axis=1)]
    return comps * (np.abs(first) / first)[:, None, None]


def near_partial_isometries(rng, n, size):
    """n random rank-one partial isometries u v*, each moved by a random
    matrix of spectral norm below ``size``."""
    u, v = (_random_unitaries(rng, n)[:, :, 0] for _ in range(2))
    noise = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    noise *= (size * rng.random(n) / np.linalg.norm(noise, 2, axis=(-2, -1)))[:, None, None]
    return u[:, :, None] * v[:, None, :].conj() + noise


class TestClosedFormKernels:
    @pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-10, 3e-10])
    def test_complements_agree_with_the_svd(self, tol):
        w = near_partial_isometries(np.random.default_rng(17), 20_000, tol)
        comps = _complements(w, tol)
        assert np.max(np.abs(comps - ref_complements(w, tol))) <= 1e-12
        # within 2 tol, plus the rounding of unit vectors at tol = 0
        assert np.max(unitary_defect(w + comps)) <= 2 * tol + 1e-14

    @pytest.mark.parametrize("w", [E11, E12, E21, E22, ROT @ E11, ROT @ E12, E11 @ ROT],
                             ids=["E11", "E12", "E21", "E22", "rotated column",
                                  "rotated second column", "rotated row"])
    def test_exact_cases_at_zero_tol(self, w):
        # the phase rule picks the first entry that is not exactly zero
        comp, ref = _complements(w[None], 0.0)[0], ref_complements(w[None], 0.0)[0]
        assert np.array_equal(comp == 0, ref == 0)
        assert np.max(np.abs(comp - ref)) <= 1e-15
        first = comp.ravel()[np.flatnonzero(comp)[0]]
        assert first.imag == 0 and first.real > 0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_multiples_of_the_identity(self):
        # every vector is an eigenvector: the kernel picks one, silently
        with pytest.raises(ValueError, match="numerically"):
            _complements(np.zeros((1, 2, 2), dtype=complex), 1.0)
        comp = _complements(I2[None] / np.sqrt(2), 0.5)[0]
        assert partial_isometry_defect(comp) <= 1e-15 and rank_one_defect(comp) <= 1e-15

    @pytest.mark.parametrize("scale", np.logspace(-12, 3, 6))
    def test_mul_agrees_with_matmul(self, scale):
        rng = np.random.default_rng(5)
        a, b = (scale * (rng.normal(size=(500, 2, 2)) + 1j * rng.normal(size=(500, 2, 2)))
                for _ in range(2))
        for x, y in [(a, b), (a, b[0]), (a[0], b), (a[0], b[0])]:
            assert np.all(np.abs(_mul(x, y) - x @ y) <= 1e-15 * (np.abs(x) @ np.abs(y)))

    def test_patch_and_validate_call_no_linear_algebra(self, monkeypatch):
        path = random_path(np.random.default_rng(8), 1001)
        expect = ref_patch(path)[0]

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg or numpy.matmul was called")

        for name in ("svd", "eig", "eigh", "eigvalsh", "norm", "qr", "inv", "solve"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(np, "matmul", refuse)
        assert unitary_defect(path.mats[0] + complement_isometry(path.mats[0])) <= 2 * TOL
        res = patch_at_singularity(path)
        assert np.max(np.abs(res.unitaries - expect)) <= 1e-12
        assert validate_unitary_path(res.unitaries, path).ok


# --- reference: the defects by matrix products and np.linalg.norm -----------

EPS = np.finfo(float).eps
# |closed form - reference| <= DEFECT_C * eps * max(1, ||w||^3); the largest
# ratio the inputs below reach is about 5
DEFECT_C = 16


def ref_defects(w):
    """(partial isometry, rank one, unitary) defects of each matrix of a stack."""
    wh = w.conj().swapaxes(-1, -2)
    return (np.linalg.norm(w @ wh @ w - w, 2, axis=(-2, -1)),
            np.abs(np.trace(wh @ w, axis1=-2, axis2=-1).real - 1.0),
            np.linalg.norm(wh @ w - I2, 2, axis=(-2, -1)))


def gram_defects(w):
    return partial_isometry_defect(w), rank_one_defect(w), unitary_defect(w)


class TestGramDefects:
    def _check(self, w):
        bound = DEFECT_C * EPS * np.maximum(1.0, np.linalg.norm(w, 2, axis=(-2, -1)) ** 3)
        for got, ref in zip(gram_defects(w), ref_defects(w)):
            assert np.all(np.abs(got - ref) <= bound)

    @pytest.mark.parametrize("scale", np.logspace(-12, 3, 6))
    def test_scaled_unitaries_and_partial_isometries(self, scale):
        rng = np.random.default_rng(6)
        self._check(scale * _random_unitaries(rng, 500))
        self._check(scale * near_partial_isometries(rng, 500, 1e-9))
        # moved by a perturbation of this size, so the defects read about scale
        self._check(near_partial_isometries(rng, 500, scale))

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6, 1e-3])
    def test_nearly_equal_singular_values(self, gap):
        rng = np.random.default_rng(7)
        s = np.array([1.0, 1.0 + gap])
        self._check(_random_unitaries(rng, 500) * s[None, None, :] @ _random_unitaries(rng, 500))

    @pytest.mark.parametrize("w, expect", [
        (E11, (0.0, 0.0, 1.0)), (E12, (0.0, 0.0, 1.0)), (0 * I2, (0.0, 1.0, 1.0)),
        (I2, (0.0, 1.0, 0.0)), (2 * I2, (6.0, 7.0, 3.0)),
        (np.exp(0.3j) * I2 / np.sqrt(2), (0.5 ** 1.5, 0.0, 0.5)),
    ], ids=["E11", "E12", "zero", "identity", "twice the identity", "phased multiple"])
    def test_special_matrices(self, w, expect):
        self._check(w[None])
        assert gram_defects(w) == pytest.approx(expect, rel=4 * EPS, abs=4 * EPS)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("entry", [1e103, 1e155, 1e200, np.finfo(float).max])
    @pytest.mark.parametrize("at", [(0, 0), (1, 1)])
    def test_huge_entries_overflow_to_a_failing_check(self, entry, at):
        w = E11.copy()
        w[at] = entry * np.exp(0.4j)
        with _overflow_quiet():
            assert not any(d <= 1.0 for d in gram_defects(w))
        assert _not_rank_one(w[None], TOL)[0]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("side", ["before", "after"])
    def test_huge_sample_fails_the_path_checks_quietly(self, side):
        path = random_path(np.random.default_rng(25), 1001)
        j = path.jump_index
        i = j // 2 if side == "before" else (j + 1 + len(path.ts)) // 2
        mats = path.mats.copy()
        mats[i, 0, 0] = 1e200
        moved = IsometryPath(path.ts, mats, path.t_jump, path.tol, path.lipschitz)
        assert raised(moved.check_structure).startswith(f"sample {i} ")
        rep = validate_unitary_path(mats, path)
        assert not rep.ok_unitary and rep.to_json()["max_unitarity_defect"] is None

    def test_checks_form_no_matrix_product(self, monkeypatch):
        path = random_path(np.random.default_rng(25), 1001)
        j = path.jump_index

        def refuse(*args, **kwargs):
            raise AssertionError("unitary._mul was called")

        monkeypatch.setattr(unitary, "_mul", refuse)
        path.check_structure()
        for got, ref in zip(gram_defects(path.mats), ref_defects(path.mats)):
            assert np.max(np.abs(got - ref)) <= DEFECT_C * EPS
        assert not _not_rank_one(path.mats[: j + 1], path.tol).any()
        assert _not_rank_one(path.mats[j + 1:], path.tol).all()


def outcome(fn, *args):
    """The message of the ValueError fn raises, or None."""
    try:
        fn(*args)
    except ValueError as exc:
        return str(exc)
    return None


class TestBoundaryVerdicts:
    """Samples moved so that a reference defect reads 0.99 or 1.01 times its tolerance."""

    REF = {
        "partial isometry": lambda w: _ref_norm(w @ w.conj().T @ w - w),
        "rank one": lambda w: abs(float(np.trace(w.conj().T @ w).real) - 1.0),
        "unitary": _ref_unitary_defect,
    }

    @staticmethod
    def moved(w, kind, t):
        if kind == "partial isometry":  # singular values 1 and t: the defect is t (1 - t^2)
            return w + t * complement_isometry(w)
        return w * np.sqrt(1.0 + t)  # tr(w* w) - 1, or w* w - I for a unitary, reads t

    @pytest.mark.parametrize("ratios", [(0.99, 0.99, 0.99), (0.99, 1.01, 1.01),
                                        (1.01, 0.99, 1.01)])
    @pytest.mark.parametrize("kind", ["partial isometry", "rank one", "unitary"])
    def test_check_structure_names_the_same_sample(self, kind, ratios):
        path = random_path(np.random.default_rng(25), 1001)
        j, m = path.jump_index, len(path.ts)
        lo, hi = (j + 1, m - 1) if kind == "unitary" else (0, j)
        picks = np.linspace(lo, hi, 5).astype(int)[1:4]
        mats = path.mats.copy()
        for i, r in zip(picks, ratios):
            mats[i] = self.moved(mats[i], kind, r * path.tol)
            assert self.REF[kind](mats[i]) == pytest.approx(r * path.tol, rel=1e-4)
        moved = IsometryPath(path.ts, mats, path.t_jump, path.tol, path.lipschitz)
        message = outcome(moved.check_structure)
        assert message == outcome(ref_check_structure, moved)
        failing = [i for i, r in zip(picks, ratios) if r > 1]
        assert (message is None) if not failing else message.startswith(f"sample {failing[0]} ")

    @pytest.mark.parametrize("ratios", [(0.99, 0.99), (0.99, 1.01), (1.01, 0.99)])
    def test_validate_gives_the_reference_verdict(self, ratios):
        path = random_path(np.random.default_rng(25), 1001)
        j = path.jump_index
        mats = patch_at_singularity(path).unitaries
        for i, r in zip((j // 2, (j + 1 + len(mats)) // 2), ratios):
            mats[i] *= np.sqrt(1.0 + r * 2 * path.tol)  # unitarity is held to 2 tol
        rep = validate_unitary_path(mats, path)
        max_unit, max_jump, allowance, max_action, tol = ref_validate(mats, path)
        assert np.allclose(astuple(rep), (max_unit, max_jump, allowance, max_action, tol),
                           rtol=0, atol=1e-12)
        assert rep.max_unitarity_defect == pytest.approx(max(ratios) * tol, rel=1e-4)
        assert (rep.ok_unitary, rep.ok_continuity, rep.ok_action) == (
            max_unit <= tol, max_jump <= allowance, max_action <= tol)
        assert rep.ok_unitary == (max(ratios) < 1)


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

    @pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]],
                             ids=["true", "false", "string", "null", "array"])
    @pytest.mark.parametrize("field", ["t", "re", "im", "t_jump", "tol", "lipschitz"])
    def test_fields_must_be_json_numbers(self, field, value):
        obj = constant_jump_path(E11, I2).to_json()
        if field in ("t", "re", "im"):
            sample = obj["samples"][2]
            if field == "t":
                sample["t"] = value
            else:
                sample[field][1][0] = value
        else:
            obj[field] = value
        with pytest.raises(TypeError, match=f"^{field} must be a JSON number"):
            IsometryPath.from_json(obj)

    @pytest.mark.parametrize("samples", [{}, {"t": 0.0}, "samples", 3, None])
    def test_samples_must_be_an_array(self, samples):
        obj = dict(constant_jump_path(E11, I2).to_json(), samples=samples)
        with pytest.raises(TypeError, match="samples must be a JSON array"):
            IsometryPath.from_json(obj)
        with pytest.raises(TypeError, match="samples must be a JSON array"):
            matrices_from_json(samples)

    def test_matrices_round_trip(self):
        path = constant_jump_path(E11, SWAP)
        assert np.array_equal(matrices_from_json(path.to_json()["samples"]), path.mats)
