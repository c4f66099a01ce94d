import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monoscheme import stencils
from monoscheme.grid import BoundaryData1D, Mesh1D, Mesh3D, MeshFunction, norm_c, sample
from monoscheme.stencils import (
    FACES,
    FaceGhost,
    FaceRule,
    GhostPlan,
    GhostSpec3D,
    MIRROR_ALL,
    SingularOperatorError,
    SolverError,
    Tridiagonal,
    add_neighbors,
    central_step,
    divergence_3d,
    first_derivative_1d,
    ghost_plan,
    gradient_3d,
    laplacian_3d,
    operator_norm_c,
    pad_grid,
    pad_range,
    second_derivative_1d,
    second_difference,
    smooth_1d,
    smooth_3d,
    smooth_pad,
    smoothing,
    solve_smooth_1d,
    solve_smooth_3d,
)
from monoscheme.ns3d import BoundaryPolicy3D
from test_ns3d import MINUS, PLUS, same_bits, slice_difference, slice_laplacian, slice_smooth


def _mesh_fn(mesh, values):
    return MeshFunction(mesh, np.asarray(values, dtype=float))


def face_ghost(spec, cell, step):
    """The FaceGhost that supplies the neighbor of `cell` one `step` away,
    which lies outside the mesh."""
    axis = next(a for a in range(3) if step[a] != 0)
    rule = spec.rules()[2 * axis + (step[axis] > 0)]
    t1, t2 = (cell[a] for a in range(3) if a != axis)
    in_patch = rule.patch_lo <= t1 <= rule.patch_hi and rule.patch_lo <= t2 <= rule.patch_hi
    return rule.patch if rule.patch is not None and in_patch else rule.base


def brute_pad(grid, spec):
    """pad_grid evaluated one ghost cell at a time from the face rules."""
    N = grid.shape[0]
    pad = np.zeros((N + 2, N + 2, N + 2))
    pad[1:-1, 1:-1, 1:-1] = grid
    for cell in np.ndindex(N, N, N):
        for axis in range(3):
            for side in (-1, 1):
                if cell[axis] != (0 if side < 0 else N - 1):
                    continue
                step = tuple(side if a == axis else 0 for a in range(3))
                ghost = face_ghost(spec, cell, step)
                inward = tuple(c - s for c, s in zip(cell, step))
                if ghost.kind == "value":
                    g = ghost.value
                elif ghost.kind == "mirror":
                    g = grid[cell]
                else:
                    g = 2.0 * grid[cell] - grid[inward]
                pad[tuple(c + s + 1 for c, s in zip(cell, step))] = g
    return pad


@st.composite
def ghost_specs(draw, N, kinds=("value", "mirror", "extrapolate")):
    """Random GhostSpec3D for an N^3 mesh: one rule per face, some patched."""
    def ghost():
        kind = draw(st.sampled_from(kinds))
        value = draw(st.floats(-10.0, 10.0)) if kind == "value" else 0.0
        return FaceGhost(kind, value)

    rules = []
    for face in FACES:
        if face.endswith("hi") and draw(st.booleans()):
            # Both faces of the axis alike.
            rules.append(rules[-1])
            continue
        base = ghost()
        if draw(st.booleans()):
            lo = draw(st.integers(0, N - 1))
            hi = draw(st.integers(lo, N - 1))
            rules.append(FaceRule(base, ghost(), lo, hi))
        else:
            rules.append(FaceRule(base))
    return GhostSpec3D(*rules)


@st.composite
def smoothing_systems(draw):
    """(N, spec, b): a mirror/value spec on an N^3 mesh and a right side."""
    N = draw(st.sampled_from((3, 4, 5)))
    spec = draw(ghost_specs(N, kinds=("value", "mirror")))
    b = draw(st.lists(st.floats(-10.0, 10.0), min_size=N**3, max_size=N**3))
    return N, spec, np.asarray(b)


class TestFirstDerivative1D:
    def test_exact_on_linear(self):
        mesh = Mesh1D(0.0, 1.0, 7)
        u = sample(mesh, lambda x: x)
        bc = BoundaryData1D(0.0, 1.0)
        assert np.allclose(first_derivative_1d(u, bc).values, 1.0, atol=1e-13)

    def test_constant_gives_zero(self):
        mesh = Mesh1D(0.0, 1.0, 5)
        u = _mesh_fn(mesh, np.full(5, 4.2))
        assert np.allclose(first_derivative_1d(u, BoundaryData1D(4.2, 4.2)).values, 0.0)

    def test_single_point_arithmetic(self):
        mesh = Mesh1D(0.0, 1.0, 1)  # h = 0.5
        u = _mesh_fn(mesh, [5.0])
        out = first_derivative_1d(u, BoundaryData1D(2.0, 8.0))
        assert out.values[0] == pytest.approx((8.0 - 2.0) / 1.0)


class TestSecondDerivative1D:
    def test_exact_on_quadratic(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        u = sample(mesh, lambda x: x * x)
        bc = BoundaryData1D(0.0, 1.0)
        assert np.allclose(second_derivative_1d(u, bc).values, 2.0, atol=1e-10)

    def test_zero_on_linear(self):
        mesh = Mesh1D(0.0, 1.0, 6)
        u = sample(mesh, lambda x: 3 * x - 1)
        bc = BoundaryData1D(-1.0, 2.0)
        assert np.allclose(second_derivative_1d(u, bc).values, 0.0, atol=1e-11)

    def test_single_point_arithmetic(self):
        mesh = Mesh1D(0.0, 1.0, 1)
        u = _mesh_fn(mesh, [5.0])
        out = second_derivative_1d(u, BoundaryData1D(2.0, 8.0))
        assert out.values[0] == pytest.approx((8.0 - 10.0 + 2.0) / 0.25)


class TestSmooth1D:
    def test_preserves_constants(self):
        mesh = Mesh1D(0.0, 1.0, 8)
        u = _mesh_fn(mesh, np.full(8, 2.5))
        assert np.allclose(smooth_1d(u, BoundaryData1D(2.5, 2.5)).values, 2.5)

    def test_spike(self):
        mesh = Mesh1D(0.0, 1.0, 3)
        u = _mesh_fn(mesh, [0.0, 1.0, 0.0])
        out = smooth_1d(u, BoundaryData1D(0.0, 0.0))
        assert out.values[1] == pytest.approx(0.5)

    def test_annihilates_alternation(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        u = _mesh_fn(mesh, [(-1.0) ** i for i in range(1, 10)])
        bc = BoundaryData1D(1.0, 1.0)  # continues the (-1)^i pattern at i=0, 10
        assert np.allclose(smooth_1d(u, bc).values, 0.0, atol=1e-15)

    def test_strictly_reduces_max_step_on_alternation(self):
        from monoscheme.grid import with_boundary
        from monoscheme.metrics import max_step_change, oscillates_point_to_point

        for n, amp, level in ((5, 0.5, 1.0), (9, 2.0, -3.0), (16, 0.1, 0.0)):
            mesh = Mesh1D(0.0, 1.0, n)
            vals = level + amp * (-1.0) ** np.arange(1, n + 1)
            u = _mesh_fn(mesh, vals)
            bc = BoundaryData1D(level + amp, level + amp * (-1.0) ** (n + 1))
            full = with_boundary(u, bc)
            assert oscillates_point_to_point(full, 0, n + 1)
            smoothed = with_boundary(smooth_1d(u, bc), bc)
            assert max_step_change(smoothed) < max_step_change(full)

    def test_identity_approximation_order(self):
        errors = []
        for n in (16, 32, 64, 128):
            mesh = Mesh1D(0.0, 1.0, n)
            u = sample(mesh, math.sin)
            bc = BoundaryData1D(math.sin(0.0), math.sin(1.0))
            errors.append(norm_c(smooth_1d(u, bc).values - u.values))
        hs = [1.0 / (n + 1) for n in (16, 32, 64, 128)]
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope >= 1.9


class TestSolveSmooth1D:
    def test_roundtrip(self):
        rng = np.random.default_rng(3)
        mesh = Mesh1D(0.0, 1.0, 64)
        bc = BoundaryData1D(0.3, -0.7)
        c = _mesh_fn(mesh, rng.standard_normal(64))
        b = smooth_1d(c, bc)
        rec = solve_smooth_1d(b, bc)
        assert norm_c(rec.values - c.values) <= 1e-12 * max(1.0, norm_c(c.values))

    def test_constants_fixed_point(self):
        mesh = Mesh1D(0.0, 1.0, 5)
        b = _mesh_fn(mesh, np.full(5, 7.0))
        out = solve_smooth_1d(b, BoundaryData1D(7.0, 7.0))
        assert np.allclose(out.values, 7.0)

    def test_single_unknown(self):
        mesh = Mesh1D(0.0, 1.0, 1)
        out = solve_smooth_1d(_mesh_fn(mesh, [1.0]), BoundaryData1D(0.0, 0.0))
        assert out.values[0] == pytest.approx(2.0)


class TestSmooth3D:
    def test_preserves_constants_mirror(self):
        mesh = Mesh3D(1.0, 5)
        u = _mesh_fn(mesh, np.ones(125))
        assert np.allclose(smooth_3d(u).values, 1.0)

    def test_spike_center(self):
        mesh = Mesh3D(1.0, 5)
        g = np.zeros((5, 5, 5))
        g[2, 2, 2] = 1.0
        u = MeshFunction(mesh, g)
        out = smooth_3d(u).as_grid()
        assert out[2, 2, 2] == pytest.approx(0.5)

    def test_exact_on_linear_interior(self):
        mesh = Mesh3D(2.0, 6)
        u = sample(mesh, lambda x, y, z: x)
        diff = smooth_3d(u).as_grid() - u.as_grid()
        assert np.max(np.abs(diff[1:-1, 1:-1, 1:-1])) < 1e-14

    def test_identity_approximation_order_interior(self):
        errors = []
        for N in (8, 16, 32):
            mesh = Mesh3D(1.0, N)
            u = sample(mesh, lambda x, y, z: math.sin(2 * x + y) * math.cos(z))
            d = smooth_3d(u).as_grid() - u.as_grid()
            errors.append(np.max(np.abs(d[1:-1, 1:-1, 1:-1])))
        hs = [1.0 / N for N in (8, 16, 32)]
        slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
        assert slope >= 1.9


class TestSolveSmooth3D:
    def test_roundtrip_mirror(self):
        rng = np.random.default_rng(11)
        mesh = Mesh3D(1.0, 6)
        c = _mesh_fn(mesh, rng.standard_normal(216))
        b = smooth_3d(c)
        rec = solve_smooth_3d(b, tol=1e-10)
        assert norm_c(rec.values - c.values) <= 1e-8

    def test_constant_fixed_point(self):
        mesh = Mesh3D(1.0, 4)
        b = _mesh_fn(mesh, np.ones(64))
        rec = solve_smooth_3d(b, tol=1e-12)
        assert np.allclose(rec.values, 1.0, atol=1e-10)

    def test_forced_iteration_failure(self):
        # Mirror patches on value-walled x faces are what the preconditioner
        # leaves out, so one iteration cannot reach the tolerance.
        rng = np.random.default_rng(2)
        mesh = Mesh3D(1.0, 6)
        hole = FaceRule(FaceGhost("value", 0.0), FaceGhost("mirror"), patch_lo=1, patch_hi=4)
        wall = FaceRule(FaceGhost("value", 0.0))
        spec = GhostSpec3D(hole, hole, wall, wall, wall, wall)
        b = _mesh_fn(mesh, rng.standard_normal(216))
        with pytest.raises(SolverError, match="smoothing solve stalled at residual") as err:
            solve_smooth_3d(b, spec, tol=1e-10, max_iters=1)
        residual = re.search(r"residual (\S+) \(tol 1\.000e-10\)$", str(err.value)).group(1)
        assert float(residual) > 1e-10

    @pytest.mark.parametrize("zhi", ["value", "mirror"])
    def test_patch_free_mixed_spec_solves_in_one_iteration(self, zhi):
        # Without patches the preconditioner is the exact inverse. With a
        # mirror zhi the three axes have three different (lo, hi) kinds, so
        # a preconditioner that mixes up the axes of the flat layout (x with
        # z, say) is no longer exact; with a value zhi x and z agree.
        rng = np.random.default_rng(2)
        mesh = Mesh3D(1.0, 6)
        mirror = FaceRule(FaceGhost("mirror"))
        spec = GhostSpec3D(mirror, FaceRule(FaceGhost("value", 0.3)),
                           FaceRule(FaceGhost("value", -1.0)), mirror,
                           mirror, FaceRule(FaceGhost(zhi)))
        c = _mesh_fn(mesh, rng.standard_normal(216))
        rec = solve_smooth_3d(smooth_3d(c, spec), spec, tol=1e-10, max_iters=1)
        assert norm_c(rec.values - c.values) <= 1e-12

    @pytest.mark.parametrize("kwargs, name", [
        ({"tol": float("nan")}, "tol"),
        ({"tol": float("inf")}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"max_iters": 0}, "max_iters"),
    ])
    def test_rejects_bad_settings(self, kwargs, name):
        mesh = Mesh3D(1.0, 4)
        b = _mesh_fn(mesh, np.ones(64))
        with pytest.raises(ValueError, match=name):
            solve_smooth_3d(b, **kwargs)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_right_side(self, bad):
        mesh = Mesh3D(1.0, 6)
        values = np.ones(216)
        values[100] = bad
        with pytest.raises(ValueError, match="b must be finite"):
            solve_smooth_3d(_mesh_fn(mesh, values))

    def test_rejects_non_finite_ghost_value(self):
        mesh = Mesh3D(1.0, 4)
        spec = GhostSpec3D(FaceRule(FaceGhost("mirror"), FaceGhost("value", float("nan")), 0, 1),
                           *(FaceRule(FaceGhost("mirror")) for _ in FACES[1:]))
        with pytest.raises(ValueError, match="spec ghost values"):
            solve_smooth_3d(_mesh_fn(mesh, np.ones(64)), spec)

    def test_value_ghost_roundtrip(self):
        rng = np.random.default_rng(5)
        mesh = Mesh3D(1.0, 5)
        spec = GhostSpec3D.uniform(FaceGhost("value", 0.7))
        c = _mesh_fn(mesh, rng.standard_normal(125))
        rec = solve_smooth_3d(smooth_3d(c, spec), spec, tol=1e-11)
        assert norm_c(rec.values - c.values) <= 1e-8

    def test_rejects_extrapolation_spec(self):
        mesh = Mesh3D(1.0, 4)
        spec = GhostSpec3D.uniform(FaceGhost("extrapolate"))
        with pytest.raises(ValueError, match="extrapolation"):
            solve_smooth_3d(_mesh_fn(mesh, np.zeros(64)), spec)

    def test_ghost_part_alone_solves_to_exact_zeros(self, monkeypatch):
        # b = smooth(0) is the ghost values' affine part: the first
        # from-scratch residual at x = 0 is exactly zero, and that one apply
        # is the whole solve.
        value, mirror = FaceRule(FaceGhost("value", 0.7)), FaceRule(FaceGhost("mirror"))
        spec = GhostSpec3D(value, mirror, value, value, mirror, value)
        b = smooth_3d(_mesh_fn(Mesh3D(1.0, 5), np.zeros(125)), spec)
        applies = []
        monkeypatch.setattr(stencils, "smooth_3d",
                            lambda *args: applies.append(args) or smooth_3d(*args))
        x = solve_smooth_3d(b, spec)
        assert np.array_equal(x.values, np.zeros(125))
        assert len(applies) == 1


class TestDenseCrossCheck:
    """Independent dense assembly of the seven-point smoothing system."""

    @staticmethod
    def dense_smooth_matrix(N, spec=MIRROR_ALL):
        """Matrix and affine part of smooth_3d under a mirror/value spec.

        A neighbor outside the mesh takes the rule of the face it lies
        beyond, the patch rule when both tangential indices are inside the
        patch: a mirror folds its 1/12 onto the center, a value moves it
        into the affine part.
        """
        import itertools

        size = N**3
        mat = np.zeros((size, size))
        aff = np.zeros(size)
        for i, j, k in itertools.product(range(N), repeat=3):
            row = i + N * j + N * N * k
            mat[row, row] += 0.5
            for d, e, f in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                            (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                ni, nj, nk = i + d, j + e, k + f
                if 0 <= ni < N and 0 <= nj < N and 0 <= nk < N:
                    mat[row, ni + N * nj + N * N * nk] += 1.0 / 12.0
                    continue
                ghost = face_ghost(spec, (i, j, k), (d, e, f))
                if ghost.kind == "mirror":
                    mat[row, row] += 1.0 / 12.0
                else:
                    aff[row] += ghost.value / 12.0
        return mat, aff

    def test_apply_matches_dense(self):
        rng = np.random.default_rng(17)
        mesh = Mesh3D(1.0, 4)
        x = rng.standard_normal(64)
        mat, aff = self.dense_smooth_matrix(4)
        mine = smooth_3d(MeshFunction(mesh, x)).values
        assert np.allclose(mine, mat @ x + aff, atol=1e-13)

    def test_apply_matches_dense_value_ghosts(self):
        rng = np.random.default_rng(18)
        mesh = Mesh3D(1.0, 4)
        x = rng.standard_normal(64)
        spec = GhostSpec3D.uniform(FaceGhost("value", 1.7))
        mat, aff = self.dense_smooth_matrix(4, spec)
        mine = smooth_3d(MeshFunction(mesh, x), spec).values
        assert np.allclose(mine, mat @ x + aff, atol=1e-13)

    def test_solve_matches_dense_inverse(self):
        rng = np.random.default_rng(19)
        mesh = Mesh3D(1.0, 4)
        b = rng.standard_normal(64)
        mat, aff = self.dense_smooth_matrix(4)
        expected = np.linalg.solve(mat, b - aff)
        mine = solve_smooth_3d(MeshFunction(mesh, b), tol=1e-12).values
        assert norm_c(mine - expected) <= 1e-9


class TestOperatorNorms:
    def test_smooth_1d_norm_is_one(self):
        mesh = Mesh1D(0.0, 1.0, 10)
        assert operator_norm_c(smoothing(mesh.n)) == 1.0

    def test_second_derivative_norm(self):
        mesh = Mesh1D(0.0, 1.1, 10)  # h = 0.1
        norm = operator_norm_c(second_difference(mesh))
        assert norm == pytest.approx(400.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_tridiagonal_norm_is_largest_dense_row_sum(self, n):
        t = Tridiagonal(-1.5, 0.25, 3.0, n)
        assert operator_norm_c(t) == np.abs(t.dense()).sum(axis=1).max()

    def test_tridiagonal_norm_with_infinite_band(self):
        # The end values' coefficients leave the row instead of meeting a
        # zero end value, which would give inf * 0 = NaN.
        assert operator_norm_c(Tridiagonal(np.inf, 1.0, 2.0, 3)) == np.inf
        assert operator_norm_c(Tridiagonal(np.inf, 1.0, np.inf, 1)) == 1.0

    def test_smooth_3d_norm_is_one(self):
        mesh = Mesh3D(1.0, 4)
        assert operator_norm_c((mesh, MIRROR_ALL)) == 1.0

    def test_smooth_3d_norm_value_ghosts(self):
        # Interior rows still sum to one; the edge rows shed the ghost weight.
        mesh = Mesh3D(1.0, 4)
        spec = GhostSpec3D.uniform(FaceGhost("value", 0.0))
        assert operator_norm_c((mesh, spec)) == 1.0

    def test_smooth_3d_norm_mixed_faces(self):
        # Value ghosts on x, mirrors elsewhere: every row keeps its four
        # y/z twelfths; a cell off both x-faces keeps both x twelfths, and
        # at N=2 every cell sheds one of them.
        value, mirror = FaceRule(FaceGhost("value", 2.0)), FaceRule(FaceGhost("mirror"))
        spec = GhostSpec3D(value, value, mirror, mirror, mirror, mirror)
        assert operator_norm_c((Mesh3D(1.0, 3), spec)) == 1.0
        assert operator_norm_c((Mesh3D(1.0, 2), spec)) == 0.5 + 5 / 12

    def test_smooth_3d_norm_rejects_extrapolation(self):
        spec = GhostSpec3D.uniform(FaceGhost("extrapolate"))
        with pytest.raises(ValueError, match="extrapolation"):
            operator_norm_c((Mesh3D(1.0, 4), spec))


class TestDerivatives3D:
    def test_gradient_exact_on_linear(self):
        mesh = Mesh3D(2.0, 8)
        u = sample(mesh, lambda x, y, z: 3.0 * x)
        g = gradient_3d(u, 0, MIRROR_ALL).as_grid()
        assert np.max(np.abs(g[1:-1, 1:-1, 1:-1] - 3.0)) < 1e-12

    def test_laplacian_exact_on_quadratic(self):
        mesh = Mesh3D(2.0, 8)
        u = sample(mesh, lambda x, y, z: x * x)
        lap = laplacian_3d(u, MIRROR_ALL).as_grid()
        assert np.max(np.abs(lap[1:-1, 1:-1, 1:-1] - 2.0)) < 1e-9

    def test_laplacian_matches_neighbor_sum_within_roundoff(self):
        # Reference: the six neighbors summed first, then -6u. The operator
        # adds the neighbor pairs to -6u axis by axis, which may round
        # differently but by no more than a few eps of the terms' scale.
        rng = np.random.default_rng(23)
        mesh = Mesh3D(1.0, 12)
        spec = GhostSpec3D.uniform(FaceGhost("value", 0.3))
        u = _mesh_fn(mesh, rng.standard_normal(12**3))
        pad = pad_grid(u.as_grid(), spec)
        core = pad[1:-1, 1:-1, 1:-1]
        nbrs = (pad[2:, 1:-1, 1:-1], pad[:-2, 1:-1, 1:-1], pad[1:-1, 2:, 1:-1],
                pad[1:-1, :-2, 1:-1], pad[1:-1, 1:-1, 2:], pad[1:-1, 1:-1, :-2])
        h2 = mesh.h ** 2
        expected = (sum(nbrs[1:], nbrs[0]) - 6.0 * core) / h2
        scale = (sum(np.abs(n) for n in nbrs) + 6.0 * np.abs(core)) / h2
        dev = np.abs(laplacian_3d(u, spec).as_grid() - expected)
        assert np.all(dev <= 4 * np.finfo(float).eps * scale)

    def test_divergence_free_linear_field(self):
        mesh = Mesh3D(1.0, 6)
        vx = sample(mesh, lambda x, y, z: x)
        vy = sample(mesh, lambda x, y, z: y)
        vz = sample(mesh, lambda x, y, z: -2.0 * z)
        policy = BoundaryPolicy3D(vx=MIRROR_ALL, vy=MIRROR_ALL, vz=MIRROR_ALL, p=MIRROR_ALL)
        div = divergence_3d(vx, vy, vz, policy).as_grid()
        assert np.max(np.abs(div[1:-1, 1:-1, 1:-1])) < 1e-12

    def test_extrapolation_ghost_gives_one_sided_derivative(self):
        mesh = Mesh3D(1.0, 4)
        u = sample(mesh, lambda x, y, z: x * x)
        spec = GhostSpec3D.uniform(FaceGhost("extrapolate"))
        g = gradient_3d(u, 0, spec).as_grid()
        grid = u.as_grid()
        h = mesh.h
        expected = (grid[1, 0, 0] - grid[0, 0, 0]) / h
        assert g[0, 0, 0] == pytest.approx(expected)


class TestPatchRanges:
    def test_negative_patch_start_rejected(self):
        with pytest.raises(ValueError, match="patch range"):
            FaceRule(FaceGhost("value", 0.0), FaceGhost("mirror"), patch_lo=-1, patch_hi=2)

    def test_reversed_patch_range_rejected(self):
        with pytest.raises(ValueError, match="patch range"):
            FaceRule(FaceGhost("value", 0.0), FaceGhost("mirror"), patch_lo=3, patch_hi=2)

    def test_unknown_ghost_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown ghost kind 'bogus'"):
            FaceGhost("bogus")

    def test_patch_beyond_mesh_rejected(self):
        rule = FaceRule(FaceGhost("value", 0.0), FaceGhost("mirror"), patch_lo=1, patch_hi=4)
        spec = GhostSpec3D(rule, *(FaceRule(FaceGhost("mirror")) for _ in FACES[1:]))
        assert pad_grid(np.ones((5, 5, 5)), spec)[0, 5, 5] == 1.0
        with pytest.raises(ValueError, match="outside cells 0..3"):
            pad_grid(np.ones((4, 4, 4)), spec)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)



class TestStencilProperties:
    @PROPERTY
    @given(data=st.data(), N=st.integers(2, 5))
    def test_pad_grid_matches_per_cell_ghosts(self, data, N):
        spec = data.draw(ghost_specs(N))
        plan = ghost_plan(spec, N)
        reused = plan.new_pad()
        # The second interior shows that a refill overwrites every ghost the
        # first one left behind.
        for _ in range(2):
            grid = np.asarray(data.draw(st.lists(
                st.floats(-100.0, 100.0), min_size=N**3, max_size=N**3))).reshape(N, N, N)
            reused[1:-1, 1:-1, 1:-1] = grid
            plan.refill(reused)
            expected = brute_pad(grid, spec)
            assert np.array_equal(pad_grid(grid, spec), expected)
            assert np.array_equal(reused, expected)

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("kind", ["mirror", "extrapolate"])
    def test_paired_faces_refill_like_per_cell_ghosts(self, kind, N):
        # At N = 2 the two faces' inner rows come in reverse order, and at
        # N = 3 they are one row.
        spec = GhostSpec3D.uniform(FaceGhost(kind))
        grid = np.random.default_rng(N).standard_normal((N, N, N))
        pad = ghost_plan(spec, N).new_pad()
        pad[1:-1, 1:-1, 1:-1] = grid
        ghost_plan(spec, N).refill(pad)
        assert np.array_equal(pad, brute_pad(grid, spec))

    @pytest.mark.parametrize("N", [2, 3, 4])
    @pytest.mark.parametrize("span", ["whole_face", "first_cell", "last_cell"])
    @pytest.mark.parametrize("patch_kind", ["value", "mirror", "extrapolate"])
    @pytest.mark.parametrize("base_kind", ["value", "mirror", "extrapolate"])
    def test_explicit_patches_pad_like_per_cell_ghosts(self, base_kind, patch_kind, span, N):
        # The patch edges the random specs reach only by chance: a patch over
        # the whole face, and one cell at either corner of it.
        lo, hi = {"whole_face": (0, N - 1), "first_cell": (0, 0), "last_cell": (N - 1, N - 1)}[span]
        rule = FaceRule(FaceGhost(base_kind, 1.5 if base_kind == "value" else 0.0),
                        FaceGhost(patch_kind, -2.5 if patch_kind == "value" else 0.0), lo, hi)
        spec = GhostSpec3D(*(rule for _ in FACES))
        grid = np.random.default_rng(N).standard_normal((N, N, N))
        assert np.array_equal(pad_grid(grid, spec), brute_pad(grid, spec))

    def test_single_cell_pads_like_per_cell_ghosts(self):
        spec = GhostSpec3D(FaceRule(FaceGhost("value", 2.5)),
                           *(FaceRule(FaceGhost("mirror")) for _ in FACES[1:]))
        grid = np.full((1, 1, 1), 3.0)
        assert np.array_equal(pad_grid(grid, spec), brute_pad(grid, spec))

    def test_value_ghosts_keep_their_sign_bit(self):
        # A new pad starts at +0.0, so a -0.0 ghost must still be written.
        spec = GhostSpec3D(FaceRule(FaceGhost("value", -0.0)), FaceRule(FaceGhost("value", 0.0)),
                           *(FaceRule(FaceGhost("mirror")) for _ in FACES[2:]))
        pad = GhostPlan(spec, 3).new_pad()
        assert np.signbit(pad[0, 1:-1, 1:-1]).all() and not np.signbit(pad[-1]).any()

    def test_plan_cache_tells_zero_signs_apart(self):
        # The two specs are equal, but their pads differ in the ghosts' sign.
        plus, minus = (GhostSpec3D.uniform(FaceGhost("value", z)) for z in (0.0, -0.0))
        assert plus == minus and ghost_plan(plus, 3) is ghost_plan(plus, 3)
        assert not np.signbit(pad_grid(np.ones((3, 3, 3)), plus)).any()
        pad = pad_grid(np.ones((3, 3, 3)), minus)
        assert np.signbit(pad[0, 1:-1, 1:-1]).all() and np.signbit(pad[1:-1, 1:-1, -1]).all()

    def test_extrapolation_at_one_cell_rejected(self):
        # Its inner cell would be the other face's ghost.
        patched = FaceRule(FaceGhost("mirror"), FaceGhost("extrapolate"), 0, 0)
        for spec in (GhostSpec3D.uniform(FaceGhost("extrapolate")),
                     GhostSpec3D(*(FaceRule(FaceGhost("mirror")) for _ in FACES[1:]), patched)):
            with pytest.raises(ValueError, match="N >= 2"):
                pad_grid(np.ones((1, 1, 1)), spec)

    def test_refill_rejects_non_contiguous_pad(self):
        pad = np.zeros((5, 5, 10))[:, :, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            ghost_plan(MIRROR_ALL, 3).refill(pad)

    @PROPERTY
    @given(data=st.data(), N=st.integers(2, 4))
    def test_operator_norm_is_dense_row_sum(self, data, N):
        spec = data.draw(ghost_specs(N, kinds=("value", "mirror")))
        mat, _ = TestDenseCrossCheck.dense_smooth_matrix(N, spec)
        expected = np.abs(mat).sum(axis=1).max()
        assert operator_norm_c((Mesh3D(1.0, N), spec)) == pytest.approx(expected, abs=1e-14)

    @PROPERTY
    @given(system=smoothing_systems())
    @example(system=(4, GhostSpec3D(
        FaceRule(FaceGhost("mirror"), FaceGhost("value", 2.5), 1, 2),
        FaceRule(FaceGhost("value", -0.5), FaceGhost("mirror"), 0, 2),
        *(FaceRule(FaceGhost("mirror")) for _ in FACES[2:])), np.linspace(-10.0, 10.0, 64)))
    def test_solve_matches_dense_inverse(self, system):
        N, spec, b = system
        mat, aff = TestDenseCrossCheck.dense_smooth_matrix(N, spec)
        expected = np.linalg.solve(mat, b - aff)
        mine = solve_smooth_3d(MeshFunction(Mesh3D(1.0, N), b), spec, tol=1e-11).values
        assert norm_c(mine - expected) <= 1e-9

    @PROPERTY
    @given(N=st.integers(2, 7), c=st.floats(-1e6, 1e6))
    def test_smoother_keeps_constants_under_mirror(self, N, c):
        mesh = Mesh3D(1.0, N)
        out = smooth_3d(_mesh_fn(mesh, np.full(N**3, c))).values
        assert np.max(np.abs(out - c)) <= 4 * np.finfo(float).eps * abs(c)

    @PROPERTY
    @given(N=st.integers(3, 7), amp=st.floats(-1e6, 1e6))
    def test_smoother_zeroes_interior_checkerboard(self, N, amp):
        mesh = Mesh3D(1.0, N)
        i, j, k = np.indices((N, N, N))
        u = MeshFunction(mesh, amp * (-1.0) ** (i + j + k))
        out = smooth_3d(u).as_grid()[1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(out)) <= 4 * np.finfo(float).eps * abs(amp)


def nan_edged(pad):
    """A copy of the pad with NaN at every ghost edge and corner: each
    position with two or more coordinates in the ghost layer."""
    out = pad.copy()
    i, j, k = np.indices(pad.shape)
    last = pad.shape[0] - 1
    ghost = [(c == 0) | (c == last) for c in (i, j, k)]
    out[sum(g.astype(int) for g in ghost) >= 2] = np.nan
    return out


class TestFlatKernels:
    """The stencils run on one flat range of the pad; their cells must equal
    the 3D-slice expressions, and no cell may read a ghost edge or corner."""

    @PROPERTY
    @given(N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
    @example(N=1, seed=0, scale=1.0)  # the range is a single cell
    def test_cells_equal_slice_expressions(self, N, seed, scale):
        pad = scale * np.random.default_rng(seed).standard_normal((N + 2,) * 3)
        view = pad_range(N)
        expected = slice_smooth(pad)
        for given_pad in (pad, nan_edged(pad)):
            for out in (None, np.full(view.size, np.inf)):
                vec = smooth_pad(given_pad, out=out)
                assert vec.shape == (view.size,) and (out is None or vec is out)
                assert same_bits(view.cells(vec), expected)

    @PROPERTY
    @given(data=st.data(), N=st.integers(2, 6), L=st.floats(1e-3, 10.0))
    def test_public_operators_equal_slice_expressions(self, data, N, L):
        mesh = Mesh3D(L, N)
        specs = [data.draw(ghost_specs(N)) for _ in range(3)]
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        fields = [MeshFunction(mesh, rng.standard_normal(N**3)) for _ in range(3)]
        pads = [pad_grid(u.as_grid(), spec) for u, spec in zip(fields, specs)]
        u, spec, h = fields[0], specs[0], mesh.h
        for a in range(3):
            assert same_bits(gradient_3d(u, a, spec).as_grid(), slice_difference(pads[0], a, h))
        assert same_bits(laplacian_3d(u, spec).as_grid(), slice_laplacian(pads[0], h))
        div = divergence_3d(*fields, BoundaryPolicy3D(*specs, p=MIRROR_ALL))
        expected = (slice_difference(pads[0], 0, h) + slice_difference(pads[1], 1, h)
                    + slice_difference(pads[2], 2, h))
        assert same_bits(div.as_grid(), expected)

    @PROPERTY
    @given(N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_primitives_equal_slice_expressions(self, N, seed):
        rng = np.random.default_rng(seed)
        pad = nan_edged(rng.standard_normal((N + 2,) * 3))
        view = pad_range(N)
        for a in range(3):
            assert same_bits(view.cells(central_step(pad, a)), pad[PLUS[a]] - pad[MINUS[a]])
        start = rng.standard_normal(view.size)
        expected = view.cells(start).copy()
        for a in range(3):
            expected += pad[PLUS[a]]
            expected += pad[MINUS[a]]
        acc = start.copy()
        assert add_neighbors(pad, acc) is acc
        assert same_bits(view.cells(acc), expected)

    @pytest.mark.parametrize("N", [1, 2, 5])
    def test_range_geometry(self, N):
        view = pad_range(N)
        S = N + 2
        assert (view.lo, view.hi) == (S * S + S + 1, N * S * S + N * S + N + 1)
        assert pad_range(N) is view
        # Numbering the pad's positions shows where each range slot sits.
        pad = np.arange(float(S**3)).reshape(S, S, S)
        vec = view.of(pad)
        assert np.array_equal(view.cells(vec), pad[1:-1, 1:-1, 1:-1])
        assert np.shares_memory(view.cells(vec), pad)
        i, j, k = np.unravel_index(vec[view.ghosts].astype(int), pad.shape)
        assert np.all((1 <= i) & (i <= N))
        assert np.all((j == 0) | (j == S - 1) | (k == 0) | (k == S - 1))
        assert len(view.ghosts) + N**3 == view.size


EPS = np.finfo(float).eps


@st.composite
def tridiagonals(draw, n=st.integers(1, 40), band=st.floats(-1e3, 1e3)):
    return Tridiagonal(draw(band), draw(band), draw(band), draw(n))


@st.composite
def dominant_tridiagonals(draw):
    """Strictly diagonally dominant: |diag| >= 1.5 (|lower| + |upper|) + 1."""
    lower, upper = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    ratio = draw(st.floats(1.5, 10.0))
    diag = (ratio * (abs(lower) + abs(upper)) + 1.0) * draw(st.sampled_from((-1.0, 1.0)))
    return Tridiagonal(lower, diag, upper, draw(st.integers(1, 40)))


def node_values(n):
    return st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n).map(np.asarray)


class TestTridiagonalProperties:
    @PROPERTY
    @given(data=st.data(), t=tridiagonals(), ends=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
    def test_apply_is_dense_plus_offset(self, data, t, ends):
        u = data.draw(node_values(t.n))
        bc = BoundaryData1D(*ends)
        ext = np.abs(np.concatenate(([bc.u0], u, [bc.u_np1])))
        scale = abs(t.lower) * ext[:-2] + abs(t.diag) * ext[1:-1] + abs(t.upper) * ext[2:]
        dev = np.abs(t.apply(u, bc) - (t.dense() @ u + t.offset(bc)))
        assert np.all(dev <= 4 * EPS * scale)

    @PROPERTY
    @given(data=st.data(), t=dominant_tridiagonals())
    def test_solve_inverts_apply(self, data, t):
        u = data.draw(node_values(t.n))
        x = t.solve(t.apply(u, BoundaryData1D(0.0, 0.0)))
        assert norm_c(x - u) <= 16 * EPS * norm_c(u)

    @PROPERTY
    @given(t=tridiagonals())
    def test_operator_norm_is_dense_row_sum(self, t):
        expected = np.abs(t.dense()).sum(axis=1).max()
        assert operator_norm_c(t) == pytest.approx(expected, rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("t, rhs, error, message", [
        (Tridiagonal(1.0, math.inf, 1.0, 3), np.ones(3), SolverError, "band or right side"),
        (Tridiagonal(math.nan, 2.0, 1.0, 1), np.ones(1), SolverError, "band or right side"),
        (Tridiagonal(1.0, 4.0, 1.0, 3), np.array([1.0, -math.inf, 1.0]), SolverError,
         "band or right side"),
        (Tridiagonal(1.0, 0.0, 1.0, 3), np.ones(3), SingularOperatorError, "singular matrix"),
        (Tridiagonal(1.0, 0.0, 1.0, 1), np.ones(1), SingularOperatorError, "singular matrix"),
        (Tridiagonal(0.0, 1e-300, 0.0, 2), np.full(2, 1e300), SolverError, "answer"),
        (Tridiagonal(0.0, 1e-300, 0.0, 1), np.full(1, 1e300), SolverError, "answer"),
    ])
    def test_solve_breakdown_raises_without_warning(self, t, rhs, error, message):
        with pytest.raises(error, match=message):
            t.solve(rhs)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_offset_keeps_both_end_values(self, n):
        off = Tridiagonal(2.0, 5.0, 3.0, n).offset(BoundaryData1D(7.0, 11.0))
        assert off[0] == (14.0 + 33.0 if n == 1 else 14.0)
        assert off[-1] == (14.0 + 33.0 if n == 1 else 33.0)
        assert np.all(off[1:-1] == 0.0)
