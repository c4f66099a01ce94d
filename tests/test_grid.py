import math
import tracemalloc

import numpy as np
import pytest

from monoscheme.grid import (
    BoundaryData1D,
    Mesh1D,
    Mesh3D,
    MeshFunction,
    norm_c,
    sample,
    with_boundary,
)
from monoscheme.stencils import pad_range


class TestMesh1D:
    def test_step_and_nodes(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        assert mesh.h == pytest.approx(0.1, abs=0)
        assert len(mesh.interior_x()) == 9
        assert len(mesh.all_x()) == 11

    def test_step_relation_exact(self):
        for a, b, n in ((0.0, 1.0, 7), (-2.0, 3.0, 13), (0.0, 1 / 30, 19)):
            mesh = Mesh1D(a, b, n)
            assert mesh.h == (b - a) / (n + 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="need at least one interior node, got n=0"):
            Mesh1D(0.0, 1.0, 0)
        with pytest.raises(ValueError, match=r"domain \[a, b\] = \[1.0, 1.0\] must be finite with a < b"):
            Mesh1D(1.0, 1.0, 5)

    @pytest.mark.parametrize("a, b", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0), (0.0, np.nan)])
    def test_rejects_unbounded_or_nan_domain(self, a, b):
        with pytest.raises(ValueError, match=r"domain \[a, b\]"):
            Mesh1D(a, b, 5)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_rejects_non_integer_count(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            Mesh1D(0.0, 1.0, n)

    def test_accepts_numpy_integer_count(self):
        assert Mesh1D(0.0, 1.0, np.int64(9)).h == Mesh1D(0.0, 1.0, 9).h


class TestMesh3D:
    def test_trivial_example(self):
        mesh = Mesh3D(1.0, 2)
        assert mesh.h == 0.5
        assert mesh.cell_count == 8

    def test_fine_mesh(self):
        mesh = Mesh3D(1 / 30, 20)
        assert mesh.h == pytest.approx((1 / 30) / 20)
        assert mesh.cell_count == 8000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="need at least 2 cells per direction, got N=0"):
            Mesh3D(1.0, 0)
        with pytest.raises(ValueError, match="cube side must be positive and finite, got L=-1.0"):
            Mesh3D(-1.0, 4)

    def test_non_integer_count_rejected_like_mesh3d(self):
        with pytest.raises(ValueError, match="N must be an integer"):
            Mesh3D(1.0, 2.5)

    @pytest.mark.parametrize("L", [np.nan, np.inf])
    def test_rejects_non_finite_side(self, L):
        with pytest.raises(ValueError, match="L="):
            Mesh3D(L, 4)

    @pytest.mark.parametrize("N", [2.5, 4.0])
    def test_rejects_non_integer_count(self, N):
        with pytest.raises(ValueError, match="N must be an integer"):
            Mesh3D(1.0, N)

    def test_accepts_numpy_integer_count(self):
        assert Mesh3D(1.0, np.int32(4)).cell_count == 64

    def test_cell_centers(self):
        mesh = Mesh3D(1.0, 2)
        assert mesh.axis_centers().tolist() == [0.25, 0.75]


class TestFlatOrder:
    """MeshFunction stores 3D values flat, i-fastest: flat = i + N*j + N*N*k."""

    def test_corners(self):
        g = MeshFunction(Mesh3D(1.0, 20), np.arange(8000, dtype=float)).as_grid()
        assert g[0, 0, 0] == 0
        assert g[19, 19, 19] == 7999

    def test_arithmetic(self):
        g = MeshFunction(Mesh3D(1.0, 4), np.arange(64, dtype=float)).as_grid()
        assert g[1, 2, 3] == 1 + 8 + 48

    @pytest.mark.parametrize("N", [2, 3, 5, 8])
    def test_roundtrip_is_identity(self, N):
        # A grid holding each cell's own flat index flattens to 0, 1, ..., N^3 - 1.
        i, j, k = np.indices((N, N, N))
        mf = MeshFunction(Mesh3D(1.0, N), (i + N * j + N * N * k).astype(float))
        assert np.array_equal(mf.values, np.arange(N**3, dtype=float))

    def test_grid_view_matches_flat_order(self):
        mesh = Mesh3D(1.0, 3)
        values = np.arange(27, dtype=float)
        mf = MeshFunction(mesh, values)
        g = mf.as_grid()
        for i, j, k in np.ndindex(3, 3, 3):
            assert g[i, j, k] == i + 3 * j + 9 * k


class TestMeshFunction:
    def test_length_validation(self):
        mesh = Mesh1D(0.0, 1.0, 3)
        with pytest.raises(ValueError):
            MeshFunction(mesh, np.zeros(4))

    def test_values_frozen(self):
        mesh = Mesh1D(0.0, 1.0, 3)
        mf = MeshFunction(mesh, np.zeros(3))
        with pytest.raises(ValueError):
            mf.values[0] = 1.0

    def test_grid_view_needs_3d(self):
        with pytest.raises(TypeError, match="as_grid is only defined for 3D"):
            MeshFunction(Mesh1D(0.0, 1.0, 3), np.zeros(3)).as_grid()

    def test_grid_roundtrip(self):
        mesh = Mesh3D(1.0, 4)
        values = np.random.default_rng(0).standard_normal(64)
        mf = MeshFunction(mesh, values)
        again = MeshFunction(mesh, mf.as_grid())
        assert np.array_equal(again.values, values)


N_IN = 6
MESH_IN = Mesh3D(1.0, N_IN)
RANGE_IN = pad_range(N_IN)


def _inputs():
    """The accepted input forms, each with its mesh: flat vectors and
    (N, N, N) [i, j, k] grids, contiguous, strided and broadcast."""
    rng = np.random.default_rng(7)
    grid = rng.standard_normal((N_IN,) * 3)
    return {
        "flat_1d": (Mesh1D(0.0, 1.0, 9), rng.standard_normal(9)),
        "flat_3d": (MESH_IN, rng.standard_normal(N_IN**3)),
        "as_grid": (MESH_IN, MeshFunction(MESH_IN, grid.ravel(order="F")).as_grid()),
        "cells": (MESH_IN, RANGE_IN.cells(rng.standard_normal(RANGE_IN.size))),
        "broadcast": (MESH_IN, np.broadcast_to(rng.standard_normal(N_IN)[:, None, None],
                                               (N_IN,) * 3)),
    }


class TestOneCopy:
    """MeshFunction takes the flat vector or the [i, j, k] grid and copies once."""

    @pytest.mark.parametrize("name", list(_inputs()))
    def test_values_are_a_frozen_column_major_copy(self, name):
        mesh, data = _inputs()[name]
        mf = MeshFunction(mesh, data)
        assert np.array_equal(mf.values, np.ravel(data, order="F"))
        assert mf.values.shape == (data.size,)
        assert not np.shares_memory(mf.values, data)
        assert not mf.values.flags.writeable
        with pytest.raises(ValueError):
            mf.values[0] = 1.0

    @pytest.mark.parametrize("mesh, shape", [
        (MESH_IN, (N_IN**2, N_IN)),
        (MESH_IN, (N_IN, N_IN)),
        (Mesh1D(0.0, 1.0, 9), (9, 1)),
        (Mesh1D(0.0, 1.0, 8), (2, 2, 2)),
    ])
    def test_other_shapes_raise(self, mesh, shape):
        with pytest.raises(ValueError, match="expected shape"):
            MeshFunction(mesh, np.zeros(shape))

    def test_strided_view_costs_one_array(self):
        # Measured with numpy 2.4: the values array plus 480 bytes of overhead.
        N = 20
        rng = pad_range(N)
        cells = rng.cells(np.random.default_rng(1).standard_normal(rng.size))
        MeshFunction(Mesh3D(1.0, N), cells)  # warm up any first-call allocation
        tracemalloc.start()
        try:
            MeshFunction(Mesh3D(1.0, N), cells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= N**3 * 8 + 2048


class TestSample:
    def test_linear_1d(self):
        mesh = Mesh1D(0.0, 1.0, 3)
        mf = sample(mesh, lambda x: x)
        assert np.allclose(mf.values, [0.25, 0.5, 0.75])

    def test_zero_function(self):
        mesh = Mesh1D(0.0, 1.0, 5)
        assert np.all(sample(mesh, lambda x: 0.0).values == 0.0)

    def test_cell_centers_3d(self):
        mesh = Mesh3D(1.0, 2)
        mf = sample(mesh, lambda x, y, z: x)
        assert set(np.round(mf.values, 12)) == {0.25, 0.75}

    @staticmethod
    def per_cell(mesh, f):
        """The values of f called once per cell, in MeshFunction order."""
        c = mesh.axis_centers()
        N = mesh.N
        return np.array([f(c[i], c[j], c[k]) for k in range(N) for j in range(N) for i in range(N)])

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("N", [3, 10])
    def test_array_call_is_bitwise_the_per_cell_loop(self, seed, N):
        a, b, c = np.random.default_rng(seed).uniform(1.0, 3.0, 3)

        def f(x, y, z):
            return np.sin(a * x) * np.cos(b * y) + c * z * z

        mesh = Mesh3D(1.0, N)
        assert sample(mesh, f).values.tobytes() == self.per_cell(mesh, f).tobytes()

    def test_scalar_only_callable_runs_per_cell(self):
        mesh = Mesh3D(1.0, 4)

        def f(x, y, z):
            return math.sin(x) * math.cos(y) + (1.0 if z > 0.5 else 0.0)

        assert np.array_equal(sample(mesh, f).values, self.per_cell(mesh, f))

    @pytest.mark.parametrize("N", range(2, 9))
    def test_scalar_only_callable_is_bitwise_the_array_call(self, N):
        a, b, c = np.random.default_rng(N).uniform(1.0, 3.0, 3)

        def f(x, y, z):
            return np.sin(a * x) * np.cos(b * y) + c * z * z

        def scalar_only(x, y, z):
            if np.ndim(x) or np.ndim(y) or np.ndim(z):
                raise TypeError("scalars only")
            return f(x, y, z)

        mesh = Mesh3D(1.0, N)
        assert sample(mesh, scalar_only).values.tobytes() == sample(mesh, f).values.tobytes()

    def test_constant_and_single_axis_results_broadcast(self):
        mesh = Mesh3D(1.0, 3)
        assert np.all(sample(mesh, lambda x, y, z: 2.5).values == 2.5)
        grid = sample(mesh, lambda x, y, z: z).as_grid()
        assert np.array_equal(grid[0, 0, :], mesh.axis_centers())
        assert np.all(grid == grid[:1, :1, :])


class TestBoundaryData:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            BoundaryData1D(float("nan"), 0.0)

    def test_with_boundary(self):
        mesh = Mesh1D(0.0, 1.0, 2)
        mf = MeshFunction(mesh, [1.0, 2.0])
        full = with_boundary(mf, BoundaryData1D(0.0, 3.0))
        assert np.array_equal(full, [0.0, 1.0, 2.0, 3.0])

    def test_with_boundary_needs_1d(self):
        with pytest.raises(TypeError, match="with_boundary is only defined for 1D"):
            with_boundary(MeshFunction(Mesh3D(1.0, 2), np.zeros(8)), BoundaryData1D(0.0, 0.0))


def test_norm_c():
    assert norm_c(np.array([1.0, -3.0, 2.0])) == 3.0
    assert norm_c(np.array([])) == 0.0
