from dataclasses import asdict

import numpy as np
import pytest

from monoscheme.grid import BoundaryData1D, Mesh1D, norm_c, with_boundary
from monoscheme.bvp1d import (
    OrderEstimate,
    SchemeCoefficients,
    analytic_solution,
    convergence_order,
    determinant_scan,
    scheme_residual,
    solve_base,
    solve_monotonized,
    solve_monotonized_inverse,
)
from monoscheme.metrics import max_step_change, oscillates_point_to_point
from monoscheme.stencils import first_difference, second_difference, smoothing

BC_05 = BoundaryData1D(0.5, 0.5)
OSCILLATORY = SchemeCoefficients(k0=10.0, k1=-5.0, k2=30.0, k3=-1.0)


def residual_scale(c, mesh, sol_values, monotonized):
    lo_d = c.k3 - mesh.h * c.k2 / 2.0
    hi_d = c.k3 + mesh.h * c.k2 / 2.0
    mid = mesh.h**2 * c.k1 - 2 * c.k3
    if monotonized:
        m = mesh.h**2 * c.k1 / 4.0
        lo_d, mid, hi_d = lo_d + m, mesh.h**2 * c.k1 / 2 - 2 * c.k3, hi_d + m
    mat_norm = abs(lo_d) + abs(mid) + abs(hi_d)
    return mat_norm * norm_c(sol_values) + abs(mesh.h**2 * c.k0)


class TestSolveBase:
    def test_laplace_gives_linear(self):
        c = SchemeCoefficients(0.0, 0.0, 0.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 17)
        sol = solve_base(c, mesh, BoundaryData1D(0.0, 1.0))
        assert np.allclose(sol.u.values, mesh.interior_x(), atol=1e-12)

    def test_exact_quadratic(self):
        c = SchemeCoefficients(-2.0, 0.0, 0.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 9)
        sol = solve_base(c, mesh, BoundaryData1D(0.0, 1.0))
        assert np.allclose(sol.u.values, mesh.interior_x() ** 2, atol=1e-12)

    def test_residual_contract(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        sol = solve_base(OSCILLATORY, mesh, BC_05)
        assert sol.residual_c_norm <= 1e-10 * residual_scale(
            OSCILLATORY, mesh, sol.u.values, False
        )

    def test_oscillatory_setup_has_boundary_layer_kink(self):
        # The advection-dominated problem on 11 total points wiggles where
        # the layer is unresolved; the last two steps alternate in sign.
        mesh = Mesh1D(0.0, 1.0, 9)
        sol = solve_base(OSCILLATORY, mesh, BC_05)
        full = with_boundary(sol.u, BC_05)
        diffs = np.diff(full)
        assert diffs[-1] > 0 > diffs[-2]
        assert oscillates_point_to_point(full, 8, 10)

    def test_caption_literal_coarse_mesh_oscillates_everywhere(self):
        # On the 4-point mesh the same coefficients alternate at every
        # interior node, and the monotonized answer does not.
        mesh = Mesh1D(0.0, 1.0, 2)
        base = solve_base(OSCILLATORY, mesh, BC_05)
        mono = solve_monotonized(OSCILLATORY, mesh, BC_05)
        u_full = with_boundary(base.u, BC_05)
        y_full = with_boundary(mono.y, BC_05)
        assert oscillates_point_to_point(u_full, 0, 3)
        assert not oscillates_point_to_point(y_full, 0, 3)
        assert max_step_change(y_full) < max_step_change(u_full)


class TestSolveMonotonized:
    def test_reduces_to_base_when_k1_zero(self):
        c = SchemeCoefficients(1.0, 0.0, 2.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 12)
        base = solve_base(c, mesh, BoundaryData1D(0.0, 1.0))
        mono = solve_monotonized(c, mesh, BoundaryData1D(0.0, 1.0))
        assert np.allclose(mono.v.values, base.u.values, atol=1e-13)

    def test_constant_solution_preserved(self):
        c = SchemeCoefficients(5.0, -1.0, 0.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 8)
        mono = solve_monotonized(c, mesh, BoundaryData1D(5.0, 5.0))
        assert np.allclose(mono.v.values, 5.0, atol=1e-12)
        assert np.allclose(mono.y.values, 5.0, atol=1e-12)

    def test_y_is_smoothed_v(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        mono = solve_monotonized(OSCILLATORY, mesh, BC_05)
        from monoscheme.stencils import smooth_1d

        assert np.array_equal(mono.y.values, smooth_1d(mono.v, BC_05).values)

    def test_fig1_monotonization_properties(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        base = solve_base(OSCILLATORY, mesh, BC_05)
        mono = solve_monotonized(OSCILLATORY, mesh, BC_05)
        u_full = with_boundary(base.u, BC_05)
        y_full = with_boundary(mono.y, BC_05)
        assert max_step_change(y_full) < max_step_change(u_full)
        # pinned regression of the build-time measured closeness
        ratio = norm_c(base.u.values - mono.v.values) / norm_c(base.u.values)
        assert ratio <= 0.005

    def test_residual_contract(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        mono = solve_monotonized(OSCILLATORY, mesh, BC_05)
        assert mono.residual_c_norm <= 1e-10 * residual_scale(
            OSCILLATORY, mesh, mono.v.values, True
        )

    def test_difference_identity(self):
        # The two schemes' solutions satisfy
        # [h^2 k1 E + h k2 D1~ + k3 D2~](u - v) = h^2 k1 (Mv - v).
        mesh = Mesh1D(0.0, 1.0, 9)
        c = OSCILLATORY
        base = solve_base(c, mesh, BC_05)
        mono = solve_monotonized(c, mesh, BC_05)
        diff = base.u.values - mono.v.values
        h = mesh.h
        d1 = first_difference(mesh).dense() * h
        d2 = second_difference(mesh).dense() * h**2
        m_mat = smoothing(mesh.n).dense()
        lhs = (h**2 * c.k1 * np.eye(mesh.n) + h * c.k2 * d1 + c.k3 * d2) @ diff
        m_aff = np.zeros(mesh.n)
        m_aff[0], m_aff[-1] = 0.25 * BC_05.u0, 0.25 * BC_05.u_np1
        rhs = h**2 * c.k1 * (m_mat @ mono.v.values + m_aff - mono.v.values)
        assert norm_c(lhs - rhs) <= 1e-10 * max(1.0, norm_c(rhs))


class TestInverseRoute:
    def test_agrees_with_direct_route(self):
        mesh = Mesh1D(0.0, 1.0, 9)
        direct = solve_monotonized(OSCILLATORY, mesh, BC_05)
        inverse = solve_monotonized_inverse(OSCILLATORY, mesh, BC_05)
        assert norm_c(inverse.y.values - direct.y.values) <= 1e-10
        assert norm_c(inverse.v.values - direct.v.values) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c, bc", [
        (OSCILLATORY, BC_05),
        (SchemeCoefficients(1.0, -1.0, 0.0, 1.0), BoundaryData1D(1.0, 3.0)),
    ])
    def test_agrees_with_direct_route_on_few_nodes(self, n, c, bc):
        # With n <= 2 the first and last rows meet the same (or a
        # neighboring) node, so both end values must reach the system.
        mesh = Mesh1D(0.0, 1.0, n)
        direct = solve_monotonized(c, mesh, bc)
        inverse = solve_monotonized_inverse(c, mesh, bc)
        assert norm_c(inverse.y.values - direct.y.values) <= 1e-10
        assert inverse.residual_c_norm <= 1e-10

    def test_k1_zero_reduces_to_smoothed_base(self):
        c = SchemeCoefficients(1.0, 0.0, 2.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 10)
        bc = BoundaryData1D(0.0, 1.0)
        base = solve_base(c, mesh, bc)
        inv = solve_monotonized_inverse(c, mesh, bc)
        from monoscheme.stencils import smooth_1d

        assert norm_c(inv.y.values - smooth_1d(base.u, bc).values) <= 1e-11

    def test_constant_case(self):
        c = SchemeCoefficients(5.0, -1.0, 0.0, 1.0)
        mesh = Mesh1D(0.0, 1.0, 7)
        inv = solve_monotonized_inverse(c, mesh, BoundaryData1D(5.0, 5.0))
        assert np.allclose(inv.y.values, 5.0, atol=1e-11)


class TestDeterminantScan:
    def test_laplacian_never_flags(self):
        c = SchemeCoefficients(0.0, 0.0, 0.0, 1.0)
        rows = determinant_scan(c, [1 / 4, 1 / 8, 1 / 16], BoundaryData1D(0.0, 1.0))
        assert all(not r.flagged for r in rows)
        assert all(r.indicator_base > 1e-6 for r in rows)

    def test_fig1_coefficients_scan_produces_rows(self):
        hs = [2.0**-k for k in range(2, 11)]
        rows = determinant_scan(OSCILLATORY, hs, BC_05)
        assert len(rows) == len(hs)
        for r in rows:
            assert 0.0 <= r.indicator_monotonized <= 1.0
            assert 0.0 <= r.indicator_base <= 1.0

    def test_empty_list(self):
        assert determinant_scan(OSCILLATORY, [], BC_05) == []

    def test_flags_singular_step_at_constructed_resonance(self):
        # With k2 = 0 the smoothed matrix is the symmetric tridiagonal
        # (s + k3, 2s - 2k3, s + k3), s = h^2 k1 / 4, with eigenvalues
        # 2s - 2k3 + 2(s + k3) cos(j pi / (n+1)). Choosing
        # k1 = 4 k3 (1 - cos t)/((1 + cos t) h^2) for an eigen-angle t makes
        # it exactly singular while the base matrix stays regular.
        n = 20
        h = 1.0 / (n + 1)
        cos_t = np.cos(7 * np.pi / (n + 1))  # exactly 1/2
        k1 = 4.0 * (1.0 - cos_t) / ((1.0 + cos_t) * h * h)
        c = SchemeCoefficients(0.0, k1, 0.0, 1.0)
        rows = determinant_scan(c, [h], BoundaryData1D(0.0, 0.0), near_tol=1e-10)
        assert rows[0].n == n
        assert rows[0].indicator_monotonized <= 1e-10
        assert rows[0].indicator_base > 1e-6
        assert rows[0].flagged

    def test_rejects_nonpositive_h(self):
        with pytest.raises(ValueError):
            determinant_scan(OSCILLATORY, [-0.1], BC_05)


class TestAnalyticSolution:
    def test_laplace_linear(self):
        c = SchemeCoefficients(0.0, 0.0, 0.0, 1.0)
        sol = analytic_solution(c, BoundaryData1D(0.0, 1.0))
        xs = np.linspace(0, 1, 11)
        assert np.allclose(sol(xs), xs, atol=1e-12)

    def test_fig1_roots(self):
        sol = analytic_solution(OSCILLATORY, BC_05)
        # characteristic roots 15 +- sqrt(220); check via the residual and
        # the boundary values
        assert sol(0.0) == pytest.approx(0.5)
        assert sol(1.0) == pytest.approx(0.5)
        xs = np.linspace(0, 1, 101)
        assert norm_c(sol.ode_residual(xs)) < 1e-8

    def test_constant_solution(self):
        c = SchemeCoefficients(5.0, -1.0, 0.0, 1.0)
        sol = analytic_solution(c, BoundaryData1D(5.0, 5.0))
        assert np.allclose(sol(np.linspace(0, 1, 7)), 5.0)

    def test_oscillatory_roots_branch(self):
        c = SchemeCoefficients(0.0, 5.0, 0.0, 1.0)  # U'' + 5U = 0
        sol = analytic_solution(c, BoundaryData1D(0.0, 1.0))
        xs = np.linspace(0, 1, 31)
        assert norm_c(sol.ode_residual(xs)) < 1e-9

    def test_k1_zero_k2_nonzero_branch(self):
        c = SchemeCoefficients(1.0, 0.0, 2.0, 1.0)
        sol = analytic_solution(c, BoundaryData1D(0.0, 1.0))
        xs = np.linspace(0, 1, 31)
        assert norm_c(sol.ode_residual(xs)) < 1e-9
        assert sol(0.0) == pytest.approx(0.0, abs=1e-12)
        assert sol(1.0) == pytest.approx(1.0)

    def test_repeated_root_branch(self):
        c = SchemeCoefficients(0.0, 1.0, 2.0, 1.0)  # (lambda + 1)^2
        sol = analytic_solution(c, BoundaryData1D(1.0, 2.0))
        xs = np.linspace(0, 1, 31)
        assert norm_c(sol.ode_residual(xs)) < 1e-9


class TestConvergenceOrder:
    def test_base_scheme_second_order(self):
        c = SchemeCoefficients(1.0, -1.0, 1.0, 1.0)
        est = convergence_order(c, BoundaryData1D(0.0, 1.0), "base", (20, 40, 80, 160))
        assert not est.degenerate and not est.non_convergent
        assert 1.8 <= est.order <= 2.2

    def test_monotonized_scheme_second_order(self):
        c = SchemeCoefficients(1.0, -1.0, 1.0, 1.0)
        est = convergence_order(
            c, BoundaryData1D(0.0, 1.0), "monotonized", (20, 40, 80, 160)
        )
        assert 1.8 <= est.order <= 2.2

    def test_exact_quadratic_flagged_degenerate(self):
        c = SchemeCoefficients(-2.0, 0.0, 0.0, 1.0)
        est = convergence_order(c, BoundaryData1D(0.0, 1.0), "base", (10, 20, 40))
        assert est.degenerate

    def test_roundtrip_dict(self):
        c = SchemeCoefficients(1.0, -1.0, 1.0, 1.0)
        est = convergence_order(c, BoundaryData1D(0.0, 1.0), "base", (10, 20, 40))
        assert OrderEstimate(**asdict(est)) == est

    def test_rejects_bad_sequences(self):
        c = SchemeCoefficients(1.0, -1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            convergence_order(c, BoundaryData1D(0.0, 1.0), "base", (10, 20))
        with pytest.raises(ValueError):
            convergence_order(c, BoundaryData1D(0.0, 1.0), "nope", (10, 20, 40))


class TestSchemeCoefficients:
    def test_k3_must_be_nonzero(self):
        with pytest.raises(ValueError):
            SchemeCoefficients(1.0, 1.0, 1.0, 0.0)


def test_scheme_residual_detects_wrong_solution():
    mesh = Mesh1D(0.0, 1.0, 9)
    sol = solve_base(OSCILLATORY, mesh, BC_05)
    res = scheme_residual(OSCILLATORY, mesh, BC_05, sol.u.values + 0.1, monotonized=False)
    assert res > 1e-3
