import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from monoscheme import bvp1d
from monoscheme.grid import BoundaryData1D, Mesh1D, norm_c, with_boundary
from monoscheme.bvp1d import (
    OrderEstimate,
    SchemeCoefficients,
    _persymmetric_band,
    _singularity_indicator,
    analytic_solution,
    convergence_order,
    determinant_scan,
    scheme_matrix,
    scheme_residual,
    solve_base,
    solve_monotonized,
    solve_monotonized_inverse,
)
from monoscheme.cli import load_config
from monoscheme.metrics import max_step_change, oscillates_point_to_point
from monoscheme.stencils import Tridiagonal, first_difference, second_difference, smoothing

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

    def test_holds_at_most_three_and_a_half_dense_arrays(self):
        # The dense operator is formed in place from D M^{-1}, and D and
        # M^{-1} go before the solve: three n x n arrays at a time. A
        # separate h^2 k1 I would be a fourth.
        mesh = Mesh1D(0.0, 1.0, 400)
        solve_monotonized_inverse(OSCILLATORY, mesh, BC_05)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            solve_monotonized_inverse(OSCILLATORY, mesh, BC_05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * mesh.n * mesh.n * 8


class TestDeterminantScan:
    def test_laplacian_never_flags(self):
        c = SchemeCoefficients(0.0, 0.0, 0.0, 1.0)
        rows = determinant_scan(c, [1 / 4, 1 / 8, 1 / 16])
        assert all(not r.flagged for r in rows)
        assert all(r.indicator_base > 1e-6 for r in rows)

    def test_fig1_coefficients_scan_produces_rows(self):
        hs = [2.0**-k for k in range(2, 11)]
        rows = determinant_scan(OSCILLATORY, hs)
        assert len(rows) == len(hs)
        for r in rows:
            assert 0.0 <= r.indicator_monotonized <= 1.0
            assert 0.0 <= r.indicator_base <= 1.0

    def test_empty_list(self):
        assert determinant_scan(OSCILLATORY, []) == []

    @staticmethod
    def resonance():
        # With k2 = 0 the smoothed matrix is the symmetric tridiagonal
        # (s + k3, 2s - 2k3, s + k3), s = h^2 k1 / 4, with eigenvalues
        # 2s - 2k3 + 2(s + k3) cos(j pi / (n+1)). Choosing
        # k1 = 4 k3 (1 - cos t)/((1 + cos t) h^2) for an eigen-angle t makes
        # it exactly singular while the base matrix stays regular.
        n = 20
        h = 1.0 / (n + 1)
        cos_t = np.cos(7 * np.pi / (n + 1))  # exactly 1/2
        k1 = 4.0 * (1.0 - cos_t) / ((1.0 + cos_t) * h * h)
        return SchemeCoefficients(0.0, k1, 0.0, 1.0), h

    def test_flags_singular_step_at_constructed_resonance(self):
        c, h = self.resonance()
        rows = determinant_scan(c, [h], near_tol=1e-10)
        assert rows[0].n == 20
        assert rows[0].indicator_monotonized <= 1e-10
        assert rows[0].indicator_base > 1e-6
        assert rows[0].flagged

    @pytest.mark.parametrize("near_tol", [float("nan"), -1.0, float("inf")])
    def test_rejects_near_tol_out_of_range(self, monkeypatch, near_tol):
        # Unchecked, each of these left the resonance unflagged.
        c, h = self.resonance()
        monkeypatch.setattr(bvp1d, "scheme_matrix", lambda *args: pytest.fail("built a matrix"))
        with pytest.raises(ValueError, match="near_tol"):
            determinant_scan(c, [h], near_tol=near_tol)

    def test_rejects_nonpositive_h(self):
        for bad in (-0.1, 0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="positive and finite"):
                determinant_scan(OSCILLATORY, [1 / 4, bad])

    @pytest.mark.parametrize("domain", [(-np.inf, 1.0), (0.0, np.inf), (1.0, 1.0)])
    def test_rejects_unbounded_or_empty_domain(self, domain):
        with pytest.raises(ValueError, match=r"domain \[a, b\]"):
            determinant_scan(OSCILLATORY, [1 / 4], domain)

    def test_never_builds_a_dense_matrix(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the scan must work from the band")

        monkeypatch.setattr(Tridiagonal, "dense", forbidden)
        monkeypatch.setattr(np.linalg, "svd", forbidden)
        (row,) = determinant_scan(OSCILLATORY, [1 / 1024])
        assert row.n == 1023
        assert 0.0 < row.indicator_monotonized < 1e-4


def dense_indicator(a):
    """The oracle: sigma_min / sigma_max from a dense SVD.

    The matrix is first scaled by a power of two (exact, and the ratio does
    not depend on scale) so that its largest entry is about 1: on subnormal
    entries the dense SVD itself is off, e.g. by 5.7e-14 for
    Tridiagonal(0, t, t, 3) at t = 2.2e-311.
    """
    m = a.dense()
    largest = np.abs(m).max()
    if largest == 0.0:
        return 0.0
    svals = np.linalg.svd(np.ldexp(m, -np.frexp(largest)[1]), compute_uv=False)
    return svals[-1] / svals[0]


BAND = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


class TestSingularityIndicator:
    """The persymmetric banded indicator against the dense SVD."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(lower=BAND, diag=BAND, upper=BAND, n=st.integers(1, 120))
    @example(lower=1.0, diag=0.0, upper=-3.0, n=7)
    @example(lower=0.0, diag=2.5, upper=-7.0, n=50)
    @example(lower=4.0, diag=-1.0, upper=0.0, n=119)
    @example(lower=0.0, diag=0.0, upper=9.0, n=12)
    # n = 2 and 3, where the band's rows taken from the two ends meet at once.
    @example(lower=1.5, diag=-2.0, upper=3.25, n=2)
    @example(lower=-0.75, diag=4.0, upper=2.5, n=3)
    # LAPACK's own rescaling of a subnormal norm returns garbage.
    @example(lower=0.0, diag=2.225073858507e-311, upper=0.0, n=1)
    # Graded bands on which selecting eigenvalues by index fails to converge.
    @example(lower=3.4034506935851856e-30, diag=-1.313870946899655e-40, upper=6.332770842406973, n=30)
    @example(lower=2.225073858507203e-309, diag=2.225073858507203e-309, upper=2.125, n=48)
    def test_matches_dense_svd(self, lower, diag, upper, n):
        a = Tridiagonal(lower, diag, upper, n)
        assert abs(_singularity_indicator(a) - dense_indicator(a)) <= 1e-14

    def test_zero_matrix(self):
        assert _singularity_indicator(Tridiagonal(0.0, 0.0, 0.0, 9)) == 0.0

    def test_single_node(self):
        assert _singularity_indicator(Tridiagonal(5.0, -2.0, 3.0, 1)) == 1.0
        assert _singularity_indicator(Tridiagonal(5.0, 0.0, 3.0, 1)) == 0.0

    def test_never_exceeds_one(self):
        # All singular values equal 1 to within 1e-300.
        assert _singularity_indicator(Tridiagonal(1e-300, 1.0, 1e-300, 5)) == 1.0

    @pytest.mark.parametrize("n", [1, 3, 9, 101, 1023])
    def test_zero_diagonal_odd_n_is_singular(self, n):
        # (1, 0, 1) has eigenvalues 2 cos(j pi / (n+1)), one of them 0 at odd n.
        assert _singularity_indicator(Tridiagonal(1.0, 0.0, 1.0, n)) <= 1e-15

    @pytest.mark.parametrize("lower, diag, upper", [
        (1.5, -2.0, 3.25), (0.0, 1.0, 2.0), (4.0, 0.0, 0.0), (0.0, 0.0, -3.0), (1.0, 2.0, 0.0)])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_band_is_permuted_flipped_matrix(self, lower, diag, upper, n):
        a = Tridiagonal(lower, diag, upper, n)
        ab = _persymmetric_band(a)
        assert ab.shape == (4, n)
        band = np.zeros((n, n))
        for r in range(4):
            j = np.arange(n - r)
            band[j + r, j] = band[j, j + r] = ab[r, : n - r]
            # Entries past the matrix's last row stay zero.
            assert not ab[r, n - r :].any()
        k = np.arange(n)
        p = np.eye(n)[np.where(k % 2 == 0, k // 2, n - 1 - k // 2)]  # rows 0, n-1, 1, ...
        assert np.array_equal(band, p @ a.dense()[::-1] @ p.T)

    def test_one_full_spectrum_eigensolve(self, monkeypatch):
        import scipy.linalg

        calls = []
        real = scipy.linalg.eigvals_banded

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return real(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigvals_banded", counted)
        a = Tridiagonal(3.4034506935851856e-30, -1.313870946899655e-40, 6.332770842406973, 30)
        assert abs(_singularity_indicator(a) - dense_indicator(a)) <= 1e-14
        assert calls == [{"lower": True}]

    def test_bundled_scan_ladder_matches_dense_svd(self):
        cfg = load_config("scan.cfg")
        prob, scan = cfg.section("problem"), cfg.section("scan")
        c = SchemeCoefficients(*(prob.real(k) for k in ("k0", "k1", "k2", "k3")))
        domain = (prob.real("a"), prob.real("b"))
        rows = determinant_scan(c, scan.reals("h_values"), domain)
        assert rows[-1].n == 1023
        for row in rows:
            mesh = Mesh1D(*domain, row.n)
            expected_base = dense_indicator(scheme_matrix(c, mesh, False))
            expected_mono = dense_indicator(scheme_matrix(c, mesh, True))
            assert abs(row.indicator_base - expected_base) <= 1e-14
            assert abs(row.indicator_monotonized - expected_mono) <= 1e-14


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

    @pytest.mark.parametrize("domain", [(0.0, 1.0), (-0.5, 2.0)])
    @pytest.mark.parametrize("ks", [
        (10.0, -5.0, 30.0, -1.0),   # distinct real roots 15 +- sqrt(220)
        (1.0, 0.0, 2.0, 1.0),       # k1 = 0: roots 0 and -2
        (0.0, 5.0, 1.0, 1.0),       # complex roots (-1 +- i sqrt(19)) / 2
        (1.0, 1.0, 2.0, 1.0),       # exact double root -1
        (1.0, 0.01, -0.2, 1.0),     # double root 0.1, rounded apart in decimals
        (-2.0, 0.0, 0.0, 1.0),      # k1 = k2 = 0: double root 0
        (10.0, -5.0, 30.0, -0.01),  # steep layer: a root near 3000
        (1.0, 1e-8, 1.0, 1.0),      # small k1: -k0/k1 = -1e8 beside an order-one answer
        (1.0, 1e-15, 1e-12, 1.0),   # small close complex roots, -k0/k1 = -1e15
        (1.0, 1e-7, 1e-4, 1.0),     # small close complex roots, -k0/k1 = -1e7
    ], ids=["distinct", "k1_zero", "complex", "exact_double", "rounded_double",
            "k1_k2_zero", "steep_layer", "k1_1e-8", "k1_1e-15", "k1_1e-7"])
    def test_fit_meets_both_ends_and_the_ode(self, ks, domain):
        self.assert_meets_ends_and_ode(SchemeCoefficients(*ks), BoundaryData1D(0.3, -0.7), domain)

    @pytest.mark.parametrize("ks, miss", [
        ((1.0, -1e-15, 1e-12, 1.0), "7.451e-10"),
        ((1.0, -1e-20, 1e-12, 1.0), "7.629e-07"),
    ], ids=["k1_-1e-15", "k1_-1e-20"])
    def test_missed_end_value_raises(self, ks, miss):
        # Two small real roots close together make P's scale k0/q huge, and
        # U = P + w1 phi1 + w2 phi2 cancels it: the form passes its residual
        # check but misses the end values.
        with pytest.raises(ValueError, match=f"misses its end values by {miss}"):
            analytic_solution(SchemeCoefficients(*ks), BoundaryData1D(0.3, -0.7))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(k1_exponent=st.floats(-15.0, -3.0), k1_sign=st.sampled_from([-1.0, 1.0]),
           k0=st.floats(-2.0, 2.0), k2=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
           k3=st.floats(0.5, 2.0) | st.floats(-2.0, -0.5),
           ends=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    def test_small_k1_property(self, k1_exponent, k1_sign, k0, k2, k3, ends):
        # -k0/k1 reaches 2e15 here; the folded P stays order one.
        c = SchemeCoefficients(k0, k1_sign * 10.0**k1_exponent, k2, k3)
        self.assert_meets_ends_and_ode(c, BoundaryData1D(*ends))

    @staticmethod
    def assert_meets_ends_and_ode(c, bc, domain=(0.0, 1.0)):
        # Ends to 1e-12 absolute; the residual to 1e-11 of
        # (|k1| + |k2| + |k3|) max(1, |U|), 100 times the construction check.
        sol = analytic_solution(c, bc, domain)
        assert abs(sol(domain[0]) - bc.u0) <= 1e-12
        assert abs(sol(domain[1]) - bc.u_np1) <= 1e-12
        xs = np.linspace(*domain, 201)
        scale = max(1.0, norm_c(sol(xs))) * (abs(c.k1) + abs(c.k2) + abs(c.k3))
        assert norm_c(sol.ode_residual(xs)) <= 1e-11 * scale


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_residual_raises(self):
        # k0 = 1e308 makes U overflow, and the residual inf - inf is NaN.
        with pytest.raises(ValueError, match="failed its residual check: nan"):
            analytic_solution(SchemeCoefficients(1e308, -5.0, 30.0, -1e-10),
                              BoundaryData1D(0.5, 0.5))


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

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_nonfinite(self, index, value):
        ks = [1.0, 1.0, 1.0, 1.0]
        ks[index] = value
        with pytest.raises(ValueError, match=f"^k{index} must be finite"):
            SchemeCoefficients(*ks)


def test_scheme_residual_detects_wrong_solution():
    mesh = Mesh1D(0.0, 1.0, 9)
    sol = solve_base(OSCILLATORY, mesh, BC_05)
    res = scheme_residual(OSCILLATORY, mesh, BC_05, sol.u.values + 0.1, monotonized=False)
    assert res > 1e-3
