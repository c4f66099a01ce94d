import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from monoscheme.grid import BoundaryData1D, Mesh1D, MeshFunction, norm_c
from monoscheme.bvp1d import SchemeCoefficients, scheme_matrix, solve_monotonized
from monoscheme.stencils import SolverError, Tridiagonal, smooth_1d, smoothing, solve_smooth_1d
from monoscheme.timestep import (
    LinearMeshOperator,
    TimeStepConfig,
    run_to_steady,
    step_monotonized,
    step_monotonized_alt,
)

MESH = Mesh1D(0.0, 1.0, 9)
BC = BoundaryData1D(0.5, 0.5)
RNG = np.random.default_rng(99)
V0 = MeshFunction(MESH, RNG.standard_normal(9))
ZERO_OP = LinearMeshOperator(Tridiagonal(0.0, 0.0, 0.0, 9), np.zeros(9))
FIG1 = SchemeCoefficients(10.0, -5.0, 30.0, -1.0)


def aux_operator():
    return LinearMeshOperator.from_coefficients(FIG1, MESH, BC)


def safe_tau():
    # the rearranged form's fixed point contracts only below 1/||M^{-1}A||
    amplified = np.linalg.solve(smoothing(MESH.n).dense(), aux_operator().a.dense())
    return 0.25 / np.linalg.norm(amplified, np.inf)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TimeStepConfig(tau=0.0)
        with pytest.raises(ValueError):
            TimeStepConfig(tau=0.1, sigma=1.5)
        for tau in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tau"):
                TimeStepConfig(tau=tau)
        with pytest.raises(ValueError, match="inner_tol"):
            TimeStepConfig(tau=0.1, inner_tol=float("nan"))


# Zero or of magnitude 1e-3..1e3, so no term is subnormal.
MAGNITUDE = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


class TestOperatorIsSchemeOverH2:
    """F is the stationary scheme's matrix and end-value terms over h^2, plus k0."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE,
                                       MAGNITUDE.filter(lambda x: x != 0.0)),
           n=st.integers(1, 40), span=st.floats(1e-2, 1e2))
    def test_h2_times_operator_is_scheme_matrix_plus_h2_k0(self, data, k, n, span):
        c, mesh = SchemeCoefficients(*k), Mesh1D(0.0, span, n)
        u = np.array(data.draw(st.lists(MAGNITUDE, min_size=n, max_size=n)))
        bc = BoundaryData1D(data.draw(MAGNITUDE), data.draw(MAGNITUDE))
        h2 = mesh.h * mesh.h
        got = h2 * LinearMeshOperator.from_coefficients(c, mesh, bc)(u)
        t = scheme_matrix(c, mesh, monotonized=True)
        want = t.apply(u, bc) + h2 * c.k0
        largest = max(norm_c(u), abs(bc.u0), abs(bc.u_np1))
        terms = (abs(t.lower) + abs(t.diag) + abs(t.upper)) * largest + h2 * abs(c.k0)
        assert norm_c(got - want) <= 8 * np.finfo(float).eps * terms


class TestStepMonotonized:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_zero_operator(self, sigma):
        cfg = TimeStepConfig(tau=0.4, sigma=sigma)
        v1, y1 = step_monotonized(V0, ZERO_OP, BC, cfg)
        assert np.allclose(v1.values, V0.values, atol=1e-13)
        assert np.allclose(y1.values, smooth_1d(V0, BC).values, atol=1e-13)

    def test_constants_propagate(self):
        # constant state with matching boundary data and an operator that
        # vanishes on constants
        const = MeshFunction(MESH, np.full(9, 0.5))
        coeffs = SchemeCoefficients(0.0, 0.0, 3.0, 1.0)  # k2 D1 + k3 D2 kills constants
        op = LinearMeshOperator.from_coefficients(coeffs, MESH, BC)
        cfg = TimeStepConfig(tau=0.01, sigma=1.0)
        v1, y1 = step_monotonized(const, op, BC, cfg)
        assert np.allclose(v1.values, 0.5, atol=1e-12)
        assert np.allclose(y1.values, 0.5, atol=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, 0.25, 1.0])
    def test_step_satisfies_defining_relation(self, sigma):
        aux = aux_operator()
        cfg = TimeStepConfig(tau=2e-3, sigma=sigma)
        v1, y1 = step_monotonized(V0, aux, BC, cfg)
        lhs = (y1.values - smooth_1d(V0, BC).values) / cfg.tau
        rhs = sigma * aux(v1.values) + (1 - sigma) * aux(V0.values)
        assert norm_c(lhs - rhs) <= 1e-9 * max(1.0, norm_c(rhs))

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_linear_decay_satisfies_defining_relation(self, sigma):
        # F(v) = -v holds no scheme stiffness, so the weighting alone is checked.
        decay = LinearMeshOperator(Tridiagonal(0.0, -1.0, 0.0, 9), np.zeros(9))
        cfg = TimeStepConfig(tau=0.25, sigma=sigma)
        v1, y1 = step_monotonized(V0, decay, BC, cfg)
        lhs = (y1.values - smooth_1d(V0, BC).values) / cfg.tau
        rhs = sigma * decay(v1.values) + (1 - sigma) * decay(V0.values)
        assert norm_c(lhs - rhs) <= 1e-14 * norm_c(V0.values)

    def test_explicit_blowup_raises(self):
        growth = LinearMeshOperator(Tridiagonal(0.0, 1e200, 0.0, 9), np.zeros(9))
        cfg = TimeStepConfig(tau=1e200, sigma=0.0)
        with pytest.raises(SolverError, match="^explicit step produced non-finite values$"):
            step_monotonized(V0, growth, BC, cfg)

    def test_y_is_smoothed_v(self):
        aux = aux_operator()
        cfg = TimeStepConfig(tau=1e-3, sigma=1.0)
        v1, y1 = step_monotonized(V0, aux, BC, cfg)
        assert np.array_equal(y1.values, smooth_1d(v1, BC).values)


class TestAltStepAtSigmaZero:
    """At sigma = 0 the rearranged step is the explicit predictor v + tau M^{-1} F(v)."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE,
                                       MAGNITUDE.filter(lambda x: x != 0.0)),
           n=st.integers(1, 40), tau=st.floats(1e-8, 1e-2))
    def test_equals_explicit_predictor_bitwise(self, data, k, n, tau):
        mesh = Mesh1D(0.0, 1.0, n)
        bc = BoundaryData1D(data.draw(MAGNITUDE), data.draw(MAGNITUDE))
        op = LinearMeshOperator.from_coefficients(SchemeCoefficients(*k), mesh, bc)
        v = MeshFunction(mesh, data.draw(st.lists(MAGNITUDE, min_size=n, max_size=n)))
        v1, y1 = step_monotonized_alt(v, op, bc, TimeStepConfig(tau=tau, sigma=0.0))
        increment = solve_smooth_1d(v.with_values(op(v.values)), BoundaryData1D(0.0, 0.0))
        assert v1.values.tobytes() == (v.values + tau * increment.values).tobytes()
        assert y1.values.tobytes() == smooth_1d(v1, bc).values.tobytes()

    def test_steps_where_the_operator_overflows_at_the_predictor(self):
        mesh, bc = Mesh1D(0.0, 1.0, 5), BoundaryData1D(0.0, 0.0)
        op = LinearMeshOperator.from_coefficients(SchemeCoefficients(0.0, 0.0, 0.0, -1.0), mesh, bc)
        v = MeshFunction(mesh, np.full(5, 1e306))
        v1, _ = step_monotonized_alt(v, op, bc, TimeStepConfig(tau=1.0, sigma=0.0))
        increment = solve_smooth_1d(v.with_values(op(v.values)), bc)
        assert v1.values.tobytes() == (v.values + increment.values).tobytes()
        with np.errstate(over="ignore"):
            assert not np.isfinite(op(v1.values)).all()

    @pytest.mark.parametrize("value, tau", [(3e306, 1e-3), (1e300, 1e10)],
                             ids=["operator", "predictor"])
    def test_overflow_diverges_at_once(self, value, tau):
        # F(v) overflows, or v + tau M^{-1} F(v) does: "diverged", not "stalled"
        # after max_inner passes, and no RuntimeWarning.
        mesh, bc = Mesh1D(0.0, 1.0, 5), BoundaryData1D(0.0, 0.0)
        op = LinearMeshOperator.from_coefficients(SchemeCoefficients(0.0, 0.0, 0.0, -1.0), mesh, bc)
        v = MeshFunction(mesh, np.full(5, value))
        with pytest.raises(SolverError, match=r"^fixed-point step diverged \(tau too large for the "
                                              r"rearranged form\)$"):
            step_monotonized_alt(v, op, bc, TimeStepConfig(tau=tau, sigma=0.0))


class TestFormEquivalence:
    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_forms_agree_on_linear_operator(self, sigma):
        tau = safe_tau()
        cfg = TimeStepConfig(tau=tau, sigma=sigma, inner_tol=1e-14, max_inner=2000)
        v1, y1 = step_monotonized(V0, aux_operator(), BC, cfg)
        v2, y2 = step_monotonized_alt(V0, aux_operator(), BC, cfg)
        assert norm_c(v1.values - v2.values) <= 1e-10
        assert norm_c(y1.values - y2.values) <= 1e-10

    def test_trajectories_agree_over_many_steps(self):
        tau = safe_tau()
        cfg = TimeStepConfig(tau=tau, sigma=1.0, inner_tol=1e-14, max_inner=2000)
        va = vb = V0
        for _ in range(25):
            va, ya = step_monotonized(va, aux_operator(), BC, cfg)
            vb, yb = step_monotonized_alt(vb, aux_operator(), BC, cfg)
        assert norm_c(va.values - vb.values) <= 1e-9

    def test_alt_form_diverges_cleanly_for_large_tau(self):
        cfg = TimeStepConfig(tau=1.0, sigma=1.0, inner_tol=1e-12, max_inner=50)
        with pytest.raises(SolverError, match=r"^fixed-point step stalled with update 7\.709e\+213 "
                                              "after 50 iterations$"):
            step_monotonized_alt(V0, aux_operator(), BC, cfg)


class TestSteadyState:
    def test_matches_stationary_solution(self):
        stationary = solve_monotonized(FIG1, MESH, BC)
        aux = aux_operator()
        v_init = MeshFunction(MESH, np.full(9, 0.5))
        cfg = TimeStepConfig(tau=1.0, sigma=1.0)
        out = run_to_steady(v_init, aux, BC, cfg, steady_tol=1e-12, max_steps=200)
        assert out.converged
        assert norm_c(out.y.values - stationary.y.values) <= 10 * 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_implicit_run_raises(self):
        # Every eigenvalue of fig1's M^{-1}A is positive, so sigma = 1/2 at
        # tau = 0.01 grows until a step overflows; that step raises instead
        # of handing NaN on to the next.
        cfg = TimeStepConfig(tau=0.01, sigma=0.5)
        with pytest.raises(SolverError, match="implicit step produced non-finite values"):
            run_to_steady(MeshFunction(MESH, np.full(9, 0.5)), aux_operator(), BC, cfg,
                          max_steps=2000)

    def test_history_records(self):
        aux = aux_operator()
        v_init = MeshFunction(MESH, np.full(9, 0.5))
        cfg = TimeStepConfig(tau=1.0, sigma=1.0)
        out = run_to_steady(v_init, aux, BC, cfg, steady_tol=1e-12, max_steps=50,
                            record_every=1)
        assert len(out.history) == out.steps
        times = [t for t, _ in out.history]
        assert times == sorted(times)

    def test_non_convergence_reported(self):
        aux = aux_operator()
        v_init = MeshFunction(MESH, np.full(9, 0.5))
        cfg = TimeStepConfig(tau=1e-6, sigma=1.0)
        out = run_to_steady(v_init, aux, BC, cfg, steady_tol=1e-15, max_steps=3)
        assert not out.converged
        assert out.steps == 3
        assert out.final_update == out.history[-1][1]

    @pytest.mark.parametrize("key, value", [
        ("max_steps", 0), ("max_steps", -2), ("record_every", 0), ("snapshot_every", -1),
        ("steady_tol", float("nan")), ("steady_tol", -1.0),
    ])
    def test_rejects_stepping_counts_out_of_range(self, key, value):
        v_init = MeshFunction(MESH, np.full(9, 0.5))
        with pytest.raises(ValueError, match=f"^{key} must be at least"):
            run_to_steady(v_init, aux_operator(), BC, TimeStepConfig(tau=1.0), **{key: value})


@pytest.mark.filterwarnings("error")
class TestSingularStep:
    """A step whose implicit matrix is exactly singular raises, and no
    warning from the factorization reaches the caller."""

    @staticmethod
    def singular_aux():
        # M - tau sigma A = M - M = 0 at tau = sigma = 1
        return LinearMeshOperator(smoothing(MESH.n), np.zeros(MESH.n))

    def test_step_monotonized(self):
        with pytest.raises(SolverError, match="^implicit step matrix singular$"):
            step_monotonized(V0, self.singular_aux(), BC, TimeStepConfig(tau=1.0, sigma=1.0))

    def test_run_to_steady(self):
        with pytest.raises(SolverError, match="singular"):
            run_to_steady(V0, self.singular_aux(), BC, TimeStepConfig(tau=1.0, sigma=1.0))


BIG_MESH = Mesh1D(0.0, 1.0, 400)
BIG_BC = BoundaryData1D(0.3, -0.7)
BIG_TOL = 1e-10


def loop_to_steady(step, v0, tau, tol, max_steps=1000, snapshot_every=10):
    """run_to_steady's bookkeeping around an arbitrary one-step map v -> (v, y);
    like run_to_steady, it stops after max_steps without a steady state."""
    v, t = v0, 0.0
    history, snapshots = [], []
    for n in range(1, max_steps + 1):
        v_next, y = step(v)
        update = norm_c(v_next.values - v.values)
        t += tau
        history.append((t, update))
        v = v_next
        if n % snapshot_every == 0:
            snapshots.append((t, v.values.copy(), y.values.copy()))
        if update <= tol:
            break
    return v, y, n, history, snapshots


class TestFactorOnce:
    """run_to_steady builds its banded step matrix once per run and gives the
    same run as stepping with the public step, which builds it at every
    call. No step forms a dense matrix."""

    CFG = TimeStepConfig(tau=0.01, sigma=1.0)

    @staticmethod
    def big_problem():
        aux = LinearMeshOperator.from_coefficients(FIG1, BIG_MESH, BIG_BC)
        v0 = MeshFunction(BIG_MESH, np.full(BIG_MESH.n, (BIG_BC.u0 + BIG_BC.u_np1) / 2.0))
        return aux, v0

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_bitwise_equal_to_public_step_loop(self, sigma):
        if sigma == 1.0:
            (aux, v0), bc, cfg = self.big_problem(), BIG_BC, self.CFG
        else:
            # Every eigenvalue of fig1's M^{-1}A is positive, so explicit and
            # sigma = 1/2 steps grow; the negated operator's modes decay under
            # both at safe_tau(). Neither run reaches BIG_TOL in max_steps.
            aux = LinearMeshOperator.from_coefficients(
                SchemeCoefficients(-10.0, 5.0, -30.0, 1.0), MESH, BC)
            v0, bc, cfg = V0, BC, TimeStepConfig(tau=safe_tau(), sigma=sigma)
        out = run_to_steady(v0, aux, bc, cfg, BIG_TOL, max_steps=1000, snapshot_every=10)
        v, y, steps, history, snapshots = loop_to_steady(
            lambda v_n: step_monotonized(v_n, aux, bc, cfg), v0, cfg.tau, BIG_TOL)
        assert out.converged == (sigma == 1.0) and out.steps == steps
        assert np.array_equal(out.v.values, v.values)
        assert np.array_equal(out.y.values, y.values)
        assert out.history == tuple(history)
        assert len(out.snapshots) == len(snapshots)
        for (t1, v1, y1), (t2, v2, y2) in zip(out.snapshots, snapshots):
            assert t1 == t2 and np.array_equal(v1, v2) and np.array_equal(y1, y2)

    @pytest.mark.parametrize("sigma", [0.0, 0.5, 1.0])
    def test_no_step_forms_a_dense_matrix(self, monkeypatch, sigma):
        aux = aux_operator()
        tau = 1.0 if sigma > 0.0 else safe_tau()

        def refuse(self):
            raise AssertionError("a time step formed a dense matrix")

        monkeypatch.setattr(Tridiagonal, "dense", refuse)
        cfg = TimeStepConfig(tau=tau, sigma=sigma)
        out = run_to_steady(MeshFunction(MESH, np.full(9, 0.5)), aux, BC, cfg, max_steps=20)
        # Only sigma = 1 damps fig1's growing modes; the others stop at max_steps.
        assert out.converged == (sigma == 1.0) and out.steps > 1
        assert np.all(np.isfinite(step_monotonized(V0, aux, BC, cfg)[1].values))

    def test_matches_dense_solve_at_every_step(self):
        # Oracle: the same step with a dense np.linalg.solve. The banded step
        # is taken from each state of the oracle's own run, so rounding does
        # not accumulate; over these runs (123 steps at sigma = 1, 150 at
        # sigma = 1/2, where the states grow to 1e177) it was at most 2.3e-13
        # off, relative. The two runs' stop counts may differ by a step.
        aux, v0 = self.big_problem()
        m_mat = smoothing(BIG_MESH.n).dense()
        for sigma in (0.5, 1.0):
            tau = self.CFG.tau
            cfg = TimeStepConfig(tau=tau, sigma=sigma)
            lhs = m_mat - tau * sigma * aux.a.dense()
            pairs = []

            def dense_step(v_n):
                v = v_n.values
                rhs = m_mat @ v + tau * sigma * aux.offset + tau * (1.0 - sigma) * aux(v)
                vf = v_n.with_values(np.linalg.solve(lhs, rhs))
                pairs.append((v_n, vf.values))
                return vf, smooth_1d(vf, BIG_BC)

            loop_to_steady(dense_step, v0, tau, BIG_TOL, max_steps=150)
            for v_n, want in pairs:
                got = step_monotonized(v_n, aux, BIG_BC, cfg)[0].values
                assert norm_c(got - want) <= 1e-12 * norm_c(want)
        # Like the CLI's within_10x_tol: the steady y solves the monotonized scheme.
        out = run_to_steady(v0, aux, BIG_BC, self.CFG, BIG_TOL, max_steps=1000)
        stationary = solve_monotonized(FIG1, BIG_MESH, BIG_BC)
        assert out.converged
        assert norm_c(out.y.values - stationary.y.values) <= 10 * BIG_TOL


class TestBandedStepMatchesDense:
    """One step equals the same step solved densely."""

    @staticmethod
    def assert_matches_dense(k, u_values, bc, tau, sigma):
        mesh = Mesh1D(0.0, 1.0, len(u_values))
        u = MeshFunction(mesh, np.array(u_values))
        op = LinearMeshOperator.from_coefficients(SchemeCoefficients(*k), mesh, bc)
        cfg = TimeStepConfig(tau=tau, sigma=sigma)
        m = smoothing(mesh.n).dense()
        lhs = m - tau * sigma * op.a.dense()
        rhs = m @ u.values + tau * sigma * op.offset + tau * (1.0 - sigma) * op(u.values)
        want = np.linalg.solve(lhs, rhs)
        got = step_monotonized(u, op, bc, cfg)[0]
        # Both solves are LU with partial pivoting, so they differ by rounding
        # times the condition number. Over 5000 random draws of these
        # strategies the relative gap was at most 0.57 eps kappa wherever the
        # answer was a normal number. Where a tiny tau makes it subnormal,
        # rounding is absolute, in units of the subnormal spacing: over 20000
        # draws with such answers the gap was at most kappa units.
        kappa = np.linalg.cond(lhs, np.inf)
        tiny = np.finfo(float).smallest_subnormal
        assert (norm_c(got.values - want)
                <= 4 * np.finfo(float).eps * kappa * norm_c(want) + 4 * kappa * tiny)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(), k=st.tuples(MAGNITUDE, MAGNITUDE, MAGNITUDE,
                                       MAGNITUDE.filter(lambda x: x != 0.0)),
           n=st.integers(1, 60), tau=st.floats(0.0, 1.0, exclude_min=True),
           sigma=st.floats(0.0, 1.0))
    def test_one_step(self, data, k, n, tau, sigma):
        u = data.draw(st.lists(MAGNITUDE, min_size=n, max_size=n))
        bc = BoundaryData1D(data.draw(MAGNITUDE), data.draw(MAGNITUDE))
        self.assert_matches_dense(k, u, bc, tau, sigma)

    def test_subnormal_answer(self):
        """A draw of test_one_step's strategies whose answer, from a zero
        start and tau = 2e-323, is subnormal (about 1e-320): the two solves
        end 3 subnormal units apart, where the relative term reads 0."""
        self.assert_matches_dense((30.0, 30.0, 1.0, 30.0), [0.0] * 4,
                                  BoundaryData1D(0.5, 1.0), 2e-323, 0.25)
