import os
import pickle
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from monoscheme import ns3d
from monoscheme.grid import Mesh3D, MeshFunction, norm_c
from monoscheme.metrics import count_extrema_3d
from monoscheme.ns3d import (
    FlowConfig,
    FlowDivergenceError,
    FlowField,
    _Workspace,
    centerline_profile,
    flow_boundary_policy,
    init_field,
    iterate,
    momentum_residual,
    solve_steady,
)
from monoscheme.stencils import SolverError, pad_grid

# Small, fast configuration used throughout; the pressure drop matches the
# bundled flow-cell configs (1e6 in the mm/s/mg unit system).
SMALL = dict(L=1 / 30, N=6, rho=1.0, nu=1.002, p0=1e6, p1=0.0, hole_lo=2, hole_hi=3)


def small_config(**over):
    kwargs = {**SMALL, **over}
    return FlowConfig(**kwargs)


# The oracle's stencils: plain 3D-slice expressions over (N+2)^3 pads, in the
# floating-point order of the public operators in monoscheme.stencils, which
# tests/test_stencils.py checks against them bit for bit. They check a sweep
# without calling the code it runs.
CORE = (slice(1, -1),) * 3
PLUS = tuple(CORE[:a] + (slice(2, None),) + CORE[a + 1:] for a in range(3))
MINUS = tuple(CORE[:a] + (slice(None, -2),) + CORE[a + 1:] for a in range(3))


def slice_difference(pad, axis, h):
    out = np.subtract(pad[PLUS[axis]], pad[MINUS[axis]])
    out /= 2.0 * h
    return out


def slice_laplacian(pad, h):
    lap = np.multiply(-6.0, pad[CORE])
    for axis in range(3):
        lap += pad[PLUS[axis]]
        lap += pad[MINUS[axis]]
    lap /= h * h
    return lap


def slice_smooth(pad):
    nbr = np.zeros(pad[CORE].shape)
    for axis in range(3):
        nbr += pad[PLUS[axis]]
        nbr += pad[MINUS[axis]]
    nbr /= 12.0
    nbr += 0.5 * pad[CORE]
    return nbr


def same_bits(a, b):
    """Equal shapes and equal float64 bit patterns (sign of zero included)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# The sweep folds sigma_v, 1/2h, 1/rho and nu/h^2 into its coefficients and
# adds its terms in another order than the oracle, which divides as the
# public kernels do, so the two agree to rounding rather than bit for bit.
# Measured largest deviations, relative to the field's largest value: 8.2e-16
# for one sweep or one residual, 1.8e-15 for iterate(f) - f against
# sigma_v R, and 1.8e-14 after fifty sweeps at own_sigmas, whose margins let
# rounding grow. The norms after fifty sweeps deviate by up to 2.9e-13, as R
# and div v are sums of larger terms that largely cancel.
REL_TOL = 1e-13
NORM_TOL = 1e-12


def close(a, b):
    """Equal shapes, and |a - b| <= REL_TOL * max|b| everywhere."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.max(np.abs(a - b)) <= REL_TOL * np.max(np.abs(b))


def close_fields(a, b):
    """close() for each of the four fields of two FlowFields."""
    return all(close(a.velocity(c).values, b.velocity(c).values) for c in range(3)) and close(
        a.p.values, b.p.values)


def reference_residuals(v_grids, p_grid, cfg, monotonized):
    """Momentum residual grids from fresh pad_grid pads of every field."""
    h = cfg.L / cfg.N
    policy = flow_boundary_policy(cfg)
    v_pads = [pad_grid(v_grids[a], policy.velocity(a)) for a in range(3)]
    p_pad = pad_grid(p_grid, policy.p)
    w = [slice_smooth(pad) for pad in v_pads] if monotonized else v_grids
    out = []
    for comp, pad in enumerate(v_pads):
        advect = (w[0] * slice_difference(pad, 0, h) + w[1] * slice_difference(pad, 1, h)
                  + w[2] * slice_difference(pad, 2, h))
        out.append(-advect - slice_difference(p_pad, comp, h) / cfg.rho
                   + cfg.nu * slice_laplacian(pad, h))
    return out


def reference_sweep(v_grids, p_grid, cfg, monotonized):
    """One Jacobi sweep on new grids and new pads: the oracle for ns3d's
    in-place sweep. Returns the new grids and the C-norms of R and div v."""
    h = cfg.L / cfg.N
    policy = flow_boundary_policy(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = reference_residuals(v_grids, p_grid, cfg, monotonized)
        new_v = [v_grids[a] + cfg.sigma_v * residuals[a] for a in range(3)]
        pads = [pad_grid(new_v[a], policy.velocity(a)) for a in range(3)]
        div = (slice_difference(pads[0], 0, h) + slice_difference(pads[1], 1, h)
               + slice_difference(pads[2], 2, h))
        new_p = p_grid + cfg.sigma_p * div
        mom_norm = max(float(np.max(np.abs(r))) for r in residuals)
        div_norm = float(np.max(np.abs(div)))
    return new_v, new_p, mom_norm, div_norm


def reference_state(cfg, sweeps, monotonized):
    field = init_field(cfg)
    v = [field.velocity(a).as_grid() for a in range(3)]
    p = field.p.as_grid()
    norms = None
    for _ in range(sweeps):
        v, p, *norms = reference_sweep(v, p, cfg, monotonized)
    return v, p, norms


def as_field(cfg, v, p):
    mesh = cfg.mesh
    return FlowField(*(MeshFunction(mesh, g) for g in (*v, p)))


ORACLE_CONFIGS = {
    "defaults": small_config(),
    # sigma_v at 0.9 of the diffusion limit, |sigma_p| at 0.6 of the coupling one
    "own_sigmas": small_config(sigma_v=0.15 * (SMALL["L"] / SMALL["N"]) ** 2 / SMALL["nu"],
                               sigma_p=-4.0),
}


class TestFlowConfig:
    def test_defaults_derived_from_mesh(self):
        cfg = small_config()
        h = cfg.L / cfg.N
        assert cfg.sigma_v == pytest.approx(0.1 * h * h / cfg.nu)
        assert cfg.sigma_p == pytest.approx(-2.5 * cfg.rho * cfg.nu)
        assert cfg.sigma_p < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(N=3)
        with pytest.raises(ValueError):
            small_config(hole_lo=4, hole_hi=2)
        with pytest.raises(ValueError):
            small_config(hole_hi=6)
        with pytest.raises(ValueError):
            small_config(rho=0.0)
        with pytest.raises(ValueError):
            small_config(tol=-1.0)

    @pytest.mark.parametrize("key", ["L", "rho", "nu", "tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nan_and_inf(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be positive and finite"):
            small_config(**{key: value})

    @pytest.mark.parametrize("over, message", [
        ({"max_iters": 0}, "max_iters must be at least 1, got 0"),
        ({"sigma_v": 0.0}, "sigma_v must be positive"),
        ({"sigma_v": -1e-9}, "sigma_v must be positive"),
        # Checked before sigma_v is derived from N, not later by a solve.
        ({"N": 12.0}, r"N must be an integer, got 12\.0"),
        ({"N": 10.5}, r"N must be an integer, got 10\.5"),
    ])
    def test_rejects_out_of_range(self, over, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            small_config(**over)


def test_flow_field_needs_one_mesh():
    a, b = Mesh3D(1.0, 4), Mesh3D(2.0, 4)
    zero = np.zeros(64)
    with pytest.raises(ValueError, match="all four fields must share one mesh"):
        FlowField(*(MeshFunction(a, zero) for _ in range(3)), MeshFunction(b, zero))


class TestInitField:
    def test_linear_pressure_zero_velocity(self):
        cfg = small_config()
        f = init_field(cfg)
        assert np.all(f.vx.values == 0.0)
        assert np.all(f.vy.values == 0.0)
        assert np.all(f.vz.values == 0.0)
        g = f.p.as_grid()
        # center cells along x sit halfway between the hole pressures
        mid = 0.5 * (cfg.p0 + cfg.p1)
        assert g[cfg.N // 2 - 1, 0, 0] + g[cfg.N // 2, 0, 0] == pytest.approx(2 * mid)

    def test_equal_pressures_uniform(self):
        cfg = small_config(p0=3.0, p1=3.0)
        f = init_field(cfg)
        assert np.allclose(f.p.values, 3.0)

    def test_minimal_mesh_well_formed(self):
        cfg = small_config(N=4, hole_lo=1, hole_hi=2)
        f = init_field(cfg)
        assert f.p.values.shape == (64,)


class TestMomentumResidual:
    def test_zero_state_uniform_pressure(self):
        cfg = small_config(p0=5.0, p1=5.0)
        f = init_field(cfg)
        rx, ry, rz = momentum_residual(f, cfg)
        assert norm_c(rx.values) == 0.0
        assert norm_c(ry.values) == 0.0
        assert norm_c(rz.values) == 0.0

    def test_linear_pressure_drop_forces_x(self):
        cfg = small_config()
        f = init_field(cfg)
        rx, ry, rz = momentum_residual(f, cfg)
        expected = (cfg.p0 - cfg.p1) / (cfg.rho * cfg.L)
        gx = rx.as_grid()
        assert np.allclose(gx[1:-1, 1:-1, 1:-1], expected)
        assert np.allclose(ry.as_grid()[1:-1, 1:-1, 1:-1], 0.0)
        assert np.allclose(rz.as_grid()[1:-1, 1:-1, 1:-1], 0.0)

    def test_raw_and_monotonized_agree_on_constant_velocity(self):
        cfg = small_config()
        mesh = cfg.mesh
        const = MeshFunction(mesh, np.full(mesh.cell_count, 2.0))
        f = init_field(cfg)
        field = FlowField(vx=const, vy=const, vz=const, p=f.p)
        base = momentum_residual(field, cfg, "base")
        mono = momentum_residual(field, cfg, "monotonized")
        for r, m in zip(base, mono):
            assert np.allclose(
                r.as_grid()[1:-1, 1:-1, 1:-1], m.as_grid()[1:-1, 1:-1, 1:-1], atol=1e-11
            )

    def test_rejects_unknown_mode(self):
        # The residual, a sweep and a solve share one variant check; "raw"
        # was the residual's old name for the base variant.
        cfg = small_config()
        f = init_field(cfg)
        for run in (lambda v: momentum_residual(f, cfg, v), lambda v: iterate(f, cfg, v),
                    lambda v: solve_steady(cfg, v)):
            for variant in ("other", "raw"):
                with pytest.raises(ValueError, match="unknown variant"):
                    run(variant)


class TestIterate:
    def test_no_forcing_fixed_point(self):
        cfg = small_config(p0=2.0, p1=2.0)
        f = init_field(cfg)
        g = iterate(f, cfg)
        assert np.array_equal(g.vx.values, f.vx.values)
        assert np.array_equal(g.p.values, f.p.values)

    def test_zero_parameters_identity(self):
        cfg = small_config(sigma_v=1e-300, sigma_p=0.0)
        f = init_field(cfg)
        g = iterate(f, cfg)
        assert np.allclose(g.vx.values, f.vx.values, atol=1e-290)
        assert np.array_equal(g.p.values, f.p.values)

    def test_first_iterate_gains_pressure_scale_velocity(self):
        cfg = small_config()
        f = init_field(cfg)
        g = iterate(f, cfg)
        expected = cfg.sigma_v * (cfg.p0 - cfg.p1) / (cfg.rho * cfg.L)
        gx = g.vx.as_grid()
        assert np.allclose(gx[1:-1, 1:-1, 1:-1], expected)


class TestSweepMatchesReference:
    """The workspace's sweep against the oracle sweep: fields, pads and
    residuals within REL_TOL, norms within NORM_TOL."""

    @pytest.mark.parametrize("variant", ["base", "monotonized"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_fifty_sweeps_bitwise(self, name, variant):
        cfg = replace(ORACLE_CONFIGS[name], tol=1e-300, max_iters=50)
        monotonized = variant == "monotonized"
        rep = solve_steady(cfg, variant)
        v, p, (mom_norm, div_norm) = reference_state(cfg, 50, monotonized)
        assert rep.iterations == 50 and not rep.converged
        assert close_fields(rep.field, as_field(cfg, v, p))
        assert rep.momentum_residual_c == pytest.approx(mom_norm, rel=NORM_TOL, abs=0.0)
        assert rep.divergence_c == pytest.approx(div_norm, rel=NORM_TOL, abs=0.0)
        # The workspace's whole pads, ghost layers and edges included, match
        # fresh pads of the reference grids.
        ws = _Workspace(init_field(cfg), cfg, variant, cfg.sigma_v)
        for _ in range(50):
            ws.sweep()
        policy = flow_boundary_policy(cfg)
        for a in range(3):
            assert close(ws.v_pads[a], pad_grid(v[a], policy.velocity(a)))
        assert close(ws.p_pad, pad_grid(p, policy.p))

    @pytest.mark.parametrize("variant", ["base", "monotonized"])
    def test_sweep_buffers_start_on_64_bytes(self, variant):
        cfg = small_config()
        # Odd-sized allocations in between shift the heap's 16-byte offsets.
        spaces = [(_Workspace(init_field(cfg), cfg, variant, cfg.sigma_v), np.empty(2 * k + 1))
                  for k in range(4)]
        for ws, _ in spaces:
            buffers = [*ws.steps, *ws.lap, *(ws.w or ()), ws.inc, ws.term]
            assert all(b.ctypes.data % 64 == 0 and b.shape == (ws.range.size,) for b in buffers)

    @pytest.mark.parametrize("variant", ["base", "monotonized"])
    def test_sweeps_update_the_pads_in_place(self, variant):
        cfg = small_config()
        ws = _Workspace(init_field(cfg), cfg, variant, cfg.sigma_v)
        pads = [*ws.v_pads, ws.p_pad]
        # Checked after every sweep: two swaps of a double buffer would
        # bring the first pads back.
        for _ in range(50):
            ws.sweep()
            assert all(now is before for now, before in zip([*ws.v_pads, ws.p_pad], pads))

    @pytest.mark.parametrize("variant", ["base", "monotonized"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_iterate_and_residual_bitwise(self, name, variant):
        cfg = ORACLE_CONFIGS[name]
        monotonized = variant == "monotonized"
        v, p, _ = reference_state(cfg, 7, monotonized)
        field = as_field(cfg, v, p)
        new_v, new_p, _, _ = reference_sweep(v, p, cfg, monotonized)
        assert close_fields(iterate(field, cfg, variant), as_field(cfg, new_v, new_p))
        got = momentum_residual(field, cfg, variant)
        for r, expected in zip(got, reference_residuals(v, p, cfg, monotonized)):
            assert close(r.as_grid(), expected)

    @pytest.mark.parametrize("variant", ["base", "monotonized"])
    @pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
    def test_iterate_steps_by_sigma_v_times_residual(self, name, variant):
        cfg = ORACLE_CONFIGS[name]
        monotonized = variant == "monotonized"
        field = as_field(cfg, *reference_state(cfg, 7, monotonized)[:2])
        new = iterate(field, cfg, variant)
        got = momentum_residual(field, cfg, variant)
        for comp, r in enumerate(got):
            step = new.velocity(comp).values - field.velocity(comp).values
            assert close(step, cfg.sigma_v * r.values)


class TestSolveSteady:
    def test_fig2_n10_sweep_counts(self):
        # The bundled fig2_n10.cfg flow cell. Rounding-level changes to the
        # sweep must leave these counts as they are.
        cfg = FlowConfig(L=1 / 30, N=10, rho=1.0, nu=1.002, p0=1e6, p1=0.0,
                         hole_lo=2, hole_hi=7, tol=1e-4, max_iters=30000)
        assert solve_steady(cfg, "base").iterations == 1024
        assert solve_steady(cfg, "monotonized").iterations == 964

    def test_no_forcing_converges_immediately(self):
        cfg = small_config(p0=1.0, p1=1.0)
        rep = solve_steady(cfg)
        assert rep.converged
        assert rep.iterations == 1
        assert norm_c(rep.field.vx.values) == 0.0

    def test_converges_and_reports(self):
        cfg = small_config(tol=1e-4, max_iters=20000)
        rep = solve_steady(cfg, "base")
        assert rep.converged
        assert rep.divergence_c <= cfg.tol
        assert cfg.sigma_v * rep.momentum_residual_c <= cfg.tol
        assert rep.y is None

    def test_monotonized_reports_smoothed_velocities(self):
        cfg = small_config(tol=1e-4, max_iters=20000)
        rep = solve_steady(cfg, "monotonized")
        assert rep.converged
        assert rep.y is not None
        from monoscheme.stencils import smooth_3d

        # y comes from the final workspace pads; it equals smoothing fresh
        # pad_grid pads of the returned field bit for bit.
        policy = flow_boundary_policy(cfg)
        for axis in range(3):
            assert np.array_equal(
                rep.y.velocity(axis).values,
                smooth_3d(rep.field.velocity(axis), policy.velocity(axis)).values,
            )
        assert np.array_equal(rep.y.p.values, rep.field.p.values)

    def test_non_convergence_reported_not_raised(self):
        cfg = small_config(tol=1e-12, max_iters=5)
        rep = solve_steady(cfg)
        assert not rep.converged
        assert rep.iterations == 5

    def test_unstable_parameters_raise_divergence(self):
        h = SMALL["L"] / SMALL["N"]
        cfg = small_config(sigma_v=2.0 * h * h / SMALL["nu"], max_iters=5000)
        with pytest.raises(FlowDivergenceError) as info:
            solve_steady(cfg)
        err = info.value
        assert err.iteration > 1
        assert np.isfinite(err.momentum_residual_c) and np.isfinite(err.divergence_c)
        # sigma_v = 2 h^2/nu against the limit h^2/(6 nu); the default sigma_p
        # gives 2.5 nu * sigma_v / h^2
        assert err.diffusion_margin == pytest.approx(12.0)
        assert err.coupling_margin == pytest.approx(5.0)
        assert cfg.stability_margins() == (err.diffusion_margin, err.coupling_margin)
        assert "sigma_v*6nu/h^2 = 12" in str(err)
        assert f"divergence {err.divergence_c:.3e}" in str(err)
        # the last finite norms are those of the sweep before the blow-up
        rep = solve_steady(replace(cfg, max_iters=err.iteration - 1))
        assert (rep.momentum_residual_c, rep.divergence_c) == (err.momentum_residual_c,
                                                                err.divergence_c)

    def test_advection_instability_names_the_advection_condition(self):
        # The fig2 cell at nu = 0.5: both config margins sit below 1, but the
        # flow outgrows the advection bound sigma_v*|w|^2/(2nu) <= 1.
        cfg = FlowConfig(L=1 / 30, N=20, rho=1.0, nu=0.5, p0=1e6, p1=0.0,
                         hole_lo=5, hole_hi=14, tol=1e-5, max_iters=30000)
        with pytest.raises(FlowDivergenceError) as info:
            solve_steady(cfg)
        err = info.value
        assert err.iteration == 107
        assert (err.diffusion_margin, err.coupling_margin) == pytest.approx((0.6, 0.25))
        assert "advection condition sigma_v*|w|^2/(2nu) <= 1" in str(err)
        assert "are not enough" in str(err)

    def test_first_sweep_overflow_has_no_finite_norms(self):
        cfg = small_config(sigma_v=1e300)
        with pytest.raises(FlowDivergenceError) as info:
            iterate(init_field(cfg), cfg)
        assert info.value.iteration == 1
        assert info.value.momentum_residual_c is None and info.value.divergence_c is None
        assert "no finite sweep before it" in str(info.value)

    def test_deterministic_reruns(self):
        cfg = small_config(tol=1e-3, max_iters=20000)
        r1 = solve_steady(cfg, "monotonized")
        r2 = solve_steady(cfg, "monotonized")
        assert r1.iterations == r2.iterations
        for a, b in ((r1.field, r2.field), (r1.y, r2.y)):
            for var in ("vx", "vy", "vz", "p"):
                assert np.array_equal(getattr(a, var).values, getattr(b, var).values)

    def test_scaled_down_flow_carries_pressure_oscillation(self):
        # The collocated scheme leaves a frozen point-to-point pressure mode;
        # the smoothing is applied to velocities only, so the monotonized
        # run reports it identically. Counts are computed, not assumed.
        cfg = FlowConfig(L=1 / 30, N=10, rho=1.0, nu=1.002, p0=1e6, p1=0.0,
                         hole_lo=2, hole_hi=7, tol=1e-4, max_iters=30000)
        base = solve_steady(cfg, "base")
        mono = solve_steady(cfg, "monotonized")
        assert base.converged and mono.converged
        assert count_extrema_3d(base.field.p) > 0
        assert np.array_equal(mono.y.p.values, mono.field.p.values)
        # the smoothed answer's centerline is measurably less steppy
        from monoscheme.metrics import max_step_change

        f_base = max_step_change(centerline_profile(base.field, cfg))
        f_mono = max_step_change(centerline_profile(mono.y, cfg))
        assert f_mono < f_base


class TestWorkerProcess:
    """solve_steady sweeps in a forked child and leaves no process or pipe."""

    @staticmethod
    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    @pytest.fixture
    def no_leak(self):
        if not Path("/proc/self/fd").is_dir():
            pytest.skip("needs /proc/self/fd")
        before = self.open_fds()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert self.open_fds() == before

    def test_return(self, no_leak):
        rep = solve_steady(small_config(tol=1e-3, max_iters=20000), "monotonized")
        assert rep.converged and rep.y is not None
        # The report crosses the pipe whole: frozen values, y sharing v's p.
        assert not rep.field.vx.values.flags.writeable
        assert rep.y.p is rep.field.p

    def test_raise(self, no_leak):
        h = SMALL["L"] / SMALL["N"]
        with pytest.raises(FlowDivergenceError, match="sweep diverged"):
            solve_steady(small_config(sigma_v=2.0 * h * h / SMALL["nu"], max_iters=5000))

    def test_crash_names_exit_status(self, no_leak, monkeypatch):
        # The fork inherits the patch, so the child ends with status 3.
        monkeypatch.setattr(ns3d, "_solve_steady", lambda cfg, variant: os._exit(3))
        with pytest.raises(SolverError, match="base flow solve's worker process ended "
                                              "with exit status 3 before sending a result"):
            solve_steady(small_config())

    def test_crash_names_signal(self, no_leak, monkeypatch):
        monkeypatch.setattr(ns3d, "_solve_steady",
                            lambda cfg, variant: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(SolverError, match="ended with signal 9 "):
            solve_steady(small_config(), "monotonized")

    def test_caller_that_stops_waiting_kills_the_child(self, no_leak, monkeypatch):
        class Interrupted(Exception):
            pass

        class StopsReading:
            """The pickle module, but a load from the pipe is interrupted."""

            def __getattr__(self, name):
                return getattr(pickle, name)

            @staticmethod
            def load(file):
                raise Interrupted

        monkeypatch.setattr(ns3d, "_solve_steady", lambda cfg, variant: time.sleep(60))
        monkeypatch.setattr(ns3d, "pickle", StopsReading())
        start = time.perf_counter()
        with pytest.raises(Interrupted):
            solve_steady(small_config())
        assert time.perf_counter() - start < 30


class TestDivergenceErrorPickles:
    def test_round_trip_keeps_every_field(self):
        h = SMALL["L"] / SMALL["N"]
        cfg = small_config(sigma_v=2.0 * h * h / SMALL["nu"], sigma_p=-3.0)
        for norms in ((1.5e3, 2.5e-2), (None, None)):
            err = FlowDivergenceError(cfg, 17, *norms)
            again = pickle.loads(pickle.dumps(err))
            assert type(again) is FlowDivergenceError
            assert str(again) == str(err) and again.args == err.args
            assert (again.iteration, again.momentum_residual_c, again.divergence_c) == (17, *norms)
            assert (again.diffusion_margin, again.coupling_margin) == cfg.stability_margins()


class TestCenterline:
    def test_zero_flow_profile(self):
        cfg = small_config(p0=1.0, p1=1.0)
        rep = solve_steady(cfg)
        prof = centerline_profile(rep.field, cfg)
        assert len(prof) == cfg.N
        assert all(v == 0.0 for v in prof)

    def test_row_selection_documented_tie(self):
        cfg = FlowConfig(L=1.0, N=20, rho=1.0, nu=1.0, p0=1.0, p1=0.0,
                         hole_lo=5, hole_hi=14)
        # even-sized hole: rows 9 and 10 tie; the lower median is used
        grid = np.zeros((cfg.N,) * 3)
        grid[:, 9, 9] = np.arange(cfg.N)
        grid[:, 10, 10] = -1.0
        zero = MeshFunction(cfg.mesh, np.zeros((cfg.N,) * 3))
        field = FlowField(MeshFunction(cfg.mesh, grid), zero, zero, zero)
        assert centerline_profile(field, cfg) == list(range(cfg.N))


class TestBoundaryPolicy:
    def test_velocity_walls_and_holes(self):
        cfg = small_config()
        pol = flow_boundary_policy(cfg)
        assert pol.vx.xlo.base.kind == "value" and pol.vx.xlo.base.value == 0.0
        assert pol.vx.xlo.patch.kind == "mirror"
        assert pol.vx.ylo.base.kind == "value"
        assert pol.vx.xlo.patch_lo == cfg.hole_lo

    def test_pressure_holes_and_walls(self):
        cfg = small_config()
        pol = flow_boundary_policy(cfg)
        assert pol.p.xlo.patch.kind == "value" and pol.p.xlo.patch.value == cfg.p0
        assert pol.p.xhi.patch.value == cfg.p1
        assert pol.p.ylo.base.kind == "extrapolate"
