"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
measured values. Two checks (1 and 6) assert qualitative oscillation
targets that this discretization's documented boundary closure does not
produce; they are kept at their stated thresholds and fail honestly, with
the measured values printed for the record. README's "Known deviations"
section discusses both.
"""

import math

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
from monoscheme.bvp1d import (
    SchemeCoefficients,
    analytic_solution,
    convergence_order,
    solve_base,
    solve_monotonized,
    solve_monotonized_inverse,
)
from monoscheme.metrics import (
    check_damping_bound,
    count_extrema_3d,
    max_step_change,
    oscillates_point_to_point,
    sharpness_metrics,
)
from monoscheme.ns3d import FlowConfig, solve_steady
from monoscheme.stencils import (
    MIRROR_ALL,
    first_derivative_1d,
    operator_norm_c,
    second_derivative_1d,
    smooth_1d,
    smooth_3d,
    solve_smooth_1d,
    solve_smooth_3d,
    smoothing,
)
from monoscheme.timestep import (
    LinearMeshOperator,
    TimeStepConfig,
    run_to_steady,
    step_monotonized,
    step_monotonized_alt,
)

FIG1 = SchemeCoefficients(k0=10.0, k1=-5.0, k2=30.0, k3=-1.0)
FIG1_MESH = Mesh1D(0.0, 1.0, 9)  # 11 nodes total
FIG1_BC = BoundaryData1D(0.5, 0.5)


def _line(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance {num} [{label}]: {status}{suffix}")


def _assert_clauses(clauses: dict[str, bool]) -> None:
    failed = [name for name, ok in clauses.items() if not ok]
    assert not failed, f"failed clauses: {', '.join(failed)}"


def _smooth_full(seq: np.ndarray) -> np.ndarray:
    out = seq.copy()
    out[1:-1] = (seq[2:] + 2.0 * seq[1:-1] + seq[:-2]) / 4.0
    return out


@pytest.fixture(scope="module")
def fig1_solutions():
    base = solve_base(FIG1, FIG1_MESH, FIG1_BC)
    mono = solve_monotonized(FIG1, FIG1_MESH, FIG1_BC)
    dense_mesh = Mesh1D(0.0, 1.0, 98)  # 100 nodes total
    dense = solve_base(FIG1, dense_mesh, FIG1_BC)
    ref = np.interp(
        FIG1_MESH.interior_x(), dense_mesh.all_x(), with_boundary(dense.u, FIG1_BC)
    )
    return base, mono, ref


@pytest.fixture(scope="module")
def fig2_runs():
    cfg = FlowConfig(
        L=1 / 30, N=20, rho=1.0, nu=1.002, p0=1e6, p1=0.0,
        hole_lo=5, hole_hi=14, tol=1e-5, max_iters=30000,
    )
    return cfg, solve_steady(cfg, "base"), solve_steady(cfg, "monotonized")


def test_acceptance_1_oscillatory_bvp_qualitative(fig1_solutions):
    base, mono, ref = fig1_solutions
    u_full = with_boundary(base.u, FIG1_BC)
    y_full = with_boundary(mono.y, FIG1_BC)
    n = FIG1_MESH.n

    u_oscillates_interior = oscillates_point_to_point(u_full, 0, n + 1)
    y_oscillates_interior = oscillates_point_to_point(y_full, 0, n + 1)
    f_u = max_step_change(u_full)
    f_y = max_step_change(y_full)
    du = norm_c(base.u.values - ref)
    dy = norm_c(mono.y.values - ref)

    clauses = {
        "base oscillates across the interior": u_oscillates_interior,
        "monotonized does not oscillate": not y_oscillates_interior,
        "max step change reduced": f_y < f_u,
        "closer to dense reference": dy < du,
    }
    _line(
        1,
        "oscillatory 1D reproduction",
        all(clauses.values()),
        f"f(u)={f_u:.4f}, f(y)={f_y:.4f}, |u-ref|={du:.4f}, |y-ref|={dy:.4f}, "
        f"u alternates interior-wide: {u_oscillates_interior}",
    )
    _assert_clauses(clauses)


def test_acceptance_2_auxiliary_closeness(fig1_solutions):
    base, mono, _ = fig1_solutions
    ratio = norm_c(base.u.values - mono.v.values) / norm_c(base.u.values)
    ok = ratio <= 0.05
    _line(2, "auxiliary-solution closeness", ok, f"|u-v|/|u| = {ratio:.6f} <= 0.05")
    assert ok


def test_acceptance_3_damping_bound_end_to_end(fig1_solutions):
    base, mono, _ = fig1_solutions
    u_full = with_boundary(base.u, FIG1_BC)
    v_full = with_boundary(mono.v, FIG1_BC)
    chk = check_damping_bound(u_full, v_full, _smooth_full, lipschitz=2.0, norm_m=1.0)
    ok = chk.premises_hold and chk.inside
    _line(
        3,
        "damping-ratio interval",
        ok,
        f"delta={chk.delta:.4f}, k={chk.k:.4f}, eps={chk.epsilon:.6f}, "
        f"k1={chk.k1:.4f} in ({chk.lo:.4f}, {chk.hi:.4f})",
    )
    assert ok


def test_acceptance_4_convergence_order():
    c = SchemeCoefficients(k0=1.0, k1=-1.0, k2=1.0, k3=1.0)
    bc = BoundaryData1D(0.0, 1.0)
    ns = (20, 40, 80, 160)
    est_base = convergence_order(c, bc, "base", ns)
    est_mono = convergence_order(c, bc, "monotonized", ns)
    ok = 1.8 <= est_base.order <= 2.2 and 1.8 <= est_mono.order <= 2.2
    _line(
        4,
        "second-order convergence",
        ok,
        f"base order {est_base.order:.3f}, monotonized order {est_mono.order:.3f}",
    )
    assert ok


def test_acceptance_5_form_equivalences():
    direct = solve_monotonized(FIG1, FIG1_MESH, FIG1_BC)
    inverse = solve_monotonized_inverse(FIG1, FIG1_MESH, FIG1_BC)
    route_gap = norm_c(inverse.y.values - direct.y.values)

    aux = LinearMeshOperator.from_coefficients(FIG1, FIG1_MESH, FIG1_BC, smoothed=True)
    smooth_mat = smoothing(FIG1_MESH.n).dense()
    safe_tau = 0.25 / np.linalg.norm(np.linalg.solve(smooth_mat, aux.a.dense()), np.inf)
    rng = np.random.default_rng(20240814)
    v0 = MeshFunction(FIG1_MESH, rng.standard_normal(FIG1_MESH.n))
    step_gaps = []
    for sigma in (0.0, 1.0):
        cfg = TimeStepConfig(tau=safe_tau, sigma=sigma, inner_tol=1e-14, max_inner=2000)
        v1, _ = step_monotonized(v0, aux, FIG1_BC, cfg)
        v2, _ = step_monotonized_alt(v0, aux, FIG1_BC, cfg)
        step_gaps.append(norm_c(v1.values - v2.values))

    steady_tol = 1e-12
    steady = run_to_steady(
        MeshFunction(FIG1_MESH, np.full(FIG1_MESH.n, 0.5)),
        aux,
        FIG1_BC,
        TimeStepConfig(tau=1.0, sigma=1.0),
        steady_tol=steady_tol,
        max_steps=500,
    )
    steady_gap = norm_c(steady.y.values - direct.y.values)

    clauses = {
        "inverse-smoothing route agrees (1e-10)": route_gap <= 1e-10,
        "step rearrangements agree (1e-10)": max(step_gaps) <= 1e-10,
        "steady state within 10x step tolerance": steady.converged
        and steady_gap <= 10 * steady_tol,
    }
    _line(
        5,
        "form equivalences",
        all(clauses.values()),
        f"route gap {route_gap:.2e}, step gaps {max(step_gaps):.2e}, "
        f"steady gap {steady_gap:.2e}",
    )
    _assert_clauses(clauses)


def test_acceptance_6_flow_cell_qualitative(fig2_runs):
    cfg, base, mono = fig2_runs

    def velocity_extrema(field):
        return sum(count_extrema_3d(getattr(field, v)) for v in ("vx", "vy", "vz"))

    count_u = velocity_extrema(base.field)
    count_y = velocity_extrema(mono.y)
    count_ratio = count_y / count_u if count_u else math.inf

    central = ((5, 14),) * 3
    a_u = sharpness_metrics(base.field.vx, central)[0]
    a_y = sharpness_metrics(mono.y.vx, central)[0]
    a_ratio = a_y / a_u if a_u else math.inf

    clauses = {
        "both variants converge": base.converged and mono.converged,
        "velocity extremum ratio <= 0.6": count_ratio <= 0.6,
        "central sharpness ratio <= 0.6": a_ratio <= 0.6,
    }
    _line(
        6,
        "3D flow-cell reproduction",
        all(clauses.values()),
        f"converged ({base.iterations}, {mono.iterations}) iterations; "
        f"velocity extrema {count_u} -> {count_y} (ratio {count_ratio:.3f}, "
        f"target <= 0.6, reference ratio 112/316 = 0.354); central sharpness {a_u:.3f} -> "
        f"{a_y:.3f} (ratio {a_ratio:.3f}, target <= 0.6, reference 0.11/0.29 = 0.379)",
    )
    _assert_clauses(clauses)


def test_acceptance_7_metrics_oracles():
    rng = np.random.default_rng(20240814)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        mesh = Mesh3D(1.0, n)
        u = MeshFunction(mesh, rng.standard_normal(n**3))
        g = u.as_grid()
        brute = []
        for i in range(1, n - 1):
            for j in range(1, n - 1):
                for k in range(1, n - 1):
                    nb = [g[i + 1, j, k], g[i - 1, j, k], g[i, j + 1, k],
                          g[i, j - 1, k], g[i, j, k + 1], g[i, j, k - 1]]
                    c = g[i, j, k]
                    if all(c > x for x in nb) or all(c < x for x in nb):
                        brute.append((i, j, k))
        if count_extrema_3d(u) != len(brute):
            mismatches += 1
            continue
        if brute:
            a = b = 0.0
            for (i, j, k) in brute:
                jumps = [abs(g[i, j, k] - g[i + d, j + e, k + f])
                         for d, e, f in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                         (0, -1, 0), (0, 0, 1), (0, 0, -1))]
                a = max(a, max(jumps))
                b = max(b, min(jumps))
            if sharpness_metrics(u, brute) != (a, b):
                mismatches += 1

    lipschitz_violations = 0
    for _ in range(200):
        n = int(rng.integers(3, 40))
        u = rng.standard_normal(n)
        v = u + rng.standard_normal(n) * rng.uniform(0.001, 2.0)
        if abs(max_step_change(u) - max_step_change(v)) > 2.0 * norm_c(u - v) + 1e-12:
            lipschitz_violations += 1

    ok = mismatches == 0 and lipschitz_violations == 0
    _line(
        7,
        "metrics oracle equivalence",
        ok,
        f"{mismatches} oracle mismatches, {lipschitz_violations} Lipschitz violations "
        "over 200+200 seeded trials",
    )
    assert ok


def test_acceptance_8_operator_suite():
    mesh1 = Mesh1D(0.0, 1.0, 12)
    mesh3 = Mesh3D(1.0, 5)
    norm_1d = operator_norm_c(smoothing(mesh1.n))
    norm_3d = operator_norm_c((mesh3, MIRROR_ALL))

    bc = BoundaryData1D(3.0, 3.0)
    const = MeshFunction(mesh1, np.full(12, 3.0))
    const_ok = bool(np.allclose(smooth_1d(const, bc).values, 3.0, atol=1e-15))
    const3 = MeshFunction(mesh3, np.ones(125))
    const3_ok = bool(np.allclose(smooth_3d(const3).values, 1.0, atol=1e-15))

    rng = np.random.default_rng(5)
    c1 = MeshFunction(mesh1, rng.standard_normal(12))
    rt1 = norm_c(solve_smooth_1d(smooth_1d(c1, bc), bc).values - c1.values)
    c3 = MeshFunction(mesh3, rng.standard_normal(125))
    rt3 = norm_c(solve_smooth_3d(smooth_3d(c3), tol=1e-10).values - c3.values)

    lin_mesh = Mesh1D(0.0, 1.0, 15)
    lin = sample(lin_mesh, lambda x: 2.0 * x - 0.3)
    lin_bc = BoundaryData1D(-0.3, 1.7)
    d1_exact = bool(
        np.allclose(first_derivative_1d(lin, lin_bc).values, 2.0, atol=1e-12)
    )
    quad = sample(lin_mesh, lambda x: x * x)
    quad_bc = BoundaryData1D(0.0, 1.0)
    d2_exact = bool(
        np.allclose(second_derivative_1d(quad, quad_bc).values, 2.0, atol=1e-9)
    )

    errors = []
    for n in (16, 32, 64, 128):
        m = Mesh1D(0.0, 1.0, n)
        u = sample(m, math.sin)
        sb = BoundaryData1D(math.sin(0.0), math.sin(1.0))
        errors.append(norm_c(smooth_1d(u, sb).values - u.values))
    hs = [1.0 / (n + 1) for n in (16, 32, 64, 128)]
    decay_order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])

    clauses = {
        "smoothing norm 1 (1D)": norm_1d == 1.0,
        "smoothing norm 1 (3D)": norm_3d == 1.0,
        "constants preserved": const_ok and const3_ok,
        "roundtrips within 1e-8": rt1 <= 1e-8 and rt3 <= 1e-8,
        "derivatives exact on low-degree polynomials": d1_exact and d2_exact,
        "identity-approximation order >= 1.9": decay_order >= 1.9,
    }
    _line(
        8,
        "operator suite",
        all(clauses.values()),
        f"roundtrips ({rt1:.1e}, {rt3:.1e}), decay order {decay_order:.3f}",
    )
    _assert_clauses(clauses)
