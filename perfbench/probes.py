"""Micro-probes: single public calls timed after warm-up, apart from the
end-to-end passes, and one tracemalloc pass kept apart from all timing."""

from __future__ import annotations

import statistics
import tracemalloc
from time import perf_counter

from monoscheme import bvp1d, grid, metrics, ns3d, stencils

from workloads import FIG1, boundary_values, fields_3d, flow_config

WARMUP_CALLS = 2
MIN_SAMPLES = 5
BUDGET_S = 0.25  # sampling time per probe once MIN_SAMPLES are taken


def _median_time(fn) -> tuple[float, int]:
    for _ in range(WARMUP_CALLS):
        fn()
    times = []
    stop = perf_counter() + BUDGET_S
    while len(times) < MIN_SAMPLES or perf_counter() < stop:
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times), len(times)


def flow_state(n: int, sweeps: int = 20) -> tuple[ns3d.FlowConfig, ns3d.FlowField]:
    """The flow cell at N=n after a few base sweeps, so velocities are nonzero."""
    cfg = flow_config(n)
    fld = ns3d.init_field(cfg)
    for _ in range(sweeps):
        fld = ns3d.iterate(fld, cfg, "base")
    return cfg, fld


def run_probes(index: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer timings in their catalog units, and the sample count of each."""
    values: dict[str, float] = {}
    samples: dict[str, int] = {}

    def probe(name: str, fn, unit_scale: float) -> None:
        seconds, count = _median_time(fn)
        values[name] = seconds * unit_scale
        samples[name] = count

    flows = {n: flow_state(n) for n in (10, 20, 30)}
    for n, (cfg, fld) in flows.items():
        probe(f"ns3d.iterate_ms.N{n}", lambda cfg=cfg, fld=fld: ns3d.iterate(fld, cfg, "monotonized"), 1e3)
    cfg, fld = flows[20]
    probe("ns3d.momentum_residual_ms.N20",
          lambda: ns3d.momentum_residual(fld, cfg, "monotonized"), 1e3)
    policy = ns3d.flow_boundary_policy(cfg)
    p_grid, v_grid = fld.p.as_grid(), fld.vx.as_grid()
    probe("stencils.pad_grid_us.N20.pressure", lambda: stencils.pad_grid(p_grid, policy.p), 1e6)
    probe("stencils.pad_grid_us.N20.velocity", lambda: stencils.pad_grid(v_grid, policy.vx), 1e6)

    f = fields_3d(index, 40)
    probe("stencils.smooth_3d_ms.N40", lambda: stencils.smooth_3d(f.rnd, f.policy.vx), 1e3)
    probe("stencils.gradient_3d_ms.N40", lambda: stencils.gradient_3d(f.rnd, 0, f.policy.p), 1e3)
    probe("stencils.laplacian_3d_ms.N40", lambda: stencils.laplacian_3d(f.rnd, f.policy.vx), 1e3)
    probe("stencils.divergence_3d_ms.N40", lambda: stencils.divergence_3d(*f.vel, f.policy), 1e3)
    probe("stencils.operator_norm_ms.N40",
          lambda: stencils.operator_norm_c((f.mesh, f.policy.vx)), 1e3)
    probe("metrics.report_3d_ms.N40", lambda: metrics.report_3d(f.rnd), 1e3)
    cells = metrics.extremum_cells(f.rnd)
    values["metrics.extrema_found"] = float(len(cells))
    probe("metrics.sharpness_ms.N40", lambda: metrics.sharpness_metrics(f.rnd, cells), 1e3)
    probe("grid.sample_ms.N40", lambda: grid.sample(f.mesh, f.smooth), 1e3)

    c = bvp1d.SchemeCoefficients(**FIG1)
    mesh = grid.Mesh1D(0.0, 1.0, 400)
    bc = grid.BoundaryData1D(*boundary_values(index))
    probe("bvp1d.solve_monotonized_inverse_ms",
          lambda: bvp1d.solve_monotonized_inverse(c, mesh, bc), 1e3)
    probe("bvp1d.solve_banded_us",
          lambda: (bvp1d.solve_base(c, mesh, bc), bvp1d.solve_monotonized(c, mesh, bc)), 1e6)
    y = bvp1d.solve_monotonized(c, mesh, bc).y
    probe("stencils.solve_smooth_1d_us", lambda: stencils.solve_smooth_1d(y, bc), 1e6)
    sequence = grid.with_boundary(y, bc)
    probe("metrics.report_1d_us", lambda: metrics.report_1d(sequence), 1e6)
    return values, samples


def iterate_peak_kb(n: int = 20) -> float:
    """Peak of memory traced during one monotonized sweep, above what was
    live before it. Run after every timing probe: tracemalloc slows allocation."""
    cfg, fld = flow_state(n)
    ns3d.iterate(fld, cfg, "monotonized")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ns3d.iterate(fld, cfg, "monotonized")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 1024.0
