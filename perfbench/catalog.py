"""Names, units and intent of every benchmark metric.

BENCHMARK.json at the repository root repeats the workload names and the
(name, unit, better) triple of each metric; `selftest.py` checks that the two
agree. The `moves` column is the prediction a later change cites: the
end-to-end metric and the workload on which a change to that layer should
show up.
"""

from __future__ import annotations

WORKLOADS = {
    "flow3d": "the paper's headline 3D flow cell (fig2 at N=20, then N=10): "
              "about 95% of its time is ns3d sweeps, the rest metrics and table writing",
    "line1d": "the 1D route (scan.cfg plus seeded solve1d, timestep and order configs): "
              "bvp1d, timestep and 1D stencils do all the work, ns3d none",
    "fields3d": "seeded N=40 fields through the public 3D operators, the CG inverse, "
                "metrics and grid loops, which flow3d never calls",
}

# (name, unit, better, bound); bound is the share by which the median may worsen.
END_TO_END = [
    ("wall_s", "s", "lower", 0.24),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
]

_N = [("N20", "base"), ("N20", "monotonized"), ("N10", "base"), ("N10", "monotonized")]

# (name, unit, better, moves)
PER_LAYER = (
    [(f"ns3d.sweeps.{n}.{v}", "count", "lower", "wall_s on flow3d") for n, v in _N]
    + [(f"ns3d.solve_s.{n}.{v}", "s", "lower", "wall_s on flow3d") for n, v in _N]
    + [(f"ns3d.sweep_ms.{n}.{v}", "ms", "lower", "wall_s on flow3d") for n, v in _N]
    + [(f"ns3d.iterate_ms.N{n}", "ms", "lower", "wall_s on flow3d") for n in (10, 20, 30)]
    + [
        ("ns3d.momentum_residual_ms.N20", "ms", "lower", "wall_s on flow3d"),
        ("ns3d.iterate_peak_kb.N20", "kB", "lower", "wall_s and peak_rss_mb on flow3d"),
        ("stencils.pad_grid_us.N20.pressure", "us", "lower", "wall_s on flow3d"),
        ("stencils.pad_grid_us.N20.velocity", "us", "lower", "wall_s on flow3d"),
        ("stencils.smooth_3d_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("stencils.gradient_3d_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("stencils.laplacian_3d_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("stencils.divergence_3d_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("stencils.solve_smooth_3d_s.mirror", "s", "lower", "wall_s on fields3d"),
        ("stencils.solve_smooth_3d_s.flow", "s", "lower", "wall_s on fields3d"),
        ("stencils.cg_applies.mirror", "count", "lower", "wall_s on fields3d"),
        ("stencils.cg_applies.flow", "count", "lower", "wall_s on fields3d"),
        ("stencils.operator_norm_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("stencils.solve_smooth_1d_us", "us", "lower", "wall_s on line1d"),
        ("metrics.report_3d_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("metrics.sharpness_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("metrics.extrema_found", "count", "lower", "wall_s on fields3d (input size, should not move)"),
        ("metrics.self_s", "s", "lower", "wall_s on flow3d"),
        ("metrics.report_1d_us", "us", "lower", "wall_s on line1d"),
        ("bvp1d.determinant_scan_s", "s", "lower", "wall_s on line1d"),
        ("bvp1d.solve_monotonized_inverse_ms", "ms", "lower", "wall_s and peak_rss_mb on line1d"),
        ("bvp1d.solve_banded_us", "us", "lower", "wall_s on line1d"),
        ("bvp1d.convergence_order_ms", "ms", "lower", "wall_s on line1d"),
        ("timestep.steps", "count", "lower", "wall_s and peak_rss_mb on line1d"),
        ("timestep.run_to_steady_s", "s", "lower", "wall_s and peak_rss_mb on line1d"),
        ("timestep.step_ms", "ms", "lower", "wall_s and peak_rss_mb on line1d"),
        ("cli.write_table_s", "s", "lower", "wall_s on every workload, most on line1d"),
        ("cli.rows_written", "count", "lower", "wall_s on every workload (output size, should not move)"),
        ("cli.bytes_written", "bytes", "lower", "wall_s on every workload"),
        ("cli.self_s", "s", "lower", "wall_s on every workload"),
        ("grid.sample_ms.N40", "ms", "lower", "wall_s on fields3d"),
        ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of the workload"),
    ]
)
