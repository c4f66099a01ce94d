"""Spans around calls into monoscheme's public functions, recorded from outside.

The tracer replaces a function by a timing wrapper in every monoscheme module
namespace that holds it, so a call is seen wherever its caller looks the name
up (`monoscheme.cli.solve_steady` for the CLI, `monoscheme.stencils.smooth_3d`
for the conjugate-gradient applies). Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from time import perf_counter

from monoscheme import stencils

# Public functions traced, by defining module.
TRACED = {
    "cli": ("main", "write_table", "write_json"),
    "ns3d": ("solve_steady", "centerline_profile"),
    "metrics": ("report_1d", "report_3d", "count_extrema_3d", "extremum_cells",
                "sharpness_metrics", "max_step_change", "check_damping_bound"),
    "bvp1d": ("solve_base", "solve_monotonized", "solve_monotonized_inverse",
              "analytic_solution", "convergence_order", "determinant_scan"),
    "timestep": ("run_to_steady", "step_monotonized", "step_monotonized_alt"),
    "stencils": ("smooth_3d", "solve_smooth_3d", "gradient_3d", "laplacian_3d",
                 "divergence_3d", "operator_norm_c", "solve_smooth_1d"),
    "grid": ("sample",),
}


def _solve_steady_attrs(args, kwargs, result):
    return {"N": args[0].N, "variant": result.variant, "sweeps": result.iterations}


def _write_table_attrs(args, kwargs, result):
    return {"rows": len(args[2]), "bytes": Path(args[0]).stat().st_size}


def _solve_smooth_3d_attrs(args, kwargs, result):
    spec = args[1] if len(args) > 1 else kwargs.get("spec", stencils.MIRROR_ALL)
    return {"spec": "mirror" if spec == stencils.MIRROR_ALL else "flow"}


# Attributes recorded after a call returns, by span name.
ATTRS = {
    "ns3d.solve_steady": _solve_steady_attrs,
    "cli.write_table": _write_table_attrs,
    "cli.main": lambda args, kwargs, result: {"argv": list(args[0])},
    "timestep.run_to_steady": lambda args, kwargs, result: {"steps": result.steps},
    "stencils.solve_smooth_3d": _solve_smooth_3d_attrs,
}


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original):
        describe = ATTRS.get(name)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "parent": self._stack[-1] if self._stack else None,
                    "name": name, "run": self.run_id, "start": perf_counter(), "end": None}
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = perf_counter()
                self._stack.pop()
            if describe is not None:
                span.update(describe(args, kwargs, result))
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items()
                   if key == "monoscheme" or key.startswith("monoscheme.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"monoscheme.{layer}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue  # the metrics that need it are then reported missing
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def durations(spans: list[dict]) -> tuple[dict[int, float], dict[int, float]]:
    """Duration and self time of every span, by id. Self time is the duration
    minus the time covered by the span's children (calls run one at a time)."""
    total = {s["id"]: s["end"] - s["start"] for s in spans}
    own = dict(total)
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= total[s["id"]]
    return total, own


# ---------------------------------------------------------------------------
# Per-layer metrics and consistency checks of one traced pass
# ---------------------------------------------------------------------------


def span_metrics(workload: str, spans: list[dict]) -> dict[str, float]:
    """Layer metrics a traced pass of `workload` yields (see catalog.py)."""
    total, own = durations(spans)

    def named(name):
        return [s for s in spans if s["name"] == name]

    writes = named("cli.write_table")
    m = {
        "cli.write_table_s": sum(total[s["id"]] for s in writes),
        "cli.rows_written": float(sum(s["rows"] for s in writes)),
        "cli.bytes_written": float(sum(s["bytes"] for s in writes)),
        "cli.self_s": sum(own[s["id"]] for s in named("cli.main")),
    }
    if workload == "flow3d":
        for s in named("ns3d.solve_steady"):
            key = f"N{s['N']}.{s['variant']}"
            m[f"ns3d.sweeps.{key}"] = float(s["sweeps"])
            m[f"ns3d.solve_s.{key}"] = total[s["id"]]
            m[f"ns3d.sweep_ms.{key}"] = 1e3 * total[s["id"]] / s["sweeps"]
        m["metrics.self_s"] = sum(own[s["id"]] for s in spans if s["name"].startswith("metrics."))
    elif workload == "line1d":
        m["bvp1d.determinant_scan_s"] = sum(total[s["id"]] for s in named("bvp1d.determinant_scan"))
        orders = named("bvp1d.convergence_order")
        if orders:
            m["bvp1d.convergence_order_ms"] = 1e3 * sum(total[s["id"]] for s in orders) / len(orders)
        for s in named("timestep.run_to_steady"):
            m["timestep.steps"] = float(s["steps"])
            m["timestep.run_to_steady_s"] = total[s["id"]]
            m["timestep.step_ms"] = 1e3 * total[s["id"]] / s["steps"]
    elif workload == "fields3d":
        for s in named("stencils.solve_smooth_3d"):
            m[f"stencils.solve_smooth_3d_s.{s['spec']}"] = total[s["id"]]
            m[f"stencils.cg_applies.{s['spec']}"] = float(sum(
                1 for c in spans if c["parent"] == s["id"] and c["name"] == "stencils.smooth_3d"))
    return m


def trace_checks(workload: str, spans: list[dict], ops, traced_wall: float,
                 overhead: float) -> list[str]:
    """Consistency of a traced pass with itself; '' for each check passed.

    The top-level spans must cover the traced wall time up to the tracing
    overhead (or 0.5% of the pass, as the overhead is itself a difference of
    two noisy walls), and on flow3d the sweep counts seen by the spans must
    equal those in summary.json.
    """
    import json

    total, _ = durations(spans)
    covered = sum(total[s["id"]] for s in spans if s["parent"] is None)
    gap = traced_wall - covered
    allowed = max(abs(overhead), 0.005 * traced_wall)
    checks = ["" if gap <= allowed else
              f"{workload}: spans leave {gap:.4f} s of {traced_wall:.4f} s uncovered "
              f"(allowed {allowed:.4f} s)"]
    if workload == "flow3d":
        mains = [s for s in spans if s["name"] == "cli.main"]
        for op, main in zip([op for op in ops if op.out is not None], mains):
            runs = json.loads((op.out / "summary.json").read_text())["runs"]
            for s in spans:
                if s["parent"] == main["id"] and s["name"] == "ns3d.solve_steady":
                    expected = runs[s["variant"]]["iterations"]
                    checks.append("" if s["sweeps"] == expected else
                                  f"{op.name}: span saw {s['sweeps']} {s['variant']} sweeps, "
                                  f"summary.json has {expected}")
    return checks


def solve_share_note(traced_pass: dict) -> str:
    total, _ = durations(traced_pass["spans"])
    solve = sum(total[s["id"]] for s in traced_pass["spans"] if s["name"] == "ns3d.solve_steady")
    return (f"flow3d: ns3d.solve_steady holds {solve:.4f} s of the traced "
            f"{traced_pass['traced_wall_s']:.4f} s ({100 * solve / traced_pass['traced_wall_s']:.1f}%)")
