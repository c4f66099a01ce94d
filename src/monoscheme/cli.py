"""Config-driven batch runner for the 1D and 3D experiments.

Usage:
    monoscheme run <config.cfg> [--out DIR] [--format csv|jsonl] [--seed N] [--tol X]
    monoscheme compare <report_a.json> <report_b.json> [--out DIR]

Configs are INI files with an [experiment] section naming the kind
(solve1d, solve3d, metrics, order, scan-det, timestep) and kind-specific
sections; numbers may be written as fractions ("1/30"). Bundled configs
(fig1.cfg, fig2.cfg, fig2_n10.cfg, order1d.cfg, scan.cfg, timestep1d.cfg)
resolve by name when no such file exists on disk.

Every run writes plot-ready tables (csv or json-lines), one comparable
report JSON per solution variant, and a machine-readable summary.json.
Runners return their outputs as a `RunOutput`; `_run` alone writes them,
turning one table's columns into rows at a time.
Identical configs produce bitwise-identical outputs.

Exit codes: 0 success, 2 config or argument parse error (ConfigParseError),
3 validation error (ValueError), 4 solver failure (SolverError). Errors
print one line: "error: <category>: <reason>".
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from .grid import BoundaryData1D, Mesh1D, MeshFunction, Mesh3D, norm_c, with_boundary
from .metrics import (
    MonotonicityReport,
    check_damping_bound,
    count_extrema_3d,
    max_step_change,
    report_1d,
    report_3d,
    sharpness_metrics,
)
from .bvp1d import (
    SchemeCoefficients,
    analytic_solution,
    convergence_order,
    determinant_scan,
    solve_base,
    solve_monotonized,
    solve_monotonized_inverse,
)
from .ns3d import FlowConfig, centerline_profile, solve_steady
from .stencils import SolverError, smooth_1d, smoothing
from .timestep import LinearMeshOperator, TimeStepConfig, run_to_steady, step_monotonized, step_monotonized_alt


class ConfigParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_real(text: str) -> float:
    text = text.strip()
    try:
        if "/" in text:
            return float(Fraction(text))
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigParseError(f"not a number: {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigParseError(f"not an integer: {text!r}") from exc


class ConfigView:
    """Typed access to one parsed config with parse-vs-validation split."""

    def __init__(self, parser: configparser.ConfigParser):
        self._p = parser

    def section(self, name: str) -> "SectionView":
        if not self._p.has_section(name):
            raise ConfigParseError(f"missing [{name}] section")
        return SectionView(self._p[name], name)


_REQUIRED = object()


class SectionView:
    """Typed values of one section. A key without a default is required; an
    absent key with a default, None included, yields that default."""

    def __init__(self, section, name: str):
        self._s = section
        self._name = name

    def _value(self, key: str, default, parse):
        if key in self._s:
            return parse(self._s[key])
        if default is _REQUIRED:
            raise ConfigParseError(f"missing key {key!r} in [{self._name}]")
        return default

    def real(self, key: str, default=_REQUIRED) -> float | None:
        return self._value(key, default, _parse_real)

    def integer(self, key: str, default=_REQUIRED) -> int | None:
        return self._value(key, default, _parse_int)

    def text(self, key: str, default=_REQUIRED) -> str | None:
        return self._value(key, default, str.strip)

    def reals(self, key: str) -> list[float]:
        return self._value(key, _REQUIRED, lambda raw: [_parse_real(t) for t in raw.split()])

    def integers(self, key: str) -> list[int]:
        return self._value(key, _REQUIRED, lambda raw: [_parse_int(t) for t in raw.split()])


def load_config(path: str) -> ConfigView:
    """Read a config from disk, falling back to the bundled ones by name."""
    source = Path(path)
    if not source.exists():
        source = resources.files("monoscheme").joinpath("configs", source.name)
        if not source.is_file():
            raise ConfigParseError(f"config not found: {path}")
    try:
        text = source.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigParseError(f"bad config syntax: {exc}") from exc
    return ConfigView(parser)


# ---------------------------------------------------------------------------
# Output plumbing
# ---------------------------------------------------------------------------


TABLE_FORMATS = ("csv", "jsonl")


def _strict(payload):
    """The payload with every non-finite float as None: strict JSON has no
    NaN or infinity, so such a value is written as null."""
    if isinstance(payload, float):
        return payload if math.isfinite(payload) else None
    if isinstance(payload, dict):
        return {key: _strict(v) for key, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_strict(v) for v in payload]
    return payload


@contextmanager
def _writing(path: Path):
    """path open for writing; a file that cannot be written is a validation error."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def write_table(path: Path, header: list[str], rows: list[tuple], fmt: str) -> None:
    """Write rows as csv or json-lines; callers name the file `<stem>.<fmt>`."""
    if fmt not in TABLE_FORMATS:
        raise ValueError(f"unknown table format {fmt!r}")
    with _writing(path) as fh:
        if fmt == "csv":
            fh.write(",".join(header) + "\n")
            # str of a Python float is its shortest round-trip repr.
            fh.writelines(",".join(map(str, row)) + "\n" for row in rows)
        else:
            for row in rows:
                fh.write(json.dumps(_strict(dict(zip(header, row))), sort_keys=True) + "\n")


def _rows(*columns) -> list[tuple]:
    """Table rows from equal-length columns; each value a Python int, float
    or bool, as str and json write them. A row tuple takes several times the
    memory of its values in an array, so `_run` makes one table's rows at a
    time."""
    return list(zip(*(np.asarray(col).tolist() for col in columns)))


def _ratio(num, den) -> float | None:
    """num / den, or None when den is 0."""
    return num / den if den else None


def write_json(path: Path, payload: dict) -> None:
    with _writing(path) as fh:
        json.dump(_strict(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


#: The MonotonicityReport fields that compare subtracts; central reports skip f_value.
_COMPARED = ("f_value", "extremum_count", "sharpness_a", "sharpness_b")


@dataclass(frozen=True)
class ComparableReport:
    """A per-solution record the compare subcommand can diff."""

    experiment: str
    label: str
    report: MonotonicityReport
    reference_distance_c: float | None = None
    central: MonotonicityReport | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "ComparableReport":
        """Inverse of `asdict`, for reports read back from JSON. A field that
        compare subtracts must be a number; TypeError names one that is not."""
        def report(part: str) -> MonotonicityReport:
            rep = MonotonicityReport(**d[part])
            for key in _COMPARED:
                _number(getattr(rep, key), f"{part}.{key}")
            return rep

        ref = d.get("reference_distance_c")
        return cls(
            experiment=d["experiment"],
            label=d["label"],
            report=report("report"),
            reference_distance_c=None if ref is None else _number(ref, "reference_distance_c"),
            central=report("central") if d.get("central") else None,
        )


def _number(value, name: str):
    """value, if it is an int or a float (not a bool); else TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} is not a number: {value!r}")
    return value


@dataclass(frozen=True)
class RunOutput:
    """What a runner returns: the payload of summary.json, tables by file stem
    as (header, columns) with equal-length columns, and comparable reports
    by label."""

    summary: dict
    tables: dict[str, tuple[list[str], list]]
    reports: dict[str, ComparableReport] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------


# Each 1D kind reads only the [problem] keys its output depends on; it ignores the rest.
def _coefficients(sec: SectionView) -> SchemeCoefficients:
    return SchemeCoefficients(*(sec.real(k) for k in ("k0", "k1", "k2", "k3")))


def _domain(sec: SectionView) -> tuple[float, float]:
    return sec.real("a", 0.0), sec.real("b", 1.0)


def _end_values(sec: SectionView) -> BoundaryData1D:
    ends = {key: sec.real(key) for key in ("u_left", "u_right")}
    for key, value in ends.items():
        if not np.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
    return BoundaryData1D(*ends.values())


def run_solve1d(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("problem")
    c = _coefficients(sec)
    mesh = Mesh1D(*_domain(sec), sec.integer("n"))
    bc = _end_values(sec)
    dense_points = sec.integer("dense_points", 100)
    if dense_points < 3:
        raise ValueError(f"dense_points must be at least 3, got {dense_points}")

    base = solve_base(c, mesh, bc)
    mono = solve_monotonized(c, mesh, bc)
    inv = solve_monotonized_inverse(c, mesh, bc)

    dense_mesh = Mesh1D(mesh.a, mesh.b, dense_points - 2)
    dense = solve_base(c, dense_mesh, bc)
    xs = mesh.interior_x()
    ref = np.interp(xs, dense_mesh.all_x(), with_boundary(dense.u, bc))
    oracle = analytic_solution(c, bc, (mesh.a, mesh.b))
    exact = oracle(xs)

    u_full = with_boundary(base.u, bc)
    v_full = with_boundary(mono.v, bc)
    y_full = with_boundary(mono.y, bc)

    damping = check_damping_bound(
        u_full, v_full,
        lambda seq: with_boundary(smooth_1d(MeshFunction(mesh, seq[1:-1]), bc), bc))

    reports = {
        label: ComparableReport("solve1d", label, report_1d(full), norm_c(values - ref))
        for label, full, values in (("base", u_full, base.u.values),
                                    ("auxiliary", v_full, mono.v.values),
                                    ("monotonized", y_full, mono.y.values))
    }
    columns = [xs, base.u.values, mono.v.values, mono.y.values, ref, exact]
    header = ["x", "u", "v", "y", "reference_dense", "reference_analytic"]
    summary = {
        "coefficients": asdict(c),
        "mesh": {"a": mesh.a, "b": mesh.b, "n": mesh.n, "h": mesh.h},
        "bc": asdict(bc),
        "residuals": {
            "base": base.residual_c_norm,
            "monotonized": mono.residual_c_norm,
            "inverse_route": inv.residual_c_norm,
        },
        "route_agreement_c": norm_c(inv.y.values - mono.y.values),
        "closeness_u_v_relative": _ratio(norm_c(base.u.values - mono.v.values), norm_c(base.u.values)),
        "damping_check": asdict(damping),
        "reference": {
            "dense_points": dense_points,
            "u_distance_c": reports["base"].reference_distance_c,
            "y_distance_c": reports["monotonized"].reference_distance_c,
            "u_analytic_distance_c": norm_c(base.u.values - exact),
            "y_analytic_distance_c": norm_c(mono.y.values - exact),
        },
    }
    return RunOutput(summary, {"solution1d": (header, columns)}, reports)


def run_solve3d(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("flow")
    flow = FlowConfig(
        L=sec.real("L"), N=sec.integer("N"), rho=sec.real("rho"), nu=sec.real("nu"),
        p0=sec.real("p0"), p1=sec.real("p1"),
        hole_lo=sec.integer("hole_lo"), hole_hi=sec.integer("hole_hi"),
        tol=tol if tol is not None else sec.real("tol", 1e-2),
        max_iters=sec.integer("max_iters", 200000),
        sigma_v=sec.real("sigma_v", None),
        sigma_p=sec.real("sigma_p", None),
    )

    msec = cfg.section("metrics")
    c_lo, c_hi = msec.integer("central_lo"), msec.integer("central_hi")
    if c_lo > c_hi or max(c_lo, 1) > min(c_hi, flow.N - 2):
        raise ValueError(f"central_lo..central_hi = {c_lo}..{c_hi} holds no cell with "
                         f"all six neighbors; such cells are 1..{flow.N - 2}")
    central = ((c_lo, c_hi),) * 3

    base = solve_steady(flow, "base")
    mono = solve_steady(flow, "monotonized")

    fields = {"base": base.field, "auxiliary": mono.field, "monotonized": mono.y}
    reports: dict[str, ComparableReport] = {}
    # The monotonized answer is the velocity triple (pressure stays the
    # dependent variable in both schemes), so velocity-basis counts and the
    # always-defined region-basis central sharpness carry the comparison.
    vel_counts, central_region_a, profiles, field_tables = {}, {}, {}, {}
    for label, fld in fields.items():
        per_var = [report_3d(getattr(fld, var)) for var in ("vx", "vy", "vz", "p")]
        combined = MonotonicityReport(
            f_value=max(r.f_value for r in per_var),
            extremum_count=sum(r.extremum_count for r in per_var),
            sharpness_a=max(r.sharpness_a for r in per_var),
            sharpness_b=max(r.sharpness_b for r in per_var),
            region=per_var[0].region,
        )
        reports[label] = ComparableReport(
            "solve3d", label, combined, None, report_3d(fld.vx, central)
        )
        vel_counts[label] = sum(r.extremum_count for r in per_var[:3])
        central_region_a[label] = sharpness_metrics(fld.vx, central)[0]
        profiles[label] = centerline_profile(fld, flow)
        field_tables[f"field_{label}"] = (["i", "j", "k", "vx", "vy", "vz", "p"],
                                          _field_columns(fld))

    tables = {"centerline": (["x", "vx_base", "vx_auxiliary", "vx_monotonized"],
                             [flow.mesh.axis_centers(), *profiles.values()]),
              **field_tables}
    count_u = reports["base"].report.extremum_count
    count_y = reports["monotonized"].report.extremum_count
    summary = {
        "flow": asdict(flow),
        "central_region": [c_lo, c_hi],
        "runs": {
            label: {"converged": r.converged, "iterations": r.iterations,
                    "momentum_residual_c": r.momentum_residual_c,
                    "divergence_c": r.divergence_c}
            for label, r in (("base", base), ("monotonized", mono))
        },
        "velocity_extremum_counts": vel_counts,
        "velocity_extremum_ratio_y_over_u": _ratio(vel_counts["monotonized"],
                                                   vel_counts["base"]),
        "extremum_ratio_y_over_u": _ratio(count_y, count_u),
        "central_region_sharpness_a": central_region_a,
        "central_sharpness_ratio_a": _ratio(central_region_a["monotonized"],
                                            central_region_a["base"]),
        "profile_max_step": {
            "base": max_step_change(profiles["base"]),
            "monotonized": max_step_change(profiles["monotonized"]),
        },
    }
    return RunOutput(summary, tables, reports)


def run_metrics(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("metrics")
    trials = sec.integer("trials", 200)
    max_n = sec.integer("max_n", 5)
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if max_n < 3:
        raise ValueError(f"max_n must be at least 3, got {max_n}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)

    records = []
    for t in range(trials):
        n = int(rng.integers(3, max_n + 1))
        mesh = Mesh3D(1.0, n)
        u = MeshFunction(mesh, rng.standard_normal(n**3))
        mine = count_extrema_3d(u)
        cells = _brute_extrema(u)
        ok = mine == len(cells)
        a = b = float("nan")
        if cells:
            a, b = sharpness_metrics(u, cells)
            a2, b2 = _brute_sharpness(u, cells)
            ok = ok and a == a2 and b == b2
        records.append((t, n, mine, len(cells), a, b, ok))
    mismatches = sum(not ok for *_, ok in records)

    lipschitz_ok = True
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(3, 40))
        u = rng.standard_normal(n)
        v = u + rng.standard_normal(n) * rng.uniform(0.001, 2.0)
        gap = abs(max_step_change(u) - max_step_change(v))
        bound = 2.0 * float(np.max(np.abs(u - v)))
        if bound > 0:
            worst = max(worst, gap / bound)
        lipschitz_ok = lipschitz_ok and gap <= bound + 1e-12

    header = ["trial", "n", "count", "brute_count", "sharpness_a", "sharpness_b", "match"]
    summary = {
        "seed": seed,
        "trials": trials,
        "oracle_mismatches": mismatches,
        "lipschitz_bound_holds": lipschitz_ok,
        "lipschitz_worst_ratio": worst,
        "passed": mismatches == 0 and lipschitz_ok,
    }
    return RunOutput(summary, {"metrics_trials": (header, list(zip(*records)))})


def _field_columns(fld) -> list[np.ndarray]:
    """The (i, j, k, vx, vy, vz, p) columns in flat-index order."""
    ijk = np.unravel_index(np.arange(fld.mesh.cell_count), (fld.mesh.N,) * 3, order="F")
    return [*ijk, fld.vx.values, fld.vy.values, fld.vz.values, fld.p.values]


def _brute_extrema(u: MeshFunction) -> list[tuple[int, int, int]]:
    g = u.as_grid()
    n = u.mesh.N
    cells = []
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            for k in range(1, n - 1):
                nb = [g[i + 1, j, k], g[i - 1, j, k], g[i, j + 1, k],
                      g[i, j - 1, k], g[i, j, k + 1], g[i, j, k - 1]]
                c = g[i, j, k]
                if all(c > x for x in nb) or all(c < x for x in nb):
                    cells.append((i, j, k))
    return cells


def _brute_sharpness(u: MeshFunction, cells) -> tuple[float, float]:
    g = u.as_grid()
    a = b = 0.0
    for (i, j, k) in cells:
        jumps = [abs(g[i, j, k] - g[i + d, j + e, k + f])
                 for d, e, f in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
        a = max(a, max(jumps))
        b = max(b, min(jumps))
    return a, b


def run_order(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("problem")
    c, domain, bc = _coefficients(sec), _domain(sec), _end_values(sec)
    ns = cfg.section("study").integers("n_values")
    est_base = convergence_order(c, bc, "base", ns, domain)
    est_mono = convergence_order(c, bc, "monotonized", ns, domain)
    columns = [ns, est_base.hs, est_base.errors, est_mono.errors]
    summary = {
        "coefficients": asdict(c),
        "base": asdict(est_base),
        "monotonized": asdict(est_mono),
    }
    return RunOutput(summary, {"order": (["n", "h", "error_base", "error_monotonized"], columns)})


def run_scan_det(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("problem")
    c, domain = _coefficients(sec), _domain(sec)
    scan = cfg.section("scan")
    h_values = scan.reals("h_values")
    if not h_values:
        raise ValueError("h_values must list at least one mesh step")
    near_tol = scan.real("near_tol", 1e-10)
    rows_obj = determinant_scan(c, h_values, domain, near_tol)
    header = ["h", "n", "indicator_base", "indicator_monotonized", "flagged"]
    columns = [[getattr(r, key) for r in rows_obj] for key in header]
    summary = {
        "coefficients": asdict(c),
        "near_tol": near_tol,
        "rows": [asdict(r) for r in rows_obj],
        "flagged_steps": [r.h for r in rows_obj if r.flagged],
    }
    return RunOutput(summary, {"determinant_scan": (header, columns)})


def run_timestep(cfg: ConfigView, seed: int, tol: float | None) -> RunOutput:
    sec = cfg.section("problem")
    c = _coefficients(sec)
    mesh = Mesh1D(*_domain(sec), sec.integer("n"))
    bc = _end_values(sec)
    st = cfg.section("stepping")
    # run_to_steady takes the direct step; inner_tol and max_inner steer only the fixed-point one.
    ts_cfg = TimeStepConfig(tau=st.real("tau"), sigma=st.real("sigma", 1.0))
    steady_tol = tol if tol is not None else st.real("steady_tol", 1e-12)
    max_steps = st.integer("max_steps", 10000)
    record_every = st.integer("record_every", 1)
    snapshot_every = st.integer("snapshot_every", 0)

    aux_op = LinearMeshOperator.from_coefficients(c, mesh, bc)
    v0 = MeshFunction(mesh, np.full(mesh.n, (bc.u0 + bc.u_np1) / 2.0))
    result = run_to_steady(v0, aux_op, bc, ts_cfg, steady_tol, max_steps,
                           record_every, snapshot_every)

    stationary = solve_monotonized(c, mesh, bc)
    dist = norm_c(result.y.values - stationary.y.values)

    # Cross-form agreement of the two step rearrangements on this problem.
    # The rearranged form's inner loop contracts only for
    # tau * ||M^{-1} A|| < 1, so probe with a step inside that bound.
    amplified = smoothing(mesh.n).solve(aux_op.a.dense())
    safe_tau = 0.25 / max(np.linalg.norm(amplified, np.inf), 1.0)
    probe_tau = min(ts_cfg.tau, safe_tau)
    agreements = {}
    for sigma in (0.0, 1.0):
        pc = TimeStepConfig(tau=probe_tau, sigma=sigma, inner_tol=1e-13, max_inner=500)
        v1, y1 = step_monotonized(v0, aux_op, bc, pc)
        v2, y2 = step_monotonized_alt(v0, aux_op, bc, pc)
        agreements[f"sigma_{sigma:g}"] = norm_c(v1.values - v2.values)

    tables = {"trajectory": (["t", "update_c_norm"], list(zip(*result.history)))}
    if result.snapshots:
        ts, vs, ys = map(np.array, zip(*result.snapshots))
        tables["snapshots"] = (["t", "x", "v", "y"], [
            np.repeat(ts, mesh.n), np.tile(mesh.interior_x(), len(ts)), vs.ravel(), ys.ravel()])
    summary = {
        "coefficients": asdict(c),
        "tau": ts_cfg.tau,
        "sigma": ts_cfg.sigma,
        "steps": result.steps,
        "converged": result.converged,
        "final_update": result.final_update,
        "steady_tol": steady_tol,
        "distance_to_stationary_y": dist,
        "within_10x_tol": bool(dist <= 10.0 * steady_tol) if result.converged else None,
        "form_agreement": agreements,
    }
    return RunOutput(summary, tables)


#: Experiment kind -> runner (cfg, seed, tol) -> RunOutput.
EXPERIMENTS = {
    "solve1d": run_solve1d,
    "solve3d": run_solve3d,
    "metrics": run_metrics,
    "order": run_order,
    "scan-det": run_scan_det,
    "timestep": run_timestep,
}


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare_reports(path_a: str, path_b: str) -> dict:
    try:
        a = ComparableReport.from_dict(json.loads(Path(path_a).read_text()))
        b = ComparableReport.from_dict(json.loads(Path(path_b).read_text()))
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigParseError(f"cannot read report: {exc}") from exc
    if a.experiment != b.experiment:
        raise ValueError(f"reports come from different experiments: {a.experiment} vs {b.experiment}")
    ra, rb = a.report, b.report
    deltas = {key: getattr(rb, key) - getattr(ra, key) for key in _COMPARED}
    if a.reference_distance_c is not None and b.reference_distance_c is not None:
        deltas["reference_distance_c"] = b.reference_distance_c - a.reference_distance_c
    out = {
        "experiment": a.experiment,
        "left": a.label,
        "right": b.label,
        "deltas": deltas,
        "extremum_ratio": _ratio(rb.extremum_count, ra.extremum_count),
    }
    if a.central is not None and b.central is not None:
        out["central_deltas"] = {
            key: getattr(b.central, key) - getattr(a.central, key) for key in _COMPARED[1:]
        }
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises an argument error as a ConfigParseError, so it exits 2 with one line."""

    def error(self, message):
        raise ConfigParseError(message)


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="monoscheme", description="Config-driven difference-scheme experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run the experiment named by a config file")
    runp.add_argument("config")
    runp.add_argument("--out", default=".", help="output directory")
    runp.add_argument("--format", choices=TABLE_FORMATS, default="csv")
    runp.add_argument("--seed", type=int, default=20240814,
                      help="seed for randomized test fields")
    runp.add_argument("--tol", type=float, default=None, help="solver tolerance override")

    cmpp = sub.add_parser("compare", help="diff two report JSON files")
    cmpp.add_argument("report_a")
    cmpp.add_argument("report_b")
    cmpp.add_argument("--out", default=None, help="optional directory for comparison.json")
    return ap


def _output_dir(path: str) -> Path:
    """Create the output directory; a path that cannot be one is a validation error."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot use {out} as output directory: {exc.strerror}") from exc
    return out


def _run(args) -> int:
    cfg = load_config(args.config)
    kind = cfg.section("experiment").text("kind")
    if kind not in EXPERIMENTS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    out = _output_dir(args.out)
    result = EXPERIMENTS[kind](cfg, args.seed, args.tol)
    summary = {"experiment": kind, **result.summary}
    if result.reports:
        summary["reports"] = {label: asdict(r) for label, r in result.reports.items()}
        for label, payload in summary["reports"].items():
            write_json(out / f"report_{label}.json", payload)
    for stem, (header, columns) in result.tables.items():
        write_table(out / f"{stem}.{args.format}", header, _rows(*columns), args.format)
    write_json(out / "summary.json", summary)
    print(f"{kind}: wrote {out / 'summary.json'}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _run(args)
        result = compare_reports(args.report_a, args.report_b)
        if args.out:
            write_json(_output_dir(args.out) / "comparison.json", result)
        print(json.dumps(_strict(result), indent=2, sort_keys=True))
        return 0
    except ConfigParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"error: solver: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
