"""Inputs, operations and output checks of the benchmark workloads.

A workload is a list of operations that one caller runs back to back, each
starting after the previous one returns (closed loop, one client). The
program sees only what `build` generates: INI configs written to the work
directory and numpy arrays.

Inputs come from the seed alone. The seed picks one of POOL_SIZE input sets,
and reference.json holds the outputs of every set as recorded when the
benchmark was defined, so `answer_drift` is a comparison with recorded
values and reads 0 when the outputs are bitwise identical.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from monoscheme import cli, grid, metrics, ns3d, stencils

POOL_SIZE = 16

# Largest relative deviation from the reference (per digest entry, scaled by
# the largest reference value of that entry) that still counts as the same
# answer. Loose enough for a reordered floating-point sum or a solver that
# stops at the same tolerance by another path; tight enough that a wrong
# answer fails.
DRIFT_TOL = 1e-4
CG_TOL = 1e-10
# The seven-point smoother nearly annihilates the checkerboard mode, so the
# inverse amplifies the CG residual by up to ~N^2.
ROUNDTRIP_TOL = 1e-6
# Agreement of the direct and inverse-smoother 1D routes at n = 400.
ROUTE_TOL = 1e-8

# The fig1 problem family on [0, 1]: k0 + k1 U + k2 U' + k3 U'' = 0.
FIG1 = {"k0": 10.0, "k1": -5.0, "k2": 30.0, "k3": -1.0}
STEADY_TOL = 1e-10


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one benchmark size; `small` serves the self-test."""

    flow: tuple[tuple[str, str | None], ...]  # (bundled config, --tol override)
    scan_h: str | None  # None runs the bundled scan.cfg
    n1d: int
    order_ns: str
    n3d: int
    metric_trials: int


SCALES = {
    "full": Scale(
        flow=(("fig2.cfg", None), ("fig2_n10.cfg", None)),
        scan_h=None,
        n1d=400,
        order_ns="40 80 160 320 640 1280 2560 5120",
        n3d=40,
        metric_trials=200,
    ),
    "small": Scale(
        flow=(("fig2.cfg", "100"), ("fig2_n10.cfg", "10")),
        scan_h="1/4 1/8 1/16 1/32 1/64",
        n1d=40,
        order_ns="40 80 160 320",
        n3d=10,
        metric_trials=20,
    ),
}


@dataclass
class Outcome:
    """What the checks found in one operation's outputs."""

    problems: list[str] = field(default_factory=list)
    digest: dict[str, list[float]] = field(default_factory=dict)  # compared within DRIFT_TOL
    exact: dict[str, object] = field(default_factory=dict)  # must equal the reference
    counts: dict[str, int] = field(default_factory=dict)  # reported against the reference
    hashes: dict[str, str] = field(default_factory=dict)  # sha256 per output


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    out: Path | None = None  # directory a `monoscheme run` operation writes


def pool_index(workload: str, seed: int) -> int:
    """Input set of a seed; flow3d has a single, unseeded input."""
    if workload == "flow3d":
        return 0
    return int(np.random.default_rng(seed).integers(POOL_SIZE))


def boundary_values(index: int) -> tuple[float, float]:
    """u_left, u_right of the 1D problems for one input set. They enter the
    right-hand side only, so no input set makes a step singular."""
    left, right = np.random.default_rng(index).uniform(-1.0, 1.0, 2)
    return float(left), float(right)


def problem_section(n: int, u_left: float, u_right: float) -> str:
    coefficients = "".join(f"{k} = {v!r}\n" for k, v in FIG1.items())
    return (f"[problem]\n{coefficients}a = 0\nb = 1\nn = {n}\n"
            f"u_left = {u_left!r}\nu_right = {u_right!r}\n")


@dataclass(frozen=True)
class Fields3D:
    """Seeded 3D inputs: a smooth pointwise function, a standard normal
    field, a random velocity triple and the flow cell's ghost policy."""

    mesh: grid.Mesh3D
    coef: tuple[float, float, float]
    rnd: grid.MeshFunction
    vel: tuple[grid.MeshFunction, grid.MeshFunction, grid.MeshFunction]
    policy: stencils.BoundaryPolicy3D

    def smooth(self, x, y, z):
        a, b, c = self.coef
        return np.sin(a * x) * np.cos(b * y) + c * z * z


def flow_config(n: int) -> ns3d.FlowConfig:
    """The fig2 flow cell at N=n, holes over the middle half of the x-faces."""
    return ns3d.FlowConfig(L=1 / 30, N=n, rho=1.0, nu=1.002, p0=1e6, p1=0.0,
                           hole_lo=n // 4, hole_hi=n - 1 - n // 4)


def fields_3d(index: int, n: int) -> Fields3D:
    rng = np.random.default_rng(index)
    mesh = grid.Mesh3D(1.0, n)
    coef = tuple(float(v) for v in rng.uniform(1.0, 3.0, 3))
    rnd = grid.MeshFunction(mesh, rng.standard_normal(n**3))
    vel = tuple(grid.MeshFunction(mesh, v) for v in rng.standard_normal((3, n**3)))
    return Fields3D(mesh, coef, rnd, vel, ns3d.flow_boundary_policy(flow_config(n)))


# ---------------------------------------------------------------------------
# Building the operation lists
# ---------------------------------------------------------------------------


def build(workload: str, index: int, scale: Scale, workdir: Path) -> list[Op]:
    """Generate and load the inputs of one workload's input set `index`;
    return its operations."""
    return {"flow3d": _flow3d, "line1d": _line1d, "fields3d": _fields3d}[workload](
        index, scale, workdir
    )


def largest_array_bytes(workload: str, scale: Scale) -> int:
    """Size of the largest float64 array a workload builds: padded 3D grids,
    or the dense n x n matrices of the 1D routes."""
    if workload == "flow3d":
        n = max(cli.load_config(c).section("flow").integer("N") for c, _ in scale.flow)
        return 8 * (n + 2) ** 3
    if workload == "fields3d":
        return 8 * (scale.n3d + 2) ** 3
    if scale.scan_h is None:
        h_min = min(cli.load_config("scan.cfg").section("scan").reals("h_values"))
    else:
        h_min = min(float(Fraction(h)) for h in scale.scan_h.split())
    return 8 * max(scale.n1d, round(1.0 / h_min) - 1) ** 2


def _cli_op(name: str, config: str, workdir: Path, check, extra=()) -> Op:
    cli.load_config(config)  # parse now, so a bad input fails before timing
    out = workdir / "out" / name
    argv = ["run", config, "--out", str(out), *extra]
    return Op(name, lambda: cli.main(list(argv)), lambda rc: check(rc, out), out)


def _write_config(workdir: Path, name: str, text: str) -> str:
    path = workdir / "inputs" / f"{name}.cfg"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return str(path)


def _flow3d(index: int, scale: Scale, workdir: Path) -> list[Op]:
    return [
        _cli_op(config, config, workdir, _check_solve3d, ("--tol", tol) if tol else ())
        for config, tol in scale.flow
    ]


def _line1d(index: int, scale: Scale, workdir: Path) -> list[Op]:
    u_left, u_right = boundary_values(index)
    if scale.scan_h is None:
        scan = "scan.cfg"
    else:
        scan = _write_config(workdir, "scan", (
            "[experiment]\nkind = scan-det\n" + problem_section(9, 0.5, 0.5)
            + f"[scan]\nh_values = {scale.scan_h}\nnear_tol = 1e-10\n"))
    solve1d = _write_config(workdir, "solve1d", (
        "[experiment]\nkind = solve1d\n" + problem_section(scale.n1d, u_left, u_right)
        + "dense_points = 100\n"))
    timestep = _write_config(workdir, "timestep", (
        "[experiment]\nkind = timestep\n" + problem_section(scale.n1d, u_left, u_right)
        + f"[stepping]\ntau = 0.01\nsigma = 1\nsteady_tol = {STEADY_TOL!r}\n"
        "max_steps = 1000\nrecord_every = 1\nsnapshot_every = 10\n"))
    order = _write_config(workdir, "order", (
        "[experiment]\nkind = order\n" + problem_section(40, u_left, u_right)
        + f"[study]\nn_values = {scale.order_ns}\n"))
    return [
        _cli_op("scan", scan, workdir, _check_scan),
        _cli_op("solve1d", solve1d, workdir, _check_solve1d),
        _cli_op("timestep", timestep, workdir, _check_timestep),
        _cli_op("order", order, workdir, _check_order),
    ]


def _fields3d(index: int, scale: Scale, workdir: Path) -> list[Op]:
    f = fields_3d(index, scale.n3d)
    metrics_cfg = _write_config(workdir, "metrics", (
        f"[experiment]\nkind = metrics\n[metrics]\ntrials = {scale.metric_trials}\nmax_n = 5\n"))
    specs = {"mirror": stencils.MIRROR_ALL, "flow": f.policy.vx}

    def roundtrip(spec):
        b = stencils.smooth_3d(f.rnd, spec)
        return b, stencils.solve_smooth_3d(b, spec, tol=CG_TOL)

    ops = [Op("sample", lambda: grid.sample(f.mesh, f.smooth), _check_fields)]
    for label, spec in specs.items():
        ops.append(Op(f"roundtrip.{label}", lambda spec=spec: roundtrip(spec),
                      lambda res, spec=spec: _check_roundtrip(res, f.rnd, spec)))
    ops += [
        Op("gradient", lambda: [stencils.gradient_3d(f.rnd, axis, f.policy.p) for axis in range(3)],
           _check_fields),
        Op("laplacian", lambda: stencils.laplacian_3d(f.rnd, f.policy.vx), _check_fields),
        Op("divergence", lambda: stencils.divergence_3d(*f.vel, f.policy), _check_fields),
        Op("report_3d", lambda: metrics.report_3d(f.rnd), _check_report_3d),
        Op("operator_norm", lambda: stencils.operator_norm_c((f.mesh, f.policy.vx)),
           _check_operator_norm),
        _cli_op("metrics", metrics_cfg, workdir, _check_metrics, ("--seed", str(index))),
    ]
    return ops


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _finite(obj) -> bool:
    """True when every float inside a parsed JSON document is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def _stats(values) -> list[float]:
    a = np.asarray(values, dtype=float)
    return [float(a.min()), float(a.max()), float(a.mean()), float(np.sqrt(np.mean(a * a)))]


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a CSV table the CLI wrote; booleans read as 0/1."""
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    convert = {"True": 1.0, "False": 0.0}
    rows = [[convert[t] if t in convert else float(t) for t in line.split(",")]
            for line in lines[1:]]
    data = np.asarray(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def _hash_files(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def _hash_array(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def _cli_outcome(rc, out: Path) -> tuple[Outcome, dict | None]:
    o = Outcome()
    if rc != 0:
        o.problems.append(f"exit code {rc}")
        return o, None
    summary = json.loads((out / "summary.json").read_text())
    if not _finite(summary):
        o.problems.append("summary.json holds a non-finite number")
    o.hashes = _hash_files(out)
    return o, summary


def _table_digest(o: Outcome, path: Path, full: tuple[str, ...] = (), skip=("i", "j", "k"),
                  nan_ok: tuple[str, ...] = ()):
    """Column statistics (or the whole column, for names in `full`) of one
    table. Columns in `nan_ok` may hold NaN, which the statistics leave out."""
    for col, vals in read_table(path).items():
        if col in nan_ok:
            vals = vals[~np.isnan(vals)]
        if not np.all(np.isfinite(vals)):
            o.problems.append(f"{path.name}: non-finite values in {col}")
        elif col in full:
            o.digest[f"{path.stem}:{col}"] = vals.tolist()
        elif col not in skip:
            o.digest[f"{path.stem}:{col}"] = _stats(vals)


def _check_solve3d(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    for variant, run in s["runs"].items():
        if not run["converged"]:
            o.problems.append(f"{variant} did not converge in {run['iterations']} sweeps")
        o.counts[f"sweeps.{variant}"] = run["iterations"]
    for path in sorted(out.glob("*.csv")):
        _table_digest(o, path, full=("vx_base", "vx_auxiliary", "vx_monotonized"))
    for label, rep in s["reports"].items():
        o.digest[f"report.{label}.f_value"] = [rep["report"]["f_value"]]
        o.counts[f"extrema.{label}"] = rep["report"]["extremum_count"]
    o.digest["profile_max_step"] = [s["profile_max_step"]["base"],
                                    s["profile_max_step"]["monotonized"]]
    return o


def _check_scan(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    o.exact["flagged_steps"] = s["flagged_steps"]
    # Indicators at or below near_tol are roundoff; the flagged set covers them.
    for key in ("indicator_base", "indicator_monotonized"):
        o.digest[key] = [r[key] if r[key] > s["near_tol"] else 0.0 for r in s["rows"]]
    return o


def _check_solve1d(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    if not s["route_agreement_c"] <= ROUTE_TOL:
        o.problems.append(f"route_agreement_c {s['route_agreement_c']:.3e} > {ROUTE_TOL:g}")
    _table_digest(o, out / "solution1d.csv")
    for label, rep in s["reports"].items():
        o.digest[f"report.{label}.f_value"] = [rep["report"]["f_value"]]
    return o


def _check_timestep(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    if not s["converged"]:
        o.problems.append(f"timestep did not converge in {s['steps']} steps")
    elif not s["distance_to_stationary_y"] <= 10.0 * s["steady_tol"]:
        o.problems.append(f"distance_to_stationary_y {s['distance_to_stationary_y']:.3e} "
                          f"> 10 * steady_tol")
    o.counts["steps"] = s["steps"]
    _table_digest(o, out / "snapshots.csv")
    return o


def _check_order(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    for scheme in ("base", "monotonized"):
        est = s[scheme]
        if est["degenerate"] or est["non_convergent"]:
            o.problems.append(f"{scheme} order study degenerate or non-convergent")
        o.digest[f"{scheme}.errors"] = list(est["errors"])
        o.digest[f"{scheme}.order"] = [est["order"]]
    return o


def _check_metrics(rc, out: Path) -> Outcome:
    o, s = _cli_outcome(rc, out)
    if s is None:
        return o
    if not s["passed"]:
        o.problems.append(f"metrics experiment failed: {s['oracle_mismatches']} oracle mismatches, "
                          f"lipschitz bound holds: {s['lipschitz_bound_holds']}")
    o.digest["lipschitz_worst_ratio"] = [s["lipschitz_worst_ratio"]]
    # A trial without extrema has undefined sharpness, written as NaN.
    _table_digest(o, out / "metrics_trials.csv", nan_ok=("sharpness_a", "sharpness_b"))
    return o


def _check_fields(result) -> Outcome:
    o = Outcome()
    fields = result if isinstance(result, list) else [result]
    for i, fld in enumerate(fields):
        if not np.all(np.isfinite(fld.values)):
            o.problems.append(f"field {i} holds non-finite values")
        o.digest[f"field{i}"] = _stats(fld.values)
        o.hashes[f"field{i}"] = _hash_array(fld.values)
    return o


def _check_roundtrip(result, original: grid.MeshFunction, spec) -> Outcome:
    b, a = result
    o = _check_fields(a)
    residual = grid.norm_c(stencils.smooth_3d(a, spec).values - b.values)
    if not residual <= CG_TOL:
        o.problems.append(f"CG residual {residual:.3e} > {CG_TOL:g}")
    error = grid.norm_c(a.values - original.values)
    if not error <= ROUNDTRIP_TOL:
        o.problems.append(f"round-trip error {error:.3e} > {ROUNDTRIP_TOL:g}")
    return o


def _check_report_3d(rep) -> Outcome:
    o = Outcome()
    if not (rep.extremum_count > 0 and 0.0 < rep.sharpness_b <= rep.sharpness_a):
        o.problems.append(f"implausible report on a random field: {rep}")
    o.counts["extremum_count"] = rep.extremum_count
    o.digest["report"] = [rep.f_value, rep.sharpness_a, rep.sharpness_b]
    return o


def _check_operator_norm(value) -> Outcome:
    o = Outcome()
    # Interior rows of the seven-point average sum to 1/2 + 6/12.
    if value != 1.0:
        o.problems.append(f"operator norm {value!r} != 1.0")
    o.digest["norm"] = [value]
    return o


# ---------------------------------------------------------------------------
# Comparison with the recorded reference
# ---------------------------------------------------------------------------


def drift(outcome: Outcome, ref: dict) -> float:
    """Largest deviation of a digest entry from its reference, relative to
    that entry's largest reference magnitude; 0 for identical outputs."""
    worst = 0.0
    for key, ref_vals in ref["digest"].items():
        vals = outcome.digest.get(key)
        if vals is None or len(vals) != len(ref_vals):
            return math.inf
        r = np.asarray(ref_vals, dtype=float)
        dev = float(np.max(np.abs(np.asarray(vals, dtype=float) - r)))
        if dev == 0.0:
            continue
        scale = float(np.max(np.abs(r)))
        worst = max(worst, dev / scale if scale > 0 and math.isfinite(dev) else math.inf)
    return worst


def compare(outcome: Outcome, ref: dict) -> dict:
    """Deviation of one operation from its reference. Outputs added since the
    reference was recorded are ignored; missing or changed ones are not."""
    d = drift(outcome, ref)
    problems = list(outcome.problems)
    if not d <= DRIFT_TOL:
        problems.append(f"answer drift {d:.3e} > {DRIFT_TOL:g}")
    for key, value in ref["exact"].items():
        if outcome.exact.get(key) != value:
            problems.append(f"{key} {outcome.exact.get(key)!r} != reference {value!r}")
    return {
        "drift": d,
        "problems": problems,
        "bitwise": all(outcome.hashes.get(k) == v for k, v in ref["hashes"].items()),
        "counts_match": all(outcome.counts.get(k) == v for k, v in ref["counts"].items()),
    }


def to_reference(outcome: Outcome) -> dict:
    return {"digest": outcome.digest, "exact": outcome.exact,
            "counts": outcome.counts, "hashes": outcome.hashes}
