"""Steady incompressible flow through a cubic cell with facing inlet/outlet holes.

The domain is a cube of side L meshed into N^3 cells with unknowns at cell
centers. Square holes sit opposite each other on the two x-faces; pressure is
prescribed over the holes (p0 at x=0, p1 at x=L), velocity vanishes on the
walls, and the velocity's normal derivative vanishes over the holes. Central
differences everywhere make the collocated scheme cheap but prone to
point-to-point (checkerboard) oscillation, which is exactly what the
monotonized variant addresses.

The pseudo-time relaxation sweeps Jacobi-style:

    v <- v + sigma_v * ( -(w.grad)v - grad(p)/rho + nu Lap v )
    p <- p + sigma_p * div v      (with the freshly updated v)

with w = v for the base scheme and w = Mv (the seven-point smoother) for the
monotonized one. Pressure is a dependent variable and is never smoothed. On
convergence the monotonized variant reports y = Mv alongside v; the balance
relations of the scheme hold for y. A sweep evaluates these updates from the
unscaled neighbor sums and central steps of monoscheme.stencils, with
sigma_v, sigma_p, 1/2h, 1/rho and nu/h^2 folded into four coefficients once
per run, so it agrees with the formulas above to rounding (see _Workspace).
It keeps one padded array per variable: all three velocity increments are
computed first, then each is added into its own array in place.

Stability of the explicit sweep needs roughly sigma_v <= h^2/(6 nu) for
diffusion, |sigma_p| <= rho h^2 / sigma_v for the pseudo-compressibility
coupling, and sigma_v |w|^2 / (2 nu) <= 1 for central advection under
forward Euler, at the flow's peak speed |w|. Only the first two are margins
of the config; the third depends on the flow, so the first two alone do not
make a sweep stable (the fig2 cell at nu = 0.5 has margins 0.6 and 0.25 and
diverges). The shipped defaults sigma_v = 0.1 h^2/nu and sigma_p = -2.5 rho nu
sit inside the first two margins (chosen by a stability scan at N=10) and can
be overridden per run.
"""

from __future__ import annotations

import copyreg
import os
import pickle
import signal
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Mesh3D, MeshFunction
from .stencils import (
    BoundaryPolicy3D,
    FaceGhost,
    FaceRule,
    GhostSpec3D,
    SolverError,
    add_neighbors,
    central_step,
    ghost_plan,
    pad_grid,
    pad_range,
    smooth_pad,
)


class FlowDivergenceError(SolverError):
    """The pseudo-time sweep produced non-finite values.

    Carries the sweep that did, the C-norms of the momentum residual and of
    div v after the last sweep that was finite (None if there was none),
    and the config's two stability margins (FlowConfig.stability_margins).
    """

    def __init__(
        self,
        cfg: FlowConfig,
        iteration: int,
        momentum_residual_c: float | None,
        divergence_c: float | None,
    ):
        self.iteration = iteration
        self.momentum_residual_c = momentum_residual_c
        self.divergence_c = divergence_c
        self.diffusion_margin, self.coupling_margin = cfg.stability_margins()
        last = ("no finite sweep before it" if momentum_residual_c is None else
                f"last finite momentum residual {momentum_residual_c:.3e}, "
                f"divergence {divergence_c:.3e}")
        super().__init__(
            f"sweep diverged at iteration {iteration} ({last}); stability margins "
            f"sigma_v*6nu/h^2 = {self.diffusion_margin:.3g}, "
            f"|sigma_p|*sigma_v/(rho h^2) = {self.coupling_margin:.3g}, which must stay "
            "below about 1 but are not enough: the advection condition "
            "sigma_v*|w|^2/(2nu) <= 1 at the flow's peak speed |w| must hold too"
        )

    def __reduce__(self):
        # Rebuilt from its message and fields without __init__, which needs
        # the config: the error is pickled to cross from a solve's worker.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


@dataclass(frozen=True)
class FlowConfig:
    """Geometry, fluid, and iteration parameters for one flow solve.

    Units are any consistent length/time/mass system. hole_lo..hole_hi are
    0-based transverse cell indices (both j and k) covered by the square
    holes on the two x-faces. sigma_v and sigma_p default to the documented
    stable choices for the mesh at hand.
    """

    L: float
    N: int
    rho: float
    nu: float
    p0: float
    p1: float
    hole_lo: int
    hole_hi: int
    sigma_v: Optional[float] = None
    sigma_p: Optional[float] = None
    tol: float = 1e-4
    max_iters: int = 200000

    def __post_init__(self):
        # Each range test below is false for NaN as well as for the values out of range.
        for name in ("L", "rho", "nu"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if self.N < 4:
            raise ValueError(f"need N >= 4, got N={self.N}")
        if not (0 <= self.hole_lo <= self.hole_hi <= self.N - 1):
            raise ValueError(
                f"hole range {self.hole_lo}..{self.hole_hi} outside cells 0..{self.N - 1}"
            )
        for name in ("p0", "p1"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        h = self.L / self.N
        if self.sigma_v is None:
            # 0.6 of the explicit diffusion limit h^2/(6 nu).
            object.__setattr__(self, "sigma_v", 0.1 * h * h / self.nu)
        if self.sigma_p is None:
            # |sigma_p| <= rho h^2 / sigma_v = 10 rho nu at the default
            # sigma_v; keep a 4x margin.
            object.__setattr__(self, "sigma_p", -2.5 * self.rho * self.nu)
        for name in ("sigma_v", "sigma_p"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.sigma_v <= 0:
            raise ValueError("sigma_v must be positive")

    @property
    def mesh(self) -> Mesh3D:
        return Mesh3D(L=self.L, N=self.N)

    def stability_margins(self) -> tuple[float, float]:
        """sigma_v*6nu/h^2 (diffusion) and |sigma_p|*sigma_v/(rho h^2)
        (pressure coupling). The explicit sweep needs both below about 1, and
        also the advection condition sigma_v*|w|^2/(2nu) <= 1, which depends
        on the flow's speed |w| and so is not a margin of the config."""
        h2 = (self.L / self.N) ** 2
        return (self.sigma_v * 6.0 * self.nu / h2,
                abs(self.sigma_p) * self.sigma_v / (self.rho * h2))


@dataclass(frozen=True)
class FlowField:
    """The four unknown fields on one mesh."""

    vx: MeshFunction
    vy: MeshFunction
    vz: MeshFunction
    p: MeshFunction

    def __post_init__(self):
        meshes = {f.mesh for f in (self.vx, self.vy, self.vz, self.p)}
        if len(meshes) != 1:
            raise ValueError("all four fields must share one mesh")

    @property
    def mesh(self) -> Mesh3D:
        return self.vx.mesh

    def velocity(self, axis: int) -> MeshFunction:
        return (self.vx, self.vy, self.vz)[axis]


@dataclass(frozen=True)
class SolutionReport:
    """Converged (or capped) output of one solve_steady run."""

    field: FlowField
    variant: str  # "base" | "monotonized"
    iterations: int
    momentum_residual_c: float
    divergence_c: float
    converged: bool
    y: FlowField | None = None


def flow_boundary_policy(cfg: FlowConfig) -> BoundaryPolicy3D:
    """Ghost rules realizing the wall/hole boundary conditions.

    Velocities: zero-value ghosts at walls, mirrored ghosts over the holes.
    Pressure: prescribed-value ghosts over the holes; extrapolation ghosts at
    walls so its wall-normal first derivatives come out one-sided.
    """
    hole = dict(patch_lo=cfg.hole_lo, patch_hi=cfg.hole_hi)
    vel_x_face = FaceRule(base=FaceGhost("value", 0.0), patch=FaceGhost("mirror"), **hole)
    vel_wall = FaceRule(base=FaceGhost("value", 0.0))
    vel_spec = GhostSpec3D(
        xlo=vel_x_face, xhi=vel_x_face,
        ylo=vel_wall, yhi=vel_wall, zlo=vel_wall, zhi=vel_wall,
    )
    p_wall = FaceRule(base=FaceGhost("extrapolate"))
    p_spec = GhostSpec3D(
        xlo=FaceRule(base=FaceGhost("extrapolate"), patch=FaceGhost("value", cfg.p0), **hole),
        xhi=FaceRule(base=FaceGhost("extrapolate"), patch=FaceGhost("value", cfg.p1), **hole),
        ylo=p_wall, yhi=p_wall, zlo=p_wall, zhi=p_wall,
    )
    return BoundaryPolicy3D(vx=vel_spec, vy=vel_spec, vz=vel_spec, p=p_spec)


def init_field(cfg: FlowConfig) -> FlowField:
    """Zero velocities; pressure interpolated linearly from p0 to p1 along x."""
    mesh = cfg.mesh
    N = mesh.N
    zeros = np.zeros(N**3)
    frac = (np.arange(N) + 0.5) / N
    p_grid = np.broadcast_to(
        (cfg.p0 + (cfg.p1 - cfg.p0) * frac)[:, None, None], (N, N, N)
    )
    return FlowField(
        vx=MeshFunction(mesh, zeros),
        vy=MeshFunction(mesh, zeros),
        vz=MeshFunction(mesh, zeros),
        p=MeshFunction(mesh, p_grid),
    )


def _aligned(size: int) -> np.ndarray:
    """An uninitialized vector that starts on a 64-byte boundary. numpy
    promises 16 bytes; on a 2-vCPU Xeon with AVX-512, N=20 sweeps whose
    buffers sat 16 bytes off a 32-byte boundary took about 30% longer."""
    raw = np.empty(size + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start : start + size]


class _Workspace:
    """Padded fields and scratch arrays for sweeping one flow cell.

    One pad per variable holds its current values with their ghosts, and a
    sweep updates each pad in place. Ghost plans are compiled once, so fixed
    ghosts are written when a pad is made and only the ghosts that follow
    the cells are refilled. Scratch arrays are range vectors over the pads'
    PadRange.

    increments() computes scale*R directly, from the unscaled sums of
    stencils.add_neighbors and stencils.central_step and four coefficients
    folded once (scale is sigma_v for a sweep, 1 for R itself):

        scale*R = c_d (nbr - 6v) + c_adv (w . steps of v) + c_p (p_+ - p_-)
        p <- p + c_div (sum over a of the step of v_a along a)

    with c_d = scale nu/h^2, c_adv = -scale/2h, c_p = -scale/(2h rho) and
    c_div = sigma_p/2h. lap[a] = nbr - 6v_a is summed once per velocity and
    serves its diffusion and, for the monotonized scheme, the advecting sum
    w_a = lap[a] + 12 v_a = 12 (M v)_a, whose 1/12 is folded into c_adv.
    Each increment is then written over its own lap buffer. steps[a], the
    step of v_a along a, is kept from the divergence for the next sweep's
    advection. No whole-range division runs in a sweep.

    The increment and the divergence are zeroed at the range's ghost
    positions before they are measured or added into a pad, so an update
    leaves every ghost and edge of the pad as it was.
    """

    def __init__(self, field: FlowField, cfg: FlowConfig, variant: str, scale: float):
        if variant not in ("base", "monotonized"):
            raise ValueError(f"unknown variant {variant!r}")
        self.monotonized = monotonized = variant == "monotonized"
        N = cfg.N
        h = cfg.L / N
        policy = flow_boundary_policy(cfg)
        self.cfg = cfg
        self.h = h
        self.range = rng = pad_range(N)
        self.v_plans = [ghost_plan(policy.velocity(a), N) for a in range(3)]
        self.p_plan = ghost_plan(policy.p, N)
        # A ghost extrapolated from huge values overflows as a sweep would;
        # the callers report it as a diverged sweep, so numpy need not warn.
        with np.errstate(over="ignore", invalid="ignore"):
            self.v_pads = [pad_grid(field.velocity(a).as_grid(), policy.velocity(a))
                           for a in range(3)]
            self.p_pad = pad_grid(field.p.as_grid(), policy.p)
            self.steps = [central_step(pad, a, out=_aligned(rng.size))
                          for a, pad in enumerate(self.v_pads)]
        self.c_d = scale * cfg.nu / (h * h)
        self.c_adv = -scale / ((24.0 if monotonized else 2.0) * h)
        self.c_p = -scale / (2.0 * h * cfg.rho)
        self.c_div = cfg.sigma_p / (2.0 * h)
        self.lap = [_aligned(rng.size) for _ in range(3)]
        self.w = [_aligned(rng.size) for _ in range(3)] if monotonized else None
        self.inc, self.term = _aligned(rng.size), _aligned(rng.size)

    def increments(self) -> list[np.ndarray]:
        """scale*R for the three velocity components, written over self.lap.
        The base scheme's advecting w is the pads themselves, so every
        increment exists before any pad may change."""
        rng, pads, lap, inc, term = self.range, self.v_pads, self.lap, self.inc, self.term
        for pad, nbr in zip(pads, lap):
            add_neighbors(pad, np.multiply(-6.0, rng.of(pad), out=nbr))
        if self.monotonized:
            w = self.w
            for pad, nbr, w_a in zip(pads, lap, w):
                np.multiply(12.0, rng.of(pad), out=w_a)
                w_a += nbr
        else:
            w = [rng.of(pad) for pad in pads]
        for comp, pad in enumerate(pads):
            np.multiply(w[comp], self.steps[comp], out=inc)
            for axis in range(3):
                if axis != comp:
                    central_step(pad, axis, out=term)
                    term *= w[axis]
                    inc += term
            inc *= self.c_adv
            central_step(self.p_pad, comp, out=term)
            term *= self.c_p
            inc += term
            lap[comp] *= self.c_d
            lap[comp] += inc
        return lap

    def sweep(self) -> tuple[float, float]:
        """One Jacobi sweep in place; returns the C-norms of the velocity
        update scale*R and of div v."""
        term, rng = self.term, self.range
        # Overflow here is how an unstable parameter choice announces itself;
        # the callers check the results for finiteness, so silence the warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            norms = []
            for pad, plan, inc in zip(self.v_pads, self.v_plans, self.increments()):
                inc[rng.ghosts] = 0.0
                norms.append(float(np.abs(inc, out=term).max()))
                v = rng.of(pad)
                v += inc
                plan.refill(pad)
            steps, div = self.steps, self.inc
            for a, pad in enumerate(self.v_pads):
                central_step(pad, a, out=steps[a])
            np.add(steps[0], steps[1], out=div)
            div += steps[2]
            div[rng.ghosts] = 0.0
            np.multiply(self.c_div, div, out=term)
            p = rng.of(self.p_pad)
            p += term
            self.p_plan.refill(self.p_pad)
            return max(norms), float(np.abs(div, out=term).max()) / (2.0 * self.h)

    def field(self) -> FlowField:
        """A copy of the current state."""
        mesh, rng = self.cfg.mesh, self.range
        return FlowField(*(MeshFunction(mesh, rng.cells(rng.of(pad)))
                           for pad in (*self.v_pads, self.p_pad)))


def momentum_residual(
    field: FlowField, cfg: FlowConfig, variant: str = "base"
) -> tuple[MeshFunction, MeshFunction, MeshFunction]:
    """R = -(w.grad)v - grad(p)/rho + nu Lap v per velocity component.

    variant="base" uses w = v; "monotonized" uses w = Mv with the smoother
    closed by the velocity ghost rules.
    """
    ws = _Workspace(field, cfg, variant, scale=1.0)
    return tuple(MeshFunction(field.mesh, ws.range.cells(inc)) for inc in ws.increments())


def iterate(field: FlowField, cfg: FlowConfig, variant: str = "base") -> FlowField:
    """One Jacobi sweep: velocities from the previous iterate, then pressure
    from the freshly updated velocities."""
    ws = _Workspace(field, cfg, variant, scale=cfg.sigma_v)
    ws.sweep()
    new = ws.field()
    if not all(np.isfinite(f.values).all() for f in (new.vx, new.vy, new.vz, new.p)):
        raise FlowDivergenceError(cfg, 1, None, None)
    return new


#: Held from os.pipe() until the parent has closed the write end, so that a
#: child forked by another thread holds no copy of it: the parent's read
#: ends only when every copy of its pipe's write end is closed.
_FORKING = threading.Lock()


def solve_steady(cfg: FlowConfig, variant: str = "base") -> SolutionReport:
    """Sweep until both the velocity update sigma_v*R and div v fall below
    cfg.tol in C-norm, or max_iters is reached (reported, not raised).

    The sweeps run in a forked child process, which pickles the report or
    the exception it raised into a pipe; this call returns or raises it in
    the caller's process. Two calls from two threads therefore solve on two
    cores at once, each as one serial computation with the same bits. A
    child that ends without a result raises SolverError naming its exit
    status; a caller that stops waiting kills and reaps its child.
    """
    with _FORKING:
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_end)
            os.close(write_end)
            raise
        if pid == 0:
            _send_solution(read_end, write_end, cfg, variant)
        os.close(write_end)
    outcome = status = None
    try:
        # Unpickled as it arrives: the arrays are read straight into their
        # own buffers, with no copy of the whole message held beside them.
        with open(read_end, "rb", closefd=False) as pipe:
            try:
                outcome = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                pass  # a child that died mid-way; its status says how
        status = os.waitpid(pid, 0)[1]
    finally:
        os.close(read_end)
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code:
        ended = f"exit status {code}" if code > 0 else f"signal {-code}"
        raise SolverError(f"the {variant} flow solve's worker process ended with "
                          f"{ended} before sending a result")
    ok, result = outcome
    if not ok:
        raise result
    return result


def _send_solution(read_end: int, write_end: int, cfg: FlowConfig, variant: str):
    """In a forked child: solve, pickle (True, report) or (False, exception)
    into the pipe and end the process, with status 0 only if all of it was
    written. Never returns, so the child runs none of its parent's code."""
    code = 1
    try:
        os.close(read_end)
        try:
            outcome = (True, _solve_steady(cfg, variant))
        except Exception as exc:
            outcome = (False, exc)
        with open(write_end, "wb") as pipe:
            pickle.dump(outcome, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _solve_steady(cfg: FlowConfig, variant: str) -> SolutionReport:
    """solve_steady's sweep loop, in the process that calls it."""
    ws = _Workspace(init_field(cfg), cfg, variant, scale=cfg.sigma_v)
    update_norm = div_norm = float("inf")
    finite_norms = (None, None)
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        update_norm, div_norm = ws.sweep()
        if not (np.isfinite(update_norm) and np.isfinite(div_norm)):
            raise FlowDivergenceError(cfg, iterations, *finite_norms)
        finite_norms = (update_norm / cfg.sigma_v, div_norm)
        if update_norm <= cfg.tol and div_norm <= cfg.tol:
            converged = True
            break
    out = ws.field()
    y = None
    if ws.monotonized:
        # y = Mv smoothed from the final pads, whose ghosts are already current,
        # into the advecting sums' buffers, which no sweep needs any more.
        smoothed = [MeshFunction(out.mesh, ws.range.cells(smooth_pad(pad, out=w)))
                    for pad, w in zip(ws.v_pads, ws.w)]
        y = FlowField(*smoothed, p=out.p)
    return SolutionReport(
        field=out,
        variant=variant,
        iterations=iterations,
        momentum_residual_c=update_norm / cfg.sigma_v,
        divergence_c=div_norm,
        converged=converged,
        y=y,
    )


def centerline_profile(field: FlowField, cfg: FlowConfig) -> list[float]:
    """vx along the x-row of cells through the hole centers, at i = 0..N-1.
    An even-sized hole straddles two center rows; j = k = the lower one."""
    row = (cfg.hole_lo + cfg.hole_hi) // 2
    return field.vx.as_grid()[:, row, row].tolist()


__all__ = [
    "FlowConfig",
    "FlowDivergenceError",
    "FlowField",
    "SolutionReport",
    "centerline_profile",
    "flow_boundary_policy",
    "init_field",
    "iterate",
    "momentum_residual",
    "solve_steady",
]
