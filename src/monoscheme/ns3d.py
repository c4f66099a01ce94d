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
relations of the scheme hold for y.

Stability of the explicit sweep requires roughly sigma_v <= h^2/(6 nu) for
diffusion and |sigma_p| <= rho h^2 / sigma_v for the pseudo-compressibility
coupling. The shipped defaults sigma_v = 0.1 h^2/nu and sigma_p = -2.5 rho nu
sit inside both margins (chosen by a stability scan at N=10) and can be
overridden per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Mesh3D, MeshFunction, norm_c
from .stencils import (
    BoundaryPolicy3D,
    FaceGhost,
    FaceRule,
    GhostSpec3D,
    SolverError,
    difference_pad,
    divergence_pads,
    laplacian_pad,
    pad_grid,
    smooth_3d,
    smooth_pad,
)


class FlowDivergenceError(SolverError):
    """The pseudo-time sweep produced non-finite values."""

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration


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
        if self.L <= 0 or self.rho <= 0 or self.nu <= 0:
            raise ValueError("L, rho and nu must be positive")
        if self.N < 4:
            raise ValueError(f"need N >= 4, got N={self.N}")
        if not (0 <= self.hole_lo <= self.hole_hi <= self.N - 1):
            raise ValueError(
                f"hole range {self.hole_lo}..{self.hole_hi} outside cells 0..{self.N - 1}"
            )
        if not (np.isfinite(self.p0) and np.isfinite(self.p1)):
            raise ValueError("hole pressures must be finite")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")
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

    @property
    def hole_center_row(self) -> int:
        # Even-sized holes straddle two center rows; the lower one is used.
        return (self.hole_lo + self.hole_hi) // 2


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

    def concatenated(self) -> np.ndarray:
        """All unknowns as one vector (vx, vy, vz, p blocks in order)."""
        return np.concatenate(
            [self.vx.values, self.vy.values, self.vz.values, self.p.values]
        )

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

    def answer(self) -> FlowField:
        """The field the scheme stands behind: y for monotonized, else field."""
        return self.y if self.y is not None else self.field


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
        p=MeshFunction.from_grid(mesh, np.ascontiguousarray(p_grid)),
    )


def _residual_grids(v_grids, p_grid, cfg: FlowConfig, policy: BoundaryPolicy3D, monotonized: bool):
    """Momentum residual grids R_x, R_y, R_z; one ghost padding per field."""
    h = cfg.L / cfg.N
    v_pads = [pad_grid(v_grids[a], policy.velocity(a)) for a in range(3)]
    p_pad = pad_grid(p_grid, policy.p)
    w = [smooth_pad(pad) for pad in v_pads] if monotonized else v_grids
    out = []
    for comp, pad in enumerate(v_pads):
        advect = (w[0] * difference_pad(pad, 0, h) + w[1] * difference_pad(pad, 1, h)
                  + w[2] * difference_pad(pad, 2, h))
        out.append(-advect - difference_pad(p_pad, comp, h) / cfg.rho
                   + cfg.nu * laplacian_pad(pad, h))
    return out


def momentum_residual(
    field: FlowField, cfg: FlowConfig, advecting: str = "raw"
) -> tuple[MeshFunction, MeshFunction, MeshFunction]:
    """R = -(w.grad)v - grad(p)/rho + nu Lap v per velocity component.

    advecting="raw" uses w = v; "monotonized" uses w = Mv with the smoother
    closed by the velocity ghost rules.
    """
    if advecting not in ("raw", "monotonized"):
        raise ValueError(f"unknown advecting mode {advecting!r}")
    grids = _residual_grids(
        [field.velocity(a).as_grid() for a in range(3)],
        field.p.as_grid(),
        cfg,
        flow_boundary_policy(cfg),
        advecting == "monotonized",
    )
    mesh = field.mesh
    return tuple(MeshFunction.from_grid(mesh, g) for g in grids)


def iterate(field: FlowField, cfg: FlowConfig, variant: str = "base") -> FlowField:
    """One Jacobi sweep: velocities from the previous iterate, then pressure
    from the freshly updated velocities."""
    if variant not in ("base", "monotonized"):
        raise ValueError(f"unknown variant {variant!r}")
    policy = flow_boundary_policy(cfg)
    grids, p_grid, _, _ = _sweep(
        [field.velocity(a).as_grid() for a in range(3)],
        field.p.as_grid(),
        cfg,
        policy,
        variant == "monotonized",
    )
    mesh = field.mesh
    new = FlowField(
        vx=MeshFunction.from_grid(mesh, grids[0]),
        vy=MeshFunction.from_grid(mesh, grids[1]),
        vz=MeshFunction.from_grid(mesh, grids[2]),
        p=MeshFunction.from_grid(mesh, p_grid),
    )
    if not all(np.isfinite(g).all() for g in (*grids, p_grid)):
        raise FlowDivergenceError("sweep produced non-finite values", 1)
    return new


def _sweep(v_grids, p_grid, cfg: FlowConfig, policy: BoundaryPolicy3D, monotonized: bool):
    # Overflow here is how an unstable parameter choice announces itself; the
    # caller checks the norms for finiteness, so silence the warnings.
    h = cfg.L / cfg.N
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _residual_grids(v_grids, p_grid, cfg, policy, monotonized)
        new_v = [v_grids[a] + cfg.sigma_v * residuals[a] for a in range(3)]
        div = divergence_pads([pad_grid(new_v[a], policy.velocity(a)) for a in range(3)], h)
        new_p = p_grid + cfg.sigma_p * div
        mom_norm = max(float(np.max(np.abs(r))) for r in residuals)
        div_norm = float(np.max(np.abs(div)))
    return new_v, new_p, mom_norm, div_norm


def solve_steady(cfg: FlowConfig, variant: str = "base") -> SolutionReport:
    """Sweep until both the velocity update sigma_v*R and div v fall below
    cfg.tol in C-norm, or max_iters is reached (reported, not raised)."""
    if variant not in ("base", "monotonized"):
        raise ValueError(f"unknown variant {variant!r}")
    policy = flow_boundary_policy(cfg)
    monotonized = variant == "monotonized"
    field = init_field(cfg)
    v_grids = [field.velocity(a).as_grid().copy() for a in range(3)]
    p_grid = field.p.as_grid().copy()
    mom_norm = div_norm = float("inf")
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        v_grids, p_grid, mom_norm, div_norm = _sweep(
            v_grids, p_grid, cfg, policy, monotonized
        )
        update_norm = cfg.sigma_v * mom_norm
        if not (np.isfinite(update_norm) and np.isfinite(div_norm)):
            raise FlowDivergenceError(
                f"sweep diverged at iteration {iterations}", iterations
            )
        if update_norm <= cfg.tol and div_norm <= cfg.tol:
            converged = True
            break
    mesh = cfg.mesh
    out = FlowField(
        vx=MeshFunction.from_grid(mesh, v_grids[0]),
        vy=MeshFunction.from_grid(mesh, v_grids[1]),
        vz=MeshFunction.from_grid(mesh, v_grids[2]),
        p=MeshFunction.from_grid(mesh, p_grid),
    )
    y = None
    if monotonized:
        y = FlowField(
            vx=smooth_3d(out.vx, policy.vx),
            vy=smooth_3d(out.vy, policy.vy),
            vz=smooth_3d(out.vz, policy.vz),
            p=out.p,
        )
    return SolutionReport(
        field=out,
        variant=variant,
        iterations=iterations,
        momentum_residual_c=mom_norm,
        divergence_c=div_norm,
        converged=converged,
        y=y,
    )


def centerline_profile(
    field: FlowField, cfg: FlowConfig, component: str = "vx"
) -> list[tuple[float, float]]:
    """The chosen velocity component along the x-row of cells through the
    hole centers (j = k = the lower median hole row)."""
    if component not in ("vx", "vy", "vz"):
        raise ValueError(f"unknown component {component!r}")
    g = getattr(field, component).as_grid()
    row = cfg.hole_center_row
    mesh = field.mesh
    xs = mesh.axis_centers()
    return [(float(xs[i]), float(g[i, row, row])) for i in range(mesh.N)]


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
