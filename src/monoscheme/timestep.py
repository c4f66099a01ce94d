"""Weighted one-step time integration of dy/dt = F(v), y = Mv, with built-in smoothing.

The right side F is the 1D linear operator of the boundary-value module
with the smoother in its k1 term,

    F(v) = k0 + k1 (Mv) + k2 D1 v + k3 D2 v,

bvp1d's monotonized scheme_matrix, the stationary scheme times h^2, divided
by h^2, so a steady state solves bvp1d's monotonized scheme.

The weighted step blends explicit and implicit evaluation of the stepped
variable y = Mv:

    (y^{n+1} - y^n)/tau = sigma F(v^{n+1}) + (1 - sigma) F(v^n)

Two algebraically equivalent updates are provided: step_monotonized advances
y and recovers v = M^{-1} y through one combined banded tridiagonal solve,
while step_monotonized_alt advances v with explicit inverse-smoothing
applications (a fixed-point loop, one pass at sigma = 0). They must agree to
solver tolerance and serve as each other's cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bvp1d import SchemeCoefficients, scheme_matrix
from .grid import BoundaryData1D, Mesh1D, MeshFunction, norm_c
from .stencils import SingularOperatorError, SolverError, Tridiagonal, smooth_1d, smoothing


@dataclass(frozen=True)
class TimeStepConfig:
    """tau > 0; sigma in [0, 1] weights the implicit side; inner_tol and
    max_inner control fixed-point iterations of implicit smoothed steps."""

    tau: float
    sigma: float = 0.5
    inner_tol: float = 1e-12
    max_inner: int = 200

    def __post_init__(self):
        # Each condition below is false for NaN, so NaN is rejected; "x <= 0" would pass it.
        if not 0.0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        if not self.inner_tol > 0 or self.max_inner < 1:
            raise ValueError("inner_tol must be positive and max_inner >= 1")


_ZERO_BC = BoundaryData1D(0.0, 0.0)


@dataclass(frozen=True)
class LinearMeshOperator:
    """Affine operator F(u) = A u + offset on interior node values."""

    a: Tridiagonal
    offset: np.ndarray

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return self.a.apply(u, _ZERO_BC) + self.offset

    @classmethod
    def from_coefficients(
        cls,
        c: SchemeCoefficients,
        mesh: Mesh1D,
        bc: BoundaryData1D,
    ) -> "LinearMeshOperator":
        """F = k0 + k1 Mu + k2 D1 u + k3 D2 u: the monotonized stationary
        scheme's matrix and end-value terms over h^2, plus k0. Raises
        ValueError when 1/h^2 is not finite."""
        h2 = mesh.h * mesh.h
        s = 1.0 / h2 if h2 else math.inf
        if not math.isfinite(s):
            raise ValueError(f"mesh step h = {mesh.h:.3e} is too small: 1/h^2 is not finite")
        t = scheme_matrix(c, mesh, monotonized=True)
        # A step's solve reports a band or offset that overflows, so numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            a = Tridiagonal(t.lower * s, t.diag * s, t.upper * s, mesh.n)
            return cls(a, c.k0 * np.ones(mesh.n) + t.offset(bc) * s)


def _step(v_n: MeshFunction, op: LinearMeshOperator, bc: BoundaryData1D,
          cfg: TimeStepConfig) -> tuple[MeshFunction, MeshFunction]:
    """One weighted step, mapping v^n to (v^{n+1}, y^{n+1} = M v^{n+1}).

    Since y and the right side are both affine in v, the step is one banded
    solve for every sigma:

        (M - tau sigma A) v^{n+1} = M v^n + tau sigma offset + tau (1 - sigma) F(v^n)

    with M v^n taken with zero ends, since the ends' terms sit in offset.
    At sigma = 0 the matrix is M itself. A singular matrix or a non-finite
    band, right side or result raises SolverError.
    """
    n, a, ts, v = op.a.n, op.a, cfg.tau * cfg.sigma, v_n.values
    m = smoothing(n)
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = Tridiagonal(m.lower - ts * a.lower, m.diag - ts * a.diag, m.upper - ts * a.upper, n)
        rhs = m.apply(v, _ZERO_BC) + ts * op.offset + cfg.tau * (1.0 - cfg.sigma) * op(v)
    try:
        v_next = v_n.with_values(lhs.solve(rhs))
    except SingularOperatorError as exc:
        raise SolverError("implicit step matrix singular") from exc
    except SolverError as exc:
        kind = "implicit" if cfg.sigma else "explicit"
        raise SolverError(f"{kind} step produced non-finite values") from exc
    return v_next, smooth_1d(v_next, bc)


def step_monotonized(
    v_n: MeshFunction,
    aux_op: LinearMeshOperator,
    bc: BoundaryData1D,
    cfg: TimeStepConfig,
) -> tuple[MeshFunction, MeshFunction]:
    """Advance (v, y = Mv) by one weighted step of dy/dt = F(Mv, D1 v, D2 v):
    one banded tridiagonal solve, at sigma = 0 one inverse-smoothing solve."""
    return _step(v_n, aux_op, bc, cfg)


def step_monotonized_alt(
    v_n: MeshFunction,
    aux_op: LinearMeshOperator,
    bc: BoundaryData1D,
    cfg: TimeStepConfig,
) -> tuple[MeshFunction, MeshFunction]:
    """Same step in the rearranged form v^{n+1} = v^n + tau M^{-1}[weighted F].

    The inverse smoothing acts on an increment, so its solve carries zero
    boundary data. A fixed-point loop, one pass at sigma = 0, solves for
    v^{n+1}; failure to contract within max_inner raises with the last update size.
    An F, an increment or an iterate that overflows raises "diverged" at once.
    """
    v, m = v_n.values, smoothing(v_n.mesh.n)
    try:
        # The solves and the update's check report what overflows, so numpy need not warn of it.
        with np.errstate(over="ignore", invalid="ignore"):
            f_n = aux_op(v)
            # Contraction requires tau*sigma*||M^{-1} A|| < 1; the inverse smoothing
            # amplifies stiff operators by O(n^2), so tau must be small here.
            guess = v + cfg.tau * m.solve(f_n)  # explicit predictor
            for _ in range(cfg.max_inner):
                # At sigma = 0 F(guess) is not formed: 0 * F(guess) is NaN where it overflows.
                weighted = cfg.sigma * aux_op(guess) + (1.0 - cfg.sigma) * f_n if cfg.sigma else f_n
                target = v + cfg.tau * m.solve(weighted)
                update = norm_c(target - guess)
                if not update < math.inf:
                    raise SolverError("an iterate is not finite")
                guess = target
                if update <= cfg.inner_tol:
                    vf = v_n.with_values(guess)
                    return vf, smooth_1d(vf, bc)
    except SolverError as exc:
        raise SolverError("fixed-point step diverged (tau too large for the rearranged form)") from exc
    raise SolverError(f"fixed-point step stalled with update {update:.3e} after "
                      f"{cfg.max_inner} iterations")


@dataclass(frozen=True)
class SteadyStateResult:
    """Outcome of stepping until the update norm falls below a threshold."""

    v: MeshFunction
    y: MeshFunction
    steps: int
    final_update: float
    converged: bool
    history: tuple[tuple[float, float], ...]  # (t, update C-norm) records
    snapshots: tuple[tuple[float, np.ndarray, np.ndarray], ...] = ()  # (t, v, y)


def run_to_steady(
    v0: MeshFunction,
    aux_op: LinearMeshOperator,
    bc: BoundaryData1D,
    cfg: TimeStepConfig,
    steady_tol: float = 1e-12,
    max_steps: int = 10000,
    record_every: int = 1,
    snapshot_every: int = 0,
) -> SteadyStateResult:
    """Step the smoothed system until ||v^{n+1} - v^n||_C <= steady_tol.

    snapshot_every > 0 additionally records the full (v, y) state every that
    many steps.
    """
    if max_steps < 1:
        raise ValueError(f"max_steps must be at least 1, got {max_steps}")
    if record_every < 1:
        raise ValueError(f"record_every must be at least 1, got {record_every}")
    if snapshot_every < 0:
        raise ValueError(f"snapshot_every must be at least 0, got {snapshot_every}")
    # False for NaN as well as for negative values.
    if not steady_tol >= 0.0:
        raise ValueError(f"steady_tol must be at least 0, got {steady_tol}")
    v = v0
    y = smooth_1d(v0, bc)
    history: list[tuple[float, float]] = []
    snapshots: list[tuple[float, np.ndarray, np.ndarray]] = []
    t = 0.0
    for step in range(1, max_steps + 1):
        v_next, y_next = _step(v, aux_op, bc, cfg)
        update = norm_c(v_next.values - v.values)
        t += cfg.tau
        if step % record_every == 0:
            history.append((t, update))
        v, y = v_next, y_next
        if snapshot_every and step % snapshot_every == 0:
            snapshots.append((t, v.values.copy(), y.values.copy()))
        if update <= steady_tol:
            break
    return SteadyStateResult(
        v=v, y=y, steps=step, final_update=update, converged=bool(update <= steady_tol),
        history=tuple(history), snapshots=tuple(snapshots),
    )


__all__ = [
    "LinearMeshOperator",
    "SteadyStateResult",
    "TimeStepConfig",
    "run_to_steady",
    "step_monotonized",
    "step_monotonized_alt",
]
