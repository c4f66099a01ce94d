"""Constant-coefficient two-point boundary-value problem and its schemes.

The continuous problem is k0 + k1*U + k2*U' + k3*U'' = 0 on [a, b] with
Dirichlet data at both ends. Three discrete routes are provided:

* solve_base: the plain central-difference scheme
      h^2 k0 + h^2 k1 u_i + h k2 (u_{i+1}-u_{i-1})/2 + k3 (u_{i+1}-2u_i+u_{i-1}) = 0,
  second-order, but oscillatory when |k2| h / (2 |k3|) exceeds 1.
* solve_monotonized: the auxiliary scheme with the smoothing operator built
  into the undifferentiated term, h^2 k1 (Mv)_i replacing h^2 k1 v_i. The
  returned solution is y = Mv; the balance relations hold for y.
* solve_monotonized_inverse: the same scheme posed directly in y, with the
  difference operators acting through the inverse smoother. Kept as an
  independent cross-check of solve_monotonized.

An analytic closed form serves as the oracle for convergence studies, and
determinant_scan probes mesh steps where the auxiliary matrix degenerates
while the base matrix does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .grid import BoundaryData1D, Mesh1D, MeshFunction, check_domain, norm_c
from .stencils import SingularOperatorError, Tridiagonal, smooth_1d, smoothing, solve_smooth_1d


class SingularSchemeError(SingularOperatorError):
    """The assembled scheme matrix is singular at this mesh step."""

    def __init__(self, message: str, h: float):
        super().__init__(message)
        self.h = h


@dataclass(frozen=True)
class SchemeCoefficients:
    """The four finite reals of k0 + k1*U + k2*U' + k3*U''= 0; k3 != 0 keeps
    the problem nondegenerate."""

    k0: float
    k1: float
    k2: float
    k3: float

    def __post_init__(self):
        for name in ("k0", "k1", "k2", "k3"):
            value = getattr(self, name)
            # False for NaN as well as for the infinities.
            if not -math.inf < value < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")
        if self.k3 == 0:
            raise ValueError("k3 must be nonzero")


@dataclass(frozen=True)
class Bvp1dSolution:
    """One solved scheme: u for the base route, (v, y = Mv) for the
    monotonized routes. residual_c_norm is the scheme residual of the
    returned unknown vector."""

    mesh: Mesh1D
    bc: BoundaryData1D
    scheme: str  # "base" | "monotonized"
    residual_c_norm: float
    u: MeshFunction | None = None
    v: MeshFunction | None = None
    y: MeshFunction | None = None

    @property
    def solution(self) -> MeshFunction:
        """The field that answers the problem: u (base) or y (monotonized)."""
        out = self.u if self.scheme == "base" else self.y
        assert out is not None
        return out


# ---------------------------------------------------------------------------
# Matrix assembly
# ---------------------------------------------------------------------------


def scheme_matrix(c: SchemeCoefficients, mesh: Mesh1D, monotonized: bool) -> Tridiagonal:
    """h^2 times the scheme's matrix; its k1 term is h^2 k1 u_i, or h^2 k1 (Mv)_i
    with M = (1/4, 1/2, 1/4) when monotonized. k0 is no matrix entry."""
    h = mesh.h
    side = h * h * c.k1 / 4.0 if monotonized else 0.0
    center = 2.0 * side if monotonized else h * h * c.k1
    return Tridiagonal(side + c.k3 - h * c.k2 / 2.0, center - 2.0 * c.k3,
                       side + c.k3 + h * c.k2 / 2.0, mesh.n)


def _solve_scheme(
    c: SchemeCoefficients, a: Tridiagonal, mesh: Mesh1D, bc: BoundaryData1D
) -> np.ndarray:
    """Banded solve of a u = -h^2 k0 with the end-value terms moved right."""
    rhs = np.full(mesh.n, -mesh.h * mesh.h * c.k0) - a.offset(bc)
    try:
        return a.solve(rhs)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise SingularSchemeError(f"scheme matrix singular at h={mesh.h}: {exc}", mesh.h) from exc


def scheme_residual(
    c: SchemeCoefficients,
    mesh: Mesh1D,
    bc: BoundaryData1D,
    unknown: np.ndarray,
    monotonized: bool,
) -> float:
    """C-norm of the scheme equations evaluated at the given unknown vector."""
    a = scheme_matrix(c, mesh, monotonized)
    return norm_c(a.apply(unknown, bc) + mesh.h**2 * c.k0)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_base(c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D) -> Bvp1dSolution:
    """Direct banded solve of the plain central-difference scheme."""
    u = _solve_scheme(c, scheme_matrix(c, mesh, False), mesh, bc)
    res = scheme_residual(c, mesh, bc, u, monotonized=False)
    return Bvp1dSolution(
        mesh=mesh, bc=bc, scheme="base", residual_c_norm=res, u=MeshFunction(mesh, u)
    )


def solve_monotonized(c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D) -> Bvp1dSolution:
    """Solve the auxiliary scheme for v, return y = Mv as the solution.

    The smoother enters only the undifferentiated k1 term, so the combined
    matrix stays tridiagonal. A singular auxiliary matrix is a legitimate
    math case at particular mesh steps and is reported as such.
    """
    v = _solve_scheme(c, scheme_matrix(c, mesh, True), mesh, bc)
    vf = MeshFunction(mesh, v)
    y = smooth_1d(vf, bc)
    res = scheme_residual(c, mesh, bc, v, monotonized=True)
    return Bvp1dSolution(
        mesh=mesh, bc=bc, scheme="monotonized", residual_c_norm=res, v=vf, y=y
    )


def solve_monotonized_inverse(
    c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D
) -> Bvp1dSolution:
    """Solve for y directly, derivatives acting through the inverse smoother.

    Assembles the dense operator h^2 k1 I + (h k2 D1~ + k3 D2~) M^{-1} and the
    matching affine terms, then recovers v = M^{-1} y. Agrees with
    solve_monotonized to direct-solve roundoff; kept as a separate route.
    """
    n, h = mesh.n, mesh.h
    # h k2 D1~ + k3 D2~ is the base scheme without its k1 term.
    d = scheme_matrix(replace(c, k1=0.0), mesh, False)
    d_mat = d.dense()

    # v = M^{-1} (y - m_aff) where (Mv)_i includes the boundary quarter-terms.
    m = smoothing(n)
    m_aff = m.offset(bc)
    minv = m.solve(np.eye(n))

    # Derivative-operator boundary contributions use v's end values (the
    # Dirichlet data), independent of y.
    d_aff = d.offset(bc)

    full = h * h * c.k1 * np.eye(n) + d_mat @ minv
    rhs = -(h * h * c.k0) * np.ones(n) - d_aff + d_mat @ (minv @ m_aff)
    try:
        y = np.linalg.solve(full, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSchemeError(f"scheme matrix singular at h={h}: {exc}", h) from exc
    yf = MeshFunction(mesh, y)
    v = solve_smooth_1d(yf, bc)
    res = scheme_residual(c, mesh, bc, v.values, monotonized=True)
    return Bvp1dSolution(
        mesh=mesh, bc=bc, scheme="monotonized", residual_c_norm=res, v=v, y=yf
    )


# ---------------------------------------------------------------------------
# Determinant scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterminantScanRow:
    h: float
    n: int
    indicator_base: float
    indicator_monotonized: float
    flagged: bool


def _singularity_indicator(a: Tridiagonal) -> float:
    """Smallest over largest singular value; 0 marks an exactly singular matrix.

    The singular values come from the band, never from an n x n array
    (Golub & Kahan, 1965): the eigenvalues of the symmetric 2n x 2n matrix
    [[0, A], [A^T, 0]] are +-sigma_i. Numbering x_i as 2i and y_j as 2j+1
    makes that matrix a band of half-width 3, so sigma_max is eigenvalue
    2n-1 and sigma_min the smaller |lambda| of eigenvalues n-1 and n. Each
    comes from one selected-index banded eigensolve, O(n^2) where a dense
    SVD is O(n^3); two such calls cost less than one call for the index
    range n-1..2n-1, or one for all eigenvalues.

    The eigenvalues of A^T A are not used: they give the singular values
    with the condition number squared, so sigma_min would carry an error of
    about sqrt(eps)*||A||, about 1e-8, and matrices that are exactly
    singular would stop falling below the scan's near_tol.
    """
    # Imported here for the reason given in Tridiagonal.solve.
    from scipy.linalg import eigvals_banded

    n = a.n
    ab = np.zeros((4, 2 * n))  # lower band storage: ab[k, j] = B[j + k, j]
    ab[1, 0::2] = a.diag  # B[y_i, x_i] = A[i, i]
    ab[1, 1:-1:2] = a.lower  # B[x_{i+1}, y_i] = A[i+1, i]
    ab[3, 0:-2:2] = a.upper  # B[y_{i+1}, x_i] = A[i, i+1]
    largest = float(np.abs(ab).max())
    if largest == 0.0:
        return 0.0
    # The ratio does not depend on A's scale. Scaling by a power of two is
    # exact and brings the largest entry into [1/2, 1), where LAPACK does not
    # rescale: its rescaling of a subnormal norm fails and returns garbage.
    np.ldexp(ab, -math.frexp(largest)[1], out=ab)
    try:
        top = eigvals_banded(ab, lower=True, select="i", select_range=(2 * n - 1, 2 * n - 1))[0]
        mid = eigvals_banded(ab, lower=True, select="i", select_range=(n - 1, n))
    except np.linalg.LinAlgError:
        # Selecting by index bisects, and that can stop short on bands whose
        # entries lie some 1e-40 or more apart. The full spectrum (QR sweeps)
        # does not; it costs about as much as three index calls.
        spectrum = eigvals_banded(ab, lower=True)
        top, mid = spectrum[-1], spectrum[n - 1 : n + 1]
    # The two index calls bisect separately, so at sigma_min = sigma_max the
    # quotient can exceed 1 by a rounding step.
    return min(1.0, float(np.abs(mid).min() / top))


def determinant_scan(
    c: SchemeCoefficients,
    h_values: Sequence[float],
    domain: tuple[float, float] = (0.0, 1.0),
    near_tol: float = 1e-10,
) -> list[DeterminantScanRow]:
    """Nonsingularity indicators of both scheme matrices over mesh steps.

    Each requested h is snapped to the nearest admissible step of the domain
    (h = (b-a)/(n+1) with integer n >= 1). A row is flagged when the
    auxiliary matrix is near-singular while the base one is not;
    near-singularity is data here, not a failure. The matrices do not
    depend on the end values. Every h must be positive and finite, and the
    domain finite and nonempty; ValueError is raised before any matrix is
    built otherwise.
    """
    for h_req in h_values:
        # False for NaN as well as for h <= 0 and h = inf.
        if not 0.0 < h_req < math.inf:
            raise ValueError(f"mesh steps must be positive and finite, got {h_req}")
    a, b = domain
    check_domain(a, b)
    rows = []
    for h_req in h_values:
        n = max(1, round((b - a) / h_req) - 1)
        mesh = Mesh1D(a, b, n)
        ind_base = _singularity_indicator(scheme_matrix(c, mesh, False))
        ind_mono = _singularity_indicator(scheme_matrix(c, mesh, True))
        rows.append(
            DeterminantScanRow(
                h=mesh.h,
                n=n,
                indicator_base=ind_base,
                indicator_monotonized=ind_mono,
                flagged=bool(ind_mono <= near_tol < ind_base),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Analytic oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalyticSolution:
    """Closed-form solution of the constant-coefficient problem.

    Evaluates U, U' and U''; construction verifies the ODE residual at
    sampled points to 1e-9 relative scale.
    """

    coefficients: SchemeCoefficients
    bc: BoundaryData1D
    domain: tuple[float, float]
    _kind: str = field(repr=False, default="")
    _params: tuple = field(repr=False, default=())

    def __call__(self, x) -> np.ndarray | float:
        return self._eval(np.asarray(x, dtype=float), 0)

    def derivative(self, x, order: int = 1) -> np.ndarray | float:
        return self._eval(np.asarray(x, dtype=float), order)

    def _eval(self, x: np.ndarray, order: int):
        a = self.domain[0]
        t = x - a
        kind = self._kind
        if kind == "exp2":
            c1, c2, l1, l2, part = self._params
            out = c1 * l1**order * np.exp(l1 * t) + c2 * l2**order * np.exp(l2 * t)
            if order == 0:
                out = out + part
        elif kind == "exp_confluent":
            c1, c2, lam, part = self._params
            e = np.exp(lam * t)
            if order == 0:
                out = (c1 + c2 * t) * e + part
            elif order == 1:
                out = (c1 * lam + c2 * (1 + lam * t)) * e
            else:
                out = (c1 * lam**2 + c2 * (2 * lam + lam**2 * t)) * e
        elif kind == "oscillatory":
            c1, c2, alpha, beta, part = self._params
            e = np.exp(alpha * t)
            cos, sin = np.cos(beta * t), np.sin(beta * t)
            if order == 0:
                out = e * (c1 * cos + c2 * sin) + part
            elif order == 1:
                out = e * ((c1 * alpha + c2 * beta) * cos + (c2 * alpha - c1 * beta) * sin)
            else:
                a2b2 = alpha**2 - beta**2
                out = e * (
                    (c1 * a2b2 + 2 * c2 * alpha * beta) * cos
                    + (c2 * a2b2 - 2 * c1 * alpha * beta) * sin
                )
        elif kind == "no_k1":
            c1, c2, mu, slope = self._params
            if order == 0:
                out = c1 + c2 * np.exp(mu * t) + slope * x
            elif order == 1:
                out = c2 * mu * np.exp(mu * t) + slope
            else:
                out = c2 * mu**2 * np.exp(mu * t)
        else:  # quadratic: k1 = k2 = 0
            c1, c2, curv = self._params
            if order == 0:
                out = curv * x**2 + c1 * x + c2
            elif order == 1:
                out = 2 * curv * x + c1
            else:
                out = np.full_like(x, 2 * curv)
        return out if out.shape else float(out)

    def ode_residual(self, x) -> np.ndarray:
        c = self.coefficients
        return (
            c.k0
            + c.k1 * self._eval(np.asarray(x, dtype=float), 0)
            + c.k2 * self._eval(np.asarray(x, dtype=float), 1)
            + c.k3 * self._eval(np.asarray(x, dtype=float), 2)
        )


def analytic_solution(
    c: SchemeCoefficients, bc: BoundaryData1D, domain: tuple[float, float] = (0.0, 1.0)
) -> AnalyticSolution:
    """Closed form of k0 + k1 U + k2 U' + k3 U'' = 0 fitted to the end values."""
    a, b = domain
    check_domain(a, b)
    span = b - a

    if c.k1 != 0.0:
        part = -c.k0 / c.k1
        disc = c.k2**2 - 4.0 * c.k3 * c.k1
        if disc > 0:
            sq = math.sqrt(disc)
            l1 = (-c.k2 + sq) / (2.0 * c.k3)
            l2 = (-c.k2 - sq) / (2.0 * c.k3)
            if abs(l1 - l2) <= 1e-12 * max(1.0, abs(l1), abs(l2)):
                kind, params = _confluent(l1, part, span, bc)
            else:
                m = np.array([[1.0, 1.0], [math.exp(l1 * span), math.exp(l2 * span)]])
                rhs = np.array([bc.u0 - part, bc.u_np1 - part])
                c1, c2 = np.linalg.solve(m, rhs)
                kind, params = "exp2", (c1, c2, l1, l2, part)
        elif disc == 0:
            lam = -c.k2 / (2.0 * c.k3)
            kind, params = _confluent(lam, part, span, bc)
        else:
            alpha = -c.k2 / (2.0 * c.k3)
            beta = math.sqrt(-disc) / (2.0 * abs(c.k3))
            e = math.exp(alpha * span)
            m = np.array(
                [[1.0, 0.0], [e * math.cos(beta * span), e * math.sin(beta * span)]]
            )
            rhs = np.array([bc.u0 - part, bc.u_np1 - part])
            try:
                c1, c2 = np.linalg.solve(m, rhs)
            except np.linalg.LinAlgError as exc:
                raise ValueError(f"boundary fit is singular on [{a}, {b}]") from exc
            kind, params = "oscillatory", (c1, c2, alpha, beta, part)
    elif c.k2 != 0.0:
        mu = -c.k2 / c.k3
        slope = -c.k0 / c.k2
        m = np.array([[1.0, 1.0], [1.0, math.exp(mu * span)]])
        rhs = np.array([bc.u0 - slope * a, bc.u_np1 - slope * b])
        c1, c2 = np.linalg.solve(m, rhs)
        kind, params = "no_k1", (c1, c2, mu, slope)
    else:
        curv = -c.k0 / (2.0 * c.k3)
        m = np.array([[a, 1.0], [b, 1.0]])
        rhs = np.array([bc.u0 - curv * a**2, bc.u_np1 - curv * b**2])
        c1, c2 = np.linalg.solve(m, rhs)
        kind, params = "quadratic", (c1, c2, curv)

    sol = AnalyticSolution(coefficients=c, bc=bc, domain=domain, _kind=kind, _params=params)
    xs = np.linspace(a, b, 41)
    scale = max(1.0, norm_c(sol(xs)))
    res = norm_c(sol.ode_residual(xs))
    if res > 1e-9 * scale * max(1.0, abs(c.k1) + abs(c.k2) + abs(c.k3)):
        raise ValueError(f"analytic form failed its residual check: {res:.3e}")
    return sol


def _confluent(lam: float, part: float, span: float, bc: BoundaryData1D):
    e = math.exp(lam * span)
    m = np.array([[1.0, 0.0], [e, span * e]])
    rhs = np.array([bc.u0 - part, bc.u_np1 - part])
    c1, c2 = np.linalg.solve(m, rhs)
    return "exp_confluent", (c1, c2, lam, part)


# ---------------------------------------------------------------------------
# Convergence order
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderEstimate:
    """Observed order of accuracy from a mesh-refinement study."""

    ns: tuple[int, ...]
    hs: tuple[float, ...]
    errors: tuple[float, ...]
    order: float
    degenerate: bool
    non_convergent: bool


def convergence_order(
    c: SchemeCoefficients,
    bc: BoundaryData1D,
    scheme: str,
    n_sequence: Sequence[int],
    domain: tuple[float, float] = (0.0, 1.0),
) -> OrderEstimate:
    """Least-squares slope of log(error) vs log(h) against the analytic oracle.

    The error is the C-norm over interior nodes of the scheme's answer
    (u for base, y for monotonized). Errors at roundoff scale flag the
    estimate degenerate; a non-decreasing error sequence flags
    non-convergence. Neither raises.
    """
    if scheme not in ("base", "monotonized"):
        raise ValueError(f"unknown scheme {scheme!r}")
    ns = [int(n) for n in n_sequence]
    if len(ns) < 3 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("need a strictly increasing sequence of at least 3 mesh sizes")
    oracle = analytic_solution(c, bc, domain)
    hs, errors = [], []
    solver = solve_base if scheme == "base" else solve_monotonized
    for n in ns:
        mesh = Mesh1D(domain[0], domain[1], n)
        sol = solver(c, mesh, bc)
        exact = oracle(mesh.interior_x())
        errors.append(norm_c(sol.solution.values - exact))
        hs.append(mesh.h)
    scale = max(1.0, norm_c(oracle(np.linspace(*domain, 31))))
    degenerate = max(errors) <= 1e-12 * scale
    non_convergent = (not degenerate) and any(b >= a for a, b in zip(errors, errors[1:]))
    if degenerate:
        order = float("nan")
    else:
        logs_h = np.log(np.asarray(hs))
        logs_e = np.log(np.maximum(np.asarray(errors), 1e-300))
        order = float(np.polyfit(logs_h, logs_e, 1)[0])
    return OrderEstimate(
        ns=tuple(ns),
        hs=tuple(hs),
        errors=tuple(errors),
        order=order,
        degenerate=degenerate,
        non_convergent=non_convergent,
    )


__all__ = [
    "AnalyticSolution",
    "Bvp1dSolution",
    "DeterminantScanRow",
    "OrderEstimate",
    "SchemeCoefficients",
    "SingularSchemeError",
    "analytic_solution",
    "convergence_order",
    "determinant_scan",
    "scheme_matrix",
    "scheme_residual",
    "solve_base",
    "solve_monotonized",
    "solve_monotonized_inverse",
]
