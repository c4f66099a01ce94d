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

An analytic closed form serves as the oracle for convergence studies. It is
one characteristic-root form with each exponential anchored at the end it
decays toward, so steep boundary layers do not overflow and double roots
rounded apart still fit. determinant_scan probes mesh steps where the
auxiliary matrix degenerates while the base matrix does not. Its singular
values are the absolute eigenvalues of the flipped matrix J A, which
constant bands make symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .grid import BoundaryData1D, Mesh1D, MeshFunction, check_domain, norm_c
from .stencils import (
    SingularOperatorError, SolverError, Tridiagonal, smooth_1d, smoothing, solve_smooth_1d,
)


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


def _residual(c: SchemeCoefficients, a: Tridiagonal, mesh: Mesh1D, bc: BoundaryData1D,
              unknown: np.ndarray) -> float:
    return norm_c(a.apply(unknown, bc) + mesh.h**2 * c.k0)


def _at_step(h: float, solve):
    """solve(), naming the mesh step h in the error it raises if it breaks down."""
    try:
        return solve()
    except (SingularOperatorError, np.linalg.LinAlgError) as exc:
        raise SingularOperatorError(f"scheme matrix singular at h={h}: {exc}") from exc
    except SolverError as exc:
        raise SolverError(f"scheme overflows at h={h}: {exc}") from exc


def _solve_scheme(
    c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D, monotonized: bool
) -> tuple[np.ndarray, float]:
    """Banded solve of a u = -h^2 k0 with the end-value terms moved right, a
    the scheme_matrix, and the solution's scheme residual under that same a."""
    a = scheme_matrix(c, mesh, monotonized)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.full(mesh.n, -mesh.h * mesh.h * c.k0) - a.offset(bc)
    u = _at_step(mesh.h, lambda: a.solve(rhs))
    return u, _residual(c, a, mesh, bc, u)


def scheme_residual(
    c: SchemeCoefficients,
    mesh: Mesh1D,
    bc: BoundaryData1D,
    unknown: np.ndarray,
    monotonized: bool,
) -> float:
    """C-norm of the scheme equations evaluated at the given unknown vector."""
    return _residual(c, scheme_matrix(c, mesh, monotonized), mesh, bc, unknown)


# ---------------------------------------------------------------------------
# Solvers
# ---------------------------------------------------------------------------


def solve_base(c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D) -> Bvp1dSolution:
    """Direct banded solve of the plain central-difference scheme."""
    u, res = _solve_scheme(c, mesh, bc, monotonized=False)
    return Bvp1dSolution(
        mesh=mesh, bc=bc, scheme="base", residual_c_norm=res, u=MeshFunction(mesh, u)
    )


def solve_monotonized(c: SchemeCoefficients, mesh: Mesh1D, bc: BoundaryData1D) -> Bvp1dSolution:
    """Solve the auxiliary scheme for v, return y = Mv as the solution.

    The smoother enters only the undifferentiated k1 term, so the combined
    matrix stays tridiagonal. A singular auxiliary matrix is a legitimate
    math case at particular mesh steps and is reported as such.
    """
    v, res = _solve_scheme(c, mesh, bc, monotonized=True)
    vf = MeshFunction(mesh, v)
    y = smooth_1d(vf, bc)
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

    # h^2 k1 goes onto the product's diagonal in place, and the factors go
    # once rhs is formed, so at most three n x n arrays are alive at once.
    full = d_mat @ minv
    full.flat[:: n + 1] += h * h * c.k1
    rhs = -(h * h * c.k0) * np.ones(n) - d_aff + d_mat @ (minv @ m_aff)
    del d_mat, minv
    y = _at_step(h, lambda: np.linalg.solve(full, rhs))
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


def _persymmetric_band(a: Tridiagonal) -> np.ndarray:
    """C = P J A P^T in lower band storage, ab[r, j] = C[j + r, j]: J flips
    the rows and P orders them 0, n-1, 1, n-2, 2, ... (J A)[i, j] is lower,
    diag or upper at i + j - (n-1) = -1, 0 or 1, and 0 elsewhere; in P's
    order such i and j lie at most three apart, so C has half-width 3."""
    n = a.n
    k = np.arange(n)
    order = np.where(k % 2 == 0, k // 2, n - 1 - k // 2)
    rows = k + np.arange(4)[:, None]
    s = np.where(rows < n, order[np.minimum(rows, n - 1)] + order - (n - 1), 2)
    return np.select([s == -1, s == 0, s == 1], [a.lower, a.diag, a.upper])


def _singularity_indicator(a: Tridiagonal) -> float:
    """Smallest over largest singular value; 0 marks an exactly singular matrix.

    A has constant bands, so it is persymmetric: J A J = A^T, and J A is
    symmetric. J is orthogonal, so A's singular values are the absolute
    values of J A's eigenvalues (Golub & Van Loan, Matrix Computations,
    4.7). One banded eigensolve of the full spectrum of the n x n band
    C = P J A P^T (QR sweeps, O(n^2) where a dense SVD is O(n^3)) gives both.

    The eigenvalues of A^T A are not used: they give the singular values
    with the condition number squared, so sigma_min would carry an error of
    about sqrt(eps)*||A||, about 1e-8, and matrices that are exactly
    singular would stop falling below the scan's near_tol.
    """
    # Imported here for the reason given in Tridiagonal.solve.
    from scipy.linalg import eigvals_banded

    a._require_finite()
    ab = _persymmetric_band(a)
    largest = float(np.abs(ab).max())
    if largest == 0.0:
        return 0.0
    # The ratio does not depend on A's scale. Scaling by a power of two is
    # exact and brings the largest entry into [1/2, 1), where LAPACK does not
    # rescale: its rescaling of a subnormal norm fails and returns garbage.
    np.ldexp(ab, -math.frexp(largest)[1], out=ab)
    sigma = np.abs(eigvals_banded(ab, lower=True))
    return float(sigma.min() / sigma.max())


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
    depend on the end values. Every h must be positive and finite, near_tol
    finite and at least 0, and the domain finite and nonempty; ValueError is
    raised before any matrix is built otherwise.
    """
    # Each condition below is false for NaN as well as for the out-of-range values.
    for h_req in h_values:
        if not 0.0 < h_req < math.inf:
            raise ValueError(f"h_values must be positive and finite, got {h_req}")
    if not 0.0 <= near_tol < math.inf:
        raise ValueError(f"near_tol must be finite and at least 0, got {near_tol}")
    a, b = domain
    check_domain(a, b)
    rows = []
    for h_req in h_values:
        n = max(1, round((b - a) / h_req) - 1)
        mesh = Mesh1D(a, b, n)
        ind_base, ind_mono = (
            _at_step(mesh.h, lambda: _singularity_indicator(scheme_matrix(c, mesh, mono)))
            for mono in (False, True))
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
    """Closed form U = P + w1 phi1 + w2 phi2 of the constant-coefficient problem.

    P is the particular solution of _particular. The phi come from the roots of
    k3 r^2 + k2 r + k1 = 0: e^{r_i (x - s_i)} for roots at least 1/(b - a)
    apart, and e^{r1 t}, (e^{r2 t} - e^{r1 t}) / (r2 - r1) with t = x - s
    for closer ones, which is t e^{r t} at a double root. Each exponential is
    anchored at the end s it decays toward (b when Re r > 0, else a), so no
    exponent exceeds 1 on [a, b] and none can overflow (Ascher, Mattheij &
    Russell, Numerical Solution of Boundary Value Problems for ODEs, 1995,
    ch. 3 and 10). Complex-conjugate roots take complex weights, and U is
    the real part. Construction verifies the ODE residual at sampled points
    to 1e-9 relative scale and both end values to 1e-10.
    """

    coefficients: SchemeCoefficients
    bc: BoundaryData1D
    domain: tuple[float, float]
    _roots: tuple = field(repr=False, default=())
    _weights: tuple = field(repr=False, default=())
    _q: complex = field(repr=False, default=0.0)

    def __call__(self, x) -> np.ndarray | float:
        return self.derivative(x, 0)

    def derivative(self, x, order: int = 1) -> np.ndarray | float:
        x = np.asarray(x, dtype=float)
        phi1, phi2 = _basis(self._roots, self.domain, x, order)
        w1, w2 = self._weights
        p = _particular(self.coefficients, self._q, self._roots[1], self.domain, x, order)
        out = np.real(p + w1 * phi1 + w2 * phi2)
        return out if out.shape else float(out)

    def ode_residual(self, x) -> np.ndarray:
        c = self.coefficients
        return c.k0 + c.k1 * self(x) + c.k2 * self.derivative(x, 1) + c.k3 * self.derivative(x, 2)


def _particular(c: SchemeCoefficients, q, r, domain: tuple[float, float], x: np.ndarray,
                order: int):
    """The order-th derivative at x of a P with k0 + k1 P + k2 P' + k3 P'' = 0,
    q as in analytic_solution and r = k1/q its root of smaller magnitude.

    P = (k0/q) expm1(r t)/r with t = x - s, s the end r is anchored at in
    _basis. It is -k0/k1 plus a multiple of e^{r t}, so it solves the
    problem, but it stays finite as k1 -> 0, where -k0/k1 grows without
    bound and the fit's weight on e^{r t} would have to cancel it. At r = 0
    (k1 = 0) it is (k0/q) t = -(k0/k2) t; at q = 0 (k1 = k2 = 0) P is
    -k0 t^2 / (2 k3).
    """
    a, b = domain
    t = x - (b if r.real > 0 else a)
    if not q:
        return np.polyval(np.polyder([-c.k0 / (2.0 * c.k3), 0.0, 0.0], order), t)
    if order == 0:
        return c.k0 / q * (np.expm1(r * t) / r if r else t)
    return c.k0 / q * r ** (order - 1) * np.exp(r * t)


def _basis(roots: tuple, domain: tuple[float, float], x: np.ndarray, order: int):
    """The order-th derivatives at x of the two basis functions of roots."""
    r1, r2 = roots
    a, b = domain
    t1 = x - (b if r1.real > 0 else a)
    e1 = np.exp(r1 * t1)
    g = r2 - r1
    if abs(g) * (b - a) > 1.0:
        return r1**order * e1, r2**order * np.exp(r2 * (x - (b if r2.real > 0 else a)))
    # Close roots share r1's anchor and take (e^{r2 t} - e^{r1 t}) / (r2 - r1),
    # which cancels nothing as r2 -> r1 and is t e^{r t} at a double root.
    ratio = np.expm1(g * t1) / g if g else t1
    dd = sum(r2 ** (order - 1 - k) * r1**k for k in range(order))
    return r1**order * e1, (r2**order * ratio + dd) * e1


def analytic_solution(
    c: SchemeCoefficients, bc: BoundaryData1D, domain: tuple[float, float] = (0.0, 1.0)
) -> AnalyticSolution:
    """Closed form of k0 + k1 U + k2 U' + k3 U'' = 0 fitted to the end values.

    Raises ValueError when the fit is singular, when a power of a root
    overflows while the form is built or checked, or when the form fails its
    residual check or misses an end value by more than 1e-10 relative.
    """
    a, b = domain
    check_domain(a, b)
    try:
        # The checks below report a non-finite value, so numpy need not warn of one.
        with np.errstate(over="ignore", invalid="ignore"):
            disc = c.k2**2 - 4.0 * c.k1 * c.k3
            sq = math.sqrt(disc) if disc >= 0 else complex(0.0, math.sqrt(-disc))
            # q keeps -k2 and sqrt(disc) from cancelling; q = 0 only when k1 = k2 = 0.
            q = -(c.k2 + math.copysign(1.0, c.k2) * sq) / 2.0
            roots = (q / c.k3, c.k1 / q) if q else (0.0, 0.0)
            ends = np.array([a, b])
            fit = np.stack(_basis(roots, domain, ends, 0), axis=1)
            rhs = np.array([bc.u0, bc.u_np1]) - _particular(c, q, roots[1], domain, ends, 0)
            weights = tuple(np.linalg.solve(fit, rhs))
            sol = AnalyticSolution(coefficients=c, bc=bc, domain=domain, _roots=roots,
                                   _weights=weights, _q=q)
            xs = np.linspace(a, b, 41)
            vals = sol(xs)
            scale = max(1.0, norm_c(vals))
            res = norm_c(sol.ode_residual(xs))
            miss = max(abs(vals[0] - bc.u0), abs(vals[-1] - bc.u_np1))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"boundary fit is singular on [{a}, {b}]") from exc
    except OverflowError as exc:
        # Between half and twice the larger root's magnitude (Fujiwara's bound).
        size = max(abs(c.k2 / c.k3), math.sqrt(abs(c.k1 / c.k3)))
        raise ValueError(
            f"analytic form overflows: a characteristic root has magnitude about {size:.1e}"
        ) from exc
    if not res <= 1e-9 * scale * max(1.0, abs(c.k1) + abs(c.k2) + abs(c.k3)):
        raise ValueError(f"analytic form failed its residual check: {res:.3e}")
    # Sound forms meet their ends to 1.4e-13 relative (6000 random problems);
    # roots that are both small and close make k0/q huge, and the fit's
    # cancellation of P shows here.
    if not miss <= 1e-10 * scale:
        raise ValueError(f"analytic form misses its end values by {miss:.3e}")
    return sol


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
    "analytic_solution",
    "convergence_order",
    "determinant_scan",
    "scheme_matrix",
    "scheme_residual",
    "solve_base",
    "solve_monotonized",
    "solve_monotonized_inverse",
]
