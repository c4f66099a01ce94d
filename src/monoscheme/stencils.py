"""Difference-derivative stencils and the smoothing operators, 1D and 3D.

1D operators are Tridiagonal values: constant 3-point stencils acting on
interior node values, with the two Dirichlet end values supplied as known
data. The three stencils are

    first derivative   (-1, 0, +1) / (2h)
    second derivative  ( 1, -2, 1) / h^2
    smoothing          (1/4, 1/2, 1/4)

The smoothing operator is the local average ((u_{i+1}+u_i)/2 + (u_i+u_{i-1})/2)/2;
it maps constants to themselves and annihilates the alternating +-A mode.

The 3D counterpart is the seven-point symmetric average over the six axis
neighbors: (Mu)_ijk = u_ijk/2 + (1/12) * sum of neighbors. Where a neighbor
cell falls outside the mesh its value is supplied by a per-face ghost rule
(GhostSpec3D): a fixed boundary value, the mirrored first interior value
(zero normal derivative), or linear extrapolation. The extrapolation ghost
(2*u_edge - u_next) makes the shared central-difference kernel reproduce the
one-sided first derivative at that face; it must not feed second derivatives
or the smoother (it zeroes the former and is asymmetric for the latter).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .grid import BoundaryData1D, Mesh1D, MeshFunction, norm_c


class SolverError(RuntimeError):
    """Base class for linear/iterative solve failures."""


class SingularOperatorError(SolverError):
    """A direct solve hit a singular (or numerically singular) matrix."""


# ---------------------------------------------------------------------------
# 1D operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Tridiagonal:
    """Constant 3-point operator on n interior nodes.

    Row i is lower*u_{i-1} + diag*u_i + upper*u_{i+1}. The first and last
    rows reach past the interior to the two Dirichlet end values, which are
    known data: apply() reads them, dense() and solve() drop their columns,
    and offset() is their affine contribution.
    """

    lower: float
    diag: float
    upper: float
    n: int

    def apply(self, u: np.ndarray, bc: BoundaryData1D) -> np.ndarray:
        ext = np.concatenate(([bc.u0], u, [bc.u_np1]))
        return self.lower * ext[:-2] + self.diag * ext[1:-1] + self.upper * ext[2:]

    def offset(self, bc: BoundaryData1D) -> np.ndarray:
        """End-value terms of rows 1 and n; at n = 1 that row gets both."""
        off = np.zeros(self.n)
        off[0] += self.lower * bc.u0
        off[-1] += self.upper * bc.u_np1
        return off

    def dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        idx = np.arange(self.n)
        m[idx, idx] = self.diag
        m[idx[1:], idx[:-1]] = self.lower
        m[idx[:-1], idx[1:]] = self.upper
        return m

    def _require_finite(self, rhs: np.ndarray = ()) -> None:
        """solve's first check, which the determinant scan shares."""
        if not (np.isfinite([self.lower, self.diag, self.upper]).all() and np.isfinite(rhs).all()):
            raise SolverError("its band or right side is not finite")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with dense() @ x = rhs (rhs may hold several columns). Every 1D route
        breaks down here: a band, right side or answer that is not finite raises
        SolverError, a singular matrix SingularOperatorError."""
        # Imported here, not at module level: 3D and metrics runs never
        # solve a band, and importing scipy.linalg costs about 0.28 s and
        # 28 MB of resident memory (2 vCPUs, scipy 1.17), as much as the
        # rest of the program's start-up.
        import scipy.linalg

        self._require_finite(rhs)
        if self.n == 1 and self.diag == 0.0:  # scipy divides by a 1 x 1 band unchecked
            raise SingularOperatorError("singular matrix")
        ab = np.zeros((3, self.n))
        ab[0, 1:] = self.upper
        ab[1, :] = self.diag
        ab[2, :-1] = self.lower
        try:
            with np.errstate(over="ignore"):
                x = scipy.linalg.solve_banded((1, 1), ab, rhs, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularOperatorError(str(exc)) from exc
        if not np.isfinite(x).all():
            raise SolverError("its answer is not finite")
        return x


def first_difference(mesh: Mesh1D) -> Tridiagonal:
    """(-1, 0, +1) / 2h."""
    s = 1.0 / mesh.h
    return Tridiagonal(-0.5 * s, 0.0 * s, 0.5 * s, mesh.n)


def second_difference(mesh: Mesh1D) -> Tridiagonal:
    """(1, -2, 1) / h^2."""
    s = 1.0 / mesh.h**2
    return Tridiagonal(1.0 * s, -2.0 * s, 1.0 * s, mesh.n)


def smoothing(n: int) -> Tridiagonal:
    """(1/4, 1/2, 1/4)."""
    return Tridiagonal(0.25, 0.5, 0.25, n)


def first_derivative_1d(u: MeshFunction, bc: BoundaryData1D) -> MeshFunction:
    """(u_{i+1} - u_{i-1}) / 2h at every interior node."""
    return u.with_values(first_difference(u.mesh).apply(u.values, bc))


def second_derivative_1d(u: MeshFunction, bc: BoundaryData1D) -> MeshFunction:
    """(u_{i+1} - 2u_i + u_{i-1}) / h^2 at every interior node."""
    return u.with_values(second_difference(u.mesh).apply(u.values, bc))


def smooth_1d(u: MeshFunction, bc: BoundaryData1D) -> MeshFunction:
    """(u_{i+1} + 2u_i + u_{i-1}) / 4 at every interior node."""
    return u.with_values(smoothing(u.mesh.n).apply(u.values, bc))


def solve_smooth_1d(b: MeshFunction, bc: BoundaryData1D) -> MeshFunction:
    """Direct tridiagonal solve of smooth_1d(a, bc) = b.

    The interior matrix has eigenvalues 1/2 + cos(theta)/2 > 0, so it is
    never singular; b or its end values overflowing raises SolverError.
    """
    m = smoothing(b.mesh.n)
    return b.with_values(m.solve(b.values - m.offset(bc)))


# ---------------------------------------------------------------------------
# 3D ghost machinery
# ---------------------------------------------------------------------------

FACES = ("xlo", "xhi", "ylo", "yhi", "zlo", "zhi")
_KINDS = ("value", "extrapolate", "mirror")  # GhostPlan.refill runs them in this order


@dataclass(frozen=True)
class FaceGhost:
    """Ghost rule on one face: kind in {"value", "mirror", "extrapolate"}."""

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown ghost kind {self.kind!r}")


@dataclass(frozen=True)
class FaceRule:
    """Ghost rule for a face, with an optional square patch override.

    The patch covers transverse cell indices lo..hi (inclusive) in both
    tangential directions; outside it the base rule applies. This realizes
    pressure holes in otherwise-walled faces. A set patch needs
    0 <= lo <= hi; GhostPlan checks hi against the mesh size.
    """

    base: FaceGhost
    patch: FaceGhost | None = None
    patch_lo: int = 0
    patch_hi: int = -1

    def __post_init__(self):
        if self.patch is not None and not 0 <= self.patch_lo <= self.patch_hi:
            raise ValueError(f"patch range {self.patch_lo}..{self.patch_hi} is not 0 <= lo <= hi")


@dataclass(frozen=True)
class GhostSpec3D:
    """Per-face ghost rules for one scalar variable on a Mesh3D."""

    xlo: FaceRule
    xhi: FaceRule
    ylo: FaceRule
    yhi: FaceRule
    zlo: FaceRule
    zhi: FaceRule

    @classmethod
    def uniform(cls, ghost: FaceGhost) -> "GhostSpec3D":
        rule = FaceRule(base=ghost)
        return cls(*(rule for _ in FACES))

    def rules(self) -> tuple[FaceRule, ...]:
        return (self.xlo, self.xhi, self.ylo, self.yhi, self.zlo, self.zhi)


def _ghosts(spec: GhostSpec3D) -> list[FaceGhost]:
    """Every rule of the spec: each face's base, then its patch if it has one."""
    return [g for r in spec.rules() for g in (r.base, r.patch) if g is not None]


MIRROR_ALL = GhostSpec3D.uniform(FaceGhost("mirror"))


@dataclass(frozen=True)
class BoundaryPolicy3D:
    """Ghost specs for the four flow variables on one Mesh3D."""

    vx: GhostSpec3D
    vy: GhostSpec3D
    vz: GhostSpec3D
    p: GhostSpec3D

    def velocity(self, axis: int) -> GhostSpec3D:
        return (self.vx, self.vy, self.vz)[axis]


class GhostPlan:
    """A GhostSpec3D compiled for one mesh size N into flat index arrays.

    Each ghost cell takes its face's patch rule where the patch covers it
    and the base rule elsewhere. new_pad() allocates an (N+2)^3 array with
    every value ghost written; refill(pad) recomputes the others from the
    pad's cells with one gather and scatter per kind: the extrapolated
    ghosts, then the mirrored ones. A rule reads only cells, so a pad
    refilled in place equals pad_grid of its cells bit for bit. At N = 1 an
    extrapolation's inner cell would be the other face's ghost, so such a
    spec is rejected there.
    """

    def __init__(self, spec: GhostSpec3D, N: int):
        if N == 1 and any(g.kind == "extrapolate" for g in _ghosts(spec)):
            raise ValueError("extrapolation needs N >= 2 cells per axis")
        self.N = N
        parts = {kind: [] for kind in _KINDS}  # per kind: (ghosts, edges, inners, values)
        for side, (face, rule) in enumerate(zip(FACES, spec.rules())):
            covered = np.zeros(N * N, dtype=bool)  # the patch's tangential cells, row-major
            if rule.patch is not None:
                lo, hi = rule.patch_lo, rule.patch_hi
                if hi >= N:
                    raise ValueError(f"{face} patch {lo}..{hi} outside cells 0..{N - 1}")
                covered.reshape(N, N)[lo : hi + 1, lo : hi + 1] = True
            layer = _layer_indices(side // 2, side % 2, N)
            for ghost, keep in ((rule.base, ~covered), (rule.patch, covered)):
                if ghost is not None:
                    indices = (a[keep] for a in layer)
                    parts[ghost.kind].append((*indices, np.full(keep.sum(), ghost.value)))
        joined = {kind: [np.concatenate(col) for col in zip(*p)] for kind, p in parts.items() if p}
        ghosts, _, _, values = joined.pop("value", (np.empty(0, dtype=np.intp),) * 4)
        written = values.view(np.int64) != 0  # the zero pad already holds the +0.0 ghosts
        self._fixed = (ghosts[written], values[written])
        self._refill = [(kind, *v[:3]) for kind, v in joined.items()]

    def new_pad(self) -> np.ndarray:
        """Zero (N+2)^3 array with the value ghosts written. Ghost edges and
        corners stay zero; no cell's axis stencil reads them."""
        flat = np.zeros((self.N + 2) ** 3)
        ghosts, values = self._fixed
        flat[ghosts] = values
        return flat.reshape((self.N + 2,) * 3)

    def refill(self, pad: np.ndarray) -> None:
        """Rewrite, in place, the ghosts that depend on the pad's cells. The
        pad must be C-contiguous, as new_pad and pad_grid make it."""
        if not pad.flags.c_contiguous:
            raise ValueError("refill needs a C-contiguous pad")
        flat = pad.reshape(-1)
        for kind, ghosts, edges, inners in self._refill:
            if kind == "extrapolate":
                out = np.multiply(2.0, flat[edges])
                out -= flat[inners]
                flat[ghosts] = out
            else:
                flat[ghosts] = flat[edges]


def _layer_indices(axis: int, hi: int, N: int) -> tuple[np.ndarray, ...]:
    """Flat indices into the (N+2)^3 pad of the ghosts of an axis's low
    (hi = 0) or high (hi = 1) face, of their edge cells and of the cells one
    row in, each over the N x N tangential cells in row-major order."""
    strides = ((N + 2) ** 2, N + 2, 1)
    t = np.arange(1, N + 1)
    first, second = (t * strides[a] for a in range(3) if a != axis)
    tangential = np.add.outer(first, second).ravel()
    return tuple(tangential + d * strides[axis] for d in ((N + 1, N, N - 1) if hi else (0, 1, 2)))


def ghost_plan(spec: GhostSpec3D, N: int) -> GhostPlan:
    """The plan of `spec` on an N^3 mesh, compiled once per (spec, N).

    FaceGhost("value", -0.0) equals FaceGhost("value", 0.0) but writes
    another sign bit, so the cache key holds the sign of every ghost value.
    """
    return _compiled_plan(spec, tuple(math.copysign(1.0, g.value) for g in _ghosts(spec)), N)


@functools.lru_cache(maxsize=64)
def _compiled_plan(spec: GhostSpec3D, signs: tuple[float, ...], N: int) -> GhostPlan:
    return GhostPlan(spec, N)


def pad_grid(grid: np.ndarray, spec: GhostSpec3D) -> np.ndarray:
    """(N+2)^3 array from an (N,N,N) one: cells plus one ghost layer per the
    spec. Ghost edges and corners are left at zero; no cell's axis stencil
    reads them."""
    plan = ghost_plan(spec, grid.shape[0])
    pad = plan.new_pad()
    pad[1:-1, 1:-1, 1:-1] = grid
    plan.refill(pad)
    return pad


# ---------------------------------------------------------------------------
# 3D stencils on padded arrays
# ---------------------------------------------------------------------------
#
# Every neighbor read of an (N+2)^3 pad from pad_grid or a GhostPlan goes
# through two unscaled primitives, central_step and add_neighbors, which
# read the pad as a flat vector and work on range vectors (see PadRange).
# smooth_pad is the one kernel written on them. The public operators scale
# the primitives' sums themselves, and so does the flow solver, with
# coefficients folded once per run.


class PadRange:
    """The flat range of an (N+2)^3 pad that the 3D kernels run on.

    With S = N+2, the pad's position (i, j, k) is flat index i*S^2 + j*S + k,
    so the axis neighbors of a position are the shifts by +-S^2, +-S and +-1.
    The range [lo, hi) runs from the first cell (1, 1, 1) to one past the
    last (N, N, N), and a kernel evaluates its stencil over all of it with
    whole-range operations, whose vectors are contiguous. A vector over the
    range is a range vector. Besides the cells the range holds the y and z
    ghost faces and the y-z ghost edges of each interior x-plane; the values
    a kernel computes there are thrown away. `ghosts` indexes those
    positions in a range vector, and `cells` views its cells as the
    [i, j, k] grid that MeshFunction takes and copies once.
    """

    def __init__(self, N: int):
        S = N + 2
        self.N = N
        self.lo = S * S + S + 1
        self.hi = N * S * S + N * S + N + 1
        self.size = self.hi - self.lo
        self.core = slice(self.lo, self.hi)
        self._shifts = (S * S, S, 1)
        self.plus = tuple(slice(self.lo + s, self.hi + s) for s in self._shifts)
        self.minus = tuple(slice(self.lo - s, self.hi - s) for s in self._shifts)
        # Over the x-planes 1..N of the pad, the range starts at (1, 1, 1).
        not_cell = np.ones((N, S, S), dtype=bool)
        not_cell[:, 1:-1, 1:-1] = False
        self.ghosts = np.flatnonzero(not_cell.reshape(-1)[S + 1 : S + 1 + self.size])
        self.ghosts.flags.writeable = False

    def of(self, pad: np.ndarray) -> np.ndarray:
        """The range of a pad, as a view when the pad is contiguous."""
        return pad.reshape(-1)[self.core]

    def cells(self, vec: np.ndarray) -> np.ndarray:
        """The (N, N, N) view of a range vector's cells; no copy."""
        strides = tuple(vec.itemsize * s for s in self._shifts)
        return np.ndarray((self.N,) * 3, vec.dtype, vec, 0, strides)


@functools.lru_cache(maxsize=64)
def pad_range(N: int) -> PadRange:
    """The kernels' range in an (N+2)^3 pad, computed once per N."""
    return PadRange(N)


def central_step(pad: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """The unscaled central step u_+ - u_- along one axis."""
    rng, flat = pad_range(pad.shape[0] - 2), pad.reshape(-1)
    return np.subtract(flat[rng.plus[axis]], flat[rng.minus[axis]], out=out)


def add_neighbors(pad: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Add the six axis neighbors into the range vector acc, in place: the
    neighbor pairs axis by axis, the plus one of each pair first."""
    rng, flat = pad_range(pad.shape[0] - 2), pad.reshape(-1)
    for axis in range(3):
        acc += flat[rng.plus[axis]]
        acc += flat[rng.minus[axis]]
    return acc


def smooth_pad(pad: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Seven-point average u/2 + (sum of six axis neighbors)/12."""
    rng = pad_range(pad.shape[0] - 2)
    # The neighbor sum starts from +0.0, which fixes the sign of a zero sum.
    nbr = np.empty(rng.size) if out is None else out
    nbr.fill(0.0)
    add_neighbors(pad, nbr)
    nbr /= 12.0
    nbr += 0.5 * rng.of(pad)
    return nbr


def gradient_3d(u: MeshFunction, axis: int, spec: GhostSpec3D) -> MeshFunction:
    """Central difference (u_+ - u_-) / 2h along one axis, ghost-resolved.

    With an extrapolation ghost on a face this evaluates to the one-sided
    first-order difference at that face's cells.
    """
    step = central_step(pad_grid(u.as_grid(), spec), axis)
    step /= 2.0 * u.mesh.h
    return MeshFunction(u.mesh, pad_range(u.mesh.N).cells(step))


def laplacian_3d(u: MeshFunction, spec: GhostSpec3D) -> MeshFunction:
    """Seven-point Laplacian: -6u plus the neighbor pairs axis by axis, / h^2."""
    pad, rng = pad_grid(u.as_grid(), spec), pad_range(u.mesh.N)
    lap = add_neighbors(pad, -6.0 * rng.of(pad))
    lap /= u.mesh.h * u.mesh.h
    return MeshFunction(u.mesh, rng.cells(lap))


def divergence_3d(
    vx: MeshFunction, vy: MeshFunction, vz: MeshFunction, policy: BoundaryPolicy3D
) -> MeshFunction:
    """d(vx)/dx + d(vy)/dy + d(vz)/dz with each component's own ghost spec."""
    dx, dy, dz = (central_step(pad_grid(v.as_grid(), policy.velocity(a)), a) / (2.0 * vx.mesh.h)
                  for a, v in enumerate((vx, vy, vz)))
    return MeshFunction(vx.mesh, pad_range(vx.mesh.N).cells(dx + dy + dz))


def smooth_3d(u: MeshFunction, spec: GhostSpec3D = MIRROR_ALL) -> MeshFunction:
    """Seven-point average u/2 + (sum of six axis neighbors)/12.

    Neighbors beyond the mesh are supplied by the ghost spec; the default
    mirror-everywhere spec preserves constants on the whole mesh.
    """
    smoothed = smooth_pad(pad_grid(u.as_grid(), spec))
    return MeshFunction(u.mesh, pad_range(u.mesh.N).cells(smoothed))


def _unknowns_only(spec: GhostSpec3D) -> GhostSpec3D:
    """The spec with every ghost value set to zero: the smoother's linear
    part. An extrapolation ghost has no place in it and raises ValueError."""
    if any(g.kind == "extrapolate" for g in _ghosts(spec)):
        raise ValueError("extrapolation ghosts are not part of the smoothing operator")

    def zeroed(rule: FaceRule) -> FaceRule:
        patch = None if rule.patch is None else replace(rule.patch, value=0.0)
        return replace(rule, base=replace(rule.base, value=0.0), patch=patch)

    return GhostSpec3D(*map(zeroed, spec.rules()))


@functools.lru_cache(maxsize=64)
def _axis_eigen(lo_kind: str, hi_kind: str, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormal eigenvectors of one axis's neighbor sum.

    The N x N matrix has ones beside the diagonal. A mirror ghost folds the
    neighbor beyond its face onto the edge cell, which adds one to that end
    of the diagonal; a zero-value ghost adds nothing. Strang (SIAM Review 41,
    1999) gives the eigenvectors in closed form as cosine and sine
    transforms; eigh computes them once per (kinds, N).
    """
    t = np.eye(N, k=1)
    t += t.T
    t[0, 0] += lo_kind == "mirror"
    t[-1, -1] += hi_kind == "mirror"
    mu, q = np.linalg.eigh(t)
    mu.flags.writeable = False
    q.flags.writeable = False
    return mu, q


class _SeparableInverse:
    """Exact inverse of the smoother's linear part with every face patch
    replaced by its face's base rule: fast diagonalization (Lynch, Rice &
    Thomas, Numer. Math. 6, 1964).

    That operator is I/2 + (Tx + Ty + Tz)/12, one neighbor sum per axis, so
    it is Q diag(lambda) Q^T with Q the product of the axes' eigenvectors and
    lambda = 1/2 + (mu_x + mu_y + mu_z)/12 > 0. MeshFunction values are the
    [i, j, k] grid in Fortran order, so in their C-order (N, N, N) view axis
    0 is z and axis 2 is x.
    """

    def __init__(self, spec: GhostSpec3D, N: int):
        (mz, self.qz), (my, self.qy), (mx, self.qx) = (
            _axis_eigen(lo.base.kind, hi.base.kind, N)
            for lo, hi in ((spec.zlo, spec.zhi), (spec.ylo, spec.yhi), (spec.xlo, spec.xhi))
        )
        self.N = N
        self.inv = 1.0 / (0.5 + (mz[:, None, None] + my[:, None] + mx) / 12.0)
        self._bufs = np.empty((2, N, N, N))

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """The inverse applied to r, in a buffer the next call overwrites."""
        N = self.N
        a, b = self._bufs
        # Into the eigenbasis along x, y, z; scale; and back along z, y, x.
        np.matmul(r.reshape(N * N, N), self.qx, out=a.reshape(N * N, N))
        np.matmul(self.qy.T, a, out=b)
        np.matmul(self.qz.T, b.reshape(N, N * N), out=a.reshape(N, N * N))
        a *= self.inv
        np.matmul(self.qz, a.reshape(N, N * N), out=b.reshape(N, N * N))
        np.matmul(self.qy, b, out=a)
        np.matmul(a.reshape(N * N, N), self.qx.T, out=b.reshape(N * N, N))
        return b.reshape(-1)


def solve_smooth_3d(
    b: MeshFunction,
    spec: GhostSpec3D = MIRROR_ALL,
    tol: float = 1e-10,
    max_iters: int = 20000,
) -> MeshFunction:
    """Iterative solve of smooth_3d(a, spec) = b to max-norm residual <= tol.

    Preconditioned conjugate gradients on the symmetric positive-definite
    seven-point system, matrix-free. The preconditioner is the exact inverse
    of the same system with each face patch replaced by its face's base
    rule, so a spec whose patches change no face's kind converges in one
    iteration. Deterministic for a fixed BLAS thread count: fixed iteration
    order, plain numpy reductions and matrix products. Mirror/value ghost
    rules keep the system symmetric; extrapolation ghosts are rejected.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters!r}")
    linear = _unknowns_only(spec)
    if not all(math.isfinite(g.value) for g in _ghosts(spec)):
        raise ValueError("spec ghost values must be finite")
    if not np.isfinite(b.values).all():
        raise ValueError("b must be finite")

    # A x = smooth(x) with every value ghost set to zero: the affine ghost
    # part stays in the residual b - smooth(x), so applying A keeps no affine
    # array and no difference in the working set. The zero residual sends the
    # first pass, at x = 0, through the from-scratch check that starts PCG.
    x = np.zeros_like(b.values)
    r = np.zeros_like(x)
    precondition = _SeparableInverse(spec, b.mesh.N)
    for _ in range(max_iters):
        if norm_c(r) <= tol:
            r = b.values - smooth_3d(b.with_values(x), spec).values
            if norm_c(r) <= tol:
                return b.with_values(x)
            p = precondition(r).copy()
            rz = float(r @ p)
        ap = smooth_3d(b.with_values(p), linear).values
        denom = float(p @ ap)
        if denom == 0.0:
            break
        alpha = rz / denom
        x += alpha * p
        r -= alpha * ap
        del ap  # not held through the next apply
        z = precondition(r)
        rz_new = float(r @ z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    final = norm_c(b.values - smooth_3d(b.with_values(x), spec).values)
    if final <= tol:
        return b.with_values(x)
    raise SolverError(f"smoothing solve stalled at residual {final:.3e} (tol {tol:.3e})")


# ---------------------------------------------------------------------------
# Operator norms
# ---------------------------------------------------------------------------


def operator_norm_c(op) -> float:
    """Max-norm induced operator norm: max over rows of sum |coefficients|.

    Accepts a Tridiagonal or a (Mesh3D, GhostSpec3D) pair describing the 3D
    smoothing operator. Rows are taken over unknowns only; end values and
    ghost values fixed by a "value" rule are affine data, so their
    coefficient leaves the row.
    """
    if isinstance(op, Tridiagonal):
        # |T| applied to ones with zero end values, as sums: an infinite band
        # times a zero end value would give NaN.
        rows = np.full(op.n, abs(op.diag))
        rows[1:] += abs(op.lower)
        rows[:-1] += abs(op.upper)
        return float(rows.max())

    mesh, spec = op
    # Every coefficient is nonnegative, so a row's absolute sum is M applied
    # to ones once the affine "value" ghosts are set to zero.
    ones = MeshFunction(mesh, np.ones(mesh.cell_count))
    return float(smooth_3d(ones, _unknowns_only(spec)).values.max())


__all__ = [
    "BoundaryPolicy3D",
    "FaceGhost",
    "FaceRule",
    "GhostPlan",
    "GhostSpec3D",
    "MIRROR_ALL",
    "PadRange",
    "SingularOperatorError",
    "SolverError",
    "Tridiagonal",
    "add_neighbors",
    "central_step",
    "divergence_3d",
    "first_derivative_1d",
    "first_difference",
    "ghost_plan",
    "gradient_3d",
    "laplacian_3d",
    "operator_norm_c",
    "pad_grid",
    "pad_range",
    "second_derivative_1d",
    "second_difference",
    "smooth_1d",
    "smooth_3d",
    "smooth_pad",
    "smoothing",
    "solve_smooth_1d",
    "solve_smooth_3d",
]
