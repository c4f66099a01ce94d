"""Quantifying nonmonotonicity of mesh functions.

Tools here answer three questions about a discrete solution:

* does it oscillate from point to point (strict alternating local extrema
  at every step of an interval)?
* how rough is it: the maximal change per mesh step, a functional that is
  Lipschitz with constant 2 in the max-norm;
* where and how sharp are its local extrema in 3D: counts over a region,
  and the sharpness pair (a, b) = (worst maximal neighbor jump, worst
  minimal neighbor jump) over a set of extrema. b near machine epsilon
  flags flat plateaus that the strict comparison still counts.

check_damping_bound verifies, on actual data, the interval that bounds the
roughness ratio of the smoothed auxiliary solution in terms of the base
solution's roughness, the smoother's damping factor, and the closeness of
the two solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .grid import Mesh3D, MeshFunction, norm_c

#: Lipschitz constant of max_step_change in the C-norm.
STEP_CHANGE_LIPSCHITZ = 2.0

Region3D = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


class UndefinedIntervalError(ValueError):
    """Oscillation is undefined on intervals of fewer than three points."""


class EmptySetError(ValueError):
    """Sharpness metrics are undefined over an empty extremum set."""


class PremiseViolationError(ValueError):
    """A hypothesis of the damping-ratio bound fails; message names it."""


class DegenerateInputError(ValueError):
    """The base solution is already flat for the chosen roughness functional."""


# ---------------------------------------------------------------------------
# 1D oscillation and roughness
# ---------------------------------------------------------------------------


def oscillates_point_to_point(u: Sequence[float], k: int = 0, l: int | None = None) -> bool:
    """True iff u alternates strict local maxima and minima on k..l.

    Every interior index of one parity must be a strict local minimum and
    every index of the other parity a strict local maximum; equivalently the
    consecutive differences on the interval are nonzero and alternate sign.
    """
    arr = np.asarray(u, dtype=float)
    if l is None:
        l = len(arr) - 1
    if k > l:
        raise ValueError(f"need k <= l, got k={k}, l={l}")
    if not (0 <= k and l < len(arr)):
        raise IndexError(f"interval {k}..{l} outside sequence of {len(arr)} points")
    if l - k < 2:
        raise UndefinedIntervalError(f"interval {k}..{l} has fewer than 3 points")
    seg = arr[k : l + 1]
    # Each step's sign from comparisons, so no product of steps can overflow;
    # a tie or a NaN gives 0 and breaks the alternation.
    sign = (seg[1:] > seg[:-1]).astype(int) - (seg[1:] < seg[:-1])
    return bool(np.all(sign[:-1] * sign[1:] < 0))


def max_step_change(u: Sequence[float]) -> float:
    """max |u_{i+1} - u_i| over the whole sequence.

    Satisfies |f(u) - f(v)| <= 2 ||u - v||_C: each step change moves by at
    most twice the pointwise perturbation.
    """
    arr = np.asarray(u, dtype=float)
    if len(arr) < 2:
        raise ValueError(f"need at least 2 points, got {len(arr)}")
    return float(np.max(np.abs(np.diff(arr))))


# ---------------------------------------------------------------------------
# 3D extrema and sharpness
# ---------------------------------------------------------------------------


def _region_or_interior(u: MeshFunction, region: Region3D | None) -> Region3D:
    N = u.mesh.N
    if region is None:
        return ((1, N - 2), (1, N - 2), (1, N - 2))
    return region


def _box(region: Region3D, first: int, last: int) -> tuple[slice, slice, slice]:
    """Slices of the (N, N, N) grid holding the cells of region whose every
    index lies in first..last; an axis with no such cell gets an empty slice.
    first..last = 1..N-2 are the cells with all six neighbors in the mesh."""
    return tuple(slice(max(lo, first), max(lo, first, min(hi, last) + 1)) for lo, hi in region)


def _extrema(
    u: MeshFunction, region: Region3D | None
) -> tuple[tuple[slice, slice, slice], np.ndarray]:
    """The full-neighbor box of region (None: the interior) and the mask of
    its strict extrema, which has the box's shape."""
    if not isinstance(u.mesh, Mesh3D):
        raise TypeError("extremum counting is defined for 3D mesh functions")
    box = _box(_region_or_interior(u, region), 1, u.mesh.N - 2)
    g = u.as_grid()
    center = g[box]
    is_max = np.ones(center.shape, dtype=bool)
    is_min = np.ones(center.shape, dtype=bool)
    for axis in range(3):
        for shift in (1, -1):
            nbr = list(box)
            nbr[axis] = slice(box[axis].start + shift, box[axis].stop + shift)
            is_max &= center > g[tuple(nbr)]
            is_min &= center < g[tuple(nbr)]
    return box, is_max | is_min


def _extremum_index(u: MeshFunction, region: Region3D | None) -> np.ndarray:
    """(m, 3) array of the (i, j, k) cells counted by count_extrema_3d, in
    flat-index order."""
    box, mask = _extrema(u, region)
    # Nonzero over the transposed mask walks k slowest and i fastest, which
    # is flat-index order (flat = i + N*j + N*N*k).
    kk, jj, ii = np.nonzero(mask.T)
    return np.stack([ii + box[0].start, jj + box[1].start, kk + box[2].start], axis=1)


def count_extrema_3d(u: MeshFunction, region: Region3D | None = None) -> int:
    """Strict local extrema of u over the region.

    A cell counts when it is strictly greater than all six axis neighbors or
    strictly less than all six; ties never count. Cells lacking a full
    neighbor set (mesh-edge cells) are excluded, so the default region is the
    interior. An empty region yields zero.
    """
    return int(np.count_nonzero(_extrema(u, region)[1]))


def extremum_cells(u: MeshFunction, region: Region3D | None = None) -> list[tuple[int, int, int]]:
    """The (i, j, k) triples counted by count_extrema_3d, in flat-index order."""
    return list(map(tuple, _extremum_index(u, region).tolist()))


def _sharpness(g: np.ndarray, idx: np.ndarray) -> tuple[float, float]:
    """(a, b) over the full-neighbor cells idx, an (m, 3) array, of grid g."""
    i, j, k = idx.T
    c = g[i, j, k]
    jumps = np.abs(np.stack([
        c - g[i + 1, j, k], c - g[i - 1, j, k],
        c - g[i, j + 1, k], c - g[i, j - 1, k],
        c - g[i, j, k + 1], c - g[i, j, k - 1],
    ]))
    # fmax passes over a cell whose jumps hold a NaN, so a and b stay numbers.
    a = np.fmax.reduce(jumps.max(axis=0), initial=0.0)
    b = np.fmax.reduce(jumps.min(axis=0), initial=0.0)
    return float(a), float(b)


def sharpness_metrics(
    u: MeshFunction, cells: Iterable[tuple[int, int, int]] | Region3D
) -> tuple[float, float]:
    """(a, b) over a set S of cells: a = max over S of the largest absolute
    jump to a six-neighbor, b = max over S of the smallest such jump.

    S may be given as explicit (i, j, k) triples or as a region, in which
    case every full-neighbor cell of the region belongs to S.
    """
    if not isinstance(u.mesh, Mesh3D):
        raise TypeError("sharpness metrics are defined for 3D mesh functions")
    N, g = u.mesh.N, u.as_grid()
    if isinstance(cells, tuple) and len(cells) == 3 and all(
        isinstance(r, tuple) and len(r) == 2 for r in cells
    ):
        box = _box(cells, 1, N - 2)
        idx = np.argwhere(np.ones(g[box].shape, dtype=bool)) + [s.start for s in box]
    else:
        idx = np.asarray(list(cells))
    if idx.size == 0:
        raise EmptySetError("sharpness metrics are undefined for an empty set")
    if idx.ndim != 2 or idx.shape[1] != 3:
        raise ValueError("cells must be (i, j, k) triples")
    lacking = ((idx < 1) | (idx > N - 2)).any(axis=1)
    if lacking.any():
        i, j, k = idx[np.argmax(lacking)]
        raise ValueError(f"cell ({i}, {j}, {k}) lacks a full six-neighbor set")
    return _sharpness(g, idx)


# ---------------------------------------------------------------------------
# Damping-ratio interval bound
# ---------------------------------------------------------------------------


def damping_bound_interval(
    delta: float,
    k: float,
    epsilon: float,
    lipschitz: float = STEP_CHANGE_LIPSCHITZ,
    norm_m: float = 1.0,
) -> tuple[float, float]:
    """Open interval (lo, hi) containing f(Mv)/delta.

        lo = (k*delta - K*||M||*eps) / (delta + eps)
        hi = (k*delta + K*||M||*eps) / (delta - eps)

    delta is the base solution's roughness f(u) > 0, k the smoother's
    damping factor f(Mu)/f(u), epsilon > 0 the C-norm distance between the
    base and auxiliary solutions, lipschitz the Lipschitz constant K of f
    (2 for max_step_change) and norm_m the C-norm of the smoother (1 for the
    averaging smoothers). An input out of range raises ValueError; a failing
    premise K*||M||*eps < k*delta or eps < delta raises
    PremiseViolationError with the inequality spelled out.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0 < k < 1:
        raise ValueError(f"k must lie in (0, 1), got {k}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    spread = lipschitz * norm_m * epsilon
    if not spread < k * delta:
        raise PremiseViolationError(
            f"premise K*||M||*eps < k*delta fails: {spread:.6g} >= {k * delta:.6g}"
        )
    if not epsilon < delta:
        raise PremiseViolationError(f"premise eps < delta fails: {epsilon:.6g} >= {delta:.6g}")
    return (k * delta - spread) / (delta + epsilon), (k * delta + spread) / (delta - epsilon)


@dataclass(frozen=True)
class DampingCheck:
    """Record of one end-to-end verification of the damping-ratio bound."""

    delta: float
    k: float
    epsilon: float
    k1: float
    lo: float
    hi: float
    premises_hold: bool
    inside: bool
    failed_premise: str = ""

    @property
    def passed(self) -> bool:
        return self.premises_hold and self.inside


def check_damping_bound(
    u: np.ndarray,
    v: np.ndarray,
    smooth: Callable[[np.ndarray], np.ndarray],
    roughness: Callable[[np.ndarray], float] = max_step_change,
    lipschitz: float = STEP_CHANGE_LIPSCHITZ,
    norm_m: float = 1.0,
) -> DampingCheck:
    """Verify the damping-ratio interval on a concrete (u, v) pair.

    Computes delta = f(u), k = f(Mu)/delta, eps = ||u - v||_C and
    k1 = f(Mv)/delta, checks the premises, and reports whether k1 falls in
    the predicted interval. v identical to u is the eps = 0 edge case: the
    interval collapses onto k and the check passes trivially.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    delta = float(roughness(u))
    if delta == 0.0:
        raise DegenerateInputError("base solution is flat: f(u) = 0")
    k = float(roughness(smooth(u))) / delta
    eps = norm_c(u - v)
    k1 = float(roughness(smooth(v))) / delta
    if eps == 0.0:
        return DampingCheck(
            delta=delta, k=k, epsilon=0.0, k1=k1, lo=k, hi=k,
            premises_hold=True, inside=bool(k1 == k),
        )
    try:
        lo, hi = damping_bound_interval(delta, k, eps, lipschitz, norm_m)
    except ValueError as exc:  # a PremiseViolationError is one
        return DampingCheck(
            delta=delta, k=k, epsilon=eps, k1=k1, lo=float("nan"), hi=float("nan"),
            premises_hold=False, inside=False, failed_premise=str(exc),
        )
    return DampingCheck(
        delta=delta, k=k, epsilon=eps, k1=k1, lo=lo, hi=hi,
        premises_hold=True, inside=bool(lo < k1 < hi),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    """Summary of the nonmonotonicity of one solution field."""

    f_value: float
    extremum_count: int
    sharpness_a: float
    sharpness_b: float
    region: str
    oscillates: bool | None = None


def report_1d(full_sequence: Sequence[float]) -> MonotonicityReport:
    """Monotonicity report for a full 1D node sequence (boundary included).

    Oscillation is detected over the interior nodes 1..n; sharpness uses the
    two-neighbor analog of the 3D pair.
    """
    arr = np.asarray(full_sequence, dtype=float)
    prev, mid, nxt = arr[:-2], arr[1:-1], arr[2:]
    strict = ((mid > prev) & (mid > nxt)) | ((mid < prev) & (mid < nxt))
    # Differences only at strict extrema, where no inf - inf can arise.
    left = np.abs(mid[strict] - prev[strict])
    right = np.abs(mid[strict] - nxt[strict])
    osc = None
    for lo, hi in ((1, len(arr) - 2), (0, len(arr) - 1)):
        try:
            osc = oscillates_point_to_point(arr, lo, hi)
            break
        except UndefinedIntervalError:
            continue
    return MonotonicityReport(
        f_value=max_step_change(arr),
        extremum_count=int(strict.sum()),
        sharpness_a=float(np.maximum(left, right).max(initial=0.0)),
        sharpness_b=float(np.minimum(left, right).max(initial=0.0)),
        region=f"nodes 0..{len(arr) - 1}",
        oscillates=osc,
    )


def report_3d(u: MeshFunction, region: Region3D | None = None) -> MonotonicityReport:
    """Monotonicity report for a 3D mesh function over a region: f_value over
    the region's cells in the mesh, the extrema over its full-neighbor cells."""
    region = _region_or_interior(u, region)
    idx = _extremum_index(u, region)
    g = u.as_grid()
    a, b = _sharpness(g, idx) if len(idx) else (0.0, 0.0)
    (i0, i1), (j0, j1), (k0, k1) = region
    sub = g[_box(region, 0, u.mesh.N - 1)]
    steps = [np.abs(np.diff(sub, axis=ax)) for ax in range(3)]
    f_val = max((float(s.max()) for s in steps if s.size), default=0.0)
    return MonotonicityReport(
        f_value=f_val,
        extremum_count=len(idx),
        sharpness_a=a,
        sharpness_b=b,
        region=f"cells [{i0}..{i1}]x[{j0}..{j1}]x[{k0}..{k1}]",
        oscillates=None,
    )


__all__ = [
    "DampingCheck",
    "DegenerateInputError",
    "EmptySetError",
    "MonotonicityReport",
    "PremiseViolationError",
    "Region3D",
    "STEP_CHANGE_LIPSCHITZ",
    "UndefinedIntervalError",
    "check_damping_bound",
    "count_extrema_3d",
    "damping_bound_interval",
    "extremum_cells",
    "max_step_change",
    "oscillates_point_to_point",
    "report_1d",
    "report_3d",
    "sharpness_metrics",
]
