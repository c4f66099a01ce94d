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
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .grid import MeshFunction, norm_c

#: Lipschitz constant of max_step_change in the C-norm.
STEP_CHANGE_LIPSCHITZ = 2.0

Region3D = tuple[tuple[int, int], tuple[int, int], tuple[int, int]]


# ---------------------------------------------------------------------------
# 1D oscillation and roughness
# ---------------------------------------------------------------------------


def oscillates_point_to_point(u: Sequence[float], k: int = 0, l: int | None = None) -> bool:
    """True iff u alternates strict local maxima and minima on k..l.

    Every inner index of k..l must be a strict local extremum, by the rule the
    3D counts use; equivalently the consecutive differences on the interval are nonzero and
    alternate sign. A tie or a NaN breaks the alternation.
    """
    arr = np.asarray(u, dtype=float)
    if l is None:
        l = len(arr) - 1
    if k > l:
        raise ValueError(f"need k <= l, got k={k}, l={l}")
    if not (0 <= k and l < len(arr)):
        raise IndexError(f"interval {k}..{l} outside sequence of {len(arr)} points")
    if l - k < 2:
        raise ValueError(f"interval {k}..{l} has fewer than 3 points")
    return bool(_extrema(arr, (slice(k + 1, l),)).all())


def max_step_change(u: Sequence[float]) -> float:
    """max |u_{i+1} - u_i| over the whole sequence.

    Satisfies |f(u) - f(v)| <= 2 ||u - v||_C: each step change moves by at
    most twice the pointwise perturbation.
    """
    arr = np.asarray(u, dtype=float)
    if len(arr) < 2:
        raise ValueError(f"need at least 2 points, got {len(arr)}")
    return _largest_step(arr)


# ---------------------------------------------------------------------------
# The three measures, for an array of any dimension, and their 3D forms
# ---------------------------------------------------------------------------


def _box(region: Sequence[tuple[int, int]], shape: tuple[int, ...], margin: int) -> tuple[slice, ...]:
    """Slices of a grid of the given shape holding the cells of region, one
    (lo, hi) pair per axis, that lie at least margin cells inside every face;
    an axis with no such cell gets an empty slice. Margin 1 gives the cells
    with both neighbors along every axis, margin 0 the cells in the grid."""
    return tuple(slice(max(lo, margin), max(lo, margin, min(hi, n - 1 - margin) + 1))
                 for (lo, hi), n in zip(region, shape))


def _neighbors(g: np.ndarray, at: tuple) -> Iterator[np.ndarray]:
    """g at the 2 * g.ndim axis neighbors of the cells at, a tuple of one
    slice or one index array per axis."""
    for axis in range(g.ndim):
        for shift in (1, -1):
            nbr, a = list(at), at[axis]
            nbr[axis] = slice(a.start + shift, a.stop + shift) if isinstance(a, slice) else a + shift
            yield g[tuple(nbr)]


def _extrema(g: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """Mask, of g[box]'s shape, of its strict extrema: the cells strictly
    greater than every axis neighbor or strictly less than every one. Every
    cell of box must have both neighbors along each axis."""
    center = g[box]
    is_max = np.ones(center.shape, dtype=bool)
    is_min = np.ones(center.shape, dtype=bool)
    for nbr in _neighbors(g, box):
        is_max &= center > nbr
        is_min &= center < nbr
    return is_max | is_min


def _extremum_index(g: np.ndarray, region: Sequence[tuple[int, int]]) -> np.ndarray:
    """(m, g.ndim) array of the strict extrema among region's full-neighbor
    cells, first axis fastest: flat-index order for a 3D grid."""
    box = _box(region, g.shape, 1)
    # argwhere over the transposed mask walks the last axis slowest; reversed
    # columns give (i, j, k) with i fastest (flat = i + N*j + N*N*k).
    return np.argwhere(_extrema(g, box).T)[:, ::-1] + [s.start for s in box]


def _jumps(x: np.ndarray, y: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """|x - y| and its max along axis (over all when None; 0 when empty). A
    jump between equal values, the same infinity included, is 0, so a NaN
    comes from NaN data only; one past the largest float is inf. The caller
    holds numpy's overflow and invalid-value warnings."""
    jumps = x - y
    np.abs(jumps, out=jumps)  # in place: the callers hold one more array of this size
    top = jumps.max(axis=axis, initial=0.0)
    # inf - inf is NaN; finite data never pays for the fix, and a 0-d max tests it for free.
    nan = top != top
    if nan if axis is None else nan.any():
        jumps = np.where(x == y, 0.0, jumps)
        top = jumps.max(axis=axis, initial=0.0)
    return jumps, top


def _sharpness(g: np.ndarray, at: tuple) -> tuple[float, float]:
    """(a, b) over the full-neighbor cells at of g, a tuple of one slice or
    one index array per axis; (0, 0) when there are none."""
    with np.errstate(over="ignore", invalid="ignore"):
        jumps, top = _jumps(g[at], np.stack(list(_neighbors(g, at))), axis=0)
    # fmax passes over a cell whose jumps hold a NaN, so a and b stay numbers.
    a = np.fmax.reduce(top, axis=None, initial=0.0)
    b = np.fmax.reduce(jumps.min(axis=0), axis=None, initial=0.0)
    return float(a), float(b)


def _largest_step(g: np.ndarray) -> float:
    """max over the axes of |step to the next cell| in g; 0 when it has none."""
    largest = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in range(g.ndim):
            head = (slice(None),) * axis
            step = _jumps(g[head + (slice(1, None),)], g[head + (slice(-1),)])[1]
            largest = np.maximum(largest, step)  # a NaN step stays NaN
    return float(largest)


def _grid_region(u: MeshFunction, region: Region3D | None) -> tuple[np.ndarray, Region3D]:
    """u's (N, N, N) grid (TypeError for a 1D u) and region, None giving the interior."""
    g = u.as_grid()
    return g, (((1, len(g) - 2),) * 3 if region is None else region)


def count_extrema_3d(u: MeshFunction, region: Region3D | None = None) -> int:
    """Strict local extrema of u over the region.

    A cell counts when it is strictly greater than all six axis neighbors or
    strictly less than all six; ties never count. Cells lacking a full
    neighbor set (mesh-edge cells) are excluded, so the default region is the
    interior. An empty region yields zero.
    """
    g, region = _grid_region(u, region)
    return int(np.count_nonzero(_extrema(g, _box(region, g.shape, 1))))


def extremum_cells(u: MeshFunction, region: Region3D | None = None) -> list[tuple[int, int, int]]:
    """The (i, j, k) triples counted by count_extrema_3d, in flat-index order."""
    return list(map(tuple, _extremum_index(*_grid_region(u, region)).tolist()))


def sharpness_metrics(
    u: MeshFunction, cells: Iterable[tuple[int, int, int]] | Region3D
) -> tuple[float, float]:
    """(a, b) over a set S of cells: a = max over S of the largest absolute
    jump to a six-neighbor, b = max over S of the smallest such jump.

    S may be given as explicit (i, j, k) triples or as a region, in which
    case every full-neighbor cell of the region belongs to S.
    """
    g = u.as_grid()
    if isinstance(cells, tuple) and len(cells) == 3 and all(
        isinstance(r, tuple) and len(r) == 2 for r in cells
    ):
        box = _box(cells, g.shape, 1)
        if g[box].size:
            return _sharpness(g, box)
    else:
        idx = np.asarray(list(cells))
        if idx.size:
            if idx.ndim != 2 or idx.shape[1] != 3:
                raise ValueError("cells must be (i, j, k) triples")
            lacking = ((idx < 1) | (idx > len(g) - 2)).any(axis=1)
            if lacking.any():
                i, j, k = idx[np.argmax(lacking)]
                raise ValueError(f"cell ({i}, {j}, {k}) lacks a full six-neighbor set")
            return _sharpness(g, tuple(idx.T))
    raise ValueError("sharpness metrics are undefined for an empty set")


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
    averaging smoothers). An input out of range raises ValueError, and so
    does a failing premise K*||M||*eps < k*delta or eps < delta, with the
    inequality spelled out.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not 0 < k < 1:
        raise ValueError(f"k must lie in (0, 1), got {k}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    spread = lipschitz * norm_m * epsilon
    if not spread < k * delta:
        raise ValueError(f"premise K*||M||*eps < k*delta fails: {spread:.6g} >= {k * delta:.6g}")
    if not epsilon < delta:
        raise ValueError(f"premise eps < delta fails: {epsilon:.6g} >= {delta:.6g}")
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


def check_damping_bound(
    u: np.ndarray,
    v: np.ndarray,
    smooth: Callable[[np.ndarray], np.ndarray],
    lipschitz: float = STEP_CHANGE_LIPSCHITZ,
    norm_m: float = 1.0,
) -> DampingCheck:
    """Verify the damping-ratio interval on a concrete (u, v) pair.

    Computes delta = f(u), k = f(Mu)/delta, eps = ||u - v||_C and
    k1 = f(Mv)/delta, with f = max_step_change (u and v may have any
    dimension), checks the premises, and reports whether k1 falls in
    the predicted interval. v identical to u is the eps = 0 edge case: the
    interval collapses onto k and the check passes trivially.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    delta = max_step_change(u)
    if delta == 0.0:
        raise ValueError("base solution is flat: f(u) = 0")
    k = max_step_change(smooth(u)) / delta
    eps = norm_c(u - v)
    k1 = max_step_change(smooth(v)) / delta
    if eps == 0.0:
        return DampingCheck(
            delta=delta, k=k, epsilon=0.0, k1=k1, lo=k, hi=k,
            premises_hold=True, inside=bool(k1 == k),
        )
    try:
        lo, hi = damping_bound_interval(delta, k, eps, lipschitz, norm_m)
    except ValueError as exc:
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


def _report(g: np.ndarray, region: Sequence[tuple[int, int]], label: str,
            oscillates: bool | None = None) -> MonotonicityReport:
    """f_value over region's cells of g, the strict extrema and their
    sharpness over its full-neighbor cells."""
    idx = _extremum_index(g, region)
    a, b = _sharpness(g, tuple(idx.T))
    return MonotonicityReport(_largest_step(g[_box(region, g.shape, 0)]), len(idx), a, b,
                              label, oscillates)


def report_1d(full_sequence: Sequence[float]) -> MonotonicityReport:
    """Monotonicity report for a full 1D node sequence (boundary included).

    Oscillation is detected over the interior nodes 1..n, and is None when
    there are fewer than three of them; sharpness uses the two-neighbor
    analog of the 3D pair.
    """
    arr = np.asarray(full_sequence, dtype=float)
    n = len(arr) - 2
    if n < 0:
        raise ValueError(f"need at least 2 points, got {len(arr)}")
    osc = oscillates_point_to_point(arr, 1, n) if n >= 3 else None
    return _report(arr, ((0, n + 1),), f"nodes 0..{n + 1}", osc)


def report_3d(u: MeshFunction, region: Region3D | None = None) -> MonotonicityReport:
    """Monotonicity report for a 3D mesh function over a region: f_value over
    the region's cells in the mesh, the extrema over its full-neighbor cells."""
    g, region = _grid_region(u, region)
    (i0, i1), (j0, j1), (k0, k1) = region
    return _report(g, region, f"cells [{i0}..{i1}]x[{j0}..{j1}]x[{k0}..{k1}]")


__all__ = [
    "DampingCheck",
    "MonotonicityReport",
    "Region3D",
    "STEP_CHANGE_LIPSCHITZ",
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
