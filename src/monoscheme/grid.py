"""Regular 1D/3D meshes and the mesh functions on them.

1D unknowns are node-centered: x_i = a + i*h for i = 0..n+1, with the n
interior nodes carrying unknowns and the two end nodes carrying Dirichlet
data. 3D unknowns are cell-centered: N^3 cubic cells of side h = L/N with
centers at ((i+1/2)h, (j+1/2)h, (k+1/2)h).

All types are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np


def check_domain(a: float, b: float) -> None:
    """Raise ValueError unless [a, b] is finite and nonempty."""
    # False for NaN and infinite ends as well as for b <= a.
    if not -np.inf < a < b < np.inf:
        raise ValueError(f"domain [a, b] = [{a}, {b}] must be finite with a < b")


def _check_count(name: str, value) -> int:
    try:  # numpy integers pass; floats, 3.0 included, do not
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Mesh1D:
    """Regular 1D mesh on a finite [a, b] with n interior nodes and step
    h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if _check_count("n", self.n) < 1:
            raise ValueError(f"need at least one interior node, got n={self.n}")
        check_domain(self.a, self.b)

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n + 1)

    def interior_x(self) -> np.ndarray:
        """Coordinates of the n interior nodes."""
        return self.a + self.h * np.arange(1, self.n + 1)

    def all_x(self) -> np.ndarray:
        """Coordinates of all n+2 nodes including the boundary ones."""
        return self.a + self.h * np.arange(0, self.n + 2)


@dataclass(frozen=True)
class Mesh3D:
    """Regular mesh of N^3 cubic cells filling a cube of side L; h = L/N."""

    L: float
    N: int

    def __post_init__(self):
        # False for NaN as well as for L <= 0 and L = inf.
        if not 0.0 < self.L < np.inf:
            raise ValueError(f"cube side must be positive and finite, got L={self.L}")
        if _check_count("N", self.N) < 2:
            raise ValueError(f"need at least 2 cells per direction, got N={self.N}")

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def cell_count(self) -> int:
        return self.N**3

    def axis_centers(self) -> np.ndarray:
        """The N cell-center coordinates shared by all three axes."""
        return (np.arange(self.N) + 0.5) * self.h


Mesh = Union[Mesh1D, Mesh3D]


@dataclass(frozen=True)
class MeshFunction:
    """Scalar values on a mesh: one per interior node (1D) or per cell (3D).

    Built from the flat vector (n values in 1D, N^3 in 3D) or, in 3D, from
    the (N, N, N) grid indexed [i, j, k] that as_grid returns; a strided or
    broadcast view will do. The values are copied once, stored flat,
    i-fastest (flat = i + N*j + N*N*k), and frozen, so they share no memory
    with the input; operations return new MeshFunctions.
    """

    mesh: Mesh
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        # The one copy is column-major, so its flat ravel below is a view.
        vals = np.array(self.values, dtype=float, order="F")
        m = self.mesh
        shapes = [(m.n,)] if isinstance(m, Mesh1D) else [(m.cell_count,), (m.N,) * 3]
        if vals.shape not in shapes:
            raise ValueError(f"expected shape {' or '.join(map(str, shapes))}, got {vals.shape}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals.ravel(order="F"))

    def as_grid(self) -> np.ndarray:
        """3D values as an (N, N, N) array indexed [i, j, k]."""
        if not isinstance(self.mesh, Mesh3D):
            raise TypeError("as_grid is only defined for 3D mesh functions")
        N = self.mesh.N
        return self.values.reshape((N, N, N), order="F")

    def with_values(self, values: np.ndarray) -> "MeshFunction":
        return MeshFunction(self.mesh, values)

    def __reduce__(self):
        return _unpickled, (self.mesh, self.values)


def _unpickled(mesh: Mesh, values: np.ndarray) -> MeshFunction:
    """A pickled MeshFunction back: its values were checked and copied when
    it was made, and their unpickled array is its own, so it is frozen
    again and not copied a second time."""
    values.setflags(write=False)
    mf = object.__new__(MeshFunction)
    mf.__dict__.update(mesh=mesh, values=values)
    return mf


@dataclass(frozen=True)
class BoundaryData1D:
    """Dirichlet values at the two end nodes x_0 and x_{n+1}."""

    u0: float
    u_np1: float

    def __post_init__(self):
        if not (np.isfinite(self.u0) and np.isfinite(self.u_np1)):
            raise ValueError("boundary values must be finite")


def sample(mesh: Mesh, f: Callable[..., float]) -> MeshFunction:
    """Evaluate a pointwise function at every interior node (1D) or cell center (3D).

    In 3D, f is first called once on the broadcastable center arrays
    x[:, None, None], y[None, :, None], z[None, None, :]; a callable that
    accepts arrays must therefore be elementwise. One that raises TypeError
    or ValueError on arrays, as math.sin does, is called once per cell.
    """
    if isinstance(mesh, Mesh1D):
        vals = np.array([f(x) for x in mesh.interior_x()], dtype=float)
        return MeshFunction(mesh, vals)
    centers = mesh.axis_centers()
    axes = (centers[:, None, None], centers[None, :, None], centers[None, None, :])
    try:
        grid = np.broadcast_to(np.asarray(f(*axes), dtype=float), (mesh.N,) * 3)
    except (TypeError, ValueError):
        grid = np.vectorize(f, otypes=[float])(*axes)
    return MeshFunction(mesh, grid)


def with_boundary(u: MeshFunction, bc: BoundaryData1D) -> np.ndarray:
    """Full node sequence (u0, interior values, u_{n+1}) of length n+2."""
    if not isinstance(u.mesh, Mesh1D):
        raise TypeError("with_boundary is only defined for 1D mesh functions")
    return np.concatenate(([bc.u0], u.values, [bc.u_np1]))


def norm_c(values: np.ndarray) -> float:
    """Max-norm over all components (the C-norm)."""
    arr = np.asarray(values, dtype=float)
    return float(np.max(np.abs(arr))) if arr.size else 0.0
