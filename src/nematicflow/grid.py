"""Node-centered rectangular grid, field containers, and difference operators.

The domain is a rectangle [0, lx] x [0, ly] sampled at nx x ny nodes
*including* the boundary ring, so the spacing is hx = lx/(nx-1).  All fields
are plain float64 arrays indexed [i, j] with x_i = i*hx, y_j = j*hy.

First derivatives use second-order central differences in the interior and
second-order one-sided stencils on the boundary ring; the Laplacian is the
standard 5-point stencil, defined on interior nodes only.  The interior
stencils live here alone: ``row_dx``, ``row_dy`` and ``row_lap`` evaluate
them on the interior rows of a (..., nx, ny) stack, whose callers read the
interior columns ``[..., 1:-1]``; ``interior_lap`` is those of ``row_lap``,
and ``row_stencils`` memoizes all three for a read-only director.  The
public field constructors check shape and finiteness; ``trusted_field``
builds fields from already checked data without checks.

Besides the raw differences, ``ginzburg_landau`` integrates the potential
F(d) = (|d|^2 - 1)^2 / (4 eps^2), which relaxes the unit-length constraint on
the director field, and forms lap_h d - f(d) with its gradient, the
penalization f(d) = (|d|^2 - 1) d / eps^2: the one place either is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform node-centered grid on [0, lx] x [0, ly], boundary included."""

    nx: int
    ny: int
    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self) -> None:
        if self.nx < 8 or self.ny < 8:
            raise ValueError(f"grid must be at least 8x8, got {self.nx}x{self.ny}")
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("physical extents must be positive")

    @property
    def hx(self) -> float:
        return self.lx / (self.nx - 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.ny - 1)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def n_boundary(self) -> int:
        return 2 * (self.nx + self.ny) - 4

    def xs(self) -> np.ndarray:
        return np.linspace(0.0, self.lx, self.nx)

    def ys(self) -> np.ndarray:
        return np.linspace(0.0, self.ly, self.ny)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.xs(), self.ys(), indexing="ij")


@lru_cache(maxsize=32)
def _boundary_index_arrays(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays of the boundary ring, counterclockwise from (0,0).

    Order: bottom edge j=0 (i ascending), right edge i=nx-1 (j ascending),
    top edge j=ny-1 (i descending), left edge i=0 (j descending).
    """
    ii = np.concatenate([
        np.arange(nx),
        np.full(ny - 1, nx - 1),
        np.arange(nx - 2, -1, -1),
        np.zeros(ny - 2, dtype=int),
    ])
    jj = np.concatenate([
        np.zeros(nx, dtype=int),
        np.arange(1, ny),
        np.full(nx - 1, ny - 1),
        np.arange(ny - 2, 0, -1),
    ])
    return ii, jj


def boundary_indices(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    return _boundary_index_arrays(grid.nx, grid.ny)


def boundary_segment_lengths(grid: Grid) -> np.ndarray:
    """Length of the ring segment from each boundary node to the next (CCW),
    the last closing the ring at node (0,0)."""
    ii, jj = boundary_indices(grid)
    x = ii * grid.hx
    y = jj * grid.hy
    return np.hypot(np.diff(x, append=x[0]), np.diff(y, append=y[0]))


def boundary_arclength(grid: Grid) -> np.ndarray:
    """Cumulative arclength of each boundary node, starting at node (0,0)."""
    seg = boundary_segment_lengths(grid)
    return np.concatenate([[0.0], np.cumsum(seg[:-1])])


def extract_ring(data: np.ndarray) -> np.ndarray:
    """Boundary ring values, CCW from (0,0): (nb,) of a (nx, ny) array, or
    (nb, c) of a (c, nx, ny) stack, the layout ``set_ring`` writes."""
    ii, jj = _boundary_index_arrays(*data.shape[-2:])
    return data[..., ii, jj].T


def set_ring(data: np.ndarray, values: np.ndarray) -> None:
    """Write CCW-ordered boundary values in place: (nb,) values into a
    (nx, ny) array, or (nb, c) values into a (c, nx, ny) stack.  The four
    edges are written as slices, which is faster than an index scatter."""
    nx, ny = data.shape[-2:]
    v = np.asarray(values).T
    data[..., :, 0] = v[..., :nx]
    data[..., -1, 1:] = v[..., nx : nx + ny - 1]
    data[..., -2::-1, -1] = v[..., nx + ny - 1 : 2 * nx + ny - 2]
    data[..., 0, -2:0:-1] = v[..., 2 * nx + ny - 2 :]


@dataclass
class ScalarField2D:
    """A scalar function sampled at every grid node."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise ValueError(f"data shape {self.data.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField2D":
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField2D":
        X, Y = grid.mesh()
        return cls(grid, np.asarray(fn(X, Y), dtype=float))

    def copy(self) -> "ScalarField2D":
        return ScalarField2D(self.grid, self.data.copy())


@dataclass
class VectorField2D:
    """An R^2-valued function; data has shape (2, nx, ny)."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != (2, *self.grid.shape):
            raise ValueError(f"data shape {self.data.shape} != (2, {self.grid.nx}, {self.grid.ny})")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("field contains non-finite values")

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField2D":
        return cls(grid, np.zeros((2, *grid.shape)))

    @classmethod
    def from_functions(cls, grid: Grid, f1, f2) -> "VectorField2D":
        X, Y = grid.mesh()
        return cls(grid, np.stack([np.asarray(f1(X, Y), float), np.asarray(f2(X, Y), float)]))

    def magnitude(self) -> np.ndarray:
        return np.sqrt(self.data[0] ** 2 + self.data[1] ** 2)

    def copy(self) -> "VectorField2D":
        return VectorField2D(self.grid, self.data.copy())


@dataclass
class BoundaryTrace:
    """R^2 values on the boundary ring, ordered CCW from node (0,0)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_boundary, 2):
            raise ValueError(
                f"trace shape {self.values.shape} != ({self.grid.n_boundary}, 2)"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trace contains non-finite values")

    @classmethod
    def constant(cls, grid: Grid, vec) -> "BoundaryTrace":
        v = np.broadcast_to(np.asarray(vec, float), (grid.n_boundary, 2)).copy()
        return cls(grid, v)

    @classmethod
    def from_field(cls, u: VectorField2D) -> "BoundaryTrace":
        return cls(u.grid, extract_ring(u.data))


def trusted_field(cls, grid: Grid, data: np.ndarray):
    """A ``ScalarField2D`` or ``VectorField2D`` on ``data``, which must already
    have the class's shape and finite values: nothing is checked."""
    field = object.__new__(cls)
    field.grid = grid
    field.data = data
    return field


# ---------------------------------------------------------------------------
# difference operators


def _ddx(data: np.ndarray, hx: float) -> np.ndarray:
    out = np.empty_like(data)
    out[1:-1, :] = (data[2:, :] - data[:-2, :]) / (2.0 * hx)
    out[0, :] = (-3.0 * data[0, :] + 4.0 * data[1, :] - data[2, :]) / (2.0 * hx)
    out[-1, :] = (3.0 * data[-1, :] - 4.0 * data[-2, :] + data[-3, :]) / (2.0 * hx)
    return out


def _ddy(data: np.ndarray, hy: float) -> np.ndarray:
    out = np.empty_like(data)
    out[:, 1:-1] = (data[:, 2:] - data[:, :-2]) / (2.0 * hy)
    out[:, 0] = (-3.0 * data[:, 0] + 4.0 * data[:, 1] - data[:, 2]) / (2.0 * hy)
    out[:, -1] = (3.0 * data[:, -1] - 4.0 * data[:, -2] + data[:, -3]) / (2.0 * hy)
    return out


def gradient(f: ScalarField2D) -> VectorField2D:
    """Discrete (df/dx, df/dy); central interior, one-sided second order on the ring."""
    g = f.grid
    return VectorField2D(g, np.stack([_ddx(f.data, g.hx), _ddy(f.data, g.hy)]))


def divergence(u: VectorField2D) -> ScalarField2D:
    """Discrete du1/dx + du2/dy with the same stencils as ``gradient``."""
    g = u.grid
    return ScalarField2D(g, _ddx(u.data[0], g.hx) + _ddy(u.data[1], g.hy))


# The stencils scale by reciprocal spacings (an array multiply costs about
# half an array divide) and run on whole interior rows, the contiguous block
# data[..., 1:-1, :], where a y-shift is a flat shift by one node: each
# operand is one contiguous run per component, not nx-2 short ones.  That
# shift wraps between rows, so the two ring columns of a row result hold
# finite values of no meaning, and only its columns [..., 1:-1] are read.


def _flat(data: np.ndarray) -> np.ndarray:
    """(..., nx ny) view of a (..., nx, ny) stack (a copy if the rows are not contiguous)."""
    return data.reshape(*data.shape[:-2], data.shape[-2] * data.shape[-1])


def row_dx(data: np.ndarray, hx: float) -> np.ndarray:
    """Central x-difference on the interior rows of a (..., nx, ny) stack."""
    return (data[..., 2:, :] - data[..., :-2, :]) * (0.5 / hx)


def row_dy(data: np.ndarray, hy: float) -> np.ndarray:
    """Central y-difference on the interior rows of a (..., nx, ny) stack;
    its ring columns are not read."""
    nx, ny = data.shape[-2:]
    f = _flat(data)
    n = (nx - 1) * ny
    out = (f[..., ny + 1 : n + 1] - f[..., ny - 1 : n - 1]) * (0.5 / hy)
    return out.reshape(*data.shape[:-2], nx - 2, ny)


def row_lap(data: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """5-point Laplacian on the interior rows of a (..., nx, ny) stack; its
    ring columns are not read."""
    nx, ny = data.shape[-2:]
    f = _flat(data)
    n = (nx - 1) * ny
    c2 = 2.0 * f[..., ny:n]
    # (a - c2 + b) hx^-2 + (c - c2 + e) hy^-2, in that order, in two buffers
    out = f[..., 2 * ny :] - c2
    out += f[..., : n - ny]
    out *= hx**-2
    y_part = np.subtract(f[..., ny + 1 : n + 1], c2, out=c2)
    y_part += f[..., ny - 1 : n - 1]
    y_part *= hy**-2
    out += y_part
    return out.reshape(*data.shape[:-2], nx - 2, ny)


def interior_lap(data: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """5-point Laplacian at interior nodes of a (..., nx, ny) stack."""
    return row_lap(data, hx, hy)[..., 1:-1]


def one_slot_memo(fn):
    """Memoize ``fn(field)`` for the last field whose array nobody can write.

    The key is the identity of the field's data array and its grid.  Only a
    read-only array that owns its memory is cached: no write can change it
    behind the memo, and the slot keeps it alive, so its identity is not
    reused.  A writable array is evaluated afresh on every call.  The
    result, a tuple of arrays, is shared between callers and marked read-only.
    """
    last = None

    @wraps(fn)
    def memo(field):
        nonlocal last
        data = field.data
        entry = last
        if entry is not None and entry[0] is data and entry[1] == field.grid:
            return entry[2]
        result = fn(field)
        if not data.flags.writeable and data.base is None:
            for a in result:
                a.flags.writeable = False
            last = (data, field.grid, result)
        return result

    return memo


@one_slot_memo
def row_stencils(field: "VectorField2D") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(dx, dy, lap) of a (2, nx, ny) field on its interior rows, each
    (2, nx-2, ny); their interior columns [..., 1:-1] are the interior values.

    A state's director is read-only, so its stencils are evaluated once and
    shared by the elastic stress, the energy record and the next step's
    advection."""
    g = field.grid
    d = field.data
    return row_dx(d, g.hx), row_dy(d, g.hy), row_lap(d, g.hx, g.hy)


def _lap_interior(data: np.ndarray, hx: float, hy: float) -> np.ndarray:
    """5-point Laplacian on interior nodes; boundary rows of the output are 0."""
    out = np.zeros_like(data)
    out[..., 1:-1, 1:-1] = interior_lap(data, hx, hy)
    return out


def laplacian(f: ScalarField2D) -> ScalarField2D:
    """5-point Laplacian at interior nodes; boundary nodes of the output are 0."""
    g = f.grid
    return ScalarField2D(g, _lap_interior(f.data, g.hx, g.hy))


def stress_rows(d: "VectorField2D") -> np.ndarray:
    """Tensor form of the director stress divergence on the interior rows,
    (2, nx-2, ny): component i = sum_k (lap d_k) d_i d_k; its ring columns
    are not read.

    This is the non-gradient part of div(grad d (x) grad d); the gradient part
    is absorbed into the pressure.  The momentum equation subtracts lambda
    times this field.
    """
    dx, dy, lap = row_stencils(d)
    out = np.empty_like(lap)
    sx = lap * dx
    np.add(sx[0], sx[1], out=out[0])
    sy = lap * dy
    np.add(sy[0], sy[1], out=out[1])
    return out


def ginzburg_landau(
    grid: Grid, d: np.ndarray, lap: np.ndarray, eps: float
) -> tuple[np.ndarray, float, np.ndarray]:
    """(|d|^2, int F(d), lap_h d - f(d)) of a (2, nx, ny) director ``d``.

    ``lap`` is the caller's 5-point Laplacian of d at interior nodes,
    (2, nx-2, ny-2), and lap_h d - f(d) is taken there; int F(d) takes the
    trapezoid weights.  The energy record and the steady solver both read
    these, so they agree on energies and stationary residuals bit for bit.
    """
    mag_sq = d[0] ** 2 + d[1] ** 2
    bulk = mag_sq - 1.0
    potential = float(np.vdot(quad_weights(grid) * bulk, bulk)) / (4.0 * eps**2)
    return mag_sq, potential, lap - (bulk[1:-1, 1:-1] / eps**2) * d[:, 1:-1, 1:-1]


# ---------------------------------------------------------------------------
# quadrature


@lru_cache(maxsize=32)
def _quad_weights_cached(grid: Grid) -> np.ndarray:
    hx, hy = grid.hx, grid.hy
    wx = np.full(grid.nx, hx)
    wx[0] = wx[-1] = 0.5 * hx
    wy = np.full(grid.ny, hy)
    wy[0] = wy[-1] = 0.5 * hy
    w = np.outer(wx, wy)
    w.setflags(write=False)
    return w


def quad_weights(grid: Grid) -> np.ndarray:
    """Trapezoidal node weights on the full rectangle (cached, read-only)."""
    return _quad_weights_cached(grid)


# ---------------------------------------------------------------------------
# random smooth fields


def random_sine_series(grid: Grid, rng: np.random.Generator, modes: int) -> np.ndarray:
    """sum_{kx, ky <= modes} c sin(pi kx x/lx) sin(pi ky y/ly), c ~ N(0, 1)/(kx^2 + ky^2).

    A smooth scalar with zero ring values; coefficients are drawn kx-major.
    The sines are evaluated once per mode on the 1-D coordinates x/lx and
    y/ly, 2 * modes calls in all, and each term is their outer product: the
    same products in the same order as on a mesh, so bit for bit the sum a
    mesh evaluation gives.
    """
    xn, yn = grid.xs() / grid.lx, grid.ys() / grid.ly
    sx = [np.sin(np.pi * k * xn) for k in range(1, modes + 1)]
    sy = [np.sin(np.pi * k * yn) for k in range(1, modes + 1)]
    out = np.zeros(grid.shape)
    for kx in range(1, modes + 1):
        for ky in range(1, modes + 1):
            c = rng.standard_normal() / (kx**2 + ky**2)
            out += (c * sx[kx - 1])[:, None] * sy[ky - 1][None, :]
    return out
