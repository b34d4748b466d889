"""Elliptic and parabolic solves on the node-centered grid.

Provides Dirichlet Poisson solves, backward-Euler heat steps and the velocity
projection enforcing the discrete incompressibility constraint.

Every constant-coefficient operator is a Kronecker sum of 1-D matrices, so
it is solved exactly by diagonalizing each 1-D factor once per grid
(tensor-product diagonalization: Lynch, Rice & Thomas, Numer. Math. 6,
1964).  A solve is then two small matrix products into the eigenbasis, one
diagonal multiply and two products back, whose first matrix carries the
transform's normalization.  Each cache is an ``lru_cache``: the eigensystems
``_dirichlet_eigenvalues``, ``_heat_inverse`` (per coefficient) and
``_projection_eigensystem`` (a sign pattern, no matrix) on the frozen
``Grid``, ``_sine_basis`` and ``_edge_indices`` on its node counts;
``clear_cache`` empties all five.

Every solve, the projection included, is diagonal in one discrete sine
basis, applied as dense sine-transform matrices, which beat FFTs at these
sizes.  Dirichlet ring data enter only the first and last interior rows and
columns, so their transform is a rank-four product (``ring_transform``).
Every solve with ring data goes through it: a Poisson solve or a harmonic
extension is one back-transform of coefficients divided by the eigenvalues
of the 5-point Laplacian, a heat step with a trace is one coefficient update
(``heat_coefficient_step``, or ``heat_solve_interior`` given the
coefficients of the trace's harmonic extension) and one back-transform.
Neither the ring contribution nor the harmonic extension is formed on the
grid.

The projection is the exact discrete Leray projector for the central
difference divergence with the boundary values held fixed: it solves the
constrained least-squares problem

    min |v - u|^2   s.t.   div_h v = 0 at every interior node,  v = u on the ring,

whose normal equations read (D D^T) lam = D u with D the interior divergence
acting on interior velocity unknowns.  With T = tridiag(-1, 0, 1), A =
tridiag(1, 0, 1) and E = diag(+1, +1, -1, -1, +1, ...) on the grid index,
T^T T = E A^2 E, and A is diagonal in the sine basis.  So D D^T = Kx (x) I +
I (x) Ky with K = T^T T / (4 h^2) = Q diag(mu) Q^T, Q = sqrt(2/(m+1)) E S and
mu_k = cos^2(k pi/(m+1)) / h^2.  Q's factors, taken twice in each direction,
are the normalization of ``from_sine``, so the multiplier is one more solve
through the transform pair, with E o the product with the sign pattern e_x e_y^T:

    lam = E o from_sine(sine_coefficients(E o D u) / (mu_x,i + mu_y,j)).

The pressure returned is pi = -lam, zero on the ring: v = u - grad_h pi.
Every sine and eigenvalue comes from one helper, sin(pi i / (2 (m+1))) for
integer i: the sine matrix S with i = 2 (jk mod 2(m+1)), whose integer
reduction keeps S orthogonal to a few eps; the Dirichlet eigenvalues
4 sin^2(k pi/(2(m+1))) / h^2 with i = k, which do not cancel as 2 - 2 cos
does; and mu with i = |m+1 - 2k|, exactly zero at k = (m+1)/2.  So D D^T is
singular exactly when nx and ny are both odd (one checkerboard mode on
odd-odd nodes), with no rounding to remove.  Its reciprocal is set to zero,
which yields the minimum-norm multiplier; with u = 0 on the ring the
right-hand side is orthogonal to that mode, so the divergence of the result
sits at rounding level rather than truncation error.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    interior_lap,
    row_dx,
    row_dy,
    set_ring,
    trusted_field,
)

EPS = float(np.finfo(float).eps)
# Residual a direct Poisson solve may leave at interior nodes, in units of
# (mx + my) eps (|A| |u| + |b|) in the max norm.  It is a backward-error
# bound, so it scales with the operator and the data; the factor mx + my is
# the length of the sums in the dense sine transforms.  Measured ratios stay
# at or below 0.1 on grids from 8^2 to 1024^2.
POISSON_BACKWARD_ERROR = 2.0


class SolverError(RuntimeError):
    """Linear solve failed to reach its tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# Dirichlet ring data


@lru_cache(maxsize=32)
def _edge_indices(nx: int, ny: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions in the CCW ring (``grid.boundary_indices``) of the interior
    nodes of each edge, ascending: (ny-2, 2) for x = 0 and x = lx, and
    (nx-2, 2) for y = 0 and y = ly."""
    ring = np.arange(2 * (nx + ny) - 4)
    x_edges = np.stack([ring[: 2 * nx + ny - 3 : -1], ring[nx : nx + ny - 2]], axis=1)
    y_edges = np.stack([ring[1 : nx - 1], ring[2 * nx + ny - 4 : nx + ny - 2 : -1]], axis=1)
    return x_edges, y_edges


def with_trace(grid: Grid, interior: np.ndarray, ring_values: np.ndarray) -> np.ndarray:
    """(c, nx, ny) array, owning its memory, with the given (c, mx, my)
    interior and (nb, c) ring values."""
    out = np.empty((ring_values.shape[1], *grid.shape))
    out[:, 1:-1, 1:-1] = interior
    set_ring(out, ring_values)
    return out


# ---------------------------------------------------------------------------
# eigensystem caches


def clear_cache() -> None:
    """Empty every cache of this module, so the next solve on any grid starts cold."""
    for cached in (_edge_indices, _dirichlet_eigenvalues, _heat_inverse, _sine_basis,
                   _projection_eigensystem):
        cached.cache_clear()


def _half_angle_sine(i: np.ndarray, m: int) -> np.ndarray:
    """sin(pi i / (2 (m + 1))) for integers i, on m interior nodes."""
    return np.sin(i * (np.pi / (2 * (m + 1))))


@lru_cache(maxsize=32)
def _dirichlet_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues 4 sin^2(k pi / (2 (m + 1))) / h^2 of -lap (interior,
    Dirichlet) in the discrete sine basis."""
    lamx, lamy = (4.0 * _half_angle_sine(np.arange(1, n - 1), n - 2) ** 2 / h**2
                  for n, h in ((grid.nx, grid.hx), (grid.ny, grid.hy)))
    return lamx[:, None] + lamy[None, :]


@lru_cache(maxsize=32)
def _heat_inverse(grid: Grid, coef: float) -> tuple[np.ndarray, np.ndarray]:
    """(1 / (1 + coef lam), coef lam / (1 + coef lam)): the inverse of the
    operator I - coef lap in the sine basis, and one minus it."""
    c_lam = coef * _dirichlet_eigenvalues(grid)
    inv = 1.0 / (1.0 + c_lam)
    return inv, c_lam * inv


@lru_cache(maxsize=32)
def _sine_basis(nx: int, ny: int):
    """Sine-transform matrices S_jk = sin(jk pi / (m + 1)), jk reduced mod 2(m + 1),
    and Sx scaled by 4 / ((mx + 1)(my + 1)), which makes Sx' c Sy the inverse
    transform of Sx u Sy."""
    sx, sy = (_half_angle_sine(2 * (np.outer(j, j) % (2 * (j.size + 1))), j.size)
              for j in (np.arange(1, nx - 1), np.arange(1, ny - 1)))
    return sx, sy, (4.0 / ((nx - 1) * (ny - 1))) * sx


def sine_coefficients(grid: Grid, interior: np.ndarray) -> np.ndarray:
    """Sx u Sy: sine coefficients of (..., mx, my) interior values."""
    Sx, Sy, _ = _sine_basis(grid.nx, grid.ny)
    return Sx @ interior @ Sy


def from_sine(grid: Grid, coef: np.ndarray) -> np.ndarray:
    """Interior values of (..., mx, my) sine coefficients; inverts ``sine_coefficients``."""
    _, Sy, inverse_x = _sine_basis(grid.nx, grid.ny)
    return inverse_x @ coef @ Sy


def ring_transform(grid: Grid, ring_values: np.ndarray) -> np.ndarray:
    """Sine coefficients Sx B Sy of the contribution B of Dirichlet ring data
    to lap u at interior nodes: lap_h u = lap_0 u_int + B(h), with lap_0 the
    Laplacian under a zero trace.

    ``ring_values`` is (nb, c), giving (c, mx, my).  B is nonzero only on the
    first and last interior rows and columns: it is the sum of the four outer
    products e_1 (x) left, e_mx (x) right, bottom (x) e_1 and top (x) e_my,
    each edge scaled by its h^-2.  So its transform is one rank-four product
    of transformed edges and unit vectors, O(m (mx + my)) work instead of two
    dense products.
    """
    Sx, Sy, _ = _sine_basis(grid.nx, grid.ny)
    x_edges, y_edges = _edge_indices(grid.nx, grid.ny)
    vals = np.asarray(ring_values, dtype=float)
    c = vals.shape[1]
    mx, my = grid.nx - 2, grid.ny - 2
    cols = np.empty((c, mx, 4))
    rows = np.empty((c, 4, my))
    cols[:, :, 0] = Sx[:, 0]
    cols[:, :, 1] = Sx[:, -1]
    sx_edges = (Sx @ vals[y_edges].reshape(mx, 2 * c)) * grid.hy**-2
    cols[:, :, 2:] = sx_edges.reshape(mx, 2, c).transpose(2, 0, 1)
    sy_edges = (Sy @ vals[x_edges].reshape(my, 2 * c)) * grid.hx**-2
    rows[:, :2] = sy_edges.reshape(my, 2, c).transpose(2, 1, 0)
    rows[:, 2] = Sy[0]
    rows[:, 3] = Sy[-1]
    return cols @ rows


def _projection_modes(m: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """(e, mu) with K = T^T T / (4 h^2) = Q diag(mu) Q^T for Q = sqrt(2/(m+1)) E S:
    e is the diagonal (+1, +1, -1, -1, +1, ...) of E, acting on the grid
    index, and mu_k = cos^2(k pi / (m + 1)) / h^2."""
    k = np.arange(1, m + 1)
    return 1.0 - 2.0 * ((k - 1) // 2 % 2), (_half_angle_sine(np.abs(m + 1 - 2 * k), m) / h) ** 2


@lru_cache(maxsize=32)
def _projection_eigensystem(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(E, -1 / (mu_x,i + mu_y,j)): the sign pattern e_x e_y^T at interior nodes
    and the negated reciprocal eigenvalues of D D^T, zero on the null mode."""
    (ex, mu_x), (ey, mu_y) = (_projection_modes(n - 2, h)
                              for n, h in ((grid.nx, grid.hx), (grid.ny, grid.hy)))
    total = mu_x[:, None] + mu_y[None, :]
    neg_inv = np.zeros_like(total)  # total is zero only on the odd-odd null mode
    np.divide(-1.0, total, out=neg_inv, where=total != 0.0)
    return ex[:, None] * ey[None, :], neg_inv


def heat_solve_interior(
    grid: Grid, b_int: np.ndarray, coef: float, harmonic: np.ndarray | None = None
) -> np.ndarray:
    """Interior solution of (I - coef*lap) u = b with zero Dirichlet trace.

    Given ``harmonic``, the sine coefficients e of the harmonic extension u_E
    of some ring data (``harmonic_coefficients``), u takes that ring data
    instead: u - u_E has a zero trace and, as lap u_E = 0 at interior nodes,
    solves (I - coef lap_0)(u - u_E) = b - u_E.  So the coefficients of u are
    e + (b^ - e) / (1 + coef lam) = b^ / (1 + coef lam) + e coef lam / (1 +
    coef lam), and u_E is not formed on the grid.
    """
    bh = sine_coefficients(grid, b_int)
    inv, rest = _heat_inverse(grid, coef)
    bh *= inv
    if harmonic is not None:
        bh += harmonic * rest
    return from_sine(grid, bh)


def harmonic_coefficients(grid: Grid, bh: np.ndarray) -> np.ndarray:
    """Sine coefficients B^ / lam of the interior of the harmonic extension
    of ring data whose ``ring_transform`` is ``bh``: -lap_0 u = B(h)."""
    return bh / _dirichlet_eigenvalues(grid)


def heat_coefficient_step(grid: Grid, p: np.ndarray, bh: np.ndarray, dt: float) -> np.ndarray:
    """Sine coefficients (p + dt B^) / (1 + dt lam) of one backward-Euler heat
    step (I - dt lap) u_new = u, where ``p`` holds the coefficients of the
    interior of u and ``bh`` the ``ring_transform`` of the new ring data."""
    out = dt * bh
    out += p
    out *= _heat_inverse(grid, dt)[0]
    return out


# ---------------------------------------------------------------------------
# public solves


def poisson_backward_error(grid: Grid, u: np.ndarray, rhs_int: np.ndarray) -> float:
    """max |lap_h u - rhs| at interior nodes over its rounding scale
    (mx + my) eps (|lap_h| max|u| + max|rhs|).

    ``u`` is a full (..., nx, ny) stack, ring included, and ``rhs_int`` its
    (..., mx, my) right-hand side; the maxima run over the whole stack.  A
    direct solve leaves a ratio well below one whatever the grid, whereas the
    bare residual grows like |lap_h| ~ h^-2 times the transform length.
    """
    res = np.max(np.abs(interior_lap(u, grid.hx, grid.hy) - rhs_int))
    lap_norm = 4.0 / grid.hx**2 + 4.0 / grid.hy**2
    data = lap_norm * np.max(np.abs(u)) + np.max(np.abs(rhs_int), initial=0.0)
    scale = (grid.nx + grid.ny - 4) * EPS * data
    return float(res / scale) if scale > 0 else 0.0


def solve_poisson_dirichlet(grid: Grid, rhs_int: np.ndarray, ring_values: np.ndarray) -> np.ndarray:
    """Solve lap u = rhs for c fields at once; ring nodes carry the data exactly.

    ``rhs_int`` is (c, mx, my) and ``ring_values`` (nb, c); the result is the
    (c, nx, ny) stack of solutions, whose interior is the back-transform of
    (B^ - rhs^) / lam.  The solve is checked against the backward-error bound
    ``POISSON_BACKWARD_ERROR`` and raises ``SolverError`` above it.
    """
    rhs_int = np.asarray(rhs_int, dtype=float)
    ring_values = np.asarray(ring_values, dtype=float)
    c = ring_values.shape[-1] if ring_values.ndim else 0
    if ring_values.shape != (grid.n_boundary, c) or rhs_int.shape != (c, grid.nx - 2, grid.ny - 2):
        raise ValueError(
            f"ring values {ring_values.shape} and right-hand side {rhs_int.shape} do not "
            f"match ({grid.n_boundary}, c) and (c, {grid.nx - 2}, {grid.ny - 2})"
        )
    coef = ring_transform(grid, ring_values) - sine_coefficients(grid, rhs_int)
    coef /= _dirichlet_eigenvalues(grid)
    out = with_trace(grid, from_sine(grid, coef), ring_values)
    ratio = poisson_backward_error(grid, out, rhs_int)
    if ratio > POISSON_BACKWARD_ERROR:
        raise SolverError(
            f"poisson residual above tolerance: {ratio:.3g} > {POISSON_BACKWARD_ERROR:g} "
            "units of (mx + my) eps (|lap_h| max|u| + max|rhs|)",
            ratio,
        )
    return out


def heat_step(u: VectorField2D, trace: BoundaryTrace, dt: float) -> VectorField2D:
    """One backward-Euler heat step: (I - dt lap) u_new = u, u_new = trace on the ring."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = u.grid
    if trace.grid != g:
        raise ValueError("trace grid mismatch")
    p = sine_coefficients(g, u.data[:, 1:-1, 1:-1])
    coef = heat_coefficient_step(g, p, ring_transform(g, trace.values), dt)
    return trusted_field(VectorField2D, g, with_trace(g, from_sine(g, coef), trace.values))


def harmonic_extension(trace: BoundaryTrace) -> VectorField2D:
    """Discrete-harmonic extension of both trace components.

    Its interior is the back-transform of ``harmonic_coefficients``: one pair
    of dense products, not two.  The sine-basis solve is exact up to rounding
    (see ``poisson_backward_error``), so the residual is not re-checked per
    call.
    """
    g = trace.grid
    coef = harmonic_coefficients(g, ring_transform(g, trace.values))
    return trusted_field(VectorField2D, g, with_trace(g, from_sine(g, coef), trace.values))


def project_divergence_free(u: VectorField2D) -> tuple[VectorField2D, ScalarField2D]:
    """Project onto discretely divergence-free fields, keeping ring values fixed.

    Returns (v, pi) with div_h v = 0 at interior nodes to solver precision and
    v = u - grad_h pi in the interior.  pi is minus the multiplier lam of the
    normal equations, extended by zero on the ring.
    """
    g = u.grid
    # the stencils run on whole interior rows, contiguous, and are summed
    # there; the solve reads the sum's interior columns
    div = row_dx(u.data[0], g.hx)
    div += row_dy(u.data[1], g.hy)

    # pi = -lam, its sign folded into the cached reciprocal
    signs, neg_inv = _projection_eigensystem(g)
    coef = sine_coefficients(g, signs * div[:, 1:-1])
    coef *= neg_inv
    pi_int = from_sine(g, coef)
    pi_int *= signs
    pi = np.zeros(g.shape)
    pi[1:-1, 1:-1] = pi_int

    v = u.data.copy()
    # v_int -= D^T lam = grad_h pi, the zero-extension central gradient.  Its
    # x-difference is exactly zero on the ring columns, where pi is zero, so
    # it is subtracted on whole rows.
    v[0, 1:-1] -= row_dx(pi, g.hx)
    v[1, 1:-1, 1:-1] -= row_dy(pi, g.hy)[:, 1:-1]
    return trusted_field(VectorField2D, g, v), trusted_field(ScalarField2D, g, pi)
