"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from nematicflow.grid import boundary_indices


def _lap_matrix(grid) -> sp.csr_matrix:
    """5-point Laplacian on interior nodes, Dirichlet ring eliminated; row-major
    (i-major) ordering of the interior unknowns."""
    mx, my = grid.nx - 2, grid.ny - 2
    ex = np.ones(mx)
    ey = np.ones(my)
    dxx = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / grid.hx**2
    dyy = sp.diags([ey[:-1], -2.0 * ey, ey[:-1]], [-1, 0, 1]) / grid.hy**2
    return (sp.kron(dxx, sp.identity(my)) + sp.kron(sp.identity(mx), dyy)).tocsr()


def _ring_contribution(grid, ring_values) -> np.ndarray:
    """Contribution B of Dirichlet ring data to lap u at interior nodes, scattered
    onto the full grid: lap_h u = lap_0 u_int + B.

    ``ring_values`` is (nb,) for one field, giving (mx, my), or (nb, c) for
    c fields at once, giving (c, mx, my).
    """
    vals = np.asarray(ring_values, dtype=float)
    batch = vals.shape[1:]
    full = np.zeros((*batch, *grid.shape))
    ii, jj = boundary_indices(grid)
    full[..., ii, jj] = vals.T
    out = np.zeros((*batch, grid.nx - 2, grid.ny - 2))
    out[..., 0, :] += full[..., 0, 1:-1] / grid.hx**2
    out[..., -1, :] += full[..., -1, 1:-1] / grid.hx**2
    out[..., :, 0] += full[..., 1:-1, 0] / grid.hy**2
    out[..., :, -1] += full[..., 1:-1, -1] / grid.hy**2
    return out


@pytest.fixture(scope="session")
def lap_matrix():
    """Builder of the sparse interior Laplacian, the oracle of the sine-basis solves."""
    return _lap_matrix


@pytest.fixture(scope="session")
def ring_contribution():
    """The dense ring contribution, the oracle of ``linsolve.ring_transform``."""
    return _ring_contribution
