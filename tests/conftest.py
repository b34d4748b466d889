"""Shared test oracles."""

import numpy as np
import pytest
import scipy.sparse as sp


def _lap_matrix(grid) -> sp.csr_matrix:
    """5-point Laplacian on interior nodes, Dirichlet ring eliminated; row-major
    (i-major) ordering of the interior unknowns."""
    mx, my = grid.nx - 2, grid.ny - 2
    ex = np.ones(mx)
    ey = np.ones(my)
    dxx = sp.diags([ex[:-1], -2.0 * ex, ex[:-1]], [-1, 0, 1]) / grid.hx**2
    dyy = sp.diags([ey[:-1], -2.0 * ey, ey[:-1]], [-1, 0, 1]) / grid.hy**2
    return (sp.kron(dxx, sp.identity(my)) + sp.kron(sp.identity(mx), dyy)).tocsr()


@pytest.fixture(scope="session")
def lap_matrix():
    """Builder of the sparse interior Laplacian, the oracle of the sine-basis solves."""
    return _lap_matrix
