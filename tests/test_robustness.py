"""Property sweep of the stencils, the sine-basis solves and the projection
over random grids.

Grids have nx, ny in [8, 96], odd and even, and lx != ly.  Every bound is a
ratio to the operation's own backward-error scale, in the units of
``poisson_backward_error``: (mx + my) eps (|A| |x| + |b|).  Over several
hundred random grids the largest ratios measured were 0.17 (Poisson, per
field), 0.33 (heat step) and 0.08 (projected divergence; 0.10 on the
15 x 8 grid with lx = 0.25, ly = 3 that hypothesis found).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    extract_ring,
    interior_lap,
    row_dx,
    row_dy,
    row_lap,
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
    div = row_dx(v.data[0], g.hx)[:, 1:-1] + row_dy(v.data[1], g.hy)[:, 1:-1]
    # backward error of the multiplier solve (D D^T) lam = D u, with pi = -lam
    lam = np.max(np.abs(pi.data))
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


@SWEEP
@given(g=grids.filter(lambda g: g.nx != g.ny), seed=seeds, stack=st.booleans())
@example(g=Grid(9, 12, 0.7, 1.3), seed=0, stack=True)
@example(g=Grid(12, 9, 1.3, 0.7), seed=1, stack=False)
@example(g=Grid(11, 13, 2.0, 0.5), seed=2, stack=True)
@example(g=Grid(10, 16, 0.5, 2.0), seed=3, stack=False)
def test_row_stencils_equal_the_interior_stencils_bitwise(g, seed, stack):
    # the stencils as written on strided interior views, before they moved
    # onto whole interior rows; the row results agree at every interior node
    data = np.random.default_rng(seed).standard_normal((2, *g.shape) if stack else g.shape)
    hx, hy = g.hx, g.hy
    c2 = 2.0 * data[..., 1:-1, 1:-1]
    strided = {
        "dx": (data[..., 2:, 1:-1] - data[..., :-2, 1:-1]) * (0.5 / hx),
        "dy": (data[..., 1:-1, 2:] - data[..., 1:-1, :-2]) * (0.5 / hy),
        "lap": (data[..., 2:, 1:-1] - c2 + data[..., :-2, 1:-1]) * hx**-2
        + (data[..., 1:-1, 2:] - c2 + data[..., 1:-1, :-2]) * hy**-2,
    }
    rows = {"dx": row_dx(data, hx), "dy": row_dy(data, hy), "lap": row_lap(data, hx, hy)}
    for name, want in strided.items():
        assert rows[name].shape == (*data.shape[:-2], g.nx - 2, g.ny), name
        assert np.all(np.isfinite(rows[name])), name  # the unread ring columns too
        assert np.array_equal(rows[name][..., 1:-1], want), name
    assert np.array_equal(interior_lap(data, hx, hy), strided["lap"])
