import numpy as np
import pytest

from nematicflow.dynamics import make_divergence_free_velocity
from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    _ddx,
    _ddy,
    _lap_interior,
    boundary_indices,
    divergence,
    extract_ring,
    ginzburg_landau,
    gradient,
    interior_lap,
    laplacian,
    quad_weights,
    random_sine_series,
    row_dx,
    row_dy,
    row_lap,
    row_stencils,
    set_ring,
    stress_rows,
)


def sin_field(grid):
    return ScalarField2D.from_function(
        grid, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y)
    )


class TestGrid:
    def test_spacing(self):
        g = Grid(11, 21, 2.0, 1.0)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.05)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            Grid(4, 16)

    def test_boundary_ring_count_and_order(self):
        g = Grid(8, 10)
        arr = np.zeros(g.shape)
        set_ring(arr, np.arange(g.n_boundary, dtype=float))
        assert g.n_boundary == 2 * (8 + 10) - 4
        # CCW start at (0,0), then along the bottom edge
        assert arr[0, 0] == 0
        assert arr[1, 0] == 1
        assert arr[-1, 0] == g.nx - 1
        ring = extract_ring(arr)
        assert np.array_equal(ring, np.arange(g.n_boundary, dtype=float))

    @pytest.mark.parametrize("nx,ny", [(8, 8), (9, 8), (13, 21)])
    def test_ring_write_equals_index_scatter(self, nx, ny):
        # the four edge slices write what the CCW index scatter writes, bit
        # for bit, for one field and for a stack
        g = Grid(nx, ny, lx=1.3, ly=0.7)
        rng = np.random.default_rng(nx * ny)
        ii, jj = boundary_indices(g)
        values = rng.standard_normal((g.n_boundary, 3))
        data = rng.standard_normal((3, nx, ny))
        want = data.copy()
        want[:, ii, jj] = values.T
        set_ring(data, values)
        assert np.array_equal(data, want)
        one = rng.standard_normal((nx, ny))
        want = one.copy()
        want[ii, jj] = values[:, 0]
        set_ring(one, values[:, 0])
        assert np.array_equal(one, want)
        # extract_ring reads a stack in the (nb, c) layout set_ring writes,
        # bit for bit what stacking its per-component rings gives
        ring = extract_ring(data)
        assert ring.shape == (g.n_boundary, 3)
        assert np.array_equal(ring, np.stack([extract_ring(c) for c in data], axis=1))
        assert np.array_equal(ring, values)


class TestGradientDivergence:
    def test_gradient_constant(self):
        g = Grid(16, 16)
        f = ScalarField2D(g, np.full(g.shape, 3.7))
        gr = gradient(f)
        assert np.max(np.abs(gr.data)) < 1e-13

    def test_gradient_exact_on_linear(self):
        g = Grid(16, 12, 2.0, 3.0)
        f = ScalarField2D.from_function(g, lambda X, Y: 2.0 * X - 0.5 * Y)
        gr = gradient(f)
        assert np.max(np.abs(gr.data[0] - 2.0)) < 1e-12
        assert np.max(np.abs(gr.data[1] + 0.5)) < 1e-12

    def test_gradient_second_order(self):
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            f = sin_field(g)
            gr = gradient(f)
            X, Y = g.mesh()
            exact_x = np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
            errs.append(np.max(np.abs(gr.data[0] - exact_x)))
        ratio = errs[0] / errs[1]
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15

    def test_divergence_rotational_zero(self):
        g = Grid(16, 16)
        u = VectorField2D.from_functions(g, lambda X, Y: Y, lambda X, Y: -X)
        assert np.max(np.abs(divergence(u).data)) < 1e-12

    def test_divergence_linear(self):
        g = Grid(16, 16)
        u = VectorField2D.from_functions(g, lambda X, Y: X, lambda X, Y: Y)
        assert np.max(np.abs(divergence(u).data - 2.0)) < 1e-12

    def test_divergence_second_order(self):
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            u = VectorField2D.from_functions(g, lambda X, Y: np.sin(np.pi * X), lambda X, Y: 0.0 * X)
            X, _ = g.mesh()
            exact = np.pi * np.cos(np.pi * X)
            errs.append(np.max(np.abs(divergence(u).data - exact)))
        ratio = errs[0] / errs[1]
        assert 4.0 * 0.85 <= ratio <= 4.0 * 1.15


class TestLaplacian:
    def test_zero_on_linear(self):
        g = Grid(12, 12)
        f = ScalarField2D.from_function(g, lambda X, Y: 3 * X + Y - 1)
        lap = laplacian(f)
        assert np.max(np.abs(lap.data[1:-1, 1:-1])) < 1e-11

    def test_eigenfunction(self):
        g = Grid(64, 64)
        f = sin_field(g)
        lap = laplacian(f)
        err = np.max(np.abs(lap.data[1:-1, 1:-1] + 2 * np.pi**2 * f.data[1:-1, 1:-1]))
        assert err < 2 * np.pi**2 * (np.pi * g.hx) ** 2

    def test_exact_on_quadratic(self):
        g = Grid(16, 16)
        f = ScalarField2D.from_function(g, lambda X, Y: X**2 + Y**2)
        lap = laplacian(f)
        assert np.max(np.abs(lap.data[1:-1, 1:-1] - 4.0)) < 1e-10


def _stencil_reference(u, hx, hy):
    """Node-by-node interior (dx, dy, lap) of one (nx, ny) field."""
    nx, ny = u.shape
    dx = np.empty((nx - 2, ny - 2))
    dy = np.empty_like(dx)
    lap = np.empty_like(dx)
    for i in range(1, nx - 1):
        for j in range(1, ny - 1):
            dx[i - 1, j - 1] = (u[i + 1, j] - u[i - 1, j]) / (2.0 * hx)
            dy[i - 1, j - 1] = (u[i, j + 1] - u[i, j - 1]) / (2.0 * hy)
            lap[i - 1, j - 1] = (u[i + 1, j] - 2.0 * u[i, j] + u[i - 1, j]) / hx**2 + (
                u[i, j + 1] - 2.0 * u[i, j] + u[i, j - 1]
            ) / hy**2
    return dx, dy, lap


class TestInteriorStencils:
    @pytest.mark.parametrize("shape", [(8, 8), (9, 11), (33, 20)])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_match_full_array_operators(self, shape, stacked):
        g = Grid(*shape, lx=1.3, ly=0.7)
        rng = np.random.default_rng(sum(shape))
        u = rng.standard_normal((2, *shape) if stacked else shape)
        comps = u if stacked else u[None]
        inner = (slice(1, -1), slice(1, -1))

        def close(got, want):
            scale = np.max(np.abs(want))
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

        m = (comps.shape[0], g.nx - 2, g.ny - 2)
        got_dx = row_dx(u, g.hx)[..., 1:-1].reshape(m)
        got_dy = row_dy(u, g.hy)[..., 1:-1].reshape(m)
        got_lap = interior_lap(u, g.hx, g.hy).reshape(m)
        for k, c in enumerate(comps):
            close(got_dx[k], _ddx(c, g.hx)[inner])
            close(got_dy[k], _ddy(c, g.hy)[inner])
            close(got_lap[k], _lap_interior(c, g.hx, g.hy)[inner])
            ref_dx, ref_dy, ref_lap = _stencil_reference(c, g.hx, g.hy)
            close(got_dx[k], ref_dx)
            close(got_dy[k], ref_dy)
            close(got_lap[k], ref_lap)
        full = _lap_interior(u, g.hx, g.hy)
        assert full.shape == u.shape
        assert np.all(full[..., 0, :] == 0) and np.all(full[..., -1, :] == 0)
        assert np.all(full[..., :, 0] == 0) and np.all(full[..., :, -1] == 0)


class TestStencilMemo:
    def _field(self, seed, writeable):
        g = Grid(12, 10, ly=0.8)
        data = np.random.default_rng(seed).standard_normal((2, *g.shape))
        data.flags.writeable = writeable
        return VectorField2D(g, data)

    @staticmethod
    def _fresh(f):
        g = f.grid
        return row_dx(f.data, g.hx), row_dy(f.data, g.hy), row_lap(f.data, g.hx, g.hy)

    def test_read_only_field_evaluated_once(self):
        f = self._field(1, writeable=False)
        first = row_stencils(f)
        assert row_stencils(f) is first
        for got, want in zip(first, self._fresh(f)):
            assert np.array_equal(got, want)
            assert not got.flags.writeable  # shared results cannot be edited

    def test_writable_field_never_cached(self):
        # an in-place edit of a writable array must show in the next call
        f = self._field(2, writeable=True)
        row_stencils(f)
        f.data[:, 4, 4] += 1.0
        for got, want in zip(row_stencils(f), self._fresh(f)):
            assert np.array_equal(got, want)

    def test_other_array_or_grid_misses(self):
        a = self._field(3, writeable=False)
        b = self._field(4, writeable=False)
        row_stencils(a)
        for got, want in zip(row_stencils(b), self._fresh(b)):
            assert np.array_equal(got, want)
        # the same array read on another grid has other spacings
        on_other = VectorField2D(Grid(12, 10, lx=2.0, ly=0.8), b.data)
        for got, want in zip(row_stencils(on_other), self._fresh(on_other)):
            assert np.array_equal(got, want)


def _stress(d):
    """The elastic stress divergence that ``step`` subtracts, zero on the ring."""
    out = np.zeros((2, *d.grid.shape))
    out[:, 1:-1, 1:-1] = stress_rows(d)[..., 1:-1]
    return out


def _gl(d, eps):
    """``ginzburg_landau`` of a director field with a zero Laplacian:
    |d|^2, int F(d) and the penalization f(d) at interior nodes."""
    g = d.grid
    mag_sq, potential, defect = ginzburg_landau(g, d.data, np.zeros((2, g.nx - 2, g.ny - 2)), eps)
    return mag_sq, potential, -defect


class TestElasticStress:
    def test_constant_director(self):
        g = Grid(12, 12)
        d = VectorField2D.from_functions(g, lambda X, Y: 0 * X + 0.6, lambda X, Y: 0 * X + 0.8)
        assert np.max(np.abs(_stress(d))) == 0.0

    def test_harmonic_linear_map(self):
        g = Grid(12, 12)
        d = VectorField2D.from_functions(g, lambda X, Y: X, lambda X, Y: Y)
        assert np.max(np.abs(_stress(d))) < 1e-10

    def test_against_symbolic_expression(self):
        # d = (sin(pi x), 0): component 1 is (lap d1) * d/dx d1 =
        # -pi^3 sin(pi x) cos(pi x), component 2 vanishes since d/dy d1 = 0.
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            d = VectorField2D.from_functions(g, lambda X, Y: np.sin(np.pi * X), lambda X, Y: 0.0 * X)
            out = _stress(d)
            X, _ = g.mesh()
            exact1 = -np.pi**3 * np.sin(np.pi * X) * np.cos(np.pi * X)
            errs.append(np.max(np.abs(out[0][1:-1, 1:-1] - exact1[1:-1, 1:-1])))
            assert np.max(np.abs(out[1])) < 1e-12
        assert errs[0] < 50 * Grid(32, 32).hx ** 2
        assert 4.0 * 0.8 <= errs[0] / errs[1] <= 4.0 * 1.2

    def test_interior_formula_and_zero_ring(self):
        g = Grid(9, 11, lx=1.3, ly=0.7)
        d = VectorField2D(g, np.random.default_rng(5).standard_normal((2, *g.shape)))
        out = _stress(d)
        (dx0, dy0, lap0), (dx1, dy1, lap1) = (_stencil_reference(c, g.hx, g.hy) for c in d.data)
        want = np.stack([lap0 * dx0 + lap1 * dx1, lap0 * dy0 + lap1 * dy1])
        assert np.max(np.abs(out[:, 1:-1, 1:-1] - want)) <= 1e-14 * np.max(np.abs(want))
        for k in range(2):
            assert np.all(extract_ring(out[k]) == 0.0)

    def test_zero_when_discretely_harmonic(self):
        # lap d == 0 discretely implies the stress vanishes identically
        from nematicflow.linsolve import harmonic_extension

        g = Grid(16, 16)
        rng = np.random.default_rng(0)
        trace = BoundaryTrace(g, rng.uniform(-0.5, 0.5, (g.n_boundary, 2)))
        dE = harmonic_extension(trace)
        assert np.max(np.abs(_stress(dE))) < 1e-8


class TestGinzburgLandau:
    def test_unit_directors_give_zero(self):
        g = Grid(8, 8)
        theta = np.linspace(0, 2 * np.pi, g.nx * g.ny).reshape(g.shape)
        d = VectorField2D(g, np.stack([np.cos(theta), np.sin(theta)]))
        mag_sq, potential, f = _gl(d, 0.25)
        assert np.max(np.abs(mag_sq - 1.0)) < 1e-15
        assert np.max(np.abs(f)) < 1e-12
        assert abs(potential) < 1e-12

    def test_zero_vector(self):
        # F(0) = 1/(4 eps^2) everywhere: int F is the area over 4 eps^2
        g = Grid(8, 9, 2.0, 0.75)
        eps = 0.5
        mag_sq, potential, f = _gl(VectorField2D.zeros(g), eps)
        assert np.max(np.abs(f)) == 0.0
        assert np.max(mag_sq) == 0.0
        assert potential == pytest.approx(2.0 * 0.75 / (4.0 * eps**2), rel=1e-14)

    def test_pointwise_value(self):
        # f(2, 0) = (4 - 1) (2, 0) / eps^2 = (6, 0) at eps = 1, and the
        # routine returns the Laplacian it is given less f
        g = Grid(8, 8)
        d = np.stack([np.full(g.shape, 2.0), np.zeros(g.shape)])
        lap = np.ones((2, g.nx - 2, g.ny - 2))
        mag_sq, _, defect = ginzburg_landau(g, d, lap, 1.0)
        assert np.all(mag_sq == 4.0)
        assert np.all(defect[0] == -5.0)
        assert np.all(defect[1] == 1.0)

    def test_f_is_gradient_of_F(self):
        # central-difference oracle in the 2-vector argument, F read as int F
        # of a constant director on the unit square
        eps = 0.5
        step = 1e-5
        base = np.array([0.3, -0.7])
        g = Grid(8, 8)

        def constant(vec):
            return VectorField2D(g, np.stack([np.full(g.shape, vec[0]), np.full(g.shape, vec[1])]))

        def F_at(vec):
            return _gl(constant(vec), eps)[1]

        grad_fd = np.array(
            [
                (F_at(base + step * e) - F_at(base - step * e)) / (2 * step)
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            ]
        )
        f = _gl(constant(base), eps)[2]
        exact = np.array([f[0][0, 0], f[1][0, 0]])
        assert np.max(np.abs(grad_fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


class TestQuadrature:
    def test_integrate_constant(self):
        # the trapezoid weights integrate a constant over the rectangle
        g = Grid(16, 16, 2.0, 0.5)
        assert float(np.sum(quad_weights(g) * 3.0)) == pytest.approx(3.0 * 2.0 * 0.5)


class TestFieldContainers:
    def test_nonfinite_rejected(self):
        g = Grid(8, 8)
        data = np.zeros(g.shape)
        data[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField2D(g, data)

    def test_trace_round_trip(self):
        g = Grid(9, 8)
        rng = np.random.default_rng(1)
        u = VectorField2D(g, rng.standard_normal((2, *g.shape)))
        tr = BoundaryTrace.from_field(u)
        rebuilt = np.zeros(g.shape)
        set_ring(rebuilt, tr.values[:, 0])
        assert np.array_equal(extract_ring(rebuilt), extract_ring(u.data[0]))

    def test_trace_shape_validated(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError):
            BoundaryTrace(g, np.zeros((5, 2)))


def _mesh_sine_series(grid, rng, modes):
    """Oracle: the random sine series evaluated term by term on the full mesh."""
    X, Y = grid.mesh()
    xn, yn = X / grid.lx, Y / grid.ly
    out = np.zeros(grid.shape)
    for kx in range(1, modes + 1):
        for ky in range(1, modes + 1):
            c = rng.standard_normal() / (kx**2 + ky**2)
            out += c * np.sin(np.pi * kx * xn) * np.sin(np.pi * ky * yn)
    return out


def _mesh_velocity(grid, seed, amplitude):
    """Oracle: the stream-function velocity with its wall weight on the mesh."""
    zeta = _mesh_sine_series(grid, np.random.default_rng(seed), 3)
    X, Y = grid.mesh()
    xn, yn = X / grid.lx, Y / grid.ly
    zeta *= (xn * (1 - xn) * yn * (1 - yn)) ** 2
    v = np.zeros((2, *grid.shape))
    v[0] = _ddy(zeta, grid.hy)
    v[1] = -_ddx(zeta, grid.hx)
    set_ring(v, np.zeros((grid.n_boundary, 2)))
    vmax = float(np.max(np.hypot(v[0], v[1])))
    if vmax > 0:
        v *= amplitude / vmax
    return v


ORACLE_GRIDS = [
    Grid(8, 8), Grid(13, 21), Grid(24, 20, 1.0, 0.75), Grid(32, 32), Grid(17, 40, 2.0, 0.5),
    Grid(64, 64), Grid(96, 130, 1.0, 1.3),
]


class TestRandomFieldsAgainstMesh:
    """The separable random fields equal, bit for bit, their mesh evaluation."""

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    @pytest.mark.parametrize("modes", [3, 4])
    def test_random_sine_series(self, grid, modes):
        for seed in (0, 1, 7, 123):
            got = random_sine_series(grid, np.random.default_rng(seed), modes)
            want = _mesh_sine_series(grid, np.random.default_rng(seed), modes)
            assert np.array_equal(got, want), seed

    @pytest.mark.parametrize("grid", ORACLE_GRIDS, ids=lambda g: f"{g.nx}x{g.ny}")
    def test_velocity_wall_weight(self, grid):
        for seed in (2, 3, 8):
            got = make_divergence_free_velocity(grid, seed, 0.3).data
            assert np.array_equal(got, _mesh_velocity(grid, seed, 0.3)), seed
