import numpy as np
import pytest

from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    _ddx,
    _ddy,
    _lap_interior,
    bulk_potential_F,
    divergence,
    elastic_stress_divergence,
    extract_ring,
    ginzburg_landau_f,
    gradient,
    integrate,
    interior_dx,
    interior_dy,
    interior_lap,
    laplacian,
    row_dx,
    row_dy,
    row_lap,
    row_stencils,
    set_ring,
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
        got_dx = interior_dx(u, g.hx).reshape(m)
        got_dy = interior_dy(u, g.hy).reshape(m)
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


class TestElasticStress:
    def test_constant_director(self):
        g = Grid(12, 12)
        d = VectorField2D.from_functions(g, lambda X, Y: 0 * X + 0.6, lambda X, Y: 0 * X + 0.8)
        assert np.max(np.abs(elastic_stress_divergence(d).data)) == 0.0

    def test_harmonic_linear_map(self):
        g = Grid(12, 12)
        d = VectorField2D.from_functions(g, lambda X, Y: X, lambda X, Y: Y)
        assert np.max(np.abs(elastic_stress_divergence(d).data)) < 1e-10

    def test_against_symbolic_expression(self):
        # d = (sin(pi x), 0): component 1 is (lap d1) * d/dx d1 =
        # -pi^3 sin(pi x) cos(pi x), component 2 vanishes since d/dy d1 = 0.
        errs = []
        for n in (32, 64):
            g = Grid(n, n)
            d = VectorField2D.from_functions(g, lambda X, Y: np.sin(np.pi * X), lambda X, Y: 0.0 * X)
            out = elastic_stress_divergence(d)
            X, _ = g.mesh()
            exact1 = -np.pi**3 * np.sin(np.pi * X) * np.cos(np.pi * X)
            errs.append(np.max(np.abs(out.data[0][1:-1, 1:-1] - exact1[1:-1, 1:-1])))
            assert np.max(np.abs(out.data[1])) < 1e-12
        assert errs[0] < 50 * Grid(32, 32).hx ** 2
        assert 4.0 * 0.8 <= errs[0] / errs[1] <= 4.0 * 1.2

    def test_interior_formula_and_zero_ring(self):
        g = Grid(9, 11, lx=1.3, ly=0.7)
        d = VectorField2D(g, np.random.default_rng(5).standard_normal((2, *g.shape)))
        out = elastic_stress_divergence(d).data
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
        assert np.max(np.abs(elastic_stress_divergence(dE).data)) < 1e-8


class TestGinzburgLandau:
    def test_unit_directors_give_zero(self):
        g = Grid(8, 8)
        theta = np.linspace(0, 2 * np.pi, g.nx * g.ny).reshape(g.shape)
        d = VectorField2D(g, np.stack([np.cos(theta), np.sin(theta)]))
        assert np.max(np.abs(ginzburg_landau_f(d, 0.25).data)) < 1e-12
        assert np.max(np.abs(bulk_potential_F(d, 0.25).data)) < 1e-12

    def test_zero_vector(self):
        g = Grid(8, 8)
        d = VectorField2D.zeros(g)
        assert np.max(np.abs(ginzburg_landau_f(d, 1.0).data)) == 0.0
        assert np.max(np.abs(bulk_potential_F(d, 1.0).data - 0.25)) < 1e-15

    def test_pointwise_value(self):
        g = Grid(8, 8)
        d = VectorField2D(g, np.stack([np.full(g.shape, 2.0), np.zeros(g.shape)]))
        f = ginzburg_landau_f(d, 1.0)
        assert np.allclose(f.data[0], 6.0)
        assert np.allclose(f.data[1], 0.0)

    def test_eps_must_be_positive(self):
        g = Grid(8, 8)
        d = VectorField2D.zeros(g)
        with pytest.raises(ValueError):
            ginzburg_landau_f(d, 0.0)
        with pytest.raises(ValueError):
            bulk_potential_F(d, -1.0)

    def test_f_is_gradient_of_F(self):
        # central-difference oracle in the 2-vector argument
        eps = 0.5
        step = 1e-5
        base = np.array([0.3, -0.7])
        g = Grid(8, 8)

        def F_at(vec):
            d = VectorField2D(g, np.stack([np.full(g.shape, vec[0]), np.full(g.shape, vec[1])]))
            return bulk_potential_F(d, eps).data[0, 0]

        grad_fd = np.array(
            [
                (F_at(base + step * e) - F_at(base - step * e)) / (2 * step)
                for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            ]
        )
        d = VectorField2D(g, np.stack([np.full(g.shape, base[0]), np.full(g.shape, base[1])]))
        f = ginzburg_landau_f(d, eps)
        exact = np.array([f.data[0][0, 0], f.data[1][0, 0]])
        assert np.max(np.abs(grad_fd - exact)) < 1e-6 * max(1.0, np.max(np.abs(exact)))


class TestQuadrature:
    def test_integrate_constant(self):
        g = Grid(16, 16, 2.0, 0.5)
        f = ScalarField2D(g, np.full(g.shape, 3.0))
        assert integrate(f) == pytest.approx(3.0 * 2.0 * 0.5)


class TestFieldContainers:
    def test_nonfinite_rejected(self):
        g = Grid(8, 8)
        data = np.zeros(g.shape)
        data[3, 3] = np.nan
        with pytest.raises(ValueError):
            ScalarField2D(g, data)

    def test_vector_component_grid_mismatch(self):
        a = ScalarField2D.zeros(Grid(8, 8))
        b = ScalarField2D.zeros(Grid(8, 10))
        with pytest.raises(ValueError):
            VectorField2D.from_components(a, b)

    def test_trace_round_trip(self):
        g = Grid(9, 8)
        rng = np.random.default_rng(1)
        u = VectorField2D(g, rng.standard_normal((2, *g.shape)))
        tr = BoundaryTrace.from_field(u)
        rebuilt = np.zeros(g.shape)
        set_ring(rebuilt, tr.component(0))
        assert np.array_equal(extract_ring(rebuilt), extract_ring(u.data[0]))

    def test_trace_shape_validated(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError):
            BoundaryTrace(g, np.zeros((5, 2)))
