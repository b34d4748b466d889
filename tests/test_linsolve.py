import math

import numpy as np
import pytest
import scipy.sparse as sp

from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    divergence,
    extract_ring,
    gradient,
    quad_weights,
)
from nematicflow.linsolve import (
    EPS,
    POISSON_BACKWARD_ERROR,
    SolverError,
    _dirichlet_eigenvalues,
    _projection_eigensystem,
    _projection_modes,
    _sine_basis,
    from_sine,
    harmonic_extension,
    heat_solve_interior,
    heat_step,
    poisson_backward_error,
    project_divergence_free,
    ring_transform,
    sine_coefficients,
    solve_poisson_dirichlet,
)


def ring_of(grid, fn):
    from nematicflow.grid import boundary_indices

    ii, jj = boundary_indices(grid)
    return fn(ii * grid.hx, jj * grid.hy)


def _div_matrix(grid: Grid) -> sp.csr_matrix:
    """Dense-oracle builder: central-difference divergence at interior nodes
    acting on interior velocity unknowns (ring velocities are data, not
    unknowns)."""
    mx, my = grid.nx - 2, grid.ny - 2
    n_int = mx * my
    idx = np.arange(n_int).reshape(mx, my)
    rows, cols, vals = [], [], []

    def add(r, c, w, comp):
        rows.extend(r.ravel())
        cols.extend((c + comp * n_int).ravel())
        vals.extend(np.full(r.size, w))

    # d/dx of component 1: node (i, j) couples to (i+1, j) and (i-1, j)
    add(idx[:-1, :], idx[1:, :], 1.0 / (2 * grid.hx), 0)
    add(idx[1:, :], idx[:-1, :], -1.0 / (2 * grid.hx), 0)
    # d/dy of component 2
    add(idx[:, :-1], idx[:, 1:], 1.0 / (2 * grid.hy), 1)
    add(idx[:, 1:], idx[:, :-1], -1.0 / (2 * grid.hy), 1)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n_int, 2 * n_int))


def poisson(g, rhs, trace):
    """The solve of one field: (nx, ny) right-hand side, (nb,) trace."""
    return solve_poisson_dirichlet(g, rhs[None, 1:-1, 1:-1], trace[:, None])[0]


class TestPoissonDirichlet:
    def test_harmonic_linear_reproduced(self):
        g = Grid(16, 16)
        trace = ring_of(g, lambda x, y: x + y)
        sol = poisson(g, np.zeros(g.shape), trace)
        X, Y = g.mesh()
        assert np.max(np.abs(sol - (X + Y))) < 1e-11

    def test_constant_trace(self):
        g = Grid(12, 12)
        trace = np.full(g.n_boundary, 2.5)
        sol = poisson(g, np.zeros(g.shape), trace)
        assert np.max(np.abs(sol - 2.5)) < 1e-12

    def test_against_dense_factorization_oracle(self, lap_matrix, ring_contribution):
        # two fields in one call, each with its own right-hand side and trace
        g = Grid(16, 14, 1.0, 0.9)
        rng = np.random.default_rng(3)
        rhs = rng.standard_normal((2, g.nx - 2, g.ny - 2))
        trace = rng.uniform(-1, 1, (g.n_boundary, 2))
        sol = solve_poisson_dirichlet(g, rhs, trace)
        L = lap_matrix(g).toarray()
        b = rhs - ring_contribution(g, trace)
        for k in range(2):
            dense = np.linalg.solve(L, b[k].ravel())
            assert np.max(np.abs(sol[k, 1:-1, 1:-1].ravel() - dense)) < 1e-10
            assert np.array_equal(extract_ring(sol[k]), trace[:, k])

    def test_eigenfunction_rhs(self):
        g = Grid(32, 32)
        X, Y = g.mesh()
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        sol = poisson(g, -2 * np.pi**2 * exact, np.zeros(g.n_boundary))
        assert np.max(np.abs(sol - exact)) < 5e-3

    @pytest.mark.parametrize("nx, ny, lx, ly", [(128, 128, 1.0, 1.0), (96, 130, 1.0, 2.0)])
    def test_fine_grid_within_backward_error(self, nx, ny, lx, ly):
        # the harmonic extension of a constant has a zero right-hand side; its
        # bare residual (~1e-8 at 128^2) grows like h^-2 and is pure rounding
        g = Grid(nx, ny, lx, ly)
        sol = poisson(g, np.zeros(g.shape), np.ones(g.n_boundary))
        assert np.max(np.abs(sol - 1.0)) < 1e-12

    def test_inexact_solve_rejected(self, monkeypatch):
        import nematicflow.linsolve as ls

        exact = ls.from_sine
        monkeypatch.setattr(ls, "from_sine", lambda g, c: exact(g, c) * (1 + 1e-9))
        g = Grid(32, 32)
        trace = ring_of(g, lambda x, y: np.sin(3 * x) + y)
        with pytest.raises(SolverError, match="poisson residual") as err:
            poisson(g, np.zeros(g.shape), trace)
        assert err.value.residual > POISSON_BACKWARD_ERROR

    def test_problem_validation(self):
        g = Grid(8, 8)
        rhs = np.zeros((1, 6, 6))
        for ring in (np.zeros(g.n_boundary), np.zeros((3, 1)), np.zeros((g.n_boundary, 2))):
            with pytest.raises(ValueError, match="ring values"):
                solve_poisson_dirichlet(g, rhs, ring)
        with pytest.raises(ValueError, match="right-hand side"):
            solve_poisson_dirichlet(g, np.zeros((6, 6)), np.zeros((g.n_boundary, 1)))


class TestRingTransform:
    @pytest.mark.parametrize("nx, ny, ly", [(8, 8, 1.0), (24, 20, 0.8), (97, 130, 1.3)])
    def test_equals_dense_transform_of_ring_contribution(self, nx, ny, ly, ring_contribution):
        g = Grid(nx, ny, 1.0, ly)
        vals = np.random.default_rng(nx).uniform(-1, 1, (g.n_boundary, 2))
        Sx, Sy, _ = _sine_basis(nx, ny)
        b = ring_contribution(g, vals)
        dense = Sx @ b @ Sy
        # rounding of sums of length mx + my over entries of size max|B|
        tol = EPS * (nx + ny - 4) * np.max(np.abs(b))
        assert np.max(np.abs(ring_transform(g, vals) - dense)) <= tol

    @pytest.mark.parametrize(
        "nx, ny, lx, ly",
        [(8, 8, 1.0, 1.0), (33, 20, 2.0, 1.0), (97, 130, 1.0, 1.3), (128, 128, 1.0, 1.0),
         (512, 512, 1.0, 1.0)],
    )
    def test_harmonic_extension_within_backward_error(self, nx, ny, lx, ly):
        g = Grid(nx, ny, lx, ly)
        trace = BoundaryTrace(g, np.random.default_rng(nx + ny).uniform(-1, 1, (g.n_boundary, 2)))
        lift = harmonic_extension(trace)
        zero = np.zeros((nx - 2, ny - 2))
        for k in range(2):
            assert poisson_backward_error(g, lift.data[k], zero) <= POISSON_BACKWARD_ERROR
            assert np.array_equal(extract_ring(lift.data[k]), trace.values[:, k])


class TestHeatStep:
    def test_harmonic_fixed_point(self):
        g = Grid(16, 16)
        rng = np.random.default_rng(2)
        trace = BoundaryTrace(g, rng.uniform(-1, 1, (g.n_boundary, 2)))
        u = harmonic_extension(trace)
        out = heat_step(u, trace, dt=0.1)
        assert np.max(np.abs(out.data - u.data)) < 1e-10

    def test_eigenfunction_decay_factor(self):
        g = Grid(64, 64)
        X, Y = g.mesh()
        mode = np.sin(np.pi * X) * np.sin(np.pi * Y)
        u = VectorField2D(g, np.stack([mode, np.zeros(g.shape)]))
        dt = 1e-3
        out = heat_step(u, BoundaryTrace.constant(g, (0, 0)), dt)
        factor = 1.0 / (1.0 + 2 * np.pi**2 * dt)
        err = np.max(np.abs(out.data[0] - factor * mode))
        assert err < 5e-3 * factor  # discretization of the eigenvalue

    def test_small_dt_consistency(self):
        g = Grid(16, 16)
        rng = np.random.default_rng(4)
        interior = np.zeros((2, *g.shape))
        interior[:, 1:-1, 1:-1] = rng.standard_normal((2, g.nx - 2, g.ny - 2))
        u = VectorField2D(g, interior)
        zero = BoundaryTrace.constant(g, (0, 0))
        for dt in (1e-4, 5e-5):
            out = heat_step(u, zero, dt)
            assert np.max(np.abs(out.data - u.data)) < dt * np.max(np.abs(u.data)) * 10 / g.hx**2

    def test_against_dense_ring_contribution(self, ring_contribution):
        # the coefficient update equals the zero-trace solve of u + dt B(h)
        g = Grid(20, 17, 1.0, 0.8)
        rng = np.random.default_rng(6)
        u = VectorField2D(g, rng.standard_normal((2, *g.shape)))
        trace = BoundaryTrace(g, rng.uniform(-1, 1, (g.n_boundary, 2)))
        dt = 0.01
        out = heat_step(u, trace, dt)
        b = u.data[:, 1:-1, 1:-1] + dt * ring_contribution(g, trace.values)
        ref = heat_solve_interior(g, b, dt)
        tol = EPS * (g.nx + g.ny - 4) * np.max(np.abs(b))
        assert np.max(np.abs(out.data[:, 1:-1, 1:-1] - ref)) <= tol
        assert np.array_equal(BoundaryTrace.from_field(out).values, trace.values)

    def test_dt_positive(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError):
            heat_step(VectorField2D.zeros(g), BoundaryTrace.constant(g, (0, 0)), 0.0)


class TestProjection:
    def _random_interior(self, g, seed=0):
        rng = np.random.default_rng(seed)
        u = np.zeros((2, *g.shape))
        u[:, 1:-1, 1:-1] = rng.standard_normal((2, g.nx - 2, g.ny - 2))
        return VectorField2D(g, u)

    def test_divergence_killed_on_8x8(self):
        g = Grid(8, 8)
        u = self._random_interior(g)
        v, _ = project_divergence_free(u)
        assert np.max(np.abs(divergence(v).data[1:-1, 1:-1])) <= 1e-10

    def test_divergence_killed_on_64x64(self):
        g = Grid(64, 64)
        u = self._random_interior(g, seed=7)
        v, _ = project_divergence_free(u)
        assert np.max(np.abs(divergence(v).data[1:-1, 1:-1])) <= 1e-10

    @pytest.mark.parametrize("nx, ny", [(8, 8), (9, 8), (9, 9), (9, 11)])
    def test_checkerboard_kernel(self, nx, ny):
        # D D^T is singular exactly on odd-odd grids, with the checkerboard on
        # odd-odd nodes as its one null mode, which gets a zero reciprocal
        g = Grid(nx, ny)
        odd_odd = nx % 2 == 1 and ny % 2 == 1
        inv = _projection_eigensystem(g)[1]
        assert np.count_nonzero(inv == 0.0) == int(odd_odd)
        if odd_odd:
            k = np.zeros((nx - 2, ny - 2))
            k[::2, ::2] = 1.0  # interior index 0 is grid index 1
            k = k.ravel() / np.linalg.norm(k)
            D = _div_matrix(g)
            assert np.max(np.abs(D @ (D.T @ k))) < 1e-12
            u = self._random_interior(g, seed=1)
            v, _ = project_divergence_free(u)
            assert np.max(np.abs(divergence(v).data[1:-1, 1:-1])) <= 1e-10

    def test_idempotent(self):
        g = Grid(16, 16)
        u = self._random_interior(g, seed=2)
        v1, _ = project_divergence_free(u)
        v2, _ = project_divergence_free(v1)
        assert np.max(np.abs(v2.data - v1.data)) < 2e-12

    def test_orthogonality(self):
        # the removed part u - v is orthogonal to the result (gauge-free form
        # of the discrete Helmholtz orthogonality)
        g = Grid(16, 16)
        u = self._random_interior(g, seed=3)
        v, _ = project_divergence_free(u)
        w = quad_weights(g)
        inner = sum(np.sum(w * v.data[k] * (u.data[k] - v.data[k])) for k in range(2))
        norm_v = np.sqrt(sum(np.sum(w * v.data[k] ** 2) for k in range(2)))
        norm_r = np.sqrt(sum(np.sum(w * (u.data[k] - v.data[k]) ** 2) for k in range(2)))
        assert abs(inner) <= 1e-12 * max(1.0, norm_v * norm_r)

    def test_divergence_free_input_unchanged(self):
        from nematicflow.dynamics import make_divergence_free_velocity

        g = Grid(16, 16)
        u = make_divergence_free_velocity(g, seed=5, amplitude=1.0)
        v, _ = project_divergence_free(u)
        assert np.max(np.abs(v.data - u.data)) < 1e-11

    def test_pure_gradient_projects_to_zero(self):
        # u = zero-extension gradient of an interior multiplier: exactly the
        # range of the projector's constraint operator
        g = Grid(12, 12)
        rng = np.random.default_rng(9)
        lam = np.zeros(g.shape)
        lam[1:-1, 1:-1] = rng.standard_normal((g.nx - 2, g.ny - 2))
        u = np.zeros((2, *g.shape))
        u[0, 1:-1, 1:-1] = (lam[2:, 1:-1] - lam[:-2, 1:-1]) / (2 * g.hx)
        u[1, 1:-1, 1:-1] = (lam[1:-1, 2:] - lam[1:-1, :-2]) / (2 * g.hy)
        v, _ = project_divergence_free(VectorField2D(g, u))
        scale = np.max(np.abs(u))
        assert np.max(np.abs(v.data)) < 1e-11 * scale

    @pytest.mark.parametrize("nx, ny", [(16, 16), (9, 9), (12, 17)])
    def test_pi_is_zero_on_the_ring_and_its_gradient_is_removed(self, nx, ny):
        # pi is the multiplier itself, with no constant shifted in: +0.0 on
        # the ring, and v = u - grad_h pi at interior nodes
        g = Grid(nx, ny, 1.0, 1.3)
        u = self._random_interior(g, seed=4)
        v, pi = project_divergence_free(u)
        ring = extract_ring(pi.data)
        assert np.array_equal(ring, np.zeros_like(ring)) and not np.signbit(ring).any()
        grad = np.stack([(pi.data[2:, 1:-1] - pi.data[:-2, 1:-1]) / (2 * g.hx),
                         (pi.data[1:-1, 2:] - pi.data[1:-1, :-2]) / (2 * g.hy)])
        removed = u.data[:, 1:-1, 1:-1] - v.data[:, 1:-1, 1:-1]
        scale = np.max(np.abs(u.data)) + np.max(np.abs(grad))
        assert np.max(np.abs(removed - grad)) <= 4 * EPS * scale

    @pytest.mark.parametrize(
        "nx, ny, lx, ly",
        [(8, 8, 1.0, 1.0), (10, 14, 2.0, 1.0), (9, 8, 1.0, 1.0), (12, 11, 1.0, 1.5),
         (9, 9, 1.0, 1.0), (11, 13, 1.5, 1.0)],
    )
    def test_against_dense_pseudoinverse_oracle(self, nx, ny, lx, ly):
        # v = u - D^T pinv(D D^T) D u on interior unknowns; pinv gives the
        # minimum-norm multiplier on odd-odd grids as well
        g = Grid(nx, ny, lx, ly)
        u = self._random_interior(g, seed=nx * ny)
        mx, my = nx - 2, ny - 2
        D = _div_matrix(g).toarray()
        u_int = u.data[:, 1:-1, 1:-1].reshape(2 * mx * my)
        lam = np.linalg.pinv(D @ D.T) @ (D @ u_int)
        v_ref = (u_int - D.T @ lam).reshape(2, mx, my)
        v, pi = project_divergence_free(u)
        scale = np.max(np.abs(v_ref))
        assert np.max(np.abs(v.data[:, 1:-1, 1:-1] - v_ref)) <= 1e-13 * scale
        assert np.array_equal(v.data[:, [0, -1], :], u.data[:, [0, -1], :])
        assert np.array_equal(v.data[:, :, [0, -1]], u.data[:, :, [0, -1]])
        pi_ref = np.zeros(g.shape)
        pi_ref[1:-1, 1:-1] = -lam.reshape(mx, my)
        assert np.max(np.abs(pi.data - pi_ref)) <= 1e-13 * np.max(np.abs(pi_ref))


class TestClosedFormBasis:
    """The sine matrices and every eigenvalue come from sin(pi i / (2 (m+1)))."""

    @pytest.mark.parametrize("m", [6, 7, 62, 63, 254, 255])
    def test_projection_modes_diagonalize_difference_square(self, m):
        h = 1.0 / (m + 1)
        e, lam = _projection_modes(m, h)
        q = np.sqrt(2.0 / (m + 1)) * e[:, None] * _sine_basis(m + 2, 8)[0]
        t = np.eye(m, k=1) - np.eye(m, k=-1)
        k_mat = t.T @ t / (4.0 * h * h)  # |K| <= 1 / h^2
        assert np.max(np.abs(q.T @ q - np.eye(m))) <= m * EPS
        assert np.max(np.abs(k_mat @ q - q * lam)) <= m * EPS / h**2
        # the checkerboard null mode of odd m is exactly zero, with no patch
        assert np.count_nonzero(lam == 0.0) == m % 2
        if m % 2:
            assert lam[(m - 1) // 2] == 0.0

    @pytest.mark.parametrize(
        "nx, ny, lx, ly", [(8, 8, 1.0, 1.0), (33, 20, 2.0, 1.0), (66, 66, 1.0, 1.0), (258, 258, 1.0, 1.0)]
    )
    def test_dirichlet_eigenvalues_are_the_half_angle_form(self, nx, ny, lx, ly):
        # 2 - 2 cos(k pi/(m+1)) cancels on the smoothest modes: 206 eps at 66^2
        g = Grid(nx, ny, lx, ly)

        def ref(n, h):
            return np.array([4.0 * math.sin(k * math.pi / (2 * (n - 1))) ** 2 / h**2
                             for k in range(1, n - 1)])

        lam = ref(nx, g.hx)[:, None] + ref(ny, g.hy)[None, :]
        assert np.max(np.abs(_dirichlet_eigenvalues(g) / lam - 1.0)) <= 4 * EPS

    @pytest.mark.parametrize("nx, ny, lx, ly", [(66, 66, 1.0, 1.0), (33, 33, 1.0, 1.0),
                                                (17, 40, 2.0, 0.5)])
    def test_transform_pair_round_trip(self, nx, ny, lx, ly):
        # from_sine carries the normalization 4 / ((mx + 1)(my + 1)) that
        # makes it the inverse of sine_coefficients
        g = Grid(nx, ny, lx, ly)
        u = np.random.default_rng(nx + ny).standard_normal((2, nx - 2, ny - 2))
        back = from_sine(g, sine_coefficients(g, u))
        assert np.max(np.abs(back - u)) <= (nx + ny - 4) * EPS * np.max(np.abs(u))

    def test_sine_basis_orthogonal_at_254(self):
        # the integer reduction of jk keeps every argument below 2 pi; the
        # unreduced sin(jk pi / (m+1)) leaves 54 eps here
        s = _sine_basis(256, 8)[0]
        assert np.max(np.abs(s @ s * (2.0 / 255) - np.eye(254))) <= 16 * EPS
