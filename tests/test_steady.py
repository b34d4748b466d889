import numpy as np
import pytest

from nematicflow.dynamics import PhysParams
from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    boundary_arclength,
    set_ring,
)
from nematicflow.linsolve import harmonic_extension
from nematicflow.steady import (
    DegenerateCriticalPointError,
    _linearization,
    _minres,
    energy_E,
    energy_script,
    local_minimizer_check,
    newton_refine,
    solve_gradient_flow,
    stationary_residual,
)


def angle_trace(grid, kappa=0.3):
    s = boundary_arclength(grid) / (2 * (grid.lx + grid.ly))
    phi = kappa * np.sin(2 * np.pi * s)
    return BoundaryTrace(grid, np.stack([np.cos(phi), np.sin(phi)], axis=1))


def unit_clipped_lift(trace):
    lift = harmonic_extension(trace)
    mag = lift.magnitude()
    d = lift.data * np.minimum(1.0, 1.0 / np.maximum(mag, 1e-300))
    for k in range(2):
        set_ring(d[k], trace.values[:, k])
    return VectorField2D(lift.grid, d)


class TestGradientFlow:
    def test_constant_unit_data_is_global_minimizer(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        d0 = unit_clipped_lift(trace)
        eq = solve_gradient_flow(trace, d0, PhysParams(), tol=1e-10)
        assert eq.converged
        assert eq.residual <= 1e-10
        assert abs(eq.energy_E) < 1e-12
        assert np.max(np.abs(eq.psi.data[0] - 1.0)) < 1e-10

    def test_energy_never_increases(self):
        g = Grid(16, 16)
        trace = angle_trace(g)
        d0 = unit_clipped_lift(trace)
        hist = []
        eq = solve_gradient_flow(trace, d0, PhysParams(), tol=1e-8, energy_history=hist)
        assert eq.converged
        e = np.array(hist)
        assert np.all(np.diff(e) <= 1e-10 * (1 + np.abs(e[:-1])))

    def test_trace_compatibility_required(self):
        g = Grid(16, 16)
        trace = angle_trace(g)
        d0 = unit_clipped_lift(BoundaryTrace.constant(g, (1.0, 0.0)))
        with pytest.raises(ValueError, match="trace"):
            solve_gradient_flow(trace, d0, PhysParams())

    def test_residual_monotone_to_convergence(self):
        # zero-winding boundary angle: the flow converges and the residual of
        # resumed solves keeps shrinking monotonically
        g = Grid(32, 32)
        trace = angle_trace(g, kappa=0.4)
        d0 = unit_clipped_lift(trace)
        params = PhysParams()
        residuals = []
        cur = d0
        for _ in range(6):
            eq = solve_gradient_flow(trace, cur, params, tol=1e-14, max_iter=2000)
            residuals.append(eq.residual)
            cur = eq.psi
        # monotone down to the roundoff floor of the residual evaluation
        assert all(b <= a + 1e-16 for a, b in zip(residuals[:-1], residuals[1:]))
        eq = solve_gradient_flow(trace, cur, params, tol=1e-10, max_iter=600_000)
        assert eq.converged
        assert eq.residual <= 1e-10


class TestReferenceRelaxation:
    """The stabilized relaxation behind ``reference_equilibrium``; iteration
    counts, not timings, so a regression shows deterministically."""

    @staticmethod
    def decay_scenario(nx, ny, ly=1.0):
        from nematicflow.harness import scenarios

        return scenarios.Scenario(
            name="decay", family="polynomial-decay", nx=nx, ny=ny, ly=ly,
            gamma=2.0, a_h=0.3, a_g=0.1, kappa=0.3, seed=1,
        )

    @classmethod
    def decay_start(cls, nx, ny=None, ly=1.0):
        from nematicflow.harness import scenarios

        sc = cls.decay_scenario(nx, ny or nx, ly)
        h_inf = scenarios.make_forcing(sc).h_inf
        return h_inf, unit_clipped_lift(h_inf), sc.params

    @pytest.mark.parametrize("nx,ny,ly", [(32, 32, 1.0), (64, 64, 1.0), (128, 128, 1.0), (96, 130, 1.3)])
    def test_converges_in_grid_independent_iterations(self, nx, ny, ly):
        from nematicflow.harness import scenarios

        # the relaxation alone reaches the reference tolerance in a
        # grid-independent number of corrections
        h_inf, d0, params = self.decay_start(nx, ny, ly)
        flow = solve_gradient_flow(h_inf, d0, params, tol=1e-11)
        assert flow.converged
        assert flow.residual <= 1e-11
        assert flow.iterations <= 40
        # and so does the hand-off to Newton that reference_equilibrium makes
        sc = self.decay_scenario(nx, ny, ly)
        eq = scenarios.reference_equilibrium(sc, scenarios.make_forcing(sc))
        assert eq.converged
        assert eq.residual <= 1e-11

    def test_small_eps_hands_off_to_newton(self, monkeypatch):
        # at eps = 0.05 the relaxation alone needs 534 corrections (one sine
        # solve each) to reach 1e-11; relaxing into Newton's basin and
        # finishing with Newton-MINRES needs far fewer solves
        import nematicflow.steady as steady
        from nematicflow.harness import scenarios

        calls = []
        original = steady.heat_solve_interior

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(steady, "heat_solve_interior", counting)
        sc = scenarios.Scenario(
            name="small-eps", family="polynomial-decay", params=PhysParams(eps=0.05)
        )
        eq = scenarios.reference_equilibrium(sc, scenarios.make_forcing(sc))
        assert eq.converged
        assert eq.residual <= 1e-11
        assert len(calls) <= 200

    def test_rising_residual_is_not_a_stall(self):
        # two boundary windings: on the way to the defect pair the residual
        # rises for about 30 corrections while the energy keeps falling
        from nematicflow.harness import scenarios

        sc = scenarios.Scenario(
            name="winding", family="polynomial-decay", nx=32, ny=32, winding=2,
            params=PhysParams(eps=0.15),
        )
        eq = scenarios.reference_equilibrium(sc, scenarios.make_forcing(sc))
        assert eq.converged
        assert eq.residual <= 1e-11

    def test_energy_non_increasing(self):
        h_inf, d0, params = self.decay_start(64)
        hist = []
        eq = solve_gradient_flow(h_inf, d0, params, tol=1e-11, energy_history=hist)
        assert eq.converged
        e = np.array(hist)
        assert len(e) == eq.iterations + 1
        assert np.all(np.diff(e) <= 1e-14 * (1 + np.abs(e[:-1])))

    def test_unreachable_tol_stops_at_smallest_residual(self, monkeypatch):
        import nematicflow.steady as steady

        h_inf, d0, params = self.decay_start(64)
        seen = []
        original = steady._defect_norm

        def recording(grid, r):
            seen.append(original(grid, r))
            return seen[-1]

        monkeypatch.setattr(steady, "_defect_norm", recording)
        eq = solve_gradient_flow(h_inf, d0, params, tol=1e-14)
        assert not eq.converged
        assert eq.iterations <= 100  # max_iter is 400 000
        # the last value is the re-evaluation for the returned iterate
        assert eq.residual == min(seen[:-1]) == seen[-1]
        assert eq.residual <= 1e-11


class TestNewton:
    def test_zero_step_at_exact_solution(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        d0 = unit_clipped_lift(trace)
        eq = solve_gradient_flow(trace, d0, PhysParams(), tol=1e-12)
        refined = newton_refine(eq, PhysParams(), tol=1e-12)
        assert np.max(np.abs(refined.psi.data - eq.psi.data)) < 1e-11

    def test_quadratic_residual_drop(self):
        g = Grid(24, 24)
        trace = angle_trace(g, kappa=0.5)
        d0 = unit_clipped_lift(trace)
        params = PhysParams()
        eq = solve_gradient_flow(trace, d0, params, tol=1e-4)
        res = [eq.residual]
        cur = eq
        for _ in range(3):
            cur = newton_refine(cur, params, tol=1e-15, max_iter=1)
            res.append(cur.residual)
            if res[-1] < 1e-13:
                break
        # near convergence each sweep must cut the residual by at least 10x
        for a, b in zip(res[:-1], res[1:]):
            assert b <= 0.1 * a or b < 1e-13

    def test_linear_limit_large_eps(self):
        # eps -> infinity kills the nonlinearity: Newton solves the harmonic
        # problem in one step from any starting point near the lift
        g = Grid(16, 16)
        trace = angle_trace(g)
        params = PhysParams(eps=1e6)
        d0 = unit_clipped_lift(trace)
        eq = solve_gradient_flow(trace, d0, params, tol=1e-2)
        refined = newton_refine(eq, params, tol=1e-11, max_iter=3)
        assert refined.converged
        lift = harmonic_extension(trace)
        assert np.max(np.abs(refined.psi.data - lift.data)) < 1e-7

    def test_basin_precondition(self):
        g = Grid(16, 16)
        trace = angle_trace(g)
        d0 = unit_clipped_lift(trace)
        eq = solve_gradient_flow(trace, d0, PhysParams(), tol=1e-8, max_iter=1)
        assert not eq.converged
        with pytest.raises(ValueError, match="Newton"):
            newton_refine(eq, PhysParams(), basin_radius=1e-9)


def jacobian_matrix(lap_matrix, grid, d, eps):
    """Sparse -lap + f'(psi) on interior nodes, component-major ordering."""
    import scipy.sparse as sp

    L = lap_matrix(grid)
    d1 = d[0, 1:-1, 1:-1].ravel()
    d2 = d[1, 1:-1, 1:-1].ravel()
    sq = d1**2 + d2**2 - 1.0
    a11 = (sq + 2.0 * d1 * d1) / eps**2
    a12 = (2.0 * d1 * d2) / eps**2
    a22 = (sq + 2.0 * d2 * d2) / eps**2
    return sp.bmat(
        [
            [-L + sp.diags(a11), sp.diags(a12)],
            [sp.diags(a12), -L + sp.diags(a22)],
        ],
        format="csr",
    )


class TestLinearization:
    def test_matches_sparse_jacobian(self, lap_matrix):
        g = Grid(24, 20, 1.0, 0.7)
        rng = np.random.default_rng(4)
        d = rng.uniform(-1.0, 1.0, (2, *g.shape))
        w = rng.standard_normal((2, g.nx - 2, g.ny - 2))
        eps = 0.2
        got = _linearization(g, d, eps)(w).ravel()
        want = jacobian_matrix(lap_matrix, g, d, eps) @ w.ravel()
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestMinres:
    @staticmethod
    def shifted_laplacian(g, shift):
        """w -> -lap_h w - shift w, and the sine-basis preconditioner."""
        from nematicflow.grid import interior_lap
        from nematicflow.linsolve import heat_solve_interior

        def apply_a(w):
            return -interior_lap(np.pad(w, ((0, 0), (1, 1), (1, 1))), g.hx, g.hy) - shift * w

        def apply_m(r):
            return heat_solve_interior(g, r, 1.0)

        return apply_a, apply_m

    @staticmethod
    def lowest_mode(g):
        X, Y = g.mesh()
        mode = np.sin(np.pi * X / g.lx) * np.sin(np.pi * Y / g.ly)
        lam = sum((2.0 - 2.0 * np.cos(np.pi / (n - 1))) / h**2 for n, h in ((g.nx, g.hx), (g.ny, g.hy)))
        return mode[1:-1, 1:-1], lam

    def test_indefinite_system_solved(self, lap_matrix):
        # a shift between the two lowest Dirichlet eigenvalues makes the
        # operator indefinite but nonsingular
        g = Grid(16, 12, 1.0, 0.8)
        apply_a, apply_m = self.shifted_laplacian(g, 60.0)
        b = np.random.default_rng(2).standard_normal((1, g.nx - 2, g.ny - 2))
        x = _minres(apply_a, apply_m, b)
        L = lap_matrix(g).toarray()
        dense = np.linalg.solve(-L - 60.0 * np.eye(L.shape[0]), b.ravel())
        assert np.max(np.abs(x.ravel() - dense)) <= 1e-8 * np.max(np.abs(dense))

    def test_singular_system_raises(self):
        # shifting by the lowest eigenvalue makes its sine mode a null vector;
        # a right-hand side with a part along it is outside the range
        g = Grid(16, 12, 1.0, 0.8)
        mode, lam = self.lowest_mode(g)
        apply_a, apply_m = self.shifted_laplacian(g, lam)
        assert np.max(np.abs(apply_a(mode[None]))) <= 1e-9 * lam
        b = mode[None] + 0.1 * np.random.default_rng(5).standard_normal((1, g.nx - 2, g.ny - 2))
        with pytest.raises(DegenerateCriticalPointError, match="stagnated"):
            _minres(apply_a, apply_m, b)


class TestEnergies:
    def test_E_minus_script_depends_only_on_trace(self):
        # mirrors the expansion of the lifted energy: the difference between
        # the two functionals is trace data only, so it is the same for any
        # field carrying that trace (up to the harmonic-solve tolerance)
        g = Grid(16, 16)
        trace = angle_trace(g)
        d_star = harmonic_extension(trace)
        rng = np.random.default_rng(0)
        params = PhysParams()

        def with_trace(seed):
            d = np.zeros((2, *g.shape))
            d[:, 1:-1, 1:-1] = rng.standard_normal((2, g.nx - 2, g.ny - 2)) * 0.3
            for k in range(2):
                set_ring(d[k], trace.values[:, k])
            d[:, 1:-1, 1:-1] += d_star.data[:, 1:-1, 1:-1]
            return VectorField2D(g, d)

        gaps = []
        for seed in range(3):
            psi = with_trace(seed)
            gaps.append(energy_E(psi, params.eps) - energy_script(psi, d_star, params.eps))
        assert max(gaps) - min(gaps) < 1e-10

    def test_critical_point_characterization(self):
        # <-lap psi + f(psi), z> below tolerance for random zero-trace z
        g = Grid(16, 16)
        trace = angle_trace(g)
        params = PhysParams()
        eq = solve_gradient_flow(trace, unit_clipped_lift(trace), params, tol=1e-4)
        eq = newton_refine(eq, params, tol=1e-12)
        from nematicflow.grid import _lap_interior, ginzburg_landau_f

        res = np.zeros((2, *g.shape))
        f = ginzburg_landau_f(eq.psi, params.eps).data
        for k in range(2):
            res[k, 1:-1, 1:-1] = (
                -_lap_interior(eq.psi.data[k], g.hx, g.hy)[1:-1, 1:-1]
                + f[k, 1:-1, 1:-1]
            )
        rng = np.random.default_rng(1)
        cell = g.hx * g.hy
        for _ in range(5):
            z = np.zeros((2, *g.shape))
            z[:, 1:-1, 1:-1] = rng.standard_normal((2, g.nx - 2, g.ny - 2))
            inner = cell * sum(np.sum(res[k] * z[k]) for k in range(2))
            z_h1 = np.sqrt(cell * np.sum(z**2))
            assert abs(inner) <= 1e-10 * z_h1


class TestMinimizerCheck:
    def test_constant_unit_is_minimizer(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        eq = solve_gradient_flow(trace, unit_clipped_lift(trace), PhysParams(), tol=1e-11)
        verdict = local_minimizer_check(eq, PhysParams(), n_probe=24, delta=0.05, seed=0)
        assert verdict.kind == "minimizer-consistent"
        assert verdict.min_rayleigh > 0

    def test_zero_state_is_saddle_for_small_eps(self):
        # psi = 0 solves the stationary problem with h_inf = 0; for eps small
        # enough the potential well at |d| = 1 dominates the gradient cost and
        # a descent direction exists
        g = Grid(24, 24)
        params = PhysParams(eps=0.1)
        trace = BoundaryTrace.constant(g, (0.0, 0.0))
        psi = VectorField2D.zeros(g)
        from nematicflow.steady import _make_equilibrium

        eq = _make_equilibrium(psi, params, True, 0, trace)
        assert eq.residual < 1e-14
        verdict = local_minimizer_check(eq, params, n_probe=16, delta=0.05, seed=0)
        assert verdict.kind == "saddle-detected"
        assert verdict.min_rayleigh < 0
        assert verdict.witness is not None

    def test_zero_delta_trivially_consistent(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        eq = solve_gradient_flow(trace, unit_clipped_lift(trace), PhysParams(), tol=1e-11)
        verdict = local_minimizer_check(eq, PhysParams(), n_probe=8, delta=0.0)
        assert verdict.kind == "minimizer-consistent"

    def test_unconverged_rejected(self):
        g = Grid(16, 16)
        trace = angle_trace(g)
        eq = solve_gradient_flow(trace, unit_clipped_lift(trace), PhysParams(), max_iter=1)
        with pytest.raises(ValueError, match="converged"):
            local_minimizer_check(eq, PhysParams())


class TestResidual:
    def test_stationary_residual_zero_for_constant_unit(self):
        g = Grid(12, 12)
        d = VectorField2D(g, np.stack([np.ones(g.shape), np.zeros(g.shape)]))
        assert stationary_residual(d, 0.25) < 1e-14
