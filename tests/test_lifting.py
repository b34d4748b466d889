import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from nematicflow.dynamics import Forcing
from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    _lap_interior,
    boundary_arclength,
    extract_ring,
    interior_lap,
)
from nematicflow.lifting import (
    InsufficientDataError,
    LiftingState,
    appendix_diagnostics,
    evolve_lifting,
    init_lifting,
    lifting_series,
    parabolic_lift_step,
)
from nematicflow.linsolve import (
    EPS,
    POISSON_BACKWARD_ERROR,
    harmonic_extension,
    poisson_backward_error,
    solve_poisson_dirichlet,
)


def decaying_boundary(grid, gamma=2.0, a_h=0.3, kappa=0.3):
    s = boundary_arclength(grid) / (2 * (grid.lx + grid.ly))
    phi_inf = kappa * np.sin(2 * np.pi * s)
    psi_b = np.sin(4 * np.pi * s)

    def h(t):
        phi = phi_inf + a_h * (1 + t) ** (-1 - gamma) * psi_b
        return np.stack([np.cos(phi), np.sin(phi)], axis=1)

    return h


class TestEllipticLift:
    def test_constant_trace(self):
        g = Grid(12, 12)
        lift = harmonic_extension(BoundaryTrace.constant(g, (0.3, -0.4)))
        assert np.max(np.abs(lift.data[0] - 0.3)) < 1e-12
        assert np.max(np.abs(lift.data[1] + 0.4)) < 1e-12

    def test_linear_trace(self):
        g = Grid(16, 16)
        X, Y = g.mesh()
        exact = np.stack([X, Y])
        trace = BoundaryTrace(g, np.stack([extract_ring(exact[0]), extract_ring(exact[1])], axis=1))
        lift = harmonic_extension(trace)
        assert np.max(np.abs(lift.data - exact)) < 1e-11

    def test_against_dense_oracle(self, lap_matrix, ring_contribution):
        g = Grid(16, 16)
        s = boundary_arclength(g)
        phi = np.pi * s / s.max()
        trace = BoundaryTrace(g, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        lift = harmonic_extension(trace)
        # dense solve of the same interior system
        L = lap_matrix(g).toarray()
        for k in range(2):
            b = -ring_contribution(g, trace.component(k)).ravel()
            dense = np.linalg.solve(L, b).reshape(g.nx - 2, g.ny - 2)
            assert np.max(np.abs(lift.data[k][1:-1, 1:-1] - dense)) < 1e-10


    @pytest.mark.parametrize("nx, ny, lx, ly", [(16, 16, 1.0, 1.0), (33, 20, 2.0, 1.0), (128, 128, 1.0, 1.0)])
    def test_batched_equals_componentwise_poisson(self, nx, ny, lx, ly):
        g = Grid(nx, ny, lx, ly)
        rng = np.random.default_rng(nx + ny)
        trace = BoundaryTrace(g, rng.uniform(-1, 1, (g.n_boundary, 2)))
        lift = harmonic_extension(trace)
        zero = np.zeros((nx - 2, ny - 2))
        for k in range(2):
            ref = solve_poisson_dirichlet(g, zero[None], trace.values[:, k : k + 1])[0]
            assert np.max(np.abs(lift.data[k] - ref)) <= 1e-14 * np.max(np.abs(ref))
            # the one-time exactness check that replaces a per-call residual test
            assert poisson_backward_error(g, lift.data[k], zero) <= POISSON_BACKWARD_ERROR
            assert np.array_equal(extract_ring(lift.data[k]), trace.component(k))


class TestParabolicLift:
    def test_constant_trace_is_fixed_point(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (0.6, 0.8))
        state = init_lifting(trace)
        for _ in range(5):
            state = parabolic_lift_step(state, trace.values, dt=0.05)
        assert np.max(np.abs(state.dP.data - state.dE.data)) < 1e-10
        assert np.max(np.abs(state.dt_dP.data)) < 1e-9

    def test_decaying_trace_vs_refined_dt_oracle(self):
        g = Grid(16, 16)
        h = decaying_boundary(g, gamma=2.0)
        t_end, dt = 1.0, 0.05

        def march(dt):
            state = init_lifting(BoundaryTrace(g, h(0.0)))
            n = int(round(t_end / dt))
            for k in range(1, n + 1):
                state = parabolic_lift_step(state, h(k * dt), dt)
            return state

        coarse = march(dt)
        fine = march(dt / 4.0)

        def h1_norm(diff):
            from nematicflow.diagnostics import edge_seminorm_sq
            from nematicflow.grid import quad_weights

            w = quad_weights(g)
            return np.sqrt(
                sum(np.sum(w * diff[k] ** 2) for k in range(2)) + edge_seminorm_sq(g, diff)
            )

        val_c = h1_norm(coarse.dP.data - coarse.dE.data)
        val_f = h1_norm(fine.dP.data - fine.dE.data)
        assert val_f > 0
        assert abs(val_c - val_f) / val_f <= 5e-2

    def test_jumped_trace_lags(self):
        g = Grid(12, 12)
        state = init_lifting(BoundaryTrace.constant(g, (1.0, 0.0)))
        jumped = BoundaryTrace.constant(g, (0.0, 1.0))
        state = parabolic_lift_step(state, jumped.values, dt=0.01)
        # parabolic smoothing delays the interior response behind d_E
        assert np.max(np.abs(state.dP.data - state.dE.data)) > 1e-3

    def test_identity_lap_diff_equals_dt_dP(self):
        # -lap(dP - dE) = -dt dP at interior nodes, up to solver tolerance
        g = Grid(16, 16)
        h = decaying_boundary(g)
        state = init_lifting(BoundaryTrace(g, h(0.0)))
        dt = 0.02
        for k in range(1, 6):
            state = parabolic_lift_step(state, h(k * dt), dt)
        diff = state.dP.data - state.dE.data
        for k in range(2):
            lap = _lap_interior(diff[k], g.hx, g.hy)[1:-1, 1:-1]
            err = np.max(np.abs(lap - state.dt_dP.data[k][1:-1, 1:-1]))
            assert err < 1e-8 * max(1.0, np.max(np.abs(lap)))

    def test_dt_validation(self):
        g = Grid(8, 8)
        state = init_lifting(BoundaryTrace.constant(g, (1, 0)))
        with pytest.raises(ValueError):
            parabolic_lift_step(state, BoundaryTrace.constant(g, (1, 0)).values, dt=0.0)


def identity_ratio(state: LiftingState, dt: float) -> float:
    """max |lap_h(d_P - d_E) - dt d_P| over eps (1/dt + |lap_h|) max|d_P|."""
    g = state.dE.grid
    lap = interior_lap(state.dP.data - state.dE.data, g.hx, g.hy)
    err = np.max(np.abs(lap - state.dt_dP.data[:, 1:-1, 1:-1]))
    return err / (EPS * (1.0 / dt + 4.0 / g.hx**2 + 4.0 / g.hy**2) * np.max(np.abs(state.dP.data)))


class TestLiftingInSineBasis:
    FIELDS = ("dE", "dP", "dt_dP", "dt_dE")

    def two_steps(self, g, dt=0.02):
        h = decaying_boundary(g)
        s0 = init_lifting(BoundaryTrace(g, h(0.0)))
        return parabolic_lift_step(s0, h(dt), dt), h(2 * dt)

    def test_built_fields_are_read_only_owned_and_stable(self):
        s1, _ = self.two_steps(Grid(16, 16))
        for name in self.FIELDS:
            field = getattr(s1, name)
            assert getattr(s1, name) is field, name
            assert not field.data.flags.writeable, name
            assert field.data.base is None, name

    def test_kept_state_holds_one_earlier_level(self):
        # a state keeps the previous level's d_P coefficients and ring values
        # (for dt d_P and dt d_E), and nothing older; built fields keep nothing
        g = Grid(16, 16)
        h = decaying_boundary(g)
        dt = 0.02
        states = [init_lifting(BoundaryTrace(g, h(0.0)))]
        for k in range(1, 4):
            states.append(parabolic_lift_step(states[-1], h(k * dt), dt))
        for s in states:
            for name in self.FIELDS:
                getattr(s, name)
        first = [weakref.ref(states[0].p), weakref.ref(states[0].h)]
        second = [weakref.ref(states[1].p), weakref.ref(states[1].h)]
        del states[:2]
        gc.collect()
        assert all(ref() is None for ref in first)
        assert all(ref() is not None for ref in second)  # the third state's *_prev

    def test_identity_holds_after_200_steps(self):
        g = Grid(24, 20, 1.0, 0.8)
        h = decaying_boundary(g)
        dt = 0.01
        state = init_lifting(BoundaryTrace(g, h(0.0)))
        for k in range(1, 201):
            state = parabolic_lift_step(state, h(k * dt), dt)
        assert np.max(np.abs(state.dt_dP.data)) > 1e-3  # the trace still moves
        assert identity_ratio(state, dt) <= 64


class TestAppendixDiagnostics:
    def test_constant_trace_all_pass(self):
        g = Grid(12, 12)
        trace_fn = lambda t: BoundaryTrace.constant(g, (0.6, -0.8)).values
        history = evolve_lifting(Forcing(g, trace_fn), t_end=2.0, dt=0.1)
        report = appendix_diagnostics(history, gamma=2.0)
        assert report.passed()
        assert report.dt_dP_final < 1e-9

    def test_synthetic_power_law_exponent(self):
        # inject |dt d_P|^2 = (1+t)^(-6): the fitted exponent must return 6
        g = Grid(16, 16)
        base = init_lifting(BoundaryTrace.constant(g, (0.0, 0.0)))
        bump = np.zeros((2, *g.shape))
        bump[0, 1:-1, 1:-1] = 1.0
        from nematicflow.grid import quad_weights

        w = quad_weights(g)
        bump /= np.sqrt(np.sum(w * bump[0] ** 2))
        history = []
        for t in np.linspace(0.0, 20.0, 64):
            amp = (1.0 + t) ** -3.0
            history.append(replace(base, t=float(t), dt_dP=VectorField2D(g, amp * bump)))
        report = appendix_diagnostics(history, gamma=2.0)
        a8 = report.checks["A8"]
        assert abs(a8.fitted_exponent - 6.0) <= 0.05

    def test_gamma2_family_decay(self):
        g = Grid(16, 16)
        h = decaying_boundary(g, gamma=2.0)
        history = evolve_lifting(Forcing(g, h), t_end=30.0, dt=0.05, sample_every=10)
        report = appendix_diagnostics(history, gamma=2.0)
        assert report.checks["A8"].fitted_exponent >= 2 + 2 * 2.0 - 0.3
        assert report.checks["A3"].passed
        assert report.passed()

    def test_history_too_short(self):
        g = Grid(8, 8)
        history = evolve_lifting(Forcing(g, lambda t: BoundaryTrace.constant(g, (1, 0)).values), 0.5, 0.1)
        with pytest.raises(InsufficientDataError):
            appendix_diagnostics(history, gamma=1.0)

    def test_series_keys(self):
        g = Grid(8, 8)
        history = evolve_lifting(Forcing(g, lambda t: BoundaryTrace.constant(g, (1, 0)).values), 2.0, 0.1)
        ser = lifting_series(history)
        assert set(ser) >= {"t", "dPdE_h1", "dt_dP", "grad_lap_dP", "ht_h12_sq"}
