import logging
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from nematicflow.diagnostics import energy_inequality_residual, energy_record, norms
from nematicflow.dynamics import (
    Forcing,
    PhysParams,
    SetupError,
    cfl_number,
    default_dt,
    init,
    make_divergence_free_velocity,
    run,
    step,
)
from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    divergence,
    extract_ring,
    row_stencils,
    set_ring,
    stress_rows,
    trusted_field,
)
from nematicflow.lifting import parabolic_lift_step
from nematicflow.linsolve import EPS, POISSON_BACKWARD_ERROR, heat_solve_interior


def constant_forcing(grid, vec=(1.0, 0.0)):
    return Forcing(grid, BoundaryTrace.constant(grid, vec))


def bump_director(grid, forcing, amplitude=0.5):
    X, Y = grid.mesh()
    chi = amplitude * 16 * X * (1 - X) * Y * (1 - Y)
    d0 = VectorField2D(grid, np.stack([np.cos(chi), np.sin(chi)]))
    h0 = forcing.boundary(0.0)
    for k in range(2):
        set_ring(d0.data[k], h0[:, k])
    return d0


def manufactured_state(n, dt):
    """Initial state on an n x n grid, and the exact director d(t), of a
    manufactured solution: v = 0, pi = 0 and d = (cos phi, sin phi) with
    phi = a e^{-t} sin(pi x) sin(pi y) solve the system under a director
    source and a body force computed analytically."""
    a = 0.5
    p = PhysParams()
    g = Grid(n, n)
    X, Y = g.mesh()

    def d_exact(t):
        phi = a * np.exp(-t) * np.sin(np.pi * X) * np.sin(np.pi * Y)
        return np.stack([np.cos(phi), np.sin(phi)])

    def phi_derivs(t):
        s = np.sin(np.pi * X) * np.sin(np.pi * Y)
        phi = a * np.exp(-t) * s
        phi_x = a * np.exp(-t) * np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
        phi_y = a * np.exp(-t) * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
        return phi, -phi, phi_x, phi_y, -2 * np.pi**2 * phi

    def director_source(t):
        # S = d_t - eta*(lap d - f(d)); |d| = 1 so f(d) = 0
        phi, phi_t, phi_x, phi_y, lap_phi = phi_derivs(t)
        grad_sq = phi_x**2 + phi_y**2
        c, s_ = np.cos(phi), np.sin(phi)
        d_t = np.stack([-s_ * phi_t, c * phi_t])
        lap_d = np.stack([-s_ * lap_phi - c * grad_sq, c * lap_phi - s_ * grad_sq])
        return d_t - p.eta * lap_d

    def body_force(t):
        # g = lambda * (lap d . grad d) so that v = 0, pi = 0 is exact;
        # lap d . dx d = lap_phi * phi_x (unit director algebra)
        _, _, phi_x, phi_y, lap_phi = phi_derivs(t)
        return p.lam * np.stack([lap_phi * phi_x, lap_phi * phi_y])

    trace = BoundaryTrace.constant(g, (1.0, 0.0))  # phi = 0 on the ring
    forcing = Forcing(
        g, trace, body_force_values=body_force, director_source_values=director_source
    )
    d0 = VectorField2D(g, d_exact(0.0))
    set_ring(d0.data, trace.values)
    return init(VectorField2D.zeros(g), d0, forcing, p, dt=dt), d_exact


class TestPhysParams:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            PhysParams(nu=0.0)
        with pytest.raises(ValueError):
            PhysParams(eps=-0.1)


class TestForcing:
    def test_boundary_magnitude_guard(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError, match="exceeds 1"):
            Forcing(g, lambda t: np.full((g.n_boundary, 2), 1.0))  # |h| = sqrt(2)

    def test_moving_trace_checked_at_every_step(self):
        # |h| = 1.5 only on 0.4 < t < 0.6: the constructor, reading t = 0,
        # accepts it, and the run stops at the first step that reads it
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))

        def h(t):
            return trace.values * (1.5 if 0.4 < t < 0.6 else 1.0)

        forcing = Forcing(g, h)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=0.03)
        summary = run(s, t_end=1.0, sample_every=1)
        assert summary.aborted
        assert "|h| exceeds 1 at t=0.42" in summary.abort_reason
        assert "max |h| = 1.5" in summary.abort_reason
        assert summary.n_steps == 13
        assert summary.final.t < 0.4

    def test_nonfinite_boundary_refused_naming_t(self):
        # NaN > 1 is False, so the magnitude guard alone would let NaN through
        g = Grid(8, 8)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))

        def h(t):
            vals = trace.values.copy()
            if t > 0.5:
                vals[3, 1] = np.nan
            return vals

        forcing = Forcing(g, h)
        with pytest.raises(ValueError, match="h is not finite at t=0.75"):
            forcing.boundary(0.75)
        with pytest.raises(ValueError, match="not finite at t=0"):
            Forcing(g, lambda t: np.full((g.n_boundary, 2), np.nan))

    @pytest.mark.parametrize("shape", ["nb, 3", "5, 2", "nb"])
    def test_misshaped_boundary_refused_naming_t_and_shape(self, shape):
        # with h_inf given the constructor builds no BoundaryTrace from h(0),
        # so Forcing.boundary alone must refuse the shape
        g = Grid(8, 8)
        bad = tuple(g.n_boundary if n == "nb" else int(n) for n in shape.split(", "))
        good = BoundaryTrace.constant(g, (1.0, 0.0))

        def h(t):
            return np.full(bad, 0.5) if t > 0.5 else good.values

        forcing = Forcing(g, h, h_inf=good)
        expected = f"h at t=0.75 has shape {bad}, expected ({g.n_boundary}, 2)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            forcing.boundary(0.75)
        with pytest.raises(ValueError, match=re.escape(f"h at t=0 has shape {bad}")):
            Forcing(g, lambda t: np.full(bad, 0.5), h_inf=good)

    def test_nonfinite_body_force_refused_naming_t(self):
        g = Grid(8, 8)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))

        def gfun(t):
            arr = np.zeros((2, *g.shape))
            arr[1, 4, 2] = np.inf if t > 0.5 else 0.0
            return arr

        forcing = Forcing(g, lambda t: trace.values, body_force_values=gfun)
        assert np.all(forcing.body_force(0.25).data == 0.0)
        with pytest.raises(ValueError, match="body force at t=0.75: .*non-finite"):
            forcing.body_force(0.75)

    def test_trace_is_static_and_its_own_h_inf(self):
        g = Grid(8, 8)
        s_arc = np.arange(g.n_boundary) / g.n_boundary
        phi = 0.4 * np.sin(2 * np.pi * s_arc)
        trace = BoundaryTrace(g, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        forcing = Forcing(g, trace)
        assert forcing.static_trace and forcing.h_inf is trace
        for t in (0.0, 1e-3, 0.37, 1e6):
            assert forcing.boundary(t).tobytes() == trace.values.tobytes()
        assert not Forcing(g, lambda t: trace.values).static_trace
        with pytest.raises(ValueError, match="exceeds 1 at t=0"):
            Forcing(g, BoundaryTrace.constant(g, (1.5, 0.0)))
        with pytest.raises(ValueError, match="its own h_inf"):
            Forcing(g, trace, h_inf=trace)

    def test_static_trace_checked_once_at_construction(self, monkeypatch):
        g = Grid(8, 8)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=1e-3)
        reads = []
        boundary = forcing.boundary

        def counting(t):
            reads.append(t)
            return boundary(t)

        monkeypatch.setattr(forcing, "boundary", counting)
        summary = run(s, t_end=10 * s.dt, sample_every=1)
        assert summary.n_steps == 10 and not summary.aborted
        assert reads == []  # neither the step nor the sample reads a static trace

    def test_body_force_is_the_callable_at_each_time(self):
        from nematicflow.diagnostics import _l2_sq
        from nematicflow.harness.scenarios import Scenario, generate_scenario

        sc = Scenario(name="x", family="polynomial-decay", nx=16, ny=16, dt=2.5e-3, seed=1)
        s = generate_scenario(sc).state
        forcing = s.forcing
        body = forcing._body
        # g moves with t, so an answer kept from an earlier t would differ
        for t in (0.25, 0.5, 0.25, 0.25, 3.0, 0.0):
            assert np.array_equal(forcing.body_force(t).data, body(t))
        summary = run(s, t_end=5.5 * s.dt, sample_every=1)
        assert summary.n_steps == 6
        expected = [np.sqrt(_l2_sq(s.v.grid, body(r.t))) for r in summary.records]
        assert list(summary.aux["g_l2"]) == expected


class TestInit:
    def test_nonzero_boundary_velocity_rejected(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        v0 = VectorField2D(g, np.ones((2, *g.shape)))
        d0 = bump_director(g, forcing)
        with pytest.raises(SetupError, match="no-slip"):
            init(v0, d0, forcing, PhysParams())

    def test_trace_mismatch_rejected(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing)
        d0.data[0][0, 0] += 1e-3
        with pytest.raises(SetupError, match="compatibility"):
            init(VectorField2D.zeros(g), d0, forcing, PhysParams())

    def test_overlong_director_rejected(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing)
        d0.data[0][5, 5] = 1.5
        with pytest.raises(SetupError, match="exceed 1"):
            init(VectorField2D.zeros(g), d0, forcing, PhysParams())

    def test_initial_velocity_projected(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing)
        v0 = VectorField2D.zeros(g)
        rng = np.random.default_rng(0)
        v0.data[:, 1:-1, 1:-1] = 0.1 * rng.standard_normal((2, g.nx - 2, g.ny - 2))
        s = init(v0, d0, forcing, PhysParams())
        # the scale of the multiplier solve's backward error, as in
        # test_projection_divergence_at_rounding_scale
        lam = np.max(np.abs(s.pi.data - s.pi.data[0, 0]))
        data = (1.0 / g.hx + 1.0 / g.hy) * np.max(np.abs(v0.data)) + (g.hx**-2 + g.hy**-2) * lam
        scale = (g.nx + g.ny - 4) * EPS * data
        assert np.max(np.abs(divergence(s.v).data[1:-1, 1:-1])) <= POISSON_BACKWARD_ERROR * scale

    def test_lift_initialization(self):
        # d_P(0) must equal the harmonic extension of the initial trace
        from nematicflow.linsolve import harmonic_extension

        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams())
        assert np.array_equal(s.lifting.dP.data, s.lifting.dE.data)
        assert np.array_equal(s.lifting.dE.data, harmonic_extension(forcing.h_inf).data)
        assert np.max(np.abs(s.lifting.dE.data[0] - 1.0)) < 1e-12

    def test_default_dt_rule(self):
        g = Grid(64, 64)
        p = PhysParams(nu=2.0, eta=0.5)
        assert default_dt(g, p) == pytest.approx(0.25 * g.hx**2 / 2.0)


class TestStep:
    def test_equilibrium_is_fixed_point(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.0)  # constant unit director
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams())
        s1 = step(s)
        assert max(step_backward_errors(s, s1)) <= POISSON_BACKWARD_ERROR
        scale = (g.nx + g.ny - 4) * EPS * np.max(np.abs(s.d.data))
        assert np.max(np.abs(s1.d.data - s.d.data)) <= scale

    def test_pure_director_relaxation_matches_steady_solver(self):
        # v frozen at zero: the director must relax to the steady solver's
        # output on the same grid (cross-module oracle)
        from nematicflow.grid import boundary_arclength
        from nematicflow.steady import newton_refine, solve_gradient_flow

        g = Grid(16, 16)
        s_arc = boundary_arclength(g) / (2 * (g.lx + g.ly))
        phi = 0.3 * np.sin(2 * np.pi * s_arc)
        trace = BoundaryTrace(g, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        forcing = Forcing(g, trace)
        from nematicflow.linsolve import harmonic_extension

        d0 = harmonic_extension(trace)
        mag = d0.magnitude()
        d0 = VectorField2D(g, d0.data * np.minimum(1.0, 1.0 / np.maximum(mag, 1e-300)))
        for k in range(2):
            set_ring(d0.data[k], trace.values[:, k])
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=2e-3)
        zero_v = VectorField2D.zeros(g)
        for _ in range(int(6.0 / s.dt)):
            s = step(s)
            s = replace(s, v=zero_v)
        eq = solve_gradient_flow(harmonic_extension(trace), d0, PhysParams(), tol=1e-5)
        eq = newton_refine(eq, PhysParams(), tol=1e-12)
        dist = norms(VectorField2D(g, s.d.data - eq.psi.data), "L2")
        assert dist <= 1e-6

    def test_manufactured_solution_order(self):
        def run_level(n, dt, t_end=0.25):
            s, d_exact = manufactured_state(n, dt)
            for _ in range(int(round(t_end / dt))):
                s = step(s)
            return np.max(np.abs(s.d.data - d_exact(s.t))) + np.max(np.abs(s.v.data))

        e1 = run_level(16, 4e-3)
        e2 = run_level(32, 2e-3)
        assert e1 / e2 >= 1.6  # O(dt + h^2): halving both at least ~halves error


def step_backward_errors(s, s1):
    """Backward errors of (D), (V) and (P) of the ``dynamics`` docstring on
    the step from ``s`` to ``s1``, in units of (mx + my) eps (|A| max|x| +
    max|b|), as ``poisson_backward_error``; |b| sums the magnitudes of b's
    terms, which cancel where a source balances the stress.  (P) takes the
    scale of the projection's multiplier solve, as
    ``test_projection_divergence_at_rounding_scale``.  Test-local stencils,
    no solve.  The forcing is read from ``s``; the rings must hold bit for bit.
    """
    g, p, dt = s.v.grid, s.params, s.dt
    hx, hy = g.hx, g.hy
    v0, d0, v1, d1, pi = s.v.data, s.d.data, s1.v.data, s1.d.data, s1.pi.data
    assert np.array_equal(extract_ring(d1), s.forcing.boundary(s1.t))
    assert np.array_equal(extract_ring(v1), np.zeros((g.n_boundary, 2)))

    def mid(w):
        return w[..., 1:-1, 1:-1]

    def dx(w):
        return (w[..., 2:, 1:-1] - w[..., :-2, 1:-1]) / (2.0 * hx)

    def dy(w):
        return (w[..., 1:-1, 2:] - w[..., 1:-1, :-2]) / (2.0 * hy)

    def lap(w):
        return (w[..., 2:, 1:-1] - 2.0 * mid(w) + w[..., :-2, 1:-1]) / hx**2 + (
            w[..., 1:-1, 2:] - 2.0 * mid(w) + w[..., 1:-1, :-2]
        ) / hy**2

    def advect(w):
        return mid(v0[0]) * dx(w) + mid(v0[1]) * dy(w)

    def ratio(residual, data):
        return np.max(np.abs(residual)) / ((g.nx + g.ny - 4) * EPS * data)

    def implicit(coef, x, terms):  # (I - coef lap_h) x = sum(terms)
        a_norm = 1.0 + coef * (4.0 / hx**2 + 4.0 / hy**2)
        data = a_norm * np.max(np.abs(x)) + np.max(sum(map(np.abs, terms)))
        return ratio(mid(x) - coef * lap(x) - sum(terms), data)

    src, gf = s.forcing.director_source(s1.t), s.forcing.body_force(s1.t)
    f = (mid(d0[0]) ** 2 + mid(d0[1]) ** 2 - 1.0) / p.eps**2 * mid(d0)
    source = 0.0 if src is None else dt * mid(src.data)
    r_d = implicit(p.eta * dt, d1, [mid(d0), -dt * advect(d0), -dt * p.eta * f, source])
    u = v1.copy()  # u* = v1 + grad_h pi1
    mid(u)[...] += np.stack([dx(pi), dy(pi)])
    sigma = np.stack([np.sum(lap(d1) * dx(d1), axis=0), np.sum(lap(d1) * dy(d1), axis=0)])
    force = 0.0 if gf is None else dt * mid(gf.data)
    r_v = implicit(p.nu * dt, u, [mid(v0), -dt * advect(v0), -dt * p.lam * sigma, force])
    lam = np.max(np.abs(pi - pi[0, 0]))
    data = (1.0 / hx + 1.0 / hy) * np.max(np.abs(u)) + (hx**-2 + hy**-2) * lam
    return r_d, r_v, ratio(dx(v1[0]) + dy(v1[1]), data)


def _scenario(family, nx, ny, **kw):
    from nematicflow.harness.scenarios import Scenario, generate_scenario

    sc = Scenario(
        name="x", family=family, nx=nx, ny=ny, a_h=0.3, a_g=0.2, kappa=0.3,
        d0_perturbation=0.4, v0_amplitude=0.3, dt=2e-3, seed=4, **kw,
    )
    return generate_scenario(sc)


def decay_state():
    """24 x 20 with ly = 0.8, a moving trace and a body force."""
    return _scenario("polynomial-decay", 24, 20, ly=0.8).state


def _at_rest_on_psi():
    gen = _scenario("autonomous", 24, 20, ly=0.8)
    zero = VectorField2D.zeros(gen.forcing.grid)
    return init(zero, gen.reference.psi, gen.forcing, PhysParams(), dt=2e-3)


def _static_16(dt=None):
    g = Grid(16, 16)
    forcing = constant_forcing(g)
    v0 = make_divergence_free_velocity(g, 3, 0.3)
    return init(v0, bump_director(g, forcing), forcing, PhysParams(), dt=dt)


# every path step takes: case -> (initial state, steps)
STEP_CASES = {
    "decay": (decay_state, 20),
    "static-trace": (lambda: _scenario("autonomous", 24, 20, ly=0.8).state, 10),
    "director-source": (lambda: manufactured_state(16, 4e-3)[0], 10),
    "odd-odd-33": (lambda: _scenario("polynomial-decay", 33, 33).state, 10),
    "17x40": (lambda: _scenario("polynomial-decay", 17, 40, lx=2.0, ly=0.5).state, 10),
    "at-rest-on-psi": (_at_rest_on_psi, 10),
    "static-16": (_static_16, 5),
    # eta dt / eps^2 = 1.6: the explicit penalization nearly cancels d
    "static-16-dt0.1": (lambda: _static_16(dt=0.1), 5),
}


class TestStepBackwardErrors:
    @pytest.mark.parametrize("case", STEP_CASES)
    def test_each_step_satisfies_its_equations(self, case):
        build, n_steps = STEP_CASES[case]
        s = build()
        lift = s.lifting
        for _ in range(n_steps):
            s1 = step(s)
            assert max(step_backward_errors(s, s1)) <= POISSON_BACKWARD_ERROR
            if not s.forcing.static_trace:  # the liftings advance by h(t1) and dt
                lift = parabolic_lift_step(lift, s.forcing.boundary(s1.t), s.dt)
                for name in ("h", "p", "p_prev", "e"):
                    assert np.array_equal(getattr(s1.lifting, name), getattr(lift, name)), name
            s = s1

    # defect -> the relation it breaks: 0 (D), 1 (V) or 2 (P)
    DEFECTS = {
        "projection skipped": 2,
        "director advection flipped": 0,
        "stress dropped": 1,
        "stress on d^n": 1,
        "lagged d_E": 0,
        "body force dropped": 1,
    }

    @pytest.mark.parametrize("defect", DEFECTS)
    def test_each_planted_defect_breaks_its_equation(self, monkeypatch, defect):
        import nematicflow.dynamics as dyn

        s = decay_state()
        stepped = s
        seen = []  # the arguments a recording binding was called with
        if defect == "projection skipped":
            monkeypatch.setattr(
                dyn, "project_divergence_free", lambda u: (u, ScalarField2D.zeros(u.grid))
            )
        elif defect == "director advection flipped":
            # stress_rows reads grid's own binding, so only the advection flips
            def flipped(field):
                dx, dy, lap = row_stencils(field)
                return -dx, -dy, lap

            monkeypatch.setattr(dyn, "row_stencils", flipped)
        elif defect == "stress dropped":
            monkeypatch.setattr(dyn, "stress_rows", lambda d: np.zeros((2, d.grid.nx - 2, d.grid.ny)))
        elif defect == "stress on d^n":
            monkeypatch.setattr(dyn, "row_stencils", lambda f: seen.append(f) or row_stencils(f))
            monkeypatch.setattr(dyn, "stress_rows", lambda d: stress_rows(seen[-1]))
        elif defect == "lagged d_E":

            def recording(lift, h, dt):
                seen.append(lift.e)
                return parabolic_lift_step(lift, h, dt)

            def lagged(g, b, coef, harmonic=None):
                return heat_solve_interior(g, b, coef, None if harmonic is None else seen[-1])

            monkeypatch.setattr(dyn, "parabolic_lift_step", recording)
            monkeypatch.setattr(dyn, "heat_solve_interior", lagged)
        else:  # the step reads a copy of the state with no body force
            f = s.forcing
            stepped = replace(s, forcing=Forcing(f.grid, f.boundary, h_inf=f.h_inf))
        ratios = step_backward_errors(s, step(stepped))
        assert ratios[self.DEFECTS[defect]] > 1e6, ratios


class TestRun:
    def test_record_count(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.3)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=1e-3)
        summary = run(s, t_end=20 * s.dt, sample_every=3)
        assert summary.n_steps == 20
        assert len(summary.records) == 20 // 3 + 1

    def test_energy_monotone_short_run(self):
        g = Grid(32, 32)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.5)
        v0 = make_divergence_free_velocity(g, 2, 0.3)
        s = init(v0, d0, forcing, PhysParams())
        summary = run(s, t_end=300 * s.dt, sample_every=1)
        recs = summary.records
        e0 = recs[0].E_hat
        slack = 1e-8 * (1 + e0)
        for k in range(len(recs) - 1):
            assert energy_inequality_residual(recs[k], recs[k + 1], s.dt) <= slack
            assert recs[k + 1].E_hat <= recs[k].E_hat + 1e-13 * (1 + e0)

    def test_max_principle_short_run(self):
        g = Grid(24, 24)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.7)
        v0 = make_divergence_free_velocity(g, 6, 0.4)
        s = init(v0, d0, forcing, PhysParams(), dt=1e-3)
        summary = run(s, t_end=0.3, sample_every=5)
        assert max(r.max_abs_d for r in summary.records) <= 1.0 + 5e-3

    def test_abort_on_nonfinite_forcing(self):
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))

        def gfun(t):
            arr = np.zeros((2, *g.shape))
            if t > 0.05:
                arr[0, 5, 5] = np.nan
            return arr

        forcing = Forcing(g, trace, body_force_values=gfun)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=2e-2)
        summary = run(s, t_end=1.0, sample_every=1)
        assert summary.aborted
        assert "t=" in summary.abort_reason
        assert np.all(np.isfinite(summary.final.d.data))

    def test_nan_body_force_aborts_at_its_step(self):
        # the step derives its fields without re-validating them, so the body
        # force is checked where it enters, and the run stops at that step
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        dt = 1e-2

        def gfun(t):
            arr = np.zeros((2, *g.shape))
            if abs(t - 7 * dt) < 0.5 * dt:
                arr[0, 5, 5] = np.nan
            return arr

        forcing = Forcing(g, trace, body_force_values=gfun)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=dt)
        summary = run(s, t_end=20 * dt, sample_every=1)
        assert summary.aborted
        assert summary.n_steps == 6
        assert "body force at t=0.07: field contains non-finite values" in summary.abort_reason
        assert len(summary.records) == 7
        assert np.all(np.isfinite(summary.final.d.data))

    @pytest.mark.parametrize("bad, reason", [
        (np.full((2, 16, 16), np.nan), "field contains non-finite values"),
        (np.zeros((16, 16)), "data shape (16, 16) != (2, 16, 16)"),
    ], ids=["nan", "shape"])
    def test_bad_director_source_aborts_naming_it(self, bad, reason):
        # the director source enters the step through the same check as the
        # body force, so the run stops with the datum and t named
        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        forcing = Forcing(g, trace, director_source_values=lambda t: bad)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=1e-2)
        summary = run(s, t_end=5e-2, sample_every=1)
        assert summary.aborted and summary.n_steps == 0
        assert summary.abort_reason == f"step failed at t=0: director source at t=0.01: {reason}"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v", "d"])
    def test_non_finite_node_aborts(self, monkeypatch, name, bad):
        # the check after each step reads only max v, min v and |d|^2, so one
        # bad node of either field, of any sign, must still stop the run
        import nematicflow.dynamics as dyn

        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.5)
        s = init(make_divergence_free_velocity(g, 3, 0.3), d0, forcing, PhysParams(), dt=1e-3)
        stepped = []

        def poisoning_step(state):
            out = step(state)
            stepped.append(out)
            if len(stepped) == 3:
                data = getattr(out, name).data.copy()
                data[1, 7, 9] = bad
                out = replace(out, **{name: trusted_field(VectorField2D, g, data)})  # unchecked
            return out

        monkeypatch.setattr(dyn, "step", poisoning_step)
        summary = run(s, t_end=10 * s.dt, sample_every=1)
        assert summary.aborted
        assert summary.n_steps == 2
        assert summary.abort_reason == f"non-finite state at t={stepped[2].t:.6g}"
        assert summary.final is stepped[1]

    def test_fine_grid_scenario_steps(self):
        # 128^2 set-up used to fail on an absolute Poisson residual test
        from nematicflow.harness.scenarios import Scenario, generate_scenario

        sc = Scenario(name="fine", family="autonomous", nx=128, ny=128, kappa=0.0, dt=1e-4)
        gen = generate_scenario(sc)
        summary = run(gen.state, t_end=3 * gen.state.dt, sample_every=1)
        assert not summary.aborted
        assert summary.n_steps == 3
        assert np.all(np.isfinite(summary.final.v.data))
        assert np.all(np.isfinite(summary.final.d.data))

    def test_cfl_warning(self, caplog):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.3)
        v0 = make_divergence_free_velocity(g, 8, 5.0)
        s = init(v0, d0, forcing, PhysParams(), dt=0.2)
        assert cfl_number(s) > 1.0
        with caplog.at_level(logging.WARNING, logger="nematicflow.dynamics"):
            run(s, t_end=2 * s.dt, sample_every=1)
        assert any("CFL" in rec.message for rec in caplog.records)

    def test_invalid_arguments(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams())
        with pytest.raises(ValueError):
            run(s, t_end=0.0)
        with pytest.raises(ValueError):
            run(s, t_end=1.0, sample_every=0)


class TestStencilMemo:
    """A state's director stencils are evaluated once and shared through a
    one-slot memo keyed on the identity of its read-only array."""

    @staticmethod
    def _states():
        from nematicflow.harness.scenarios import Scenario, generate_scenario

        def state(seed, family, **kw):
            sc = Scenario(name="x", family=family, nx=16, ny=14, ly=0.9, seed=seed, **kw)
            return generate_scenario(sc).state

        return (
            state(1, "autonomous", kappa=0.0, d0_perturbation=0.5, v0_amplitude=0.3, dt=1e-3),
            state(2, "polynomial-decay", a_h=0.3, a_g=0.1, kappa=0.3, d0_perturbation=0.4,
                  v0_amplitude=0.2, dt=2e-3),
        )

    @staticmethod
    def _same(a, b):
        for name in ("v", "d", "pi"):
            assert np.array_equal(getattr(a, name).data, getattr(b, name).data), name
        ra, rb = (astuple(energy_record(x)) for x in (a, b))
        assert np.array_equal(ra, rb, equal_nan=True)  # no reference: distances are NaN

    def test_interleaved_trajectories_match_each_alone(self):
        def alone(s, cold=False):
            for _ in range(8):
                if cold:  # a writable copy is never memoized
                    s = replace(s, d=VectorField2D(s.d.grid, s.d.data.copy()))
                s = step(s)
                energy_record(s)
            return s

        a0, b0 = self._states()
        a, b = alone(a0), alone(b0)
        self._same(a, alone(a0, cold=True))
        self._same(b, alone(b0, cold=True))
        ia, ib = a0, b0
        for _ in range(8):
            ia, ib = step(ia), step(ib)
            energy_record(ib)
            energy_record(ia)
        self._same(ia, a)
        self._same(ib, b)

    def test_replaced_director_gives_cold_result(self):
        a0, b0 = self._states()
        s = step(step(a0))
        other = step(replace(a0, v=VectorField2D.zeros(a0.v.grid))).d
        assert not np.array_equal(other.data, s.d.data)
        step(s)  # the memo now holds the stencils of s.d and of its successor
        warm = step(replace(s, d=other))
        # a writable copy is never memoized, so its stencils are evaluated cold
        cold = step(replace(s, d=VectorField2D(other.grid, other.data.copy())))
        self._same(warm, cold)

    def test_stepped_director_is_read_only(self):
        a0, _ = self._states()
        s = step(a0)
        for state in (a0, s):
            with pytest.raises(ValueError, match="read-only"):
                state.d.data[0, 3, 3] = 0.5
        assert s.d.data.base is None  # no writable base can change it either
