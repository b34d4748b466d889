import logging
import re
from dataclasses import astuple, replace
from types import SimpleNamespace

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
    VectorField2D,
    divergence,
    extract_ring,
    set_ring,
    trusted_field,
)


def constant_forcing(grid, vec=(1.0, 0.0)):
    return Forcing.autonomous_trace(grid, BoundaryTrace.constant(grid, vec))


def bump_director(grid, forcing, amplitude=0.5):
    X, Y = grid.mesh()
    chi = amplitude * 16 * X * (1 - X) * Y * (1 - Y)
    d0 = VectorField2D(grid, np.stack([np.cos(chi), np.sin(chi)]))
    h0 = forcing.boundary(0.0)
    for k in range(2):
        set_ring(d0.data[k], h0[:, k])
    return d0


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

        forcing = Forcing(g, h, h_inf=good, gamma=1.0)
        expected = f"h at t=0.75 has shape {bad}, expected ({g.n_boundary}, 2)"
        with pytest.raises(ValueError, match=re.escape(expected)):
            forcing.boundary(0.75)
        with pytest.raises(ValueError, match=re.escape(f"h at t=0 has shape {bad}")):
            Forcing(g, lambda t: np.full(bad, 0.5), h_inf=good, gamma=1.0)

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

    def test_static_trace_checked_once_at_construction(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError, match="exceeds 1 at t=0"):
            Forcing.autonomous_trace(g, BoundaryTrace.constant(g, (1.5, 0.0)))

        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        reads = []

        def h(t):
            reads.append(t)
            return trace.values

        forcing = Forcing(g, h, static_trace=True)
        assert reads == [0.0]
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=1e-3)
        n_reads = len(reads)
        summary = run(s, t_end=10 * s.dt, sample_every=1)
        assert summary.n_steps == 10
        assert len(reads) == n_reads  # the step loop never re-reads a static trace


    def test_body_force_evaluated_once_per_time(self, monkeypatch):
        from nematicflow.harness.scenarios import Scenario, generate_scenario

        sc = Scenario(name="x", family="polynomial-decay", nx=16, ny=16, dt=2.5e-3,
                      sample_every=5, seed=1)
        s = generate_scenario(sc).state
        forcing = s.forcing
        body = forcing._body
        times = []

        def counting(t):
            times.append(t)
            return body(t)

        monkeypatch.setattr(forcing, "_body", counting)
        summary = run(s, t_end=19.5 * s.dt, sample_every=5)
        assert summary.n_steps == 20
        # once per step, plus the initial sample; the step, the sample's |g|
        # and its energy record share one evaluation
        assert len(times) == 21
        gf = forcing.body_force(summary.final.t)
        assert len(times) == 21 and forcing.body_force(summary.final.t) is gf
        assert not gf.data.flags.writeable


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
        assert np.max(np.abs(divergence(s.v).data[1:-1, 1:-1])) < 1e-10

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
        assert norms(s1.v, "L2") < 1e-13
        assert np.max(np.abs(s1.d.data - s.d.data)) < 1e-13

    def test_boundary_invariants_every_step(self):
        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing)
        v0 = make_divergence_free_velocity(g, 3, 0.3)
        s = init(v0, d0, forcing, PhysParams())
        h0 = forcing.boundary(0.0)
        for _ in range(5):
            s = step(s)
            for k in range(2):
                assert np.array_equal(extract_ring(s.v.data[k]), np.zeros(g.n_boundary))
                assert np.array_equal(extract_ring(s.d.data[k]), h0[:, k])
            assert np.max(np.abs(divergence(s.v).data[1:-1, 1:-1])) < 1e-10

    def test_pure_director_relaxation_matches_steady_solver(self):
        # v frozen at zero: the director must relax to the steady solver's
        # output on the same grid (cross-module oracle)
        from nematicflow.grid import boundary_arclength
        from nematicflow.steady import newton_refine, solve_gradient_flow

        g = Grid(16, 16)
        s_arc = boundary_arclength(g) / (2 * (g.lx + g.ly))
        phi = 0.3 * np.sin(2 * np.pi * s_arc)
        trace = BoundaryTrace(g, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        forcing = Forcing.autonomous_trace(g, trace)
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
        eq = solve_gradient_flow(trace, d0, PhysParams(), tol=1e-5)
        eq = newton_refine(eq, PhysParams(), tol=1e-12)
        dist = norms(VectorField2D(g, s.d.data - eq.psi.data), "L2")
        assert dist <= 1e-6

    def test_manufactured_solution_order(self):
        # exact pair: v = 0, d = (cos phi, sin phi) with
        # phi = a e^{-t} sin(pi x) sin(pi y); sources computed analytically.
        a = 0.5
        p = PhysParams()

        def exact_angle(X, Y, t):
            return a * np.exp(-t) * np.sin(np.pi * X) * np.sin(np.pi * Y)

        def run_level(n, dt, t_end=0.25):
            g = Grid(n, n)
            X, Y = g.mesh()

            def d_exact(t):
                phi = exact_angle(X, Y, t)
                return np.stack([np.cos(phi), np.sin(phi)])

            def phi_derivs(t):
                s = np.sin(np.pi * X) * np.sin(np.pi * Y)
                phi = a * np.exp(-t) * s
                phi_t = -phi
                phi_x = a * np.exp(-t) * np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
                phi_y = a * np.exp(-t) * np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
                lap_phi = -2 * np.pi**2 * phi
                return phi, phi_t, phi_x, phi_y, lap_phi

            def director_source(t):
                # S = d_t - eta*(lap d - f(d)); |d| = 1 so f(d) = 0
                phi, phi_t, phi_x, phi_y, lap_phi = phi_derivs(t)
                grad_sq = phi_x**2 + phi_y**2
                c, s_ = np.cos(phi), np.sin(phi)
                d_t = np.stack([-s_ * phi_t, c * phi_t])
                lap_d = np.stack(
                    [-s_ * lap_phi - c * grad_sq, c * lap_phi - s_ * grad_sq]
                )
                return d_t - p.eta * lap_d

            def body_force(t):
                # g = lambda * (lap d . grad d) so that v = 0, pi = 0 is exact
                phi, phi_t, phi_x, phi_y, lap_phi = phi_derivs(t)
                grad_sq = phi_x**2 + phi_y**2
                # lap d . dx d = lap_phi * phi_x (unit director algebra)
                return p.lam * np.stack([lap_phi * phi_x, lap_phi * phi_y])

            trace = BoundaryTrace.constant(g, (1.0, 0.0))  # phi = 0 on the ring
            forcing = Forcing(
                g,
                lambda t: trace.values,
                body_force_values=body_force,
                director_source_values=director_source,
                static_trace=True,
            )
            d0 = VectorField2D(g, d_exact(0.0))
            for k in range(2):
                set_ring(d0.data[k], trace.values[:, k])
            s = init(VectorField2D.zeros(g), d0, forcing, p, dt=dt)
            n_steps = int(round(t_end / dt))
            for _ in range(n_steps):
                s = step(s)
            err_d = np.max(np.abs(s.d.data - d_exact(s.t)))
            err_v = np.max(np.abs(s.v.data))
            return err_d + err_v

        e1 = run_level(16, 4e-3)
        e2 = run_level(32, 2e-3)
        assert e1 / e2 >= 1.6  # O(dt + h^2): halving both at least ~halves error


def _reference_step(s, ring_contribution):
    """One step assembled component by component.  d_P takes a zero-trace heat
    solve of d_P + dt B(h) with the dense ring contribution B (the
    ``ring_contribution`` oracle), not the sine-basis coefficient update, and
    d_E comes from ``harmonic_extension`` separately."""
    from nematicflow.linsolve import (
        harmonic_extension,
        heat_solve_interior,
        project_divergence_free,
    )

    g = s.v.grid
    p, dt = s.params, s.dt
    hx, hy = g.hx, g.hy
    t1 = s.t + dt
    inner = (slice(1, -1), slice(1, -1))

    def dx(w):
        return (w[2:, 1:-1] - w[:-2, 1:-1]) / (2.0 * hx)

    def dy(w):
        return (w[1:-1, 2:] - w[1:-1, :-2]) / (2.0 * hy)

    def lap(w):
        return (w[2:, 1:-1] - 2.0 * w[1:-1, 1:-1] + w[:-2, 1:-1]) / hx**2 + (
            w[1:-1, 2:] - 2.0 * w[1:-1, 1:-1] + w[1:-1, :-2]
        ) / hy**2

    trace = BoundaryTrace(g, s.forcing.boundary(t1))
    lift = s.lifting
    dE = harmonic_extension(trace)
    dP = dE.copy()  # the ring is h(t1)
    b = lift.dP.data[:, 1:-1, 1:-1] + dt * ring_contribution(g, trace.values)
    dP.data[:, 1:-1, 1:-1] = heat_solve_interior(g, b, dt)
    lift1 = SimpleNamespace(
        dE=dE, dP=dP, t=t1,
        dt_dP=VectorField2D(g, (dP.data - lift.dP.data) / dt),
        dt_dE=VectorField2D(g, (dE.data - lift.dE.data) / dt),
    )
    v, d = s.v.data, s.d.data
    gl = (d[0][inner] ** 2 + d[1][inner] ** 2 - 1.0) / p.eps**2
    rhs_d = np.empty((2, g.nx - 2, g.ny - 2))
    for k in range(2):
        adv = v[0][inner] * dx(d[k]) + v[1][inner] * dy(d[k])
        rhs_d[k] = (d[k][inner] - lift.dE.data[k][inner]) + dt * (
            -adv - p.eta * gl * d[k][inner] - lift1.dt_dE.data[k][inner]
        )
    d_new = lift1.dE.data.copy()
    d_new[:, 1:-1, 1:-1] += heat_solve_interior(g, rhs_d, p.eta * dt)
    lap_d = [lap(d_new[k]) for k in range(2)]
    stress = [
        lap_d[0] * dx(d_new[0]) + lap_d[1] * dx(d_new[1]),
        lap_d[0] * dy(d_new[0]) + lap_d[1] * dy(d_new[1]),
    ]
    gf = s.forcing.body_force(t1).data
    rhs_v = np.empty((2, g.nx - 2, g.ny - 2))
    for k in range(2):
        adv = v[0][inner] * dx(v[k]) + v[1][inner] * dy(v[k])
        rhs_v[k] = v[k][inner] + dt * (-adv - p.lam * stress[k]) + dt * gf[k][inner]
    u_star = np.zeros((2, *g.shape))
    u_star[:, 1:-1, 1:-1] = heat_solve_interior(g, rhs_v, p.nu * dt)
    v_new, pi_new = project_divergence_free(VectorField2D(g, u_star))
    return replace(s, t=t1, v=v_new, d=VectorField2D(g, d_new), pi=pi_new, lifting=lift1)


class TestStepAgainstReference:
    def test_twenty_steps_match_per_component_step(self, ring_contribution):
        from nematicflow.harness.scenarios import Scenario, generate_scenario
        from nematicflow.linsolve import EPS

        sc = Scenario(
            name="x", family="polynomial-decay", nx=24, ny=20, ly=0.8, a_h=0.3,
            a_g=0.2, kappa=0.3, d0_perturbation=0.4, v0_amplitude=0.3, dt=2e-3, seed=4,
        )
        s = ref = generate_scenario(sc).state
        assert not s.forcing.static_trace and s.forcing.body_force(0.0) is not None
        for _ in range(20):
            s, ref = step(s), _reference_step(ref, ring_contribution)
        assert s.t == ref.t
        for name in ("v", "d", "pi"):
            got, want = getattr(s, name).data, getattr(ref, name).data
            assert np.max(np.abs(got - want)) <= 1e-12, name
        for name in ("dE", "dP", "dt_dE"):
            got, want = getattr(s.lifting, name).data, getattr(ref.lifting, name).data
            assert np.max(np.abs(got - want)) <= 1e-12, name
        # dt d_P is a difference of two back-transformed heat solutions over
        # dt: its rounding scale is that of d_P, divided by dt
        tol = EPS * (sc.nx + sc.ny - 4) * np.max(np.abs(s.lifting.dP.data)) / sc.dt
        assert np.max(np.abs(s.lifting.dt_dP.data - ref.lifting.dt_dP.data)) <= tol
        assert np.max(np.abs(s.lifting.dt_dP.data)) > 1e-3  # the trace moves


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

        forcing = Forcing(g, lambda t: trace.values, body_force_values=gfun, static_trace=True)
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

        forcing = Forcing(g, lambda t: trace.values, body_force_values=gfun, static_trace=True)
        d0 = bump_director(g, forcing, amplitude=0.2)
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams(), dt=dt)
        summary = run(s, t_end=20 * dt, sample_every=1)
        assert summary.aborted
        assert summary.n_steps == 6
        assert "body force at t=0.07: field contains non-finite values" in summary.abort_reason
        assert len(summary.records) == 7
        assert np.all(np.isfinite(summary.final.d.data))

    def test_abort_on_solver_error(self, monkeypatch):
        # a projection that fails its residual check inside step()
        import nematicflow.dynamics as dyn
        from nematicflow.linsolve import SolverError

        g = Grid(16, 16)
        forcing = constant_forcing(g)
        d0 = bump_director(g, forcing, amplitude=0.5)
        s = init(make_divergence_free_velocity(g, 3, 0.3), d0, forcing, PhysParams(), dt=1e-3)

        def failing_projection(u):
            raise SolverError("projection failed", 3.5)

        monkeypatch.setattr(dyn, "project_divergence_free", failing_projection)
        summary = run(s, t_end=5 * s.dt, sample_every=1)
        assert summary.aborted
        assert summary.n_steps == 0
        assert "SolverError: projection failed" in summary.abort_reason
        assert "residual" in summary.abort_reason
        assert "(residual 3.5)" in summary.abort_reason
        assert summary.final is s

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
