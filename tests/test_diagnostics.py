import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nematicflow.diagnostics import (
    CSV_COLUMNS,
    DECAY_FLOOR,
    EnergyRecord,
    energy_inequality_residual,
    energy_record,
    fit_decay_exponent,
    norms,
    read_records_csv,
    uniform_gronwall_check,
    write_records_csv,
)
from nematicflow.dynamics import Forcing, PhysParams, init, step
from nematicflow.grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    set_ring,
)


class TestNorms:
    def test_zero_field_all_kinds(self):
        g = Grid(16, 16)
        f = ScalarField2D.zeros(g)
        for kind in ("L2", "H1", "Hminus1"):
            assert norms(f, kind) == 0.0

    def test_constant_L2(self):
        g = Grid(16, 16)  # unit square
        f = ScalarField2D(g, np.full(g.shape, -2.0))
        assert norms(f, "L2") == pytest.approx(2.0)

    def test_sine_analytic_values(self):
        # exact integrals: int f^2 = 1/4, int |grad f|^2 = pi^2/2
        g = Grid(96, 96)
        f = ScalarField2D.from_function(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
        assert norms(f, "L2") == pytest.approx(0.5, abs=2e-3)
        h1 = norms(f, "H1")
        grad = np.sqrt(h1**2 - norms(f, "L2") ** 2)
        assert grad == pytest.approx(np.pi / np.sqrt(2), rel=2e-3)

    def test_h_minus_one_eigenfunction(self):
        # -lap u = f with f the first eigenfunction: |f|_{H-1} = |f| / sqrt(2 pi^2)
        g = Grid(64, 64)
        f = ScalarField2D.from_function(g, lambda X, Y: np.sin(np.pi * X) * np.sin(np.pi * Y))
        expected = 0.5 / np.sqrt(2 * np.pi**2)
        assert norms(f, "Hminus1") == pytest.approx(expected, rel=5e-3)

    def test_unknown_kind(self):
        g = Grid(8, 8)
        with pytest.raises(ValueError, match="kind"):
            norms(ScalarField2D.zeros(g), "L3")


class TestFitDecayExponent:
    def test_exact_power_law(self):
        t = np.linspace(0, 50, 100)
        vals = 5.0 * (1 + t) ** -3.0
        exp, r2 = fit_decay_exponent(t, vals, tail_fraction=1.0)
        assert exp == pytest.approx(3.0, abs=1e-3)
        assert r2 >= 0.9999

    def test_recovers_planted_exponents(self):
        t = np.linspace(0, 80, 200)
        for p in np.arange(0.5, 8.01, 0.75):
            vals = 2.3 * (1 + t) ** -p
            exp, r2 = fit_decay_exponent(t, vals, tail_fraction=1.0)
            assert abs(exp - p) <= 1e-2
            assert r2 >= 0.999

    def test_exponential_exponent_grows_toward_the_tail(self):
        t = np.linspace(0, 30, 120)
        vals = np.exp(-t)
        exp_tail, _ = fit_decay_exponent(t, vals, tail_fraction=0.3)
        exp_wide, _ = fit_decay_exponent(t, vals, tail_fraction=0.9)
        assert exp_tail > exp_wide  # no single power law fits an exponential

    def test_floor_requires_windowing(self):
        t = np.linspace(0, 20000, 600)
        vals = (1 + t) ** -2.0 + 1e-6
        early = t <= 400
        exp, _ = fit_decay_exponent(t[early], vals[early], tail_fraction=1.0)
        assert exp == pytest.approx(2.0, abs=0.05)
        exp_late, _ = fit_decay_exponent(t, vals, tail_fraction=0.2)
        assert exp_late < 0.5  # the floor flattens the tail fit

    def test_nonpositive_rejected(self):
        t = np.linspace(0, 10, 50)
        vals = np.exp(-t) - 1e-3
        with pytest.raises(ValueError, match="non-positive"):
            fit_decay_exponent(t, vals, tail_fraction=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_window_rejected_as_broken_data(self, bad):
        t = np.linspace(0, 10, 50)
        vals = np.exp(-t)
        vals[-3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit_decay_exponent(t, vals, tail_fraction=0.5)

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(
        st.lists(
            st.sampled_from(
                [0.0, -0.0, DECAY_FLOOR, 0.5 * DECAY_FLOOR, -DECAY_FLOOR,
                 np.nextafter(DECAY_FLOOR, 1.0), -1.0, np.nan, np.inf, -np.inf]
            )
            | st.floats(1e-300, 1e3),
            max_size=8,
        )
    )
    def test_every_window_gets_one_of_three_verdicts(self, window):
        # a finite exponent, (inf, nan) exactly at the floor, or ValueError
        vals = np.array(window, float)
        finite = vals.size >= 4 and bool(np.all(np.isfinite(vals)))
        at_floor = finite and float(np.max(np.abs(vals))) <= DECAY_FLOOR
        try:
            exp, r2 = fit_decay_exponent(np.linspace(0.0, 10.0, vals.size), vals, tail_fraction=1.0)
        except ValueError:
            assert not finite or (not at_floor and bool(np.any(vals <= 0)))
            return
        assert finite and (exp == np.inf) == at_floor
        if at_floor:
            assert np.isnan(r2)
        else:
            assert bool(np.all(vals > 0)) and np.isfinite(exp) and np.isfinite(r2)

    def test_bad_tail_fraction(self):
        with pytest.raises(ValueError):
            fit_decay_exponent(np.arange(10.0), np.ones(10), tail_fraction=0.0)


class TestUniformGronwall:
    def test_analytic_example(self):
        # y = 1/(1+t) on [0,10], h = 0, c1 = c2 = 0, rho = 1:
        # bound = int y / rho = ln 11, and y(t+1) <= 1/2
        t = np.linspace(0, 10, 2001)
        y = 1.0 / (1.0 + t)
        h = np.zeros_like(t)
        verdict = uniform_gronwall_check(t, y, h, c1=0.0, c2=0.0, rho=1.0)
        assert verdict.passed
        assert verdict.bound == pytest.approx(np.log(11.0), rel=1e-5)

    def test_zero_trajectory(self):
        t = np.linspace(0, 5, 100)
        verdict = uniform_gronwall_check(t, np.zeros_like(t), np.zeros_like(t), 1.0, 1.0, 0.5)
        assert verdict.passed

    def test_integrals_cannot_be_forged(self):
        import inspect

        sig = inspect.signature(uniform_gronwall_check)
        assert "c3" not in sig.parameters and "c4" not in sig.parameters

    def test_violation_reported(self):
        # a narrow spike: its own contribution to int y is too small to cover
        # its height, so y(t + rho) must overshoot the bound somewhere
        t = np.linspace(0, 10, 201)
        y = np.full_like(t, 1e-6)
        y[100:103] = 1.0
        verdict = uniform_gronwall_check(t, y, np.zeros_like(t), 0.0, 0.0, 1.0)
        assert not verdict.passed
        assert verdict.max_violation > 0

    def test_rho_range(self):
        t = np.linspace(0, 2, 50)
        y = np.ones_like(t)
        with pytest.raises(ValueError):
            uniform_gronwall_check(t, y, y, 0, 0, rho=3.0)
        with pytest.raises(ValueError):
            uniform_gronwall_check(t, y, y, 0, 0, rho=0.0)

    def test_negative_inputs_rejected(self):
        t = np.linspace(0, 2, 50)
        y = -np.ones_like(t)
        with pytest.raises(ValueError):
            uniform_gronwall_check(t, y, np.zeros_like(t), 0, 0, 1.0)


def make_state(amplitude=0.4, velocity=0.2, grid_n=16):
    from nematicflow.dynamics import make_divergence_free_velocity

    g = Grid(grid_n, grid_n)
    forcing = Forcing(g, BoundaryTrace.constant(g, (1.0, 0.0)))
    X, Y = g.mesh()
    chi = amplitude * 16 * X * (1 - X) * Y * (1 - Y)
    d0 = VectorField2D(g, np.stack([np.cos(chi), np.sin(chi)]))
    for k in range(2):
        set_ring(d0.data[k], forcing.boundary(0.0)[:, k])
    v0 = make_divergence_free_velocity(g, 4, velocity)
    return init(v0, d0, forcing, PhysParams())


class TestEnergyRecord:
    def test_sum_identity(self):
        s = make_state()
        r = energy_record(s)
        assert r.E_hat == pytest.approx(r.kinetic + r.elastic_hat + r.potential, rel=1e-15)

    def test_equilibrium_zeros(self):
        s = make_state(amplitude=0.0, velocity=0.0)
        r = energy_record(s)
        assert r.E_hat < 1e-20
        assert r.D2 < 1e-20
        assert r.A_P < 1e-20
        assert r.residual_stationary < 1e-10

    def test_harmonic_director_zero_elastic(self):
        # d equal to its own harmonic lifting: kinetic and shifted-elastic
        # vanish, only the potential survives
        from nematicflow.linsolve import harmonic_extension
        from nematicflow.grid import boundary_arclength

        g = Grid(16, 16)
        s_arc = boundary_arclength(g) / 4.0
        phi = 0.5 * np.sin(2 * np.pi * s_arc)
        trace = BoundaryTrace(g, np.stack([np.cos(phi), np.sin(phi)], axis=1))
        forcing = Forcing(g, trace)
        d0 = harmonic_extension(trace)
        for k in range(2):
            set_ring(d0.data[k], trace.values[:, k])
        s = init(VectorField2D.zeros(g), d0, forcing, PhysParams())
        r = energy_record(s)
        assert r.kinetic < 1e-25
        assert r.elastic_hat < 1e-20
        assert r.potential > 1e-6

    def test_pure_function_of_state(self):
        s = make_state()
        s2 = copy.deepcopy(s)
        r1 = dataclasses.asdict(energy_record(s))
        r2 = dataclasses.asdict(energy_record(s2))
        for col in CSV_COLUMNS:
            a, b = r1[col], r2[col]
            assert a == b or (np.isnan(a) and np.isnan(b))

    def test_dissipation_parts_relation(self):
        # D2 and A_P share the velocity part exactly (up to the nu factor) and
        # their director parts differ through d_E vs d_P only
        from nematicflow.harness.scenarios import Scenario, generate_scenario
        from nematicflow.diagnostics import edge_seminorm_sq

        sc = Scenario(
            name="x", family="polynomial-decay", nx=16, ny=16, gamma=1.0,
            a_h=0.2, a_g=0.0, kappa=0.2, t_end=1.0, dt=0.01, seed=1,
            params=PhysParams(nu=2.0),
        )
        gen = generate_scenario(sc)
        s = gen.state
        for _ in range(5):
            s = step(s)
        r = energy_record(s)
        gv = edge_seminorm_sq(s.v.grid, s.v.data)
        dir_hat = r.D2 - 2.0 * gv
        dir_tilde = r.A_P - gv
        assert dir_hat >= 0 and dir_tilde >= 0
        # |a^2 - b^2| <= |a - b| (a + b) with |a - b| <= ||lap(dP - dE)||
        from nematicflow.grid import _lap_interior  # zero on the ring

        g = s.v.grid
        diff = s.lifting.dP.data - s.lifting.dE.data
        cell = g.hx * g.hy
        lap_norm = np.sqrt(
            cell * sum(np.sum(_lap_interior(diff[k], g.hx, g.hy) ** 2) for k in range(2))
        )
        a, b = np.sqrt(dir_hat), np.sqrt(dir_tilde)
        assert abs(a - b) <= lap_norm + 1e-12


def _reference_record(state, reference):
    """Per-component evaluation of every EnergyRecord field, one node stencil
    and one np.sum at a time, independent of the stacked code under test.

    The stencils scale by the same reciprocal spacings as ``grid``: the
    divergence of a projected velocity sits at the rounding floor, so its
    norm changes at order one under any other rounding of its terms."""
    from nematicflow.grid import quad_weights
    from nematicflow.linsolve import solve_poisson_dirichlet

    g = state.v.grid
    p = state.params
    hx, hy = g.hx, g.hy
    cell = hx * hy
    w = quad_weights(g)
    d, v = state.d.data, state.v.data

    def lap(c):
        return (c[2:, 1:-1] - 2.0 * c[1:-1, 1:-1] + c[:-2, 1:-1]) * hx**-2 + (
            c[1:-1, 2:] - 2.0 * c[1:-1, 1:-1] + c[1:-1, :-2]
        ) * hy**-2

    def edge_sq(comps):
        return sum(
            hy / hx * np.sum((c[1:, :] - c[:-1, :]) ** 2)
            + hx / hy * np.sum((c[:, 1:] - c[:, :-1]) ** 2)
            for c in comps
        )

    def l2_sq(comps):
        return sum(np.sum(w * c**2) for c in comps)

    def res_sq(comps, f):
        return sum(np.sum((lap(c) - f[k]) ** 2) for k, c in enumerate(comps))

    gl = (d[0][1:-1, 1:-1] ** 2 + d[1][1:-1, 1:-1] ** 2 - 1.0) / p.eps**2
    f = [gl * d[k][1:-1, 1:-1] for k in range(2)]
    d_hat = [d[k] - state.lifting.dE.data[k] for k in range(2)]
    d_tilde = [d[k] - state.lifting.dP.data[k] for k in range(2)]
    kinetic = 0.5 * l2_sq(v)
    elastic_hat = 0.5 * edge_sq(d_hat)
    potential = np.sum(w * (d[0] ** 2 + d[1] ** 2 - 1.0) ** 2) / (4.0 * p.eps**2)
    grad_v_sq = edge_sq(v)
    nd = np.sqrt(l2_sq(state.lifting.dt_dE.data))
    dual_sq = 0.0
    gf = state.forcing.body_force(state.t)
    if gf is not None:
        zero = np.zeros((g.n_boundary, 1))
        for c in gf.data:
            dual_sq += edge_sq([solve_poisson_dirichlet(g, -c[None, 1:-1, 1:-1], zero)[0]])
    r_t = 0.5 * nd**2 + nd + dual_sq
    div = (v[0][2:, 1:-1] - v[0][:-2, 1:-1]) * (0.5 / hx) + (v[1][1:-1, 2:] - v[1][1:-1, :-2]) * (
        0.5 / hy
    )
    out = dict(
        t=state.t,
        kinetic=kinetic,
        elastic_hat=elastic_hat,
        potential=potential,
        E_hat=kinetic + elastic_hat + potential,
        D2=p.nu * grad_v_sq + cell * res_sq(d_hat, f),
        A_P=grad_v_sq + cell * res_sq(d_tilde, f),
        r_t=r_t,
        max_abs_d=np.max(np.sqrt(d[0] ** 2 + d[1] ** 2)),
        div_v_norm=np.sqrt(cell * np.sum(div**2)),
        residual_stationary=np.sqrt(cell * res_sq(d, f)),
        norm_v_L2=np.sqrt(2.0 * kinetic),
        norm_v_H1=np.sqrt(2.0 * kinetic + grad_v_sq),
        dist_d_L2=float("nan"),
        dist_d_H1=float("nan"),
    )
    if reference is not None:
        diff = [d[k] - reference.data[k] for k in range(2)]
        out["dist_d_L2"] = np.sqrt(l2_sq(diff))
        out["dist_d_H1"] = np.sqrt(l2_sq(diff) + edge_sq(diff))
    return out


class TestEnergyRecordAgainstReference:
    @pytest.mark.parametrize("family", ["autonomous", "polynomial-decay"])
    @pytest.mark.parametrize("with_reference", [False, True])
    def test_every_field_matches_per_component_evaluation(self, family, with_reference):
        from nematicflow.harness.scenarios import Scenario, generate_scenario

        sc = Scenario(
            name="x", family=family, nx=24, ny=20, ly=0.8, a_h=0.3, a_g=0.2,
            kappa=0.3, d0_perturbation=0.4, v0_amplitude=0.3, dt=2e-3, seed=3,
        )
        gen = generate_scenario(sc)
        s = gen.state
        for _ in range(5):
            s = step(s)
        # static trace: d_P equals d_E bitwise; moving trace: d_P != d_E
        assert np.array_equal(s.lifting.dP.data, s.lifting.dE.data) == (family == "autonomous")
        ref = gen.reference.psi if with_reference else None
        got = dataclasses.asdict(energy_record(s, ref))
        want = _reference_record(s, ref)
        for col in CSV_COLUMNS:
            if np.isnan(want[col]):
                assert np.isnan(got[col]), col
            else:
                assert got[col] == pytest.approx(want[col], rel=1e-13, abs=0.0), col
        assert (got["r_t"] > 0) == (family != "autonomous")

    @pytest.mark.parametrize("nx,ny,ly", [(64, 64, 1.0), (24, 20, 0.8), (96, 130, 1.3)])
    def test_record_at_rest_on_psi_reads_the_equilibrium(self, nx, ny, ly):
        # static trace h_inf, v = 0 and d = psi: the record's script energy
        # and stationary residual are the equilibrium's, bit for bit, since
        # both come from one evaluation of the Ginzburg-Landau functional
        from nematicflow.harness.scenarios import Scenario, make_forcing, reference_equilibrium

        sc = Scenario(name="x", family="autonomous", nx=nx, ny=ny, ly=ly, seed=1)
        forcing = make_forcing(sc)
        eq = reference_equilibrium(sc, forcing)
        s = init(VectorField2D.zeros(sc.grid), eq.psi, forcing, sc.params)
        assert not s.d.data.flags.writeable
        assert np.array_equal(s.d.data, eq.psi.data)
        rec = energy_record(s)
        assert rec.kinetic == 0.0
        assert rec.elastic_hat + rec.potential == eq.energy_script
        assert rec.residual_stationary == eq.residual


class TestConvergenceReport:
    def test_already_at_equilibrium_vacuous_pass(self):
        from nematicflow.diagnostics import RateModel, convergence_report
        from nematicflow.steady import newton_refine, solve_gradient_flow
        from nematicflow.linsolve import harmonic_extension

        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        lift = harmonic_extension(trace)
        eq = solve_gradient_flow(harmonic_extension(trace), lift, PhysParams(), tol=1e-11)
        # a trajectory that never leaves the equilibrium: all distances zero
        recs = []
        for t in np.linspace(0, 5, 20):
            vals = dict.fromkeys(CSV_COLUMNS, 0.0)
            vals["t"] = t
            recs.append(EnergyRecord(**vals))
        rep = convergence_report(recs, eq.psi, eq, RateModel.for_gamma(2.0))
        # nothing moved, so no distance is positive and the fit reads infinite decay
        assert rep.rate.passed
        assert rep.dist_L2_final < 1e-12

    @staticmethod
    def _report(dist):
        from nematicflow.diagnostics import RateModel, convergence_report
        from nematicflow.linsolve import harmonic_extension
        from nematicflow.steady import Equilibrium

        # a unit constant trace extends to an exact equilibrium
        psi = harmonic_extension(BoundaryTrace.constant(Grid(8, 8), (1.0, 0.0)))
        eq = Equilibrium(psi, psi, 0.0, 0.0, 0.0, True, 0)
        recs = [
            EnergyRecord(**{**dict.fromkeys(CSV_COLUMNS, 0.0), "t": float(k), "dist_d_L2": x})
            for k, x in enumerate(dist)
        ]
        return convergence_report(recs, psi, eq, RateModel.for_gamma(2.0))

    def test_three_records_raise(self):
        # too short to fit, not infinitely fast decay
        with pytest.raises(ValueError, match="at least 4 samples"):
            self._report([0.3, 0.3, 0.3])

    def test_growing_distance_ending_in_zero_raises(self):
        dist = [1e-3 * (1.0 + k) for k in range(19)] + [0.0]
        with pytest.raises(ValueError, match="non-positive"):
            self._report(dist)

    def test_empty_records_rejected(self):
        from nematicflow.diagnostics import RateModel, convergence_report
        from nematicflow.steady import solve_gradient_flow
        from nematicflow.linsolve import harmonic_extension

        g = Grid(16, 16)
        trace = BoundaryTrace.constant(g, (1.0, 0.0))
        eq = solve_gradient_flow(harmonic_extension(trace), harmonic_extension(trace), PhysParams(), tol=1e-8)
        with pytest.raises(ValueError, match="nonempty"):
            convergence_report([], eq.psi, eq, RateModel.for_gamma(2.0))


class TestEnergyInequalityResidual:
    def test_equilibrium_zero(self):
        r = EnergyRecord(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        r2 = dataclasses.replace(r, t=0.1)
        assert energy_inequality_residual(r, r2, 0.1) == 0.0

    def test_constructed_violation_is_positive(self):
        r1 = EnergyRecord(0, 0, 0, 0, 1.0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        r2 = EnergyRecord(0.1, 0, 0, 0, 2.0, 0.0, 0, 0.0, 1, 0, 0, 0, 0, 0, 0)
        assert energy_inequality_residual(r1, r2, 0.1) > 0

    def test_dt_validated(self):
        r = EnergyRecord(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            energy_inequality_residual(r, r, 0.0)


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        recs = [
            EnergyRecord(*rng.standard_normal(len(CSV_COLUMNS)).tolist())
            for _ in range(7)
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, recs)
        back = read_records_csv(path)
        for a, b in zip(recs, back):
            for col in CSV_COLUMNS:
                assert getattr(a, col) == getattr(b, col)

    def test_header_mandatory(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_records_csv(path)

    def test_schema_column_order(self):
        assert CSV_COLUMNS[:8] == [
            "t", "kinetic", "elastic_hat", "potential", "E_hat", "D2", "A_P", "r_t",
        ]
        assert CSV_COLUMNS[8:] == [
            "max_abs_d", "div_v_norm", "residual_stationary",
            "norm_v_L2", "norm_v_H1", "dist_d_L2", "dist_d_H1",
        ]
