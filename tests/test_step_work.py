"""Timing-free guard on the work one time step does.

Counters patched onto the module bindings count how often the director's
stencils are evaluated on its interior rows, how many validating field
constructions run inside ``step`` and how many dense sine transforms it
makes.  Each per-step quantity is computed once: the stencils
of a new director feed the elastic stress, its energy record and the next
step's advection, and fields derived from checked data are not re-checked.
No stencil is applied to a lifting: the samples take lap d_E = 0 and
lap d_P = dt d_P from the scheme.  With a moving trace, the lifting update
stays in the sine basis and builds d_E, dt d_P and dt d_E only for the
states that are sampled, and d_P never; the director solve takes the trace
by its ring transform, through the coefficient update of d_P's heat step,
and forms no coefficients of d_E.

Set-up is guarded the same way: it extends the asymptotic trace h_inf once,
and that extension serves the relaxation's start, the equilibria's energies
and the later readers of the reference; it evaluates the Ginzburg-Landau
functional once per iterate of the relaxation and of Newton, and Newton's
operator pads no array.  The local-minimizer check evaluates it once per probe
and reads the equilibrium's own script energy as its base.
"""

import sys

import numpy as np
import pytest

from nematicflow import diagnostics, dynamics, grid, lifting, linsolve, steady
from nematicflow.grid import VectorField2D
from nematicflow.harness import scenarios
from nematicflow.harness.scenarios import (
    Scenario,
    generate_scenario,
    make_forcing,
    reference_equilibrium,
)

STENCILS = ("row_dx", "row_dy", "row_lap")
N_STEPS = 10


def test_energy_law_step_computes_each_quantity_once(monkeypatch):
    # the energy-law preset at 16^2: static trace, default dt, a record every step
    sc = Scenario(name="energy-law", family="autonomous", nx=16, ny=16, kappa=0.0,
                  d0_perturbation=0.5, v0_amplitude=0.3, dt=None, sample_every=1, seed=1)
    s0 = generate_scenario(sc).state

    args = {name: [] for name in STENCILS}
    for name in STENCILS:
        original = getattr(grid, name)

        def counting(data, *h, _fn=original, _seen=args[name]):
            _seen.append(data)
            return _fn(data, *h)

        for module in (grid, diagnostics, dynamics, lifting, linsolve):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    in_step = [False]
    validated_in_step = []
    for cls in (grid.ScalarField2D, grid.VectorField2D):
        check = cls.__post_init__

        def counting_check(self, _check=check):
            if in_step[0]:
                validated_in_step.append(type(self).__name__)
            _check(self)

        monkeypatch.setattr(cls, "__post_init__", counting_check)

    directors = [s0.d.data]
    original_step = dynamics.step

    def watched_step(s):
        in_step[0] = True
        try:
            out = original_step(s)
        finally:
            in_step[0] = False
        directors.append(out.d.data)
        return out

    monkeypatch.setattr(dynamics, "step", watched_step)
    summary = dynamics.run(s0, (N_STEPS - 0.5) * s0.dt, sample_every=1)
    assert summary.n_steps == N_STEPS and len(summary.records) == N_STEPS + 1

    def on_directors(name):
        return sum(any(a is d for d in directors) for a in args[name])

    # one evaluation per step and its sample, plus the initial sample
    for name in STENCILS:
        assert on_directors(name) <= N_STEPS + 1, (name, on_directors(name))
    # and only on directors: lap d_E = 0 is taken from the scheme, not formed
    assert on_directors("row_lap") == len(args["row_lap"])
    assert validated_in_step == []


LAZY_FIELDS = ("dE", "dP", "dt_dP", "dt_dE")


def test_decay_step_solves_twice_and_builds_liftings_only_at_samples(monkeypatch):
    # the decay family at 16^2: moving trace and body force, a sample every 5 steps
    sc = Scenario(name="decay", family="polynomial-decay", nx=16, ny=16, dt=2.5e-3,
                  sample_every=5, seed=1)
    s0 = generate_scenario(sc).state
    assert not s0.forcing.static_trace

    in_lift = [False]
    calls = {"step heat": 0, "lifting solves": []}
    heat = dynamics.heat_solve_interior

    def counting_heat(*args):
        calls["step heat"] += 1
        return heat(*args)

    monkeypatch.setattr(dynamics, "heat_solve_interior", counting_heat)
    for name in ("heat_solve_interior", "solve_poisson_dirichlet", "heat_step"):
        original = getattr(linsolve, name)

        def counting(*args, _fn=original, _name=name):
            if in_lift[0]:
                calls["lifting solves"].append(_name)
            return _fn(*args)

        for module in (linsolve, lifting):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    lift_step = dynamics.parabolic_lift_step

    def watched_lift_step(*args):
        in_lift[0] = True
        try:
            return lift_step(*args)
        finally:
            in_lift[0] = False

    monkeypatch.setattr(dynamics, "parabolic_lift_step", watched_lift_step)
    stepped, sampled = [], []
    step, record = dynamics.step, dynamics.energy_record

    def watched_step(s):
        out = step(s)
        stepped.append(out)
        return out

    def watched_record(s, reference=None):
        sampled.append(s)
        return record(s, reference)

    monkeypatch.setattr(dynamics, "step", watched_step)
    monkeypatch.setattr(dynamics, "energy_record", watched_record)
    summary = dynamics.run(s0, (N_STEPS - 0.5) * s0.dt, sample_every=5)
    assert summary.n_steps == N_STEPS and len(sampled) == 3

    assert calls["step heat"] == 2 * N_STEPS  # the director and the velocity
    assert calls["lifting solves"] == []
    # a sample reads d_E, dt d_P and dt d_E; d_P only through lap d_P = dt d_P
    for s in stepped:
        built = {name: isinstance(vars(s.lifting)[name], VectorField2D) for name in LAZY_FIELDS}
        at_sample = any(s is x for x in sampled)
        assert built == {"dE": at_sample, "dP": False, "dt_dP": at_sample, "dt_dE": at_sample}, s.t


def test_moving_trace_step_makes_three_dense_transform_pairs(monkeypatch):
    # one forward and one backward transform of a (2, mx, my) stack for each
    # of the director and velocity solves, and of the (mx, my) divergence for
    # the projection; the trace enters the director solve by its ring
    # transform, so nothing else is transformed, and d_E's coefficients are
    # not formed
    sc = Scenario(name="decay", family="polynomial-decay", nx=16, ny=12, ly=0.75,
                  dt=2.5e-3, seed=1)
    s0 = generate_scenario(sc).state
    assert not s0.forcing.static_trace

    calls = []
    for name in ("sine_coefficients", "from_sine", "harmonic_coefficients"):
        original = getattr(linsolve, name)

        def counting(g, a, _fn=original, _name=name):
            calls.append((_name, a.shape))
            return _fn(g, a)

        for module in (linsolve, lifting):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)

    s = s0
    for _ in range(3):
        calls.clear()
        s = dynamics.step(s)
        mx, my = sc.nx - 2, sc.ny - 2
        assert sorted(calls) == sorted([(name, shape) for name in ("sine_coefficients", "from_sine")
                                        for shape in ((2, mx, my), (2, mx, my), (mx, my))])
        assert not any(name == "harmonic_coefficients" for name, _ in calls)


def _count_harmonic_extensions(monkeypatch) -> list:
    """Patch every binding of ``harmonic_extension`` in the package; the list
    collects the ring values of each trace extended."""
    traces = []
    original = linsolve.harmonic_extension

    def counting(trace):
        traces.append(trace.values.copy())
        return original(trace)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "nematicflow" and getattr(module, "harmonic_extension", None) is original:
            monkeypatch.setattr(module, "harmonic_extension", counting)
    return traces


@pytest.mark.parametrize("family", ["polynomial-decay", "minimizer-perturbation"])
def test_setup_extends_the_asymptotic_trace_once(monkeypatch, family):
    # one harmonic extension of h_inf starts the relaxation, gives both
    # equilibria their script energy and serves every later reader of the
    # reference: the perturbed minimizer's trace shift and the minimizer check
    traces = _count_harmonic_extensions(monkeypatch)
    sc = Scenario(name="setup", family=family, nx=16, ny=16, a_h=0.01, a_g=0.01, seed=1)
    gen = generate_scenario(sc)
    steady.local_minimizer_check(gen.reference, sc.params, seed=sc.seed)
    h_inf = gen.forcing.h_inf.values
    assert sum(np.array_equal(t, h_inf) for t in traces) == 1
    # the minimizer family also lifts h(0) - h_inf, which is not h_inf
    assert len(traces) == (2 if family == "minimizer-perturbation" else 1)


def test_newton_operator_pads_nothing(monkeypatch):
    # the linearization reads w through one zero-ring buffer, not a new pad
    # per application
    sc = Scenario(name="setup", family="polynomial-decay", nx=16, ny=12, ly=0.75, seed=1)
    forcing = make_forcing(sc)
    minres_calls = []
    minres = steady._minres

    def counting(*args):
        minres_calls.append(1)
        return minres(*args)

    def no_pad(*args, **kwargs):
        raise AssertionError("numpy.pad called")

    monkeypatch.setattr(steady, "_minres", counting)
    monkeypatch.setattr(np, "pad", no_pad)
    eq = reference_equilibrium(sc, forcing)
    verdict = steady.local_minimizer_check(eq, sc.params, seed=sc.seed)
    assert eq.converged and minres_calls
    assert verdict.kind == "minimizer-consistent"


def _count_evaluations(monkeypatch) -> list:
    """Patch the solver's binding of the shared ``ginzburg_landau``; the list
    collects one entry per evaluation."""
    calls = []
    original = steady.ginzburg_landau

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(steady, "ginzburg_landau", counting)
    return calls


def test_setup_evaluates_each_iterate_once(monkeypatch):
    # the relaxation evaluates each iterate once, and Newton once to start
    # and once after each of its k steps: the residual that ends a step is
    # the right-hand side of the next
    sc = Scenario(name="setup", family="polynomial-decay", nx=16, ny=16, seed=1)
    forcing = make_forcing(sc)
    calls = _count_evaluations(monkeypatch)
    at_newton = []
    newton_refine = scenarios.newton_refine

    def entering(e, *args, **kwargs):
        at_newton.append((len(calls), e.iterations))
        return newton_refine(e, *args, **kwargs)

    monkeypatch.setattr(scenarios, "newton_refine", entering)
    eq = reference_equilibrium(sc, forcing)
    assert eq.converged
    [(relaxation_calls, corrections)] = at_newton
    assert relaxation_calls == corrections + 1
    k = eq.iterations - corrections
    assert k >= 2
    assert len(calls) - relaxation_calls == k + 1


def test_newton_at_tolerance_evaluates_nothing_again(monkeypatch):
    # a constant trace: the lift is the equilibrium to rounding, so Newton
    # takes no step and keeps the relaxation's residual and energies
    sc = Scenario(name="energy-law", family="autonomous", nx=16, ny=16, kappa=0.0, seed=1)
    forcing = make_forcing(sc)
    calls = _count_evaluations(monkeypatch)
    eq = reference_equilibrium(sc, forcing)
    assert eq.converged and eq.iterations == 0
    # the relaxation's one evaluation, which its equilibrium keeps
    assert len(calls) == 1


def test_minimizer_check_evaluates_each_probe_once(monkeypatch):
    sc = Scenario(name="setup", family="polynomial-decay", nx=16, ny=16, seed=1)
    eq = reference_equilibrium(sc, make_forcing(sc))
    calls = _count_evaluations(monkeypatch)
    verdict = steady.local_minimizer_check(eq, sc.params, seed=sc.seed)
    assert verdict.kind == "minimizer-consistent"
    assert len(calls) == steady.MINIMIZER_PROBES
