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
states that are sampled, and d_P never; the director solve reads d_E by its
sine coefficients.
"""

from nematicflow import diagnostics, dynamics, grid, lifting, linsolve
from nematicflow.grid import VectorField2D
from nematicflow.harness.scenarios import Scenario, generate_scenario

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


def test_moving_trace_step_makes_two_dense_transform_pairs(monkeypatch):
    # one forward and one backward transform of a (2, mx, my) stack for each
    # of the director and velocity solves; d_E enters the director solve in
    # the sine basis, so nothing else is transformed
    sc = Scenario(name="decay", family="polynomial-decay", nx=16, ny=12, ly=0.75,
                  dt=2.5e-3, seed=1)
    s0 = generate_scenario(sc).state
    assert not s0.forcing.static_trace

    calls = []
    for name in ("sine_coefficients", "from_sine"):
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
        stack = (2, sc.nx - 2, sc.ny - 2)
        assert sorted(calls) == [("from_sine", stack)] * 2 + [("sine_coefficients", stack)] * 2
