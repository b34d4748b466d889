"""The benchmark modules import names from ``nematicflow`` and rebind module
attributes to trace them; both break silently when a binding is removed."""

from pathlib import Path

import numpy as np
import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_benchmark_modules_import_and_tracer_installs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    # each import fails if a name it takes from nematicflow is gone
    import checks  # noqa: F401
    import tracing
    import workloads  # noqa: F401

    # installed() reads every WRAPPED target out of its owner's __dict__
    with tracing.Tracer().installed():
        pass
    for owner, attr, *_ in tracing.WRAPPED:
        assert owner.__dict__[attr].__name__ != "traced", f"{attr} left wrapped"


@pytest.mark.parametrize("family", ["autonomous", "polynomial-decay"])
def test_run_samples_through_the_energy_record_binding(monkeypatch, family):
    # benchmarks/workloads.py keeps the states its checks read by wrapping
    # dynamics.energy_record; run must hand every sampled state to it once
    from nematicflow import dynamics
    from nematicflow.diagnostics import _l2_sq
    from nematicflow.harness.scenarios import Scenario, generate_scenario
    from nematicflow.lifting import lifting_sample

    state = generate_scenario(Scenario(name="x", family=family, nx=16, ny=16, seed=1)).state
    seen = []
    original = dynamics.energy_record

    def counting(s, reference=None):
        seen.append(s)
        return original(s, reference)

    monkeypatch.setattr(dynamics, "energy_record", counting)
    summary = dynamics.run(state, 9.5 * state.dt, sample_every=2)
    assert summary.n_steps == 10
    assert len(seen) == 6  # the initial state plus every second of ten steps
    assert seen[0] is state
    assert len({id(s) for s in seen}) == 6
    assert [s.t for s in seen] == [r.t for r in summary.records]

    # the aux series are the gate's only reading of the liftings and of g:
    # each entry is its sampled state's norm, bit for bit
    aux = summary.aux
    assert set(aux) == {"dt_dP", "grad_lap_dP", "g_l2"}
    assert all(len(series) == len(summary.records) for series in aux.values())
    g = state.v.grid
    for k, s in enumerate(seen):
        gf = s.forcing.body_force(s.t)
        assert aux["g_l2"][k] == (0.0 if gf is None else np.sqrt(_l2_sq(g, gf.data)))
        if family == "autonomous":  # a static trace: the liftings stand still
            assert aux["dt_dP"][k] == 0.0 and aux["grad_lap_dP"][k] == 0.0
        else:
            assert aux["dt_dP"][k] == np.sqrt(_l2_sq(g, s.lifting.dt_dP.data))
            assert aux["grad_lap_dP"][k] == lifting_sample(s.lifting)["grad_lap_dP"]
    if family == "polynomial-decay":
        assert np.all(aux["g_l2"] > 0.0) and np.all(aux["dt_dP"][1:] > 0.0)


def test_clear_cache_empties_every_linsolve_cache():
    # benchmarks/workloads.py starts each set-up cold through
    # linsolve.clear_cache: after a scenario and a step every lru cache of
    # linsolve is warm, and clear_cache must leave each one empty
    from nematicflow import dynamics, linsolve
    from nematicflow.harness.scenarios import Scenario, generate_scenario

    state = generate_scenario(Scenario(name="c", family="polynomial-decay", nx=16, ny=16,
                                       dt=2.5e-3, seed=1)).state
    dynamics.step(state)
    caches = {name: fn for name, fn in vars(linsolve).items() if hasattr(fn, "cache_info")}

    def sizes():
        return {name: fn.cache_info().currsize for name, fn in caches.items()}

    assert caches and 0 not in sizes().values(), sizes()
    linsolve.clear_cache()
    assert set(sizes().values()) == {0}, sizes()


def test_benchmark_selftests_pass(monkeypatch):
    # the benchmark's checks must pass on real data and fail on broken copies;
    # they read the lifting fields directly, so a LiftingState change that
    # breaks them fails here and not only in a benchmark run
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import selftest

    results = selftest.run_selftests()
    assert len(results) == 6
    assert all(ok for _, ok, _ in results), [r for r in results if not r[1]]


def test_traced_bindings_see_each_step_layer(monkeypatch):
    # benchmarks/tracing.py times the spans linsolve.heat and lifting.update
    # by wrapping dynamics.heat_solve_interior, dynamics.parabolic_lift_step
    # and dynamics.replace (a LiftingState argument only): a step must reach
    # its two heat solves and its lifting update through these bindings
    from nematicflow import dynamics, linsolve
    from nematicflow.harness.scenarios import Scenario, generate_scenario
    from nematicflow.lifting import LiftingState

    decay = generate_scenario(Scenario(name="d", family="polynomial-decay", nx=16, ny=16,
                                       dt=2.5e-3, seed=1)).state
    energy = generate_scenario(Scenario(name="e", family="autonomous", nx=16, ny=16,
                                        kappa=0.0, seed=1)).state
    calls = []
    for name in ("heat_solve_interior", "parabolic_lift_step", "replace"):
        original = getattr(dynamics, name)

        def counting(*args, _fn=original, _name=name, **kwargs):
            if _name != "replace" or isinstance(args[0], LiftingState):
                calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)

    dynamics.step(decay)
    assert sorted(calls) == ["heat_solve_interior"] * 2 + ["parabolic_lift_step"]
    calls.clear()
    dynamics.step(energy)
    assert sorted(calls) == ["heat_solve_interior"] * 2 + ["replace"]

    # benchmarks/layers.py times the heat solve by a direct three-argument call
    g = energy.v.grid
    u = energy.v.data[:, 1:-1, 1:-1]
    assert linsolve.heat_solve_interior(g, u, 1e-3).shape == u.shape
