"""The benchmark modules import names from ``nematicflow`` and rebind module
attributes to trace them; both break silently when a binding is removed."""

from pathlib import Path

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


def test_run_samples_through_the_energy_record_binding(monkeypatch):
    # benchmarks/workloads.py keeps the states its checks read by wrapping
    # dynamics.energy_record; run must hand every sampled state to it once
    from nematicflow import dynamics
    from nematicflow.harness.scenarios import Scenario, generate_scenario

    state = generate_scenario(Scenario(name="x", nx=16, ny=16, seed=1)).state
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


def test_benchmark_selftests_pass(monkeypatch):
    # the benchmark's checks must pass on real data and fail on broken copies;
    # they read the lifting fields directly, so a LiftingState change that
    # breaks them fails here and not only in a benchmark run
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import selftest

    results = selftest.run_selftests()
    assert len(results) == 6
    assert all(ok for _, ok, _ in results), [r for r in results if not r[1]]
