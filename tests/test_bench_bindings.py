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
