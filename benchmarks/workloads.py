"""Workload definitions and the round that each benchmark run repeats.

A round is one user-visible verdict: build the scenario from its description
with the program's caches cold, step a fixed number of planned steps, check
the trajectory, and write ``records.csv``, the snapshots and a manifest.  A
run repeats whole rounds of the same seed until its time is used, so the
share of failed steps does not depend on the run length.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from nematicflow import dynamics, grid, linsolve
from nematicflow.diagnostics import write_records_csv
from nematicflow.harness import scenarios
from nematicflow.harness.io import write_manifest, write_snapshot
from nematicflow.linsolve import SolverError

import checks
from tracing import Tracer, phase

CAPTURE_STRIDE_STEPS = 100  # states kept for the state-level checks


@dataclass(frozen=True)
class Workload:
    name: str
    family: str  # "energy-law" or "decay"
    n: int
    steps: int  # planned steps per round
    # A known fault of the program that fails every round's set-up; any other
    # error, or this one on another workload, makes the run incorrect.
    expected_error: str | None = None

    def reference(self, gen):
        """The equilibrium ``run`` measures distances to: the decay presets
        pass one, the energy-law preset runs without."""
        return gen.reference.psi if self.family == "decay" else None

    def scenario(self, seed: int) -> scenarios.Scenario:
        """The preset's scenario on an n x n grid; ``run_round`` cuts it to
        ``steps`` steps.

        The seed only draws the random initial director bump and initial
        velocity; every parameter, and so the work per step, stays fixed.
        """
        if self.family == "energy-law":
            return scenarios.Scenario(
                name=self.name, family="autonomous", nx=self.n, ny=self.n,
                kappa=0.0, d0_perturbation=0.5, v0_amplitude=0.3,
                dt=None, sample_every=1, seed=seed,
            )
        return scenarios.Scenario(
            name=self.name, family="polynomial-decay", nx=self.n, ny=self.n,
            gamma=2.0, a_h=0.3, a_g=0.1, kappa=0.3, d0_perturbation=0.4,
            v0_amplitude=0.2, dt=2.5e-3, sample_every=100, seed=seed,
        )


# energy-law-64: the energy-law-autonomous preset.  Constant trace, default dt
#   and a record plus a CSV row every step, so diagnostics, the projection and
#   output dominate and the lifting update never runs.
# decay-64: the rate-gamma2 preset.  The lifting update runs every step and
#   diagnostics and output are light, which separates a lifting change from a
#   projection change.
# decay-128: the problem-size dimension.  Its set-up fails today on the fixed
#   1e-9 Poisson residual test, so every planned step counts as failed; it is
#   not in BENCHMARK.json until it can run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("energy-law-64", "energy-law", 64, 1000),
        Workload("decay-64", "decay", 64, 1200),
        Workload("decay-128", "decay", 128, 1200,
                 expected_error="poisson residual above tolerance"),
    )
}


def clear_program_caches() -> None:
    """Empty every in-process cache of the program so set-up starts cold."""
    linsolve.clear_cache()
    linsolve._sine_basis.cache_clear()
    grid._boundary_index_arrays.cache_clear()
    grid._quad_weights_cached.cache_clear()


@dataclass
class RoundResult:
    setup_s: float
    stepping_s: float = 0.0
    verdict_s: float = 0.0
    steps: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    error: str | None = None
    residual: float | None = None
    records_sha256: str | None = None
    records_bytes: int = 0

    @property
    def steps_per_s(self) -> float:
        return self.steps / self.stepping_s if self.stepping_s > 0 else 0.0


class StateCapture:
    """Keeps every ``stride``-th state that ``run`` hands to ``energy_record``.

    ``run`` passes each sampled state to ``dynamics.energy_record``; a
    pass-through wrapper on that binding is the only way to see intermediate
    states without changing the program.  It costs one Python call per sample.
    """

    def __init__(self, stride: int):
        self.stride = stride
        self.states = []
        self._calls = 0

    def __enter__(self):
        original = self._original = dynamics.energy_record

        @functools.wraps(original)
        def capture(state, reference=None):
            if self._calls % self.stride == 0:
                self.states.append(state)
            self._calls += 1
            return original(state, reference)

        dynamics.energy_record = capture
        return self

    def __exit__(self, *exc):
        dynamics.energy_record = self._original


def _check_trajectory(wl: Workload, gen, summary, states) -> list:
    recs = summary.records
    out = [checks.max_principle(recs)]
    if wl.family == "energy-law":
        out += [checks.energy_inequality(recs, gen.state.dt), checks.energy_monotone(recs)]
    else:
        out += [
            checks.hypotheses(scenarios.check_hypotheses(gen.forcing, gen.scenario.gamma)),
            checks.h1_distance_shrinks(recs),
            checks.lifting_identity(states),
        ]
    out += [
        checks.divergence(states),
        checks.ring_velocity_zero(states),
        checks.ring_director_trace(states),
    ]
    return out


def run_round(wl: Workload, seed: int, out_dir: Path, tracer=None) -> RoundResult:
    sc = wl.scenario(seed)
    clear_program_caches()
    clock = time.perf_counter
    t0 = clock()
    try:
        with phase(tracer, "setup"):
            gen = scenarios.generate_scenario(sc)
    except SolverError as exc:
        res = RoundResult(setup_s=clock() - t0, failed=wl.steps)
        res.error, res.residual = f"SolverError: {exc}", exc.residual
        write_manifest(out_dir / "manifest.txt", [
            f"workload: {wl.name}", f"seed: {seed}", "passed: False",
            f"setup failed: SolverError: {exc} (residual {exc.residual:.6g})",
            f"failed steps: {wl.steps} of {wl.steps}",
        ])
        res.verdict_s = clock() - t0
        return res
    t1 = clock()
    res = RoundResult(setup_s=t1 - t0)

    # Exactly wl.steps steps: the loop stops once t passes t_end, and half a
    # step of headroom absorbs the rounding of the accumulated time.
    t_end = (wl.steps - 0.5) * gen.state.dt
    stride = max(1, CAPTURE_STRIDE_STEPS // sc.sample_every)
    try:
        with StateCapture(stride) as cap, phase(tracer, "stepping"):
            summary = dynamics.run(gen.state, t_end, sample_every=sc.sample_every,
                                   reference=wl.reference(gen))
    except SolverError as exc:
        res.stepping_s = clock() - t1
        res.failed = wl.steps
        res.error, res.residual = f"step raised SolverError: {exc}", exc.residual
        res.verdict_s = clock() - t0
        return res
    t2 = clock()
    res.stepping_s = t2 - t1
    res.steps = summary.n_steps
    res.failed = wl.steps - summary.n_steps
    if summary.aborted:
        res.error = summary.abort_reason

    with phase(tracer, "checks"):
        res.checks = _check_trajectory(wl, gen, summary, cap.states + [summary.final])

    with phase(tracer, "write"):
        records_path = out_dir / "records.csv"
        write_records_csv(records_path, summary.records)
        write_snapshot(out_dir / "final.snap", summary.final.d, summary.final.t)
        write_snapshot(out_dir / "equilibrium.snap", gen.reference.psi, float("inf"))
        passed = all(c.passed for c in res.checks) and res.failed == 0
        write_manifest(out_dir / "manifest.txt", [
            f"workload: {wl.name}", f"seed: {seed}", f"passed: {passed}",
            f"steps: {res.steps} of {wl.steps}",
            *(["abort: " + res.error] if res.error else []),
            "checks:", *("  " + c.line() for c in res.checks),
        ])
    res.verdict_s = clock() - t0
    data = records_path.read_bytes()
    res.records_bytes = len(data)
    res.records_sha256 = hashlib.sha256(data).hexdigest()
    return res


OVERHEAD_PAIRS = 20
OVERHEAD_CHUNK_STEPS = 50


def tracing_overhead(wl: Workload, seed: int) -> float:
    """Percent by which tracing slows stepping.

    Runs ``OVERHEAD_PAIRS`` pairs of ``OVERHEAD_CHUNK_STEPS``-step chunks of
    ``run``, untraced then traced, on one trajectory and takes the median
    ratio of each pair.  Chunks a fraction of a second apart see the same
    machine speed, which drifts by more than the overhead between whole
    rounds.
    """
    sc = wl.scenario(seed)
    gen = scenarios.generate_scenario(sc)
    state = gen.state
    tracer = Tracer()
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        times = []
        for traced in (False, True):
            t0 = time.perf_counter()
            with tracer.installed() if traced else contextlib.nullcontext():
                summary = dynamics.run(state, state.t + (OVERHEAD_CHUNK_STEPS - 0.5) * state.dt,
                                       sample_every=sc.sample_every, reference=wl.reference(gen))
            times.append(time.perf_counter() - t0)
            state = summary.final
        ratios.append(times[1] / times[0])
    return 100.0 * (statistics.median(ratios) - 1.0)
