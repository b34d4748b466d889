"""Prepackaged experiments: one preset per acceptance-grade property.

Each preset builds its scenario, runs it, and evaluates quantitative checks
with tolerances pinned here.  ``run_experiment`` adds persistence: records
CSV, snapshots, and a manifest with one pass/fail line per check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..diagnostics import (
    EnergyRecord,
    energy_inequality_residual,
    grad_norm,
    norms,
    write_records_csv,
)
from ..dynamics import RunSummary, run
from ..grid import VectorField2D
from ..lifting import appendix_diagnostics, evolve_lifting, write_lifting_csv
from ..majorant import MajorantProblem, solve_majorant, write_majorant_csv
from ..steady import Equilibrium, energy_script
from ..linsolve import harmonic_extension
from .io import output_root, write_manifest, write_snapshot
from .scenarios import (
    GeneratedScenario,
    Scenario,
    check_hypotheses,
    generate_scenario,
    make_forcing,
)

MAX_D_SLACK = 5e-3  # maximum-principle overshoot allowance


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<=" or ">="

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.value:.6g} {self.comparison} {self.threshold:.6g}"


@dataclass
class ExperimentResult:
    name: str
    checks: list[CheckResult]
    records: list[EnergyRecord] = field(default_factory=list)
    summary: RunSummary | None = None
    generated: GeneratedScenario | None = None
    equilibrium: Equilibrium | None = None
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_le(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, bool(value <= threshold), float(value), float(threshold), "<=")


def _check_ge(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, bool(value >= threshold), float(value), float(threshold), ">=")


def _max_principle_check(records: list[EnergyRecord]) -> CheckResult:
    worst = max(r.max_abs_d for r in records)
    return _check_le("max|d| <= 1 + slack", worst, 1.0 + MAX_D_SLACK)


# ---------------------------------------------------------------------------
# presets


def energy_law_autonomous() -> ExperimentResult:
    """Discrete energy law, autonomous data: the lifted energy must dissipate
    step by step with residual below 1e-8 (1 + E_hat(0))."""
    sc = Scenario(
        name="energy-law-autonomous",
        family="autonomous",
        kappa=0.0,
        d0_perturbation=0.5,
        v0_amplitude=0.3,
        t_end=5.0,
        dt=None,  # default rule
        sample_every=1,
        seed=11,
    )
    gen = generate_scenario(sc)
    summary = run(gen.state, sc.t_end, sample_every=1)
    recs = summary.records
    e0 = recs[0].E_hat
    slack = 1e-8 * (1.0 + e0)
    dt = gen.state.dt
    residuals = [
        energy_inequality_residual(recs[k], recs[k + 1], dt) for k in range(len(recs) - 1)
    ]
    increments = [recs[k + 1].E_hat - recs[k].E_hat for k in range(len(recs) - 1)]
    checks = [
        _check_le("energy-inequality residual (max over steps)", max(residuals), slack),
        _check_le("energy monotone (max increment)", max(increments), 1e-13 * (1.0 + e0)),
        _max_principle_check(recs),
    ]
    return ExperimentResult(sc.name, checks, recs, summary, gen, gen.reference)


def omega_limit() -> ExperimentResult:
    """Long autonomous run: velocity gradient and stationary residual vanish,
    and the final director matches the steady solve of the same trace."""
    sc = Scenario(
        name="omega-limit",
        family="autonomous",
        kappa=0.0,
        d0_perturbation=0.6,
        v0_amplitude=0.3,
        t_end=50.0,
        dt=2.5e-3,
        sample_every=20,
        seed=5,
    )
    gen = generate_scenario(sc)
    summary = run(gen.state, sc.t_end, sample_every=sc.sample_every, reference=gen.reference.psi)
    recs = summary.records
    final = summary.final
    dist = norms(
        VectorField2D(final.d.grid, final.d.data - gen.reference.psi.data), "L2"
    )
    grad_v = summary.aux["grad_v"]
    tail = grad_v[len(grad_v) // 2 :]
    tail_increase = float(np.max(np.diff(tail))) if tail.size > 1 else 0.0
    checks = [
        _check_le("grad v at t_end", grad_norm(final.v), 1e-6),
        _check_le("stationary residual at t_end", recs[-1].residual_stationary, 1e-5),
        _check_le("L2 distance to steady solve", dist, 1e-4),
        _check_le("grad v eventual monotonicity (max tail increase)", tail_increase, 1e-12),
        _max_principle_check(recs),
    ]
    return ExperimentResult(sc.name, checks, recs, summary, gen, gen.reference)


def rate_gamma2() -> ExperimentResult:
    """Non-autonomous convergence with rate, gamma = 2: the trajectory must
    converge to the steady state of h_inf and the fitted tail exponent of the
    L2 distance must reach the predicted theta'/(1-2 theta')."""
    from ..diagnostics import convergence_report

    sc = Scenario(
        name="rate-gamma2",
        family="polynomial-decay",
        gamma=2.0,
        a_h=0.3,
        a_g=0.1,
        kappa=0.3,
        d0_perturbation=0.4,
        v0_amplitude=0.2,
        t_end=200.0,
        dt=2.5e-3,
        sample_every=100,
        seed=13,
    )
    gen = generate_scenario(sc)
    summary = run(gen.state, sc.t_end, sample_every=sc.sample_every, reference=gen.reference.psi)
    recs = summary.records
    report = convergence_report(
        recs,
        summary.final.d,
        gen.reference,
        gen.rate,
        tolerance=0.15,
        fit_window=(10.0, 120.0),
    )
    hyp = check_hypotheses(gen.forcing, sc.gamma)
    checks = [
        _check_le("H1 distance to steady state at t_end", report.dist_H1_final, 1e-3),
        _check_ge(
            "fitted L2-distance exponent vs predicted - 0.15",
            report.fitted_exp_dist,
            gen.rate.predicted_exponent - 0.15,
        ),
        _max_principle_check(recs),
    ]
    for h in hyp:
        checks.append(
            _check_ge(f"hypothesis {h.name} exponent", h.fitted_exponent, h.required_exponent - 0.05)
        )
    extras = {"report": report, "hypotheses": hyp}
    return ExperimentResult(sc.name, checks, recs, summary, gen, gen.reference, extras)


def lifting_check() -> ExperimentResult:
    """Lifting decay estimates under a gamma = 2 boundary family."""
    sc = Scenario(
        name="lifting-check",
        family="polynomial-decay",
        gamma=2.0,
        a_h=0.3,
        a_g=0.0,
        kappa=0.3,
        t_end=40.0,
        dt=0.01,
        sample_every=10,
        seed=2,
    )
    grid = sc.grid
    forcing = make_forcing(sc, grid)
    history = evolve_lifting(forcing, sc.t_end, sc.dt, sc.sample_every)
    report = appendix_diagnostics(history, gamma=sc.gamma, dedpt_tol=1e-6)
    a8 = report.checks["A8"]
    checks = [
        _check_ge("dt d_P squared decay exponent", a8.fitted_exponent, a8.required_exponent - 0.3),
        _check_le("A3 weighted-integral bound holds", 0.0 if report.checks["A3"].passed else 1.0, 0.0),
        _check_le("A5 cumulative bound holds", 0.0 if report.checks["A5"].passed else 1.0, 0.0),
        _check_le("A6 cumulative bound holds", 0.0 if report.checks["A6"].passed else 1.0, 0.0),
        _check_ge(
            "A9 sliding-integral exponent",
            report.checks["A9"].fitted_exponent,
            report.checks["A9"].required_exponent - 0.3,
        ),
        _check_le("dt d_P at t_end", report.dt_dP_final, 1e-6),
    ]
    return ExperimentResult(sc.name, checks, extras={"report": report, "history_len": len(history)})


def minimizer_perturbation() -> ExperimentResult:
    """Lyapunov stability of a local minimizer under small perturbations and
    small non-autonomous magnitudes."""
    sc = Scenario(
        name="minimizer-perturbation",
        family="minimizer-perturbation",
        gamma=2.0,
        a_h=0.01,
        a_g=0.01,
        sigma1=0.05,
        sigma2=0.05,
        kappa=0.3,
        t_end=50.0,
        dt=2.5e-3,
        sample_every=20,
        seed=3,
    )
    gen = generate_scenario(sc)
    psi_star = gen.reference
    v0_norm = norms(gen.state.v, "L2")
    d0_dist = norms(
        VectorField2D(sc.grid, gen.state.d.data - psi_star.psi.data), "H1"
    )
    summary = run(gen.state, sc.t_end, sample_every=sc.sample_every, reference=psi_star.psi)
    recs = summary.records
    sup_dist = max(r.dist_d_H1 for r in recs)
    d_star_e = harmonic_extension(gen.forcing.h_inf)
    script_final = energy_script(summary.final.d, d_star_e, sc.params.eps)
    checks = [
        _check_le("generated |v0|", v0_norm, sc.sigma1),
        _check_le("generated |d0 - psi*|_H1", d0_dist, sc.sigma2),
        _check_le("sup_t |d - psi*|_H1", sup_dist, 0.5),
        _check_le(
            "final script-energy vs minimizer",
            script_final - psi_star.energy_script,
            1e-6,
        ),
        _max_principle_check(recs),
    ]
    return ExperimentResult(sc.name, checks, recs, summary, gen, psi_star)


def majorant_closed_form() -> ExperimentResult:
    """Blow-up horizon of the majorant ODE against the separable closed form."""
    exact = 0.5 * np.log(2.0)
    sol = solve_majorant(MajorantProblem(c_star=1.0, y0=1.0), dt=1e-3, y_cap=1e6)
    err = abs((sol.t_max if sol.t_max is not None else np.inf) - exact)
    flat = solve_majorant(MajorantProblem(c_star=1.0, y0=0.0), dt=1e-3, y_cap=1e6, t_horizon=5.0)
    checks = [
        _check_le("blow-up time error vs (1/2) ln 2", err, 1e-5),
        _check_le("Y0=0 stays at the rest point", float(np.max(flat.y)), 0.0),
    ]
    return ExperimentResult("majorant-closed-form", checks, extras={"solution": sol})


PRESETS = {
    "energy-law-autonomous": energy_law_autonomous,
    "omega-limit": omega_limit,
    "rate-gamma2": rate_gamma2,
    "lifting-check": lifting_check,
    "minimizer-perturbation": minimizer_perturbation,
    "majorant-closed-form": majorant_closed_form,
}


class UnknownPresetError(KeyError):
    def __init__(self, name: str):
        super().__init__(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )


@dataclass
class RunManifest:
    name: str
    passed: bool
    checks: list[CheckResult]
    wall_clock: float
    outputs: list[str]
    out_dir: Path

    def lines(self) -> list[str]:
        rows = [
            f"preset: {self.name}",
            f"code_version: {__version__}",
            f"passed: {self.passed}",
            f"wall_clock_seconds: {self.wall_clock:.3f}",
            "outputs: " + ", ".join(self.outputs),
            "checks:",
        ]
        rows += ["  " + c.line() for c in self.checks]
        return rows


def run_experiment(
    name: str, out_dir: str | Path | None = None
) -> tuple[ExperimentResult, RunManifest]:
    """Execute a preset and persist records, snapshots and the manifest."""
    if name not in PRESETS:
        raise UnknownPresetError(name)
    out = Path(out_dir) if out_dir is not None else output_root() / name
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    result = PRESETS[name]()
    elapsed = time.perf_counter() - start

    outputs = []
    if result.records:
        write_records_csv(out / "records.csv", result.records)
        outputs.append("records.csv")
    if result.summary is not None:
        write_snapshot(out / "final.snap", result.summary.final.d, result.summary.final.t)
        outputs.append("final.snap")
    if result.equilibrium is not None:
        write_snapshot(out / "equilibrium.snap", result.equilibrium.psi, float("inf"))
        outputs.append("equilibrium.snap")
    if "report" in result.extras and hasattr(result.extras["report"], "dPdE_h1"):
        write_lifting_csv(out / "lifting.csv", result.extras["report"])
        outputs.append("lifting.csv")
    if "solution" in result.extras:
        write_majorant_csv(out / "majorant.csv", result.extras["solution"])
        outputs.append("majorant.csv")

    manifest = RunManifest(
        name=name,
        passed=result.passed,
        checks=result.checks,
        wall_clock=elapsed,
        outputs=outputs,
        out_dir=out,
    )
    write_manifest(out / "manifest.txt", manifest.lines())
    return result, manifest
