"""Prepackaged experiments: one preset per acceptance-grade property.

``build_trajectory`` generates a scenario, runs it to t_end and adds the
checks every trajectory gets: the maximum principle, the divergence after
projection, and that no step failed before t_end.  ``build_lifting`` evolves
the two liftings alone and returns the appendix checks.  A preset adds its
own checks, with tolerances pinned here, and the library's rate and
hypothesis checks with theirs; ``nematicflow run`` and ``lifting-check`` call
the builders on a config's scenario.  ``persist``, the one writer, times a
build and writes its outputs and a manifest, whose lines the CLI prints.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..diagnostics import (
    CheckResult,
    EnergyRecord,
    check_le,
    convergence_report,
    edge_seminorm_sq,
    energy_inequality_residual,
    norms,
    write_csv,
    write_records_csv,
)
from ..dynamics import RunSummary, run
from ..grid import Grid, VectorField2D
from ..lifting import DEDPT_TOL, appendix_diagnostics, evolve_lifting
from ..majorant import MajorantProblem, solve_majorant
from ..steady import energy_script
from .io import output_root, write_manifest, write_snapshot
from .scenarios import (
    GeneratedScenario,
    Scenario,
    check_hypotheses,
    generate_scenario,
    make_forcing,
)

MAX_D_SLACK = 5e-3  # maximum-principle overshoot allowance
DIV_ROUNDING = 64  # divergence after projection allowed, in units of eps |D| max_k |v_k|


@dataclass
class ExperimentResult:
    name: str
    checks: list[CheckResult]
    records: list[EnergyRecord] = field(default_factory=list)
    summary: RunSummary | None = None
    generated: GeneratedScenario | None = None  # what a trajectory started from
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def max_principle_check(records: list[EnergyRecord], slack: float) -> CheckResult:
    worst = max(r.max_abs_d for r in records)
    return check_le("max|d| <= 1 + slack", worst, 1.0 + slack)


def divergence_check(records: list[EnergyRecord], grid: Grid) -> CheckResult:
    """Largest sampled |div v|_L2 against the projection's rounding scale
    ``DIV_ROUNDING`` eps |D| max_k |v_k|_L2, with |D| = sqrt(hx^-2 + hy^-2)
    the scale of the central divergence.  The projection is exact, so only
    rounding remains; the run's largest |v| sets the scale, because a sample
    at rest keeps the rounding of the flow it came from."""
    worst = max(r.div_v_norm for r in records)
    v_max = max(r.norm_v_L2 for r in records)
    scale = DIV_ROUNDING * np.finfo(float).eps * np.hypot(1.0 / grid.hx, 1.0 / grid.hy) * v_max
    return check_le(f"div v after projection <= {DIV_ROUNDING} eps |D| max|v|", worst, scale)


# ---------------------------------------------------------------------------
# builders


def build_trajectory(sc: Scenario, sample_distances: bool, max_d_slack: float) -> ExperimentResult:
    """Generate ``sc`` and run it to t_end, sampling the distances to the
    reference equilibrium if asked.  The result holds the checks every
    trajectory gets: the maximum principle with ``max_d_slack``, the
    divergence after projection, and that no step failed before t_end."""
    gen = generate_scenario(sc)
    reference = gen.reference.psi if sample_distances else None
    summary = run(gen.state, sc.t_end, sc.sample_every, reference)
    checks = [
        max_principle_check(summary.records, max_d_slack),
        divergence_check(summary.records, sc.grid),
        check_le("run aborted before t_end", float(summary.aborted), 0.0),
    ]
    return ExperimentResult(sc.name, checks, summary.records, summary, gen)


def build_lifting(sc: Scenario, dt: float, dedpt_tol: float) -> ExperimentResult:
    """Evolve the two liftings alone under ``sc``'s trace, with step ``dt``,
    and check the appendix decay estimates in ``report.checks`` order."""
    samples = evolve_lifting(make_forcing(sc), sc.t_end, dt, sc.sample_every)
    report = appendix_diagnostics(samples, sc.gamma, dedpt_tol)  # reads them one at a time
    return ExperimentResult(sc.name, list(report.checks.values()), extras={"lifting": report})


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
    res = build_trajectory(sc, False, MAX_D_SLACK)
    recs, gen = res.records, res.generated
    e0 = recs[0].E_hat
    slack = 1e-8 * (1.0 + e0)
    dt = gen.state.dt
    residuals = [
        energy_inequality_residual(recs[k], recs[k + 1], dt) for k in range(len(recs) - 1)
    ]
    increments = [recs[k + 1].E_hat - recs[k].E_hat for k in range(len(recs) - 1)]
    res.checks = [
        check_le("energy-inequality residual (max over steps)", max(residuals), slack),
        check_le("energy monotone (max increment)", max(increments), 1e-13 * (1.0 + e0)),
        *res.checks,
    ]
    return res


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
    res = build_trajectory(sc, True, MAX_D_SLACK)
    recs, gen, final = res.records, res.generated, res.summary.final
    dist = norms(
        VectorField2D(final.d.grid, final.d.data - gen.reference.psi.data), "L2"
    )
    # |grad v|^2 = |v|_H1^2 - |v|_L2^2, as the record sums it
    grad_v = np.array([np.sqrt(max(r.norm_v_H1**2 - r.norm_v_L2**2, 0.0)) for r in recs])
    tail = grad_v[len(grad_v) // 2 :]
    tail_increase = float(np.max(np.diff(tail))) if tail.size > 1 else 0.0
    res.checks = [
        check_le("grad v at t_end", np.sqrt(edge_seminorm_sq(final.v.grid, final.v.data)), 1e-6),
        check_le("stationary residual at t_end", recs[-1].residual_stationary, 1e-5),
        check_le("L2 distance to steady solve", dist, 1e-4),
        check_le("grad v eventual monotonicity (max tail increase)", tail_increase, 1e-12),
        *res.checks,
    ]
    return res


def rate_gamma2() -> ExperimentResult:
    """Non-autonomous convergence with rate, gamma = 2: the trajectory must
    converge to the steady state of h_inf and the fitted tail exponent of the
    L2 distance must reach the predicted theta'/(1-2 theta')."""
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
    res = build_trajectory(sc, True, MAX_D_SLACK)
    if res.summary.aborted:  # the fit window may hold no sample; the shared checks fail
        return res
    gen = res.generated
    report = convergence_report(
        res.records, res.summary.final.d, gen.reference, gen.rate, fit_window=(10.0, 120.0)
    )
    res.checks = [
        check_le("H1 distance to steady state at t_end", report.dist_H1_final, 1e-3),
        report.rate,
        *res.checks,
        *check_hypotheses(gen.forcing, sc.gamma),
    ]
    res.extras["report"] = report
    return res


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
    return build_lifting(sc, sc.dt, DEDPT_TOL)


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
    res = build_trajectory(sc, True, MAX_D_SLACK)
    gen, psi_star = res.generated, res.generated.reference
    v0_norm = norms(gen.state.v, "L2")  # the run steps new states, so gen.state is the start
    d0_dist = norms(
        VectorField2D(sc.grid, gen.state.d.data - psi_star.psi.data), "H1"
    )
    sup_dist = max(r.dist_d_H1 for r in res.records)
    script_final = energy_script(res.summary.final.d, psi_star.d_star_E, sc.params.eps)
    res.checks = [
        check_le("generated |v0|", v0_norm, sc.sigma1),
        check_le("generated |d0 - psi*|_H1", d0_dist, sc.sigma2),
        check_le("sup_t |d - psi*|_H1", sup_dist, 0.5),
        check_le(
            "final script-energy vs minimizer",
            script_final - psi_star.energy_script,
            1e-6,
        ),
        *res.checks,
    ]
    return res


def majorant_closed_form() -> ExperimentResult:
    """Blow-up horizon of the majorant ODE against the separable closed form."""
    exact = 0.5 * np.log(2.0)
    sol = solve_majorant(MajorantProblem(c_star=1.0, y0=1.0), dt=1e-3, y_cap=1e6)
    err = abs((sol.t_max if sol.t_max is not None else np.inf) - exact)
    flat = solve_majorant(MajorantProblem(c_star=1.0, y0=0.0), dt=1e-3, y_cap=1e6, t_horizon=5.0)
    checks = [
        check_le("blow-up time error vs (1/2) ln 2", err, 1e-5),
        check_le("Y0=0 stays at the rest point", float(np.max(flat.y)), 0.0),
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
    result: ExperimentResult
    wall_clock: float
    outputs: list[str]

    @property
    def passed(self) -> bool:
        return self.result.passed

    def lines(self) -> list[str]:
        """The header, what a trajectory did (its steps, largest CFL number
        and abort reason), one line per check, and the verdict last."""
        res, summary = self.result, self.result.summary
        rows = [
            f"name: {res.name}",
            f"code_version: {__version__}",
            f"wall_clock_seconds: {self.wall_clock:.3f}",
            "outputs: " + ", ".join(self.outputs),
        ]
        if summary is not None:
            rows += [
                f"steps: {summary.n_steps}",
                f"max_cfl: {summary.max_cfl:.6g}",
                f"aborted: {summary.aborted}"
                + (f" ({summary.abort_reason})" if summary.aborted else ""),
            ]
        return rows + [c.line() for c in res.checks] + [f"passed: {res.passed}"]


def persist(build: Callable[[], ExperimentResult], out: Path) -> RunManifest:
    """Time ``build`` and write what its result holds into the directory
    ``out``: records, snapshots, lifting or majorant series, and the manifest."""
    start = time.perf_counter()
    result = build()
    elapsed = time.perf_counter() - start

    outputs = []
    if result.records:
        write_records_csv(out / "records.csv", result.records)
        outputs.append("records.csv")
    if result.summary is not None:
        write_snapshot(out / "final.snap", result.summary.final.d, result.summary.final.t)
        outputs.append("final.snap")
    if result.generated is not None:
        write_snapshot(out / "equilibrium.snap", result.generated.reference.psi, float("inf"))
        outputs.append("equilibrium.snap")
    if "lifting" in result.extras:
        write_csv(out / "lifting.csv", *result.extras["lifting"].table())
        outputs.append("lifting.csv")
    if "solution" in result.extras:
        sol = result.extras["solution"]
        write_csv(out / "majorant.csv", ["t", "Y"], zip(sol.t, sol.y))
        outputs.append("majorant.csv")

    manifest = RunManifest(result, elapsed, outputs)
    write_manifest(out / "manifest.txt", manifest.lines())
    return manifest


def run_experiment(
    name: str, out_dir: str | Path | None = None
) -> tuple[ExperimentResult, RunManifest]:
    """Execute a preset and persist its outputs and manifest."""
    if name not in PRESETS:
        raise UnknownPresetError(name)
    out = Path(out_dir) if out_dir is not None else output_root() / name
    out.mkdir(parents=True, exist_ok=True)
    manifest = persist(PRESETS[name], out)
    return manifest.result, manifest
