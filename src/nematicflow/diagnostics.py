"""Scalar functionals and inequality checkers for simulation trajectories.

Conventions:

* L2 norms use trapezoidal node quadrature.
* Gradient seminorms use the edge-difference (Dirichlet) form, which is the
  exact summation-by-parts partner of the 5-point Laplacian for zero-trace
  fields.  This makes the discrete energy bookkeeping close to machine
  precision instead of truncation error.
* The dual-space budget norm for the body force is the Riesz surrogate
  |grad u_g| with -lap u_g = g and zero trace.

The per-sample ``EnergyRecord`` carries the lifted energy
E_hat = 1/2 |v|^2 + 1/2 |grad(d - d_E)|^2 + int F(d), the dissipation
D2 = nu |grad v|^2 + |lap(d - d_E) - f(d)|^2, the higher-order quantity
A_P = |grad v|^2 + |lap(d - d_P) - f(d)|^2, and the energy-inequality
budget r(t) = 1/2 |dt d_E|^2 + |dt d_E| + |g|_dual^2 (unit constants; the
non-constructive constants are absorbed into acceptance tolerances).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .grid import (
    Grid,
    ScalarField2D,
    VectorField2D,
    ginzburg_landau,
    row_dx,
    row_dy,
    row_stencils,
    quad_weights,
)
from .linsolve import solve_poisson_dirichlet

if TYPE_CHECKING:
    from .dynamics import SimState
    from .steady import Equilibrium


# ---------------------------------------------------------------------------
# norms


def _l2_sq(grid: Grid, data: np.ndarray) -> float:
    return float(np.vdot(quad_weights(grid) * data, data))


def edge_seminorm_sq(grid: Grid, data: np.ndarray) -> float:
    """Edge-difference Dirichlet form, exact SBP partner of the 5-point Laplacian."""
    ex = data[..., 1:, :] - data[..., :-1, :]
    ey = data[..., :, 1:] - data[..., :, :-1]
    return float(grid.hy / grid.hx * np.vdot(ex, ex) + grid.hx / grid.hy * np.vdot(ey, ey))


def norms(field: ScalarField2D | VectorField2D, kind: str) -> float:
    """Discrete L2 / H1 / Hminus1 norm of a field."""
    g = field.grid
    data = field.data
    if kind == "L2":
        return float(np.sqrt(_l2_sq(g, data)))
    if kind == "H1":
        return float(np.sqrt(_l2_sq(g, data) + edge_seminorm_sq(g, data)))
    if kind == "Hminus1":
        comps = data if data.ndim == 3 else data[None]
        zero = np.zeros((g.n_boundary, len(comps)))
        rep = solve_poisson_dirichlet(g, -comps[:, 1:-1, 1:-1], zero)
        return float(np.sqrt(edge_seminorm_sq(g, rep)))
    raise ValueError(f"unknown norm kind {kind!r}")


# ---------------------------------------------------------------------------
# energy records


@dataclass
class EnergyRecord:
    t: float
    kinetic: float
    elastic_hat: float
    potential: float
    E_hat: float
    D2: float
    A_P: float
    r_t: float
    max_abs_d: float
    div_v_norm: float
    residual_stationary: float
    norm_v_L2: float
    norm_v_H1: float
    dist_d_L2: float
    dist_d_H1: float


CSV_COLUMNS = [f.name for f in fields(EnergyRecord)]


def energy_record(state: "SimState", reference: VectorField2D | None = None) -> EnergyRecord:
    """Sample every scalar diagnostic from a simulation state (pure function)."""
    g = state.v.grid
    p = state.params
    lift = state.lifting
    d = state.d.data
    v = state.v.data
    hx, hy = g.hx, g.hy
    cell = hx * hy

    d_hat = d - lift.dE.data
    # v is zero on the ring, where alone the trapezoid weights differ from
    # hx hy, so the sum runs over every node with the one weight
    kinetic = 0.5 * cell * float(np.vdot(v, v))
    elastic_hat = 0.5 * edge_seminorm_sq(g, d_hat)
    # the interior residual lap d - f(d) is formed from the lap d that the
    # step has already evaluated.  The scheme makes lap d_E = 0 (harmonic
    # extension) and lap d_P = dt d_P (backward-Euler heat step) at interior
    # nodes, so it is also D2's residual lap(d - d_E) - f(d), and A_P's less
    # dt d_P.
    mag_sq, potential, res_stat = ginzburg_landau(g, d, row_stencils(state.d)[2][..., 1:-1], p.eps)
    e_hat = kinetic + elastic_hat + potential

    res_stat_sq = float(np.vdot(res_stat, res_stat))
    if state.forcing.static_trace:  # d_P equals d_E bitwise
        res_tilde_sq = res_stat_sq
    else:
        res_tilde = res_stat - lift.dt_dP.data[:, 1:-1, 1:-1]
        res_tilde_sq = float(np.vdot(res_tilde, res_tilde))

    grad_v_sq = edge_seminorm_sq(g, v)
    d2 = p.nu * grad_v_sq + cell * res_stat_sq
    a_p = grad_v_sq + cell * res_tilde_sq

    # the budget's |dt d_E| is zero on a static trace, and its |g|_dual (the
    # Hminus1 surrogate) without a body force
    nd = 0.0 if state.forcing.static_trace else float(np.sqrt(_l2_sq(g, lift.dt_dE.data)))
    gfield = state.forcing.body_force(state.t)
    r_t = 0.5 * nd**2 + nd + (0.0 if gfield is None else norms(gfield, "Hminus1") ** 2)

    div = row_dx(v[0], hx)  # summed on whole interior rows, as the projection does
    div += row_dy(v[1], hy)
    div = np.ascontiguousarray(div[:, 1:-1])
    div_norm = float(np.sqrt(cell * np.vdot(div, div)))

    if reference is not None:
        diff = d - reference.data
        l2_sq = _l2_sq(g, diff)
        dist_l2 = float(np.sqrt(l2_sq))
        dist_h1 = float(np.sqrt(l2_sq + edge_seminorm_sq(g, diff)))
    else:
        dist_l2 = float("nan")
        dist_h1 = float("nan")

    return EnergyRecord(
        t=state.t,
        kinetic=kinetic,
        elastic_hat=elastic_hat,
        potential=potential,
        E_hat=e_hat,
        D2=d2,
        A_P=a_p,
        r_t=r_t,
        max_abs_d=float(np.sqrt(np.max(mag_sq))),
        div_v_norm=div_norm,
        residual_stationary=float(np.sqrt(cell * res_stat_sq)),
        norm_v_L2=float(np.sqrt(2.0 * kinetic)),
        norm_v_H1=float(np.sqrt(2.0 * kinetic + grad_v_sq)),
        dist_d_L2=dist_l2,
        dist_d_H1=dist_h1,
    )


def energy_inequality_residual(prev: EnergyRecord, next: EnergyRecord, dt: float) -> float:
    """Signed residual of the discrete energy inequality between two samples.

    Returns (E_hat_{k+1} - E_hat_k)/dt + D2_{k+1}/2 - r_{k+1}; values at or
    below the documented slack mean the inequality holds on this step.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return (next.E_hat - prev.E_hat) / dt + 0.5 * next.D2 - next.r_t


# ---------------------------------------------------------------------------
# trajectory checkers


@dataclass
class CheckResult:
    """One named pass/fail check of a value against a threshold."""

    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str  # "<=" or ">="

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.value:.6g} {self.comparison} {self.threshold:.6g}"


def check_le(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, bool(value <= threshold), float(value), float(threshold), "<=")


def check_ge(name: str, value: float, threshold: float) -> CheckResult:
    return CheckResult(name, bool(value >= threshold), float(value), float(threshold), ">=")


@dataclass
class GronwallVerdict:
    passed: bool
    bound: float
    max_violation: float
    worst_t: float


def uniform_gronwall_check(
    t: np.ndarray,
    y: np.ndarray,
    h: np.ndarray,
    c1: float,
    c2: float,
    rho: float,
) -> GronwallVerdict:
    """Check y(t + rho) <= (c3/rho + c2 rho + c4) exp(c1 c3) on sampled data.

    c3 = int y and c4 = int h are computed internally by trapezoidal
    quadrature over the full sampled window, so they cannot be forged.
    """
    t = np.asarray(t, float)
    y = np.asarray(y, float)
    h = np.asarray(h, float)
    if t.ndim != 1 or t.size < 2 or y.shape != t.shape or h.shape != t.shape:
        raise ValueError("t, y, h must be equal-length 1-D samples")
    if np.any(y < 0) or np.any(h < 0):
        raise ValueError("y and h must be nonnegative")
    T = t[-1] - t[0]
    if not (0.0 < rho < T):
        raise ValueError(f"rho must lie in (0, {T}), got {rho}")
    c3 = float(np.trapezoid(y, t))
    c4 = float(np.trapezoid(h, t))
    bound = (c3 / rho + c2 * rho + c4) * float(np.exp(c1 * c3))
    mask = t <= t[-1] - rho
    y_shift = np.interp(t[mask] + rho, t, y)
    violation = y_shift - bound
    worst = int(np.argmax(violation))
    return GronwallVerdict(
        passed=bool(np.all(violation <= 0.0)),
        bound=bound,
        max_violation=float(violation[worst]),
        worst_t=float(t[mask][worst]),
    )


class FitError(ValueError):
    """Decay-rate fit rejected (non-positive values in the fitted window)."""


FIT_TAIL = 0.5  # share of the samples a decay fit takes by default: the last half


def fit_decay_exponent(
    t: np.ndarray, values: np.ndarray, tail_fraction: float = FIT_TAIL
) -> tuple[float, float]:
    """Least-squares slope of log(value) against log(1+t) over the sample tail.

    Returns (exponent, r2) where value ~ C (1+t)^(-exponent) on the window.
    """
    t = np.asarray(t, float)
    values = np.asarray(values, float)
    if not (0.0 < tail_fraction <= 1.0):
        raise ValueError(f"tail_fraction must lie in (0, 1], got {tail_fraction}")
    n = t.size
    if n < 4:
        raise FitError("need at least 4 samples to fit a decay exponent")
    start = n - max(4, int(np.ceil(tail_fraction * n)))
    tt = t[start:]
    vv = values[start:]
    if np.any(vv <= 0):
        raise FitError(
            "non-positive values in fit window; decay may be below the "
            "floating-point floor -- clip the window"
        )
    x = np.log1p(tt)
    ly = np.log(vv)
    slope, intercept = np.polyfit(x, ly, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), float(r2)


# ---------------------------------------------------------------------------
# rate model / convergence report


def default_theta_prime(gamma: float) -> float:
    """Largest-practical admissible rate parameter for a given forcing decay."""
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    theta = 0.9 * gamma / (2.0 * (1.0 + gamma))
    if gamma > 1.0:
        theta = min(theta, (gamma - 1.0) / (2.0 * gamma))
    return theta


@dataclass
class RateModel:
    gamma: float
    theta_prime: float

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not (0.0 < self.theta_prime < self.gamma / (2.0 * (1.0 + self.gamma))):
            raise ValueError(
                f"theta_prime={self.theta_prime} outside (0, {self.gamma / (2 * (1 + self.gamma))})"
            )

    @property
    def predicted_exponent(self) -> float:
        return self.theta_prime / (1.0 - 2.0 * self.theta_prime)

    @classmethod
    def for_gamma(cls, gamma: float) -> "RateModel":
        return cls(gamma=gamma, theta_prime=default_theta_prime(gamma))


RATE_SLACK = 0.15  # how far the fitted distance exponent may fall short of the prediction


@dataclass
class ConvergenceReport:
    dist_L2_final: float
    dist_H1_final: float
    fitted_exp_dist: float
    fitted_r2_dist: float
    predicted_exponent: float
    rate: CheckResult


def convergence_report(
    records: Sequence[EnergyRecord],
    d_final: VectorField2D,
    equilibrium: "Equilibrium",
    rate: RateModel,
    fit_window: tuple[float, float] | None = None,
) -> ConvergenceReport:
    """Compare a trajectory against its limit equilibrium and predicted rate.

    The rate check passes when the fitted exponent of the L2 distance reaches
    the predicted one less ``RATE_SLACK``.  ``fit_window`` restricts the rate
    fit to samples with t in [lo, hi], which keeps the log-log regression clear
    of both the initial transient and any late-time floor where the signal
    sinks below discretization noise; without it the fit takes the last half.
    """
    if not records:
        raise ValueError("records must be nonempty")
    g = d_final.grid
    psi = equilibrium.psi
    diff = VectorField2D(g, d_final.data - psi.data)
    dist_l2 = norms(diff, "L2")
    dist_h1 = norms(diff, "H1")

    t = np.array([r.t for r in records])
    dist = np.array([r.dist_d_L2 for r in records])
    frac = FIT_TAIL
    if fit_window is not None:
        lo, hi = fit_window
        mask = (t >= lo) & (t <= hi)
        if mask.sum() < 4:
            raise FitError("fit window contains fewer than 4 samples")
        t, dist, frac = t[mask], dist[mask], 1.0

    try:
        exp_dist, r2_dist = fit_decay_exponent(t, dist, frac)
    except FitError:
        exp_dist, r2_dist = float("inf"), float("nan")

    predicted = rate.predicted_exponent
    check = check_ge(
        f"fitted L2-distance exponent vs predicted - {RATE_SLACK}", exp_dist, predicted - RATE_SLACK
    )
    return ConvergenceReport(dist_l2, dist_h1, exp_dist, r2_dist, predicted, check)


# ---------------------------------------------------------------------------
# CSV persistence (17 significant digits, schema is the external contract)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write one CSV file; floats take 17 significant digits, so they read
    back bitwise, and other values are written as they print."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{x:.17g}" if isinstance(x, float) else x for x in row] for row in rows)


def write_records_csv(path, records: Sequence[EnergyRecord]) -> None:
    write_csv(path, CSV_COLUMNS, ([getattr(r, c) for c in CSV_COLUMNS] for r in records))


def read_records_csv(path) -> list[EnergyRecord]:
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)  # None for an empty file
        if header != CSV_COLUMNS:
            raise ValueError(f"{path}: expected the header {','.join(CSV_COLUMNS)}, got {header}")
        for row in reader:
            out.append(EnergyRecord(*[float(x) for x in row]))
    return out
