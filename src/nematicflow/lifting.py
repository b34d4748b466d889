"""Elliptic and parabolic liftings of time-dependent Dirichlet boundary data.

For boundary data h(t) on the ring, the elliptic lifting d_E(t) is the
discrete-harmonic extension of h(t); the parabolic lifting d_P(t) solves a
heat equation with the same moving trace and starts from the harmonic
extension of the *initial* trace.  The shifted unknowns d - d_E and d - d_P
then carry homogeneous traces, which is what makes the energy bookkeeping of
the coupled system clean.

Both are advanced in the discrete sine basis, where the heat step is a
diagonal update of the coefficients of d_P and the harmonic extension a
division of the ring data's coefficients by the eigenvalues.  A
``LiftingState`` holds only the ring values h and h_prev of the last two
levels and the sine coefficients p, p_prev (d_P) and e (d_E); the time
stepper reads e and h.  Each lifting field is built by one fixed rule when
first read: d_E from (e, h), d_P from (p, h), dt d_P from
((p - p_prev)/dt, (h - h_prev)/dt), and dt d_E as the harmonic extension of
(h - h_prev)/dt, since d_E is linear in its trace.

The two liftings are linked by the discrete identity
-lap(d_P - d_E) = -dt d_P (the backward-Euler step makes this exact at
interior nodes up to rounding), and by a family of decay
estimates: when the boundary data settles at rate (1+t)^(-1-gamma), the
quantity |dt d_P(t)|^2 must decay at least like (1+t)^(-2-2gamma).
``appendix_diagnostics`` fits the constants and exponents of those estimates
on a computed trajectory and reports satisfaction flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .diagnostics import FitError, _l2_sq, _lap_sq, edge_seminorm_sq, fit_decay_exponent
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    boundary_segment_lengths,
    interior_lap,
    trusted_field,
)
from .linsolve import (
    from_sine,
    harmonic_coefficients,
    harmonic_extension,
    heat_coefficient_step,
    ring_transform,
    with_trace,
)

# Not called here: benchmarks/tracing.py wraps these bindings of this module.
from .linsolve import heat_step, solve_poisson_dirichlet

if TYPE_CHECKING:
    from .dynamics import Forcing


class _OnRead:
    """A ``LiftingState`` field that, unless given, is built on first read.

    ``rule(state)`` returns the (2, nx, ny) array, which must own its memory,
    from the state's ring values and sine coefficients.  The first read
    stores it, read-only, in the field; a given field is kept as given.
    """

    def __init__(self, rule):
        self.rule = rule

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return None  # the dataclass default: build on read
        value = obj.__dict__[self.name]
        if value is None:
            data = self.rule(obj)
            data.flags.writeable = False
            value = obj.__dict__[self.name] = trusted_field(VectorField2D, obj.grid, data)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


def _field(grid: Grid, coef: np.ndarray, ring: np.ndarray) -> np.ndarray:
    """(2, nx, ny) field from its interior's sine coefficients and (nb, 2) ring."""
    return with_trace(grid, from_sine(grid, coef), ring)


@dataclass(eq=False)
class LiftingState:
    """Both liftings at one time level: the (nb, 2) ring values ``h`` and
    ``h_prev`` of this level and the last, the sine coefficients ``p`` and
    ``p_prev`` of d_P's interior at both and ``e`` of d_E's at this one, and
    the step ``dt`` between the levels (inf at t = 0, where both liftings
    stand still).  ``dE``, ``dP``, ``dt_dP`` and ``dt_dE`` are built on first
    read by the rules in the module docstring, unless given.

    ``p_prev`` is kept although, in exact arithmetic, the heat step makes
    (p - p_prev)/dt equal lam (e - p).  Formed that way, dt d_P would
    satisfy the lifting identity -lap(d_P - d_E) = -dt d_P for any p, so
    the identity checks would no longer test the heat step.
    """

    grid: Grid
    t: float
    dt: float
    h: np.ndarray = field(repr=False)
    h_prev: np.ndarray = field(repr=False)
    p: np.ndarray = field(repr=False)
    p_prev: np.ndarray = field(repr=False)
    e: np.ndarray = field(repr=False)
    dE: VectorField2D = _OnRead(lambda s: _field(s.grid, s.e, s.h))
    dP: VectorField2D = _OnRead(lambda s: _field(s.grid, s.p, s.h))
    dt_dP: VectorField2D = _OnRead(
        lambda s: _field(s.grid, (s.p - s.p_prev) / s.dt, (s.h - s.h_prev) / s.dt)
    )
    dt_dE: VectorField2D = _OnRead(  # d_E is linear in its trace
        lambda s: harmonic_extension(BoundaryTrace(s.grid, (s.h - s.h_prev) / s.dt)).data
    )


def init_lifting(d0_trace: BoundaryTrace) -> LiftingState:
    """Initial lifting state: d_P(0) equals the harmonic extension of the
    initial trace, and both liftings stand still."""
    g = d0_trace.grid
    h = d0_trace.values.copy()
    e = harmonic_coefficients(g, ring_transform(g, h))
    return LiftingState(grid=g, t=0.0, dt=float("inf"), h=h, h_prev=h, p=e, p_prev=e, e=e)


def parabolic_lift_step(state: LiftingState, ring_next: np.ndarray, dt: float) -> LiftingState:
    """Advance d_P by one backward-Euler heat step and d_E to the new trace,
    both in the sine basis.

    ``ring_next`` holds the (nb, 2) ring values h(t + dt), already checked
    (``Forcing.boundary``, or ``BoundaryTrace``).  Both liftings take its ring
    contribution through the sine transform B^ (``ring_transform``, rank
    four).  d_P advances by its coefficients, p_new = (p + dt B^) / (1 + dt
    lam) (``heat_coefficient_step``, the step of ``heat_step``), and d_E's
    are e = B^ / lam (``harmonic_coefficients``).  No field is formed here.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = state.grid
    h1 = np.array(ring_next, dtype=float)  # the state outlives the caller's array
    bh = ring_transform(g, h1)
    return LiftingState(
        grid=g, t=state.t + dt, dt=dt, h=h1, h_prev=state.h,
        p=heat_coefficient_step(g, state.p, bh, dt), p_prev=state.p,
        e=harmonic_coefficients(g, bh),
    )


# ---------------------------------------------------------------------------
# boundary-norm surrogates


def _ring_diff(values: np.ndarray) -> np.ndarray:
    """Difference to the next node on the closed ring, along axis -2."""
    return np.roll(values, -1, axis=-2) - values


def boundary_norms_sq(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared ring norms of (nb, 2) ring values, or of each trace in a
    (..., nb, 2) stack: the trapezoidal L2(ring) norm, and the first and
    second tangential-difference seminorms sum |D h|^2 / seg and
    sum |D^2 h|^2 / seg^3, with D the difference to the next node and seg the
    segment length.  L2 + first stands in for the H^(1/2) boundary norm, all
    three for the H^(3/2) norm.  The segment lengths are computed once per
    call, so a stack of traces costs one array pass per quantity.
    """
    seg = boundary_segment_lengths(grid)
    w = 0.5 * (seg + np.roll(seg, 1))  # trapezoidal node weights
    d1 = _ring_diff(values)
    d2 = _ring_diff(d1)
    sums = "...kc,...kc,k->..."
    return (
        np.einsum(sums, values, values, w),
        np.einsum(sums, d1, d1, 1.0 / seg),
        np.einsum(sums, d2, d2, seg**-3.0),
    )


# ---------------------------------------------------------------------------
# stand-alone lifting evolution (no flow), used by the lifting checks


def evolve_lifting(
    forcing: "Forcing", t_end: float, dt: float, sample_every: int = 1
) -> list[LiftingState]:
    """March both liftings under the forcing's trace; return sampled states.

    ``forcing.boundary`` checks each trace, once."""
    grid = forcing.grid
    state = init_lifting(BoundaryTrace(grid, forcing.boundary(0.0)))
    history = [state]
    n_steps = int(round(t_end / dt))
    for k in range(1, n_steps + 1):
        state = parabolic_lift_step(state, forcing.boundary(k * dt), dt)
        if k % sample_every == 0:
            history.append(state)
    return history


# ---------------------------------------------------------------------------
# appendix diagnostics


@dataclass
class AppendixCheck:
    name: str
    fitted_constant: float            # smallest constant satisfying the bound
    fitted_exponent: float
    required_exponent: float
    passed: bool
    fitted_constant_tail: float = float("nan")  # least-squares fit on the tail


@dataclass
class AppendixReport:
    t: np.ndarray
    dPdE_h1: np.ndarray
    dt_dP_norm: np.ndarray
    grad_lap_dP: np.ndarray
    checks: dict[str, AppendixCheck]
    dt_dP_final: float

    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())


def _grad_lap_dP(state: LiftingState) -> float:
    """Edge seminorm of lap d_P, with the ring of the Laplacian field filled by
    the trace velocity (the Laplacian of d_P - d_E equals h_t on the ring)."""
    g = state.grid
    lap = state.dt_dP.data.copy()
    lap[:, 1:-1, 1:-1] = interior_lap(state.dP.data - state.dE.data, g.hx, g.hy)
    return float(np.sqrt(edge_seminorm_sq(g, lap)))


def lifting_series(history: Sequence[LiftingState]) -> dict[str, np.ndarray]:
    """Scalar time series needed by the decay checks, computed per sample."""
    g = history[0].grid
    rings = np.stack([BoundaryTrace.from_field(s.dt_dP).values for s in history])
    l2_sq, semi_sq, _ = boundary_norms_sq(g, rings)
    diffs = (s.dP.data - s.dE.data for s in history)
    h1_sq, lap_sq = np.array(
        [(_l2_sq(g, x) + edge_seminorm_sq(g, x), _lap_sq(g, x)) for x in diffs]
    ).T
    return {
        "t": np.array([s.t for s in history]),
        "dPdE_h1": np.sqrt(h1_sq),
        "dPdE_h2": np.sqrt(h1_sq + lap_sq),
        "dt_dP": np.sqrt([_l2_sq(g, s.dt_dP.data) for s in history]),
        "dt_dE_sq": np.array([_l2_sq(g, s.dt_dE.data) for s in history]),
        "grad_lap_dP": np.array([_grad_lap_dP(s) for s in history]),
        "ht_h12_sq": l2_sq + semi_sq,
    }


def _exp_weighted_integral(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Stable evaluation of exp(-t) * int_0^t exp(tau) s(tau) dtau on samples."""
    out = np.zeros_like(s)
    for k in range(1, t.size):
        dt = t[k] - t[k - 1]
        decay = np.exp(-dt)
        out[k] = out[k - 1] * decay + 0.5 * dt * (s[k - 1] * decay + s[k])
    return out


def _fit_bound_constant(
    y: np.ndarray, bound: np.ndarray, tail_fraction: float = 0.5
) -> tuple[float, float, bool]:
    """Fit constants for a pointwise bound y(t) <= c * bound(t).

    Returns (c_tail, c_valid, ok): c_tail is the least-squares constant over
    the trajectory tail (a tightness report), c_valid = max_t y/bound is the
    smallest constant satisfying the bound on the whole sampled window.  The
    flag fails when no finite constant works, or when the ratio y/bound is
    still growing at the end of the window (the bound would eventually be
    violated on a longer horizon): the last-quarter ratio must stay within
    1.5x the maximum seen earlier.
    """
    n = y.size
    start = n - max(4, int(np.ceil(tail_fraction * n)))
    bb = bound[start:]
    yy = y[start:]
    atol = 1e-18 * max(1.0, float(np.max(y)))
    denom = float(np.sum(bb**2))
    if denom <= atol**2:
        return 0.0, 0.0, bool(np.all(y <= atol))
    c_tail = float(np.sum(yy * bb) / denom)
    pos = bound > atol
    if not np.any(pos):
        return c_tail, 0.0, bool(np.all(y <= atol))
    ratio = np.divide(y, bound, out=np.zeros_like(y), where=pos)
    c_valid = float(np.max(ratio))
    if not np.isfinite(c_valid):
        return c_tail, c_valid, False
    q = max(1, (3 * n) // 4)
    early_max = float(np.max(ratio[:q])) if q > 0 else 0.0
    ok = bool(np.max(ratio[q:]) <= 1.5 * early_max + atol) if q < n else True
    return c_tail, c_valid, ok


class InsufficientDataError(ValueError):
    pass


def appendix_diagnostics(
    history: Sequence[LiftingState],
    gamma: float,
    exponent_slack: float = 0.3,
    dedpt_tol: float = 1e-6,
) -> AppendixReport:
    """Check the lifting decay estimates on a computed trajectory.

    Verifies, with constants fitted over the trajectory tail:
    the exponentially weighted integral bound on |d_P - d_E|_{H1}^2, the
    cumulative bounds on |dt d_P|^2 + |d_P - d_E|_{H2}^2 and on the time
    integral of |grad lap d_P|^2, the (1+t)^(-2-2gamma) pointwise decay, the
    (1+t)^(-1-2gamma) tail-integral decay, and that dt d_P vanishes at the
    final time.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    if len(history) < 16:
        raise InsufficientDataError(
            f"need at least 16 lifting samples, got {len(history)}"
        )
    ser = lifting_series(history)
    t = ser["t"]
    checks: dict[str, AppendixCheck] = {}

    # (A3)-type: |dP-dE|_H1^2 <= c e^{-t} int e^tau |dt dE|^2
    y3 = ser["dPdE_h1"] ** 2
    b3 = _exp_weighted_integral(t, ser["dt_dE_sq"])
    c3t, c3, ok3 = _fit_bound_constant(y3, b3)
    checks["A3"] = AppendixCheck("A3", c3, float("nan"), float("nan"), ok3, c3t)

    # (A5)-type: |dt dP|^2 + |dP-dE|_H2^2 <= c int |h_t|_{H1/2}^2
    cum_ht = _cumtrapz(t, ser["ht_h12_sq"])
    y5 = ser["dt_dP"] ** 2 + ser["dPdE_h2"] ** 2
    c5t, c5, ok5 = _fit_bound_constant(y5, cum_ht)
    checks["A5"] = AppendixCheck("A5", c5, float("nan"), float("nan"), ok5, c5t)

    # (A6)-type: int |grad lap dP|^2 <= c int |h_t|_{H1/2}^2
    y6 = _cumtrapz(t, ser["grad_lap_dP"] ** 2)
    c6t, c6, ok6 = _fit_bound_constant(y6, cum_ht)
    checks["A6"] = AppendixCheck("A6", c6, float("nan"), float("nan"), ok6, c6t)

    # (A8)-type: |dt dP(t)|^2 decays at least like (1+t)^(-2-2gamma)
    req8 = 2.0 + 2.0 * gamma
    exp8 = _safe_exponent(t, ser["dt_dP"] ** 2)
    checks["A8"] = AppendixCheck("A8", float("nan"), exp8, req8, exp8 >= req8 - exponent_slack)

    # (A9)-type: int_{t/2}^t |grad lap dP|^2 decays at least like (1+t)^(-1-2gamma)
    req9 = 1.0 + 2.0 * gamma
    cum_g = _cumtrapz(t, ser["grad_lap_dP"] ** 2)
    sliding = cum_g - np.interp(t / 2.0, t, cum_g)
    half = t >= max(t[-1] * 0.2, t[1])
    exp9 = _safe_exponent(t[half], sliding[half])
    checks["A9"] = AppendixCheck("A9", float("nan"), exp9, req9, exp9 >= req9 - exponent_slack)

    final = float(ser["dt_dP"][-1])
    checks["dedpt"] = AppendixCheck("dedpt", final, float("nan"), float("nan"), final <= dedpt_tol)

    return AppendixReport(
        t=t,
        dPdE_h1=ser["dPdE_h1"],
        dt_dP_norm=ser["dt_dP"],
        grad_lap_dP=ser["grad_lap_dP"],
        checks=checks,
        dt_dP_final=final,
    )


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


def _safe_exponent(t: np.ndarray, values: np.ndarray, floor: float = 1e-18) -> float:
    """Fitted decay exponent, with quantities at the solver-noise floor
    (squared residual tolerances) counting as infinitely fast decay."""
    if float(np.max(values)) <= floor:
        return float("inf")
    try:
        exp, _ = fit_decay_exponent(t, values, tail_fraction=0.5)
        return exp
    except FitError:
        return float("inf")


def write_lifting_csv(path, report: AppendixReport) -> None:
    import csv

    flags = {name: int(chk.passed) for name, chk in report.checks.items()}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "dPdE_H1", "dt_dP", "grad_lap_dP", *flags.keys()])
        for k in range(report.t.size):
            writer.writerow(
                [
                    f"{report.t[k]:.17g}",
                    f"{report.dPdE_h1[k]:.17g}",
                    f"{report.dt_dP_norm[k]:.17g}",
                    f"{report.grad_lap_dP[k]:.17g}",
                    *flags.values(),
                ]
            )
