"""Elliptic and parabolic liftings of time-dependent Dirichlet boundary data.

For boundary data h(t) on the ring, the elliptic lifting d_E(t) is the
discrete-harmonic extension of h(t); the parabolic lifting d_P(t) solves a
heat equation with the same moving trace and starts from the harmonic
extension of the *initial* trace.  The shifted unknowns d - d_E and d - d_P
then carry homogeneous traces, which is what makes the energy bookkeeping of
the coupled system clean.

Both are advanced in the discrete sine basis, where the heat step is a
diagonal update of the coefficients of d_P and the harmonic extension one
back-transform; the time stepper reads d_E only, so d_P and the time
derivatives are built from the coefficients when first read.

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
from typing import Callable, Sequence

import numpy as np

from .diagnostics import FitError, _l2_sq, _lap_sq, edge_seminorm_sq, fit_decay_exponent
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    boundary_segment_lengths,
    boundary_segment_weights,
    interior_lap,
    trusted_field,
)
from .linsolve import (
    from_sine,
    harmonic_extension,
    harmonic_from_transform,
    heat_coefficient_step,
    ring_transform,
    sine_coefficients,
)

# Not called here: benchmarks/tracing.py wraps these bindings of this module.
from .linsolve import heat_step, solve_poisson_dirichlet


class _BuiltOnRead:
    """A ``LiftingState`` field that may hold a zero-argument builder of its
    (2, nx, ny) array, which must own its memory.

    The first read calls the builder and stores the field, read-only, in its
    place; that drops the builder and everything it closed over.
    """

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so the dataclass field has no default
        value = obj.__dict__[self.name]
        if not isinstance(value, VectorField2D):
            data = value()
            data.flags.writeable = False
            value = obj.__dict__[self.name] = trusted_field(VectorField2D, obj.dE.grid, data)
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass
class LiftingState:
    """Snapshot of both liftings at one time level.

    ``dt_dP`` and ``dt_dE`` are first-order backward differences of the
    respective liftings over the last step (zero fields at t = 0).  ``dP``,
    ``dt_dP`` and ``dt_dE`` may be given as builders (``_BuiltOnRead``),
    which run on first read; ``parabolic_lift_step`` returns them so.
    ``p`` holds the sine coefficients of the interior of ``dP``
    (``sine_coefficients``); a state built without them transforms ``dP``
    when it is stepped.
    """

    dE: VectorField2D
    dP: VectorField2D = _BuiltOnRead()
    dE0: VectorField2D
    dt_dP: VectorField2D = _BuiltOnRead()
    dt_dE: VectorField2D = _BuiltOnRead()
    t: float
    p: np.ndarray | None = field(default=None, repr=False, compare=False)


# Discrete-harmonic extension of ring values: both components in one direct solve.
elliptic_lift = harmonic_extension


def init_lifting(d0_trace: BoundaryTrace) -> LiftingState:
    """Initial lifting state: d_P(0) equals the harmonic extension of the initial trace.

    The three lifting fields start as the same object; steps replace them
    rather than mutate, and the shared identity lets diagnostics skip
    recomputation while the data remains autonomous.  Its array is read-only,
    so diagnostics can memoize lap d_E for as long as the trace stays static.
    """
    dE0 = elliptic_lift(d0_trace)
    dE0.data.flags.writeable = False
    zero = VectorField2D.zeros(d0_trace.grid)
    return LiftingState(dE=dE0, dP=dE0, dE0=dE0, dt_dP=zero, dt_dE=zero, t=0.0)


def parabolic_lift_step(state: LiftingState, ring_next: np.ndarray, dt: float) -> LiftingState:
    """Advance d_P by one backward-Euler heat step and refresh d_E, in the sine basis.

    ``ring_next`` holds the (nb, 2) ring values h(t + dt), already checked
    (``Forcing.boundary``, or ``BoundaryTrace``).  Both liftings take its ring
    contribution through the sine transform B^ (``ring_transform``, rank
    four).  d_P advances by its coefficients, p_new = (p + dt B^) / (1 + dt
    lam) (``heat_coefficient_step``, the step of ``heat_step``), and d_E is
    the one back-transform of B^ / lam (``harmonic_from_transform``).  d_E is
    built here because the director update reads it.  d_P, dt d_P and dt d_E
    are built on first read, which in a run is only at sampled times; each is
    read-only and owns its memory.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = state.dE.grid
    bh = ring_transform(g, ring_next)
    p0 = state.p
    if p0 is None:
        p0 = sine_coefficients(g, state.dP.data[:, 1:-1, 1:-1])
    p1 = heat_coefficient_step(g, p0, bh, dt)
    dE_old = state.dE
    dE_new = harmonic_from_transform(g, bh, ring_next)
    dE_new.data.flags.writeable = False

    # the builders take their ring from the d_E fields, whose ring is h exactly
    def dP() -> np.ndarray:
        out = dE_new.data.copy()
        out[:, 1:-1, 1:-1] = from_sine(g, p1)
        return out

    def dt_dP() -> np.ndarray:
        out = (dE_new.data - dE_old.data) / dt
        out[:, 1:-1, 1:-1] = from_sine(g, (p1 - p0) / dt)
        return out

    return LiftingState(
        dE=dE_new, dP=dP, dE0=state.dE0, dt_dP=dt_dP,
        dt_dE=lambda: (dE_new.data - dE_old.data) / dt, t=state.t + dt, p=p1,
    )


# ---------------------------------------------------------------------------
# boundary-norm surrogates


def boundary_l2(grid: Grid, values: np.ndarray) -> float:
    w = boundary_segment_weights(grid)
    return float(np.sqrt(np.sum(w[:, None] * values**2)))


def boundary_h_half(grid: Grid, values: np.ndarray) -> float:
    """Computable stand-in for the H^(1/2) boundary norm:
    (L2(ring)^2 + tangential-difference seminorm^2)^(1/2)."""
    w = boundary_segment_weights(grid)
    l2sq = float(np.sum(w[:, None] * values**2))
    diffs = np.diff(values, axis=0, append=values[:1])
    seg = boundary_segment_lengths(grid)
    semi = float(np.sum(diffs**2 / seg[:, None]))
    return float(np.sqrt(l2sq + semi))


# ---------------------------------------------------------------------------
# stand-alone lifting evolution (no flow), used by the lifting checks


def evolve_lifting(
    grid: Grid,
    boundary_fn: Callable[[float], np.ndarray],
    t_end: float,
    dt: float,
    sample_every: int = 1,
) -> list[LiftingState]:
    """March both liftings under a time-dependent trace; return sampled states.

    Each value of ``boundary_fn`` is checked as a ``BoundaryTrace`` once."""
    state = init_lifting(BoundaryTrace(grid, boundary_fn(0.0)))
    history = [state]
    n_steps = int(round(t_end / dt))
    for k in range(1, n_steps + 1):
        state = parabolic_lift_step(state, BoundaryTrace(grid, boundary_fn(k * dt)).values, dt)
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
    g = state.dP.grid
    lap = state.dt_dP.data.copy()
    lap[:, 1:-1, 1:-1] = interior_lap(state.dP.data - state.dE.data, g.hx, g.hy)
    return float(np.sqrt(edge_seminorm_sq(g, lap)))


def lifting_series(history: Sequence[LiftingState]) -> dict[str, np.ndarray]:
    """Scalar time series needed by the decay checks, computed per sample."""
    g = history[0].dP.grid
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
        "ht_h12_sq": np.array(
            [boundary_h_half(g, BoundaryTrace.from_field(s.dt_dP).values) ** 2 for s in history]
        ),
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
