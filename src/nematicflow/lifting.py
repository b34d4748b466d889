"""Elliptic and parabolic liftings of time-dependent Dirichlet boundary data.

For boundary data h(t) on the ring, the elliptic lifting d_E(t) is the
discrete-harmonic extension of h(t); the parabolic lifting d_P(t) solves a
heat equation with the same moving trace and starts from the harmonic
extension of the *initial* trace.  The shifted unknowns d - d_E and d - d_P
then carry homogeneous traces, which is what makes the energy bookkeeping of
the coupled system clean.

Both are advanced in the discrete sine basis.  A ``LiftingState`` holds only
the ring values h and h_prev of the last two levels, the sine coefficients
p, p_prev of d_P and the transform B^ of h (``ring_transform``); the time
stepper reads B^ and h.  The heat step of d_P is the update
(p + dt B^) / (1 + dt lam) that the director solve makes too.  Each lifting
field is built by one fixed rule when first read: d_E from (B^ / lam, h),
d_P from (p, h), dt d_P from ((p - p_prev)/dt, (h - h_prev)/dt), and dt d_E
as the harmonic extension of (h - h_prev)/dt, since d_E is linear in its trace.

The two liftings are linked by the discrete identity
-lap(d_P - d_E) = -dt d_P (the backward-Euler step makes this exact at
interior nodes up to rounding), and by a family of decay
estimates: when the boundary data settles at rate (1+t)^(-1-gamma), the
quantity |dt d_P(t)|^2 must decay at least like (1+t)^(-2-2gamma).
``appendix_diagnostics`` checks those estimates on a computed trajectory,
one ``CheckResult`` per estimate.  The check streams its samples:
``evolve_lifting`` yields each sampled state, and ``lifting_series`` reads
it once through ``lifting_sample`` and drops it, so no sampled state is
kept.  Every reader of a sample (``lifting_sample``, ``energy_record``,
``dynamics.run``) takes lap d_E = 0 and lap d_P = dt d_P from the scheme,
not by stencil; the tests check both identities by stencil.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .diagnostics import (
    CheckResult,
    FitError,
    _l2_sq,
    check_ge,
    check_le,
    edge_seminorm_sq,
    fit_decay_exponent,
)
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    boundary_segment_lengths,
    trusted_field,
)
from .linsolve import (
    from_sine,
    harmonic_coefficients,
    harmonic_extension,
    heat_coefficient_step,
    heat_step,
    ring_transform,
    solve_poisson_dirichlet,
    with_trace,
)

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
    ``p_prev`` of d_P's interior at both, the ``ring_transform`` ``bh`` of
    ``h``, and the step ``dt`` between the levels (inf at t = 0, where both
    liftings stand still).  ``dE``, ``dP``, ``dt_dP`` and ``dt_dE`` are
    built on first read by the rules in the module docstring, unless given.

    ``p_prev`` is kept although, in exact arithmetic, the heat step makes
    (p - p_prev)/dt equal B^ - lam p.  Formed that way, dt d_P would
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
    bh: np.ndarray = field(repr=False)
    dE: VectorField2D = _OnRead(lambda s: _field(s.grid, harmonic_coefficients(s.grid, s.bh), s.h))
    dP: VectorField2D = _OnRead(lambda s: _field(s.grid, s.p, s.h))
    dt_dP: VectorField2D = _OnRead(
        lambda s: _field(s.grid, (s.p - s.p_prev) / s.dt, (s.h - s.h_prev) / s.dt)
    )
    dt_dE: VectorField2D = _OnRead(  # d_E is linear in its trace
        lambda s: harmonic_extension(BoundaryTrace(s.grid, (s.h - s.h_prev) / s.dt)).data
    )


def init_lifting(d0_trace: BoundaryTrace) -> LiftingState:
    """Initial lifting state: d_P(0) equals the harmonic extension of the
    initial trace, bitwise, and both liftings stand still."""
    g = d0_trace.grid
    h = d0_trace.values.copy()
    bh = ring_transform(g, h)
    p = harmonic_coefficients(g, bh)  # the coefficients dE reads, so d_P = d_E
    return LiftingState(grid=g, t=0.0, dt=float("inf"), h=h, h_prev=h, p=p, p_prev=p, bh=bh)


def parabolic_lift_step(state: LiftingState, ring_next: np.ndarray, dt: float) -> LiftingState:
    """Advance d_P by one backward-Euler heat step and d_E to the new trace,
    both in the sine basis.

    ``ring_next`` holds the (nb, 2) ring values h(t + dt), already checked
    (``Forcing.boundary``, or ``BoundaryTrace``).  Both liftings take its ring
    contribution through the sine transform B^ (``ring_transform``, rank
    four), which the new state keeps.  d_P advances by its coefficients,
    p_new = (p + dt B^) / (1 + dt lam) (``heat_coefficient_step``, the step
    of ``heat_step``); d_E keeps B^ itself, divided by lam only when read.
    No field is formed here.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = state.grid
    h1 = np.array(ring_next, dtype=float)  # the state outlives the caller's array
    bh = ring_transform(g, h1)
    return LiftingState(
        grid=g, t=state.t + dt, dt=dt, h=h1, h_prev=state.h,
        p=heat_coefficient_step(g, state.p, bh, dt), p_prev=state.p, bh=bh,
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
) -> Iterator[LiftingState]:
    """March both liftings under the forcing's trace, yielding the sampled
    states; no state is kept.  ``forcing.boundary`` checks each trace, once."""
    state = init_lifting(BoundaryTrace(forcing.grid, forcing.boundary(0.0)))
    yield state
    for k in range(1, int(round(t_end / dt)) + 1):
        state = parabolic_lift_step(state, forcing.boundary(k * dt), dt)
        if k % sample_every == 0:
            yield state


# ---------------------------------------------------------------------------
# appendix diagnostics


LIFTING_SLACK = 0.3  # how far a fitted lifting exponent may fall short of the required one
DEDPT_TOL = 1e-6     # largest |dt d_P| accepted at the final time


@dataclass
class AppendixReport:
    t: np.ndarray
    dPdE_h1: np.ndarray
    dt_dP_norm: np.ndarray
    grad_lap_dP: np.ndarray
    checks: dict[str, CheckResult]

    def table(self) -> tuple[list[str], list[list]]:
        """Header and rows of lifting.csv: the series, then every check's flag."""
        flags = [int(c.passed) for c in self.checks.values()]
        series = zip(self.t, self.dPdE_h1, self.dt_dP_norm, self.grad_lap_dP)
        rows = [[*x, *flags] for x in series]
        return ["t", "dPdE_H1", "dt_dP", "grad_lap_dP", *self.checks], rows


def lifting_sample(state: LiftingState) -> dict:
    """One state's entries of the lifting series: |d_P - d_E| in H1 and H2,
    |dt d_P| and |dt d_E|^2 in L2, the edge seminorm of lap d_P with its ring
    filled by the trace velocity, and dt d_P's ring.  lap(d_P - d_E) is read
    as dt d_P, whose ring is h_t, by the lifting identity."""
    g = state.grid
    diff = state.dP.data - state.dE.data
    h1_sq = _l2_sq(g, diff) + edge_seminorm_sq(g, diff)
    lap = state.dt_dP.data
    inner = lap[:, 1:-1, 1:-1]
    return {
        "t": state.t,
        "dPdE_h1": np.sqrt(h1_sq),
        "dPdE_h2": np.sqrt(h1_sq + float(g.hx * g.hy * np.vdot(inner, inner))),
        "dt_dP": np.sqrt(_l2_sq(g, lap)),
        "dt_dE_sq": _l2_sq(g, state.dt_dE.data),
        "grad_lap_dP": float(np.sqrt(edge_seminorm_sq(g, lap))),
        "ring": BoundaryTrace.from_field(state.dt_dP).values,
    }


def lifting_series(states: Iterable[LiftingState]) -> dict[str, np.ndarray]:
    """Scalar time series needed by the decay checks, read in one pass over
    ``states`` (a list, or the generator ``evolve_lifting``): each state gives
    its ``lifting_sample`` and is dropped."""
    grid, samples = None, []
    for s in states:
        grid = s.grid
        samples.append(lifting_sample(s))
    if not samples:
        raise InsufficientDataError("no lifting samples")
    ser = {k: np.array([x[k] for x in samples]) for k in samples[0]}
    l2_sq, semi_sq, _ = boundary_norms_sq(grid, ser.pop("ring"))
    ser["ht_h12_sq"] = l2_sq + semi_sq
    return ser


def _exp_weighted_integral(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Stable evaluation of exp(-t) * int_0^t exp(tau) s(tau) dtau on samples."""
    out = np.zeros_like(s)
    for k in range(1, t.size):
        dt = t[k] - t[k - 1]
        decay = np.exp(-dt)
        out[k] = out[k - 1] * decay + 0.5 * dt * (s[k - 1] * decay + s[k])
    return out


def _bound_holds(y: np.ndarray, bound: np.ndarray) -> bool:
    """Whether a pointwise bound y(t) <= c * bound(t) holds with one constant c.

    Fails when no finite constant works on the sampled window, or when the
    ratio y/bound is still growing at the end of the window (the bound would
    eventually be violated on a longer horizon): the last-quarter ratio must
    stay within 1.5x the maximum seen earlier.  Where the bound vanishes on
    the last half of the window, y must vanish too.
    """
    n = y.size
    atol = 1e-18 * max(1.0, float(np.max(y)))
    tail = bound[n - max(4, int(np.ceil(0.5 * n))) :]
    pos = bound > atol
    if float(np.sum(tail**2)) <= atol**2 or not np.any(pos):
        return bool(np.all(y <= atol))
    ratio = np.divide(y, bound, out=np.zeros_like(y), where=pos)
    if not np.isfinite(np.max(ratio)):
        return False
    q = max(1, (3 * n) // 4)
    return q >= n or bool(np.max(ratio[q:]) <= 1.5 * float(np.max(ratio[:q])) + atol)


class InsufficientDataError(ValueError):
    pass


def appendix_diagnostics(
    history: Iterable[LiftingState],
    gamma: float,
    dedpt_tol: float = DEDPT_TOL,
) -> AppendixReport:
    """Check the lifting decay estimates on a computed trajectory.

    Verifies, with one constant per bound over the sampled window and fitted
    exponents allowed ``LIFTING_SLACK`` below the required ones:
    the exponentially weighted integral bound on |d_P - d_E|_{H1}^2, the
    cumulative bounds on |dt d_P|^2 + |d_P - d_E|_{H2}^2 and on the time
    integral of |grad lap d_P|^2, the (1+t)^(-2-2gamma) pointwise decay, the
    (1+t)^(-1-2gamma) tail-integral decay, and that dt d_P vanishes at the
    final time.  ``history`` is read once, by ``lifting_series``.
    """
    if gamma <= 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    ser = lifting_series(history)
    t = ser["t"]
    if t.size < 16:
        raise InsufficientDataError(f"need at least 16 lifting samples, got {t.size}")
    cum_ht = _cumtrapz(t, ser["ht_h12_sq"])
    cum_g = _cumtrapz(t, ser["grad_lap_dP"] ** 2)

    def bound(name, y, b):  # y <= c b with one constant, as the check 0 <= 0 (or 1 <= 0)
        return check_le(f"{name} bound holds", float(not _bound_holds(y, b)), 0.0)

    checks = {
        # (A3)-type: |dP-dE|_H1^2 <= c e^{-t} int e^tau |dt dE|^2
        "A3": bound("A3 weighted-integral", ser["dPdE_h1"] ** 2,
                    _exp_weighted_integral(t, ser["dt_dE_sq"])),
        # (A5)-type: |dt dP|^2 + |dP-dE|_H2^2 <= c int |h_t|_{H1/2}^2
        "A5": bound("A5 cumulative", ser["dt_dP"] ** 2 + ser["dPdE_h2"] ** 2, cum_ht),
        # (A6)-type: int |grad lap dP|^2 <= c int |h_t|_{H1/2}^2
        "A6": bound("A6 cumulative", cum_g, cum_ht),
    }
    # (A8)-type: |dt dP(t)|^2 decays at least like (1+t)^(-2-2gamma)
    exp8 = _safe_exponent(t, ser["dt_dP"] ** 2)
    checks["A8"] = check_ge("A8 dt d_P squared decay exponent", exp8, 2 + 2 * gamma - LIFTING_SLACK)
    # (A9)-type: int_{t/2}^t |grad lap dP|^2 decays at least like (1+t)^(-1-2gamma)
    sliding = cum_g - np.interp(t / 2.0, t, cum_g)
    half = t >= max(t[-1] * 0.2, t[1])
    exp9 = _safe_exponent(t[half], sliding[half])
    checks["A9"] = check_ge("A9 sliding-integral exponent", exp9, 1 + 2 * gamma - LIFTING_SLACK)
    checks["dedpt"] = check_le("dedpt dt d_P at t_end", float(ser["dt_dP"][-1]), dedpt_tol)
    return AppendixReport(t, ser["dPdE_h1"], ser["dt_dP"], ser["grad_lap_dP"], checks)


def _cumtrapz(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * np.diff(t) * (y[1:] + y[:-1]))
    return out


def _safe_exponent(t: np.ndarray, values: np.ndarray) -> float:
    """Fitted decay exponent, with quantities at the solver-noise floor 1e-18
    (squared residual tolerances) counting as infinitely fast decay."""
    if float(np.max(values)) <= 1e-18:
        return float("inf")
    try:
        exp, _ = fit_decay_exponent(t, values)
        return exp
    except FitError:
        return float("inf")

