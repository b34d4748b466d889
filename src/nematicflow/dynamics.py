"""Coupled time integrator for the incompressible director-flow system.

The system couples a Navier-Stokes velocity v (no-slip) to a director field
d carrying time-dependent Dirichlet data h(t):

    v_t + v.grad v - nu lap v + grad pi = -lambda (lap d . grad d) + g(t)
    div v = 0
    d_t + v.grad d = eta (lap d - f(d))

It is advanced in lifted form: with d_E(t) the harmonic extension of h(t),
the shifted director d - d_E carries a homogeneous trace and obeys

    (d - d_E)_t + v.grad d = eta lap(d - d_E) - eta f(d) - dt d_E.

One step from (v, d) at t to (v1, d1, pi1) at t1 = t + dt solves, at
interior nodes, with lap_h and grad_h the 5-point and central stencils,
f(d) = (|d|^2 - 1) d / eps^2, S the director source and g the body force:

  (D) (I - eta dt lap_h) d1 = d - dt (v.grad_h d + eta f(d)) + dt S(t1),
      and d1 = h(t1) on the ring;
  (V) (I - nu dt lap_h) u* = v - dt (v.grad_h v + lambda sigma(d1)) + dt g(t1),
      and u* = 0 on the ring, where sigma_i(d) = sum_k lap_h d_k grad_i d_k;
  (P) v1 = u* - grad_h pi1 with div_h v1 = 0, and v1 = 0 on the ring.

The stress is taken on the new director.  A step runs in four stages:

  1. advance the liftings to t1 in the sine basis: the transform B^ of the
     new trace's ring contribution, and the coefficient update of the heat
     step of d_P; every lifting field is built only when read;
  2. (D), one implicit solve that takes the trace h(t1) by its B^, as the
     heat step of d_P does: lap_h d1 = lap_0 d1 + B(h(t1)) at interior
     nodes, so with c = eta dt and b^ the coefficients of the right-hand
     side, those of d1 are (b^ + c B^) / (1 + c lam)
     (``heat_coefficient_step``), before its one back-transform.  The
     explicit terms are folded: with k = eta dt / eps^2 the right-hand side
     is d (1 + k - k |d|^2) - dt (v.grad_h d - S);
  3. (V), one implicit viscous solve;
  4. (P), the exact discrete projection onto divergence-free fields.

The autonomous datum h(t) = h_inf is given to ``Forcing`` as a ``BoundaryTrace``,
a static trace: step 1 then only moves the liftings' clock.

Diffusion is backward Euler throughout, so stability is limited only by the
explicit advection (CFL warning) and the penalization scale dt/eps^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import EnergyRecord, _l2_sq, edge_seminorm_sq, energy_record
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    _ddx,
    _ddy,
    extract_ring,
    random_sine_series,
    row_dx,
    row_dy,
    row_stencils,
    set_ring,
    stress_rows,
    trusted_field,
)
from .lifting import LiftingState, init_lifting, parabolic_lift_step
from .linsolve import heat_solve_interior, project_divergence_free, with_trace

logger = logging.getLogger(__name__)


class SetupError(ValueError):
    """Initial data violates a compatibility condition."""


@dataclass(frozen=True)
class PhysParams:
    nu: float = 1.0
    lam: float = 1.0
    eta: float = 1.0
    eps: float = 0.25

    def __post_init__(self) -> None:
        # named as in the equations and in the config's [params] section
        named = (("nu", self.nu), ("lambda", self.lam), ("eta", self.eta), ("eps", self.eps))
        for name, value in named:
            if not 0 < value < np.inf:  # also refuses nan
                raise ValueError(f"{name} must be positive and finite, got {value}")


class Forcing:
    """Boundary data h(t) and body force g(t) driving the system.

    ``boundary`` is a ``BoundaryTrace``, the autonomous datum h(t) = h_inf,
    or a function mapping t to CCW ring values (nb, 2) with |h| <= 1, whose
    asymptotic trace ``h_inf`` defaults to h(0).  A trace is its own h_inf,
    and one given beside it is refused.  ``body_force_values`` maps t to
    (2, nx, ny) arrays or None.

    ``static_trace`` is set for a trace: the liftings then stay frozen at
    their initial harmonic extension (exact, not an approximation), and
    dt d_E is zero.  ``director_source_values`` injects an extra source into
    the director equation; it exists for manufactured-solution tests.
    ``boundary_rate`` is the analytic h_t when known (read by the hypothesis
    checker).  ``boundary(t)`` refuses a shape other than (nb, 2),
    non-finite values and |h| > 1, and ``body_force(t)`` and
    ``director_source(t)`` a shape other than (2, nx, ny) and non-finite
    values, naming the datum and t, at every t they are asked for; the
    constructor asks for h at t = 0, so bad static data is refused up front.
    These are the run's entry points for outside data: the fields the step
    derives from them are not checked again.
    """

    def __init__(
        self,
        grid: Grid,
        boundary: BoundaryTrace | Callable[[float], np.ndarray],
        body_force_values: Callable[[float], np.ndarray] | None = None,
        h_inf: BoundaryTrace | None = None,
        director_source_values: Callable[[float], np.ndarray] | None = None,
        boundary_rate: Callable[[float], np.ndarray] | None = None,
    ):
        self.grid = grid
        self.static_trace = isinstance(boundary, BoundaryTrace)
        if self.static_trace:
            if h_inf is not None:
                raise ValueError("a BoundaryTrace is its own h_inf; pass no h_inf beside it")
            h_inf = boundary
        self._boundary = (lambda t: boundary.values) if self.static_trace else boundary
        self._body = body_force_values
        self._director_source = director_source_values
        self.boundary_rate = boundary_rate
        h0 = self.boundary(0.0)
        self.h_inf = h_inf if h_inf is not None else BoundaryTrace(grid, h0)

    def boundary(self, t: float) -> np.ndarray:
        vals = np.asarray(self._boundary(t), dtype=float)
        if vals.shape != (self.grid.n_boundary, 2):
            raise ValueError(
                f"h at t={t:.6g} has shape {vals.shape}, expected ({self.grid.n_boundary}, 2)"
            )
        mag = np.max(np.hypot(vals[:, 0], vals[:, 1]))  # NaN if any value is NaN
        if np.isnan(mag):
            raise ValueError(f"h is not finite at t={t:.6g}")
        if mag > 1.0 + 1e-12:
            raise ValueError(f"|h| exceeds 1 at t={t:.6g}: max |h| = {mag:.6g}")
        return vals

    def _field(self, name: str, values: Callable | None, t: float) -> VectorField2D | None:
        if values is None:
            return None
        try:
            return VectorField2D(self.grid, values(t))
        except ValueError as exc:
            raise ValueError(f"{name} at t={t:.6g}: {exc}") from exc

    def body_force(self, t: float) -> VectorField2D | None:
        return self._field("body force", self._body, t)

    def director_source(self, t: float) -> VectorField2D | None:
        return self._field("director source", self._director_source, t)


@dataclass(frozen=True)
class SimState:
    """v, d and pressure pi at time t, with the liftings of the trace at t; pi is
    the projection's multiplier, zero on the ring (``project_divergence_free``)."""

    t: float
    v: VectorField2D
    d: VectorField2D
    pi: ScalarField2D
    lifting: LiftingState
    params: PhysParams
    dt: float
    forcing: Forcing


def default_dt(grid: Grid, params: PhysParams) -> float:
    """Default step 0.25 h^2 / max(eta, nu), the stability limit of explicit diffusion.

    Diffusion is backward Euler here, so this limit does not bind: the
    explicit terms limit dt only through the advective CFL number and the
    penalization product dt eta 2 / eps^2, both far below one at this step.
    """
    h = min(grid.hx, grid.hy)
    return 0.25 * h * h / max(params.eta, params.nu)


def init(
    v0: VectorField2D,
    d0: VectorField2D,
    forcing: Forcing,
    params: PhysParams,
    dt: float | None = None,
) -> SimState:
    """Validate compatibility, project the initial velocity, build the liftings."""
    g = v0.grid
    if d0.grid != g or forcing.grid != g:
        raise SetupError("v0, d0 and forcing must share one grid")

    if np.max(np.abs(extract_ring(v0.data))) > 1e-12:
        raise SetupError("no-slip violated: v0 is nonzero on the boundary")

    h0 = forcing.boundary(0.0)
    if np.max(np.abs(extract_ring(d0.data) - h0)) > 1e-12:
        raise SetupError("compatibility violated: d0 trace differs from h(t=0)")

    mag = d0.magnitude()
    if np.max(mag) > 1.0 + 1e-12:
        raise SetupError(f"|d0| must not exceed 1, max is {np.max(mag):.6g}")

    d0 = d0.copy()
    set_ring(d0.data, h0)  # pin the trace bitwise so shifted fields vanish exactly
    d0.data.flags.writeable = False  # as every stepped director
    v0 = v0.copy()
    set_ring(v0.data, np.zeros((g.n_boundary, 2)))  # no-slip bitwise, as every stepped v

    v_proj, pi0 = project_divergence_free(v0)
    lifting = init_lifting(BoundaryTrace(g, h0))
    if dt is None:
        dt = default_dt(g, params)
    if dt <= 0:
        raise SetupError("dt must be positive")
    return SimState(
        t=0.0, v=v_proj, d=d0, pi=pi0, lifting=lifting,
        params=params, dt=dt, forcing=forcing,
    )


def step(s: SimState) -> SimState:
    """Advance one time step; boundary/trace invariants are restored exactly.

    Implicit solves only ever read interior values, so all right-hand sides
    are assembled on the interior rows (``grid.row_dx``) and the solves take
    their interior columns.  The returned director is read-only, so
    ``row_stencils`` evaluates its stencils once.
    """
    g = s.v.grid
    p = s.params
    dt = s.dt
    t1 = s.t + dt
    hx, hy = g.hx, g.hy
    v = s.v.data
    d = s.d.data
    v_rows = v[:, 1:-1]
    d_rows = d[:, 1:-1]

    # 1. liftings.  With a static trace the parabolic lifting equals the
    # elliptic one for all time, so only the clock moves.
    if s.forcing.static_trace:
        lift1 = replace(s.lifting, t=t1)
    else:
        lift1 = parabolic_lift_step(s.lifting, s.forcing.boundary(t1), dt)

    # 2. director update: the solve takes the new trace by its ring
    # transform, as the heat step of d_P does; the ring is h(t1) exactly.
    # With k = eta dt / eps^2 the right-hand side is
    # d (1 + k - k |d|^2) - dt (v.grad_h d - S), one pass per term.
    k = p.eta * dt / p.eps**2
    mag_sq = d_rows[0] ** 2
    mag_sq += d_rows[1] ** 2
    rhs_d = d_rows * ((1.0 + k) - k * mag_sq)
    d_dx, d_dy, _ = row_stencils(s.d)
    expl = v_rows[0] * d_dx
    expl += v_rows[1] * d_dy
    src = s.forcing.director_source(t1)
    if src is not None:
        expl -= src.data[:, 1:-1]
    expl *= dt
    rhs_d -= expl
    interior = heat_solve_interior(g, rhs_d[..., 1:-1], p.eta * dt, lift1.bh)
    d_new_data = with_trace(g, interior, lift1.h)
    d_new_data.flags.writeable = False
    d_new = trusted_field(VectorField2D, g, d_new_data)

    # 3. velocity predictor, viscous term implicit, stress on the new director:
    # the explicit terms lambda sigma + v.grad_h v - g are summed in one
    # array, scaled by dt and subtracted from v once
    expl = stress_rows(d_new)
    expl *= p.lam
    for v_comp, stencil in zip(v_rows, (row_dx(v, hx), row_dy(v, hy))):
        stencil *= v_comp
        expl += stencil
    gf = s.forcing.body_force(t1)
    if gf is not None:
        expl -= gf.data[:, 1:-1]
    expl *= dt
    rhs_v = v_rows - expl
    u_star = np.zeros((2, *g.shape))
    u_star[:, 1:-1, 1:-1] = heat_solve_interior(g, rhs_v[..., 1:-1], p.nu * dt)

    # 4. projection
    v_new, pi_new = project_divergence_free(trusted_field(VectorField2D, g, u_star))

    return replace(s, t=t1, v=v_new, d=d_new, pi=pi_new, lifting=lift1)


def cfl_number(s: SimState) -> float:
    """Advective CFL number dt max|v| / min(hx, hy), from max v and min v
    (no |v| temporary); NaN or infinite exactly when v is not finite."""
    v = s.v.data
    return float(s.dt * max(v.max(), -v.min()) / min(s.v.grid.hx, s.v.grid.hy))


@dataclass
class RunSummary:
    final: SimState
    records: list[EnergyRecord]
    n_steps: int
    max_cfl: float
    aux: dict[str, np.ndarray]  # |dt d_P|, |grad lap d_P| and |g| at the record times
    aborted: bool = False
    abort_reason: str | None = None


def run(
    s0: SimState,
    t_end: float,
    sample_every: int = 1,
    reference: VectorField2D | None = None,
) -> RunSummary:
    """Step until t >= t_end, sampling an EnergyRecord every ``sample_every`` steps.

    With each record it samples the series the higher-order checks read:
    ``aux`` holds |dt d_P|, |grad lap d_P| (both 0 on a static trace) and |g|.
    Aborts with the last good state if a step fails (forcing data that is not
    finite, say) or the fields stop being finite.  That check after every
    step stands in for the validation the step skips on the fields it derives.
    """
    if t_end <= s0.t:
        raise ValueError("t_end must exceed the initial time")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    g = s0.v.grid
    records: list[EnergyRecord] = []
    aux = {"dt_dP": [], "grad_lap_dP": [], "g_l2": []}

    def sample(state: SimState) -> None:
        records.append(energy_record(state, reference))
        # lap d_P with its ring filled by h_t is dt d_P, by the lifting identity
        rate = None if state.forcing.static_trace else state.lifting.dt_dP.data
        aux["dt_dP"].append(0.0 if rate is None else np.sqrt(_l2_sq(g, rate)))
        aux["grad_lap_dP"].append(0.0 if rate is None else np.sqrt(edge_seminorm_sq(g, rate)))
        gf = state.forcing.body_force(state.t)
        aux["g_l2"].append(0.0 if gf is None else float(np.sqrt(_l2_sq(g, gf.data))))

    sample(s0)
    s = s0
    n_steps = 0
    max_cfl = 0.0
    warned = False
    aborted = False
    reason = None
    while s.t < t_end - 1e-12 * max(1.0, t_end):
        try:
            s_next = step(s)
        except (ValueError, FloatingPointError) as exc:
            aborted, reason = True, f"step failed at t={s.t:.6g}: {exc}"
            break
        # one pass each: the CFL number carries any NaN or infinity of v, and
        # the squared norm of d any of d
        c = cfl_number(s_next)
        if not (np.isfinite(c) and np.isfinite(np.vdot(s_next.d.data, s_next.d.data))):
            aborted, reason = True, f"non-finite state at t={s_next.t:.6g}"
            break
        s = s_next
        n_steps += 1
        max_cfl = max(max_cfl, c)
        if c > 1.0 and not warned:
            logger.warning("advective CFL number %.3g exceeds 1 at t=%.4g", c, s.t)
            warned = True
        if n_steps % sample_every == 0:
            sample(s)

    return RunSummary(
        final=s,
        records=records,
        n_steps=n_steps,
        max_cfl=max_cfl,
        aux={k: np.array(v) for k, v in aux.items()},
        aborted=aborted,
        abort_reason=reason,
    )


def make_divergence_free_velocity(grid: Grid, seed: int, amplitude: float) -> VectorField2D:
    """Stream-function velocity sample: v = (dy zeta, -dx zeta), zeta = 0 on the ring.

    Central differencing of a nodal stream function commutes exactly with the
    central divergence, so the result is discretely solenoidal and its normal
    ring component vanishes; the tangential ring values are zeroed (the
    analytic profile vanishes there already up to truncation).
    """
    zeta = random_sine_series(grid, np.random.default_rng(seed), 3)
    xn, yn = grid.xs() / grid.lx, grid.ys() / grid.ly
    # flatten near the walls: ((xn (1 - xn)) yn) (1 - yn), the product a mesh
    # would form, from the 1-D coordinates
    zeta *= ((xn * (1 - xn))[:, None] * yn[None, :] * (1 - yn)[None, :]) ** 2
    v = np.zeros((2, *grid.shape))
    v[0] = _ddy(zeta, grid.hy)
    v[1] = -_ddx(zeta, grid.hx)
    set_ring(v, np.zeros((grid.n_boundary, 2)))
    vmax = float(np.max(np.hypot(v[0], v[1])))
    if vmax > 0:
        v *= amplitude / vmax
    return VectorField2D(grid, v)
