"""Coupled time integrator for the incompressible director-flow system.

The system couples a Navier-Stokes velocity v (no-slip) to a director field
d carrying time-dependent Dirichlet data h(t):

    v_t + v.grad v - nu lap v + grad pi = -lambda (lap d . grad d) + g(t)
    div v = 0
    d_t + v.grad d = eta (lap d - f(d))

It is advanced in lifted form: with d_E(t) the harmonic extension of h(t),
the shifted director d - d_E carries a homogeneous trace and obeys

    (d - d_E)_t + v.grad d = eta lap(d - d_E) - eta f(d) - dt d_E.

One step of the splitting scheme:

  1. advance the liftings to t+dt in the sine basis (a coefficient update
     for the heat step of d_P, a division by the eigenvalues for the
     harmonic extension d_E); every lifting field is built only when read;
  2. director update, diffusion implicit, advection/penalization explicit,
     zero Dirichlet trace on the shifted unknown.  Its right-hand side
     (d - d_E^n) - dt dt d_E equals d - d_E^{n+1}, so it reads the new d_E
     only, and only by its sine coefficients: the solve subtracts them in
     the sine basis and adds them back before its one back-transform;
  3. velocity predictor with implicit viscosity, explicit advection and
     elastic coupling evaluated on the *new* director;
  4. exact discrete projection onto divergence-free fields.

Diffusion is backward Euler throughout, so stability is limited only by the
explicit advection (CFL warning) and the penalization scale dt/eps^2.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .diagnostics import EnergyRecord, energy_record
from .grid import (
    BoundaryTrace,
    Grid,
    ScalarField2D,
    VectorField2D,
    _ddx,
    _ddy,
    extract_ring,
    quad_weights,
    random_sine_series,
    row_dx,
    row_dy,
    row_stencils,
    set_ring,
    stress_rows,
    trusted_field,
)
from .lifting import LiftingState, _grad_lap_dP, init_lifting, parabolic_lift_step
from .linsolve import SolverError, heat_solve_interior, project_divergence_free, with_trace

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
        for name in ("nu", "lam", "eta", "eps"):
            value = getattr(self, name)
            if not 0 < value < np.inf:  # also refuses nan
                raise ValueError(f"{name} must be positive and finite, got {value}")


class Forcing:
    """Boundary data h(t) and body force g(t) driving the system.

    ``boundary_values`` maps t to CCW ring values (nb, 2) with |h| <= 1;
    ``body_force_values`` maps t to (2, nx, ny) arrays or None.  ``h_inf``
    is the asymptotic trace and ``gamma`` the decay exponent of the
    non-autonomous parts (None for autonomous data).

    ``static_trace`` marks data whose boundary values never move: the
    liftings then stay frozen at their initial harmonic extension (exact, not
    an approximation).  ``director_source_values`` injects an extra source
    into the director equation; it exists for manufactured-solution tests.
    ``boundary_rate`` is the analytic h_t when known (read by the hypothesis
    checker).  ``boundary(t)`` refuses a shape other than (nb, 2),
    non-finite values and |h| > 1, and ``body_force(t)`` non-finite values,
    at every t they are asked for; the constructor asks for h at t = 0, so
    bad static data is refused up front.
    These are the run's entry points for outside data: the fields the step
    derives from them are not checked again.
    """

    def __init__(
        self,
        grid: Grid,
        boundary_values: Callable[[float], np.ndarray],
        body_force_values: Callable[[float], np.ndarray] | None = None,
        h_inf: BoundaryTrace | None = None,
        gamma: float | None = None,
        autonomous: bool = False,
        static_trace: bool | None = None,
        director_source_values: Callable[[float], np.ndarray] | None = None,
        boundary_rate: Callable[[float], np.ndarray] | None = None,
    ):
        self.grid = grid
        self._boundary = boundary_values
        self._body = body_force_values
        self._last_body: tuple[float, VectorField2D] | None = None
        self._director_source = director_source_values
        self.boundary_rate = boundary_rate
        self.gamma = gamma
        self.is_autonomous = autonomous
        self.static_trace = autonomous if static_trace is None else static_trace
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

    def body_force(self, t: float) -> VectorField2D | None:
        """g(t) as a read-only field; the last t asked for is answered from a
        one-slot memo, so the step and its sample call ``body_force_values`` once."""
        if self._body is None:
            return None
        last = self._last_body
        if last is not None and last[0] == t:
            return last[1]
        try:
            field = VectorField2D(self.grid, self._body(t))
        except ValueError as exc:
            raise ValueError(f"body force at t={t:.6g}: {exc}") from exc
        field.data = field.data.view()  # read-only view; the caller's array stays as it was
        field.data.flags.writeable = False
        self._last_body = (t, field)
        return field

    def director_source(self, t: float) -> np.ndarray | None:
        if self._director_source is None:
            return None
        return np.asarray(self._director_source(t), dtype=float)

    @classmethod
    def autonomous_trace(cls, grid: Grid, trace: BoundaryTrace) -> "Forcing":
        vals = trace.values.copy()
        return cls(grid, lambda t: vals, None, h_inf=trace, gamma=None, autonomous=True)


@dataclass(frozen=True)
class SimState:
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

    ring_v = np.stack([extract_ring(v0.data[0]), extract_ring(v0.data[1])], axis=1)
    if np.max(np.abs(ring_v)) > 1e-12:
        raise SetupError("no-slip violated: v0 is nonzero on the boundary")

    h0 = forcing.boundary(0.0)
    ring_d = np.stack([extract_ring(d0.data[0]), extract_ring(d0.data[1])], axis=1)
    if np.max(np.abs(ring_d - h0)) > 1e-12:
        raise SetupError("compatibility violated: d0 trace differs from h(t=0)")

    mag = d0.magnitude()
    if np.max(mag) > 1.0 + 1e-12:
        raise SetupError(f"|d0| must not exceed 1, max is {np.max(mag):.6g}")

    d0 = d0.copy()
    for k in range(2):  # pin the trace bitwise so shifted fields vanish exactly
        set_ring(d0.data[k], h0[:, k])
    d0.data.flags.writeable = False  # as every stepped director

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

    # 2. director update on the shifted unknown (zero trace).  Its right-hand
    # side (d - d_E^n) - dt dt_dE equals d - d_E^{n+1}, so the solve reads
    # only the new d_E, by its sine coefficients; the ring is h(t1) exactly.
    gl_fac = (d_rows[0] ** 2 + d_rows[1] ** 2 - 1.0) / p.eps**2
    d_dx, d_dy, _ = row_stencils(s.d)
    adv = v_rows[0] * d_dx + v_rows[1] * d_dy
    rhs_d = d_rows + dt * (-adv - p.eta * gl_fac * d_rows)
    src = s.forcing.director_source(t1)
    if src is not None:
        rhs_d += dt * src[:, 1:-1]
    interior = heat_solve_interior(g, rhs_d[..., 1:-1], p.eta * dt, lift1.e)
    d_new_data = with_trace(g, interior, lift1.h)
    d_new_data.flags.writeable = False
    d_new = trusted_field(VectorField2D, g, d_new_data)

    # 3. velocity predictor, viscous term implicit, stress on the new director
    adv = v_rows[0] * row_dx(v, hx) + v_rows[1] * row_dy(v, hy)
    rhs_v = v_rows + dt * (-adv - p.lam * stress_rows(d_new))
    gf = s.forcing.body_force(t1)
    if gf is not None:
        rhs_v += dt * gf.data[:, 1:-1]
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
    aborted: bool = False
    abort_reason: str | None = None
    aux: dict | None = None  # time series for the higher-order checks


def run(
    s0: SimState,
    t_end: float,
    sample_every: int = 1,
    reference: VectorField2D | None = None,
) -> RunSummary:
    """Step until t >= t_end, sampling an EnergyRecord every ``sample_every`` steps.

    Also tracks the scalar series feeding the higher-order checks: |dt d_P|,
    |grad lap d_P|, |g| and |grad v|, sampled on the same grid of times.
    Aborts with the last good state if a step fails (including a linear solve
    that misses its tolerance, or forcing data that is not finite) or the
    fields stop being finite.  That check after every step stands in for the
    validation the step skips on the fields it derives.
    """
    if t_end <= s0.t:
        raise ValueError("t_end must exceed the initial time")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    g = s0.v.grid
    w = quad_weights(g)

    def g_norm(t: float) -> float:
        gf = s0.forcing.body_force(t)
        if gf is None:
            return 0.0
        return float(np.sqrt(np.sum(w * (gf.data[0] ** 2 + gf.data[1] ** 2))))

    def lifting_scalars(state: SimState) -> tuple[float, float]:
        if state.forcing.static_trace:
            return 0.0, 0.0
        dtdp = float(np.sqrt(np.sum(w * (state.lifting.dt_dP.data[0] ** 2 + state.lifting.dt_dP.data[1] ** 2))))
        return dtdp, _grad_lap_dP(state.lifting)

    records: list[EnergyRecord] = []
    aux = {"t": [], "dt_dP": [], "grad_lap_dP": [], "g_l2": [], "grad_v": []}

    def sample(state: SimState) -> None:
        rec = energy_record(state, reference)
        records.append(rec)
        dtdp, gradlap = lifting_scalars(state)
        aux["t"].append(state.t)
        aux["dt_dP"].append(dtdp)
        aux["grad_lap_dP"].append(gradlap)
        aux["g_l2"].append(g_norm(state.t))
        # |grad v|^2 = |v|_H1^2 - |v|_L2^2, as the record sums it
        aux["grad_v"].append(float(np.sqrt(max(rec.norm_v_H1**2 - rec.norm_v_L2**2, 0.0))))

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
        except SolverError as exc:
            aborted = True
            reason = f"step failed at t={s.t:.6g}: SolverError: {exc} (residual {exc.residual:.6g})"
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

    summary = RunSummary(
        final=s,
        records=records,
        n_steps=n_steps,
        max_cfl=max_cfl,
        aborted=aborted,
        abort_reason=reason,
        aux={k: np.array(v) for k, v in aux.items()},
    )
    return summary


def make_divergence_free_velocity(
    grid: Grid, seed: int, amplitude: float, modes: int = 3
) -> VectorField2D:
    """Stream-function velocity sample: v = (dy zeta, -dx zeta), zeta = 0 on the ring.

    Central differencing of a nodal stream function commutes exactly with the
    central divergence, so the result is discretely solenoidal and its normal
    ring component vanishes; the tangential ring values are zeroed (the
    analytic profile vanishes there already up to truncation).
    """
    zeta = random_sine_series(grid, np.random.default_rng(seed), modes)
    X, Y = grid.mesh()
    xn, yn = X / grid.lx, Y / grid.ly
    zeta *= (xn * (1 - xn) * yn * (1 - yn)) ** 2  # flatten near the walls
    v = np.zeros((2, *grid.shape))
    v[0] = _ddy(zeta, grid.hy)
    v[1] = -_ddx(zeta, grid.hx)
    for k in range(2):
        set_ring(v[k], np.zeros(grid.n_boundary))
    vmax = float(np.max(np.hypot(v[0], v[1])))
    if vmax > 0:
        v *= amplitude / vmax
    return VectorField2D(grid, v)
