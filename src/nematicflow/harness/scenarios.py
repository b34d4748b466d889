"""Scenario generation: boundary/force families with guaranteed decay structure.

Boundary data is angle-parametrized,

    h(s, t) = (cos phi, sin phi),   phi(s, t) = phi_inf(s) + a_h (1+t)^(-1-gamma) psi_b(s),

with s the normalized arclength along the ring, so |h| = 1 holds exactly (no
clipping) and the decay hypotheses on h_t hold by construction with explicit
exponents.  The body force is g(x, t) = a_g (1+t)^(-(2+gamma)/2) g0(x).

A quadrature checker (`check_hypotheses`) confirms the decay exponents of the
generated family against the required ones, including the tail-integral
bookkeeping: integrating a (1+t)^(-2-gamma) bound from t to infinity gains
exactly one power, so the integral checks require exponent >= 1+gamma, not
gamma.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field

import numpy as np

logger = logging.getLogger(__name__)

from ..diagnostics import FitError, RateModel, fit_decay_exponent
from ..dynamics import (
    Forcing,
    PhysParams,
    SimState,
    init,
    make_divergence_free_velocity,
)
from ..grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    boundary_arclength,
    random_sine_series,
    set_ring,
)
from ..lifting import boundary_norms_sq
from ..linsolve import harmonic_extension, solve_poisson_dirichlet
from ..steady import NEWTON_BASIN, Equilibrium, newton_refine, solve_gradient_flow

FAMILIES = ("autonomous", "polynomial-decay", "minimizer-perturbation")


@dataclass
class Scenario:
    name: str
    family: str = "autonomous"
    nx: int = 64
    ny: int = 64
    lx: float = 1.0
    ly: float = 1.0
    params: PhysParams = dc_field(default_factory=PhysParams)
    gamma: float = 2.0
    a_h: float = 0.3
    a_g: float = 0.1
    sigma1: float = 0.05
    sigma2: float = 0.05
    kappa: float = 0.35       # amplitude of the asymptotic boundary angle
    winding: int = 0          # nonzero winding presets force interior defects
    v0_amplitude: float = 0.3
    d0_perturbation: float = 0.5
    t_end: float = 5.0
    dt: float | None = None
    sample_every: int = 1
    seed: int = 7

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown forcing family {self.family!r}")
        if self.family != "autonomous" and self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")

    @property
    def grid(self) -> Grid:
        return Grid(self.nx, self.ny, self.lx, self.ly)


@dataclass
class GeneratedScenario:
    scenario: Scenario
    state: SimState
    forcing: Forcing
    rate: RateModel | None      # None marks the exponential (autonomous) regime
    reference: Equilibrium | None

    @property
    def regime(self) -> str:
        return "polynomial" if self.rate is not None else "exponential"


# ---------------------------------------------------------------------------
# boundary angle family


def _angle_functions(sc: Scenario, grid: Grid):
    s = boundary_arclength(grid)
    s_norm = s / (2.0 * (grid.lx + grid.ly))
    phi_inf = sc.kappa * np.sin(2.0 * np.pi * s_norm) + 2.0 * np.pi * sc.winding * s_norm
    psi_b = np.sin(4.0 * np.pi * s_norm)
    decaying = sc.family != "autonomous"
    a_h = sc.a_h if decaying else 0.0
    gamma = sc.gamma

    def phi(t: float) -> np.ndarray:
        return phi_inf + a_h * (1.0 + t) ** (-1.0 - gamma) * psi_b

    def phi_t(t: float) -> np.ndarray:
        return -(1.0 + gamma) * a_h * (1.0 + t) ** (-2.0 - gamma) * psi_b

    def h(t: float) -> np.ndarray:
        p = phi(t)
        return np.stack([np.cos(p), np.sin(p)], axis=1)

    def h_t(t: float) -> np.ndarray:
        p = phi(t)
        dp = phi_t(t)
        return np.stack([-np.sin(p) * dp, np.cos(p) * dp], axis=1)

    h_inf = np.stack([np.cos(phi_inf), np.sin(phi_inf)], axis=1)
    return h, h_t, h_inf


def _body_force(sc: Scenario, grid: Grid):
    if sc.family == "autonomous" or sc.a_g == 0.0:
        return None
    X, Y = grid.mesh()
    g0 = np.stack(
        [
            np.sin(2.0 * np.pi * X / grid.lx) * np.sin(np.pi * Y / grid.ly),
            np.sin(np.pi * X / grid.lx) * np.sin(2.0 * np.pi * Y / grid.ly),
        ]
    )
    a_g, gamma = sc.a_g, sc.gamma

    def g(t: float) -> np.ndarray:
        return a_g * (1.0 + t) ** (-(2.0 + gamma) / 2.0) * g0

    return g


def make_forcing(sc: Scenario, grid: Grid | None = None) -> Forcing:
    grid = grid or sc.grid
    if sc.winding != 0:
        logger.warning(
            "boundary winding number %d forces interior defects; "
            "resolution is limited by eps relative to the grid spacing",
            sc.winding,
        )
    h, h_t, h_inf = _angle_functions(sc, grid)
    if sc.family == "autonomous":
        return Forcing.autonomous_trace(grid, BoundaryTrace(grid, h(0.0)))
    return Forcing(
        grid,
        h,
        _body_force(sc, grid),
        h_inf=BoundaryTrace(grid, h_inf),
        gamma=sc.gamma,
        boundary_rate=h_t,
    )


# ---------------------------------------------------------------------------
# initial data


def _smooth_bump(grid: Grid, rng: np.random.Generator, modes: int = 3) -> np.ndarray:
    """Smooth scalar with zero ring values, max amplitude 1."""
    out = random_sine_series(grid, rng, modes)
    peak = np.max(np.abs(out))
    return out / peak if peak > 0 else out


def _harmonic_angle(grid: Grid, ring_angle: np.ndarray) -> np.ndarray:
    zero = np.zeros((1, grid.nx - 2, grid.ny - 2))
    return solve_poisson_dirichlet(grid, zero, ring_angle[:, None])[0]


def _unit_director(angle: np.ndarray, grid: Grid) -> VectorField2D:
    return VectorField2D(grid, np.stack([np.cos(angle), np.sin(angle)]))


def make_initial_director(sc: Scenario, forcing: Forcing) -> VectorField2D:
    """Unit-length initial director compatible with h(0): angle field built from
    the harmonic extension of the boundary angle plus a seeded interior bump."""
    grid = forcing.grid
    rng = np.random.default_rng(sc.seed)
    h0 = forcing.boundary(0.0)
    ring_angle = np.unwrap(np.arctan2(h0[:, 1], h0[:, 0]))
    angle = _harmonic_angle(grid, ring_angle)
    if sc.d0_perturbation != 0.0:
        angle = angle + sc.d0_perturbation * _smooth_bump(grid, rng)
    d0 = _unit_director(angle, grid)
    for k in range(2):  # bitwise trace compatibility
        set_ring(d0.data[k], h0[:, k])
    return d0


def _clip_unit_ball(d: np.ndarray) -> np.ndarray:
    mag = np.sqrt(d[0] ** 2 + d[1] ** 2)
    factor = np.minimum(1.0, 1.0 / np.maximum(mag, 1e-300))
    return d * factor[None]


def reference_equilibrium(sc: Scenario, forcing: Forcing, tol: float = 1e-11) -> Equilibrium:
    """Steady state for the asymptotic trace, shared by reports and presets:
    the relaxation brings the lift into Newton's basin, Newton reaches tol."""
    lift = harmonic_extension(forcing.h_inf)
    lift = VectorField2D(lift.grid, _clip_unit_ball(lift.data))
    for k in range(2):
        set_ring(lift.data[k], forcing.h_inf.values[:, k])
    eq = solve_gradient_flow(forcing.h_inf, lift, sc.params, tol=NEWTON_BASIN)
    return newton_refine(eq, sc.params, tol=tol)


def generate_scenario(sc: Scenario) -> GeneratedScenario:
    """Build the ready-to-run (state, forcing, rate) triple plus the reference
    equilibrium of the asymptotic boundary data."""
    grid = sc.grid
    forcing = make_forcing(sc, grid)
    reference = reference_equilibrium(sc, forcing)

    if sc.family == "minimizer-perturbation":
        d0 = _perturbed_minimizer_director(sc, forcing, reference)
        v0 = make_divergence_free_velocity(grid, sc.seed + 1, amplitude=sc.sigma1)
        # |v0| <= sigma1 in L2, the natural smallness measure for kinetic energy
        from ..diagnostics import norms

        l2 = norms(v0, "L2")
        if l2 > 0.95 * sc.sigma1:
            v0 = VectorField2D(grid, v0.data * (0.95 * sc.sigma1 / l2))
    else:
        d0 = make_initial_director(sc, forcing)
        v0 = make_divergence_free_velocity(grid, sc.seed + 1, amplitude=sc.v0_amplitude)

    state = init(v0, d0, forcing, sc.params, dt=sc.dt)
    rate = None if sc.family == "autonomous" else RateModel.for_gamma(sc.gamma)
    return GeneratedScenario(sc, state, forcing, rate, reference)


def _perturbed_minimizer_director(
    sc: Scenario, forcing: Forcing, reference: Equilibrium
) -> VectorField2D:
    """psi* plus the lift of (h(0) - h_inf) plus a zero-trace bump, shrunk until
    the H1 distance to psi* fits within sigma2."""
    from ..diagnostics import norms

    grid = forcing.grid
    rng = np.random.default_rng(sc.seed + 2)
    h0 = forcing.boundary(0.0)
    lift0 = harmonic_extension(BoundaryTrace(grid, h0))
    lift_inf = harmonic_extension(forcing.h_inf)
    shift = lift0.data - lift_inf.data
    bump = np.stack([_smooth_bump(grid, rng), _smooth_bump(grid, rng)])
    amp = sc.sigma2
    for _ in range(60):
        d0 = _clip_unit_ball(reference.psi.data + shift + amp * bump)
        for k in range(2):
            set_ring(d0[k], h0[:, k])
        dist = norms(VectorField2D(grid, d0 - reference.psi.data), "H1")
        if dist <= sc.sigma2:
            return VectorField2D(grid, d0)
        amp *= 0.7
    raise RuntimeError(
        "could not fit the perturbed initial director inside sigma2; "
        "the boundary shift alone may exceed the budget"
    )


# ---------------------------------------------------------------------------
# hypothesis checker


@dataclass
class HypothesisCheck:
    name: str
    required_exponent: float
    fitted_exponent: float
    passed: bool
    note: str


def _tail_integral(t: np.ndarray, values: np.ndarray) -> np.ndarray:
    rev = np.zeros_like(values)
    rev[:-1] = np.cumsum((0.5 * np.diff(t) * (values[1:] + values[:-1]))[::-1])[::-1]
    return rev


# Sample times per stack of ring traces in ``check_hypotheses``: a
# (RING_BLOCK, nb, 2) stack is 64 kB at 64^2, where all 240 times at once
# would hold megabytes of temporaries beside the run's states.
RING_BLOCK = 16


def check_hypotheses(
    forcing: Forcing,
    gamma: float,
    t_max: float = 60.0,
    n_samples: int = 240,
) -> list[HypothesisCheck]:
    """Verify by quadrature that the generated family decays at least as fast
    as each hypothesis requires.

    Integral hypotheses compare against (1+t)^(-1-gamma): integrating the
    pointwise bound (1+t)^(-2-gamma) over [t, inf) gains exactly one power,
    so the required exponent is 1+gamma, not gamma -- asserting only gamma
    here would silently weaken the check.
    """
    g = forcing.grid
    if forcing.is_autonomous:
        return []
    rate_fn = forcing.boundary_rate
    t = np.linspace(0.0, t_max, n_samples)

    def series(fn, times=t):
        return np.array([fn(tt) for tt in times])

    def ring_series(fn):
        # (3, n) squared ring norms of fn(t) (``boundary_norms_sq``): one
        # array pass per block of RING_BLOCK times keeps the stacks small
        return np.hstack([
            np.array(boundary_norms_sq(g, series(fn, t[i : i + RING_BLOCK])))
            for i in range(0, t.size, RING_BLOCK)
        ])

    checks: list[HypothesisCheck] = []

    def fit_tail(vals, lo_frac=0.0, hi_frac=0.6):
        lo = int(lo_frac * t.size)
        hi = int(hi_frac * t.size)
        try:
            exp, _ = fit_decay_exponent(t[lo:hi], vals[lo:hi], tail_fraction=1.0)
        except FitError:
            exp = float("inf")
        return exp

    # each of the user's functions is called once per sample time
    if rate_fn is not None:
        l2_sq, semi_sq, _ = ring_series(rate_fn)
        ht_l2 = np.sqrt(l2_sq)
        ht_h12 = np.sqrt(l2_sq + semi_sq)
        i1 = _tail_integral(t, ht_h12)
        i2 = _tail_integral(t, ht_h12**2)
        for name, vals, req, note in (
            ("H1", i1, 1.0 + gamma, "tail integral of |h_t|_{H1/2}; one power gained by integration"),
            ("H2", i2, 1.0 + gamma, "tail integral of |h_t|^2_{H1/2}"),
            ("H5", ht_l2, 1.0 + gamma, "pointwise |h_t|_{L2(Gamma)}"),
            ("H6", ht_h12, 1.0 + gamma, "pointwise |h_t|_{H1/2}"),
        ):
            exp = fit_tail(vals)
            checks.append(HypothesisCheck(name, req, exp, exp >= req - 0.05, note))

        # |h - h_inf| in the H3/2 surrogate: L2 and both difference seminorms
        h_inf = forcing.h_inf.values
        dist = np.sqrt(ring_series(lambda tt: forcing.boundary(tt) - h_inf).sum(axis=0))
        exp = fit_tail(dist)
        checks.append(
            HypothesisCheck("H7", 1.0 + gamma, exp, exp >= 1.0 + gamma - 0.05,
                            "pointwise |h - h_inf| in the H3/2 surrogate")
        )

    if forcing.body_force(0.0) is not None:
        from ..grid import quad_weights

        w = quad_weights(g)

        def g_l2_sq(tt):
            arr = forcing.body_force(tt).data
            return float(np.sum(w * (arr[0] ** 2 + arr[1] ** 2)))

        gsq = series(g_l2_sq)
        i3 = _tail_integral(t, gsq)
        exp3 = fit_tail(i3)
        exp4 = fit_tail(gsq)
        checks.append(HypothesisCheck("H3", 1.0 + gamma, exp3, exp3 >= 1.0 + gamma - 0.05,
                                      "tail integral of |g|^2; one power gained"))
        checks.append(HypothesisCheck("H4", 2.0 + gamma, exp4, exp4 >= 2.0 + gamma - 0.05,
                                      "pointwise |g|^2"))
    return checks
