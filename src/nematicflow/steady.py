"""Stationary director states: -lap psi + f(psi) = 0 with psi = h_inf on the ring.

Solutions are critical points of the elastic energy

    E(d)   = 1/2 |grad d|^2 + int F(d),

and the flow dynamics selects among them.  For stability questions the
shifted functional

    script_E(d) = 1/2 |grad(d - d*_E)|^2 + int F(d),

with d*_E the harmonic extension of h_inf, is the natural Lyapunov candidate;
E and script_E differ by a quantity that depends only on the trace, so they
rank equilibria identically.  Both are reported.

The solver relaxes into Newton's basin, then runs Newton-MINRES.  The
relaxation is the stabilized linearly implicit scheme of Shen & Yang, DCDS-A
28 (2010), with an infinite time step, as a defect correction:

    R(d) = -lap_h d + f(d)   at interior nodes,
    d   <- d - (S - lap_h)^-1 R(d),     S = 1/eps^2.

S = L/2, with L = max|f'| = 2/eps^2 on |d| <= 1, keeps E decreasing, and a
correction contracts every mode by at most |S - f'|/(S + mu_1): the count
does not grow with the grid, but it grows like 1/eps^2.  The solve is the
cached sine-basis heat kernel (the correction has zero trace).

Below the residual ``NEWTON_BASIN`` Newton takes over, Jacobian-free as in
Knoll & Keyes, J. Comput. Phys. 193 (2004): J = -lap_h + f'(psi) is applied
by the interior stencil plus the pointwise 2x2 block of f'.  J is symmetric
but indefinite at saddles, so each step is solved by MINRES (Paige &
Saunders, SINUM 12, 1975), preconditioned by the same (S - lap_h)^-1 solve.
A local-minimizer check probes script_E along random smooth zero-trace
directions and reports the smallest Rayleigh quotient of J among them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import edge_seminorm_sq
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    bulk_potential_F,
    integrate,
    interior_lap,
    random_sine_series,
)
from .dynamics import PhysParams
from .linsolve import EPS, harmonic_extension, heat_solve_interior

# Corrections with neither a new smallest residual nor a new lowest energy
# after which the relaxation stops (at the rounding floor the iterate only
# jitters).  Far from equilibrium the residual can rise for dozens of
# corrections while the energy falls, so a falling energy is progress too.
STALL_ITERATIONS = 5
# Residual below which Newton takes over from the relaxation.
NEWTON_BASIN = 1e-2
# Relative preconditioned residual at which MINRES stops (far above its
# rounding floor, about 1e-13), and its iteration cap; the cap is far above
# the counts the preconditioner gives (at most 25 per Newton step on grids
# from 32^2 to 256^2 and eps down to 0.05), so reaching it is stagnation.
MINRES_TOL = 1e-10
MINRES_MAX_ITER = 200


class DegenerateCriticalPointError(RuntimeError):
    """Newton Jacobian is singular: candidate non-isolated equilibrium."""


@dataclass
class Equilibrium:
    psi: VectorField2D
    residual: float
    energy_E: float
    energy_script: float
    converged: bool
    iterations: int


def energy_E(psi: VectorField2D, eps: float) -> float:
    return 0.5 * edge_seminorm_sq(psi.grid, psi.data) + integrate(bulk_potential_F(psi, eps))


def energy_script(psi: VectorField2D, d_star_E: VectorField2D, eps: float) -> float:
    diff = psi.data - d_star_E.data
    return 0.5 * edge_seminorm_sq(psi.grid, diff) + integrate(bulk_potential_F(psi, eps))


def _stationary_defect(grid: Grid, d: np.ndarray, eps: float) -> np.ndarray:
    """-lap_h d + f(d) at interior nodes, shape (2, mx, my)."""
    c = d[:, 1:-1, 1:-1]
    return ((c[0] ** 2 + c[1] ** 2 - 1.0) / eps**2) * c - interior_lap(d, grid.hx, grid.hy)


def _defect_norm(grid: Grid, r: np.ndarray) -> float:
    return float(np.sqrt(grid.hx * grid.hy * np.sum(r**2)))


def stationary_residual(psi: VectorField2D, eps: float) -> float:
    """Interior L2 norm of -lap psi + f(psi)."""
    return _defect_norm(psi.grid, _stationary_defect(psi.grid, psi.data, eps))


def _make_equilibrium(
    psi: VectorField2D,
    params: PhysParams,
    converged: bool,
    iterations: int,
    h_inf: BoundaryTrace,
) -> Equilibrium:
    d_star = harmonic_extension(h_inf)
    return Equilibrium(
        psi=psi,
        residual=stationary_residual(psi, params.eps),
        energy_E=energy_E(psi, params.eps),
        energy_script=energy_script(psi, d_star, params.eps),
        converged=converged,
        iterations=iterations,
    )


def solve_gradient_flow(
    h_inf: BoundaryTrace,
    d_init: VectorField2D,
    params: PhysParams,
    tol: float = 1e-8,
    max_iter: int = 400_000,
    energy_history: list | None = None,
) -> Equilibrium:
    """Relax -lap d + f(d) = 0 with frozen trace until the residual meets tol.

    Each correction is one stabilized implicit step of infinite length (module
    docstring).  The residual is checked after every correction; the iterate
    with the smallest one is returned, and the loop stops early once
    ``STALL_ITERATIONS`` corrections in a row bring neither a new smallest
    residual nor a new lowest energy.  ``iterations`` counts the corrections
    made.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = d_init.grid
    if np.max(np.abs(BoundaryTrace.from_field(d_init).values - h_inf.values)) > 1e-10:
        raise ValueError("d_init trace must equal h_inf")

    stab = 1.0 / params.eps**2
    d = d_init.data.copy()
    best, best_res, low_energy = d.copy(), np.inf, np.inf
    it = stalled = 0
    while True:
        r = _stationary_defect(g, d, params.eps)
        res = _defect_norm(g, r)
        energy = energy_E(VectorField2D(g, d), params.eps)
        if energy_history is not None:
            energy_history.append(energy)
        stalled += 1
        if res < best_res:
            best[...] = d
            best_res, stalled = res, 0
        if energy < low_energy:
            low_energy, stalled = energy, 0
        if best_res <= tol or it >= max_iter or stalled >= STALL_ITERATIONS:
            break
        d[:, 1:-1, 1:-1] -= heat_solve_interior(g, r / stab, 1.0 / stab)
        it += 1
    return _make_equilibrium(VectorField2D(g, best), params, best_res <= tol, it, h_inf)


def _linearization(grid: Grid, d: np.ndarray, eps: float):
    """w -> (-lap_h + f'(psi)) w on (2, mx, my) interior arrays with zero trace.

    f'(psi) w = ((|psi|^2 - 1) w + 2 (psi . w) psi) / eps^2, the pointwise 2x2
    block of the penalization; the operator is symmetric.
    """
    c = d[:, 1:-1, 1:-1]
    sq = c[0] ** 2 + c[1] ** 2 - 1.0

    def apply(w: np.ndarray) -> np.ndarray:
        ring = np.pad(w, ((0, 0), (1, 1), (1, 1)))
        pointwise = (sq * w + 2.0 * (c[0] * w[0] + c[1] * w[1]) * c) / eps**2
        return pointwise - interior_lap(ring, grid.hx, grid.hy)

    return apply


def _minres(apply_a, apply_m, b: np.ndarray) -> np.ndarray:
    """Preconditioned MINRES for A x = b: A symmetric, possibly indefinite;
    ``apply_m`` an SPD approximation of A^-1.

    Converged when the residual r = b - A x, in the norm sqrt(r . M r), is
    below ``MINRES_TOL`` times its initial value.  Stagnation, meaning b has a
    part outside the range of A (a singular linearization), raises: the cap
    ``MINRES_MAX_ITER``, a Lanczos breakdown, or a recurred residual that meets
    the tolerance while the true one does not (with rounding, a singular A has
    an eigenvalue near eps |A|, which Lanczos eventually resolves, and x blows
    up).
    """
    x = np.zeros_like(b)
    r1 = r2 = b
    y = apply_m(b)
    beta1 = beta = float(np.sqrt(np.vdot(b, y)))
    if beta1 == 0.0:
        return x
    old_beta = dbar = epsln = 0.0
    phibar, cs, sn = beta1, -1.0, 0.0
    w = np.zeros_like(b)
    w2 = np.zeros_like(b)
    for _ in range(MINRES_MAX_ITER):
        v = y / beta
        y = apply_a(v)
        if old_beta:
            y = y - (beta / old_beta) * r1
        alpha = float(np.vdot(v, y))
        y = y - (alpha / beta) * r2
        r1, r2 = r2, y
        y = apply_m(r2)
        old_beta, beta = beta, float(np.sqrt(max(np.vdot(r2, y), 0.0)))
        old_eps = epsln
        delta = cs * dbar + sn * alpha
        gbar = sn * dbar - cs * alpha
        epsln = sn * beta
        dbar = -cs * beta
        gamma = max(np.hypot(gbar, beta), EPS)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - old_eps * w1 - delta * w2) / gamma
        x = x + phi * w
        if phibar <= MINRES_TOL * beta1:
            r = b - apply_a(x)  # the recurrence may have drifted from it
            phibar = float(np.sqrt(np.vdot(r, apply_m(r))))
            if phibar <= 2.0 * MINRES_TOL * beta1:
                return x
            break
        if beta <= EPS * beta1:
            break
    raise DegenerateCriticalPointError(
        f"MINRES stagnated at relative residual {phibar / beta1:.3g}"
    )


def newton_refine(
    e: Equilibrium,
    params: PhysParams,
    tol: float = 1e-12,
    max_iter: int = 25,
    basin_radius: float = NEWTON_BASIN,
) -> Equilibrium:
    """Newton iteration on -lap psi + f(psi) = 0 with the trace held fixed;
    each step solves the linearization by preconditioned MINRES, and a
    singular linearization raises ``DegenerateCriticalPointError``."""
    if e.residual > basin_radius:
        raise ValueError(
            f"residual {e.residual:.3g} too large for Newton (limit {basin_radius:.3g})"
        )
    g = e.psi.grid
    d = e.psi.data.copy()
    h_inf = BoundaryTrace.from_field(e.psi)
    stab = 1.0 / params.eps**2

    def precondition(r: np.ndarray) -> np.ndarray:
        return heat_solve_interior(g, r / stab, 1.0 / stab)

    res = e.residual
    it = 0
    while res > tol and it < max_iter:
        r = _stationary_defect(g, d, params.eps)
        d[:, 1:-1, 1:-1] += _minres(_linearization(g, d, params.eps), precondition, -r)
        res = stationary_residual(VectorField2D(g, d), params.eps)
        it += 1
    return _make_equilibrium(
        VectorField2D(g, d), params, res <= tol, e.iterations + it, h_inf
    )


# ---------------------------------------------------------------------------
# local-minimizer probing


@dataclass
class MinimizerVerdict:
    kind: str  # "minimizer-consistent" or "saddle-detected"
    min_rayleigh: float
    min_energy_gap: float
    witness: VectorField2D | None = None


def local_minimizer_check(
    e: Equilibrium,
    params: PhysParams,
    n_probe: int = 32,
    delta: float = 0.05,
    seed: int = 0,
) -> MinimizerVerdict:
    """Probe script_E around psi with random zero-trace perturbations of H1 size
    at most delta; saddle is declared on any strict energy descent."""
    if not e.converged:
        raise ValueError("equilibrium must be converged before probing")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    g = e.psi.grid
    d_star = harmonic_extension(BoundaryTrace.from_field(e.psi))
    base = energy_script(e.psi, d_star, params.eps)
    if delta == 0.0 or n_probe == 0:
        return MinimizerVerdict("minimizer-consistent", float("nan"), 0.0)

    rng = np.random.default_rng(seed)
    jac = _linearization(g, e.psi.data, params.eps)
    cell = g.hx * g.hy

    probes = [
        np.stack([random_sine_series(g, rng, 4) for _ in range(2)]) for _ in range(n_probe)
    ]

    tol_gap = 1e-13 * (1.0 + abs(base))
    min_gap = np.inf
    min_rayleigh = np.inf
    witness = None
    for w in probes:
        h1 = np.sqrt(
            cell * np.sum(w[:, 1:-1, 1:-1] ** 2) + edge_seminorm_sq(g, w)
        )
        if h1 == 0.0:
            continue
        w = w * (delta * rng.uniform(0.3, 1.0) / h1)
        wint = w[:, 1:-1, 1:-1]
        ray = float(np.vdot(wint, jac(wint)) / np.vdot(wint, wint))
        min_rayleigh = min(min_rayleigh, ray)
        gap = energy_script(VectorField2D(g, e.psi.data + w), d_star, params.eps) - base
        if gap < min_gap:
            min_gap = gap
            witness = VectorField2D(g, w)
    if min_gap < -tol_gap:
        return MinimizerVerdict("saddle-detected", float(min_rayleigh), float(min_gap), witness)
    return MinimizerVerdict("minimizer-consistent", float(min_rayleigh), float(min_gap))
