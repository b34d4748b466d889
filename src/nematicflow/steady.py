"""Stationary director states: -lap psi + f(psi) = 0 with psi = h_inf on the ring.

Solutions are critical points of the elastic energy

    E(d)   = 1/2 |grad d|^2 + int F(d),

and the flow dynamics selects among them.  For stability questions the
shifted functional

    script_E(d) = 1/2 |grad(d - d*_E)|^2 + int F(d),

with d*_E the harmonic extension of h_inf, is the natural Lyapunov candidate;
E and script_E differ by a quantity that depends only on the trace, so they
rank equilibria identically.  Both are reported.

The energies and the stationary defect R(d) = -lap_h d + f(d) at interior
nodes come from ``grid.ginzburg_landau``, as the energy record's do, in one
evaluation per iterate; the residual is the interior L2 norm of R.

The solver relaxes into Newton's basin, then runs Newton-MINRES.  The
relaxation is the stabilized linearly implicit scheme of Shen & Yang, DCDS-A
28 (2010), with an infinite time step, as a defect correction:

    d   <- d - (S - lap_h)^-1 R(d),     S = 1/eps^2.

S = L/2, with L = max|f'| = 2/eps^2 on |d| <= 1, keeps E decreasing, and a
correction contracts every mode by at most |S - f'|/(S + mu_1): the count
does not grow with the grid, but it grows like 1/eps^2.  The solve is the
cached sine-basis heat kernel (the correction has zero trace).

The relaxation gives up after ``GRADIENT_FLOW_MAX_ITER`` corrections.
Below the residual ``NEWTON_BASIN`` Newton takes over, Jacobian-free as in
Knoll & Keyes, J. Comput. Phys. 193 (2004): J = -lap_h + f'(psi) is applied
by the interior stencil plus the pointwise 2x2 block of f'.  J is symmetric
but indefinite at saddles, so each step is solved by MINRES (Paige &
Saunders, SINUM 12, 1975), preconditioned by the same (S - lap_h)^-1 solve,
for at most ``NEWTON_MAX_ITER`` steps: k steps evaluate R k + 1 times, and
none from a residual at the tolerance.  A local-minimizer check probes
script_E along ``MINIMIZER_PROBES`` random smooth zero-trace directions of H1
size at most ``MINIMIZER_DELTA`` and reports the smallest Rayleigh quotient
of J among them.  The functions read these constants at call time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import edge_seminorm_sq
from .grid import (
    Grid,
    VectorField2D,
    extract_ring,
    ginzburg_landau,
    interior_lap,
    random_sine_series,
    trusted_field,
)
from .dynamics import PhysParams
from .linsolve import EPS, heat_solve_interior

# Corrections with neither a new smallest residual nor a new lowest energy
# after which the relaxation stops (at the rounding floor the iterate only
# jitters).  Far from equilibrium the residual can rise for dozens of
# corrections while the energy falls, so a falling energy is progress too.
STALL_ITERATIONS = 5
# Corrections after which the relaxation gives up, converged or not.
GRADIENT_FLOW_MAX_ITER = 400_000
# Residual below which Newton takes over from the relaxation, and its step cap.
NEWTON_BASIN = 1e-2
NEWTON_MAX_ITER = 25
# Relative preconditioned residual at which MINRES stops (far above its
# rounding floor, about 1e-13), and its iteration cap; the cap is far above
# the counts the preconditioner gives (at most 25 per Newton step on grids
# from 32^2 to 256^2 and eps down to 0.05), so reaching it is stagnation.
MINRES_TOL = 1e-10
MINRES_MAX_ITER = 200
# Random zero-trace directions that the local-minimizer check probes, and the
# largest H1 size of a probe.
MINIMIZER_PROBES = 32
MINIMIZER_DELTA = 0.05


class DegenerateCriticalPointError(RuntimeError):
    """Newton Jacobian is singular: candidate non-isolated equilibrium."""


@dataclass
class Equilibrium:
    """A stationary state psi with its residual and energies.

    ``d_star_E`` is the harmonic extension of psi's trace h_inf, the shift
    of script_E.  The relaxation takes it in, Newton passes it on and the
    local-minimizer check reads it, so a set-up extends h_inf once for its
    start, its energies and every later reader of the reference.
    """

    psi: VectorField2D
    d_star_E: VectorField2D
    residual: float
    energy_E: float
    energy_script: float
    converged: bool
    iterations: int


def _evaluate(grid: Grid, d: np.ndarray, eps: float) -> tuple[float, np.ndarray, float]:
    """int F(d), lap_h d - f(d) at interior nodes and its interior L2 norm:
    the shared ``ginzburg_landau`` on the 5-point Laplacian, normed as the
    energy record norms it."""
    _, potential, defect = ginzburg_landau(grid, d, interior_lap(d, grid.hx, grid.hy), eps)
    return potential, defect, float(np.sqrt(grid.hx * grid.hy * float(np.vdot(defect, defect))))


def energy_script(psi: VectorField2D, d_star_E: VectorField2D, eps: float) -> float:
    potential = _evaluate(psi.grid, psi.data, eps)[0]
    return 0.5 * edge_seminorm_sq(psi.grid, psi.data - d_star_E.data) + potential


def solve_gradient_flow(
    d_star_E: VectorField2D,
    d_init: VectorField2D,
    params: PhysParams,
    tol: float = 1e-8,
) -> Equilibrium:
    """Relax -lap d + f(d) = 0 with frozen trace until the residual meets tol.

    ``d_star_E`` is the harmonic extension of the trace h_inf to hold, which
    ``d_init`` must carry bit for bit: the corrections never write the ring,
    and script_E's shift d - d_star_E vanishes there.  The result keeps
    ``d_star_E``.

    Each correction is one stabilized implicit step of infinite length (module
    docstring).  Every iterate is evaluated once, for its residual and E; the
    iterate with the smallest residual is returned with the residual and
    energies of that evaluation, and the loop stops early once
    ``STALL_ITERATIONS`` corrections in a row bring neither a new smallest
    residual nor a new lowest energy.  ``iterations`` counts the corrections
    made.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = d_init.grid
    if not np.array_equal(extract_ring(d_init.data), extract_ring(d_star_E.data)):
        raise ValueError("d_init trace must equal h_inf")

    stab = 1.0 / params.eps**2
    d = d_init.data.copy()
    best, best_res, best_potential, low_energy = d.copy(), np.inf, np.inf, np.inf
    it = stalled = 0
    while True:
        potential, r, res = _evaluate(g, d, params.eps)
        energy = 0.5 * edge_seminorm_sq(g, d) + potential
        stalled += 1
        if res < best_res:
            best[...] = d
            best_res, best_potential, stalled = res, potential, 0
        if energy < low_energy:
            low_energy, stalled = energy, 0
        if best_res <= tol or it >= GRADIENT_FLOW_MAX_ITER or stalled >= STALL_ITERATIONS:
            break
        d[:, 1:-1, 1:-1] += heat_solve_interior(g, r / stab, 1.0 / stab)
        it += 1
    return Equilibrium(
        psi=VectorField2D(g, best),
        d_star_E=d_star_E,
        residual=best_res,
        energy_E=0.5 * edge_seminorm_sq(g, best) + best_potential,
        energy_script=0.5 * edge_seminorm_sq(g, best - d_star_E.data) + best_potential,
        converged=best_res <= tol,
        iterations=it,
    )


def _linearization(grid: Grid, d: np.ndarray, eps: float):
    """w -> (-lap_h + f'(psi)) w on (2, mx, my) interior arrays with zero trace.

    f'(psi) w = ((|psi|^2 - 1) w + 2 (psi . w) psi) / eps^2, the pointwise 2x2
    block of the penalization; the operator is symmetric.  Each application
    writes w into the interior of one buffer whose zero ring is made once per
    linearization, and the stencil reads it there.
    """
    c = d[:, 1:-1, 1:-1]
    sq = c[0] ** 2 + c[1] ** 2 - 1.0
    ring = np.zeros_like(d)

    def apply(w: np.ndarray) -> np.ndarray:
        ring[:, 1:-1, 1:-1] = w
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
) -> Equilibrium:
    """Newton iteration on -lap psi + f(psi) = 0 with the trace held fixed,
    from a residual below ``NEWTON_BASIN``, for at most ``NEWTON_MAX_ITER``
    steps; each step solves the linearization by preconditioned MINRES, and a
    singular linearization raises ``DegenerateCriticalPointError``.  From a
    residual already at ``tol`` it takes no step, and the result keeps e's
    residual and energies instead of evaluating them again."""
    if e.residual > NEWTON_BASIN:
        raise ValueError(
            f"residual {e.residual:.3g} too large for Newton (limit {NEWTON_BASIN:.3g})"
        )
    g = e.psi.grid
    d = e.psi.data.copy()
    stab = 1.0 / params.eps**2

    def precondition(r: np.ndarray) -> np.ndarray:
        return heat_solve_interior(g, r / stab, 1.0 / stab)

    if e.residual <= tol:  # psi unchanged: e's residual and energies stand
        return replace(e, psi=VectorField2D(g, d), converged=True)
    potential, r, res = _evaluate(g, d, params.eps)
    it = 0
    while res > tol and it < NEWTON_MAX_ITER:
        d[:, 1:-1, 1:-1] += _minres(_linearization(g, d, params.eps), precondition, r)
        potential, r, res = _evaluate(g, d, params.eps)
        it += 1
    return Equilibrium(
        psi=VectorField2D(g, d),
        d_star_E=e.d_star_E,
        residual=res,
        energy_E=0.5 * edge_seminorm_sq(g, d) + potential,
        energy_script=0.5 * edge_seminorm_sq(g, d - e.d_star_E.data) + potential,
        converged=res <= tol,
        iterations=e.iterations + it,
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
    seed: int = 0,
) -> MinimizerVerdict:
    """Probe script_E around psi with ``MINIMIZER_PROBES`` random zero-trace
    perturbations of H1 size at most ``MINIMIZER_DELTA``; saddle is declared
    on any strict energy descent."""
    if not e.converged:
        raise ValueError("equilibrium must be converged before probing")
    g = e.psi.grid
    base = e.energy_script
    rng = np.random.default_rng(seed)
    jac = _linearization(g, e.psi.data, params.eps)
    cell = g.hx * g.hy

    probes = [
        np.stack([random_sine_series(g, rng, 4) for _ in range(2)])
        for _ in range(MINIMIZER_PROBES)
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
        w = w * (MINIMIZER_DELTA * rng.uniform(0.3, 1.0) / h1)
        wint = w[:, 1:-1, 1:-1]
        ray = float(np.vdot(wint, jac(wint)) / np.vdot(wint, wint))
        min_rayleigh = min(min_rayleigh, ray)
        probe = trusted_field(VectorField2D, g, e.psi.data + w)
        gap = energy_script(probe, e.d_star_E, params.eps) - base
        if gap < min_gap:
            min_gap = gap
            witness = VectorField2D(g, w)
    if min_gap < -tol_gap:
        return MinimizerVerdict("saddle-detected", float(min_rayleigh), float(min_gap), witness)
    return MinimizerVerdict("minimizer-consistent", float(min_rayleigh), float(min_gap))
