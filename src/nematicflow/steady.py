"""Stationary director states: -lap psi + f(psi) = 0 with psi = h_inf on the ring.

Solutions are critical points of the elastic energy

    E(d)   = 1/2 |grad d|^2 + int F(d),

and the flow dynamics selects among them.  For stability questions the
shifted functional

    script_E(d) = 1/2 |grad(d - d*_E)|^2 + int F(d),

with d*_E the harmonic extension of h_inf, is the natural Lyapunov candidate;
E and script_E differ by a quantity that depends only on the trace, so they
rank equilibria identically.  Both are reported.

The solver chain is a stabilized linearly implicit relaxation followed by
Newton refinement.  The relaxation is the scheme of Shen & Yang, "Numerical
approximations of Allen-Cahn and Cahn-Hilliard equations", DCDS-A 28 (2010),
taken with an infinite time step and written as a defect correction:

    R(d) = -lap_h d + f(d)   at interior nodes,
    d   <- d - (S - lap_h)^-1 R(d),     S = 1/eps^2.

The stabilization S = L/2, with L = max|f'| = 2/eps^2 on |d| <= 1, keeps E
decreasing, and each correction contracts every mode by at most
|S - f'|/(S + mu_1), so the iteration count does not grow with the grid.
The solve is the cached sine-basis heat kernel; the correction has zero
trace, so no ring term enters.  Newton (quadratic near a nondegenerate root)
finishes whatever the relaxation leaves.  An empirical local-minimizer check
probes script_E along random smooth zero-trace directions and reports the
smallest Rayleigh quotient of the linearized operator -lap + f'(psi) over the
probe set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .diagnostics import edge_seminorm_sq
from .grid import (
    BoundaryTrace,
    Grid,
    VectorField2D,
    bulk_potential_F,
    extract_ring,
    integrate,
    interior_lap,
)
from .dynamics import PhysParams
from .lifting import elliptic_lift
from .linsolve import _lap_matrix, heat_solve_interior

# Corrections with neither a new smallest residual nor a new lowest energy
# after which the relaxation stops (at the rounding floor the iterate only
# jitters).  Far from equilibrium the residual can rise for dozens of
# corrections while the energy falls, so a falling energy is progress too.
STALL_ITERATIONS = 5


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
    d_star = elliptic_lift(h_inf)
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
    ring = np.stack([extract_ring(d_init.data[k]) for k in range(2)], axis=1)
    if np.max(np.abs(ring - h_inf.values)) > 1e-10:
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


def _jacobian(grid: Grid, d: np.ndarray, eps: float) -> sp.csc_matrix:
    """-lap + f'(psi) on interior nodes, component-major ordering."""
    L = _lap_matrix(grid)
    d1 = d[0, 1:-1, 1:-1].ravel()
    d2 = d[1, 1:-1, 1:-1].ravel()
    sq = d1**2 + d2**2 - 1.0
    a11 = (sq + 2.0 * d1 * d1) / eps**2
    a12 = (2.0 * d1 * d2) / eps**2
    a22 = (sq + 2.0 * d2 * d2) / eps**2
    return sp.bmat(
        [
            [-L + sp.diags(a11), sp.diags(a12)],
            [sp.diags(a12), -L + sp.diags(a22)],
        ],
        format="csc",
    )


def newton_refine(
    e: Equilibrium,
    params: PhysParams,
    tol: float = 1e-12,
    max_iter: int = 25,
    basin_radius: float = 1e-2,
) -> Equilibrium:
    """Newton iteration on -lap psi + f(psi) = 0 with the trace held fixed."""
    if e.residual > basin_radius:
        raise ValueError(
            f"residual {e.residual:.3g} too large for Newton (limit {basin_radius:.3g})"
        )
    g = e.psi.grid
    d = e.psi.data.copy()
    h_inf = BoundaryTrace(
        g, np.stack([extract_ring(d[0]), extract_ring(d[1])], axis=1)
    )
    res = e.residual
    it = 0
    while res > tol and it < max_iter:
        J = _jacobian(g, d, params.eps)
        try:
            delta = spla.splu(J).solve(-_stationary_defect(g, d, params.eps).ravel())
        except RuntimeError as exc:
            raise DegenerateCriticalPointError(
                f"singular linearization at residual {res:.3g}"
            ) from exc
        d[:, 1:-1, 1:-1] += delta.reshape(2, g.nx - 2, g.ny - 2)
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


def _smooth_probe(grid: Grid, rng: np.random.Generator, modes: int = 4) -> np.ndarray:
    X, Y = grid.mesh()
    xn, yn = X / grid.lx, Y / grid.ly
    w = np.zeros((2, *grid.shape))
    for comp in range(2):
        for kx in range(1, modes + 1):
            for ky in range(1, modes + 1):
                c = rng.standard_normal() / (kx**2 + ky**2)
                w[comp] += c * np.sin(np.pi * kx * xn) * np.sin(np.pi * ky * yn)
    return w


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
    h_inf = BoundaryTrace(
        g, np.stack([extract_ring(e.psi.data[k]) for k in range(2)], axis=1)
    )
    d_star = elliptic_lift(h_inf)
    base = energy_script(e.psi, d_star, params.eps)
    if delta == 0.0 or n_probe == 0:
        return MinimizerVerdict("minimizer-consistent", float("nan"), 0.0)

    rng = np.random.default_rng(seed)
    J = _jacobian(g, e.psi.data, params.eps)
    cell = g.hx * g.hy

    probes = [_smooth_probe(g, rng) for _ in range(n_probe)]

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
        wint = np.concatenate([w[0, 1:-1, 1:-1].ravel(), w[1, 1:-1, 1:-1].ravel()])
        ray = float(wint @ (J @ wint) / (wint @ wint))
        min_rayleigh = min(min_rayleigh, ray)
        gap = energy_script(VectorField2D(g, e.psi.data + w), d_star, params.eps) - base
        if gap < min_gap:
            min_gap = gap
            witness = VectorField2D(g, w)
    if min_gap < -tol_gap:
        return MinimizerVerdict("saddle-detected", float(min_rayleigh), float(min_gap), witness)
    return MinimizerVerdict("minimizer-consistent", float(min_rayleigh), float(min_gap))
