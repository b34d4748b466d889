"""Stationary director states: -lap psi + f(psi) = 0 with psi = h_inf on the ring.

Solutions are critical points of the elastic energy

    E(d)   = 1/2 |grad d|^2 + int F(d),

and the flow dynamics selects among them.  For stability questions the
shifted functional

    script_E(d) = 1/2 |grad(d - d*_E)|^2 + int F(d),

with d*_E the harmonic extension of h_inf, is the natural Lyapunov candidate;
E and script_E differ by a quantity that depends only on the trace, so they
rank equilibria identically.  Both are reported.

The solver chain is a damped explicit gradient flow (robust, monotone in E)
followed by Newton refinement (quadratic near a nondegenerate root).  An
empirical local-minimizer check probes script_E along random smooth
zero-trace directions and reports the smallest Rayleigh quotient of the
linearized operator -lap + f'(psi) over the probe set; an optional Lanczos
eigensolve sharpens that into a true smallest-eigenvalue estimate.
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
    _lap_interior,
    bulk_potential_F,
    extract_ring,
    ginzburg_landau_f,
    integrate,
)
from .dynamics import PhysParams
from .lifting import elliptic_lift
from .linsolve import _lap_matrix


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


def stationary_residual(psi: VectorField2D, eps: float) -> float:
    """Interior L2 norm of -lap psi + f(psi)."""
    g = psi.grid
    f = ginzburg_landau_f(psi, eps).data
    cell = g.hx * g.hy
    total = 0.0
    for k in range(2):
        r = -_lap_interior(psi.data[k], g.hx, g.hy) + f[k]
        total += np.sum(r[1:-1, 1:-1] ** 2)
    return float(np.sqrt(cell * total))


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
    """Relax d_tau = lap d - f(d) with frozen trace until the residual meets tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    g = d_init.grid
    ring = np.stack([extract_ring(d_init.data[k]) for k in range(2)], axis=1)
    if np.max(np.abs(ring - h_inf.values)) > 1e-10:
        raise ValueError("d_init trace must equal h_inf")

    # explicit stability: tau * mu_max <= 1.8, mu_max = 4/hx^2 + 4/hy^2
    tau = 0.45 / (1.0 / g.hx**2 + 1.0 / g.hy**2)
    d = d_init.data.copy()
    check_every = 64
    converged = False
    it = 0
    while it < max_iter:
        f = ginzburg_landau_f(VectorField2D(g, d), params.eps).data
        for k in range(2):
            lap = _lap_interior(d[k], g.hx, g.hy)
            d[k, 1:-1, 1:-1] += tau * (lap[1:-1, 1:-1] - f[k, 1:-1, 1:-1])
        it += 1
        if it % check_every == 0 or it == max_iter:
            psi = VectorField2D(g, d)
            res = stationary_residual(psi, params.eps)
            if energy_history is not None:
                energy_history.append(energy_E(psi, params.eps))
            if res <= tol:
                converged = True
                break
    return _make_equilibrium(VectorField2D(g, d), params, converged, it, h_inf)


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
    mx, my = g.nx - 2, g.ny - 2
    n_int = mx * my
    res = e.residual
    it = 0
    while res > tol and it < max_iter:
        f = ginzburg_landau_f(VectorField2D(g, d), params.eps).data
        r = np.empty(2 * n_int)
        for k in range(2):
            lap = _lap_interior(d[k], g.hx, g.hy)
            r[k * n_int : (k + 1) * n_int] = (
                lap[1:-1, 1:-1] - f[k, 1:-1, 1:-1]
            ).ravel()
        J = _jacobian(g, d, params.eps)
        try:
            delta = spla.splu(J).solve(r)
        except RuntimeError as exc:
            raise DegenerateCriticalPointError(
                f"singular linearization at residual {res:.3g}"
            ) from exc
        d[0, 1:-1, 1:-1] += delta[:n_int].reshape(mx, my)
        d[1, 1:-1, 1:-1] += delta[n_int:].reshape(mx, my)
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
    use_eigensolver: bool = False,
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
    if use_eigensolver:
        try:
            _, vecs = spla.eigsh(J, k=1, which="SA", tol=1e-8, maxiter=5000)
            mx, my = g.nx - 2, g.ny - 2
            w = np.zeros((2, *g.shape))
            w[0, 1:-1, 1:-1] = vecs[: mx * my, 0].reshape(mx, my)
            w[1, 1:-1, 1:-1] = vecs[mx * my :, 0].reshape(mx, my)
            probes.append(w)
        except spla.ArpackNoConvergence:
            pass

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
