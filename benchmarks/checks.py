"""Properties the method must have, checked on computed trajectories.

Every check returns a ``Check`` with the measured value, the bound it is held
to and whether it passed.  None compares against a stored copy of earlier
output: each bound comes from the scheme (the discrete energy law, the
maximum principle, exactness of the projection and of the lifting identity up
to rounding) and is scaled by the operator norm and the data where rounding
enters.  ``selftest.py`` feeds each check deliberately broken data to show
that it can fail.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from nematicflow.diagnostics import energy_inequality_residual
from nematicflow.grid import _lap_interior, extract_ring
from nematicflow.harness.presets import MAX_D_SLACK

EPS = float(np.finfo(float).eps)
# Multiples of eps * (operator norm) * (data) allowed for a direct solve's
# rounding.  The worst ratios measured on the 64^2 workloads are 0.3
# (projection) and 6.8 (lifting identity); the broken data in selftest.py
# gives 5e6 and 3e9.
PROJECTION_ROUNDING = 64.0
LIFTING_ROUNDING = 64.0


@dataclass
class Check:
    name: str
    value: float
    bound: float
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.value:.6g} (bound {self.bound:.6g})"


def _le(name: str, value: float, bound: float) -> Check:
    return Check(name, float(value), float(bound), bool(value <= bound))


def energy_inequality(records, dt: float) -> Check:
    """Per-step discrete energy inequality, residual <= 1e-8 (1 + E_hat(0))."""
    worst = max(
        energy_inequality_residual(records[k], records[k + 1], dt)
        for k in range(len(records) - 1)
    )
    return _le("energy-inequality residual", worst, 1e-8 * (1.0 + records[0].E_hat))


def energy_monotone(records) -> Check:
    """Lifted energy non-increasing up to 1e-13 (1 + E_hat(0))."""
    worst = max(records[k + 1].E_hat - records[k].E_hat for k in range(len(records) - 1))
    return _le("lifted energy increment", worst, 1e-13 * (1.0 + records[0].E_hat))


def max_principle(records) -> Check:
    return _le("max|d|", max(r.max_abs_d for r in records), 1.0 + MAX_D_SLACK)


def h1_distance_shrinks(records) -> Check:
    """Final over initial H1 distance to the reference equilibrium; must be < 1."""
    ratio = records[-1].dist_d_H1 / records[0].dist_d_H1
    return Check("H1 distance final/initial", ratio, 1.0, bool(ratio < 1.0))


def hypotheses(results) -> Check:
    """``check_hypotheses`` output: count of decay hypotheses that fail."""
    failed = sum(not h.passed for h in results)
    return Check(f"decay hypotheses failed (of {len(results)})", failed, 0, failed == 0 and bool(results))


def divergence_ratio(state) -> float:
    """|div_h v| / (eps (|D D^T| |lambda| + |D| |v|)) for a projected state.

    The projection solves (D D^T) lambda = D u and sets v = u - D^T lambda,
    so div_h v is the residual of that solve plus the rounding of evaluating
    D v; a backward-stable direct solve keeps both near the scale above.
    lambda is read back from the pressure: pi = -lambda - c with lambda = 0
    on the ring.
    """
    g = state.v.grid
    v = state.v.data
    div = (v[0, 2:, 1:-1] - v[0, :-2, 1:-1]) / (2.0 * g.hx) + (
        v[1, 1:-1, 2:] - v[1, 1:-1, :-2]
    ) / (2.0 * g.hy)
    lam = state.pi.data[0, 0] - state.pi.data[1:-1, 1:-1]
    d_norm_sq = 1.0 / g.hx**2 + 1.0 / g.hy**2
    scale = EPS * (d_norm_sq * float(np.linalg.norm(lam))
                   + np.sqrt(d_norm_sq) * float(np.linalg.norm(v[:, 1:-1, 1:-1])))
    nd = float(np.linalg.norm(div))
    if nd == 0.0:
        return 0.0
    return nd / scale if scale > 0.0 else float("inf")


def divergence(states) -> Check:
    worst = max(divergence_ratio(s) for s in states)
    return _le("divergence after projection / rounding scale", worst, PROJECTION_ROUNDING)


def ring_velocity_zero(states) -> Check:
    """Count of ring velocity values that are not exactly zero."""
    bad = sum(int(np.count_nonzero(extract_ring(s.v.data[k]))) for s in states for k in range(2))
    return _le("nonzero ring velocity values", bad, 0)


def ring_director_trace(states) -> Check:
    """Count of ring director values that differ from h(t) in any bit."""
    bad = 0
    for s in states:
        h = s.forcing.boundary(s.t)
        for k in range(2):
            bad += int(np.count_nonzero(extract_ring(s.d.data[k]).view(np.int64) != h[:, k].view(np.int64)))
    return _le("ring director values != h(t) bitwise", bad, 0)


def lifting_ratio(state) -> float:
    """max |lap_h(d_P - d_E) - dt d_P| at interior nodes over its rounding scale
    eps (1/dt + |lap_h|_inf) max|d_P|.

    Backward Euler makes lap_h d_P = dt d_P exactly and the harmonic extension
    makes lap_h d_E = 0, so only the two solves' rounding remains.
    """
    g = state.v.grid
    lift = state.lifting
    diff = lift.dP.data - lift.dE.data
    err = 0.0
    for k in range(2):
        lap = _lap_interior(diff[k], g.hx, g.hy)[1:-1, 1:-1]
        err = max(err, float(np.max(np.abs(lap - lift.dt_dP.data[k, 1:-1, 1:-1]))))
    lap_norm = 4.0 / g.hx**2 + 4.0 / g.hy**2
    scale = EPS * (1.0 / state.dt + lap_norm) * float(np.max(np.abs(lift.dP.data)))
    return err / scale


def lifting_identity(states) -> Check:
    worst = max(lifting_ratio(s) for s in states)
    return _le("lifting identity error / rounding scale", worst, LIFTING_ROUNDING)
