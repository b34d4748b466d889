"""Riccati-type majorant ODE gating higher-order regularity.

The comparison problem is

    Y' = C* (Y^3 + Y) + C* R3(t),    Y(0) = Y0 >= 0,

whose solution dominates the higher-order quantity A_P(t) of any trajectory
satisfying the differential inequality dA_P/dt <= C*(A_P^3 + A_P + R3).  A
finite blow-up horizon T_max of Y is the operational gate: the trajectory is
controlled at least up to T_max.

``solve_majorant`` integrates with adaptive RK4 (relative-increment step
halving near steep growth) and estimates T_max by Richardson extrapolation of
the cap-crossing times at two caps, using the pure-cubic tail law
T_max - t(Y) ~ 1/(2 C* Y^2).

``comparison_check`` validates the comparison principle on sampled data: it
fits the smallest C* that makes the forward-difference inequality hold, then
advances the matching explicit-Euler majorant and verifies domination sample
by sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

COMPARISON_SLACK = 1e-9  # relative excess of A_P over Y that ``comparison_check`` forgives


@dataclass
class MajorantProblem:
    c_star: float
    y0: float
    r3: Callable[[float], float] | None = None  # None means R3 == 0

    def __post_init__(self) -> None:
        if self.c_star <= 0:
            raise ValueError("c_star must be positive")
        if self.y0 < 0:
            raise ValueError("y0 must be nonnegative")

    def source(self, t: float) -> float:
        if self.r3 is None:
            return 0.0
        val = float(self.r3(t))
        if val < 0:
            raise ValueError(f"R3 must be nonnegative, got {val} at t={t}")
        return val


@dataclass
class MajorantSolution:
    t: np.ndarray
    y: np.ndarray
    blew_up: bool
    t_max: float | None          # Richardson-extrapolated blow-up estimate
    cap_crossings: tuple[tuple[float, float], ...]  # (cap, crossing time)


def _rk4(f, t, y, dt):
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def solve_majorant(
    p: MajorantProblem,
    dt: float = 1e-3,
    y_cap: float = 1e6,
    t_horizon: float = 100.0,
) -> MajorantSolution:
    """Integrate until the horizon or until Y crosses y_cap; a step whose
    increment exceeds 2% of max(|Y|, 1) is halved.

    Cap crossing is a result, not an error.  T_max is extrapolated from the
    crossings at y_cap/4 and y_cap via the inverse-square tail law, which
    removes the leading finite-cap bias.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if y_cap < 10.0 * max(1.0, p.y0):
        raise ValueError("y_cap must be at least 10 * max(1, y0)")

    def f(t, y):
        return p.c_star * (y**3 + y) + p.c_star * p.source(t)

    caps = (y_cap / 4.0, y_cap)
    crossings: list[tuple[float, float]] = []
    t, y = 0.0, p.y0
    ts, ys = [t], [y]
    step = dt
    min_step = dt * 1e-12
    while t < t_horizon and y < y_cap:
        step = min(step, t_horizon - t)
        y_new = _rk4(f, t, y, step)
        if abs(y_new - y) > 0.02 * max(abs(y), 1.0) and step > min_step:
            step *= 0.5
            continue
        t_new = t + step
        for cap in caps[len(crossings):]:
            if y < cap <= y_new:
                # interpolate in 1/Y^2, the near-blow-up linear variable
                w0, w1, wc = 1.0 / y**2, 1.0 / y_new**2, 1.0 / cap**2
                frac = (w0 - wc) / (w0 - w1)
                crossings.append((cap, t + frac * step))
        t, y = t_new, y_new
        ts.append(t)
        ys.append(y)
        step = min(dt, step * 2.0)

    blew_up = len(crossings) == len(caps)
    t_max = None
    if blew_up:
        (c1, t1), (c2, t2) = crossings
        a1 = 1.0 / (2.0 * p.c_star * c1**2)
        a2 = 1.0 / (2.0 * p.c_star * c2**2)
        t_max = float((t1 * a2 - t2 * a1) / (a2 - a1))
    return MajorantSolution(np.array(ts), np.array(ys), blew_up, t_max, tuple(crossings))


@dataclass
class ComparisonVerdict:
    passed: bool
    fitted_c_star: float
    witness_t: float | None
    margin: float  # min over samples of (Y - A_P)


def fit_c_star(t: np.ndarray, a: np.ndarray, r3: np.ndarray) -> float:
    """Smallest constant making the forward-difference inequality
    (a_{k+1}-a_k)/dt <= C*(a_k^3 + a_k + r3_k) hold on the data."""
    t = np.asarray(t, float)
    a = np.asarray(a, float)
    r3 = np.asarray(r3, float)
    dt = np.diff(t)
    rate = np.diff(a) / dt
    denom = a[:-1] ** 3 + a[:-1] + r3[:-1]
    denom = np.maximum(denom, 1e-30)
    return float(max(np.max(rate / denom), 0.0))


def comparison_check(
    t: Sequence[float],
    a_p: Sequence[float],
    r3: Sequence[float],
    c_star: float | None = None,
    y0: float | None = None,
) -> ComparisonVerdict:
    """Verify 0 <= A_P(t) <= Y(t) on a shared time axis.

    The majorant is advanced by explicit Euler with the same right-hand side
    used to fit C*, so domination is exact by monotone induction whenever the
    fitted inequality holds; ``COMPARISON_SLACK`` only absorbs rounding.
    """
    t = np.asarray(t, float)
    a = np.asarray(a_p, float)
    r = np.asarray(r3, float)
    if t.shape != a.shape or t.shape != r.shape:
        raise ValueError("time axis mismatch between A_P and R3 samples")
    if t.size < 2:
        raise ValueError("need at least two samples")
    c = fit_c_star(t, a, r) if c_star is None else c_star
    y = max(a[0], a[0] if y0 is None else y0)
    margin = np.inf
    witness = None
    for k in range(t.size):
        if k:  # advance Y from the last sample to this one
            with np.errstate(over="ignore"):
                y = y + (t[k] - t[k - 1]) * c * (y**3 + y + r[k - 1])
            if not np.isfinite(y):
                y = np.inf
        margin = min(margin, y - a[k])
        if a[k] > y * (1.0 + COMPARISON_SLACK) + 1e-300:
            witness = float(t[k])
            break
    return ComparisonVerdict(witness is None, c, witness, float(margin))

