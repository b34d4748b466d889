"""Flat sectioned config files for the CLI.

Sections and keys (all optional):

    [grid]        nx, ny, lx, ly
    [params]      nu, lambda, eta, eps
    [forcing]     family, gamma, a_h, a_g, kappa, winding, sigma1, sigma2
    [run]         name (run), t_end, dt, sample_every, seed, v0_amplitude,
                  d0_perturbation
    [tolerances]  max_abs_d_slack (presets.MAX_D_SLACK),
                  dedpt_tol (lifting.DEDPT_TOL)
    [majorant]    c_star (1.0), y0 (1.0), dt (1e-3), y_cap (1e6),
                  t_horizon (100.0), r3_const (0.0)

Every [grid], [forcing] and [run] key is the ``Scenario`` field of that name,
and every [params] key the ``PhysParams`` field (``lam`` for lambda).  A
missing key takes that field's default, which is written there alone; the
defaults of the last two sections are in parentheses.  Without [run] dt,
``nematicflow lifting-check`` takes dt = 0.01 (``cli._cmd_lifting_check``).

Unknown sections or keys are errors: configs are contracts, not suggestions.
Every float must be finite, and a refused value is named by its key.  A
negative max_abs_d_slack (a bound below |h| = 1, which the ring meets) and a
dedpt_tol of 0 or less are refused, as no run could pass them, and so are a
negative r3_const (R3 >= 0) and a t_horizon of 0 or less.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from ..dynamics import PhysParams
from .scenarios import Scenario


class ConfigError(ValueError):
    pass


_SCHEMA: dict[str, dict[str, type]] = {
    "grid": {"nx": int, "ny": int, "lx": float, "ly": float},
    "params": {"nu": float, "lambda": float, "eta": float, "eps": float},
    "forcing": {
        "family": str,
        "gamma": float,
        "a_h": float,
        "a_g": float,
        "kappa": float,
        "winding": int,
        "sigma1": float,
        "sigma2": float,
    },
    "run": {
        "name": str,
        "t_end": float,
        "dt": float,
        "sample_every": int,
        "seed": int,
        "v0_amplitude": float,
        "d0_perturbation": float,
    },
    "tolerances": {"max_abs_d_slack": float, "dedpt_tol": float},
    "majorant": {
        "c_star": float,
        "y0": float,
        "dt": float,
        "y_cap": float,
        "t_horizon": float,
        "r3_const": float,
    },
}


@dataclass
class ParsedConfig:
    scenario: Scenario
    tolerances: dict
    majorant: dict


def _typed(section: str, key: str, raw: str, typ: type):
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in section [{section}] is not a valid {typ.__name__}: {raw!r}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"key '{key}' in section [{section}] must be finite, got {raw!r}")
    return value


def parse_config(path: str | Path) -> ParsedConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        read = cp.read(path)  # skips, without a word, a path it cannot open
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file: {path}")

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            values[section][key] = _typed(section, key, raw, _SCHEMA[section][key])

    params = values.get("params", {})
    if "lambda" in params:
        params["lam"] = params.pop("lambda")
    for section, key, bad, need in (
        ("tolerances", "max_abs_d_slack", lambda x: x < 0, "at least 0"),
        ("tolerances", "dedpt_tol", lambda x: x <= 0, "positive"),
        ("majorant", "r3_const", lambda x: x < 0, "at least 0"),
        ("majorant", "t_horizon", lambda x: x <= 0, "positive"),
    ):
        value = values.get(section, {}).get(key)
        if value is not None and bad(value):
            raise ConfigError(f"key '{key}' in section [{section}] must be {need}, got {value:g}")

    fields = {**values.get("grid", {}), **values.get("forcing", {}), **values.get("run", {})}
    try:
        scenario = Scenario(**{"name": "run", **fields}, params=PhysParams(**params))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ParsedConfig(
        scenario=scenario,
        tolerances=values.get("tolerances", {}),
        majorant=values.get("majorant", {}),
    )
