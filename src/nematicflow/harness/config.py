"""Flat sectioned config files for the CLI.

Sections and keys (all optional, defaults in parentheses):

    [grid]        nx (64), ny (64), lx (1.0), ly (1.0)
    [params]      nu (1.0), lambda (1.0), eta (1.0), eps (0.25)
    [forcing]     family (autonomous), gamma (2.0), a_h (0.3), a_g (0.1),
                  kappa (0.35), winding (0), sigma1 (0.05), sigma2 (0.05)
    [run]         name (run), t_end (5.0), dt (default rule), sample_every (1),
                  seed (7), v0_amplitude (0.3), d0_perturbation (0.5)
    [tolerances]  max_abs_d_slack (5e-3)
    [majorant]    c_star (1.0), y0 (1.0), dt (1e-3), y_cap (1e6),
                  t_horizon (100.0), r3_const (0.0)

Unknown sections or keys are errors: configs are contracts, not suggestions.
"""

from __future__ import annotations

import configparser
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
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' in section [{section}] is not a valid {typ.__name__}: {raw!r}") from exc


def parse_config(path: str | Path) -> ParsedConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    values: dict[str, dict] = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        values[section] = {}
        for key, raw in cp.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key '{key}' in section [{section}]")
            values[section][key] = _typed(section, key, raw, _SCHEMA[section][key])

    grid = values.get("grid", {})
    par = values.get("params", {})
    forcing = values.get("forcing", {})
    runsec = values.get("run", {})

    try:
        params = PhysParams(
            nu=par.get("nu", 1.0),
            lam=par.get("lambda", 1.0),
            eta=par.get("eta", 1.0),
            eps=par.get("eps", 0.25),
        )
        scenario = Scenario(
            name=runsec.get("name", "run"),
            family=forcing.get("family", "autonomous"),
            nx=grid.get("nx", 64),
            ny=grid.get("ny", 64),
            lx=grid.get("lx", 1.0),
            ly=grid.get("ly", 1.0),
            params=params,
            gamma=forcing.get("gamma", 2.0),
            a_h=forcing.get("a_h", 0.3),
            a_g=forcing.get("a_g", 0.1),
            sigma1=forcing.get("sigma1", 0.05),
            sigma2=forcing.get("sigma2", 0.05),
            kappa=forcing.get("kappa", 0.35),
            winding=forcing.get("winding", 0),
            v0_amplitude=runsec.get("v0_amplitude", 0.3),
            d0_perturbation=runsec.get("d0_perturbation", 0.5),
            t_end=runsec.get("t_end", 5.0),
            dt=runsec.get("dt"),
            sample_every=runsec.get("sample_every", 1),
            seed=runsec.get("seed", 7),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    return ParsedConfig(
        scenario=scenario,
        tolerances=values.get("tolerances", {}),
        majorant=values.get("majorant", {}),
    )
