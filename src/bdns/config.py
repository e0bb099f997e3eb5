"""Run-configuration files.

A run config is a JSON object.  Every key that :func:`parse_config` reads,
with its default (or "required") before the semicolon:

    law                   required; {"terms": [[a, b], ...]} or
                          {"constant": mu}
    nu, gamma             required; admissibility constants, 0 < nu < 1,
                          1 < gamma < inf
    N                     dim; the dimension of the admissibility conditions
    eps_growth            0.1; the growth margin of condition (12)
    dim                   required; 1 or 2
    cells                 128; an int, or a list of ints per axis
    lengths               1.0 per axis
    t_end                 required; finite and positive
    cfl                   0.4
    integrator            "RK2_SSP"; the one time integrator, SSP-RK2
    limiter               "mc"; or "minmod", "van_albada", "none"
    eps_vac               null; for 1e-10 of the initial peak density, or
                          finite and positive
    ledger_stride         10
    delta, alpha          0.05, 0.02; the moment exponents
    allow_non_admissible  false
    initial               required; {"preset": name, "params": {...}} or
                          {"checkpoint": path}
    study                 none; {"sigma0": 0.1, "n_max": 4} by default, for
                          stability studies of a preset

A number must be a JSON number, not a bool or a string, and
``allow_non_admissible`` a JSON bool.  A value of the wrong type, or one
that its class rejects (:class:`~bdns.viscosity.AdmissibilityParams`,
:class:`~bdns.solver.SolverConfig`, :class:`~bdns.harness.InitialDataSpec`,
the grid or the law), raises :class:`ConfigError` with one line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagnostics import MomentParams
from .grid import PeriodicGrid, State, load_checkpoint
from .harness import InitialDataSpec
from .presets import make_initial
from .solver import SolverConfig
from .viscosity import AdmissibilityParams, ViscosityLaw


class ConfigError(ValueError):
    """Malformed run configuration."""


@dataclass
class RunSetup:
    config: SolverConfig
    initial: State
    study: InitialDataSpec | None = None


def _require(obj: dict, key: str):
    if key not in obj:
        raise ConfigError(f"config is missing required key {key!r}")
    return obj[key]


def _require_object(obj: dict, key: str) -> dict:
    value = _require(obj, key)
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _number(value, key: str, *, nullable: bool = False) -> float | None:
    """A JSON number as a float, and null as None where ``nullable``: a bool
    or a string is no number."""
    if value is None and nullable:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        kind = "a number or null" if nullable else "a number"
        raise ConfigError(f"{key!r} must be {kind}, got {value!r}")
    return float(value)


def _integer(value, key: str) -> int:
    """An integral number as an int: 64 or 64.0, never 64.5, true or "64"."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def parse_config(obj: dict) -> RunSetup:
    try:
        law = ViscosityLaw.from_json(_require(obj, "law"))
        dim = _integer(_require(obj, "dim"), "dim")
        cells = obj.get("cells", 128)
        if not isinstance(cells, (list, tuple)):
            cells = [cells] * dim
        sizes = tuple(_integer(n, "cells") for n in cells)
        if len(sizes) != dim:
            raise ConfigError(f"cells {cells} does not match dim {dim}")
        lengths = tuple(_number(x, "lengths") for x in obj.get("lengths", [1.0] * dim))
        grid = PeriodicGrid(sizes, lengths)
        params = AdmissibilityParams(
            nu=_number(_require(obj, "nu"), "nu"),
            gamma=_number(_require(obj, "gamma"), "gamma"),
            N=_integer(obj.get("N", dim), "N"),
            eps_growth=_number(obj.get("eps_growth", 0.1), "eps_growth"),
        )
        moment = MomentParams(delta=_number(obj.get("delta", 0.05), "delta"),
                              alpha=_number(obj.get("alpha", 0.02), "alpha"))
        allow = obj.get("allow_non_admissible", False)
        if not isinstance(allow, bool):
            raise ConfigError(f"'allow_non_admissible' must be true or false, got {allow!r}")
        config = SolverConfig(
            law=law,
            params=params,
            grid=grid,
            t_end=_number(_require(obj, "t_end"), "t_end"),
            cfl=_number(obj.get("cfl", 0.4), "cfl"),
            integrator=obj.get("integrator", "RK2_SSP"),
            eps_vac=_number(obj.get("eps_vac"), "eps_vac", nullable=True),
            ledger_stride=_integer(obj.get("ledger_stride", 10), "ledger_stride"),
            moment=moment,
            limiter=obj.get("limiter", "mc"),
            allow_non_admissible=allow,
        )

        init_spec = _require_object(obj, "initial")
        if "checkpoint" in init_spec:
            initial, ck_grid = load_checkpoint(init_spec["checkpoint"])
            if ck_grid.sizes != grid.sizes or ck_grid.lengths != grid.lengths:
                raise ConfigError(
                    f"checkpoint grid {ck_grid.sizes} does not match config grid {grid.sizes}"
                )
        elif "preset" in init_spec:
            initial = make_initial(init_spec["preset"], grid, init_spec.get("params"))
        else:
            raise ConfigError("initial needs either 'preset' or 'checkpoint'")

        study = None
        if "study" in obj:
            s = _require_object(obj, "study")
            if "preset" not in init_spec:
                raise ConfigError("stability studies need a preset initial profile")
            study = InitialDataSpec(
                base_preset=init_spec["preset"],
                base_params=init_spec.get("params", {}),
                sigma0=_number(s.get("sigma0", 0.1), "sigma0"),
                n_max=_integer(s.get("n_max", 4), "n_max"),
            )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunSetup(config=config, initial=initial, study=study)


def load_config(path) -> RunSetup:
    with open(path) as fh:
        return parse_config(json.load(fh))
