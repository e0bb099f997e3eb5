"""Run-configuration files: a run config is a JSON object, which
:func:`parse_config` reads through the one declaration of each block
(:data:`TOP`, :data:`INITIAL`, :data:`STUDY`, :data:`bdns.viscosity.LAW`,
and the preset builder's signature for ``initial.params``), tabled in
README.md.  A key's default is the field default of the class it feeds,
which checks its value; what either rejects raises :class:`ConfigError`."""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass

import numpy as np

from ._json import (BOOL, INTEGER, INTEGER_OR_INTEGERS, NUMBER, NUMBER_OR_NULL,
                    NUMBER_OR_NUMBERS, NUMBERS, OBJECT, REQUIRED, STRING, SameAs,
                    SchemaError as ConfigError, fed, read_block)
from .diagnostics import MomentParams
from .grid import PeriodicGrid, State, load_checkpoint
from .harness import InitialDataSpec
from .presets import make_initial, preset
from .solver import SolverConfig
from .viscosity import AdmissibilityParams, ViscosityLaw


@dataclass
class RunSetup:
    config: SolverConfig
    initial: State
    study: InitialDataSpec | None = None


_ADMISSIBILITY = fed(AdmissibilityParams, nu=NUMBER, gamma=NUMBER, eps_growth=NUMBER)
_SOLVER = fed(SolverConfig, t_end=NUMBER, cfl=NUMBER, integrator=STRING, limiter=STRING,
              eps_vac=NUMBER_OR_NULL, ledger_stride=INTEGER, allow_non_admissible=BOOL)
_MOMENT = fed(MomentParams, delta=NUMBER, alpha=NUMBER)
TOP = {"law": (OBJECT, REQUIRED), "dim": (INTEGER, REQUIRED), "N": (INTEGER, SameAs("dim")),
       "cells": (INTEGER_OR_INTEGERS, 128), **fed(PeriodicGrid, lengths=NUMBERS),
       **_ADMISSIBILITY, **_SOLVER, **_MOMENT,
       "initial": (OBJECT, REQUIRED), "study": (OBJECT, None)}
# exactly one of preset and checkpoint; absent params read as an empty block
INITIAL = {"preset": (STRING, None), "params": (OBJECT, {}), "checkpoint": (STRING, None)}
STUDY = fed(InitialDataSpec, sigma0=NUMBER, n_max=INTEGER)
# the JSON kind of a preset parameter, by its annotation
_PARAMETER_KINDS = {"float": NUMBER, "float | list[float]": NUMBER_OR_NUMBERS}


def _preset_params(name: str) -> dict:
    """The declaration of ``initial.params``: the preset builder's keywords."""
    parameters = list(inspect.signature(preset(name)).parameters.values())[1:]
    return {p.name: (_PARAMETER_KINDS[p.annotation], p.default) for p in parameters}


def _check_params(params: dict, dim: int):
    """Refuse the ``initial.params`` that a builder would turn into a flat,
    dry or non-finite state: a number that is not finite (JSON's NaN and
    Infinity read as numbers), a width that is not positive, a ``u0`` of
    neither 1 nor ``dim`` components."""
    for key, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ConfigError(f"initial.params: {key!r} must be finite, got {value!r}")
    if not params.get("width", 1.0) > 0.0:
        raise ConfigError(f"initial.params: 'width' must be positive, got {params['width']!r}")
    if len(np.atleast_1d(params.get("u0", 0.0))) not in (1, dim):
        raise ConfigError(f"initial.params: 'u0' must have 1 or dim = {dim} components, "
                          f"got {len(params['u0'])}")


def parse_config(obj: dict) -> RunSetup:
    try:
        top = read_block(obj, TOP)
        init = read_block(top["initial"], INITIAL, "initial", one_of=("preset", "checkpoint"))
        dim, cells = top["dim"], top["cells"]
        if dim not in (1, 2):  # before a size tuple of dim entries is built
            raise ConfigError(f"'dim' must be 1 or 2, got {obj['dim']!r:.60}")
        sizes = cells if isinstance(cells, tuple) else (cells,) * dim
        if len(sizes) != dim:
            raise ConfigError(f"cells {list(sizes)} does not match dim {dim}")
        grid = PeriodicGrid(sizes, top["lengths"])
        config = SolverConfig(
            law=ViscosityLaw.from_json(top["law"]),
            params=AdmissibilityParams(N=top["N"], **{k: top[k] for k in _ADMISSIBILITY}),
            grid=grid,
            moment=MomentParams(**{k: top[k] for k in _MOMENT}),
            **{k: top[k] for k in _SOLVER},
        )

        if init["checkpoint"] is None:
            params = read_block(init["params"], _preset_params(init["preset"]), "initial.params")
            _check_params(params, dim)
            initial = make_initial(init["preset"], grid, params)
        elif "params" in top["initial"] or top["study"] is not None:
            raise ConfigError("'initial.params' and 'study' need a preset, not a checkpoint")
        else:
            initial, ck_grid = load_checkpoint(init["checkpoint"])
            if ck_grid.sizes != grid.sizes or ck_grid.lengths != grid.lengths:
                raise ConfigError(f"checkpoint grid {ck_grid.sizes} does not match config "
                                  f"grid {grid.sizes}: lengths {ck_grid.lengths} against "
                                  f"{grid.lengths}")
        study = None if top["study"] is None else InitialDataSpec(
            init["preset"], params, **read_block(top["study"], STUDY, "study"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunSetup(config=config, initial=initial, study=study)


def load_config(path) -> RunSetup:
    with open(path) as fh:
        return parse_config(json.load(fh))
