"""Counting pass: the calls one 1D solver step makes.

    PYTHONPATH=src python tools/count_step_calls.py

Takes the seed-0 256-cell ``vacuum_bump`` state of the ``vacuum1d_256``
benchmark workload, runs 3 warm-up steps, then counts one ``stable_dt`` +
``step`` + the new state's energy, as the run loop makes them, and then one
ledger instant (the columns of that state's ledger row).  It reports:

* ufunc calls: every ufunc in the ``np`` namespace is wrapped, so a call of
  it or of one of its methods (``np.add.reduce``) counts; ndarray methods
  (``a.max()``) and operators (``a < b``) reach their ufuncs without the
  namespace and are not counted;
* Python-level calls, counted with ``sys.setprofile``, the wrappers left out;
* ``_Fields`` constructions per step and per ledger instant.

The counts are deterministic.  The script is never part of a timed job:
the wrappers and the profiler slow every call.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import numpy as np

from bdns import config, diagnostics, solver

VACUUM_256 = {
    "law": {"terms": [[1.0, 1.0]]}, "nu": 0.9, "gamma": 2.0, "dim": 1, "cells": 256,
    "t_end": 0.008, "cfl": 0.4, "ledger_stride": 20,
    "initial": {"preset": "vacuum_bump", "params": {"amp": 1.0, "width": 0.25, "u_amp": 0.05}},
}
WARM_UP_STEPS = 3
REDUCTIONS = ("reduce", "accumulate", "reduceat", "outer", "at")


def _counting(fn, counts: dict):
    """``fn``, counting its calls in ``counts["ufunc"]``."""
    def counted(*args, **kwargs):
        counts["ufunc"] += 1
        return fn(*args, **kwargs)

    return counted


class _Counted:
    """A ufunc that counts its calls and the calls of its methods."""

    def __init__(self, ufunc, counts: dict):
        self._ufunc, self._counts = ufunc, counts

    def __call__(self, *args, **kwargs):
        self._counts["ufunc"] += 1
        return self._ufunc(*args, **kwargs)

    def __getattr__(self, name):
        attr = getattr(self._ufunc, name)
        return _counting(attr, self._counts) if name in REDUCTIONS else attr


def main() -> dict:
    setup = config.parse_config(VACUUM_256)
    cfg = replace(setup.config, eps_vac=solver._resolve_eps_vac(setup.config, setup.initial))
    state, _ = solver._as_batch(setup.initial)
    work = solver._Workspace(cfg, state.rho.shape)

    def one_step(state):
        dt = solver.stable_dt(state, cfg, _work=work)
        new, _, _ = solver.step(state, cfg, np.minimum(dt, cfg.t_end - state.t), _work=work)
        solver._bundle(new, cfg, work).energy()
        return new

    for _ in range(WARM_UP_STEPS):
        state = one_step(state)

    counts = {"ufunc": 0, "python": 0, "fields": 0}
    ufuncs = {name: obj for name, obj in vars(np).items() if isinstance(obj, np.ufunc)}
    real_init = diagnostics._Fields.__init__

    def counting_init(self, *args, **kwargs):
        counts["fields"] += 1
        real_init(self, *args, **kwargs)

    skipped = {_Counted.__call__.__code__, _Counted.__getattr__.__code__, _counting.__code__,
               _counting(None, counts).__code__, counting_init.__code__}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code not in skipped:
            counts["python"] += 1

    result = {}
    for name, ufunc in ufuncs.items():
        setattr(np, name, _Counted(ufunc, counts))
    diagnostics._Fields.__init__ = counting_init
    try:
        sys.setprofile(profile)
        state = one_step(state)
        sys.setprofile(None)
        result["step"] = dict(counts)
        counts.update(ufunc=0, python=0, fields=0)
        solver._bundle(state, cfg, work).ledger_columns(cfg.moment)
        result["ledger_instant_fields"] = counts["fields"]
    finally:
        sys.setprofile(None)
        for name, ufunc in ufuncs.items():
            setattr(np, name, ufunc)
        diagnostics._Fields.__init__ = real_init
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
