"""Counting pass: the calls one solver step makes, phase by phase.

    PYTHONPATH=src python tools/count_step_calls.py

Runs two benchmark states through ``solver.run``, the solver's own run
loop, and counts the calls of one step after ``WARM_UP_STEPS`` steps: from
its ``stable_dt`` through the ``step`` to the run loop's bookkeeping of the
new state (its per-step energy; the counted step takes no ledger row).  The
states are those of the ``vacuum1d_256`` workload (seed 0, 256 cells,
``vacuum_bump``) and of ``sv2d_128`` (seed 0, 128 x 128,
``saint_venant_demo``).  Per step it reports:

* ``python``: Python-level calls, counted with ``sys.setprofile``, this
  script's wrappers left out; numpy's Python-level dispatchers (the frames
  that ``np.copyto`` or ``np.concatenate`` run before their C code) among
  them, also counted apart as ``dispatchers``, by name;
* ``ufunc``: calls of every ufunc in the ``np`` namespace and of its methods
  (``np.add.reduce``), each wrapped for the pass;
* ``operators``: ufunc calls that reach the workspace's arrays without the
  namespace: ndarray operators (``a < b``, ``a & b``, ``2.0 * a``) and
  methods (``a.max()``).  The workspace is built with its buffers viewed as
  an ndarray subclass whose ``__array_ufunc__`` sees every such call; an
  operator on arrays that the workspace does not hold goes unseen;
* ``strided``: those ufunc calls, through the namespace or as operators,
  with an array operand that is not C-contiguous, ``out=`` and ``where=``
  operands included: the calls that numpy cannot run as one loop over
  whole arrays;
* ``masked``: those ufunc calls, through the namespace or as operators,
  given an array ``where=``: a masked loop, several times slower than the
  plain one (``np.copyto(..., where=)`` is no ufunc call and is not
  counted);
* ``allocations``: arrays of at least one field's cells (a member's grid)
  made in the step, by a numpy constructor (``np.zeros``, ``np.empty``,
  ``np.concatenate`` without ``out=`` and the like) or by a ufunc call or
  operator without ``out=``;
* ``fields``: ``_Fields`` constructions, the per-state bundles;
* ``phases``: the same counts split by the phase that makes them:
  ``stable_dt``, each ``rhs`` of the step in turn, ``bundle`` (making a
  state's bundle), ``floors``, ``energy``, ``step`` (the rest of the step:
  the RK combinations and the finiteness tests) and ``bookkeeping`` (the
  rest of the run loop).

It also counts the ``_Fields`` constructions and the ``grid.integrate``
calls of one ledger instant (the columns of a ledger row of the step's new
state, whose energy the step has integrated: one reduction of the block of
every other integral).  The counts are deterministic.  The script is never
part of a timed job: the wrappers, the subclass and the profiler slow every
call.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from bdns import config, diagnostics, grid, solver

VACUUM1D_256 = {
    "law": {"terms": [[1.0, 1.0]]}, "nu": 0.9, "gamma": 2.0, "dim": 1, "cells": 256,
    "t_end": 0.008, "cfl": 0.4, "ledger_stride": 20,
    "initial": {"preset": "vacuum_bump", "params": {"amp": 1.0, "width": 0.25, "u_amp": 0.05}},
}
SV2D_128 = {
    "law": {"terms": [[1.0, 1.0]]}, "nu": 0.9, "gamma": 2.0, "dim": 2, "cells": 128,
    "t_end": 0.001, "cfl": 0.4, "ledger_stride": 8, "eps_vac": 1e-10,
    "initial": {"preset": "saint_venant_demo", "params": {"amp": 0.2, "u_amp": 0.08}},
}
WARM_UP_STEPS = 3
REDUCTIONS = ("reduce", "accumulate", "reduceat", "outer", "at")
KINDS = ("python", "dispatchers", "ufunc", "operators", "strided", "masked", "allocations",
         "fields")
# the numpy constructors whose results count as allocations
CONSTRUCTORS = ("empty", "zeros", "ones", "full", "empty_like", "zeros_like", "ones_like",
                "full_like", "array", "copy", "concatenate", "stack")


class _Tally:
    """Counts by phase; ``phase`` is the phase whose code runs now."""

    def __init__(self):
        self.on = False
        self.phase = "bookkeeping"
        self.by_phase: dict[str, dict[str, int]] = {}
        self.dispatchers: dict[str, int] = {}
        self.in_namespace = 0  # depth of namespace ufunc calls under way
        self.building = False  # whether a workspace is being built
        self.field = 0  # the cells of one field: an allocation has at least as many

    def add(self, kind: str):
        # plain dicts: a Counter would make Python-level calls of its own
        if self.on:
            counts = self.by_phase.get(self.phase)
            if counts is None:
                counts = self.by_phase[self.phase] = dict.fromkeys(KINDS, 0)
            counts[kind] += 1


TALLY = _Tally()


class _Stop(Exception):
    """Ends the run once the counted step is done."""


class _Counted:
    """A ufunc that counts its calls and the calls of its methods."""

    def __init__(self, ufunc):
        self._ufunc = ufunc

    def __call__(self, *args, **kwargs):
        return _namespace_call(self._ufunc, args, kwargs)

    def __getattr__(self, name):
        attr = getattr(self._ufunc, name)
        if name not in REDUCTIONS:
            return attr

        def method(*args, **kwargs):
            return _namespace_call(attr, args, kwargs)

        return method


def _namespace_call(fn, args, kwargs):
    TALLY.add("ufunc")
    _operands(args, kwargs.get("out"), kwargs.get("where"))
    TALLY.in_namespace += 1
    try:
        result = fn(*args, **kwargs)
    finally:
        TALLY.in_namespace -= 1
    if kwargs.get("out") is None:
        _made(result)
    return result


def _operands(inputs, out, where):
    """Count a ufunc call as strided if an array operand is not C-contiguous,
    and as masked if it is given an array ``where=``."""
    outs = out if isinstance(out, tuple) else (out,)
    if any(isinstance(x, np.ndarray) and not x.flags.c_contiguous
           for x in (*inputs, *outs, where)):
        TALLY.add("strided")
    if isinstance(where, np.ndarray):
        TALLY.add("masked")


def _made(result):
    """Count an array made in the step, of at least one field's cells."""
    if isinstance(result, np.ndarray) and result.size >= TALLY.field:
        TALLY.add("allocations")


class _Constructor:
    """A numpy constructor: its arrays are the workspace's buffers, viewed as
    a _Seen, while a workspace is built, and count as allocations else."""

    def __init__(self, make):
        self._make = make

    def __call__(self, *args, **kwargs):
        result = self._make(*args, **kwargs)
        if TALLY.building:
            return result.view(_Seen)
        if kwargs.get("out") is None:
            _made(result)
        return result


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, _Seen) else x


class _Seen(np.ndarray):
    """An ndarray whose ufunc calls the pass sees: one that the namespace did
    not make is an operator or a method."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        operator = not TALLY.in_namespace
        if operator:
            TALLY.add("operators")
            _operands(inputs, out, kwargs.get("where"))
        if "where" in kwargs:
            kwargs["where"] = _plain(kwargs["where"])
        kwargs["out"] = None if out is None else tuple(_plain(o) for o in out)
        result = getattr(ufunc, method)(*(_plain(x) for x in inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        if operator:
            _made(result)
        return result.view(_Seen) if isinstance(result, np.ndarray) else result


def count(run_config: dict) -> dict:
    """The counts of step ``WARM_UP_STEPS + 1`` of the run of ``run_config``."""
    setup = config.parse_config(run_config)
    phases = {solver.stable_dt.__code__: "stable_dt", solver.rhs.__code__: "rhs",
              solver._bundle.__code__: "bundle", solver._apply_floors.__code__: "floors",
              diagnostics._Fields.energy.__code__: "energy", solver.step.__code__: "step"}
    stack: list[str] = []
    rhs_calls = [0]
    real = {"stable_dt": solver.stable_dt, "workspace": solver._Workspace,
            "init": diagnostics._Fields.__init__}
    stable_dt_calls = [0]
    kept = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename != __file__:  # not this script's wrappers
            name = phases.get(code)
            if name == "rhs":
                rhs_calls[0] += 1
                name = f"rhs {rhs_calls[0]}"
            if name is not None:
                stack.append(name)
                TALLY.phase = name
            TALLY.add("python")
            if "numpy" in code.co_filename and (code.co_filename.endswith("multiarray.py")
                                                or code.co_name.endswith("_dispatcher")):
                TALLY.add("dispatchers")
                if TALLY.on:
                    names = TALLY.dispatchers
                    names[code.co_name] = names.get(code.co_name, 0) + 1
        elif event == "return" and code in phases:
            stack.pop()
            TALLY.phase = stack[-1] if stack else "bookkeeping"

    def counting_stable_dt(*args, **kwargs):
        # the step counted runs from this call to the next one
        stable_dt_calls[0] += 1
        if stable_dt_calls[0] == WARM_UP_STEPS + 1:
            TALLY.on = True
            sys.setprofile(profile)
        elif TALLY.on:
            sys.setprofile(None)
            TALLY.on = False
            kept["work"] = kwargs["_work"]
            raise _Stop
        return real["stable_dt"](*args, **kwargs)

    def seen_workspace(*args):
        # every buffer, and so every view, of the workspace is a _Seen
        TALLY.building = True
        try:
            return real["workspace"](*args)
        finally:
            TALLY.building = False

    def counting_init(self, *args, **kwargs):
        TALLY.add("fields")
        real["init"](self, *args, **kwargs)

    ufuncs = {name: obj for name, obj in vars(np).items() if isinstance(obj, np.ufunc)}
    constructors = {name: getattr(np, name) for name in CONSTRUCTORS}
    TALLY.by_phase, TALLY.dispatchers, TALLY.phase = {}, {}, "bookkeeping"
    TALLY.field = setup.config.grid.n_cells
    try:
        for name, ufunc in ufuncs.items():
            setattr(np, name, _Counted(ufunc))
        for name, make in constructors.items():
            setattr(np, name, _Constructor(make))
        solver.stable_dt, solver._Workspace = counting_stable_dt, seen_workspace
        diagnostics._Fields.__init__ = counting_init
        try:
            solver.run(setup.config, setup.initial)
        except _Stop:
            pass
        step = {kind: sum(c[kind] for c in TALLY.by_phase.values()) for kind in KINDS}
        by_phase = {phase: {kind: c[kind] for kind in KINDS} for phase, c in TALLY.by_phase.items()}
        dispatchers = dict(TALLY.dispatchers)
        # one ledger instant: the columns of the new state's ledger row
        integrals = [0]

        def count_integrals(frame, event, arg):
            if event == "call" and frame.f_code is grid.integrate.__code__:
                integrals[0] += 1

        TALLY.by_phase, TALLY.on = {}, True
        sys.setprofile(count_integrals)
        kept["work"].fields.columns(setup.config.moment)
        sys.setprofile(None)
        TALLY.on = False
        instant = sum(c["fields"] for c in TALLY.by_phase.values())
    finally:
        sys.setprofile(None)
        TALLY.on = False
        for name, obj in (*ufuncs.items(), *constructors.items()):
            setattr(np, name, obj)
        solver.stable_dt, solver._Workspace = real["stable_dt"], real["workspace"]
        diagnostics._Fields.__init__ = real["init"]
    return {"step": step, "dispatchers": dispatchers, "phases": by_phase,
            "ledger_instant_fields": instant, "ledger_instant_integrals": integrals[0]}


def main() -> dict:
    return {"vacuum1d_256": count(VACUUM1D_256), "sv2d_128": count(SV2D_128)}


if __name__ == "__main__":
    print(json.dumps(main(), indent=1))
