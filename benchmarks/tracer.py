"""In-memory span tracer that measures bdns layer by layer from outside.

``Tracer.installed()`` wraps every public function of the traced bdns
modules, in every bdns module namespace that holds it (``derived`` is
looked up in solver, diagnostics and harness), plus the viscosity law
methods and the ledger writers.  Each wrapper records one span: job,
name, start, end, id, parent and thread.  The parent stack is thread-local,
so spans in the study's pool threads nest under the member run of their
own thread.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children;
children of one span run in its thread, one after another, so they never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

LAYERS = ("solver", "grid", "viscosity", "diagnostics", "harness", "identities", "presets",
          "config")
LAW_METHODS = ("h", "h_prime", "g", "g_prime")
LEDGER_WRITERS = ("to_csv", "to_jsonl")
# names looked up by the study's worker threads get a span name of their own
RENAMED = {("harness", "run"): "harness.member_run"}


class Span(NamedTuple):
    job: int
    name: str
    start: float
    end: float
    id: int
    parent: int  # 0 for a root span
    thread: int
    cpu: float  # thread CPU seconds, recorded for member runs only


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job = 0
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name: str, fn, thread_cpu: bool = False):
        spans, ids, local = self.spans, self._ids, self._local
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            c0 = cpu_clock() if thread_cpu else 0.0
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                cpu = cpu_clock() - c0 if thread_cpu else 0.0
                stack.pop()
                spans.append(Span(self.job, name, t0, t1, sid, parent,
                                  threading.get_ident(), cpu))

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap bdns for the duration of the block, then restore it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bdns.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "bdns" or n.startswith("bdns.")]
        patches = []

        def patch(owner, attr, new):
            patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

        try:
            for mod in namespaces:
                short = mod.__name__.rpartition(".")[2]
                for attr, obj in list(vars(mod).items()):
                    if not (inspect.isfunction(obj) and obj in wrappers):
                        continue
                    renamed = RENAMED.get((short, attr))
                    patch(mod, attr, self.wrap(renamed, obj, thread_cpu=True) if renamed
                          else wrappers[obj])
            visc = sys.modules["bdns.viscosity"]
            for cls in (visc.ViscosityLaw, visc.TamperedLaw):
                for attr in LAW_METHODS:
                    patch(cls, attr, self.wrap("viscosity.law", vars(cls)[attr]))
            ledger_cls = sys.modules["bdns.diagnostics"].EntropyLedger
            for attr in LEDGER_WRITERS:
                patch(ledger_cls, attr, self.wrap("diagnostics.ledger_io", vars(ledger_cls)[attr]))
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def aggregate(spans: list[Span]) -> dict[str, NameStats]:
    """Calls, inclusive time and self time per span name."""
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            child_s[s.parent] += s.end - s.start
    stats: dict[str, NameStats] = defaultdict(NameStats)
    for s in spans:
        st = stats[s.name]
        st.calls += 1
        st.total_s += s.end - s.start
        st.self_s += s.end - s.start - child_s.get(s.id, 0.0)
    return stats


def tree_problems(spans: list[Span], tol: float = 1e-9) -> list[str]:
    """Every way the span tree is not well formed: a missing parent, a child
    in another thread or outside its parent's interval, a negative self time."""
    by_id = {s.id: s for s in spans}
    child_s: dict[int, float] = defaultdict(float)
    problems = []
    for s in spans:
        if not s.parent:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name}#{s.id}: parent {s.parent} missing")
            continue
        if p.thread != s.thread or s.start < p.start or s.end > p.end:
            problems.append(f"{s.name}#{s.id} lies outside its parent {p.name}#{p.id}")
        child_s[p.id] += s.end - s.start
    for s in spans:
        if s.end - s.start - child_s.get(s.id, 0.0) < -tol:
            problems.append(f"{s.name}#{s.id}: negative self time")
    return problems


IDENTITY_CHECKERS = ("verify_energy_step", "verify_step2", "verify_step3_cross",
                     "verify_bd_combination", "verify_moment_derivation")


def layer_metrics(spans: list[Span], out) -> dict[str, float]:
    """Per-layer metrics of one traced job.  ``out`` is the job's JobOutput;
    the step, clamp and cutoff counts and the retained bytes come from its
    trajectories.  Per-cell figures divide a measured time by the cell count
    of one state, so they are computed from array sizes, not measured."""
    stats = aggregate(spans)
    get = stats.get

    def calls(*names):
        return sum(get(n, NameStats()).calls for n in names)

    def self_s(*names):
        return sum(get(n, NameStats()).self_s for n in names)

    def total_s(*names):
        return sum(get(n, NameStats()).total_s for n in names)

    def per_call(name, scale):
        n = calls(name)
        return total_s(name) / n * scale if n else 0.0

    cells = out.n_cells or 1
    trajs = out.trajectories
    members = [s for s in spans if s.name == "harness.member_run"]
    study = [s for s in spans if s.name == "harness.run_study"]
    pool_wall = max(s.end for s in members) - min(s.start for s in members) if members else 0.0
    workers = len({s.thread for s in members})
    member_sum = sum(s.end - s.start for s in members)
    spectral = ("grid.spectral_grad", "grid.spectral_div", "grid.spectral_lap")
    presets = sorted({s.name for s in spans if s.name.startswith("presets.")})

    m = {
        "solver.steps": sum(t.step_count for t in trajs),
        "solver.rhs.calls": calls("solver.rhs"),
        "solver.rhs.self_s": self_s("solver.rhs"),
        "solver.rhs.ns_per_cell": per_call("solver.rhs", 1e9) / cells,
        "solver.rhs.us_per_call": per_call("solver.rhs", 1e6),
        "solver.stable_dt.calls": calls("solver.stable_dt"),
        "solver.stable_dt.self_s": self_s("solver.stable_dt"),
        "solver.step.self_s": self_s("solver.step"),
        "solver.step.ns_per_cell_step": per_call("solver.step", 1e9) / cells,
        "solver.clamp_count": sum(t.clamp_count for t in trajs),
        "solver.cutoff_count": sum(t.vacuum_zero_count for t in trajs),
        "solver.retained_state_mb": sum(st.rho.nbytes + st.mom.nbytes
                                        for t in trajs for st in t.states) / 1e6,
        "grid.derived.calls": calls("grid.derived"),
        "grid.derived.self_s": self_s("grid.derived"),
        "grid.grad.calls": calls("grid.grad"),
        "grid.integrate.calls": calls("grid.integrate"),
        "grid.lp_norm.calls": calls("grid.lp_norm"),
        "grid.lp_norm.self_s": self_s("grid.lp_norm"),
        "grid.spectral.calls": calls(*spectral),
        "grid.spectral.self_s": self_s(*spectral),
        "grid.checkpoint.bytes": out.checkpoint_bytes,
        "grid.checkpoint.write_s": total_s("grid.save_checkpoint"),
        "viscosity.law_evals": calls("viscosity.law"),
        "viscosity.validate.self_s": self_s("viscosity.validate"),
        "diagnostics.energy.calls": calls("diagnostics.energy"),
        "diagnostics.energy.self_s": self_s("diagnostics.energy"),
        "diagnostics.ledger_row.calls": calls("diagnostics.ledger_row"),
        "diagnostics.ledger_row.ms_per_call": per_call("diagnostics.ledger_row", 1e3),
        "diagnostics.weak_form_residual.self_s": self_s("diagnostics.weak_form_residual"),
        "diagnostics.ledger_io_s": total_s("diagnostics.ledger_io"),
        "harness.generate_sequence.self_s": self_s("harness.generate_sequence"),
        "harness.workers": workers,
        "harness.member_run.sum_s": member_sum,
        "harness.member_run.wait_s": sum(s.end - s.start - s.cpu for s in members),
        "harness.pool_wall_s": pool_wall,
        "harness.parallel_efficiency": member_sum / (pool_wall * workers) if members else 0.0,
        # everything run_study does after its last member finished
        "harness.distances_s": (sum(s.end for s in study) - max(s.end for s in members)
                                if members and study else 0.0),
        "identities.reports": out.identity_reports,
        "config.parse_config.self_s": self_s("config.parse_config"),
        # make_initial plus the preset builders, which are reached only through it
        "presets.make_initial.self_s": self_s(*presets),
    }
    for checker in IDENTITY_CHECKERS:
        m[f"identities.{checker}.self_s"] = self_s(f"identities.{checker}")
    return m
