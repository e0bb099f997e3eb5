"""bdns benchmark: time to a correct solution on four acceptance-derived
workloads, and a traced per-layer breakdown.

    python3 benchmarks/run.py --workload sv2d_128 --seed 0 --seconds 10 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it alternates untraced and traced jobs and prints the
per-layer metrics and the tracing overhead.  Every job's output is checked
against its acceptance gates.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it give sample counts, percentiles, gate values and provenance.
The metric names and units are the ones declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# a tail percentile is reported only with at least this many samples beyond it
TAIL_MIN_BEYOND = 10
TAIL_CANDIDATES = (99.9, 99.0, 90.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark cannot run in this checkout."""


def use_checkout_bdns():
    """Import bdns from this checkout's src/, never from an installed copy."""
    if not (SRC / "bdns" / "__init__.py").is_file():
        raise BenchError(f"no bdns package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import bdns

    if Path(bdns.__file__).resolve().parent != (SRC / "bdns").resolve():
        raise BenchError(f"bdns imported from {bdns.__file__}, not from {SRC}")
    return bdns


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, as measured inside it."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest candidate percentile with TAIL_MIN_BEYOND samples beyond
    it; the maximum when the run holds too few samples for any."""
    n = len(samples)
    for p in TAIL_CANDIDATES:
        if n * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND:
            return f"p{p:g}", float(np.percentile(samples, p))
    return "max", max(samples, default=float("nan"))


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_revision": "unavailable", "git_dirty": None,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": "unknown", "caches": {},
        # the pool size harness.run_study picks for the study's five members
        "study_pool_workers": (int(os.environ.get("BDNS_THREADS", "0"))
                               or min(5, os.cpu_count() or 1)),
    }
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                                  text=True, timeout=30)

        rev = git("rev-parse", "HEAD")
        if rev.returncode == 0:
            info["git_revision"] = rev.stdout.strip()
            info["git_dirty"] = bool(git("status", "--porcelain", "--untracked-files=no").stdout)
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                level = (index / "level").read_text().strip()
                info["caches"][f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


class Runner:
    """Runs one workload's jobs and checks each job's gates."""

    def __init__(self, workload, inputs, outdir):
        self.w = workload
        self.inputs = inputs
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self.op_seconds: list[float] = []
        self.worst: dict = {}

    def run(self):
        """One timed job: (seconds, output), or (seconds, None) if it raised."""
        t0 = time.perf_counter()
        try:
            out = self.w.job(self.inputs, self.outdir)
        except Exception:  # noqa: BLE001 - a failed job is counted, not fatal
            out = None
            traceback.print_exc()
        return time.perf_counter() - t0, out

    def check(self, elapsed, out, record_latency=True) -> bool:
        """Count the job's operations and check their gates; True if all passed."""
        if out is None:
            self.attempted += self.w.ops_per_job
            self.failed += self.w.ops_per_job
            return False
        ok = True
        for gates in self.w.gates(out):
            self.attempted += 1
            op_ok = all(g.ok for g in gates.values())
            self.failed += not op_ok
            ok &= op_ok
            for name, g in gates.items():
                prev = self.worst.get(name)
                if prev is None or not g.ok or (prev.ok and _worse(g, prev)):
                    self.worst[name] = g
        if ok and record_latency:
            self.op_seconds.extend(out.op_seconds or [elapsed])
        return ok


def _worse(a, b) -> bool:
    return a.value > b.value if a.op == "<=" else a.value < b.value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    try:
        use_checkout_bdns()
        e2e_units, layer_units = declared_metrics()
    except (BenchError, ImportError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    print(f"workload {w.name} seed {args.seed} trace {args.trace} seconds {args.seconds}")

    with tempfile.TemporaryDirectory(prefix=".bench_run-", dir=ROOT) as outdir:
        runner = Runner(w, inputs, outdir)
        if not args.trace:
            try:
                setup_s = [probe_setup(w.name, args.seed) for _ in range(SETUP_REPEATS)]
            except (BenchError, subprocess.TimeoutExpired) as exc:
                print(f"benchmark cannot run: {exc}", file=sys.stderr)
                return 2
        runner.run()  # warm-up, neither counted nor timed
        tracer = tracing.Tracer()
        untraced: list[float] = []
        traced: list[tuple[float, int, object]] = []
        deadline = time.perf_counter() + args.seconds
        # past the deadline, only a run that still lacks a sample goes on
        while time.perf_counter() < deadline or (
                runner.failed == 0 and (not untraced or (args.trace and not traced))):
            if args.trace and len(traced) < len(untraced):
                tracer.job += 1
                with tracer.installed():
                    elapsed, out = runner.run()
                if runner.check(elapsed, out, record_latency=False):
                    traced.append((elapsed, tracer.job, out))
            else:
                elapsed, out = runner.run()
                if runner.check(elapsed, out):
                    untraced.append(elapsed)
            del out  # so that peak_rss_mb holds one job's output, not two

    correct = runner.failed == 0 and bool(untraced)
    tts = statistics.median(untraced) if untraced else float("nan")
    metrics: dict[str, float] = {}
    if args.trace:
        problems = tracing.tree_problems(tracer.spans)
        for p in problems[:10]:
            print(f"span tree: {p}", file=sys.stderr)
        correct &= not problems and bool(traced)
        per_job = [tracing.layer_metrics([s for s in tracer.spans if s.job == job], out)
                   for _, job, out in traced]
        for name in per_job[0] if per_job else ():
            metrics[name] = statistics.median(m[name] for m in per_job)
        traced_tts = statistics.median(e for e, _, _ in traced) if traced else float("nan")
        metrics["trace.overhead_frac"] = traced_tts / tts - 1.0
        print(f"trace: {len(tracer.spans)} spans over {len(traced)} traced jobs, "
              f"{len(problems)} tree problems; traced time_to_solution_s {traced_tts:.4f} "
              f"against untraced {tts:.4f} (median of {len(untraced)})")
        print("computed from array sizes, not measured traffic: solver.rhs.ns_per_cell, "
              "solver.step.ns_per_cell_step, solver.retained_state_mb")
        units = layer_units
    else:
        p_name, p_value = tail(runner.op_seconds)
        p50 = statistics.median(runner.op_seconds) if runner.op_seconds else float("nan")
        metrics = {
            "time_to_solution_s": tts,
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "op_tail_ms": p_value * 1e3,
        }
        print(f"time_to_solution_s {tts:.4f} s: median of {len(untraced)} passing jobs")
        print(f"setup_s {metrics['setup_s']:.4f} s: median of {len(setup_s)} fresh processes")
        print(f"op_tail_ms ({p_name}) {p_value * 1e3:.3f} ms and op p50 (not gated) "
              f"{p50 * 1e3:.3f} ms over {len(runner.op_seconds)} operations")
        units = e2e_units
    for name, g in sorted(runner.worst.items()):
        print(f"gate {name}: worst {g.value:.6g} {g.op} {g.limit:g} "
              f"{'PASS' if g.ok else 'FAIL'}")
    print("provenance " + json.dumps(provenance(w.name, args.seed, args.seconds,
                                                bool(args.trace)), sort_keys=True))
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    result = {
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
