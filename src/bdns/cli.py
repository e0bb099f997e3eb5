"""Command-line driver.

Subcommands:

    validate-law       check a coefficient pair against the admissibility
                       conditions; emits the per-condition report as JSON
    simulate           advance a run config to t_end; optional checkpoint
                       and ledger outputs
    verify-identities  certify the entropy-balance identities on seeded
                       manufactured fields
    stability-study    run a mollified-sequence study and emit the report

Exit codes: 0 success, 1 verdict failure or aborted run, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import _json
from .config import load_config
from .grid import save_checkpoint
from .harness import StudyError, run_study
from .identities import manufactured_field, run_all_identities
from .solver import NonAdmissibleLawError, SolverError, run
from .viscosity import TamperedLaw, ViscosityLaw, validate


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its errors as usage errors of one line, not its usage
    block: the subcommands' parsers are of this class too."""

    def error(self, message):
        raise _Usage(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bdns",
        description="degenerate-viscosity compressible flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate-law", help="check admissibility conditions")
    p_val.add_argument("--config", required=True, help="run config JSON")
    p_val.add_argument("--out", help="write the report JSON here")

    p_sim = sub.add_parser("simulate", help="advance a configured run")
    p_sim.add_argument("--config", required=True, help="run config JSON")
    p_sim.add_argument("--checkpoint", help="write the final state here (.bdns)")
    p_sim.add_argument("--ledger", help="write the diagnostics ledger CSV here")
    p_sim.add_argument("--jsonl", action="store_true",
                       help="also mirror the ledger as JSON lines")

    p_ver = sub.add_parser("verify-identities", help="certify entropy identities")
    p_ver.add_argument("--law", required=True,
                       help='law JSON, e.g. \'{"terms": [[1, 1]]}\'')
    p_ver.add_argument("--gamma", type=float, default=2.0)
    p_ver.add_argument("--dims", default="1,2", help="comma-separated dimensions")
    p_ver.add_argument("--grids", default="32,64,128", help="comma-separated cell counts")
    p_ver.add_argument("--delta", type=float, default=0.05)
    p_ver.add_argument("--nu", type=float, default=None)
    p_ver.add_argument("--g-override", type=float, default=None,
                       help="replace g by a constant (negative control)")
    p_ver.add_argument("--seed", type=int, default=7)
    p_ver.add_argument("--out", help="write the report JSON here")

    p_st = sub.add_parser("stability-study", help="mollified-sequence study")
    p_st.add_argument("--config", required=True,
                      help="run config JSON with a 'study' block")
    p_st.add_argument("--out", help="write the study report JSON here")
    p_st.add_argument("--ledger-dir", help="write per-member ledger CSVs here")
    return parser


def _load(path):
    try:
        return load_config(path)
    except OSError as exc:  # the config file or the checkpoint it names
        raise _Usage(f"cannot read {exc.filename}: {exc.strerror}") from exc
    except ValueError as exc:  # ConfigError, or JSON that json cannot read
        raise _Usage(f"bad config: {exc}") from exc


def _write(path, write):
    """``write(path)``, with an unwritable path reported as a usage error."""
    try:
        write(path)
    except OSError as exc:
        raise _Usage(f"cannot write {path}: {exc.strerror or exc}") from exc


def _probe(path, directory: bool = False):
    """Fail now, as writing ``path`` after the run would, and leave behind
    nothing that did not exist: open the file for appending, or make the
    directory and a temporary file in it, then remove what was made."""
    made = []  # the path and its missing parents, deepest first
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        made.append(head)
        head = os.path.dirname(head)
    try:
        if directory:
            _write(path, lambda p: os.makedirs(p, exist_ok=True))
            _write(path, lambda p: tempfile.TemporaryFile(dir=p).close())
        else:
            _write(path, lambda p: open(p, "a").close())
    finally:
        for p in made:
            with contextlib.suppress(OSError):
                (os.rmdir if directory else os.remove)(p)


def _write_text(path, text: str):
    _write(path, lambda p: Path(p).write_text(text + "\n"))


def _cmd_validate_law(args) -> int:
    setup = _load(args.config)
    if args.out:
        _probe(args.out)
    report = validate(setup.config.law, setup.config.params)
    text = report.dumps()
    if args.out:
        _write_text(args.out, text)
    print(text)
    return 0 if report.overall else 1


def _cmd_simulate(args) -> int:
    if args.jsonl and not args.ledger:
        raise _Usage("--jsonl mirrors the ledger: it needs --ledger")
    setup = _load(args.config)
    outputs = [args.checkpoint, args.ledger]
    if args.jsonl:
        outputs.append(args.ledger + ".jsonl")
    for path in filter(None, outputs):
        _probe(path)
    try:
        traj, ledger = run(setup.config, setup.initial)
    except (SolverError, NonAdmissibleLawError, ValueError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 1
    if args.checkpoint:
        _write(args.checkpoint, lambda p: save_checkpoint(p, traj.final_state, setup.config.grid))
    if args.ledger:
        _write(args.ledger, ledger.to_csv)
        if args.jsonl:
            _write(args.ledger + ".jsonl", ledger.to_jsonl)
    print(
        f"steps={traj.step_count} t={traj.final_state.t:.6g} "
        f"clamped_cells={traj.clamp_count} vacuum_zeroed={traj.vacuum_zero_count} "
        f"E_final={traj.step_energies[-1]:.12g}"
    )
    return 0


def _cmd_verify_identities(args) -> int:
    try:
        law = ViscosityLaw.from_json(json.loads(args.law))
    except ValueError as exc:  # not JSON, or no law
        raise _Usage(f"bad --law: {exc}") from exc
    if args.g_override is not None:
        if not math.isfinite(args.g_override):
            raise _Usage(f"--g-override must be finite, got {args.g_override}")
        law = TamperedLaw(law, args.g_override)
    try:
        dims = [int(d) for d in args.dims.split(",") if d]
        grids = [int(n) for n in args.grids.split(",") if n]
    except ValueError as exc:
        raise _Usage(f"bad --dims/--grids: {exc}") from exc
    if not dims:
        raise _Usage("--dims names no dimension")
    if args.seed < 0:
        raise _Usage(f"--seed must be a non-negative integer, got {args.seed}")
    if args.out:
        _probe(args.out)

    reports = []
    for dim in dims:
        try:
            mf = manufactured_field(dim, seed=args.seed + dim)
            reports.extend(
                run_all_identities(mf, law, args.gamma, grids, delta=args.delta, nu=args.nu)
            )
        except ValueError as exc:
            raise _Usage(f"cannot certify in {dim}D: {exc}") from exc
    payload = [r.to_json() for r in reports]
    text = _json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, text)
    ok = all(r.verdict for r in reports)
    for r in reports:
        worst = max((v[-1] for v in r.residuals.values()), default=0.0)
        print(f"{'PASS' if r.verdict else 'FAIL'} {r.identity}: finest residual {worst:.3e}")
    return 0 if ok else 1


def _cmd_stability_study(args) -> int:
    setup = _load(args.config)
    if setup.study is None:
        raise _Usage("config has no 'study' block")
    if args.out:
        _probe(args.out)
    if args.ledger_dir:
        _probe(args.ledger_dir, directory=True)
    try:
        study = run_study(setup.study, setup.config)
    except (StudyError, ValueError) as exc:  # a GenerationError is a ValueError
        print(f"study aborted: {exc}", file=sys.stderr)
        return 1
    ledger_paths = None
    if args.ledger_dir:
        _write(args.ledger_dir, lambda p: os.makedirs(p, exist_ok=True))
        ledger_paths = [os.path.join(args.ledger_dir, f"member_{i}.csv")
                        for i in range(len(study.ledgers))]
        for path, ledger in zip(ledger_paths, study.ledgers):
            if ledger is not None:
                _write(path, ledger.to_csv)
    text = _json.dumps(study.to_json(ledger_paths), indent=2, sort_keys=True)
    if args.out:
        _write_text(args.out, text)
    for name in ("rho", "u", "m"):
        print(f"d_{name} consecutive: "
              + " ".join(f"{v:.3e}" for v in study.consecutive(name)))
    if study.partial:
        print("study PARTIAL: " + "; ".join(study.failures), file=sys.stderr)
        return 1
    return 0


def cli_main(argv=None) -> int:
    handlers = {
        "validate-law": _cmd_validate_law,
        "simulate": _cmd_simulate,
        "verify-identities": _cmd_verify_identities,
        "stability-study": _cmd_stability_study,
    }
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


def main():
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
