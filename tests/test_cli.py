import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdns import cli, config
from bdns.cli import cli_main
from bdns.grid import State, load_checkpoint, save_checkpoint


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "law": {"terms": [[1.0, 1.0]]},
        "nu": 0.9,
        "gamma": 2.0,
        "dim": 1,
        "cells": 64,
        "cfl": 0.4,
        "t_end": 5e-4,
        "ledger_stride": 5,
        "initial": {"preset": "smooth_bump", "params": {}},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_validate_law_pass(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "report.json"
    assert cli_main(["validate-law", "--config", str(path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["overall"] is True
    assert any(rec["condition"] == "(10)" for rec in payload["conditions"])


def test_validate_law_failure_exit_code(tmp_path):
    path = write_config(tmp_path, law={"constant": 1.0})
    assert cli_main(["validate-law", "--config", str(path)]) == 1


def test_simulate_missing_config_is_usage_error(tmp_path):
    assert cli_main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_unknown_flag_is_usage_error(tmp_path):
    assert cli_main(["simulate", "--config", "x.json", "--bogus"]) == 2


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == 2


def test_simulate_writes_outputs(tmp_path):
    path = write_config(tmp_path)
    ck = tmp_path / "final.bdns"
    ledger = tmp_path / "ledger.csv"
    code = cli_main([
        "simulate", "--config", str(path),
        "--checkpoint", str(ck), "--ledger", str(ledger), "--jsonl",
    ])
    assert code == 0
    state, grid = load_checkpoint(ck)
    assert state.t == pytest.approx(5e-4)
    assert grid.sizes == (64,)
    assert ledger.exists() and (tmp_path / "ledger.csv.jsonl").exists()
    header = ledger.read_text().splitlines()[1]
    assert header.startswith("t,E_eq15")


def test_simulate_restarts_from_checkpoint(tmp_path):
    path = write_config(tmp_path)
    ck = tmp_path / "final.bdns"
    assert cli_main(["simulate", "--config", str(path), "--checkpoint", str(ck)]) == 0
    restart = write_config(tmp_path, name="restart.json",
                           t_end=1e-3, initial={"checkpoint": str(ck)})
    assert cli_main(["simulate", "--config", str(restart)]) == 0


def test_simulate_non_admissible_law_fails(tmp_path):
    path = write_config(tmp_path, law={"constant": 1.0})
    assert cli_main(["simulate", "--config", str(path)]) == 1


def test_verify_identities_pass(tmp_path):
    out = tmp_path / "identities.json"
    code = cli_main([
        "verify-identities", "--law", '{"terms": [[1, 1]]}', "--gamma", "2.0",
        "--dims", "1", "--grids", "32,64", "--nu", "0.9", "--out", str(out),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert all(entry["verdict"] == "pass" for entry in payload)


def test_verify_identities_tampered_pair_fails():
    code = cli_main([
        "verify-identities", "--law", '{"terms": [[1, 1]]}', "--g-override", "1.0",
        "--dims", "1", "--grids", "32,64", "--nu", "0.9",
    ])
    assert code == 1


def test_verify_identities_bad_law_json():
    assert cli_main(["verify-identities", "--law", "{oops", "--grids", "32"]) == 2


@pytest.mark.parametrize("law", ["5", "[1, 1]", '{"terms": 5}', '{"terms": [[1]]}',
                                 '{"constant": "x"}'])
def test_verify_identities_malformed_law_is_one_line(capsys, law):
    assert cli_main(["verify-identities", "--law", law, "--grids", "32"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "bad --law" in err[0], err


def test_module_runs_the_cli():
    # `python -m bdns.cli` runs the command, so a scripted check sees its exit code
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bdns.cli", "verify-identities", "--law", "5"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    err = proc.stderr.strip().splitlines()
    assert proc.returncode == 2 and len(err) == 1 and "bad --law" in err[0], proc.stderr


def test_verify_identities_tampered_pair_without_nu_fails(capsys):
    # the negative control takes nu from the law it wraps, and fails the
    # combined identity in 1D and in 2D
    code = cli_main([
        "verify-identities", "--law", '{"terms": [[1, 1]]}', "--g-override", "1.0",
        "--grids", "32,64",
    ])
    out, err = capsys.readouterr()
    failed = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and err == "" and failed == ["FAIL bd_combination"] * 2


def test_verify_identities_passes_when_terms_vanish_by_orthogonality(capsys):
    # in 1D this field's modes make every term of two identities vanish, so
    # their terms and defects are round-off of an O(1) field
    args = ["verify-identities", "--law", '{"terms": [[1, 1]]}', "--nu", "0.9", "--seed", "2007"]
    assert cli_main(args) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert cli_main(args + ["--g-override", "1.0"]) == 1
    failed = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()
              if line.startswith("FAIL")]
    assert failed == ["FAIL bd_combination"] * 2


def simulate_usage_error(tmp_path, capsys, **overrides):
    path = write_config(tmp_path, name="bad.json", **overrides)
    code = cli_main(["simulate", "--config", str(path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    return err[0]


@pytest.mark.parametrize("gamma", [1.0, float("nan")])
def test_simulate_gamma_not_above_one_is_usage_error(tmp_path, capsys, gamma):
    assert "gamma must be > 1" in simulate_usage_error(tmp_path, capsys, gamma=gamma)


def validate_law_usage_error(tmp_path, capsys, **overrides):
    path = write_config(tmp_path, name="bad.json", **overrides)
    code = cli_main(["validate-law", "--config", str(path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    return err[0]


@pytest.mark.parametrize("key, value", [("gamma", float("inf")), ("eps_growth", float("nan")),
                                        ("eps_growth", float("inf"))])
def test_validate_law_non_finite_admissibility_constant_is_one_line(tmp_path, capsys, key, value):
    err = validate_law_usage_error(tmp_path, capsys, **{key: value})
    assert f"{key} must be > {1 if key == 'gamma' else 0}" in err, err


@pytest.mark.parametrize("law, text", [({"terms": [[1.0, float("inf")]]}, "exponent inf"),
                                       ({"terms": [[1.0, float("nan")]]}, "exponent nan"),
                                       ({"terms": [[float("nan"), 1.0]]}, "coefficient nan"),
                                       ({"terms": [[float("inf"), 1.0]]}, "coefficient inf"),
                                       ({"constant": float("nan")}, "constant coefficient nan"),
                                       ({"constant": float("inf")}, "constant coefficient inf")])
def test_validate_law_non_finite_law_is_one_line(tmp_path, capsys, law, text):
    assert text in validate_law_usage_error(tmp_path, capsys, law=law)


@pytest.mark.parametrize("law", [{"terms": [[0.0, 1.0]]}, {"terms": [[0.0, 1.0], [0.0, 3.0]]}])
def test_validate_law_all_zero_law_fails_validation(tmp_path, capsys, law):
    path = write_config(tmp_path, law=law, gamma=3.5, N=3)
    assert cli_main(["validate-law", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = json.loads(captured.out, parse_constant=lambda token: pytest.fail(token))
    assert payload["overall"] is False
    assert [rec["pass"] for rec in payload["conditions"]] == [False, True, True, False]


@pytest.mark.parametrize("key, value", [("cells", [64.5]), ("cells", 64.5), ("dim", 1.5),
                                        ("ledger_stride", 2.5), ("N", 1.5),
                                        ("study", {"n_max": 1.5})])
def test_non_integral_config_number_is_one_line(tmp_path, capsys, key, value):
    name = "n_max" if key == "study" else key
    err = validate_law_usage_error(tmp_path, capsys, **{key: value})
    assert f"{name!r} must be an integer" in err, err


@pytest.mark.parametrize("key, value", [("allow_non_admissible", "false"), ("dim", True),
                                        ("ledger_stride", True), ("cfl", "0.4"),
                                        ("t_end", "0.001")])
def test_config_value_of_the_wrong_json_type_is_one_line(tmp_path, capsys, key, value):
    # no bool counts as a number and no string as a number or a bool: the
    # string "false" does not turn the validation override on
    assert repr(key) in simulate_usage_error(tmp_path, capsys, **{key: value})


def test_simulate_refuses_an_integrator_other_than_ssp_rk2(tmp_path, capsys):
    # RK4 was removed: a config that asks for it exits 2, rather than run
    # another scheme without a word
    err = simulate_usage_error(tmp_path, capsys, integrator="RK4")
    assert "'RK2_SSP'" in err and "'RK4'" in err, err


def test_readme_and_config_docstring_list_the_same_keys_and_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Key | Default | Meaning |"):].splitlines()[2:]
    rows = [line.split(" | ") for line in itertools.takewhile(lambda l: l.startswith("|"), table)]
    in_readme = {key.strip("| ").replace("`", ""): default.replace("`", "")
                 for key, default, *_ in rows}
    # the docstring's key lines: "    key  default; meaning"
    listed = (re.fullmatch(r"    (\S.*?)  +(.*)", line) for line in config.__doc__.splitlines())
    assert in_readme == {m[1]: m[2].split(";")[0] for m in listed if m}
    # and they are the keys parse_config reads
    source = inspect.getsource(config.parse_config)
    read = set(re.findall(r'(?:obj\.get|_require|_require_object)\((?:obj, )?"(\w+)"', source))
    assert {k for keys in in_readme for k in keys.split(", ")} == read


def run_module(*args):
    """``python -m bdns.cli`` in a process of its own: (exit code, stderr lines)."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "bdns.cli", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr.strip().splitlines()


@pytest.mark.parametrize("t_end", [float("nan"), float("inf")])
def test_simulate_non_finite_t_end_is_usage_error(tmp_path, t_end):
    # json reads NaN and Infinity; a run to t_end = NaN would never end, so
    # the command runs in its own process, under a timeout
    code, err = run_module("simulate", "--config", str(write_config(tmp_path, t_end=t_end)))
    assert code == 2 and len(err) == 1 and "t_end must be finite and positive" in err[0], err


@pytest.mark.parametrize("overrides, text", [
    ({"eps_vac": "x"}, "'eps_vac' must be a number or null"),
    ({"eps_vac": -1}, "eps_vac must be finite and positive"),
    ({"eps_vac": float("nan")}, "eps_vac must be finite and positive"),
    ({"lengths": [float("nan")]}, "lengths must be finite and positive"),
])
def test_simulate_bad_eps_vac_or_lengths_is_usage_error(tmp_path, capsys, overrides, text):
    assert text in simulate_usage_error(tmp_path, capsys, **overrides)


def test_missing_checkpoint_is_named(tmp_path, capsys):
    err = simulate_usage_error(tmp_path, capsys,
                               initial={"checkpoint": str(tmp_path / "gone.bdns")})
    assert "gone.bdns" in err and "No such file" in err


def saved_checkpoint(tmp_path):
    ck = tmp_path / "final.bdns"
    assert cli_main(["simulate", "--config", str(write_config(tmp_path)),
                     "--checkpoint", str(ck)]) == 0
    return ck


def test_truncated_checkpoint_is_usage_error(tmp_path, capsys):
    ck = saved_checkpoint(tmp_path)
    ck.write_bytes(ck.read_bytes()[:20])
    err = simulate_usage_error(tmp_path, capsys, initial={"checkpoint": str(ck)})
    assert "truncated" in err


def test_short_checkpoint_payload_is_usage_error(tmp_path, capsys):
    ck = saved_checkpoint(tmp_path)
    ck.write_bytes(ck.read_bytes()[:-8])
    err = simulate_usage_error(tmp_path, capsys, initial={"checkpoint": str(ck)})
    assert "payload" in err


def test_checkpoint_with_trailing_bytes_is_usage_error(tmp_path, capsys):
    ck = saved_checkpoint(tmp_path)
    ck.write_bytes(ck.read_bytes() + b"\0" * 8)
    err = simulate_usage_error(tmp_path, capsys, initial={"checkpoint": str(ck)})
    assert "payload" in err


@pytest.mark.parametrize("t", [float("nan"), float("inf")])
def test_checkpoint_with_a_non_finite_time_is_usage_error(tmp_path, capsys, t):
    ck = saved_checkpoint(tmp_path)
    state, grid = load_checkpoint(ck)
    save_checkpoint(ck, State(t, state.rho, state.mom), grid)
    err = simulate_usage_error(tmp_path, capsys, initial={"checkpoint": str(ck)})
    assert err == f"usage error: bad config: checkpoint time must be finite, got {t}"


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    err = simulate_usage_error(tmp_path, capsys, initial={"preset": "no_such_preset"})
    assert "no_such_preset" in err


def test_unknown_preset_params_are_usage_error(tmp_path, capsys):
    err = simulate_usage_error(tmp_path, capsys,
                               initial={"preset": "smooth_bump", "params": {"bogus": 1}})
    assert "bogus" in err


def test_stability_study_end_to_end(tmp_path):
    path = write_config(
        tmp_path,
        study={"sigma0": 0.05, "n_max": 1},
        t_end=2e-4,
    )
    out = tmp_path / "study.json"
    ldir = tmp_path / "ledgers"
    code = cli_main([
        "stability-study", "--config", str(path),
        "--out", str(out), "--ledger-dir", str(ldir),
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload["members"]) == 2
    assert np.asarray(payload["d_rho"]).shape == (2, 2)
    assert (ldir / "member_0.csv").exists()


def stderr_lines(capsys):
    return capsys.readouterr().err.strip().splitlines()


def test_stability_study_with_every_member_failing_is_one_line(tmp_path, capsys):
    # a non-admissible law fails every member: the study aborts, exit 1
    path = write_config(tmp_path, law={"constant": 1.0}, study={"sigma0": 0.05, "n_max": 1},
                        t_end=2e-4)
    assert cli_main(["stability-study", "--config", str(path)]) == 1
    err = stderr_lines(capsys)
    assert len(err) == 1 and err[0].startswith("study aborted: every study member failed"), err
    assert "member 0" in err[0] and "member 1" in err[0], err


@pytest.mark.parametrize("command", ["simulate", "validate-law", "stability-study"])
@pytest.mark.parametrize("key, value", [("delta", 5.0), ("delta", float("nan")),
                                        ("alpha", float("nan")), ("alpha", 0.5)])
def test_bad_moment_exponent_is_usage_error(tmp_path, capsys, command, key, value):
    path = write_config(tmp_path, study={"sigma0": 0.05, "n_max": 1}, t_end=2e-4,
                        **{key: value})
    assert cli_main([command, "--config", str(path)]) == 2
    err = stderr_lines(capsys)
    assert len(err) == 1 and f"{key} must lie in" in err[0], err


@pytest.mark.parametrize("sigma0", [float("nan"), float("inf"), 0.0])
def test_stability_study_sigma0_not_finite_and_positive_is_usage_error(tmp_path, capsys,
                                                                        sigma0):
    path = write_config(tmp_path, study={"sigma0": sigma0, "n_max": 1}, t_end=2e-4)
    assert cli_main(["stability-study", "--config", str(path)]) == 2
    err = stderr_lines(capsys)
    assert len(err) == 1 and "sigma0 must be finite and positive" in err[0], err


def test_stability_study_requires_study_block(tmp_path):
    path = write_config(tmp_path)
    assert cli_main(["stability-study", "--config", str(path)]) == 2


@pytest.mark.parametrize("block", ["study", "initial"])
def test_stability_study_non_object_block_is_one_line(tmp_path, capsys, block):
    overrides = {"study": {"sigma0": 0.1, "n_max": 2}, block: 5}
    path = write_config(tmp_path, **overrides)
    assert cli_main(["stability-study", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and f"'{block}' must be a JSON object" in err[0], err


@pytest.mark.parametrize("gamma", ["1.0", "0.5", "nan", "inf"])
def test_verify_identities_gamma_not_above_one_is_one_line(capsys, gamma):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', "--gamma", gamma,
                     "--dims", "1", "--grids", "32"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and "gamma must be > 1" in err[0], err


@pytest.mark.parametrize("flag, value", [("--nu", "nan"), ("--nu", "inf"),
                                         ("--g-override", "nan"), ("--g-override", "inf")])
def test_verify_identities_non_finite_nu_or_g_override_is_one_line(capsys, flag, value):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', flag, value,
                     "--dims", "1", "--grids", "32,64"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and f"must be finite, got {value}" in err[0], err


@pytest.mark.parametrize("nu", ["0", "-0.5", "1", "1.5"])
def test_verify_identities_nu_outside_unit_interval_is_one_line(capsys, nu):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', "--nu", nu,
                     "--dims", "1", "--grids", "32,64"])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    assert f"nu must lie strictly in (0,1), got {float(nu)}" in err[0], err


@pytest.mark.parametrize("dims", ["", ","])
def test_verify_identities_without_dims_is_one_line(capsys, dims):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', "--dims", dims])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and len(err) == 1 and "--dims names no dimension" in err[0], err
    assert captured.out == ""


@pytest.mark.parametrize("command, flag", [
    ("validate-law", "--out"),
    ("verify-identities", "--out"),
    ("simulate", "--checkpoint"),
    ("simulate", "--ledger"),
    ("simulate", "--jsonl"),
    ("stability-study", "--out"),
    ("stability-study", "--ledger-dir"),
])
def test_unwritable_output_is_one_line(tmp_path, monkeypatch, capsys, command, flag):
    # every command checks its outputs before the work that fills them
    calls = []
    for name in ("run", "run_study", "validate", "run_all_identities"):
        monkeypatch.setattr(cli, name, lambda *a, name=name, **kw: calls.append(name))
    (tmp_path / "file").write_text("")
    target = tmp_path / "file" / "out"  # a regular file cannot hold it
    if command == "verify-identities":
        args = ["--law", '{"terms": [[1, 1]]}', "--dims", "1", "--grids", "32", "--nu", "0.9"]
    else:
        path = write_config(tmp_path, study={"sigma0": 0.05, "n_max": 1}, t_end=2e-4)
        args = ["--config", str(path)]
    if flag == "--jsonl":  # the ledger is writable, its JSON-lines mirror is not
        target = tmp_path / "ledger.csv.jsonl"
        target.mkdir()
        args += ["--checkpoint", str(tmp_path / "final.bdns"),
                 "--ledger", str(tmp_path / "ledger.csv"), "--jsonl"]
    else:
        args += [flag, str(target)]
    before = sorted(tmp_path.rglob("*"))
    code = cli_main([command, *args])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and f"cannot write {target}: " in err[0], err
    assert calls == [] and sorted(tmp_path.rglob("*")) == before


def _strict_json(text):
    """json.loads that rejects the NaN and Infinity tokens, which JSON lacks."""
    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_zero_viscosity_run_books_an_infinite_moment_bound_without_a_warning(tmp_path):
    # h = 0 on wet cells: the moment bound's rho^(2 gamma - delta/2) / h is
    # booked as +inf, no division by zero is taken, and the JSONL ledger
    # writes it as null
    path = write_config(tmp_path, law={"constant": 0}, allow_non_admissible=True,
                        initial={"preset": "smooth_bump", "params": {"u_amp": 0.1}})
    ledger = tmp_path / "ledger.csv"
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "bdns.cli",
                           "simulate", "--config", str(path), "--ledger", str(ledger), "--jsonl"],
                          cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and "Warning" not in proc.stderr, proc.stderr
    lines = ledger.read_text().splitlines()
    column = lines[1].split(",").index("RHS_delta_lemma32")
    assert all(row.split(",")[column] == "inf" for row in lines[2:])
    rows = [_strict_json(line) for line in (tmp_path / "ledger.csv.jsonl").read_text().splitlines()]
    assert len(rows) == len(lines) - 1
    assert all(row["RHS_delta_lemma32"] is None for row in rows[1:])


def test_partial_study_json_is_strict(tmp_path, monkeypatch):
    # a failed member's aggregated bounds are NaN in the study; its JSON says null
    from bdns import solver

    real = solver.rhs
    calls = []

    def poisoned(state, config, *, _work=None):
        calls.append(1)
        dr, dm = real(state, config, _work=_work)
        if len(calls) == 1:
            dr[1] = np.nan
        return dr, dm

    monkeypatch.setattr(solver, "rhs", poisoned)
    path = write_config(tmp_path, study={"sigma0": 0.05, "n_max": 2}, t_end=2e-4)
    out = tmp_path / "study.json"
    assert cli_main(["stability-study", "--config", str(path), "--out", str(out)]) == 1
    payload = _strict_json(out.read_text())
    per_member = payload["uniform_bounds_per_member"]
    assert payload["partial"] and all(values[1] is None for values in per_member.values())
