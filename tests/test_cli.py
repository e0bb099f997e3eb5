import itertools
import json
import os
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from bdns import _json, cli, config, viscosity
from bdns.cli import cli_main
from bdns.grid import PeriodicGrid, State, load_checkpoint, save_checkpoint


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


@pytest.mark.parametrize("text", [b'{"cfl": 1' + b"0" * 5000 + b"}", b'{"law": "\xff"}'],
                         ids=["integer-beyond-str-limit", "not-utf-8"])
def test_config_that_json_cannot_read_is_one_line(tmp_path, capsys, text):
    # json.load raises a ValueError that is no JSONDecodeError for both
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    assert cli_main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: bad config: "), err


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


@pytest.mark.parametrize("law, text", [
    ('{"terms": [["1", true]]}', "law: 'terms' must be a list of [number, number] pairs"),
    ('{"terms": [[1, 1]], "constant": 1}', "law: give exactly one of 'terms' and 'constant'"),
    ('{"terms": [[1, 1]], "termz": 3}', "law: unknown key 'termz'"),
])
def test_verify_identities_reads_the_law_as_run_configs_do(capsys, law, text):
    # the strings and the bool are no numbers, and a constant beside terms
    # does not silently win: the same reader as the run config's law block
    assert cli_main(["verify-identities", "--law", law, "--grids", "32"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("usage error: bad --law: ") and text in err[0], err


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


@pytest.mark.parametrize("command", ["validate-law", "simulate"])
@pytest.mark.parametrize("dim", [1e300, 10**30, 3, 0, -1])
def test_dim_other_than_one_or_two_is_one_line(tmp_path, capsys, command, dim):
    # refused before the grid's sizes are built: a dim of 1e300 overflowed
    # building them, with a traceback
    path = write_config(tmp_path, name="bad.json", dim=dim)
    code = cli_main([command, "--config", str(path)])
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    assert f"'dim' must be 1 or 2, got {dim!r}" in err[0], err


@pytest.mark.parametrize("key, value", [("allow_non_admissible", "false"), ("dim", True),
                                        ("ledger_stride", True), ("cfl", "0.4"),
                                        ("t_end", "0.001")])
def test_config_value_of_the_wrong_json_type_is_one_line(tmp_path, capsys, key, value):
    # no bool counts as a number and no string as a number or a bool: the
    # string "false" does not turn the validation override on
    assert repr(key) in simulate_usage_error(tmp_path, capsys, **{key: value})


BIG = 10**401  # a JSON integer beyond the float range


@pytest.mark.parametrize("overrides, text", [
    ({"limitter": "none"}, "unknown key 'limitter'"),
    ({"law": {"terms": [["1.0", True]]}}, "law: 'terms' must be"),
    ({"law": {"terms": [[1, 1]], "constant": 1}},
     "law: give exactly one of 'terms' and 'constant'"),
    ({"law": {"terms": [[1, 1]], "termz": 3}}, "law: unknown key 'termz'"),
    ({"cfl": BIG}, "'cfl' is beyond the float range"),
    ({"initial": {"preset": "smooth_bump", "params": {"amp": "0.2"}}},
     "initial.params: 'amp' must be a number, got '0.2'"),
    ({"initial": {"preset": "smooth_bump", "params": {"amp": True}}},
     "initial.params: 'amp' must be a number, got True"),
    ({"initial": {"preset": "smooth_bump", "parms": {"amp": 5.0}}},
     "initial: unknown key 'parms'"),
    ({"initial": {"preset": "smooth_bump", "checkpoint": "x.bdns"}},
     "initial: give exactly one of 'preset' and 'checkpoint'"),
    ({"initial": {"checkpoint": 2}}, "initial: 'checkpoint' must be a string, got 2"),
    ({"study": {"sigma": 0.5}}, "study: unknown key 'sigma'"),
    ({"lengths": 2.0}, "'lengths' must be a list of numbers, got 2.0"),
], ids=["top-unknown", "law-types", "law-both", "law-unknown", "cfl-overflow",
        "params-string", "params-bool", "initial-unknown", "initial-both",
        "checkpoint-type", "study-unknown", "lengths-type"])
def test_config_that_the_declaration_refuses_exits_2_naming_the_key(tmp_path, overrides, text):
    # each block rejects an unknown key, a value of the wrong JSON type and a
    # second of two exclusive keys; in a process of its own, as a checkpoint
    # path of 2 would open stderr's file descriptor and close it
    path = write_config(tmp_path, name="bad.json", cells=32, **overrides)
    code, err = run_module("simulate", "--config", str(path))
    assert code == 2 and len(err) == 1 and text in err[0], err


def test_simulate_refuses_an_integrator_other_than_ssp_rk2(tmp_path, capsys):
    # RK4 was removed: a config that asks for it exits 2, rather than run
    # another scheme without a word
    err = simulate_usage_error(tmp_path, capsys, integrator="RK4")
    assert "'RK2_SSP'" in err and "'RK4'" in err, err


def test_readme_table_is_the_declaration():
    # the README's run-config table lists every key of every declared block,
    # nested keys dotted, with its JSON kind and its default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme[readme.index("| Key | Type | Default | Meaning |"):].splitlines()[2:]
    rows = [line.split(" | ", 3) for line in itertools.takewhile(lambda l: l.startswith("|"), table)]
    in_readme = {key.strip("|` "): (kind, default.strip("`")) for key, kind, default, _ in rows}

    def shown(default):
        if default is _json.REQUIRED:
            return "required"
        return default if isinstance(default, _json.SameAs) else json.dumps(default)

    blocks = {"": config.TOP, "law.": viscosity.LAW, "initial.": config.INITIAL,
              "study.": config.STUDY}
    declared = {prefix + key: (kind, shown(default))
                for prefix, block in blocks.items() for key, ((kind, _), default) in block.items()}
    assert in_readme == declared


def _script(path: Path, monkeypatch):
    """A repo script as a module, compiled from its text so that nothing is
    written beside it."""
    module = types.ModuleType(f"_shipped_{path.stem}")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _shipped_configs(monkeypatch, tmp_path):
    root = Path(__file__).resolve().parents[1]
    tools = _script(root / "tools" / "count_step_calls.py", monkeypatch)
    workloads = _script(root / "benchmarks" / "workloads.py", monkeypatch)
    readme = (root / "README.md").read_text()
    example = readme[readme.index("A run config is a JSON object:"):].split("```")[1]
    configs = {"VACUUM1D_256": tools.VACUUM1D_256, "SV2D_128": tools.SV2D_128,
               "write_config": json.loads(write_config(tmp_path).read_text()),
               "README": json.loads(example.removeprefix("json"))}
    for name, workload in workloads.WORKLOADS.items():
        for seed in (0, 3):
            inputs = workload.inputs(seed)
            for i, entry in enumerate(inputs.get("laws", [inputs])):
                configs[f"{name}[{seed}][{i}]"] = entry["config"]
    return configs


def test_every_shipped_run_config_parses(monkeypatch, tmp_path):
    # the run configs of the tools, the benchmark, these tests and the README
    # need no key the declaration lacks; the keys they give are the values run
    configs = _shipped_configs(monkeypatch, tmp_path)
    assert len(configs) == 4 + 2 * (1 + 1 + 1 + 3)
    for name, obj in configs.items():
        setup = config.parse_config(obj)
        solver_config = setup.config
        for key, value in obj.items():
            if key in config._SOLVER:
                assert getattr(solver_config, key) == value, (name, key)
        assert solver_config.grid.dim == obj["dim"] and solver_config.params.nu == obj["nu"]
        assert (setup.study is None) == ("study" not in obj), name


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
    ({"limiter": "superbee"}, "limiter must be one of ('mc', 'minmod', 'van_albada', 'none'), "
                              "got 'superbee'"),
    ({"ledger_stride": 0}, "ledger_stride must be >= 1, got 0"),
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


@pytest.mark.parametrize("preset, params, text", [
    ("smooth_bump", {"width": 0}, "'width' must be positive, got 0.0"),
    ("vacuum_bump", {"width": -0.25}, "'width' must be positive, got -0.25"),
    ("smooth_bump", {"width": float("nan")}, "'width' must be finite, got nan"),
    ("vacuum_bump", {"center": float("inf")}, "'center' must be finite, got inf"),
    ("smooth_bump", {"amp": float("nan")}, "'amp' must be finite, got nan"),
    ("smooth_bump", {"u_mean": -float("inf")}, "'u_mean' must be finite, got -inf"),
    ("constant", {"u0": [1.0, 2.0, 3.0]}, "'u0' must have 1 or dim = 1 components, got 3"),
], ids=["width-zero", "width-negative", "width-nan", "center-inf", "amp-nan", "mean-inf",
        "u0-length"])
def test_preset_parameter_that_builds_no_state_is_one_line(tmp_path, capsys, preset, params,
                                                            text):
    # the reader takes JSON NaN and Infinity as numbers: a width that is not
    # positive, a non-finite number or a u0 of the wrong length would build a
    # flat, dry or non-finite state, or fail in numpy's words
    err = simulate_usage_error(tmp_path, capsys, cells=32,
                               initial={"preset": preset, "params": params})
    assert f"initial.params: {text}" in err, err


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


@pytest.mark.parametrize("dims", ["0", "1,0", "3"])
def test_verify_identities_dimension_other_than_one_or_two_is_one_line(dims):
    # in a process of its own: a wave vector of no entries was redrawn forever
    code, err = run_module("verify-identities", "--law", '{"terms": [[1, 1]]}', "--dims", dims,
                           "--grids", "32,64")
    assert code == 2 and len(err) == 1, err
    assert err[0].startswith("usage error: cannot certify in ") and "dim must be 1 or 2" in err[0]


@pytest.mark.parametrize("seed", ["-5", "-1"])
def test_verify_identities_negative_seed_is_one_line(capsys, seed):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', "--dims", "1",
                     "--grids", "32,64", "--seed", seed])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    assert f"--seed must be a non-negative integer, got {seed}" in err[0], err
    assert captured.out == ""


@pytest.mark.parametrize("grids, text", [("x", "bad --dims/--grids"),
                                         ("64,32", "strictly increasing")])
def test_verify_identities_bad_grids_is_one_line(capsys, grids, text):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', "--dims", "1",
                     "--grids", grids])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and len(err) == 1 and text in err[0], err
    assert captured.out == ""


@pytest.mark.parametrize("flag, value, text", [
    ("--gamma", "-inf", "argument --gamma: expected one argument"),
    ("--g-override", "-inf", "argument --g-override: expected one argument"),
    ("--grids", "-32,64", "argument --grids: expected one argument"),
    ("--seed", "1e3", "argument --seed: invalid int value: '1e3'"),
], ids=["gamma", "g-override", "grids", "seed"])
def test_verify_identities_flag_argparse_refuses_is_one_line(capsys, flag, value, text):
    code = cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}', flag, value])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and err == [f"usage error: bdns verify-identities: {text}"], err
    assert captured.out == ""


@pytest.mark.parametrize("argv, text", [
    ([], "bdns: the following arguments are required: command"),
    (["simulate"], "bdns simulate: the following arguments are required: --config"),
    (["simulate", "--config", "x.json", "--bogus"], "bdns: unrecognized arguments: --bogus"),
    (["frobnicate"], "bdns: argument command: invalid choice: 'frobnicate'"),
], ids=["no-command", "no-config", "unknown-flag", "unknown-command"])
def test_every_argparse_refusal_is_one_line(capsys, argv, text):
    code = cli_main(argv)
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2 and len(err) == 1 and err[0].startswith(f"usage error: {text}"), err


def test_help_still_prints_argparse_usage(capsys):
    assert cli_main(["verify-identities", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: bdns verify-identities")


@pytest.mark.parametrize("args, code", [
    (["--gamma", "1e300"], 1),
    (["--law", '{"terms": [[1e300, 1]]}'], 1),
    (["--law", '{"terms": [[1, 1e300]]}'], 2),
], ids=["gamma-1e300", "coefficient-1e300", "exponent-1e300"])
def test_verify_identities_finite_extreme_inputs_warn_nothing(capsys, args, code):
    # the terms overflow to inf and NaN: the verdict fails on them, silently
    argv = ["verify-identities", "--law", '{"terms": [[1, 1]]}', *args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == code
    assert [str(w.message) for w in caught] == []
    captured = capsys.readouterr()
    if code == 1:
        assert "FAIL" in captured.out and captured.err == ""
    else:
        assert captured.err.strip().splitlines() == [
            "usage error: cannot certify in 1D: law admits no feasible nu; pass one explicitly"]


def test_simulate_jsonl_without_ledger_is_usage_error(tmp_path, capsys, monkeypatch):
    # the JSONL file mirrors the CSV ledger: without --ledger it has no path
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path)
    code = cli_main(["simulate", "--config", str(path), "--jsonl"])
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert code == 2 and len(err) == 1, err
    assert "--jsonl" in err[0] and "--ledger" in err[0], err
    assert captured.out == "" and sorted(os.listdir(tmp_path)) == ["run.json"]


def test_cells_list_of_another_length_than_dim_is_usage_error(tmp_path, capsys):
    err = simulate_usage_error(tmp_path, capsys, cells=[32, 32])
    assert "cells [32, 32] does not match dim 1" in err


@pytest.mark.parametrize("extra", [{"initial": {"params": {"amp": 0.2}}},
                                   {"study": {"sigma0": 0.05}}], ids=["params", "study"])
def test_checkpoint_initial_state_with_params_or_study_is_usage_error(tmp_path, capsys, extra):
    ck = saved_checkpoint(tmp_path)
    initial = {"checkpoint": str(ck), **extra.get("initial", {})}
    err = simulate_usage_error(tmp_path, capsys, initial=initial,
                               **{k: v for k, v in extra.items() if k != "initial"})
    assert "need a preset, not a checkpoint" in err


def test_checkpoint_of_another_grid_is_usage_error(tmp_path, capsys):
    ck = saved_checkpoint(tmp_path)  # a 64-cell grid
    err = simulate_usage_error(tmp_path, capsys, cells=32, initial={"checkpoint": str(ck)})
    assert "checkpoint grid (64,) does not match config grid (32,)" in err


def test_checkpoint_of_other_lengths_names_them(tmp_path, capsys):
    ck = tmp_path / "tiny.bdns"
    save_checkpoint(ck, State(0.0, np.ones(16), np.zeros((1, 16))), PeriodicGrid((16,), (1e-320,)))
    err = simulate_usage_error(tmp_path, capsys, cells=16, lengths=[1e300],
                               initial={"checkpoint": str(ck)})
    assert err == ("usage error: bad config: checkpoint grid (16,) does not match config grid "
                   "(16,): lengths (1e-320,) against (1e+300,)")


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
