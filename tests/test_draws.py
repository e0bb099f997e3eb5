"""bdns's seeded draws against numpy's ``default_rng``, which they reproduce."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bdns import diagnostics, identities
from bdns._draws import _Draws

# small seeds, and seeds of one, two, four and five 32-bit words: the fifth
# word is mixed in past the pool of four
SEEDS = [*range(300), 2**32 - 1, 2**32, 2**63 + 5, 2**127 + 3, 10**40]


def _pair(seed):
    return np.random.default_rng(seed), _Draws(seed)


def test_uniform_draws_are_numpys():
    for seed in SEEDS:
        ref, ours = _pair(seed)
        for low, high in [(0.4, 1.0), (0.0, 2.0 * np.pi), (-3, 5)]:
            a, b = ref.uniform(low, high), ours.uniform(low, high)
            assert type(b) is float and a.hex() == b.hex(), seed
            a, b = ref.uniform(low, high, size=3), ours.uniform(low, high, size=3)
            assert b.dtype == np.float64 and a.tobytes() == b.tobytes(), seed


# (low, high): one range, one branch of numpy's int64 bounded draws each
BRANCHES = {
    "one-value": (4, 5),  # no draw at all
    "lemire-32": (-2, 3),  # the wave vectors' range
    "lemire-32-rejecting": (0, 3 * 2**30),  # a quarter of the draws rejected
    "range-2**32-1": (5, 5 + 2**32),  # bare 32-bit draws
    "lemire-64": (-7, 2**40),
    "lemire-64-rejecting": (0, 3 * 2**61),  # a quarter of the draws rejected
    "all-of-int64": (-2**63, 2**63),
}


@pytest.mark.parametrize("low, high", BRANCHES.values(), ids=BRANCHES.keys())
def test_integer_draws_are_numpys(low, high):
    # an odd count of 32-bit draws leaves a half of a 64-bit draw pending,
    # which the uniform draws between them must not take
    for seed in SEEDS:
        ref, ours = _pair(seed)
        for _ in range(4):
            a, b = ref.integers(low, high, size=3), ours.integers(low, high, size=3)
            assert b.dtype == np.int64 and a.tolist() == b.tolist(), seed
            assert ref.uniform(0.0, 1.0) == ours.uniform(0.0, 1.0), seed


@pytest.mark.parametrize("call, error", [
    (lambda make: make(-1), ValueError),
    (lambda make: make(1.5), TypeError),
    (lambda make: make(0).integers(0, 3, size=-1), ValueError),
    (lambda make: make(0).uniform(0.0, 1.0, size=-1), ValueError),
    (lambda make: make(0).integers(-2**63 - 1, 0, size=1), ValueError),
    (lambda make: make(0).integers(0, 2**63 + 1, size=1), ValueError),
    (lambda make: make(0).integers(3, 3, size=1), ValueError),
], ids=["negative-seed", "float-seed", "negative-integers-size", "negative-uniform-size",
        "low-below-int64", "high-above-int64", "empty-range"])
def test_draws_refuse_what_numpy_refuses(call, error):
    with pytest.raises(error):
        call(np.random.default_rng)
    with pytest.raises(error):
        call(_Draws)


def test_field_generators_draw_numpys_fields(monkeypatch):
    def fields():
        return [(identities.manufactured_field(dim, seed=seed),
                 identities.gradient_flow_field(dim, seed=seed),
                 [f.modes for f in diagnostics.make_test_fields(dim, 1.0, seed=seed)])
                for seed in range(51) for dim in (1, 2)]

    ours = fields()
    for module in (diagnostics, identities):
        monkeypatch.setattr(module, "_Draws", np.random.default_rng)
    # repr of a float is exact: equal text is equal bits
    assert repr(ours) == repr(fields())


def test_no_bdns_path_imports_numpy_random():
    code = """
import contextlib, io, sys
import bdns
from bdns.cli import cli_main
from bdns.diagnostics import make_test_fields
with contextlib.redirect_stdout(io.StringIO()):
    assert cli_main(["verify-identities", "--law", '{"terms": [[1, 1]]}']) == 0
make_test_fields(2, 1.0, seed=11)
print(sorted({"numpy.random", "secrets", "hashlib"} & set(sys.modules)))
"""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
