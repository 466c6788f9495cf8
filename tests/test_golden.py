"""Golden CLI runs: fixed configs whose reports, exit codes and stderr must not move.

Each ``golden/<name>.json`` runs through ``restartk run --threads 1``, and
its output file, exit code and stderr are compared with ``golden/expected/``
(``<name>.status`` holds the exit code on its first line, then stderr).
Text cells, exit codes and stderr must match exactly.  Numeric cells must
match to 1e-12 relative: numpy's SIMD exp and log can differ by an ulp
between CPUs, so only a same-machine run can promise byte identity.

Each expected output of a run that exits with 0 is also checked by the
benchmark's oracle, ``perfbench/verify.py``, where that can read it.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from restartk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12

sys.path.append(str(GOLDEN.parents[1] / "perfbench"))
import verify  # noqa: E402

# goldens whose output the oracle cannot read, and why
ORACLE_CANNOT_READ = {
    "ergodicity-bm": "its t_grid holds 0.0, where verify.py's oracle raises 'math domain error'",
    "moments-gbm-analytic": "it sets monte_carlo false and no n_paths, which verify.py reads (KeyError)",
}


def _numbers_match(got, want):
    return got == want or (math.isfinite(want) and abs(got - want) <= REL * abs(want))


def _cell_matches(got, want):
    if got == want:
        return True
    try:
        return _numbers_match(float(got), float(want))
    except ValueError:
        return False


def _json_matches(got, want):
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            _json_matches(got[k], want[k]) for k in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_json_matches, got, want))
    if type(want) is float and type(got) is float:
        return _numbers_match(got, want)
    return type(got) is type(want) and got == want


def _csv_matches(got, want):
    rows = [(g.split(","), w.split(",")) for g, w in zip(got.splitlines(), want.splitlines())]
    return len(got.splitlines()) == len(want.splitlines()) and all(
        len(g) == len(w) and all(map(_cell_matches, g, w)) for g, w in rows
    )


def _refuse_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.json")))
def test_golden_run(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("RESTARTK_SEED", raising=False)
    config = json.loads((GOLDEN / f"{name}.json").read_text())
    code = main(["run", str(GOLDEN / f"{name}.json"), "--threads", "1", "--out", str(tmp_path)])
    status = (GOLDEN / "expected" / f"{name}.status").read_text()
    want_code, want_err = status.split("\n", 1)
    assert (code, capsys.readouterr().err) == (int(want_code), want_err)

    out = config["output"]["path"]
    expected = GOLDEN / "expected" / out
    assert (tmp_path / out).exists() == expected.exists()
    if not expected.exists():
        return
    got, want = (tmp_path / out).read_text(), expected.read_text()
    if config["output"]["format"] == "json":
        # strict JSON: no report writes a NaN or Infinity token
        assert _json_matches(json.loads(got, parse_constant=_refuse_constant), json.loads(want)), got
    else:
        assert _csv_matches(got, want), got


@pytest.mark.parametrize("name", sorted(
    p.stem for p in GOLDEN.glob("*.json") if (GOLDEN / "expected" / f"{p.stem}.status").read_text()[:2] == "0\n"
))
def test_golden_output_meets_the_benchmark_oracle(name):
    if name in ORACLE_CANNOT_READ:
        pytest.skip(ORACLE_CANNOT_READ[name])
    config = json.loads((GOLDEN / f"{name}.json").read_text())
    assert verify.check(config, 0, (GOLDEN / "expected" / config["output"]["path"]).read_bytes()) == []
