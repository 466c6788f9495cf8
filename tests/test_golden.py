"""Golden CLI runs: fixed configs whose reports, exit codes and stderr must not move.

Each ``golden/<name>.json`` runs through ``restartk run --threads 1``, and
its output file, exit code and stderr are compared with ``golden/expected/``
(``<name>.status`` holds the exit code on its first line, then stderr).
Text cells, exit codes and stderr must match exactly.  Numeric cells must
match to 1e-12 relative: numpy's SIMD exp and log can differ by an ulp
between CPUs, so only a same-machine run can promise byte identity.
"""

import json
import math
from pathlib import Path

import pytest

from restartk.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
REL = 1e-12


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
