"""Golden CLI outputs: every committed run under ``tests/golden/`` must come
out the same from the current code.

Text and integer columns compare exactly.  Float columns compare at a
relative 1e-9, and exactly where either side is 0, infinite or NaN:
"same seed, same bytes" holds within one environment, and the bound
leaves room for a different numpy's last-digit rounding only.  A run
that moves outputs by design regenerates the files with
``python tests/golden/regenerate.py``.
"""

import csv
import importlib.util
import json
import math
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
REL_TOL = 1e-9

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

TEXT_COLUMNS = {"scheme", "precoder", "kind"}
INT_COLUMNS = {"bits", "errors", "overloads", "failed_trials", "user", "is_r1db"}
RUN_NAMES = [regen.run_name(command, selector, scheme)
             for command, selector, scheme, _ in regen.RUNS]


def _floats_match(a: float, b: float) -> bool:
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _cells_match(column: str, want: str, got: str) -> bool:
    if column in TEXT_COLUMNS or column in INT_COLUMNS or want == "" or got == "":
        return want == got
    return _floats_match(float(want), float(got))


def _json_match(want, got) -> bool:
    if isinstance(want, dict):
        return (isinstance(got, dict) and want.keys() == got.keys()
                and all(_json_match(want[k], got[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(want) == len(got)
                and all(_json_match(a, b) for a, b in zip(want, got)))
    if isinstance(want, float) and isinstance(got, float):
        return _floats_match(want, got)
    return type(want) is type(got) and want == got


def _compare_csv(want_path: Path, got_path: Path) -> None:
    with want_path.open(newline="") as fh:
        want = list(csv.reader(fh))
    with got_path.open(newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == want[0], f"{want_path.name}: header"
    assert len(got) == len(want), f"{want_path.name}: row count"
    for line, (w_row, g_row) in enumerate(zip(want[1:], got[1:]), start=2):
        assert len(g_row) == len(w_row), f"{want_path.name}:{line}: column count"
        for column, w, g in zip(want[0], w_row, g_row):
            assert _cells_match(column, w, g), f"{want_path.name}:{line} {column}: {w} -> {g}"


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    regen.regenerate(out)
    return out


def test_golden_runs_are_all_committed():
    committed = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir() and p.name != "__pycache__")
    assert committed == sorted(RUN_NAMES)


@pytest.mark.parametrize("name", RUN_NAMES)
def test_outputs_match_golden(regenerated, name):
    want_dir, got_dir = GOLDEN / name, regenerated / name
    files = sorted(p.name for p in want_dir.iterdir())
    assert sorted(p.name for p in got_dir.iterdir()) == files
    for file in files:
        if file.endswith(".csv"):
            _compare_csv(want_dir / file, got_dir / file)
        else:
            assert _json_match(json.loads((want_dir / file).read_text()),
                               json.loads((got_dir / file).read_text())), file


@pytest.mark.parametrize("want,got,same", [
    ("1.5", "1.5000000001", True), ("1.5", "1.50000001", False),
    ("0", "1e-300", False), ("inf", "inf", True), ("nan", "nan", True), ("inf", "nan", False),
])
def test_float_comparison_bound(want, got, same):
    assert _cells_match("ber", want, got) is same


def test_integer_and_text_columns_compare_exactly():
    assert not _cells_match("errors", "12", "12.0")
    assert not _cells_match("scheme", "tsd1", "tsd2")
    assert not _json_match({"trials": 2}, {"trials": 2.0})
