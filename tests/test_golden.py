"""Golden CLI outputs: every committed run under ``tests/golden/`` must come
out the same from the current code, under the comparison rules of
``tests/golden/compare.py`` (text and integer columns exactly, floats at
a relative 1e-9).  A run that moves outputs by design regenerates the
files with ``python tests/golden/regenerate.py``.
"""

import importlib.util
import shutil
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"golden_{name}", GOLDEN / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regen = _load("regenerate")
compare = _load("compare")

RUN_NAMES = [regen.run_name(command, selector, scheme)
             for command, selector, scheme, _ in regen.RUNS]


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
    _, problems = compare.compare_run(GOLDEN / name, regenerated / name)
    assert not problems


@pytest.mark.parametrize("want,got,same", [
    ("1.5", "1.5000000001", True), ("1.5", "1.50000001", False),
    ("0", "1e-300", False), ("inf", "inf", True), ("nan", "nan", True), ("inf", "nan", False),
])
def test_float_comparison_bound(want, got, same):
    assert (compare.cell_difference("ber", want, got) <= compare.REL_TOL) is same


def test_integer_and_text_columns_compare_exactly():
    assert compare.cell_difference("errors", "12", "12.0") > compare.REL_TOL
    assert compare.cell_difference("scheme", "tsd1", "tsd2") > compare.REL_TOL
    assert compare.json_difference({"trials": 2}, {"trials": 2.0}) > compare.REL_TOL


def test_compare_script_reports_the_spread(tmp_path, capsys):
    # two trees that differ in one float by 2e-10 pass and report it; one
    # that differs by 2e-9 fails
    a, b = tmp_path / "a", tmp_path / "b"
    shutil.copytree(GOLDEN / "pa-curves", a / "pa-curves")
    shutil.copytree(GOLDEN / "pa-curves", b / "pa-curves")
    path = b / "pa-curves" / "pa_curves.csv"
    lines = path.read_text().splitlines(keepends=True)
    head = lines[2].split(",")
    for rel, code in ((2e-10, 0), (2e-9, 1)):
        lines[2] = ",".join([repr(float(head[0]) * (1.0 + rel))] + head[1:])
        path.write_text("".join(lines))
        assert compare.main([str(a), str(b)]) == code
        worst = float(capsys.readouterr().out.split("difference ")[1].split()[0])
        assert worst == pytest.approx(rel, rel=1e-3)
