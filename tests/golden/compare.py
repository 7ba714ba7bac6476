"""Comparison rules for golden CLI outputs, and a script that measures the
spread between two sets of them.

Text and integer columns compare exactly.  Float columns compare at a
relative ``REL_TOL`` = 1e-9, and exactly where either side is 0, infinite
or NaN: "same seed, same bytes" holds within one environment, and the
bound leaves room for a different numpy's last-digit rounding only.
``tests/test_golden.py`` applies these rules to the committed runs.

Usage (from the repository root):

    python tests/golden/compare.py A B

compares every run directory under A with the one of the same name under
B (for example the outputs of ``python tests/golden/regenerate.py --out``
on two Python versions), prints each run's largest relative float
difference and every difference the rules do not allow, and exits 1 when
there is any.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import List, Optional, Tuple

REL_TOL = 1e-9

TEXT_COLUMNS = {"scheme", "precoder", "kind"}
INT_COLUMNS = {"bits", "errors", "overloads", "failed_trials", "user", "is_r1db"}


def float_difference(a: float, b: float) -> float:
    """Relative difference of two floats: 0 when they are equal (NaN equals
    NaN), and infinite when they differ and either is 0, infinite or NaN."""
    if a == 0.0 or b == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else math.inf
    return abs(a - b) / max(abs(a), abs(b))


def cell_difference(column: str, want: str, got: str) -> float:
    """Difference of two CSV cells: exact (0 or infinite) for text, integer
    and empty cells, :func:`float_difference` for the rest."""
    if column in TEXT_COLUMNS or column in INT_COLUMNS or want == "" or got == "":
        return 0.0 if want == got else math.inf
    return float_difference(float(want), float(got))


def json_difference(want, got) -> float:
    """Largest :func:`float_difference` between two JSON documents' floats;
    infinite when their structure, types or other values differ."""
    if isinstance(want, dict):
        if not (isinstance(got, dict) and want.keys() == got.keys()):
            return math.inf
        return max((json_difference(want[k], got[k]) for k in want), default=0.0)
    if isinstance(want, list):
        if not (isinstance(got, list) and len(want) == len(got)):
            return math.inf
        return max((json_difference(a, b) for a, b in zip(want, got)), default=0.0)
    if isinstance(want, float) and isinstance(got, float):
        return float_difference(want, got)
    return 0.0 if type(want) is type(got) and want == got else math.inf


def _read_csv(path: Path) -> List[List[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _csv_differences(want_path: Path, got_path: Path) -> List[Tuple[float, str]]:
    name = want_path.name
    want, got = _read_csv(want_path), _read_csv(got_path)
    if got[0] != want[0]:
        return [(math.inf, f"{name}: header")]
    if len(got) != len(want):
        return [(math.inf, f"{name}: row count")]
    found = []
    for line, (w_row, g_row) in enumerate(zip(want[1:], got[1:]), start=2):
        if len(g_row) != len(w_row):
            found.append((math.inf, f"{name}:{line}: column count"))
            continue
        for column, w, g in zip(want[0], w_row, g_row):
            found.append((cell_difference(column, w, g), f"{name}:{line} {column}: {w} -> {g}"))
    return found


def compare_run(want_dir: Path, got_dir: Path) -> Tuple[float, List[str]]:
    """The largest relative float difference between two directories of one
    run's outputs (infinite when anything else differs), and a description
    of every difference the rules do not allow."""
    files = sorted(p.name for p in want_dir.iterdir()) if want_dir.is_dir() else []
    got_files = sorted(p.name for p in got_dir.iterdir()) if got_dir.is_dir() else []
    found = [] if got_files == files else [(math.inf, f"files {files} -> {got_files}")]
    for file in sorted(set(files) & set(got_files)):
        if file.endswith(".csv"):
            found += _csv_differences(want_dir / file, got_dir / file)
        else:
            found.append((json_difference(json.loads((want_dir / file).read_text()),
                                          json.loads((got_dir / file).read_text())), file))
    worst = max((diff for diff, _ in found), default=0.0)
    return worst, [where for diff, where in found if diff > REL_TOL]


def _run_names(root: Path) -> List[str]:
    return sorted(p.name for p in root.iterdir() if p.is_dir() and p.name != "__pycache__")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Largest relative float difference per golden run between two "
                    f"output trees; exits 1 past REL_TOL = {REL_TOL:g}.")
    parser.add_argument("a", type=Path, help="directory of run directories")
    parser.add_argument("b", type=Path, help="directory of run directories")
    args = parser.parse_args(argv)
    failed = False
    for name in sorted(set(_run_names(args.a)) | set(_run_names(args.b))):
        worst, problems = compare_run(args.a / name, args.b / name)
        print(f"{name}: largest relative difference {worst:.3g}")
        for where in problems:
            print(f"  {where}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
