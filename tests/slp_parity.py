"""Decision parity of the symbol-level solver between two source trees.

Usage (from the repository root):

    python tests/slp_parity.py PARENT_SRC CHANGE_SRC [--config FILE]
                               [--seed N] [--trials N]

Each ``*_SRC`` is a directory holding the ``sdmimo`` package (a
checkout's ``src``).  For each tree a fresh interpreter runs the BER
experiment of ``--config`` (default ``configs/ber_desk.json``) under the
``slp-tsd`` selector, with the given seed and trial count (default: the
config's), and records the diagnostics of every ``harness.slp_precode``
call, as ``tests/test_precoding.py::test_slp_decisions_match_recorded_solves``
does, together with every field of each noise point's ``MetricRecord``.

The script prints the largest relative difference of each float
diagnostic over the solves, and exits 1 when the solve count, any
solve's iteration counts or ``converged`` flag, or any field of any
noise point's record differs between the trees.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
DEFAULT_CONFIG = HERE.parent / "configs" / "ber_desk.json"

DECISIONS = ("apg_iterations", "admm_iterations", "converged")
FLOATS = ("objective", "best_objective", "residual_sq")


def experiment_doc(config: str, selector: str, seed: Optional[int],
                   trials: Optional[int]) -> dict:
    """The experiment document of `config` under `selector`, without the
    self-check, with the given seed and trial count (default: the
    config's)."""
    doc = json.loads(Path(config).read_text())
    run = {**doc.get("run", {}), "self_check": False}
    if seed is not None:
        run["seed"] = seed
    if trials is not None:
        run["trials"] = trials
    doc.update(scheme="auto", precoder={**doc.get("precoder", {}), "name": selector}, run=run)
    return doc


def run_in_tree(src: Path, module: str, func: str, *args) -> dict:
    """``module.func(*args)`` of this directory in a fresh interpreter that
    imports ``sdmimo`` from `src`; `args` and the result, a dict whose
    ``"module"`` names the ``sdmimo`` module it used, pass as JSON."""
    code = ("import importlib, json, sys; sys.path[:0] = sys.argv[1:3]; "
            "f = getattr(importlib.import_module(sys.argv[3]), sys.argv[4]); "
            "print(json.dumps(f(*map(json.loads, sys.argv[5:]))))")
    out = subprocess.run(
        [sys.executable, "-c", code, str(src), str(HERE), module, func,
         *map(json.dumps, args)],
        check=True, capture_output=True, text=True).stdout
    rec = json.loads(out.splitlines()[-1])
    if src.resolve() not in Path(rec["module"]).resolve().parents:
        raise RuntimeError(f"imported sdmimo from {rec['module']}, not from {src}")
    return rec


def record(config: str, seed: Optional[int], trials: Optional[int]) -> dict:
    """Run the `slp-tsd` experiment of `config` with the importable
    ``sdmimo``; returns every solve's diagnostics, in call order, and each
    noise point's record."""
    from sdmimo import harness
    from sdmimo.config import config_from_dict

    doc = experiment_doc(config, "slp-tsd", seed, trials)
    solves = []
    real = harness.slp_precode

    def recorded(*args, **kwargs):
        res = real(*args, **kwargs)
        solves.append(res.diagnostics)
        return res

    harness.slp_precode = recorded
    try:
        records = harness.run_ber(config_from_dict(doc))
    finally:
        harness.slp_precode = real
    return {"module": harness.__file__, "solves": solves,
            "points": [dataclasses.asdict(rec) for rec in records]}


def record_tree(src: Path, config: str, seed: Optional[int], trials: Optional[int]) -> dict:
    """:func:`record` in a fresh interpreter that imports ``sdmimo`` from `src`."""
    return run_in_tree(src, "slp_parity", "record", config, seed, trials)


def _relative(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))


def compare(parent: dict, change: dict) -> Tuple[List[str], bool]:
    """Report lines for two records, and whether every decision and every
    noise point's record agrees."""
    ps, cs = parent["solves"], change["solves"]
    lines = [f"solves: {len(ps)} parent, {len(cs)} change"]
    same = len(ps) == len(cs)
    pairs = list(zip(ps, cs))
    for key in FLOATS:
        diffs = [_relative(p[key], c[key]) for p, c in pairs]
        moved = sum(d > 0 for d in diffs)
        lines.append(f"{key}: largest relative difference {max(diffs, default=0.0):.3g} "
                     f"({moved} of {len(pairs)} solves differ)")
    changed = [i for i, (p, c) in enumerate(pairs) if any(p[k] != c[k] for k in DECISIONS)]
    lines.append(f"decisions ({', '.join(DECISIONS)}): {len(changed)} solves differ"
                 + (f", first at solve {changed[0]}" if changed else ""))
    points = [(p["snr_db"], key, p[key], c[key])
              for p, c in zip(parent["points"], change["points"]) for key in p
              if p[key] != c[key]]
    for snr, key, p_val, c_val in points:
        lines.append(f"point {snr:g} dB: {key} {p_val} -> {c_val}")
    same = (same and not changed and not points
            and len(parent["points"]) == len(change["points"]))
    lines.append("decisions and records identical" if same else "DECISIONS OR RECORDS DIFFER")
    return lines, same


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the symbol-level solver's decisions between two source trees.")
    parser.add_argument("parent", type=Path, help="directory holding the parent's sdmimo")
    parser.add_argument("change", type=Path, help="directory holding the change's sdmimo")
    parser.add_argument("--config", default=str(DEFAULT_CONFIG), help="experiment JSON")
    parser.add_argument("--seed", type=int, default=None, help="master seed (default: config's)")
    parser.add_argument("--trials", type=int, default=None, help="trials (default: config's)")
    args = parser.parse_args(argv)
    parent, change = (record_tree(src, args.config, args.seed, args.trials)
                      for src in (args.parent, args.change))
    lines, same = compare(parent, change)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
