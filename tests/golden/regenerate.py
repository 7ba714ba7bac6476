"""Regenerate the golden CLI outputs that ``tests/test_golden.py`` compares
against.

Usage (from the repository root):

    python tests/golden/regenerate.py [--out DIR]

Every run goes through :func:`sdmimo.cli.cmd_dispatch` at the tiny scale
of ``tests/test_harness.py`` (N=4, K=2, M=64, m_s=40, 2 trials, three
noise points).  Each run writes its CLI outputs into a directory of its
own under ``--out`` (default: this directory), with ``manifest.json``
stripped of its two timestamps.  A change that moves outputs by design
reruns this script and says why in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Tuple

GOLDEN_DIR = Path(__file__).resolve().parent

_SELECTORS = ("zf-sd", "zf-tsd", "zf-bo", "zf-tp", "zf-ref",
              "slp-sd", "slp-tsd", "slp-bo", "slp-ref")
# (command, selector, scheme, extra CLI arguments)
RUNS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    *(("ber", name, "auto", ()) for name in _SELECTORS),
    ("ber", "zf-sd", "none", ()),
    ("ber", "zf-tsd", "tsd2", ()),
    ("ber", "zf-tp", "sd1", ()),        # total power through sd1: overloads
    ("scatter", "zf-tsd", "auto", ()),
    ("scatter", "slp-tsd", "auto", ()),
    ("shaping-spectrum", "zf-tsd", "auto", ()),
    ("shaping-spectrum", "zf-sd", "sd2", ()),   # a second-order loop's distortion
    ("pa-curves", "zf-tsd", "auto", ("--points", "64")),
)

_TIMESTAMPS = ("started_utc", "finished_utc")


def experiment_doc(command: str, selector: str, scheme: str) -> dict:
    return {
        "system": {"n": 4, "k": 2, "m": 64, "m_s": 40, "qam_d": 2},
        "pa": {"kind": "modified_rapp"},
        "precoder": {"name": selector},
        "scheme": scheme,
        "noise": {"inv_sigma_v2_db": [10.0, 20.0, 30.0]},
        "run": {"trials": 2, "blocks_per_trial": 3 if command == "scatter" else 1,
                "seed": 99, "self_check": False, "spectrum_frames": 20,
                "spectrum_samples": 128, "spectrum_angles_deg": [0.0, 10.0, 20.0, 30.0]},
    }


def run_name(command: str, selector: str, scheme: str) -> str:
    if command == "pa-curves":
        return command
    return "-".join([command, selector] + ([] if scheme == "auto" else [scheme]))


def regenerate(out: Path) -> None:
    """Write every golden run under `out`, one directory per run."""
    from sdmimo.cli import cmd_dispatch

    with tempfile.TemporaryDirectory() as tmp:
        for command, selector, scheme, extra in RUNS:
            name = run_name(command, selector, scheme)
            config = Path(tmp) / f"{name}.json"
            config.write_text(json.dumps(experiment_doc(command, selector, scheme)))
            run_dir = out / name
            code = cmd_dispatch([command, "--config", str(config), "--out", str(run_dir),
                                 *extra])
            if code != 0:
                raise RuntimeError(f"golden run {name} exited {code}")
            manifest = run_dir / "manifest.json"
            doc = json.loads(manifest.read_text())
            for key in _TIMESTAMPS:
                doc.pop(key)
            manifest.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN_DIR,
                        help="directory to write the runs into (default: %(default)s)")
    args = parser.parse_args(argv)
    # the package source of this checkout, ahead of any installed copy
    sys.path.insert(0, str(GOLDEN_DIR.parents[1] / "src"))
    regenerate(args.out)     # cmd_dispatch prints each file it writes
    return 0


if __name__ == "__main__":
    sys.exit(main())
