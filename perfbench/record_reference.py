"""Record reference.json: the summarized outputs of every workload's
reference steps (seed REF_SEED), against which each benchmark run checks
its own replay.

Usage (from the repository root): python3 perfbench/record_reference.py
"""

import json
import sys

from run import REFERENCE, load_library, replay_reference
from workloads import REF_SEED, WORKLOADS, reference_summary


def main() -> int:
    lib = load_library()
    doc = {"seed": REF_SEED, "workloads": {}}
    for wl in WORKLOADS.values():
        outputs, errors = replay_reference(wl, lib)
        if errors:
            print("\n".join(errors), file=sys.stderr)
            return 1
        doc["workloads"][wl.name] = reference_summary(wl, outputs)
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
