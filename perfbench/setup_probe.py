"""Set-up cost of one fresh interpreter: ``import sdmimo``, config parse,
``harness.build_context`` and one ``harness.self_check_linear_chain``.

Usage: python3 setup_probe.py <src dir> <experiment JSON>

Prints one JSON object with the seconds of each phase.  Run it under
``python3 -X importtime`` to also get the ``scipy.signal`` import share
(parsed by the caller from standard error).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, doc_text = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import sdmimo  # noqa: F401
    from sdmimo import harness
    from sdmimo.config import config_from_dict
    t_import = time.perf_counter()
    cfg = config_from_dict(json.loads(doc_text))
    t_config = time.perf_counter()
    ctx = harness.build_context(cfg)
    t_context = time.perf_counter()
    harness.self_check_linear_chain(ctx)
    t_check = time.perf_counter()
    print(json.dumps({
        "import_s": t_import - T0,
        "config_s": t_config - t_import,
        "context_s": t_context - t_config,
        "self_check_s": t_check - t_context,
        "setup_s": t_check - T0,
        "module": sdmimo.__file__,
    }))


if __name__ == "__main__":
    main()
