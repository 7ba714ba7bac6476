"""Monte Carlo benchmark of sdmimo.

Usage (from the repository root):

    python3 perfbench/run.py --workload ber-zf --seed 1 --seconds 35 --trace 0

Workloads are ``ber-zf``, ``ber-slp`` and ``scatter`` (see workloads.py
and README.md); ``--workload all`` runs the three in turn.  A run

1. times set-up in fresh interpreters (``setup_probe.py``, median of
   SETUP_REPEATS),
2. sets up in this process as a user would (config, ``build_context``,
   one ``self_check_linear_chain``) and starts timing steps right away,
   so that whatever the first steps pay after set-up is measured,
3. runs steps for ``--seconds`` seconds, checking every step's output,
4. replays the reference steps of the fixed REF_SEED and compares them
   with reference.json,
5. prints a readable summary and, as its last line, one JSON object with
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer ones: steps are traced in
alternating cycles (plus every step of the first WARMUP_S seconds), the
untraced cycles give the tracing overhead.  Every run writes its steps,
environment, check details and spans to ``.perfbench_out/``.

Threads and processes: the steps run in this one process; the set-up
probes run one at a time and are waited for.  The thread-count
variables of the BLAS and OpenMP libraries are inherited, never set, and
recorded with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from tracer import COUNTERS, SPAN_NAMES, Tracer, self_times
from workloads import (REF_SEED, SNR_DB, WORKLOADS, Workload, check_step,
                       compare_reference, reference_summary, run_step,
                       singular_channel)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 3
WARMUP_S = 1.0
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}

# per-call work computed from array shapes: span name -> (metric, unit)
WORK_COUNTS = {
    "sigma_delta.modulate": ("sigma_delta.modulate.samples", "samples/call"),
    "channel.propagate": ("channel.propagate.samples_in", "samples/call"),
    "ofdm.sample_hold": ("ofdm.sample_hold.bytes_out", "B/call"),
    "qam.dp_components": ("qam.dp_components.entries", "entries/call"),
}

SETUP_PHASES = ("import_s", "config_s", "context_s", "self_check_s")


def _snr_tag(db: float) -> str:
    return f"snr{db:g}db"


def per_layer_units() -> Dict[str, str]:
    """Name and unit of every per-layer metric, in output order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "calls/step"
        units[f"{name}.self_ms_per_step"] = "ms"
    for metric, unit in WORK_COUNTS.values():
        units[metric] = unit
    units["precoding.slp.apg_iters_mean"] = "iters"
    for db in SNR_DB:
        units[f"precoding.slp.converged_frac.{_snr_tag(db)}"] = "frac"
        units[f"precoding.slp.admm_iters_mean.{_snr_tag(db)}"] = "iters"
    for phase in SETUP_PHASES:
        units[f"setup.{phase}"] = "s"
    units["setup.import_scipy_signal_s"] = "s"
    units["setup.scipy_signal_share"] = "frac"
    units["warmup.steps"] = "count"
    units["warmup.step_ms_mean"] = "ms"
    units["warmup.channel.propagate.self_ms_per_step"] = "ms"
    units["trace.step_ms_p50"] = "ms"
    units["trace.untraced_step_ms_p50"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units["trace.accounted_frac"] = "frac"
    units["steps.timed"] = "count"
    units["steps.traced"] = "count"
    units["steps.refused_singular"] = "count"
    units["check.reference_points"] = "count"
    units["check.exact_points"] = "count"
    units["check.max_sigmas"] = "sigma"
    return units


@dataclass
class Step:
    index: int
    label: str
    ms: float
    traced: bool
    warm: bool                 # started within WARMUP_S of the end of set-up
    error: Optional[str]
    refused: bool = False      # raised on a singular channel, as documented
    snr_db: Optional[float] = None
    converged_frac: Optional[float] = None
    admm_iters: Optional[float] = None


def environment() -> dict:
    """Versions, BLAS build, processor and inherited thread settings."""
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def load_library() -> Dict[str, object]:
    """Import the package from this checkout's ``src``."""
    sys.path.insert(0, str(SRC))
    import sdmimo
    from sdmimo import config, harness, precoding, sigma_delta

    if SRC.resolve() not in Path(sdmimo.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported sdmimo from {sdmimo.__file__}, not from {SRC}")
    return {"sdmimo": sdmimo, "config": config, "harness": harness,
            "precoding": precoding, "sigma_delta": sigma_delta}


def _importtime_cumulative_s(stderr: str, module: str) -> float:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def probe_setup(doc: dict, importtime: bool = False) -> dict:
    """Set-up phases timed in a fresh interpreter."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(HERE / "setup_probe.py"), str(SRC), json.dumps(doc)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        result["import_scipy_signal_s"] = _importtime_cumulative_s(proc.stderr, "scipy.signal")
    return result


def timed_phase(wl: Workload, seed: int, seconds: float, lib: dict,
                tracer: Optional[Tracer]) -> Tuple[List[Step], float]:
    harness, config = lib["harness"], lib["config"]
    steps: List[Step] = []
    begin = time.perf_counter()
    deadline = begin + seconds
    i = 0
    while (now := time.perf_counter()) < deadline:
        warm = now - begin < WARMUP_S
        traced = tracer is not None and (warm or (i // wl.cycle) % 2 == 0)
        label, doc = wl.step(seed, i)
        if traced:
            tracer.step = i
            tracer.install()
        cfg = result = error = None
        t0 = t1 = time.perf_counter()
        try:
            cfg = config.config_from_dict(doc)
            t0 = time.perf_counter()
            result = run_step(harness, wl, cfg)
            t1 = time.perf_counter()
            error = check_step(wl, cfg, result)
        except Exception as exc:  # noqa: BLE001 - a failing step is counted, not fatal
            t1 = time.perf_counter()
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                tracer.uninstall()
        step = Step(i, label, (t1 - t0) * 1e3, traced, warm, error)
        if result is None and cfg is not None and _refused_singular(lib, cfg):
            step.error, step.refused = None, True
        elif wl.slp and error is None:
            rec = result[0]
            step.snr_db = float(rec.snr_db)
            step.converged_frac = float(rec.solver_converged_frac)
            step.admm_iters = float(rec.solver_mean_admm_iters)
        steps.append(step)
        i += 1
    return steps, time.perf_counter() - begin


def _refused_singular(lib: dict, cfg) -> bool:
    try:
        return singular_channel(lib["sdmimo"], cfg)
    except Exception:  # noqa: BLE001 - an unverifiable refusal stays a failure
        return False


def replay_reference(wl: Workload, lib: dict) -> Tuple[list, List[str]]:
    """Run the REF_SEED steps: (label, output) of each passing step, and
    the errors of the others."""
    outputs, errors = [], []
    for i in range(wl.ref_steps):
        label, doc = wl.step(REF_SEED, i)
        try:
            cfg = lib["config"].config_from_dict(doc)
            result = run_step(lib["harness"], wl, cfg)
            error = check_step(wl, cfg, result)
        except Exception as exc:  # noqa: BLE001 - a failing step is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        if error is None:
            outputs.append((label, result))
        else:
            errors.append(f"reference step {i} ({label}): {error}")
    return outputs, errors


def reference_check(wl: Workload, lib: dict) -> dict:
    """Replay the REF_SEED steps and compare them with reference.json."""
    outputs, errors = replay_reference(wl, lib)
    failed = len(errors)
    out = {"steps": wl.ref_steps, "failed_steps": failed, "points": 0, "exact": 0,
           "max_sigmas": 0.0, "failed": []}
    if failed:
        out["failed"].extend(errors)
        return out
    got = reference_summary(wl, outputs)
    try:
        ref = json.loads(REFERENCE.read_text())["workloads"][wl.name]
    except (OSError, KeyError, ValueError) as exc:
        out["failed"].append(f"no reference for {wl.name}: {exc}")
        return out
    out.update(compare_reference(wl, ref, got))
    out["got"] = got
    return out


def _p(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _completed(steps: List[Step]) -> List[Step]:
    return [s for s in steps if s.error is None and not s.refused]


def end_to_end(steps: List[Step], wall: float, probes: List[dict], ok_frac: float) -> dict:
    ms = [s.ms for s in _completed(steps)]
    return {
        "step_ms.p50": _p(ms, 50),
        "step_ms.p90": _p(ms, 90),
        "steps_per_s": len(ms) / wall,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": ok_frac,
    }


def per_layer(wl: Workload, steps: List[Step], tracer: Tracer, probes: List[dict],
              importtime_probe: dict, check: dict) -> dict:
    m = {name: 0.0 for name in per_layer_units()}
    done = _completed(steps)
    steady = {s.index for s in done if s.traced and not s.warm}
    warm = {s.index for s in done if s.warm}
    n_steady = max(len(steady), 1)
    own, roots = self_times(tracer.spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    work: Dict[str, List[float]] = {name: [] for name in COUNTERS}
    accounted = warm_propagate = 0.0
    for j, (name, _, _, _, step, count) in enumerate(tracer.spans):
        if step in warm and name == "channel.propagate":
            warm_propagate += own[j]
        if step not in steady:
            continue
        calls[name] += 1
        self_s[name] += own[j]
        if count is not None:
            work[name].append(count)
        if tracer.spans[roots[j]][0] in ("harness.run_ber", "harness.run_scatter"):
            accounted += own[j]
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = calls[name] / n_steady
        m[f"{name}.self_ms_per_step"] = self_s[name] * 1e3 / n_steady
    for name, (metric, _) in WORK_COUNTS.items():
        m[metric] = statistics.fmean(work[name]) if work[name] else 0.0

    solved = [s for s in done if s.converged_frac is not None]
    apg = work["precoding.slp_precode"]
    m["precoding.slp.apg_iters_mean"] = statistics.fmean(apg) if apg else 0.0
    for db in SNR_DB:
        at = [s for s in solved if abs(s.snr_db - db) < 1e-6]
        if at:
            tag = _snr_tag(db)
            m[f"precoding.slp.converged_frac.{tag}"] = statistics.fmean(s.converged_frac for s in at)
            m[f"precoding.slp.admm_iters_mean.{tag}"] = statistics.fmean(s.admm_iters for s in at)

    for phase in SETUP_PHASES:
        m[f"setup.{phase}"] = statistics.median(p[phase] for p in probes)
    m["setup.import_scipy_signal_s"] = importtime_probe["import_scipy_signal_s"]
    m["setup.scipy_signal_share"] = (importtime_probe["import_scipy_signal_s"]
                                     / importtime_probe["import_s"])

    warm_steps = [s.ms for s in done if s.warm]
    m["warmup.steps"] = float(len(warm_steps))
    m["warmup.step_ms_mean"] = statistics.fmean(warm_steps) if warm_steps else 0.0
    m["warmup.channel.propagate.self_ms_per_step"] = (
        warm_propagate * 1e3 / len(warm_steps) if warm_steps else 0.0)

    traced_ms = [s.ms for s in done if s.index in steady]
    untraced_ms = [s.ms for s in done if not s.traced and not s.warm]
    m["trace.step_ms_p50"] = _p(traced_ms, 50)
    m["trace.untraced_step_ms_p50"] = _p(untraced_ms, 50)
    m["trace.overhead_ms"] = m["trace.step_ms_p50"] - m["trace.untraced_step_ms_p50"]
    m["trace.accounted_frac"] = accounted * 1e3 / sum(traced_ms) if traced_ms else 0.0
    m["steps.timed"] = float(len(steps))
    m["steps.traced"] = float(len(steady))
    m["steps.refused_singular"] = float(sum(s.refused for s in steps))
    m["check.reference_points"] = float(check["points"])
    m["check.exact_points"] = float(check["exact"])
    m["check.max_sigmas"] = float(check["max_sigmas"])
    return m


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, lib: dict) -> dict:
    _, setup_doc = wl.step(seed, 0)
    probes = [probe_setup(setup_doc) for _ in range(SETUP_REPEATS)]
    importtime_probe = probe_setup(setup_doc, importtime=True) if trace else None

    # set up as a user would, then start timing at once
    ctx = lib["harness"].build_context(lib["config"].config_from_dict(setup_doc))
    lib["harness"].self_check_linear_chain(ctx)
    tracer = Tracer(lib) if trace else None
    steps, wall = timed_phase(wl, seed, seconds, lib, tracer)

    check = reference_check(wl, lib)
    attempted = len(steps) + check["steps"]
    failed = sum(s.error is not None for s in steps) + check["failed_steps"]
    if check["failed"] and not check["failed_steps"]:
        failed += check["steps"]
    ok_frac = 1.0 - failed / attempted

    if trace:
        metrics = per_layer(wl, steps, tracer, probes, importtime_probe, check)
        units = per_layer_units()
    else:
        metrics = end_to_end(steps, wall, probes, ok_frac)
        units = END_TO_END

    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "wall_s": wall, "attempted": attempted,
        "failed": failed, "metrics": metrics, "setup_probes": probes,
        "importtime_probe": importtime_probe, "check": check,
        "steps": [s.__dict__ for s in steps],
        "spans": tracer.spans if trace else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{wl.name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    _print_summary(wl, steps, wall, check, record, units)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def _print_summary(wl, steps, wall, check, record, units) -> None:
    refused = sum(s.refused for s in steps)
    failed = sum(s.error is not None for s in steps)
    print(f"== {wl.name}: {len(steps)} timed steps in {wall:.2f} s "
          f"(step = one run_{wl.kind} call): {len(steps) - refused - failed} completed, "
          f"{refused} refused on a singular channel, {failed} failed")
    print(f"   environment: {json.dumps(record['environment'])}")
    for k, v in record["metrics"].items():
        tag = " (computed)" if k in {m for m, _ in WORK_COUNTS.values()} else ""
        print(f"   {k:<48} {v:>14.6g} {units[k]}{tag}")
    print(f"   reference check (seed {REF_SEED}): {check['exact']}/{check['points']} points "
          f"exact, max deviation {check['max_sigmas']:.2f} sigma, "
          f"{len(check['failed'])} outside tolerance")
    for line in check["failed"]:
        print(f"   CHECK FAILED: {line}")
    for s in steps:
        if s.error is not None:
            print(f"   STEP FAILED: step {s.index} ({s.label}): {s.error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sdmimo" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'sdmimo'}", file=sys.stderr)
        return 2

    lib = load_library()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), lib)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
