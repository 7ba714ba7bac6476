"""Span tracing of the library's layers from outside the package.

The tracer replaces module attributes with timing wrappers, under the
names by which the calling module looks the function up (``harness``
calls ``propagate`` through ``sdmimo.harness.propagate``, ``precoding``
calls ``dp_components`` through ``sdmimo.precoding.dp_components``, and
so on), and restores the originals on :meth:`Tracer.uninstall`.  Spans
are kept in memory as ``(name, start, end, parent, step, count)`` tuples
and written out by the caller when the run ends.

A span's self time is its duration minus the durations of its direct
children; the wrappers nest strictly because the program is single
threaded.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# (module, attribute, span name): one row per place a layer function is
# looked up.  Attributes a later version of the package no longer has are
# skipped, so the span then reports zero calls.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("config", "config_from_dict", "config.config_from_dict"),
    ("harness", "run_ber", "harness.run_ber"),
    ("harness", "run_scatter", "harness.run_scatter"),
    ("harness", "build_context", "harness.build_context"),
    ("harness", "draw_channel", "channel.draw_channel"),
    ("harness", "propagate", "channel.propagate"),
    ("harness", "psi_hat_calibrated", "channel.psi_hat_calibrated"),
    ("harness", "distortion_noise_power", "channel.distortion_noise_power"),
    ("harness", "zf_precode", "precoding.zf_precode"),
    ("precoding", "zf_precode", "precoding.zf_precode"),
    ("harness", "slp_precode", "precoding.slp_precode"),
    ("precoding", "dp_components", "qam.dp_components"),
    ("harness", "detect", "qam.detect"),
    ("harness", "symbols_to_bits_errors", "qam.symbols_to_bits_errors"),
    ("harness", "modulate", "sigma_delta.modulate"),
    ("harness", "count_overloads", "sigma_delta.count_overloads"),
    ("sigma_delta", "count_overloads", "sigma_delta.count_overloads"),
    ("harness", "apply_pa", "pa.apply_pa"),
    ("sigma_delta", "apply_pa", "pa.apply_pa"),
    ("precoding", "idft_modulate", "ofdm.idft_modulate"),
    ("harness", "sample_hold", "ofdm.sample_hold"),
    ("harness", "receiver_dft", "ofdm.receiver_dft"),
)

SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Work recorded with a span, computed from argument and result shapes.
COUNTERS: Dict[str, Callable[[Sequence, object], float]] = {
    "sigma_delta.modulate": lambda args, out: float(np.size(args[1])),
    "channel.propagate": lambda args, out: float(np.size(args[1])),
    "ofdm.sample_hold": lambda args, out: float(out.nbytes),
    "qam.dp_components": lambda args, out: float(np.size(out[0])),
    "precoding.slp_precode": lambda args, out: float(out.diagnostics["apg_iterations"]),
}

Span = Tuple[str, float, float, int, int, Optional[float]]


class Tracer:
    def __init__(self, modules: Dict[str, object]):
        self.spans: List[Span] = []
        self.step = -1
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._wrappers = []
        for mod_name, attr, name in TARGETS:
            module = modules[mod_name]
            fn = getattr(module, attr, None)
            if callable(fn):
                self._wrappers.append((module, attr, self._wrap(name, fn)))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.step, None)
            if counter is not None:
                spans[idx] = (name, start, end, parent, self.step, counter(args, out))
            return out

        return traced

    def install(self) -> None:
        for module, attr, wrapper in self._wrappers:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def self_times(spans: Sequence[Span]) -> Tuple[np.ndarray, List[int]]:
    """Self time of every span, and the index of its root span."""
    own = np.array([s[2] - s[1] for s in spans])
    roots = []
    for i, s in enumerate(spans):
        parent = s[3]
        if parent >= 0:
            own[parent] -= s[2] - s[1]
        roots.append(i if parent < 0 else roots[parent])
    return own, roots
