"""Span tracer for the traced run of the benchmark.

The tracer replaces public functions of markovscope with timing wrappers at
the name the calling module looks up.  Modules import by name (decision.py
does `from .spectral import eigendecompose`), so a function is wrapped once
per module that calls it.  Each wrapped call is a span with a parent; a span's
self time is its duration minus the time of its child spans.  The numerical
kernels eig, eigvalsh, inv and expm are counted and each call is charged to
the innermost open span.  Everything stays in memory until the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

# span name -> (module, attribute) pairs to wrap; the module is the caller.
SPANS = {
    "cli.main": [("cli", "main")],
    "cli.sample_fractions": [("cli", "sample_fractions")],
    "zoo.random_channel": [("cli", "random_channel")],
    "zoo.jc_channel": [("cli", "jc_channel")],
    "decision.markovian_check": [("cli", "markovian_check")],
    "qubit.td_markovian_check": [("cli", "td_markovian_check")],
    "channels.determinant": [("cli", "determinant")],
    "io.load_channel": [("cli", "load_channel")],
    "io.report_to_dict": [("cli", "report_to_dict")],
    "channels.verify_channel": [
        ("decision", "verify_channel"),
        ("spectral", "verify_channel"),
        ("qubit", "verify_channel"),
    ],
    "spectral.eigendecompose": [("decision", "eigendecompose")],
    "decision.build_a_matrices": [("decision", "build_a_matrices")],
    "spectral.principal_log": [("decision", "principal_log")],
}
KERNELS = {
    "eig": ("numpy.linalg", "eig"),
    "eigvalsh": ("numpy.linalg", "eigvalsh"),
    "inv": ("numpy.linalg", "inv"),
    "expm": ("spectral", "expm"),
}
# Spans written to the trace file; the totals cover every span.
MAX_KEPT_SPANS = 20_000


class Tracer:
    def __init__(self, modules: dict):
        self._modules = {**modules, "numpy.linalg": np.linalg}
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [name, start, child seconds, span id]
        self._next_id = 0
        self.origin = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.kernels: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.spans: list[tuple[int, int, str, float, float]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, sites in SPANS.items():
            for mod, attr in sites:
                self._patch(mod, attr, lambda fn, name=name: self._span(name, fn))
        for kernel, (mod, attr) in KERNELS.items():
            self._patch(mod, attr, lambda fn, kernel=kernel: self._counter(kernel, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            obj, attr, old = self._patched.pop()
            setattr(obj, attr, old)

    def _patch(self, mod: str, attr: str, make) -> None:
        obj = self._modules[mod]
        old = getattr(obj, attr, None)
        if old is None:  # the program no longer has this call site
            return
        setattr(obj, attr, make(old))
        self._patched.append((obj, attr, old))

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][3] if stack else -1
            frame = [name, time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                self.calls[name] += 1
                if stack:
                    stack[-1][2] += duration
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append(
                        (span_id, parent, name, frame[1] - self.origin, end - self.origin)
                    )

        return traced

    def _counter(self, kernel: str, fn):
        stack = self._stack
        counts = self.kernels

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[stack[-1][0] if stack else "(untraced)"][kernel] += 1
            return fn(*args, **kwargs)

        return counted

    # -- summaries ---------------------------------------------------------

    def kernel_total(self, kernel: str) -> int:
        return sum(c.get(kernel, 0) for c in self.kernels.values())

    def layer_metrics(self, channels: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per analysed channel or per call."""

        def ms(name):
            return 1e3 * self.self_s.get(name, 0.0) / channels

        def ms_per_call(name):
            calls = self.calls.get(name, 0)
            return 1e3 * self.self_s.get(name, 0.0) / calls if calls else 0.0

        branch = self.kernels.get("decision.markovian_check", {})
        return {
            "zoo.random_channel.ms_per_channel": (ms("zoo.random_channel"), "ms"),
            "zoo.jc_channel.ms_per_channel": (ms("zoo.jc_channel"), "ms"),
            "channels.verify_channel.calls_per_channel": (
                self.calls.get("channels.verify_channel", 0) / channels, "count"),
            "channels.verify_channel.ms_per_channel": (ms("channels.verify_channel"), "ms"),
            "channels.determinant.ms_per_channel": (ms("channels.determinant"), "ms"),
            "spectral.eigendecompose.ms_per_channel": (ms("spectral.eigendecompose"), "ms"),
            "spectral.eig_calls_per_channel": (self.kernel_total("eig") / channels, "count"),
            "spectral.principal_log.ms_per_channel": (ms("spectral.principal_log"), "ms"),
            "spectral.expm_calls_per_channel": (self.kernel_total("expm") / channels, "count"),
            "decision.build_a_matrices.ms_per_channel": (ms("decision.build_a_matrices"), "ms"),
            "decision.branch_search.ms_per_channel": (ms("decision.markovian_check"), "ms"),
            "decision.branch_search.eigvalsh_calls_per_channel": (
                branch.get("eigvalsh", 0) / channels, "count"),
            "qubit.td_markovian_check.ms_per_channel": (ms("qubit.td_markovian_check"), "ms"),
            "io.load_channel.ms_per_call": (ms_per_call("io.load_channel"), "ms"),
            "io.report_to_dict.ms_per_call": (ms_per_call("io.report_to_dict"), "ms"),
            "cli.self_ms_per_channel": (ms("cli.main") + ms("cli.sample_fractions"), "ms"),
        }

    def dump(self) -> dict:
        return {
            "self_seconds": dict(self.self_s),
            "calls": dict(self.calls),
            "kernel_calls": {k: dict(v) for k, v in self.kernels.items()},
            "spans_kept": len(self.spans),
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
        }
