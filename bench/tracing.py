"""Spans around the package's layers for one in-process CLI run.

The benchmark rebinds, from its own code, the public names each module of
`dephimetry` calls (`cli.qfi`, `bayes.best_estimator`,
`DensityMatrix.__post_init__`, ...) to wrappers that record a span: name,
start, end, parent.  Nothing under src/ changes.  Spans stay in memory
until the run writes them out.
"""
from __future__ import annotations

import functools
import statistics
import time
import tracemalloc
from contextlib import contextmanager


class Tracer:
    """Spans of one traced invocation; a span's parent is its index here."""

    def __init__(self, invocation: int):
        self.spans: list[dict] = []
        self.invocation = invocation
        self._open: list[int] = []
        # [bytes traced at entry, highest bytes traced since] per open peak span
        self._peaks: list[list[int]] = []

    def call(self, name, fn, args=(), kwargs=None, peak=False, note=None):
        span = {
            "name": name,
            "invocation": self.invocation,
            "parent": self._open[-1] if self._open else None,
        }
        self._open.append(len(self.spans))
        self.spans.append(span)
        if peak:
            self._enter_peak()
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.perf_counter()
            if peak:
                span["peak_bytes"] = self._exit_peak()
            self._open.pop()
        if note is not None:
            span.update(note(args, result))
        return result

    def wrap(self, name, fn, peak=False, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, peak, note)

        return traced

    def _enter_peak(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        for frame in self._peaks:
            frame[1] = max(frame[1], peak)
        tracemalloc.reset_peak()
        self._peaks.append([current, current])

    def _exit_peak(self) -> int:
        base, highest = self._peaks.pop()
        highest = max(highest, tracemalloc.get_traced_memory()[1])
        for frame in self._peaks:
            frame[1] = max(frame[1], highest)
        if not self._peaks:
            tracemalloc.stop()
        return highest - base


def _grid_point(args, result):
    return {"point": list(args[:5])}


def _excluded(args, result):
    return {"excluded": len(result.excluded)}


def _patches(tracer: Tracer, pkg) -> list[tuple[object, str, callable]]:
    """(owner, attribute, make replacement from the original) per traced name."""
    cli, bayes, core = pkg.cli, pkg.bayes, pkg.core

    def span(name, **opts):
        return lambda original: tracer.wrap(name, original, **opts)

    def chunks(original):
        def map_ordered(fn, items):
            return original(tracer.wrap("bayes.chunk", fn), items)

        return map_ordered

    return [
        (core.DensityMatrix, "__post_init__", span("core.density")),
        (cli, "encode_phase", span("core.encode_phase")),
        (bayes, "encode_phase", span("core.encode_phase")),
        (cli, "build_c1", span("covariance.build")),
        (cli, "build_c2", span("covariance.build")),
        (cli, "delta2_c1_closed", span("covariance.delta2")),
        (cli, "delta2_c2_closed", span("covariance.delta2")),
        (bayes, "delta2_c", span("covariance.delta2")),
        (cli, "dephase", span("dephasing.dephase")),
        (bayes, "dephase", span("dephasing.dephase")),
        (cli, "qfi", span("fisher.qfi")),
        (cli, "optimal_povm", span("fisher.optimal_povm", peak=True)),
        (cli, "classical_fi", span("fisher.classical_fi")),
        (cli, "simulate", span("bayes.simulate", peak=True)),
        (bayes, "best_estimator", span("bayes.best_estimator", peak=True, note=_excluded)),
        (bayes, "map_ordered", chunks),
        (cli, "grid_report", span("cli.grid_report", note=_grid_point)),
        (cli, "_write_text", span("cli.output")),
    ]


@contextmanager
def instrumented(tracer: Tracer, pkg):
    """Rebind the traced names for the duration of the block; yields the
    names the package no longer has, which then record nothing."""
    saved, missing = [], []
    try:
        for owner, attr, make in _patches(tracer, pkg):
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield missing
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# Per-layer metric -> (span name, what to take from its spans).
LAYER_METRICS = {
    "core.state_build_ms": ("core.density", "ms"),
    "core.density_builds": ("core.density", "count"),
    "core.encode_phase_ms": ("core.encode_phase", "ms"),
    "covariance.build_ms": ("covariance.build", "ms"),
    "covariance.delta2_ms": ("covariance.delta2", "ms"),
    "dephasing.dephase_ms": ("dephasing.dephase", "ms"),
    "dephasing.dephase_calls": ("dephasing.dephase", "count"),
    "fisher.qfi_ms": ("fisher.qfi", "ms"),
    "fisher.qfi_calls": ("fisher.qfi", "count"),
    "fisher.optimal_povm_ms": ("fisher.optimal_povm", "ms"),
    "fisher.optimal_povm_peak_mb": ("fisher.optimal_povm", "peak_mb"),
    "fisher.classical_fi_ms": ("fisher.classical_fi", "ms"),
    "bayes.best_estimator_ms": ("bayes.best_estimator", "ms"),
    "bayes.best_estimator_peak_mb": ("bayes.best_estimator", "peak_mb"),
    "bayes.simulate_ms": ("bayes.simulate", "ms"),
    "bayes.chunk_ms": ("bayes.chunk", "ms"),
    "bayes.chunks": ("bayes.chunk", "count"),
    "bayes.simulate_peak_mb": ("bayes.simulate", "peak_mb"),
    "bayes.excluded_outcomes": ("bayes.best_estimator", "excluded"),
    "cli.grid_report_ms": ("cli.grid_report", "ms"),
    "cli.grid_report_self_ms": ("cli.grid_report", "self_ms"),
    "cli.output_ms": ("cli.output", "ms"),
}


def summarize(spans: list[dict], duplicate_share) -> dict:
    """Per-layer values of one traced invocation, from its Tracer's spans
    (the root first).  `duplicate_share` maps the grid points given to
    grid_report to the share that repeat an earlier point."""
    duration = [s["end"] - s["start"] for s in spans]
    children = [0.0] * len(spans)
    for s, d in zip(spans, duration):
        if s["parent"] is not None:
            children[s["parent"]] += d

    def take(name, kind):
        picked = [i for i, s in enumerate(spans) if s["name"] == name]
        if kind == "ms":
            return 1e3 * sum(duration[i] for i in picked)
        if kind == "self_ms":
            return 1e3 * sum(duration[i] - children[i] for i in picked)
        if kind == "count":
            return len(picked)
        if kind == "peak_mb":
            return max((spans[i]["peak_bytes"] for i in picked), default=0) / 2**20
        return sum(spans[i].get(kind, 0) for i in picked)

    values = {metric: take(name, kind) for metric, (name, kind) in LAYER_METRICS.items()}
    values["cli.sweep_duplicate_share"] = duplicate_share(
        [tuple(s["point"]) for s in spans if s["name"] == "cli.grid_report"]
    )
    values["trace.unattributed_frac"] = 1.0 - children[0] / duration[0]
    return values


def medians(per_invocation: list[dict]) -> dict:
    """Median of each value over the traced invocations; counts stay whole."""
    out = {}
    for key, first in per_invocation[0].items():
        median = statistics.median_low if isinstance(first, int) else statistics.median
        out[key] = median(v[key] for v in per_invocation)
    return out
