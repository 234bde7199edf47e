"""Unified observability: span tracing + metrics across the stack.

One switch turns on both halves: :func:`enable` (or the ``REPRO_TRACE``
environment variable, which is how child processes inherit it) starts
the JSONL tracer of :mod:`repro.obs.tracing` and flips the
:mod:`repro.obs.metrics` registry live.  Disabled — the default — every
instrumentation site is a single attribute-read branch or a no-op
context manager, cheap enough to live in the conflict-core hot paths
(CI gates the overhead of the *enabled* path at ≤3%; disabled is in
the noise).

Layering: this package imports nothing from the rest of ``repro``, so
any layer — topology cores, timeline, results store, executors —
may instrument itself without cycles.  See
``docs/architecture/observability.md`` for the span model and metric
name tables.
"""

from repro.obs import metrics
from repro.obs.clock import perf_seconds, time_call, traced_peak_mb, wall_seconds
from repro.obs.tracing import (
    close,
    enable,
    enabled,
    event,
    flush_metrics,
    load_trace,
    maybe_enable_from_env,
    span,
    trace_path,
)

__all__ = [
    "metrics",
    "perf_seconds",
    "wall_seconds",
    "time_call",
    "traced_peak_mb",
    "enable",
    "close",
    "enabled",
    "event",
    "span",
    "flush_metrics",
    "load_trace",
    "trace_path",
]

# Child processes (pool workers, `minim-cdma worker` fleets) join the
# trace the moment they import any instrumented module.
maybe_enable_from_env()
