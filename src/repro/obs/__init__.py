"""repro.obs: the observability layer of the evaluation engine.

Four small, dependency-free (stdlib-only) facilities, threaded through
every layer of the stack:

* :mod:`repro.obs.spans` -- opt-in span recording (``with
  span("trace_gen")``) into one recorder class with two activations: the
  process profile (``--profile``, ``repro stats``) and a per-job trace
  bound to a ``contextvars`` context, carried from client submit through
  the queue into sweep workers, whose snapshots merge back in the parent;
* :mod:`repro.obs.metrics` -- an always-on registry of named counters,
  gauges and log-bucketed percentile histograms (configs evaluated,
  addresses simulated, cache hits/misses/evictions, request/queue/chunk
  latencies) whose bucket counts merge exactly across workers;
* :mod:`repro.obs.prometheus` -- text exposition 0.0.4 rendering (and a
  validating parser) for the registry, behind
  ``/metrics?format=prometheus``;
* :mod:`repro.obs.logging` -- ``logging`` configuration for the ``repro``
  hierarchy with an optional JSON line formatter.

:mod:`repro.obs.report` builds the two documents over a span recorder:
the profile view ``repro.obs/1`` (spans and stages beside the metrics and
cache counters, and the human table behind ``repro stats``) and the job
view ``repro.trace/1`` (one merged timeline per traced job).  Nothing
here imports :mod:`repro.engine`: the dependency arrow is strictly
engine -> obs, so even the lowest-level cache code can be instrumented
without import cycles.
"""

from repro.obs.logging import JsonFormatter, configure_logging
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_metrics,
)
from repro.obs.prometheus import parse_prometheus, render_prometheus
from repro.obs.report import (
    SCHEMA,
    TRACE_SCHEMA,
    build_document,
    build_report,
    render_stage_table,
    write_report,
)
from repro.obs.spans import (
    SpanRecorder,
    collecting,
    current_path,
    current_trace,
    disable_profiling,
    enable_profiling,
    get_profile,
    new_trace_id,
    profiling_enabled,
    span,
    trace_active,
    tracing,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonFormatter",
    "MetricsRegistry",
    "SCHEMA",
    "SpanRecorder",
    "TRACE_SCHEMA",
    "build_document",
    "build_report",
    "collecting",
    "configure_logging",
    "current_path",
    "current_trace",
    "disable_profiling",
    "enable_profiling",
    "get_metrics",
    "get_profile",
    "new_trace_id",
    "parse_prometheus",
    "profiling_enabled",
    "render_prometheus",
    "render_stage_table",
    "reset",
    "span",
    "trace_active",
    "tracing",
    "write_report",
]


def reset() -> None:
    """Clear the process profile and zero the metrics registry.

    For test isolation and the start of a CLI invocation that reports
    (``--profile`` / ``--metrics-out``): instrument identities are
    preserved, only their values drop.
    """
    get_profile().clear()
    get_metrics().clear()
