"""The two documents over a span recorder, and the ``repro stats`` table.

Both are views of one :class:`~repro.obs.spans.SpanRecorder` snapshot:

* :func:`build_report` -- the profile view, ``repro.obs/1``: what a run
  collected, as span aggregates (nested paths and the per-stage rollup)
  beside the metrics registry snapshot and the
  :class:`~repro.engine.cache.EvalCache` counters.  The CLI writes it via
  ``--metrics-out FILE.json``;
* :func:`build_document` -- the job view, ``repro.trace/1``: one traced
  job's timeline, persisted in the result store's ``traces`` table and
  served at ``GET /jobs/<id>/trace``.

Schema (``repro.obs/1``)::

    {
      "schema": "repro.obs/1",
      "spans":  [{"path": ["sweep","evaluate_batch","trace_gen"],
                  "name": "trace_gen", "count": 12, "total_s": 0.034}],
      "stages": {"trace_gen": {"calls": 12, "total_s": 0.034,
                               "mean_s": 0.0028}, ...},
      "metrics": {"counters": {...}, "gauges": {...}, "histograms": {...}},
      "cache":  {"trace": {"hits": .., "misses": .., "evictions": ..,
                           "entries": .., "hit_rate": ..}, "miss": {...}}
    }

``spans``/``stages`` are empty unless profiling was enabled; ``cache`` is
``null`` when the caller did not supply a cache snapshot.

Schema (``repro.trace/1``)::

    {
      "schema": "repro.trace/1", "trace_id": "...", "job_id": "...",
      "started_s": 1700000000.0, "duration_s": 1.25,
      "workers": [4242, 4243], "dropped": 0,
      "events": [{"span_id": "...", "parent_id": "...",
                  "path": ["job","sweep","chunk[7]"], "name": "chunk[7]",
                  "count": 1, "total_s": 0.2, "start_s": .., "end_s": ..,
                  "attrs": {"configs": 12, ...}, "workers": [4243]}]
    }

A chunk wrapper span is named ``chunk[<first config index>]``, so the
fan-out stays visible per chunk and per worker pid.  The module
deliberately imports nothing from :mod:`repro.engine` -- cache state is
passed in as the plain dict ``EvalCache.snapshot()`` returns -- so the
dependency arrow stays engine -> obs.

Sweep-resilience counters (all under ``metrics.counters``; the schema
version stays ``repro.obs/1`` because counters are open-ended by design):

``parallel.chunks_completed``
    Chunks whose worker payload merged successfully.
``parallel.serial_fallbacks``
    Whole rounds degraded to serial because the environment cannot run a
    process pool (no fork / no pickling).
``resilience.chunk_failures``
    Transient chunk failures observed (worker crash, broken pool,
    corrupt payload).
``resilience.chunk_timeouts``
    Chunks abandoned by the per-chunk watchdog timeout.
``resilience.chunk_retries``
    Chunk re-dispatches after a transient failure or timeout.
``resilience.degraded_chunks``
    Chunks that exhausted their retries and were evaluated serially
    in-parent.
``resilience.checkpoint_chunks``
    Completed chunks whose rows were written to the sweep's result
    store (``--checkpoint``, or the service's store).
``resilience.resumed_configs``
    Configurations taken from the result store instead of evaluated.

These are rendered as their own block by :func:`render_stage_table`
(``repro stats``).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import SpanRecorder, get_profile

__all__ = [
    "SCHEMA",
    "TRACE_SCHEMA",
    "build_document",
    "build_report",
    "render_stage_table",
    "write_report",
]

SCHEMA = "repro.obs/1"

#: Schema tag stamped on every trace document.
TRACE_SCHEMA = "repro.trace/1"

#: The keys of one ``repro.obs/1`` span record.
_PROFILE_KEYS = ("path", "name", "count", "total_s")

#: Pipeline stages in execution order; unknown stages sort after these.
_STAGE_ORDER = (
    "sweep",
    "evaluate_batch",
    "trace_gen",
    "miss_measure",
    "add_bs",
    "cycles",
    "energy",
)


def build_report(
    collector: Optional[SpanRecorder] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``repro.obs/1`` document from current process state.

    ``cache`` is an ``EvalCache.snapshot()`` dict (or ``None`` to omit the
    section); ``collector``/``metrics`` default to the process profile and
    registry.
    """
    collector = collector if collector is not None else get_profile()
    metrics = metrics if metrics is not None else get_metrics()
    return {
        "schema": SCHEMA,
        "spans": [
            {key: event[key] for key in _PROFILE_KEYS}
            for event in collector.snapshot()
        ],
        "stages": collector.by_stage(),
        "metrics": metrics.snapshot(),
        "cache": cache,
    }


def _span_id(trace_id: str, path: Tuple[str, ...]) -> str:
    digest = hashlib.sha256(
        ("\x1f".join((trace_id,) + tuple(path))).encode("utf-8")
    )
    return digest.hexdigest()[:16]


def build_document(
    recorder: SpanRecorder,
    job_id: Optional[str] = None,
) -> Dict[str, Any]:
    """Assemble the ``repro.trace/1`` document for a finished trace.

    One event per distinct span path, sorted by wall-clock start, with
    count, total seconds, earliest start and latest end, first attributes
    and contributing worker pids.  ``span_id`` is a deterministic hash of
    ``(trace_id, path)`` and ``parent_id`` links each event to the event
    one path element up (``None`` for roots), so parent/child links
    survive JSON round-trips without mutable state.
    """
    trace_id = recorder.trace_id or ""
    events = recorder.snapshot()
    known = {tuple(event["path"]) for event in events}
    workers: set = set()
    documents = []
    for event in events:
        path = tuple(event["path"])
        parent = path[:-1]
        workers.update(event["workers"])
        documents.append(
            {
                "span_id": _span_id(trace_id, path),
                "parent_id": (
                    _span_id(trace_id, parent) if parent in known else None
                ),
                **event,
            }
        )
    documents.sort(
        key=lambda e: (
            e["start_s"] if e["start_s"] is not None else float("inf"),
            len(e["path"]),
            e["path"],
        )
    )
    starts = [e["start_s"] for e in documents if e["start_s"] is not None]
    ends = [e["end_s"] for e in documents if e["end_s"] is not None]
    return {
        "schema": TRACE_SCHEMA,
        "trace_id": recorder.trace_id,
        "job_id": job_id,
        "started_s": min(starts) if starts else None,
        "duration_s": (max(ends) - min(starts)) if starts and ends else 0.0,
        "workers": sorted(workers),
        "dropped": recorder.dropped,
        "events": documents,
    }


def write_report(path: str, report: Dict[str, Any]) -> None:
    """Serialise ``report`` as indented JSON at ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _stage_sort_key(name: str):
    try:
        return (0, _STAGE_ORDER.index(name))
    except ValueError:
        return (1, name)


def render_stage_table(report: Dict[str, Any]) -> str:
    """The ``repro stats`` table: per-stage timings, cache and counters."""
    lines = []
    stages = report.get("stages", {})
    lines.append("per-stage timing (profiled spans)")
    if stages:
        lines.append(
            f"{'stage':>14s} {'calls':>8s} {'total s':>10s} {'mean ms':>10s}"
        )
        for name in sorted(stages, key=_stage_sort_key):
            entry = stages[name]
            lines.append(
                f"{name:>14s} {entry['calls']:>8d} "
                f"{entry['total_s']:>10.4f} {entry['mean_s'] * 1e3:>10.3f}"
            )
    else:
        lines.append("  (no spans recorded -- run with --profile)")

    cache = report.get("cache")
    if cache:
        lines.append("")
        lines.append("EvalCache")
        lines.append(
            f"{'store':>14s} {'hits':>8s} {'misses':>8s} "
            f"{'evictions':>10s} {'entries':>8s} {'hit rate':>9s}"
        )
        for store in ("trace", "miss"):
            row = cache.get(store)
            if row is None:
                continue
            lines.append(
                f"{store:>14s} {row['hits']:>8d} {row['misses']:>8d} "
                f"{row['evictions']:>10d} {row['entries']:>8d} "
                f"{row['hit_rate']:>9.4f}"
            )

    counters = report.get("metrics", {}).get("counters", {})
    resilience = {
        name: value
        for name, value in counters.items()
        if name.startswith(("parallel.", "resilience."))
    }
    if resilience:
        lines.append("")
        lines.append("sweep resilience (retries / timeouts / checkpointing)")
        for name in sorted(resilience):
            lines.append(f"  {name:<36s} {resilience[name]}")

    general = {
        name: value for name, value in counters.items() if name not in resilience
    }
    if general:
        lines.append("")
        lines.append("counters")
        for name in sorted(general):
            lines.append(f"  {name:<36s} {general[name]}")
    return "\n".join(lines)
