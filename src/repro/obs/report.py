"""The machine-readable observability report and its human rendering.

One JSON document (:data:`SCHEMA`) carries everything a run collected:
span aggregates (nested paths and the per-stage rollup), the metrics
registry snapshot, and the :class:`~repro.engine.cache.EvalCache`
counters.  The CLI writes it via ``--metrics-out FILE.json``; benchmarks
diff these documents across PRs to track where sweep time goes.

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
``null`` when the caller did not supply a cache snapshot.  The module
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
    Chunks durably journaled to the ``--checkpoint`` file.
``resilience.resumed_configs``
    Configurations loaded from the journal by ``--resume`` instead of
    re-evaluated.

These are rendered as their own block by :func:`render_stage_table`
(``repro stats``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry, get_metrics
from repro.obs.spans import SpanCollector, get_collector

__all__ = ["SCHEMA", "build_report", "render_stage_table", "write_report"]

SCHEMA = "repro.obs/1"

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
    collector: Optional[SpanCollector] = None,
    metrics: Optional[MetricsRegistry] = None,
    cache: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the ``repro.obs/1`` document from current process state.

    ``cache`` is an ``EvalCache.snapshot()`` dict (or ``None`` to omit the
    section); ``collector``/``metrics`` default to the process-local ones.
    """
    collector = collector if collector is not None else get_collector()
    metrics = metrics if metrics is not None else get_metrics()
    return {
        "schema": SCHEMA,
        "spans": collector.snapshot(),
        "stages": collector.by_stage(),
        "metrics": metrics.snapshot(),
        "cache": cache,
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
