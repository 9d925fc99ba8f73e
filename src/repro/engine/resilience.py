"""Fault tolerance for sweeps: retries, timeouts, cancellation, identity.

A production-scale exploration sweeps orders of magnitude more
configurations than the paper's ``T x L x S x B`` grid, and at that scale
partial failure is the normal case: a worker process dies, a chunk wedges
on a pathological geometry, the whole sweep is killed and restarted.
This module supplies the pieces :class:`~repro.engine.parallel.ParallelSweep`
composes into a fault-tolerant executor:

* :class:`RetryPolicy` -- per-chunk retry with exponential backoff and
  *deterministic* jitter (seeded, so two runs of the same sweep back off
  identically and tests are reproducible);
* :class:`CircuitBreaker` -- consecutive-failure fail-fast for one
  evaluator backend;
* :class:`ResilienceOptions` -- the single bundle threaded from the CLI
  flags (``--checkpoint`` / ``--chunk-timeout`` / ``--max-retries``) and
  the exploration service down through every exploration layer.  Its
  ``store`` is an open :class:`~repro.serve.store.ResultStore`, the one
  durable record of every run: the executor takes every row stored for
  its evaluator, dispatches only the rest, and writes each committed
  chunk, so a killed run restarts where it stopped;
* :func:`evaluator_fingerprint` -- the store key of an evaluator, and
  :func:`sweep_fingerprint`, the identity of one sweep that manifests
  record.

Failure classification is the contract between this module and the
executor: :class:`TransientChunkError` (and its subclasses, including the
fault harness's :class:`~repro.engine.faults.InjectedCrash`) marks a chunk
worth re-dispatching; anything else raised by an evaluator is
deterministic and surfaces immediately as a :class:`SweepChunkError`
naming the failing chunk's configurations.

Every (T, L, S, B) point prices deterministically, so a stored estimate
stands in for a recomputed one.  Estimates round-trip exactly --
:func:`estimate_to_json` keeps every field, including the energy
breakdown, and JSON floats serialise via ``repr`` -- so a resumed run's
result table is bit-identical to an uninterrupted run (asserted by the
test suite for arbitrary kill points).
"""

from __future__ import annotations

import hashlib
import logging
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.config import CacheConfig
from repro.core.metrics import PerformanceEstimate
from repro.energy.model import EnergyBreakdown, EnergyModel
from repro.obs.metrics import get_metrics

__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "CorruptPayloadError",
    "ResilienceOptions",
    "RetryPolicy",
    "SweepCancelledError",
    "SweepChunkError",
    "TransientChunkError",
    "estimate_from_json",
    "estimate_to_json",
    "evaluator_fingerprint",
    "sweep_fingerprint",
]

logger = logging.getLogger(__name__)

class TransientChunkError(RuntimeError):
    """A chunk failure worth retrying: crash, corruption, infrastructure.

    The executor re-dispatches chunks that fail with this (or a subclass,
    or a broken pool / timeout) up to :attr:`RetryPolicy.max_retries`
    times before degrading to in-parent serial evaluation.  Any *other*
    exception is treated as a deterministic evaluator bug and re-raised
    as :class:`SweepChunkError`.
    """


class CorruptPayloadError(TransientChunkError):
    """A worker returned a payload that fails structural validation."""


class SweepChunkError(RuntimeError):
    """A chunk failed deterministically; names the failing configurations."""

    def __init__(self, message: str, configs: Sequence[CacheConfig]) -> None:
        super().__init__(message)
        self.configs = list(configs)

    @classmethod
    def from_chunk(
        cls, indexed: Sequence[Tuple[int, CacheConfig]], cause: BaseException
    ) -> "SweepChunkError":
        configs = [config for _, config in indexed]
        labels = ", ".join(config.label(full=True) for config in configs)
        error = cls(
            f"sweep chunk failed on [{labels}]: "
            f"{type(cause).__name__}: {cause}",
            configs,
        )
        error.__cause__ = cause
        return error


class SweepCancelledError(RuntimeError):
    """The sweep was cancelled cooperatively before completing.

    Raised by the executor when its ``cancel_event`` is set (client
    cancellation or a job deadline).  Every committed chunk stays in the
    run's store, so a resubmission of the same sweep resumes from the
    last committed chunk instead of starting over.
    """

    def __init__(self, message: str, done: int = 0, total: int = 0) -> None:
        super().__init__(message)
        self.done = done
        self.total = total


class CircuitOpenError(RuntimeError):
    """A circuit breaker is open: the backend is failing, fail fast.

    Carries ``retry_after_s`` -- the cooldown remaining before the
    breaker will admit a half-open probe -- so callers (the serve layer)
    can surface an accurate retry hint instead of a blind guess.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after_s = max(0.0, float(retry_after_s))


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one evaluator backend.

    State machine: ``closed`` (normal) -> ``open`` after
    ``failure_threshold`` *consecutive* recorded failures -> ``half_open``
    once ``cooldown_s`` has elapsed, admitting exactly one probe --
    success closes the breaker, failure re-opens it and restarts the
    cooldown.  Thread-safe; the clock is injectable so tests drive the
    cooldown deterministically.

    Transitions are observable as ``breaker.opened`` / ``breaker.closed``
    / ``breaker.half_open_probes`` counters; callers that refuse work on
    an open breaker should count ``breaker.fail_fast`` themselves.
    """

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 5,
        cooldown_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.name = name
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """May a request proceed?  Consumes the half-open probe slot.

        Closed: always.  Open: only once the cooldown has elapsed, which
        transitions to half-open and admits a single probe; further calls
        are refused until that probe reports success or failure.
        """
        with self._lock:
            if self._state == "closed":
                return True
            now = self._clock()
            if self._state == "open":
                if now - self._opened_at < self.cooldown_s:
                    return False
                self._state = "half_open"
                self._probe_in_flight = True
                get_metrics().counter("breaker.half_open_probes").inc()
                logger.info(
                    "breaker %s: cooldown elapsed, admitting half-open probe",
                    self.name,
                )
                return True
            # half_open: one probe at a time.
            if self._probe_in_flight:
                return False
            self._probe_in_flight = True
            get_metrics().counter("breaker.half_open_probes").inc()
            return True

    def record_success(self) -> None:
        """A request against the backend succeeded; reset/close."""
        with self._lock:
            if self._state != "closed":
                get_metrics().counter("breaker.closed").inc()
                logger.info("breaker %s: probe succeeded, closing", self.name)
            self._state = "closed"
            self._failures = 0
            self._probe_in_flight = False

    def record_failure(self) -> bool:
        """A request failed; returns True when the breaker is now open."""
        with self._lock:
            self._failures += 1
            was_closed = self._state == "closed"
            if self._state == "half_open" or (
                was_closed and self._failures >= self.failure_threshold
            ):
                self._state = "open"
                self._opened_at = self._clock()
                self._probe_in_flight = False
                get_metrics().counter("breaker.opened").inc()
                logger.warning(
                    "breaker %s: opened after %d consecutive failures "
                    "(cooldown %.1fs)",
                    self.name,
                    self._failures,
                    self.cooldown_s,
                )
            return self._state == "open"

    def retry_after_s(self) -> float:
        """Seconds until the breaker will next admit a probe (0 if now)."""
        with self._lock:
            if self._state != "open":
                return 0.0
            return max(
                0.0, self.cooldown_s - (self._clock() - self._opened_at)
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic, seeded jitter.

    ``delay_s(attempt, token)`` doubles from ``backoff_base_s`` per
    attempt, caps at ``backoff_cap_s``, and adds up to ``jitter`` of the
    base delay drawn from a :class:`random.Random` seeded on
    ``(seed, attempt, token)`` -- so distinct chunks desynchronise (no
    thundering herd on retry) while identical runs stay reproducible.
    """

    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must lie in [0, 1]")

    def delay_s(self, attempt: int, token: Hashable = None) -> float:
        """Backoff before re-dispatch number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError("attempt must be non-negative")
        base = min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))
        rng = random.Random(repr((self.seed, attempt, token)))
        return base * (1.0 + self.jitter * rng.random())


@dataclass(frozen=True)
class ResilienceOptions:
    """Everything a fault-tolerant sweep needs, threaded as one object.

    ``store`` is an open :class:`~repro.serve.store.ResultStore` (the
    CLI's ``--checkpoint``, the service's result store): the executor
    takes every row it holds for the evaluator, dispatches only the
    rest, and writes each committed chunk there.  ``chunk_timeout_s``
    bounds how long the executor waits without *any* chunk completing
    before declaring the in-flight chunks wedged and re-dispatching them.
    ``fault_injector`` is the deterministic chaos harness
    (:class:`~repro.engine.faults.FaultInjector`) wrapped around worker
    dispatch -- tests and the nightly CI chaos job only.

    ``cancel_event`` is the cooperative kill switch: the executor polls
    it between dispatch rounds (and between in-process chunks) and raises
    :class:`SweepCancelledError` when set, leaving the store intact.
    ``breaker`` is an optional :class:`CircuitBreaker`: a sweep with work
    to dispatch fails fast while it is open, and feeds it one
    success/failure per chunk; when it opens mid-sweep the executor
    abandons the remaining work with :class:`CircuitOpenError`.
    """

    store: Optional[Any] = None
    chunk_timeout_s: Optional[float] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    fault_injector: Optional[Any] = None
    cancel_event: Optional[threading.Event] = None
    breaker: Optional[CircuitBreaker] = None

    def __post_init__(self) -> None:
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ValueError("chunk timeout must be positive")


def estimate_to_json(estimate: PerformanceEstimate) -> Dict[str, Any]:
    """A JSON-compatible dict that round-trips the estimate *exactly*.

    Unlike :mod:`repro.core.serialize` (which drops the breakdown for
    compact result tables), the store keeps every field so stored
    estimates compare equal to freshly computed ones.
    """
    breakdown = estimate.energy_breakdown
    return {
        "config": [
            estimate.config.size,
            estimate.config.line_size,
            estimate.config.ways,
            estimate.config.tiling,
        ],
        "miss_rate": estimate.miss_rate,
        "cycles": estimate.cycles,
        "energy_nj": estimate.energy_nj,
        "events": estimate.events,
        "accesses": estimate.accesses,
        "reads": estimate.reads,
        "read_miss_rate": estimate.read_miss_rate,
        "add_bs": estimate.add_bs,
        "conflict_free_layout": estimate.conflict_free_layout,
        "energy_breakdown": None
        if breakdown is None
        else {
            "e_dec": breakdown.e_dec,
            "e_cell": breakdown.e_cell,
            "e_io": breakdown.e_io,
            "e_main": breakdown.e_main,
            "hit_rate": breakdown.hit_rate,
            "miss_rate": breakdown.miss_rate,
            "events": breakdown.events,
        },
    }


def estimate_from_json(doc: Dict[str, Any]) -> PerformanceEstimate:
    """Rebuild an estimate written by :func:`estimate_to_json`."""
    breakdown_doc = doc.get("energy_breakdown")
    breakdown = (
        None
        if breakdown_doc is None
        else EnergyBreakdown(
            e_dec=breakdown_doc["e_dec"],
            e_cell=breakdown_doc["e_cell"],
            e_io=breakdown_doc["e_io"],
            e_main=breakdown_doc["e_main"],
            hit_rate=breakdown_doc["hit_rate"],
            miss_rate=breakdown_doc["miss_rate"],
            events=breakdown_doc["events"],
        )
    )
    size, line_size, ways, tiling = doc["config"]
    return PerformanceEstimate(
        config=CacheConfig(size, line_size, ways, tiling),
        miss_rate=doc["miss_rate"],
        cycles=doc["cycles"],
        energy_nj=doc["energy_nj"],
        events=doc["events"],
        accesses=doc["accesses"],
        reads=doc["reads"],
        read_miss_rate=doc["read_miss_rate"],
        add_bs=doc["add_bs"],
        conflict_free_layout=doc["conflict_free_layout"],
        energy_breakdown=breakdown,
    )


def _evaluator_identity(evaluator: Any) -> str:
    """A stable textual identity of what is being evaluated.

    Duck-typed over the two evaluator shapes the executor accepts: an
    :class:`~repro.engine.evaluator.Evaluator` (workload + backend) or a
    :class:`~repro.core.composite.CompositeProgram` (kernels + trips +
    whether the Section 4.1 layout optimisation runs).
    Reprs of the underlying frozen dataclasses are deterministic across
    processes, unlike ``hash()``.
    """
    workload = getattr(evaluator, "workload", None)
    backend = getattr(evaluator, "backend", None)
    backend_name = getattr(backend, "name", backend)
    backend_params = getattr(backend, "params", None)
    if workload is not None:
        return repr(
            (
                "workload",
                repr(workload.key),
                backend_name,
                backend_params,
                getattr(evaluator, "gray_code", None),
            )
        )
    kernels = getattr(evaluator, "kernels", None)
    trips = getattr(evaluator, "trips", None)
    if kernels is not None:
        return repr(
            (
                "composite",
                [repr(kernel) for kernel in kernels],
                sorted((trips or {}).items()),
                backend_name,
                getattr(evaluator, "optimize_layout", None),
            )
        )
    return repr(("opaque", type(evaluator).__qualname__))


def sweep_fingerprint(
    evaluator: Any, configs: Sequence[CacheConfig]
) -> str:
    """SHA-256 identity of one sweep: evaluator + ordered config list.

    Run manifests record it; the store keys rows by
    :func:`evaluator_fingerprint` instead, so any later sweep over the
    same evaluator reuses them whatever its configuration list.
    """
    digest = hashlib.sha256()
    digest.update(_evaluator_identity(evaluator).encode())
    for config in configs:
        digest.update(
            f"|{config.size},{config.line_size},{config.ways},"
            f"{config.tiling}".encode()
        )
    return digest.hexdigest()


def evaluator_fingerprint(evaluator: Any) -> str:
    """SHA-256 identity of *what one configuration evaluates against*.

    The store key of an evaluator's rows.  Builds on the same textual
    identity :func:`sweep_fingerprint` hashes (workload key, backend name
    and parameters, Gray coding), extended with the energy model's
    constants -- two evaluators that would disagree on any estimate field
    must never share store rows.  Energy-model *subclasses* (e.g.
    :class:`~repro.energy.kamble_ghose.KambleGhoseModel`) additionally
    contribute their class name: they change ``E_cell`` without changing
    any constant, so sharing rows with the paper's model would poison the
    store.  The class qualifier is omitted for the base
    :class:`~repro.energy.model.EnergyModel`, keeping every fingerprint
    ever written by earlier versions byte-identical.
    """
    model = getattr(evaluator, "energy_model", None)
    if model is None:
        model_id = None
    else:
        model_id = (
            repr(model.tech),
            repr(model.sram),
            model.subbanks,
            model.phased,
        )
        if type(model) is not EnergyModel:
            model_id = (type(model).__qualname__,) + model_id
    digest = hashlib.sha256()
    digest.update(_evaluator_identity(evaluator).encode())
    digest.update(repr(model_id).encode())
    return digest.hexdigest()
