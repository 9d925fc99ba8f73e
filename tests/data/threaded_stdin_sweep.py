"""A ``jobs=2`` sweep started from a second thread of a script on stdin.

Run it as ``PYTHONPATH=src python - < tests/data/threaded_stdin_sweep.py``.
The caller runs two threads, so the sweep's workers would start from a
fork server, and a worker not forked must re-import ``__main__``: here
that is ``"<stdin>"``, which no worker can read.  The sweep must notice
before it starts them and finish serially, once.

Prints one JSON line: whether the estimates equal a serial evaluation's
(or the error the sweep raised), the process's metrics counters and the
failures the sweep's circuit breaker holds.
"""

import json
import threading

from repro.core.config import design_space
from repro.engine import (
    Evaluator,
    KernelWorkload,
    ParallelSweep,
    ResilienceOptions,
    order_configs,
)
from repro.engine.resilience import CircuitBreaker
from repro.kernels import get_kernel
from repro.obs.metrics import get_metrics

evaluator = Evaluator(KernelWorkload(get_kernel("compress")))
configs = order_configs(design_space(max_size=64))
# A served job's breaker: five failures open it mid-sweep.
breaker = CircuitBreaker(name="stdin", failure_threshold=5, cooldown_s=60)
outcome = {}


def sweep():
    try:
        outcome["estimates"] = ParallelSweep(
            jobs=2, resilience=ResilienceOptions(breaker=breaker)
        ).run(evaluator, configs)
    except Exception as exc:
        outcome["error"] = repr(exc)


thread = threading.Thread(target=sweep)
thread.start()
thread.join()
serial = Evaluator(KernelWorkload(get_kernel("compress"))).evaluate_batch(
    configs
)
print(
    json.dumps(
        {
            "configs": len(configs),
            "correct": outcome.get("estimates") == serial,
            "error": outcome.get("error"),
            "counters": get_metrics().snapshot()["counters"],
            "breaker_failures": breaker._failures,
        }
    )
)
