"""Run ``repro serve`` with ParallelSweep workers started by a fork server.

Usage is that of ``python -m repro serve``::

    PYTHONPATH=src python3 perfbench/server_main.py serve --port 0 --jobs 2 ...

The service forks its sweep workers from a process that also runs HTTP and
job-runner threads.  A child forked while another thread holds sqlite's
internal mutex blocks forever in ``sqlite3.connect`` when it reopens the
result store, which happens within a few dozen two-client jobs.  A fork
server is a single-threaded process, so its children start with no lock
held; everything else is the unchanged program.
"""

import multiprocessing
import sys

#: Imported once by the fork server, so that each worker starts warm.
PRELOAD = ["repro.cli"]


def use_fork_server() -> None:
    """Make ``ProcessPoolExecutor``'s default start method the fork server."""
    multiprocessing.set_start_method("forkserver")
    multiprocessing.set_forkserver_preload(PRELOAD)


if __name__ == "__main__":
    from repro.cli import main

    use_fork_server()
    sys.exit(main(sys.argv[1:]))
