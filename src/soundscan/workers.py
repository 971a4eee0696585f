"""Worker threads for independent numpy jobs, and the one runner for them.

Embedding (chunks of rows), training (the branch sub-graphs of each step)
and K-Means (the restarts of one call) run numpy work on threads; numpy
releases the interpreter lock inside its kernels. Each takes its thread
count and BLAS context from `worker_pool`, opens the threads besides its
own as `helper_threads`, and hands its jobs, each with a cost, to
`run_jobs`: the one place where jobs meet threads.
"""

from __future__ import annotations

import contextlib
import os
import threading
from concurrent.futures import ThreadPoolExecutor

_state = threading.local()      # .in_job while a thread runs jobs of run_jobs


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


# Variables that set the BLAS thread count, in the order OpenBLAS and MKL read
# them; in each chain the first one set wins.
_BLAS_THREAD_VARS = (("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
                     ("MKL_NUM_THREADS", "OMP_NUM_THREADS"))


def blas_env_single_threaded() -> bool:
    """True when the environment holds OpenBLAS and MKL to one thread each."""
    for chain in _BLAS_THREAD_VARS:
        value = next((os.environ[var] for var in chain if os.environ.get(var)), None)
        if value is None or value.strip() != "1":
            return False
    return True


def worker_pool(tasks: int, max_workers=None):
    """(worker count, context to run the pool in) for `tasks` independent tasks.

    One worker per usable core, capped by `max_workers` and by `tasks`.
    Each worker's matmuls would start their own BLAS threads on top of the
    pool, so several workers run only with BLAS held to one thread: by
    threadpoolctl, or by the environment. Where neither holds it, one
    worker leaves the cores to BLAS. With threadpoolctl and more than one
    usable core the context holds BLAS to one thread whatever the worker
    count, so that the rounding, which depends on the BLAS thread count,
    does not depend on `max_workers` or on `tasks`. A `max_workers` below 1
    raises ValueError.
    """
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    cpus = usable_cpus()
    workers = min(cpus, max_workers or tasks, tasks)
    if cpus <= 1:
        return 1, contextlib.nullcontext()
    try:
        import threadpoolctl
    except ImportError:
        return (workers if blas_env_single_threaded() else 1), contextlib.nullcontext()
    return workers, threadpoolctl.threadpool_limits(limits=1)


@contextlib.contextmanager
def helper_threads(count: int):
    """`count` helper threads for `run_jobs`, one executor each so that a job
    can be sent to a given thread; shut down when the context closes."""
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(ThreadPoolExecutor(1, thread_name_prefix="soundscan-worker"))
               for _ in range(count)]


def _share_out(costs, threads: int) -> list:
    """Job indices per thread: longest job first, each to the thread with the
    least cost so far (ties to the lower thread); thread 0 is the caller's."""
    shares, loads = [[] for _ in range(threads)], [0] * threads
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        thread = loads.index(min(loads))
        shares[thread].append(i)
        loads[thread] += costs[i]
    return shares


def run_jobs(jobs, costs, helpers=()) -> list:
    """[job() for job in jobs], the calling thread among those that run them.

    Without helpers, or inside a job, the caller runs the jobs in order.
    With them, the jobs are shared out by cost (`_share_out`), the same way
    for the same costs. A failure stops the jobs not yet started; once the
    started ones have ended, the failure first in job order is raised.
    """
    if getattr(_state, "in_job", False):
        helpers = ()
    shares = _share_out(costs, 1 + len(helpers)) if helpers else [range(len(jobs))]
    results, errors = [None] * len(jobs), {}

    def run(share):
        outer, _state.in_job = getattr(_state, "in_job", False), True
        try:
            for i in share:
                if errors:
                    return
                try:
                    results[i] = jobs[i]()
                except BaseException as exc:  # noqa: BLE001 - re-raised by the caller
                    errors[i] = exc
        finally:
            _state.in_job = outer

    started = [helper.submit(run, share) for helper, share in zip(helpers, shares[1:]) if share]
    run(shares[0])
    for future in started:
        future.result()
    if errors:
        raise errors[min(errors)]
    return results
