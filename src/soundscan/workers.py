"""Worker threads for independent numpy jobs: the one pool and the one runner.

Embedding (chunks of rows), training (the branch sub-graphs of each step)
and K-Means (the restarts of one call) run numpy work on threads; numpy
releases the interpreter lock inside its kernels. Each opens `pool`, which
sizes the threads for its jobs, holds BLAS to one thread while several run
and opens the threads besides the caller's; inside it, `run_jobs` shares
jobs out by cost over those threads. A thread that opened no pool, or that
is running a job, runs its jobs inline. Thread and BLAS counts are
decided here only: `cap` caps both for a block, as the CLI's `--threads`
does for one command.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

# per thread: .helpers, the helper threads of the pool it opened; .cap, the
# worker cap of the `cap` block it is in; .in_job while it runs jobs of run_jobs
_state = threading.local()


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


@contextlib.contextmanager
def cap(count: int):
    """Cap the workers of the pools this thread opens, and BLAS by threadpoolctl
    (without it, warn on stderr), at `count` threads until the block ends,
    when both caps go back to what they were. A `count` below 1 is a ValueError."""
    if count < 1:
        raise ValueError(f"thread cap must be >= 1, got {count}")
    try:
        import threadpoolctl
    except ImportError:
        print("soundscan: warning: threadpoolctl unavailable, BLAS stays uncapped", file=sys.stderr)
        blas_limit = contextlib.nullcontext()
    else:
        blas_limit = threadpoolctl.threadpool_limits(limits=count)
    with blas_limit:
        outer, _state.cap = getattr(_state, "cap", None), count
        try:
            yield
        finally:
            _state.cap = outer


@contextlib.contextmanager
def pool(tasks: int):
    """Open worker threads for `tasks` independent tasks on this thread;
    yields the worker count, this thread among them.

    One worker per usable core, capped by the `cap` this thread is in and
    by `tasks`. Each worker's matmuls would start their own BLAS threads on
    top of the pool, so several workers run only with BLAS held to one
    thread: by threadpoolctl, or by the environment. Where neither holds it,
    one worker leaves the cores to BLAS. With threadpoolctl and more than
    one usable core the pool holds BLAS to one thread whatever the worker
    count, so that the rounding, which depends on the BLAS thread count,
    does not depend on the cap or on `tasks`. The helper threads, one
    executor each so that a job can be sent to a given thread, serve this
    thread's `run_jobs` calls until the pool closes, which restores the
    pool that was open before.
    """
    cpus = usable_cpus()
    workers = min(cpus, getattr(_state, "cap", None) or tasks, tasks)
    blas_limit = contextlib.nullcontext()
    if cpus <= 1:
        workers = 1
    else:
        try:
            import threadpoolctl
        except ImportError:
            workers = workers if blas_env_single_threaded() else 1
        else:
            blas_limit = threadpoolctl.threadpool_limits(limits=1)
    with blas_limit, contextlib.ExitStack() as stack:
        helpers = [stack.enter_context(ThreadPoolExecutor(1, thread_name_prefix="soundscan-worker"))
                   for _ in range(workers - 1)]
        outer, _state.helpers = getattr(_state, "helpers", ()), helpers
        try:
            yield workers
        finally:
            _state.helpers = outer


def _share_out(costs, threads: int) -> list:
    """Job indices per thread: longest job first, each to the thread with the
    least cost so far (ties to the lower thread); thread 0 is the caller's."""
    shares, loads = [[] for _ in range(threads)], [0] * threads
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        thread = loads.index(min(loads))
        shares[thread].append(i)
        loads[thread] += costs[i]
    return shares


def run_jobs(jobs, costs) -> list:
    """[job() for job in jobs], the calling thread among those that run them.

    With no `pool` open on the calling thread, or inside a job, the caller
    runs the jobs in order. Otherwise the jobs are shared out by cost over
    the pool's threads (`_share_out`), the same way for the same costs. A
    failure stops the jobs not yet started; once the started ones have
    ended, the failure first in job order is raised.
    """
    helpers = () if getattr(_state, "in_job", False) else getattr(_state, "helpers", ())
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
