"""How many worker threads a pool of independent numpy tasks may use.

Embedding (chunks of rows), training (the branch sub-graphs of each step)
and K-Means (the restarts of one call) run numpy work on threads; numpy
releases the interpreter lock inside its kernels. All three ask
`worker_pool` how many threads to start and run their work, the single
worker case too, in the context it returns.
"""

from __future__ import annotations

import contextlib
import os


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
