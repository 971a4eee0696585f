"""The one pool and the one job runner: how jobs meet threads, fail and nest."""

import contextlib
import threading

import pytest

from soundscan import workers
from soundscan.workers import pool, run_jobs


def _recording(log, i):
    """A job that logs (its index, its thread) and returns its index."""
    def job():
        log.append((i, threading.get_ident()))
        return i
    return job


def _by_thread(log) -> dict:
    by_thread = {}
    for i, ident in log:
        by_thread.setdefault(ident, []).append(i)
    return by_thread


@contextlib.contextmanager
def _capped_pool(tasks, count):
    with workers.cap(count), pool(tasks) as got:
        yield got


def test_without_helpers_the_caller_runs_the_jobs_in_order(many_cpus):
    # no pool open on this thread, then a pool capped at one worker
    for context in (contextlib.nullcontext(), _capped_pool(5, 1)):
        log = []
        with context:
            out = run_jobs([_recording(log, i) for i in range(5)], [1, 9, 3, 9, 2])
        assert out == [0, 1, 2, 3, 4]
        assert log == [(i, threading.get_ident()) for i in range(5)]


def test_the_same_costs_split_the_same_way_longest_first_with_the_caller_as_thread_0(
        many_cpus):
    costs = [2, 7, 3, 7, 1, 4]
    splits = []
    with pool(3) as count:
        assert count == 3
        for _ in range(3):
            log = []
            out = run_jobs([_recording(log, i) for i in range(len(costs))], costs)
            assert out == list(range(len(costs)))
            splits.append(_by_thread(log))
    # longest first, each to the least-loaded thread, ties to the lower one:
    # 7 -> t0, 7 -> t1, 4 -> t2, 3 -> t2, 2 -> t0, 1 -> t1
    caller = threading.get_ident()
    assert splits[0][caller] == [1, 0]
    assert sorted(splits[0].values()) == [[1, 0], [3, 4], [5, 2]]
    assert splits[1] == splits[2] == splits[0]


def test_run_jobs_uses_the_pool_its_own_thread_opened(many_cpus):
    entered, done = threading.Event(), threading.Event()

    def opener():
        with pool(3):
            entered.set()
            done.wait(5)

    other = threading.Thread(target=opener)
    other.start()
    try:
        assert entered.wait(5)
        # another thread's open pool does not reach this thread's runs
        log = []
        run_jobs([_recording(log, i) for i in range(4)], [1] * 4)
        assert log == [(i, threading.get_ident()) for i in range(4)]
    finally:
        done.set()
        other.join(5)
    assert not other.is_alive()
    with pool(2):
        log = []
        run_jobs([_recording(log, i) for i in range(4)], [1] * 4)
    assert len(_by_thread(log)) == 2


def test_the_first_failure_in_job_order_is_raised_and_later_jobs_never_start(many_cpus):
    class JobFailed(Exception):
        pass

    started = []
    zero_started, one_failed = threading.Event(), threading.Event()

    def job(i):
        def run():
            started.append(i)
            if i == 0:      # fails only after job 1, the helper's first, has failed
                zero_started.set()
                one_failed.wait(5)
                raise KeyError("job 0")
            if i == 1:
                zero_started.wait(5)
                try:
                    raise JobFailed("job 1")
                finally:
                    one_failed.set()
            return i
        return run

    with pool(2):
        with pytest.raises(KeyError, match="job 0"):
            run_jobs([job(i) for i in range(6)], [1] * 6)
    # the caller runs 0, 2, 4 and the helper 1, 3, 5: each stops after its failure
    assert sorted(started) == [0, 1]


def test_a_run_nested_inside_a_job_stays_on_that_jobs_thread(many_cpus):
    threads = {}    # outer job -> (its thread, the threads of its nested jobs in order)

    def outer(i):
        def run():
            # each job opens idle helpers of its own, so that a runner
            # sending the nested jobs out fails here instead of waiting on
            # a busy thread
            with pool(3):
                log = []
                out = run_jobs([_recording(log, j) for j in range(3)], [1, 1, 1])
            threads[i] = (threading.get_ident(), log)
            return out
        return run

    with pool(3):
        out = run_jobs([outer(i) for i in range(3)], [1, 1, 1])
    assert out == [[0, 1, 2]] * 3
    assert len({ident for ident, _ in threads.values()}) == 3
    for ident, log in threads.values():
        assert log == [(j, ident) for j in range(3)]     # inline, in order


def test_pool_restores_the_outer_pool_on_exit_and_on_error(many_cpus):
    def threads_used():
        log = []
        run_jobs([_recording(log, i) for i in range(6)], [1] * 6)
        return len(_by_thread(log))

    class Raised(Exception):
        pass

    with pool(3):
        assert threads_used() == 3
        with pool(2):
            assert threads_used() == 2
        assert threads_used() == 3
        with pytest.raises(Raised):
            with pool(1):
                assert threads_used() == 1
                raise Raised()
        assert threads_used() == 3
    assert threads_used() == 1


def test_pool_rejects_fewer_than_one_worker(many_cpus):
    # the one way to set a pool's worker count is the cap
    for count in (0, -1):
        with pytest.raises(ValueError, match="thread cap must be >= 1"):
            with _capped_pool(3, count):
                pass
    with pool(8) as got:    # a refused cap leaves none behind
        assert got == 4


def test_pool_holds_blas_to_one_thread_whatever_the_cap(monkeypatch, fake_threadpoolctl):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    for tasks, limit, count in ((3, 1, 1), (3, 2, 2), (1, None, 1), (3, None, 2)):
        with contextlib.nullcontext() if limit is None else workers.cap(limit):
            fake_threadpoolctl["calls"].clear()
            with pool(tasks) as got:
                assert got == count, (tasks, limit)
                assert fake_threadpoolctl["limit"] == 1, (tasks, limit)
            assert fake_threadpoolctl["calls"] == [1], (tasks, limit)
            assert fake_threadpoolctl["limit"] == limit     # back to the cap's
    # one usable core: no worker threads, so nothing to hold BLAS down for
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    fake_threadpoolctl["calls"].clear()
    with pool(3) as got:
        assert got == 1
    assert fake_threadpoolctl["calls"] == []


def test_cap_without_threadpoolctl_warns_and_caps_the_workers(many_cpus, capsys):
    with _capped_pool(4, 2) as got:
        assert got == 2
    assert "threadpoolctl unavailable" in capsys.readouterr().err


def test_cap_holds_for_its_block_on_its_thread_and_nests(monkeypatch, fake_threadpoolctl):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    fake_threadpoolctl["limit"] = 8     # BLAS's limit before any cap

    def pool_size():
        with pool(6) as got:
            return got

    class Raised(Exception):
        pass

    with workers.cap(2):
        assert fake_threadpoolctl["limit"] == 2
        assert pool_size() == 2
        with pytest.raises(Raised):
            with workers.cap(3):
                assert (pool_size(), fake_threadpoolctl["limit"]) == (3, 3)
                raise Raised()
        assert (pool_size(), fake_threadpoolctl["limit"]) == (2, 2)
        # another thread is not capped by this thread's block
        other = []
        thread = threading.Thread(target=lambda: other.append(pool_size()))
        thread.start()
        thread.join(5)
        assert not thread.is_alive() and other == [4]
    assert (pool_size(), fake_threadpoolctl["limit"]) == (4, 8)
