"""The one job runner: how jobs meet threads, fail and nest."""

import threading

import pytest

from soundscan.workers import helper_threads, run_jobs


def _recording(log, i):
    """A job that logs (its index, its thread) and returns its index."""
    def job():
        log.append((i, threading.get_ident()))
        return i
    return job


def test_without_helpers_the_caller_runs_the_jobs_in_order():
    log = []
    with helper_threads(0) as helpers:
        assert helpers == []
        out = run_jobs([_recording(log, i) for i in range(5)], [1, 9, 3, 9, 2], helpers)
    assert out == [0, 1, 2, 3, 4]
    assert log == [(i, threading.get_ident()) for i in range(5)]


def test_the_same_costs_split_the_same_way_longest_first_with_the_caller_as_thread_0():
    costs = [2, 7, 3, 7, 1, 4]
    splits = []
    with helper_threads(2) as helpers:
        for _ in range(3):
            log = []
            out = run_jobs([_recording(log, i) for i in range(len(costs))], costs, helpers)
            assert out == list(range(len(costs)))
            by_thread = {}
            for i, ident in log:
                by_thread.setdefault(ident, []).append(i)
            splits.append(by_thread)
    # longest first, each to the least-loaded thread, ties to the lower one:
    # 7 -> t0, 7 -> t1, 4 -> t2, 3 -> t2, 2 -> t0, 1 -> t1
    caller = threading.get_ident()
    assert splits[0][caller] == [1, 0]
    assert sorted(splits[0].values()) == [[1, 0], [3, 4], [5, 2]]
    assert splits[1] == splits[2] == splits[0]


def test_the_first_failure_in_job_order_is_raised_and_later_jobs_never_start():
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

    with helper_threads(1) as helpers:
        with pytest.raises(KeyError, match="job 0"):
            run_jobs([job(i) for i in range(6)], [1] * 6, helpers)
    # the caller runs 0, 2, 4 and the helper 1, 3, 5: each stops after its failure
    assert sorted(started) == [0, 1]


def test_a_run_nested_inside_a_job_stays_on_that_jobs_thread():
    threads = {}    # outer job -> (its thread, the threads of its nested jobs in order)

    def outer(i, spare):
        def run():
            log = []
            out = run_jobs([_recording(log, j) for j in range(3)], [1, 1, 1], spare)
            threads[i] = (threading.get_ident(), log)
            return out
        return run

    # the nested runs are handed idle helpers of their own, so that a runner
    # sending them out fails here instead of waiting on a busy thread
    with helper_threads(2) as helpers, helper_threads(2) as spare:
        out = run_jobs([outer(i, spare) for i in range(3)], [1, 1, 1], helpers)
    assert out == [[0, 1, 2]] * 3
    assert len({ident for ident, _ in threads.values()}) == 3
    for ident, log in threads.values():
        assert log == [(j, ident) for j in range(3)]     # inline, in order
