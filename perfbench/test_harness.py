"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Run from the repository root; the seed tests import soundscan from ./src.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import stats, tracing  # noqa: E402


# -- tail percentile selection -------------------------------------------------

@pytest.mark.parametrize("n,expected", [(11, 9), (20, 52), (40, 76), (100, 90), (1000, 99)])
def test_tail_percentile_is_highest_with_ten_beyond(n, expected):
    values = [float(v) for v in range(1, n + 1)]
    p, value = stats.tail_percentile(values)
    assert p == expected
    assert value == pytest.approx(np.percentile(values, p))
    assert sum(v > value for v in values) >= 10
    if p < 99:
        assert sum(v > np.percentile(values, p + 1) for v in values) < 10


def test_tail_percentile_needs_eleven_samples():
    assert stats.tail_percentile([1.0] * 5 + [2.0] * 5) is None
    assert stats.tail_percentile(list(range(11)))[0] == 9


def test_tail_percentile_ignores_input_order():
    rng = np.random.default_rng(0)
    values = list(rng.exponential(size=57))
    assert stats.tail_percentile(values) == stats.tail_percentile(sorted(values))


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = list(range(1, 11))
    q1, q2, q3 = 2.75, 5.5, 8.25
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / q2)


# -- spans and self time ---------------------------------------------------------

def _span(name, start, end, parent):
    return (name, float(start), float(end), parent, 0, 0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0, 10, -1),
        _span("b", 1, 4, 0),
        _span("c", 2, 3, 1),
        _span("d", 5, 9, 0),
        _span("e", 11, 12, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    summary = tracing.summarize(spans)
    assert summary["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0, "rows": 0, "bytes": 0}
    assert summary["b"]["self_s"] == pytest.approx(2.0)


def test_summary_counts_a_reentered_name_once():
    spans = [_span("f", 0, 10, -1), _span("g", 1, 9, 0), _span("f", 2, 8, 1)]
    summary = tracing.summarize(spans)
    assert summary["f"]["calls"] == 2
    assert summary["f"]["s"] == pytest.approx(10.0)
    assert summary["f"]["self_s"] == pytest.approx(2.0 + 6.0)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_nesting_counts_and_exceptions():
    tracer = tracing.Tracer(clock=_FakeClock())

    def leaf(x):
        return np.zeros(x)

    traced_leaf = tracer.wrap("leaf", leaf, count=lambda a, k, r: (len(r), r.nbytes))

    def outer():
        traced_leaf(3)
        traced_leaf(2)

    tracer.wrap("outer", outer)()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()

    names = [s[tracing.NAME] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "boom"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 0, -1]
    assert tracer.spans[1][tracing.ROWS] == 3 and tracer.spans[1][tracing.BYTES] == 24
    assert all(s[tracing.END] > s[tracing.START] for s in tracer.spans)
    selfs = tracing.self_times(tracer.spans)
    assert selfs[0] == pytest.approx(5.0 - 2.0)   # outer: 5 ticks, two 1-tick leaves


def test_patches_rebind_every_name_and_restore():
    import soundscan.network as network
    import soundscan.scanning as scanning

    original = scanning.scan_array
    assert network.scan_array is original
    tracer = tracing.Tracer()
    with tracing.patched() as patches:
        tracing.install(patches, tracer, [p for p in tracing.TRACE_POINTS
                                          if p[0] == "scanning.scan_array"])
        assert network.scan_array is scanning.scan_array is not original
        network.scan_array(np.zeros((4, 4)), 2, 2, np.array([0, 2]), np.array([0]))
    assert network.scan_array is original and scanning.scan_array is original
    assert [s[tracing.NAME] for s in tracer.spans] == ["scanning.scan_array"]
    assert tracer.spans[0][tracing.BYTES] == 2 * 2 * 2 * 8


def test_every_trace_point_resolves():
    import soundscan.cli  # noqa: F401 - loads every layer

    with tracing.patched() as patches:
        tracing.install(patches, tracing.Tracer())
        assert len(patches._undo) >= len(tracing.TRACE_POINTS)


# -- seed plumbing -----------------------------------------------------------------

def test_sub_seeds_follow_the_seed():
    from perfbench import workloads

    assert workloads.derive_seeds(3) == workloads.derive_seeds(3)
    assert workloads.derive_seeds(3) != workloads.derive_seeds(4)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    from perfbench import workloads

    shape = workloads.ProtoShape(types=2, source_rows=12, target_rows=3, test_normal=4,
                                 test_anomaly=4, dim=16, prototypes=2, modes=4)
    a, b, c = (workloads.make_groups(shape, seed) for seed in (7, 7, 8))
    assert workloads.groups_digest(a) == workloads.groups_digest(b)
    assert workloads.groups_digest(a) != workloads.groups_digest(c)
    for key, group in a["train"].items():
        np.testing.assert_array_equal(group, b["train"][key])
        assert not np.array_equal(group, c["train"][key])
        np.testing.assert_allclose(np.linalg.norm(group, axis=1), 1.0, atol=1e-12)

    corpora = [workloads.make_corpus(str(tmp_path / name), seed)
               for name, seed in (("a", 7), ("b", 7), ("c", 8))]
    digests = [workloads.corpus_digest(corpus) for corpus in corpora]
    assert digests[0] == digests[1] != digests[2]


def test_unit_counts_follow_seconds_only():
    from perfbench import workloads

    for cls in workloads.WORKLOADS.values():
        n = cls.reference_units
        assert workloads.unit_count(n, workloads.REFERENCE_SECONDS) == n
        assert workloads.unit_count(n, 2 * workloads.REFERENCE_SECONDS) == 2 * n
        assert workloads.unit_count(n, 0.01) == 1


def test_benchmark_json_lists_what_run_prints():
    import json

    from perfbench import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [(name, unit) for name, _, _, unit in run.PER_LAYER]
