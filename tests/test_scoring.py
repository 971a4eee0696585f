"""Prototype scoring: K-Means against an exhaustive oracle, cosine scores,
grouping, and persistence."""

import itertools

import numpy as np
import pytest

from soundscan.checkpoint import load_container, save_container
from soundscan.data import ManifestRow
from soundscan.errors import CheckpointError, DataError
from soundscan.network import load_model
from soundscan.scoring import (PrototypeSet, PrototypeStore, anomaly_score,
                               cluster_prototypes, embed_rows, group_train_rows,
                               kmeans, score_test_rows)


def best_two_partition_inertia(points):
    """Exhaustive oracle: minimum sum of squared distances to part means
    over every 2-partition (including the one-cluster split handled by
    allowing an empty part to mean 'all in one')."""
    n = len(points)
    best = np.inf
    for mask_bits in range(2 ** (n - 1)):  # fix point 0 in part A to halve the space
        part_a = [0] + [i for i in range(1, n) if mask_bits >> (i - 1) & 1]
        part_b = [i for i in range(1, n) if not mask_bits >> (i - 1) & 1]
        inertia = 0.0
        for part in (part_a, part_b):
            if part:
                pts = points[part]
                inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def unit_rows(x):
    return x / np.linalg.norm(x, axis=1, keepdims=True)


# -- kmeans ------------------------------------------------------------------------

def test_kmeans_single_point_any_p():
    point = np.array([[3.0, 4.0]])
    for p in (1, 2, 7):
        centroids = kmeans(point, p, seed=0)
        assert centroids.shape == (1, 2)
        np.testing.assert_allclose(centroids[0], [0.6, 0.8], rtol=1e-12)


def test_kmeans_two_separated_clusters():
    rng = np.random.default_rng(1)
    a = unit_rows(np.array([1.0, 0.0, 0.0]) + 0.01 * rng.standard_normal((10, 3)))
    b = unit_rows(np.array([0.0, 1.0, 0.0]) + 0.01 * rng.standard_normal((10, 3)))
    x = np.concatenate([a, b])
    centroids = kmeans(x, 2, seed=2)
    means = unit_rows(np.stack([a.mean(axis=0), b.mean(axis=0)]))
    # match centroids to cluster means irrespective of order
    d = np.linalg.norm(centroids[:, None, :] - means[None, :, :], axis=2)
    assert d.min(axis=1).max() < 1e-6


def test_kmeans_p_equals_m_zero_inertia():
    rng = np.random.default_rng(3)
    x = unit_rows(rng.standard_normal((5, 4)))
    _, inertia = kmeans(x, 5, seed=4, return_inertia=True)
    assert inertia == pytest.approx(0.0, abs=1e-12)


def test_kmeans_matches_exhaustive_partition_oracle():
    # acceptance-grade check at small scale: 20 seeds here, 100 in the gate
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = unit_rows(rng.standard_normal((6, 3)))
        _, inertia = kmeans(x, 2, seed=seed, return_inertia=True)
        oracle = best_two_partition_inertia(x)
        assert abs(inertia - oracle) < 1e-9, f"seed {seed}: {inertia} vs {oracle}"


def reference_refine(x, x2, centroids, k, max_sweeps=50):
    """The row-by-row single-point refine that the batched one replaced,
    kept verbatim as a reference (x2 is unused)."""
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    counts = np.bincount(labels, minlength=k).astype(np.float64)
    sums = np.zeros_like(centroids)
    np.add.at(sums, labels, x)

    def means():
        safe = np.maximum(counts, 1.0)[:, None]
        return sums / safe  # empty clusters sit at the origin; cost 0 below

    for _ in range(max_sweeps):
        improved = False
        for i in range(len(x)):
            a = labels[i]
            if counts[a] <= 1:
                continue
            mus = means()
            gain = counts[a] / (counts[a] - 1) * ((x[i] - mus[a]) ** 2).sum()
            costs = counts / (counts + 1) * ((x[i] - mus) ** 2).sum(axis=1)
            costs[a] = np.inf
            b = int(costs.argmin())
            if costs[b] - gain < -1e-12:
                sums[a] -= x[i]
                sums[b] += x[i]
                counts[a] -= 1
                counts[b] += 1
                labels[i] = b
                improved = True
        if not improved:
            break
    centroids = means()
    d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    if (counts == 0).any():
        worst = int(d2.min(axis=1).argmax())
        for c in np.flatnonzero(counts == 0):
            centroids[c] = x[worst]
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return centroids, float(d2.min(axis=1).sum())


def refine_cases():
    """(name, rows, k): single rows, k >= M, duplicate rows, a 300 x 32
    group and random small groups."""
    rng = np.random.default_rng(42)
    base = rng.standard_normal((4, 5))
    cases = [("M=1,k=1", rng.standard_normal((1, 3)), 1),
             ("M=1,k=4", rng.standard_normal((1, 3)), 4),
             ("k=M", rng.standard_normal((5, 4)), 5),
             ("k>M", rng.standard_normal((4, 6)), 7),
             ("duplicates", base[rng.integers(0, 4, 24)], 3),
             ("duplicates,k>distinct", base[[0, 1, 1, 2, 3, 3, 3]], 6),
             ("300x32", rng.standard_normal((300, 32)), 8)]
    for i in range(15):
        m, d, k = int(rng.integers(2, 60)), int(rng.integers(2, 9)), int(rng.integers(1, 10))
        cases.append((f"random{i}", rng.standard_normal((m, d)), k))
    return cases


def canonical(centroids):
    """Rows in lexicographic order: restarts that reach the same partition
    tie up to rounding, so which one wins may permute the clusters."""
    return centroids[np.lexsort(centroids.T[::-1])]


def test_kmeans_matches_row_by_row_refine(monkeypatch):
    import soundscan.scoring as scoring

    cases = refine_cases()
    assert len(cases) >= 20
    results = [kmeans(x, k, seed=[5, i], return_inertia=True)
               for i, (_, x, k) in enumerate(cases)]
    monkeypatch.setattr(scoring, "_single_point_refine", reference_refine)
    for i, (name, x, k) in enumerate(cases):
        centroids, inertia = results[i]
        ref_centroids, ref_inertia = kmeans(x, k, seed=[5, i], return_inertia=True)
        assert abs(inertia - ref_inertia) < 1e-9, f"{name}: {inertia} vs {ref_inertia}"
        np.testing.assert_allclose(canonical(centroids), canonical(ref_centroids),
                                   rtol=0, atol=1e-9, err_msg=name)


def sse(points):
    return ((points - points.mean(axis=0)) ** 2).sum() if len(points) else 0.0


def test_kmeans_no_single_row_move_improves(monkeypatch):
    import soundscan.scoring as scoring

    refine = scoring._single_point_refine
    restarts = []

    def recording_refine(*args):
        restarts.append(refine(*args))
        return restarts[-1]

    monkeypatch.setattr(scoring, "_single_point_refine", recording_refine)
    for name, raw, k in refine_cases():
        x = unit_rows(raw)
        restarts.clear()
        _, inertia = kmeans(x, k, seed=11, return_inertia=True)
        # the winning restart's centroids, before kmeans re-normalizes them
        means, best = restarts[int(np.argmin([r[1] for r in restarts]))]
        assert best == inertia, name
        labels = ((x[:, None, :] - means[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert abs(sum(sse(x[labels == c]) for c in range(k)) - inertia) < 1e-9, name
        for i in range(len(x)):
            home = labels == labels[i]
            left = home.copy()
            left[i] = False
            for b in range(k):
                if b == labels[i]:
                    continue
                away = labels == b
                joined = away.copy()
                joined[i] = True
                delta = (sse(x[left]) + sse(x[joined])
                         - sse(x[home]) - sse(x[away]))
                assert delta >= -1e-9, f"{name}: moving row {i} to {b} gains {-delta}"


def test_kmeans_empty_input_rejected():
    with pytest.raises(DataError):
        kmeans(np.zeros((0, 4)), 2, seed=0)


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(5)
    x = unit_rows(rng.standard_normal((12, 4)))
    a = kmeans(x, 3, seed=9)
    b = kmeans(x, 3, seed=9)
    np.testing.assert_array_equal(a, b)


# -- K-Means restarts over a thread pool -------------------------------------------------

def clustered_group(rows, dim, seed=0):
    """Unit rows around 24 directions, like a machine type's train embeddings."""
    rng = np.random.default_rng(seed)
    modes = unit_rows(rng.standard_normal((24, dim)))
    noise = rng.standard_normal((rows, dim)) / np.sqrt(dim)
    return unit_rows(modes[rng.integers(24, size=rows)] + 0.35 * noise)


class RestartFailed(Exception):
    pass


def _record_refine_threads(monkeypatch, scoring, fail_on=None):
    """Thread of each `_single_point_refine` call; the call numbered `fail_on`
    raises RestartFailed, and the others wait a little, so that a pooled
    restart leaves time for the other workers to take theirs."""
    import threading
    import time

    threads = []
    original = scoring._single_point_refine

    def recording_refine(*args):
        threads.append(threading.get_ident())
        if len(threads) - 1 == fail_on:
            raise RestartFailed("restart failed")
        time.sleep(0.005)
        return original(*args)

    monkeypatch.setattr(scoring, "_single_point_refine", recording_refine)
    return threads


def test_kmeans_same_bytes_for_any_worker_count(monkeypatch):
    from soundscan import workers

    x = clustered_group(990, 96)
    monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
    _pin_blas_by_environment(monkeypatch)
    reference = kmeans(x, 16, seed=[7, 1], return_inertia=True, max_workers=1)
    for count in (2, 3, None):
        centroids, inertia = kmeans(x, 16, seed=[7, 1], return_inertia=True,
                                    max_workers=count)
        assert np.array_equal(centroids, reference[0]), count
        assert inertia == reference[1], count


def test_kmeans_pools_restarts_only_from_the_cell_threshold(monkeypatch):
    import threading

    from soundscan import scoring, workers

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _pin_blas_by_environment(monkeypatch)
    threads = _record_refine_threads(monkeypatch, scoring)
    dim = 64
    rows = -(-scoring.KMEANS_POOL_CELLS // dim)     # the fewest rows that pool
    kmeans(clustered_group(rows, dim), 16, seed=1)
    assert len(threads) == 10
    assert len(set(threads)) == 2
    assert threading.get_ident() in threads     # the caller runs a share
    threads.clear()
    kmeans(clustered_group(rows - 1, dim), 16, seed=1)
    assert threads == [threading.get_ident()] * 10


def test_kmeans_tied_restarts_keep_the_first(monkeypatch):
    from soundscan import scoring, workers

    # four distinct rows, 256 copies each: every restart finds them with inertia
    # exactly 0, in the order its own seeding drew them
    rng = np.random.default_rng(4)
    base = unit_rows(rng.standard_normal((4, 64)))
    x = np.repeat(base, 256, axis=0)
    assert x.size >= scoring.KMEANS_POOL_CELLS
    draws = np.random.default_rng(3)    # the ten seedings kmeans(seed=3) draws
    orders = {tuple((scoring._kmeans_pp_init(x, scoring._row_sq(x), 4, draws)
                     @ base.T).argmax(axis=1)) for _ in range(10)}
    assert len(orders) > 1
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _pin_blas_by_environment(monkeypatch)
    assert np.array_equal(kmeans(x, 4, seed=3), kmeans(x, 4, seed=3, n_init=1))


def test_kmeans_failing_restart_reraises_its_type_and_cancels_the_rest(monkeypatch):
    from soundscan import scoring, workers

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _pin_blas_by_environment(monkeypatch)
    threads = _record_refine_threads(monkeypatch, scoring, fail_on=0)
    with pytest.raises(RestartFailed):
        kmeans(clustered_group(990, 96), 16, seed=1)
    assert len(threads) < 10


def test_kmeans_rejects_zero_workers():
    with pytest.raises(ValueError, match="max_workers"):
        kmeans(clustered_group(20, 4), 2, seed=0, max_workers=0)


def test_worker_pool_holds_blas_to_one_thread_whatever_the_cap(monkeypatch,
                                                                fake_threadpoolctl):
    from soundscan import workers

    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    for args, count in (((3, 1), 1), ((3, 2), 2), ((1,), 1), ((3,), 2)):
        fake_threadpoolctl["calls"].clear()
        got, limit = workers.worker_pool(*args)
        assert got == count, args
        with limit:
            assert fake_threadpoolctl["limit"] == 1, args
        assert fake_threadpoolctl["calls"] == [1], args
    # one usable core: no worker threads, so nothing to hold BLAS down for
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
    fake_threadpoolctl["calls"].clear()
    assert workers.worker_pool(3)[0] == 1
    assert fake_threadpoolctl["calls"] == []


# -- cosine scores --------------------------------------------------------------------

def test_cosine_distance_reference_points():
    # cosine distance to a one-centroid set at e1: 0 at e1, 1 at e2, 2 at -e1
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    at_e1 = PrototypeSet("g", "all", e1[None, :])
    assert anomaly_score(e1, at_e1) == 0.0
    assert anomaly_score(e2, at_e1) == 1.0
    assert anomaly_score(-e1, at_e1) == 2.0


def test_anomaly_score_hand_values():
    protos = PrototypeSet("g", "all", np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert anomaly_score(np.array([0.0, 1.0]), protos) == 0.0
    diag = np.array([1.0, 1.0]) / np.sqrt(2)
    assert anomaly_score(diag, protos) == pytest.approx(1 - 1 / np.sqrt(2), rel=1e-12)


def test_anomaly_score_min_monotone(rng):
    protos = PrototypeSet("g", "all", unit_rows(rng.standard_normal((4, 8))))
    extra = PrototypeSet("g", "target", unit_rows(rng.standard_normal((3, 8))))
    for _ in range(20):
        v = rng.standard_normal(8)
        v /= np.linalg.norm(v)
        base = anomaly_score(v, [protos])
        assert anomaly_score(v, [protos, extra]) <= base + 1e-15
        assert 0.0 <= base <= 2.0


# -- grouping -----------------------------------------------------------------------

def mrow(path, mtype, ident, domain="", split="train", label="normal"):
    return ManifestRow(path, mtype, ident, domain, split, label)


def test_per_id_grouping_counts():
    rows = [mrow(f"{t}{i}{n}.wav", t, f"id_{i}")
            for t in ("fan", "pump") for i in (0, 1) for n in range(3)]
    groups = group_train_rows(rows, "per-id")
    assert len(groups) == 4
    assert all(len(v) == 3 for v in groups.values())


def test_per_type_grouping_splits_domains():
    rows = ([mrow(f"s{i}.wav", "bearing", "vel_6", domain="source") for i in range(4)]
            + [mrow(f"t{i}.wav", "bearing", "vel_6", domain="target") for i in range(2)])
    groups = group_train_rows(rows, "per-type")
    assert set(groups) == {("bearing", "source"), ("bearing", "target")}
    assert len(groups[("bearing", "target")]) == 2


def test_per_type_without_domains_single_set():
    rows = [mrow(f"x{i}.wav", "fan", "id_00") for i in range(5)]
    groups = group_train_rows(rows, "per-type")
    assert set(groups) == {("fan", "all")}


# -- store round trip and end-to-end scoring ----------------------------------------------

def test_store_save_load_round_trip(tmp_path, rng):
    store = PrototypeStore("per-type")
    store.add(PrototypeSet("fan", "source", unit_rows(rng.standard_normal((4, 6)))))
    store.add(PrototypeSet("fan", "target", unit_rows(rng.standard_normal((2, 6)))))
    path = tmp_path / "store.bin"
    store.save(path, echo="")
    loaded, _ = PrototypeStore.load(path)
    assert loaded.mode == "per-type"
    assert set(loaded.sets) == set(store.sets)
    for key in store.sets:
        np.testing.assert_array_equal(loaded.sets[key].centroids,
                                      store.sets[key].centroids)


def test_store_echo_with_retired_label_schema_loads(tmp_path, rng):
    from soundscan.config import config_text, micro_preset

    cfg = micro_preset(seed=3)
    echo = config_text(cfg)
    store = PrototypeStore("per-type")
    store.add(PrototypeSet("fan", "source", unit_rows(rng.standard_normal((4, 6)))))
    path = tmp_path / "store.bin"
    store.save(path, echo=echo + "label_schema=type_id\n")
    assert PrototypeStore.load(path)[1] == cfg


def test_store_load_rejects_a_checkpoint(tiny_checkpoint):
    ckpt, _ = tiny_checkpoint
    with pytest.raises(CheckpointError, match="meta/mode") as info:
        PrototypeStore.load(ckpt)
    assert str(ckpt) in str(info.value)


def test_store_load_rejects_an_embeddings_file(tmp_path, capsys, tiny_corpus,
                                               tiny_checkpoint):
    from soundscan.cli import main

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    emb = tmp_path / "emb.bin"
    assert main(["embed", "--manifest", str(root / "manifest.csv"),
                 "--checkpoint", str(ckpt), "--out", str(emb)]) == 0
    with pytest.raises(CheckpointError) as info:
        PrototypeStore.load(emb)
    assert str(emb) in str(info.value)


def test_store_load_rejects_stray_arrays_and_a_foreign_echo(tmp_path, rng):
    store = PrototypeStore("per-id")
    store.add(PrototypeSet("fan/id_00", "", unit_rows(rng.standard_normal((2, 6)))))
    path = tmp_path / "store.bin"
    store.save(path, echo="embed_dim=64\n")
    with pytest.raises(CheckpointError, match="config echo"):
        PrototypeStore.load(path)
    arrays, _ = load_container(path)
    save_container(path, {**arrays, "emb/x.wav": np.zeros(6)}, "")
    with pytest.raises(CheckpointError, match="emb/x.wav"):
        PrototypeStore.load(path)


def test_sets_for_follows_add_order_and_replacement(rng):
    store = PrototypeStore("per-type")
    sets = {(key, domain): PrototypeSet(key, domain, unit_rows(rng.standard_normal((2, 3))))
            for key, domain in [("fan", "source"), ("pump", "source"), ("fan", "target")]}
    for ps in sets.values():
        store.add(ps)
    fan = mrow("a.wav", "fan", "id_00", domain="source", split="test")
    assert store.sets_for(fan) == [sets[("fan", "source")], sets[("fan", "target")]]
    newer = PrototypeSet("fan", "source", unit_rows(rng.standard_normal((3, 3))))
    store.add(newer)
    assert store.sets_for(fan) == [newer, sets[("fan", "target")]]
    assert store.sets_for(fan) == [ps for (k, _), ps in store.sets.items() if k == "fan"]
    assert store.sets_for(mrow("b.wav", "valve", "id_00", split="test")) == []


def test_build_store_and_score_corpus(tiny_corpus, tiny_checkpoint, tiny_run_cfg):
    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    model, _ = load_model(ckpt)
    store = cluster_prototypes(rows, model, "per-type",
                               tiny_run_cfg.scoring.prototypes, seed=0)
    assert set(store.sets) == {("machine00", "all"), ("machine01", "all")}
    # 6 training clips with P=4 requested: full prototype count available
    assert store.sets[("machine00", "all")].count == 4

    scores, unknown = score_test_rows(rows, store, model)
    test_rows = [r for r in rows if r.split == "test"]
    assert not unknown
    assert [p for p, _ in scores] == [r.path for r in test_rows]
    assert all(0.0 <= s <= 2.0 for _, s in scores)

    # normal training clips sit closer to their own prototypes than anomalies
    train_rows = [r for r in rows if r.split == "train"]
    train_scores = [anomaly_score(emb, store.sets_for(row))
                    for row, emb in zip(train_rows, embed_rows(model, train_rows))]
    score_map = dict(scores)
    train_median = np.median(train_scores)
    anomaly_median = np.median([score_map[r.path] for r in test_rows
                                if r.label == "anomaly"])
    assert train_median <= anomaly_median


def test_score_unknown_group_listed_not_fatal(tiny_corpus, tiny_checkpoint, tiny_run_cfg):
    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    model, _ = load_model(ckpt)
    store = cluster_prototypes(rows, model, "per-type",
                               tiny_run_cfg.scoring.prototypes, seed=0)
    stranger = ManifestRow(rows[0].path, "mystery", "id_09", "", "test", "normal")
    scores, unknown = score_test_rows(list(rows) + [stranger], store, model)
    assert unknown == [stranger.path]
    assert len(scores) == sum(r.split == "test" for r in rows)


def test_kmeans_reduces_p_to_sample_count(rng):
    x = unit_rows(rng.standard_normal((3, 5)))
    centroids = kmeans(x, 16, seed=1)
    assert centroids.shape == (3, 5)


# -- embedding over a thread pool ----------------------------------------------------

def _pin_blas_by_environment(monkeypatch):
    # no threadpoolctl; the environment holds BLAS to one thread
    import sys

    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")


def _record_chunk_threads(monkeypatch, scoring):
    import threading

    threads = []
    original = scoring._embed_chunk

    def recording_chunk(model, chunk):
        threads.append(threading.get_ident())
        return original(model, chunk)

    monkeypatch.setattr(scoring, "_embed_chunk", recording_chunk)
    return threads


def test_embed_rows_same_bytes_for_any_worker_count(tiny_corpus, tiny_checkpoint,
                                                    monkeypatch):
    from soundscan import scoring, workers
    from soundscan.network import load_model

    rows, _ = tiny_corpus
    rows = list(rows) * 2  # 48 rows: three chunks
    model, _ = load_model(tiny_checkpoint[0])
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    _pin_blas_by_environment(monkeypatch)
    threads = _record_chunk_threads(monkeypatch, scoring)
    reference = scoring.embed_rows(model, rows, max_workers=1)
    assert reference.shape == (48, model.embed_dim)
    assert len(set(threads)) == 1
    for workers in (2, 3, 3):
        threads.clear()
        got = scoring.embed_rows(model, rows, max_workers=workers)
        assert got.tobytes() == reference.tobytes()
        assert 1 < len(set(threads)) <= workers
    # a chunk's rows embed alone exactly as they do inside the whole batch
    np.testing.assert_array_equal(scoring.embed_rows(model, rows[16:32]),
                                  reference[16:32])


def test_embed_rows_pools_only_with_blas_at_one_thread(tiny_corpus, tiny_checkpoint,
                                                       monkeypatch):
    import sys

    from soundscan import scoring, workers
    from soundscan.network import load_model

    rows, _ = tiny_corpus
    model, _ = load_model(tiny_checkpoint[0])
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    threads = _record_chunk_threads(monkeypatch, scoring)
    # no threadpoolctl, and OpenBLAS is held to one thread but MKL is not
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "4")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    scoring.embed_rows(model, list(rows))
    assert len(set(threads)) == 1
    threads.clear()
    monkeypatch.setenv("MKL_NUM_THREADS", "1")
    scoring.embed_rows(model, list(rows))
    assert len(set(threads)) == 2


def test_embed_rows_failure_cancels_pending_chunks(tiny_corpus, tiny_checkpoint,
                                                   tmp_path, monkeypatch):
    from dataclasses import replace

    from soundscan import scoring, workers
    from soundscan.network import load_model
    from soundscan.wavio import WavNotFoundError

    rows, _ = tiny_corpus
    model, _ = load_model(tiny_checkpoint[0])
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _pin_blas_by_environment(monkeypatch)
    threads = _record_chunk_threads(monkeypatch, scoring)
    broken = list(rows) * 10  # 240 rows: 15 chunks
    broken[0] = replace(rows[0], path=str(tmp_path / "gone.wav"))
    with pytest.raises(WavNotFoundError):
        scoring.embed_rows(model, broken)
    assert len(threads) < 15


def test_embed_rows_leaves_grad_mode_on(tiny_corpus, tiny_checkpoint, tiny_run_cfg,
                                        tmp_path, monkeypatch):
    from dataclasses import replace

    from soundscan import autodiff as ad
    from soundscan import scoring, workers
    from soundscan.network import MultiScaleNet, features_for_batch, load_model, load_waves
    from soundscan.wavio import WavNotFoundError

    rows, _ = tiny_corpus
    model, _ = load_model(tiny_checkpoint[0])
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    _pin_blas_by_environment(monkeypatch)
    scoring.embed_rows(model, list(rows))
    assert ad._grad_enabled is True
    broken = list(rows)
    broken[20] = replace(rows[20], path=str(tmp_path / "gone.wav"))
    with pytest.raises(WavNotFoundError):
        scoring.embed_rows(model, broken)
    assert ad._grad_enabled is True

    net = MultiScaleNet(tiny_run_cfg.model)
    specs, spectra = features_for_batch(load_waves([rows[0], rows[0]], net.cfg), net.cfg)
    out = net(specs, spectra)
    assert out._backward is not None and out._parents


def test_embed_rows_rejects_training_mode_and_zero_workers(tiny_corpus, tiny_run_cfg):
    from soundscan.network import MultiScaleNet
    from soundscan.scoring import embed_rows

    rows, _ = tiny_corpus
    model = MultiScaleNet(tiny_run_cfg.model)
    with pytest.raises(ValueError, match="eval-mode"):
        embed_rows(model, list(rows))
    model.eval()
    with pytest.raises(ValueError, match="max_workers"):
        embed_rows(model, list(rows), max_workers=0)
    assert embed_rows(model, []).shape == (0, model.embed_dim)
