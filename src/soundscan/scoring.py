"""Prototype-based anomaly scoring.

Normal training embeddings are clustered per group (machine type and ID,
or machine type with separate source/target domains); a test clip's score
is the minimum cosine distance to any prototype of its group.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_container, save_container
from .config import parse_echo_text
from .errors import CheckpointError, ConfigError, DataError
from .metrics import group_key_for
from .network import features_for_batch, load_waves
from . import autodiff as ad
from .workers import helper_threads, run_jobs, worker_pool

# Rows per forward pass. Fixed, so that a row's embedding depends only on the
# rows that share its chunk, never on the number of workers.
EMBED_CHUNK = 16

# Input cells (rows x dim) from which one kmeans call runs its restarts on
# several workers. Below it the restarts' numpy calls are too short to
# outweigh the interpreter lock and two threads slow each other down, so the
# calling thread runs them; the row count alone does not tell, as 256 and
# 500 rows of 64-d still lose. Sized at 2 workers only: on more cores a group
# just above it may run 4-8 threads that contend for the lock, which was not
# measured; re-measure there before relying on it. The pooled / inline times
# it rests on (2 vCPUs, BLAS at one thread, clustered groups, k = 16) are the
# `pool_threshold` probe of BENCH_13.json.
KMEANS_POOL_CELLS = 1 << 16


@dataclass(frozen=True)
class PrototypeSet:
    """Unit-norm K-Means centroids for one (group, domain)."""

    group_key: str
    domain: str                 # "all", "source", or "target"
    centroids: np.ndarray

    @property
    def count(self) -> int:
        return self.centroids.shape[0]


def _normalize_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    return x / np.where(norms == 0, 1.0, norms)


def _row_sq(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _sq_dist(x2, xc, c2):
    """Squared distances from dot products: |x|^2 - 2 x.c + |c|^2, clamped at 0.

    `xc` holds the dot products; `x2` and `c2` broadcast against it.
    """
    d2 = xc * -2.0
    d2 += x2
    d2 += c2
    return np.maximum(d2, 0.0, out=d2)


def _cluster_sums(x, labels, k):
    """Per-cluster row sums (k, D) and counts (k,) through a one-hot matmul."""
    onehot = np.zeros((k, len(x)))
    onehot[labels, np.arange(len(x))] = 1.0
    return onehot @ x, np.bincount(labels, minlength=k).astype(np.float64)


def _kmeans_pp_init(x, x2, k, rng):
    first = int(rng.integers(len(x)))
    centroids = [x[first]]
    d2 = _sq_dist(x2, x @ x[first], x2[first])
    for _ in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids.append(x[int(rng.integers(len(x)))])
            continue
        pick = int(np.searchsorted(np.cumsum(d2 / total), rng.uniform()))
        pick = min(pick, len(x) - 1)
        centroids.append(x[pick])
        d2 = np.minimum(d2, _sq_dist(x2, x @ x[pick], x2[pick]))
    return np.array(centroids)


def _assign(x, x2, centroids):
    """(M, k) squared distances to the centroids and each row's nearest one."""
    d2 = _sq_dist(x2[:, None], x @ centroids.T, _row_sq(centroids))
    return d2, d2.argmin(axis=1)


def _lloyd(x, x2, centroids, max_iter, tol):
    """One restart from its k-means++ centroids: Lloyd rounds, then the
    single-point refine; (centroids, inertia). Draws no random numbers."""
    k = len(centroids)
    rows = np.arange(len(x))
    inertia = np.inf
    for _ in range(max_iter):
        d2, labels = _assign(x, x2, centroids)
        fit = d2[rows, labels]
        new_inertia = float(fit.sum())
        assert new_inertia <= inertia + 1e-9, "Lloyd inertia increased"
        sums, counts = _cluster_sums(x, labels, k)
        centroids = sums / np.maximum(counts, 1.0)[:, None]
        # reseed empty clusters at the worst-fit point
        centroids[counts == 0] = x[fit.argmax()]
        if inertia - new_inertia <= tol * max(new_inertia, 1e-30):
            break
        inertia = new_inertia
    return _single_point_refine(x, x2, centroids, k)


def _first_move(x2, labels, counts, dots, sums2, start):
    """First row at or after `start` whose single move lowers the objective.

    Scores every remaining row against the current clusters at once; the
    clusters only change at a move, so the rows before the first improving
    one would not have moved in a row-by-row sweep either. Returns
    (row, target cluster), or None when no remaining row improves.
    """
    safe = np.maximum(counts, 1.0)  # empty clusters sit at the origin; cost 0 below
    d2 = _sq_dist(x2[start:, None], dots[start:] / safe, sums2 / safe ** 2)
    own = labels[start:]
    rows = np.arange(len(own))
    n_own = counts[own]
    gain = n_own / np.maximum(n_own - 1, 1.0) * d2[rows, own]
    costs = counts / (counts + 1) * d2
    costs[rows, own] = np.inf
    movable = (n_own > 1) & (costs.min(axis=1) - gain < -1e-12)
    hits = np.flatnonzero(movable)
    if not hits.size:
        return None
    return start + int(hits[0]), int(costs[hits[0]].argmin())


def _single_point_refine(x, x2, centroids, k, max_sweeps=50):
    """Relocate single points while that strictly lowers the objective.

    Escapes the Lloyd-local optima that plain assignment/update rounds
    cannot leave; the move gain uses the exact size-corrected formula.
    Rows are visited in order and the first improving move is taken, as in
    a row-by-row sweep, but every distance comes from the (M, k) dot
    products with the cluster sums and the sums' squared norms, which a
    move updates with one matrix-vector product.
    """
    _, labels = _assign(x, x2, centroids)
    for _ in range(max_sweeps):
        sums, counts = _cluster_sums(x, labels, k)
        dots = x @ sums.T
        sums2 = _row_sq(sums)
        improved = False
        start = 0
        while (move := _first_move(x2, labels, counts, dots, sums2, start)) is not None:
            j, b = move
            a = labels[j]
            sums2[a] += x2[j] - 2.0 * dots[j, a]
            sums2[b] += x2[j] + 2.0 * dots[j, b]
            row_dots = x[j + 1:] @ x[j]
            dots[j + 1:, a] -= row_dots
            dots[j + 1:, b] += row_dots
            counts[a] -= 1
            counts[b] += 1
            labels[j] = b
            start = j + 1
            improved = True
        if not improved:
            break
    sums, counts = _cluster_sums(x, labels, k)
    centroids = sums / np.maximum(counts, 1.0)[:, None]
    d2, nearest = _assign(x, x2, centroids)
    if (counts == 0).any():
        centroids[counts == 0] = x[d2[np.arange(len(x)), nearest].argmax()]
        _, nearest = _assign(x, x2, centroids)
    # summed from differences, not the Gram expansion, so that rows sitting
    # on their centroid add exactly 0 rather than rounding noise; the
    # differences are squared in the gathered centroid rows, one temporary
    diff = centroids[nearest]
    np.subtract(x, diff, out=diff)
    np.square(diff, out=diff)
    return centroids, float(diff.sum())


def kmeans(embeddings: np.ndarray, prototypes: int, seed,
           max_iter: int = 100, tol: float = 1e-6, n_init: int = 10,
           return_inertia: bool = False, max_workers=None):
    """Lloyd K-Means with k-means++ seeding and best-of-n_init restarts.

    Inputs are unit-normalized first; requested counts above the sample
    count degrade to one centroid per sample; output centroids are
    re-normalized to unit length. The n_init seedings are drawn in order
    from the one seeded generator; the restarts' Lloyd and refine passes
    draw nothing, so `workers.run_jobs` runs them, at cost 1 each, on one
    thread per usable core capped by `max_workers`, while BLAS is held to
    one thread (see workers.worker_pool); below KMEANS_POOL_CELLS input
    cells they run on the calling thread alone. The best restart is the
    first with the lowest inertia, so the result is the same for every
    worker count. A failing restart is re-raised (see run_jobs).
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("kmeans requires a non-empty (M, D) array")
    if prototypes < 1:
        raise DataError("prototype count must be >= 1")
    x = _normalize_rows(x)
    x2 = _row_sq(x)
    k = min(prototypes, len(x))
    workers, blas_limit = worker_pool(n_init if x.size >= KMEANS_POOL_CELLS else 1,
                                      max_workers)
    with blas_limit, helper_threads(workers - 1) as helpers:
        rng = np.random.default_rng(seed)
        restarts = [functools.partial(_lloyd, x, x2, _kmeans_pp_init(x, x2, k, rng),
                                      max_iter=max_iter, tol=tol) for _ in range(n_init)]
        results = run_jobs(restarts, [1] * n_init, helpers)
    best = None
    best_inertia = np.inf
    for centroids, inertia in results:
        if inertia < best_inertia:
            best, best_inertia = centroids, inertia
    unit = _normalize_rows(best)
    if return_inertia:
        return unit, best_inertia
    return unit


def anomaly_score(test_embedding: np.ndarray, prototype_sets) -> float:
    """Minimum cosine distance, 1 - e.c for unit vectors (range [0, 2]), over
    every centroid of every supplied set."""
    sets = [prototype_sets] if isinstance(prototype_sets, PrototypeSet) else list(prototype_sets)
    if not sets:
        raise DataError("no prototype sets supplied")
    best = np.inf
    for ps in sets:
        distances = 1.0 - ps.centroids @ test_embedding
        best = min(best, float(distances.min()))
    return float(best)


class PrototypeStore:
    """Prototype sets keyed by group, with per-domain splits in per-type mode."""

    def __init__(self, mode: str):
        if mode not in ("per-id", "per-type"):
            raise DataError(f"unknown prototype mode {mode!r}")
        self.mode = mode
        self.sets: dict = {}
        self._by_group: dict = {}   # group key -> {domain: set}, in self.sets order

    def add(self, ps: PrototypeSet) -> None:
        self.sets[(ps.group_key, ps.domain)] = ps
        self._by_group.setdefault(ps.group_key, {})[ps.domain] = ps

    def sets_for(self, row):
        return list(self._by_group.get(group_key_for(row, self.mode), {}).values())

    def save(self, path, echo: str = "") -> None:
        """Write the store; `echo` is the run config text that `load` returns."""
        arrays = {f"proto/{key}\x1f{domain}": ps.centroids
                  for (key, domain), ps in self.sets.items()}
        arrays["meta/mode"] = np.array([1.0 if self.mode == "per-type" else 0.0])
        save_container(path, arrays, echo)

    @classmethod
    def load(cls, path):
        """(store, run config or None) from a file `save` wrote; any other
        container is a bad file and raises CheckpointError."""
        arrays, echo = load_container(path)
        if "meta/mode" not in arrays:
            raise CheckpointError(f"{path}: not a prototype store: no meta/mode array")
        for name in arrays:
            if not name.startswith(("proto/", "meta/")):
                raise CheckpointError(f"{path}: not a prototype store: holds {name!r}")
        store = cls("per-type" if arrays["meta/mode"][0] == 1.0 else "per-id")
        for name, centroids in arrays.items():
            if not name.startswith("proto/"):
                continue
            key, _, domain = name[len("proto/"):].partition("\x1f")
            store.add(PrototypeSet(key, domain, centroids))
        try:
            run_cfg = parse_echo_text(echo) if echo.strip() else None
        except ConfigError as exc:
            raise CheckpointError(f"{path}: config echo is not a run config: {exc}") from None
        return store, run_cfg


def _embed_chunk(model, rows) -> np.ndarray:
    specs, spectra = features_for_batch(load_waves(rows, model.cfg), model.cfg)
    return model(specs, spectra).data


def embed_rows(model, rows, max_workers=None) -> np.ndarray:
    """Embeddings for manifest rows, in row order.

    The rows go through the eval-mode model in fixed chunks of EMBED_CHUNK,
    which `workers.run_jobs` runs, at their row count each, on one thread
    per usable core capped by `max_workers`, while BLAS is held to one
    thread (see workers.worker_pool). The result is the same for every
    worker count. A failing chunk is re-raised (see run_jobs).
    """
    if model.training:
        raise ValueError("embed_rows needs an eval-mode model: a training-mode "
                         "forward updates the BatchNorm buffers")
    chunks = [rows[i:i + EMBED_CHUNK] for i in range(0, len(rows), EMBED_CHUNK)]
    if not chunks:
        return np.zeros((0, model.embed_dim))
    workers, blas_limit = worker_pool(len(chunks), max_workers)
    # grad mode is process-wide: it is switched off here, once, around the
    # jobs; a worker entering no_grad itself would race on the restore
    with ad.no_grad(), blas_limit, helper_threads(workers - 1) as helpers:
        out = run_jobs([functools.partial(_embed_chunk, model, chunk) for chunk in chunks],
                       [len(chunk) for chunk in chunks], helpers)
    return np.concatenate(out, axis=0)


def group_train_rows(rows, mode: str) -> dict:
    """(group key, domain) -> row indices. per-id keys are type/ID; per-type
    keys are the machine type with source/target kept apart when tagged."""
    groups: dict = {}
    for i, row in enumerate(rows):
        key = group_key_for(row, mode)
        domain = row.domain if (mode == "per-type" and row.domain) else "all"
        groups.setdefault((key, domain), []).append(i)
    return groups


def cluster_prototypes(train_rows, model, mode: str, prototypes: int,
                       seed, max_workers=None) -> PrototypeStore:
    """Cluster the train-split rows' embeddings per group, on a loaded model.

    per-id groups by (machine type, ID); per-type groups by machine type
    and keeps separate source/target prototype sets when the manifest
    carries domain tags. `max_workers` caps the embedding threads and each
    group's K-Means restart threads (see kmeans).
    """
    rows = [r for r in train_rows if r.split == "train"]
    if not rows:
        raise DataError("no train rows to build prototypes from")
    store = PrototypeStore(mode)
    embeddings = embed_rows(model, rows, max_workers)
    groups = group_train_rows(rows, mode)
    for gi, (key, domain) in enumerate(sorted(groups)):
        idx = groups[(key, domain)]
        centroids = kmeans(embeddings[idx], prototypes, seed=[seed, gi],
                           max_workers=max_workers)
        store.add(PrototypeSet(key, domain, centroids))
    return store


def score_test_rows(test_rows, store: PrototypeStore, model, max_workers=None):
    """Score every test-split row against the store, on a loaded model.

    Returns (path, score) pairs in row order, plus the paths of rows whose
    group has no prototypes. `max_workers` caps the embedding threads.
    """
    rows = [r for r in test_rows if r.split == "test"]
    scores = []
    unknown = []
    for row, emb in zip(rows, embed_rows(model, rows, max_workers)):
        sets = store.sets_for(row)
        if not sets:
            unknown.append(row.path)
            continue
        scores.append((row.path, anomaly_score(emb, sets)))
    return scores, unknown
