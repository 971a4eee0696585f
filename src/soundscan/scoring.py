"""Prototype-based anomaly scoring.

Normal training embeddings are clustered per group (machine type and ID,
or machine type with separate source/target domains); a test clip's score
is the minimum cosine distance to any prototype of its group.
"""

from __future__ import annotations

import contextlib
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_container, save_container
from .config import parse_config_text
from .errors import DataError
from .metrics import group_key_for
from .network import features_for_batch, load_waves
from . import autodiff as ad


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


def _lloyd(x, x2, k, rng, max_iter, tol):
    centroids = _kmeans_pp_init(x, x2, k, rng)
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
    # on their centroid add exactly 0 rather than rounding noise
    return centroids, float(((x - centroids[nearest]) ** 2).sum())


def kmeans(embeddings: np.ndarray, prototypes: int, seed,
           max_iter: int = 100, tol: float = 1e-6, n_init: int = 10,
           return_inertia: bool = False):
    """Lloyd K-Means with k-means++ seeding and best-of-n_init restarts.

    Inputs are unit-normalized first; requested counts above the sample
    count degrade to one centroid per sample; output centroids are
    re-normalized to unit length.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("kmeans requires a non-empty (M, D) array")
    if prototypes < 1:
        raise DataError("prototype count must be >= 1")
    x = _normalize_rows(x)
    x2 = _row_sq(x)
    k = min(prototypes, len(x))
    rng = np.random.default_rng(seed)
    best = None
    best_inertia = np.inf
    for _ in range(n_init):
        centroids, inertia = _lloyd(x, x2, k, rng, max_iter, tol)
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
        arrays, echo = load_container(path)
        mode = "per-type" if arrays.get("meta/mode", np.zeros(1))[0] == 1.0 else "per-id"
        store = cls(mode)
        for name, centroids in arrays.items():
            if not name.startswith("proto/"):
                continue
            key, _, domain = name[len("proto/"):].partition("\x1f")
            store.add(PrototypeSet(key, domain, centroids))
        run_cfg = parse_config_text(echo) if echo.strip() else None
        return store, run_cfg


# Rows per forward pass. Fixed, so that a row's embedding depends only on the
# rows that share its chunk, never on the number of workers.
EMBED_CHUNK = 16


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


# Variables that set the BLAS thread count, in the order OpenBLAS and MKL read
# them; in each chain the first one set wins.
_BLAS_THREAD_VARS = (("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"),
                     ("MKL_NUM_THREADS", "OMP_NUM_THREADS"))


def _blas_env_single_threaded() -> bool:
    """True when the environment holds OpenBLAS and MKL to one thread each."""
    for chain in _BLAS_THREAD_VARS:
        value = next((os.environ[var] for var in chain if os.environ.get(var)), None)
        if value is None or value.strip() != "1":
            return False
    return True


def _embedding_pool(chunks: int, max_workers):
    """(worker count, context to run the pool in) for `chunks` chunks.

    Each worker's matmuls would start their own BLAS threads on top of the
    pool, so several workers run only with BLAS held to one thread: by
    threadpoolctl for the pool's lifetime, or by the environment. Where
    neither holds it, one worker leaves the cores to BLAS.
    """
    workers = min(_usable_cpus(), max_workers or chunks, chunks)
    if workers == 1:
        return 1, contextlib.nullcontext()
    try:
        import threadpoolctl
    except ImportError:
        return (workers if _blas_env_single_threaded() else 1), contextlib.nullcontext()
    return workers, threadpoolctl.threadpool_limits(limits=1)


def _embed_chunk(model, rows) -> np.ndarray:
    specs, spectra = features_for_batch(load_waves(rows, model.cfg), model.cfg)
    return model(specs, spectra).data


def embed_rows(model, rows, max_workers=None) -> np.ndarray:
    """Embeddings for manifest rows, in row order.

    The rows go through the eval-mode model in fixed chunks of EMBED_CHUNK,
    on a pool of one thread per usable core, capped by `max_workers`, while
    BLAS is held to one thread (see _embedding_pool); numpy releases the
    interpreter lock inside its kernels. The result is the same for every
    worker count. The first failing chunk cancels the chunks not yet started.
    """
    if model.training:
        raise ValueError("embed_rows needs an eval-mode model: a training-mode "
                         "forward updates the BatchNorm buffers")
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    chunks = [rows[i:i + EMBED_CHUNK] for i in range(0, len(rows), EMBED_CHUNK)]
    if not chunks:
        return np.zeros((0, model.embed_dim))
    workers, blas_limit = _embedding_pool(len(chunks), max_workers)
    # grad mode is process-wide: it is switched off here, once, around the
    # pool; a worker entering no_grad itself would race on the restore.
    # Executor.map cancels the pending chunks when a result raises.
    with ad.no_grad(), blas_limit, ThreadPoolExecutor(workers) as pool:
        out = list(pool.map(functools.partial(_embed_chunk, model), chunks))
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
    carries domain tags. `max_workers` caps the embedding threads.
    """
    rows = [r for r in train_rows if r.split == "train"]
    if not rows:
        raise DataError("no train rows to build prototypes from")
    store = PrototypeStore(mode)
    embeddings = embed_rows(model, rows, max_workers)
    groups = group_train_rows(rows, mode)
    for gi, (key, domain) in enumerate(sorted(groups)):
        idx = groups[(key, domain)]
        centroids = kmeans(embeddings[idx], prototypes, seed=[seed, gi])
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
