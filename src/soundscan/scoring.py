"""Prototype-based anomaly scoring.

Normal training embeddings are clustered per group (machine type and ID,
or machine type with separate source/target domains); a test clip's score
is the minimum cosine distance to any prototype of its group.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .checkpoint import load_container, save_container
from .config import parse_echo_text
from .errors import CheckpointError, ConfigError, DataError
from .metrics import GROUPINGS, group_key_for
from .network import features_for_batch, load_waves
from . import autodiff as ad
from .workers import pool, run_jobs

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

# Restarts per K-Means job, which run their Lloyd rounds in lockstep so that
# each round takes one product with all their centroids. Fixed, so that the
# shapes of the products never depend on the number of workers. Larger
# groups share more of each product but leave fewer jobs to share out; one
# kmeans call on a clustered 990 x 640 group (k = 16, n_init = 10, 2 vCPUs,
# BLAS at one thread), median of 9 calls (range) in ms:
#
#   restarts per group   1             2             5             10
#   2 workers            167 (99-231)  122 (113-156) 110 (95-123)  153 (130-202)
#   1 worker             225 (206-262) 201 (177-236) 161 (132-201) 169 (153-207)
KMEANS_LOCKSTEP = 5


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


def _seed_draws(rng, n, k):
    """The random numbers of one k-means++ seeding over `n` rows: the first
    row, then one uniform per further centroid, in the order it uses them."""
    return int(rng.integers(n)), [rng.uniform() for _ in range(1, k)]


def _kmeans_pp_init(x, x2, k, draws):
    first, uniforms = draws
    centroids = [x[first]]
    d2 = _sq_dist(x2, x @ x[first], x2[first])
    for u in uniforms:
        total = d2.sum()
        if total <= 0:
            centroids.append(x[min(int(u * len(x)), len(x) - 1)])
            continue
        pick = int(np.searchsorted(np.cumsum(d2 / total), u))
        pick = min(pick, len(x) - 1)
        centroids.append(x[pick])
        # a matrix-vector product: a column of a matrix product need not
        # round the same
        d2 = np.minimum(d2, _sq_dist(x2, x @ x[pick], x2[pick]))
    return np.array(centroids)


def _assign(x, x2, centroids):
    """(M, k) squared distances to the centroids and each row's nearest one."""
    d2 = _sq_dist(x2[:, None], x @ centroids.T, _row_sq(centroids))
    return d2, d2.argmin(axis=1)


def _restart_group(x, x2, k, draws):
    """The restarts seeded by `draws`, one list entry each: their Lloyd
    rounds in lockstep, then the single-point refine of each in turn;
    [(centroids, inertia)].

    Each restart runs at most 100 Lloyd rounds, until one lowers its
    inertia by at most 1e-6 of it. A round takes the distances of all the
    running restarts from one product with their stacked centroids and
    their cluster sums from one stacked one-hot product; the row or column
    block of a restart is the product it would take alone, to the bit.
    """
    centroids = [_kmeans_pp_init(x, x2, k, d) for d in draws]
    inertia = [np.inf] * len(draws)
    running = list(range(len(draws)))
    rows = np.arange(len(x))
    for _ in range(100):
        if not running:
            break
        stacked = np.concatenate([centroids[r] for r in running])
        d2 = _sq_dist(x2[:, None], x @ stacked.T, _row_sq(stacked))
        labels, fits = [], []
        onehot = np.zeros((k * len(running), len(x)))
        for j in range(len(running)):
            block = d2[:, j * k:(j + 1) * k]
            labels.append(block.argmin(axis=1))
            fits.append(block[rows, labels[j]])
            onehot[j * k + labels[j], rows] = 1.0
        sums = onehot @ x
        for j, r in enumerate(list(running)):
            new_inertia = float(fits[j].sum())
            assert new_inertia <= inertia[r] + 1e-9, "Lloyd inertia increased"
            counts = np.bincount(labels[j], minlength=k).astype(np.float64)
            centroids[r] = sums[j * k:(j + 1) * k] / np.maximum(counts, 1.0)[:, None]
            # reseed empty clusters at the worst-fit point
            centroids[r][counts == 0] = x[fits[j].argmax()]
            if inertia[r] - new_inertia <= 1e-6 * max(new_inertia, 1e-30):
                running.remove(r)
            inertia[r] = new_inertia
    return [_single_point_refine(x, x2, c, k) for c in centroids]


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
            break   # the labels did not move: this sweep's sums and counts stand
    else:
        sums, counts = _cluster_sums(x, labels, k)
    centroids = sums / np.maximum(counts, 1.0)[:, None]
    d2, nearest = _assign(x, x2, centroids)
    if (counts == 0).any():
        centroids[counts == 0] = x[d2[np.arange(len(x)), nearest].argmax()]
        _, nearest = _assign(x, x2, centroids)
    # summed from differences, not the Gram expansion: a row on its centroid
    # adds only the centroid's rounding (~1e-33 for a mean of copies of one
    # unit row), not Gram noise; squared in the gathered centroid rows, one temporary
    diff = centroids[nearest]
    np.subtract(x, diff, out=diff)
    np.square(diff, out=diff)
    return centroids, float(diff.sum())


def kmeans(embeddings: np.ndarray, prototypes: int, seed, n_init: int = 10,
           return_inertia: bool = False):
    """Lloyd K-Means with k-means++ seeding and best-of-n_init restarts.

    Inputs are unit-normalized first; requested counts above the sample
    count degrade to one centroid per sample; output centroids are
    re-normalized to unit length. The calling thread draws the random
    numbers of all n_init seedings up front, in order, from the one seeded
    generator (`_seed_draws`); nothing after draws any. The restarts go in
    fixed groups of KMEANS_LOCKSTEP, in order, and each group is one job:
    its seedings, then its Lloyd rounds in lockstep, then each restart's
    single-point refine (`_restart_group`). `workers.run_jobs` runs the
    groups, at their restart count each, in a `workers.pool`; below
    KMEANS_POOL_CELLS input cells they run on the calling thread alone. The
    best restart is the first with the lowest inertia, so the result is the
    same for every worker count. A failing
    restart ends its group's job, whose later restarts do not run, and is
    re-raised (see run_jobs). A seeding that finds every row at distance 0
    from its centroids, which takes fewer distinct rows than centroids,
    picks its next row as min(floor(u * M), M - 1) from its drawn uniform u.
    """
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2 or len(x) == 0:
        raise DataError("kmeans requires a non-empty (M, D) array")
    if prototypes < 1 or n_init < 1:
        raise DataError(f"prototypes and n_init must be >= 1, got {prototypes} and {n_init}")
    finite = np.isfinite(x.sum(axis=1))     # a NaN or an infinity makes its row's sum one
    if not finite.all():
        raise DataError(f"kmeans requires finite embeddings; row {int(np.argmin(finite))} "
                        f"holds NaN or infinity")
    x = _normalize_rows(x)
    x2 = _row_sq(x)
    k = min(prototypes, len(x))
    rng = np.random.default_rng(seed)
    draws = [_seed_draws(rng, len(x), k) for _ in range(n_init)]
    groups = [draws[i:i + KMEANS_LOCKSTEP] for i in range(0, n_init, KMEANS_LOCKSTEP)]
    with pool(len(groups) if x.size >= KMEANS_POOL_CELLS else 1):
        results = run_jobs([functools.partial(_restart_group, x, x2, k, group)
                            for group in groups], [len(group) for group in groups])
    best = None
    best_inertia = np.inf
    for centroids, inertia in itertools.chain.from_iterable(results):
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
    return min(float((1.0 - ps.centroids @ test_embedding).min()) for ps in sets)


class PrototypeStore:
    """Prototype sets keyed by group, with per-domain splits in per-type mode."""

    def __init__(self, mode: str):
        if mode not in GROUPINGS:
            raise DataError(f"unknown prototype mode {mode!r}")
        self.mode = mode
        self.sets: dict = {}        # (group key, domain) -> set, in add order

    def add(self, ps: PrototypeSet) -> None:
        self.sets[(ps.group_key, ps.domain)] = ps

    def sets_for(self, row):
        """The sets of `row`'s group, in add order."""
        key = group_key_for(row, self.mode)
        return [ps for (group, _), ps in self.sets.items() if group == key]

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
        mode = arrays["meta/mode"]
        if mode.size != 1 or mode.flat[0] not in (0.0, 1.0):
            raise CheckpointError(f"{path}: meta/mode is not one value of 0 or 1")
        store = cls("per-type" if mode.flat[0] == 1.0 else "per-id")
        for name, centroids in arrays.items():
            if not name.startswith("proto/"):
                continue
            if centroids.ndim != 2 or len(centroids) == 0:
                raise CheckpointError(f"{path}: {name!r} is not a 2-D array with "
                                      f"at least one centroid row")
            key, _, domain = name[len("proto/"):].partition("\x1f")
            store.add(PrototypeSet(key, domain, centroids))
        run_cfg = None
        try:
            if echo.strip():
                run_cfg = parse_echo_text(echo)
        except ConfigError as exc:
            raise CheckpointError(f"{path}: config echo is not a valid run config: {exc}") from None
        return store, run_cfg


def _embed_chunk(model, rows) -> np.ndarray:
    waves = load_waves(rows, model.cfg)
    if len(rows) < EMBED_CHUNK:
        # full size on copies of the last waveform: OpenBLAS would round the
        # smaller batch's small products in another kernel
        waves = np.pad(waves, ((0, EMBED_CHUNK - len(rows)), (0, 0)), mode="edge")
    specs, spectra = features_for_batch(waves, model.cfg)
    return model(specs, spectra).data[:len(rows)]


def embed_rows(model, rows) -> np.ndarray:
    """Embeddings for manifest rows, in row order.

    The rows go through the eval-mode model in fixed chunks of EMBED_CHUNK,
    which `workers.run_jobs` runs in a `workers.pool`; a short last chunk
    runs padded to EMBED_CHUNK rows with copies of its last waveform, whose
    outputs are dropped. So a row's embedding has the same bytes for every
    worker count, manifest length and row order. A failing chunk is
    re-raised (see run_jobs).
    """
    if model.training:
        raise ValueError("embed_rows needs an eval-mode model: a training-mode "
                         "forward updates the BatchNorm buffers")
    chunks = [rows[i:i + EMBED_CHUNK] for i in range(0, len(rows), EMBED_CHUNK)]
    if not chunks:
        return np.zeros((0, model.embed_dim))
    # grad mode is process-wide: it is switched off here, once, around the
    # jobs; a worker entering no_grad itself would race on the restore
    with ad.no_grad(), pool(len(chunks)):
        out = run_jobs([functools.partial(_embed_chunk, model, chunk) for chunk in chunks],
                       [EMBED_CHUNK] * len(chunks))
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
                       seed) -> PrototypeStore:
    """Cluster the train-split rows' embeddings per group, on a loaded model.

    per-id groups by (machine type, ID); per-type groups by machine type
    and keeps separate source/target prototype sets when the manifest
    carries domain tags.
    """
    rows = [r for r in train_rows if r.split == "train"]
    if not rows:
        raise DataError("no train rows to build prototypes from")
    store = PrototypeStore(mode)
    embeddings = embed_rows(model, rows)
    groups = group_train_rows(rows, mode)
    for gi, (key, domain) in enumerate(sorted(groups)):
        idx = groups[(key, domain)]
        centroids = kmeans(embeddings[idx], prototypes, seed=[seed, gi])
        store.add(PrototypeSet(key, domain, centroids))
    return store


def score_test_rows(test_rows, store: PrototypeStore, model):
    """Score every test-split row against the store, on a loaded model.

    Returns (path, score) pairs in row order, plus the paths of rows whose
    group has no prototypes.
    """
    rows = [r for r in test_rows if r.split == "test"]
    scores = []
    unknown = []
    for row, emb in zip(rows, embed_rows(model, rows)):
        sets = store.sets_for(row)
        if not sets:
            unknown.append(row.path)
            continue
        scores.append((row.path, anomaly_score(emb, sets)))
    return scores, unknown
