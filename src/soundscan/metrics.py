"""Detection metrics: AUC, partial AUC at low false-positive rates, and
mean / harmonic-mean aggregation across groups.

Both AUCs are one pair count, the Mann-Whitney U: each anomaly scores 1
per normal it outscores and 1/2 per normal it ties. pAUC counts against
the top floor(p*N-) normals only; AUC is pAUC at p = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class LabeledScores:
    """Parallel score/label lists for one group; label 1 marks an anomaly."""

    scores: np.ndarray
    labels: np.ndarray
    group_key: str = ""

    def __post_init__(self):
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise DataError("scores and labels must be equal-length 1-D lists")
        if not np.isfinite(self.scores).all():
            raise DataError(f"group {self.group_key!r}: a score is not finite")


@dataclass(frozen=True)
class MetricReport:
    per_group: tuple            # (group_key, auc, pauc) triples
    aggregate: float
    kind: str                   # "mean" or "harmonic"


def _split(ls: LabeledScores):
    pos = ls.scores[ls.labels == 1]
    neg = ls.scores[ls.labels == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise DataError(f"group {ls.group_key!r}: AUC needs both classes "
                        f"({len(pos)} anomalies, {len(neg)} normals)")
    return pos, neg


def auc(ls: LabeledScores) -> float:
    """Fraction of (anomaly, normal) pairs ranked correctly; ties 0.5."""
    return pauc(ls, 1.0)


def pauc(ls: LabeledScores, p: float = 0.1) -> float:
    """AUC of all anomalies against only the k = floor(p*N-) top-scoring
    normals: 2U / (2 N+ k), where two searchsorted calls on the k sorted
    normals give twice the pair count U. p=1 is plain AUC."""
    if not 0 < p <= 1:
        raise DataError(f"p must lie in (0, 1], got {p}")
    pos, neg = _split(ls)
    k = int(np.floor(p * len(neg)))
    if k < 1:
        raise DataError(f"group {ls.group_key!r}: floor({p} * {len(neg)}) negatives "
                        "is zero; too few normals for pAUC")
    top = np.sort(neg)[len(neg) - k:]
    twice_u = (np.searchsorted(top, pos, "left") + np.searchsorted(top, pos, "right")).sum()
    return float(twice_u) / (2 * len(pos) * k)


AGGREGATE_KINDS = ("mean", "harmonic")


def aggregate(values, kind: str) -> float:
    """Arithmetic mean or harmonic mean n / sum(1/v) of the pooled values."""
    values = np.asarray(list(values), dtype=np.float64)
    if len(values) == 0:
        raise DataError("nothing to aggregate")
    if kind == "mean":
        return float(values.mean())
    if kind == "harmonic":
        if np.any(values <= 0):
            raise DataError("harmonic mean undefined for zero values")
        return float(len(values) / np.sum(1.0 / values))
    raise DataError(f"unknown aggregation kind {kind!r}")


GROUPINGS = ("per-id", "per-type")


def group_key_for(row, grouping: str) -> str:
    if grouping == "per-id":
        return f"{row.machine_type}/{row.id_or_attr}"
    if grouping == "per-type":
        return row.machine_type
    raise DataError(f"unknown grouping {grouping!r}")


def _first_five(paths) -> str:
    return ", ".join(paths[:5]) + ("" if len(paths) <= 5 else f" (+{len(paths) - 5} more)")


def evaluate(score_map: dict, truth_rows, grouping: str, kind: str) -> MetricReport:
    """Per-group AUC and pAUC from a {path: score} map plus truth rows,
    aggregated over the pooled list of all per-group AUC and pAUC values.
    Every labeled test row needs a score, and every score a truth row."""
    truth_rows = list(truth_rows)
    rows = [r for r in truth_rows if r.split == "test" and r.label in ("normal", "anomaly")]
    if not rows:
        raise DataError("truth manifest has no labeled test rows")
    missing = [r.path for r in rows if r.path not in score_map]
    if missing:
        raise DataError("scores missing for: " + _first_five(missing))
    listed = {r.path for r in truth_rows}
    unlisted = [path for path in score_map if path not in listed]
    if unlisted:
        raise DataError("scores for files not in the truth manifest: " + _first_five(unlisted))

    groups: dict = {}
    for row in rows:
        groups.setdefault(group_key_for(row, grouping), []).append(row)

    per_group = []
    pooled = []
    for key in sorted(groups):
        members = groups[key]
        ls = LabeledScores(
            scores=[score_map[r.path] for r in members],
            labels=[1 if r.label == "anomaly" else 0 for r in members],
            group_key=key,
        )
        a = auc(ls)
        pa = pauc(ls)
        per_group.append((key, a, pa))
        pooled.extend([a, pa])
    return MetricReport(per_group=tuple(per_group), aggregate=aggregate(pooled, kind),
                        kind=kind)
