"""AUC / pAUC against a brute-force pair-counting oracle, plus aggregation."""

import numpy as np
import pytest

from soundscan.data import ManifestRow
from soundscan.errors import DataError
from soundscan.metrics import LabeledScores, aggregate, auc, evaluate, pauc


def brute_force_auc(pos, neg):
    """O(N+ * N-) oracle: count correctly ordered pairs, ties half."""
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def brute_force_pauc(scores, labels, p):
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [(s, i) for i, (s, l) in enumerate(zip(scores, labels)) if l == 0]
    k = int(np.floor(p * len(neg)))
    top = sorted(neg, key=lambda t: (-t[0], t[1]))[:k]
    return brute_force_auc(pos, [s for s, _ in top])


def ls(scores, labels, key="g"):
    return LabeledScores(np.array(scores, dtype=float), np.array(labels), key)


# -- auc ----------------------------------------------------------------------

def test_auc_perfect_separation():
    assert auc(ls([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0])) == 1.0


def test_auc_hand_counted_three_quarters():
    assert auc(ls([0.1, 0.4, 0.3, 0.5], [0, 0, 1, 1])) == 0.75


def test_auc_all_ties_half():
    assert auc(ls([0.5] * 6, [1, 1, 1, 0, 0, 0])) == 0.5


def test_auc_requires_both_classes():
    with pytest.raises(DataError):
        auc(ls([0.1, 0.2], [1, 1]))


def test_auc_matches_brute_force_randomized():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(4, 200))
        scores = np.round(rng.uniform(0, 1, n), 2)  # coarse grid forces ties
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        got = auc(ls(scores, labels))
        want = brute_force_auc(scores[labels == 1], scores[labels == 0])
        assert got == want, f"trial {trial}"


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(1)
    scores = rng.uniform(0, 1, 60)
    labels = rng.integers(0, 2, 60)
    labels[0], labels[1] = 0, 1
    base = auc(ls(scores, labels))
    for transform in (lambda x: 3 * x + 2, np.exp, lambda x: x ** 3,
                      lambda x: np.arctan(x)):
        assert auc(ls(transform(scores), labels)) == pytest.approx(base, abs=1e-15)


def test_auc_label_reversal_complements():
    rng = np.random.default_rng(2)
    scores = rng.permutation(40).astype(float)  # tie-free
    labels = rng.integers(0, 2, 40)
    labels[:2] = [0, 1]
    assert auc(ls(scores, 1 - labels)) == pytest.approx(1 - auc(ls(scores, labels)),
                                                        abs=1e-12)


# -- pauc ---------------------------------------------------------------------

def test_pauc_perfect_separation():
    scores = [1.0, 0.9] + [0.5 - 0.01 * i for i in range(20)]
    labels = [1, 1] + [0] * 20
    for p in (0.1, 0.25, 1.0):
        assert pauc(ls(scores, labels), p) == 1.0


def test_pauc_hand_case_top_negative():
    scores = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.5]
    labels = [0] * 10 + [1, 1]
    # floor(0.1 * 10) = 1 negative kept (0.9): pairs (0.95 wins, 0.5 loses)
    assert pauc(ls(scores, labels), 0.1) == 0.5


def test_pauc_p_one_equals_auc_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(4, 120))
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() in (0, n):
            continue
        group = ls(scores, labels)
        assert pauc(group, 1.0) == auc(group)


def test_pauc_matches_brute_force_randomized():
    rng = np.random.default_rng(4)
    for _ in range(200):
        n = int(rng.integers(12, 150))
        scores = np.round(rng.uniform(0, 1, n), 2)
        labels = rng.integers(0, 2, n)
        if labels.sum() == 0 or (1 - labels).sum() < 10:
            continue
        got = pauc(ls(scores, labels), 0.1)
        want = brute_force_pauc(scores, labels, 0.1)
        assert got == want


def test_pauc_too_few_negatives():
    with pytest.raises(DataError):
        pauc(ls([0.5, 0.2, 0.9], [0, 0, 1]), 0.1)  # floor(0.2) = 0


# -- aggregation ------------------------------------------------------------------

def test_harmonic_mean_hand_value():
    assert aggregate([0.5, 1.0], "harmonic") == pytest.approx(2 / 3, rel=1e-12)


def test_aggregate_identical_values():
    for kind in ("mean", "harmonic"):
        assert aggregate([0.7, 0.7, 0.7], kind) == pytest.approx(0.7, rel=1e-12)


def test_harmonic_never_exceeds_mean(rng):
    for _ in range(50):
        values = rng.uniform(0.05, 1.0, int(rng.integers(2, 12)))
        assert aggregate(values, "harmonic") <= aggregate(values, "mean") + 1e-12


def test_harmonic_rejects_zero():
    with pytest.raises(DataError):
        aggregate([0.5, 0.0], "harmonic")


# -- evaluate ----------------------------------------------------------------------

def truth_row(path, mtype, ident, label):
    return ManifestRow(path, mtype, ident, "", "test", label)


def test_evaluate_groups_and_pools():
    rows = []
    score_map = {}
    rng = np.random.default_rng(5)
    for t in ("fan", "pump"):
        for i in range(12):
            label = "anomaly" if i < 2 else "normal"
            path = f"{t}_{i}.wav"
            rows.append(truth_row(path, t, "id_00", label))
            score_map[path] = (0.8 if label == "anomaly" else 0.2) + 0.01 * rng.uniform()
    report = evaluate(score_map, rows, grouping="per-type", kind="mean")
    assert [g for g, _, _ in report.per_group] == ["fan", "pump"]
    for _, a, pa in report.per_group:
        assert a == 1.0 and pa == 1.0
    assert report.aggregate == 1.0

    harmonic = evaluate(score_map, rows, grouping="per-id", kind="harmonic")
    assert harmonic.kind == "harmonic"
    assert harmonic.aggregate == pytest.approx(1.0)


def test_evaluate_missing_scores_named():
    rows = [truth_row("a.wav", "fan", "id_00", "normal"),
            truth_row("b.wav", "fan", "id_00", "anomaly")]
    with pytest.raises(DataError, match="b.wav"):
        evaluate({"a.wav": 0.1}, rows, grouping="per-type", kind="mean")


def test_evaluate_takes_scores_of_unlabeled_truth_rows_and_names_unlisted_ones():
    rows = [truth_row(f"n{i}.wav", "fan", "id_00", "normal") for i in range(10)]
    rows += [truth_row("a.wav", "fan", "id_00", "anomaly"),
             truth_row("u.wav", "fan", "id_00", "unknown")]
    score_map = {row.path: 0.1 for row in rows}
    score_map["a.wav"] = 0.9
    assert evaluate(score_map, rows, grouping="per-type", kind="mean").aggregate == 1.0
    score_map.update({f"x{i}.wav": 0.5 for i in range(7)})
    with pytest.raises(DataError, match=r"not in the truth manifest: x0\.wav, x1\.wav, x2\.wav, "
                                        r"x3\.wav, x4\.wav \(\+2 more\)$"):
        evaluate(score_map, rows, grouping="per-type", kind="mean")
