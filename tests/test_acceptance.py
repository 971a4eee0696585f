"""Acceptance gate: eight criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. The two training-based criteria dominate the runtime (several
minutes each on a small CPU).
"""

import copy
import io
import time

import numpy as np
import pytest

from soundscan import autodiff as ad
from soundscan import nn
from soundscan.autodiff import Tensor
from soundscan.config import ModelConfig, micro_preset
from soundscan.data import SynthConfig, synth_dataset
from soundscan.errors import DataError
from soundscan.metrics import LabeledScores, aggregate, auc, pauc
from soundscan.network import MultiScaleNet, load_model
from soundscan.scanning import KernelBox, coverage_map, default_kernel_set, plan_from_steps, scan
from soundscan.scoring import cluster_prototypes, kmeans, score_test_rows
from soundscan.training import SubClusterHead, adacos_loss, train

from gradcheck import channels_last, numeric_gradient, max_rel_error


def report(criterion, label, detail, started):
    print(f"\nPASS criterion {criterion} ({label}): {detail} "
          f"[{time.perf_counter() - started:.1f} s]")


def fail(criterion, label, detail):
    print(f"\nFAIL criterion {criterion} ({label}): {detail}")


# -- criterion 1: gradient suite --------------------------------------------------------

def _grad_cases():
    """(name, builder) pairs; builder(rng) -> (loss_fn, leaf tensors)."""

    def conv2d_case(rng):
        B, Ci, Co = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        H, W = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        kh, kw = int(rng.integers(1, min(3, H) + 1)), int(rng.integers(1, min(3, W) + 1))
        s = (int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        p = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        x = Tensor(channels_last(rng.standard_normal((B, Ci, H, W))), requires_grad=True)
        w = Tensor(rng.standard_normal((Co, Ci, kh, kw)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(Co), requires_grad=True)
        return lambda: (ad.conv2d(x, w, b, s, p) ** 2).sum(), [x, w, b]

    def conv1d_case(rng):
        B, Ci, Co = int(rng.integers(1, 3)), int(rng.integers(1, 3)), int(rng.integers(1, 4))
        L = int(rng.integers(6, 16))
        k = int(rng.integers(1, 5))
        s = int(rng.integers(1, 4))
        x = Tensor(channels_last(rng.standard_normal((B, Ci, L))), requires_grad=True)
        w = Tensor(rng.standard_normal((Co, Ci, k)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(Co), requires_grad=True)
        return lambda: (ad.conv1d(x, w, b, s) ** 2).sum(), [x, w, b]

    def linear_case(rng):
        B, Di, Do = int(rng.integers(1, 5)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        x = Tensor(rng.standard_normal((B, Di)), requires_grad=True)
        w = Tensor(rng.standard_normal((Do, Di)), requires_grad=True)
        b = Tensor(rng.standard_normal(Do), requires_grad=True)
        return lambda: (ad.linear(x, w, b) ** 2).sum(), [x, w, b]

    def relu_case(rng):
        x = Tensor(rng.standard_normal((3, 5)) + 0.1, requires_grad=True)
        x.data[np.abs(x.data) < 5e-3] += 0.01  # keep clear of the kink
        return lambda: (ad.relu(x) * x).sum(), [x]

    def sigmoid_case(rng):
        x = Tensor(rng.standard_normal((4, 4)), requires_grad=True)
        return lambda: (ad.sigmoid(x) ** 2).sum(), [x]

    def max_pool_case(rng):
        B, C = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        H = int(rng.integers(4, 8))
        W = int(rng.integers(4, 8))
        vals = rng.permutation(B * C * H * W).astype(float) * 0.01
        x = Tensor(channels_last(vals.reshape(B, C, H, W)), requires_grad=True)
        k = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        return lambda: (ad.max_pool2d(x, k, (2, 2), (1, 1)) ** 2).sum(), [x]

    def batch_norm_case(rng):
        B, C = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        H, W = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        x = Tensor(channels_last(rng.standard_normal((B, C, H, W))), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, C), requires_grad=True)
        beta = Tensor(rng.standard_normal(C), requires_grad=True)
        loss = lambda: (ad.batch_norm2d(x, gamma, beta, np.zeros(C), np.ones(C),
                                        training=True) ** 2).sum()
        return loss, [x, gamma, beta]

    def stats_pool_case(rng):
        B, C = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        x = Tensor(channels_last(rng.standard_normal((B, C, n, 2))), requires_grad=True)
        return lambda: (ad.stats_pool(x) ** 2).sum(), [x]

    def se_case(rng):
        C, H, W = int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(2, 5))
        se = nn.MultiAxisSE(C, H, W, reduction=2, rng=rng)
        x = Tensor(channels_last(rng.standard_normal((2, C, H, W))), requires_grad=True)
        return lambda: (se(x) ** 2).sum(), [x] + se.parameters()

    def adacos_case(rng):
        C, S, D = int(rng.integers(2, 5)), int(rng.integers(1, 4)), int(rng.integers(3, 6))
        B = int(rng.integers(2, 5))
        head = SubClusterHead(C, S, D, rng)
        head.scale[0] = float(rng.uniform(2.0, 8.0))
        raw = rng.standard_normal((B, D))
        emb = Tensor(raw / np.linalg.norm(raw, axis=1, keepdims=True),
                     requires_grad=True)
        targets = np.eye(C)[rng.integers(0, C, B)]
        loss = lambda: adacos_loss(emb, targets, head, update_scale=False)
        return loss, [emb, head.centers]

    return [
        ("conv2d", conv2d_case), ("conv1d", conv1d_case), ("linear", linear_case),
        ("relu", relu_case), ("sigmoid", sigmoid_case), ("max_pool", max_pool_case),
        ("batch_norm", batch_norm_case), ("stats_pool", stats_pool_case),
        ("multi_axis_se", se_case), ("adacos_head", adacos_case),
    ]


def test_criterion_1_gradient_suite():
    started = time.perf_counter()
    shapes_each = 20
    worst = {}
    for name, builder in _grad_cases():
        errs = []
        for trial in range(shapes_each):
            rng = np.random.default_rng(1000 + 17 * trial)
            loss_fn, leaves = builder(rng)
            loss = loss_fn()
            for leaf in leaves:
                leaf.grad = None
            loss.backward()
            analytic = [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
                        for leaf in leaves]
            numeric = numeric_gradient(lambda: loss_fn().item(),
                                       [leaf.data for leaf in leaves], eps=1e-4)
            errs.append(max_rel_error(analytic, numeric))
        worst[name] = max(errs)
    elapsed = time.perf_counter() - started
    bad = {k: v for k, v in worst.items() if v >= 1e-3}
    if bad or elapsed >= 60:
        fail(1, "gradient suite", f"worst errors {bad}, {elapsed:.1f} s")
    assert not bad, f"gradient mismatches: {bad}"
    assert elapsed < 60, f"gradient suite took {elapsed:.1f} s"
    report(1, "gradient suite",
           f"10 primitives x {shapes_each} shapes, worst rel err "
           f"{max(worst.values()):.2e}", started)


# -- criterion 2: scanning suite ----------------------------------------------------------

def test_criterion_2_scanning_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    for _ in range(500):
        F = int(rng.integers(4, 120))
        T = int(rng.integers(4, 120))
        h = int(rng.integers(1, F + 1))
        w = int(rng.integers(1, T + 1))
        box = KernelBox(h, w)
        if rng.uniform() < 0.5:
            f_step = int(rng.integers(1, h + 1))
            t_step = int(rng.integers(1, w + 1))
            plan = plan_from_steps(F, T, box, f_step, t_step)
            assert coverage_map(F, T, box, plan).min() >= 1
        else:
            from soundscan.scanning import plan_from_counts
            plan = plan_from_counts(F, T, box, int(rng.integers(1, 9)),
                                    int(rng.integers(1, 9)))
        assert all(0 <= f <= F - h for f in plan.f_positions)
        assert all(0 <= t <= T - w for t in plan.t_positions)
        from soundscan.dsp import Spectrogram
        stack = scan(Spectrogram(np.zeros((F, T))), box, plan)
        assert len(stack) == plan.n_f * plan.n_t

    # paper configuration: every kernel's anchor counts match enumeration
    F, T, f_step, t_step = 513, 311, 8, 32
    def expect(extent, size, step):
        span = extent - size
        n = span // step + 1
        return n + (1 if span % step else 0)
    for box in default_kernel_set():
        plan = plan_from_steps(F, T, box, f_step, t_step)
        assert plan.n_f == expect(F, box.h, f_step), str(box)
        assert plan.n_t == expect(T, box.w, t_step), str(box)
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"scanning suite took {elapsed:.1f} s"
    report(2, "scanning suite",
           "500 randomized configs + paper config (F=513, T=311, steps 8/32, "
           "12 kernels)", started)


# -- criterion 3: metric oracle --------------------------------------------------------------

def test_criterion_3_metric_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(3030)
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(12, 201))
        decimals = int(rng.integers(1, 4))  # coarser grids force more ties
        scores = np.round(rng.uniform(0, 1, n), decimals)
        n_neg = int(rng.integers(10, n))  # always >= 10 normals, >= 1 anomaly
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=n - n_neg, replace=False)] = 1
        group = LabeledScores(scores, labels, "r")
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        # brute-force pair counting, the independent oracle
        pairs = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
        want_auc = pairs / (len(pos) * len(neg))
        assert auc(group) == want_auc

        k = int(np.floor(0.1 * len(neg)))
        order = np.argsort(-neg, kind="stable")
        top = neg[order[:k]]
        pairs = (pos[:, None] > top[None, :]).sum() + 0.5 * (pos[:, None] == top[None, :]).sum()
        want_pauc = pairs / (len(pos) * k)
        assert pauc(group, 0.1) == want_pauc
        assert pauc(group, 1.0) == auc(group)  # bit-exact reduction
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"metric oracle took {elapsed:.1f} s"
    report(3, "metric oracle",
           f"{checked} score sets match brute-force pair counting exactly", started)


# -- criterion 4: K-Means oracle ---------------------------------------------------------------

def _best_two_partition(points):
    n = len(points)
    best = np.inf
    for bits in range(2 ** (n - 1)):
        part_a = [0] + [i for i in range(1, n) if bits >> (i - 1) & 1]
        part_b = [i for i in range(1, n) if not bits >> (i - 1) & 1]
        inertia = 0.0
        for part in (part_a, part_b):
            if part:
                pts = points[part]
                inertia += ((pts - pts.mean(axis=0)) ** 2).sum()
        best = min(best, inertia)
    return best


def test_criterion_4_kmeans_oracle():
    started = time.perf_counter()
    worst_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        m = int(rng.integers(3, 7))
        x = rng.standard_normal((m, int(rng.integers(2, 5))))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        # Lloyd's own run asserts non-increasing inertia at every iteration
        _, inertia = kmeans(x, 2, seed=seed, return_inertia=True)
        oracle = _best_two_partition(x)
        gap = abs(inertia - oracle)
        worst_gap = max(worst_gap, gap)
        assert gap < 1e-9, f"seed {seed}: inertia {inertia} vs oracle {oracle}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"kmeans oracle took {elapsed:.1f} s"
    report(4, "kmeans oracle",
           f"100 seeds match the exhaustive 2-partition optimum, "
           f"worst gap {worst_gap:.1e}", started)


# -- criteria 5-7: end-to-end on the synthetic corpus --------------------------------------------


def _mean_test_auc(rows, score_map):
    per_class = []
    for mtype in sorted({r.machine_type for r in rows}):
        members = [r for r in rows if r.split == "test" and r.machine_type == mtype]
        group = LabeledScores([score_map[r.path] for r in members],
                              [1 if r.label == "anomaly" else 0 for r in members],
                              mtype)
        per_class.append(auc(group))
    return aggregate(per_class, "mean"), per_class


def _train_and_score(rows, run_cfg, workdir, tag):
    ckpt = workdir / f"{tag}.ckpt"
    result = train(rows, run_cfg, out_checkpoint=ckpt, log_stream=io.StringIO())
    model, _ = load_model(ckpt)
    store = cluster_prototypes(rows, model, run_cfg.scoring.scoring_mode,
                               run_cfg.scoring.prototypes, run_cfg.model.seed)
    scores, unknown = score_test_rows(rows, store, model)
    assert not unknown
    return dict(scores), result, ckpt


@pytest.fixture(scope="module")
def default_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance_corpus")
    rows = synth_dataset(SynthConfig(seed=505), root)
    return rows, root


@pytest.mark.slow
def test_criterion_5_end_to_end_separation(default_corpus, tmp_path):
    started = time.perf_counter()
    rows, _ = default_corpus
    run_cfg = micro_preset(seed=41)  # 40 epochs, batch 16 by preset
    assert run_cfg.train.epochs == 40 and run_cfg.train.batch_size == 16
    score_map, _, _ = _train_and_score(rows, run_cfg, tmp_path, "c5")
    mean_auc, per_class = _mean_test_auc(rows, score_map)
    elapsed = time.perf_counter() - started
    if mean_auc < 0.90:
        fail(5, "end-to-end separation", f"mean AUC {mean_auc:.4f}")
    assert mean_auc >= 0.90, f"mean AUC {mean_auc:.4f} < 0.90"
    assert elapsed < 900, f"end-to-end run took {elapsed:.0f} s"
    report(5, "end-to-end separation",
           f"held-out mean AUC {mean_auc:.4f} over classes "
           f"{[round(float(a), 3) for a in per_class]}", started)


@pytest.mark.slow
def test_criterion_6_multiscale_ablation_direction(default_corpus, tmp_path):
    started = time.perf_counter()
    rows, _ = default_corpus
    multi_aucs, single_aucs = [], []
    for seed in range(5):
        multi_cfg = micro_preset(seed=600 + seed)
        multi_cfg.train.epochs = 12
        score_map, _, _ = _train_and_score(rows, multi_cfg, tmp_path, f"m{seed}")
        multi_aucs.append(_mean_test_auc(rows, score_map)[0])

        single_cfg = micro_preset(seed=600 + seed)
        single_cfg.train.epochs = 12
        single_cfg.model.kernels = (KernelBox(32, 16),)
        score_map, _, _ = _train_and_score(rows, single_cfg, tmp_path, f"s{seed}")
        single_aucs.append(_mean_test_auc(rows, score_map)[0])

    multi_mean = float(np.mean(multi_aucs))
    single_mean = float(np.mean(single_aucs))
    if multi_mean < single_mean - 0.02:
        fail(6, "multi-scale ablation direction",
             f"3-kernel {multi_mean:.4f} vs single-kernel {single_mean:.4f}")
    assert multi_mean >= single_mean - 0.02
    report(6, "multi-scale ablation direction",
           f"3-kernel mean AUC {multi_mean:.4f} vs single-kernel "
           f"{single_mean:.4f} over 5 seeds", started)


def test_criterion_7_determinism_and_persistence(tiny_corpus, tiny_run_cfg, tmp_path):
    started = time.perf_counter()
    rows, _ = tiny_corpus
    cfg = copy.deepcopy(tiny_run_cfg)
    cfg.train.epochs = 2

    train(rows, cfg, out_checkpoint=tmp_path / "a.ckpt", log_stream=io.StringIO())
    train(rows, cfg, out_checkpoint=tmp_path / "b.ckpt", log_stream=io.StringIO())
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def score_csv(ckpt):
        model, _ = load_model(ckpt)
        store = cluster_prototypes(rows, model, cfg.scoring.scoring_mode,
                                   cfg.scoring.prototypes, cfg.model.seed)
        scores, _ = score_test_rows(rows, store, model)
        return "".join(f"{p},{s:.6f}\n" for p, s in scores).encode()

    assert score_csv(tmp_path / "a.ckpt") == score_csv(tmp_path / "b.ckpt")
    assert score_csv(tmp_path / "a.ckpt") == score_csv(tmp_path / "a.ckpt")
    report(7, "determinism & persistence",
           "bit-identical checkpoints; identical score CSV bytes after "
           "save/load round trips", started)


# -- criterion 8: shared-weight law ----------------------------------------------------------------

def test_criterion_8_shared_weight_law():
    started = time.perf_counter()
    kernel_sets = {
        1: (KernelBox(32, 16),),
        3: (KernelBox(32, 16), KernelBox(64, 32), KernelBox(128, 64)),
        12: tuple(default_kernel_set()),
    }
    census = {}
    for k, kernels in kernel_sets.items():
        model = MultiScaleNet(ModelConfig(kernels=kernels, seed=0))
        assert len(model.kernels) == k
        census[k] = {name: p.size for name, p in model.named_parameters()}

    encoder_counts = {
        k: sum(size for name, size in c.items()
               if name.startswith("patch_branch.encoder."))
        for k, c in census.items()
    }
    assert len(set(encoder_counts.values())) == 1, encoder_counts

    for k, c in census.items():
        assert c["patch_branch.merge.weight"] == k * 256 * 256
        non_merge = {n: s for n, s in c.items() if not n.startswith("patch_branch.merge")}
        base = {n: s for n, s in census[1].items() if not n.startswith("patch_branch.merge")}
        assert non_merge == base, f"K={k}: census differs beyond the merge layer"
    report(8, "shared-weight law",
           f"patch encoder census identical for K in (1, 3, 12): "
           f"{next(iter(set(encoder_counts.values())))} parameters", started)
