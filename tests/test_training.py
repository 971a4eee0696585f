"""Training recipe: labels, mixup, smoothing, the adaptive cosine head,
and the loop's determinism and descent."""

import io

import numpy as np
import pytest

from soundscan.autodiff import Tensor
from soundscan.data import ManifestRow
from soundscan.errors import ConfigError, DataError
from soundscan.network import MultiScaleNet
from soundscan.training import (SubClusterHead, adacos_loss, build_label_space,
                                initial_scale, label_smooth, mixup, train)


def row(path, mtype, ident, split="train", label="normal"):
    return ManifestRow(path, mtype, ident, "", split, label)


# -- label space ------------------------------------------------------------------

def test_label_space_product():
    rows = [row(f"{t}_{i}.wav", t, f"id_{i:02d}")
            for t in ("fan", "pump") for i in range(3)]
    space = build_label_space(rows)
    assert len(space) == 6
    assert space.classes[0] == ("fan", "id_00")


def test_label_space_deduplicates():
    rows = [row(f"a{i}.wav", "fan", "id_00") for i in range(5)]
    assert len(build_label_space(rows)) == 1


def test_label_space_from_parsed_filenames(tmp_path):
    from soundscan.data import scan_dcase_layout
    ids = (0, 2, 4, 6)
    for i in ids:
        d = tmp_path / "fan" / "train"
        d.mkdir(parents=True, exist_ok=True)
        (d / f"normal_id_{i:02d}_00000000.wav").write_bytes(b"")
    rows = scan_dcase_layout(tmp_path, "2020")
    space = build_label_space(rows)
    assert len(space) == 4
    assert space.classes == tuple(("fan", f"id_{i:02d}") for i in ids)


def test_label_space_empty_manifest():
    with pytest.raises(DataError):
        build_label_space([])


# -- mixup -----------------------------------------------------------------------

def test_mixup_lambda_one_is_identity(rng):
    a = rng.uniform(-1, 1, (4, 100))
    b = rng.uniform(-1, 1, (4, 100))
    np.testing.assert_array_equal(mixup(a, b, 1.0), a)


def test_mixup_half_of_opposites_cancels(rng):
    a = rng.uniform(-1, 1, (4, 100))
    np.testing.assert_allclose(mixup(a, -a, 0.5), 0.0, atol=1e-15)


def test_mixup_beta_mean_matches_distribution():
    rng = np.random.default_rng(123)
    draws = rng.beta(0.2, 0.2, 100_000)
    assert abs(draws.mean() - 0.5) < 0.01  # Beta(a,a) mean = 1/2


def test_mixup_shape_mismatch():
    with pytest.raises(DataError):
        mixup(np.zeros((2, 10)), np.zeros((3, 10)), 0.5)


# -- label smoothing ----------------------------------------------------------------

def test_smooth_zero_eps_unchanged():
    one_hot = np.eye(4)[[1, 3]]
    np.testing.assert_array_equal(label_smooth(one_hot, 0.0), one_hot)


def test_smooth_hand_case():
    out = label_smooth(np.array([[1.0, 0.0, 0.0, 0.0]]), 0.3)
    np.testing.assert_allclose(out[0], [0.7, 0.1, 0.1, 0.1], rtol=1e-12)


def test_smooth_rows_sum_to_one(rng):
    one_hot = np.eye(7)[rng.integers(0, 7, 32)]
    eps = rng.uniform(0, 0.5, 32)
    out = label_smooth(one_hot, eps)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)


# -- sub-cluster adaptive-scale loss ----------------------------------------------------

def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def make_head(centers, n_classes, subclusters):
    head = SubClusterHead(n_classes, subclusters, centers.shape[1],
                          np.random.default_rng(0))
    head.centers.data = np.asarray(centers, dtype=np.float64)
    return head


def test_adacos_loss_vanishes_as_scale_grows():
    centers = np.array([[1.0, 0.0], [0.0, 1.0]])
    head = make_head(centers, n_classes=2, subclusters=1)
    emb = Tensor(np.array([[1.0, 0.0]]))
    targets = np.array([[1.0, 0.0]])
    losses = []
    for s in (2.0, 5.0, 10.0, 30.0):
        head.scale[0] = s
        losses.append(adacos_loss(emb, targets, head, update_scale=False).item())
    assert losses == sorted(losses, reverse=True)
    assert losses[-1] < 1e-10


def test_adacos_uniform_targets_symmetric_centers_ln_c():
    centers = np.array([[1.0, 0.0], [-1.0, 0.0]])
    head = make_head(centers, n_classes=2, subclusters=1)
    emb = Tensor(np.array([[0.0, 1.0]]))  # orthogonal to both centers
    targets = np.array([[0.5, 0.5]])
    for s in (1.0, 7.3):
        head.scale[0] = s
        loss = adacos_loss(emb, targets, head, update_scale=False).item()
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)


def test_adacos_initial_scale_formula():
    assert initial_scale(10, 16) == pytest.approx(np.sqrt(2) * np.log(159))
    assert initial_scale(10, 16) == pytest.approx(7.17, abs=0.01)
    head = SubClusterHead(10, 16, 8, np.random.default_rng(1))
    assert head.scale[0] == pytest.approx(initial_scale(10, 16))


def test_adacos_scale_update_stays_clamped(rng):
    head = SubClusterHead(3, 2, 4, np.random.default_rng(2))
    for _ in range(20):
        emb = Tensor(rng.standard_normal((8, 4)) /
                     np.linalg.norm(rng.standard_normal((8, 4)), axis=1, keepdims=True))
        targets = np.eye(3)[rng.integers(0, 3, 8)]
        adacos_loss(emb, targets, head, update_scale=True)
        assert 1.0 <= head.scale[0] <= 2 * head.s0 + 1e-12


def test_adacos_gradient_check(rng):
    from gradcheck import check_gradients
    head = SubClusterHead(3, 2, 5, np.random.default_rng(3))
    raw = rng.standard_normal((4, 5))
    emb = Tensor(raw / np.linalg.norm(raw, axis=1, keepdims=True), requires_grad=True)
    targets = label_smooth(np.eye(3)[[0, 1, 2, 1]], 0.2)
    head.scale[0] = 4.0
    check_gradients(
        lambda: adacos_loss(emb, targets, head, update_scale=False),
        [emb, head.centers])


def test_mixup_loss_bounded_by_components(rng):
    # CE is linear in the target, so the mixed loss can never exceed
    # max of the endpoint losses (the + ln C slack is free headroom)
    head = SubClusterHead(4, 2, 6, np.random.default_rng(4))
    head.scale[0] = 5.0
    for _ in range(25):
        raw = rng.standard_normal((6, 6))
        emb = Tensor(raw / np.linalg.norm(raw, axis=1, keepdims=True))
        ta = np.eye(4)[rng.integers(0, 4, 6)]
        tb = np.eye(4)[rng.integers(0, 4, 6)]
        lam = float(rng.beta(0.2, 0.2))
        mixed = lam * ta + (1 - lam) * tb
        l_mix = adacos_loss(emb, mixed, head, update_scale=False).item()
        l_a = adacos_loss(emb, ta, head, update_scale=False).item()
        l_b = adacos_loss(emb, tb, head, update_scale=False).item()
        assert l_mix <= max(l_a, l_b) + np.log(4) + 1e-9


def test_adacos_rejects_unnormalized_in_checked_mode(rng):
    from soundscan import autodiff as ad
    head = SubClusterHead(2, 1, 3, np.random.default_rng(5))
    emb = Tensor(np.array([[2.0, 0.0, 0.0]]))  # norm 2
    ad.set_checked(True)
    try:
        with pytest.raises(DataError):
            adacos_loss(emb, np.array([[1.0, 0.0]]), head, update_scale=False)
    finally:
        ad.set_checked(False)


# -- the loop -----------------------------------------------------------------------

def test_training_loss_descends(tiny_corpus, tiny_run_cfg):
    import copy
    rows, _ = tiny_corpus
    cfg = copy.deepcopy(tiny_run_cfg)
    cfg.train.epochs = 30
    cfg.model.seed = 11
    result = train(rows, cfg, log_stream=io.StringIO())
    assert result.losses[-1] < result.losses[0]
    assert all(1.0 <= s <= 2 * result.head.s0 + 1e-12 for s in result.scales)
    norms = np.linalg.norm(result.head.centers.data, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_training_deterministic_checkpoints(tiny_corpus, tiny_run_cfg, tmp_path):
    import copy
    rows, _ = tiny_corpus
    cfg = copy.deepcopy(tiny_run_cfg)
    cfg.train.epochs = 2
    buf = io.StringIO()
    train(rows, cfg, out_checkpoint=tmp_path / "a.ckpt", log_stream=buf)
    train(rows, cfg, out_checkpoint=tmp_path / "b.ckpt", log_stream=buf)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


def test_training_zero_lr_freezes_parameters(tiny_corpus, tiny_run_cfg):
    import copy
    rows, _ = tiny_corpus
    cfg = copy.deepcopy(tiny_run_cfg)
    cfg.train.epochs = 1
    cfg.train.lr = 0.0
    reference = MultiScaleNet(cfg.model)
    result = train(rows, cfg, log_stream=io.StringIO())
    for (name_a, p), (name_b, q) in zip(reference.named_parameters(),
                                        result.model.named_parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(p.data, q.data)


def test_training_requires_two_classes(tiny_run_cfg, tmp_path):
    import copy
    from soundscan.data import SynthConfig, synth_dataset
    cfg = copy.deepcopy(tiny_run_cfg)
    rows = synth_dataset(SynthConfig(classes=1, train_clips=3, test_normal=1,
                                     test_anomaly=1, base_freqs=(500.0,), seed=0),
                         tmp_path)
    with pytest.raises(DataError):
        train(rows, cfg, log_stream=io.StringIO())
    with pytest.raises(DataError):
        train([], cfg, log_stream=io.StringIO())


def test_training_refuses_a_batch_beyond_physical_memory(tiny_run_cfg, tmp_path,
                                                         monkeypatch):
    from soundscan import training

    # micro preset: 0.18 MB of patch stacks per clip, 1.4 MB for a full batch of 8
    monkeypatch.setattr(training, "physical_memory", lambda: 1 << 20)
    # the WAVs do not exist: the check must come before any is read
    rows = [row(str(tmp_path / f"{t}{i}.wav"), t, "id_00")
            for t in ("fan", "pump") for i in range(5)]
    with pytest.raises(ConfigError, match=r"batch of 8 clips needs at least 1\.4 MB"):
        train(rows, tiny_run_cfg, log_stream=io.StringIO())
    # a corpus smaller than one batch is bounded by its own size: 2 clips fit
    with pytest.raises(DataError):
        train(rows[4:6], tiny_run_cfg, log_stream=io.StringIO())
    monkeypatch.setattr(training, "physical_memory", lambda: 2 << 20)
    with pytest.raises(DataError):
        train(rows, tiny_run_cfg, log_stream=io.StringIO())


def test_training_without_a_seed_is_config_error(tiny_run_cfg, tmp_path):
    import copy

    cfg = copy.deepcopy(tiny_run_cfg)
    cfg.model.seed = None
    # the WAVs do not exist: the seed check must come before any is read
    rows = [row(str(tmp_path / f"{t}{i}.wav"), t, "id_00")
            for t in ("fan", "pump") for i in range(3)]
    with pytest.raises(ConfigError, match="seed"):
        train(rows, cfg, log_stream=io.StringIO())


def test_every_branch_receives_gradient(tiny_corpus, tiny_run_cfg):
    # dead-branch detector: over a few batches, every parameter tensor
    # must accumulate a nonzero gradient somewhere
    import copy
    from soundscan.network import load_waves
    from soundscan.training import (SubClusterHead, adacos_loss,
                                    build_label_space, features_for_batch)
    rows, _ = tiny_corpus
    cfg = copy.deepcopy(tiny_run_cfg)
    train_rows = [r for r in rows if r.split == "train"]
    space = build_label_space(train_rows)
    waves = load_waves(train_rows, cfg.model)
    labels = np.array([space.class_of(r) for r in train_rows])
    one_hot = np.eye(len(space))[labels]

    model = MultiScaleNet(cfg.model)
    head = SubClusterHead(len(space), cfg.model.subclusters, model.embed_dim,
                          np.random.default_rng(1))
    params = model.parameters() + head.parameters()
    seen = {p.name: False for p in params}
    batch_rng = np.random.default_rng(2)
    for _ in range(3):
        pick = batch_rng.choice(len(waves), size=8, replace=False)
        specs, spectra = features_for_batch(waves[pick], cfg.model)
        loss = adacos_loss(model(specs, spectra), one_hot[pick], head)
        loss.backward()
        for p in params:
            if p.grad is not None and np.any(p.grad != 0):
                seen[p.name] = True
            p.grad = None
    dead = [name for name, ok in seen.items() if not ok]
    assert not dead, f"parameters with no gradient signal: {dead}"
