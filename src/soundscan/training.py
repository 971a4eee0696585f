"""Discriminative training: label space, wave-level mixup, label smoothing,
and a sub-cluster cosine-softmax head with an adaptive scale."""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Adam, Parameter, Tensor
from .config import RunConfig, config_text
from .checkpoint import atomic_write, check_outputs, save_container
from .errors import ConfigError, DataError
from .network import MultiScaleNet, features_for_batch, load_waves
from .workers import pool


# -- label space ---------------------------------------------------------------

@dataclass(frozen=True)
class LabelSpace:
    """Ordered (machine type, ID-or-attribute) classes with an index map."""

    classes: tuple

    @functools.cached_property
    def index(self):
        return {key: i for i, key in enumerate(self.classes)}

    def __len__(self):
        return len(self.classes)

    def class_of(self, row) -> int:
        return self.index[(row.machine_type, row.id_or_attr)]


def build_label_space(rows) -> LabelSpace:
    """One class per distinct (machine type, machine ID or attribute string),
    in lexicographic order."""
    keys = sorted({(r.machine_type, r.id_or_attr) for r in rows})
    if not keys:
        raise DataError("cannot build a label space from an empty manifest")
    return LabelSpace(classes=tuple(keys))


# -- batch-level augmentation ----------------------------------------------------

def mixup(batch_a: np.ndarray, batch_b: np.ndarray, lam: float) -> np.ndarray:
    """Waveform-level convex combination lam*a + (1-lam)*b."""
    if batch_a.shape != batch_b.shape:
        raise DataError(f"mixup shape mismatch: {batch_a.shape} vs {batch_b.shape}")
    return lam * batch_a + (1.0 - lam) * batch_b


def label_smooth(one_hot: np.ndarray, eps) -> np.ndarray:
    """Move eps of the true-class mass uniformly onto the other C-1 classes.

    `eps` may be a scalar or one value per row.
    """
    C = one_hot.shape[-1]
    if C < 2:
        raise DataError("label smoothing requires at least 2 classes")
    eps = np.asarray(eps, dtype=np.float64)
    if eps.ndim == 1:
        eps = eps[:, None]
    return one_hot * (1.0 - eps) + (1.0 - one_hot) * (eps / (C - 1))


# -- sub-cluster adaptive-scale head ----------------------------------------------

class SubClusterHead(nn.Module):
    """S unit-norm centers per class; cosine logits under a dynamic scale.

    The scale starts at s0 = sqrt(2) * ln(C*S - 1) and is re-estimated every
    step from the batch, clamped to [1, 2*s0].
    """

    def __init__(self, n_classes, subclusters, embed_dim, rng):
        super().__init__()
        if n_classes < 2:
            raise DataError(f"need at least 2 classes, got {n_classes}")
        self.n_classes = n_classes
        self.subclusters = subclusters
        centers = rng.standard_normal((n_classes * subclusters, embed_dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        self.centers = Parameter(centers)
        self.s0 = initial_scale(n_classes, subclusters)
        self.register_buffer("scale", np.array([self.s0]))

    def renormalize(self) -> None:
        self.centers.data /= np.linalg.norm(self.centers.data, axis=1, keepdims=True)

    def cosines(self, embeddings: Tensor) -> Tensor:
        return embeddings @ self.centers.T


def initial_scale(n_classes: int, subclusters: int) -> float:
    return float(np.sqrt(2.0) * np.log(n_classes * subclusters - 1))


def adacos_loss(embeddings: Tensor, targets: np.ndarray, head: SubClusterHead,
                update_scale: bool = True) -> Tensor:
    """Cross-entropy of soft targets against summed-softmax class posteriors.

    Logits are scale * cosine over all C*S centers; a class's posterior is
    the softmax mass pooled over its S centers. The scale is re-estimated
    from the batch before the loss is formed and carries no gradient.
    """
    B = embeddings.shape[0]
    C, S = head.n_classes, head.subclusters
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (B, C):
        raise DataError(f"targets shape {targets.shape}, expected {(B, C)}")
    if ad.checked():
        for name, rows_ in (("embeddings", embeddings.data), ("centers", head.centers.data)):
            norms = np.linalg.norm(rows_, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-6):
                raise DataError(f"{name} must be unit-norm rows "
                                f"(worst |norm-1| = {np.abs(norms - 1).max():.2e})")

    cos = head.cosines(embeddings)                       # (B, C*S)
    cos_data = cos.data

    if update_scale:
        target_class = targets.argmax(axis=1)
        per_class = cos_data.reshape(B, C, S)
        target_cos = per_class[np.arange(B), target_class].max(axis=1)
        theta_med = np.median(np.arccos(np.clip(target_cos, -1.0, 1.0)))
        non_target = np.ones((B, C), dtype=bool)
        non_target[np.arange(B), target_class] = False
        prev = float(head.scale[0])
        exp_sum = (np.exp(prev * per_class) * non_target[:, :, None]).sum(axis=(1, 2))
        b_avg = float(exp_sum.mean())
        denom = np.cos(theta_med)
        new_scale = np.log(b_avg) / denom if denom > 1e-12 else 2.0 * head.s0
        head.scale[0] = float(np.clip(new_scale, 1.0, 2.0 * head.s0))

    logits = cos * float(head.scale[0])
    grouped = logits.reshape(B, C, S)
    m_class = grouped.data.max(axis=2, keepdims=True)    # constants: no gradient
    class_lse = (grouped - Tensor(m_class)).exp().sum(axis=2).log() + Tensor(m_class[:, :, 0])
    m_all = logits.data.max(axis=1, keepdims=True)
    total_lse = (logits - Tensor(m_all)).exp().sum(axis=1, keepdims=True).log() + Tensor(m_all)
    log_posterior = class_lse - total_lse               # (B, C) broadcast over columns
    return (Tensor(targets) * log_posterior).sum() * (-1.0 / B)


# -- training loop ------------------------------------------------------------------

@dataclass
class TrainResult:
    model: MultiScaleNet
    head: SubClusterHead
    label_space: LabelSpace
    losses: list = field(default_factory=list)
    scales: list = field(default_factory=list)


class _TrainState(nn.Module):
    """Parent module giving model and head a joint, uniquely-named state."""

    def __init__(self, model, head):
        super().__init__()
        self.model = model
        self.head = head


def physical_memory():
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_batch_fits(model: MultiScaleNet, batch_clips: int) -> None:
    """Raise ConfigError when one batch of `batch_clips` clips cannot fit in
    physical memory.

    The float64 patch stacks of one batch, batch_clips x sum_k patch_cells_k x 8
    bytes, are a strict lower bound on a training step's memory: the forward
    and backward passes hold them and much more besides. On the micro preset
    the tape of one training forward holds 3.7 MB per clip (60 MB for a
    16-clip batch, traced with tracemalloc), against 0.18 MB of patch stacks.
    The corpus does not count: `train` holds one batch of waveforms at a
    time, whatever the length of the train split.
    """
    per_clip = sum(plan.patch_cells for plan in model.patch_branch.plans)
    need = batch_clips * per_clip * 8
    have = physical_memory()
    if have is not None and need > have:
        raise ConfigError(
            f"one training batch of {batch_clips} clips needs at least "
            f"{need / 1e6:,.1f} MB for its patch stacks alone, more than the "
            f"{have / 1e6:,.1f} MB of physical memory; lower batch_size or scan "
            f"fewer or smaller patches")


def _train_step(model, head, optimizer, waves, targets, model_cfg) -> float:
    """One forward, backward and update; returns the loss. The step's graph
    dies with this frame, so it never overlaps the next step's."""
    specs, spectra = features_for_batch(waves, model_cfg)
    embeddings = model(specs, spectra)
    loss = adacos_loss(embeddings, targets, head)
    loss.backward()
    optimizer.step()
    optimizer.zero_grad()
    head.renormalize()
    return loss.item()


def train(rows, run_cfg: RunConfig, out_checkpoint=None, log_path=None,
          log_stream=None) -> TrainResult:
    """Train on the manifest's train split; deterministic given the seed.

    Writes one log line per epoch (epoch, mean loss, scale, seconds) to
    `log_stream` (default stdout) and optionally a CSV log; saves a
    checkpoint container when `out_checkpoint` is given; an output that
    `checkpoint.check_outputs` refuses is a DataError before any WAV is read,
    as is an AdaCos initial scale of 0 (a ConfigError).
    The model's branch sub-graphs run in a `workers.pool`; at a given BLAS
    thread count the result is the same for every worker count.

    The train split is streamed from disk: each step reads its own batch's
    WAVs, so memory holds one batch of waveforms, not the split. Before the
    first step every train WAV is decoded once and dropped, so a missing,
    malformed, wrong-rate or non-finite file is a DataError, in manifest
    order, before any step runs.
    """
    model_cfg, train_cfg = run_cfg.model, run_cfg.train
    run_cfg.validate(require_seed=True)
    check_outputs([("out_checkpoint", out_checkpoint), ("log_path", log_path)])
    stream = sys.stdout if log_stream is None else log_stream

    train_rows = [r for r in rows if r.split == "train"]
    if not train_rows:
        raise DataError("manifest has no train rows")
    label_space = build_label_space(train_rows)
    if len(label_space) < 2:
        raise DataError(f"need at least 2 classes to train, got {len(label_space)}")
    if initial_scale(len(label_space), model_cfg.subclusters) <= 0.0:
        raise ConfigError(f"{len(label_space)} classes x subclusters={model_cfg.subclusters} give "
                          f"AdaCos scale sqrt(2)*ln(1) = 0, which never trains; raise subclusters")

    model = MultiScaleNet(model_cfg)
    # the largest batch the loop below takes
    check_batch_fits(model, min(train_cfg.batch_size, len(train_rows)))
    # decode every WAV once and keep none: a bad file fails before any step
    for row in train_rows:
        load_waves([row], model_cfg)
    labels = np.array([label_space.class_of(r) for r in train_rows])
    C = len(label_space)
    one_hot = np.eye(C)[labels]

    head_rng = np.random.default_rng([model_cfg.seed, 1])
    data_rng = np.random.default_rng([model_cfg.seed, 2])
    head = SubClusterHead(C, model_cfg.subclusters, model.embed_dim, head_rng)

    state = _TrainState(model, head)
    params = state.parameters()
    optimizer = Adam(params, lr=train_cfg.lr)

    result = TrainResult(model=model, head=head, label_space=label_space)
    log_rows = []
    M = len(train_rows)
    # the spectrogram encoder, one patch pass per scan plan and the spectrum encoder
    with pool(len(model.patch_branch.plans) + 2):
        for epoch in range(1, train_cfg.epochs + 1):
            tic = time.perf_counter()
            order = data_rng.permutation(M)
            epoch_losses = []
            for start in range(0, M, train_cfg.batch_size):
                chunk = order[start:start + train_cfg.batch_size]
                batch_waves = load_waves([train_rows[i] for i in chunk], model_cfg)
                batch_targets = one_hot[chunk]
                if data_rng.uniform() < train_cfg.mixup_prob and len(chunk) > 1:
                    partner = data_rng.permutation(len(chunk))
                    lam = float(data_rng.beta(train_cfg.mixup_alpha, train_cfg.mixup_alpha))
                    batch_waves = mixup(batch_waves, batch_waves[partner], lam)
                    batch_targets = lam * batch_targets + (1.0 - lam) * batch_targets[partner]
                else:
                    eps = data_rng.uniform(0.0, train_cfg.smooth_max, len(chunk))
                    batch_targets = label_smooth(batch_targets, eps)

                epoch_losses.append(_train_step(model, head, optimizer, batch_waves,
                                                batch_targets, model_cfg))

            mean_loss = float(np.mean(epoch_losses))
            scale = float(head.scale[0])
            seconds = time.perf_counter() - tic
            result.losses.append(mean_loss)
            result.scales.append(scale)
            log_rows.append((epoch, mean_loss, scale, seconds))
            print(f"epoch {epoch:3d}  loss {mean_loss:.6f}  scale {scale:.4f}  "
                  f"seconds {seconds:.2f}", file=stream)

    if log_path is not None:
        with atomic_write(log_path) as fh:
            fh.write("epoch,mean_loss,adacos_scale,seconds\n")
            for epoch, mean_loss, scale, seconds in log_rows:
                fh.write(f"{epoch},{mean_loss:.10f},{scale:.10f},{seconds:.3f}\n")

    if out_checkpoint is not None:
        save_checkpoint(out_checkpoint, state, optimizer, run_cfg)
    return result


def save_checkpoint(path, state: _TrainState, optimizer: Adam, run_cfg: RunConfig) -> None:
    arrays = dict(state.state_dict())
    arrays.update(optimizer.state_arrays())
    save_container(path, arrays, config_text(run_cfg))
