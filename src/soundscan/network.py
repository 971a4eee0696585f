"""The full embedding network: two spectrogram branches plus a spectrum branch.

Branch one encodes the whole spectrogram with a gated residual stack; branch
two scans the spectrogram with multi-scale kernel boxes and pushes every
patch stack through one weight-shared patch encoder; branch three encodes
the utterance-level spectrum with strided 1-D convolutions. The three
embeddings are concatenated and L2-normalized.

`load_waves` and `features_for_batch` are the one feature path that both
training and embedding take from WAV files to the model's inputs.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .checkpoint import load_container
from .config import ModelConfig, RunConfig, parse_config_text
from .dsp import AudioClip, fix_length, load_wav, stft_magnitude, utterance_spectrum
from .errors import CheckpointError, ConfigError, DataError
from .scanning import scan_array, usable_kernels


def conv_out(n: int, k: int, s: int, p: int) -> int:
    return (n + 2 * p - k) // s + 1


class SpectrogramEncoder(nn.Module):
    """Gated residual stack over the full spectrogram, given as a (B, F, T, 1)
    tensor; global max pool."""

    def __init__(self, F, T, stem_channels, stage_channels, reduction, rng):
        super().__init__()
        self.se_in = nn.MultiAxisSE(1, F, T, reduction, rng)
        self.stem = nn.Conv2d(1, stem_channels, (7, 7), (2, 2), (3, 3), rng, bias=False)
        self.stem_bn = nn.BatchNorm2d(stem_channels)
        trace = [(conv_out(F, 7, 2, 3), conv_out(T, 7, 2, 3))]
        h, w = trace[0]
        h, w = conv_out(h, 3, 2, 1), conv_out(w, 3, 2, 1)  # stem max pool
        trace.append((h, w))
        self.se_stem = nn.MultiAxisSE(stem_channels, h, w, reduction, rng)

        blocks = []
        c_prev = stem_channels
        for stage, c in enumerate((stem_channels,) + tuple(stage_channels)):
            stride = 1 if stage == 0 else 2
            blocks.append(nn.ResBlock2d(c_prev, c, stride, rng))
            if stride == 2:
                h, w = conv_out(h, 3, 2, 1), conv_out(w, 3, 2, 1)
                trace.append((h, w))
            blocks.append(nn.MultiAxisSE(c, h, w, reduction, rng))
            blocks.append(nn.ResBlock2d(c, c, 1, rng))
            c_prev = c
        self.blocks = nn.Sequential(*blocks)
        self.out_dim = stage_channels[-1]
        self.final_hw = (h, w)
        self.spatial_trace = tuple(trace)

    def forward(self, x: Tensor) -> Tensor:
        x = self.se_in(x)
        x = nn.conv_bn(self.stem, self.stem_bn, x).relu()
        x = ad.max_pool2d(x, (3, 3), (2, 2), (1, 1))
        x = self.se_stem(x)
        x = self.blocks(x)
        x = ad.max_pool2d(x, self.final_hw)
        return x.reshape(x.shape[0], self.out_dim)


class PatchEncoder(nn.Module):
    """Weight-shared encoder mapping any (N, h, w) patch stack to one embedding.

    Patches run through the residual stack as independent 1-channel images,
    a (B*N, h, w, 1) view of the (B, N, h, w) stack; statistics pooling
    over all patches and spatial positions absorbs the varying N, h, w.
    """

    def __init__(self, channels, embed_dim, hidden_dim, rng):
        super().__init__()
        c1, c2, c3 = channels
        self.block1 = nn.ResBlock2d(1, c1, 2, rng)
        self.block2 = nn.ResBlock2d(c1, c2, 2, rng)
        self.block3 = nn.ResBlock2d(c2, c3, 1, rng)
        self.fc1 = nn.Linear(2 * c3, hidden_dim, rng)
        self.fc2 = nn.Linear(hidden_dim, embed_dim, rng)
        self.out_channels = c3
        self.embed_dim = embed_dim

    def forward(self, stack: Tensor) -> Tensor:
        B, N, h, w = stack.shape
        x = stack.reshape(B * N, h, w, 1)
        x = self.block3(self.block2(self.block1(x)))
        x = ad.stats_pool(x.reshape(B, -1, self.out_channels))
        return self.fc2(self.fc1(x).relu())


class MultiScaleBranch(nn.Module):
    """Scan with every kernel, encode with the shared patch encoder,
    concatenate the K per-scale embeddings and refine to one."""

    def __init__(self, n_kernels, channels, embed_dim, hidden_dim, rng):
        super().__init__()
        self.encoder = PatchEncoder(channels, embed_dim, hidden_dim, rng)
        self.merge = nn.Linear(n_kernels * embed_dim, embed_dim, rng)

    def forward(self, stacks) -> Tensor:
        embeddings = [self.encoder(stack) for stack in stacks]
        joined = embeddings[0] if len(embeddings) == 1 else ad.concat(embeddings, axis=1)
        return self.merge(joined).relu()


class SpectrumEncoder(nn.Module):
    """Strided 1-D convolutions, flatten, then a small linear stack."""

    def __init__(self, input_len, channels, kernels, strides, linear_width,
                 linear_count, rng):
        super().__init__()
        convs = []
        length = input_len
        c_prev = 1
        for c, k, s in zip(channels, kernels, strides):
            if length < k:
                raise ConfigError(
                    f"spectrum length {length} shorter than conv kernel {k}; "
                    "adjust spectrum_kernels/strides for this clip length")
            convs.append(nn.Conv1d(c_prev, c, k, s, rng))
            length = (length - k) // s + 1
            c_prev = c
        self.convs = nn.Sequential(*convs)
        self.flat_dim = c_prev * length
        linears = [nn.Linear(self.flat_dim, linear_width, rng)]
        linears += [nn.Linear(linear_width, linear_width, rng)
                    for _ in range(linear_count - 1)]
        self.linears = nn.Sequential(*linears)
        self.out_dim = linear_width

    def forward(self, x: Tensor) -> Tensor:
        B = x.shape[0]
        x = x.reshape(B, x.shape[1], 1)
        for conv in self.convs.layers:
            x = conv(x).relu()
        # (C, L) order: the order the first linear layer was trained on
        x = x.transpose((0, 2, 1)).reshape(B, self.flat_dim)
        for i, lin in enumerate(self.linears.layers):
            x = lin(x)
            if i < len(self.linears.layers) - 1:
                x = x.relu()
        return x


class MultiScaleNet(nn.Module):
    """Three-branch embedding model over (spectrogram, spectrum) features."""

    def __init__(self, cfg: ModelConfig):
        super().__init__()
        cfg.validate()
        self.cfg = cfg
        F, T = cfg.freq_bins, cfg.frames
        self.kernels = usable_kernels(cfg.kernels, F, T)
        if not self.kernels:
            raise ConfigError(f"no kernel from {list(map(str, cfg.kernels))} fits a "
                              f"{F}x{T} spectrogram")
        self.plans = [cfg.scan_plan(F, T, k) for k in self.kernels]

        rng = np.random.default_rng(cfg.seed if cfg.seed is not None else 0)
        self.spectrogram_encoder = SpectrogramEncoder(
            F, T, cfg.stem_channels, cfg.stage_channels, cfg.se_reduction, rng)
        self.patch_branch = MultiScaleBranch(
            len(self.kernels), cfg.patch_channels, cfg.patch_embed_dim,
            cfg.patch_hidden_dim, rng)
        self.spectrum_encoder = SpectrumEncoder(
            cfg.spectrum_bins, cfg.spectrum_channels, cfg.spectrum_kernels,
            cfg.spectrum_strides, cfg.spectrum_linear_width,
            cfg.spectrum_linear_count, rng)
        self.embed_dim = cfg.embed_dim

    def scan_batch(self, spec_batch: np.ndarray):
        """Per-kernel patch stacks (B, N_k, h, w) from a (B, F, T) batch."""
        stacks = []
        for box, plan in zip(self.kernels, self.plans):
            fp = np.asarray(plan.f_positions, dtype=np.intp)
            tp = np.asarray(plan.t_positions, dtype=np.intp)
            stacks.append(Tensor(scan_array(spec_batch, box.h, box.w, fp, tp)))
        return stacks

    def forward(self, spec_batch: np.ndarray, spectrum_batch: np.ndarray) -> Tensor:
        spec_batch = np.asarray(spec_batch, dtype=np.float64)
        spectrum_batch = np.asarray(spectrum_batch, dtype=np.float64)
        B, F, T = spec_batch.shape
        if (F, T) != (self.cfg.freq_bins, self.cfg.frames):
            raise DataError(f"spectrogram batch is {F}x{T}, model expects "
                            f"{self.cfg.freq_bins}x{self.cfg.frames}")
        e_spec = self.spectrogram_encoder(Tensor(spec_batch.reshape(B, F, T, 1)))
        e_patch = self.patch_branch(self.scan_batch(spec_batch))
        e_spectrum = self.spectrum_encoder(Tensor(spectrum_batch))
        joined = ad.concat([e_spec, e_patch, e_spectrum], axis=1)
        norms = ((joined * joined).sum(axis=1, keepdims=True) + 1e-24) ** 0.5
        return ad.div(joined, norms)


def load_waves(rows, cfg: ModelConfig) -> np.ndarray:
    """(len(rows), clip_samples) waveforms read from the rows' WAV files and
    tiled or truncated to the configured clip length."""
    waves = []
    for row in rows:
        clip = load_wav(row.path)
        if clip.sample_rate != cfg.sample_rate:
            raise DataError(f"{row.path}: sampled at {clip.sample_rate} Hz, "
                            f"config expects {cfg.sample_rate} Hz")
        waves.append(fix_length(clip, cfg.clip_seconds).samples)
    return np.stack(waves)


def features_for_batch(waves: np.ndarray, cfg: ModelConfig):
    """(spectrograms (B, F, T), spectra (B, bins)) for length-fixed waveforms."""
    specs, spectra = [], []
    for samples in waves:
        clip = AudioClip(samples, cfg.sample_rate)
        specs.append(stft_magnitude(clip, cfg.stft_window, cfg.stft_hop).values)
        spectra.append(utterance_spectrum(clip).values)
    return np.stack(specs), np.stack(spectra)


def load_model(path) -> tuple[MultiScaleNet, RunConfig]:
    """Rebuild a model from a checkpoint container and its config echo."""
    arrays, echo = load_container(path)
    # the echo is part of the file: an empty or unparsable one is a bad file
    if not echo.strip():
        raise CheckpointError(f"{path}: checkpoint carries no config echo")
    try:
        run_cfg = parse_config_text(echo)
    except ConfigError as exc:
        raise CheckpointError(f"{path}: config echo is not a model config: {exc}") from None
    model = MultiScaleNet(run_cfg.model)
    # checkpoints store the joint training state; keep the model subtree
    state = {}
    for key, value in arrays.items():
        for kind in ("param/", "buffer/"):
            prefix = kind + "model."
            if key.startswith(prefix):
                state[kind + key[len(prefix):]] = value
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as exc:
        raise CheckpointError(f"{path}: does not hold the model its config "
                              f"describes: {exc.args[0]}") from None
    model.eval()
    return model, run_cfg
