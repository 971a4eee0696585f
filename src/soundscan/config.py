"""Run configuration: model, training, synthesis, and scoring settings.

One flat key=value text format (``#`` comments, blank lines ignored) feeds
every entry point; unknown keys are rejected. The same text is echoed into
checkpoints so a model can be rebuilt from its checkpoint alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .scanning import KernelBox, default_kernel_set, plan_from_counts, plan_from_steps


@dataclass
class ModelConfig:
    """Architecture and feature-extraction settings."""

    sample_rate: int = 16000
    clip_seconds: float = 10.0
    stft_window: int = 1024
    stft_hop: int = 512
    kernels: tuple = field(default_factory=lambda: tuple(default_kernel_set()))
    scan_mode: str = "steps"            # "steps" or "counts"
    f_step: int = 8
    t_step: int = 32
    n_f: int = 16
    n_t: int = 8
    stem_channels: int = 16
    stage_channels: tuple = (32, 64, 128, 256)
    patch_channels: tuple = (32, 64, 64)
    patch_embed_dim: int = 256
    patch_hidden_dim: int = 1024
    spectrum_channels: tuple = (128, 128, 128)
    spectrum_kernels: tuple = (256, 64, 32)
    spectrum_strides: tuple = (64, 32, 4)
    spectrum_linear_width: int = 128
    spectrum_linear_count: int = 5
    se_reduction: int = 8
    subclusters: int = 16
    seed: int | None = None

    @property
    def clip_samples(self) -> int:
        return int(round(self.clip_seconds * self.sample_rate))

    @property
    def freq_bins(self) -> int:
        return self.stft_window // 2 + 1

    @property
    def frames(self) -> int:
        return 1 + (self.clip_samples - self.stft_window) // self.stft_hop

    @property
    def spectrum_bins(self) -> int:
        return self.clip_samples // 2 + 1

    @property
    def embed_dim(self) -> int:
        return self.stage_channels[-1] + self.patch_embed_dim + self.spectrum_linear_width

    def scan_plan(self, F: int, T: int, box: KernelBox):
        """The anchor grid of `box` over an F x T spectrogram, from the fixed
        steps or from the scan counts, as `scan_mode` says."""
        if self.scan_mode == "steps":
            return plan_from_steps(F, T, box, self.f_step, self.t_step)
        return plan_from_counts(F, T, box, self.n_f, self.n_t)

    def validate(self) -> None:
        if self.sample_rate <= 0 or self.clip_seconds <= 0:
            raise ConfigError("sample_rate and clip_seconds must be positive")
        if self.stft_window < 2 or self.stft_hop < 1:
            raise ConfigError("invalid STFT window/hop")
        if self.clip_samples < self.stft_window:
            raise ConfigError("clip shorter than the STFT window")
        if self.scan_mode not in ("steps", "counts"):
            raise ConfigError(f"scan_mode must be steps or counts, got {self.scan_mode!r}")
        if not self.kernels:
            raise ConfigError("kernel list is empty")
        if self.subclusters < 1 or self.se_reduction < 1:
            raise ConfigError("subclusters and se_reduction must be >= 1")
        if not (len(self.spectrum_channels) == len(self.spectrum_kernels)
                == len(self.spectrum_strides)):
            raise ConfigError("spectrum conv channel/kernel/stride lists differ in length")


@dataclass
class TrainConfig:
    """Optimization recipe. The run seed comes from ModelConfig."""

    lr: float = 0.001
    batch_size: int = 64
    epochs: int = 100
    mixup_alpha: float = 0.2
    smooth_max: float = 0.5
    mixup_prob: float = 0.5

    def validate(self) -> None:
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be >= 1")
        if self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive")
        if not 0 <= self.smooth_max < 1:
            raise ConfigError("smooth_max must lie in [0, 1)")
        if not 0 <= self.mixup_prob <= 1:
            raise ConfigError("mixup_prob must lie in [0, 1]")


@dataclass
class ScoringConfig:
    prototypes: int = 16
    scoring_mode: str = "per-id"        # "per-id" or "per-type"
    aggregate: str = "mean"             # "mean" or "harmonic"

    def validate(self) -> None:
        if self.prototypes < 1:
            raise ConfigError("prototypes must be >= 1")
        if self.scoring_mode not in ("per-id", "per-type"):
            raise ConfigError(f"unknown scoring_mode {self.scoring_mode!r}")
        if self.aggregate not in ("mean", "harmonic"):
            raise ConfigError(f"unknown aggregate {self.aggregate!r}")


@dataclass
class SynthSettings:
    classes: int = 4
    train_clips: int = 30
    test_normal: int = 10
    test_anomaly: int = 10
    base_freqs: tuple = (400.0, 550.0, 700.0, 850.0)
    anomaly_kind: str = "detune"        # detune | transient | band-noise
    noise_floor: float = 0.01

    def validate(self) -> None:
        if self.classes < 1 or self.train_clips < 1:
            raise ConfigError("synth class and clip counts must be >= 1")
        if self.anomaly_kind not in ("detune", "transient", "band-noise"):
            raise ConfigError(f"unknown anomaly_kind {self.anomaly_kind!r}")
        if len(self.base_freqs) < self.classes:
            raise ConfigError("need one base frequency per synth class")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    synth: SynthSettings = field(default_factory=SynthSettings)

    def validate(self, require_seed: bool = False) -> None:
        self.model.validate()
        self.train.validate()
        self.scoring.validate()
        self.synth.validate()
        if require_seed and self.model.seed is None:
            raise ConfigError("a seed is required: set `seed=` in the config "
                              "or pass --set seed=N")


# -- flat key=value codec -----------------------------------------------------

def _parse_int_tuple(s):
    return tuple(int(v) for v in s.split(",") if v != "")


def _parse_float_tuple(s):
    return tuple(float(v) for v in s.split(",") if v != "")


def _parse_kernels(s):
    if s == "default":
        return tuple(default_kernel_set())
    boxes = []
    for part in s.split(","):
        h, _, w = part.partition("x")
        try:
            boxes.append(KernelBox(int(h), int(w)))
        except ValueError:
            raise ConfigError(f"bad kernel spec {part!r}, expected HxW") from None
    return tuple(boxes)


def _show(value):
    if isinstance(value, tuple):
        if value and isinstance(value[0], KernelBox):
            return ",".join(str(k) for k in value)
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return str(value)


# config-file key -> (section, dataclass field, parser)
KEY_TABLE = {
    "sample_rate": ("model", "sample_rate", int),
    "clip_seconds": ("model", "clip_seconds", float),
    "stft_window": ("model", "stft_window", int),
    "stft_hop": ("model", "stft_hop", int),
    "kernels": ("model", "kernels", _parse_kernels),
    "scan_mode": ("model", "scan_mode", str),
    "f_step": ("model", "f_step", int),
    "t_step": ("model", "t_step", int),
    "n_f": ("model", "n_f", int),
    "n_t": ("model", "n_t", int),
    "stem_channels": ("model", "stem_channels", int),
    "stage_channels": ("model", "stage_channels", _parse_int_tuple),
    "patch_channels": ("model", "patch_channels", _parse_int_tuple),
    "patch_embed_dim": ("model", "patch_embed_dim", int),
    "patch_hidden_dim": ("model", "patch_hidden_dim", int),
    "spectrum_channels": ("model", "spectrum_channels", _parse_int_tuple),
    "spectrum_kernels": ("model", "spectrum_kernels", _parse_int_tuple),
    "spectrum_strides": ("model", "spectrum_strides", _parse_int_tuple),
    "spectrum_linear_width": ("model", "spectrum_linear_width", int),
    "spectrum_linear_count": ("model", "spectrum_linear_count", int),
    "se_reduction": ("model", "se_reduction", int),
    "subclusters": ("model", "subclusters", int),
    "seed": ("model", "seed", int),
    "lr": ("train", "lr", float),
    "batch_size": ("train", "batch_size", int),
    "epochs": ("train", "epochs", int),
    "mixup_alpha": ("train", "mixup_alpha", float),
    "smooth_max": ("train", "smooth_max", float),
    "mixup_prob": ("train", "mixup_prob", float),
    "prototypes": ("scoring", "prototypes", int),
    "scoring_mode": ("scoring", "scoring_mode", str),
    "aggregate": ("scoring", "aggregate", str),
    "synth_classes": ("synth", "classes", int),
    "synth_train_clips": ("synth", "train_clips", int),
    "synth_test_normal": ("synth", "test_normal", int),
    "synth_test_anomaly": ("synth", "test_anomaly", int),
    "synth_base_freqs": ("synth", "base_freqs", _parse_float_tuple),
    "synth_anomaly": ("synth", "anomaly_kind", str),
    "synth_noise": ("synth", "noise_floor", float),
}


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """Apply (key, raw value) overrides on top of a RunConfig."""
    updates = {f.name: {} for f in fields(RunConfig)}
    for key, raw in pairs:
        if key not in KEY_TABLE:
            raise ConfigError(f"unknown config key {key!r}")
        section, attr, parser = KEY_TABLE[key]
        try:
            updates[section][attr] = parser(raw)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None
    return RunConfig(**{name: replace(getattr(cfg, name), **changes)
                        for name, changes in updates.items()})


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    pairs = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = stripped.partition("=")
        if key.strip() == "label_schema":   # retired; older checkpoint echoes carry it
            continue
        pairs.append((key.strip(), value.strip()))
    return apply_overrides(cfg, pairs)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None


def config_text(cfg: RunConfig) -> str:
    """Serialize a RunConfig to the flat key=value format, fixed key order."""
    lines = []
    for key, (section, attr, _) in KEY_TABLE.items():
        value = getattr(getattr(cfg, section), attr)
        if value is None:
            continue
        lines.append(f"{key}={_show(value)}")
    return "\n".join(lines) + "\n"


def micro_preset(seed: int = 0) -> RunConfig:
    """Desk-scale preset: 1 s @ 8 kHz clips, three small kernels, quartered
    channel widths. Used by the synthetic-corpus experiments and tests."""
    model = ModelConfig(
        sample_rate=8000,
        clip_seconds=1.0,
        stft_window=256,
        stft_hop=128,
        kernels=(KernelBox(16, 8), KernelBox(32, 8), KernelBox(32, 16)),
        f_step=16,
        t_step=32,
        stem_channels=4,
        stage_channels=(8, 16, 32, 64),
        patch_channels=(8, 16, 16),
        patch_embed_dim=64,
        patch_hidden_dim=256,
        spectrum_channels=(32, 32, 32),
        spectrum_kernels=(64, 32, 16),
        spectrum_strides=(16, 8, 2),
        spectrum_linear_width=32,
        spectrum_linear_count=3,
        subclusters=4,
        seed=seed,
    )
    train = TrainConfig(batch_size=16, epochs=40)
    scoring = ScoringConfig(prototypes=8, scoring_mode="per-type", aggregate="mean")
    return RunConfig(model=model, train=train, scoring=scoring)
