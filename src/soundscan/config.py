"""Run configuration: model, training, synthesis, and scoring settings.

One flat key=value text format (``#`` comments, blank lines ignored) feeds
every entry point; unknown keys are rejected. The same text is echoed into
checkpoints so a model can be rebuilt from its checkpoint alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .metrics import AGGREGATE_KINDS, GROUPINGS
from .scanning import KernelBox, default_kernel_set, plan_from_counts, plan_from_steps


# Each field of a section dataclass below is one config key. Its annotation
# picks the key's parser (`_PARSERS`); its metadata may give the key's `name`
# (default: the field name), its allowed `choices`, and the `floor` of an
# integer value or of every entry of an integer tuple (default 1).

@dataclass
class ModelConfig:
    """Architecture and feature-extraction settings."""

    sample_rate: int = 16000
    clip_seconds: float = 10.0
    stft_window: int = field(default=1024, metadata={"floor": 2})
    stft_hop: int = 512
    kernels: tuple[KernelBox, ...] = field(
        default_factory=lambda: tuple(default_kernel_set()))
    scan_mode: str = field(default="steps", metadata={"choices": ("steps", "counts")})
    f_step: int = 8
    t_step: int = 32
    n_f: int = 16
    n_t: int = 8
    stem_channels: int = 16
    stage_channels: tuple[int, ...] = (32, 64, 128, 256)
    patch_channels: tuple[int, ...] = (32, 64, 64)
    patch_embed_dim: int = 256
    patch_hidden_dim: int = 1024
    spectrum_channels: tuple[int, ...] = (128, 128, 128)
    spectrum_kernels: tuple[int, ...] = (256, 64, 32)
    spectrum_strides: tuple[int, ...] = (64, 32, 4)
    spectrum_linear_width: int = 128
    spectrum_linear_count: int = 5
    se_reduction: int = 8
    subclusters: int = 16
    seed: int | None = field(default=None, metadata={"floor": 0})

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
        _check_values(self)
        if self.clip_seconds <= 0:
            raise ConfigError("clip_seconds must be positive")
        if self.clip_samples < self.stft_window:
            raise ConfigError("clip shorter than the STFT window")
        if not self.kernels:
            raise ConfigError("kernel list is empty")
        if not self.stage_channels:
            raise ConfigError("stage_channels is empty")
        if len(self.patch_channels) != 3:
            raise ConfigError(f"patch_channels needs 3 entries, got {len(self.patch_channels)}")
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
        _check_values(self)
        if self.lr < 0:
            raise ConfigError("lr must be non-negative")
        if self.mixup_alpha <= 0:
            raise ConfigError("mixup_alpha must be positive")
        if not 0 <= self.smooth_max < 1:
            raise ConfigError("smooth_max must lie in [0, 1)")
        if not 0 <= self.mixup_prob <= 1:
            raise ConfigError("mixup_prob must lie in [0, 1]")


@dataclass
class ScoringConfig:
    prototypes: int = 16
    scoring_mode: str = field(default="per-id", metadata={"choices": GROUPINGS})
    aggregate: str = field(default="mean", metadata={"choices": AGGREGATE_KINDS})

    def validate(self) -> None:
        _check_values(self)


@dataclass
class SynthSettings:
    classes: int = 4
    train_clips: int = 30
    test_normal: int = field(default=10, metadata={"floor": 0})
    test_anomaly: int = field(default=10, metadata={"floor": 0})
    base_freqs: tuple[float, ...] = (400.0, 550.0, 700.0, 850.0)
    anomaly_kind: str = field(default="detune", metadata={
        "name": "anomaly", "choices": ("detune", "transient", "band-noise")})
    noise_floor: float = field(default=0.01, metadata={"name": "noise"})

    def validate(self) -> None:
        _check_values(self)
        if len(self.base_freqs) < self.classes:
            raise ConfigError("need one base frequency per synth class")


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    scoring: ScoringConfig = field(default_factory=ScoringConfig)
    # the synth keys carry this prefix: `synth_classes`, `synth_anomaly`, ...
    synth: SynthSettings = field(default_factory=SynthSettings,
                                 metadata={"prefix": "synth_"})

    def validate(self, require_seed: bool = False) -> None:
        for section in fields(self):
            getattr(self, section.name).validate()
        if require_seed and self.model.seed is None:
            raise ConfigError("a seed is required: set `seed=` in the config "
                              "or pass --set seed=N")


# -- flat key=value codec -----------------------------------------------------

def _tuple_of(parse):
    """Parser of a comma-separated list: an empty value is the empty tuple,
    an empty entry between or after commas is an error."""
    def parse_list(s):
        entries = s.split(",") if s else []
        if "" in entries:
            raise ValueError("empty list entry")
        return tuple(parse(v) for v in entries)
    return parse_list


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
        return ",".join(repr(v) if isinstance(v, float) else str(v) for v in value)
    return str(value)


_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "str": str,
    "tuple[int, ...]": _tuple_of(int),
    "tuple[float, ...]": _tuple_of(float),
    "tuple[KernelBox, ...]": _parse_kernels,
}


def _section_keys(section):
    """(config key, field) for each field of the dataclass behind `section`,
    a field of RunConfig, in field order."""
    prefix = section.metadata.get("prefix", "")
    return [(prefix + f.metadata.get("name", f.name), f)
            for f in fields(section.default_factory)]


# config-file key -> (section, dataclass field, parser), in field order
KEY_TABLE = {key: (section.name, f.name, _PARSERS[f.type])
             for section in fields(RunConfig) for key, f in _section_keys(section)}


def _check_values(settings) -> None:
    """Raise ConfigError for a config key of `settings`, one RunConfig
    section, whose value lies outside its choices, below its integer floor,
    or, for a float or a float list entry, is not finite. Fields that a
    subclass adds are not keys and are not checked."""
    section = next(s for s in fields(RunConfig) if isinstance(settings, s.default_factory))
    for key, f in _section_keys(section):
        value = getattr(settings, f.name)
        choices = f.metadata.get("choices")
        if choices is not None and value not in choices:
            raise ConfigError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
        entries = value if isinstance(value, tuple) else (value,)
        what = f"every {key} entry" if isinstance(value, tuple) else key
        if f.type.startswith(("int", "tuple[int,")) and value is not None:
            floor = f.metadata.get("floor", 1)
            if any(v < floor for v in entries):
                raise ConfigError(f"{what} must be >= {floor}, got {_show(value)}")
        if f.type.startswith(("float", "tuple[float,")) and not all(map(math.isfinite, entries)):
            raise ConfigError(f"{what} must be finite, got {_show(value)}")


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
        pairs.append((key.strip(), value.strip()))
    return apply_overrides(cfg, pairs)


def parse_echo_text(echo: str) -> RunConfig:
    """Parse and validate the config echo that an artifact carries.

    Echoes written before `label_schema` was retired carry a
    `label_schema=` line; it is blanked here, and only here, so that a
    config file or `--set` naming the key is still an unknown key.
    """
    lines = ["" if line.split("#", 1)[0].partition("=")[0].strip() == "label_schema"
             else line for line in echo.splitlines()]
    cfg = parse_config_text("\n".join(lines))
    cfg.validate()
    return cfg


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
