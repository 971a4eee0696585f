"""Config parsing: flat key=value codec, overrides, validation."""

import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from soundscan.cli import main
from soundscan.config import (KEY_TABLE, ModelConfig, RunConfig, apply_overrides,
                              config_text, load_config, micro_preset,
                              parse_config_text, parse_echo_text)
from soundscan.data import SynthConfig
from soundscan.errors import ConfigError
from soundscan.network import MultiScaleNet
from soundscan.scanning import KernelBox


def _key_fields():
    """(config key, RunConfig section, dataclass field) for every key of the
    key table."""
    defaults = RunConfig()
    for key, (section, attr, _) in KEY_TABLE.items():
        yield key, section, next(f for f in fields(getattr(defaults, section))
                                 if f.name == attr)


INT_KEYS = [(key, section, f) for key, section, f in _key_fields()
            if f.type in ("int", "int | None", "tuple[int, ...]")]
NUMERIC_KEYS = [key for key, _, f in _key_fields() if f.type != "str"]
FLOAT_KEYS = [(key, section, f) for key, section, f in _key_fields()
              if f.type in ("float", "tuple[float, ...]")]


def test_defaults_mirror_training_recipe():
    cfg = RunConfig()
    assert cfg.train.lr == 0.001
    assert cfg.train.batch_size == 64
    assert cfg.train.epochs == 100
    assert cfg.train.mixup_alpha == 0.2
    assert cfg.train.smooth_max == 0.5
    assert cfg.model.sample_rate == 16000
    assert cfg.model.stft_window == 1024 and cfg.model.stft_hop == 512
    assert len(cfg.model.kernels) == 12


def test_parse_round_trip():
    cfg = micro_preset(seed=9)
    text = config_text(cfg)
    again = parse_config_text(text)
    assert config_text(again) == text
    assert again.model == cfg.model
    assert again.train == cfg.train


def test_parse_comments_and_blanks():
    cfg = parse_config_text("# a comment\n\nseed=4  # trailing\nepochs=2\n")
    assert cfg.model.seed == 4
    assert cfg.train.epochs == 2


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config_text("learning_rate=0.1\n")


def test_bad_value_rejected():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("epochs=three\n")


def test_bad_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("this is not a key value pair\n")


def test_kernel_list_parsing():
    cfg = parse_config_text("kernels=16x8,32x16\n")
    assert cfg.model.kernels == (KernelBox(16, 8), KernelBox(32, 16))
    assert parse_config_text("kernels=default\n").model.kernels == ModelConfig().kernels
    with pytest.raises(ConfigError, match="kernel"):
        parse_config_text("kernels=16by8\n")


def test_overrides_apply_on_top():
    cfg = micro_preset(seed=0)
    out = apply_overrides(cfg, [("epochs", "7"), ("lr", "0.01")])
    assert out.train.epochs == 7 and out.train.lr == 0.01
    assert out.model == cfg.model


def test_require_seed():
    cfg = RunConfig()
    cfg.validate(require_seed=False)
    with pytest.raises(ConfigError, match="seed"):
        cfg.validate(require_seed=True)


def test_model_validation_catches_conflicts():
    with pytest.raises(ConfigError):
        ModelConfig(clip_seconds=0.01).validate()  # shorter than the window
    with pytest.raises(ConfigError):
        ModelConfig(scan_mode="diagonal").validate()
    with pytest.raises(ConfigError):
        ModelConfig(spectrum_kernels=(256, 64)).validate()  # list length mismatch
    with pytest.raises(ConfigError, match="stage_channels is empty"):
        ModelConfig(stage_channels=()).validate()
    with pytest.raises(ConfigError, match="patch_channels needs 3 entries, got 2"):
        ModelConfig(patch_channels=(8, 16)).validate()


def _away_from_default(f, value):
    """A value of field `f` that differs from `value`, its default."""
    if "choices" in f.metadata:
        return next(c for c in f.metadata["choices"] if c != value)
    if f.type in ("int", "int | None"):
        return (value or 0) + 3
    if f.type == "float":
        return value + 0.375
    if f.type == "tuple[int, ...]":
        return value + (5,)
    if f.type == "tuple[float, ...]":
        return value + (1234.5,)
    if f.type == "tuple[KernelBox, ...]":
        return (KernelBox(3, 5), KernelBox(7, 2))
    if f.type == "str":
        return value + "x"
    raise AssertionError(f"no test value for a {f.type} key")


def test_every_key_round_trips_away_from_its_default():
    cfg, defaults = RunConfig(), RunConfig()
    for _, section, f in _key_fields():
        setattr(getattr(cfg, section), f.name,
                _away_from_default(f, getattr(getattr(defaults, section), f.name)))
    for section in fields(RunConfig):
        for f in fields(getattr(cfg, section.name)):
            assert (getattr(getattr(cfg, section.name), f.name)
                    != getattr(getattr(defaults, section.name), f.name)), f.name
    text = config_text(cfg)
    assert [line.partition("=")[0] for line in text.splitlines()] == list(KEY_TABLE)
    again = parse_config_text(text)
    assert again == cfg
    assert config_text(again) == text


def test_key_floors_name_the_key():
    with pytest.raises(ConfigError, match="^stem_channels must be >= 1, got 0$"):
        ModelConfig(stem_channels=0).validate()
    with pytest.raises(ConfigError, match="^every spectrum_strides entry must be >= 1, "
                                          "got 16,0,2$"):
        ModelConfig(spectrum_strides=(16, 0, 2)).validate()
    with pytest.raises(ConfigError, match="^stft_window must be >= 2, got 1$"):
        ModelConfig(stft_window=1).validate()
    with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
        ModelConfig(seed=-1).validate()
    ModelConfig(seed=0).validate()
    ModelConfig(seed=None).validate()
    with pytest.raises(ConfigError, match="^synth_test_normal must be >= 0, got -1$"):
        parse_config_text("synth_test_normal=-1\n").validate()
    parse_config_text("synth_test_normal=0\nsynth_test_anomaly=0\n").validate()


def test_model_build_enforces_the_floors_on_its_own():
    """The network validates the model settings it is given, without a run
    config around them."""
    micro = micro_preset(seed=0).model
    for change in ({"f_step": 0}, {"t_step": 0}, {"spectrum_linear_count": 0},
                   {"stem_channels": 0}, {"stage_channels": ()}):
        with pytest.raises(ConfigError):
            MultiScaleNet(replace(micro, **change))


def test_synth_config_keeps_its_own_seed_field():
    """SynthConfig adds a seed of its own, which is no config key and takes 0."""
    SynthConfig(seed=0).validate()
    with pytest.raises(ConfigError, match="synth_classes"):
        SynthConfig(classes=0, seed=0).validate()


@pytest.mark.parametrize("key", [k for k, _, f in _key_fields() if "choices" in f.metadata])
def test_a_value_outside_the_choices_names_the_key(key):
    with pytest.raises(ConfigError, match=f"^{key} must be one of "):
        parse_config_text(f"{key}=diagonal\n").validate()


@pytest.fixture(scope="module")
def micro_cli_config(tmp_path_factory):
    """A micro config file for one-epoch CLI runs on the tiny corpus."""
    cfg = micro_preset(seed=7)
    cfg.train.epochs = 1
    cfg.train.batch_size = 8
    path = tmp_path_factory.mktemp("cfg") / "micro.cfg"
    path.write_text(config_text(cfg))
    return str(path)


def _cli(capsys, tmp_path, manifest, cfg_path, command, key, value):
    outputs = {"train": ["--manifest", manifest,
                         "--out-checkpoint", str(tmp_path / "m.ckpt")],
               "synth": ["--out", str(tmp_path / "corpus")]}
    code = main([command, "--config", cfg_path, "--set", f"{key}={value}",
                 *outputs[command]])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("key,section,f", INT_KEYS, ids=[key for key, _, _ in INT_KEYS])
def test_a_value_below_the_floor_is_exit_2(capsys, tmp_path, tiny_corpus,
                                           micro_cli_config, command, key, section, f):
    """One value below each integer key's floor, through the CLI, is a config
    error naming the key: never a runtime error, never a silent run."""
    _, root = tiny_corpus
    default = getattr(getattr(micro_preset(), section), f.name)
    floor = f.metadata.get("floor", 1)
    if isinstance(default, tuple):
        value = ",".join(map(str, (floor - 1,) + default[1:]))
    else:
        value = str(floor - 1)
    code, err = _cli(capsys, tmp_path, str(root / "manifest.csv"), micro_cli_config,
                     command, key, value)
    assert code == 2, err
    assert re.search(rf"config: (every )?{key}( entry)? must be >= {floor}, got ", err), err


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_a_non_number_is_exit_2(capsys, tmp_path, tiny_corpus, micro_cli_config,
                                command, key):
    _, root = tiny_corpus
    code, err = _cli(capsys, tmp_path, str(root / "manifest.csv"), micro_cli_config,
                     command, key, "seven")
    assert code == 2, err
    assert "error: config:" in err


@pytest.mark.parametrize("command", ["train", "synth"])
@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("key,section,f", FLOAT_KEYS, ids=[key for key, _, _ in FLOAT_KEYS])
def test_a_non_finite_float_is_exit_2(capsys, tmp_path, tiny_corpus, micro_cli_config,
                                      command, value, key, section, f):
    """A float key, or the first entry of a float list, that is not finite is
    a config error naming the key: never a runtime error, never a silent run."""
    _, root = tiny_corpus
    default = getattr(getattr(micro_preset(), section), f.name)
    if isinstance(default, tuple):
        value = ",".join([value, *map(repr, default[1:])])
    code, err = _cli(capsys, tmp_path, str(root / "manifest.csv"), micro_cli_config,
                     command, key, value)
    assert code == 2, err
    assert re.search(rf"config: (every )?{key}( entry)? must be finite, got ", err), err
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "corpus").exists()


@pytest.mark.parametrize("key,value", [("stage_channels", "8,,16"),
                                       ("spectrum_strides", "16,8,"),
                                       ("synth_base_freqs", ",400.0,700.0")])
def test_an_empty_list_entry_is_exit_2(capsys, tmp_path, tiny_corpus, micro_cli_config,
                                       key, value):
    """An empty entry between, after or before commas is a config error
    naming the key, not a silently shorter list."""
    _, root = tiny_corpus
    code, err = _cli(capsys, tmp_path, str(root / "manifest.csv"), micro_cli_config,
                     "train", key, value)
    assert code == 2, err
    assert f"config: bad value for {key!r}" in err and "empty list entry" in err, err
    assert not (tmp_path / "m.ckpt").exists()


def test_echo_parsing_validates_the_config():
    assert parse_echo_text("label_schema=x\nlr=0.5\n").train.lr == 0.5
    with pytest.raises(ConfigError, match="^lr must be finite, got nan$"):
        parse_echo_text("lr=nan\n")
    with pytest.raises(ConfigError, match="^scoring_mode must be one of "):
        parse_echo_text("scoring_mode=diagonal\n")


def test_an_empty_list_value_is_the_empty_tuple():
    cfg = parse_config_text("stage_channels=\n")
    assert cfg.model.stage_channels == ()
    with pytest.raises(ConfigError, match="stage_channels is empty"):
        cfg.validate()


def test_readme_config_block_parses():
    """The config block of README's "Config files" section uses live keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config files", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.S | re.M).group(1)
    cfg = parse_config_text(block)
    cfg.validate(require_seed=True)
    assert len(block.splitlines()) >= 20


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/config.cfg")
