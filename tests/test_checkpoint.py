"""Binary container: round trips, byte stability, version handling."""

import re
import struct

import numpy as np
import pytest

from soundscan.checkpoint import MAGIC, load_container, save_container
from soundscan.errors import CheckpointError


def test_round_trip_preserves_arrays_and_echo(tmp_path, rng):
    arrays = {
        "param/a": rng.standard_normal((3, 4)),
        "param/b": rng.standard_normal(7),
        "meta/t": np.array([3.0]),
        "scalar": np.array(2.5),
    }
    path = tmp_path / "c.bin"
    save_container(path, arrays, "seed=5\nlr=0.001\n")
    loaded, echo = load_container(path)
    assert echo == "seed=5\nlr=0.001\n"
    assert set(loaded) == set(arrays)
    for name in arrays:
        np.testing.assert_array_equal(loaded[name], arrays[name])
        assert loaded[name].shape == np.asarray(arrays[name]).shape


def test_identical_state_identical_bytes(tmp_path, rng):
    arrays = {"x": rng.standard_normal(16), "y": rng.standard_normal((2, 2))}
    save_container(tmp_path / "a.bin", arrays, "echo")
    save_container(tmp_path / "b.bin", dict(reversed(list(arrays.items()))), "echo")
    assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def test_version_mismatch_rejected(tmp_path):
    path = tmp_path / "v.bin"
    save_container(path, {"x": np.ones(2)}, "")
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_container(path)


def test_wrong_magic_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(CheckpointError):
        load_container(path)


def test_truncated_container_rejected(tmp_path):
    path = tmp_path / "t.bin"
    save_container(path, {"x": np.ones(100)}, "")
    path.write_bytes(path.read_bytes()[:-50])
    with pytest.raises(CheckpointError):
        load_container(path)


def test_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_container(tmp_path / "absent.bin")


def test_failed_save_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "keep.bin"
    save_container(path, {"a": np.arange(4.0)}, "seed=1\n")
    before = path.read_bytes()
    # "a" is written first; the lone surrogate in "b\udcff" cannot be encoded,
    # so the write fails partway through the file
    with pytest.raises(UnicodeEncodeError):
        save_container(path, {"a": np.ones(4), "b\udcff": np.ones(2)}, "seed=2\n")
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin"]
    # a save that succeeds replaces the file and leaves nothing else either
    save_container(path, {"b": np.ones(2)}, "seed=3\n")
    assert load_container(path)[1] == "seed=3\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.bin"]


def _small_container(path):
    save_container(path, {"a": np.arange(3.0), "b": np.array(2.5), "c": np.ones((2, 1))},
                   "seed=1\n")
    return path.read_bytes()


def test_container_cut_at_any_byte_rejected(tmp_path):
    raw = _small_container(tmp_path / "full.bin")
    path = tmp_path / "cut.bin"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(CheckpointError):
            load_container(path)


def test_non_utf8_config_echo_rejected(tmp_path):
    path = tmp_path / "u.bin"
    raw = bytearray(_small_container(path))
    raw[12] = 0xFF  # first byte of the echo text
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="UTF-8"):
        load_container(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "j.bin"
    path.write_bytes(_small_container(path) + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_container(path)


def test_arrays_that_do_not_fit_the_model_are_checkpoint_errors(tmp_path, tiny_checkpoint):
    """A missing array, one of another shape and a buffer that would only
    broadcast each raise CheckpointError naming the array, not KeyError or
    ValueError, and never load silently."""
    from soundscan.network import load_model

    ckpt, _ = tiny_checkpoint
    arrays, echo = load_container(ckpt)
    param = next(k for k in sorted(arrays) if k.startswith("param/model."))
    buffer = next(k for k in sorted(arrays)
                  if k.startswith("buffer/model.") and arrays[k].size > 1)
    cases = [
        ({k: v for k, v in arrays.items() if k != param}, param),
        ({**arrays, param: np.zeros(arrays[param].shape + (1,))}, param),
        ({**arrays, buffer: np.zeros(1)}, buffer),
    ]
    path = tmp_path / "broken.ckpt"
    for broken, key in cases:
        save_container(path, broken, echo)
        model_key = key.replace("model.", "", 1)
        with pytest.raises(CheckpointError, match=re.escape(model_key)):
            load_model(path)


def test_checkpoint_echo_with_retired_label_schema_loads(tmp_path, tiny_corpus,
                                                         tiny_checkpoint, tiny_run_cfg):
    """Checkpoints written before `label_schema` was retired echo
    `label_schema=type_id` after `subclusters=`; they load and embed the same
    bytes as the same arrays without that line."""
    from soundscan.config import config_text
    from soundscan.network import load_model
    from soundscan.scoring import embed_rows

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    arrays, echo = load_container(ckpt)
    assert "label_schema" not in echo and "label_schema" not in config_text(tiny_run_cfg)
    old_echo = re.sub(r"(?m)^(subclusters=.*\n)", r"\1label_schema=type_id\n", echo)
    assert "\nlabel_schema=type_id\n" in old_echo
    embedded = []
    for name, text in (("old.ckpt", old_echo), ("new.ckpt", echo)):
        save_container(tmp_path / name, arrays, text)
        model, run_cfg = load_model(tmp_path / name)
        assert config_text(run_cfg) == echo
        embedded.append(embed_rows(model, rows[:4], 1).tobytes())
    assert embedded[0] == embedded[1]
