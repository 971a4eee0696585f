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
