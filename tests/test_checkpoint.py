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


def test_skipped_arrays_are_size_checked_but_not_read(tmp_path):
    """Arrays that `keep` rejects are sought past: a cut anywhere and a
    trailing byte are still rejected, a NaN in a skipped array is not seen,
    and one in a kept array is."""
    raw = _small_container(tmp_path / "full.bin")
    keep_b = {"keep": lambda name: name == "b"}
    arrays, echo = load_container(tmp_path / "full.bin", **keep_b)
    assert list(arrays) == ["b"] and arrays["b"] == 2.5 and echo == "seed=1\n"
    path = tmp_path / "cut.bin"
    for size in range(len(raw)):
        path.write_bytes(raw[:size])
        with pytest.raises(CheckpointError):
            load_container(path, **keep_b)
    path.write_bytes(raw + b"\x00")
    with pytest.raises(CheckpointError, match="trailing"):
        load_container(path, **keep_b)
    save_container(path, {"a": np.array([np.nan]), "b": np.array(1.0)})
    assert list(load_container(path, **keep_b)[0]) == ["b"]
    with pytest.raises(CheckpointError, match="'a' holds NaN or infinity"):
        load_container(path, keep=lambda name: name == "a")


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


def _one_array_container(path, ndim_byte: int, dims, data: bytes = b""):
    """A container holding one array "x" with the given ndim byte and dims."""
    raw = (MAGIC + struct.pack("<I", 1) + struct.pack("<I", 0) + struct.pack("<I", 1)
           + struct.pack("<H", 1) + b"x" + struct.pack("<B", ndim_byte)
           + b"".join(struct.pack("<I", d) for d in dims) + data)
    path.write_bytes(raw)
    return path


def test_more_than_64_dimensions_rejected(tmp_path):
    """A flipped ndim byte, or 65 dimensions one of them 0, is a bad file with
    a short message, not a numpy ValueError."""
    path = _one_array_container(tmp_path / "d.bin", 65, [1] * 64 + [0])
    with pytest.raises(CheckpointError, match="65 dimensions, more than numpy's 64"):
        load_container(path)
    raw = bytearray(_small_container(tmp_path / "s.bin"))
    ndim_at = 12 + len("seed=1\n") + 4 + 2 + 1     # first array "a", 1-D
    assert raw[ndim_at] == 1
    raw[ndim_at] = 0xC1
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="193 dimensions") as info:
        load_container(path)
    assert len(str(info.value)) < 200


def test_shape_beyond_the_bytes_left_rejected_before_it_is_multiplied(tmp_path):
    path = _one_array_container(tmp_path / "big.bin", 64, [2**32 - 1] * 64, bytes(16))
    with pytest.raises(CheckpointError, match="truncated") as info:
        load_container(path)
    assert "holds more than the 2 values left" in str(info.value)
    assert len(str(info.value)) < 200


def test_every_bit_flip_of_a_small_container_loads_or_is_a_checkpoint_error(tmp_path):
    raw = _small_container(tmp_path / "full.bin")
    path = tmp_path / "flip.bin"
    for i in range(len(raw)):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            path.write_bytes(bytes(flipped))
            try:
                load_container(path)
            except CheckpointError:
                pass


def test_empty_and_64_dimension_arrays_round_trip(tmp_path):
    arrays = {"a": np.zeros((3, 0)), "b": np.ones((1,) * 64), "c": np.zeros(0)}
    save_container(tmp_path / "e.bin", arrays, "")
    loaded, _ = load_container(tmp_path / "e.bin")
    for name, value in arrays.items():
        assert loaded[name].shape == value.shape
    # numpy still multiplies out the other dimensions of an empty array, up
    # to (2**63 - 1) // 8 = (2**30 - 1) * (2**30 + 1)
    path = _one_array_container(tmp_path / "z.bin", 3, [2**30 - 1, 0, 2**30 + 1])
    assert load_container(path)[0]["x"].shape == (2**30 - 1, 0, 2**30 + 1)
    _one_array_container(path, 3, [2**30 - 1, 0, 2**30 + 2])
    with pytest.raises(CheckpointError, match="larger than numpy allows"):
        load_container(path)


@pytest.mark.parametrize("line", ["scan_mode=rteps", "stem_channels=0",
                                  "scoring_mode=per-clip", "aggregate=median",
                                  "synth_anomaly=hum"])
def test_echo_that_cannot_build_the_model_is_a_checkpoint_error(capsys, tmp_path,
                                                                tiny_corpus,
                                                                tiny_checkpoint, line):
    """An echo that parses but fails validation in any section, model,
    scoring or synth, is a bad file: `load_model` and `PrototypeStore.load`
    raise CheckpointError and the CLI exits 3, not 2 or 4."""
    from soundscan.cli import main
    from soundscan.network import load_model
    from soundscan.scoring import PrototypeSet, PrototypeStore

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    arrays, echo = load_container(ckpt)
    key = line.partition("=")[0]
    edited = re.sub(rf"(?m)^{key}=.*$", line, echo)
    assert edited != echo
    path = tmp_path / "edited.ckpt"
    save_container(path, arrays, edited)
    with pytest.raises(CheckpointError, match=key):
        load_model(path)
    store = PrototypeStore("per-type")
    store.add(PrototypeSet("fan", "source", np.eye(2, 6)))
    store.save(tmp_path / "store.bin", edited)
    with pytest.raises(CheckpointError, match=key):
        PrototypeStore.load(tmp_path / "store.bin")
    code = main(["embed", "--manifest", str(root / "manifest.csv"),
                 "--checkpoint", str(path), "--out", str(tmp_path / "e.bin")])
    err = capsys.readouterr().err
    assert code == 3, err
    assert "error: data" in err and str(path) in err
    assert not (tmp_path / "e.bin").exists()


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
        embedded.append(embed_rows(model, rows[:4]).tobytes())
    assert embedded[0] == embedded[1]


def test_load_peaks_under_one_and_a_quarter_file_sizes(tiny_checkpoint):
    """Each array is read into its own float64 array: the load holds no
    second copy of the file's bytes."""
    import os
    import tracemalloc

    path, _ = tiny_checkpoint
    tracemalloc.start()
    try:
        arrays, _ = load_container(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert sum(a.nbytes for a in arrays.values()) > 0.9 * size
    assert peak < 1.25 * size, (peak, size)
