"""Binary container for checkpoints, prototype stores, and embeddings, and
`atomic_write`, which writes every artifact but the synthetic WAVs.

Layout (all integers little-endian):

    magic   4 bytes  b"SSCX"
    version u32
    config  u32 length + utf-8 text (the flat key=value config echo)
    count   u32 number of arrays
    entry   u16 name length + utf-8 name
            u8 ndim, then u32 per dimension
            float64 data, C order

Writing sorts entries by name, so identical state always produces
identical bytes.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct

import numpy as np

from .errors import CheckpointError

MAGIC = b"SSCX"
VERSION = 1


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new temp file in `path`'s directory for writing (UTF-8 text, or
    bytes), and rename it onto `path` when the block ends. A write that fails
    partway leaves the old file as it was and no temp file behind."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # exclusive create: never write through a file another writer made
        with (open(tmp, "xb") if binary
              else open(tmp, "x", encoding="utf-8", newline="")) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except FileNotFoundError:
            pass
        raise


def save_container(path, arrays: dict, config_echo: str = "") -> None:
    """Write the container atomically (see `atomic_write`)."""
    echo = config_echo.encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(echo)))
        fh.write(echo)
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.asarray(arrays[name], dtype="<f8", order="C")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(arr.tobytes())


def load_container(path):
    """Returns (arrays: dict[str, ndarray], config_echo: str).

    Raises CheckpointError for a missing file, a foreign or other-version
    header, and a container that is cut short, carries bytes past its last
    array, or holds text that is not UTF-8.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None

    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a soundscan container")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != VERSION:
        raise CheckpointError(f"{path}: container version {version}, expected {VERSION}")

    view = memoryview(raw)      # slices without copying the array data
    pos = 8

    def take(size: int) -> memoryview:
        nonlocal pos
        if pos + size > len(raw):
            raise CheckpointError(f"{path}: truncated container ({size} bytes wanted "
                                  f"at offset {pos}, {len(raw)} in the file)")
        pos += size
        return view[pos - size:pos]

    def text(size: int, what: str) -> str:
        try:
            return str(take(size), "utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: {what} is not UTF-8 text") from None

    (echo_len,) = struct.unpack("<I", take(4))
    echo = text(echo_len, "config echo")
    (count,) = struct.unpack("<I", take(4))

    arrays = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = text(name_len, "array name")
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        size = math.prod(shape)
        data = np.frombuffer(take(8 * size), dtype="<f8")
        arrays[name] = data.reshape(shape).astype(np.float64)
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes after the "
                              f"last array")
    return arrays, echo
