"""Binary container for checkpoints, prototype stores, and embeddings,
`atomic_write`, which writes every artifact but the synthetic WAVs, and
`check_outputs`, which commands call on those paths before their work.

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
import os
import struct
import sys

import numpy as np

from .errors import CheckpointError, DataError

MAGIC = b"SSCX"
VERSION = 1
MAX_NDIM = 64   # numpy's limit on array dimensions


def check_outputs(outputs, inputs=()) -> None:
    """DataError naming the first output path that cannot be written (its
    directory is missing, or it is a directory) or that names the same file,
    by `os.path.realpath`, as an input or an earlier output, with both
    options. `outputs` and `inputs` are (option, path) pairs; None paths are
    skipped. Commands call it before their work, so that a bad output path
    costs no run and overwrites nothing."""
    named = {os.path.realpath(path): option for option, path in inputs if path is not None}
    for option, path in outputs:
        if path is None:
            continue
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise DataError(f"cannot write {path}: no such directory")
        real = os.path.realpath(path)
        if real in named:
            raise DataError(f"cannot write {path}: {option} names the same file as {named[real]}")
        named[real] = option


@contextlib.contextmanager
def atomic_write(path, binary: bool = False):
    """Open a new temp file in `path`'s directory for writing (UTF-8 text, or
    bytes), and rename it onto `path` when the block ends. A write that fails
    partway leaves the old file as it was and no temp file behind. A temp
    file that cannot be created (a missing or read-only directory), or that
    cannot be renamed onto `path` (an existing directory), is a DataError
    naming `path`."""
    path = os.fspath(path)
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    try:
        # exclusive create: never write through a file another writer made
        fh = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror or exc}") from None
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

    Each array is read straight from the file into its own float64 array, so
    the load holds the arrays and no second copy of the file.

    Raises CheckpointError for a missing file, a foreign or other-version
    header, and a container that is cut short, carries bytes past its last
    array, holds text that is not UTF-8, gives an array more than 64
    dimensions, or holds a NaN or an infinity in an array.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    with fh:
        file_size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if file_size < 12 or head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a soundscan container")
        (version,) = struct.unpack_from("<I", head, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: container version {version}, expected {VERSION}")
        pos = 8

        def take(size: int, into=None):
            """The file's next `size` bytes, read into `into` when given."""
            nonlocal pos
            if pos + size > file_size:
                raise CheckpointError(f"{path}: truncated container ({size} bytes wanted "
                                      f"at offset {pos}, {file_size} in the file)")
            buf = bytearray(size) if into is None else into
            if size and fh.readinto(buf) != size:    # the file shrank meanwhile
                raise CheckpointError(f"{path}: truncated container")
            pos += size
            return buf

        def number(fmt: str):
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        def text(size: int, what: str) -> str:
            try:
                return take(size).decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: {what} is not UTF-8 text") from None

        (echo_len,) = number("<I")
        echo = text(echo_len, "config echo")
        (count,) = number("<I")

        arrays = {}
        for _ in range(count):
            (name_len,) = number("<H")
            name = text(name_len, "array name")
            (ndim,) = number("<B")
            if ndim > MAX_NDIM:
                raise CheckpointError(f"{path}: array {name!r} has {ndim} dimensions, "
                                      f"more than numpy's {MAX_NDIM}")
            shape = number(f"<{ndim}I")
            # bound the element count as it is multiplied out: by the values
            # left, or for an empty array, whose other dimensions numpy still
            # multiplies out, by numpy's byte limit
            empty = 0 in shape
            limit = sys.maxsize // 8 if empty else (file_size - pos) // 8
            size = 1
            for dim in filter(None, shape):
                size *= dim
                if size > limit:
                    raise CheckpointError(
                        f"{path}: array {name!r} is larger than numpy allows" if empty else
                        f"{path}: truncated container (array {name!r} holds more than the "
                        f"{limit} values left)")
            data = take(0 if empty else 8 * size, np.empty(shape, dtype="<f8"))
            if not np.isfinite(data).all():
                raise CheckpointError(f"{path}: array {name!r} holds NaN or infinity")
            arrays[name] = data.astype(np.float64, copy=False)
        if pos != file_size:
            raise CheckpointError(f"{path}: {file_size - pos} trailing bytes after the "
                                  f"last array")
    return arrays, echo
