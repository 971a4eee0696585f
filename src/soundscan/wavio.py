"""Minimal RIFF/WAVE reader and writer.

Reads PCM WAV files (8/16/24/32-bit integer and 32-bit float) without
external dependencies; writes 16-bit PCM. Integer samples are scaled to
[-1, 1) by the format's full-scale value, 8-bit files are unsigned per
the WAV convention.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import DataError

FORMAT_PCM = 1
FORMAT_IEEE_FLOAT = 3


class WavFormatError(DataError):
    """File is not a well-formed RIFF/WAVE container."""


class UnsupportedWavError(DataError):
    """Well-formed WAV, but an encoding this reader does not handle."""


class WavNotFoundError(DataError, FileNotFoundError):
    """The WAV file does not exist; also a FileNotFoundError."""


def read_wav(path):
    """Read a WAV file.

    Returns
    -------
    samples : (n, channels) float64 array in [-1, 1]
    sample_rate : int
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError:
        raise WavNotFoundError(f"{path}: no such WAV file") from None
    except OSError as exc:
        raise DataError(f"{path}: cannot read WAV file: {exc.strerror or exc}") from None
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos:pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + size]
        if cid in (b"fmt ", b"data") and len(body) < size:
            raise WavFormatError(f"{path}: {cid.decode().strip()} chunk claims {size} "
                                 f"bytes, file holds {len(body)}")
        if cid == b"fmt ":
            if size < 16:
                raise WavFormatError(f"{path}: fmt chunk too short")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise WavFormatError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _, _, bits = fmt
    if channels < 1:
        raise WavFormatError(f"{path}: channel count {channels}")

    if audio_format == FORMAT_PCM:
        if bits == 8:
            x = (raw_to_array(data, np.uint8).astype(np.float64) - 128.0) / 128.0
        elif bits == 16:
            x = raw_to_array(data, np.dtype("<i2")).astype(np.float64) / 32768.0
        elif bits == 24:
            x = _decode_int24(data) / float(2 ** 23)
        elif bits == 32:
            x = raw_to_array(data, np.dtype("<i4")).astype(np.float64) / float(2 ** 31)
        else:
            raise UnsupportedWavError(f"{path}: {bits}-bit PCM not supported")
    elif audio_format == FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedWavError(f"{path}: {bits}-bit float not supported")
        x = raw_to_array(data, np.dtype("<f4")).astype(np.float64)
    else:
        raise UnsupportedWavError(f"{path}: audio format tag {audio_format} (non-PCM)")

    usable = (x.size // channels) * channels
    return x[:usable].reshape(-1, channels), int(sample_rate)


def raw_to_array(data: bytes, dtype) -> np.ndarray:
    count = len(data) // np.dtype(dtype).itemsize
    return np.frombuffer(data[:count * np.dtype(dtype).itemsize], dtype=dtype)


def _decode_int24(data: bytes) -> np.ndarray:
    b = np.frombuffer(data[:(len(data) // 3) * 3], dtype=np.uint8).reshape(-1, 3)
    value = (b[:, 0].astype(np.int32)
             | (b[:, 1].astype(np.int32) << 8)
             | (b[:, 2].astype(np.int32) << 16))
    value[value >= 2 ** 23] -= 2 ** 24  # sign extension
    return value.astype(np.float64)


def write_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Write mono or multichannel samples as 16-bit PCM."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    pcm = np.clip(np.rint(x * 32767.0), -32768, 32767).astype("<i2")
    data = pcm.tobytes()
    channels = x.shape[1]
    byte_rate = sample_rate * channels * 2
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, FORMAT_PCM, channels, sample_rate, byte_rate, channels * 2, 16,
        b"data", len(data),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data)
