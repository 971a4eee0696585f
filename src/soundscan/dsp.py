"""Audio front end: waveform loading and the two feature transforms.

`AudioClip` checks the samples read from a WAV file. The two transforms
take plain float arrays of waveforms, one per row of the last axis, so a
whole (B, n) batch goes through one call: (a) an STFT magnitude
spectrogram, (B, F, T), preserving time-frequency structure and (b) a
single magnitude spectrum of the whole signal at full frequency
resolution, (B, n//2 + 1). Both are raw magnitudes, no log compression or
Mel warping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import wavio
from .errors import DataError


@dataclass(frozen=True)
class AudioClip:
    """Mono waveform with its sample rate. Samples are dimensionless in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1 or self.samples.size == 0:
            raise DataError("AudioClip requires a non-empty 1-D sample array")
        if self.sample_rate <= 0:
            raise DataError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise DataError("AudioClip contains non-finite samples")

    def __len__(self):
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate


def load_wav(path) -> AudioClip:
    """Load a PCM WAV file as a normalized mono clip at its native rate.

    Multichannel audio is averaged down to mono. Raises
    wavio.WavNotFoundError (a FileNotFoundError), wavio.WavFormatError, or
    wavio.UnsupportedWavError respectively for a missing file, a broken RIFF
    container, or a non-PCM encoding, and DataError for any other read
    failure, such as a sample rate of 0 or a NaN in a float WAV; all of them
    are DataErrors, and all name the file.
    """
    samples, rate = wavio.read_wav(path)
    if samples.size == 0:
        raise DataError(f"{path}: empty data chunk")
    try:
        return AudioClip(samples.mean(axis=1), rate)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def fix_length(clip: AudioClip, target_seconds: float) -> AudioClip:
    """Repeat or truncate a clip to a fixed duration.

    Shorter clips are tiled whole (the final repeat truncated); longer
    clips keep their prefix. Idempotent for a fixed target.
    """
    if target_seconds <= 0:
        raise DataError(f"target_seconds must be positive, got {target_seconds}")
    target_len = int(np.rint(target_seconds * clip.sample_rate))
    n = len(clip)
    if target_len == n:
        return clip
    if target_len < n:
        return AudioClip(clip.samples[:target_len], clip.sample_rate)
    reps = -(-target_len // n)  # ceil
    return AudioClip(np.tile(clip.samples, reps)[:target_len], clip.sample_rate)


def hann_window(n: int) -> np.ndarray:
    """Periodic Hann window of length n."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_magnitude(samples: np.ndarray, window: int = 1024, hop: int = 512) -> np.ndarray:
    """Hann-windowed STFT magnitudes of the last axis, no padding.

    A (..., n) float array gives an (..., F, T) array with
    F = window/2 + 1 and T = 1 + floor((n - window)/hop); entries are
    unscaled DFT magnitudes of each windowed frame. Raises DataError when
    n is shorter than the window.
    """
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1]
    if n < window:
        raise DataError(f"clip length {n} shorter than window {window}")
    frames = 1 + (n - window) // hop
    idx = np.arange(window)[None, :] + hop * np.arange(frames)[:, None]
    # take, not x[..., idx], keeps the frames C-ordered, so the result is a
    # view of C-ordered (..., T, F) magnitudes: the layout the model computes in
    segments = np.take(x, idx, axis=-1) * hann_window(window)    # (..., T, window)
    mags = np.abs(np.fft.rfft(segments, axis=-1))                # (..., T, F)
    return np.swapaxes(mags, -1, -2)


def utterance_spectrum(samples: np.ndarray) -> np.ndarray:
    """Magnitude spectrum of the whole signal along the last axis, scaled by 1/n.

    A (..., n) float array gives (..., n//2 + 1) bins. No windowing; the
    1/n scaling keeps magnitudes comparable across clip lengths.
    """
    x = np.asarray(samples, dtype=np.float64)
    return np.abs(np.fft.rfft(x, axis=-1)) / x.shape[-1]
