"""Audio front end: waveform loading and the two feature paths.

A clip is converted into (a) an STFT magnitude spectrogram preserving
time-frequency structure and (b) a single magnitude spectrum of the whole
signal at full frequency resolution. Both are raw magnitudes, no log
compression or Mel warping.
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


@dataclass(frozen=True)
class Spectrogram:
    """F x T matrix of non-negative STFT magnitudes."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 2:
            raise DataError("Spectrogram requires a 2-D array")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DataError("Spectrogram magnitudes must be finite and non-negative")

    @property
    def freq_bins(self) -> int:
        return self.values.shape[0]

    @property
    def frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Spectrum:
    """Length-F' vector of non-negative whole-signal DFT magnitudes."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.values.ndim != 1 or self.values.size == 0:
            raise DataError("Spectrum requires a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DataError("Spectrum magnitudes must be finite and non-negative")

    @property
    def bins(self) -> int:
        return self.values.size


def load_wav(path) -> AudioClip:
    """Load a PCM WAV file as a normalized mono clip at its native rate.

    Multichannel audio is averaged down to mono. Raises
    wavio.WavNotFoundError (a FileNotFoundError), wavio.WavFormatError, or
    wavio.UnsupportedWavError respectively for a missing file, a broken RIFF
    container, or a non-PCM encoding, and DataError for any other read
    failure; all of them are DataErrors.
    """
    samples, rate = wavio.read_wav(path)
    if samples.size == 0:
        raise DataError(f"{path}: empty data chunk")
    mono = samples.mean(axis=1)
    return AudioClip(mono, rate)


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


def stft_magnitude(clip: AudioClip, window: int = 1024, hop: int = 512) -> Spectrogram:
    """Hann-windowed STFT magnitudes, no padding.

    F = window/2 + 1 rows and T = 1 + floor((len - window)/hop) columns;
    entries are unscaled DFT magnitudes of each windowed frame.
    """
    x = clip.samples
    if len(x) < window:
        raise DataError(f"clip length {len(x)} shorter than window {window}")
    frames = 1 + (len(x) - window) // hop
    idx = np.arange(window)[None, :] + hop * np.arange(frames)[:, None]
    segments = x[idx] * hann_window(window)[None, :]
    mags = np.abs(np.fft.rfft(segments, axis=1))  # (T, F)
    return Spectrogram(mags.T)


def utterance_spectrum(clip: AudioClip) -> Spectrum:
    """Magnitude spectrum of the entire signal, scaled by 1/len.

    No windowing; F' = floor(len/2) + 1 bins. The 1/len scaling keeps
    magnitudes comparable across clip lengths.
    """
    x = clip.samples
    return Spectrum(np.abs(np.fft.rfft(x)) / len(x))
