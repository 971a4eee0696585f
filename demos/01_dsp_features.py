#!/usr/bin/env python3
"""Feature extraction walkthrough: one synthetic machine clip, two views.

Generates a harmonic "machine hum", then computes the two inputs the
embedding model consumes: the STFT magnitude spectrogram (time-frequency
structure) and the utterance-level spectrum (full-resolution frequency
content of the whole clip).
"""

import numpy as np

from soundscan import AudioClip, fix_length, stft_magnitude, utterance_spectrum

RATE = 16000
F0 = 420.0

t = np.arange(RATE * 3) / RATE  # 3 seconds
wave = sum(a * np.sin(2 * np.pi * F0 * h * t)
           for h, a in enumerate((1.0, 0.5, 0.25), start=1))
wave += 0.01 * np.random.default_rng(0).standard_normal(len(t))
clip = AudioClip(wave / 2.0, RATE)
print(f"clip: {len(clip)} samples @ {clip.sample_rate} Hz "
      f"({clip.duration:.1f} s)")

# standardize the duration the way the training pipeline does
fixed = fix_length(clip, 10.0)
print(f"after fix_length(10 s): {len(fixed)} samples "
      f"(the 3 s clip is tiled 4x and truncated)")

# both transforms take plain arrays: one waveform here, a (B, n) batch in training
spec = stft_magnitude(fixed.samples, window=1024, hop=512)
print(f"spectrogram: {spec.shape[0]} bins x {spec.shape[1]} frames")

# the harmonic stack shows up as stable rows; column argmax sits at f0's bin
bin_hz = RATE / 1024
peak_bins = np.argmax(spec, axis=0)
print(f"per-frame peak bin: {peak_bins.min()}..{peak_bins.max()} "
      f"(~{peak_bins[0] * bin_hz:.0f} Hz, f0 = {F0:.0f} Hz)")

spectrum = utterance_spectrum(fixed.samples)
print(f"spectrum: {spectrum.size} bins, {1 / fixed.duration:.1f} Hz each")
top = np.argsort(spectrum)[-3:][::-1] / fixed.duration
print(f"three strongest spectral lines: {np.round(sorted(top), 1)} Hz "
      f"(expect {F0:.0f}, {2 * F0:.0f}, {3 * F0:.0f})")
