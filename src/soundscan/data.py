"""Dataset ingestion and synthesis.

The manifest CSV (path,type,id_or_attr,domain,split,label) is the single
interchange format; directory scanners adapt DCASE-style layouts onto it,
and the synthetic generator writes small labeled corpora for desk-scale
experiments without any external downloads.
"""

from __future__ import annotations

import csv
import os
import re
import warnings
from dataclasses import dataclass

import numpy as np

from . import wavio
from .checkpoint import atomic_write
from .config import SynthSettings
from .errors import ConfigError, DataError

MANIFEST_COLUMNS = ["path", "type", "id_or_attr", "domain", "split", "label"]
LABELS = ("normal", "anomaly", "unknown")
SPLITS = ("train", "test")
DOMAINS = ("", "source", "target")


@dataclass(frozen=True)
class ManifestRow:
    path: str
    machine_type: str
    id_or_attr: str
    domain: str                 # "", "source", or "target"
    split: str                  # "train" or "test"
    label: str                  # "normal", "anomaly", or "unknown"


def _check_rows(rows) -> None:
    seen = set()
    for row in rows:
        if row.path in seen:
            raise DataError(f"duplicate manifest path: {row.path}")
        seen.add(row.path)
        if row.split == "train" and row.label == "anomaly":
            raise DataError(f"{row.path}: train rows must be normal")


def save_manifest(rows, path) -> None:
    rows = list(rows)
    _check_rows(rows)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for r in rows:
            writer.writerow([r.path, r.machine_type, r.id_or_attr, r.domain,
                             r.split, r.label])


def load_manifest(path):
    try:
        fh = open(path, "r", newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"manifest not found: {path}") from None
    rows = []
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_COLUMNS:
            raise DataError(f"{path}: expected header {','.join(MANIFEST_COLUMNS)}")
        for lineno, record in enumerate(reader, start=2):
            if not record:
                continue
            if len(record) != len(MANIFEST_COLUMNS):
                raise DataError(f"{path}:{lineno}: expected {len(MANIFEST_COLUMNS)} "
                                f"fields, got {len(record)}")
            row = ManifestRow(record[0], record[1], record[2], record[3],
                              record[4], record[5])
            if not row.path or not row.machine_type:
                raise DataError(f"{path}:{lineno}: empty {'type' if row.path else 'path'}")
            if row.split not in SPLITS:
                raise DataError(f"{path}:{lineno}: bad split {row.split!r}")
            if row.label not in LABELS:
                raise DataError(f"{path}:{lineno}: bad label {row.label!r}")
            if row.domain not in DOMAINS:
                raise DataError(f"{path}:{lineno}: bad domain {row.domain!r}")
            rows.append(row)
    _check_rows(rows)
    return rows


# -- DCASE-style directory layouts ----------------------------------------------

_PAT_2020 = re.compile(r"^(normal|anomaly)_id_(\d+)_\d+\.wav$")
_PAT_2023 = re.compile(
    r"^section_(\d+)_(source|target)_(train|test)_(normal|anomaly)_\d+(?:_(.+))?\.wav$")


def scan_dcase_layout(root, style: str):
    """Build a manifest from root/<machine_type>/<train|test>/*.wav.

    2020-style names: normal_id_01_00000042.wav. 2023-style names:
    section_00_source_train_normal_0001_<attributes>.wav. Unrecognized
    filenames become label=unknown rows; the scan keeps going and emits one
    summary warning.
    """
    if style not in ("2020", "2023"):
        raise DataError(f"unknown layout style {style!r}")
    root = os.fspath(root)
    if not os.path.isdir(root):
        raise DataError(f"not a directory: {root}")
    rows = []
    unknown = 0
    for machine_type in sorted(os.listdir(root)):
        type_dir = os.path.join(root, machine_type)
        if not os.path.isdir(type_dir):
            continue
        for split in SPLITS:
            split_dir = os.path.join(type_dir, split)
            if not os.path.isdir(split_dir):
                continue
            for name in sorted(os.listdir(split_dir)):
                if not name.endswith(".wav"):
                    continue
                path = os.path.join(split_dir, name)
                row = _parse_name(path, machine_type, split, name, style)
                if row.label == "unknown":
                    unknown += 1
                rows.append(row)
    if unknown:
        warnings.warn(f"{unknown} file(s) had unrecognized names; rows "
                      "flagged label=unknown")
    if not rows:
        warnings.warn(f"no WAV files found under {root}; manifest is empty")
    _check_rows(rows)
    return rows


def _parse_name(path, machine_type, split, name, style) -> ManifestRow:
    if style == "2020":
        m = _PAT_2020.match(name)
        if m:
            return ManifestRow(path, machine_type, f"id_{m.group(2)}", "",
                               split, m.group(1))
    else:
        m = _PAT_2023.match(name)
        if m:
            return ManifestRow(path, machine_type, m.group(5) or "", m.group(2),
                               split, m.group(4))
    return ManifestRow(path, machine_type, "", "", split, "unknown")


# -- synthetic machine-sound corpus ------------------------------------------------

@dataclass
class SynthConfig(SynthSettings):
    """Recipe for the synthetic corpus: per-class harmonic stacks plus noise.

    The corpus settings of a run config, plus the clip length, sample rate
    and seed that the run config keeps with its model settings."""

    duration_seconds: float = 1.0
    sample_rate: int = 8000
    seed: int = 0

    DETUNE_FACTOR = 1.06
    HARMONIC_AMPS = (1.0, 0.5, 0.25)
    CLICK_SAMPLES = 32      # the length of one transient click

    def validate(self) -> None:
        super().validate()
        n = int(round(self.duration_seconds * self.sample_rate))
        if self.anomaly_kind == "transient" and n <= self.CLICK_SAMPLES:
            raise ConfigError(f"synth_anomaly=transient needs clips longer than "
                              f"{self.CLICK_SAMPLES} samples, got {n}")
        nyquist = self.sample_rate / 2
        top = max(self.base_freqs[:self.classes]) * len(self.HARMONIC_AMPS) * self.DETUNE_FACTOR
        if top >= nyquist:
            raise ConfigError(f"harmonics reach {top:.0f} Hz, above Nyquist {nyquist:.0f} Hz")


def _harmonic_clip(cfg: SynthConfig, f0: float, rng, detune: bool) -> np.ndarray:
    n = int(round(cfg.duration_seconds * cfg.sample_rate))
    t = np.arange(n) / cfg.sample_rate
    factor = cfg.DETUNE_FACTOR if detune else 1.0
    f_base = f0 * (1.0 + rng.uniform(-0.003, 0.003))
    x = np.zeros(n)
    for h, amp in enumerate(cfg.HARMONIC_AMPS, start=1):
        jitter = 1.0 + rng.uniform(-0.05, 0.05)
        x += amp * jitter * np.sin(2 * np.pi * (h * f_base * factor) * t + rng.uniform(0, 2 * np.pi))
    x += cfg.noise_floor * rng.standard_normal(n)
    return x / 2.2  # fixed headroom: harmonic amplitudes sum below 1.75


def _make_clip(cfg: SynthConfig, f0: float, rng, anomalous: bool) -> np.ndarray:
    if anomalous and cfg.anomaly_kind == "detune":
        return _harmonic_clip(cfg, f0, rng, detune=True)
    x = _harmonic_clip(cfg, f0, rng, detune=False)
    if not anomalous:
        return x
    n = len(x)
    if cfg.anomaly_kind == "transient":
        for _ in range(int(rng.integers(4, 9))):
            pos = int(rng.integers(0, n - cfg.CLICK_SAMPLES))
            click = 0.4 * np.exp(-np.arange(cfg.CLICK_SAMPLES) / 6.0) * rng.choice([-1.0, 1.0])
            x[pos:pos + cfg.CLICK_SAMPLES] += click
    else:  # band-noise between the 1st and 2nd harmonics
        noise = rng.standard_normal(n)
        spectrum = np.fft.rfft(noise)
        freqs = np.fft.rfftfreq(n, 1.0 / cfg.sample_rate)
        band = (freqs >= f0 * 1.3) & (freqs <= f0 * 1.7)
        spectrum[~band] = 0.0
        shaped = np.fft.irfft(spectrum, n)
        peak = np.max(np.abs(shaped))
        if peak > 0:
            x += 0.25 * shaped / peak
    return x


def synth_dataset(cfg: SynthConfig, out_dir):
    """Write the corpus as 16-bit WAV plus a truth manifest CSV.

    Returns the manifest rows. Deterministic for a fixed seed, including
    the WAV bytes.
    """
    cfg.validate()
    out_dir = os.fspath(out_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {out_dir}: {exc}") from None
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for ci in range(cfg.classes):
        machine = f"machine{ci:02d}"
        f0 = cfg.base_freqs[ci]
        plan = ([("train", "normal")] * cfg.train_clips
                + [("test", "normal")] * cfg.test_normal
                + [("test", "anomaly")] * cfg.test_anomaly)
        counters = {"train": 0, "test": 0}
        for split, label in plan:
            clip = _make_clip(cfg, f0, rng, anomalous=(label == "anomaly"))
            sub = os.path.join(out_dir, machine, split)
            os.makedirs(sub, exist_ok=True)
            name = f"{label}_id_00_{counters[split]:08d}.wav"
            counters[split] += 1
            path = os.path.join(sub, name)
            wavio.write_wav(path, clip, cfg.sample_rate)
            rows.append(ManifestRow(path, machine, "id_00", "", split, label))
    save_manifest(rows, os.path.join(out_dir, "manifest.csv"))
    return rows
