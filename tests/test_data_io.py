"""Manifests, DCASE filename parsing, and the synthetic corpus."""

import numpy as np
import pytest

from soundscan import dsp
from soundscan.data import (ManifestRow, SynthConfig, load_manifest,
                            save_manifest, scan_dcase_layout, synth_dataset)
from soundscan.errors import ConfigError, DataError


def test_manifest_round_trip(tmp_path, rng):
    rows = [ManifestRow(f"clip{i}.wav", f"type{i % 3}", f"id_{i % 2:02d}",
                        ("source", "target", "")[i % 3],
                        "train" if i % 4 else "test",
                        "normal" if i % 4 else "anomaly")
            for i in range(20)]
    path = tmp_path / "m.csv"
    save_manifest(rows, path)
    assert load_manifest(path) == rows


def test_manifest_missing_file(tmp_path):
    with pytest.raises(DataError):
        load_manifest(tmp_path / "nope.csv")


def test_manifest_malformed_row_has_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("path,type,id_or_attr,domain,split,label\n"
                    "a.wav,fan,id_00,,train,normal\n"
                    "b.wav,fan,id_00,,train\n")
    with pytest.raises(DataError, match=":3"):
        load_manifest(path)


def test_manifest_rejects_an_unknown_domain(tmp_path):
    path = tmp_path / "typo.csv"
    path.write_text("path,type,id_or_attr,domain,split,label\n"
                    "a.wav,fan,id_00,source,train,normal\n"
                    "b.wav,fan,id_00,sorce,train,normal\n")
    with pytest.raises(DataError, match=r"typo\.csv:3: bad domain 'sorce'"):
        load_manifest(path)


@pytest.mark.parametrize("record, field", [(",,,,train,normal", "path"),
                                           ("b.wav,,id_00,,train,normal", "type"),
                                           (",fan,id_00,,train,normal", "path")])
def test_manifest_rejects_an_empty_path_or_type(tmp_path, record, field):
    path = tmp_path / "holes.csv"
    path.write_text("path,type,id_or_attr,domain,split,label\n"
                    "a.wav,fan,id_00,,train,normal\n" + record + "\n")
    with pytest.raises(DataError, match=rf"holes\.csv:3: empty {field}"):
        load_manifest(path)


def test_manifest_keeps_an_empty_id_or_attr(tmp_path):
    # 2023-style names without attributes give an empty id_or_attr
    path = tmp_path / "m.csv"
    path.write_text("path,type,id_or_attr,domain,split,label\n"
                    "a.wav,fan,,source,train,normal\n")
    assert load_manifest(path) == [ManifestRow("a.wav", "fan", "", "source", "train", "normal")]


def test_manifest_rejects_duplicates_and_anomalous_train(tmp_path):
    dup = [ManifestRow("x.wav", "fan", "id_00", "", "train", "normal")] * 2
    with pytest.raises(DataError, match="duplicate"):
        save_manifest(dup, tmp_path / "d.csv")
    bad = [ManifestRow("y.wav", "fan", "id_00", "", "train", "anomaly")]
    with pytest.raises(DataError, match="normal"):
        save_manifest(bad, tmp_path / "t.csv")


# -- DCASE layout parsing ---------------------------------------------------------

def test_scan_2020_layout(tmp_path):
    d = tmp_path / "fan" / "train"
    d.mkdir(parents=True)
    (d / "normal_id_00_00000000.wav").write_bytes(b"")
    t = tmp_path / "fan" / "test"
    t.mkdir()
    (t / "anomaly_id_02_00000005.wav").write_bytes(b"")
    rows = scan_dcase_layout(tmp_path, "2020")
    assert rows[0] == ManifestRow(str(d / "normal_id_00_00000000.wav"),
                                  "fan", "id_00", "", "train", "normal")
    assert rows[1].id_or_attr == "id_02" and rows[1].label == "anomaly"


def test_scan_2023_layout(tmp_path):
    d = tmp_path / "bearing" / "train"
    d.mkdir(parents=True)
    (d / "section_00_target_train_normal_0002_vel_6.wav").write_bytes(b"")
    rows = scan_dcase_layout(tmp_path, "2023")
    assert len(rows) == 1
    assert rows[0].domain == "target"
    assert rows[0].id_or_attr == "vel_6"
    assert rows[0].label == "normal"


def test_scan_unrecognized_names_flagged(tmp_path):
    d = tmp_path / "fan" / "train"
    d.mkdir(parents=True)
    (d / "mystery_recording.wav").write_bytes(b"")
    with pytest.warns(UserWarning, match="unrecognized"):
        rows = scan_dcase_layout(tmp_path, "2020")
    assert rows[0].label == "unknown"


def test_scan_empty_directory_warns(tmp_path):
    with pytest.warns(UserWarning, match="empty"):
        rows = scan_dcase_layout(tmp_path, "2020")
    assert rows == []


def test_scan_is_total_on_arbitrary_names(tmp_path):
    d = tmp_path / "weird" / "test"
    d.mkdir(parents=True)
    for name in ("..wav", "normal_id_xx_1.wav", "section_1_up_test_odd_2.wav",
                 "a b c!.wav"):
        (d / name).write_bytes(b"")
    with pytest.warns(UserWarning):
        rows = scan_dcase_layout(tmp_path, "2023")
    assert len(rows) == 4
    assert all(r.label == "unknown" for r in rows)


# -- synthetic corpus ----------------------------------------------------------------

def test_synth_counts_and_layout(tmp_path):
    cfg = SynthConfig(seed=1)
    rows = synth_dataset(cfg, tmp_path / "corpus")
    train = [r for r in rows if r.split == "train"]
    assert len(train) == 4 * 30
    assert all(r.label == "normal" for r in train)
    assert len([r for r in rows if r.label == "anomaly"]) == 4 * 10
    # files really exist and re-scan to the same manifest shape
    rescanned = scan_dcase_layout(tmp_path / "corpus", "2020")
    assert len(rescanned) == len(rows)
    assert load_manifest(tmp_path / "corpus" / "manifest.csv") == rows


def test_synth_same_seed_identical_bytes(tmp_path):
    cfg = SynthConfig(classes=1, train_clips=2, test_normal=1, test_anomaly=1,
                      base_freqs=(500.0,), seed=42)
    rows_a = synth_dataset(cfg, tmp_path / "a")
    rows_b = synth_dataset(cfg, tmp_path / "b")
    for ra, rb in zip(rows_a, rows_b):
        a = open(ra.path, "rb").read()
        b = open(rb.path, "rb").read()
        assert a == b


def test_detuned_anomaly_shifts_second_harmonic(tmp_path):
    cfg = SynthConfig(classes=1, train_clips=1, test_normal=4, test_anomaly=4,
                      base_freqs=(400.0,), noise_floor=0.0, seed=7)
    rows = synth_dataset(cfg, tmp_path / "c")
    # at 1 s / 8 kHz, a 6% detune moves the 2nd harmonic by 48 one-Hz bins
    def second_peak(path):
        clip = dsp.load_wav(path)
        spectrum = dsp.utterance_spectrum(clip.samples)
        lo, hi = 700, 900  # window around 2 * 400 Hz
        return lo + int(np.argmax(spectrum[lo:hi]))

    normal_peaks = [second_peak(r.path) for r in rows
                    if r.split == "test" and r.label == "normal"]
    anomaly_peaks = [second_peak(r.path) for r in rows
                     if r.split == "test" and r.label == "anomaly"]
    for n in normal_peaks:
        for a in anomaly_peaks:
            assert abs(a - n) >= 4


def test_synth_separable_by_spectral_peak_oracle(tmp_path):
    cfg = SynthConfig(seed=3)
    rows = synth_dataset(cfg, tmp_path / "sep")
    f0 = dict(zip((f"machine{c:02d}" for c in range(4)), cfg.base_freqs))

    correct = 0
    test_rows = [r for r in rows if r.split == "test"]
    for r in test_rows:
        clip = dsp.load_wav(r.path)
        spectrum = dsp.utterance_spectrum(clip.samples)
        target = 2 * f0[r.machine_type]
        lo, hi = int(target * 0.85), int(target * 1.15)
        peak = lo + int(np.argmax(spectrum[lo:hi]))
        called_anomaly = abs(peak - target) > 0.03 * target
        correct += called_anomaly == (r.label == "anomaly")
    assert correct / len(test_rows) >= 0.95


def test_failed_manifest_save_leaves_the_old_file_and_no_temp_file(tmp_path):
    path = tmp_path / "keep.csv"
    save_manifest([ManifestRow("old.wav", "fan", "id_00", "", "train", "normal")], path)
    before = path.read_bytes()
    # the lone surrogate in the second row's path cannot be encoded as UTF-8,
    # so the write fails after the first row
    bad = [ManifestRow(name, "fan", "id_00", "", "train", "normal")
           for name in ("a.wav", "b\udcff.wav")]
    with pytest.raises(UnicodeEncodeError):
        save_manifest(bad, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


def test_synth_validates_nyquist():
    cfg = SynthConfig(classes=1, base_freqs=(3000.0,), sample_rate=8000)
    with pytest.raises(ConfigError, match="Nyquist"):
        cfg.validate()
