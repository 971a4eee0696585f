"""Front-end tests: WAV round trips, length fixing, STFT and spectrum."""

import numpy as np
import pytest

from soundscan import dsp, wavio
from soundscan.errors import DataError


def direct_dft_magnitude(x):
    """O(L^2) one-sided DFT magnitude oracle, scaled by 1/L."""
    L = len(x)
    bins = L // 2 + 1
    n = np.arange(L)
    mags = np.empty(bins)
    for k in range(bins):
        re = np.sum(x * np.cos(-2 * np.pi * k * n / L))
        im = np.sum(x * np.sin(-2 * np.pi * k * n / L))
        mags[k] = np.hypot(re, im) / L
    return mags


# -- load_wav -----------------------------------------------------------------

def test_load_wav_full_scale_16bit(tmp_path):
    path = tmp_path / "full.wav"
    pcm = np.full(100, 32767 / 32767.0)
    wavio.write_wav(path, pcm, 16000)
    clip = dsp.load_wav(path)
    assert clip.sample_rate == 16000
    assert np.all(np.abs(clip.samples - 1.0) <= 1.0 / 32768)


def test_load_wav_stereo_averages_to_mono(tmp_path):
    path = tmp_path / "stereo.wav"
    stereo = np.stack([np.full(64, 0.5), np.full(64, -0.5)], axis=1)
    wavio.write_wav(path, stereo, 8000)
    clip = dsp.load_wav(path)
    assert np.allclose(clip.samples, 0.0, atol=1.0 / 32768)


def test_load_wav_sine_round_trip(tmp_path):
    rate = 8000
    t = np.arange(rate) / rate
    sine = 0.8 * np.sin(2 * np.pi * 440.0 * t)
    path = tmp_path / "sine.wav"
    wavio.write_wav(path, sine, rate)
    clip = dsp.load_wav(path)
    assert len(clip) == rate
    assert np.max(np.abs(clip.samples - sine)) < 1e-4


def test_load_wav_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        dsp.load_wav(tmp_path / "nope.wav")


def test_load_wav_unreadable_paths_are_data_errors(tmp_path):
    with pytest.raises(DataError):
        dsp.load_wav(tmp_path / "nope.wav")
    with pytest.raises(DataError, match="cannot read WAV"):
        dsp.load_wav(tmp_path)  # a directory


def test_load_wav_malformed_riff(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"RIFFxxxxJUNKdata")
    with pytest.raises(wavio.WavFormatError):
        dsp.load_wav(path)


def test_load_wav_non_pcm_rejected(tmp_path):
    import struct
    data = b"\x00" * 32
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(data), b"WAVE",
        b"fmt ", 16, 7, 1, 8000, 8000, 1, 8,  # format tag 7 = mu-law
        b"data", len(data),
    )
    path = tmp_path / "mulaw.wav"
    path.write_bytes(header + data)
    with pytest.raises(wavio.UnsupportedWavError):
        dsp.load_wav(path)


def test_read_wav_chunk_cut_short_rejected(tmp_path):
    whole = tmp_path / "whole.wav"
    wavio.write_wav(whole, np.linspace(-0.5, 0.5, 400), 8000)
    raw = whole.read_bytes()
    # 44-byte header: the fmt body is bytes 20-36, the data body 44 onwards
    for chunk, cut in (("data", len(raw) - 100), ("fmt", 30)):
        path = tmp_path / f"cut_{chunk}.wav"
        path.write_bytes(raw[:cut])
        with pytest.raises(wavio.WavFormatError, match=f"{chunk} chunk claims"):
            wavio.read_wav(path)


def test_read_wav_float32_and_24bit(tmp_path):
    import struct
    x = np.linspace(-0.9, 0.9, 33)

    f32 = x.astype("<f4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(f32), b"WAVE",
        b"fmt ", 16, wavio.FORMAT_IEEE_FLOAT, 1, 8000, 32000, 4, 32,
        b"data", len(f32),
    )
    p = tmp_path / "f32.wav"
    p.write_bytes(header + f32)
    got, rate = wavio.read_wav(p)
    assert rate == 8000
    assert np.allclose(got[:, 0], x, atol=1e-7)

    ints = np.rint(x * (2 ** 23 - 1)).astype(np.int64)
    body = b"".join(struct.pack("<i", v)[:3] for v in ints)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(body), b"WAVE",
        b"fmt ", 16, wavio.FORMAT_PCM, 1, 8000, 24000, 3, 24,
        b"data", len(body),
    )
    p = tmp_path / "i24.wav"
    p.write_bytes(header + body)
    got, _ = wavio.read_wav(p)
    assert np.max(np.abs(got[:, 0] - x)) < 1e-6


def test_read_wav_8bit_and_32bit_int(tmp_path):
    import struct
    x = np.linspace(-0.9, 0.9, 21)

    u8 = np.clip(np.rint(x * 128 + 128), 0, 255).astype(np.uint8).tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(u8), b"WAVE",
        b"fmt ", 16, wavio.FORMAT_PCM, 1, 8000, 8000, 1, 8,
        b"data", len(u8),
    )
    p = tmp_path / "u8.wav"
    p.write_bytes(header + u8)
    got, _ = wavio.read_wav(p)
    assert np.max(np.abs(got[:, 0] - x)) < 1 / 128

    i32 = np.rint(x * (2 ** 31 - 1)).astype("<i4").tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(i32), b"WAVE",
        b"fmt ", 16, wavio.FORMAT_PCM, 1, 8000, 32000, 4, 32,
        b"data", len(i32),
    )
    p = tmp_path / "i32.wav"
    p.write_bytes(header + i32)
    got, _ = wavio.read_wav(p)
    assert np.max(np.abs(got[:, 0] - x)) < 1e-8


# -- fix_length -----------------------------------------------------------------

def test_fix_length_identity():
    clip = dsp.AudioClip(np.arange(80000) / 80000.0, 8000)
    out = dsp.fix_length(clip, 10.0)
    assert np.array_equal(out.samples, clip.samples)


def test_fix_length_tiles_whole_clip():
    rng = np.random.default_rng(0)
    clip = dsp.AudioClip(rng.uniform(-1, 1, 6 * 8000), 8000)
    out = dsp.fix_length(clip, 18.0)
    assert len(out) == 18 * 8000
    # tiling oracle: sample i must equal source sample i mod len
    idx = np.arange(len(out))
    assert np.array_equal(out.samples, clip.samples[idx % len(clip)])


def test_fix_length_truncates_prefix():
    clip = dsp.AudioClip(np.arange(12 * 8000, dtype=float), 8000)
    out = dsp.fix_length(clip, 10.0)
    assert np.array_equal(out.samples, clip.samples[:10 * 8000])


def test_fix_length_idempotent():
    rng = np.random.default_rng(1)
    clip = dsp.AudioClip(rng.uniform(-1, 1, 7919), 8000)
    once = dsp.fix_length(clip, 1.3)
    twice = dsp.fix_length(once, 1.3)
    assert np.array_equal(once.samples, twice.samples)


def test_fix_length_rejects_nonpositive():
    clip = dsp.AudioClip(np.ones(10), 8000)
    with pytest.raises(DataError):
        dsp.fix_length(clip, 0.0)


# -- stft_magnitude -----------------------------------------------------------------

def test_stft_shape_10s_16k():
    x = np.random.default_rng(2).uniform(-1, 1, 160000)
    spec = dsp.stft_magnitude(x, window=1024, hop=512)
    assert spec.shape == (513, 1 + (160000 - 1024) // 512) == (513, 311)


def test_stft_zero_clip():
    assert np.all(dsp.stft_magnitude(np.zeros(4096)) == 0.0)


def test_stft_bin_center_sine_peaks_at_k():
    rate, window = 16000, 1024
    for k in (5, 37, 200):
        freq = k * rate / window
        t = np.arange(rate) / rate
        spec = dsp.stft_magnitude(0.5 * np.sin(2 * np.pi * freq * t), window=window, hop=512)
        assert np.all(np.argmax(spec, axis=0) == k)


def test_stft_too_short_rejected():
    for shape in ((500,), (3, 500)):
        with pytest.raises(DataError):
            dsp.stft_magnitude(np.ones(shape), window=1024, hop=512)


def test_stft_matches_windowed_frame_dft():
    # each column = whole-signal spectrum of the Hann-windowed frame,
    # modulo the 1/len scaling utterance_spectrum applies
    rng = np.random.default_rng(3)
    window, hop = 1024, 512
    x = rng.uniform(-1, 1, 3 * window)
    spec = dsp.stft_magnitude(x, window=window, hop=hop)
    win = dsp.hann_window(window)
    for frame in range(spec.shape[1]):
        seg = x[frame * hop:frame * hop + window] * win
        ref = dsp.utterance_spectrum(seg) * window
        np.testing.assert_allclose(spec[:, frame], ref, rtol=1e-6, atol=1e-12)


def test_transforms_of_a_batch_equal_the_per_row_transforms():
    # leading axes are a batch: each row transforms as if alone, bit for bit
    x = np.random.default_rng(5).uniform(-1, 1, (2, 3, 2000))
    spec = dsp.stft_magnitude(x, window=256, hop=128)
    spectrum = dsp.utterance_spectrum(x)
    assert spec.shape == (2, 3, 129, 1 + (2000 - 256) // 128)
    assert spectrum.shape == (2, 3, 1001)
    for i in range(2):
        for j in range(3):
            np.testing.assert_array_equal(spec[i, j], dsp.stft_magnitude(x[i, j], 256, 128))
            np.testing.assert_array_equal(spectrum[i, j], dsp.utterance_spectrum(x[i, j]))


# -- utterance_spectrum -----------------------------------------------------------------

def test_spectrum_zero_clip():
    assert np.all(dsp.utterance_spectrum(np.zeros(1000)) == 0.0)


def test_spectrum_constant_clip_is_dc_only():
    spectrum = dsp.utterance_spectrum(np.full(500, 0.25))
    assert spectrum[0] == pytest.approx(0.25, abs=1e-12)
    assert np.all(spectrum[1:] < 1e-12)


def test_spectrum_two_sines_two_peaks():
    L = 512
    t = np.arange(L)
    x = np.sin(2 * np.pi * 10 * t / L) + 0.5 * np.sin(2 * np.pi * 37 * t / L)
    spectrum = dsp.utterance_spectrum(x)
    ref = direct_dft_magnitude(x)
    np.testing.assert_allclose(spectrum, ref, rtol=1e-6, atol=1e-12)
    top2 = set(np.argsort(spectrum)[-2:])
    assert top2 == {10, 37}


def test_spectrum_bins_formula():
    for L in (100, 101, 4096):
        assert dsp.utterance_spectrum(np.ones(L)).shape == (L // 2 + 1,)


def test_parseval_energy_identity():
    rng = np.random.default_rng(4)
    for L in (32, 33, 127, 256):
        x = rng.uniform(-1, 1, L)
        mags = dsp.utterance_spectrum(x)
        ref = direct_dft_magnitude(x)
        np.testing.assert_allclose(mags, ref, rtol=1e-6, atol=1e-12)
        sq = mags ** 2
        if L % 2 == 0:
            energy = L * (sq[0] + 2 * sq[1:-1].sum() + sq[-1])
        else:
            energy = L * (sq[0] + 2 * sq[1:].sum())
        assert energy == pytest.approx(np.sum(x ** 2), rel=1e-6)
