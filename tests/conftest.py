"""Shared fixtures: a tiny synthetic corpus and a checkpoint trained on it."""

import os

# Training and embedding run several worker threads only while BLAS is held
# to one thread. Set that before numpy loads, unless the caller chose a BLAS
# thread count; tests that need another setting change it through monkeypatch.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402 - after the BLAS variables
import pytest

from soundscan.config import micro_preset
from soundscan.data import SynthConfig, synth_dataset
from soundscan.training import train


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """2-class, 6+3+3 clips per class, 1 s @ 8 kHz."""
    root = tmp_path_factory.mktemp("tiny_corpus")
    cfg = SynthConfig(classes=2, train_clips=6, test_normal=3, test_anomaly=3,
                      base_freqs=(400.0, 700.0), seed=100)
    rows = synth_dataset(cfg, root)
    return rows, root


@pytest.fixture(scope="session")
def tiny_run_cfg():
    cfg = micro_preset(seed=7)
    cfg.train.epochs = 3
    cfg.train.batch_size = 8
    cfg.scoring.prototypes = 4
    cfg.synth.classes = 2
    cfg.synth.train_clips = 6
    cfg.synth.test_normal = 10  # pAUC needs floor(0.1 * N-) >= 1 per group
    cfg.synth.test_anomaly = 3
    cfg.synth.base_freqs = (400.0, 700.0)
    return cfg


@pytest.fixture(scope="session")
def tiny_checkpoint(tiny_corpus, tiny_run_cfg, tmp_path_factory):
    """A short 3-epoch training run shared by scoring/CLI tests (read-only)."""
    rows, _ = tiny_corpus
    path = tmp_path_factory.mktemp("ckpt") / "tiny.ckpt"
    result = train(rows, tiny_run_cfg, out_checkpoint=path)
    return path, result


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def write_float_wav():
    """`write(path, samples, rate)`: a mono 32-bit IEEE float WAV, which,
    unlike 16-bit PCM, can hold a NaN."""
    import struct

    from soundscan import wavio

    def write(path, samples, rate):
        body = np.asarray(samples, dtype="<f4").tobytes()
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(body), b"WAVE",
                             b"fmt ", 16, wavio.FORMAT_IEEE_FLOAT, 1, rate, 4 * rate, 4, 32,
                             b"data", len(body))
        path.write_bytes(header + body)
        return path

    return write


@pytest.fixture()
def fake_threadpoolctl(monkeypatch):
    """A threadpoolctl stand-in whose BLAS limit is `state["limit"]`: set when a
    `threadpool_limits` is made, restored when one used as a context exits.
    `state["calls"]` lists the limit of every `threadpool_limits` made."""
    import sys
    import types

    state = {"limit": None, "calls": []}

    class FakeLimits:
        def __init__(self, limits=None):
            state["calls"].append(limits)
            self.previous, state["limit"] = state["limit"], limits

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            state["limit"] = self.previous

    monkeypatch.setitem(sys.modules, "threadpoolctl",
                        types.SimpleNamespace(threadpool_limits=FakeLimits))
    return state


@pytest.fixture()
def many_cpus(monkeypatch):
    """Four usable cores and BLAS held to one thread by the environment, so a
    `workers.pool` opens as many workers as its tasks, up to four, on any
    machine."""
    import sys

    from soundscan import workers

    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
