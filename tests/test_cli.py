"""CLI behavior: subcommand wiring, exit codes, pipeline smoke run."""

import numpy as np
import pytest

from soundscan.cli import main
from soundscan.config import config_text, micro_preset


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_analyze_default_kernel_table(capsys):
    code, out, err = run(capsys, "scan-analyze", "--F", "513", "--T", "311")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert lines[0] == "kernel,h,w,n_f,n_t,patches,min_coverage,max_coverage,patch_bytes"
    assert len(lines) == 13  # header + 12 kernels
    first = lines[1].split(",")
    assert first[0] == "32x16"
    # n_f for h=32: anchors 0,8,...,480 then 481 appended
    assert int(first[3]) == 62
    assert int(first[4]) == 11


def test_scan_analyze_patch_bytes_are_the_plan_cells(capsys):
    from soundscan.config import ModelConfig

    code, out, _ = run(capsys, "scan-analyze", "--F", "513", "--T", "311")
    assert code == 0
    cfg = ModelConfig()
    plans = [cfg.scan_plan(513, 311, box) for box in cfg.kernels]
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [int(row[8]) for row in rows] == [8 * p.patch_cells for p in plans]


def test_scan_analyze_counts_mode(capsys):
    # spans divide evenly (481 = 13*37, 295 = 5*59), so the derived steps
    # reproduce the requested counts exactly
    code, out, _ = run(capsys, "scan-analyze", "--F", "513", "--T", "311",
                       "--set", "scan_mode=counts", "--set", "n_f=14",
                       "--set", "n_t=6", "--set", "kernels=32x16")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert (int(row[3]), int(row[4])) == (14, 6)


def test_unknown_config_key_is_exit_2(capsys):
    code, _, err = run(capsys, "scan-analyze", "--F", "64", "--T", "64",
                       "--set", "bogus=1")
    assert code == 2
    assert "error: config" in err


def test_retired_label_schema_key_is_exit_2(capsys):
    code, _, err = run(capsys, "scan-analyze", "--F", "64", "--T", "64",
                       "--set", "label_schema=type_id")
    assert code == 2
    assert "unknown config key 'label_schema'" in err


def test_retired_label_schema_in_config_file_is_exit_2(capsys, tmp_path):
    # only an artifact's echo may carry the retired key
    path = tmp_path / "run.cfg"
    path.write_text("seed=1\nlabel_schema=bogus\n")
    code, _, err = run(capsys, "scan-analyze", "--config", str(path), "--F", "64",
                       "--T", "64", "--set", "kernels=16x8")
    assert code == 2
    assert "unknown config key 'label_schema'" in err


def test_synth_above_nyquist_is_exit_2(capsys, tmp_path):
    out = tmp_path / "d"
    code, _, err = run(capsys, "synth", "--set", "seed=0", "--set", "sample_rate=4000",
                       "--out", str(out))
    assert code == 2
    assert "error: config" in err and "Nyquist" in err
    assert not out.exists()


@pytest.mark.parametrize("seconds", ["0.001", "0.002"])   # 16 and 32 samples at 16 kHz
def test_synth_transient_on_clips_of_32_samples_or_fewer_is_exit_2(capsys, tmp_path,
                                                                   seconds):
    out = tmp_path / "d"
    code, _, err = run(capsys, "synth", "--set", "seed=1", "--set", "synth_anomaly=transient",
                       "--set", f"clip_seconds={seconds}", "--set", "stft_window=8",
                       "--set", "stft_hop=4", "--set", "synth_base_freqs=100,150,200,250",
                       "--out", str(out))
    assert code == 2, err
    assert "error: config" in err and "synth_anomaly" in err
    assert not out.exists()


def test_synth_transient_micro_corpus_is_exit_0(capsys, tmp_path):
    cfg = micro_preset(seed=1)
    cfg.synth.classes, cfg.synth.base_freqs = 2, (400.0, 700.0)
    cfg.synth.train_clips, cfg.synth.test_normal, cfg.synth.test_anomaly = 2, 1, 2
    cfg.synth.anomaly_kind = "transient"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(cfg))
    code, _, err = run(capsys, "synth", "--config", str(cfg_path), "--out", str(tmp_path / "d"))
    assert code == 0, err
    manifest = (tmp_path / "d" / "manifest.csv").read_text().splitlines()
    assert len(manifest) == 1 + 2 * (2 + 1 + 2)


def test_threads_below_one_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--set", "seed=0", "--threads", "0",
                       "--out", str(tmp_path / "d"))
    assert code == 2
    assert "error: config" in err and "--threads must be >= 1" in err
    assert not (tmp_path / "d").exists()


def test_missing_seed_is_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "synth", "--out", str(tmp_path / "c"))
    assert code == 2
    assert "seed" in err


def test_missing_manifest_is_exit_3(capsys, tmp_path, tiny_checkpoint):
    ckpt, _ = tiny_checkpoint
    code, _, err = run(capsys, "embed", "--manifest", str(tmp_path / "no.csv"),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err


def test_missing_wav_is_exit_3(capsys, tmp_path, tiny_corpus, tiny_checkpoint):
    from dataclasses import replace

    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    gone = replace(rows[0], path=str(tmp_path / "gone.wav"))
    manifest = tmp_path / "manifest.csv"
    save_manifest([gone] + list(rows[1:3]), manifest)
    code, _, err = run(capsys, "embed", "--manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and "gone.wav" in err


def test_missing_wav_in_a_pooled_chunk_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                 tiny_checkpoint, monkeypatch,
                                                 fake_threadpoolctl):
    from dataclasses import replace

    from soundscan import workers
    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    broken = list(rows)
    assert len(broken) == 24  # two chunks, the second on another worker
    broken[20] = replace(rows[20], path=str(tmp_path / "gone.wav"))
    manifest = tmp_path / "manifest.csv"
    save_manifest(broken, manifest)
    code, _, err = run(capsys, "embed", "--manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and "gone.wav" in err
    assert not (tmp_path / "e.bin").exists()


def test_threads_caps_embedding_workers_with_blas_at_one_thread(
        capsys, tmp_path, tiny_corpus, tiny_checkpoint, monkeypatch, fake_threadpoolctl):
    import shutil
    import threading
    from dataclasses import replace

    from soundscan import scoring, workers
    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    seen = []
    original = scoring._embed_chunk

    def recording_chunk(model, chunk):
        seen.append((threading.get_ident(), fake_threadpoolctl["limit"]))
        return original(model, chunk)

    monkeypatch.setattr(scoring, "_embed_chunk", recording_chunk)
    copies = []  # 72 rows with distinct paths: five chunks
    for i, row in enumerate(list(rows) * 3):
        path = tmp_path / f"{i:02d}.wav"
        shutil.copyfile(row.path, path)
        copies.append(replace(row, path=str(path)))
    manifest = tmp_path / "manifest.csv"
    save_manifest(copies, manifest)
    code, _, _ = run(capsys, "embed", "--manifest", str(manifest), "--threads", "2",
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 0
    assert len(seen) == 5
    assert len({ident for ident, _ in seen}) <= 2
    assert {limit for _, limit in seen} == {1}  # BLAS at one thread in the pool
    assert fake_threadpoolctl["limit"] is None  # the BLAS cap ended with the command


def test_threads_cap_ends_with_the_command(capsys, tmp_path, tiny_corpus, tiny_checkpoint,
                                           monkeypatch, fake_threadpoolctl):
    from dataclasses import replace

    from soundscan import workers
    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    monkeypatch.setattr(workers, "usable_cpus", lambda: 4)
    fake_threadpoolctl["limit"] = 8     # BLAS's limit before the command
    gone = replace(rows[1], path=str(tmp_path / "gone.wav"))
    manifest = tmp_path / "manifest.csv"
    for listed, expected in (([rows[0], rows[1]], 0), ([rows[0], gone], 3)):
        save_manifest(listed, manifest)
        code, _, _ = run(capsys, "embed", "--threads", "2", "--manifest", str(manifest),
                         "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
        assert code == expected
        with workers.pool(8) as count:
            assert count == workers.usable_cpus()
        assert fake_threadpoolctl["limit"] == 8


@pytest.mark.parametrize("option", ["--config", "--set"])
def test_embed_bad_config_input_is_exit_2(capsys, tmp_path, tiny_corpus, tiny_checkpoint,
                                          option):
    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    value = str(tmp_path / "missing.cfg") if option == "--config" else "bogus=1"
    code, _, err = run(capsys, "embed", option, value, "--manifest", str(root / "manifest.csv"),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 2
    assert "error: config" in err
    assert not (tmp_path / "e.bin").exists()


def test_train_batch_beyond_physical_memory_is_exit_2(capsys, tmp_path, tiny_corpus,
                                                      tiny_run_cfg, monkeypatch):
    from soundscan import training

    _, root = tiny_corpus
    monkeypatch.setattr(training, "physical_memory", lambda: 1 << 20)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(tiny_run_cfg))
    code, _, err = run(capsys, "train", "--config", str(cfg_path),
                       "--manifest", str(root / "manifest.csv"),
                       "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "error: config" in err and "batch of 8 clips" in err
    assert not (tmp_path / "m.ckpt").exists()


def test_train_with_an_adacos_scale_of_zero_is_exit_2(capsys, tmp_path, tiny_corpus,
                                                      tiny_run_cfg, monkeypatch):
    # 2 classes x 1 sub-cluster: s0 = sqrt(2) * ln(2 - 1) = 0 pins the scale at 0
    from soundscan import training

    _, root = tiny_corpus
    read = []

    def spy(rows, cfg, inner=training.load_waves):
        read.append(len(rows))
        return inner(rows, cfg)

    monkeypatch.setattr(training, "load_waves", spy)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(tiny_run_cfg))
    code, _, err = run(capsys, "train", "--config", str(cfg_path), "--set", "subclusters=1",
                       "--manifest", str(root / "manifest.csv"),
                       "--out-checkpoint", str(tmp_path / "m.ckpt"))
    assert code == 2
    assert "error: config" in err and "2 classes x subclusters=1" in err
    assert read == []   # refused before any WAV is read
    assert not (tmp_path / "m.ckpt").exists()


def test_train_threads_caps_branch_workers_with_the_same_result(
        capsys, tmp_path, tiny_corpus, tiny_run_cfg, monkeypatch):
    import sys
    import threading

    from soundscan import network, workers

    _, root = tiny_corpus
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    threads = set()
    original = network.PatchEncoder.forward

    def recording(self, stack):
        threads.add(threading.get_ident())
        return original(self, stack)

    monkeypatch.setattr(network.PatchEncoder, "forward", recording)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(tiny_run_cfg).replace("epochs=3", "epochs=2"))
    runs = {}
    for count in ("1", "2"):
        threads.clear()
        ckpt, log = tmp_path / f"t{count}.ckpt", tmp_path / f"t{count}.csv"
        code, out, _ = run(capsys, "train", "--threads", count, "--config", str(cfg_path),
                           "--manifest", str(root / "manifest.csv"),
                           "--out-checkpoint", str(ckpt), "--log", str(log))
        assert code == 0
        assert len(threads) == int(count)
        # every log column but the seconds
        losses = [line.rsplit(",", 1)[0] for line in log.read_text().splitlines()]
        printed = [line.split("seconds")[0] for line in out.splitlines()
                   if line.startswith("epoch")]
        assert len(printed) == 2
        runs[count] = (ckpt.read_bytes(), losses, printed)
    assert runs["1"] == runs["2"]


def test_score_loads_the_checkpoint_once(capsys, tmp_path, tiny_corpus, tiny_checkpoint,
                                         monkeypatch):
    from soundscan import network, scoring

    rows, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    loads = []
    original = network.load_model

    def counting_load(path):
        loads.append(path)
        return original(path)

    # scoring takes a loaded model and has no loader of its own to call
    assert not hasattr(scoring, "load_model")
    monkeypatch.setattr(network, "load_model", counting_load)
    manifest = str(root / "manifest.csv")
    code, _, _ = run(capsys, "score", "--set", "seed=3", "--set", "prototypes=2",
                     "--set", "scoring_mode=per-type",
                     "--train-manifest", manifest, "--test-manifest", manifest,
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.csv"))
    assert code == 0
    assert loads == [str(ckpt)]


def test_score_threads_caps_kmeans_workers_with_the_same_result(
        capsys, tmp_path, tiny_corpus, tiny_checkpoint, monkeypatch):
    import sys
    import threading
    import time

    from soundscan import scoring, workers

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    monkeypatch.setattr(workers, "usable_cpus", lambda: 8)
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(scoring, "KMEANS_POOL_CELLS", 0)  # pool the tiny groups too
    calls = []      # per kmeans call, the threads that ran its refines
    original_kmeans, original_refine = scoring.kmeans, scoring._single_point_refine

    def recording_kmeans(*args, **kwargs):
        calls.append(set())
        return original_kmeans(*args, **kwargs)

    def recording_refine(*args):
        calls[-1].add(threading.get_ident())
        time.sleep(0.002)   # keeps a worker busy while the next restart is handed out
        return original_refine(*args)

    monkeypatch.setattr(scoring, "kmeans", recording_kmeans)
    monkeypatch.setattr(scoring, "_single_point_refine", recording_refine)
    manifest = str(root / "manifest.csv")
    runs = {}
    for count in ("1", "2"):
        calls.clear()
        scores, store = tmp_path / f"s{count}.csv", tmp_path / f"p{count}.bin"
        code, _, _ = run(capsys, "score", "--threads", count, "--set", "seed=3",
                         "--set", "prototypes=2", "--set", "scoring_mode=per-type",
                         "--train-manifest", manifest, "--test-manifest", manifest,
                         "--checkpoint", str(ckpt), "--out", str(scores),
                         "--store", str(store))
        assert code == 0
        runs[count] = (scores.read_bytes(), store.read_bytes())
        assert calls
        if count == "1":
            assert all(threads == {threading.get_ident()} for threads in calls)
        else:   # each group's call runs on two threads, the caller among them
            assert all(len(threads) == 2 and threading.get_ident() in threads
                       for threads in calls)
    assert runs["1"] == runs["2"]


def test_bad_checkpoint_is_exit_3(capsys, tmp_path, tiny_corpus):
    rows, root = tiny_corpus
    code, _, err = run(capsys, "embed", "--manifest", str(root / "manifest.csv"),
                       "--checkpoint", str(tmp_path / "no.ckpt"),
                       "--out", str(tmp_path / "e.bin"))
    assert code == 3


def test_store_file_as_checkpoint_is_exit_3(capsys, tmp_path, tiny_corpus,
                                            tiny_checkpoint):
    """A prototype store carries a run config echo but none of the model's
    arrays; loading it as a checkpoint names the first missing array."""
    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    manifest = str(root / "manifest.csv")
    store = tmp_path / "store.bin"
    code, _, _ = run(capsys, "score", "--set", "seed=3", "--set", "prototypes=2",
                     "--set", "scoring_mode=per-type",
                     "--train-manifest", manifest, "--test-manifest", manifest,
                     "--checkpoint", str(ckpt), "--out", str(tmp_path / "s.csv"),
                     "--store", str(store))
    assert code == 0
    code, _, err = run(capsys, "embed", "--manifest", manifest,
                       "--checkpoint", str(store), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and str(store) in err and "param/" in err
    assert not (tmp_path / "e.bin").exists()


def test_embeddings_file_as_checkpoint_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                 tiny_checkpoint):
    """The container `embed` writes echoes `embed_dim=...`, not a run config;
    loading it as a checkpoint is a bad file (exit 3), not a bad config."""
    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    manifest = str(root / "manifest.csv")
    emb = tmp_path / "emb.bin"
    code, _, _ = run(capsys, "embed", "--manifest", manifest,
                     "--checkpoint", str(ckpt), "--out", str(emb))
    assert code == 0
    code, _, err = run(capsys, "embed", "--manifest", manifest,
                       "--checkpoint", str(emb), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and str(emb) in err and "embed_dim" in err
    assert not (tmp_path / "e.bin").exists()


def test_checkpoint_without_config_echo_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                  tiny_checkpoint):
    from soundscan.checkpoint import load_container, save_container

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    arrays, _ = load_container(ckpt)
    bare = tmp_path / "bare.ckpt"
    save_container(bare, arrays, "")
    code, _, err = run(capsys, "embed", "--manifest", str(root / "manifest.csv"),
                       "--checkpoint", str(bare), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and str(bare) in err and "no config echo" in err
    assert not (tmp_path / "e.bin").exists()


def test_truncated_checkpoint_is_exit_3(capsys, tmp_path, tiny_corpus, tiny_checkpoint):
    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:20])  # inside the config echo
    code, _, err = run(capsys, "embed", "--manifest", str(root / "manifest.csv"),
                       "--checkpoint", str(cut), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "truncated" in err
    assert not (tmp_path / "e.bin").exists()


@pytest.mark.parametrize("skipped", ["adam/", "param/head."])
def test_checkpoint_cut_inside_a_skipped_array_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                         tiny_checkpoint, skipped):
    """`load_model` seeks past the optimizer's and the loss head's arrays,
    but a file cut inside one of them is still a truncated container."""
    from soundscan.checkpoint import load_container, save_container

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    arrays, echo = load_container(ckpt)
    names = sorted(arrays)
    last = max(i for i, name in enumerate(names) if name.startswith(skipped))
    # the container up to that array ends where the array ends in the full file
    head = tmp_path / "head.ckpt"
    save_container(head, {name: arrays[name] for name in names[:last + 1]}, echo)
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(ckpt.read_bytes()[:head.stat().st_size - 8])
    code, _, err = run(capsys, "embed", "--manifest", str(root / "manifest.csv"),
                       "--checkpoint", str(cut), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "truncated" in err
    assert not (tmp_path / "e.bin").exists()


@pytest.mark.parametrize("command", ["embed", "score"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_checkpoint_array_is_exit_3(capsys, tmp_path, tiny_corpus,
                                               tiny_checkpoint, command, bad):
    """A weight that is NaN or infinite is a bad file: the command names the
    array and writes nothing, where it once wrote NaN embeddings (embed) or
    tripped a K-Means assert (score, exit 4)."""
    from soundscan.checkpoint import load_container, save_container

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    arrays, echo = load_container(ckpt)
    name = "param/model.patch_branch.encoder.block1.conv1.weight"
    arrays[name].flat[0] = bad
    broken = tmp_path / "broken.ckpt"
    save_container(broken, arrays, echo)
    manifest = str(root / "manifest.csv")
    out = tmp_path / "out.bin"
    if command == "embed":
        argv = ["embed", "--manifest", manifest, "--out", str(out)]
    else:
        argv = ["score", "--set", "seed=3", "--set", "prototypes=2",
                "--train-manifest", manifest, "--test-manifest", manifest,
                "--out", str(out)]
    code, _, err = run(capsys, *argv, "--checkpoint", str(broken))
    assert code == 3
    assert "error: data" in err and name in err and "NaN or infinity" in err
    assert not out.exists()


def test_truncated_wav_is_exit_3(capsys, tmp_path, tiny_corpus, tiny_checkpoint):
    from dataclasses import replace

    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    cut = tmp_path / "cut.wav"
    cut.write_bytes(open(rows[3].path, "rb").read()[:-100])  # inside the data chunk
    manifest = tmp_path / "manifest.csv"
    save_manifest(list(rows[:3]) + [replace(rows[3], path=str(cut))], manifest)
    code, _, err = run(capsys, "embed", "--manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and str(cut) in err and "data chunk" in err
    assert not (tmp_path / "e.bin").exists()


def test_wav_at_another_rate_is_exit_3(capsys, tmp_path, tiny_corpus, tiny_checkpoint):
    from dataclasses import replace

    from soundscan.data import save_manifest
    from soundscan.wavio import write_wav

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    odd = tmp_path / "at_16k.wav"
    write_wav(odd, np.zeros(16000), 16000)  # the checkpoint expects 8000 Hz
    manifest = tmp_path / "manifest.csv"
    save_manifest(list(rows[:3]) + [replace(rows[3], path=str(odd))], manifest)
    code, _, err = run(capsys, "embed", "--manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "e.bin"))
    assert code == 3
    assert "error: data" in err and str(odd) in err and "16000 Hz" in err


@pytest.mark.parametrize("command", ["train", "embed"])
def test_nan_in_a_float_wav_is_exit_3_naming_the_file(capsys, tmp_path, tiny_corpus,
                                                      tiny_run_cfg, tiny_checkpoint,
                                                      write_float_wav, command):
    from dataclasses import replace

    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    ckpt, _ = tiny_checkpoint
    samples = np.zeros(8000)
    samples[4000] = np.nan
    bad = write_float_wav(tmp_path / "nan.wav", samples, 8000)
    manifest = tmp_path / "manifest.csv"
    save_manifest([replace(rows[0], path=str(bad))] + list(rows[1:]), manifest)
    out = tmp_path / "out.bin"
    if command == "train":
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config_text(tiny_run_cfg))
        argv = ["train", "--config", str(cfg_path), "--out-checkpoint", str(out)]
    else:
        argv = ["embed", "--checkpoint", str(ckpt), "--out", str(out)]
    code, _, err = run(capsys, *argv, "--manifest", str(manifest))
    assert code == 3
    assert "error: data" in err and str(bad) in err and "non-finite samples" in err
    assert not out.exists()


def test_pipeline_smoke(capsys, tmp_path, tiny_run_cfg):
    """synth -> train -> embed -> score -> eval, all through the CLI."""
    cfg_path = tmp_path / "run.cfg"
    text = config_text(tiny_run_cfg).replace("epochs=3", "epochs=2")
    cfg_path.write_text(text)
    corpus = tmp_path / "corpus"
    ckpt = tmp_path / "model.ckpt"
    scores_csv = tmp_path / "scores.csv"
    report_csv = tmp_path / "report.csv"

    code, out, _ = run(capsys, "synth", "--config", str(cfg_path), "--out", str(corpus))
    assert code == 0 and "clips" in out
    manifest = corpus / "manifest.csv"

    code, out, _ = run(capsys, "train", "--config", str(cfg_path),
                       "--manifest", str(manifest),
                       "--out-checkpoint", str(ckpt),
                       "--log", str(tmp_path / "log.csv"))
    assert code == 0
    log_lines = (tmp_path / "log.csv").read_text().splitlines()
    assert log_lines[0] == "epoch,mean_loss,adacos_scale,seconds"
    assert len(log_lines) == 3

    code, out, _ = run(capsys, "embed", "--manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(tmp_path / "emb.bin"))
    assert code == 0
    from soundscan.checkpoint import load_container
    arrays, _ = load_container(tmp_path / "emb.bin")
    assert len(arrays) == 38
    norms = [np.linalg.norm(v) for v in arrays.values()]
    assert np.allclose(norms, 1.0, atol=1e-9)

    code, out, _ = run(capsys, "score", "--config", str(cfg_path),
                       "--train-manifest", str(manifest),
                       "--test-manifest", str(manifest),
                       "--checkpoint", str(ckpt), "--out", str(scores_csv),
                       "--store", str(tmp_path / "protos.bin"))
    assert code == 0
    # the CLI store is cluster_prototypes + save on one loaded model, and
    # carries the run config
    from soundscan.config import load_config
    from soundscan.data import load_manifest
    from soundscan.network import load_model
    from soundscan.scoring import PrototypeStore, cluster_prototypes
    run_cfg = load_config(cfg_path)
    model, _ = load_model(ckpt)
    store = cluster_prototypes(load_manifest(manifest), model,
                               run_cfg.scoring.scoring_mode,
                               run_cfg.scoring.prototypes, run_cfg.model.seed)
    store.save(tmp_path / "lib_protos.bin", config_text(run_cfg))
    assert (tmp_path / "protos.bin").read_bytes() == \
        (tmp_path / "lib_protos.bin").read_bytes()
    assert PrototypeStore.load(tmp_path / "protos.bin")[1] == run_cfg
    score_lines = scores_csv.read_text().splitlines()
    assert score_lines[0] == "filename,score"
    assert len(score_lines) == 1 + 26  # 2 classes x (10 normal + 3 anomaly)
    for line in score_lines[1:]:
        value = line.rsplit(",", 1)[1]
        assert len(value.split(".")[1]) == 6  # fixed 6-decimal formatting

    code, out, _ = run(capsys, "eval", "--scores", str(scores_csv),
                       "--truth", str(manifest), "--grouping", "per-type",
                       "--aggregate", "mean", "--out", str(report_csv))
    assert code == 0
    report = report_csv.read_text().splitlines()
    assert report[0] == "group,auc,pauc"
    assert report[1].startswith("machine00,")
    assert report[-1].startswith("aggregate_mean,")


@pytest.mark.parametrize("command,target", [
    pytest.param(command, target, id=command + ("" if target == "missing" else "-existing-dir"))
    for target in ("missing", "existing-dir")
    for command in ("eval", "score", "embed", "score-store")])
def test_output_in_a_missing_directory_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                 tiny_checkpoint, command, target):
    """An output path in a missing directory, or one that is an existing
    directory, is a data error naming the path that leaves no temp file."""
    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    manifest = str(root / "manifest.csv")
    if target == "missing":
        out = tmp_path / "nodir" / "out"
    else:
        out = tmp_path / "outdir"
        out.mkdir()
    outputs = ["--out", str(out)]
    if command == "eval":
        names = _ten_normal_three_anomaly_truth(tmp_path)
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("filename,score\n" + "".join(
            f"{name},{0.1 * i:.6f}\n" for i, name in enumerate(names)))
        argv = ["eval", "--scores", str(scores_csv), "--truth", str(tmp_path / "truth.csv")]
    elif command.startswith("score"):
        argv = ["score", "--set", "seed=3", "--set", "prototypes=2",
                "--train-manifest", manifest, "--test-manifest", manifest,
                "--checkpoint", str(ckpt)]
        if command == "score-store":
            outputs = ["--out", str(tmp_path / "out.csv"), "--store", str(out)]
    else:
        argv = ["embed", "--manifest", manifest, "--checkpoint", str(ckpt)]
    code, _, err = run(capsys, *argv, *outputs)
    assert code == 3, err
    assert f"cannot write {out}" in err
    assert not list(tmp_path.rglob("*.tmp"))
    assert not (tmp_path / "out.csv").exists()
    if target == "missing":
        assert not (tmp_path / "nodir").exists()
    else:
        assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("command,target", [
    pytest.param(command, target, id=command + ("" if target == "missing" else "-existing-dir"))
    for target in ("missing", "existing-dir")
    for command in ("eval", "score", "embed", "score-store")])
def test_bad_output_path_is_refused_before_the_work(capsys, tmp_path, tiny_corpus,
                                                    tiny_checkpoint, monkeypatch,
                                                    command, target):
    """embed, score (--out and --store) and eval check their output paths
    before they embed, cluster or evaluate anything."""
    from soundscan import metrics, scoring

    _, root = tiny_corpus
    ckpt, _ = tiny_checkpoint
    manifest = str(root / "manifest.csv")
    if target == "missing":
        out = tmp_path / "nodir" / "out"
    else:
        out = tmp_path / "outdir"
        out.mkdir()
    work = {"eval": (metrics, "evaluate"), "embed": (scoring, "embed_rows"),
            "score": (scoring, "cluster_prototypes"),
            "score-store": (scoring, "cluster_prototypes")}[command]
    calls = []
    original = getattr(*work)
    monkeypatch.setattr(*work, lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    if command == "eval":
        names = _ten_normal_three_anomaly_truth(tmp_path)
        scores_csv = tmp_path / "scores.csv"
        scores_csv.write_text("filename,score\n" + "".join(
            f"{name},{0.1 * i:.6f}\n" for i, name in enumerate(names)))
        argv = ["eval", "--scores", str(scores_csv), "--truth", str(tmp_path / "truth.csv"),
                "--out", str(out)]
    elif command == "embed":
        argv = ["embed", "--manifest", manifest, "--checkpoint", str(ckpt), "--out", str(out)]
    else:
        outputs = ((str(out), None) if command == "score"
                   else (str(tmp_path / "out.csv"), str(out)))
        argv = ["score", "--set", "seed=3", "--set", "prototypes=2",
                "--train-manifest", manifest, "--test-manifest", manifest,
                "--checkpoint", str(ckpt), "--out", outputs[0]]
        argv += ["--store", outputs[1]] if outputs[1] else []
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert f"cannot write {out}" in err
    assert calls == []


@pytest.mark.parametrize("option,target", [
    pytest.param(option, target, id=option + ("" if target == "missing" else "-existing-dir"))
    for target in ("missing", "existing-dir") for option in ("--out-checkpoint", "--log")])
def test_train_output_in_a_missing_directory_is_exit_3_before_training(
        capsys, tmp_path, tiny_corpus, tiny_run_cfg, monkeypatch, option, target):
    """An output path in a missing directory, or one that is an existing
    directory, is refused before the first training step."""
    from soundscan import training

    _, root = tiny_corpus
    steps = []
    monkeypatch.setattr(training, "_train_step", lambda *args: steps.append(args) or 0.0)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text(tiny_run_cfg))
    if target == "missing":
        missing = tmp_path / "nodir" / "out"
    else:
        missing = tmp_path / "outdir"
        missing.mkdir()
    outputs = {"--out-checkpoint": str(tmp_path / "m.ckpt"), "--log": str(tmp_path / "l.csv")}
    outputs[option] = str(missing)
    argv = ["train", "--config", str(cfg_path), "--manifest", str(root / "manifest.csv")]
    for name, path in outputs.items():
        argv += [name, path]
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert "error: data" in err and str(missing) in err
    assert steps == []
    assert not (tmp_path / "m.ckpt").exists() and not (tmp_path / "l.csv").exists()
    assert not list(tmp_path.rglob("*.tmp"))


_SCORE = ["score", "--set", "seed=0", "--train-manifest", "manifest.csv",
          "--test-manifest", "test.csv", "--checkpoint", "m.ckpt"]
_EVAL = ["eval", "--scores", "scores.csv", "--truth", "manifest.csv"]


@pytest.mark.parametrize("argv,first,second", [
    pytest.param(["train", "--set", "seed=0", "--manifest", "manifest.csv",
                  "--log", "m.ckpt", "--out-checkpoint", "m.ckpt"],
                 "--log", "--out-checkpoint", id="train-log-checkpoint"),
    pytest.param(["train", "--set", "seed=0", "--manifest", "manifest.csv",
                  "--out-checkpoint", "./manifest.csv"],
                 "--out-checkpoint", "--manifest", id="train-checkpoint-manifest"),
    pytest.param(["embed", "--manifest", "manifest.csv", "--checkpoint", "m.ckpt",
                  "--out", "m.ckpt"], "--out", "--checkpoint", id="embed-out-checkpoint"),
    pytest.param(["embed", "--manifest", "manifest.csv", "--checkpoint", "m.ckpt",
                  "--out", "alias/m.ckpt"], "--out", "--checkpoint",
                 id="embed-out-checkpoint-through-a-directory-symlink"),
    pytest.param(_SCORE + ["--out", "x", "--store", "x"], "--store", "--out",
                 id="score-out-store"),
    pytest.param(_SCORE + ["--out", "test.csv"], "--out", "--test-manifest",
                 id="score-out-test-manifest"),
    pytest.param(_SCORE + ["--out", "x", "--store", "m.ckpt"], "--store", "--checkpoint",
                 id="score-store-checkpoint"),
    pytest.param(_EVAL + ["--out", "scores.csv"], "--out", "--scores", id="eval-out-scores"),
    pytest.param(_EVAL + ["--config", "run.cfg", "--out", "run.cfg"], "--out", "--config",
                 id="eval-out-config"),
])
def test_an_output_naming_an_input_or_another_output_is_exit_3(capsys, tmp_path,
                                                               monkeypatch, argv, first,
                                                               second):
    """An output path that names the same file as an input or as another
    output, whatever its spelling, is refused before any work, and every
    file keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    for name in ("manifest.csv", "test.csv", "m.ckpt", "scores.csv", "x"):
        (tmp_path / name).write_text(f"the bytes of {name}\n")
    (tmp_path / "run.cfg").write_text(config_text(micro_preset(0)))
    (tmp_path / "alias").symlink_to(tmp_path, target_is_directory=True)
    before = {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert f"{first} names the same file as {second}" in err
    assert {path: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()} == before


@pytest.mark.parametrize("argv,output,manifest", [
    pytest.param(["train", "--set", "seed=0", "--manifest", "manifest.csv",
                  "--out-checkpoint", "clips/../clips/train.wav"],
                 "--out-checkpoint", "--manifest", id="train"),
    pytest.param(["embed", "--manifest", "manifest.csv", "--checkpoint", "m.ckpt",
                  "--out", "./clips/train.wav"], "--out", "--manifest", id="embed"),
    pytest.param(_SCORE + ["--out", "x", "--store", "clips/test.wav"], "--store",
                 "--test-manifest", id="score"),
    pytest.param(["eval", "--scores", "scores.csv", "--truth", "truth.csv",
                  "--out", "clips/test.wav"], "--out", "--truth", id="eval"),
])
def test_an_output_naming_a_listed_wav_is_exit_3(capsys, tmp_path, tiny_corpus,
                                                 tiny_checkpoint, monkeypatch, argv, output,
                                                 manifest):
    """An output path that names a WAV which a manifest of the command lists
    is refused before any work, and the WAV keeps its bytes."""
    import shutil
    from dataclasses import replace

    from soundscan.data import save_manifest

    rows, _ = tiny_corpus
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clips").mkdir()
    for split, manifest_name in (("train", "manifest.csv"), ("test", "test.csv")):
        row = next(r for r in rows if r.split == split and r.label == "normal")
        shutil.copyfile(row.path, tmp_path / "clips" / f"{split}.wav")
        save_manifest([replace(row, path=f"clips/{split}.wav")],
                      tmp_path / manifest_name)
    # a truth manifest, ten normals and an anomaly, and scores that eval reports on
    truth = [replace(row, path=f"clips/{name}.wav") for name in ["test", *"abcdefghi"]]
    truth.append(replace(row, path="clips/anomaly.wav", label="anomaly"))
    save_manifest(truth, tmp_path / "truth.csv")
    (tmp_path / "scores.csv").write_text("filename,score\n" + "".join(
        f"{r.path},{0.1 * i:.6f}\n" for i, r in enumerate(truth)))
    shutil.copyfile(tiny_checkpoint[0], tmp_path / "m.ckpt")
    before = {path: path.read_bytes() for path in (tmp_path / "clips").iterdir()}
    code, _, err = run(capsys, *argv)
    assert code == 3, err
    assert f"{output} names the same file as a WAV listed in {manifest}" in err
    assert {path: path.read_bytes() for path in (tmp_path / "clips").iterdir()} == before
    assert not (tmp_path / "x").exists()


# option dests that name no file, for every command and per command
_NOT_PATHS = {"*": {"overrides", "threads"}, "eval": {"grouping", "aggregate"},
              "scan-analyze": {"F", "T"}, "synth": {"out"}}     # synth's --out is a directory


def test_every_path_option_is_declared_as_a_file_of_its_command():
    """Each option of each command is an output, an input or a manifest
    that its subparser declares, or --config, or a listed option that names
    no file: a new path option fails here until its command declares it."""
    import argparse

    from soundscan.cli import _build_parser

    sub = next(action for action in _build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        files = [dest for kind in ("outputs", "inputs", "manifests")
                 for dest in parser.get_default(kind)]
        dests = {action.dest for action in parser._actions if action.dest != "help"}
        assert len(files) == len(set(files)) and set(files) <= dests, name
        others = dests - set(files) - {"config"}
        assert others <= _NOT_PATHS["*"] | _NOT_PATHS.get(name, set()), (name, others)


def test_eval_missing_score_names_file(capsys, tmp_path, tiny_corpus):
    rows, root = tiny_corpus
    scores_csv = tmp_path / "partial.csv"
    test_rows = [r for r in rows if r.split == "test"]
    with open(scores_csv, "w") as fh:
        fh.write("filename,score\n")
        for r in test_rows[1:]:
            fh.write(f"{r.path},0.500000\n")
    code, _, err = run(capsys, "eval", "--scores", str(scores_csv),
                       "--truth", str(root / "manifest.csv"),
                       "--grouping", "per-type", "--aggregate", "mean")
    assert code == 3
    assert test_rows[0].path in err


def _ten_normal_three_anomaly_truth(tmp_path):
    from soundscan.data import ManifestRow, save_manifest

    names = [f"a/x{i}" for i in range(13)]
    save_manifest([ManifestRow(name, "a", "id_00", "", "test",
                               "anomaly" if i >= 10 else "normal")
                   for i, name in enumerate(names)], tmp_path / "truth.csv")
    return names


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_eval_rejects_a_non_finite_score(capsys, tmp_path, bad):
    names = _ten_normal_three_anomaly_truth(tmp_path)
    values = [f"{0.1 * i:.6f}" for i in range(10)] + ["0.500000", bad, "0.700000"]
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("filename,score\n" + "".join(
        f"{name},{value}\n" for name, value in zip(names, values)))
    code, _, err = run(capsys, "eval", "--scores", str(scores_csv),
                       "--truth", str(tmp_path / "truth.csv"))
    assert code == 3
    assert f"{scores_csv}:13" in err and "not finite" in err


def test_eval_rejects_a_file_scored_twice(capsys, tmp_path):
    names = _ten_normal_three_anomaly_truth(tmp_path)
    lines = [f"{name},{0.1 * i:.6f}\n" for i, name in enumerate(names)]
    lines.insert(5, "a/x2,0.900000\n")
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("filename,score\n" + "".join(lines))
    code, _, err = run(capsys, "eval", "--scores", str(scores_csv),
                       "--truth", str(tmp_path / "truth.csv"))
    assert code == 3
    assert f"{scores_csv}:7" in err and "'a/x2' is scored twice" in err


def test_eval_rejects_scores_for_files_the_truth_does_not_list(capsys, tmp_path):
    names = _ten_normal_three_anomaly_truth(tmp_path)
    lines = [f"{name},{0.1 * i:.6f}\n" for i, name in enumerate(names)]
    scores_csv = tmp_path / "scores.csv"
    scores_csv.write_text("filename,score\n" + "".join(lines) + "b/unknown,0.100000\n")
    code, _, err = run(capsys, "eval", "--scores", str(scores_csv),
                       "--truth", str(tmp_path / "truth.csv"))
    assert code == 3
    assert "not in the truth manifest" in err and "b/unknown" in err


def test_scan_analyze_oversized_kernel_row(capsys):
    code, out, err = run(capsys, "scan-analyze", "--F", "100", "--T", "20",
                         "--set", "kernels=32x16,256x64")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].startswith("256x64,256,64,0,0,0")
    assert "skipped" in err


@pytest.mark.parametrize("F,T", [(-5, 10), (10, 0), (0, 0)])
def test_scan_analyze_below_one_bin_or_frame_is_exit_2(capsys, F, T):
    code, out, err = run(capsys, "scan-analyze", "--F", str(F), "--T", str(T))
    assert code == 2
    assert "error: config" in err and "--F and --T" in err
    assert out == ""


def test_scan_analyze_builds_no_coverage_map(capsys):
    """Coverage extremes come from the per-axis counts: a 300000 x 300000
    grid, whose map would take 671 GiB, is one row."""
    code, out, err = run(capsys, "scan-analyze", "--F", "300000", "--T", "300000",
                         "--set", "kernels=16x8")
    assert code == 0, err
    row = out.strip().splitlines()[1].split(",")
    assert row[0] == "16x8" and int(row[6]) == 0 and int(row[7]) >= 1
