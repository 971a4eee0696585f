"""The fixed-seed micro chain and the sha256 of the files it writes.

synth -> train -> score --store -> eval --out, each through
`soundscan.cli.main`, on `micro_preset(5)` with 2 epochs and a 2-class
corpus of 16 train, 10 normal and 8 anomaly test clips per class.
`test_chain_digests.py` compares the digests with `chain_digests.json`, and
the BENCH files' `artifact_digests` come from here. Print them as JSON with

    PYTHONPATH=src python tests/chain_digests.py [--threads N]

BLAS must run at one thread: run as a script, this file sets the BLAS thread
variables before numpy loads, unless they are set already.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib

ARTIFACTS = ("m.ckpt", "store.bin", "scores.csv", "report.csv")
RECORD = pathlib.Path(__file__).with_name("chain_digests.json")


def fingerprint() -> str:
    """numpy version and BLAS build: what the digests are recorded against."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    build = blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}"
    return f"numpy {np.__version__}; {build}"


def run_chain(workdir, threads: int) -> dict:
    """Run the chain in `workdir`, the working directory meanwhile, so that
    the score CSV holds relative paths, with `--threads threads`;
    file -> sha256."""
    from soundscan.cli import main
    from soundscan.config import config_text, micro_preset

    work = pathlib.Path(workdir).resolve()
    cfg = micro_preset(5)
    cfg.train.epochs = 2
    cfg.synth.classes = 2
    cfg.synth.train_clips = 16
    cfg.synth.test_normal = 10
    cfg.synth.test_anomaly = 8
    (work / "run.cfg").write_text(config_text(cfg))
    common = ["--config", "run.cfg", "--threads", str(threads)]
    manifest = os.path.join("corpus", "manifest.csv")
    steps = [["synth", *common, "--out", "corpus"],
             ["train", *common, "--manifest", manifest, "--out-checkpoint", "m.ckpt"],
             ["score", *common, "--train-manifest", manifest, "--test-manifest", manifest,
              "--checkpoint", "m.ckpt", "--out", "scores.csv", "--store", "store.bin"],
             ["eval", *common, "--scores", "scores.csv", "--truth", manifest,
              "--out", "report.csv"]]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in steps:
                code = main(argv)
                if code != 0:
                    raise RuntimeError(f"soundscan {argv[0]} exited {code}")
    finally:
        os.chdir(cwd)
    return {name: hashlib.sha256((work / name).read_bytes()).hexdigest()
            for name in ARTIFACTS}


def read_scores(path) -> dict:
    """filename -> score from a score CSV."""
    lines = pathlib.Path(path).read_text().splitlines()[1:]
    return {name: float(value) for name, _, value in (line.rpartition(",") for line in lines)}


if __name__ == "__main__":
    import argparse
    import tempfile

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(tmp, args.threads)
        print(json.dumps({"fingerprint": fingerprint(), **digests,
                          "scores": read_scores(pathlib.Path(tmp) / "scores.csv")}, indent=1))
