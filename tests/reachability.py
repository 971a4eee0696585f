"""The functions of `src/soundscan` that the pipeline's commands never enter.

Runs the fixed-seed micro chain of `chain_digests.py` with `--threads 2`,
then `embed` on its corpus and checkpoint, `embed` on a manifest of one
24-bit PCM copy of a corpus WAV (written with the stdlib `wave` module) and
`scan-analyze` at the preset's spectrogram size, with its default scan
steps and with `scan_mode=counts`, with a profile hook on every thread, and prints
as JSON each module-level function and class method of `src/soundscan`
that no call entered, with its line count:

    PYTHONPATH=src python tests/reachability.py

A decorated function is looked up through `__wrapped__`, a property through
its getter, setter and deleter, and a cached property through its function.
Methods that `dataclasses` generates have no source file in the package and
are left out. The hook is on before the package is imported, so what runs
only at import counts as entered. BLAS is held to one thread first, so that
`workers.pool` opens a worker per core, as the commands do here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import json
import os
import pathlib
import sys
import tempfile
import threading
import wave

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "soundscan"


def _members(namespace) -> list:
    """The functions a module or class namespace holds, unwrapped."""
    out = []
    for value in vars(namespace).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            out += [value.fget, value.fset, value.fdel]
        elif isinstance(value, functools.cached_property):
            out.append(value.func)
        else:
            out.append(value)
    return [inspect.unwrap(fn) for fn in out if inspect.isfunction(fn)]


def defined_functions(module) -> dict:
    """qualified name -> function, for every function whose source is in
    `module`'s file: its own functions and its classes' methods."""
    namespaces = [module] + [cls for cls in vars(module).values()
                             if inspect.isclass(cls) and cls.__module__ == module.__name__]
    return {f"{module.__name__}.{fn.__qualname__}": fn
            for namespace in namespaces for fn in _members(namespace)
            if fn.__code__.co_filename == module.__file__}


def write_int24_copy(src, dst) -> None:
    """A 24-bit PCM copy of the 16-bit PCM WAV `src`: each sample shifted
    left by 8 bits, so that it decodes to the same values."""
    with wave.open(str(src), "rb") as reader:
        params = reader.getparams()
        frames = reader.readframes(params.nframes)
    with wave.open(str(dst), "wb") as writer:
        writer.setparams(params._replace(sampwidth=3))
        writer.writeframes(b"".join(b"\0" + frames[i:i + 2] for i in range(0, len(frames), 2)))


def run_commands(workdir) -> None:
    """The chain, then `embed` (on the corpus and on a 24-bit copy of one
    of its WAVs) and `scan-analyze` (by steps and by counts), in `workdir`."""
    from chain_digests import run_chain

    from soundscan.cli import main
    from soundscan.config import micro_preset
    from soundscan.data import load_manifest, save_manifest

    run_chain(workdir, 2)
    model = micro_preset(5).model
    manifest = os.path.join("corpus", "manifest.csv")
    analyze = ["scan-analyze", "--config", "run.cfg", "--F", str(model.freq_bins),
               "--T", str(model.frames)]
    steps = [["embed", "--threads", "2", "--manifest", manifest,
              "--checkpoint", "m.ckpt", "--out", "emb.bin"],
             ["embed", "--threads", "2", "--manifest", "int24.csv",
              "--checkpoint", "m.ckpt", "--out", "emb24.bin"],
             analyze,
             analyze + ["--set", "scan_mode=counts", "--set", "n_f=4", "--set", "n_t=2"]]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        row = load_manifest(manifest)[0]
        write_int24_copy(row.path, "int24.wav")
        save_manifest([dataclasses.replace(row, path="int24.wav")], "int24.csv")
        for argv in steps:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"soundscan {argv[0]} exited {code}")
    finally:
        os.chdir(cwd)


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        modules = [importlib.import_module(f"soundscan.{path.stem}")
                   for path in sorted(PACKAGE.glob("*.py"))]
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(tmp)
    finally:
        sys.setprofile(None)
        threading.setprofile(None)

    unreached = {name: len(inspect.getsourcelines(fn)[0])
                 for module in modules
                 for name, fn in defined_functions(module).items()
                 if fn.__code__ not in entered}
    print(json.dumps({"functions": len(unreached), "lines": sum(unreached.values()),
                      "unreached": unreached}, indent=1))


if __name__ == "__main__":
    main()
