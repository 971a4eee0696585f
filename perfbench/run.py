"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train_micro --seed 1 --seconds 30 --trace 0

Run from the repository root: the benchmark imports the soundscan package
from ./src. With --trace 0 it prints the end-to-end metrics; with --trace 1
it wraps each layer's public functions, prints per-layer metrics and the
tracing overhead, and writes the spans to .perfbench_work/spans/. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

The exit code is 0 when every correctness check passed, 1 when one failed
(the result is still printed) and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

# BLAS worker threads, fixed before numpy loads: one process, one thread, so
# runs on a shared machine do not contend with themselves.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# (name, unit) in the order printed; BENCHMARK.json lists the same names.
END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_ratio", "ratio"),
    ("items_per_s", "items/s"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
]

_UNITS = {"calls": "count", "s": "s", "self_s": "s", "fwd_s": "s", "rows": "rows",
          "bytes": "bytes"}
# (span, stats): each stat becomes the metric "<span>.<stat>"; fwd_s is a
# module forward's inclusive time.
_LAYER_STATS = [
    ("wavio.read_wav", ("calls", "s", "bytes")),
    ("dsp.stft_magnitude", ("s",)),
    ("dsp.utterance_spectrum", ("s",)),
    ("scanning.scan_array", ("s", "bytes")),
    ("autodiff.conv2d", ("calls", "s")),
    ("autodiff.batch_norm2d", ("calls", "s")),
    ("autodiff.max_pool2d", ("calls", "s")),
    ("autodiff.stats_pool", ("calls", "s")),
    ("autodiff.linear", ("calls", "s")),
    ("autodiff.conv1d", ("calls", "s")),
    ("autodiff.backward", ("calls", "s")),
    ("autodiff.adam_step", ("s",)),
    ("nn.multi_axis_se", ("fwd_s", "self_s")),
    ("network.spectrogram_encoder", ("fwd_s", "self_s")),
    ("network.patch_branch", ("fwd_s", "self_s")),
    ("network.spectrum_encoder", ("fwd_s", "self_s")),
    ("network.load_model", ("calls", "s")),
    ("training.features_for_batch", ("s",)),
    ("training.adacos_loss", ("s",)),
    ("checkpoint.load_container", ("calls", "s")),
    ("checkpoint.save_container", ("s", "bytes")),
    ("scoring.kmeans", ("calls", "rows", "s")),
    ("scoring.anomaly_score", ("calls", "s")),
    ("scoring.PrototypeStore.sets_for", ("calls", "s")),
    ("scoring.embed_rows", ("rows", "s")),
    ("metrics.evaluate", ("s",)),
    ("data.load_manifest", ("s",)),
    ("data.synth_dataset", ("s",)),
    ("cli.main", ("calls", "s", "self_s")),
]
PER_LAYER = [(f"{span}.{stat}", span, stat, _UNITS[stat])
             for span, stat_names in _LAYER_STATS for stat in stat_names]
PER_LAYER += [("trace.overhead_pct", None, None, "%"), ("trace.spans", None, None, "count")]


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _environment(args, soundscan_module) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "soundscan": soundscan_module.__version__,
        "preset": "micro" if args.workload.endswith("_micro") else "embeddings only",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _layer_values(summary: dict) -> dict:
    values = {}
    for metric, span, stat, _ in PER_LAYER:
        if span is None:
            continue
        entry = summary.get(span)
        key = "s" if stat == "fwd_s" else stat
        values[metric] = entry[key] if entry is not None else 0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="soundscan benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "soundscan", "__init__.py")):
        return _fail(f"no soundscan sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    import soundscan

    if os.path.dirname(os.path.abspath(soundscan.__file__)) != os.path.join(SRC, "soundscan"):
        return _fail(f"imported soundscan from {soundscan.__file__}, not from {SRC}")

    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")

    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(workdir)
    checks = workloads.Checks()
    try:
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.patched() as patches:
                tracing.install(patches, tracer)
                run = workloads.run_workload(workload, args.seed, args.seconds, workdir,
                                             patches, checks)
            detail = {**run.detail(), "trace_overhead_units": len(workloads.OVERHEAD_ORDER)}
            values = _layer_values(tracing.summarize(tracer.spans))
            values["trace.spans"] = len(tracer.spans)
            tracer.write(os.path.join(work_root, "spans",
                                      f"{args.workload}-seed{args.seed}.jsonl"))
            traced_s, untraced_s = workloads.tracing_overhead(run, tracer)
            values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
            units = {name: unit for name, _, _, unit in PER_LAYER}
        else:
            with tracing.patched() as patches:
                run = workloads.run_workload(workload, args.seed, args.seconds, workdir,
                                             patches, checks)
            values = workloads.end_to_end(run, checks)
            detail = run.detail()
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in checks.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    print(json.dumps({"environment": _environment(args, soundscan), "detail": detail}))
    for name, unit in units.items():
        print(f"{name:<40} {values[name]:>16.6f} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if checks.failed else 0


if __name__ == "__main__":
    sys.exit(main())
