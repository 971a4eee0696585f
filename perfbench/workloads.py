"""The benchmark's workloads.

Each workload runs one kind of work for the whole run, closed loop in one
process, so every end-to-end metric of a workload describes that work:

    train_micro       training steps of soundscan.training.train
    infer_micro       the `soundscan embed` / `score` / `eval` chain, in-process
    prototypes_dcase  scoring.kmeans, PrototypeStore and anomaly_score on
                      DCASE 2023-sized embedding groups

A run is set-up (timed, reported as setup_s) followed by a fixed number of
units of the workload's work. The unit count depends on --seconds alone,
never on how fast the units ran, so per-layer counts repeat exactly between
runs and per-layer seconds follow the layer's speed. Every unit records the
latency of its operations (a training step, an `embed` command, a prototype
section); items_per_s is all items over all unit time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from soundscan import checkpoint, cli, config, data, metrics, scoring, training

from . import stats, tracing

# Captured before any patching, so the benchmark's own checks add no spans.
_load_container = checkpoint.load_container

UNIT_NORM_TOL = 1e-9
# A workload's unit count is that of a run with --seconds equal to this;
# other values scale it. BENCHMARK.json's run_seconds is the same.
REFERENCE_SECONDS = 30
# Traced and untraced units, in the order the tracing overhead runs them:
# ABBA cancels a steady drift of the machine's speed.
OVERHEAD_ORDER = (False, True, True, False)

# The synthetic corpus: 4 machine types x 30 normal train clips, band-noise
# anomalies (detune anomalies pin the AUC at 1.0), 40 + 20 test clips per type.
CORPUS = dict(classes=4, train_clips=30, test_normal=40, test_anomaly=20,
              anomaly_kind="band-noise")
TRAIN_CLIPS = CORPUS["classes"] * CORPUS["train_clips"]


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


def derive_seeds(seed: int) -> dict:
    """Independent sub-seeds for each generated input."""
    corpus, model, groups = (int(s) for s in np.random.SeedSequence(seed).generate_state(3))
    return {"corpus": corpus, "model": model, "groups": groups}


def unit_count(reference_units: int, seconds: float) -> int:
    """Units in a run of `seconds`: the reference count scaled, at least one."""
    return max(1, round(reference_units * seconds / REFERENCE_SECONDS))


def _unit(x):
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _unit_norm(x) -> bool:
    return bool(np.all(np.abs(np.linalg.norm(x, axis=-1) - 1.0) <= UNIT_NORM_TOL))


# -- inputs -----------------------------------------------------------------------

@dataclass(frozen=True)
class ProtoShape:
    """Synthetic embedding groups for the prototype workload.

    Each machine type gets `source_rows` and `target_rows` normal train
    embeddings drawn around `modes` sub-cluster directions, and test rows:
    normals from the same modes and anomalies from unseen ones.
    """

    types: int
    source_rows: int
    target_rows: int
    test_normal: int
    test_anomaly: int
    dim: int
    prototypes: int
    modes: int


# DCASE 2023 Task 2 sizes (990 source + 10 target train clips per section) at
# the default preset's 640-d embedding and 16 prototypes.
DCASE_GROUPS = ProtoShape(types=2, source_rows=990, target_rows=10, test_normal=100,
                          test_anomaly=100, dim=640, prototypes=16, modes=24)


def make_groups(shape: ProtoShape, seed: int) -> dict:
    """Seeded unit-norm embeddings: train groups keyed (type, domain) and
    labeled test rows with their embeddings."""
    rng = np.random.default_rng(seed)
    d = shape.dim

    def around(centers, n):
        picks = rng.integers(len(centers), size=n)
        noise = rng.standard_normal((n, d)) / np.sqrt(d)
        return _unit(centers[picks] + 0.35 * noise)

    train_groups, test_rows, test_emb = {}, [], {}
    for t in range(shape.types):
        machine = f"type{t:02d}"
        axis = _unit(rng.standard_normal(d))
        source = _unit(axis + 0.6 * _unit(rng.standard_normal((shape.modes, d))))
        # few target modes, so that 10 target train rows cover each of them
        target = _unit(source[:2] + 0.5 * _unit(rng.standard_normal((2, d))))
        # anomaly modes sit twice as far from the type's axis as normal ones
        unseen = _unit(axis + 1.2 * _unit(rng.standard_normal((shape.modes, d))))
        train_groups[(machine, "source")] = around(source, shape.source_rows)
        train_groups[(machine, "target")] = around(target, shape.target_rows)
        for i in range(shape.test_normal):
            domain = ("source", "target")[i % 2]
            centers = target if domain == "target" else source
            path = f"{machine}/test/normal_{i:04d}"
            test_rows.append(data.ManifestRow(path, machine, "", domain, "test", "normal"))
            test_emb[path] = around(centers, 1)[0]
        for i in range(shape.test_anomaly):
            path = f"{machine}/test/anomaly_{i:04d}"
            test_rows.append(data.ManifestRow(path, machine, "", "", "test", "anomaly"))
            test_emb[path] = around(unseen, 1)[0]
    return {"train": train_groups, "test_rows": test_rows, "test_emb": test_emb}


def groups_digest(groups) -> str:
    h = hashlib.sha256()
    for key in sorted(groups["train"]):
        h.update(groups["train"][key].tobytes())
    for row in groups["test_rows"]:
        h.update(row.path.encode())
        h.update(groups["test_emb"][row.path].tobytes())
    return h.hexdigest()


def make_corpus(workdir, seed: int) -> dict:
    """The synthetic WAV corpus and its manifests, from `seed` alone."""
    corpus_dir = os.path.join(workdir, "corpus")
    rows = data.synth_dataset(data.SynthConfig(seed=seed, **CORPUS), corpus_dir)
    return {"dir": corpus_dir, "rows": rows,
            "manifest": os.path.join(corpus_dir, "manifest.csv")}


def corpus_digest(corpus) -> str:
    """Digest of the rows (paths relative to the corpus) and the WAV bytes."""
    h = hashlib.sha256()
    for row in corpus["rows"]:
        rel = os.path.relpath(row.path, corpus["dir"])
        h.update(repr((rel,) + dataclasses.astuple(row)[1:]).encode())
        with open(row.path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


# -- workloads --------------------------------------------------------------------

class Workload:
    """One workload's run: set-up, then units of its work.

    Subclasses define `make_inputs` (generated from the seed alone), an
    optional one-off `prepare` that set-up includes, and `unit`, which does
    one unit of work and records its operations' latencies in `op_seconds`
    and the items they handled in `items`.
    """

    name = ""
    reference_units = 0     # units in a run of REFERENCE_SECONDS
    setup_repeats = 3       # set-ups per run; setup_s uses their median

    def __init__(self, workdir: str, seed: int, checks: Checks):
        self.workdir, self.checks = workdir, checks
        self.seeds = derive_seeds(seed)
        self.inputs = None
        self.setup_seconds, self.prepare_seconds = [], 0.0
        self.unit_seconds, self.op_seconds, self.items = [], [], 0

    def make_inputs(self, target: str) -> tuple:
        """(inputs, digest) generated under `target`."""
        raise NotImplementedError

    def install(self, patches) -> None:
        """Patch what the workload times from outside the library."""

    def prepare(self) -> None:
        """One-off work after the inputs exist, timed into setup_s."""

    def unit(self) -> float:
        raise NotImplementedError

    def set_up(self) -> None:
        """Generate the inputs `setup_repeats` times and prepare once.

        The first set-up's inputs feed the run; every later one must
        reproduce them byte for byte and is deleted."""
        digest = None
        for i in range(self.setup_repeats):
            target = os.path.join(self.workdir, f"setup{i}")
            start = time.perf_counter()
            inputs, made = self.make_inputs(target)
            self.setup_seconds.append(time.perf_counter() - start)
            if self.inputs is None:
                self.inputs, digest = inputs, made
            else:
                self.checks.check(made == digest,
                                  "inputs differ between set-ups with the same seed")
                shutil.rmtree(target, ignore_errors=True)
        start = time.perf_counter()
        self.prepare()
        self.prepare_seconds = time.perf_counter() - start

    def _timed_unit(self, body) -> float:
        start = time.perf_counter()
        body()
        seconds = time.perf_counter() - start
        self.unit_seconds.append(seconds)
        return seconds

    def _tail(self) -> tuple:
        """(percentile, seconds); fewer than TAIL_MIN_BEYOND + 1 operations
        report the slowest as p100."""
        return stats.tail_percentile(self.op_seconds) or (100, max(self.op_seconds))

    def metrics(self) -> dict:
        return {"setup_s": statistics.median(self.setup_seconds) + self.prepare_seconds,
                "items_per_s": self.items / sum(self.unit_seconds),
                "op_ms_p50": 1e3 * statistics.median(self.op_seconds),
                "op_ms_tail": 1e3 * self._tail()[1]}

    def detail(self) -> dict:
        return {"units": len(self.unit_seconds), "ops": len(self.op_seconds),
                "op_tail_percentile": self._tail()[0],
                "setup_inputs_s": self.setup_seconds, "prepare_s": self.prepare_seconds}


class StepClock:
    """Times each training step from outside train(): a step starts when its
    batch features are computed and ends when the head is re-normalized,
    the last call of the step."""

    def __init__(self):
        self.durations = []
        self.clips = []
        self._start = None
        self._batch = 0

    def install(self, patches) -> None:
        def on_start(fn):
            def features_for_batch(waves, model_cfg):
                self._start = time.perf_counter()
                self._batch = len(waves)
                return fn(waves, model_cfg)
            return features_for_batch

        def on_end(fn):
            def renormalize(head):
                result = fn(head)
                self.durations.append(time.perf_counter() - self._start)
                self.clips.append(self._batch)
                return result
            return renormalize

        patches.function("soundscan.training", "features_for_batch", on_start)
        patches.method("soundscan.training", "SubClusterHead", "renormalize", on_end)


def train_config(model_seed: int, epochs: int):
    """The micro preset (batch 16) with `epochs` epochs."""
    cfg = config.micro_preset(seed=model_seed)
    return dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=epochs))


class TrainMicro(Workload):
    """One-epoch train() calls on the micro corpus; an operation is a step.

    The first call is an untimed warm-up that fills the gather-index caches;
    it belongs to set-up. Every call trains from the same seed, so each
    call's loss must repeat the warm-up's exactly.
    """

    name = "train_micro"
    reference_units = 6     # 6 calls x 8 steps of about 0.5 s

    def __init__(self, workdir, seed, checks):
        super().__init__(workdir, seed, checks)
        self.clock = StepClock()
        self.steps_per_call = -(-TRAIN_CLIPS // config.micro_preset().train.batch_size)
        self.losses = []

    def make_inputs(self, target):
        corpus = make_corpus(target, self.seeds["corpus"])
        return corpus, corpus_digest(corpus)

    def install(self, patches):
        self.clock = StepClock()
        self.clock.install(patches)

    def _train_call(self) -> None:
        clock, checks = self.clock, self.checks
        clock.durations.clear()
        clock.clips.clear()
        result = training.train(self.inputs["rows"], train_config(self.seeds["model"], 1),
                                log_stream=io.StringIO())
        checks.check(len(clock.durations) == self.steps_per_call,
                     f"expected {self.steps_per_call} steps, timed {len(clock.durations)}")
        checks.check(len(result.losses) == 1 and np.isfinite(result.losses[0]),
                     f"loss {result.losses} is not one finite value")
        self.losses.append(result.losses[0])
        checks.check(self.losses[-1] == self.losses[0],
                     "loss differs between train() calls with the same seed")

    def prepare(self):
        self._train_call()

    def unit(self):
        seconds = self._timed_unit(self._train_call)
        self.op_seconds.extend(self.clock.durations)
        self.items += sum(self.clock.clips)
        return seconds

    def metrics(self):
        values = super().metrics()
        # clips per second of step time: train() set-up and teardown excluded
        values["items_per_s"] = self.items / sum(self.op_seconds)
        return values

    def detail(self):
        return {**super().detail(), "item": "training clip", "op": "training step",
                "loss": self.losses[0]}


def _cli(argv, checks: Checks) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    checks.check(code == 0, f"soundscan {argv[0]} exited {code}: {err.getvalue().strip()}")
    return seconds, err.getvalue()


# Trains the infer workload's checkpoint in a child process, so that the
# benchmark process's peak RSS is that of inference alone.
_TRAIN_CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
from soundscan import data, training
from perfbench.workloads import train_config
rows = data.load_manifest(sys.argv[3])
training.train(rows, train_config(int(sys.argv[4]), int(sys.argv[5])),
               out_checkpoint=sys.argv[6], log_stream=sys.stderr)
"""


class InferMicro(Workload):
    """Passes of the CLI chain on the micro corpus from a checkpoint trained
    in set-up: `embed` on each chunk of the test clips, then `score` (with
    `--store`) and `eval`. An operation is one chunk's `embed` command.

    Set-up trains the checkpoint for CHECKPOINT_EPOCHS in a child process
    and runs one untimed `embed` to fill the gather-index caches.
    """

    name = "infer_micro"
    reference_units = 3     # passes of about 11 s
    CHUNK = 24
    CHECKPOINT_EPOCHS = 1

    def make_inputs(self, target):
        corpus = make_corpus(target, self.seeds["corpus"])
        tests = [r for r in corpus["rows"] if r.split == "test"]
        corpus["chunks"] = []
        for i in range(0, len(tests), self.CHUNK):
            path = os.path.join(corpus["dir"], f"chunk{i // self.CHUNK:02d}.csv")
            data.save_manifest(tests[i:i + self.CHUNK], path)
            corpus["chunks"].append((path, tests[i:i + self.CHUNK]))
        return corpus, corpus_digest(corpus)

    def prepare(self):
        inputs = self.inputs
        self.ckpt = os.path.join(self.workdir, "model.ckpt")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        child = subprocess.run(
            [sys.executable, "-c", _TRAIN_CHILD, src, root, inputs["manifest"],
             str(self.seeds["model"]), str(self.CHECKPOINT_EPOCHS), self.ckpt],
            stdin=subprocess.DEVNULL, capture_output=True, text=True)
        self.checks.check(child.returncode == 0,
                          f"checkpoint training exited {child.returncode}: {child.stderr}")
        self.train_log = child.stderr.strip()
        self.paths = {name: os.path.join(self.workdir, name)
                      for name in ("emb.bin", "scores.csv", "store.bin", "report.csv")}
        self.quality = []
        _cli(["embed", "--manifest", inputs["chunks"][0][0], "--checkpoint", self.ckpt,
              "--out", self.paths["emb.bin"]], self.checks)

    def _pass(self) -> None:
        inputs, checks, paths = self.inputs, self.checks, self.paths
        preset = config.micro_preset().scoring
        for manifest, rows in inputs["chunks"]:
            seconds, _ = _cli(["embed", "--manifest", manifest, "--checkpoint", self.ckpt,
                               "--out", paths["emb.bin"]], checks)
            self.op_seconds.append(seconds)
            arrays, _ = _load_container(paths["emb.bin"])
            for row in rows:
                emb = arrays.get(f"emb/{row.path}")
                checks.check(emb is not None and _unit_norm(emb),
                             f"embedding of {row.path} missing or not unit-norm")
        _, score_err = _cli(
            ["score", "--set", f"seed={self.seeds['model']}",
             "--set", f"prototypes={preset.prototypes}",
             "--set", f"scoring_mode={preset.scoring_mode}",
             "--train-manifest", inputs["manifest"], "--test-manifest", inputs["manifest"],
             "--checkpoint", self.ckpt, "--out", paths["scores.csv"],
             "--store", paths["store.bin"]], checks)
        checks.check("no prototypes for" not in score_err, "score left rows without a group")
        _cli(["eval", "--scores", paths["scores.csv"], "--truth", inputs["manifest"],
              "--grouping", preset.scoring_mode, "--aggregate", preset.aggregate,
              "--out", paths["report.csv"]], checks)

    def unit(self):
        seconds = self._timed_unit(self._pass)
        checks, paths = self.checks, self.paths
        tests = [r.path for r in self.inputs["rows"] if r.split == "test"]
        self.items += len(tests)
        scores = cli._read_scores(paths["scores.csv"])
        checks.check(sorted(scores) == sorted(tests),
                     "score file does not hold exactly one score per test row")
        checks.check(all(np.isfinite(list(scores.values()))), "non-finite anomaly score")
        store, _ = _load_container(paths["store.bin"])
        for name, centroids in store.items():
            if name.startswith("proto/"):
                checks.check(_unit_norm(centroids), f"centroids {name!r} not unit-norm")
        with open(paths["report.csv"], encoding="utf-8") as fh:
            rows = [ln.split(",") for ln in fh.read().splitlines()[1:]
                    if ln and not ln.startswith("aggregate_")]
        self.quality.append(([float(r[1]) for r in rows], [float(r[2]) for r in rows]))
        checks.check(self.quality[-1] == self.quality[0],
                     "AUC/pAUC differ between identical passes")
        return seconds

    def detail(self):
        aucs, paucs = self.quality[0]
        return {**super().detail(), "item": "test clip through embed + score + eval",
                "op": f"embed command on {self.CHUNK} clips",
                "auc_mean": float(np.mean(aucs)), "pauc_mean": float(np.mean(paucs)),
                "checkpoint_training": self.train_log.splitlines()}


class PrototypesDcase(Workload):
    """Prototype sections on DCASE 2023-sized groups; an operation is one
    section: scoring.kmeans on a machine type's 990-row source and 10-row
    target groups into a PrototypeStore, then PrototypeStore.sets_for +
    scoring.anomaly_score for each of the type's 200 test rows and
    metrics.evaluate on them. Sections cycle through the machine types."""

    name = "prototypes_dcase"
    reference_units = 5     # sections of about 6 s
    setup_repeats = 9
    shape = DCASE_GROUPS

    def make_inputs(self, target):
        groups = make_groups(self.shape, self.seeds["groups"])
        return groups, groups_digest(groups)

    def prepare(self):
        self.inertia, self.auc = {}, {}

    def _section(self, machine: str) -> None:
        groups, checks = self.inputs, self.checks
        store = scoring.PrototypeStore("per-type")
        inertia = 0.0
        for gi, key in enumerate(sorted(groups["train"])):
            if key[0] != machine:
                continue
            centroids, group_inertia = scoring.kmeans(
                groups["train"][key], self.shape.prototypes,
                seed=[self.seeds["model"], gi], return_inertia=True)
            store.add(scoring.PrototypeSet(key[0], key[1], centroids))
            inertia += group_inertia
            self.items += len(groups["train"][key])
        rows = [r for r in groups["test_rows"] if r.machine_type == machine]
        scores, unknown = {}, 0
        for row in rows:
            sets = store.sets_for(row)
            if not sets:
                unknown += 1
                continue
            scores[row.path] = scoring.anomaly_score(groups["test_emb"][row.path], sets)
        self.items += len(rows)
        report = metrics.evaluate(scores, rows, "per-type", "mean")

        for ps in store.sets.values():
            checks.check(_unit_norm(ps.centroids),
                         f"centroids {ps.group_key}/{ps.domain} not unit-norm")
        checks.check(self.inertia.setdefault(machine, inertia) == inertia,
                     f"{machine}: K-Means inertia differs between sections")
        checks.check(unknown == 0, f"{unknown} test rows found no prototype set")
        checks.check(len(scores) == len(rows), "not one score per test row")
        checks.check(all(0.0 <= s <= 2.0 for s in scores.values()), "score outside [0, 2]")
        for key, auc, _ in report.per_group:
            self.auc[key] = auc
            checks.check(auc >= 0.9, f"{key}: AUC {auc:.3f} on separable synthetic groups")

    def unit(self):
        machine = f"type{len(self.unit_seconds) % self.shape.types:02d}"
        seconds = self._timed_unit(lambda: self._section(machine))
        self.op_seconds.append(seconds)
        return seconds

    def detail(self):
        return {**super().detail(), "item": "embedding row clustered or scored",
                "op": "prototype section", "inertia": self.inertia, "auc": self.auc,
                "train_groups": {f"{k[0]}/{k[1]}": len(v)
                                 for k, v in sorted(self.inputs["train"].items())}}


WORKLOADS = {w.name: w for w in (TrainMicro, InferMicro, PrototypesDcase)}


def run_workload(cls, seed: int, seconds: float, workdir: str, patches,
                 checks: Checks) -> Workload:
    """Set up and run a workload for `seconds`; returns it, run."""
    workload = cls(workdir, seed, checks)
    workload.install(patches)
    workload.set_up()
    for _ in range(unit_count(cls.reference_units, seconds)):
        workload.unit()
    return workload


def end_to_end(workload: Workload, checks: Checks) -> dict:
    values = workload.metrics()
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["ok_ratio"] = (checks.attempted - checks.failed) / max(checks.attempted, 1)
    return values


def tracing_overhead(workload: Workload, tracer) -> tuple:
    """(traced, untraced): total seconds of units run with and without
    `tracer`, in OVERHEAD_ORDER, after the run.

    The spans of these units are dropped, so per-layer figures stay those of
    the run itself."""
    kept = len(tracer.spans)
    totals = {False: 0.0, True: 0.0}
    for traced in OVERHEAD_ORDER:
        with tracing.patched() as patches:
            if traced:
                tracing.install(patches, tracer)
            workload.install(patches)
            totals[traced] += workload.unit()
    del tracer.spans[kept:]
    return totals[True], totals[False]
