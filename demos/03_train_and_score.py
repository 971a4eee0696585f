#!/usr/bin/env python3
"""End-to-end desk run: synthesize a corpus, train, score, evaluate.

Four synthetic machine classes (distinct harmonic stacks), detuned
anomalies, a small three-kernel model, a short training schedule. Takes a
few minutes on a laptop CPU; the full 40-epoch schedule used by the
acceptance suite pushes held-out AUC to ~1.0.
"""

import tempfile
from pathlib import Path

from soundscan import (LabeledScores, aggregate, auc, cluster_prototypes,
                       load_model, micro_preset, score_test_rows, train)
from soundscan.data import SynthConfig, synth_dataset

workdir = Path(tempfile.mkdtemp(prefix="soundscan_demo_"))
print(f"working under {workdir}")

rows = synth_dataset(SynthConfig(seed=1), workdir / "corpus")
train_rows = [r for r in rows if r.split == "train"]
test_rows = [r for r in rows if r.split == "test"]
print(f"corpus: {len(train_rows)} train / {len(test_rows)} test clips, "
      f"{len({r.machine_type for r in rows})} machine types")

run_cfg = micro_preset(seed=2)
run_cfg.train.epochs = 15  # demo schedule; the preset default is 40
checkpoint = workdir / "model.ckpt"
result = train(rows, run_cfg, out_checkpoint=checkpoint,
               log_path=workdir / "train_log.csv")
print(f"loss: {result.losses[0]:.3f} -> {result.losses[-1]:.3f}, "
      f"final scale {result.scales[-1]:.2f}")

model, _ = load_model(checkpoint)       # loaded once, used by both steps
store = cluster_prototypes(rows, model, mode="per-type",
                           prototypes=run_cfg.scoring.prototypes,
                           seed=run_cfg.model.seed)
scores, _ = score_test_rows(rows, store, model)
score_map = dict(scores)

print(f"\n{'machine type':>12} {'AUC':>7}")
per_class = []
for mtype in sorted({r.machine_type for r in test_rows}):
    members = [r for r in test_rows if r.machine_type == mtype]
    group = LabeledScores([score_map[r.path] for r in members],
                          [1 if r.label == "anomaly" else 0 for r in members],
                          mtype)
    value = auc(group)
    per_class.append(value)
    print(f"{mtype:>12} {value:>7.3f}")
print(f"{'mean':>12} {aggregate(per_class, 'mean'):>7.3f}")
