"""Command-line entry point wiring the pipeline end to end.

Subcommands: synth, train, embed, score, eval, scan-analyze. Every run
requires a seed (config file or --set seed=N). Exit codes: 0 ok, 2 config
error, 3 data error, 4 runtime error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

from . import checkpoint, config, data, metrics, scanning, scoring, workers
from .errors import ConfigError, DataError


def _add_common(parser, needs_seed=True):
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a config key")
    parser.add_argument("--threads", type=int,
                        help="cap the embedding workers, the training branch "
                             "workers and the K-Means restart workers (default: "
                             "one per usable core while BLAS is held to one "
                             "thread) and, with threadpoolctl, the BLAS threads")
    parser.set_defaults(needs_seed=needs_seed)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="soundscan",
        description="machine anomalous sound detection via multi-scale "
                    "spectrogram scanning")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic labeled corpus")
    _add_common(p)
    p.add_argument("--out", required=True, help="output corpus directory")

    p = sub.add_parser("train", help="train an embedding model")
    _add_common(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log", help="CSV log path (epoch,mean_loss,adacos_scale,seconds)")

    p = sub.add_parser("embed", help="write embeddings for manifest clips")
    _add_common(p, needs_seed=False)
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("score", help="build prototypes and score test clips")
    _add_common(p, needs_seed=True)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="score CSV path")
    p.add_argument("--store", help="also persist the prototype store here")

    p = sub.add_parser("eval", help="AUC / pAUC report from scores and truth")
    _add_common(p, needs_seed=False)
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--grouping", choices=metrics.GROUPINGS,
                   help="override the config's scoring_mode")
    p.add_argument("--aggregate", choices=metrics.AGGREGATE_KINDS,
                   help="override the config's aggregate kind")
    p.add_argument("--out", help="report CSV path (default stdout only)")

    p = sub.add_parser("scan-analyze", help="per-kernel scan geometry table")
    _add_common(p, needs_seed=False)
    p.add_argument("--F", type=int, required=True, help="spectrogram frequency bins")
    p.add_argument("--T", type=int, required=True, help="spectrogram frames")
    return parser


def _load_run_config(args) -> config.RunConfig:
    cfg = config.load_config(args.config) if args.config else config.RunConfig()
    pairs = []
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        pairs.append((key.strip(), value.strip()))
    cfg = config.apply_overrides(cfg, pairs)
    cfg.validate(require_seed=args.needs_seed)
    return cfg


def _listed_wavs(option, rows) -> list:
    """(label, path) input pairs for `checkpoint.check_outputs`: the WAVs
    that the manifest given as `option` lists. A command checks them once
    the manifest is loaded, before it decodes any WAV."""
    return [(f"a WAV listed in {option}", row.path) for row in rows]


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    synth_cfg = data.SynthConfig(
        **vars(cfg.synth), duration_seconds=cfg.model.clip_seconds,
        sample_rate=cfg.model.sample_rate, seed=cfg.model.seed)
    rows = data.synth_dataset(synth_cfg, args.out)
    print(f"wrote {len(rows)} clips under {args.out} "
          f"({sum(r.split == 'train' for r in rows)} train)")
    return 0


def cmd_train(args) -> int:
    from .training import train  # deferred: heavy import

    cfg = _load_run_config(args)
    outputs = [("--out-checkpoint", args.out_checkpoint), ("--log", args.log)]
    checkpoint.check_outputs(outputs, [("--manifest", args.manifest), ("--config", args.config)])
    rows = data.load_manifest(args.manifest)
    checkpoint.check_outputs(outputs, _listed_wavs("--manifest", rows))
    train(rows, cfg, out_checkpoint=args.out_checkpoint, log_path=args.log)
    print(f"checkpoint written to {args.out_checkpoint}")
    return 0


def cmd_embed(args) -> int:
    from .network import load_model

    _load_run_config(args)      # a bad --config or --set is refused, as elsewhere
    outputs = [("--out", args.out)]
    checkpoint.check_outputs(outputs, [
        ("--manifest", args.manifest), ("--checkpoint", args.checkpoint),
        ("--config", args.config)])
    rows = data.load_manifest(args.manifest)
    checkpoint.check_outputs(outputs, _listed_wavs("--manifest", rows))
    model, _ = load_model(args.checkpoint)
    embeddings = scoring.embed_rows(model, rows)
    arrays = {f"emb/{row.path}": emb for row, emb in zip(rows, embeddings)}
    checkpoint.save_container(args.out, arrays, f"embed_dim={model.embed_dim}\n")
    print(f"wrote {len(rows)} embeddings to {args.out}")
    return 0


def cmd_score(args) -> int:
    from .network import load_model

    cfg = _load_run_config(args)
    outputs = [("--out", args.out), ("--store", args.store)]
    checkpoint.check_outputs(outputs, [
        ("--train-manifest", args.train_manifest), ("--test-manifest", args.test_manifest),
        ("--checkpoint", args.checkpoint), ("--config", args.config)])
    train_rows = data.load_manifest(args.train_manifest)
    test_rows = data.load_manifest(args.test_manifest)
    checkpoint.check_outputs(outputs, _listed_wavs("--train-manifest", train_rows)
                             + _listed_wavs("--test-manifest", test_rows))
    model, _ = load_model(args.checkpoint)
    store = scoring.cluster_prototypes(
        train_rows, model, cfg.scoring.scoring_mode,
        cfg.scoring.prototypes, cfg.model.seed)
    if args.store:
        store.save(args.store, config.config_text(cfg))
    scores, unknown = scoring.score_test_rows(test_rows, store, model)
    with checkpoint.atomic_write(args.out) as fh:
        fh.write("filename,score\n")
        for path, value in scores:
            fh.write(f"{path},{value:.6f}\n")
    print(f"wrote {len(scores)} scores to {args.out}")
    if unknown:
        print("no prototypes for:", file=sys.stderr)
        for path in unknown:
            print(f"  {path}", file=sys.stderr)
    return 0


def _read_scores(path) -> dict:
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"score file not found: {path}") from None
    with fh:
        header = fh.readline().strip()
        if header != "filename,score":
            raise DataError(f"{path}: expected header filename,score")
        out = {}
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            name, _, value = line.rpartition(",")
            try:
                score = float(value)
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad score {value!r}") from None
            if not math.isfinite(score):
                raise DataError(f"{path}:{lineno}: score {value!r} is not finite")
            if name in out:
                raise DataError(f"{path}:{lineno}: {name!r} is scored twice")
            out[name] = score
    return out


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    checkpoint.check_outputs([("--out", args.out)], [
        ("--scores", args.scores), ("--truth", args.truth), ("--config", args.config)])
    score_map = _read_scores(args.scores)
    truth = data.load_manifest(args.truth)
    report = metrics.evaluate(score_map, truth,
                              grouping=args.grouping or cfg.scoring.scoring_mode,
                              kind=args.aggregate or cfg.scoring.aggregate)
    lines = ["group,auc,pauc"]
    for key, a, pa in report.per_group:
        lines.append(f"{key},{a:.6f},{pa:.6f}")
    lines.append(f"aggregate_{report.kind},{report.aggregate:.6f},")
    csv_text = "\n".join(lines) + "\n"

    width = max(len(key) for key, _, _ in report.per_group)
    width = max(width, len(f"aggregate ({report.kind})"))
    print(f"{'group':<{width}}  {'AUC':>8}  {'pAUC':>8}")
    for key, a, pa in report.per_group:
        print(f"{key:<{width}}  {a:>8.4f}  {pa:>8.4f}")
    print(f"{f'aggregate ({report.kind})':<{width}}  {report.aggregate:>8.4f}")
    if args.out:
        with checkpoint.atomic_write(args.out) as fh:
            fh.write(csv_text)
    else:
        print()
        print(csv_text, end="")
    return 0


def cmd_scan_analyze(args) -> int:
    cfg = _load_run_config(args)
    if args.F < 1 or args.T < 1:
        raise ConfigError(f"--F and --T must be >= 1, got {args.F} and {args.T}")
    m = cfg.model
    print("kernel,h,w,n_f,n_t,patches,min_coverage,max_coverage,patch_bytes")
    for box in m.kernels:
        if box.h > args.F or box.w > args.T:
            print(f"{box},{box.h},{box.w},0,0,0,0,0,0")
            print(f"warning: kernel {box} larger than {args.F}x{args.T}, skipped",
                  file=sys.stderr)
            continue
        plan = m.scan_plan(args.F, args.T, box)
        # coverage is an outer product of non-negative counts
        f_cover, t_cover = scanning.axis_coverage(args.F, args.T, plan)
        print(f"{box},{box.h},{box.w},{plan.n_f},{plan.n_t},{plan.patch_count},"
              f"{f_cover.min() * t_cover.min()},{f_cover.max() * t_cover.max()},"
              f"{plan.patch_cells * 8}")
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "embed": cmd_embed,
    "score": cmd_score,
    "eval": cmd_eval,
    "scan-analyze": cmd_scan_analyze,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.threads is not None and args.threads < 1:
            raise ConfigError(f"--threads must be >= 1, got {args.threads}")
        with contextlib.nullcontext() if args.threads is None else workers.cap(args.threads):
            return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"soundscan: error: config: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:     # CheckpointError included
        print(f"soundscan: error: data: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - single-line runtime category
        print(f"soundscan: error: runtime: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
