"""Command-line interface.

Subcommands: gen-synth, train, eval, score, params, grad-check, ablation.
Exit codes: 0 on success, 2 for usage or input problems (missing files,
malformed formats, bad config), 1 for anything unexpected. A reader that
closes stdout early (``wsvad score ... | head -1``) ends the command
quietly, with 0.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .autodiff import ConfigurationError
from .checks import ablation_lattice, full_graph_grad_check
from .config import load_run_config, write_run_config
from .data import SyntheticSpec, load_bag, load_bags, make_synthetic
from .evaluation import evaluate_bags, export_scores_csv, per_video_auc, score_video, write_scores_csv
from .model import count_parameters, load_checkpoint
from .training import TrainingError, fit

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2

# config keys that `wsvad train` also takes as flags: --out-dir X is --set out_dir=X
_TRAIN_FLAG_KEYS = ("train_manifest", "test_manifest", "out_dir", "epochs", "seed")

# FormatError, ConfigurationError, CheckpointError, UndefinedMetricError
# and DimensionError are ValueErrors
_INPUT_ERRORS = (FileNotFoundError, NotADirectoryError, IsADirectoryError, ValueError)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )


def cmd_gen_synth(args) -> int:
    spec = SyntheticSpec(
        n_normal=args.n_normal,
        n_abnormal=args.n_abnormal,
        n_test_normal=args.n_test_normal,
        n_test_abnormal=args.n_test_abnormal,
        clip_count=args.clips,
        feature_dim=args.dims,
        anomaly_span=(args.span_min, args.span_max),
        separation=args.separation,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        class_name=args.class_name,
    )
    if spec.separation == 0:
        print(
            "warning: separation=0 draws anomalous clips from the normal distribution; "
            "the corpus is not separable",
            file=sys.stderr,
        )
    train_manifest, test_manifest = make_synthetic(spec, args.out)
    print(f"train manifest: {train_manifest}")
    print(f"test manifest:  {test_manifest}")
    return EXIT_OK


def _load_splits(cfg):
    if not cfg.train_manifest or not cfg.test_manifest:
        raise ConfigurationError("train_manifest and test_manifest must both be set")
    return load_bags(cfg.train_manifest), load_bags(cfg.test_manifest)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.overrides)
    train_bags, test_bags = _load_splits(cfg)
    model = cfg.build_model()

    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.resume_from is None:  # before the first epoch, so a killed run keeps it
        write_run_config(out / "config.txt", cfg)

    def progress(row):
        if row["auc"] is not None:
            print(
                f"epoch {row['epoch']:4d}  total {row['total']:.4f}  auc {row['auc']:.4f}  "
                f"omega {row['omega']:.3f}  k {row['k']:.2f}"
            )

    result = fit(
        train_bags,
        test_bags,
        model,
        cfg.train_config(),
        out,
        sel_cfg=cfg.selection_config(),
        loss_cfg=cfg.loss_config(),
        resume_from=args.resume_from,
        progress=progress if not args.quiet else None,
    )
    if args.resume_from is not None:  # once fit took the resume: a refused one changes no file
        write_run_config(out / "config.txt", cfg)
    print(f"best auc: {result.best_auc:.6f}")
    print(f"log: {result.log_path}")
    print(f"best checkpoint: {result.best_checkpoint}")
    print(f"final checkpoint: {result.final_checkpoint}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    bags = load_bags(args.manifest)
    if args.scores_dir:
        # each video's scores go to <video id>.csv, its feature file's stem
        shared = [v for v, n in Counter(b.video_id for b in bags).items() if n > 1]
        if shared:
            raise ValueError(f"{args.manifest}: more than one video has the id {shared[0]!r}, "
                             f"so --scores-dir would write each to {shared[0]}.csv")
    result = evaluate_bags(bags, model)
    print(f"frame auc: {result.overall_auc:.6f}")
    for cls, cls_auc in result.per_class.items():
        print(f"class {cls}: {cls_auc:.6f}")
    if args.per_video:
        print(f"per-video mean auc: {per_video_auc(result.records):.6f}")
    if args.scores_dir:
        scores_dir = Path(args.scores_dir)
        scores_dir.mkdir(parents=True, exist_ok=True)
        for record in result.records:
            export_scores_csv(
                scores_dir / f"{record.video_id}.csv",
                record.frame_scores,
                record.frame_labels,
            )
        print(f"scores written to {scores_dir}")
    return EXIT_OK


def cmd_score(args) -> int:
    model = load_checkpoint(args.checkpoint)
    bag = load_bag(args.features, num_frames=args.num_frames, video_id=args.features)
    frame_scores = score_video(bag, model)
    if args.out:
        export_scores_csv(args.out, frame_scores)
        print(f"scores written to {args.out}")
    else:
        write_scores_csv(sys.stdout, frame_scores)
    return EXIT_OK


def cmd_params(args) -> int:
    cfg = load_run_config(args.config, args.overrides)
    mta_cfg = cfg.mta_config()
    hourglass = replace(cfg, head_shape="hourglass").hfc_config()
    conventional = replace(cfg, head_shape="conventional").hfc_config()
    chosen = cfg.hfc_config()

    n = count_parameters(mta_cfg, chosen)
    live = cfg.build_model().params.count_entries()
    n_hour = count_parameters(mta_cfg, hourglass)
    n_conv = count_parameters(mta_cfg, conventional)

    print(f"trainable parameters: {n:,} (~{n / 1e6:.2f}M)")
    print(f"live registry count:  {live:,} ({'match' if live == n else 'MISMATCH'})")
    print(f"hourglass head total:    {n_hour:,}")
    print(f"conventional head total: {n_conv:,}")
    print(f"hourglass/conventional ratio: {n_hour / n_conv:.3f}")
    return EXIT_OK if live == n else EXIT_INTERNAL


def cmd_grad_check(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes:
        # a check that ran nothing must not pass
        raise ConfigurationError(f"--modes names no attention mode: {args.modes!r}")
    all_ok = True
    for mode in modes:
        report = full_graph_grad_check(
            t=args.clips, d=args.dims, mode=mode, seed=args.seed, eps=args.eps, tol=args.tol
        )
        print(f"mode {mode}: {report.summary()}")
        all_ok = all_ok and report.passed
    return EXIT_OK if all_ok else EXIT_INTERNAL


def cmd_ablation(args) -> int:
    cfg = load_run_config(args.config, args.overrides)
    cells = ablation_lattice(cfg, *_load_splits(cfg), cfg.out_dir)
    print(f"{'attention':>9}  {'head':>12}  {'adaptive':>8}  {'antag':>5}  {'best auc':>8}")
    for (mta, hourglass, ais, antag), result in cells.items():
        print(f"{'on' if mta else 'off':>9}  {'hourglass' if hourglass else 'conventional':>12}  "
              f"{'on' if ais else 'off':>8}  {'on' if antag else 'off':>5}  {result.best_auc:8.4f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsvad",
        description="Weakly supervised video anomaly detection on clip features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic weak-label corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    p.add_argument("--n-normal", type=int, default=SyntheticSpec.n_normal)
    p.add_argument("--n-abnormal", type=int, default=SyntheticSpec.n_abnormal)
    p.add_argument("--n-test-normal", type=int, default=SyntheticSpec.n_test_normal)
    p.add_argument("--n-test-abnormal", type=int, default=SyntheticSpec.n_test_abnormal)
    p.add_argument("--clips", type=int, default=SyntheticSpec.clip_count)
    p.add_argument("--dims", type=int, default=SyntheticSpec.feature_dim)
    p.add_argument("--span-min", type=int, default=SyntheticSpec.anomaly_span[0])
    p.add_argument("--span-max", type=int, default=SyntheticSpec.anomaly_span[1])
    p.add_argument("--separation", type=float, default=SyntheticSpec.separation)
    p.add_argument("--noise-sigma", type=float, default=SyntheticSpec.noise_sigma)
    p.add_argument("--class-name", default=SyntheticSpec.class_name)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train on a manifest pair")
    _add_config_args(p)
    for key in _TRAIN_FLAG_KEYS:
        p.add_argument(f"--{key.replace('_', '-')}", dest="overrides", action="append",
                       type=lambda text, key=key: f"{key}={text}", metavar=key.upper(),
                       help=f"same as --set {key}=...")
    p.add_argument("--resume-from", help="previous run directory to continue from")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a labeled manifest")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--scores-dir", help="write per-video frame score CSVs here")
    p.add_argument("--per-video", action="store_true", help="also report the per-video mean AUC")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="score one feature file with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--num-frames", type=int, help="frames in the source video (default: clip count)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("params", help="report trainable parameter counts")
    _add_config_args(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("grad-check", help="finite-difference check of the full loss graph")
    p.add_argument("--clips", type=int, default=8)
    p.add_argument("--dims", type=int, default=16)
    p.add_argument("--modes", default="residual,pure")
    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("ablation", help="train every on/off combination of the four components")
    _add_config_args(p)
    p.set_defaults(func=cmd_ablation)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader stopped early (`wsvad score | head -1`): end quietly, and
        # point stdout at the null device so the flush at exit writes nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())
