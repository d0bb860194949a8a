"""Command-line front end: synth, train, detect, eval.

Every command is reproducible from (config, seed): outputs are byte-for-byte
identical across runs. On failure a single machine-parsable line
``error: <category>: <message>`` goes to stderr and the exit code encodes the
category (config=2, data=3, format=4, numerics=5, shape=6, io=7, other=1). An
allocation that fails, for instance of a queue sized beyond the memory
there is, is ``error: memory: ...`` with the "other" code 1.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checkpoint as ckpt
from .config import RunConfig, load_config
from .data import (
    annotations_by_id,
    load_annotations,
    load_corpus,
    save_annotations,
    save_corpus,
    synth_generate,
)
from .detection import detect_corpus
from .errors import ConfigError, EventSegError, NumericsError
from .metrics import evaluate_corpus
from .training import run_training, write_loss_csv

_EXIT_CODES = {"config": 2, "data": 3, "format": 4, "numerics": 5, "shape": 6, "io": 7}


def _exit_code(category: str) -> int:
    return _EXIT_CODES.get(category.split(".")[0], 1)


def cmd_synth(cfg: RunConfig, args) -> int:
    cfg.validate()
    out = Path(args.out)
    corpus, annotations = synth_generate(cfg.synth)
    save_corpus(corpus, out / "features")
    save_annotations(annotations, out / "annotations.json")
    total = sum(seq.num_frames for seq in corpus)
    print(f"wrote {len(corpus)} videos ({total} frames) to {out / 'features'}")
    print(f"wrote annotations to {out / 'annotations.json'}")
    return 0


def cmd_train(cfg: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus = load_corpus(Path(cfg.paths.data_dir))
    checkpoint_path = Path(args.checkpoint or out / "checkpoint.bin")

    def progress(step, losses):
        print(
            f"step {step}: contrastive={losses['contrastive']:.4f} "
            f"reconstruction={losses['reconstruction']:.4f} total={losses['total']:.4f}"
        )

    result = run_training(corpus, cfg, progress)
    write_loss_csv(result.history, out / "training_log.csv")
    ckpt.save_model(
        checkpoint_path, result.encoders, result.reconstructor, result.queue,
        cfg.detector.window,
    )
    if result.diverged:
        raise NumericsError(
            f"training diverged after step {result.completed_steps}; "
            f"last good checkpoint at {checkpoint_path}"
        )
    print(f"trained {result.completed_steps} steps, checkpoint at {checkpoint_path}")
    return 0


def cmd_detect(cfg: RunConfig, args) -> int:
    if not args.checkpoint:
        raise ConfigError("detect needs --checkpoint")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    enc, rec, _, meta = ckpt.load_model(args.checkpoint)
    if meta["window"] != cfg.detector.window:
        raise ConfigError(
            f"checkpoint was trained with window {meta['window']}, "
            f"detector config uses {cfg.detector.window}"
        )
    # A corpus with no videos yields an empty detections file, not an error.
    # detect_corpus checks every video's width and length before any block runs.
    corpus = load_corpus(Path(cfg.paths.data_dir), allow_empty=True)
    detections, signals = detect_corpus(corpus, enc, rec, cfg.detector)
    if args.dump_trajectory:
        traj_dir = out / "trajectories"
        traj_dir.mkdir(parents=True, exist_ok=True)
        for vid, (raw, smoothed, grad) in signals.items():
            with open(traj_dir / f"{vid}.csv", "w") as fh:
                fh.write("frame,error,smoothed,gradient\n")
                for i in range(len(raw)):
                    fh.write(f"{i},{raw[i]:.8f},{smoothed[i]:.8f},{grad[i]:.8f}\n")
    detections_path = Path(cfg.paths.detections or out / "detections.json")
    save_annotations(detections.values(), detections_path)
    n = sum(len(det.boundaries) for det in detections.values())
    summary = f"wrote {n} boundaries for {len(detections)} videos to {detections_path}"
    # An extremum needs extrema_range frames on each side, so a shorter
    # video can have no boundary whatever its trajectory.
    span = 2 * cfg.detector.extrema_range + 1
    ruled_out = sum(video.num_frames < span for video in corpus)
    if ruled_out:
        summary += (f"; extrema_range {cfg.detector.extrema_range} rules out every frame "
                    f"of {ruled_out} of them (fewer than {span} frames)")
    print(summary)
    return 0


def cmd_eval(cfg: RunConfig, args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    detections_path = cfg.paths.detections or str(out / "detections.json")
    annotations_path = cfg.paths.annotations
    if not annotations_path:
        raise ConfigError("eval needs [paths] annotations")
    detections = annotations_by_id(load_annotations(detections_path))
    annotations = annotations_by_id(load_annotations(annotations_path))
    report = evaluate_corpus(detections, annotations, cfg.evaluation.thresholds)
    (out / "metrics.json").write_text(report.to_json())
    table = report.to_text_table()
    (out / "metrics.txt").write_text(table)
    print(table, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eventseg",
        description="Self-supervised event boundary detection on feature sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, help_text in (
        ("synth", "generate a synthetic feature corpus with known boundaries"),
        ("train", "train the embedding and reconstruction models"),
        ("detect", "detect boundaries for every corpus video"),
        ("eval", "score detections against annotations"),
    ):
        p = commands[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument("--seed", type=int, metavar="N", help="override the seed")
        p.add_argument("--out", metavar="DIR", default="out", help="output directory")
    for name in ("train", "detect"):
        commands[name].add_argument("--checkpoint", metavar="PATH", help="checkpoint file")
    commands["detect"].add_argument(
        "--dump-trajectory", action="store_true",
        help="write per-frame error/smoothed/gradient CSVs",
    )
    return parser


_COMMANDS = {"synth": cmd_synth, "train": cmd_train, "detect": cmd_detect, "eval": cmd_eval}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, seed=args.seed)
        return _COMMANDS[args.command](cfg, args)
    except EventSegError as exc:
        print(f"error: {exc.category}: {exc}", file=sys.stderr)
        return _exit_code(exc.category)
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return _exit_code("io")
    except MemoryError as exc:
        print(f"error: memory: {exc or 'allocation failed'}", file=sys.stderr)
        return _exit_code("memory")


if __name__ == "__main__":
    sys.exit(main())
