"""Command line front end for the full pipeline.

Each subcommand wraps one stage: benchmark generation, augmentation,
identity splitting, training, evaluation, and the two ablation sweeps.
Conventions shared by every command:

- long flags only; the subcommand is the sole positional argument
- the resolved configuration hash is printed to stdout
- artifacts produced with the same flags are byte-identical across
  reruns, so timings go to stderr only: ``main`` gives each command a
  stage clock and prints its ``<command>-stages:`` line (``split``
  times no stages) and then ``wall-time-seconds:``; while a command
  runs, ``main`` prints the package's INFO records, the ``align:`` and
  ``train:`` lines of ``seqid`` and ``model``
- failures exit through one tab-separated stderr line,
  ``error<TAB>code<TAB>kind<TAB>message``, with code 2 for
  configuration problems, 3 for data problems, and 4 for numeric
  failures
"""

from __future__ import annotations

import argparse
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .augment import augment_dataset
from .errors import ConfigError, DatasetError, EnzoodError, NonFiniteError
from .harness import (
    best_lambda_index,
    good_evaluation,
    lambda_sweep,
    mask_sweep,
    nested_identity_split,
    read_checkpoint,
    validation_scores,
    write_checkpoint,
    write_report,
    write_train_log,
)
from .io import (
    config_hash,
    load_config,
    parse_int,
    parse_real,
    read_dataset,
    write_dataset,
)
from .metrics import METRIC_IDS
from .model import train
from .seqid import build_ood_splits, read_split_file, write_split_file
from .synth import SynthConfig, generate, write_benchmark

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


# ---------------------------------------------------------------------------
# Shared plumbing


class _Parser(argparse.ArgumentParser):
    """Flag errors use the same one-line stderr shape as runtime
    failures, so scripted callers only ever parse one format."""

    def error(self, message):
        print(f"error\t{EXIT_CONFIG}\tUsageError\t{message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _fail(exc: BaseException) -> int:
    if isinstance(exc, ConfigError):
        code = EXIT_CONFIG
    elif isinstance(exc, NonFiniteError):
        code = EXIT_NUMERIC
    else:
        code = EXIT_DATA
    message = " ".join(str(exc).split()) or type(exc).__name__
    print(f"error\t{code}\t{type(exc).__name__}\t{message}", file=sys.stderr)
    return code


def _emit_hash(cfg) -> None:
    print(f"config-hash: {config_hash(cfg)}")


def _prepare(path) -> Path:
    """Output path with its parent directory guaranteed to exist."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _wrote(path) -> None:
    print(f"wrote: {path}")


class _StageClock:
    """Wall time of one command, whole and stage by stage.  Each stage
    runs from the previous lap (or the start) to its own lap."""

    def __init__(self):
        self.start = self._last = time.perf_counter()
        self.stages: list[str] = []

    def lap(self, stage: str, note: str = "") -> None:
        now = time.perf_counter()
        self.stages.append(f"{stage} {now - self._last:.3f} s{note}")
        self._last = now


def _real_flag(text: str, flag: str, low: float, high: float) -> float:
    """Parse a real-valued flag and require low < value <= high."""
    try:
        value = parse_real(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if not low < value <= high:
        raise ConfigError(f"{flag} must be in ({low}, {high}], got {text}")
    return value


def _int_flag(text: str, flag: str, minimum: int = 0) -> int:
    try:
        value = parse_int(text)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    if value < minimum:
        raise ConfigError(f"{flag} must be at least {minimum}, got {value}")
    return value


def _parse_thresholds(text: str) -> tuple[float, ...]:
    pieces = [piece.strip() for piece in text.split(",") if piece.strip()]
    if not pieces:
        raise ConfigError("--thresholds expects a comma-separated list of identities")
    values = tuple(_real_flag(piece, "--thresholds", 0.0, 1.0) for piece in pieces)
    # each threshold names its split files, so two sharing a tag would
    # overwrite each other's halves
    seen = {}
    for piece, value in zip(pieces, values):
        tag = _threshold_tag(value)
        if tag in seen:
            raise ConfigError(f"--thresholds {seen[tag]} and {piece} share the file tag {tag}")
        seen[tag] = piece
    return values


def _threshold_tag(threshold: float) -> str:
    return f"{int(round(threshold * 100)):03d}"


def _section(title: str, columns: tuple, rows) -> tuple:
    """A write_report section from rows given as tuples in column order;
    the harness's own row dicts go to write_report as they are."""
    return title, columns, [dict(zip(columns, row)) for row in rows]


# ---------------------------------------------------------------------------
# Commands
#
# Each takes the parsed flags and the command's stage clock, and lets
# failures propagate to main.


@dataclass(frozen=True)
class _SplitSettings:
    """Resolved flags of the split command, hashed like any config."""

    thresholds: tuple[float, ...]
    test_fraction: float
    seed: int


def _cmd_synth(args, clock: _StageClock) -> None:
    cfg = load_config(args.config, SynthConfig)
    _emit_hash(cfg)
    records, truth = generate(cfg)
    clock.lap("generate")
    out = _prepare(args.out)
    sidecar = write_benchmark(records, truth, out)
    clock.lap("write")
    _wrote(out)
    _wrote(sidecar)


def _cmd_augment(args, clock: _StageClock) -> None:
    cfg = load_config(args.config)
    _emit_hash(cfg)
    records = read_dataset(args.in_path)
    clock.lap("read")
    pairs = augment_dataset(records, cfg)
    clock.lap("augment", f" ({len(records)} records)")
    out = _prepare(args.out)
    write_dataset([record for pair in pairs for record in pair], out)
    clock.lap("write")
    _wrote(out)


def _cmd_split(args, clock: _StageClock) -> None:
    settings = _SplitSettings(
        thresholds=_parse_thresholds(args.thresholds),
        test_fraction=_real_flag(args.test_fraction, "--test-fraction", 0.0, 0.5),
        seed=_int_flag(args.seed, "--seed"),
    )
    _emit_hash(settings)
    records = read_dataset(args.in_path)
    splits = build_ood_splits(records, settings.thresholds, settings.test_fraction, settings.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = [f"seed: {settings.seed}", f"config_hash: {config_hash(settings)}"]
    split_path = out_dir / "splits.tsv"
    write_split_file(split_path, splits, header_lines=header)
    _wrote(split_path)
    # materialize each half so train/eval never need the source file
    by_id = {record.id: record for record in records}
    extension = Path(args.in_path).suffix
    for split in splits:
        tag = _threshold_tag(split.threshold)
        for half, ids in (("train", split.train_ids), ("test", split.test_ids)):
            path = out_dir / f"{half}-{tag}{extension}"
            write_dataset([by_id[i] for i in ids], path)
            _wrote(path)


def _cmd_train(args, clock: _StageClock) -> None:
    cfg = load_config(args.config)
    _emit_hash(cfg)
    train_records = read_dataset(args.train)
    val_records = read_dataset(args.val)
    clock.lap("read")
    params, log = train(train_records, val_records, cfg)
    clock.lap("train")
    checkpoint_path = _prepare(args.checkpoint_out)
    val_scores = validation_scores(log, len(val_records))
    write_checkpoint(
        checkpoint_path,
        params,
        cfg,
        extra={"best_epoch": int(log[-1]["best_epoch"]), "val": val_scores},
    )
    clock.lap("checkpoint", f" ({checkpoint_path.stat().st_size} bytes)")
    _wrote(checkpoint_path)
    if args.log_out:
        log_path = _prepare(args.log_out)
        write_train_log(log_path, log, cfg)
        clock.lap("log")
        _wrote(log_path)
    else:
        clock.stages.append("log skipped")


def _cmd_eval(args, clock: _StageClock) -> None:
    params, cfg, _ = read_checkpoint(args.checkpoint)
    clock.lap("checkpoint", f" ({Path(args.checkpoint).stat().st_size} bytes)")
    _emit_hash(cfg)
    records = read_dataset(args.data)
    splits = read_split_file(args.splits)
    if not splits:
        raise DatasetError(f"split file {args.splits} holds no splits")
    clock.lap("read")
    result = good_evaluation(records, splits, params)
    clock.lap("evaluate")
    curves = result["curves"]
    report_path = _prepare(args.report_out)
    write_report(
        report_path,
        "eval",
        cfg,
        [
            (
                "per_threshold",
                ("threshold", "n_train", "n_test", "r2", "mae", "mse"),
                result["per_threshold"],
            ),
            _section(
                "good_curve",
                ("metric", "threshold", "risk", "weight"),
                [
                    (metric, *point)
                    for metric in METRIC_IDS
                    for point in zip(
                        curves[metric].thresholds, curves[metric].risks, curves[metric].weights
                    )
                ],
            ),
            _section(
                "au_good",
                ("metric", "au_good"),
                [(metric, result["au_good"][metric]) for metric in METRIC_IDS],
            ),
        ],
    )
    clock.lap("report")
    _wrote(report_path)


def _cmd_ablate(args, clock: _StageClock) -> None:
    """ablate-mask and ablate-lambda: one nested identity split, then a
    sweep of the mask ratios or of the consistency weight on it."""
    cfg = load_config(args.config)
    threshold, test_fraction, val_fraction, seed = (
        _real_flag(args.identity_threshold, "--identity-threshold", 0.0, 1.0),
        _real_flag(args.test_fraction, "--test-fraction", 0.0, 0.5),
        _real_flag(args.val_fraction, "--val-fraction", 0.0, 0.5),
        _int_flag(args.split_seed, "--split-seed"),
    )
    _emit_hash(cfg)
    records = read_dataset(args.in_path)
    clock.lap("read")
    split = nested_identity_split(records, threshold, test_fraction, val_fraction, seed)
    clock.lap("split")
    sections = [
        _section(
            "split",
            ("threshold", "n_train", "n_val", "n_test"),
            [(split.threshold, len(split.train_ids), len(split.val_ids), len(split.test_ids))],
        )
    ]
    if args.command == "ablate-mask":
        rows = mask_sweep(records, split, cfg)
        sections.append(("mask_sweep", ("side", "ratio", "val_mse", "val_r2", "val_mae"), rows))
    else:
        rows = lambda_sweep(records, split, cfg)
        best = best_lambda_index(rows)
        sections += [
            ("lambda_sweep", ("lam", "val_mse", "val_r2", "val_mae", "test_r2", "test_mae"), rows),
            _section("selection", ("best_index", "best_lam"), [(best, rows[best]["lam"])]),
        ]
    clock.lap("sweep")
    report_path = _prepare(args.report_out)
    write_report(report_path, args.command, cfg, sections)
    clock.lap("report")
    _wrote(report_path)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="enzood",
        description="Pipeline driver: benchmark synthesis, augmentation, "
        "identity splits, consistency-regularized training, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate the synthetic benchmark plus truth sidecar")
    p.add_argument("--config", default=None, help="key=value synthesis config file")
    p.add_argument("--out", required=True, help="dataset output path (.tsv)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("augment", help="materialize raw plus augmented record pairs")
    p.add_argument("--in", dest="in_path", required=True, help="input dataset")
    p.add_argument("--out", required=True, help="output dataset")
    p.add_argument("--config", default=None, help="key=value run config file")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("split", help="build identity-disjoint train/test splits")
    p.add_argument("--in", dest="in_path", required=True, help="input dataset")
    p.add_argument("--out-dir", required=True, help="directory for split artifacts")
    p.add_argument(
        "--thresholds",
        default="0.4,0.6,0.8,0.99",
        help="comma-separated identity thresholds (default 0.4,0.6,0.8,0.99)",
    )
    p.add_argument("--test-fraction", default="0.3", help="held-out fraction (default 0.3)")
    p.add_argument("--seed", default="0", help="tie-shuffling seed (default 0)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", help="train with on-the-fly augmentation")
    p.add_argument("--train", required=True, help="training dataset")
    p.add_argument("--val", required=True, help="validation dataset for model selection")
    p.add_argument("--config", default=None, help="key=value run config file")
    p.add_argument("--checkpoint-out", required=True, help="checkpoint output path")
    p.add_argument("--log-out", default=None, help="optional per-epoch log output path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint across identity splits")
    p.add_argument("--checkpoint", required=True, help="checkpoint produced by train")
    p.add_argument("--data", required=True, help="dataset holding every id in the splits")
    p.add_argument("--splits", required=True, help="split file produced by split")
    p.add_argument("--report-out", required=True, help="report output path")
    p.set_defaults(func=_cmd_eval)

    for name, help_text in (
        ("ablate-mask", "sweep enzyme and substrate mask ratios"),
        ("ablate-lambda", "sweep the consistency weight"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--in", dest="in_path", required=True, help="input dataset")
        p.add_argument("--config", default=None, help="key=value run config file")
        p.add_argument("--report-out", required=True, help="report output path")
        p.add_argument(
            "--identity-threshold",
            default="0.6",
            help="identity threshold of the evaluation split (default 0.6)",
        )
        p.add_argument("--test-fraction", default="0.3", help="test fraction (default 0.3)")
        p.add_argument(
            "--val-fraction",
            default="0.3",
            help="validation fraction of the remaining pool (default 0.3)",
        )
        p.add_argument("--split-seed", default="0", help="split seed (default 0)")
        p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    clock = _StageClock()
    log = logging.getLogger(__package__)
    handler, level = logging.StreamHandler(), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        args.func(args, clock)
    except (EnzoodError, OSError, ValueError) as exc:
        return _fail(exc)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
    if clock.stages:
        print(f"{args.command}-stages: {', '.join(clock.stages)}", file=sys.stderr)
    print(f"wall-time-seconds: {time.perf_counter() - clock.start:.3f}", file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
