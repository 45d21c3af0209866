"""Command line front end for the full pipeline.

Each subcommand wraps one stage: benchmark generation, augmentation,
identity splitting, training, evaluation, and the two ablation sweeps.
Conventions shared by every command:

- long flags only; the subcommand is the sole positional argument
- the resolved configuration hash is printed to stdout
- artifacts produced with the same flags are byte-identical across
  reruns, so wall time is reported on stderr and never written into
  an artifact
- failures exit through one tab-separated stderr line,
  ``error<TAB>code<TAB>kind<TAB>message``, with code 2 for
  configuration problems, 3 for data problems, and 4 for numeric
  failures
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from .augment import augment_dataset
from .errors import ConfigError, DatasetError, EnzoodError, NonFiniteError
from .harness import (
    LAMBDA_GRID,
    best_lambda_index,
    evaluate_params,
    good_evaluation,
    lambda_sweep,
    mask_sweep,
    nested_identity_split,
    read_checkpoint,
    write_checkpoint,
    write_report,
    write_train_log,
)
from .io import (
    config_hash,
    load_config,
    parse_config_text,
    parse_int,
    parse_real,
    read_dataset,
    write_dataset,
)
from .metrics import METRIC_IDS
from .model import train
from .seqid import build_ood_splits, read_split_file, write_split_file
from .synth import generate, load_synth_config, write_benchmark

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

_LOG = logging.getLogger(__name__)


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


@contextlib.contextmanager
def _info_to_stderr(module: str):
    """Print the INFO lines that ``module`` logs (its timings) to stderr
    while the block runs, keeping them out of every artifact."""
    log = logging.getLogger(module)
    handler = logging.StreamHandler()
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


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
    if len(set(values)) != len(values):
        raise ConfigError(f"--thresholds contains duplicates: {text}")
    return values


def _threshold_tag(threshold: float) -> str:
    return f"{int(round(threshold * 100)):03d}"


def _config_from_checkpoint(meta: dict, origin) -> "object":
    """Rebuild the run configuration echoed inside a checkpoint."""
    echo = meta.get("config")
    if not isinstance(echo, dict):
        raise DatasetError(f"checkpoint {origin} has no config echo")
    text = "\n".join(f"{key}={value}" for key, value in echo.items())
    return parse_config_text(text, origin=f"{origin}:config")


def _resolve_nested_split_flags(args) -> tuple[float, float, float, int]:
    return (
        _real_flag(args.identity_threshold, "--identity-threshold", 0.0, 1.0),
        _real_flag(args.test_fraction, "--test-fraction", 0.0, 0.5),
        _real_flag(args.val_fraction, "--val-fraction", 0.0, 0.5),
        _int_flag(args.split_seed, "--split-seed"),
    )


def _split_section(split) -> tuple:
    return (
        "split",
        ("threshold", "n_train", "n_val", "n_test"),
        [
            (
                split.threshold,
                len(split.train_ids),
                len(split.val_ids),
                len(split.test_ids),
            )
        ],
    )


# ---------------------------------------------------------------------------
# Commands


@dataclass(frozen=True)
class _SplitSettings:
    """Resolved flags of the split command, hashed like any config."""

    thresholds: tuple[float, ...]
    test_fraction: float
    seed: int


def _cmd_synth(args) -> int:
    cfg = load_synth_config(args.config)
    _emit_hash(cfg)
    records, truth = generate(cfg)
    out = _prepare(args.out)
    sidecar = write_benchmark(records, truth, out)
    _wrote(out)
    _wrote(sidecar)
    return EXIT_OK


def _cmd_augment(args) -> int:
    cfg = load_config(args.config)
    _emit_hash(cfg)
    records = read_dataset(args.in_path)
    pairs = augment_dataset(records, cfg.augment_config())
    flat = [record for pair in pairs for record in pair]
    out = _prepare(args.out)
    write_dataset(flat, out)
    _wrote(out)
    return EXIT_OK


def _cmd_split(args) -> int:
    settings = _SplitSettings(
        thresholds=_parse_thresholds(args.thresholds),
        test_fraction=_real_flag(args.test_fraction, "--test-fraction", 0.0, 0.5),
        seed=_int_flag(args.seed, "--seed"),
    )
    _emit_hash(settings)
    records = read_dataset(args.in_path)
    with _info_to_stderr(build_ood_splits.__module__):
        splits = build_ood_splits(
            records, settings.thresholds, settings.test_fraction, settings.seed
        )
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
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    _emit_hash(cfg)
    clock = time.perf_counter
    stamps = [clock()]  # after each stage: read, train, evaluate, checkpoint
    train_records = read_dataset(args.train)
    val_records = read_dataset(args.val)
    stamps.append(clock())
    with _info_to_stderr(train.__module__):
        params, log = train(train_records, val_records, cfg.train_config())
    stamps.append(clock())
    val_scores = evaluate_params(params, val_records)
    stamps.append(clock())
    checkpoint_path = _prepare(args.checkpoint_out)
    write_checkpoint(
        checkpoint_path,
        params,
        cfg,
        extra={"best_epoch": int(log[-1]["best_epoch"]), "val": val_scores},
    )
    stamps.append(clock())
    _wrote(checkpoint_path)
    log_time = "skipped"
    if args.log_out:
        start = clock()
        log_path = _prepare(args.log_out)
        write_train_log(log_path, log, cfg)
        log_time = f"{clock() - start:.3f} s"
        _wrote(log_path)
    read_s, train_s, evaluate_s, checkpoint_s = (b - a for a, b in zip(stamps, stamps[1:]))
    with _info_to_stderr(__name__):
        _LOG.info(
            "train-stages: read %.3f s, train %.3f s, evaluate %.3f s, "
            "checkpoint %.3f s (%d bytes), log %s",
            read_s, train_s, evaluate_s, checkpoint_s, checkpoint_path.stat().st_size, log_time,
        )
    return EXIT_OK


def _cmd_eval(args) -> int:
    params, meta = read_checkpoint(args.checkpoint)
    cfg = _config_from_checkpoint(meta, args.checkpoint)
    _emit_hash(cfg)
    records = read_dataset(args.data)
    splits = read_split_file(args.splits)
    if not splits:
        raise DatasetError(f"split file {args.splits} holds no splits")
    result = good_evaluation(records, splits, params)
    per_rows = [
        (row["threshold"], row["n_train"], row["n_test"], row["r2"], row["mae"], row["mse"])
        for row in result["per_threshold"]
    ]
    curve_rows = []
    for metric in METRIC_IDS:
        curve = result["curves"][metric]
        curve_rows.extend(
            (metric, threshold, risk, weight)
            for threshold, risk, weight in zip(curve.thresholds, curve.risks, curve.weights)
        )
    au_rows = [(metric, result["au_good"][metric]) for metric in METRIC_IDS]
    report_path = _prepare(args.report_out)
    write_report(
        report_path,
        "eval",
        cfg,
        [
            ("per_threshold", ("threshold", "n_train", "n_test", "r2", "mae", "mse"), per_rows),
            ("good_curve", ("metric", "threshold", "risk", "weight"), curve_rows),
            ("au_good", ("metric", "au_good"), au_rows),
        ],
    )
    _wrote(report_path)
    return EXIT_OK


def _cmd_ablate_mask(args) -> int:
    cfg = load_config(args.config)
    threshold, test_fraction, val_fraction, seed = _resolve_nested_split_flags(args)
    _emit_hash(cfg)
    records = read_dataset(args.in_path)
    split = nested_identity_split(records, threshold, test_fraction, val_fraction, seed)
    rows = mask_sweep(records, split, cfg)
    report_path = _prepare(args.report_out)
    write_report(
        report_path,
        "ablate-mask",
        cfg,
        [
            _split_section(split),
            (
                "mask_sweep",
                ("side", "ratio", "val_mse", "val_r2", "val_mae"),
                [
                    (row["side"], row["ratio"], row["val_mse"], row["val_r2"], row["val_mae"])
                    for row in rows
                ],
            ),
        ],
    )
    _wrote(report_path)
    return EXIT_OK


def _cmd_ablate_lambda(args) -> int:
    cfg = load_config(args.config)
    threshold, test_fraction, val_fraction, seed = _resolve_nested_split_flags(args)
    _emit_hash(cfg)
    records = read_dataset(args.in_path)
    split = nested_identity_split(records, threshold, test_fraction, val_fraction, seed)
    rows = lambda_sweep(records, split, cfg)
    best = best_lambda_index(rows)
    report_path = _prepare(args.report_out)
    write_report(
        report_path,
        "ablate-lambda",
        cfg,
        [
            _split_section(split),
            (
                "lambda_sweep",
                ("lam", "val_mse", "val_r2", "val_mae", "test_r2", "test_mae"),
                [
                    (
                        row["lam"],
                        row["val_mse"],
                        row["val_r2"],
                        row["val_mae"],
                        row["test_r2"],
                        row["test_mae"],
                    )
                    for row in rows
                ],
            ),
            ("selection", ("best_index", "best_lam"), [(best, LAMBDA_GRID[best])]),
        ],
    )
    _wrote(report_path)
    return EXIT_OK


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
    p.add_argument("--out", required=True, help="dataset output path (.tsv or .jsonl)")
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

    for name, help_text, func in (
        ("ablate-mask", "sweep enzyme and substrate mask ratios", _cmd_ablate_mask),
        ("ablate-lambda", "sweep the consistency weight", _cmd_ablate_lambda),
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
        p.set_defaults(func=func)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        code = args.func(args)
    except (EnzoodError, OSError, ValueError) as exc:
        return _fail(exc)
    print(f"wall-time-seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
