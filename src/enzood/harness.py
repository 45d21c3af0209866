"""Experiment drivers shared by the CLI and the test suite.

Builds nested identity splits (test and validation both held out by
sequence identity), trains the two-branch model on record lists, scores
splits, and writes the deterministic artifacts: checkpoints, training
logs, and reports.  It is the only module that knows the checkpoint
file, and it reads and checks checkpoints too.  Nothing here touches
wall-clock time or other run-varying state, so rerunning any driver
with the same seed yields byte-identical files.
"""

from __future__ import annotations

import base64
import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DatasetError
from .io import RunConfig, config_hash, format_scalar, parse_config_text, resolved_items
from .metrics import METRIC_IDS, au_good, curve_from_risks, mae, r_squared
from .model import ModelParams, _plan, loss_base, predict, train
from .seqid import OodSplit, _ood_splits

LAMBDA_GRID = (0.005, 0.05, 0.5, 5.0, 50.0)
MASK_GRID = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


@dataclass(frozen=True)
class NestedSplit:
    """Identity-disjoint train/val/test id sets at one threshold.

    Validation is carved from the training pool by a second identity
    split, so model selection sees the same kind of shift as the test
    set instead of leaking near-duplicates."""

    threshold: float
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        groups = (self.train_ids, self.val_ids, self.test_ids)
        if len(set().union(*groups)) != sum(len(g) for g in groups):
            raise ValueError("an id is repeated within or across train/val/test")


def nested_identity_split(
    records, threshold: float, test_fraction: float, val_fraction: float, seed: int
) -> NestedSplit:
    """Outer split reserves the test set; an inner split of the remaining
    pool (seeded independently, on a slice of the outer identity matrix)
    reserves validation."""
    records = list(records)
    (outer,), identities = _ood_splits(records, [threshold], test_fraction, seed)
    by_id = {r.id: r for r in records}
    pool = [by_id[i] for i in outer.train_ids]
    (inner,), _ = _ood_splits(pool, [threshold], val_fraction, seed + 1, known=identities)
    return NestedSplit(
        threshold=threshold,
        train_ids=inner.train_ids,
        val_ids=inner.test_ids,
        test_ids=outer.test_ids,
    )


def select_records(records, ids) -> list:
    by_id = {r.id: r for r in records}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise DatasetError(f"ids not present in dataset: {missing[:5]}")
    return [by_id[i] for i in ids]


def evaluate_params(params: ModelParams, records) -> dict:
    """R2, MAE, and MSE of the checkpoint on the given records.  R2 is
    undefined on one record or constant targets: that raises
    DegenerateTargetsError.  A run's validation scores come from its
    train log instead (validation_scores)."""
    records = list(records)
    preds = predict(params, records)
    targets = np.array([r.value for r in records], dtype=float)
    return {
        "n": len(records),
        "mse": loss_base(preds, targets),
        "r2": r_squared(preds, targets),
        "mae": mae(preds, targets),
    }


def validation_scores(log, n: int) -> dict:
    """evaluate_params of train's params on its n validation records, read
    from the best epoch's log entry; an undefined (NaN) R2 is None."""
    best = log[log[-1]["best_epoch"]]
    r2 = None if np.isnan(best["val_r2"]) else best["val_r2"]
    return {"n": n, "mse": best["val_mse"], "r2": r2, "mae": best["val_mae"]}


def run_set(records, split: NestedSplit, cfgs) -> list[tuple]:
    """(params, log, scores) per config of the list, in order; scores hold
    val (validation_scores) and test (evaluate_params) metrics.  Records
    are selected once, and configs that train alike share one run:
    training reads p_g only in graph_mask mode, and at lam = 0 it draws no
    mask, so reads neither p_s, p_g nor substrate_mode."""
    if not cfgs:
        raise ValueError("run_set needs at least one config")
    train_recs = select_records(records, split.train_ids)
    val_recs = select_records(records, split.val_ids)
    test_recs = select_records(records, split.test_ids)
    keys = [cfg if cfg.substrate_mode == "graph_mask" else dataclasses.replace(cfg, p_g=0.0)
            for cfg in cfgs]
    unmasked = dict(p_s=0.0, p_g=0.0, substrate_mode="graph_mask")  # what lam = 0 trains as
    keys = [key if key.lam > 0 else dataclasses.replace(key, **unmasked) for key in keys]
    runs = {}  # config as training reads it -> (params, log, scores)
    for key, cfg in zip(keys, cfgs):
        if key not in runs:
            params, log = train(train_recs, val_recs, cfg)
            scores = {
                "val": validation_scores(log, len(val_recs)),
                "test": evaluate_params(params, test_recs),
            }
            runs[key] = params, log, scores
    return [runs[key] for key in keys]


def train_on_split(records, split: NestedSplit, cfg: RunConfig):
    """(params, log, scores) of one config: its run_set entry."""
    return run_set(records, split, [cfg])[0]


# ---------------------------------------------------------------------------
# Experiments


def two_arm_comparison(records, split: NestedSplit, base_cfg: RunConfig, seeds) -> dict:
    """Consistency-on (base_cfg itself) versus consistency-off (base_cfg
    at lam=0), same seeds and identical data; reports per-seed OOD test
    metrics and the mean gains."""
    treated_cfgs = [dataclasses.replace(base_cfg, seed=int(seed)) for seed in seeds]
    control_cfgs = [dataclasses.replace(cfg, lam=0.0) for cfg in treated_cfgs]
    runs = run_set(records, split, control_cfgs + treated_cfgs)
    treated_runs = runs[len(control_cfgs) :]
    rows = []
    for cfg, (_, _, control), (_, _, treated) in zip(treated_cfgs, runs, treated_runs):
        rows.append(
            {
                "seed": cfg.seed,
                "control_r2": control["test"]["r2"],
                "treated_r2": treated["test"]["r2"],
                "control_mae": control["test"]["mae"],
                "treated_mae": treated["test"]["mae"],
            }
        )
    mean = lambda key: float(np.mean([row[key] for row in rows]))  # noqa: E731
    return {
        "rows": rows,
        "mean_control_r2": mean("control_r2"),
        "mean_treated_r2": mean("treated_r2"),
        "mean_control_mae": mean("control_mae"),
        "mean_treated_mae": mean("treated_mae"),
        "r2_gain": mean("treated_r2") - mean("control_r2"),
        "mae_drop": mean("control_mae") - mean("treated_mae"),
    }


def lambda_sweep(records, split: NestedSplit, base_cfg: RunConfig, grid=LAMBDA_GRID) -> list[dict]:
    """One row per lambda at the config seed: validation metrics drive
    selection, test metrics ride along for the report."""
    cfgs = [dataclasses.replace(base_cfg, lam=float(lam)) for lam in grid]
    rows = []
    for cfg, (_, _, scores) in zip(cfgs, run_set(records, split, cfgs)):
        rows.append(
            {
                "lam": cfg.lam,
                "val_mse": scores["val"]["mse"],
                "val_r2": scores["val"]["r2"],
                "val_mae": scores["val"]["mae"],
                "test_r2": scores["test"]["r2"],
                "test_mae": scores["test"]["mae"],
            }
        )
    return rows


def best_lambda_index(rows) -> int:
    """Grid index with the lowest validation MSE."""
    return int(min(range(len(rows)), key=lambda i: rows[i]["val_mse"]))


def mask_sweep(records, split: NestedSplit, base_cfg: RunConfig, grid=MASK_GRID) -> list[dict]:
    """Sweep p_s and p_g independently, holding the other at its base
    value; one row per (side, ratio)."""
    rows = []
    cfgs = []
    for side, field in (("enzyme", "p_s"), ("substrate", "p_g")):
        for ratio in grid:
            rows.append({"side": side, "ratio": float(ratio)})
            cfgs.append(dataclasses.replace(base_cfg, **{field: float(ratio)}))
    for row, (_, _, scores) in zip(rows, run_set(records, split, cfgs)):
        row["val_mse"] = scores["val"]["mse"]
        row["val_r2"] = scores["val"]["r2"]
        row["val_mae"] = scores["val"]["mae"]
    return rows


def good_evaluation(records, splits, params: ModelParams, weights=None) -> dict:
    """Per-threshold risks plus GOOD curves and AU-GOOD for both metrics.

    splits are OodSplit values (independent test sets per threshold);
    weights default to uniform over thresholds."""
    splits = sorted(splits, key=lambda s: s.threshold)
    per_threshold = []
    for split in splits:
        scores = evaluate_params(params, select_records(records, split.test_ids))
        per_threshold.append(
            {
                "threshold": split.threshold,
                "n_train": len(split.train_ids),
                "n_test": len(split.test_ids),
                "r2": scores["r2"],
                "mae": scores["mae"],
                "mse": scores["mse"],
            }
        )
    thresholds = [row["threshold"] for row in per_threshold]
    curves = {}
    aggregates = {}
    for metric in METRIC_IDS:
        curve = curve_from_risks(
            thresholds, [row[metric] for row in per_threshold], metric, weights
        )
        curves[metric] = curve
        aggregates[metric] = au_good(curve)
    return {"per_threshold": per_threshold, "curves": curves, "au_good": aggregates}


# ---------------------------------------------------------------------------
# Artifacts


def provenance_lines(cfg: RunConfig) -> list[str]:
    lines = [f"seed: {cfg.seed}", f"config_hash: {config_hash(cfg)}"]
    lines.extend(f"config: {k}={v}" for k, v in resolved_items(cfg))
    return lines


def write_report(path, kind: str, cfg: RunConfig, sections) -> None:
    """Deterministic report: provenance comments then [section] blocks of
    tab-separated rows.  sections is an iterable of (title, columns,
    rows): the header is the column names, and each row is a dict (such
    as the rows of mask_sweep, lambda_sweep and good_evaluation) read by
    those names."""
    lines = [f"# report: {kind}"]
    lines.extend(f"# {entry}" for entry in provenance_lines(cfg))
    for title, columns, rows in sections:
        lines.append(f"[{title}]")
        lines.append("\t".join(columns))
        for row in rows:
            lines.append("\t".join(format_scalar(row[name]) for name in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_checkpoint(path, params: ModelParams, cfg: RunConfig, extra: dict | None = None) -> None:
    """One line of sorted-key, compact JSON: the seed, the config echo
    and its hash, the parameters, and the ``extra`` keys.  The
    parameters are the three layer sizes and ``theta`` as the base64
    text of its little-endian float64 bytes, so every value, -0.0 and
    subnormals included, comes back bit for bit.  A NaN or infinity in
    the ``extra`` keys raises ValueError, as JSON has no such numbers,
    before the file is opened."""
    data = {
        "kind": "checkpoint",
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": {k: v for k, v in resolved_items(cfg)},
        "params": {
            "layers": [params.hidden_enzyme, params.hidden_substrate, params.embed_dim],
            "theta": base64.b64encode(params.theta.astype("<f8").tobytes()).decode("ascii"),
        },
    }
    if extra:
        data.update(extra)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_checkpoint(path) -> tuple[ModelParams, RunConfig, dict]:
    """The parameters, the run configuration and the whole JSON object
    of a write_checkpoint file.

    ``layers`` must be three positive integers, and ``theta`` base64
    text of exactly the float64 values those sizes lay out, all finite.
    The config echo must rebuild a valid RunConfig whose hash is the
    stored ``config_hash``.  Anything else raises DatasetError naming
    ``path`` as given and the bad field: a damaged checkpoint is a data
    problem, not a configuration one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid checkpoint {path}: {exc}") from exc
    if not isinstance(data, dict) or "params" not in data:
        raise DatasetError(f"invalid checkpoint {path}: missing params")
    block = data["params"]
    bad = f"invalid checkpoint {path}: params"
    if not isinstance(block, dict):
        raise DatasetError(f"{bad} must map layers and theta, got {type(block).__name__}")
    text = block.get("theta")
    if not isinstance(text, str):
        raise DatasetError(f"{bad} lack a theta string, the base64 text of the parameter vector")
    layers = block.get("layers")
    if not (
        isinstance(layers, list)
        and len(layers) == 3
        and all(type(n) is int and n > 0 for n in layers)
    ):
        raise DatasetError(f"{bad} layers must be three positive integers")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise DatasetError(f"{bad} theta is not base64: {exc}") from exc
    size, _ = _plan(*layers)
    if len(raw) != 8 * size:
        raise DatasetError(f"{bad} theta holds {len(raw)} bytes, layers {layers} need {8 * size}")
    try:
        params = ModelParams(np.frombuffer(raw, dtype="<f8"), *layers)
    except ValueError as exc:
        raise DatasetError(f"{bad} theta: {exc}") from exc

    echo = data.get("config")
    if not isinstance(echo, dict):
        raise DatasetError(f"checkpoint {path} has no config echo")
    try:
        cfg = parse_config_text(
            "\n".join(f"{key}={value}" for key, value in echo.items()), origin=f"{path}:config"
        )
    except ConfigError as exc:
        raise DatasetError(f"checkpoint {path} has a bad config echo: {exc}") from exc
    if data.get("config_hash") != config_hash(cfg):
        raise DatasetError(f"checkpoint {path}: config echo does not match its config_hash")
    return params, cfg, data


LOG_COLUMNS = (
    "epoch",
    "train_base",
    "train_cons",
    "train_total",
    "val_mse",
    "val_r2",
    "val_mae",
    "best_epoch",
)


def write_train_log(path, log, cfg: RunConfig) -> None:
    lines = ["# log: train"]
    lines.extend(f"# {entry}" for entry in provenance_lines(cfg))
    lines.append("\t".join(LOG_COLUMNS))
    for entry in log:
        lines.append("\t".join(format_scalar(entry[name]) for name in LOG_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
