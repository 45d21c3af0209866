"""Experiment drivers shared by the CLI and the test suite.

Builds nested identity splits (test and validation both held out by
sequence identity), trains the two-branch model on record lists, scores
splits, and writes the deterministic artifacts: checkpoints, training
logs, and reports.  Nothing here touches wall-clock time or other
run-varying state, so rerunning any driver with the same seed yields
byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .errors import DatasetError
from .io import RunConfig, config_hash, format_real, resolved_items
from .metrics import METRIC_IDS, au_good, curve_from_risks, mae, r_squared
from .model import (
    ModelParams,
    params_from_jsonable,
    params_to_jsonable,
    predict,
    train,
)
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
        groups = (set(self.train_ids), set(self.val_ids), set(self.test_ids))
        total = sum(len(g) for g in groups)
        if len(set().union(*groups)) != total:
            raise ValueError("train/val/test ids overlap")


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
    """R2, MAE, and MSE of the checkpoint on the given records."""
    records = list(records)
    preds = predict(params, records)
    targets = np.array([r.value for r in records], dtype=float)
    return {
        "n": len(records),
        "mse": float(np.mean((preds - targets) ** 2)),
        "r2": r_squared(preds, targets),
        "mae": mae(preds, targets),
    }


def train_on_split(records, split: NestedSplit, cfg: RunConfig):
    """(params, log, scores) with scores holding val and test metrics."""
    train_recs = select_records(records, split.train_ids)
    val_recs = select_records(records, split.val_ids)
    test_recs = select_records(records, split.test_ids)
    params, log = train(train_recs, val_recs, cfg.train_config())
    scores = {
        "val": evaluate_params(params, val_recs),
        "test": evaluate_params(params, test_recs),
    }
    return params, log, scores


# ---------------------------------------------------------------------------
# Experiments


def two_arm_comparison(
    records, split: NestedSplit, base_cfg: RunConfig, seeds, treated_lam: float = 0.5
) -> dict:
    """Consistency-on (lam=treated_lam) versus consistency-off (lam=0),
    same seeds and identical data; reports per-seed OOD test metrics and
    the mean gains."""
    rows = []
    for seed in seeds:
        control_cfg = dataclasses.replace(base_cfg, lam=0.0, seed=int(seed))
        treated_cfg = dataclasses.replace(base_cfg, lam=treated_lam, seed=int(seed))
        _, _, control = train_on_split(records, split, control_cfg)
        _, _, treated = train_on_split(records, split, treated_cfg)
        rows.append(
            {
                "seed": int(seed),
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
    rows = []
    for lam in grid:
        cfg = dataclasses.replace(base_cfg, lam=float(lam))
        _, _, scores = train_on_split(records, split, cfg)
        rows.append(
            {
                "lam": float(lam),
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
    for side, field in (("enzyme", "p_s"), ("substrate", "p_g")):
        for ratio in grid:
            cfg = dataclasses.replace(base_cfg, **{field: float(ratio)})
            _, _, scores = train_on_split(records, split, cfg)
            rows.append(
                {
                    "side": side,
                    "ratio": float(ratio),
                    "val_mse": scores["val"]["mse"],
                    "val_r2": scores["val"]["r2"],
                    "val_mae": scores["val"]["mae"],
                }
            )
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


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_real(value)
    return str(value)


def provenance_lines(cfg: RunConfig) -> list[str]:
    lines = [f"seed: {cfg.seed}", f"config_hash: {config_hash(cfg)}"]
    lines.extend(f"config: {k}={v}" for k, v in resolved_items(cfg))
    return lines


def write_report(path, kind: str, cfg: RunConfig, sections) -> None:
    """Deterministic report: provenance comments then [section] blocks of
    tab-separated rows.  sections is an iterable of
    (title, header tuple, row tuples)."""
    lines = [f"# report: {kind}"]
    lines.extend(f"# {entry}" for entry in provenance_lines(cfg))
    for title, header, rows in sections:
        lines.append(f"[{title}]")
        lines.append("\t".join(header))
        for row in rows:
            lines.append("\t".join(_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_SEPARATORS = (",", ":")


def _write_json(fh, value) -> None:
    """Write exactly what ``json.dump(value, fh, sort_keys=True,
    separators=(",", ":"))`` writes, through the C encoder of
    ``json.dumps``: a dict with string keys and a list of lists are
    written piece by piece, anything else, a matrix row included, as one
    ``json.dumps``.  So no write is longer than the longest row's text."""
    if isinstance(value, dict) and all(isinstance(key, str) for key in value):
        fh.write("{")
        for k, key in enumerate(sorted(value)):
            fh.write(("," if k else "") + json.dumps(key) + ":")
            _write_json(fh, value[key])
        fh.write("}")
    elif isinstance(value, list) and value and all(isinstance(item, list) for item in value):
        fh.write("[")
        for k, item in enumerate(value):
            if k:
                fh.write(",")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(value, sort_keys=True, separators=_SEPARATORS))


def write_checkpoint(path, params: ModelParams, cfg: RunConfig, extra: dict | None = None) -> None:
    """Sorted-key, compact JSON, written row by row (see _write_json)."""
    data = {
        "kind": "checkpoint",
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": {k: v for k, v in resolved_items(cfg)},
        "params": params_to_jsonable(params),
    }
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_json(fh, data)
        fh.write("\n")


def read_checkpoint(path) -> tuple[ModelParams, dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise DatasetError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid checkpoint {path}: {exc}") from exc
    if not isinstance(data, dict) or "params" not in data:
        raise DatasetError(f"invalid checkpoint {path}: missing params")
    try:
        params = params_from_jsonable(data["params"])
    except ValueError as exc:
        raise DatasetError(f"invalid checkpoint {path}: {exc}") from exc
    return params, data


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
        lines.append("\t".join(_cell(entry[name]) for name in LOG_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
