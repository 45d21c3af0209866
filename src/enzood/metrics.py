"""Regression metrics and identity-binned OOD risk curves.

A GoodCurve holds one risk value per identity threshold plus a weight
per threshold (the histogram of each query's maximal identity to the
training set).  Its weighted mean is the scalar AU-GOOD summary; whether
higher is better follows the metric id, never a sign flip baked into the
stored risks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTargetsError
from .seqid import max_identity_to_train

METRIC_IDS = ("r2", "mae")

# metric id -> True when larger values are better
METRIC_DIRECTION = {"r2": True, "mae": False}


def _paired_arrays(preds, targets, min_len=1):
    p = np.asarray(preds, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.ndim != 1 or t.ndim != 1:
        raise ValueError("preds and targets must be 1-D")
    if p.shape[0] != t.shape[0]:
        raise ValueError(f"length mismatch: {p.shape[0]} preds vs {t.shape[0]} targets")
    if p.shape[0] < min_len:
        raise ValueError(f"need at least {min_len} values, got {p.shape[0]}")
    return p, t


def r_squared(preds, targets) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot."""
    p, t = _paired_arrays(preds, targets, min_len=2)
    ss_tot = float(np.sum((t - t.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateTargetsError("targets have zero variance")
    ss_res = float(np.sum((t - p) ** 2))
    return 1.0 - ss_res / ss_tot


def mae(preds, targets) -> float:
    """Mean absolute deviation."""
    p, t = _paired_arrays(preds, targets)
    return float(np.mean(np.abs(t - p)))


@dataclass(frozen=True)
class GoodCurve:
    """Per-threshold risk values with a weight histogram over thresholds.

    ``risks`` are raw metric values under ``metric`` ('r2' or 'mae');
    direction is looked up from the metric id, so curves never store
    sign-flipped values.  The per-point threshold step is the constant 1,
    which makes the AU-GOOD summary a weighted mean of the risks.
    """

    thresholds: tuple[float, ...]
    risks: tuple[float, ...]
    weights: tuple[float, ...]
    metric: str

    def __post_init__(self):
        if self.metric not in METRIC_IDS:
            raise ValueError(f"metric must be one of {METRIC_IDS}, got {self.metric!r}")
        n = len(self.thresholds)
        if n == 0:
            raise ValueError("curve needs at least one point")
        if len(self.risks) != n or len(self.weights) != n:
            raise ValueError("thresholds, risks, and weights must have equal length")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")
        total = float(sum(self.weights))
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9, got {total}")

    @property
    def higher_is_better(self) -> bool:
        return METRIC_DIRECTION[self.metric]


def curve_from_risks(thresholds, risks, metric: str, weights=None) -> GoodCurve:
    """Assemble a GoodCurve from per-threshold risk values.

    Points are sorted by threshold; ``weights`` defaults to uniform (the
    explicit no-deployment-set fallback).
    """
    thresholds = [float(t) for t in thresholds]
    risks = [float(r) for r in risks]
    if len(thresholds) != len(risks):
        raise ValueError("one risk per threshold required")
    if weights is None:
        weights = [1.0 / len(thresholds)] * len(thresholds)
    weights = [float(w) for w in weights]
    if len(weights) != len(thresholds):
        raise ValueError("one weight per threshold required")
    order = sorted(range(len(thresholds)), key=lambda i: thresholds[i])
    return GoodCurve(
        thresholds=tuple(thresholds[i] for i in order),
        risks=tuple(risks[i] for i in order),
        weights=tuple(weights[i] for i in order),
        metric=metric,
    )


def identity_weights(test_seqs, train_seqs, thresholds) -> tuple[float, ...]:
    """Histogram of per-query maximal train identity, binned by threshold.

    Bin i collects queries whose maximum identity falls in
    (thresholds[i-1], thresholds[i]]; everything above the last edge is
    clipped into the top bin.  Counts are normalized to sum to 1.
    """
    test_seqs = list(test_seqs)
    train_seqs = list(train_seqs)
    if not test_seqs or not train_seqs:
        raise ValueError("test and train sets must be non-empty")
    edges = [float(t) for t in thresholds]
    if any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError("thresholds must be strictly increasing")
    maxima = np.array([max_identity_to_train(q, train_seqs) for q in test_seqs])
    bins = np.searchsorted(edges, maxima, side="left")
    bins = np.minimum(bins, len(edges) - 1)
    counts = np.bincount(bins, minlength=len(edges)).astype(float)
    return tuple(counts / counts.sum())


def au_good(curve: GoodCurve) -> float:
    """Weight-averaged risk over thresholds (unit threshold step)."""
    return float(sum(r * w for r, w in zip(curve.risks, curve.weights)))
