"""Output checks of the three workloads.

Every check returns a list of problems (empty when the output holds).
They compare against values the benchmark computes itself (the identity
oracle, sums of squares from the dataset's targets, brute-force
aggregates) or against properties the method must have, never against a
stored copy of earlier output.
"""

from __future__ import annotations

import hashlib
import math
from math import floor
from pathlib import Path

import numpy as np

from oracle import nw_identity

# Feature widths fixed by the model's documented layout: 21 residue
# symbols (20 amino acids plus the mask) as 1-mers and 2-mers, and the
# 23-entry substrate descriptor.
ENZYME_FEATURES = 21 + 21 * 21
SUBSTRATE_FEATURES = 23
PARAM_FIELDS = ("w_enzyme", "b_enzyme", "w_substrate", "b_substrate",
                "w_fusion", "b_fusion", "w_head", "b_head")


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


# ---------------------------------------------------------------------------
# split


def check_splits(ids, splits, test_fraction) -> list[str]:
    """Each threshold's halves partition ``ids`` and the test share is at
    least the requested fraction."""
    problems = []
    universe = set(ids)
    required = math.ceil(test_fraction * len(ids) - 1e-9)
    for split in splits:
        train, test = list(split.train_ids), list(split.test_ids)
        tag = f"split {split.threshold}"
        if len(set(train)) != len(train) or len(set(test)) != len(test):
            problems.append(f"{tag}: an id appears twice in one half")
        if set(train) & set(test):
            problems.append(f"{tag}: halves overlap")
        if set(train) | set(test) != universe or len(train) + len(test) != len(universe):
            problems.append(f"{tag}: halves do not partition the ids")
        if len(test) < required:
            problems.append(f"{tag}: test holds {len(test)} < {required} records")
    return problems


def check_nested(ids, nested) -> list[str]:
    groups = [set(nested.train_ids), set(nested.val_ids), set(nested.test_ids)]
    problems = []
    if any(not g for g in groups):
        problems.append("nested split: an empty part")
    if sum(len(g) for g in groups) != len(set().union(*groups)):
        problems.append("nested split: parts overlap")
    if set().union(*groups) != set(ids):
        problems.append("nested split: parts do not cover the ids")
    return problems


def check_cross(cross) -> list[str]:
    """``cross`` holds (label, threshold, max_cross_identity value)."""
    return [
        f"{label}: max cross identity {value} above {threshold}"
        for label, threshold, value in cross
        if not value <= threshold
    ]


def check_oracle_sample(seq_of, splits, rng, per_threshold, global_identity) -> list[str]:
    """On a seeded sample of test x train sequence pairs per threshold the
    oracle identity is at most the threshold and equals the program's.
    The sample is exhaustive when the split has fewer pairs."""
    problems = []
    for split in splits:
        test = sorted({seq_of[i] for i in split.test_ids})
        train = sorted({seq_of[i] for i in split.train_ids})
        total = len(test) * len(train)
        picks = (range(total) if total <= per_threshold
                 else rng.choice(total, size=per_threshold, replace=False))
        for k in picks:
            a, b = test[int(k) // len(train)], train[int(k) % len(train)]
            expected = nw_identity(a, b)
            if expected > split.threshold:
                problems.append(
                    f"split {split.threshold}: oracle identity {expected} of a test/train pair"
                )
            got = global_identity(a, b)
            if got != expected:
                problems.append(f"global_identity {got} != oracle {expected} for {a!r}, {b!r}")
    return problems


def check_oracle_corpus(pairs, kernels) -> list[str]:
    """``kernels`` maps a name to an identity function; each must agree
    with the oracle pair by pair."""
    problems = []
    for a, b in pairs:
        expected = nw_identity(a, b)
        for name, identity in kernels.items():
            got = identity(a, b)
            if got != expected:
                problems.append(f"{name}: {got} != oracle {expected} for {a!r}, {b!r}")
    return problems


# ---------------------------------------------------------------------------
# train


def check_train_arm(arm, params, log, scores, cfg) -> list[str]:
    problems = []
    if len(log) != cfg.epochs:
        return [f"{arm}: log has {len(log)} rows for {cfg.epochs} epochs"]
    val_mse = [entry["val_mse"] for entry in log]
    best = int(np.argmin(val_mse))
    if any(entry["best_epoch"] != best for entry in log):
        problems.append(f"{arm}: best_epoch is not the first argmin of val_mse ({best})")
    for entry in log:
        total = entry["train_base"] + cfg.lam * entry["train_cons"]
        if not _close(entry["train_total"], total, 1e-12):
            problems.append(f"{arm}: train_total != train_base + lam*train_cons "
                            f"at epoch {entry['epoch']}")
            break
    if cfg.lam == 0:
        if any(entry["train_cons"] != 0.0 for entry in log):
            problems.append(f"{arm}: train_cons is not exactly 0 at lam=0")
    elif not all(entry["train_cons"] > 0.0 for entry in log):
        problems.append(f"{arm}: train_cons is not positive at lam={cfg.lam}")
    he, hs, d = cfg.hidden_enzyme, cfg.hidden_substrate, cfg.embed_dim
    shapes = ((he, ENZYME_FEATURES), (he,), (hs, SUBSTRATE_FEATURES), (hs,),
              (d, he + hs), (d,), (d,), ())
    for name, shape in zip(PARAM_FIELDS, shapes):
        value = np.asarray(getattr(params, name), dtype=float)
        if value.shape != shape:
            problems.append(f"{arm}: {name} has shape {value.shape}, expected {shape}")
        elif not np.all(np.isfinite(value)):
            problems.append(f"{arm}: {name} is not finite")
    best_r2 = log[best]["val_r2"]
    if not best_r2 > 0.0:
        problems.append(f"{arm}: best-epoch validation R2 {best_r2} is not above 0")
    if scores is not None and not _close(scores["val"]["r2"], best_r2, 1e-12):
        problems.append(f"{arm}: returned params score val R2 {scores['val']['r2']}, "
                        f"the log says {best_r2}")
    return problems


def params_digest(params) -> str:
    digest = hashlib.sha256()
    for name in PARAM_FIELDS:
        digest.update(np.asarray(getattr(params, name), dtype=np.float64).tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# pipeline


def read_table(path) -> dict:
    """Dataset TSV as {id: row dict}."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return {row[0]: dict(zip(header, row)) for row in (line.split("\t") for line in lines[1:])}


def read_split_tests(path) -> dict:
    """{threshold text: [test ids]} from a split file."""
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            rid, half, threshold = line.split("\t")
            out.setdefault(threshold, [])
            if half == "test":
                out[threshold].append(rid)
    return out


def read_report(path) -> dict:
    """{section: [row dicts]} from an eval report."""
    sections, current, header = {}, None, None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            continue
        if line.startswith("["):
            current, header = line.strip("[]"), None
            sections[current] = []
        elif header is None:
            header = line.split("\t")
        else:
            sections[current].append(dict(zip(header, line.split("\t"))))
    return sections


def check_report(report, dataset, split_tests) -> list[str]:
    """Per-threshold scores and AU-GOOD against the benchmark's own sums."""
    problems = []
    rows = report.get("per_threshold", [])
    if sorted(float(r["threshold"]) for r in rows) != sorted(float(t) for t in split_tests):
        return ["report thresholds differ from the split file"]
    by_threshold = {float(t): ids for t, ids in split_tests.items()}
    for row in rows:
        threshold = float(row["threshold"])
        ids = by_threshold[threshold]
        n, r2, mse, mae = int(row["n_test"]), float(row["r2"]), float(row["mse"]), float(row["mae"])
        if n != len(ids):
            problems.append(f"{threshold}: n_test {n} != {len(ids)} test ids in the split file")
            continue
        targets = np.array([float(dataset[i]["value"]) for i in ids])
        ss_tot = float(np.sum((targets - targets.mean()) ** 2))
        if not _close(r2, 1.0 - n * mse / ss_tot):
            problems.append(f"{threshold}: r2 {r2} != 1 - n*mse/SS_tot {1.0 - n * mse / ss_tot}")
        if not mse >= mae * mae * (1.0 - 1e-12):
            problems.append(f"{threshold}: mse {mse} < mae^2 {mae * mae}")
    curve = report.get("good_curve", [])
    for metric, au in ((r["metric"], float(r["au_good"])) for r in report.get("au_good", [])):
        points = [r for r in curve if r["metric"] == metric]
        weights = [float(r["weight"]) for r in points]
        brute = sum(float(r["risk"]) * w for r, w in zip(points, weights))
        if not points or not _close(sum(weights), 1.0) or not _close(au, brute, 1e-12):
            problems.append(f"au_good {metric} {au} != weighted sum of curve rows {brute}")
        risks = {float(r["threshold"]): float(r["risk"]) for r in points}
        for row in rows:
            if risks.get(float(row["threshold"])) != float(row[metric]):
                problems.append(f"good_curve {metric} at {row['threshold']} != per_threshold")
    return problems


def check_augmented(raw, augmented, p_s) -> list[str]:
    """Each raw record is followed by an '#aug' twin with the same value
    and exactly floor(p_s * len) masked residues, the rest unchanged."""
    problems = []
    raw_rows, aug_rows = list(raw.values()), list(augmented.values())
    if len(aug_rows) != 2 * len(raw_rows):
        return [f"augmented file holds {len(aug_rows)} rows for {len(raw_rows)} records"]
    for k, rec in enumerate(raw_rows):
        first, twin = aug_rows[2 * k], aug_rows[2 * k + 1]
        seq, masked = rec["sequence"], twin["sequence"]
        if first != rec or twin["id"] != rec["id"] + "#aug":
            problems.append(f"{rec['id']}: not followed by its #aug twin")
            continue
        if float(twin["value"]) != float(rec["value"]):
            problems.append(f"{rec['id']}: twin value differs")
        want = floor(p_s * len(seq))
        if "X" in seq or len(masked) != len(seq) or masked.count("X") != want:
            problems.append(f"{rec['id']}: twin masks {masked.count('X')} residues, "
                            f"expected {want}")
        elif any(m != s for m, s in zip(masked, seq) if m != "X"):
            problems.append(f"{rec['id']}: twin changes an unmasked residue")
    return problems


def leaked_thresholds(split_tests, seen_ids) -> dict:
    """{threshold: leaked ids} where a scored test id was trained or
    selected on."""
    seen = set(seen_ids)
    return {t: sorted(set(ids) & seen) for t, ids in split_tests.items()}


def tree_digests(root) -> dict:
    root = Path(root)
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*")) if p.is_file()
    }


def check_same_artifacts(reference, digests, what) -> list[str]:
    if digests == reference:
        return []
    differing = sorted(k for k in set(reference) | set(digests)
                       if reference.get(k) != digests.get(k))
    return [f"{what}: artifacts differ from the first round: {differing[:5]}"]
