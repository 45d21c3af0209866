"""Acceptance gate: nine checks, one printed verdict line each.

Every check prints ``acceptance N (<label>): PASS`` or ``... FAIL``
together with the measured quantities, so a captured pytest run doubles
as the sign-off record.  The checks are deliberately independent of the
unit tests: oracles (finite differences, brute-force sums, exhaustive
pair scans) are reimplemented here rather than imported."""

import dataclasses
import filecmp
import time
from math import floor
from pathlib import Path

import numpy as np
from _featurize_py import featurize_enzyme, featurize_substrate
from _molgraph_py import canonical_smiles, is_isomorphic

from enzood import cli
from enzood.augment import AMINO_ACIDS, draw_masks, unprotected_atoms
from enzood.harness import (
    LAMBDA_GRID,
    best_lambda_index,
    lambda_sweep,
    two_arm_comparison,
)
from enzood.io import RunConfig
from enzood.metrics import au_good, curve_from_risks, mae, r_squared
from enzood.model import (
    ATOM_COUNT_SCALE,
    ENZYME_INPUT_SCALE,
    gradients,
    init_params,
)
from enzood.molgraph import (
    detect_protected,
    enumerate_smiles,
    parse_smiles,
)
from enzood.seqid import build_ood_splits, max_cross_identity


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {number} ({label}): {status} [{detail}]")
    assert ok, f"acceptance {number} ({label}) failed: {detail}"


# Checks 6-8 run on the same 300-record benchmark: the bench300 and
# ood_split fixtures of conftest.py.


# ---------------------------------------------------------------------------
# 1. Gradient oracle


def _random_gradient_case(rng, batch=3):
    params = init_params(rng, 5, 4, 6)

    def enzyme():
        return "".join(AMINO_ACIDS[int(i)] for i in rng.integers(0, 20, size=25))

    x_e = np.stack([featurize_enzyme(enzyme()) for _ in range(batch)])
    xa_e = np.stack([featurize_enzyme(enzyme()) for _ in range(batch)])
    x_s = np.stack([featurize_substrate(parse_smiles("CC(C)CCO"))] * batch)
    xa_s = np.stack([featurize_substrate(parse_smiles("CC(=O)OC"))] * batch)
    y = rng.normal(size=batch)
    return params, (x_e, x_s, xa_e, xa_s, y)


def _scaled_stack(x_e, x_s, xa_e, xa_s):
    """The raw and augmented rows stacked and scaled, as gradients takes them."""
    xs = np.stack((x_s, xa_s))
    xs[..., -1] *= ATOM_COUNT_SCALE
    return np.stack((x_e, xa_e)) * ENZYME_INPUT_SCALE, xs


def _total_loss(p, x_e, x_s, xa_e, xa_s, y, lam):
    """Mean squared error plus lam times the mean squared embedding
    distance, written out from the model description: scaled inputs, two
    tanh branches, a tanh fusion layer and a linear head."""

    def embed(xe, xs):
        xs = xs.copy()
        xs[:, -1] *= ATOM_COUNT_SCALE
        h_e = np.tanh((xe * ENZYME_INPUT_SCALE) @ p.w_enzyme.T + p.b_enzyme)
        h_s = np.tanh(xs @ p.w_substrate.T + p.b_substrate)
        return np.tanh(np.hstack([h_e, h_s]) @ p.w_fusion.T + p.b_fusion)

    z = embed(x_e, x_s)
    base = np.mean((z @ p.w_head + p.b_head - y) ** 2)
    cons = np.mean(np.sum((z - embed(xa_e, xa_s)) ** 2, axis=1))
    return base + lam * cons


def _fd_gradient(params, args, h=1e-5):
    """Central finite differences of the total loss, every coordinate of
    the parameter vector (b_head included)."""
    theta = params.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[i] += h
        minus[i] -= h
        grad[i] = (
            _total_loss(dataclasses.replace(params, theta=plus), *args)
            - _total_loss(dataclasses.replace(params, theta=minus), *args)
        ) / (2 * h)
    return grad


def _max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_acceptance_1_gradient_oracle():
    start = time.perf_counter()
    lams = (0.0, 0.5, 5.0)
    worst = 0.0
    for draw in range(20):
        rng = np.random.default_rng([101, draw])
        lam = lams[draw % len(lams)]
        params, (x_e, x_s, xa_e, xa_s, y) = _random_gradient_case(rng)
        xe, xs = _scaled_stack(x_e, x_s, xa_e, xa_s)
        analytic, _, _ = gradients(params.theta, (5, 4, 6), xe, xs, y, lam)
        numeric = _fd_gradient(params, (x_e, x_s, xa_e, xa_s, y, lam))
        worst = max(worst, _max_rel_error(analytic, numeric))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "gradient oracle",
        worst < 1e-4 and elapsed < 30.0,
        f"20 draws, worst rel err {worst:.3g}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. AU-GOOD oracle


def _random_curve_inputs(rng):
    """Distinct thresholds and a normalized weight distribution."""
    k = int(rng.integers(2, 9))
    thresholds = rng.choice(np.linspace(0.05, 1.0, 96), size=k, replace=False)
    weights = rng.uniform(0.1, 1.0, size=k)
    return thresholds, weights / weights.sum()


def test_acceptance_2_au_good_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        thresholds, weights = _random_curve_inputs(rng)
        risks = rng.uniform(0.0, 2.0, size=len(thresholds))
        curve = curve_from_risks(thresholds, risks, "mae", weights)
        brute = float(np.dot(risks, weights))
        worst = max(worst, abs(au_good(curve) - brute))
    dominated = 0
    for _ in range(1000):
        thresholds, weights = _random_curve_inputs(rng)
        low = rng.uniform(0.0, 2.0, size=len(thresholds))
        high = low + rng.uniform(1e-6, 1.0, size=len(thresholds))
        a = au_good(curve_from_risks(thresholds, low, "mae", weights))
        b = au_good(curve_from_risks(thresholds, high, "mae", weights))
        dominated += a < b
    _verdict(
        2,
        "AU-GOOD oracle",
        worst < 1e-12 and dominated == 1000,
        f"worst |diff| {worst:.3g}, dominance {dominated}/1000",
    )


# ---------------------------------------------------------------------------
# 3. Metric identities


def test_acceptance_3_metric_identities():
    rng = np.random.default_rng(303)
    ok = True
    worst_zero = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 50))
        y = rng.normal(size=n)
        ok &= r_squared(y, y) == 1.0
        ok &= mae(y, y) == 0.0
        centred = abs(r_squared(np.full(n, y.mean()), y))
        worst_zero = max(worst_zero, centred)
    ok &= worst_zero <= 1e-12
    hand = r_squared([0.0, 1.0, 1.0], [0.0, 1.0, 2.0])
    ok &= hand == 0.5
    _verdict(
        3,
        "metric identities",
        ok,
        f"100 vectors, worst |R2(mean)| {worst_zero:.3g}, hand example R2 {hand}",
    )


# ---------------------------------------------------------------------------
# 4. Augmentation safety

# Every molecule here keeps its unprotected pool at or above
# floor(0.3 * atom_count), so the mask count is never clipped.
MASKABLE_CORPUS = (
    "CCCC",
    "CCCCCC",
    "CC(C)CCO",
    "Cc1ccccc1C",
    "CCCCCCCCCC",
    "CCSCC",
    "CCOC",
    "C1CCCCC1CCCC",
    "CC(=O)OCCCCC",
    "CC(C)(C)CCCC",
    "CCCCC",
    "CCCCCCC",
    "CCCCCCCC",
    "CCCCCCCCC",
    "CCOCC",
    "CCCOC",
    "CCCCO",
    "CCCCN",
    "CCCCS",
    "CC(C)CCCC",
)


def test_acceptance_4_augmentation_safety():
    graphs = [parse_smiles(text) for text in MASKABLE_CORPUS]
    assert len(graphs) >= 20
    ratios = (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)
    for g in graphs:
        free = sum(1 for p in detect_protected(g) if not p)
        assert free >= floor(0.3 * len(g))
    trials = 0
    violations = 0
    for gi, g in enumerate(graphs):
        protected = detect_protected(g)
        pool = unprotected_atoms(g)
        for pi, p in enumerate(ratios):
            # 84 records of this graph, drawn the way training draws them
            _, _, picks, pick_counts = draw_masks(
                [1] * 84, [len(g)] * 84, [len(pool)] * 84, RunConfig(p_s=0.0, p_g=p),
                [np.random.default_rng([404, gi, pi])], [84],
            )
            expected = floor(p * len(g))
            for chosen in np.split(picks, np.cumsum(pick_counts)[:-1]):
                mask = [False] * len(g)
                for atom in pool[chosen]:
                    mask[atom] = True
                trials += 1
                if sum(mask) != expected:
                    violations += 1
                elif any(m and prot for m, prot in zip(mask, protected)):
                    violations += 1
    _verdict(
        4,
        "augmentation safety",
        trials >= 10000 and violations == 0,
        f"{trials} trials, {violations} violations",
    )


# ---------------------------------------------------------------------------
# 5. Enumeration soundness


def test_acceptance_5_enumeration_soundness():
    corpus = (
        "CCO",
        "CC(C)O",
        "CCCC",
        "C1CC1",
        "C1CCCCC1",
        "c1ccccc1",
        "c1ccccc1O",
        "Cc1ccccc1",
        "CC(=O)O",
        "CC(=O)OC",
        "CC(=O)NC",
        "CCN",
        "CCS",
        "CCCl",
        "CC(C)(C)C",
        "C=CC=C",
        "CC#CC",
        "OCC(O)CO",
        "C1CCCCC1CC(=O)O",
        "c1ccncc1",
    )
    assert len(corpus) == 20
    rng = np.random.default_rng(505)
    checks = 0
    failures = 0
    for text in corpus:
        g = parse_smiles(text)
        canon = canonical_smiles(g)
        for variant in enumerate_smiles(g, 50, rng):
            h = parse_smiles(variant)
            checks += 1
            failures += not is_isomorphic(g, h)
            checks += 1
            failures += canonical_smiles(h) != canon
    _verdict(
        5,
        "enumeration soundness",
        checks == 2000 and failures == 0,
        f"{checks} checks, {failures} failures",
    )


# ---------------------------------------------------------------------------
# 6. Split soundness


def test_acceptance_6_split_soundness(bench300):
    start = time.perf_counter()
    thresholds = (0.40, 0.60, 0.80, 0.99)
    splits = build_ood_splits(bench300, thresholds, 0.3, seed=0)
    id_to_seq = {r.id: r.sequence for r in bench300}
    ok = True
    worst_lines = []
    for split in splits:
        assert split.train_ids and split.test_ids
        worst = max_cross_identity(split, id_to_seq)
        ok &= worst <= split.threshold
        worst_lines.append(f"{split.threshold:.2f}:{worst:.3f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 120.0
    _verdict(
        6,
        "split soundness",
        ok,
        f"max cross identity per threshold {', '.join(worst_lines)}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. OOD benefit (directional)


def test_acceptance_7_ood_benefit(bench300, ood_split):
    held_out = {rid.split("-")[1] for rid in ood_split.test_ids}
    assert len(held_out) == 3
    start = time.perf_counter()
    result = two_arm_comparison(bench300, ood_split, RunConfig(), seeds=range(5))
    elapsed = time.perf_counter() - start
    r2_wins = sum(row["treated_r2"] > row["control_r2"] for row in result["rows"])
    mae_wins = sum(row["treated_mae"] < row["control_mae"] for row in result["rows"])
    ok = result["r2_gain"] > 0.0 and result["mae_drop"] > 0.0 and elapsed < 300.0
    _verdict(
        7,
        "OOD benefit",
        ok,
        f"R2 {result['mean_control_r2']:.3f}->{result['mean_treated_r2']:.3f} "
        f"(gain {result['r2_gain']:+.4f}, wins {r2_wins}/5), "
        f"MAE drop {result['mae_drop']:+.4f} (wins {mae_wins}/5), "
        f"3 held-out families, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8. Ablation shape


def test_acceptance_8_ablation_shape(bench300, ood_split):
    start = time.perf_counter()
    interior = 0
    best = []
    for seed in range(5):
        rows = lambda_sweep(bench300, ood_split, RunConfig(seed=seed))
        idx = best_lambda_index(rows)
        best.append(idx)
        interior += 0 < idx < len(LAMBDA_GRID) - 1
    elapsed = time.perf_counter() - start
    _verdict(
        8,
        "ablation shape",
        interior >= 4,
        f"best grid indices {best}, interior {interior}/5, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 9. Determinism


def test_acceptance_9_determinism(tmp_path):
    synth_cfg = tmp_path / "synth.cfg"
    synth_cfg.write_text("family_count=6\nmembers_per_family=10\nseed=3\n", encoding="utf-8")
    run_cfg = tmp_path / "run.cfg"
    run_cfg.write_text("epochs=25\nseed=1\n", encoding="utf-8")

    def pipeline(root: Path):
        root.mkdir()
        argv_sets = [
            ["synth", "--config", synth_cfg, "--out", root / "bench.tsv"],
            [
                "split",
                "--in", root / "bench.tsv",
                "--out-dir", root / "splits",
                "--thresholds", "0.6,0.99",
            ],
            [
                "train",
                "--train", root / "splits" / "train-060.tsv",
                "--val", root / "splits" / "test-060.tsv",
                "--config", run_cfg,
                "--checkpoint-out", root / "model.ckpt",
                "--log-out", root / "train.log",
            ],
            [
                "eval",
                "--checkpoint", root / "model.ckpt",
                "--data", root / "bench.tsv",
                "--splits", root / "splits" / "splits.tsv",
                "--report-out", root / "report.txt",
            ],
        ]
        for argv in argv_sets:
            assert cli.main([str(a) for a in argv]) == 0

    pipeline(tmp_path / "a")
    pipeline(tmp_path / "b")
    artifacts = (
        "splits/splits.tsv",
        "splits/train-060.tsv",
        "splits/test-099.tsv",
        "train.log",
        "model.ckpt",
        "report.txt",
    )
    differing = [
        name
        for name in artifacts
        if not filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    ]
    _verdict(
        9,
        "determinism",
        not differing,
        f"{len(artifacts)} artifact kinds compared, differing: {differing or 'none'}",
    )
