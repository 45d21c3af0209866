import numpy as np
import pytest

from enzood import metrics, seqid, synth
from enzood.errors import DegenerateTargetsError
from enzood.metrics import (
    GoodCurve,
    au_good,
    curve_from_risks,
    identity_weights,
    mae,
    r_squared,
)
from enzood.seqid import global_identity


def test_r_squared_examples():
    y = [0.5, 1.5, -2.0, 3.0]
    assert r_squared(y, y) == 1.0
    mean_preds = [np.mean(y)] * 4
    assert abs(r_squared(mean_preds, y)) < 1e-12
    assert r_squared([0, 1, 1], [0, 1, 2]) == 0.5


def test_r_squared_bounded_above():
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = rng.normal(size=10)
        p = rng.normal(size=10)
        assert r_squared(p, t) <= 1.0
        assert r_squared(t, t) == 1.0


def test_r_squared_errors():
    with pytest.raises(DegenerateTargetsError):
        r_squared([1.0, 2.0], [3.0, 3.0])
    with pytest.raises(ValueError):
        r_squared([1.0], [1.0])
    with pytest.raises(ValueError):
        r_squared([1.0, 2.0], [1.0, 2.0, 3.0])


def test_mae_examples():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -3.0]) == 2.0
    rng = np.random.default_rng(1)
    p, t = rng.normal(size=8), rng.normal(size=8)
    c = -2.5
    assert np.isclose(mae(c * p, c * t), abs(c) * mae(p, t))
    with pytest.raises(ValueError):
        mae([], [])
    with pytest.raises(ValueError):
        mae([1.0], [1.0, 2.0])


def test_good_curve_invariants():
    GoodCurve((0.4, 0.6), (0.1, 0.2), (0.5, 0.5), "mae")
    with pytest.raises(ValueError):
        GoodCurve((0.6, 0.4), (0.1, 0.2), (0.5, 0.5), "mae")
    with pytest.raises(ValueError):
        GoodCurve((0.4, 0.4), (0.1, 0.2), (0.5, 0.5), "mae")
    with pytest.raises(ValueError):
        GoodCurve((0.4, 0.6), (0.1, 0.2), (0.6, 0.5), "mae")
    with pytest.raises(ValueError):
        GoodCurve((0.4, 0.6), (0.1, 0.2), (-0.5, 1.5), "mae")
    with pytest.raises(ValueError):
        GoodCurve((0.4, 0.6), (0.1, 0.2), (0.5, 0.5), "rmse")
    with pytest.raises(ValueError):
        GoodCurve((), (), (), "mae")


def test_curve_from_risks_sorts_and_defaults():
    curve = curve_from_risks([0.8, 0.4, 0.6], [3.0, 1.0, 2.0], "mae")
    assert curve.thresholds == (0.4, 0.6, 0.8)
    assert curve.risks == (1.0, 2.0, 3.0)
    assert curve.weights == (1 / 3, 1 / 3, 1 / 3)
    shuffled = curve_from_risks([0.6, 0.8, 0.4], [2.0, 3.0, 1.0], "mae")
    assert shuffled == curve


def test_curve_echoes_supplied_values():
    r2s = [0.62, 0.55, 0.41, 0.18]
    curve = curve_from_risks([0.99, 0.8, 0.6, 0.4], r2s, "r2")
    assert curve.risks == (0.18, 0.41, 0.55, 0.62)


def test_au_good_examples():
    curve = curve_from_risks([0.4, 0.6, 0.8, 0.99], [0.4, 0.3, 0.2, 0.1], "mae")
    assert au_good(curve) == pytest.approx(0.25, abs=1e-15)
    spike = curve_from_risks(
        [0.4, 0.6, 0.8], [0.5, 0.7, 0.9], "mae", weights=[0.0, 1.0, 0.0]
    )
    assert au_good(spike) == 0.7


def test_au_good_matches_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        thresholds = np.sort(rng.uniform(0, 1, size=k))
        while len(set(thresholds)) < k:
            thresholds = np.sort(rng.uniform(0, 1, size=k))
        risks = rng.uniform(0, 2, size=k)
        w = rng.uniform(0, 1, size=k)
        w = w / w.sum()
        curve = curve_from_risks(thresholds, risks, "mae", weights=w)
        brute = 0.0
        for i in range(k):
            brute += curve.risks[i] * curve.weights[i] * 1.0
        assert abs(au_good(curve) - brute) <= 1e-12


def test_au_good_dominance():
    rng = np.random.default_rng(8)
    thresholds = [0.4, 0.6, 0.8, 0.99]
    for _ in range(200):
        w = rng.uniform(0, 1, size=4)
        w = w / w.sum()
        low = rng.uniform(0, 1, size=4)
        high = low + rng.uniform(0, 1, size=4)
        a = curve_from_risks(thresholds, low, "mae", weights=w)
        b = curve_from_risks(thresholds, high, "mae", weights=w)
        assert au_good(a) <= au_good(b)


def test_au_good_reorder_invariant():
    rng = np.random.default_rng(9)
    thresholds = [0.2, 0.5, 0.7, 0.9]
    risks = [1.0, 2.0, 3.0, 4.0]
    w = [0.1, 0.2, 0.3, 0.4]
    base = au_good(curve_from_risks(thresholds, risks, "mae", weights=w))
    for _ in range(10):
        perm = rng.permutation(4)
        shuffled = au_good(
            curve_from_risks(
                [thresholds[i] for i in perm],
                [risks[i] for i in perm],
                "mae",
                weights=[w[i] for i in perm],
            )
        )
        assert shuffled == base


def test_identity_weights_top_bin():
    train = ["ACDEFGHIKL", "WWWWWWWWWW"]
    test = ["ACDEFGHIKL", "ACDEFGHIKL"]
    w = identity_weights(test, train, [0.4, 0.6, 0.8, 0.99])
    assert w == (0.0, 0.0, 0.0, 1.0)


def test_identity_weights_uniform_bins():
    # maxima 0.3, 0.5, 0.7, 0.9 land one per bin
    train = ["A" * 10]
    test = ["A" * 3 + "W" * 7, "A" * 5 + "W" * 5, "A" * 7 + "W" * 3, "A" * 9 + "W"]
    w = identity_weights(test, train, [0.4, 0.6, 0.8, 0.99])
    assert w == (0.25, 0.25, 0.25, 0.25)
    assert sum(w) == 1.0


def test_identity_weights_validation():
    with pytest.raises(ValueError):
        identity_weights([], ["A"], [0.5])
    with pytest.raises(ValueError):
        identity_weights(["A"], ["A"], [0.6, 0.4])


def test_identity_weights_aligns_test_by_train_in_one_batch(monkeypatch):
    records, _ = synth.generate(synth.SynthConfig(family_count=4, members_per_family=6, seed=2))
    seqs = [r.sequence for r in records]
    test, train = seqs[::3], [s for k, s in enumerate(seqs) if k % 3]
    expected = [max(global_identity(q, t) for t in train) for q in test]
    assert seqid.max_identities(test, train).tolist() == expected

    original = seqid.align_stats_many
    calls = []

    def counted(as_, bs):
        calls.append(len(as_))
        return original(as_, bs)

    monkeypatch.setattr(seqid, "align_stats_many", counted)
    thresholds = [0.4, 0.6, 0.8, 0.99]
    counts = np.bincount(
        np.minimum(np.searchsorted(thresholds, expected, side="left"), 3), minlength=4
    )
    assert identity_weights(test, train, thresholds) == tuple(counts / counts.sum())
    assert calls == [len(test) * len(train)]
