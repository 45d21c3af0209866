import dataclasses
import io
import json
import sys

import numpy as np
import pytest

from enzood import augment, harness, molgraph
from enzood.errors import DatasetError
from enzood.harness import (
    LAMBDA_GRID,
    LOG_COLUMNS,
    MASK_GRID,
    NestedSplit,
    best_lambda_index,
    evaluate_params,
    good_evaluation,
    lambda_sweep,
    mask_sweep,
    nested_identity_split,
    read_checkpoint,
    select_records,
    train_on_split,
    two_arm_comparison,
    write_checkpoint,
    write_report,
    write_train_log,
)
from enzood.io import RunConfig, config_hash, resolved_items
from enzood.metrics import METRIC_IDS
from enzood.model import init_params, params_to_jsonable
from enzood.seqid import build_ood_splits, max_identity_to_train
from enzood.synth import SynthConfig, generate

# small benchmark and a deliberately light model: harness plumbing is
# under test here, not learning quality
QUICK = RunConfig(
    epochs=6,
    batch_size=8,
    learning_rate=0.05,
    hidden_enzyme=8,
    hidden_substrate=4,
    embed_dim=8,
)


@pytest.fixture(scope="module")
def bench():
    records, _ = generate(SynthConfig(family_count=6, members_per_family=12, seed=3))
    return records


@pytest.fixture(scope="module")
def split(bench):
    return nested_identity_split(bench, 0.6, 0.3, 0.3, seed=0)


def test_nested_split_partitions_dataset(bench, split):
    ids = {r.id for r in bench}
    taken = set(split.train_ids) | set(split.val_ids) | set(split.test_ids)
    assert taken == ids
    assert len(split.train_ids) + len(split.val_ids) + len(split.test_ids) == len(ids)


def test_nested_split_identity_soundness(bench, split):
    by_id = {r.id: r for r in bench}
    train_seqs = [by_id[i].sequence for i in split.train_ids]
    fit_seqs = train_seqs + [by_id[i].sequence for i in split.val_ids]
    for i in split.test_ids:
        assert max_identity_to_train(by_id[i].sequence, fit_seqs) <= 0.6
    for i in split.val_ids:
        assert max_identity_to_train(by_id[i].sequence, train_seqs) <= 0.6


def test_nested_split_rejects_overlap():
    with pytest.raises(ValueError):
        NestedSplit(0.6, ("a", "b"), ("b",), ("c",))


def test_select_records_unknown_id(bench):
    with pytest.raises(DatasetError):
        select_records(bench, ["no-such-record"])


def test_train_on_split_deterministic(bench, split):
    params_a, log_a, scores_a = train_on_split(bench, split, QUICK)
    params_b, log_b, scores_b = train_on_split(bench, split, QUICK)
    assert log_a == log_b
    assert scores_a == scores_b
    assert np.array_equal(params_a.theta, params_b.theta)
    assert len(log_a) == QUICK.epochs
    assert {"val", "test"} <= set(scores_a)
    assert {"n", "mse", "r2", "mae"} == set(scores_a["val"])


@pytest.mark.parametrize("mode", ["graph_mask", "enumeration"])
def test_train_on_split_parses_no_smiles(bench, split, monkeypatch, mode):
    """Records carry their parsed graph, and the substrate featurizer
    cannot tell renderings of one graph apart, so training in either
    substrate mode and scoring neither render nor parse SMILES."""
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        return wrapper

    for real in (molgraph.parse_smiles, molgraph.enumerate_smiles):
        wrapped = counting(real)
        for name, module in list(sys.modules.items()):
            if name == "enzood" or name.startswith("enzood."):
                for attr, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attr, wrapped)
    dataclasses.replace(bench[0], id="probe")
    augment.augment_record(
        bench[0], augment.AugmentConfig(substrate_mode="enumeration"), np.random.default_rng(0)
    )
    # the patches reach record validation and the renderer's callers
    assert calls == ["parse_smiles", "enumerate_smiles"]
    calls.clear()
    cfg = dataclasses.replace(QUICK, substrate_mode=mode, lam=0.5)
    train_on_split(bench, split, cfg)
    assert calls == []


def test_evaluate_params_counts(bench, split):
    params, _, _ = train_on_split(bench, split, QUICK)
    scores = evaluate_params(params, select_records(bench, split.test_ids))
    assert scores["n"] == len(split.test_ids)
    assert scores["mse"] >= 0 and scores["mae"] >= 0


def test_two_arm_comparison_shape(bench, split):
    res = two_arm_comparison(bench, split, QUICK, seeds=[0, 1])
    assert [row["seed"] for row in res["rows"]] == [0, 1]
    mean_treated = np.mean([row["treated_r2"] for row in res["rows"]])
    assert res["mean_treated_r2"] == pytest.approx(mean_treated, abs=0)
    assert res["r2_gain"] == pytest.approx(
        res["mean_treated_r2"] - res["mean_control_r2"], abs=0
    )
    assert res["mae_drop"] == pytest.approx(
        res["mean_control_mae"] - res["mean_treated_mae"], abs=0
    )


def test_lambda_sweep_rows_and_best_index(bench, split):
    rows = lambda_sweep(bench, split, QUICK, grid=(0.0, 0.5, 5.0))
    assert [row["lam"] for row in rows] == [0.0, 0.5, 5.0]
    for row in rows:
        assert {"lam", "val_mse", "val_r2", "val_mae", "test_r2", "test_mae"} <= set(row)
    k = best_lambda_index(rows)
    assert rows[k]["val_mse"] == min(row["val_mse"] for row in rows)
    assert len(LAMBDA_GRID) == 5


def test_mask_sweep_shape(bench, split):
    rows = mask_sweep(bench, split, QUICK, grid=(0.05, 0.30))
    assert len(rows) == 4
    assert [(row["side"], row["ratio"]) for row in rows] == [
        ("enzyme", 0.05),
        ("enzyme", 0.30),
        ("substrate", 0.05),
        ("substrate", 0.30),
    ]
    assert MASK_GRID == (0.05, 0.10, 0.15, 0.20, 0.25, 0.30)


def test_good_evaluation_structure(bench, split):
    params, _, _ = train_on_split(bench, split, QUICK)
    splits = build_ood_splits(bench, [0.8, 0.4], test_fraction=0.3, seed=1)
    result = good_evaluation(bench, splits, params)
    thresholds = [row["threshold"] for row in result["per_threshold"]]
    assert thresholds == [0.4, 0.8]
    assert set(result["curves"]) == set(METRIC_IDS)
    for metric in METRIC_IDS:
        risks = [row[metric] for row in result["per_threshold"]]
        assert result["au_good"][metric] == pytest.approx(np.mean(risks), rel=1e-12)


def test_write_report_deterministic(tmp_path, bench, split):
    rows = lambda_sweep(bench, split, QUICK, grid=(0.0, 0.5))
    sections = [
        (
            "lambda-sweep",
            ("lam", "val_mse", "test_r2"),
            [(row["lam"], row["val_mse"], row["test_r2"]) for row in rows],
        )
    ]
    a, b = tmp_path / "a.report", tmp_path / "b.report"
    write_report(a, "ablate-lambda", QUICK, sections)
    write_report(b, "ablate-lambda", QUICK, sections)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    lines = text.splitlines()
    assert lines[0] == "# report: ablate-lambda"
    assert any(line.startswith("# seed: ") for line in lines)
    assert any(line.startswith(f"# config_hash: {config_hash(QUICK)}") for line in lines)
    assert "[lambda-sweep]" in lines
    body = lines[lines.index("[lambda-sweep]") + 1 :]
    assert body[0] == "lam\tval_mse\ttest_r2"
    assert len(body) == 3


def test_checkpoint_roundtrip(tmp_path, bench, split):
    params, _, _ = train_on_split(bench, split, QUICK)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, params, QUICK, extra={"note": "t"})
    loaded, data = read_checkpoint(path)
    assert np.array_equal(params.theta, loaded.theta)
    assert data["config_hash"] == config_hash(QUICK)
    assert data["seed"] == QUICK.seed
    assert data["note"] == "t"
    write_checkpoint(tmp_path / "again.ckpt", params, QUICK, extra={"note": "t"})
    assert path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()


EXTRAS = {
    "best_epoch": 7,
    "val": {"n": 3, "mse": 0.25, "r2": None, "mae": -0.0},
    "nested": {"b": {"tiny": 5e-324, "big": 1e16, "small": 1e-05}, "a": [1, -2, 0.5]},
}


def json_dump_bytes(params, cfg, extra) -> bytes:
    """What write_checkpoint wrote with json.dump: sorted keys, compact."""
    data = {
        "kind": "checkpoint",
        "seed": cfg.seed,
        "config_hash": config_hash(cfg),
        "config": dict(resolved_items(cfg)),
        "params": params_to_jsonable(params),
        **extra,
    }
    out = io.StringIO()
    json.dump(data, out, sort_keys=True, separators=(",", ":"))
    return (out.getvalue() + "\n").encode("utf-8")


@pytest.mark.parametrize("sizes", [(1, 1, 1), (2, 1, 3), (8, 4, 8)])
@pytest.mark.parametrize("extra", [None, EXTRAS])
def test_checkpoint_bytes_equal_json_dump(tmp_path, sizes, extra):
    """One-row matrices and one-entry vectors (sizes of 1) included."""
    params = init_params(np.random.default_rng(41), *sizes)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, params, QUICK, extra=extra)
    assert path.read_bytes() == json_dump_bytes(params, QUICK, extra or {})
    loaded, data = read_checkpoint(path)
    assert np.array_equal(loaded.theta, params.theta)
    if extra:
        assert {key: data[key] for key in extra} == extra
        assert str(data["nested"]["b"]["tiny"]) == "5e-324"


def test_checkpoint_is_written_a_row_at_a_time(tmp_path, monkeypatch):
    """No write is longer than the text of the longest matrix row (or
    vector block), so the document never exists as one string."""
    params = init_params(np.random.default_rng(42), 48, 16, 64)
    writes = []

    class Recording:
        def __init__(self, fh):
            self.fh = fh

        def write(self, text):
            writes.append(len(text))
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(harness, "open", lambda *a, **k: Recording(open(*a, **k)), raising=False)
    path = tmp_path / "model.ckpt"
    write_checkpoint(path, params, QUICK, extra=EXTRAS)
    rows = [
        row
        for block in params_to_jsonable(params).values()
        if isinstance(block, list)
        for row in (block if isinstance(block[0], list) else [block])
    ]
    longest = max(len(json.dumps(row, separators=(",", ":"))) for row in rows)
    assert max(writes) <= longest
    assert len(writes) > len(rows)
    assert sum(writes) == path.stat().st_size


def test_checkpoint_read_errors(tmp_path):
    with pytest.raises(DatasetError):
        read_checkpoint(tmp_path / "missing.ckpt")
    bad = tmp_path / "bad.ckpt"
    bad.write_text("{not json")
    with pytest.raises(DatasetError):
        read_checkpoint(bad)
    empty = tmp_path / "empty.ckpt"
    empty.write_text("{}")
    with pytest.raises(DatasetError):
        read_checkpoint(empty)


def test_write_train_log(tmp_path, bench, split):
    _, log, _ = train_on_split(bench, split, QUICK)
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    write_train_log(a, log, QUICK)
    write_train_log(b, log, QUICK)
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "# log: train"
    header = next(line for line in lines if not line.startswith("#"))
    assert tuple(header.split("\t")) == LOG_COLUMNS
    data_rows = [line for line in lines if not line.startswith("#")][1:]
    assert len(data_rows) == QUICK.epochs
