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
    run_set,
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
from enzood.seqid import build_ood_splits, max_identities
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
    assert max_identities([by_id[i].sequence for i in split.test_ids], fit_seqs).max() <= 0.6
    assert max_identities([by_id[i].sequence for i in split.val_ids], train_seqs).max() <= 0.6


def test_nested_split_rejects_overlap():
    with pytest.raises(ValueError):
        NestedSplit(0.6, ("a", "b"), ("b",), ("c",))


@pytest.mark.parametrize("groups", [
    (("a", "a"), ("b",), ("c",)),
    (("a",), ("b", "b"), ("c",)),
    (("a",), ("b",), ("c", "c")),
])
def test_nested_split_rejects_repeat_within_group(groups):
    """A repeated id would put one record twice into its list."""
    with pytest.raises(ValueError):
        NestedSplit(0.6, *groups)


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
    augment.augment_dataset([bench[0]], RunConfig(substrate_mode="enumeration"))
    # the patches reach the renderer's callers and record validation
    assert calls == ["enumerate_smiles", "parse_smiles"]
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


def test_mask_sweep_enumeration_substrate_rows_repeat_one_run(bench, split):
    """In enumeration mode p_g changes nothing in training, so every
    substrate row of the sweep holds the same scores."""
    cfg = dataclasses.replace(QUICK, substrate_mode="enumeration")
    rows = mask_sweep(bench, split, cfg)
    substrate = [row for row in rows if row["side"] == "substrate"]
    assert [row["ratio"] for row in substrate] == list(MASK_GRID)
    scores = {(row["val_mse"], row["val_r2"], row["val_mae"]) for row in substrate}
    assert len(scores) == 1


@pytest.fixture
def train_calls(monkeypatch):
    """Each (lam, p_s, p_g, seed) that harness passes to train."""
    calls = []
    real = harness.train

    def counting(train_recs, val_recs, cfg):
        calls.append((cfg.lam, cfg.p_s, cfg.p_g, cfg.seed))
        return real(train_recs, val_recs, cfg)

    monkeypatch.setattr(harness, "train", counting)
    return calls


@pytest.mark.parametrize(
    "mode, lam, runs",
    [
        pytest.param("enumeration", 0.5, 6, id="enumeration-6"),
        pytest.param("graph_mask", 0.5, 11, id="graph_mask-11"),
        pytest.param("graph_mask", 0.0, 1, id="graph_mask-lam0-1"),
    ],
)
def test_mask_sweep_trains_each_distinct_run_once(train_calls, bench, split, mode, lam, runs):
    """A row whose config trains like an earlier row's reuses its scores:
    in enumeration mode every substrate row is the enzyme row at the
    base p_s (0.10, on the grid), in graph_mask mode the enzyme and
    substrate rows at 0.10 are the base config twice, and at lam 0 no
    mask is drawn, so every row is one run."""
    cfg = dataclasses.replace(QUICK, substrate_mode=mode, lam=lam)
    rows = mask_sweep(bench, split, cfg)
    assert len(train_calls) == len(set(train_calls)) == runs
    assert len(rows) == 2 * len(MASK_GRID)
    scores = {(row["side"], row["ratio"]): (row["val_mse"], row["val_r2"], row["val_mae"])
              for row in rows}
    assert scores[("substrate", 0.10)] == scores[("enzyme", 0.10)]
    if mode == "enumeration":
        assert {scores[("substrate", r)] for r in MASK_GRID} == {scores[("enzyme", 0.10)]}
    if lam == 0.0:
        assert set(scores.values()) == {scores[("enzyme", 0.10)]}


@pytest.mark.parametrize("lam, runs", [(0.5, 4), (0.0, 2)])
def test_two_arm_comparison_trains_each_distinct_run_once(train_calls, bench, split, lam, runs):
    """Two runs per seed, the control at lam 0 and base_cfg itself; one
    when base_cfg is already at lam 0, and then the arms are equal."""
    cfg = dataclasses.replace(QUICK, epochs=2, lam=lam)
    res = two_arm_comparison(bench, split, cfg, seeds=[0, 1])
    assert len(train_calls) == len(set(train_calls)) == runs
    assert {call[0] for call in train_calls} == {0.0, lam}
    if lam == 0.0:
        assert res["r2_gain"] == 0.0 and res["mae_drop"] == 0.0


def test_lambda_sweep_trains_one_run_per_grid_value(train_calls, bench, split):
    cfg = dataclasses.replace(QUICK, epochs=2)
    lambda_sweep(bench, split, cfg, grid=(0.0, 0.5, 5.0))
    assert [call[0] for call in train_calls] == [0.0, 0.5, 5.0]


def test_train_on_split_is_run_set_of_one(train_calls, bench, split):
    params, log, scores = train_on_split(bench, split, QUICK)
    [(params_b, log_b, scores_b)] = run_set(bench, split, [QUICK])
    assert len(train_calls) == 2
    assert log == log_b
    assert scores == scores_b
    assert np.array_equal(params.theta, params_b.theta)


def test_empty_config_lists_raise_value_error(bench, split):
    """No driver trains nothing: an empty seed list or grid is refused
    before any record is selected."""
    with pytest.raises(ValueError, match="at least one config"):
        run_set(bench, split, [])
    with pytest.raises(ValueError, match="at least one config"):
        two_arm_comparison(bench, split, QUICK, seeds=[])
    with pytest.raises(ValueError, match="at least one config"):
        lambda_sweep(bench, split, QUICK, grid=())
    with pytest.raises(ValueError, match="at least one config"):
        mask_sweep(bench, split, QUICK, grid=())


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
    # the columns pick and order the row dict keys the report shows
    sections = [("lambda-sweep", ("lam", "val_mse", "test_r2"), rows)]
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
