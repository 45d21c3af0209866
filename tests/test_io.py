import dataclasses
import math

import numpy as np
import pytest

from enzood.augment import AugmentConfig, augment_dataset
from enzood.errors import ConfigError, DatasetError, DuplicateIdError
from enzood.io import (
    FORMATS,
    EsiRecord,
    RunConfig,
    config_hash,
    format_real,
    load_config,
    parse_config_text,
    read_dataset,
    resolved_items,
    write_dataset,
)
from enzood.molgraph import canonical_smiles, parse_smiles

HEADER = "id\tsequence\tsmiles\tvalue\ttask\torganism\tsubstrate_name\tph\ttemperature\tsubstrate_mask"


def make_record(i=0, **kw):
    base = dict(
        id=f"rec{i}",
        sequence="ACDEFGHIKLMNPQRSTVWY",
        smiles="CC(C)CCO",
        value=1.25,
        task="kcat",
    )
    base.update(kw)
    return EsiRecord(**base)


# ---------------------------------------------------------------------------
# Record validation


def test_record_validation_errors():
    with pytest.raises(DatasetError):
        make_record(id="")
    with pytest.raises(DatasetError):
        make_record(id="a b")
    with pytest.raises(DatasetError):
        make_record(sequence="ACDZ")
    with pytest.raises(DatasetError):
        make_record(sequence="")
    with pytest.raises(DatasetError):
        make_record(smiles="C)(")
    with pytest.raises(DatasetError):
        make_record(value=float("nan"))
    with pytest.raises(DatasetError):
        make_record(task="vmax")
    with pytest.raises(DatasetError):
        make_record(ph=float("inf"))
    with pytest.raises(DatasetError):
        make_record(organism="a\tb")
    with pytest.raises(DatasetError):
        make_record(substrate_mask=(True,))


def test_record_mask_respects_protection():
    # the hydroxyl oxygen (last atom) is protected
    with pytest.raises(DatasetError):
        make_record(substrate_mask=(False, False, False, False, False, True))
    r = make_record(substrate_mask=[0, 0, 1, 0, 0, 0])
    assert r.substrate_mask == (False, False, True, False, False, False)


def test_record_coercion():
    r = make_record(value=np.float64(2.5), ph=np.float64(7.0))
    assert type(r.value) is float and type(r.ph) is float
    assert r == make_record(value=2.5, ph=7.0)


def test_mask_symbols_allowed_in_sequence():
    r = make_record(sequence="ACXXEF")
    assert "X" in r.sequence


# ---------------------------------------------------------------------------
# Dataset round trips


def sample_records():
    return [
        make_record(0, organism="family-00", substrate_name="ethyl ester", ph=7.4,
                    temperature=30.0),
        make_record(1, sequence="ACXXEFGHIK", smiles="c1ccccc1O", value=-0.75,
                    task="km"),
        make_record(2, smiles="CC(C)CCO", value=1 / 3,
                    substrate_mask=(False, True, False, False, False, False)),
        make_record(3, value=1e-300),
        make_record(4, value=-2.5e17, ph=6.8),
    ]


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_round_trip_bit_exact(tmp_path, fmt):
    path = tmp_path / f"data.{fmt}"
    records = sample_records()
    write_dataset(records, path)
    again = read_dataset(path)
    assert again == records
    for a, b in zip(again, records):
        assert math.isclose(a.value, b.value, rel_tol=0, abs_tol=0)


@pytest.mark.parametrize("fmt", ["tsv", "jsonl"])
def test_rewrite_byte_identical(tmp_path, fmt):
    p1 = tmp_path / f"a.{fmt}"
    p2 = tmp_path / f"b.{fmt}"
    write_dataset(sample_records(), p1)
    write_dataset(sample_records(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_awkward_reals_survive(tmp_path):
    values = [0.1, 1 / 3, math.pi, 1e-300, -1e300, 7.0]
    records = [make_record(i, value=v) for i, v in enumerate(values)]
    for fmt in ("tsv", "jsonl"):
        path = tmp_path / f"x.{fmt}"
        write_dataset(records, path)
        for rec, v in zip(read_dataset(path), values):
            assert rec.value == v


def test_empty_roundtrips(tmp_path):
    tsv = tmp_path / "empty.tsv"
    write_dataset([], tsv)
    assert read_dataset(tsv) == []
    assert tsv.read_text() == HEADER + "\n"
    jsonl = tmp_path / "empty.jsonl"
    write_dataset([], jsonl)
    assert read_dataset(jsonl) == []


def test_format_inference_and_override(tmp_path):
    records = sample_records()[:2]
    path = tmp_path / "data.txt"
    with pytest.raises(ConfigError):
        write_dataset(records, path)
    write_dataset(records, path, fmt="jsonl")
    with pytest.raises(ConfigError):
        read_dataset(path)
    assert read_dataset(path, fmt="jsonl") == records
    with pytest.raises(ConfigError):
        read_dataset(path, fmt="csv")


def test_write_rejects_duplicate_ids(tmp_path):
    records = [make_record(0), make_record(0)]
    with pytest.raises(DuplicateIdError):
        write_dataset(records, tmp_path / "d.tsv")


# ---------------------------------------------------------------------------
# Error locations


def test_tsv_errors_name_the_line(tmp_path):
    good = "r1\tACDE\tCCO\t1.5\tkcat\t\t\t\t\t"
    bad_smiles = "r2\tACDE\tC)(\t1.5\tkcat\t\t\t\t\t"
    path = tmp_path / "d.tsv"
    path.write_text("\n".join([HEADER, good, bad_smiles]) + "\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert ":3:" in str(excinfo.value)

    path.write_text("\n".join([HEADER, good, "r2\tACDE\tCCO\tnope\tkcat\t\t\t\t\t"]) + "\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert ":3:" in str(excinfo.value) and "value" in str(excinfo.value)

    path.write_text("\n".join([HEADER, good, good]) + "\n")
    with pytest.raises(DuplicateIdError) as excinfo:
        read_dataset(path)
    assert ":3:" in str(excinfo.value)

    path.write_text("\n".join([HEADER, "r1\tACDE\tCCO\t1.5"]) + "\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert "columns" in str(excinfo.value)

    path.write_text("id\tseq\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert ":1:" in str(excinfo.value)

    path.write_text("")
    with pytest.raises(DatasetError):
        read_dataset(path)


def test_jsonl_errors_name_the_line(tmp_path):
    path = tmp_path / "d.jsonl"
    lines = [
        '{"id": "r1", "sequence": "ACDE", "smiles": "CCO", "value": 1.5, "task": "kcat"}',
        '{"id": "r2", "sequence": "ACDE", "smiles": "CCO", "value": 1.5, "task": "kcat", "color": "red"}',
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert ":2:" in str(excinfo.value) and "color" in str(excinfo.value)

    path.write_text('{"id": "r1"}\n')
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert "missing required" in str(excinfo.value)

    path.write_text("not json\n")
    with pytest.raises(DatasetError) as excinfo:
        read_dataset(path)
    assert ":1:" in str(excinfo.value)


def test_read_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        read_dataset(tmp_path / "nope.tsv")


# ---------------------------------------------------------------------------
# Augmented records persist


def test_augmented_records_round_trip(tmp_path):
    base = make_record(7)
    ((_, aug),) = augment_dataset([base], AugmentConfig(p_s=0.2, p_g=0.2, seed=1))
    assert aug.id == "rec7#aug"
    assert aug.substrate_mask is not None
    for fmt in FORMATS:
        path = tmp_path / f"aug.{fmt}"
        write_dataset([base, aug], path)
        back = read_dataset(path)
        assert back == [base, aug]
        assert back[1].substrate_mask == aug.substrate_mask
        assert canonical_smiles(back[1].graph) == canonical_smiles(aug.graph)
        assert "graph" not in path.read_text()
    # the parsed graph is derived state: out of ==, hash and repr
    twin = make_record(7)
    assert twin.graph is not base.graph
    assert twin == base and hash(twin) == hash(base)
    assert "graph" not in repr(base)
    assert repr(twin) == repr(base)
    # replace re-validates and re-parses the new smiles
    moved = dataclasses.replace(base, smiles="c1ccccc1O")
    assert canonical_smiles(moved.graph) == canonical_smiles(parse_smiles("c1ccccc1O"))
    assert len(moved.graph) == 7 and len(base.graph) == 6
    with pytest.raises(ValueError):
        dataclasses.replace(base, graph=base.graph)


# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults():
    cfg = parse_config_text("")
    assert cfg == RunConfig()
    assert cfg.p_s == 0.10 and cfg.p_g == 0.10
    assert cfg.lam == 0.5 and cfg.embed_dim == 64


def test_config_overrides_and_comments():
    text = """
    # optimizer block
    lam = 5.0
    epochs = 10

    normalize_cons = true
    substrate_mode = enumeration
    """
    cfg = parse_config_text(text)
    assert cfg.lam == 5.0 and cfg.epochs == 10
    assert cfg.normalize_cons is True
    assert cfg.substrate_mode == "enumeration"
    assert cfg.p_s == 0.10  # untouched default


def test_config_rejections():
    with pytest.raises(ConfigError) as excinfo:
        parse_config_text("p_q = 0.1\nlearningrate = 2\n")
    message = str(excinfo.value)
    assert "learningrate" in message and "p_q" in message
    with pytest.raises(ConfigError):
        parse_config_text("p_g = 0.35\n")
    with pytest.raises(ConfigError):
        parse_config_text("epochs = 2.5\n")
    with pytest.raises(ConfigError):
        parse_config_text("normalize_cons = True\n")
    with pytest.raises(ConfigError):
        parse_config_text("lam\n")
    with pytest.raises(ConfigError):
        parse_config_text("lam = 0.5\nlam = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config_text("lam = inf\n")
    with pytest.raises(ConfigError):
        parse_config_text("epochs = 0\n")


def test_load_config(tmp_path):
    assert load_config(None) == RunConfig()
    path = tmp_path / "run.cfg"
    path.write_text("seed = 7\np_s = 0.05\n")
    cfg = load_config(path)
    assert cfg.seed == 7 and cfg.p_s == 0.05
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_config_to_module_configs():
    cfg = parse_config_text("lam = 2.0\nseed = 9\np_g = 0.15\n")
    tc = cfg.train_config()
    assert tc.lam == 2.0 and tc.seed == 9
    assert tc.augment.p_g == 0.15 and tc.augment.seed == 9
    ac = cfg.augment_config()
    assert ac.p_s == cfg.p_s


def test_config_hash_stability():
    a = parse_config_text("lam = 0.5\n")
    b = RunConfig()
    assert config_hash(a) == config_hash(b)
    assert len(config_hash(a)) == 64
    assert set(config_hash(a)) <= set("0123456789abcdef")
    c = parse_config_text("lam = 5.0\n")
    assert config_hash(c) != config_hash(a)


def test_resolved_items_order_and_format():
    items = resolved_items(RunConfig())
    keys = [k for k, _ in items]
    assert keys[:4] == ["p_s", "p_g", "substrate_mode", "lam"]
    values = dict(items)
    assert values["p_s"] == format_real(0.10)
    assert values["normalize_cons"] == "false"
    assert values["epochs"] == "300"


def test_format_real_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** float(rng.integers(-20, 20)))
        assert float(format_real(x)) == x
