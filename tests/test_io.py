import dataclasses
import math

import numpy as np
import pytest
from _molgraph_py import canonical_smiles

from enzood.augment import augment_dataset
from enzood.errors import ConfigError, DatasetError, DuplicateIdError
from enzood.io import (
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
from enzood.molgraph import parse_smiles
from enzood.synth import SynthConfig

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


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "data.tsv"
    records = sample_records()
    write_dataset(records, path)
    again = read_dataset(path)
    assert again == records
    for a, b in zip(again, records):
        assert math.isclose(a.value, b.value, rel_tol=0, abs_tol=0)


def test_rewrite_byte_identical(tmp_path):
    p1 = tmp_path / "a.tsv"
    p2 = tmp_path / "b.tsv"
    write_dataset(sample_records(), p1)
    write_dataset(sample_records(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_awkward_reals_survive(tmp_path):
    values = [0.1, 1 / 3, math.pi, 1e-300, -1e300, 7.0]
    records = [make_record(i, value=v) for i, v in enumerate(values)]
    path = tmp_path / "x.tsv"
    write_dataset(records, path)
    for rec, v in zip(read_dataset(path), values):
        assert rec.value == v


def test_empty_roundtrips(tmp_path):
    tsv = tmp_path / "empty.tsv"
    write_dataset([], tsv)
    assert read_dataset(tsv) == []
    assert tsv.read_text() == HEADER + "\n"


def test_format_inference_and_override(tmp_path):
    """.tsv, in any case, is the only dataset suffix."""
    records = sample_records()[:2]
    path = tmp_path / "data.TSV"
    write_dataset(records, path)
    assert path.read_text(encoding="utf-8").startswith(HEADER + "\n")
    assert read_dataset(path) == records
    for name in ("data.txt", "data.csv", "data.jsonl"):
        with pytest.raises(ConfigError):
            write_dataset(records, tmp_path / name)
        (tmp_path / name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
        with pytest.raises(ConfigError):
            read_dataset(tmp_path / name)


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


def test_read_missing_file(tmp_path):
    with pytest.raises(DatasetError):
        read_dataset(tmp_path / "nope.tsv")


# ---------------------------------------------------------------------------
# Augmented records persist


def test_augmented_records_round_trip(tmp_path):
    base = make_record(7)
    ((_, aug),) = augment_dataset([base], RunConfig(p_s=0.2, p_g=0.2, seed=1))
    assert aug.id == "rec7#aug"
    assert aug.substrate_mask is not None
    path = tmp_path / "aug.tsv"
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

    substrate_mode = enumeration
    """
    cfg = parse_config_text(text)
    assert cfg.lam == 5.0 and cfg.epochs == 10
    assert cfg.substrate_mode == "enumeration"
    assert cfg.p_s == 0.10  # untouched default


def test_config_comment_starts_at_line_start_or_after_whitespace():
    cfg = parse_config_text("lam = 5.0   # consistency weight\nepochs=10\t# short\n")
    assert cfg.lam == 5.0 and cfg.epochs == 10
    # the triple bond of CC#N has no whitespace before its '#'
    synth = parse_config_text("scaffolds = CC#N, CCO   # two scaffolds\n", kind=SynthConfig)
    assert synth.scaffolds == ("CC#N", "CCO")
    with pytest.raises(ConfigError, match="expected a comma-separated list"):
        parse_config_text("scaffolds = , # none\n", kind=SynthConfig)


# every field away from its default; "CC#N" keeps a '#' inside a value
NON_DEFAULT = [
    RunConfig(p_s=0.05, p_g=0.3, substrate_mode="enumeration", lam=1 / 3, learning_rate=0.007,
              epochs=12, batch_size=5, hidden_enzyme=7, hidden_substrate=3, embed_dim=9, seed=4),
    SynthConfig(family_count=3, prototype_length=21, mutation_rate=0.15, members_per_family=4,
                scaffolds=("CC#N", "c1ccccc1O"), sigma=0.2, rho=2 / 3, seed=5),
]


@pytest.mark.parametrize("cfg", NON_DEFAULT, ids=lambda cfg: type(cfg).__name__)
def test_config_round_trips_through_its_echo(cfg):
    """The resolved key=value lines, as a checkpoint echoes them, parse
    back to the same object: each field's parser reads what it wrote."""
    kind = type(cfg)
    default = kind()
    assert all(getattr(cfg, f.name) != getattr(default, f.name) for f in dataclasses.fields(kind))
    text = "\n".join(f"{key}={value}" for key, value in resolved_items(cfg))
    assert parse_config_text(text, kind=kind) == cfg


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
        parse_config_text("normalize_cons = false\n")
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


RUN_CONFIG_REJECTS = [
    ("p_s", 0.35),
    ("p_s", 0.31),
    ("p_s", -0.01),
    ("p_s", float("nan")),
    ("p_s", False),
    ("p_g", -0.1),
    ("p_g", 0.31),
    ("p_g", float("nan")),
    ("p_g", False),
    ("substrate_mode", "edges"),
    ("lam", -0.5),
    ("lam", float("nan")),
    ("lam", float("inf")),
    ("lam", True),
    ("lam", "0.5"),
    ("learning_rate", 0.0),
    ("learning_rate", -0.02),
    ("learning_rate", float("inf")),
    ("learning_rate", float("nan")),
    ("learning_rate", True),
    ("epochs", 0),
    ("epochs", 2.5),
    ("batch_size", 0),
    ("hidden_enzyme", 0),
    ("hidden_substrate", -1),
    ("embed_dim", 0),
    ("seed", -1),
    ("seed", "zero"),
    ("seed", 1.0),
    ("seed", True),
]


@pytest.mark.parametrize("field, value", RUN_CONFIG_REJECTS)
def test_run_config_rejects(field, value):
    with pytest.raises(ConfigError) as excinfo:
        RunConfig(**{field: value})
    assert str(excinfo.value).startswith(f"{field} must be")


def test_run_config_rejects_covers_every_field():
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert {field for field, _ in RUN_CONFIG_REJECTS} == fields


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
    assert values["substrate_mode"] == "graph_mask"
    assert values["epochs"] == "300"


def test_format_real_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** float(rng.integers(-20, 20)))
        assert float(format_real(x)) == x
