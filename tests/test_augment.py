from math import floor

import numpy as np
import pytest

from enzood.augment import (
    ALPHABET,
    AMINO_ACIDS,
    AugmentConfig,
    MASK_SYMBOL,
    augment_dataset,
    augment_record,
    mask_graph,
    mask_sequence,
    validate_sequence,
)
from enzood.errors import ConfigError
from enzood.io import EsiRecord
from enzood.molgraph import detect_protected, enumerate_smiles, is_isomorphic, parse_smiles


def random_enzyme(rng, length):
    return "".join(AMINO_ACIDS[int(i)] for i in rng.integers(0, 20, size=length))


def test_alphabet():
    assert len(ALPHABET) == 21
    assert ALPHABET.endswith(MASK_SYMBOL)
    validate_sequence("ACDX")
    with pytest.raises(ValueError):
        validate_sequence("ACDB")
    with pytest.raises(ValueError):
        validate_sequence("")


def test_mask_sequence_counts():
    rng = np.random.default_rng(0)
    seq20 = random_enzyme(rng, 20)
    out = mask_sequence(seq20, 0.10, rng)
    assert out.count(MASK_SYMBOL) == 2
    seq9 = random_enzyme(rng, 9)
    assert mask_sequence(seq9, 0.10, rng) == seq9
    assert mask_sequence(seq20, 0.0, rng) == seq20


def test_mask_sequence_count_law():
    rng = np.random.default_rng(1)
    for _ in range(200):
        length = int(rng.integers(1, 120))
        seq = random_enzyme(rng, length)
        p_s = float(rng.uniform(0, 0.3))
        out = mask_sequence(seq, p_s, rng)
        assert out.count(MASK_SYMBOL) == floor(p_s * length)
        assert len(out) == length
        # untouched positions keep their residue
        assert all(a == b for a, b in zip(seq, out) if b != MASK_SYMBOL)


def test_mask_sequence_deterministic():
    seq = "ACDEFGHIKLMNPQRSTVWY" * 3
    a = mask_sequence(seq, 0.2, np.random.default_rng(99))
    b = mask_sequence(seq, 0.2, np.random.default_rng(99))
    assert a == b


def test_mask_sequence_validates_ratio():
    with pytest.raises(ValueError):
        mask_sequence("ACD", 0.31, np.random.default_rng(0))
    with pytest.raises(ValueError):
        mask_sequence("ACD", -0.01, np.random.default_rng(0))


def test_mask_graph_frozen_examples():
    rng = np.random.default_rng(0)
    g = parse_smiles("C1CC1")
    assert mask_graph(g, 0.3, rng) == (False, False, False)
    g = parse_smiles("CCCCCCCCCC")
    mask = mask_graph(g, 0.10, rng)
    assert sum(mask) == 1


def test_mask_graph_clips_to_unprotected_pool():
    g = parse_smiles("C1CCCCC1C")
    # 7 atoms, only the exocyclic methyl is unprotected
    assert sum(1 for p in detect_protected(g) if not p) == 1
    mask = mask_graph(g, 0.3, np.random.default_rng(0))
    assert sum(mask) == 1
    assert mask[6]


def test_mask_graph_never_marks_protected(corpus_smiles):
    graphs = [parse_smiles(s) for s in corpus_smiles]
    rng = np.random.default_rng(5)
    for _ in range(2000):
        g = graphs[int(rng.integers(len(graphs)))]
        p_g = float(rng.uniform(0, 0.3))
        mask = mask_graph(g, p_g, rng)
        assert not any(m and p for m, p in zip(mask, g.protected))
        assert sum(mask) == min(
            floor(p_g * len(g)), sum(1 for p in g.protected if not p)
        )


def test_augment_config_validation():
    AugmentConfig()
    with pytest.raises(ConfigError):
        AugmentConfig(p_s=0.35)
    with pytest.raises(ConfigError):
        AugmentConfig(p_g=-0.1)
    with pytest.raises(ConfigError):
        AugmentConfig(substrate_mode="edges")
    with pytest.raises(ConfigError):
        AugmentConfig(seed="zero")


def test_esipair_mask_invariant():
    """A record's substrate mask may not mark a protected atom and must
    cover every atom; the hydroxyl oxygen of ethanol is protected."""
    EsiRecord("r1", "ACD", "CCO", 1.0, substrate_mask=(True, False, False))
    with pytest.raises(ValueError):
        EsiRecord("r1", "ACD", "CCO", 1.0, substrate_mask=(False, False, True))
    with pytest.raises(ValueError):
        EsiRecord("r1", "ACD", "CCO", 1.0, substrate_mask=(True, False))


def test_augment_record_graph_mask_mode():
    rec = EsiRecord("r1", "ACDEFGHIKLMNPQRSTVWY", "CCCCCCCCCC", 1.5)
    cfg = AugmentConfig(p_s=0.10, p_g=0.10, substrate_mode="graph_mask")
    sequence, smiles, mask = augment_record(rec, cfg, np.random.default_rng(4))
    assert sequence.count(MASK_SYMBOL) == 2
    assert smiles == rec.smiles
    assert sum(mask) == 1


def test_augment_record_enumeration_mode():
    rec = EsiRecord("r1", "ACDEFGHIKL", "CC(=O)OC", -1.5)
    cfg = AugmentConfig(p_s=0.0, substrate_mode="enumeration")
    sequence, smiles, mask = augment_record(rec, cfg, np.random.default_rng(3))
    assert sequence == rec.sequence
    assert mask is None
    assert is_isomorphic(parse_smiles(smiles), rec.graph)


def test_augment_record_modes():
    """Both modes draw the enzyme mask first, then the substrate draw of
    their mode, from the one generator they are given."""
    rec = EsiRecord("r1", "ACDEFGHIKLMNPQRSTVWY", "CC(C)CCCCCO", 0.5)
    for mode in ("graph_mask", "enumeration"):
        cfg = AugmentConfig(p_s=0.2, p_g=0.3, substrate_mode=mode)
        rng = np.random.default_rng(5)
        sequence = mask_sequence(rec.sequence, cfg.p_s, rng)
        if mode == "graph_mask":
            expected = (sequence, rec.smiles, mask_graph(rec.graph, cfg.p_g, rng))
        else:
            expected = (sequence, enumerate_smiles(rec.graph, 1, rng)[0], None)
        assert augment_record(rec, cfg, np.random.default_rng(5)) == expected


def test_augment_record_deterministic():
    rec = EsiRecord("r1", "ACDEFGHIKLMNPQRSTVWY", "CC(C)CCO", 2.0)
    for mode in ("graph_mask", "enumeration"):
        cfg = AugmentConfig(p_s=0.2, p_g=0.2, substrate_mode=mode)
        a = augment_record(rec, cfg, np.random.default_rng(8))
        b = augment_record(rec, cfg, np.random.default_rng(8))
        assert a == b


def test_augment_dataset_pairing_and_determinism():
    rng = np.random.default_rng(10)
    records = [
        EsiRecord(f"r{i}", random_enzyme(rng, 30), "CC(C)CCO", float(i)) for i in range(100)
    ]
    cfg = AugmentConfig(seed=123)
    pairs = augment_dataset(records, cfg)
    assert len(pairs) == 100
    assert all(raw.value == aug.value for raw, aug in pairs)
    assert all(aug.id == raw.id + "#aug" for raw, aug in pairs)
    again = augment_dataset(records, cfg)
    assert pairs == again
    # per-record derivation: a subset reproduces the same augmentations
    subset = augment_dataset(records[:10], cfg)
    assert subset == pairs[:10]


def test_augment_dataset_identity_config():
    records = [EsiRecord("a", "ACDEFG", "CC(=O)O", 0.1)]
    cfg = AugmentConfig(p_s=0.0, p_g=0.0, substrate_mode="enumeration", seed=1)
    ((raw, aug),) = augment_dataset(records, cfg)
    assert aug.sequence == raw.sequence
    assert is_isomorphic(parse_smiles(aug.smiles), parse_smiles(raw.smiles))


def test_augment_dataset_rejects_empty():
    with pytest.raises(ValueError):
        augment_dataset([], AugmentConfig())


def test_pair_from_record():
    """A record carries its parsed substrate next to its mask."""
    rec = EsiRecord("r1", "ACDEFG", "CCO", -0.5, substrate_mask=(True, False, False))
    assert rec.sequence == "ACDEFG"
    assert rec.value == -0.5
    assert rec.substrate_mask == (True, False, False)
    assert len(rec.graph) == 3
