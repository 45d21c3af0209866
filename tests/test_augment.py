import tracemalloc
from collections import Counter
from math import comb, floor

import numpy as np
import pytest
from _augment_py import mask_graph, mask_sequence
from _molgraph_py import is_isomorphic

from enzood.augment import (
    ALPHABET,
    AMINO_ACIDS,
    MASK_SYMBOL,
    augment_dataset,
    draw_masks,
    sample_many,
    unprotected_atoms,
    validate_sequence,
)
from enzood.io import EsiRecord, RunConfig
from enzood.molgraph import detect_protected, enumerate_smiles, parse_smiles


def random_enzyme(rng, length):
    return "".join(AMINO_ACIDS[int(i)] for i in rng.integers(0, 20, size=length))


def twins(records, **settings):
    """The augmented halves augment_dataset makes of records."""
    return [aug for _, aug in augment_dataset(records, RunConfig(**settings))]


def enzymes(sequences):
    """Records of the given sequences on a one-atom substrate."""
    return [EsiRecord(f"e{i}", seq, "C", 0.0) for i, seq in enumerate(sequences)]


def atom_masks(graphs, p_g, rng):
    """Each graph's substrate mask, all drawn in one draw_masks call on
    rng with p_s = 0: pool indices mapped through unprotected_atoms."""
    pools = [unprotected_atoms(g) for g in graphs]
    _, _, picks, pick_counts = draw_masks(
        np.ones(len(graphs), dtype=np.int64), [len(g) for g in graphs],
        [len(pool) for pool in pools], RunConfig(p_s=0.0, p_g=p_g), [rng], [len(graphs)],
    )
    masks = []
    for g, pool, chosen in zip(graphs, pools, np.split(picks, np.cumsum(pick_counts)[:-1])):
        mask = np.zeros(len(g), dtype=bool)
        mask[pool[chosen]] = True
        masks.append(tuple(mask.tolist()))
    return masks


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
    records = enzymes([random_enzyme(rng, 20), random_enzyme(rng, 9)])
    seq20, seq9 = twins(records, p_s=0.10)
    assert seq20.sequence.count(MASK_SYMBOL) == 2
    assert seq9.sequence == records[1].sequence
    assert twins(records[:1], p_s=0.0)[0].sequence == records[0].sequence


def test_mask_sequence_count_law():
    rng = np.random.default_rng(1)
    for seed in range(20):
        records = enzymes(random_enzyme(rng, int(rng.integers(1, 120))) for _ in range(10))
        p_s = float(rng.uniform(0, 0.3))
        for record, aug in zip(records, twins(records, p_s=p_s, seed=seed)):
            seq, out = record.sequence, aug.sequence
            assert out.count(MASK_SYMBOL) == floor(p_s * len(seq))
            assert len(out) == len(seq)
            # untouched positions keep their residue
            assert all(a == b for a, b in zip(seq, out) if b != MASK_SYMBOL)


def test_mask_sequence_deterministic():
    records = enzymes(["ACDEFGHIKLMNPQRSTVWY" * 3])
    assert twins(records, p_s=0.2, seed=99) == twins(records, p_s=0.2, seed=99)


def test_mask_graph_frozen_examples():
    rng = np.random.default_rng(0)
    ring, chain = parse_smiles("C1CC1"), parse_smiles("CCCCCCCCCC")
    assert atom_masks([ring], 0.3, rng) == [(False, False, False)]
    assert [sum(mask) for mask in atom_masks([chain], 0.10, rng)] == [1]


def test_mask_graph_clips_to_unprotected_pool():
    g = parse_smiles("C1CCCCC1C")
    # 7 atoms, only the exocyclic methyl is unprotected
    assert sum(1 for p in detect_protected(g) if not p) == 1
    (mask,) = atom_masks([g], 0.3, np.random.default_rng(0))
    assert sum(mask) == 1
    assert mask[6]


def test_mask_graph_never_marks_protected(corpus_smiles):
    graphs = [parse_smiles(s) for s in corpus_smiles]
    rng = np.random.default_rng(5)
    for _ in range(20):
        batch = [graphs[int(i)] for i in rng.integers(len(graphs), size=100)]
        p_g = float(rng.uniform(0, 0.3))
        for g, mask in zip(batch, atom_masks(batch, p_g, rng)):
            assert not any(m and p for m, p in zip(mask, g.protected))
            assert sum(mask) == min(
                floor(p_g * len(g)), sum(1 for p in g.protected if not p)
            )


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
    (aug,) = twins([rec], p_s=0.10, p_g=0.10, substrate_mode="graph_mask", seed=4)
    assert aug.sequence.count(MASK_SYMBOL) == 2
    assert aug.smiles == rec.smiles
    assert sum(aug.substrate_mask) == 1


def test_augment_record_enumeration_mode():
    rec = EsiRecord("r1", "ACDEFGHIKL", "CC(=O)OC", -1.5)
    (aug,) = twins([rec], p_s=0.0, substrate_mode="enumeration", seed=3)
    assert aug.sequence == rec.sequence
    assert aug.substrate_mask is None
    assert is_isomorphic(parse_smiles(aug.smiles), rec.graph)


def test_draw_masks_enumeration_draws_no_atom():
    """Enumeration mode's atom draw is empty and takes nothing from the
    generator: the stream of graph_mask at p_g = 0."""
    g = parse_smiles("CC(C)CCCCCO")
    pool = unprotected_atoms(g)
    assert len(pool) > 0
    draws = {}
    for mode, p_g in (("enumeration", 0.3), ("graph_mask", 0.0)):
        rng = np.random.default_rng(7)
        cfg = RunConfig(p_s=0.2, p_g=p_g, substrate_mode=mode)
        sites, site_counts, picks, pick_counts = draw_masks([20], [len(g)], [len(pool)], cfg,
                                                            [rng], [1])
        assert picks.dtype == np.intp and picks.shape == (0,) and pick_counts.tolist() == [0]
        assert site_counts.tolist() == [4]
        draws[mode] = (sites.tolist(), rng.integers(1 << 30))
    assert draws["enumeration"] == draws["graph_mask"]


def consecutive_samples(rngs, pops, counts, per_rng):
    """The oracle: one random-key sample per non-empty request, in order."""
    out = []
    owners = np.repeat(np.arange(len(rngs)), per_rng)
    for owner, pop, k in zip(owners, pops, counts):
        if k:
            out.append(np.argsort(rngs[owner].random(pop))[:k])
    return np.concatenate(out) if out else np.empty(0, dtype=np.intp)


def assert_same_state(a, b):
    """Follow-up draws of every kind agree."""
    assert a.integers(1 << 40) == b.integers(1 << 40)
    assert a.random() == b.random()
    assert np.array_equal(a.permutation(9), b.permutation(9))
    assert np.array_equal(a.choice(60, size=7, replace=False), b.choice(60, size=7, replace=False))


def test_sample_many_matches_consecutive_samples():
    """Random request lists over 1 to 3 generators.  Most populations
    are sequence-sized; one list in ten holds populations past 10000
    with counts around pop // 50."""
    meta = np.random.default_rng(12)
    for trial in range(250):
        n = int(meta.integers(1, 10))
        if trial % 10:
            pops = meta.integers(1, 121, size=n)
            counts = np.where(
                meta.random(n) < 0.3,
                meta.integers(0, pops + 1),  # up to the whole population
                np.minimum(meta.integers(0, pops // 4 + 2), pops),
            )
        else:
            pops = meta.integers(9_990, 10_200, size=n)
            counts = pops // 50 + meta.integers(-2, 3, size=n)
        counts[meta.random(n) < 0.2] = 0
        g = int(meta.integers(1, 4))
        per_rng = np.bincount(np.sort(meta.integers(0, g, size=n)), minlength=g)
        seeds = [int(s) for s in meta.integers(1 << 31, size=g)]
        ours = [np.random.default_rng(s) for s in seeds]
        theirs = [np.random.default_rng(s) for s in seeds]
        got = sample_many(ours, pops, counts, per_rng)
        assert got.dtype == np.intp
        assert np.array_equal(got, consecutive_samples(theirs, pops, counts, per_rng))
        for a, b in zip(ours, theirs):
            assert_same_state(a, b)


@pytest.mark.parametrize(
    "pop, k",
    [
        (1, 1),
        (1, 0),
        (7, 7),  # the whole population
        (10_001, 201),
        (10_001, 10_001),
    ],
)
def test_sample_many_edges(pop, k):
    for with_neighbours in (False, True):
        pops, counts = [pop], [k]
        if with_neighbours:  # zero requests around it draw nothing
            pops, counts = [5, pop, 30, 4], [0, k, 3, 0]
        a, b = np.random.default_rng(21), np.random.default_rng(21)
        got = sample_many([a], pops, counts, [len(pops)])
        assert np.array_equal(got, consecutive_samples([b], pops, counts, [len(pops)]))
        assert_same_state(a, b)


def test_sample_many_zero_counts_draw_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert sample_many([rng], [5, 1, 0], [0, 0, 0], [3]).shape == (0,)
    assert sample_many([rng], [], [], [0]).shape == (0,)
    assert sample_many([], [], [], []).shape == (0,)
    assert rng.bit_generator.state == state


def test_sample_many_rejects_bad_counts():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_many([rng], [3], [4], [1])
    with pytest.raises(ValueError):
        sample_many([rng], [3], [-1], [1])
    with pytest.raises(ValueError):
        sample_many([rng], [3, 4], [1], [2])
    with pytest.raises(ValueError):  # the shares must cover every request
        sample_many([rng, rng], [3, 4], [1, 1], [1, 0])


def test_sample_many_draws_uniform_subsets():
    """20,000 draws of 3 from 7 over 8 generators: every one of the 35
    subsets comes up within 5 sigma of its share, no draw repeats a
    value, and a draw of the whole population is a permutation."""
    n, pop, k = 20_000, 7, 3
    rngs = [np.random.default_rng([31, g]) for g in range(8)]
    draws = sample_many(rngs, [pop] * n, [k] * n, [n // 8] * 8).reshape(n, k)
    assert all(len(set(d)) == k for d in draws.tolist())
    seen = Counter(frozenset(d) for d in draws.tolist())
    assert len(seen) == comb(pop, k)
    share = 1 / comb(pop, k)
    sigma = (n * share * (1 - share)) ** 0.5
    assert all(abs(c - n * share) < 5 * sigma for c in seen.values())
    whole = sample_many(rngs[:1], [pop] * 50, [pop] * 50, [50]).reshape(50, pop)
    assert all(sorted(d) == list(range(pop)) for d in whole.tolist())


def test_sample_many_memory_is_bounded_per_generator():
    """One generator's long population does not widen another's key
    table: padding 500 short requests to 20,000 would take about 80 MB."""
    rngs = [np.random.default_rng(5), np.random.default_rng(6)]
    pops, counts = [20_000] + [3] * 500, [2_000] + [1] * 500
    tracemalloc.start()
    try:
        got = sample_many(rngs, pops, counts, [1, 500])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(got) == 2_500
    assert peak < 4_000_000


def test_draw_masks_many_records_many_generators():
    """Records draw residues, then atoms from their pool, from their
    generator in record order; each draw is one random-key sample."""
    meta = np.random.default_rng(13)
    n = 11
    lengths = meta.integers(1, 90, size=n)
    atom_counts = meta.integers(1, 30, size=n)
    pool_sizes = np.minimum(meta.integers(0, 30, size=n), atom_counts)
    per_rng = [4, 0, 5, 2]
    cfg = RunConfig(p_s=0.25, p_g=0.3)
    sites, site_counts, picks, pick_counts = draw_masks(
        lengths, atom_counts, pool_sizes, cfg, [np.random.default_rng([9, g]) for g in range(4)],
        per_rng,
    )
    assert site_counts.tolist() == [floor(0.25 * x) for x in lengths]
    assert pick_counts.tolist() == [min(floor(0.3 * a), p) for a, p in zip(atom_counts, pool_sizes)]
    rngs = [np.random.default_rng([9, g]) for g in range(4)]
    want_sites, want_picks = [], []
    for owner, length, k, pool, m in zip(np.repeat(np.arange(4), per_rng), lengths, site_counts,
                                         pool_sizes, pick_counts):
        want_sites.extend(consecutive_samples([rngs[owner]], [length], [k], [1]))
        want_picks.extend(consecutive_samples([rngs[owner]], [pool], [m], [1]))
    assert sites.tolist() == want_sites and picks.tolist() == want_picks


def reference_twin(record, cfg, rng):
    """(sequence, smiles, substrate_mask) of a record's twin, one
    random-key sample per non-empty draw: the enzyme mask first, then the
    substrate draw of the mode."""
    sequence = mask_sequence(record.sequence, cfg.p_s, rng)
    if cfg.substrate_mode == "graph_mask":
        return sequence, record.smiles, mask_graph(record.graph, cfg.p_g, rng)
    return sequence, enumerate_smiles(record.graph, 1, rng)[0], None


def test_augment_record_modes():
    """Both modes draw the enzyme mask first, then the substrate draw of
    their mode, from the record's one generator."""
    rec = EsiRecord("r1", "ACDEFGHIKLMNPQRSTVWY", "CC(C)CCCCCO", 0.5)
    for mode in ("graph_mask", "enumeration"):
        cfg = RunConfig(p_s=0.2, p_g=0.3, substrate_mode=mode, seed=5)
        ((_, aug),) = augment_dataset([rec], cfg)
        expected = reference_twin(rec, cfg, np.random.default_rng([5, 0]))
        assert (aug.sequence, aug.smiles, aug.substrate_mask) == expected


def test_augment_record_deterministic():
    rec = EsiRecord("r1", "ACDEFGHIKLMNPQRSTVWY", "CC(C)CCO", 2.0)
    for mode in ("graph_mask", "enumeration"):
        settings = dict(p_s=0.2, p_g=0.2, substrate_mode=mode, seed=8)
        assert twins([rec], **settings) == twins([rec], **settings)


def test_augment_dataset_pairing_and_determinism():
    rng = np.random.default_rng(10)
    records = [
        EsiRecord(f"r{i}", random_enzyme(rng, 30), "CC(C)CCO", float(i)) for i in range(100)
    ]
    cfg = RunConfig(seed=123)
    pairs = augment_dataset(records, cfg)
    assert len(pairs) == 100
    assert all(raw.value == aug.value for raw, aug in pairs)
    assert all(aug.id == raw.id + "#aug" for raw, aug in pairs)
    again = augment_dataset(records, cfg)
    assert pairs == again
    # per-record derivation: a subset reproduces the same augmentations
    subset = augment_dataset(records[:10], cfg)
    assert subset == pairs[:10]


@pytest.mark.parametrize("mode", ["graph_mask", "enumeration"])
def test_augment_dataset_is_augment_record_per_record(mode):
    """One draw for the whole set gives each record what one
    random-key sample per draw on its (seed, index) generator gives it,
    renderings included."""
    rng = np.random.default_rng(14)
    smiles = ("CC(C)CC(=O)OCC", "CCCCCCCCCCO", "C", "c1ccccc1CCCN")
    records = [
        EsiRecord(f"r{i}", random_enzyme(rng, int(rng.integers(1, 60))), smiles[i % 4], 0.0)
        for i in range(15)
    ]
    cfg = RunConfig(p_s=0.3, p_g=0.3, substrate_mode=mode, seed=5)
    got = [aug for _, aug in augment_dataset(records, cfg)]
    for index, (record, aug) in enumerate(zip(records, got)):
        want = reference_twin(record, cfg, np.random.default_rng([cfg.seed, index]))
        assert (aug.sequence, aug.smiles, aug.substrate_mask) == want


def test_augment_dataset_identity_config():
    records = [EsiRecord("a", "ACDEFG", "CC(=O)O", 0.1)]
    cfg = RunConfig(p_s=0.0, p_g=0.0, substrate_mode="enumeration", seed=1)
    ((raw, aug),) = augment_dataset(records, cfg)
    assert aug.sequence == raw.sequence
    assert is_isomorphic(parse_smiles(aug.smiles), parse_smiles(raw.smiles))


def test_augment_dataset_rejects_empty():
    with pytest.raises(ValueError):
        augment_dataset([], RunConfig())


def test_pair_from_record():
    """A record carries its parsed substrate next to its mask."""
    rec = EsiRecord("r1", "ACDEFG", "CCO", -0.5, substrate_mask=(True, False, False))
    assert rec.sequence == "ACDEFG"
    assert rec.value == -0.5
    assert rec.substrate_mask == (True, False, False)
    assert len(rec.graph) == 3
