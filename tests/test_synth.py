import json
from dataclasses import fields

import numpy as np
import pytest
from _synth_py import reconstruct_targets

from enzood import io, model, synth
from enzood.errors import ConfigError
from enzood.io import read_dataset
from enzood.molgraph import MolGraph, parse_smiles, write_smiles
from enzood.seqid import global_identity, pairwise_identity_matrix
from enzood.synth import (
    DEFAULT_SCAFFOLDS,
    SynthConfig,
    generate,
    parse_synth_config_text,
    read_truth,
    sidecar_path,
    write_benchmark,
)


def test_config_defaults():
    cfg = SynthConfig()
    assert cfg.family_count == 10
    assert cfg.members_per_family == 30
    assert cfg.prototype_length == 80
    assert cfg.mutation_rate == 0.10
    assert cfg.scaffolds == DEFAULT_SCAFFOLDS
    assert cfg.sigma == 0.10
    assert cfg.rho == 0.5
    assert cfg.seed == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mutation_rate": 0.6},
        {"mutation_rate": -0.1},
        {"rho": 1.5},
        {"rho": -0.1},
        {"sigma": -1.0},
        {"family_count": 0},
        {"members_per_family": 0},
        {"prototype_length": 1},
        {"scaffolds": ()},
        {"scaffolds": ("CCO", "C(((")},
        {"sigma": float("nan")},
        {"sigma": float("inf")},
        {"seed": -1},
        {"rho": True},
        {"sigma": False},
        {"mutation_rate": "0.1"},
        {"family_count": True},
        {"family_count": 2.5},
        {"members_per_family": 1.0},
        {"prototype_length": "80"},
        {"seed": False},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError) as excinfo:
        SynthConfig(**kwargs)
    (field,) = kwargs
    assert field.removesuffix("s") in str(excinfo.value)


def test_parse_synth_config_text():
    assert parse_synth_config_text("") == SynthConfig()
    cfg = parse_synth_config_text(
        "family_count = 4\nscaffolds = CCO, CCN\nsigma = 0\nseed = 9\n"
    )
    assert cfg.family_count == 4
    assert cfg.scaffolds == ("CCO", "CCN")
    assert cfg.sigma == 0.0
    assert cfg.seed == 9
    with pytest.raises(ConfigError):
        parse_synth_config_text("epochs = 5\n")
    with pytest.raises(ConfigError):
        parse_synth_config_text("sigma = maybe\n")


def test_load_synth_config(tmp_path):
    assert io.load_config(None, SynthConfig) == SynthConfig()
    path = tmp_path / "synth.cfg"
    path.write_text("rho = 0.25\n")
    assert io.load_config(path, SynthConfig).rho == 0.25
    with pytest.raises(ConfigError):
        io.load_config(tmp_path / "absent.cfg", SynthConfig)


def test_generate_counts_ids_metadata():
    records, truth = generate(SynthConfig())
    assert len(records) == 300
    assert len({r.id for r in records}) == 300
    for r in records[:40]:
        assert r.id.startswith("esi-f") and "-m" in r.id
        assert r.organism.startswith("family-")
        assert r.substrate_name.startswith("scaffold-")
        assert r.task == "kcat"
    assert len({r.organism for r in records}) == 10


def test_generate_deterministic():
    a_records, a_truth = generate(SynthConfig())
    b_records, b_truth = generate(SynthConfig())
    assert a_records == b_records
    assert a_truth == b_truth
    c_records, _ = generate(SynthConfig(seed=1))
    assert c_records != a_records


@pytest.mark.parametrize(
    "cfg, bins, first_weight",
    [
        (
            SynthConfig(),
            [47, 68, 75, 91, 107, 118, 130, 135, 158, 161, 176, 226, 255, 263, 264, 274, 290,
             298, 307, 352, 382, 397, 433, 437],
            -11.146760435765962,
        ),
        (
            SynthConfig(family_count=6, members_per_family=10, prototype_length=40, seed=0),
            [51, 52, 118, 135, 143, 158, 161, 205, 226, 228, 258, 263, 265, 267, 271, 274, 292,
             298, 299, 352, 389, 397, 433],
            5.52277511078756,
        ),
    ],
    ids=["default", "pipeline"],
)
def test_generate_enzyme_bins_are_frozen(cfg, bins, first_weight):
    """The enzyme bins generate draws, and the first weight drawn after
    them from the same generator, frozen as they were first drawn: a
    change to that draw stream moves them, though every same-tree
    determinism check would still pass.  The pipeline set has 23 inner
    bins and takes them all, so there only the weight shows the draw."""
    _, truth = generate(cfg)
    assert [i for i, _ in truth["enzyme_features"]] == bins
    assert truth["enzyme_features"][0][1] == pytest.approx(first_weight, rel=1e-12)


def test_generate_parses_each_scaffold_and_substrate_once(monkeypatch):
    """Each scaffold is parsed once, by the config's check, whose graphs
    generate decorates, and each decorated SMILES once, by its
    EsiRecord: the target featurizes the graph that was drawn."""
    calls = {"synth": 0, "io": 0}

    def counting(module):
        real = module.parse_smiles

        def parse(text):
            calls[module.__name__.rsplit(".", 1)[1]] += 1
            return real(text)

        return parse

    for module in (synth, io):
        monkeypatch.setattr(module, "parse_smiles", counting(module))
    cfg = SynthConfig(family_count=3, members_per_family=5, seed=4)
    records, _ = generate(cfg)
    assert calls == {"synth": len(cfg.scaffolds), "io": len(records)}


def test_parsed_scaffolds_are_no_field():
    """The scaffold graphs the check parses ride on the config outside
    its fields: equality, hashing, repr, the resolved items and the
    sidecar's config see the declared settings alone."""
    cfg = SynthConfig(family_count=1, members_per_family=2)
    assert [write_smiles(g) for g in cfg._scaffold_graphs] == [
        write_smiles(parse_smiles(text)) for text in cfg.scaffolds
    ]
    names = [f.name for f in fields(cfg)]
    assert "_scaffold_graphs" not in names and "_scaffold_graphs" not in repr(cfg)
    assert [key for key, _ in io.resolved_items(cfg)] == names
    twin = SynthConfig(family_count=1, members_per_family=2)
    assert cfg == twin and hash(cfg) == hash(twin)
    assert io.config_hash(cfg) == io.config_hash(twin)
    _, truth = generate(cfg)
    assert list(truth["config"]) == names


def featurized_batches(monkeypatch, cfg):
    """(every batch generate(cfg) hands _featurize, the records)."""
    batches = []
    real = synth._featurize

    def spy(records):
        batches.append(list(records))
        return real(batches[-1])

    monkeypatch.setattr(synth, "_featurize", spy)
    records, _ = generate(cfg)
    return batches, records


def test_generate_featurizes_every_record_in_one_call(monkeypatch):
    """generate featurizes all its drawn records in one _featurize call,
    in record order, each with the substrate graph it drew (which writes
    the record's SMILES) and no mask."""
    cfg = SynthConfig(family_count=3, members_per_family=5, seed=4)
    batches, records = featurized_batches(monkeypatch, cfg)
    assert len(batches) == 1
    (batch,) = batches
    assert [r.sequence for r in batch] == [r.sequence for r in records]
    assert [write_smiles(r.graph) for r in batch] == [r.smiles for r in records]
    assert all(r.substrate_mask is None for r in batch)


@pytest.mark.parametrize("seed", range(6))
def test_decorate_steps_build_what_the_checking_constructor_builds(seed):
    """Each _decorate step skips MolGraph's checks and its bridge search;
    the graph it builds is the one MolGraph(atoms, bonds) checks and
    builds, field for field, and one step at a time draws as the whole
    call does."""
    steps = 0
    for text in DEFAULT_SCAFFOLDS + ("c1ccccc1CC", "C1CC2CCC1C2", "CC%12CCC%12C"):
        start = graph = parse_smiles(text)
        rng = np.random.default_rng([seed, len(text)])
        for _ in range(synth._MAX_DECORATIONS):
            grown = synth._decorate(graph, 1, rng)
            if grown is graph:
                break
            graph, steps = grown, steps + 1
            checked = MolGraph(graph.atoms, graph.bonds)
            for field in ("atoms", "bonds", "adjacency", "ring_membership"):
                assert getattr(graph, field) == getattr(checked, field), (text, field)
        rng = np.random.default_rng([seed, len(text)])
        whole = synth._decorate(start, synth._MAX_DECORATIONS, rng)
        assert whole.atoms == graph.atoms and whole.bonds == graph.bonds
    assert steps > 0


@pytest.mark.parametrize(
    "cfg",
    [
        SynthConfig(),
        SynthConfig(family_count=6, members_per_family=10, prototype_length=40),
        SynthConfig(
            family_count=4, members_per_family=8, seed=3,
            scaffolds=("c1ccccc1CC", "C1CC2CCC1C2", "CC%12CCC%12C", "CC(C)(C)CC(=O)[O-]"),
        ),
    ],
)
def test_generate_drawn_graphs_count_as_the_parsed_records(monkeypatch, cfg):
    """The substrate count row is invariant under isomorphism, so each
    drawn graph counts exactly as its record's graph, parsed from the
    written SMILES, does; only the order of the per-atom element bins
    may differ."""
    (batch,), records = featurized_batches(monkeypatch, cfg)
    assert len(batch) == len(records)
    (_, bins, _, counts), (_, want_bins, _, want_counts) = (
        model._encode(rs) for rs in (batch, records)
    )
    assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)
    ends = np.cumsum(counts[:, -1])[:-1]  # each count row ends with its atom total
    for got, want, record in zip(np.split(bins, ends), np.split(want_bins, ends), records):
        assert np.array_equal(np.sort(got), np.sort(want)), record.smiles


def test_mutation_rate_zero_collapses_families():
    records, _ = generate(SynthConfig(family_count=3, members_per_family=5, mutation_rate=0.0))
    by_family = {}
    for r in records:
        by_family.setdefault(r.organism, set()).add(r.sequence)
    assert all(len(seqs) == 1 for seqs in by_family.values())
    first = records[0].sequence
    assert global_identity(first, records[1].sequence) == 1.0


def test_sigma_zero_targets_reproducible():
    for rho in (0.0, 0.5):
        records, truth = generate(SynthConfig(sigma=0.0, rho=rho))
        rebuilt = reconstruct_targets(records, truth)
        assert all(rebuilt[i] == records[i].value for i in range(len(records)))


def test_reconstruction_residuals_match_sigma():
    records, truth = generate(SynthConfig())
    resid = np.array([r.value for r in records]) - reconstruct_targets(records, truth)
    assert abs(float(resid.std()) - 0.10) < 0.03
    assert float(np.abs(resid).max()) < 0.6


def test_three_family_recovery_matches_components_oracle():
    # oracle: union-find over the full pairwise identity graph at 0.6
    records, _ = generate(SynthConfig(family_count=3, members_per_family=30))
    seqs = [r.sequence for r in records]
    parent = list(range(len(seqs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    identity = pairwise_identity_matrix(seqs)
    for i in range(len(seqs)):
        for j in range(i + 1, len(seqs)):
            if identity[i, j] > 0.6:
                parent[find(i)] = find(j)
    components = {}
    families = {}
    for k, r in enumerate(records):
        components.setdefault(find(k), set()).add(k)
        families.setdefault(r.organism, set()).add(k)
    assert len(components) == 3
    # the components are exactly the families
    assert {frozenset(c) for c in components.values()} == {frozenset(v) for v in families.values()}


def test_family_identity_structure():
    records, _ = generate(SynthConfig())
    rng = np.random.default_rng(5)
    for _ in range(150):
        i, j = rng.integers(0, len(records), 2)
        if i == j:
            continue
        ident = global_identity(records[i].sequence, records[j].sequence)
        if records[i].organism == records[j].organism:
            assert ident >= 0.65
        else:
            # families must stay separable even at the lowest split
            # threshold the acceptance checks use (0.40)
            assert ident <= 0.40


def test_substrates_are_canonical_smiles():
    records, _ = generate(SynthConfig())
    for r in records:
        assert write_smiles(parse_smiles(r.smiles)) == r.smiles


def test_decorations_only_append_allowed_atoms():
    records, _ = generate(SynthConfig())
    def counts(smiles):
        out = {}
        for atom in parse_smiles(smiles).atoms:
            out[atom.element] = out.get(atom.element, 0) + 1
        return out
    for r in records:
        scaffold = DEFAULT_SCAFFOLDS[int(r.substrate_name.split("-")[1])]
        base, deco = counts(scaffold), counts(r.smiles)
        extra = {el: deco.get(el, 0) - base.get(el, 0) for el in set(deco) | set(base)}
        assert all(v >= 0 for v in extra.values())
        assert sum(extra.values()) <= 3
        assert {el for el, v in extra.items() if v > 0} <= {"C", "Cl", "F"}


def test_substrate_slot_pool_is_the_topology_slots():
    """Bond orders 11-14, ring atoms 15, degrees 0..4+ 16-20 and the atom
    total 22 of the model's 23-entry row; the element bins, the MASKED
    bin and the charge sum stay out."""
    assert synth._SUBSTRATE_SLOT_POOL == tuple(range(11, 21)) + (22,)
    assert model.SUBSTRATE_FEATURES == 23


def test_substrate_signal_sits_on_topology_slots():
    _, truth = generate(SynthConfig())
    idx = [i for i, _ in truth["substrate_features"]]
    assert set(idx) <= set(range(11, 21)) | {22}
    assert all(np.isfinite(w) and w != 0 for _, w in truth["substrate_features"])
    assert [i for i, _ in truth["enzyme_features"]] == sorted(
        i for i, _ in truth["enzyme_features"]
    )


def test_benchmark_sidecar_roundtrip(tmp_path):
    records, truth = generate(SynthConfig(sigma=0.0))
    path = tmp_path / "bench.tsv"
    side = write_benchmark(records, truth, path)
    assert side == sidecar_path(path)
    loaded = read_truth(path)
    assert loaded == json.loads(json.dumps(truth))
    back = read_dataset(path)
    rebuilt = reconstruct_targets(back, loaded)
    assert all(rebuilt[i] == back[i].value for i in range(len(back)))
    with pytest.raises(ConfigError):
        read_truth(tmp_path / "nothing.tsv")


def test_write_benchmark_deterministic(tmp_path):
    records, truth = generate(SynthConfig())
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    write_benchmark(records, truth, a)
    write_benchmark(records, truth, b)
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()


def test_default_benchmark_supports_nested_split(ood_split):
    split = ood_split
    n = len(split.train_ids) + len(split.val_ids) + len(split.test_ids)
    assert n == 300
    assert len(split.test_ids) >= 60
    assert len(split.val_ids) >= 30
