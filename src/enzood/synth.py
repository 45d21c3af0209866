"""Synthetic enzyme-substrate benchmark with a controllable shortcut.

Enzymes come from point-mutated family prototypes, substrates from a
scaffold set with small alkyl/halide decorations.  Targets are linear in
named invariant features (selected enzyme 2-mer bins plus substrate
topology descriptors) with an additive per-family offset scaled by rho:
the offset is pure shortcut signal, predictive in-family and worthless
on held-out families, which is exactly the failure mode consistency
training is supposed to resist.  The targets read the feature rows the
model trains on: every drawn record is featurized in one batch by
``model._featurize``, from the graph it drew (the substrate row is
invariant under isomorphism, so it is the row of the written SMILES
parsed back).  The ground-truth weights land in a JSON sidecar so tests
can rebuild noise-free targets bit-exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .augment import ALPHABET, AMINO_ACIDS, choice_many
from .errors import ConfigError
from .io import EsiRecord, check_integer, check_real, parse_config_text, write_dataset
from .model import _featurize
from .molgraph import Atom, Bond, BOND_SINGLE, MolGraph, parse_smiles, write_smiles

DEFAULT_SCAFFOLDS = (
    "CCO",
    "CCCC",
    "CC(C)CO",
    "CC(=O)OCC",
    "CCc1ccccc1",
    "CCC1CCCCC1",
    "CCSC",
    "CC(=O)NCC",
)

# appended decorations lean alkyl with occasional halides
_DECORATION_ELEMENTS = ("C", "C", "C", "Cl", "F")
_MAX_DECORATIONS = 3


# substrate descriptor entries read from intact topology (bond-order
# fractions, ring fraction, degree histogram, atom count): masking hides
# atom identity but leaves these unchanged, so they are genuinely
# invariant features, unlike element fractions which bleed into the
# masked bin.  The signal picks the most-varying of these over the
# realized substrate population.
_SUBSTRATE_SLOT_POOL = tuple(range(11, 21)) + (22,)

# family prototypes reorder contiguous blocks of a shared ancestor and
# then diverge by point mutation: block reordering keeps alignment
# identity between families near chance, so identity clustering separates
# them cleanly at every threshold, while the divergence mutations give
# each family the residue-pattern signature that makes the per-family
# offset learnable in-distribution (and erodable by masking)
_PROTOTYPE_BLOCKS = 16
_PROTOTYPE_DIVERGENCE = 0.20

_N_ENZYME_BINS = 24
_ENZYME_WEIGHT_SCALE = 4.0
_N_SUBSTRATE_SLOTS = 3
_SUBSTRATE_SIGNAL_STD = 0.70


@dataclass(frozen=True)
class SynthConfig:
    """Benchmark shape and shift knobs.

    rho scales the per-family target offset (the spurious shortcut);
    sigma is the label noise, both in log10 units.  Each scaffold is
    parsed once, here, to check it; generate reuses those graphs.
    """

    family_count: int = 10
    prototype_length: int = 80
    mutation_rate: float = 0.10
    members_per_family: int = 30
    scaffolds: tuple[str, ...] = DEFAULT_SCAFFOLDS
    sigma: float = 0.10
    rho: float = 0.5
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "scaffolds", tuple(self.scaffolds))
        for name, least in (
            ("family_count", 1),
            ("prototype_length", 2),
            ("members_per_family", 1),
            ("seed", 0),
        ):
            check_integer(name, getattr(self, name), least)
        for name in ("mutation_rate", "sigma", "rho"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.mutation_rate <= 0.5:
            raise ConfigError(f"mutation_rate must be in [0, 0.5], got {self.mutation_rate}")
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ConfigError(f"sigma must be finite and non-negative, got {self.sigma}")
        if not 0.0 <= self.rho <= 1.0:
            raise ConfigError(f"rho must be in [0, 1], got {self.rho}")
        if not self.scaffolds:
            raise ConfigError("scaffold set must be non-empty")
        graphs = []
        for k, text in enumerate(self.scaffolds):
            try:
                graphs.append(parse_smiles(text))
            except ValueError as exc:
                raise ConfigError(f"scaffold {k} ({text!r}) does not parse: {exc}") from exc
        # the graphs generate decorates: an attribute, not a field, so
        # fields(), equality, hashing and repr never see it
        object.__setattr__(self, "_scaffold_graphs", tuple(graphs))


def parse_synth_config_text(text: str, origin: str = "<synth-config>") -> SynthConfig:
    """The run configuration's key=value grammar, read into a SynthConfig;
    scaffolds is a comma-separated SMILES list."""
    return parse_config_text(text, origin, SynthConfig)


# ---------------------------------------------------------------------------
# Generation


def _random_sequence(length: int, rng: np.random.Generator) -> str:
    return "".join(AMINO_ACIDS[int(i)] for i in rng.integers(0, len(AMINO_ACIDS), length))


def _mutate(prototype: str, rate: float, rng: np.random.Generator) -> str:
    """Independent per-position substitution; the replacement always
    differs from the original residue."""
    if rate == 0.0:
        return prototype
    out = list(prototype)
    flips = rng.random(len(out)) < rate
    for pos in np.nonzero(flips)[0]:
        old = AMINO_ACIDS.index(out[pos])
        out[pos] = AMINO_ACIDS[(old + 1 + int(rng.integers(len(AMINO_ACIDS) - 1))) % len(AMINO_ACIDS)]
    return "".join(out)


def _decorate(graph: MolGraph, count: int, rng: np.random.Generator) -> MolGraph:
    """Attach up to ``count`` single-bonded atoms on unprotected positions
    that still hold a hydrogen; stops early when no site is eligible.
    Each step trades one of the site's hydrogens for a bond to a new
    leaf, which no valence ceiling forbids and which closes no ring, so
    the graph is built with no check and its ring membership gains one
    False."""
    for _ in range(count):
        sites = [
            i
            for i in range(len(graph))
            if not graph.protected[i] and graph.atoms[i].explicit_h >= 1
        ]
        if not sites:
            break
        site = sites[int(rng.integers(len(sites)))]
        element = _DECORATION_ELEMENTS[int(rng.integers(len(_DECORATION_ELEMENTS)))]
        atoms = list(graph.atoms)
        old = atoms[site]
        atoms[site] = Atom(old.element, old.formal_charge, old.aromatic, old.explicit_h - 1)
        atoms.append(Atom(element, 0, False, 3 if element == "C" else 0))
        bonds = graph.bonds + (Bond(site, len(atoms) - 1, BOND_SINGLE),)
        graph = MolGraph._built(tuple(atoms), bonds, graph.ring_membership + (False,))
    return graph


def _signal(e: np.ndarray, s: np.ndarray, enzyme_features, substrate_features) -> float:
    """Linear invariant part of the target, from a record's enzyme and
    substrate feature rows.  ``s`` holds the integers of the substrate
    parsed from its serialized SMILES, as ``EsiRecord.graph`` is, so
    generation and a reconstruction from the sidecar weights share every
    float operation."""
    total = 0.0
    for idx, w in enzyme_features:
        total += w * e[idx]
    for idx, w in substrate_features:
        total += w * s[idx]
    return float(total)


def _substrate_weights(X: np.ndarray, rng: np.random.Generator) -> list[list]:
    """Pick ``_N_SUBSTRATE_SLOTS`` invariant descriptor entries with the
    largest spread over the realized substrate population.

    Slots are std-normalized so each moves the target comparably; a sign
    is drawn per slot but flipped whenever the weighted slot would cancel
    against the slots already chosen (these descriptors can be strongly
    correlated, e.g. ring fraction and degree-2 fraction).  The whole
    bundle is then rescaled so the substrate part of the signal has
    exactly ``_SUBSTRATE_SIGNAL_STD`` spread over the realized
    population, whatever the correlation structure of the draw.  X holds
    one substrate descriptor per row."""
    stds = X.std(axis=0)
    live = [i for i in _SUBSTRATE_SLOT_POOL if stds[i] > 1e-9]
    live.sort(key=lambda i: (-stds[i], i))
    slots = live[:_N_SUBSTRATE_SLOTS]
    combo = np.zeros(len(X))
    weights = {}
    for i in slots:
        w = (1.0 if rng.random() < 0.5 else -1.0) / stds[i]
        part = w * X[:, i]
        if np.dot(part - part.mean(), combo - combo.mean()) < 0.0:
            w, part = -w, -part
        combo += part
        weights[i] = w
    scale = _SUBSTRATE_SIGNAL_STD / combo.std() if weights else 0.0
    return [[int(i), float(weights[i] * scale)] for i in sorted(weights)]


def generate(cfg: SynthConfig) -> tuple[list[EsiRecord], dict]:
    """(records, truth) where truth holds everything needed to rebuild
    the noise-free targets: feature weights, per-family offsets, rho,
    sigma, and the resolved config."""
    # families reorder the blocks of one ancestor: the only sequence
    # feature separating them is the handful of block-junction 2-mers, a
    # narrow channel that residue masking knocks out, while alignment
    # identity across families stays low enough that clusters separate at
    # every split threshold
    ancestor = _random_sequence(cfg.prototype_length, np.random.default_rng([cfg.seed, 0xF9]))
    bounds = np.linspace(0, cfg.prototype_length, _PROTOTYPE_BLOCKS + 1).astype(int)
    blocks = [ancestor[bounds[i] : bounds[i + 1]] for i in range(_PROTOTYPE_BLOCKS)]
    prototypes = [
        "".join(
            blocks[i]
            for i in np.random.default_rng([cfg.seed, 0xFA, f]).permutation(_PROTOTYPE_BLOCKS)
        )
        for f in range(cfg.family_count)
    ]
    prototypes = [
        _mutate(p, _PROTOTYPE_DIVERGENCE, np.random.default_rng([cfg.seed, 0xFE, f]))
        for f, p in enumerate(prototypes)
    ]

    # the enzyme half of the true signal reads 2-mer bins that sit inside
    # blocks and hence appear in every family; their counts vary through
    # member point mutations, which is what lets the learned weights
    # transfer to held-out families instead of encoding family identity
    k = len(ALPHABET)
    pairs = {(a, b) for block in blocks for a, b in zip(block, block[1:])}
    inner_bins = sorted(k + k * ALPHABET.index(a) + ALPHABET.index(b) for a, b in pairs)

    rng_weights = np.random.default_rng([cfg.seed, 0xFC])
    n_bins = min(_N_ENZYME_BINS, len(inner_bins))
    picks = choice_many([rng_weights], [len(inner_bins)], [n_bins])
    enzyme_bins = np.sort(np.array(inner_bins)[picks])
    enzyme_weights = rng_weights.normal(0.0, _ENZYME_WEIGHT_SCALE, size=n_bins)
    enzyme_features = [[int(i), float(w)] for i, w in zip(enzyme_bins, enzyme_weights)]
    offsets = np.random.default_rng([cfg.seed, 0xFB]).normal(0.0, 1.0, cfg.family_count)
    if cfg.family_count > 1:
        # standardized so rho is exactly the in-distribution shortcut
        # spread rather than hostage to the luck of the draw
        offsets = (offsets - offsets.mean()) / offsets.std()
    family_offsets = {f"family-{f:02d}": float(v) for f, v in enumerate(offsets)}

    scaffolds = cfg._scaffold_graphs
    drawn = []
    featurized = []  # what _featurize reads of each drawn record
    for f in range(cfg.family_count):
        for m in range(cfg.members_per_family):
            rng = np.random.default_rng([cfg.seed, 1, f, m])
            sequence = _mutate(prototypes[f], cfg.mutation_rate, rng)
            scaffold_idx = int(rng.integers(len(cfg.scaffolds)))
            graph = _decorate(scaffolds[scaffold_idx], int(rng.integers(_MAX_DECORATIONS + 1)), rng)
            drawn.append((f, m, sequence, scaffold_idx, write_smiles(graph), float(rng.normal())))
            # the substrate row is invariant under isomorphism, so the drawn
            # graph featurizes as a reader of the dataset parses its SMILES
            featurized.append(SimpleNamespace(sequence=sequence, graph=graph, substrate_mask=None))
    x_e, x_s = _featurize(featurized)

    substrate_features = _substrate_weights(x_s, rng_weights)

    records = []
    for (f, m, sequence, scaffold_idx, smiles, noise), e, s in zip(drawn, x_e, x_s):
        organism = f"family-{f:02d}"
        clean = _signal(e, s, enzyme_features, substrate_features)
        clean += cfg.rho * family_offsets[organism]
        records.append(
            EsiRecord(
                id=f"esi-f{f:02d}-m{m:03d}",
                sequence=sequence,
                smiles=smiles,
                value=clean + cfg.sigma * noise,
                task="kcat",
                organism=organism,
                substrate_name=f"scaffold-{scaffold_idx:02d}",
            )
        )

    truth = {
        "seed": cfg.seed,
        "rho": cfg.rho,
        "sigma": cfg.sigma,
        "enzyme_features": enzyme_features,
        "substrate_features": substrate_features,
        "family_offsets": family_offsets,
        "config": {f.name: getattr(cfg, f.name) for f in fields(cfg)},
    }
    truth["config"]["scaffolds"] = list(cfg.scaffolds)
    return records, truth


# ---------------------------------------------------------------------------
# Persistence


def sidecar_path(dataset_path) -> Path:
    return Path(f"{dataset_path}.meta.json")


def write_benchmark(records, truth: dict, path) -> Path:
    """Dataset plus ground-truth sidecar; returns the sidecar path."""
    write_dataset(records, path)
    side = sidecar_path(path)
    with open(side, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return side


def read_truth(dataset_path) -> dict:
    side = sidecar_path(dataset_path)
    try:
        with open(side, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read benchmark sidecar {side}: {exc}") from exc
