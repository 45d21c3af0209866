"""Pseudo enzyme-substrate record generation.

Three mechanisms, all label-preserving: masking a fixed fraction of
enzyme residues with 'X', re-rendering the substrate SMILES from a random
traversal (isomorphic graph, different text), and masking a fraction of
substrate atoms drawn only from the unprotected pool (rings, functional
groups, and charged atoms are never masked).  Counts use floor so the
requested ratio is never exceeded.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import floor

import numpy as np

from .errors import ConfigError
from .molgraph import MolGraph, enumerate_smiles

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
MASK_SYMBOL = "X"
ALPHABET = AMINO_ACIDS + MASK_SYMBOL

_ALPHABET_SET = frozenset(ALPHABET)

MAX_MASK_RATIO = 0.3

_NO_POSITIONS = np.empty(0, dtype=np.intp)

SUBSTRATE_MODES = ("enumeration", "graph_mask")


def validate_sequence(seq: str) -> None:
    """Enzyme sequences are non-empty strings over the 21-symbol alphabet."""
    if not isinstance(seq, str) or not seq:
        raise ValueError("enzyme sequence must be a non-empty string")
    bad = set(seq) - _ALPHABET_SET
    if bad:
        raise ValueError(f"symbols outside the residue alphabet: {sorted(bad)}")


def _check_ratio(name: str, value: float) -> None:
    if not 0.0 <= value <= MAX_MASK_RATIO:
        raise ValueError(f"{name} must be in [0, {MAX_MASK_RATIO}], got {value}")


def _draw_positions(size: int, ratio: float, rng: np.random.Generator, pool: int | None = None):
    """The masking draw: floor(ratio * size) indices into
    range(pool) (pool defaults to size), clipped to the pool when it is
    smaller, chosen uniformly without replacement.  A zero count draws
    nothing from ``rng``."""
    pool = size if pool is None else pool
    count = min(floor(ratio * size), pool)
    if count == 0:
        return _NO_POSITIONS
    return rng.choice(pool, size=count, replace=False)


def unprotected_atoms(g: MolGraph) -> np.ndarray:
    """Indices of the atoms a substrate mask may mark, in atom order."""
    return np.flatnonzero(np.logical_not(g.protected))


def draw_masks(length: int, atom_count: int, pool, cfg: AugmentConfig, rng: np.random.Generator):
    """One record's masking draws, in order: residue positions of an
    enzyme of ``length``, then, in graph_mask mode, the masked atoms,
    taken from ``pool`` (the record's unprotected_atoms) for a substrate
    of ``atom_count`` atoms.  Enumeration mode masks no atom and reads
    no pool; its atom draw is None."""
    residues = _draw_positions(length, cfg.p_s, rng)
    if cfg.substrate_mode == "enumeration":
        return residues, None
    return residues, pool[_draw_positions(atom_count, cfg.p_g, rng, len(pool))]


def _masked_text(seq: str, positions) -> str:
    if not len(positions):
        return seq
    out = list(seq)
    for pos in positions:
        out[pos] = MASK_SYMBOL
    return "".join(out)


def _atom_mask(atom_count: int, atoms) -> tuple[bool, ...]:
    mask = [False] * atom_count
    for atom in atoms:
        mask[atom] = True
    return tuple(mask)


def mask_sequence(seq: str, p_s: float, rng: np.random.Generator) -> str:
    """Replace exactly floor(p_s * len) residues, chosen uniformly without
    replacement, with the MASK symbol."""
    _check_ratio("p_s", p_s)
    validate_sequence(seq)
    return _masked_text(seq, _draw_positions(len(seq), p_s, rng))


def mask_graph(g: MolGraph, p_g: float, rng: np.random.Generator) -> tuple[bool, ...]:
    """Per-atom mask of floor(p_g * atom_count) atoms drawn uniformly from
    the unprotected pool; clipped to the pool when it is smaller.  No
    protected atom is ever marked."""
    _check_ratio("p_g", p_g)
    pool = unprotected_atoms(g)
    return _atom_mask(len(g), pool[_draw_positions(len(g), p_g, rng, len(pool))])


@dataclass(frozen=True)
class AugmentConfig:
    """Knobs for pseudo-pair generation.

    Mask ratios above 0.3 hurt more than they help, so both are capped
    there; 0.10 is the sweet spot on the reference data and is the
    default.  substrate_mode picks between re-rendered SMILES text
    (enumeration) and atom masking (graph_mask).
    """

    p_s: float = 0.10
    p_g: float = 0.10
    substrate_mode: str = "graph_mask"
    seed: int = 0

    def __post_init__(self):
        for name, value in (("p_s", self.p_s), ("p_g", self.p_g)):
            if not 0.0 <= value <= MAX_MASK_RATIO:
                raise ConfigError(f"{name} must be in [0, {MAX_MASK_RATIO}], got {value}")
        if self.substrate_mode not in SUBSTRATE_MODES:
            raise ConfigError(
                f"substrate_mode must be one of {SUBSTRATE_MODES}, got {self.substrate_mode!r}"
            )
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")


def augment_record(
    record, cfg: AugmentConfig, rng: np.random.Generator
) -> tuple[str, str, tuple[bool, ...] | None]:
    """Pseudo counterpart of ``record`` as (sequence, smiles,
    substrate_mask): the masked enzyme plus either a re-rendered
    (isomorphic) SMILES with no mask, or the record's own SMILES with a
    substrate atom mask.

    Works on any record with sequence, smiles, and ``graph`` (the
    parsed smiles) attributes.
    """
    g = record.graph
    residues, atoms = draw_masks(len(record.sequence), len(g), unprotected_atoms(g), cfg, rng)
    sequence = _masked_text(record.sequence, residues)
    if atoms is None:
        return sequence, enumerate_smiles(g, 1, rng)[0], None
    return sequence, record.smiles, _atom_mask(len(g), atoms)


def augment_dataset(records, cfg: AugmentConfig) -> list[tuple]:
    """One (raw, augmented) record tuple per record, in input order; the
    augmented twin carries an '#aug' id suffix so both halves can live
    in one file.

    Each record gets its own generator seeded from (cfg.seed, index), so
    any subset reproduces identically.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to augment")
    out = []
    for index, record in enumerate(records):
        rng = np.random.default_rng([cfg.seed, index])
        sequence, smiles, substrate_mask = augment_record(record, cfg, rng)
        twin = dataclasses.replace(
            record,
            id=record.id + "#aug",
            sequence=sequence,
            smiles=smiles,
            substrate_mask=substrate_mask,
        )
        out.append((record, twin))
    return out
