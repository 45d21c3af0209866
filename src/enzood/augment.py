"""Pseudo enzyme-substrate record generation.

Three mechanisms, all label-preserving: masking a fixed fraction of
enzyme residues with 'X', re-rendering the substrate SMILES from a random
traversal (isomorphic graph, different text), and masking a fraction of
substrate atoms drawn only from the unprotected pool (rings, functional
groups, and charged atoms are never masked).  Counts use floor so the
requested ratio is never exceeded.

Every mask draw goes through ``sample_many``, a random-key sampler
without replacement: a draw of k from a population of n takes the
values of the k smallest of n uniform keys.  The masks of many records,
drawn from many generators, come from one call, with the values that
one ``np.argsort(rng.random(n))[:k]`` per non-empty draw would give.
The one draw outside masking, ``synth.generate``'s pick of enzyme bins,
is a single request and calls numpy's ``choice`` itself.

There are two entry points, both batch-wide: ``draw_masks`` draws the
masks of many records from many generators (training calls it once per
block of epochs), and ``augment_dataset`` turns a whole data set into (raw,
augmented) record pairs.  Their settings come from ``io.RunConfig``,
whose ``p_s``, ``p_g``, ``substrate_mode`` and ``seed`` fields they
read.  This module does not import ``io`` (``io`` imports it), so any
object with those fields will do.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

import numpy as np

from .molgraph import MolGraph, enumerate_smiles

if TYPE_CHECKING:
    from .io import RunConfig

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"
MASK_SYMBOL = "X"
ALPHABET = AMINO_ACIDS + MASK_SYMBOL

_ALPHABET_SET = frozenset(ALPHABET)

SUBSTRATE_MODES = ("enumeration", "graph_mask")


def validate_sequence(seq: str) -> None:
    """Enzyme sequences are non-empty strings over the 21-symbol alphabet."""
    if not isinstance(seq, str) or not seq:
        raise ValueError("enzyme sequence must be a non-empty string")
    bad = set(seq) - _ALPHABET_SET
    if bad:
        raise ValueError(f"symbols outside the residue alphabet: {sorted(bad)}")


def sample_many(rngs, pops, counts, per_rng) -> np.ndarray:
    """Uniform samples without replacement, end to end as one intp
    array: request r takes counts[r] values from range(pops[r]).  The
    first per_rng[0] requests draw from rngs[0], the next per_rng[1]
    from rngs[1], and so on.  A zero count draws nothing.

    A random-key sample: each generator makes one ``random`` call
    holding a key for every value of its non-empty requests, in request
    order, and a request takes the values of its counts[r] smallest
    keys, in ascending key order.  A generator's keys lie in a table of
    its requests by its own largest population, padded with inf, so
    memory grows with each generator's requests, not the batch's."""
    if len(pops) != len(counts):
        raise ValueError(f"{len(pops)} populations but {len(counts)} counts")
    if len(per_rng) != len(rngs) or sum(per_rng) != len(pops):
        raise ValueError("per_rng must give each generator's share of the requests")
    pops = np.asarray(pops, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any() or (counts > pops).any():
        raise ValueError("every count must lie between 0 and its population")
    live = counts > 0
    owners = np.repeat(np.arange(len(rngs)), per_rng)[live]
    pops, counts = pops[live], counts[live]
    edges = np.searchsorted(owners, np.arange(len(rngs) + 1)).tolist()
    out = [np.empty(0, dtype=np.intp)]
    for rng, a, b in zip(rngs, edges[:-1], edges[1:]):
        if b > a:
            pop, k = pops[a:b, None], counts[a:b, None]
            keys = np.full((b - a, pop.max()), np.inf)
            keys[np.arange(pop.max()) < pop] = rng.random(pop.sum())
            order = np.argsort(keys, axis=1)[:, : k.max()]
            out.append(order[np.arange(k.max()) < k])
    return np.concatenate(out)


def _mask_counts(ratio: float, sizes, pool_sizes) -> np.ndarray:
    """floor(ratio * size) per size, clipped to its pool."""
    return np.minimum(np.floor(ratio * np.asarray(sizes)), pool_sizes).astype(np.int64)


def unprotected_atoms(g: MolGraph) -> np.ndarray:
    """Indices of the atoms a substrate mask may mark, in atom order."""
    return np.flatnonzero(np.logical_not(g.protected))


def draw_masks(lengths, atom_counts, pool_sizes, cfg: RunConfig, rngs, per_rng):
    """The masking draws of many records, each drawing from its
    generator in record order: residue positions of an enzyme of
    lengths[r], then, in graph_mask mode, indices into its pool of
    pool_sizes[r] unprotected atoms (unprotected_atoms) for a substrate
    of atom_counts[r] atoms.  The first per_rng[0] records draw from
    rngs[0], the next per_rng[1] from rngs[1], and so on, all in one
    ``sample_many`` call.  Enumeration mode masks no atom: its atom
    draws are empty and read nothing from the generators, the stream of
    graph_mask at p_g = 0.

    Returns (sites, site_counts, picks, pick_counts): the residue
    positions and the pool indices, each end to end in record order,
    with each record's count."""
    p_g = cfg.p_g if cfg.substrate_mode == "graph_mask" else 0.0
    site_counts = _mask_counts(cfg.p_s, lengths, lengths)
    pick_counts = _mask_counts(p_g, atom_counts, pool_sizes)
    counts = np.stack([site_counts, pick_counts], axis=1).ravel()  # site, pick, site, ...
    draws = sample_many(
        rngs,
        np.stack([lengths, pool_sizes], axis=1).ravel(),
        counts,
        2 * np.asarray(per_rng),  # two requests per record
    )
    is_site = np.repeat(np.tile([True, False], len(site_counts)), counts)
    return draws[is_site], site_counts, draws[~is_site], pick_counts


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


def augment_dataset(records, cfg: RunConfig) -> list[tuple]:
    """One (raw, augmented) record tuple per record, in input order; the
    augmented twin carries an '#aug' id suffix so both halves can live
    in one file.  The twin's enzyme is masked, and its substrate is
    either the record's own SMILES with an atom mask (graph_mask) or a
    re-rendered, isomorphic SMILES with no mask (enumeration).

    Each record gets its own generator seeded from (cfg.seed, index), so
    any subset reproduces identically.  A record draws its masks first,
    the masks of all records in one draw_masks call, then, in
    enumeration mode, its rendering.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to augment")
    rngs = [np.random.default_rng([cfg.seed, index]) for index in range(len(records))]
    pools = [unprotected_atoms(r.graph) for r in records]
    sites, site_counts, picks, pick_counts = draw_masks(
        [len(r.sequence) for r in records],
        [len(r.graph) for r in records],
        [len(pool) for pool in pools],
        cfg,
        rngs,
        np.ones(len(records), dtype=np.int64),
    )
    sites = np.split(sites, np.cumsum(site_counts)[:-1])
    picks = np.split(picks, np.cumsum(pick_counts)[:-1])
    pairs = []
    for record, rng, pool, positions, atoms in zip(records, rngs, pools, sites, picks):
        if cfg.substrate_mode == "enumeration":
            smiles, substrate_mask = enumerate_smiles(record.graph, 1, rng)[0], None
        else:
            smiles, substrate_mask = record.smiles, _atom_mask(len(record.graph), pool[atoms])
        twin = dataclasses.replace(
            record,
            id=record.id + "#aug",
            sequence=_masked_text(record.sequence, positions),
            smiles=smiles,
            substrate_mask=substrate_mask,
        )
        pairs.append((record, twin))
    return pairs
