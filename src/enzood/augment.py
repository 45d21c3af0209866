"""Pseudo enzyme-substrate record generation.

Three mechanisms, all label-preserving: masking a fixed fraction of
enzyme residues with 'X', re-rendering the substrate SMILES from a random
traversal (isomorphic graph, different text), and masking a fraction of
substrate atoms drawn only from the unprotected pool (rings, functional
groups, and charged atoms are never masked).  Counts use floor so the
requested ratio is never exceeded.

Every draw goes through ``choice_many``, an array-level replay of
numpy's ``Generator.choice`` without replacement (Floyd's algorithm,
Bentley & Floyd, CACM 1987): the masks of many records, drawn from
many generators, come from one call, with the values and the generator
states that one ``choice`` call per draw would give.

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


# numpy's Generator.choice without replacement: Floyd's algorithm and a
# final shuffle, or a tail shuffle of arange(pop) once pop > 10000 and
# count > pop // 50
_TAIL_MIN_POP = 10_000
_TAIL_CUTOFF = 50
# Below this many drawn values in all, the requests are replayed one by
# one in Python instead of in array passes, whose cost is mostly fixed or
# per step.  Both routes give the same draws, so the switch moves time,
# never results.  On a 2-core x86-64 machine the Python replay still won
# at 537 draws (488 against 583 us) and lost at 1,287 (1,152 against
# 757 us): the break-even lies between those two counts, above this one.
_ARRAY_MIN_DRAWS = 400


def _ranks(lengths) -> np.ndarray:
    """0 .. lengths[r] - 1 for each r, end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _runs(starts, steps, lengths) -> np.ndarray:
    """Arithmetic runs end to end: run r is starts[r] + steps[r] * i
    for i < lengths[r]."""
    return np.repeat(starts, lengths) + np.repeat(steps, lengths) * _ranks(lengths)


def _by_step(lengths):
    """Every (request, step) pair with step < lengths[request], grouped
    by step (longest request first within a group), and the bounds of
    each step's group."""
    active = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]  # requests with length > step
    request = np.argsort(-lengths, kind="stable")[_ranks(active)]
    step = np.repeat(np.arange(len(active)), active)
    return request, step, np.concatenate(([0], np.cumsum(active)))


def choice_many(rngs, pops, counts, per_rng=None) -> np.ndarray:
    """The draws of consecutive ``rng.choice(pops[r], size=counts[r],
    replace=False)`` calls, end to end as one intp array, computed with
    array operations; each generator is left in the state those calls
    leave it in.  The first per_rng[0] requests draw from rngs[0], the
    next per_rng[1] from rngs[1], and so on (all from rngs[0] when
    per_rng is None).  A zero count draws nothing.

    Each generator makes one ``integers`` call holding every bound its
    requests ask for, in numpy's order: pop-k .. pop-1 for Floyd's
    selection, then k-1 .. 1 for the final shuffle, or, on the tail
    route, pop-1 down to max(pop-k, 1) for swaps on arange(pop).  Every
    request's Floyd steps, then its swaps, are then replayed side by
    side, one array pass per step.  Floyd's taken set is a mask over the
    values a request can take, at most 2k of them, so, as in numpy, only
    the tail route needs memory that grows with pop.  Under
    _ARRAY_MIN_DRAWS values in all, the same bounds are drawn and the
    requests replayed one by one in Python instead, which is faster at
    that size."""
    if len(pops) != len(counts):
        raise ValueError(f"{len(pops)} populations but {len(counts)} counts")
    per_rng = [len(pops)] if per_rng is None else per_rng
    if len(per_rng) != len(rngs) or sum(per_rng) != len(pops):
        raise ValueError("per_rng must give each generator's share of the requests")
    pops = np.asarray(pops, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 0).any() or (counts > pops).any():
        raise ValueError("every count must lie between 0 and its population")
    if counts.sum() < _ARRAY_MIN_DRAWS:
        return _replay_one_by_one(rngs, pops.tolist(), counts.tolist(), per_rng)
    tail = (pops > _TAIL_MIN_POP) & (counts > pops // _TAIL_CUTOFF)
    floyd = np.where(tail, 0, counts)
    deck = np.where(tail, pops, counts)  # the array the swaps act on
    swaps = np.where(tail, pops - np.maximum(pops - counts, 1), np.maximum(counts - 1, 0))
    highs = _runs(
        np.stack([pops - counts, deck - 1], axis=1).ravel(),
        np.tile([1, -1], len(pops)),
        np.stack([floyd, swaps], axis=1).ravel(),
    )
    raw_end = np.cumsum(floyd + swaps)
    raw_start = raw_end - floyd - swaps
    edges = [0] + np.concatenate(([0], raw_end))[np.cumsum(per_rng, dtype=np.int64)].tolist()
    raw = np.empty(len(highs), dtype=np.int64)
    for rng, a, b in zip(rngs, edges[:-1], edges[1:]):
        if b > a:
            raw[a:b] = rng.integers(0, highs[a:b] + 1)

    deck_start = np.cumsum(deck) - deck
    cards = _ranks(deck)
    # Floyd step s draws t <= j = pop - k + s and takes t, or j when an
    # earlier step took t; the taken mask is indexed by (request, value) ids
    request, step, bounds = _by_step(floyd)
    if len(request):
        t = raw[raw_start[request] + step]
        j = pops[request] - counts[request] + step
        key = (np.cumsum(pops) - pops)[request]
        _, ids = np.unique(np.concatenate((key + t, key + j)), return_inverse=True)
        t_id, j_id = ids[: len(t)], ids[len(t) :]
        taken = np.zeros(len(ids), dtype=bool)
        picks = np.empty(len(t), dtype=np.int64)
        for a, b in zip(bounds[:-1], bounds[1:]):
            hit = taken[t_id[a:b]]
            taken[np.where(hit, j_id[a:b], t_id[a:b])] = True
            picks[a:b] = np.where(hit, j[a:b], t[a:b])
        cards[deck_start[request] + step] = picks
    # swap s exchanges the card at top - s with the one its draw names
    request, step, bounds = _by_step(swaps)
    if len(request):
        top = deck_start[request] + deck[request] - 1 - step
        drawn = deck_start[request] + raw[raw_start[request] + floyd[request] + step]
        for a, b in zip(bounds[:-1], bounds[1:]):
            held = cards[drawn[a:b]]
            cards[drawn[a:b]] = cards[top[a:b]]
            cards[top[a:b]] = held
    # each request keeps the last k cards of its deck
    kept = np.repeat(deck_start + deck - counts, counts) + _ranks(counts)
    return cards[kept].astype(np.intp)


def _on_tail(pop: int, k: int) -> bool:
    return pop > _TAIL_MIN_POP and k > pop // _TAIL_CUTOFF


def _replay_one_by_one(rngs, pops, counts, per_rng) -> np.ndarray:
    """choice_many for few draws, in Python: per generator, the bounds of
    its requests in numpy's order and one ``integers`` call, then each
    request's Floyd picks (or arange(pop) on the tail route), its swaps,
    and its last k cards."""
    out = []
    requests = iter(zip(pops, counts))
    for rng, share in zip(rngs, per_rng):
        mine = [next(requests) for _ in range(share)]
        ends = []  # the bounds, exclusive
        for pop, k in mine:
            if _on_tail(pop, k):
                ends += range(pop, max(pop - k, 1), -1)
            else:
                ends += [*range(pop - k + 1, pop + 1), *range(k, 1, -1)]
        if not ends:
            continue
        raw = iter(rng.integers(0, np.array(ends, dtype=np.int64)).tolist())
        for pop, k in mine:
            if _on_tail(pop, k):
                cards = list(range(pop))
            else:
                cards, taken = [], set()
                for j in range(pop - k, pop):
                    t = next(raw)
                    cards.append(j if t in taken else t)
                    taken.add(cards[-1])
            for i in range(len(cards) - 1, max(len(cards) - k, 1) - 1, -1):
                j = next(raw)
                cards[i], cards[j] = cards[j], cards[i]
            out += cards[len(cards) - k :]
    return np.array(out, dtype=np.intp)


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
    rngs[0], the next per_rng[1] from rngs[1], and so on, exactly as one
    ``rng.choice`` per non-empty draw would.  Enumeration mode
    masks no atom: its atom draws are empty and read nothing from the
    generators, the stream of graph_mask at p_g = 0.

    Returns (sites, site_counts, picks, pick_counts): the residue
    positions and the pool indices, each end to end in record order,
    with each record's count."""
    p_g = cfg.p_g if cfg.substrate_mode == "graph_mask" else 0.0
    site_counts = _mask_counts(cfg.p_s, lengths, lengths)
    pick_counts = _mask_counts(p_g, atom_counts, pool_sizes)
    counts = np.stack([site_counts, pick_counts], axis=1).ravel()  # site, pick, site, ...
    draws = choice_many(
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
