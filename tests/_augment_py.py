"""Per-record masking written on random keys: the reference that the
batch draws of ``augment.draw_masks`` and ``augment.augment_dataset``
are checked against.  Each call masks one record from the generator it
is given; a non-empty draw of k from pop takes the k smallest of pop
``rng.random`` keys, so consecutive calls on one generator give the
stream the library draws in one go."""

from math import floor

import numpy as np

from enzood.augment import MASK_SYMBOL, unprotected_atoms


def _sample(rng, pop, k):
    return np.argsort(rng.random(pop))[:k] if k else np.empty(0, dtype=np.intp)


def mask_sequence(seq: str, p_s: float, rng) -> str:
    """Replace floor(p_s * len) residues, chosen uniformly without
    replacement, with the MASK symbol."""
    out = list(seq)
    for pos in _sample(rng, len(seq), floor(p_s * len(seq))):
        out[pos] = MASK_SYMBOL
    return "".join(out)


def mask_graph(g, p_g: float, rng) -> tuple[bool, ...]:
    """Per-atom mask of floor(p_g * atom_count) atoms drawn uniformly from
    the unprotected pool, clipped to the pool when it is smaller."""
    pool = unprotected_atoms(g)
    mask = [False] * len(g)
    for i in _sample(rng, len(pool), min(floor(p_g * len(g)), len(pool))):
        mask[pool[i]] = True
    return tuple(mask)
