"""Loop-based featurizers, the reference for enzood.model's index-array kernel.

One residue, atom and bond at a time, accumulating floats: the plain
definitions the batched bincount kernel must reproduce bit for bit.
"""

import numpy as np

from enzood.augment import ALPHABET
from enzood.model import ENZYME_FEATURES, SUBSTRATE_FEATURES
from enzood.molgraph import BOND_AROMATIC, BOND_DOUBLE, BOND_SINGLE, BOND_TRIPLE, ELEMENTS

_SYMBOL_INDEX = {symbol: i for i, symbol in enumerate(ALPHABET)}
_ELEMENT_INDEX = {element: i for i, element in enumerate(ELEMENTS)}
_BOND_SLOT = {BOND_SINGLE: 0, BOND_DOUBLE: 1, BOND_TRIPLE: 2, BOND_AROMATIC: 3}


def featurize_enzyme(seq: str) -> np.ndarray:
    """Length-normalized 1-mer (21) and 2-mer (441) counts."""
    if not seq:
        raise ValueError("empty enzyme sequence")
    k = len(ALPHABET)
    values = np.zeros(ENZYME_FEATURES)
    idx = [_SYMBOL_INDEX[c] for c in seq]
    for i in idx:
        values[i] += 1.0
    values[:k] /= len(seq)
    if len(seq) > 1:
        for a, b in zip(idx, idx[1:]):
            values[k + a * k + b] += 1.0
        values[k:] /= len(seq) - 1
    return values


def featurize_substrate(g, mask=None) -> np.ndarray:
    """Descriptor vector; masked atoms count only in the MASKED bin, while
    bonds, degrees, ring membership and charge come from the intact graph."""
    n = len(g)
    if n == 0:
        raise ValueError("empty substrate graph")
    if mask is None:
        mask = (False,) * n
    if len(mask) != n:
        raise ValueError(f"mask length {len(mask)} != atom count {n}")
    values = np.zeros(SUBSTRATE_FEATURES)
    n_elements = len(ELEMENTS)
    for i, atom in enumerate(g.atoms):
        if mask[i]:
            values[n_elements] += 1.0
        else:
            values[_ELEMENT_INDEX[atom.element]] += 1.0
    base = n_elements + 1
    for bond in g.bonds:
        values[base + _BOND_SLOT[bond.order]] += 1.0
    values[base + 4] = sum(g.ring_membership)
    for i in range(n):
        values[base + 5 + min(g.degree(i), 4)] += 1.0
    values[base + 10] = sum(a.formal_charge for a in g.atoms)
    values[: base + 11] /= n
    values[base + 11] = n
    return values
