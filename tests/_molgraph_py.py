"""Canonical SMILES and an exact isomorphism test, the oracles of the
molecular-graph tests.

The package needs neither: the substrate descriptor is invariant under
graph isomorphism, and training never renders a substrate.  The tests
use them to show that renderings, relabelings (``permuted``) and file
round trips keep the molecule.
"""

from enzood.errors import EnzoodError, GraphError
from enzood.molgraph import Atom, Bond, MolGraph, write_smiles

ISOMORPHISM_MAX_ATOMS = 64


class SizeError(EnzoodError, ValueError):
    """Graph too large for the exact isomorphism search."""


def permuted(g: MolGraph, perm) -> MolGraph:
    """Relabeled copy: new index ``perm[i]`` holds old atom ``i``."""
    n = len(g.atoms)
    perm = list(perm)
    if sorted(perm) != list(range(n)):
        raise GraphError("perm must be a permutation of atom indices")
    atoms = [None] * n
    for old, new in enumerate(perm):
        atoms[new] = g.atoms[old]
    bonds = [Bond(perm[b.a], perm[b.b], b.order) for b in g.bonds]
    return MolGraph(atoms, bonds)


def _canonical_ranks(g: MolGraph) -> list[int]:
    """Dense atom ranks from iterative neighborhood refinement."""
    n = len(g)
    keys = [
        (a.element, a.formal_charge, a.aromatic, g.degree(i)) for i, a in enumerate(g.atoms)
    ]
    ranks = _dense_rank(keys)
    for _ in range(2 * n):
        refined = [
            (
                ranks[i],
                tuple(sorted((order, ranks[j]) for j, order in g.adjacency[i])),
            )
            for i in range(n)
        ]
        new_ranks = _dense_rank(refined)
        if new_ranks == ranks:
            break
        ranks = new_ranks
    return ranks


def _dense_rank(keys) -> list[int]:
    lookup = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [lookup[key] for key in keys]


def canonical_smiles(g: MolGraph) -> str:
    """Deterministic SMILES shared by all graphs isomorphic to ``g``.

    The atoms are renumbered by (rank, index) and the bonds sorted by
    their (lower, higher) end, so every adjacency list is ascending and
    ``write_smiles`` from atom 0 walks neighbors in rank order.  Ranking
    ties are broken by original atom index; for the symmetric
    (automorphic) ties this produces the same string for any labeling.
    Equality with any external toolkit's canonical form is not a goal.
    """
    ranks = _canonical_ranks(g)
    order = sorted(range(len(g)), key=lambda i: (ranks[i], i))
    new = {old: k for k, old in enumerate(order)}
    atoms: list[Atom] = [g.atoms[old] for old in order]
    ends = [(min(new[b.a], new[b.b]), max(new[b.a], new[b.b]), b.order) for b in g.bonds]
    relabelled = MolGraph(atoms, [Bond(lo, hi, order) for lo, hi, order in sorted(ends)])
    return write_smiles(relabelled, 0)


def _atom_key(atom: Atom) -> tuple:
    return (atom.element, atom.formal_charge, atom.aromatic, atom.explicit_h)


def is_isomorphic(a: MolGraph, b: MolGraph) -> bool:
    """Exact test for an element/charge/aromaticity/H/bond-order-preserving
    bijection, by backtracking search.  Intended for graphs of at most
    :data:`ISOMORPHISM_MAX_ATOMS` atoms; larger inputs raise SizeError."""
    if len(a) > ISOMORPHISM_MAX_ATOMS or len(b) > ISOMORPHISM_MAX_ATOMS:
        raise SizeError(f"isomorphism search limited to {ISOMORPHISM_MAX_ATOMS} atoms")
    n = len(a)
    if n != len(b) or len(a.bonds) != len(b.bonds):
        return False

    def profile(g, i):
        return (
            _atom_key(g.atoms[i]),
            tuple(sorted(order for _, order in g.adjacency[i])),
            tuple(sorted((order, _atom_key(g.atoms[j])) for j, order in g.adjacency[i])),
        )

    prof_a = [profile(a, i) for i in range(n)]
    prof_b = [profile(b, i) for i in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return False

    candidates = [[j for j in range(n) if prof_b[j] == prof_a[i]] for i in range(n)]

    # Search order: rarest candidate set first, then grow along adjacency
    # so every new atom is constrained by an already-mapped neighbor.
    order: list[int] = []
    placed = [False] * n
    while len(order) < n:
        frontier = [
            i
            for i in range(n)
            if not placed[i] and any(placed[j] for j in a.neighbors(i))
        ]
        pool = frontier if frontier else [i for i in range(n) if not placed[i]]
        nxt = min(pool, key=lambda i: (len(candidates[i]), -a.degree(i), i))
        placed[nxt] = True
        order.append(nxt)

    mapping = [-1] * n
    used = [False] * n

    def feasible(i, j):
        for neigh, bond_order in a.adjacency[i]:
            m = mapping[neigh]
            if m >= 0 and b.bond_order(j, m) != bond_order:
                return False
        mapped_deg_a = sum(1 for neigh in a.neighbors(i) if mapping[neigh] >= 0)
        mapped_deg_b = sum(1 for neigh in b.neighbors(j) if used[neigh])
        return mapped_deg_a == mapped_deg_b

    def search(depth):
        if depth == n:
            return True
        i = order[depth]
        for j in candidates[i]:
            if not used[j] and feasible(i, j):
                mapping[i] = j
                used[j] = True
                if search(depth + 1):
                    return True
                mapping[i] = -1
                used[j] = False
        return False

    return search(0)
