"""2D molecular graphs with a restricted SMILES dialect.

The dialect covers the organic elements B, C, N, O, P, S, F, Cl, Br, I,
their aromatic lowercase forms, branches, ring-closure digits (``1``-``9``
and ``%nn``), the bond symbols ``- = # :``, and bracket atoms carrying a
formal charge and/or an explicit hydrogen count.  Stereochemistry,
isotopes, wildcard atoms and dot-separated fragments are rejected rather
than silently dropped.  Aromaticity is taken from the input (lowercase is
trusted); there is no perception pass, so aromatic bonds count 1.5 toward
valence and ring heteroatoms that rely on lone-pair donation (furan-style
oxygen) fall outside the dialect.

Each SMILES is checked once and built once: the parser's own checks
cover every rule ``MolGraph(atoms, bonds)`` checks on arbitrary input,
so it builds each atom once and hands the graph to the one build step
(adjacency and ring membership), skipping the bridge search when no
ring closure was read.  synth.generate featurizes the graphs it draws
and never parses its written SMILES back.

Besides parsing/writing, the module provides randomized SMILES
enumeration and detection of "protected" atoms (rings, functional
groups, charged centers) that the augmentation stage must never mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import ceil

import numpy as np

from .errors import GraphError, SmilesSyntaxError, ValenceError

ELEMENTS = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_ELEMENTS = frozenset({"B", "C", "N", "O", "P", "S"})
HALOGENS = frozenset({"F", "Cl", "Br", "I"})

BOND_SINGLE = 1
BOND_DOUBLE = 2
BOND_TRIPLE = 3
BOND_AROMATIC = 4

# Contribution of each bond kind to the valence sum; aromatic counts 1.5
# and the per-atom total is rounded up before any comparison.
_BOND_VALENCE = {BOND_SINGLE: 1.0, BOND_DOUBLE: 2.0, BOND_TRIPLE: 3.0, BOND_AROMATIC: 1.5}
_BOND_TOKEN = {BOND_SINGLE: "-", BOND_DOUBLE: "=", BOND_TRIPLE: "#", BOND_AROMATIC: ":"}
_TOKEN_BOND = {v: k for k, v in _BOND_TOKEN.items()}

# Hard ceilings for the valence check.  Neutral N caps at 3; a +1 charge
# lifts it to 4 (ammonium and friends).
MAX_VALENCE = {"B": 3, "C": 4, "N": 3, "O": 2, "P": 5, "S": 6, "F": 1, "Cl": 1, "Br": 1, "I": 1}

# Candidate valences used to fill implicit hydrogens on bare (unbracketed)
# atoms: the smallest one that accommodates the bond-order sum wins.
_DEFAULT_VALENCES = {
    "B": (3,),
    "C": (4,),
    "N": (3,),
    "O": (2,),
    "P": (3, 5),
    "S": (2, 4, 6),
    "F": (1,),
    "Cl": (1,),
    "Br": (1,),
    "I": (1,),
}


@dataclass(frozen=True)
class Atom:
    """One heavy atom; hydrogens are implicit counts, never graph nodes."""

    element: str
    formal_charge: int = 0
    aromatic: bool = False
    explicit_h: int = 0

    def __post_init__(self):
        if self.element not in ELEMENTS:
            raise GraphError(f"unsupported element {self.element!r}")
        if not -2 <= self.formal_charge <= 2:
            raise GraphError(f"formal charge {self.formal_charge} outside [-2, 2]")
        if self.aromatic and self.element not in AROMATIC_ELEMENTS:
            raise GraphError(f"element {self.element} cannot be aromatic")
        if self.explicit_h < 0:
            raise GraphError("negative hydrogen count")


@dataclass(frozen=True)
class Bond:
    """Undirected bond between two atom indices."""

    a: int
    b: int
    order: int = BOND_SINGLE

    def __post_init__(self):
        if self.order not in _BOND_VALENCE:
            raise GraphError(f"unknown bond order {self.order!r}")
        if self.a == self.b:
            raise GraphError("bond endpoints must be distinct")


def max_valence(atom: Atom) -> int:
    if atom.element == "N" and atom.formal_charge == 1:
        return 4
    return MAX_VALENCE[atom.element]


class MolGraph:
    """Immutable molecular graph; ring membership is derived on construction.

    ``MolGraph(atoms, bonds)`` checks its input, then runs the one build
    step (``_build``); ``_built`` runs that step alone, for input that
    obeys every rule by construction."""

    def __init__(self, atoms, bonds):
        atoms, bonds = tuple(atoms), tuple(bonds)
        n = len(atoms)
        seen_pairs = set()
        for bond in bonds:
            if not (0 <= bond.a < n and 0 <= bond.b < n):
                raise GraphError(f"bond {bond.a}-{bond.b} out of bounds for {n} atoms")
            pair = (min(bond.a, bond.b), max(bond.a, bond.b))
            if pair in seen_pairs:
                raise GraphError(f"duplicate bond between atoms {pair[0]} and {pair[1]}")
            seen_pairs.add(pair)
            if bond.order == BOND_AROMATIC and not (
                atoms[bond.a].aromatic and atoms[bond.b].aromatic
            ):
                raise GraphError("aromatic bond between non-aromatic atoms")
        for idx, (atom, total) in enumerate(zip(atoms, _rounded_order_sums(n, bonds))):
            if total + atom.explicit_h > max_valence(atom):
                raise ValenceError(
                    f"atom {idx} ({atom.element}) bond-order sum {total} plus "
                    f"H{atom.explicit_h} exceeds valence {max_valence(atom)}"
                )
        self._build(atoms, bonds)

    @classmethod
    def _built(cls, atoms: tuple, bonds: tuple, ring: tuple | None = None) -> MolGraph:
        """The graph of atom and bond tuples that already obey every rule
        ``__init__`` checks, built with no check; ``ring`` is the ring
        membership when the caller knows it."""
        g = cls.__new__(cls)
        g._build(atoms, bonds, ring)
        return g

    def _build(self, atoms: tuple, bonds: tuple, ring: tuple | None = None):
        adjacency: list[list[tuple[int, int]]] = [[] for _ in atoms]
        for bond in bonds:
            adjacency[bond.a].append((bond.b, bond.order))
            adjacency[bond.b].append((bond.a, bond.order))
        self.atoms: tuple[Atom, ...] = atoms
        self.bonds: tuple[Bond, ...] = bonds
        self.adjacency: tuple[tuple[tuple[int, int], ...], ...] = tuple(
            tuple(neigh) for neigh in adjacency
        )
        if ring is None:
            ring = _ring_membership(len(atoms), bonds, adjacency)
        self.ring_membership: tuple[bool, ...] = ring

    def __len__(self):
        return len(self.atoms)

    def bond_order_sum(self, idx: int) -> int:
        """Valence contribution of all bonds at ``idx``, rounded up."""
        return ceil(sum(_BOND_VALENCE[order] for _, order in self.adjacency[idx]) - 1e-9)

    def degree(self, idx: int) -> int:
        return len(self.adjacency[idx])

    def neighbors(self, idx: int) -> tuple[int, ...]:
        return tuple(j for j, _ in self.adjacency[idx])

    def bond_order(self, a: int, b: int) -> int | None:
        for j, order in self.adjacency[a]:
            if j == b:
                return order
        return None

    @property
    def protected(self) -> tuple[bool, ...]:
        cached = getattr(self, "_protected", None)
        if cached is None:
            cached = detect_protected(self)
            object.__setattr__(self, "_protected", cached)
        return cached


def _rounded_order_sums(n: int, bonds) -> list[int]:
    """Each atom's valence contribution of its bonds, rounded up."""
    order_sum = [0.0] * n
    for bond in bonds:
        order_sum[bond.a] += _BOND_VALENCE[bond.order]
        order_sum[bond.b] += _BOND_VALENCE[bond.order]
    return [ceil(total - 1e-9) for total in order_sum]


def _ring_membership(n, bonds, adjacency):
    """An atom is on a simple cycle iff it has an incident non-bridge edge."""
    index = [-1] * n
    low = [0] * n
    is_bridge = {}
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        # Iterative Tarjan bridge search; parent tracked by edge key so
        # parallel recursion limits never bite.
        stack = [(root, -1, iter(adjacency[root]))]
        index[root] = low[root] = counter
        counter += 1
        while stack:
            node, parent, it = stack[-1]
            advanced = False
            for child, _ in it:
                if child == parent:
                    # first edge back to the parent is the tree edge;
                    # multigraphs are excluded by construction
                    parent = -2 if parent != -2 else parent
                    continue
                if index[child] == -1:
                    index[child] = low[child] = counter
                    counter += 1
                    stack.append((child, node, iter(adjacency[child])))
                    advanced = True
                    break
                low[node] = min(low[node], index[child])
            if not advanced:
                stack.pop()
                if stack:
                    pnode = stack[-1][0]
                    low[pnode] = min(low[pnode], low[node])
                    if low[node] > index[pnode]:
                        is_bridge[(min(node, pnode), max(node, pnode))] = True
    ring = [False] * n
    for bond in bonds:
        key = (min(bond.a, bond.b), max(bond.a, bond.b))
        if not is_bridge.get(key, False):
            ring[bond.a] = True
            ring[bond.b] = True
    return tuple(ring)


# ---------------------------------------------------------------------------
# SMILES parsing


_BRACKET_RE = re.compile(
    r"\[(Cl|Br|[BCNOPSFI]|[bcnops])(H\d?)?(\+\+|--|[+-][0-2]?)?\]"
)
_TWO_CHAR = ("Cl", "Br")


def parse_smiles(text: str) -> MolGraph:
    """Parse SMILES ``text`` into a :class:`MolGraph`.

    Atoms appear in traversal order; implicit hydrogens are filled from
    the valence table.  Raises :class:`SmilesSyntaxError` for malformed
    or unsupported input and :class:`ValenceError` when an atom's
    bond-order sum exceeds the valence table.  These checks cover every
    rule ``MolGraph(atoms, bonds)`` checks, so the graph is built with no
    second check, and with no bridge search when no ring was closed.
    """
    if not isinstance(text, str) or not text:
        raise SmilesSyntaxError("empty SMILES")
    elements: list[str] = []
    aromatic: list[bool] = []
    declared: list[tuple[int, int] | None] = []  # (charge, H count) of a bracket atom
    bonds: list[Bond] = []
    bond_pairs: set[tuple[int, int]] = set()
    prev = -1  # index of the attachment atom, -1 before the first atom
    branch_stack: list[int] = []
    pending: int | None = None  # explicit bond symbol awaiting the next atom
    ring_open: dict[int, tuple[int, int | None]] = {}
    closed = False  # whether a ring closure made a bond

    def add_atom(element: str, is_aromatic: bool, bracket: tuple[int, int] | None):
        nonlocal prev, pending
        idx = len(elements)
        elements.append(element)
        aromatic.append(is_aromatic)
        declared.append(bracket)
        if prev >= 0:
            order = pending
            if order is None:
                order = BOND_AROMATIC if aromatic[prev] and is_aromatic else BOND_SINGLE
            _push_bond(prev, idx, order)
        elif pending is not None:
            raise SmilesSyntaxError("bond symbol before the first atom")
        prev = idx
        pending = None

    def _push_bond(a, b, order):
        pair = (min(a, b), max(a, b))
        if pair in bond_pairs:
            raise SmilesSyntaxError(f"duplicate bond between atoms {a} and {b}")
        if order == BOND_AROMATIC and not (aromatic[a] and aromatic[b]):
            raise SmilesSyntaxError("':' bond requires aromatic atoms on both ends")
        bond_pairs.add(pair)
        bonds.append(Bond(a, b, order))

    def close_or_open_ring(number: int):
        nonlocal pending, closed
        if prev < 0:
            raise SmilesSyntaxError("ring digit before any atom")
        if number in ring_open:
            other, opening_bond = ring_open.pop(number)
            if other == prev:
                raise SmilesSyntaxError(f"ring digit {number} closes onto its own atom")
            order = pending
            if opening_bond is not None:
                if order is not None and order != opening_bond:
                    raise SmilesSyntaxError(
                        f"conflicting bond symbols on ring closure {number}"
                    )
                order = opening_bond
            if order is None:
                order = BOND_AROMATIC if aromatic[other] and aromatic[prev] else BOND_SINGLE
            _push_bond(other, prev, order)
            closed = True
        else:
            ring_open[number] = (prev, pending)
        pending = None

    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "(":
            if prev < 0:
                raise SmilesSyntaxError("branch before any atom")
            if pending is not None:
                raise SmilesSyntaxError("bond symbol immediately before '('")
            branch_stack.append(prev)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise SmilesSyntaxError("unbalanced ')'")
            if pending is not None:
                raise SmilesSyntaxError("dangling bond symbol before ')'")
            prev = branch_stack.pop()
            i += 1
        elif ch in _TOKEN_BOND:
            if pending is not None:
                raise SmilesSyntaxError("two bond symbols in a row")
            pending = _TOKEN_BOND[ch]
            i += 1
        elif ch.isdigit():
            if ch == "0":
                raise SmilesSyntaxError("bare ring digit 0 is outside the grammar; use %nn")
            close_or_open_ring(int(ch))
            i += 1
        elif ch == "%":
            frag = text[i + 1 : i + 3]
            if len(frag) != 2 or not frag.isdigit():
                raise SmilesSyntaxError("'%' must be followed by two digits")
            close_or_open_ring(int(frag))
            i += 3
        elif ch == "[":
            match = _BRACKET_RE.match(text, i)
            if match is None:
                end = text.find("]", i)
                frag = text[i : end + 1] if end != -1 else text[i:]
                raise SmilesSyntaxError(f"unsupported bracket atom {frag!r}")
            symbol, h_part, charge_part = match.groups()
            element = symbol.capitalize() if len(symbol) == 1 else symbol
            h_count = 0
            if h_part:
                h_count = 1 if h_part == "H" else int(h_part[1:])
            add_atom(element, symbol.islower(), (_parse_charge(charge_part), h_count))
            i = match.end()
        elif text[i : i + 2] in _TWO_CHAR:
            add_atom(text[i : i + 2], False, None)
            i += 2
        elif ch in "BCNOPSFI":
            add_atom(ch, False, None)
            i += 1
        elif ch in "bcnops":
            add_atom(ch.upper(), True, None)
            i += 1
        else:
            raise SmilesSyntaxError(f"unsupported token {ch!r} at position {i}")

    if branch_stack:
        raise SmilesSyntaxError("unbalanced '('")
    if ring_open:
        digits = ", ".join(str(d) for d in sorted(ring_open))
        raise SmilesSyntaxError(f"dangling ring digit(s): {digits}")
    if pending is not None:
        raise SmilesSyntaxError("dangling bond symbol at end of input")
    if not elements:
        raise SmilesSyntaxError("no atoms in SMILES")

    # Fill implicit hydrogens on bare atoms; bracket atoms keep the count
    # they declared (possibly zero) but still face the valence ceiling.
    atoms: list[Atom] = []
    for idx, rounded in enumerate(_rounded_order_sums(len(elements), bonds)):
        element = elements[idx]
        if declared[idx] is None:
            implicit = _implied_h(element, rounded)
            if implicit is None:
                raise ValenceError(
                    f"atom {idx} ({element}) bond-order sum {rounded} exceeds "
                    f"valence {MAX_VALENCE[element]}"
                )
            atoms.append(Atom(element, 0, aromatic[idx], implicit))
        else:
            charge, h_count = declared[idx]
            atom = Atom(element, charge, aromatic[idx], h_count)
            if rounded + h_count > max_valence(atom):
                raise ValenceError(
                    f"atom {idx} ({element}) bonds {rounded} + H{h_count} "
                    f"exceed valence {max_valence(atom)}"
                )
            atoms.append(atom)
    ring = None if closed else (False,) * len(atoms)
    return MolGraph._built(tuple(atoms), tuple(bonds), ring)


def _parse_charge(token: str | None) -> int:
    if not token:
        return 0
    if token == "++":
        return 2
    if token == "--":
        return -2
    sign = 1 if token[0] == "+" else -1
    if len(token) == 1:
        return sign
    return sign * int(token[1:])


# ---------------------------------------------------------------------------
# SMILES writing


def _implied_h(element: str, rounded_bond_sum: int) -> int | None:
    """Hydrogen count a bare (uncharged) atom token of ``element`` would
    receive, or None if impossible."""
    for cand in _DEFAULT_VALENCES[element]:
        if cand >= rounded_bond_sum:
            return cand - rounded_bond_sum
    return None


def _atom_token(g: MolGraph, idx: int) -> str:
    atom = g.atoms[idx]
    symbol = atom.element.lower() if atom.aromatic else atom.element
    needs_bracket = (
        atom.formal_charge != 0
        or _implied_h(atom.element, g.bond_order_sum(idx)) != atom.explicit_h
    )
    if not needs_bracket:
        return symbol
    h_part = ""
    if atom.explicit_h == 1:
        h_part = "H"
    elif atom.explicit_h > 1:
        h_part = f"H{atom.explicit_h}"
    charge = atom.formal_charge
    if charge == 0:
        charge_part = ""
    elif abs(charge) == 1:
        charge_part = "+" if charge > 0 else "-"
    else:
        charge_part = f"{'+' if charge > 0 else '-'}{abs(charge)}"
    return f"[{symbol}{h_part}{charge_part}]"


def _bond_token(g: MolGraph, a: int, b: int, order: int) -> str:
    """Shortest token that parses back to the same bond order."""
    both_aromatic = g.atoms[a].aromatic and g.atoms[b].aromatic
    default = BOND_AROMATIC if both_aromatic else BOND_SINGLE
    return "" if order == default else _BOND_TOKEN[order]


def write_smiles(g: MolGraph, start_atom: int = 0, rng: np.random.Generator | None = None) -> str:
    """Render ``g`` as SMILES via depth-first traversal from ``start_atom``.

    Neighbor order is shuffled with ``rng`` when given, and otherwise
    follows each atom's adjacency list, in the order of ``g.bonds``
    (``parse_smiles("C1CCC1")`` lists atom 3's neighbors as 2, then 0).
    The output always parses back to a graph isomorphic to ``g``.
    """
    n = len(g)
    if n == 0:
        raise GraphError("cannot write an empty graph")
    if not 0 <= start_atom < n:
        raise GraphError(f"start atom {start_atom} out of bounds")

    def ordered_neighbors(idx):
        neigh = list(g.neighbors(idx))
        if rng is not None:
            neigh = [neigh[k] for k in rng.permutation(len(neigh))]
        return neigh

    # Pass 1: depth-first classification into tree edges (children, in
    # traversal order) and ring-closure edges, recorded at both endpoints.
    visited = [False] * n
    children: list[list[int]] = [[] for _ in range(n)]
    closure_at: list[list[int]] = [[] for _ in range(n)]  # closure partners
    closed_edges: set[tuple[int, int]] = set()
    preorder: list[int] = []

    def explore(node: int, parent: int):
        visited[node] = True
        preorder.append(node)
        for other in ordered_neighbors(node):
            if other == parent:
                continue
            key = (min(node, other), max(node, other))
            if visited[other]:
                if key not in closed_edges:
                    closed_edges.add(key)
                    closure_at[node].append(other)
                    closure_at[other].append(node)
            else:
                children[node].append(other)
                explore(other, node)

    explore(start_atom, -1)
    if len(preorder) != n:
        raise GraphError("graph is disconnected; the dialect has no fragment separator")

    # Ring closure digits: opened at the endpoint visited first (bare
    # digit), closed at the second (bond token + digit), digit recycled
    # once closed.  Emission below walks atoms in this same preorder, so
    # open/close intervals of a reused digit never overlap.
    digit_of_edge: dict[tuple[int, int], int] = {}
    open_digits: set[int] = set()

    def next_digit():
        for d in range(1, 100):
            if d not in open_digits:
                return d
        raise GraphError("more than 99 concurrently open ring closures")

    ring_tokens: list[list[str]] = [[] for _ in range(n)]
    for node in preorder:
        for partner in closure_at[node]:
            key = (min(node, partner), max(node, partner))
            if key not in digit_of_edge:
                digit = next_digit()
                open_digits.add(digit)
                digit_of_edge[key] = digit
                ring_tokens[node].append(_digit_token(digit))
            else:
                digit = digit_of_edge[key]
                open_digits.discard(digit)
                order = g.bond_order(node, partner)
                ring_tokens[node].append(
                    _bond_token(g, node, partner, order) + _digit_token(digit)
                )

    out: list[str] = []

    def emit(node: int):
        out.append(_atom_token(g, node))
        out.extend(ring_tokens[node])
        kids = children[node]
        for child in kids[:-1]:
            out.append("(")
            out.append(_bond_token(g, node, child, g.bond_order(node, child)))
            emit(child)
            out.append(")")
        if kids:
            child = kids[-1]
            out.append(_bond_token(g, node, child, g.bond_order(node, child)))
            emit(child)

    emit(start_atom)
    return "".join(out)


def _digit_token(digit: int) -> str:
    return str(digit) if digit < 10 else f"%{digit:02d}"


def enumerate_smiles(g: MolGraph, n: int, rng: np.random.Generator) -> list[str]:
    """``n`` random SMILES renderings of ``g`` (duplicates permitted)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    out = []
    for _ in range(n):
        start = int(rng.integers(len(g)))
        out.append(write_smiles(g, start, rng=rng))
    return out


# ---------------------------------------------------------------------------
# Protected atoms


def detect_protected(g: MolGraph) -> tuple[bool, ...]:
    """Per-atom mask of atoms that masking augmentation must leave alone.

    An atom is protected when it sits on a ring or matches one of the
    functional-group motifs: hydroxyl/terminal O, carbonyl C=O (both
    atoms), carboxyl C(=O)O (all three), any N, terminal S, P with its O
    neighbors, halogens on carbon, and any charged atom.
    """
    mask = list(g.ring_membership)
    for i, atom in enumerate(g.atoms):
        elem = atom.element
        if atom.formal_charge != 0:
            mask[i] = True
        if elem == "O" and g.degree(i) == 1:
            mask[i] = True
        if elem == "N":
            mask[i] = True
        if elem == "S" and g.degree(i) == 1 and g.adjacency[i][0][1] == BOND_SINGLE:
            mask[i] = True
        if elem == "P":
            mask[i] = True
            for j, _ in g.adjacency[i]:
                if g.atoms[j].element == "O":
                    mask[j] = True
        if elem in HALOGENS and any(g.atoms[j].element == "C" for j, _ in g.adjacency[i]):
            mask[i] = True
        if elem == "C":
            oxygens = [(j, order) for j, order in g.adjacency[i] if g.atoms[j].element == "O"]
            # carbonyl C=O, and a carboxyl C(=O)O takes its single-bonded O too
            if any(order == BOND_DOUBLE for _, order in oxygens):
                mask[i] = True
                for j, order in oxygens:
                    if order in (BOND_SINGLE, BOND_DOUBLE):
                        mask[j] = True
    return tuple(mask)
