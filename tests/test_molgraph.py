import itertools

import numpy as np
import pytest
from _molgraph_py import SizeError, canonical_smiles, is_isomorphic, permuted

from enzood.errors import GraphError, SmilesSyntaxError, ValenceError
from enzood.molgraph import (
    Atom,
    Bond,
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    MolGraph,
    detect_protected,
    enumerate_smiles,
    parse_smiles,
    write_smiles,
)


def test_parse_ethanol():
    g = parse_smiles("CCO")
    assert [a.element for a in g.atoms] == ["C", "C", "O"]
    assert [a.explicit_h for a in g.atoms] == [3, 2, 1]
    assert len(g.bonds) == 2
    assert all(b.order == BOND_SINGLE for b in g.bonds)
    assert g.ring_membership == (False, False, False)


def test_parse_cyclopropane_ring_membership():
    g = parse_smiles("C1CC1")
    assert len(g) == 3
    assert g.ring_membership == (True, True, True)


def test_parse_phenol_protected():
    g = parse_smiles("c1ccccc1O")
    assert len(g) == 7
    assert sum(a.aromatic for a in g.atoms) == 6
    assert all(detect_protected(g))


def test_parse_bracket_atoms():
    g = parse_smiles("[NH4+]")
    atom = g.atoms[0]
    assert (atom.element, atom.formal_charge, atom.explicit_h) == ("N", 1, 4)
    g = parse_smiles("CC[O-]")
    assert g.atoms[2].formal_charge == -1
    assert g.atoms[2].explicit_h == 0
    g = parse_smiles("[O--]")
    assert g.atoms[0].formal_charge == -2
    g = parse_smiles("[N+2]")
    assert g.atoms[0].formal_charge == 2


def test_parse_bond_symbols():
    g = parse_smiles("C=C")
    assert g.bonds[0].order == BOND_DOUBLE
    assert [a.explicit_h for a in g.atoms] == [2, 2]
    g = parse_smiles("C-C")
    assert g.bonds[0].order == BOND_SINGLE
    g = parse_smiles("c1ccccc1-c1ccccc1")
    orders = {g.bond_order(5, 6)}
    assert orders == {BOND_SINGLE}


def test_parse_ring_closure_bond_agreement():
    g = parse_smiles("C=1CCCCC=1")
    assert g.bond_order(0, 5) == BOND_DOUBLE
    g = parse_smiles("C1CCCCC=1")
    assert g.bond_order(0, 5) == BOND_DOUBLE
    with pytest.raises(SmilesSyntaxError):
        parse_smiles("C=1CCCCC-1")


def test_parse_percent_ring_digits():
    g = parse_smiles("C%10CCCC%10")
    assert g.ring_membership == (True,) * 5


def test_parse_syntax_rejections():
    bad = [
        "",
        "C(",
        "C)C",
        "C1CC",
        "C%1C",
        "=C",
        "C=",
        "C=#C",
        "C..C",
        "CC.CC",
        "C/C=C/C",
        "[C@H](C)O",
        "[13C]",
        "C*",
        "CXC",
        "f1ccccf1",
        "C:C",
        "C0CC0",
        "(C)C",
        "C(=)C",
        "1CC1",
        "C1CC2",
        "[Si](C)(C)C",
    ]
    for text in bad:
        with pytest.raises(SmilesSyntaxError):
            parse_smiles(text)


def test_parse_valence_rejections():
    bad = [
        "CC(C)(C)(C)C",
        "F=F",
        "[CH5]",
        "O=C(O)=O",
        "N(C)(C)(C)C",
        "c1ccc2ccccc2c1",
        "c1ccoc1",
        "[nH]1cccc1",
        "FF(F)F",
    ]
    for text in bad:
        with pytest.raises(ValenceError):
            parse_smiles(text)


def test_parse_valence_accepts_hypervalent_s_and_p():
    parse_smiles("CS(=O)(=O)C")
    parse_smiles("CP(=O)(O)O")
    parse_smiles("O=C=O")
    parse_smiles("C[N+](C)(C)C")


def test_implicit_h_uses_smallest_fitting_valence():
    g = parse_smiles("CSC")
    assert g.atoms[1].explicit_h == 0
    g = parse_smiles("S")
    assert g.atoms[0].explicit_h == 2
    g = parse_smiles("P")
    assert g.atoms[0].explicit_h == 3
    g = parse_smiles("CP(C)C")
    assert g.atoms[1].explicit_h == 0


def test_write_from_given_start_atom():
    g = parse_smiles("CCO")
    assert write_smiles(g, 2) == "OCC"
    assert write_smiles(g, 0) == "CCO"
    assert write_smiles(g, 1) in {"C(C)O", "C(O)C"}


def test_write_single_atom():
    g = parse_smiles("C")
    assert write_smiles(g, 0) == "C"


def test_write_rejects_bad_start():
    g = parse_smiles("CC")
    with pytest.raises(GraphError):
        write_smiles(g, 2)


def test_write_disconnected_rejected():
    atoms = [Atom("C"), Atom("C")]
    with pytest.raises(GraphError):
        write_smiles(MolGraph(atoms, []), 0)


def test_enumerate_ethanol_outputs_within_exhaustive_set():
    # All DFS renderings of ethanol, over every start atom and neighbor
    # order: start 0 -> CCO, start 2 -> OCC, start 1 -> C(C)O or C(O)C.
    valid = {"CCO", "OCC", "C(C)O", "C(O)C"}
    g = parse_smiles("CCO")
    seen = set()
    for seed in range(40):
        out = enumerate_smiles(g, 3, np.random.default_rng(seed))
        assert set(out) <= valid
        seen.update(out)
    assert seen == valid


def test_enumerate_single_atom():
    g = parse_smiles("C")
    assert enumerate_smiles(g, 5, np.random.default_rng(0)) == ["C"] * 5


def test_enumerate_deterministic():
    g = parse_smiles("CC(=O)OC")
    a = enumerate_smiles(g, 10, np.random.default_rng(7))
    b = enumerate_smiles(g, 10, np.random.default_rng(7))
    assert a == b


def test_enumerate_requires_positive_n():
    g = parse_smiles("C")
    with pytest.raises(ValueError):
        enumerate_smiles(g, 0, np.random.default_rng(0))


def test_isomorphic_basic():
    assert is_isomorphic(parse_smiles("CCO"), parse_smiles("OCC"))
    assert not is_isomorphic(parse_smiles("CCO"), parse_smiles("CCN"))
    assert not is_isomorphic(parse_smiles("CCO"), parse_smiles("CC(C)O"))
    assert not is_isomorphic(parse_smiles("C=C"), parse_smiles("CC"))
    assert not is_isomorphic(parse_smiles("CC[O-]"), parse_smiles("CCO"))


def test_isomorphic_respects_structure_not_just_counts():
    # same atom multiset and bond count, different connectivity
    a = parse_smiles("CC(C)C(C)C")
    b = parse_smiles("CCC(C)(C)C")
    assert not is_isomorphic(a, b)
    # bracket hydrogen override below the implicit count
    c = parse_smiles("C[CH]C")
    d = parse_smiles("CCC")
    assert not is_isomorphic(c, d)
    # a bracket that restates the implicit count is the same molecule
    assert is_isomorphic(parse_smiles("C[CH2]C"), parse_smiles("CCC"))


def test_isomorphic_size_limit():
    text = "C" * 65
    g = parse_smiles(text)
    with pytest.raises(SizeError):
        is_isomorphic(g, g)


def test_benzene_enumerations_isomorphic():
    g = parse_smiles("c1ccccc1")
    rng = np.random.default_rng(11)
    for text in enumerate_smiles(g, 50, rng):
        assert is_isomorphic(parse_smiles(text), g)


def test_canonical_equal_for_same_molecule():
    assert canonical_smiles(parse_smiles("OCC")) == canonical_smiles(parse_smiles("CCO"))
    assert canonical_smiles(parse_smiles("C(C)O")) == canonical_smiles(parse_smiles("CCO"))


def test_canonical_stable_under_relabeling(rng):
    for text in ["C1CC1", "CC(=O)OC", "c1ccccc1O", "CC(C)(C)C", "OCC(O)CO"]:
        g = parse_smiles(text)
        base = canonical_smiles(g)
        for _ in range(20):
            perm = list(rng.permutation(len(g)))
            assert canonical_smiles(permuted(g, perm)) == base


def test_canonical_distinguishes_isomers():
    assert canonical_smiles(parse_smiles("CC(C)C(C)C")) != canonical_smiles(
        parse_smiles("CCC(C)(C)C")
    )


def test_round_trip_corpus(corpus_smiles, rng):
    for text in corpus_smiles:
        g = parse_smiles(text)
        for _ in range(10):
            start = int(rng.integers(len(g)))
            out = write_smiles(g, start, rng=rng)
            assert is_isomorphic(parse_smiles(out), g), (text, out)


def test_round_trip_identity_order_every_start(corpus_smiles):
    for text in corpus_smiles:
        g = parse_smiles(text)
        for start in range(len(g)):
            out = write_smiles(g, start)
            assert is_isomorphic(parse_smiles(out), g), (text, start, out)


def test_detect_protected_examples():
    assert detect_protected(parse_smiles("CCO")) == (False, False, True)
    assert detect_protected(parse_smiles("C1CC1")) == (True, True, True)
    assert detect_protected(parse_smiles("CCCC")) == (False,) * 4


def test_detect_protected_motifs():
    # carbonyl: both atoms; methyl carbons stay free
    g = parse_smiles("CC(=O)C")
    assert detect_protected(g) == (False, True, True, False)
    # carboxyl: acid carbon and both oxygens
    g = parse_smiles("CC(=O)O")
    assert detect_protected(g) == (False, True, True, True)
    # ester: bridging O is part of the carboxyl motif
    g = parse_smiles("CC(=O)OC")
    assert detect_protected(g) == (False, True, True, True, False)
    # amines and amides: every nitrogen
    assert detect_protected(parse_smiles("CNC")) == (False, True, False)
    # thiol yes, thioether no
    assert detect_protected(parse_smiles("CCS")) == (False, False, True)
    assert detect_protected(parse_smiles("CSC")) == (False, False, False)
    # phosphorus drags its oxygens along
    g = parse_smiles("CP(=O)(O)O")
    assert detect_protected(g) == (False, True, True, True, True)
    # halogen on carbon
    assert detect_protected(parse_smiles("CCCl")) == (False, False, True)
    # charge alone protects
    assert detect_protected(parse_smiles("CC[O-]")) == (False, False, True)
    # ether oxygen is not a listed motif
    assert detect_protected(parse_smiles("CCOC")) == (False, False, False, False)


def test_detect_protected_permutation_equivariant(rng):
    for text in ["c1ccccc1O", "CC(=O)OC", "CP(=O)(O)O", "CCCl"]:
        g = parse_smiles(text)
        base = detect_protected(g)
        for _ in range(10):
            perm = list(rng.permutation(len(g)))
            permuted_mask = detect_protected(permuted(g, perm))
            for old, new in enumerate(perm):
                assert permuted_mask[new] == base[old]


def test_protected_property_cached():
    g = parse_smiles("CCO")
    assert g.protected == (False, False, True)
    assert g.protected is g.protected


def test_molgraph_validation():
    with pytest.raises(GraphError):
        MolGraph([Atom("C"), Atom("C")], [Bond(0, 2)])
    with pytest.raises(GraphError):
        MolGraph([Atom("C"), Atom("C")], [Bond(0, 1), Bond(1, 0)])
    with pytest.raises(GraphError):
        Bond(1, 1)
    with pytest.raises(GraphError):
        Atom("C", formal_charge=3)
    with pytest.raises(GraphError):
        Atom("F", aromatic=True)
    with pytest.raises(GraphError):
        MolGraph([Atom("C", aromatic=True), Atom("C")], [Bond(0, 1, BOND_AROMATIC)])
    with pytest.raises(ValenceError):
        MolGraph([Atom("C", explicit_h=4), Atom("C")], [Bond(0, 1)])


def test_ring_membership_spiro_and_bridge():
    # two rings sharing one atom: everything is on a cycle
    g = parse_smiles("C1CC12CC2")
    assert g.ring_membership == (True,) * len(g)
    # ring with a tail: tail atoms are not ring members
    g = parse_smiles("C1CCCCC1CC")
    assert g.ring_membership == (True,) * 6 + (False, False)


# no closure, spiro, bridged, fused-saturated and %nn ring closures,
# charges and aromatics, beyond the shared corpora
BUILD_CASES = [
    "C",
    "CC(C)(C)CC(=O)[O-]",
    "C1CC12CC2",
    "C1CCC12CCCC2",
    "C1CC2CCC1C2",
    "C12CC(C1)C2",
    "C1CC2CC1CC2",
    "CC%12CCC%12C",
    "C%10CC%11CC%10C%11",
    "c1ccccc1CC[NH3+]",
]


def built_fields(g):
    return g.atoms, g.bonds, g.adjacency, g.ring_membership


def test_parse_builds_what_the_checking_constructor_builds(
    corpus_smiles, maskable_smiles, bench300
):
    """parse_smiles skips MolGraph's checks (its own cover them) and the
    bridge search of a SMILES with no ring closure; the graph is the one
    MolGraph(atoms, bonds) checks and builds, field for field."""
    for text in corpus_smiles + maskable_smiles + BUILD_CASES + [r.smiles for r in bench300]:
        g = parse_smiles(text)
        assert type(g) is MolGraph
        assert built_fields(MolGraph(g.atoms, g.bonds)) == built_fields(g), text
        assert all(type(field) is tuple for field in built_fields(g))


def test_corpus_parses_clean(corpus_smiles):
    for text in corpus_smiles:
        g = parse_smiles(text)
        assert len(g) >= 1


def test_maskable_corpus_has_enough_free_atoms(maskable_smiles):
    for text in maskable_smiles:
        g = parse_smiles(text)
        free = sum(1 for p in detect_protected(g) if not p)
        assert free >= int(np.floor(0.3 * len(g))), text


def _nx_graph(g):
    networkx = pytest.importorskip("networkx")
    nxg = networkx.Graph()
    for i, atom in enumerate(g.atoms):
        nxg.add_node(i, key=(atom.element, atom.formal_charge, atom.aromatic, atom.explicit_h))
    for bond in g.bonds:
        nxg.add_edge(bond.a, bond.b, order=bond.order)
    return nxg


def _nx_isomorphic(a, b):
    networkx = pytest.importorskip("networkx")
    return networkx.is_isomorphic(
        _nx_graph(a),
        _nx_graph(b),
        node_match=lambda x, y: x["key"] == y["key"],
        edge_match=lambda x, y: x["order"] == y["order"],
    )


def test_isomorphism_agrees_with_networkx_on_renderings(corpus_smiles, rng):
    """Cross-check the backtracking matcher against VF2 on positives:
    every random rendering must be isomorphic to its source under both."""
    for text in corpus_smiles:
        g = parse_smiles(text)
        for variant in enumerate_smiles(g, 3, rng):
            h = parse_smiles(variant)
            assert is_isomorphic(g, h)
            assert _nx_isomorphic(g, h)


def test_isomorphism_agrees_with_networkx_on_corpus_pairs(corpus_smiles):
    # distinct corpus molecules: both implementations must return the
    # same verdict on every pair (no false positives either way)
    graphs = [parse_smiles(text) for text in corpus_smiles]
    for a, b in itertools.combinations(graphs, 2):
        assert is_isomorphic(a, b) == _nx_isomorphic(a, b)
