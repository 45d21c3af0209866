import dataclasses
import json
import logging
from math import floor
from types import SimpleNamespace

import numpy as np
import pytest

import _featurize_py as reference
import _train_py
from _augment_py import mask_graph, mask_sequence
from conftest import nested_lists, recoded
from enzood import model
from enzood.augment import ALPHABET, AMINO_ACIDS
from enzood.errors import DatasetError, NonFiniteError
from enzood.harness import read_checkpoint, write_checkpoint
from enzood.io import EsiRecord, RunConfig
from enzood.model import (
    ENZYME_FEATURES,
    MOMENTUM,
    ModelParams,
    SUBSTRATE_FEATURES,
    gradients,
    init_params,
    loss_base,
    loss_cons,
    loss_total,
    predict,
    train,
)
from enzood.molgraph import MolGraph, enumerate_smiles, parse_smiles

BLOCK_NAMES = (
    "w_enzyme", "b_enzyme", "w_substrate", "b_substrate", "w_fusion", "b_fusion", "w_head",
)


def random_enzyme(rng, length):
    return "".join(AMINO_ACIDS[int(i)] for i in rng.integers(0, 20, size=length))


def featurized(sequence="A", substrate="C", mask=None):
    """The (enzyme, substrate) feature rows of one record, from the batch
    featurizer; ``substrate`` is SMILES or a parsed graph."""
    graph = parse_smiles(substrate) if isinstance(substrate, str) else substrate
    record = SimpleNamespace(sequence=sequence, graph=graph, substrate_mask=mask)
    x_e, x_s = model._featurize([record])
    return x_e[0], x_s[0]


def forward(params, record):
    """(d-dim embedding, scalar log10 prediction) for one record."""
    z, preds = _train_py.forward_batch(params, *model._featurize([record]))
    return z[0], float(preds[0])


def batch_losses(params, x_e, x_s, xa_e, xa_s, targets, lam):
    """(base, cons, total) of one batch from forward passes alone."""
    z_raw, preds = _train_py.forward_batch(params, x_e, x_s)
    base = loss_base(preds, targets)
    cons = 0.0
    if lam > 0:
        z_aug, _ = _train_py.forward_batch(params, xa_e, xa_s)
        cons = loss_cons(z_raw, z_aug)
    return base, cons, loss_total(base, cons, lam)


# ---------------------------------------------------------------------------
# Featurizers


def test_featurize_enzyme_single_symbol():
    v, _ = featurized("AAAA")
    assert v.shape == (ENZYME_FEATURES,)
    a = ALPHABET.index("A")
    assert v[a] == 1.0
    assert np.sum(v[:21]) == 1.0
    aa_bin = 21 + a * 21 + a
    assert v[aa_bin] == 1.0
    assert np.sum(v[21:]) == 1.0


def test_featurize_enzyme_one_mer_permutation_invariant():
    rng = np.random.default_rng(0)
    seq = random_enzyme(rng, 40)
    shuffled = "".join(np.random.default_rng(1).permutation(list(seq)))
    a, _ = featurized(seq)
    b, _ = featurized(shuffled)
    assert np.array_equal(a[:21], b[:21])


def test_featurize_enzyme_mask_locality():
    seq = "ACDEFGHIKL"
    pos = 4
    masked = seq[:pos] + "X" + seq[pos + 1 :]
    diff = np.nonzero(featurized(seq)[0] != featurized(masked)[0])[0]
    x = ALPHABET.index("X")
    old = ALPHABET.index(seq[pos])
    left = ALPHABET.index(seq[pos - 1])
    right = ALPHABET.index(seq[pos + 1])
    allowed = {
        old,
        x,
        21 + left * 21 + old,
        21 + left * 21 + x,
        21 + old * 21 + right,
        21 + x * 21 + right,
    }
    assert set(diff) <= allowed


def test_featurize_enzyme_length_one():
    v, _ = featurized("W")
    assert v[ALPHABET.index("W")] == 1.0
    assert np.all(v[21:] == 0.0)
    assert np.all(np.isfinite(v))


def test_featurize_substrate_layout():
    _, v = featurized(substrate="C")
    assert v.shape == (SUBSTRATE_FEATURES,)
    # element bins: B C N O P S F Cl Br I, then MASKED
    assert v[1] == 1.0  # C bin
    assert np.sum(v[:11]) == 1.0
    assert np.all(v[11:15] == 0.0)  # no bonds
    assert v[15] == 0.0  # no ring atoms
    assert v[16] == 1.0  # degree-0 bin
    assert v[22] == 1.0  # raw atom total


def test_featurize_substrate_masked_bin():
    _, v = featurized(substrate="CCO", mask=(False, False, True))
    o_bin = 3  # B C N O
    assert v[o_bin] == 0.0
    assert v[10] == pytest.approx(1 / 3)  # MASKED bin
    assert v[1] == pytest.approx(2 / 3)
    # topology stays visible: two single bonds
    assert v[11] == pytest.approx(2 / 3)


def test_featurize_substrate_charge_and_degree():
    _, v = featurized(substrate="CC[O-]")
    assert v[21] == pytest.approx(-1 / 3)
    assert v[16] == 0.0
    assert v[17] == pytest.approx(2 / 3)  # two degree-1 atoms
    assert v[18] == pytest.approx(1 / 3)  # one degree-2 atom


def test_featurize_substrate_isomorphism_invariant(corpus_smiles):
    rng = np.random.default_rng(3)
    for text in corpus_smiles[:10]:
        g = parse_smiles(text)
        _, base = featurized(substrate=g)
        for rendering in enumerate_smiles(g, 5, rng):
            _, again = featurized(substrate=rendering)
            assert np.array_equal(base, again), (text, rendering)


def test_featurizer_kernel_matches_loop_reference(bench300):
    """The index-array kernel, over the whole batch and one record at a
    time, equals the loop reference bit for bit on masked sequences and
    graphs."""
    rng = np.random.default_rng(41)
    cases = [
        (mask_sequence(r.sequence, p, rng), r.graph, mask_graph(r.graph, p, rng))
        for r in bench300
        for p in (0.0, 0.1, 0.3)
    ]
    assert any("X" in seq for seq, _, _ in cases) and any(any(m) for _, _, m in cases)
    cases += [(seq, parse_smiles("CCO"), None) for seq in ("W", "X", "XX", "AXXXA", "XXXXXX")]
    for text in ("c1ccccc1O", "Cc1ccccc1", "C1CCCCC1CC(=O)O", "C1CC1c1ccccc1"):
        g = parse_smiles(text)
        mask = mask_graph(g, 0.3, rng)
        assert sum(mask) == sum(not p for p in g.protected) < floor(0.3 * len(g))
        cases.append(("ACDEF", g, mask))
    records = [SimpleNamespace(sequence=s, graph=g, substrate_mask=m) for s, g, m in cases]
    x_e, x_s = model._featurize(records)
    for row, (seq, g, mask) in enumerate(cases):
        want_e = reference.featurize_enzyme(seq)
        want_s = reference.featurize_substrate(g, mask)
        one_e, one_s = featurized(seq, g, mask)
        assert np.array_equal(x_e[row], want_e) and np.array_equal(one_e, want_e)
        assert np.array_equal(x_s[row], want_s) and np.array_equal(one_s, want_s)


def stub(sequence, substrate, mask=None):
    """A record as the encoder reads it; ``substrate`` is SMILES or a graph."""
    graph = parse_smiles(substrate) if isinstance(substrate, str) else substrate
    return SimpleNamespace(sequence=sequence, graph=graph, substrate_mask=mask)


def test_batch_encoder_matches_the_per_record_encoder(corpus_smiles):
    """One batch pass over the list gives the index arrays and count rows
    of the per-record encoder, dtypes included, and _featurize gives the
    loop reference's rows bit for bit: substrate masks None, all-False,
    partial and full, charged atoms and aromatic rings, and one-residue
    sequences."""
    rng = np.random.default_rng(43)
    records = []
    for i, text in enumerate(corpus_smiles + ["C[N+](C)(C)C", "[O-]c1ccccc1", "OC(=O)c1ccccc1"]):
        graph = parse_smiles(text)
        n = len(graph)
        masks = (None, (False,) * n, tuple(bool(b) for b in rng.integers(0, 2, n)), (True,) * n)
        length = (1, 2, int(rng.integers(3, 60)))[i % 3]
        sequence = "".join(ALPHABET[int(c)] for c in rng.integers(0, len(ALPHABET), length))
        records.append(stub(sequence, graph, masks[i % 4]))
    assert any(len(r.sequence) == 1 for r in records)
    assert any(any(a.formal_charge for a in r.graph.atoms) for r in records)
    assert any(any(a.aromatic for a in r.graph.atoms) for r in records)
    assert any(m is not None and any(m) and not all(m) for m in (r.substrate_mask for r in records))

    (codes, lengths), bins, (hidden, per_row), counts = model._encode(records)
    (want_codes, want_lengths), want_bins, want_hidden, want_counts = _train_py._encode(records)
    for got, want in [
        (codes, want_codes), (lengths, want_lengths), (bins, np.concatenate(want_bins)),
        (hidden, want_hidden[0]), (per_row, want_hidden[1]), (counts, want_counts),
    ]:
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(counts[:, -1], [len(b) for b in want_bins])

    x_e, x_s = model._featurize(records)
    for row, r in enumerate(records):
        assert np.array_equal(x_e[row], reference.featurize_enzyme(r.sequence))
        assert np.array_equal(x_s[row], reference.featurize_substrate(r.graph, r.substrate_mask))


def raised(encode, records):
    """The type and message of the error ``encode(records)`` raises."""
    with pytest.raises(Exception) as info:
        encode(records)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "faults, message",
    [
        (["empty-sequence"], "empty enzyme sequence"),
        (["foreign-symbol"], "outside the residue alphabet"),
        (["non-ascii"], "'ascii' codec can't encode"),
        (["mask-length"], "mask length 2 != atom count 3"),
        (["empty-graph"], "empty substrate graph"),
        (["mask-length", "empty-graph", "foreign-symbol"], "outside the residue alphabet"),
        (["empty-graph", "mask-length"], "empty substrate graph"),
        (["non-ascii", "empty-sequence"], "'ascii' codec can't encode"),
        (["empty-sequence", "foreign-symbol"], "empty enzyme sequence"),
    ],
)
def test_batch_encoder_raises_the_per_record_error(faults, message):
    """A list with faulty records raises what the per-record encoder
    raises, type and message: the first faulty record's residues, then
    the first empty graph, then the first mask of the wrong length."""
    faulty = {
        "empty-sequence": stub("", "CCO"),
        "foreign-symbol": stub("ACZDE", "CCO"),
        "non-ascii": stub("ACDéE", "CCO"),
        "mask-length": stub("ACDE", "CCO", (True, False)),
        "empty-graph": stub("ACDE", MolGraph([], [])),
    }
    records = [stub("MKV", "c1ccccc1O")]
    for fault in faults:
        records += [faulty[fault], stub("W", "CC[O-]", (False, True, False))]
    want = raised(_train_py._encode, records)
    assert message in want[1]
    assert raised(model._encode, records) == want
    assert raised(model._featurize, records) == want


def test_encoder_rejects_an_empty_list():
    with pytest.raises(ValueError, match="no records"):
        model._encode([])


def test_featurize_substrate_mask_length_checked():
    with pytest.raises(ValueError):
        featurized(substrate="CCO", mask=(True,))


def test_featurize_substrate_rejects_empty_graph():
    with pytest.raises(ValueError, match="empty"):
        featurized(substrate=MolGraph([], []))


# ---------------------------------------------------------------------------
# Forward


def zero_params(he=4, hs=3, d=5):
    params = init_params(np.random.default_rng(0), he, hs, d)
    return dataclasses.replace(params, theta=np.zeros_like(params.theta))


def sample_record(rng, atoms="CC(C)CCO"):
    return EsiRecord("r", random_enzyme(rng, 25), atoms, float(rng.normal()))


def test_forward_zero_params():
    rng = np.random.default_rng(1)
    record = sample_record(rng)
    embedding, prediction = forward(zero_params(), record)
    assert np.all(embedding == 0.0)
    assert prediction == 0.0
    assert embedding.shape == (5,)


def test_forward_deterministic_and_shaped():
    rng = np.random.default_rng(2)
    record = sample_record(rng)
    params = init_params(np.random.default_rng(7), 8, 6, 10)
    e1, p1 = forward(params, record)
    e2, p2 = forward(params, record)
    assert np.array_equal(e1, e2) and p1 == p2
    assert e1.shape == (10,)
    assert params.embed_dim == 10


def test_model_params_validation():
    good = zero_params(4, 3, 5)
    with pytest.raises(ValueError):
        ModelParams(good.theta[:-1], 4, 3, 5)
    with pytest.raises(ValueError):
        ModelParams(good.theta, 4, 3, 6)
    bad = good.theta.copy()
    bad[-1] = float("nan")
    with pytest.raises(ValueError):
        ModelParams(bad, 4, 3, 5)


def test_params_views_tile_theta():
    he, hs, d = 5, 4, 6
    params = init_params(np.random.default_rng(12), he, hs, d)
    shapes = (
        (he, ENZYME_FEATURES), (he,), (hs, SUBSTRATE_FEATURES), (hs,), (d, he + hs), (d,), (d,),
    )
    offset = 0
    for name, shape in zip(BLOCK_NAMES, shapes):
        view = getattr(params, name)
        assert view.shape == shape and np.shares_memory(view, params.theta)
        size = view.size
        assert np.array_equal(view.ravel(), params.theta[offset : offset + size])
        offset += size
    assert offset == params.theta.size - 1
    assert type(params.b_head) is float and params.b_head == params.theta[-1]


@pytest.mark.parametrize("sizes", [(5, 4, 6), (1, 1, 1), (48, 16, 64)])
def test_block_plan_views_match_a_walk_over_the_shapes(sizes):
    """The cached plan's table tiles the vector, block after block, and
    _blocks cuts it as walking the table's shapes in order does, into
    read-only views of a read-only vector."""
    params = init_params(np.random.default_rng(16), *sizes)
    assert model._plan(*sizes) is model._plan(*sizes)
    length, table = model._plan(*sizes)
    assert length == params.theta.size
    views = model._blocks(params.theta, *sizes)
    offset = 0
    for name, part, shape in table:
        size = int(np.prod(shape))
        assert (part.start, part.stop, part.step) == (offset, offset + size, None)
        want = params.theta[offset : offset + size].reshape(shape)
        offset += size
        for view in (views[name], getattr(params, name)):
            if name == "b_head":
                assert view == want
                continue
            assert view.shape == shape and view.base is params.theta.base
            assert np.array_equal(view, want) and np.shares_memory(view, want)
            assert not view.flags.writeable
    assert offset == params.theta.size
    assert list(views) == list(BLOCK_NAMES) + ["b_head"]
    with pytest.raises(ValueError, match="layout needs"):
        model._blocks(params.theta[1:], *sizes)


def test_params_views_are_read_only():
    params = init_params(np.random.default_rng(13), 5, 4, 6)
    for name in ("theta",) + BLOCK_NAMES:
        with pytest.raises(ValueError, match="read-only"):
            getattr(params, name)[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.b_head = 1.0


def test_params_compare_and_hash_by_identity():
    a = init_params(np.random.default_rng(14), 2, 2, 2)
    b = init_params(np.random.default_rng(14), 2, 2, 2)
    assert np.array_equal(a.theta, b.theta)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


# The weights' checkpoint form, written and read by harness.write_checkpoint
# and read_checkpoint; the three tests keep their names so their ids stay
# stable.


def test_params_jsonable_round_trip(tmp_path):
    """Bit for bit through a checkpoint file, -0.0, the smallest
    subnormal, both largest finite values and a 17-digit sum included."""
    theta = init_params(np.random.default_rng(11), 5, 4, 6).theta.copy()
    special = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2]
    theta[: len(special)] = special
    params = ModelParams(theta, 5, 4, 6)
    path = tmp_path / "m.ckpt"
    write_checkpoint(path, params, RunConfig())
    again, _, data = read_checkpoint(path)
    assert data["params"]["layers"] == [5, 4, 6] and isinstance(data["params"]["theta"], str)
    assert again.theta.tobytes() == params.theta.tobytes()
    assert (again.hidden_enzyme, again.hidden_substrate, again.embed_dim) == (5, 4, 6)


def poked(value):
    """An edit that sets the fourth parameter to ``value``."""
    return lambda theta: np.concatenate([theta[:3], [value], theta[4:]])


def damaged_checkpoint(path, params: ModelParams, damage):
    """A checkpoint of ``params`` at ``path`` whose params block is
    ``damage`` of the one write_checkpoint wrote."""
    write_checkpoint(path, params, RunConfig())
    data = json.loads(path.read_text(encoding="utf-8"))
    data["params"] = damage(data["params"])
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "field, damage",
    [
        pytest.param("theta", lambda p: {"layers": p["layers"]}, id="theta-missing"),
        pytest.param("theta", lambda p: {**p, "theta": 17}, id="theta-not-text"),
        pytest.param("theta", lambda p: {**p, "theta": "*" + p["theta"][1:]},
                     id="theta-not-base64"),
        pytest.param("theta", lambda p: {**p, "theta": p["theta"][:-1]}, id="theta-bad-padding"),
        pytest.param("theta", lambda p: {**p, "theta": "\u00e9" + p["theta"][1:]},
                     id="theta-not-ascii"),
        pytest.param("theta", lambda p: recoded(p, lambda t: t[:-1]), id="theta-one-float-short"),
        pytest.param("theta", lambda p: recoded(p, lambda t: np.append(t, 0.0)),
                     id="theta-one-float-long"),
        pytest.param("theta", lambda p: recoded(p, poked(np.nan)), id="theta-nan"),
        pytest.param("theta", lambda p: recoded(p, poked(-np.inf)), id="theta-inf"),
        pytest.param("theta", lambda p: {**p, "layers": [5, 4, 7]}, id="layers-mismatch"),
        pytest.param("layers", lambda p: {"theta": p["theta"]}, id="layers-missing"),
        pytest.param("layers", lambda p: {**p, "layers": [5, 4]}, id="layers-two-sizes"),
        pytest.param("layers", lambda p: {**p, "layers": [5, 4, 0]}, id="layers-zero"),
        pytest.param("layers", lambda p: {**p, "layers": [5, 4, True]}, id="layers-bool"),
        pytest.param("layers", lambda p: {**p, "layers": [5.0, 4, 6]}, id="layers-float"),
        pytest.param("theta", nested_lists, id="nested-lists"),
    ],
)
def test_params_from_jsonable_names_the_bad_field(tmp_path, field, damage):
    params = init_params(np.random.default_rng(14), 5, 4, 6)
    path = damaged_checkpoint(tmp_path / "m.ckpt", params, damage)
    with pytest.raises(DatasetError) as excinfo:
        read_checkpoint(path)
    message = str(excinfo.value)
    assert message.startswith(f"invalid checkpoint {path}: params ")
    assert field in message.removeprefix(f"invalid checkpoint {path}: "), message


def test_params_from_jsonable_rejects_non_mapping(tmp_path):
    params = init_params(np.random.default_rng(15), 2, 2, 2)
    path = damaged_checkpoint(tmp_path / "m.ckpt", params, lambda p: list(p.values()))
    with pytest.raises(DatasetError, match="params must map layers and theta, got list"):
        read_checkpoint(path)


# ---------------------------------------------------------------------------
# Losses


def test_loss_base_examples():
    assert loss_base([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert loss_base([0.0, 0.0], [1.0, 3.0]) == 5.0
    perm = [1, 0]
    p, t = np.array([0.3, 0.9]), np.array([1.0, -1.0])
    assert loss_base(p[perm], t[perm]) == loss_base(p, t)
    with pytest.raises(ValueError):
        loss_base([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        loss_base([], [])


def test_loss_cons_examples():
    assert loss_cons([1.0, 0.0], [1.0, 0.0]) == 0.0
    assert loss_cons([1.0, 0.0], [0.0, 1.0]) == 2.0
    assert loss_cons([1.0, 0.0], [0.0, 1.0]) == loss_cons([0.0, 1.0], [1.0, 0.0])
    batch_a = np.array([[1.0, 0.0], [0.0, 0.0]])
    batch_b = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert loss_cons(batch_a, batch_b) == 1.0
    with pytest.raises(ValueError):
        loss_cons([1.0], [1.0, 2.0])


def test_loss_cons_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(50):
        a, b = rng.normal(size=6), rng.normal(size=6)
        v = loss_cons(a, b)
        assert v >= 0.0
        assert (v == 0.0) == bool(np.array_equal(a, b))


def test_loss_total():
    assert loss_total(1.0, 2.0, 0.0) == 1.0
    assert loss_total(1.0, 2.0, 0.5) == 2.0
    with pytest.raises(ValueError):
        loss_total(1.0, 1.0, -0.1)


# ---------------------------------------------------------------------------
# Gradients vs finite differences


def fd_gradient(params, loss_args, h=1e-5):
    """Central finite differences of loss_total over every coordinate of
    theta, b_head included."""
    theta = params.theta
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        grad[i] = (
            batch_losses(dataclasses.replace(params, theta=plus), *loss_args)[2]
            - batch_losses(dataclasses.replace(params, theta=minus), *loss_args)[2]
        ) / (2 * h)
    return grad


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def random_batch(rng, batch, he=5, hs=4, d=6):
    params = init_params(rng, he, hs, d)
    pairs = [sample_record(rng) for _ in range(batch)]
    aug = [sample_record(rng, atoms="CC(=O)OC") for _ in range(batch)]
    x_e, x_s = model._featurize(pairs)
    xa_e, xa_s = model._featurize(aug)
    y = rng.normal(size=batch)
    return params, (x_e, x_s, xa_e, xa_s, y)


def layers(params):
    return params.hidden_enzyme, params.hidden_substrate, params.embed_dim


def stacked_gradients(params, x_e, x_s, xa_e, xa_s, y, lam):
    """gradients over the (raw, augmented) stack of the scaled rows."""
    xe, xs = model._scaled(np.stack((x_e, xa_e)), np.stack((x_s, xa_s)))
    return gradients(params.theta, layers(params), xe, xs, y, lam)


@pytest.mark.parametrize("lam", [0.0, 0.5, 5.0])
def test_gradients_match_finite_differences(lam):
    rng = np.random.default_rng(int(lam * 10) + 3)
    params, (x_e, x_s, xa_e, xa_s, y) = random_batch(rng, batch=3)
    grads, base, cons = stacked_gradients(params, x_e, x_s, xa_e, xa_s, y, lam)
    numeric = fd_gradient(params, (x_e, x_s, xa_e, xa_s, y, lam))
    assert max_rel_error(grads, numeric) < 1e-4
    b2, c2, _ = batch_losses(params, x_e, x_s, xa_e, xa_s, y, lam)
    assert base == b2 and cons == c2


@pytest.mark.parametrize("lam", [0.0, 0.5, 50.0])
@pytest.mark.parametrize("batch", [1, 7, 16])
def test_gradients_match_the_two_pass_reference(lam, batch):
    """One stacked pass gives the gradient and losses of two passes, bit
    for bit, at the default layer sizes."""
    rng = np.random.default_rng([26, batch, int(lam)])
    params, args = random_batch(rng, batch, 48, 16, 64)
    want = _train_py.gradients(params, *args, lam)
    got = stacked_gradients(params, *args, lam)
    assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


def test_gradients_lambda_zero_ignores_augmented():
    rng = np.random.default_rng(21)
    params, (x_e, x_s, xa_e, xa_s, y) = random_batch(rng, batch=4)
    g1, *_ = stacked_gradients(params, x_e, x_s, xa_e, xa_s, y, 0.0)
    garbage_e = np.full_like(xa_e, 1234.5)
    garbage_s = np.full_like(xa_s, -77.0)
    g2, *_ = stacked_gradients(params, x_e, x_s, garbage_e, garbage_s, y, 0.0)
    g3, *_ = gradients(params.theta, layers(params), *model._scaled(x_e[None], x_s[None]), y, 0.0)
    assert np.array_equal(g1, g2) and np.array_equal(g1, g3)


def test_gradients_need_the_augmented_rows_when_lambda_is_positive():
    rng = np.random.default_rng(25)
    params, (x_e, x_s, *_, y) = random_batch(rng, batch=2)
    with pytest.raises(ValueError, match="needs 2 stacked row sets"):
        gradients(params.theta, layers(params), *model._scaled(x_e[None], x_s[None]), y, 0.5)


@pytest.mark.filterwarnings("ignore:overflow")
def test_gradients_name_the_non_finite_block():
    rng = np.random.default_rng(23)
    params, (x_e, x_s, xa_e, xa_s, y) = random_batch(rng, batch=3)
    # each (pred - y) is about -1e308 and finite; their sum, the b_head
    # gradient, overflows while every other block stays finite
    huge = np.full(3, 1e308)
    with pytest.raises(NonFiniteError, match="non-finite gradient in b_head"):
        stacked_gradients(params, x_e, x_s, xa_e, xa_s, huge, 0.0)


def test_gradients_reject_negative_lambda():
    rng = np.random.default_rng(22)
    params, args = random_batch(rng, batch=2)
    with pytest.raises(ValueError):
        stacked_gradients(params, *args, -1.0)


# ---------------------------------------------------------------------------
# Training


def linear_dataset(rng, n, noise=0.05):
    """Targets depend on enzyme composition only; easy to fit."""
    pairs = []
    for _ in range(n):
        seq = random_enzyme(rng, 30)
        signal = seq.count("A") / len(seq) + 0.5 * (seq.count("W") / len(seq))
        value = signal + float(rng.normal(0, noise))
        pairs.append(EsiRecord(f"r{len(pairs)}", seq, "CC(C)CCO", value))
    return pairs


def test_train_learns_and_logs():
    rng = np.random.default_rng(30)
    pairs = linear_dataset(rng, 80)
    cfg = RunConfig(
        lam=0.5,
        learning_rate=0.1,
        epochs=20,
        batch_size=16,
        hidden_enzyme=12,
        hidden_substrate=6,
        embed_dim=8,
        seed=5,
        p_s=0.1,
        p_g=0.1,
    )
    params, log = train(pairs[:60], pairs[60:], cfg)
    assert len(log) == 20
    first, last = log[0], log[-1]
    for key in ("train_base", "train_cons", "train_total", "val_mse", "val_r2", "val_mae"):
        assert key in first
    assert last["val_mse"] < first["val_mse"]
    best = min(log, key=lambda e: e["val_mse"])
    assert first["best_epoch"] == best["epoch"]
    # returned params reproduce the best epoch's validation MSE
    preds = predict(params, pairs[60:])
    targets = [p.value for p in pairs[60:]]
    assert loss_base(preds, targets) == pytest.approx(best["val_mse"], rel=1e-12)


def test_train_deterministic():
    rng = np.random.default_rng(31)
    pairs = linear_dataset(rng, 40)
    cfg = RunConfig(
        epochs=5, batch_size=8, hidden_enzyme=6, hidden_substrate=4, embed_dim=5, seed=3
    )
    p1, log1 = train(pairs[:30], pairs[30:], cfg)
    p2, log2 = train(pairs[:30], pairs[30:], cfg)
    assert log1 == log2
    assert np.array_equal(p1.theta, p2.theta)


def test_train_lambda_zero_independent_of_augment_stream():
    rng = np.random.default_rng(32)
    pairs = linear_dataset(rng, 40)
    base_cfg = dict(
        lam=0.0, epochs=4, batch_size=8, hidden_enzyme=6, hidden_substrate=4,
        embed_dim=5, seed=3,
    )
    cfg_a = RunConfig(p_s=0.0, p_g=0.0, **base_cfg)
    cfg_b = RunConfig(p_s=0.3, p_g=0.3, substrate_mode="enumeration", **base_cfg)
    p1, log1 = train(pairs[:30], pairs[30:], cfg_a)
    p2, log2 = train(pairs[:30], pairs[30:], cfg_b)
    assert np.array_equal(p1.theta, p2.theta)
    assert [e["val_mse"] for e in log1] == [e["val_mse"] for e in log2]


def test_train_lambda_zero_draws_no_augmentation(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("masks drawn with lam=0")

    monkeypatch.setattr(model, "draw_masks", refuse)  # _draw_block still draws the orders
    rng = np.random.default_rng(36)
    pairs = linear_dataset(rng, 24)
    cfg = RunConfig(
        lam=0.0, epochs=3, batch_size=8, hidden_enzyme=4, hidden_substrate=3, embed_dim=4
    )
    _, log = train(pairs[:16], pairs[16:], cfg)
    assert len(log) == 3 and all(entry["train_cons"] == 0.0 for entry in log)


@pytest.mark.parametrize("mode", ["graph_mask", "enumeration"])
def test_train_features_the_augmented_records(monkeypatch, mode):
    """Each step's augmented rows, the second row set of its gradients
    stack, are the scaled features of the step's batch records masked by
    draws from the (seed, epoch, step) generator in batch order:
    residues, then (graph_mask) atoms.  Enumeration draws residues alone,
    and its substrate rows are the raw ones, which every re-rendering of
    the graph featurizes to."""
    seen = []
    real = model.gradients

    def spy(theta, sizes, xe, xs, *args):
        seen.append((xe[1].copy(), xs[1].copy()))  # a later epoch refills the stack
        return real(theta, sizes, xe, xs, *args)

    monkeypatch.setattr(model, "gradients", spy)
    rng = np.random.default_rng(38)
    records = [sample_record(rng, atoms="CC(C)CC(=O)OCC") for _ in range(12)]
    cfg = RunConfig(
        lam=0.5, epochs=2, batch_size=5, hidden_enzyme=4, hidden_substrate=3, embed_dim=4,
        seed=6, p_s=0.2, p_g=0.3, substrate_mode=mode,
    )
    train(records[:10], records[10:], cfg)
    expected = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(10)
        for step, start in enumerate(range(0, 10, cfg.batch_size)):
            step_rng = np.random.default_rng([cfg.seed, epoch, step])
            rows_e, rows_s = [], []
            for r in (records[i] for i in order[start : start + cfg.batch_size]):
                rows_e.append(reference.featurize_enzyme(mask_sequence(r.sequence, 0.2, step_rng)))
                mask = None if mode == "enumeration" else mask_graph(r.graph, 0.3, step_rng)
                rows_s.append(reference.featurize_substrate(r.graph, mask))
            expected.append(model._scaled(np.stack(rows_e), np.stack(rows_s)))
    assert len(seen) == len(expected) == 4
    for (xa_e, xa_s), (want_e, want_s) in zip(seen, expected):
        assert np.array_equal(xa_e, want_e) and np.array_equal(xa_s, want_s)


def test_train_masks_are_consecutive_choice_draws(monkeypatch):
    """One draw per epoch gives each step what one random-key sample per
    non-empty draw from the (seed, epoch, step) generator gives: mixed
    sequence lengths (some too short to mask), substrates of 10 or more
    atoms, and a short last batch."""
    seen = []
    real = model.gradients

    def spy(theta, sizes, xe, xs, *args):
        seen.append((xe[1].copy(), xs[1].copy()))  # a later epoch refills the stack
        return real(theta, sizes, xe, xs, *args)

    monkeypatch.setattr(model, "gradients", spy)
    rng = np.random.default_rng(40)
    substrates = ("CCCCCCCCCC", "CC(C)CC(=O)OCCCCC", "CCCCCCC(C)CCCCN", "OCC(C)CCCCCCCCCCO")
    records = [
        EsiRecord(f"r{i}", random_enzyme(rng, int(rng.integers(2, 120))), substrates[i % 4],
                  float(rng.normal()))
        for i in range(27)
    ]
    assert min(len(r.graph) for r in records) >= 10
    cfg = RunConfig(
        lam=0.5, epochs=2, batch_size=6, hidden_enzyme=4, hidden_substrate=3, embed_dim=4,
        seed=11, p_s=0.3, p_g=0.3,
    )
    train(records[:23], records[23:], cfg)

    def sample(step_rng, pop, k):
        return np.argsort(step_rng.random(pop))[:k] if k else np.empty(0, dtype=int)

    expected = []
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(23)
        for step, start in enumerate(range(0, 23, cfg.batch_size)):
            step_rng = np.random.default_rng([cfg.seed, epoch, step])
            rows_e, rows_s = [], []
            for r in (records[i] for i in order[start : start + cfg.batch_size]):
                seq = list(r.sequence)
                for site in sample(step_rng, len(seq), floor(0.3 * len(seq))):
                    seq[site] = "X"
                rows_e.append(reference.featurize_enzyme("".join(seq)))
                pool = [i for i, p in enumerate(r.graph.protected) if not p]
                hidden = {pool[j] for j in sample(step_rng, len(pool),
                                                   min(floor(0.3 * len(r.graph)), len(pool)))}
                mask = [i in hidden for i in range(len(r.graph))]
                rows_s.append(reference.featurize_substrate(r.graph, mask))
            expected.append(model._scaled(np.stack(rows_e), np.stack(rows_s)))
    assert len(seen) == len(expected) == 8
    assert [len(e) for e, _ in expected[:4]] == [6, 6, 6, 5]
    for (xa_e, xa_s), (want_e, want_s) in zip(seen, expected):
        assert np.array_equal(xa_e, want_e) and np.array_equal(xa_s, want_s)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_train_steps_read_slices_of_one_row_stack(monkeypatch, lam):
    """Every step's rows are a slice of one stack laid out per run: one
    row set at lam 0 and two at lam > 0, the raw rows at [0] in batch
    order, with the targets in the same order, and a short last batch."""
    seen = []
    real = model.gradients

    def spy(theta, sizes, xe, xs, targets, *args):
        seen.append((xe, xs, xe[0].copy(), xs[0].copy(), targets.copy()))
        return real(theta, sizes, xe, xs, targets, *args)

    monkeypatch.setattr(model, "gradients", spy)
    rng = np.random.default_rng(41)
    records = [sample_record(rng) for _ in range(14)]
    cfg = RunConfig(
        lam=lam, epochs=2, batch_size=4, hidden_enzyme=4, hidden_substrate=3, embed_dim=4,
        seed=5,
    )
    train(records[:11], records[11:], cfg)
    assert len(seen) == 2 * 3
    first_e, first_s = seen[0][:2]
    step = 0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(11)
        for start in range(0, 11, cfg.batch_size):
            xe, xs, raw_e, raw_s, targets = seen[step]
            batch = [records[i] for i in order[start : start + cfg.batch_size]]
            assert xe.base is not None and xe.base is first_e.base  # one buffer per run
            assert xs.base is not None and xs.base is first_s.base
            assert len(xe) == len(xs) == (2 if lam > 0 else 1)
            want_e, want_s = model._scaled(*model._featurize(batch))
            assert np.array_equal(raw_e, want_e) and np.array_equal(raw_s, want_s)
            assert np.array_equal(targets, [r.value for r in batch])
            step += 1
    assert [len(t) for *_, t in seen[:3]] == [4, 4, 3]


def test_train_enumeration_is_the_graph_mask_run_at_p_g_zero():
    """The descriptor is invariant under graph isomorphism and a zero
    atom count draws nothing, so enumeration mode trains exactly as
    graph_mask at p_g = 0, whatever its own p_g."""
    rng = np.random.default_rng(39)
    records = [sample_record(rng, atoms="CC(C)CC(=O)OCC") for _ in range(14)]
    base = dict(lam=0.5, epochs=3, batch_size=4, hidden_enzyme=4, hidden_substrate=3,
                embed_dim=4, seed=2, p_s=0.2)
    p0, log0 = train(records[:10], records[10:], RunConfig(p_g=0.0, **base))
    for p_g in (0.1, 0.3):
        cfg = RunConfig(p_g=p_g, substrate_mode="enumeration", **base)
        p, log = train(records[:10], records[10:], cfg)
        assert np.array_equal(p.theta, p0.theta) and log == log0
    masked, _ = train(records[:10], records[10:], RunConfig(p_g=0.3, **base))
    assert not np.array_equal(masked.theta, p0.theta)


def new_bests(log) -> int:
    """How many logged epochs lower the best validation MSE so far."""
    best, count = np.inf, 0
    for entry in log:
        if "val_mse" in entry and entry["val_mse"] < best:
            best, count = entry["val_mse"], count + 1
    return count


def test_train_never_changes_params_it_handed_out(monkeypatch):
    """Train updates one working vector in place and hands out read-only
    copies: the initial params, then one snapshot per epoch that lowers
    the best validation MSE.  None shares memory with the working vector,
    each keeps its weights through every later step, and the best params
    and the checkpoint of a NonFiniteError are the latest one."""
    built = []
    working = []
    real_params, real_gradients = model.ModelParams, model.gradients

    def recording(*args):
        params = real_params(*args)
        built.append((params, params.theta.tobytes()))
        return params

    def spy(theta, *args):
        working.append(theta)
        return real_gradients(theta, *args)

    monkeypatch.setattr(model, "ModelParams", recording)
    monkeypatch.setattr(model, "gradients", spy)

    def check_snapshots():
        assert len({id(theta) for theta in working}) == 1  # one vector, updated in place
        for params, weights in built:
            assert params.theta.tobytes() == weights and not params.theta.flags.writeable
            assert not np.shares_memory(params.theta, working[0])

    rng = np.random.default_rng(37)
    pairs = linear_dataset(rng, 40, noise=0.3)
    cfg = RunConfig(
        learning_rate=0.3, epochs=12, batch_size=8, hidden_enzyme=6, hidden_substrate=4,
        embed_dim=5, seed=4,
    )
    best, log = train(pairs[:30], pairs[30:], cfg)
    assert log[0]["best_epoch"] < len(log) - 1  # steps ran after the returned params
    assert 1 < new_bests(log) < cfg.epochs
    assert len(built) == 1 + new_bests(log)
    assert built[-1][0] is best
    check_snapshots()

    built.clear()
    working.clear()
    with pytest.raises(NonFiniteError) as excinfo:  # logs 9 epochs, then diverges
        train(pairs[:30], pairs[30:], dataclasses.replace(cfg, learning_rate=1e3))
    err = excinfo.value
    assert len(err.log) == 10 and "aborted" in err.log[-1]
    assert new_bests(err.log) > 0 and len(built) == 1 + new_bests(err.log)
    assert built[-1][0] is err.checkpoint  # an epoch's snapshot
    check_snapshots()


@pytest.mark.filterwarnings("ignore:overflow")
def test_train_aborts_on_divergence_with_checkpoint():
    rng = np.random.default_rng(33)
    pairs = linear_dataset(rng, 24)
    cfg = RunConfig(
        learning_rate=1e155, epochs=4, batch_size=8, hidden_enzyme=4,
        hidden_substrate=3, embed_dim=4, seed=2,
    )
    with pytest.raises(NonFiniteError) as excinfo:
        train(pairs[:16], pairs[16:], cfg)
    err = excinfo.value
    assert isinstance(err.checkpoint, ModelParams)
    assert isinstance(err.log, list)
    assert any("aborted" in entry for entry in err.log)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_aborts_on_non_finite_parameters_with_the_initial_checkpoint():
    """The first update overflows the velocity (targets of about 1e6
    times a learning rate of 1e306), so the new parameters are not
    finite: the run aborts at step 0 with the initial parameters as its
    checkpoint, and no RuntimeWarning comes before it."""
    rng = np.random.default_rng(34)
    records = [dataclasses.replace(r, value=r.value * 1e6) for r in linear_dataset(rng, 24)]
    cfg = RunConfig(
        learning_rate=1e306, epochs=3, batch_size=8, hidden_enzyme=4, hidden_substrate=3,
        embed_dim=4, seed=5,
    )
    with pytest.raises(NonFiniteError) as excinfo:
        train(records[:16], records[16:], cfg)
    err = excinfo.value
    assert str(err) == "non-finite parameters at epoch 0 step 0"
    initial = init_params(np.random.default_rng([cfg.seed, 0xA11]), 4, 3, 4)
    assert np.array_equal(err.checkpoint.theta, initial.theta)
    assert err.log == [{"aborted": str(err), "epoch": 0}]


def run_outcome(train_fn, train_records, val_records, cfg):
    """What a run hands back, as bytes and text: the returned weights and
    log, or a NonFiniteError's message, log and checkpoint weights."""
    try:
        params, log = train_fn(train_records, val_records, cfg)
    except NonFiniteError as err:
        return "aborted", str(err), repr(err.log), err.checkpoint.theta.tobytes()
    return "trained", params.theta.tobytes(), repr(log)


def bench_case(n_train=40, epochs=3, **settings):
    """n_train records of the 300-record benchmark, 12 more to validate,
    ``epochs`` epochs at the default layer sizes."""
    cfg = RunConfig(epochs=epochs, **settings)
    return lambda bench: (bench[:n_train], bench[n_train : n_train + 12], cfg)


def divergence_case(data_seed, value_scale, **settings):
    """The setting of one of the two divergence tests above."""

    def case(_):
        pairs = linear_dataset(np.random.default_rng(data_seed), 24)
        pairs = [dataclasses.replace(r, value=r.value * value_scale) for r in pairs]
        cfg = RunConfig(batch_size=8, hidden_enzyme=4, hidden_substrate=3, embed_dim=4, **settings)
        return pairs[:16], pairs[16:], cfg

    return case


def block_cap(train_records, block):
    """The _BLOCK_RESIDUES that draws ``block`` epochs of these records
    at a time: a fraction makes one epoch alone exceed the cap."""
    return int(block * sum(len(r.sequence) for r in train_records))


@pytest.mark.parametrize(
    "case, block",
    [
        pytest.param(bench_case(lam=0.0), None, id="lam-0"),
        pytest.param(bench_case(lam=0.5), None, id="lam-0.5"),
        pytest.param(bench_case(lam=50.0), None, id="lam-50"),
        pytest.param(bench_case(lam=0.5, substrate_mode="enumeration"), None, id="enumeration"),
        pytest.param(bench_case(n_train=33, lam=0.5), None, id="final-batch-of-one"),
        pytest.param(bench_case(lam=0.5, batch_size=64), None, id="batch-larger-than-n"),
        pytest.param(divergence_case(33, 1.0, learning_rate=1e155, epochs=4, seed=2), None,
                     id="diverging", marks=pytest.mark.filterwarnings("ignore:overflow")),
        pytest.param(divergence_case(34, 1e6, learning_rate=1e306, epochs=3, seed=5), None,
                     id="non-finite-parameters"),
        pytest.param(bench_case(lam=0.5, epochs=5), 2, id="epochs-not-a-multiple-of-the-block"),
        pytest.param(bench_case(lam=0.5), 1, id="block-of-one-epoch"),
        pytest.param(bench_case(lam=0.5), 10, id="one-block-longer-than-the-run"),
        pytest.param(bench_case(lam=0.5, epochs=2), 0.5, id="epoch-over-the-cap"),
        pytest.param(bench_case(lam=0.0, epochs=5), 2, id="lam-0-in-blocks"),
        pytest.param(bench_case(lam=0.5, epochs=5, substrate_mode="enumeration"), 2,
                     id="enumeration-in-blocks"),
        pytest.param(divergence_case(33, 1.0, learning_rate=1e14, epochs=8, seed=2), 7,
                     id="non-finite-mid-block", marks=pytest.mark.filterwarnings("ignore:overflow")),
    ],
)
def test_train_matches_the_two_pass_reference(case, block, bench300, monkeypatch):
    """One stacked pass per step, updated in place, with the draws of
    blocks of epochs, gives the weights, log and NonFiniteError of the
    reference that runs the raw and the augmented rows through two
    passes, builds fresh params each step and draws one epoch at a time,
    bit for bit.  ``block`` sets the block cap to that many epochs of
    residues (the library's own cap when None)."""
    train_records, val_records, cfg = case(bench300)
    if block is not None:
        monkeypatch.setattr(model, "_BLOCK_RESIDUES", block_cap(train_records, block))
    assert run_outcome(train, train_records, val_records, cfg) == run_outcome(
        _train_py.train, train_records, val_records, cfg
    )


@pytest.mark.parametrize(
    "epochs, block, want",
    [
        (5, 2, [(0, 2), (2, 4), (4, 5)]),
        (3, 1, [(0, 1), (1, 2), (2, 3)]),
        (3, 10, [(0, 3)]),
        (2, 0.5, [(0, 1), (1, 2)]),
    ],
)
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_train_draws_whole_epochs_a_block_at_a_time(
    monkeypatch, caplog, bench300, epochs, block, want, lam
):
    """Each block is the longest run of whole epochs, at least one, whose
    residues fit under the cap, drawn in one _draw_block call, and the
    train line counts the blocks."""
    train_records, val_records, cfg = bench_case(lam=lam, epochs=epochs)(bench300)
    monkeypatch.setattr(model, "_BLOCK_RESIDUES", block_cap(train_records, block))
    seen = []
    real = model._draw_block

    def spy(block_epochs, *args):
        seen.append((block_epochs.start, block_epochs.stop))
        return real(block_epochs, *args)

    monkeypatch.setattr(model, "_draw_block", spy)
    with caplog.at_level(logging.INFO, logger="enzood.model"):
        train(train_records, val_records, cfg)
    assert seen == want
    assert caplog.messages[-1].endswith(f" s drawing and masking in {len(want)} blocks")


def test_train_rejects_empty_sets():
    rng = np.random.default_rng(34)
    pairs = linear_dataset(rng, 4)
    with pytest.raises(ValueError):
        train([], pairs, RunConfig(epochs=1))
    with pytest.raises(ValueError):
        train(pairs, [], RunConfig(epochs=1))


def test_momentum_constant():
    assert MOMENTUM == 0.9


def test_forward_batch_matches_single():
    """predict's batched pass gives the reference forward pass's
    predictions over the batch, and each row matches the record's own
    one-row pass."""
    rng = np.random.default_rng(35)
    params = init_params(np.random.default_rng(1), 6, 5, 7)
    pairs = [sample_record(rng) for _ in range(4)]
    z, preds = _train_py.forward_batch(params, *model._featurize(pairs))
    assert predict(params, pairs).tobytes() == preds.tobytes()
    for k, record in enumerate(pairs):
        zk, pk = forward(params, record)
        assert np.allclose(z[k], zk, atol=1e-12)
        assert np.isclose(preds[k], pk, atol=1e-12)
