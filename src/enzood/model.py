"""Featurization, a small two-branch regressor, and consistency training.

Enzymes become length-normalized 1-mer/2-mer count vectors (462 entries,
MASK is a first-class symbol); substrates become a 23-entry descriptor
(element bins with a dedicated MASKED bin, bond orders, ring count,
degree histogram, charge sum, atom total).  Records are featurized a
batch at a time, one row each (_featurize): training, predict and
synth.generate share that one entry point.  Both branches pass through a
tanh affine layer, are concatenated, fused into a d-dim embedding, and a
linear head emits the log10 kinetic prediction.

Training minimizes prediction MSE on the records plus lam times the mean
squared embedding distance between each record and its augmented
counterpart; the augmented samples feed only the consistency term.
Each epoch lays its rows out once, in batch order, in one stack per
run: the raw rows at [0] and, with lam > 0, the augmented rows of all
its records, featurized at once, at [1].  Each step reads its slice of
the stack, runs one forward and one backward pass over it (gradients)
and updates one working parameter vector in place; each epoch
validates that vector, and a read-only ModelParams snapshot of it is
taken only when the epoch is the best so far.  The batch orders and
masks are drawn a block of epochs at a time: one draw_masks call and
one masking pass per block.  Training reads its
settings from an ``io.RunConfig`` (the model does not import
``io``; any object with the same fields will do).  Records are any
objects with sequence, graph (the parsed substrate), substrate_mask,
and value attributes, as io.EsiRecord has.  All gradients are
hand-derived and checked against finite differences in the test suite.
"""

from __future__ import annotations

import base64
import functools
import logging
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .augment import ALPHABET, MASK_SYMBOL, draw_masks
from .errors import DegenerateTargetsError, NonFiniteError
from .metrics import mae, r_squared
from .molgraph import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    BOND_TRIPLE,
    ELEMENTS,
)

if TYPE_CHECKING:
    from .io import RunConfig

ENZYME_FEATURES = len(ALPHABET) + len(ALPHABET) ** 2  # 462

# element bins + MASKED bin, 4 bond orders, ring count, degree histogram
# 0..4+, charge sum, atom total
SUBSTRATE_FEATURES = len(ELEMENTS) + 1 + 4 + 1 + 5 + 1 + 1  # 23

MOMENTUM = 0.9

_LOG = logging.getLogger(__name__)

# Fixed input scalings applied to feature rows (_scaled) before the first
# layers; training scales its rows once, at encode time.  K-mer fractions
# are tiny (~1/sequence length) while the raw atom-count descriptor runs
# to double digits; rescaling both toward unit magnitude keeps the two
# branches inside tanh's responsive range under 1/sqrt(fan_in) init.
ENZYME_INPUT_SCALE = 16.0
ATOM_COUNT_SCALE = 0.125

_RESIDUE_CODE = np.full(256, -1, dtype=np.intp)  # byte -> alphabet index
_RESIDUE_CODE[np.frombuffer(ALPHABET.encode("ascii"), dtype=np.uint8)] = np.arange(len(ALPHABET))
_MASK_CODE = ALPHABET.index(MASK_SYMBOL)
_ELEMENT_INDEX = {element: i for i, element in enumerate(ELEMENTS)}
_MASKED_BIN = len(ELEMENTS)
# count-row slots after the element bins and MASKED: 4 bond orders, ring
# atoms, degrees 0..4+, charge sum, atom total
_BOND_SLOT = {
    order: _MASKED_BIN + 1 + i
    for i, order in enumerate((BOND_SINGLE, BOND_DOUBLE, BOND_TRIPLE, BOND_AROMATIC))
}
_RING_SLOT = _MASKED_BIN + 5
_DEGREE_SLOT = _MASKED_BIN + 6


def _residue_codes(seq: str) -> np.ndarray:
    """Alphabet index of each residue."""
    if not seq:
        raise ValueError("empty enzyme sequence")
    codes = _RESIDUE_CODE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if codes.min() < 0:
        raise ValueError("enzyme sequence holds symbols outside the residue alphabet")
    return codes


def _cut(values: np.ndarray, keep: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``values`` (laid end to end, sizes[r] > 0 per row)
    that ``keep`` marks, end to end, and how many each row keeps."""
    return values[keep], np.add.reduceat(keep, np.cumsum(sizes) - sizes, dtype=np.int64)


def _enzyme_rows(codes: np.ndarray, lengths: np.ndarray, out=None) -> np.ndarray:
    """Feature rows of residue codes laid end to end, ``lengths`` per
    row: 1-mer counts over the length, 2-mer counts (pair a, b in bin
    a * 21 + b) over the length - 1, and no 2-mers for a single
    residue.  Written into ``out``, a (rows, 462) array, when given."""
    k = len(ALPHABET)
    b = len(lengths)
    ones = np.repeat(np.arange(0, b * k, k), lengths) + codes  # row * k + code
    twos = ones[:-1] * k + codes[1:]
    twos[np.cumsum(lengths)[:-1] - 1] = b * k * k  # pairs across two sequences: a spare bin
    if out is None:
        out = np.empty((b, ENZYME_FEATURES))
    np.divide(np.bincount(ones, minlength=b * k).reshape(b, k), lengths[:, None], out=out[:, :k])
    np.divide(
        np.bincount(twos, minlength=b * k * k + 1)[:-1].reshape(b, k * k),
        np.maximum(lengths - 1, 1)[:, None],
        out=out[:, k:],
    )
    return out


def _substrate_rows(counts: np.ndarray, hidden: np.ndarray, per_row) -> np.ndarray:
    """Feature rows of unmasked count rows: row j moves one count from
    the element bin of each of its per_row[j] entries of ``hidden`` (laid
    end to end, row by row) to MASKED, then every entry but the atom
    total is divided by the atom total."""
    b, f = counts.shape
    out = counts.astype(np.float64)
    if len(hidden):
        row = np.repeat(np.arange(b), per_row)
        moved = np.bincount(row * f + hidden, minlength=b * f).reshape(b, f)
        out -= moved
        out[:, _MASKED_BIN] += moved.sum(axis=1)
    out[:, :-1] /= out[:, -1:]
    return out


def _encode(records):
    """The records as index arrays, in one pass over the list: (residue
    codes end to end, each record's length), the element bin of every
    atom end to end (record r's atom total, its count row's last entry,
    per record), (the bins each record's own substrate mask hides end to
    end, their count per record), and the (records, 23) integer count
    rows of the unmasked graphs.

    The residue codes are one lookup over the joined sequences; each
    graph's element bins, bond slots and degrees join flat arrays, and
    one bincount keyed by row * 23 + slot counts them into the rows.
    Raises ValueError on an empty list, and otherwise the error of the
    first faulty record in three phases: its residues (an empty sequence
    or a symbol outside the alphabet), then its graph (no atoms), then
    its mask (a length other than the atom count)."""
    if not records:
        raise ValueError("no records to encode")
    sequences = [r.sequence for r in records]
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    text = "".join(sequences)
    codes = None
    if text.isascii():
        codes = _RESIDUE_CODE[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if codes is None or not lengths.all() or codes.min() < 0:
        for seq in sequences:
            _residue_codes(seq)  # raises the first faulty record's error

    graphs = [r.graph for r in records]
    atoms = np.array([len(g) for g in graphs], dtype=np.int64)
    if not atoms.all():
        raise ValueError("empty substrate graph")

    n, f = len(records), SUBSTRATE_FEATURES
    bins = np.array([_ELEMENT_INDEX[a.element] for g in graphs for a in g.atoms], dtype=np.intp)
    slots = np.array([_BOND_SLOT[b.order] for g in graphs for b in g.bonds], dtype=np.intp)
    degrees = np.array([min(len(neigh), 4) for g in graphs for neigh in g.adjacency], dtype=np.intp)
    row = np.arange(0, n * f, f)
    atom_row = np.repeat(row, atoms)
    keys = np.concatenate((
        atom_row + bins,
        np.repeat(row, [len(g.bonds) for g in graphs]) + slots,
        atom_row + _DEGREE_SLOT + degrees,
    ))
    counts = np.bincount(keys, minlength=n * f).reshape(n, f)
    counts[:, _RING_SLOT] = [sum(g.ring_membership) for g in graphs]
    counts[:, f - 2] = [sum(a.formal_charge for a in g.atoms) for g in graphs]
    counts[:, f - 1] = atoms

    hide = np.zeros(len(bins), dtype=bool)  # the atoms the records' own masks hide
    starts = np.cumsum(atoms) - atoms
    for r, start, n_atoms in zip(records, starts.tolist(), atoms.tolist()):
        mask = r.substrate_mask
        if mask is None:
            continue
        if len(mask) != n_atoms:
            raise ValueError(f"mask length {len(mask)} != atom count {n_atoms}")
        hide[start : start + n_atoms] = mask
    return (codes, lengths), bins, _cut(bins, hide, atoms), counts


def _featurize(records) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (enzyme, substrate) feature rows of the records."""
    residues, _, hidden, counts = _encode(records)
    return _enzyme_rows(*residues), _substrate_rows(counts, *hidden)


# ---------------------------------------------------------------------------
# Parameters


@functools.lru_cache(maxsize=16)
def _plan(hidden_enzyme: int, hidden_substrate: int, embed_dim: int) -> tuple:
    """(vector length, ((name, slice, shape), ...)): the blocks of the
    parameter vector for these layer sizes, in the order they sit in it,
    worked out once per size."""
    he, hs, d = hidden_enzyme, hidden_substrate, embed_dim
    shapes = (
        ("w_enzyme", (he, ENZYME_FEATURES)),
        ("b_enzyme", (he,)),
        ("w_substrate", (hs, SUBSTRATE_FEATURES)),
        ("b_substrate", (hs,)),
        ("w_fusion", (d, he + hs)),
        ("b_fusion", (d,)),
        ("w_head", (d,)),
        ("b_head", ()),
    )
    plan = []
    offset = 0
    for name, shape in shapes:
        end = offset + math.prod(shape)
        plan.append((name, slice(offset, end), shape))
        offset = end
    return offset, tuple(plan)


def _blocks(theta: np.ndarray, hidden_enzyme: int, hidden_substrate: int, embed_dim: int) -> dict:
    """Named row-major views into a parameter vector of these layer sizes,
    or into each vector of a stack (..., size); b_head is the view of the
    last entry, of shape () for one vector."""
    size, plan = _plan(hidden_enzyme, hidden_substrate, embed_dim)
    if theta.shape[-1:] != (size,):
        raise ValueError(f"parameter vector has shape {theta.shape}, the layout needs ({size},)")
    lead = theta.shape[:-1]
    return {name: theta[..., part].reshape(lead + shape) for name, part, shape in plan}


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Weights for the two branches, the fusion layer, and the scalar head.

    Every weight lives in ``theta``, one read-only float64 vector taken
    without a copy.  The named blocks are views into it, built once here;
    ``b_head``, the last entry, is a Python float.  The three layer sizes
    fix the layout.  Equality and hashing are by identity; compare
    ``theta`` to compare weights."""

    theta: np.ndarray
    hidden_enzyme: int
    hidden_substrate: int
    embed_dim: int
    w_enzyme: np.ndarray = field(init=False, repr=False, compare=False)
    b_enzyme: np.ndarray = field(init=False, repr=False, compare=False)
    w_substrate: np.ndarray = field(init=False, repr=False, compare=False)
    b_substrate: np.ndarray = field(init=False, repr=False, compare=False)
    w_fusion: np.ndarray = field(init=False, repr=False, compare=False)
    b_fusion: np.ndarray = field(init=False, repr=False, compare=False)
    w_head: np.ndarray = field(init=False, repr=False, compare=False)
    b_head: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=np.float64).view()
        theta.flags.writeable = False
        blocks = _blocks(theta, self.hidden_enzyme, self.hidden_substrate, self.embed_dim)
        if not np.isfinite(theta).all():
            raise ValueError("non-finite parameter values")
        object.__setattr__(self, "theta", theta)
        for name, view in blocks.items():
            object.__setattr__(self, name, view)
        object.__setattr__(self, "b_head", float(blocks["b_head"]))


def init_params(
    rng: np.random.Generator, hidden_enzyme: int, hidden_substrate: int, embed_dim: int
) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero.  The
    weight blocks draw in layout order."""
    size, plan = _plan(hidden_enzyme, hidden_substrate, embed_dim)
    theta = np.zeros(size)
    for name, part, shape in plan:
        if name.startswith("w_"):
            theta[part] = rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape).ravel()
    return ModelParams(theta, hidden_enzyme, hidden_substrate, embed_dim)


# ---------------------------------------------------------------------------
# Forward


_SUBSTRATE_INPUT_SCALE = np.ones(SUBSTRATE_FEATURES)
_SUBSTRATE_INPUT_SCALE[SUBSTRATE_FEATURES - 1] = ATOM_COUNT_SCALE


def _scaled(x_enzyme: np.ndarray, x_substrate: np.ndarray, out=(None, None)):
    """Feature rows as the first layers see them, written into the two
    arrays of ``out`` when it names them."""
    return (
        np.multiply(x_enzyme, ENZYME_INPUT_SCALE, out=out[0]),
        np.multiply(x_substrate, _SUBSTRATE_INPUT_SCALE, out=out[1]),
    )


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise NonFiniteError
def _forward_arrays(w: dict, xe: np.ndarray, xs: np.ndarray):
    """Forward pass over scaled rows, (B, F) or a stack of row sets
    (K, B, F), with ``w`` the named blocks of a parameter vector; returns
    every activation backprop needs: (h, z, preds), with h the two
    branches' activations side by side."""
    h_e = np.tanh(xe @ w["w_enzyme"].T + w["b_enzyme"])
    h_s = np.tanh(xs @ w["w_substrate"].T + w["b_substrate"])
    h = np.concatenate([h_e, h_s], axis=-1)
    z = np.tanh(h @ w["w_fusion"].T + w["b_fusion"])
    preds = z @ w["w_head"] + w["b_head"]
    if not (np.isfinite(z).all() and np.isfinite(preds).all()):
        raise NonFiniteError("non-finite activation in forward pass")
    return h, z, preds


def predict(params: ModelParams, records) -> np.ndarray:
    """Predictions for records as they are; vectorized over the batch."""
    w = _blocks(params.theta, params.hidden_enzyme, params.hidden_substrate, params.embed_dim)
    *_, preds = _forward_arrays(w, *_scaled(*_featurize(list(records))))
    return preds


# ---------------------------------------------------------------------------
# Losses


def loss_base(preds, targets) -> float:
    """Mean squared prediction error."""
    p = np.asarray(preds, dtype=float)
    t = np.asarray(targets, dtype=float)
    if p.shape != t.shape or p.size == 0:
        raise ValueError(f"shape mismatch or empty: {p.shape} vs {t.shape}")
    return float(np.mean((p - t) ** 2))


def loss_cons(f, f_aug) -> float:
    """Squared Euclidean embedding distance; batches average over rows."""
    a = np.asarray(f, dtype=float)
    b = np.asarray(f_aug, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"embedding shape mismatch: {a.shape} vs {b.shape}")
    d2 = ((a - b) ** 2).sum(axis=-1)
    return float(d2.sum() / d2.size)  # the mean, without np.mean's dispatch


def loss_total(base: float, cons: float, lam: float) -> float:
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return base + lam * cons


# ---------------------------------------------------------------------------
# Gradients


def gradients(
    theta: np.ndarray, layers, x_enzyme, x_substrate, targets, lam: float, views=None
):
    """Analytical gradient of loss_total over one batch: one forward and
    one backward pass over a stack of row sets.

    ``theta`` is a parameter vector laid out for ``layers`` (hidden_enzyme,
    hidden_substrate, embed_dim): a ModelParams' theta, or the vector
    train updates in place.  ``x_enzyme`` and ``x_substrate`` hold scaled
    feature rows (_scaled) stacked on a leading axis: the raw rows at [0]
    and, with lam > 0, the augmented rows at [1].  The prediction loss
    sees only the raw outputs; augmented rows reach the parameters only
    through the consistency term, so with lam = 0 only [0] is read.  Each
    block's gradient adds the raw rows' share first and the augmented
    rows' second.

    ``views``, when given, is (w, shares, g): the named blocks of theta
    (_blocks), a (k, theta.size) buffer for each row set's gradient
    share, and its named blocks, all cut once per run by train.

    Returns (gradient, base_loss, cons_loss).  The gradient is laid out
    like theta: a fresh vector without ``views``, else the buffer's first
    row, which the next call with the same buffer overwrites.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    y = np.asarray(targets, dtype=float)
    batch = y.shape[0]
    if batch == 0:
        raise ValueError("empty batch")
    k = 2 if lam > 0 else 1
    if len(x_enzyme) < k or len(x_substrate) < k:
        raise ValueError(f"lambda {lam} needs {k} stacked row sets")
    xe, xs = x_enzyme[:k], x_substrate[:k]

    if views is None:
        shares = np.empty((k, theta.size))  # each row set's gradient, laid out like theta
        views = _blocks(theta, *layers), shares, _blocks(shares, *layers)
    w, shares, g = views
    h, z, preds = _forward_arrays(w, xe, xs)
    err = preds[0] - y
    base = float((err * err).sum() / batch)  # loss_base's mean, bit for bit
    g_pred = (2.0 / batch) * err
    g_z = np.empty(z.shape)
    np.multiply(g_pred[:, None], w["w_head"], out=g_z[0])
    cons = 0.0
    if lam > 0:
        cons = loss_cons(z[0], z[1])
        g_cons = lam * ((2.0 / batch) * (z[0] - z[1]))
        g_z[0] += g_cons
        np.negative(g_cons, out=g_z[1])

    np.matmul(z[0].T, g_pred, out=g["w_head"][0])
    g["b_head"][0] = g_pred.sum()
    g["w_head"][1:] = g["b_head"][1:] = 0.0  # augmented rows reach only the embedding
    dpre_f = g_z * (1.0 - z * z)
    np.matmul(dpre_f.swapaxes(1, 2), h, out=g["w_fusion"])
    dpre_f.sum(axis=1, out=g["b_fusion"])
    dpre_h = (dpre_f @ w["w_fusion"]) * (1.0 - h * h)
    dpre_e, dpre_s = dpre_h[..., : layers[0]], dpre_h[..., layers[0] :]
    np.matmul(dpre_e.swapaxes(1, 2), xe, out=g["w_enzyme"])
    dpre_e.sum(axis=1, out=g["b_enzyme"])
    np.matmul(dpre_s.swapaxes(1, 2), xs, out=g["w_substrate"])
    dpre_s.sum(axis=1, out=g["b_substrate"])

    # each share is a product or a sum, which starts from +0.0 and so is
    # never -0.0: adding the augmented share to the raw one gives the bits
    # of adding both, raw first, to a zeroed vector
    flat = shares[0]
    for share in shares[1:]:
        flat += share
    if not np.isfinite(flat).all():
        grads = _blocks(flat, *layers)
        name = next(name for name, block in grads.items() if not np.isfinite(block).all())
        raise NonFiniteError(f"non-finite gradient in {name}")
    return flat, base, cons


# ---------------------------------------------------------------------------
# Training


# The most residue codes one block of epochs masks at once.  A block is
# whole epochs, at least one, so an epoch with more residues than this is
# a block of its own.  Blocks pay off on small sets, where each draw's
# fixed cost dominates; a 150-record set of 80-residue enzymes still
# draws one epoch per block, so its peak memory is that of one epoch.
_BLOCK_RESIDUES = 1 << 14


def _draw_block(epochs, residues, atom_counts, pools, cfg: RunConfig) -> list[tuple]:
    """The draws of a run of consecutive epochs, one (order, augmented)
    per epoch: the epoch's batch order, from the generator seeded by
    (seed, epoch, 0xD5), and, with lam > 0, its augmented index arrays
    in batch order (residue codes of the epoch's records end to end with
    every drawn position set to MASK, their lengths, the element bins of
    the masked atoms end to end, their count per record); with lam = 0
    augmented is None and no mask is drawn.  Step s of epoch e draws its
    records in batch order from the generator seeded by (seed, e, s);
    the whole block is one draw_masks call and one masking pass, cut per
    epoch.  ``residues`` and ``pools`` are (values end to end, length
    per record) pairs in record order: residue codes, and the element
    bins of each record's unprotected atoms."""
    (codes, lengths), (pool_bins, pool_sizes) = residues, pools
    n = len(lengths)
    orders = [np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(n) for epoch in epochs]
    if not cfg.lam > 0:
        return [(order, None) for order in orders]
    starts = range(0, n, cfg.batch_size)  # each step's first record
    k = len(starts)
    rngs = [np.random.default_rng([cfg.seed, epoch, s]) for epoch in epochs for s in range(k)]
    rows = np.concatenate(orders)  # the block's records, epoch after epoch
    per_rng = np.tile(np.diff([*starts, n]), len(orders))  # each step's record count
    sites, site_counts, picks, pick_counts = draw_masks(
        lengths[rows], atom_counts[rows], pool_sizes[rows], cfg, rngs, per_rng
    )
    code_starts = np.cumsum(lengths) - lengths
    pool_starts = np.cumsum(pool_sizes) - pool_sizes
    lengths = lengths[rows]
    ends = np.cumsum(lengths)  # of each record's codes in block order
    masked = codes[np.repeat(code_starts[rows] - ends + lengths, lengths) + np.arange(ends[-1])]
    masked[np.repeat(ends - lengths, site_counts) + sites] = _MASK_CODE
    atoms = pool_bins[np.repeat(pool_starts[rows], pick_counts) + picks]
    edges = range(0, len(rows) + 1, n)  # each epoch's first record, then the end
    code_edges = np.concatenate(([0], ends))[edges].tolist()
    atom_edges = np.concatenate(([0], np.cumsum(pick_counts)))[edges].tolist()
    return [
        (order, (masked[c0:c1], lengths[r0:r1], atoms[a0:a1], pick_counts[r0:r1]))
        for order, r0, r1, c0, c1, a0, a1 in zip(
            orders, edges, edges[1:], code_edges, code_edges[1:], atom_edges, atom_edges[1:]
        )
    ]


@np.errstate(over="ignore", invalid="ignore")  # each step checks finiteness itself
def train(train_records, val_records, cfg: RunConfig):
    """Momentum SGD with per-step augmentation.

    ``cfg`` is an ``io.RunConfig``; the momentum is the fixed constant
    MOMENTUM.  The training records are encoded once, in one batch pass
    (_encode), and the feature rows of the training and validation
    records are built and scaled once.  The epochs are drawn a block at
    a time (_draw_block), as many whole epochs as mask at most
    _BLOCK_RESIDUES residues, and at least one: each epoch's batch order
    and, with lam > 0, fresh masks for every step's records, all of the
    block's in one draw.  Step s of epoch e draws its records in batch
    order from a generator seeded by (seed, e, s) (augment.draw_masks),
    so the block size changes no draw.  Each epoch lays out its scaled
    rows once, in batch order, in one (k, n, features) stack per branch
    cut once per run: the raw rows at [0] and, with lam > 0, the
    augmented rows of all its records, built at once, at [1].  The
    substrate featurizer is invariant under graph isomorphism, so in
    enumeration mode a re-rendered substrate would featurize as the
    unmasked graph: its atom draw is empty and nothing is rendered,
    which makes the run the graph_mask run at p_g = 0.  With lam = 0
    the consistency term is off, no mask is drawn and k is 1.  Each
    step reads its slice of the stack, computes the combined loss and
    its gradient in one stacked pass (gradients) into one gradient
    buffer cut once per run, with the working vector's views, and
    updates one working parameter vector and one velocity vector in
    place.  After each epoch the working vector is validated, and a
    read-only ModelParams copy of it is kept only when its validation
    MSE is the best so far.  Returns
    (params of the best validation-MSE epoch, per-epoch log).  On a
    non-finite loss, gradient or parameter the run raises
    NonFiniteError carrying the best finite checkpoint and the log so far
    in its ``checkpoint`` and ``log`` attributes.  Logs the encoding
    time, the per-epoch wall time, the time spent in steps (forward,
    backward and update), the time spent featurizing augmented rows, and
    the time spent drawing and masking and the number of blocks drawn at
    INFO level.
    """
    train_records = list(train_records)
    val_records = list(val_records)
    if not train_records:
        raise ValueError("empty training set")
    if not val_records:
        raise ValueError("empty validation set")

    encode_start = time.perf_counter()
    residues, bins, hidden, counts = _encode(train_records)
    x_e, x_s = _enzyme_rows(*residues), _substrate_rows(counts, *hidden)
    xv_e, xv_s = _featurize(val_records)
    _scaled(x_e, x_s, out=(x_e, x_s))  # in place, with no second copy of the rows
    _scaled(xv_e, xv_s, out=(xv_e, xv_s))
    y = np.array([r.value for r in train_records], dtype=float)
    yv = np.array([r.value for r in val_records], dtype=float)
    atom_counts = counts[:, -1]  # each count row ends with its atom total
    unprotected = np.logical_not([p for r in train_records for p in r.graph.protected])
    pools = _cut(bins, unprotected, atom_counts)
    encode_s = time.perf_counter() - encode_start

    sizes = (cfg.hidden_enzyme, cfg.hidden_substrate, cfg.embed_dim)
    best_params = init_params(np.random.default_rng([cfg.seed, 0xA11]), *sizes)
    theta = best_params.theta.copy()  # the working vector; snapshots handed out are copies
    w = _blocks(theta, *sizes)  # its named views, cut once and read by each step and validation
    k = 2 if cfg.lam > 0 else 1  # row sets per step: raw, and with lam > 0 augmented
    shares = np.empty((k, theta.size))  # the gradient buffer of every step
    views = w, shares, _blocks(shares, *sizes)
    velocity = np.zeros(theta.shape)

    n = len(train_records)
    best_val = np.inf
    best_epoch = -1
    log: list[dict] = []

    def abort(reason: str):
        entry = {"aborted": reason, "epoch": len(log)}
        log.append(entry)
        err = NonFiniteError(reason)
        err.checkpoint = best_params
        err.log = log
        raise err

    # each epoch's scaled rows in batch order: raw at [0], with lam > 0 augmented at [1]
    xe, xs = np.empty((k, *x_e.shape)), np.empty((k, *x_s.shape))

    epochs_start = time.perf_counter()
    draw_s = 0.0
    featurize_s = 0.0
    step_s = 0.0
    per_block = max(1, _BLOCK_RESIDUES // len(residues[0]))  # epochs one block draws
    for epoch in range(cfg.epochs):
        if epoch % per_block == 0:
            draw_start = time.perf_counter()
            block = range(epoch, min(epoch + per_block, cfg.epochs))
            drawn = iter(_draw_block(block, residues, atom_counts, pools, cfg))
            draw_s += time.perf_counter() - draw_start
        order, augmented = next(drawn)
        np.take(x_e, order, axis=0, out=xe[0])
        np.take(x_s, order, axis=0, out=xs[0])
        y_order = y[order]
        if cfg.lam > 0:
            featurize_start = time.perf_counter()
            codes, lengths, atoms, per_row = augmented
            _scaled(
                _enzyme_rows(codes, lengths, out=xe[1]),
                _substrate_rows(counts[order], atoms, per_row),
                out=(xe[1], xs[1]),
            )
            featurize_s += time.perf_counter() - featurize_start
        epoch_base = 0.0
        epoch_cons = 0.0
        steps = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            batch = slice(start, start + cfg.batch_size)
            step_start = time.perf_counter()
            try:
                grad, base, cons = gradients(
                    theta, sizes, xe[:, batch], xs[:, batch], y_order[batch], cfg.lam, views
                )
            except NonFiniteError as exc:
                abort(str(exc))
            total = loss_total(base, cons, cfg.lam)
            if not np.isfinite(total):
                abort(f"non-finite training loss at epoch {epoch} step {step}")
            np.multiply(velocity, MOMENTUM, out=velocity)
            velocity -= np.multiply(grad, cfg.learning_rate, out=grad)
            theta += velocity
            if not np.isfinite(theta).all():
                abort(f"non-finite parameters at epoch {epoch} step {step}")
            step_s += time.perf_counter() - step_start
            epoch_base += base
            epoch_cons += cons
            steps += 1

        *_, val_preds = _forward_arrays(w, xv_e, xv_s)
        val_mse = loss_base(val_preds, yv)
        if not np.isfinite(val_mse):
            abort(f"non-finite validation loss at epoch {epoch}")
        try:
            val_r2 = r_squared(val_preds, yv)
        except DegenerateTargetsError:
            val_r2 = float("nan")
        entry = {
            "epoch": epoch,
            "train_base": epoch_base / steps,
            "train_cons": epoch_cons / steps,
            "train_total": loss_total(epoch_base / steps, epoch_cons / steps, cfg.lam),
            "val_mse": val_mse,
            "val_r2": val_r2,
            "val_mae": mae(val_preds, yv),
        }
        log.append(entry)
        if val_mse < best_val:
            best_val = val_mse
            best_params = ModelParams(theta.copy(), *sizes)
            best_epoch = epoch

    for entry in log:
        entry["best_epoch"] = best_epoch
    _LOG.info(
        "train: encoded %d train + %d val records in %.3f s; %d epochs, %.4f s per epoch, "
        "%.3f s in steps, %.3f s featurizing augmented rows, %.3f s drawing and masking "
        "in %d blocks",
        len(train_records),
        len(val_records),
        encode_s,
        cfg.epochs,
        (time.perf_counter() - epochs_start) / cfg.epochs,
        step_s,
        featurize_s,
        draw_s,
        -(-cfg.epochs // per_block),
    )
    return best_params, log


# ---------------------------------------------------------------------------
# Checkpoints and logs


def params_to_jsonable(params: ModelParams) -> dict:
    """Checkpoint form: the three layer sizes, and ``theta`` as the
    base64 text of its little-endian float64 bytes, so every value, -0.0
    and subnormals included, comes back bit for bit."""
    return {
        "layers": [params.hidden_enzyme, params.hidden_substrate, params.embed_dim],
        "theta": base64.b64encode(params.theta.astype("<f8").tobytes()).decode("ascii"),
    }


def params_from_jsonable(data) -> ModelParams:
    """Inverse of params_to_jsonable.

    ``layers`` must be three positive integers, and ``theta`` base64
    text of exactly the float64 values those sizes lay out, all finite.
    Raises ValueError naming the missing or bad field."""
    if not isinstance(data, dict):
        raise ValueError(f"params must map layers and theta, got {type(data).__name__}")
    text = data.get("theta")
    if not isinstance(text, str):
        raise ValueError("params lack a theta string, the base64 text of the parameter vector")
    layers = data.get("layers")
    if not (
        isinstance(layers, list)
        and len(layers) == 3
        and all(type(n) is int and n > 0 for n in layers)
    ):
        raise ValueError("params layers must be three positive integers")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise ValueError(f"params theta is not base64: {exc}") from exc
    size, _ = _plan(*layers)
    if len(raw) != 8 * size:
        raise ValueError(f"params theta holds {len(raw)} bytes, layers {layers} need {8 * size}")
    try:
        return ModelParams(np.frombuffer(raw, dtype="<f8"), *layers)
    except ValueError as exc:
        raise ValueError(f"params theta: {exc}") from exc
