"""Featurization, a small two-branch regressor, and consistency training.

Enzymes become length-normalized 1-mer/2-mer count vectors (462 entries,
MASK is a first-class symbol); substrates become a 23-entry descriptor
(element bins with a dedicated MASKED bin, bond orders, ring count,
degree histogram, charge sum, atom total).  Both branches pass through a
tanh affine layer, are concatenated, fused into a d-dim embedding, and a
linear head emits the log10 kinetic prediction.

Training minimizes prediction MSE on the records plus lam times the mean
squared embedding distance between each record and its augmented
counterpart; the augmented samples feed only the consistency term.
Records are any objects with sequence, graph (the parsed substrate),
substrate_mask, and value attributes, as io.EsiRecord has.  All
gradients are hand-derived and checked against finite differences in the
test suite.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import ALPHABET, MASK_SYMBOL, AugmentConfig, draw_masks, unprotected_atoms
from .errors import ConfigError, DegenerateTargetsError, NonFiniteError
from .metrics import mae, r_squared
from .molgraph import (
    BOND_AROMATIC,
    BOND_DOUBLE,
    BOND_SINGLE,
    BOND_TRIPLE,
    ELEMENTS,
    MolGraph,
)

ENZYME_FEATURES = len(ALPHABET) + len(ALPHABET) ** 2  # 462

# element bins + MASKED bin, 4 bond orders, ring count, degree histogram
# 0..4+, charge sum, atom total
SUBSTRATE_FEATURES = len(ELEMENTS) + 1 + 4 + 1 + 5 + 1 + 1  # 23

MOMENTUM = 0.9

_LOG = logging.getLogger(__name__)

# Fixed input scalings applied inside the forward pass.  K-mer fractions
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
_BOND_SLOT = {BOND_SINGLE: 0, BOND_DOUBLE: 1, BOND_TRIPLE: 2, BOND_AROMATIC: 3}


def _residue_codes(seq: str) -> np.ndarray:
    """Alphabet index of each residue."""
    if not seq:
        raise ValueError("empty enzyme sequence")
    codes = _RESIDUE_CODE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]
    if codes.min() < 0:
        raise ValueError("enzyme sequence holds symbols outside the residue alphabet")
    return codes


def _atom_counts(g: MolGraph) -> tuple[np.ndarray, np.ndarray]:
    """Element bin of each atom, and the integer count row of the graph
    with no atom masked (bond orders, ring atoms, degrees, charge sum and
    atom total included)."""
    n = len(g)
    if n == 0:
        raise ValueError("empty substrate graph")
    bins = [_ELEMENT_INDEX[atom.element] for atom in g.atoms]
    counts = [0] * SUBSTRATE_FEATURES
    for b in bins:
        counts[b] += 1
    base = _MASKED_BIN + 1
    for bond in g.bonds:
        counts[base + _BOND_SLOT[bond.order]] += 1
    counts[base + 4] = sum(g.ring_membership)
    for i in range(n):
        counts[base + 5 + min(g.degree(i), 4)] += 1
    counts[base + 10] = sum(atom.formal_charge for atom in g.atoms)
    counts[base + 11] = n
    return np.array(bins, dtype=np.intp), np.array(counts, dtype=np.int64)


def _masked_bins(bins: np.ndarray, mask) -> np.ndarray:
    """Element bins of the atoms ``mask`` hides; none for a None mask."""
    if mask is None:
        return bins[:0]
    if len(mask) != len(bins):
        raise ValueError(f"mask length {len(mask)} != atom count {len(bins)}")
    return bins[np.asarray(mask, dtype=bool)]


def _enzyme_rows(residues: list[np.ndarray]) -> np.ndarray:
    """Feature rows of residue-code arrays: 1-mer counts over the length,
    2-mer counts (pair a, b in bin a * 21 + b) over the length - 1, and
    no 2-mers for a single residue."""
    k = len(ALPHABET)
    b = len(residues)
    lengths = np.array([len(r) for r in residues])
    codes = np.concatenate(residues)
    ones = np.repeat(np.arange(0, b * k, k), lengths) + codes  # row * k + code
    twos = ones[:-1] * k + codes[1:]
    twos[np.cumsum(lengths)[:-1] - 1] = b * k * k  # pairs across two sequences: a spare bin
    out = np.empty((b, ENZYME_FEATURES))
    out[:, :k] = np.bincount(ones, minlength=b * k).reshape(b, k) / lengths[:, None]
    out[:, k:] = (
        np.bincount(twos, minlength=b * k * k + 1)[:-1].reshape(b, k * k)
        / np.maximum(lengths - 1, 1)[:, None]
    )
    return out


def _substrate_rows(counts: np.ndarray, masked: list[np.ndarray]) -> np.ndarray:
    """Feature rows of unmasked count rows: row j moves one count from
    the element bin of each entry of masked[j] to MASKED, then every
    entry but the atom total is divided by the atom total."""
    b, f = counts.shape
    hidden = np.concatenate(masked)
    out = counts.astype(np.float64)
    if len(hidden):
        row = np.repeat(np.arange(b), [len(m) for m in masked])
        moved = np.bincount(row * f + hidden, minlength=b * f).reshape(b, f)
        out -= moved
        out[:, _MASKED_BIN] += moved.sum(axis=1)
    out[:, :-1] /= out[:, -1:]
    return out


def featurize_enzyme(seq: str) -> np.ndarray:
    """Length-normalized 1-mer (21) and 2-mer (441) counts."""
    return _enzyme_rows([_residue_codes(seq)])[0]


def featurize_substrate(g: MolGraph, mask=None) -> np.ndarray:
    """Descriptor vector; masked atoms count only in the MASKED bin.

    Bonds, degrees, ring membership, and charge are read from the intact
    graph, so masking hides identity, not topology.
    """
    bins, counts = _atom_counts(g)
    return _substrate_rows(counts[None], [_masked_bins(bins, mask)])[0]


def _encode(records):
    """The records as index arrays: each one's residue codes, per-atom
    element bins, and the bins its own substrate mask hides, plus the
    stacked count rows of the unmasked graphs."""
    residues = [_residue_codes(r.sequence) for r in records]
    bins, counts = zip(*(_atom_counts(r.graph) for r in records))
    hidden = [_masked_bins(b, r.substrate_mask) for b, r in zip(bins, records)]
    return residues, bins, hidden, np.stack(counts)


def _featurize(records) -> tuple[np.ndarray, np.ndarray]:
    """Stacked (enzyme, substrate) feature rows of the records."""
    residues, _, hidden, counts = _encode(records)
    return _enzyme_rows(residues), _substrate_rows(counts, hidden)


# ---------------------------------------------------------------------------
# Parameters


def _shapes(hidden_enzyme: int, hidden_substrate: int, embed_dim: int) -> dict:
    """Block name -> shape, in the order the blocks sit in the vector."""
    he, hs, d = hidden_enzyme, hidden_substrate, embed_dim
    return {
        "w_enzyme": (he, ENZYME_FEATURES),
        "b_enzyme": (he,),
        "w_substrate": (hs, SUBSTRATE_FEATURES),
        "b_substrate": (hs,),
        "w_fusion": (d, he + hs),
        "b_fusion": (d,),
        "w_head": (d,),
        "b_head": (),
    }


@functools.lru_cache(maxsize=16)
def _plan(hidden_enzyme: int, hidden_substrate: int, embed_dim: int) -> tuple:
    """(vector length, ((name, slice, shape), ...)) of the layout for
    these layer sizes, worked out once per size."""
    plan = []
    offset = 0
    for name, shape in _shapes(hidden_enzyme, hidden_substrate, embed_dim).items():
        end = offset + math.prod(shape)
        plan.append((name, slice(offset, end), shape))
        offset = end
    return offset, tuple(plan)


def _blocks(theta: np.ndarray, hidden_enzyme: int, hidden_substrate: int, embed_dim: int) -> dict:
    """Named row-major views into a parameter vector of these layer sizes;
    b_head is the shape-() view of the last entry."""
    size, plan = _plan(hidden_enzyme, hidden_substrate, embed_dim)
    if theta.shape != (size,):
        raise ValueError(f"parameter vector has shape {theta.shape}, the layout needs ({size},)")
    return {name: theta[part].reshape(shape) for name, part, shape in plan}


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
    rng: np.random.Generator,
    hidden_enzyme: int = 48,
    hidden_substrate: int = 16,
    embed_dim: int = 64,
) -> ModelParams:
    """Gaussian init scaled by 1/sqrt(fan_in); biases start at zero."""
    blocks = {
        name: np.zeros(shape)
        for name, shape in _shapes(hidden_enzyme, hidden_substrate, embed_dim).items()
    }
    for name in ("w_enzyme", "w_substrate", "w_fusion", "w_head"):
        shape = blocks[name].shape
        blocks[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[-1]), size=shape)
    theta = np.concatenate([block.ravel() for block in blocks.values()])
    return ModelParams(theta, hidden_enzyme, hidden_substrate, embed_dim)


# ---------------------------------------------------------------------------
# Forward


_SUBSTRATE_INPUT_SCALE = np.ones(SUBSTRATE_FEATURES)
_SUBSTRATE_INPUT_SCALE[SUBSTRATE_FEATURES - 1] = ATOM_COUNT_SCALE


@np.errstate(over="ignore", invalid="ignore")  # non-finite results raise NonFiniteError
def _forward_arrays(params: ModelParams, x_enzyme: np.ndarray, x_substrate: np.ndarray):
    """Batched forward pass over scaled inputs; returns the scaled inputs
    and every activation needed by backprop."""
    xe = np.atleast_2d(x_enzyme) * ENZYME_INPUT_SCALE
    xs = np.atleast_2d(x_substrate) * _SUBSTRATE_INPUT_SCALE
    h_e = np.tanh(xe @ params.w_enzyme.T + params.b_enzyme)
    h_s = np.tanh(xs @ params.w_substrate.T + params.b_substrate)
    h = np.concatenate([h_e, h_s], axis=1)
    z = np.tanh(h @ params.w_fusion.T + params.b_fusion)
    preds = z @ params.w_head + params.b_head
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(preds))):
        raise NonFiniteError("non-finite activation in forward pass")
    return xe, xs, h_e, h_s, h, z, preds


def forward_batch(params: ModelParams, x_enzyme, x_substrate):
    """(embeddings, predictions) for stacked feature rows."""
    *_, z, preds = _forward_arrays(params, x_enzyme, x_substrate)
    return z, preds


def predict(params: ModelParams, records) -> np.ndarray:
    """Predictions for records as they are; vectorized over the batch."""
    _, preds = forward_batch(params, *_featurize(list(records)))
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
    d2 = np.sum((a - b) ** 2, axis=-1)
    return float(np.mean(d2))


def loss_total(base: float, cons: float, lam: float) -> float:
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return base + lam * cons


# ---------------------------------------------------------------------------
# Gradients


def _normalize_rows(z, eps=1e-12):
    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), eps)
    return z / norms, norms


def _cons_embedding_grads(z_raw, z_aug, batch, normalize):
    """Gradient of mean ||u_raw - u_aug||^2 w.r.t. both raw embeddings,
    where u is the embedding itself or its L2-normalized form."""
    if not normalize:
        diff = (2.0 / batch) * (z_raw - z_aug)
        return diff, -diff
    u_raw, n_raw = _normalize_rows(z_raw)
    u_aug, n_aug = _normalize_rows(z_aug)
    g_u = (2.0 / batch) * (u_raw - u_aug)
    g_raw = (g_u - u_raw * np.sum(u_raw * g_u, axis=1, keepdims=True)) / n_raw
    g_aug = (-g_u - u_aug * np.sum(u_aug * (-g_u), axis=1, keepdims=True)) / n_aug
    return g_raw, g_aug


def _cons_value(z_raw, z_aug, normalize):
    if not normalize:
        return loss_cons(z_raw, z_aug)
    u_raw, _ = _normalize_rows(z_raw)
    u_aug, _ = _normalize_rows(z_aug)
    return loss_cons(u_raw, u_aug)


def gradients(
    params: ModelParams,
    x_enzyme_raw,
    x_substrate_raw,
    x_enzyme_aug,
    x_substrate_aug,
    targets,
    lam: float,
    normalize_cons: bool = False,
    *,
    _out: np.ndarray | None = None,
):
    """Analytical gradient of loss_total over one batch.

    The prediction loss sees only raw-pair outputs; augmented pairs reach
    the parameters exclusively through the consistency term, so with
    lam=0 their contents cannot affect the update and may be None.

    Returns (gradient, base_loss, cons_loss); the gradient is a vector
    laid out like params.theta.  ``_out``, train's own vector of that
    layout, is zeroed, accumulated into and returned in place of a fresh
    one.
    """
    if lam < 0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    y = np.asarray(targets, dtype=float)
    batch = y.shape[0]
    if batch == 0:
        raise ValueError("empty batch")

    xe_raw, xs_raw, he_raw, hs_raw, h_raw, z_raw, preds = _forward_arrays(
        params, x_enzyme_raw, x_substrate_raw
    )
    base = float(np.mean((preds - y) ** 2))

    g_pred = (2.0 / batch) * (preds - y)
    if _out is None:
        flat = np.zeros(params.theta.shape)
    else:
        flat = _out
        flat.fill(0.0)
    grads = _blocks(flat, params.hidden_enzyme, params.hidden_substrate, params.embed_dim)
    grads["w_head"] += z_raw.T @ g_pred
    grads["b_head"] += np.sum(g_pred)

    if lam > 0:
        xe_aug, xs_aug, he_aug, hs_aug, h_aug, z_aug, _ = _forward_arrays(
            params, x_enzyme_aug, x_substrate_aug
        )
        cons = _cons_value(z_raw, z_aug, normalize_cons)
        gz_cons_raw, gz_cons_aug = _cons_embedding_grads(
            z_raw, z_aug, batch, normalize_cons
        )
    else:
        cons = 0.0
        gz_cons_raw = gz_cons_aug = None

    def back_pass(g_z, z, h, h_e, h_s, x_e, x_s):
        dpre_f = g_z * (1.0 - z * z)
        grads["w_fusion"] += dpre_f.T @ h
        grads["b_fusion"] += dpre_f.sum(axis=0)
        g_h = dpre_f @ params.w_fusion
        he_dim = h_e.shape[1]
        dpre_e = g_h[:, :he_dim] * (1.0 - h_e * h_e)
        dpre_s = g_h[:, he_dim:] * (1.0 - h_s * h_s)
        grads["w_enzyme"] += dpre_e.T @ x_e
        grads["b_enzyme"] += dpre_e.sum(axis=0)
        grads["w_substrate"] += dpre_s.T @ x_s
        grads["b_substrate"] += dpre_s.sum(axis=0)

    g_z_raw = np.outer(g_pred, params.w_head)
    if gz_cons_raw is not None:
        g_z_raw = g_z_raw + lam * gz_cons_raw
    back_pass(g_z_raw, z_raw, h_raw, he_raw, hs_raw, xe_raw, xs_raw)
    if gz_cons_aug is not None:
        back_pass(lam * gz_cons_aug, z_aug, h_aug, he_aug, hs_aug, xe_aug, xs_aug)

    if not np.all(np.isfinite(flat)):
        name = next(name for name, g in grads.items() if not np.all(np.isfinite(g)))
        raise NonFiniteError(f"non-finite gradient in {name}")
    return flat, base, cons


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainConfig:
    """Optimization and architecture settings.

    lam weighs the consistency term (0 disables it); momentum is the
    fixed constant MOMENTUM.  normalize_cons applies the consistency loss
    to L2-normalized embeddings instead of raw ones.
    """

    lam: float = 0.5
    learning_rate: float = 0.02
    epochs: int = 300
    batch_size: int = 16
    hidden_enzyme: int = 48
    hidden_substrate: int = 16
    embed_dim: int = 64
    seed: int = 0
    normalize_cons: bool = False
    augment: AugmentConfig = field(default_factory=AugmentConfig)

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError("lam must be non-negative")
        if self.learning_rate <= 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("learning_rate, epochs, and batch_size must be positive")
        for dim in (self.hidden_enzyme, self.hidden_substrate, self.embed_dim):
            if dim < 1:
                raise ConfigError("layer dimensions must be positive")


@np.errstate(over="ignore", invalid="ignore")  # each step checks finiteness itself
def train(train_records, val_records, cfg: TrainConfig):
    """Momentum SGD with per-step augmentation.

    Every record is encoded once as index arrays.  With lam > 0 every
    step draws fresh masks for its batch records with a generator seeded
    by (seed, epoch, step), in batch order (augment.draw_masks), and
    builds the augmented rows from the masked index arrays.  The
    substrate featurizer is invariant under graph isomorphism, so in
    enumeration mode a re-rendered substrate would featurize as the
    unmasked graph: that row is used and nothing is rendered.  With
    lam = 0 the consistency term is off and nothing is drawn.  Each step
    computes the combined loss and updates the parameter vector.
    Returns (params of the best validation-MSE epoch, per-epoch log).
    On a non-finite loss or gradient the run raises NonFiniteError
    carrying the best finite checkpoint and the log so far in its
    ``checkpoint`` and ``log`` attributes.  Logs the encoding and
    per-epoch wall times at INFO level.
    """
    train_records = list(train_records)
    val_records = list(val_records)
    if not train_records:
        raise ValueError("empty training set")
    if not val_records:
        raise ValueError("empty validation set")

    encode_start = time.perf_counter()
    residues, bins, hidden, counts = _encode(train_records)
    x_e, x_s = _enzyme_rows(residues), _substrate_rows(counts, hidden)
    y = np.array([r.value for r in train_records], dtype=float)
    xv_e, xv_s = _featurize(val_records)
    yv = np.array([r.value for r in val_records], dtype=float)
    enumeration = cfg.augment.substrate_mode == "enumeration"
    plain_s = _substrate_rows(counts, [b[:0] for b in bins]) if enumeration else None
    pools = [None if enumeration else unprotected_atoms(r.graph) for r in train_records]
    encode_s = time.perf_counter() - encode_start

    params = init_params(
        np.random.default_rng([cfg.seed, 0xA11]),
        hidden_enzyme=cfg.hidden_enzyme,
        hidden_substrate=cfg.hidden_substrate,
        embed_dim=cfg.embed_dim,
    )
    sizes = (params.hidden_enzyme, params.hidden_substrate, params.embed_dim)
    velocity = np.zeros(params.theta.shape)
    grad = np.empty(params.theta.shape)  # each step's gradient, accumulated in place

    n = len(train_records)
    best_params = params
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

    epochs_start = time.perf_counter()
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(n)
        epoch_base = 0.0
        epoch_cons = 0.0
        steps = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xa_e = xa_s = None
            if cfg.lam > 0:
                step_rng = np.random.default_rng([cfg.seed, epoch, step])
                masked_residues = []
                masked_atoms = []
                for i in idx:
                    sites, atoms = draw_masks(
                        len(residues[i]), len(bins[i]), pools[i], cfg.augment, step_rng
                    )
                    codes = residues[i].copy()
                    codes[sites] = _MASK_CODE
                    masked_residues.append(codes)
                    if atoms is not None:
                        masked_atoms.append(bins[i][atoms])
                xa_e = _enzyme_rows(masked_residues)
                xa_s = plain_s[idx] if enumeration else _substrate_rows(counts[idx], masked_atoms)
            try:
                grad, base, cons = gradients(
                    params,
                    x_e[idx],
                    x_s[idx],
                    xa_e,
                    xa_s,
                    y[idx],
                    cfg.lam,
                    normalize_cons=cfg.normalize_cons,
                    _out=grad,
                )
            except NonFiniteError as exc:
                abort(str(exc))
            total = loss_total(base, cons, cfg.lam)
            if not np.isfinite(total):
                abort(f"non-finite training loss at epoch {epoch} step {step}")
            np.multiply(velocity, MOMENTUM, out=velocity)
            velocity -= cfg.learning_rate * grad
            try:
                # a fresh vector: params already handed out stay unchanged
                params = ModelParams(params.theta + velocity, *sizes)
            except ValueError:
                abort(f"non-finite parameters at epoch {epoch} step {step}")
            epoch_base += base
            epoch_cons += cons
            steps += 1

        _, val_preds = forward_batch(params, xv_e, xv_s)
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
            best_params = params
            best_epoch = epoch

    for entry in log:
        entry["best_epoch"] = best_epoch
    _LOG.info(
        "train: encoded %d train + %d val records in %.3f s; %d epochs, %.4f s per epoch",
        len(train_records),
        len(val_records),
        encode_s,
        cfg.epochs,
        (time.perf_counter() - epochs_start) / cfg.epochs,
    )
    return best_params, log


# ---------------------------------------------------------------------------
# Checkpoints and logs


def params_to_jsonable(params: ModelParams) -> dict:
    """Checkpoint form: each named block as nested lists, b_head a float."""
    blocks = _blocks(params.theta, params.hidden_enzyme, params.hidden_substrate, params.embed_dim)
    return {name: block.tolist() for name, block in blocks.items()}


def params_from_jsonable(data) -> ModelParams:
    """Inverse of params_to_jsonable.

    The layer sizes come from the weight matrices; every block's shape,
    the feature widths included, and its finiteness are checked before
    the vector is built.  Raises ValueError naming the missing or bad
    block."""
    if not isinstance(data, dict):
        raise ValueError(f"params must map block names to arrays, got {type(data).__name__}")

    def rows(name):
        value = data.get(name)
        return len(value) if isinstance(value, list) else 0

    sizes = [rows(name) for name in ("w_enzyme", "w_substrate", "w_fusion")]
    arrays = []
    for name, shape in _shapes(*sizes).items():
        if name not in data:
            raise ValueError(f"params lack block {name}")
        try:
            block = np.asarray(data[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"block {name} is not a numeric array: {exc}") from exc
        if block.shape != shape:
            raise ValueError(f"block {name} has shape {block.shape}, expected {shape}")
        if not np.all(np.isfinite(block)):
            raise ValueError(f"block {name} holds non-finite values")
        arrays.append(block.ravel())
    theta = np.concatenate(arrays)
    return ModelParams(theta, *sizes)
