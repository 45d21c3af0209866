"""The training step as two passes: the reference that the stacked step
of ``enzood.model`` is checked against bit for bit.

``gradients`` runs the raw rows and then, with lam > 0, the augmented
rows through their own forward pass, and backpropagates each through its
own call of ``back_pass``, raw first.  ``train`` builds a fresh
read-only ``ModelParams`` after every step and scales each step's inputs
inside the forward pass.  ``loss_cons`` is its own, written with
np.sum and np.mean, so the library's is checked along with the step.
``_draw_epoch`` draws the masks of one epoch per ``draw_masks`` call and
``train`` draws each epoch's batch order itself, so the library's
blocks of epochs are checked against per-epoch draws.  Everything else
(encoding, the mask draw itself, featurization, the checkpoint type) is
the library's own."""

from __future__ import annotations

import logging
import time

import numpy as np

from enzood.augment import draw_masks, unprotected_atoms
from enzood.errors import DegenerateTargetsError, NonFiniteError
from enzood.metrics import mae, r_squared
from enzood.model import (
    ENZYME_INPUT_SCALE,
    MOMENTUM,
    ModelParams,
    _SUBSTRATE_INPUT_SCALE,
    _MASK_CODE,
    _blocks,
    _encode,
    _enzyme_rows,
    _featurize,
    _flat,
    _substrate_rows,
    init_params,
    loss_base,
    loss_total,
)

_LOG = logging.getLogger(__name__)


def loss_cons(f, f_aug) -> float:
    """Squared Euclidean embedding distance; batches average over rows."""
    a = np.asarray(f, dtype=float)
    b = np.asarray(f_aug, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"embedding shape mismatch: {a.shape} vs {b.shape}")
    d2 = np.sum((a - b) ** 2, axis=-1)
    return float(np.mean(d2))


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


def gradients(
    params: ModelParams,
    x_enzyme_raw,
    x_substrate_raw,
    x_enzyme_aug,
    x_substrate_aug,
    targets,
    lam: float,
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
        cons = loss_cons(z_raw, z_aug)
        gz_cons_raw = (2.0 / batch) * (z_raw - z_aug)
    else:
        cons = 0.0

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
    if lam > 0:
        g_z_raw = g_z_raw + lam * gz_cons_raw
    back_pass(g_z_raw, z_raw, h_raw, he_raw, hs_raw, xe_raw, xs_raw)
    if lam > 0:
        back_pass(lam * -gz_cons_raw, z_aug, h_aug, he_aug, hs_aug, xe_aug, xs_aug)

    if not np.all(np.isfinite(flat)):
        name = next(name for name, g in grads.items() if not np.all(np.isfinite(g)))
        raise NonFiniteError(f"non-finite gradient in {name}")
    return flat, base, cons


def _draw_epoch(order, residues, atom_counts, pools, cfg: RunConfig, epoch: int) -> list[tuple]:
    """One epoch's augmented index arrays, one tuple per step: (residue
    codes of the step's records end to end with every drawn position set
    to MASK, their lengths, the element bins of the masked atoms end to
    end, their count per record).  Step s's records draw in batch order
    from the generator seeded by (seed, epoch, s); the whole epoch is
    one draw_masks call.  ``residues`` and ``pools`` are (values end to
    end, length per record) pairs in record order: residue codes, and
    the element bins of each record's unprotected atoms."""
    (codes, lengths), (pool_bins, pool_sizes) = residues, pools
    n = len(order)
    edges = list(range(0, n, cfg.batch_size)) + [n]  # each step's first record, then n
    rngs = [np.random.default_rng([cfg.seed, epoch, step]) for step in range(len(edges) - 1)]
    sites, site_counts, picks, pick_counts = draw_masks(
        lengths[order], atom_counts[order], pool_sizes[order], cfg, rngs, np.diff(edges)
    )
    code_starts = np.cumsum(lengths) - lengths
    pool_starts = np.cumsum(pool_sizes) - pool_sizes
    lengths = lengths[order]
    ends = np.cumsum(lengths)  # of each record's codes in epoch order
    masked = codes[np.repeat(code_starts[order] - ends + lengths, lengths) + np.arange(ends[-1])]
    masked[np.repeat(ends - lengths, site_counts) + sites] = _MASK_CODE
    atoms = pool_bins[np.repeat(pool_starts[order], pick_counts) + picks]
    code_edges = np.concatenate(([0], ends))[edges].tolist()
    atom_edges = np.concatenate(([0], np.cumsum(pick_counts)))[edges].tolist()
    return [
        (masked[c0:c1], lengths[r0:r1], atoms[a0:a1], pick_counts[r0:r1])
        for r0, r1, c0, c1, a0, a1 in zip(
            edges, edges[1:], code_edges, code_edges[1:], atom_edges, atom_edges[1:]
        )
    ]


@np.errstate(over="ignore", invalid="ignore")  # each step checks finiteness itself
def train(train_records, val_records, cfg: RunConfig):
    """Momentum SGD with per-step augmentation.

    ``cfg`` is an ``io.RunConfig``; the momentum is the fixed constant
    MOMENTUM.  Every record is encoded once as index arrays.  With
    lam > 0 each epoch draws fresh masks for every step's records in
    one call (_draw_epoch): step s's records draw in batch order from a
    generator seeded by (seed, epoch, s) (augment.draw_masks), and each
    step builds its augmented rows from its slice of the masked index
    arrays.  The substrate featurizer is invariant under graph
    isomorphism, so in enumeration mode a re-rendered substrate would
    featurize as the unmasked graph: its atom draw is empty and nothing
    is rendered, which makes the run the graph_mask run at p_g = 0.
    With lam = 0 the consistency term is off and nothing is drawn.  Each
    step computes the combined loss and updates the parameter vector.
    Returns (params of the best validation-MSE epoch, per-epoch log).
    On a non-finite loss or gradient the run raises NonFiniteError
    carrying the best finite checkpoint and the log so far in its
    ``checkpoint`` and ``log`` attributes.  Logs the encoding time, the
    per-epoch wall time and the time spent drawing and masking at INFO
    level.
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
    y = np.array([r.value for r in train_records], dtype=float)
    xv_e, xv_s = _featurize(val_records)
    yv = np.array([r.value for r in val_records], dtype=float)
    atom_counts = np.array([len(b) for b in bins])
    pools = _flat([b[unprotected_atoms(r.graph)] for b, r in zip(bins, train_records)])
    encode_s = time.perf_counter() - encode_start

    params = init_params(
        np.random.default_rng([cfg.seed, 0xA11]),
        cfg.hidden_enzyme,
        cfg.hidden_substrate,
        cfg.embed_dim,
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
    draw_s = 0.0
    for epoch in range(cfg.epochs):
        order = np.random.default_rng([cfg.seed, epoch, 0xD5]).permutation(n)
        if cfg.lam > 0:
            draw_start = time.perf_counter()
            augmented = _draw_epoch(order, residues, atom_counts, pools, cfg, epoch)
            draw_s += time.perf_counter() - draw_start
        epoch_base = 0.0
        epoch_cons = 0.0
        steps = 0
        for step, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start : start + cfg.batch_size]
            xa_e = xa_s = None
            if cfg.lam > 0:
                codes, lengths, atoms, per_row = augmented[step]
                xa_e = _enzyme_rows(codes, lengths)
                xa_s = _substrate_rows(counts[idx], atoms, per_row)
            try:
                grad, base, cons = gradients(
                    params,
                    x_e[idx],
                    x_s[idx],
                    xa_e,
                    xa_s,
                    y[idx],
                    cfg.lam,
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
        "train: encoded %d train + %d val records in %.3f s; %d epochs, %.4f s per epoch, "
        "%.3f s drawing and masking",
        len(train_records),
        len(val_records),
        encode_s,
        cfg.epochs,
        (time.perf_counter() - epochs_start) / cfg.epochs,
        draw_s,
    )
    return best_params, log
