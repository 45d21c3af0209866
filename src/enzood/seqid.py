"""Sequence identity, single-linkage identity components, and
identity-threshold OOD splits.

Identity is global Needleman-Wunsch (match=+1, mismatch=0, linear gap=-1)
with identical-column count divided by gap-inclusive alignment length; the
gap-inclusive denominator keeps identities conservative, which makes the
split guarantees stricter.  One batch entry point, ``align_stats_many``,
aligns whole batches of pairs on two numpy kernels, by DP rows or by
anti-diagonals; every identity below goes through it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIdError, InfeasibleSplitError

# Most pairs aligned together; a batch is cut into chunks of near-equal size.
ALIGN_CHUNK = 512
# A chunk's kernel: see align_stats_many.
_WAVEFRONT_MIN = 4096
_WAVEFRONT_PAD = 3
# The longest sequence whose fields fit 64-bit keys in both kernels.
_MAX_RESIDUES = 2**20 - 1

_LOG = logging.getLogger(__name__)


def alignment_backend() -> str:
    """Name of the alignment kernel in use."""
    return "numpy"


def align_stats_many(as_, bs) -> np.ndarray:
    """(N, 3) int array of (score, matches, alignment_length), one row per
    pair ``(as_[k], bs[k])``, of the canonical global alignment.

    Tie-break during traceback: diagonal, then up (gap in ``b``), then
    left (gap in ``a``).  The pairs are sorted by length and cut into
    ``ceil(N / ALIGN_CHUNK)`` chunks of near-equal size, each aligned by
    one of two kernels with the same results.  The wavefront,
    ``_align_wavefront``, takes ``la + lb`` numpy steps where the row
    kernel, ``_align_rows``, takes ``la``, but a cell costs it about a
    third as much, and it pads every pair to the chunk's longest ``a`` by
    longest ``b``.  So a chunk runs on the wavefront when its longest
    ``a`` times its pair count is at least ``_WAVEFRONT_MIN`` and the
    wavefront's cells are at most ``_WAVEFRONT_PAD`` times the row
    kernel's, and on the row kernel otherwise.

    Each call logs at INFO level its pair count, its DP cells (the sum
    of len a * len b), its time, the cells the kernels computed and the
    chunks each kernel ran.  The row kernel computes, for each pair, its
    own rows across the chunk's longest ``b`` plus column 0.
    """
    start = time.perf_counter()
    as_, bs = list(as_), list(bs)
    if len(as_) != len(bs):
        raise ValueError(f"{len(as_)} first sequences but {len(bs)} second ones")
    if not all(as_) or not all(bs):
        raise ValueError("sequences must be non-empty")
    # every distinct sequence is encoded once, into one buffer that ends
    # in the zero byte the chunks pad with
    index = {s: k for k, s in enumerate(dict.fromkeys(as_ + bs))}
    lengths = np.array([len(s) for s in index], dtype=np.int64)
    if lengths.max(initial=0) > _MAX_RESIDUES:
        raise ValueError(f"a {lengths.max()}-residue sequence does not fit 64-bit alignment keys")
    starts = np.cumsum(lengths) - lengths
    buf = np.frombuffer(("".join(index) + "\0").encode("ascii"), dtype=np.uint8)
    ia = np.array([index[s] for s in as_], dtype=np.intp)
    ib = np.array([index[s] for s in bs], dtype=np.intp)
    la, lb = lengths[ia], lengths[ib]
    order = np.lexsort((lb, la))
    out = np.empty((len(as_), 3), dtype=np.int64)
    computed, chunks = 0, {_align_wavefront: 0, _align_rows: 0}
    n_chunks = -(-len(order) // ALIGN_CHUNK)
    for k in range(n_chunks):
        chunk = order[k * len(order) // n_chunks : (k + 1) * len(order) // n_chunks]
        a = _codes(buf, starts[ia[chunk]], la[chunk])
        b = _codes(buf, starts[ib[chunk]], lb[chunk])
        rows, cols = a.shape[1] - 1, b.shape[1] - 1
        row_cells = int(la[chunk].sum()) * (cols + 1)
        wave_cells = len(chunk) * rows * cols
        if rows * len(chunk) >= _WAVEFRONT_MIN and wave_cells <= _WAVEFRONT_PAD * row_cells:
            kernel, cells = _align_wavefront, wave_cells
        else:
            kernel, cells = _align_rows, row_cells
        out[chunk] = kernel(a, b, la[chunk], lb[chunk])
        computed += cells
        chunks[kernel] += 1
    _LOG.info(
        "align: %s backend, %d pairs, %d DP cells in %.3f s, %d cells computed, "
        "%d wavefront and %d row chunks",
        alignment_backend(),
        len(as_),
        int(np.dot(la, lb)),
        time.perf_counter() - start,
        computed,
        chunks[_align_wavefront],
        chunks[_align_rows],
    )
    return out


def _codes(buf, starts, lengths) -> np.ndarray:
    """Byte codes of the sequences at ``starts`` in ``buf``: column ``j``
    holds residue ``j`` (from 1), and column 0 and the tail hold the
    final zero byte of ``buf``."""
    cols = np.arange(lengths.max() + 1)
    inside = (cols > 0) & (cols <= lengths[:, None])
    return buf[np.where(inside, starts[:, None] + cols - 1, buf.size - 1)]


def _align_rows(a, b, la, lb) -> np.ndarray:
    """One DP row at a time over every pair of the chunk; ``a`` and ``b``
    are as made by ``_codes``, row ``i`` reads residue ``i`` of ``a``,
    and ``la`` ascends (``align_stats_many`` lexsorts the pairs by
    ``(la, lb)`` before it cuts them into chunks).

    Each cell is one integer key.  From the top bit down it holds a
    score field, the column, a prefer-diagonal bit and the match count;
    the column and match fields are ``bits`` wide, enough for the
    chunk's longest sequence.  Keys are int32 when every field fits in
    31 bits (sequences of up to 511 residues) and int64 otherwise
    (``align_stats_many`` has checked that they fit); the arithmetic is
    the same.  Comparing keys compares scores, then columns, then
    diagonal before up, so one ``maximum`` picks a move and carries its
    matches along.

    - After row ``i - 1`` the key at column ``j`` is that of the up
      move into row ``i``: score field = cell score - 1 + j, column j.
    - The diagonal move into column ``j + 1`` is the key at ``j`` plus
      ``miss`` (two in the score field, one column, the prefer-diagonal
      bit), plus one score and one match on a match: the row's matches
      are compared into ``step`` and scaled in place.  ``maximum`` of
      the two takes up only when it scores strictly higher.
    - The left-gap chain makes cell ``j`` the best of ``c[k] - (j - k)``
      over ``k <= j``, the prefix max of ``c[k] + k``, which the score
      field already holds: one ``maximum.accumulate``.  Ties go to the
      larger column, so diagonal and up beat left.
    - Clearing the column and prefer-diagonal fields and adding
      ``restore`` (column ``j``, score - 1) gives the next row's keys.

    A pair is finished after row ``la``; because ``la`` ascends, the
    pairs still running after row ``i`` are a suffix of the chunk, and
    every pass runs on that suffix only.  Each pass covers one whole
    contiguous array: the diagonal read from column ``j - 1`` is the
    flat array shifted by one, so column 0 reads the previous pair's
    last column and is then overwritten.  The length follows from
    score and matches, because score = matches - gaps and a + b
    residues = 2 * diagonal + gaps.  Padding is never read: row ``i``
    and column ``j`` depend only on earlier ones, and each pair's
    result is taken at its own cell.
    """
    n, cols = b.shape
    longest = max(a.shape[1], cols) - 1
    bits = longest.bit_length()  # matches and columns are at most ``longest``
    pref = 1 << bits
    k_shift = bits + 1
    s_shift = k_shift + bits
    # scores stay within +-(2 * longest + 1) in every key
    dtype = np.int32 if s_shift + (2 * longest + 1).bit_length() <= 31 else np.int64
    j = np.arange(cols, dtype=dtype)
    restore = np.broadcast_to((j << k_shift) - (1 << s_shift), (n, cols)).copy()
    keys = restore.copy()  # row 0: score -j, no matches
    cand = np.empty_like(keys)
    step = np.empty_like(keys)
    clear = ~((2 * pref - 1) << bits)  # drops the column and preference fields
    miss = (2 << s_shift) + (1 << k_shift) + pref
    match = (1 << s_shift) + 1  # what a hit adds to ``miss``
    low = pref - 1
    out = np.empty((n, 3), dtype=np.int64)
    # stops[i - 1]: one past the last pair that finishes by row i
    stops = np.searchsorted(la, np.arange(1, a.shape[1]), side="right").tolist()
    first = 0
    for i, stop in enumerate(stops, start=1):
        run_keys, run_cand, run_step = keys[first:], cand[first:], step[first:]
        flat_keys, flat_cand, flat_step = run_keys.ravel(), run_cand.ravel(), run_step.ravel()
        np.equal(a[first:, i : i + 1], b[first:], out=run_step)
        np.multiply(run_step, match, out=run_step)
        np.add(flat_keys[:-1], flat_step[1:], out=flat_cand[1:])
        np.add(run_cand, miss, out=run_cand)
        np.maximum(run_cand, run_keys, out=run_cand)
        run_cand[:, 0] = -i << s_shift
        np.maximum.accumulate(run_cand, axis=1, out=run_keys)
        if stop > first:
            end = lb[first:stop]
            best = keys[np.arange(first, stop), end]
            out[first:stop, 0] = (best >> s_shift) - end
            out[first:stop, 1] = best & low
            first = stop
            run_keys = keys[first:]
        np.bitwise_and(run_keys, clear, out=run_keys)
        np.add(run_keys, restore[first:], out=run_keys)
    out[:, 2] = (la + lb - out[:, 0] + out[:, 1]) // 2
    return out


def _align_wavefront(a, b, la, lb) -> np.ndarray:
    """One anti-diagonal at a time over every pair of the chunk, each
    pair padded to the chunk's longest ``a`` (``rows``) by longest ``b``
    (``cols``); ``a`` and ``b`` are as made by ``_codes``.

    The arrays are (rows, pairs), pairs innermost, indexed by the row
    ``i`` of the DP cell, so the cells ``i + j = d`` of diagonal ``d``
    that lie inside the rectangle are one contiguous block.  Each cell
    is one integer key: ``score + i + j`` in the top field, then a 2-bit
    preference field, then the match count.

    - The up move from ``(i - 1, j)`` and the left move from
      ``(i, j - 1)`` lose one score and gain one in ``i + j``, so they
      are the keys of those cells as stored; the diagonal move from
      ``(i - 1, j - 1)`` adds two to the top field, plus one score and
      one match on a match.
    - Every candidate gets its preference (diagonal 2, up 1, left 0)
      before two ``maximum`` passes, so keys compare by score, then
      diagonal before up before left, as the traceback does; the field
      is cleared again afterwards.
    - Cells on row 0 or column 0 score ``-(i + j)``, so their key is 0:
      the zeroed buffers are never written there.

    Diagonal ``d`` reads diagonals ``d - 1`` and ``d - 2`` only, so
    three buffers take turns.  A pair's result is read at its cell
    ``(la, lb)`` on diagonal ``la + lb``; cells past it in the padding
    are computed but never read.  Keys are int32 when the widest one
    fits in 31 bits (a square chunk of up to 10,922 residues) and int64
    otherwise (``align_stats_many`` has checked that they fit).
    """
    n = len(la)
    rows, cols = a.shape[1] - 1, b.shape[1] - 1
    short = min(rows, cols)
    m_bits = short.bit_length()  # matches are at most ``short``
    s_shift = m_bits + 2
    # score + i + j lies in [0, rows + cols + short]
    width = s_shift + (rows + cols + short).bit_length()
    dtype = np.int32 if width <= 31 else np.int64
    up_pref = 1 << m_bits
    diag = (2 << s_shift) + 2 * up_pref
    match = (1 << s_shift) + 1
    clear = ~(3 << m_bits)
    a_t = np.ascontiguousarray(a[:, 1:].T)  # a_t[i - 1]: residue i of each a
    b_rev = np.ascontiguousarray(b[:, :0:-1].T)  # b_rev[x]: residue cols - x of each b
    bufs = [np.zeros((rows + 1, n), dtype=dtype) for _ in range(3)]
    eq = np.empty((short, n), dtype=dtype)
    up = np.empty_like(eq)
    out = np.empty((n, 3), dtype=np.int64)
    ends = la + lb
    by_end = np.argsort(ends, kind="stable")
    bounds = np.searchsorted(ends[by_end], np.arange(2, rows + cols + 2)).tolist()
    for d in range(2, rows + cols + 1):
        prev2, prev, cur = bufs[d % 3 - 2], bufs[d % 3 - 1], bufs[d % 3]
        lo, hi = max(1, d - cols), min(rows, d - 1)
        size = hi - lo + 1
        band_eq, band_up, band = eq[:size], up[:size], cur[lo : hi + 1]
        np.equal(a_t[lo - 1 : hi], b_rev[cols - d + lo : cols - d + hi + 1], out=band_eq)
        np.multiply(band_eq, match, out=band_eq)
        np.add(prev2[lo - 1 : hi], band_eq, out=band)
        np.add(band, diag, out=band)
        np.add(prev[lo - 1 : hi], up_pref, out=band_up)
        np.maximum(band_up, prev[lo : hi + 1], out=band_up)
        np.maximum(band, band_up, out=band)
        np.bitwise_and(band, clear, out=band)
        first, stop = bounds[d - 2], bounds[d - 1]
        if stop > first:
            done = by_end[first:stop]
            best = cur[la[done], done]
            out[done, 0] = (best >> s_shift) - d
            out[done, 1] = best & (up_pref - 1)
    out[:, 2] = (la + lb - out[:, 0] + out[:, 1]) // 2
    return out


def alignment_stats(a: str, b: str) -> tuple[int, int, int]:
    """(score, matches, alignment_length) of the canonical global alignment
    of one pair; see ``align_stats_many``."""
    return tuple(int(v) for v in align_stats_many([a], [b])[0])


def global_identity(a: str, b: str) -> float:
    """Fraction of identical aligned columns over the alignment length.

    Gap columns count toward the length, so identity is in [0, 1] and
    equals 1.0 only for exactly identical sequences.
    """
    _, matches, length = alignment_stats(a, b)
    return matches / length


def _identities(as_, bs) -> np.ndarray:
    stats = align_stats_many(as_, bs)
    return stats[:, 1] / stats[:, 2]


def pairwise_identity_matrix(seqs) -> np.ndarray:
    """Symmetric all-pairs identity matrix with unit diagonal."""
    seqs = list(seqs)
    if not all(seqs):
        raise ValueError("sequences must be non-empty")
    n = len(seqs)
    matrix = np.ones((n, n), dtype=float)
    iu, ju = np.triu_indices(n, k=1)
    matrix[iu, ju] = matrix[ju, iu] = _identities([seqs[i] for i in iu], [seqs[j] for j in ju])
    return matrix


def max_identities(queries, refs) -> np.ndarray:
    """Each query's highest identity to any reference sequence, from one
    alignment batch over queries x refs."""
    queries = list(queries)
    refs = list(refs)
    if not refs:
        raise ValueError("reference set must be non-empty")
    identities = _identities([q for q in queries for _ in refs], refs * len(queries))
    return identities.reshape(len(queries), len(refs)).max(axis=1)


# ---------------------------------------------------------------------------
# Components


def _components(matrix, lengths, threshold) -> np.ndarray:
    """Component index of each sequence in the graph whose edges are the
    pairs with identity strictly above ``threshold``.

    Sequences are ranked by descending length, ties by position, and each
    component is numbered by its first member in that rank: one
    union-find over the edges keeps the smaller rank as root.
    """
    n = len(lengths)
    rank = np.empty(n, dtype=np.intp)
    rank[np.lexsort((np.arange(n), -np.asarray(lengths)))] = np.arange(n)
    parent = list(range(n))  # indexed by rank

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    iu, ju = np.nonzero(np.triu(matrix > threshold, k=1))
    for a, b in zip(rank[iu].tolist(), rank[ju].tolist()):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    roots = [find(r) for r in range(n)]
    return np.unique(roots, return_inverse=True)[1][rank]


# ---------------------------------------------------------------------------
# Splits


@dataclass(frozen=True)
class OodSplit:
    """Record ids partitioned so no test enzyme resembles any train enzyme
    beyond the identity threshold."""

    threshold: float
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        train, test = set(self.train_ids), set(self.test_ids)
        if len(train) != len(self.train_ids) or len(test) != len(self.test_ids):
            raise ValueError("an id is repeated within one half")
        overlap = train & test
        if overlap:
            raise ValueError(f"ids in both halves: {sorted(overlap)[:3]}")


def build_ood_splits(records, thresholds, test_fraction: float, seed: int) -> list[OodSplit]:
    """One OodSplit per threshold over ``records`` (objects with ``id`` and
    ``sequence`` attributes).

    Per threshold: take the connected components of the unique sequences
    joined by every pair with identity above the threshold, then move
    whole components into test, smallest record count first (ties
    shuffled by ``seed``), until test holds at least ``test_fraction`` of
    the records.  No test-to-train pair then exceeds the threshold, by
    construction.  Test sets are drawn independently per threshold.
    Raises InfeasibleSplitError when one component alone exceeds the
    1 - test_fraction train capacity.
    """
    return _ood_splits(records, thresholds, test_fraction, seed)[0]


def _ood_splits(records, thresholds, test_fraction, seed, known=None):
    """``build_ood_splits`` plus the ``(unique sequences, identity matrix)``
    it split on.  ``known`` is such a pair whose sequences hold the
    records' ones in the same order of first appearance; its matrix is
    then sliced instead of aligning those pairs again."""
    records = list(records)
    if not records:
        raise ValueError("no records")
    if not 0.0 < test_fraction <= 0.5:
        raise ValueError(f"test_fraction must be in (0, 0.5], got {test_fraction}")
    for thr in thresholds:
        if not 0.0 < thr <= 1.0:
            raise ValueError(f"thresholds must be in (0, 1], got {thr}")
    ids = [r.id for r in records]
    if len(set(ids)) != len(ids):
        raise DuplicateIdError("record ids must be unique for split construction")
    seqs = [r.sequence for r in records]

    uniq = list(dict.fromkeys(seqs))
    uniq_index = {s: u for u, s in enumerate(uniq)}
    rec_u = np.array([uniq_index[s] for s in seqs], dtype=np.intp)
    lengths = [len(s) for s in uniq]
    if known is None:
        matrix = pairwise_identity_matrix(uniq)
    else:
        row = {s: k for k, s in enumerate(known[0])}
        rows = [row[s] for s in uniq]
        matrix = known[1][np.ix_(rows, rows)]
    n_records = len(records)
    capacity = (1.0 - test_fraction) * n_records + 1e-9
    required = math.ceil(test_fraction * n_records - 1e-9)

    splits = []
    for thr in thresholds:
        labels = _components(matrix, lengths, thr)
        rec_count = np.bincount(labels[rec_u])
        if rec_count.max() > capacity:
            raise InfeasibleSplitError(
                f"threshold {thr}: largest component holds {rec_count.max()} of "
                f"{n_records} records, exceeding train capacity {capacity:.1f}"
            )
        # fresh generator per threshold: identical components at two
        # thresholds then pick identical test components, which keeps
        # realized test difficulty monotone across thresholds
        rng = np.random.default_rng(seed)
        shuffle_rank = rng.permutation(len(rec_count))
        order = np.lexsort((shuffle_rank, rec_count))
        # whole components in that order while test holds fewer than required
        counts = rec_count[order]
        test_comp = np.zeros(len(rec_count), dtype=bool)
        test_comp[order[np.cumsum(counts) - counts < required]] = True
        in_test = test_comp[labels]
        rec_test = in_test[rec_u]
        test_ids = tuple(rid for rid, t in zip(ids, rec_test) if t)
        train_ids = tuple(rid for rid, t in zip(ids, rec_test) if not t)
        worst = matrix[np.ix_(in_test, ~in_test)].max(initial=0.0)
        if worst > thr:
            raise RuntimeError(f"split construction bug: cross identity {worst} above {thr}")
        # a numpy scalar would reach split files as np.float64(...)
        splits.append(OodSplit(threshold=float(thr), train_ids=train_ids, test_ids=test_ids))
    return splits, (uniq, matrix)


def max_cross_identity(split: OodSplit, id_to_seq) -> float:
    """Exhaustive check value: highest test-to-train identity in ``split``."""
    test_seqs = sorted({id_to_seq[i] for i in split.test_ids})
    train_seqs = sorted({id_to_seq[i] for i in split.train_ids})
    if not test_seqs or not train_seqs:
        return 0.0
    return float(max_identities(test_seqs, train_seqs).max())


# ---------------------------------------------------------------------------
# Split files


def write_split_file(path, splits, header_lines=()) -> None:
    """Plain text, one record per line: id, split half, threshold.

    header_lines are extra comment strings (written with a '# ' prefix)
    so callers can embed provenance such as the seed and config hash.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# columns: record_id\tsplit\tthreshold\n")
        fh.write("# test_sets: independent_per_threshold\n")
        for line in header_lines:
            fh.write(f"# {line}\n")
        for split in splits:
            for rid in split.train_ids:
                fh.write(f"{rid}\ttrain\t{split.threshold!r}\n")
            for rid in split.test_ids:
                fh.write(f"{rid}\ttest\t{split.threshold!r}\n")


def read_split_file(path) -> list[OodSplit]:
    """The splits of a file written by write_split_file, in the order
    their thresholds first appear.  A malformed line, or one repeating
    an id at its threshold, raises ValueError naming path and line."""
    halves: dict[float, dict[str, str]] = {}  # threshold -> record id -> half
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            try:
                thr = float(parts[2])
            except (IndexError, ValueError):
                thr = math.nan
            # NaN fails the range test too
            if (
                len(parts) != 3
                or parts[1] not in ("train", "test")
                or not 0.0 < thr <= 1.0
                or parts[0] in halves.get(thr, ())
            ):
                raise ValueError(f"{path}:{lineno}: malformed split line {line!r}")
            halves.setdefault(thr, {})[parts[0]] = parts[1]
    return [
        OodSplit(
            threshold=thr,
            train_ids=tuple(i for i, half in ids.items() if half == "train"),
            test_ids=tuple(i for i, half in ids.items() if half == "test"),
        )
        for thr, ids in halves.items()
    ]
