"""Sequence identity, greedy clustering, and identity-threshold OOD splits.

Identity is global Needleman-Wunsch (match=+1, mismatch=0, linear gap=-1)
with identical-column count divided by gap-inclusive alignment length; the
gap-inclusive denominator keeps identities conservative, which makes the
split guarantees stricter.  One numpy kernel, ``align_stats_many``, aligns
whole batches of pairs; every identity below goes through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DuplicateIdError, InfeasibleSplitError

# Pairs aligned together, and the integer type of their DP rows: values
# stay within 2 * (len a + len b), so int32 cannot overflow for any chunk
# whose rows fit in memory.
ALIGN_CHUNK = 256
ALIGN_DTYPE = np.int32


def alignment_backend() -> str:
    """Name of the alignment kernel in use."""
    return "numpy"


def align_stats_many(as_, bs) -> np.ndarray:
    """(N, 3) int array of (score, matches, alignment_length), one row per
    pair ``(as_[k], bs[k])``, of the canonical global alignment.

    Tie-break during traceback: diagonal, then up (gap in ``b``), then
    left (gap in ``a``).  Pairs are aligned in chunks of similar length.
    """
    as_, bs = list(as_), list(bs)
    if len(as_) != len(bs):
        raise ValueError(f"{len(as_)} first sequences but {len(bs)} second ones")
    if not all(as_) or not all(bs):
        raise ValueError("sequences must be non-empty")
    order = np.lexsort(([len(s) for s in bs], [len(s) for s in as_]))
    out = np.empty((len(as_), 3), dtype=np.int64)
    for lo in range(0, len(order), ALIGN_CHUNK):
        chunk = order[lo : lo + ALIGN_CHUNK]
        out[chunk] = _align_chunk([as_[k] for k in chunk], [bs[k] for k in chunk])
    return out


def _codes(seqs) -> np.ndarray:
    """Byte codes of ``seqs``, zero-padded to the longest."""
    codes = np.zeros((len(seqs), max(len(s) for s in seqs)), dtype=np.uint8)
    for k, s in enumerate(seqs):
        codes[k, : len(s)] = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    return codes


def _align_chunk(as_, bs) -> np.ndarray:
    """One DP row at a time over every pair of the chunk.

    Row ``i`` first takes diagonal or up per cell (up only when strictly
    better), giving ``c``.  The left-gap chain then makes cell ``j`` the
    best of ``c[k] - (j - k)`` over ``k <= j``, a prefix max of ``c + j``;
    its source column is the last ``k`` where ``c[k] + k`` reaches that
    max, so ties keep diagonal/up over left.  Matches are carried from the
    source column; the length follows from score and matches, because
    score = matches - gaps and a + b residues = 2 * diagonal + gaps.
    Padding is never read: row ``i`` and column ``j`` depend only on
    earlier ones, and each pair's result is taken at its own cell.
    """
    a, b = _codes(as_), _codes(bs)
    la = np.array([len(s) for s in as_])
    lb = np.array([len(s) for s in bs])
    n = len(as_)
    j = np.arange(b.shape[1] + 1, dtype=ALIGN_DTYPE)
    rows = np.arange(n)[:, None]
    score = np.broadcast_to(-j, (n, j.size)).copy()
    matches = np.zeros_like(score)
    c = np.empty_like(score)
    c_matches = np.empty_like(score)
    out = np.empty((n, 3), dtype=np.int64)
    for i in range(1, a.shape[1] + 1):
        match = (a[:, i - 1 : i] == b).astype(ALIGN_DTYPE)
        diag = score[:, :-1] + match
        up = score[:, 1:] - 1
        np.maximum(diag, up, out=c[:, 1:])
        c_matches[:, 1:] = np.where(up > diag, matches[:, 1:], matches[:, :-1] + match)
        c[:, 0] = -i
        c_matches[:, 0] = 0
        reach = c + j
        best = np.maximum.accumulate(reach, axis=1)
        source = np.maximum.accumulate(np.where(reach == best, j, 0), axis=1)
        score = best - j
        matches = c_matches[rows, source]
        done = np.flatnonzero(la == i)
        if done.size:
            end = lb[done]
            out[done, 0] = score[done, end]
            out[done, 1] = matches[done, end]
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


def max_identity_to_train(q: str, train) -> float:
    """Highest identity between ``q`` and any training sequence."""
    train = list(train)
    if not train:
        raise ValueError("train set must be non-empty")
    return float(_identities([q] * len(train), train).max())


# ---------------------------------------------------------------------------
# Clustering


def greedy_cluster(seqs, threshold: float, identity_fn=None) -> list[list[int]]:
    """Incremental representative clustering.

    Sequences are processed in descending length order (ties by input
    position); each joins the first cluster whose representative (its
    founding member) has identity strictly above ``threshold``, else it
    founds a new cluster.  Returns clusters in founding order as lists of
    input indices, founding member first.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    seqs = list(seqs)
    if identity_fn is None:
        matrix = pairwise_identity_matrix(seqs)

        def identity_fn(i, j):
            return matrix[i, j]

    order = sorted(range(len(seqs)), key=lambda i: (-len(seqs[i]), i))
    clusters: list[list[int]] = []
    for idx in order:
        for members in clusters:
            if identity_fn(idx, members[0]) > threshold:
                members.append(idx)
                break
        else:
            clusters.append([idx])
    return clusters


def _merge_violating_clusters(clusters, matrix, threshold):
    """Union clusters until no cross-cluster pair exceeds the threshold.

    Representative clustering bounds member-to-representative identity
    only; member-to-member identity across clusters can still exceed the
    threshold, so clusters are transitively merged along every violating
    pair.  After the closure the split invariant holds by construction.
    """
    n_clusters = len(clusters)
    parent = list(range(n_clusters))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cluster_of = {}
    for ci, members in enumerate(clusters):
        for u in members:
            cluster_of[u] = ci
    iu, ju = np.triu_indices(matrix.shape[0], k=1)
    for i, j in zip(iu[matrix[iu, ju] > threshold], ju[matrix[iu, ju] > threshold]):
        ra, rb = find(cluster_of[int(i)]), find(cluster_of[int(j)])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    merged: dict[int, list[int]] = {}
    for ci, members in enumerate(clusters):
        merged.setdefault(find(ci), []).extend(members)
    return [sorted(members) for _, members in sorted(merged.items())]


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
        overlap = set(self.train_ids) & set(self.test_ids)
        if overlap:
            raise ValueError(f"ids in both halves: {sorted(overlap)[:3]}")


def build_ood_splits(records, thresholds, test_fraction: float, seed: int) -> list[OodSplit]:
    """One OodSplit per threshold over ``records`` (objects with ``id`` and
    ``sequence`` attributes).

    Per threshold: cluster the unique sequences, merge any clusters with a
    cross pair above the threshold, then move whole clusters into test,
    smallest record count first (ties shuffled by ``seed``), until test
    holds at least ``test_fraction`` of the records.  Test sets are drawn
    independently per threshold.  Raises InfeasibleSplitError when one
    cluster alone exceeds the 1 - test_fraction train capacity.
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
    rec_u = [uniq_index[s] for s in seqs]
    if known is None:
        matrix = pairwise_identity_matrix(uniq)
    else:
        row = {s: k for k, s in enumerate(known[0])}
        rows = [row[s] for s in uniq]
        matrix = known[1][np.ix_(rows, rows)]
    n_records = len(records)

    splits = []
    for thr in thresholds:
        clusters = greedy_cluster(uniq, thr, identity_fn=lambda i, j: matrix[i, j])
        clusters = _merge_violating_clusters(clusters, matrix, thr)
        member_cluster = {}
        for k, members in enumerate(clusters):
            for u in members:
                member_cluster[u] = k
        rec_count = [0] * len(clusters)
        for u in rec_u:
            rec_count[member_cluster[u]] += 1
        capacity = (1.0 - test_fraction) * n_records + 1e-9
        if max(rec_count) > capacity:
            raise InfeasibleSplitError(
                f"threshold {thr}: largest cluster holds {max(rec_count)} of "
                f"{n_records} records, exceeding train capacity {capacity:.1f}"
            )
        required = math.ceil(test_fraction * n_records - 1e-9)
        # fresh generator per threshold: identical clusterings at two
        # thresholds then pick identical test clusters, which keeps
        # realized test difficulty monotone across thresholds
        rng = np.random.default_rng(seed)
        shuffle_rank = rng.permutation(len(clusters))
        order = sorted(range(len(clusters)), key=lambda k: (rec_count[k], shuffle_rank[k]))
        test_clusters = set()
        count = 0
        for k in order:
            if count >= required:
                break
            test_clusters.add(k)
            count += rec_count[k]
        test_uniq = {
            u for k in test_clusters for u in clusters[k]
        }
        test_ids = tuple(ids[r] for r in range(n_records) if rec_u[r] in test_uniq)
        train_ids = tuple(ids[r] for r in range(n_records) if rec_u[r] not in test_uniq)
        train_uniq = [u for u in range(len(uniq)) if u not in test_uniq]
        worst = _max_cross_identity(matrix, sorted(test_uniq), train_uniq)
        if worst > thr:
            raise RuntimeError(
                f"split construction bug: cross identity {worst} above {thr}"
            )
        splits.append(OodSplit(threshold=thr, train_ids=train_ids, test_ids=test_ids))
    return splits, (uniq, matrix)


def _max_cross_identity(matrix, test_uniq, train_uniq) -> float:
    if not test_uniq or not train_uniq:
        return 0.0
    sub = matrix[np.ix_(test_uniq, train_uniq)]
    return float(sub.max())


def max_cross_identity(split: OodSplit, id_to_seq) -> float:
    """Exhaustive check value: highest test-to-train identity in ``split``."""
    test_seqs = sorted({id_to_seq[i] for i in split.test_ids})
    train_seqs = sorted({id_to_seq[i] for i in split.train_ids})
    if not test_seqs or not train_seqs:
        return 0.0
    return float(_identities([t for t in test_seqs for _ in train_seqs],
                             train_seqs * len(test_seqs)).max())


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
    groups: dict[float, tuple[list[str], list[str]]] = {}
    order: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 3 or parts[1] not in ("train", "test"):
                raise ValueError(f"{path}:{lineno}: malformed split line {line!r}")
            thr = float(parts[2])
            if thr not in groups:
                groups[thr] = ([], [])
                order.append(thr)
            groups[thr][0 if parts[1] == "train" else 1].append(parts[0])
    return [
        OodSplit(threshold=thr, train_ids=tuple(groups[thr][0]), test_ids=tuple(groups[thr][1]))
        for thr in order
    ]
