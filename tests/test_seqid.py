import math
from collections import namedtuple

import numpy as np
import pytest

from _alignment_py import align_stats as reference_stats
from enzood import seqid
from enzood.errors import DuplicateIdError, InfeasibleSplitError
from enzood.seqid import (
    OodSplit,
    align_stats_many,
    alignment_backend,
    alignment_stats,
    build_ood_splits,
    global_identity,
    greedy_cluster,
    max_cross_identity,
    max_identity_to_train,
    pairwise_identity_matrix,
    read_split_file,
    write_split_file,
)

Rec = namedtuple("Rec", "id sequence")

AA = "ACDEFGHIKLMNPQRSTVWY"


def brute_force_stats(a: str, b: str):
    """Enumerate every monotone alignment; return (score, matches, length)
    of the best-scoring one, ties resolved like a traceback that prefers
    diagonal, then up, then left (lexicographically smallest reversed
    move string under d<u<l)."""
    m, n = len(a), len(b)
    complete = []
    stack = [(0, 0, 0, 0, ())]
    while stack:
        i, j, score, matches, moves = stack.pop()
        if i == m and j == n:
            complete.append((score, moves, matches))
            continue
        if i < m and j < n:
            eq = 1 if a[i] == b[j] else 0
            stack.append((i + 1, j + 1, score + eq, matches + eq, moves + (0,)))
        if i < m:
            stack.append((i + 1, j, score - 1, matches, moves + (1,)))
        if j < n:
            stack.append((i, j + 1, score - 1, matches, moves + (2,)))
    best_score = max(c[0] for c in complete)
    optimal = [c for c in complete if c[0] == best_score]
    chosen = min(optimal, key=lambda c: tuple(reversed(c[1])))
    return best_score, chosen[2], len(chosen[1])


def random_seq(rng, max_len, alphabet):
    k = int(rng.integers(1, max_len + 1))
    return "".join(alphabet[int(c)] for c in rng.integers(0, len(alphabet), size=k))


def test_alignment_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(150):
        a = random_seq(rng, 5, "ACG")
        b = random_seq(rng, 5, "ACG")
        assert alignment_stats(a, b) == brute_force_stats(a, b), (a, b)
    for _ in range(25):
        a = random_seq(rng, 6, AA[:6])
        b = random_seq(rng, 6, AA[:6])
        assert alignment_stats(a, b) == brute_force_stats(a, b), (a, b)


def test_identity_frozen_examples():
    assert global_identity("ACDEFG", "ACDEFG") == 1.0
    assert global_identity("AAAA", "CCCC") == 0.0
    assert global_identity("ACDEFG", "ACDFG") == 5 / 6


def test_identity_symmetric_and_bounded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        a = random_seq(rng, 30, AA)
        b = random_seq(rng, 30, AA)
        ab = global_identity(a, b)
        assert ab == global_identity(b, a)
        assert 0.0 <= ab <= 1.0
        assert global_identity(a, a) == 1.0
    assert global_identity("A", "A") == 1.0
    assert global_identity("A" * 10, "A") == 0.1


def test_identity_rejects_empty():
    with pytest.raises(ValueError):
        global_identity("", "A")
    with pytest.raises(ValueError):
        alignment_stats("A", "")


def adversarial_pairs(rng, count):
    """Pairs built to hit alignment ties: a 4-letter alphabet, indels,
    single residues and near-identical sequences, lengths 1 to 40."""
    pairs = [("A", "A"), ("A", "C"), ("A", "AAAA"), ("AAAA", "A"), ("ACGT", "TGCA"), ("AC", "CA")]
    while len(pairs) < count:
        a = random_seq(rng, 40, "ACGT")
        if rng.random() < 0.3:
            pairs.append((a, random_seq(rng, 40, "ACGT")))
            continue
        b = list(a)
        for _ in range(int(rng.integers(1, 8))):
            pos = int(rng.integers(len(b) + 1))
            edit = int(rng.integers(3))
            if edit == 0 or not b:
                b.insert(pos, "ACGT"[int(rng.integers(4))])
            elif edit == 1:
                del b[min(pos, len(b) - 1)]
            else:
                b[min(pos, len(b) - 1)] = "ACGT"[int(rng.integers(4))]
        b = "".join(b) or "G"
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    return pairs


def assert_matches_reference(pairs):
    got = align_stats_many([a for a, _ in pairs], [b for _, b in pairs])
    assert got.shape == (len(pairs), 3)
    for (a, b), row in zip(pairs, got.tolist()):
        assert tuple(row) == reference_stats(a.encode(), b.encode()), (a, b)


def test_align_stats_many_matches_reference():
    rng = np.random.default_rng(9)
    # one batch of mixed lengths (1 to 40 residues), more than one chunk long
    pairs = adversarial_pairs(rng, seqid.ALIGN_CHUNK + 300)
    assert_matches_reference(pairs)
    # unrelated protein-like pairs, up to 120 against up to 15 residues
    assert_matches_reference(
        [(random_seq(rng, 120, AA), random_seq(rng, 15, AA)) for _ in range(40)]
        + [(random_seq(rng, 15, AA), random_seq(rng, 120, AA)) for _ in range(40)]
    )
    assert_matches_reference([("ACDEFG", "ACDFG")])


def test_align_stats_many_rejects_empty():
    with pytest.raises(ValueError):
        align_stats_many(["A", ""], ["A", "A"])
    with pytest.raises(ValueError):
        align_stats_many(["A"], [""])
    with pytest.raises(ValueError):
        align_stats_many(["A"], ["A", "C"])


def test_backend_name_reported():
    assert alignment_backend() == "numpy"


def test_pairwise_matrix_invariants():
    rng = np.random.default_rng(5)
    seqs = [random_seq(rng, 40, AA) for _ in range(12)]
    matrix = pairwise_identity_matrix(seqs)
    assert matrix.shape == (12, 12)
    assert np.array_equal(matrix, matrix.T)
    assert np.all(np.diag(matrix) == 1.0)
    assert np.all((matrix >= 0.0) & (matrix <= 1.0))
    assert matrix[2, 7] == global_identity(seqs[2], seqs[7])


def test_max_identity_to_train():
    train = ["ACDEFG", "WWWWWW", "ACDFG"]
    assert max_identity_to_train("ACDEFG", train) == 1.0
    assert max_identity_to_train("YYYY", ["WWWW"]) == 0.0
    q = "ACDEG"
    expected = max(global_identity(q, t) for t in train)
    assert max_identity_to_train(q, train) == expected
    with pytest.raises(ValueError):
        max_identity_to_train("A", [])


# ---------------------------------------------------------------------------
# Clustering


def mutate(rng, seq, rate):
    out = list(seq)
    k = max(1, int(round(rate * len(seq))))
    for pos in rng.choice(len(seq), size=k, replace=False):
        choices = [c for c in AA if c != seq[pos]]
        out[pos] = choices[int(rng.integers(len(choices)))]
    return "".join(out)


def make_families(rng, n_families, per_family, length=80, rate=0.1):
    families = []
    for _ in range(n_families):
        proto = "".join(AA[int(c)] for c in rng.integers(0, len(AA), size=length))
        families.append([mutate(rng, proto, rate) for _ in range(per_family)])
    return families


def connected_components(matrix, threshold):
    n = matrix.shape[0]
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        comp = []
        todo = [root]
        seen[root] = True
        while todo:
            node = todo.pop()
            comp.append(node)
            for j in range(n):
                if not seen[j] and matrix[node, j] > threshold:
                    seen[j] = True
                    todo.append(j)
        comps.append(sorted(comp))
    return comps


def test_greedy_cluster_trivial_cases():
    assert len(greedy_cluster(["AAA"] * 4, 0.99)) == 1
    assert len(greedy_cluster(["AAAA", "CCCC"], 0.4)) == 2
    clusters = greedy_cluster(["AAAA", "CCCC"], 0.4)
    assert sorted(i for c in clusters for i in c) == [0, 1]


def test_greedy_cluster_threshold_strict():
    # identity exactly at the threshold does not join
    a, b = "AAAA", "AACC"
    assert global_identity(a, b) == 0.5
    assert len(greedy_cluster([a, b], 0.5)) == 2
    assert len(greedy_cluster([a, b], 0.49)) == 1


def test_greedy_cluster_three_families():
    rng = np.random.default_rng(17)
    families = make_families(rng, 3, 10)
    seqs = [s for fam in families for s in fam]
    clusters = greedy_cluster(seqs, 0.6)
    assert len(clusters) == 3
    matrix = pairwise_identity_matrix(seqs)
    comps = connected_components(matrix, 0.6)
    assert sorted(sorted(c) for c in clusters) == sorted(comps)


def test_greedy_cluster_deterministic():
    rng = np.random.default_rng(23)
    seqs = [random_seq(rng, 50, AA) for _ in range(20)]
    assert greedy_cluster(seqs, 0.3) == greedy_cluster(seqs, 0.3)


def test_greedy_cluster_validates_threshold():
    with pytest.raises(ValueError):
        greedy_cluster(["AA"], 0.0)
    with pytest.raises(ValueError):
        greedy_cluster(["AA"], 1.5)


# ---------------------------------------------------------------------------
# Splits


def family_records(rng, n_families=3, per_family=10):
    families = make_families(rng, n_families, per_family)
    records = []
    for f, fam in enumerate(families):
        for k, seq in enumerate(fam):
            records.append(Rec(f"r{f}-{k}", seq))
    return records, families


def test_build_ood_splits_family_granularity():
    rng = np.random.default_rng(4)
    records, families = family_records(rng)
    splits = build_ood_splits(records, [0.6], test_fraction=0.3, seed=1)
    (split,) = splits
    id_to_family = {}
    for f, fam in enumerate(families):
        for k in range(len(fam)):
            id_to_family[f"r{f}-{k}"] = f
    test_families = {id_to_family[i] for i in split.test_ids}
    train_families = {id_to_family[i] for i in split.train_ids}
    assert test_families.isdisjoint(train_families)
    assert len(split.test_ids) + len(split.train_ids) == len(records)
    assert len(split.test_ids) >= math.ceil(0.3 * len(records))


def test_build_ood_splits_soundness_and_monotone():
    rng = np.random.default_rng(8)
    records, _ = family_records(rng, n_families=5, per_family=8)
    id_to_seq = {r.id: r.sequence for r in records}
    thresholds = [0.4, 0.6, 0.8, 0.99]
    splits = build_ood_splits(records, thresholds, test_fraction=0.25, seed=3)
    assert [s.threshold for s in splits] == thresholds
    worsts = []
    for split in splits:
        worst = max_cross_identity(split, id_to_seq)
        assert worst <= split.threshold
        worsts.append(worst)
    # lower thresholds are never easier
    for lo, hi in zip(worsts, worsts[1:]):
        assert lo <= hi + 1e-12


def test_build_ood_splits_one_cluster_infeasible():
    records = [Rec(f"r{i}", "ACDEFGHIKL") for i in range(10)]
    with pytest.raises(InfeasibleSplitError):
        build_ood_splits(records, [0.6], test_fraction=0.2, seed=0)


def test_build_ood_splits_oversized_cluster_infeasible():
    rng = np.random.default_rng(12)
    records, _ = family_records(rng, n_families=2, per_family=5)
    # 9 extra records of one family swamp the train capacity
    extra = [Rec(f"x{i}", records[0].sequence) for i in range(9)]
    with pytest.raises(InfeasibleSplitError):
        build_ood_splits(records + extra, [0.6], test_fraction=0.4, seed=0)


def test_build_ood_splits_merges_identity_chains():
    # id(a,b) and id(b,c) exceed 0.5 but id(a,c) does not; the three must
    # still end up on the same side of the split
    a = "A" * 20
    b = "A" * 12 + "C" * 8
    c = "A" * 4 + "C" * 16
    assert global_identity(a, b) > 0.5
    assert global_identity(b, c) > 0.5
    assert global_identity(a, c) <= 0.5
    far = "W" * 20
    records = [Rec("a", a), Rec("b", b), Rec("c", c)] + [
        Rec(f"w{i}", far) for i in range(3)
    ]
    for seed in range(6):
        (split,) = build_ood_splits(records, [0.5], test_fraction=0.5, seed=seed)
        chain_in_test = {"a", "b", "c"} & set(split.test_ids)
        assert chain_in_test in (set(), {"a", "b", "c"})
        assert max_cross_identity(split, {r.id: r.sequence for r in records}) <= 0.5


def test_build_ood_splits_duplicate_sequences_travel_together():
    rng = np.random.default_rng(31)
    records, _ = family_records(rng, n_families=4, per_family=4)
    dups = [Rec(f"d{i}", records[0].sequence) for i in range(3)]
    (split,) = build_ood_splits(records + dups, [0.6], test_fraction=0.3, seed=5)
    group = {"r0-0"} | {f"d{i}" for i in range(3)}
    assert group <= set(split.test_ids) or group <= set(split.train_ids)


def test_build_ood_splits_deterministic():
    rng = np.random.default_rng(14)
    records, _ = family_records(rng)
    a = build_ood_splits(records, [0.4, 0.8], test_fraction=0.3, seed=7)
    b = build_ood_splits(records, [0.4, 0.8], test_fraction=0.3, seed=7)
    assert a == b


def test_build_ood_splits_validation():
    records = [Rec("r1", "ACD"), Rec("r2", "WYV")]
    with pytest.raises(ValueError):
        build_ood_splits(records, [0.6], test_fraction=0.0, seed=0)
    with pytest.raises(ValueError):
        build_ood_splits(records, [0.6], test_fraction=0.6, seed=0)
    with pytest.raises(ValueError):
        build_ood_splits(records, [1.2], test_fraction=0.3, seed=0)
    with pytest.raises(DuplicateIdError):
        build_ood_splits([Rec("r1", "ACD"), Rec("r1", "WYV")], [0.6], 0.5, 0)
    with pytest.raises(ValueError):
        build_ood_splits([], [0.6], test_fraction=0.3, seed=0)


def test_ood_split_rejects_overlap():
    with pytest.raises(ValueError):
        OodSplit(0.5, ("a", "b"), ("b",))


def test_split_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    records, _ = family_records(rng)
    splits = build_ood_splits(records, [0.4, 0.6], test_fraction=0.3, seed=11)
    path = tmp_path / "splits.tsv"
    write_split_file(path, splits)
    assert read_split_file(path) == splits
    # byte-identical on rewrite
    first = path.read_bytes()
    write_split_file(path, splits)
    assert path.read_bytes() == first


def test_split_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("r1\tvalidation\t0.4\n")
    with pytest.raises(ValueError):
        read_split_file(path)
