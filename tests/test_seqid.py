import math
import re
from collections import namedtuple

import numpy as np
import pytest

from _alignment_py import align_stats as reference_stats
from _cluster_py import greedy_cluster, reference_clusters
from enzood import seqid
from enzood.errors import DuplicateIdError, InfeasibleSplitError
from enzood.seqid import (
    OodSplit,
    align_stats_many,
    alignment_backend,
    alignment_stats,
    build_ood_splits,
    global_identity,
    max_cross_identity,
    max_identities,
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


def protein(rng, size):
    return "".join(AA[int(c)] for c in rng.integers(0, 20, size))


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


def test_align_stats_many_wide_fields_in_mixed_chunk():
    # one chunk, three DP rows: a b past 65,536 residues needs a 17-bit
    # column field, and the short pairs beside it share those widths
    rng = np.random.default_rng(21)
    long_b = random_seq(rng, 1, AA) + "".join(AA[int(c)] for c in rng.integers(0, 20, 65_600))
    pairs = [("MKV", long_b), ("WWW", long_b[:65_537])]
    pairs += [(random_seq(rng, 3, AA), random_seq(rng, 40, AA)) for _ in range(20)]
    assert len(pairs) < seqid.ALIGN_CHUNK
    assert_matches_reference(pairs)


def test_align_stats_many_strongly_negative_scores():
    assert_matches_reference([("A", "C" * 500), ("C" * 500, "A"), ("A" * 300, "C" * 200)])
    assert alignment_stats("A", "C" * 500) == (-499, 0, 500)


@pytest.mark.parametrize(
    "a, b, expected",
    [
        # diagonal, up and left tie at the last cell; (0, 2, 4) if not diagonal
        ("ACA", "CAC", (0, 0, 3)),
        # (1, 3, 5) if up were preferred to diagonal
        ("AACA", "CAAC", (1, 1, 4)),
        # (1, 2, 6) and (1, 4, 7) if left were preferred to up
        ("AACAC", "CCAACA", (1, 4, 7)),
        ("AACCAC", "CCACA", (1, 2, 6)),
    ],
)
def test_align_stats_many_frozen_ties(a, b, expected):
    assert reference_stats(a.encode(), b.encode()) == expected
    assert brute_force_stats(a, b) == expected
    assert tuple(align_stats_many([a, "ACGT"], [b, "TGCA"])[0]) == expected


@pytest.mark.parametrize("longest", [511, 512])
def test_align_stats_many_at_the_key_width_limit(longest):
    # 511 residues is the longest chunk with int32 keys, 512 the shortest
    # with int64 ones; the pairs push the score field to both extremes
    rng = np.random.default_rng(longest)
    top = "".join(AA[int(c)] for c in rng.integers(0, 20, longest))
    mutant = "".join(AA[(AA.index(c) + 1) % 20] if rng.random() < 0.1 else c for c in top)
    pairs = [(top, top), ("A", "C" * longest), ("C" * longest, "A"), (top, mutant)]
    pairs += [(random_seq(rng, 60, AA), random_seq(rng, 60, AA)) for _ in range(20)]
    assert len(pairs) < seqid.ALIGN_CHUNK
    assert_matches_reference(pairs)


def nw_scores(a: str, b: str) -> list[list[int]]:
    """Full score matrix of the global alignment (match=+1, gap=-1)."""
    h = [[-(i + j) if i == 0 or j == 0 else 0 for j in range(len(b) + 1)] for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            h[i][j] = max(h[i - 1][j - 1] + (a[i - 1] == b[j - 1]), h[i - 1][j] - 1, h[i][j - 1] - 1)
    return h


def test_align_stats_many_pairs_finishing_at_different_rows(caplog):
    # one chunk whose pairs finish at rows 1 to 300: each row runs only
    # the pairs not yet finished
    rng = np.random.default_rng(33)

    def exact(size):
        return "".join(AA[int(c)] for c in rng.integers(0, 20, size))

    prefix = exact(20)
    tie = (prefix + "ACA", prefix + "CAC")
    h = nw_scores(*tie)
    m, n = len(tie[0]), len(tie[1])
    assert h[m][n] == h[m - 1][n - 1] == h[m - 1][n] - 1 == h[m][n - 1] - 1
    pairs = [tie] + [("W", random_seq(rng, 300, AA)) for _ in range(8)]
    pairs += [(exact(size), random_seq(rng, 120, AA)) for size in (7, 23, 23, 64, 65, 120)]
    long_a = exact(298)
    pairs += [(long_a, long_a[5:] + "KLM"), (long_a + "GG", long_a), (long_a[:290], "W")]
    assert len(pairs) < seqid.ALIGN_CHUNK
    with caplog.at_level("INFO", logger="enzood.seqid"):
        assert_matches_reference(pairs)
    # the wavefront would compute 4.4 times these cells, so the rows run
    computed = sum(len(a) for a, _ in pairs) * (max(len(b) for _, b in pairs) + 1)
    assert caplog.messages[-1].endswith(f", {computed} cells computed, 0 wavefront and 1 row chunks")


def kernel_chunk(pairs):
    """The arguments ``align_stats_many`` gives a kernel for ``pairs`` as
    one chunk: byte codes, then lengths, lexsorted by ``(la, lb)``."""
    pairs = sorted(pairs, key=lambda p: (len(p[0]), len(p[1])))

    def codes(seqs):
        width = max(len(s) for s in seqs) + 1
        return np.array([[0] + list(s.encode()) + [0] * (width - 1 - len(s)) for s in seqs],
                        dtype=np.uint8)

    a, b = codes([a for a, _ in pairs]), codes([b for _, b in pairs])
    la = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    lb = np.array([len(b) for _, b in pairs], dtype=np.int64)
    return pairs, (a, b, la, lb)


KERNELS = [seqid._align_rows, seqid._align_wavefront]


def kernel_cases():
    """Chunks of every shape the two kernels meet, as lists of pairs."""
    rng = np.random.default_rng(77)

    def seq(size, alphabet):
        return "".join(alphabet[int(c)] for c in rng.integers(0, len(alphabet), size))

    def mutant(s):
        return "".join(AA[(AA.index(c) + 1) % 20] if rng.random() < 0.1 else c for c in s)

    square = [(seq(24, "ACGT"), seq(24, "ACGT")) for _ in range(30)]
    short_a = [(random_seq(rng, 6, AA), protein(rng, int(rng.integers(80, 121)))) for _ in range(12)]
    # like perfbench's split workload: 48- and 64-residue families mixed
    # in one chunk
    family = [mutant(p) for p in (protein(rng, 48), protein(rng, 64)) for _ in range(4)]
    split = [(x, y) for k, x in enumerate(family) for y in family[k + 1 :]]
    # one pair ends on each diagonal d = 2 .. 24 of a 12 x 12 chunk
    every_diagonal = [(seq(k, "ACG"), seq(1, "ACG")) for k in range(1, 13)]
    every_diagonal += [(seq(12, "ACG"), seq(k, "ACG")) for k in range(2, 13)]
    ties = [("ACA", "CAC"), ("AACA", "CAAC"), ("AACAC", "CCAACA"), ("AACCAC", "CCACA")]
    return {
        "square": square,
        "la << lb": short_a,
        "la >> lb": [(b, a) for a, b in short_a],
        "split 48/64": split,
        "every diagonal": every_diagonal,
        "frozen ties": ties,
        "adversarial": adversarial_pairs(rng, 200),
    }


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__name__)
@pytest.mark.parametrize("case", list(kernel_cases()))
def test_kernels_match_reference(kernel, case):
    pairs, args = kernel_chunk(kernel_cases()[case])
    got = kernel(*args)
    for (a, b), row in zip(pairs, got.tolist()):
        assert tuple(row) == reference_stats(a.encode(), b.encode()), (a, b)


def test_row_kernel_at_its_key_width_limit():
    # the row kernel packs score, column and matches: 511 residues is the
    # longest chunk with int32 keys, 512 the shortest with int64 ones
    rng = np.random.default_rng(5)
    for longest in (511, 512):
        top = protein(rng, longest)
        pairs, args = kernel_chunk([(top, top), ("A", "C" * longest), ("C" * longest, "A")])
        assert seqid._align_rows(*args).tolist() == [
            [-(longest - 1), 0, longest], [-(longest - 1), 0, longest], [longest, longest, longest]
        ]


def test_wavefront_at_its_key_width_limit():
    # the wavefront packs score + i + j and matches: a square chunk of
    # 10,922 residues is the largest with int32 keys, 10,923 the smallest
    # with int64 ones; an identical pair reaches the largest key, with
    # score + i + j = 3 * longest at its last cell
    rng = np.random.default_rng(6)
    for longest in (10_922, 10_923):
        top = protein(rng, longest)
        pairs, args = kernel_chunk([(top, top), ("A", "C" * longest)])
        assert seqid._align_wavefront(*args).tolist() == [
            [-(longest - 1), 0, longest], [longest, longest, longest]
        ]


def chunk_kernels(caplog, pairs):
    """The chunks each kernel ran for ``pairs``, from the INFO line."""
    with caplog.at_level("INFO", logger="enzood.seqid"):
        assert_matches_reference(pairs)
    waves, rows = re.search(r"(\d+) wavefront and (\d+) row chunks$", caplog.messages[-1]).groups()
    return int(waves), int(rows)


@pytest.mark.parametrize("count, kernels", [(63, (0, 1)), (64, (1, 0))])
def test_align_stats_many_picks_the_wavefront_from_4096_rows_by_pairs(caplog, count, kernels):
    # 64-residue a's: 63 pairs give 4,032, 64 pairs 4,096
    rng = np.random.default_rng(count)
    pairs = [(protein(rng, 64), protein(rng, 64)) for _ in range(count)]
    assert chunk_kernels(caplog, pairs) == kernels


@pytest.mark.parametrize("eighteens, kernels", [(9, (1, 0)), (8, (0, 1))])
def test_align_stats_many_bounds_the_wavefront_padding(caplog, eighteens, kernels):
    # 72 pairs, one 64-residue a and b's of up to 5 residues: the
    # wavefront computes 72 * 64 * 5 = 23,040 cells, the row kernel the
    # sum of la times 6, which is 7,680 with nine 18-residue a's (exactly
    # a third, so the wavefront runs) and 7,674 with eight
    rng = np.random.default_rng(eighteens)
    sizes = [64] + [18] * eighteens + [17] * (71 - eighteens)
    pairs = [(protein(rng, size), random_seq(rng, 5, AA)) for size in sizes]
    pairs[0] = (pairs[0][0], "WWWWW")
    assert chunk_kernels(caplog, pairs) == kernels


def test_align_stats_many_cuts_balanced_chunks(monkeypatch):
    sizes = []

    def recording(kernel):
        def run(a, b, la, lb):
            sizes.append(len(la))
            return kernel(a, b, la, lb)
        return run

    for name in ("_align_rows", "_align_wavefront"):
        monkeypatch.setattr(seqid, name, recording(getattr(seqid, name)))
    rng = np.random.default_rng(8)
    pairs = adversarial_pairs(rng, seqid.ALIGN_CHUNK + 1)
    assert_matches_reference(pairs)
    assert sorted(sizes) == [seqid.ALIGN_CHUNK // 2, seqid.ALIGN_CHUNK // 2 + 1]


def test_align_stats_many_rejects_keys_wider_than_64_bits():
    # the longest sequence whose fields fit, and the first that does not
    longest = 2**20 - 1
    assert alignment_stats("A", "C" * longest) == (-(longest - 1), 0, longest)
    with pytest.raises(ValueError):
        alignment_stats("A", "C" * (longest + 1))


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
    assert max_identities(["YYYY"], ["WWWW"]).tolist() == [0.0]
    queries = ["ACDEFG", "ACDEG", "WWWA"]
    expected = [max(global_identity(q, t) for t in train) for q in queries]
    assert expected[0] == 1.0
    assert max_identities(queries, train).tolist() == expected
    with pytest.raises(ValueError):
        max_identities(["A"], [])


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


def chain_seqs():
    """a-b and b-c lie above 0.5 identity, a-c does not."""
    return ["A" * 20, "A" * 12 + "C" * 8, "A" * 4 + "C" * 16]


def reference_corpora():
    rng = np.random.default_rng(41)
    short = [s for fam in make_families(rng, 3, 5, length=60) for s in fam]
    long = [s for fam in make_families(rng, 2, 4, length=90, rate=0.3) for s in fam]
    loose = [random_seq(rng, 100, AA) for _ in range(8)]
    mixed = short + long + loose
    return [
        [s for fam in make_families(rng, 3, 10) for s in fam],
        [mixed[k] for k in rng.permutation(len(mixed))],
        chain_seqs() + ["W" * 20, "A" * 10 + "C" * 10],
    ]


@pytest.mark.parametrize("threshold", [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99])
def test_components_match_cluster_reference(threshold):
    # same partition, same members, same order as greedy plus merge
    for seqs in reference_corpora():
        matrix = pairwise_identity_matrix(seqs)
        labels = seqid._components(matrix, [len(s) for s in seqs], threshold)
        components = [np.flatnonzero(labels == k).tolist() for k in range(labels.max() + 1)]
        assert components == reference_clusters(seqs, matrix, threshold)


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
    a, b, c = chain_seqs()
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


def test_build_ood_splits_threshold_strict():
    # identity exactly at the threshold is no edge
    a, b = "AAAA", "AACC"
    assert global_identity(a, b) == 0.5
    records = [Rec("a", a), Rec("b", b)]
    (split,) = build_ood_splits(records, [0.5], test_fraction=0.5, seed=0)
    assert sorted(split.train_ids + split.test_ids) == ["a", "b"]
    assert len(split.test_ids) == 1
    with pytest.raises(InfeasibleSplitError):
        build_ood_splits(records, [0.49], test_fraction=0.5, seed=0)


def test_build_ood_splits_validation():
    records = [Rec("r1", "ACD"), Rec("r2", "WYV")]
    with pytest.raises(ValueError):
        build_ood_splits(records, [0.0], test_fraction=0.3, seed=0)
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


@pytest.mark.parametrize("train, test", [(("a", "a"), ("b",)), (("a",), ("b", "b"))])
def test_ood_split_rejects_an_id_repeated_within_a_half(train, test):
    with pytest.raises(ValueError, match="repeated within one half"):
        OodSplit(0.5, train, test)


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


def test_split_file_round_trip_from_numpy_thresholds(tmp_path):
    rng = np.random.default_rng(2)
    records, _ = family_records(rng)
    splits = build_ood_splits(records, np.array([0.6]), test_fraction=0.3, seed=11)
    assert type(splits[0].threshold) is float
    path = tmp_path / "splits.tsv"
    write_split_file(path, splits)
    assert read_split_file(path) == splits
    written = path.read_bytes()
    write_split_file(path, build_ood_splits(records, [0.6], test_fraction=0.3, seed=11))
    assert path.read_bytes() == written


def test_split_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("r1\tvalidation\t0.4\n")
    with pytest.raises(ValueError):
        read_split_file(path)


@pytest.mark.parametrize(
    "repeat", ["r2\ttest\t0.4", "r1\ttrain\t0.4", "r2\ttrain\t0.40"],
    ids=["test-twice", "train-twice", "both-halves"],
)
def test_split_file_rejects_an_id_repeated_at_one_threshold(tmp_path, repeat):
    """A repeated test id would be scored twice by eval."""
    path = tmp_path / "bad.tsv"
    path.write_text(f"# columns\nr1\ttrain\t0.4\nr2\ttest\t0.4\nr2\ttest\t0.6\n{repeat}\n")
    with pytest.raises(ValueError, match=r"bad\.tsv:5: malformed split line"):
        read_split_file(path)


@pytest.mark.parametrize("value", ["abc", "nan", "0", "1.5"])
def test_split_file_rejects_bad_threshold(tmp_path, value):
    path = tmp_path / "bad.tsv"
    path.write_text(f"# columns\nr1\ttrain\t0.4\nr2\ttest\t{value}\n")
    with pytest.raises(ValueError, match=r"bad\.tsv:3: malformed split line"):
        read_split_file(path)
