"""Independent global-alignment identity oracle.

A full Needleman-Wunsch score matrix (match=+1, mismatch=0, linear
gap=-1) followed by an explicit traceback from the bottom-right cell.
At every cell the traceback takes the first predecessor that explains
the cell's score in the order diagonal, up (gap in ``b``), left (gap in
``a``), which is the tie-break ``enzood.seqid`` documents.  Identity is
identical columns over the gap-inclusive alignment length.

This deliberately shares no code with the package's kernels: it keeps
the whole matrix and walks it backwards, where the kernels carry match
and length tallies forward one row at a time.
"""

from __future__ import annotations

import numpy as np


def nw_stats(a: str, b: str) -> tuple[int, int, int]:
    """(score, matches, alignment_length) of the canonical alignment."""
    if not a or not b:
        raise ValueError("sequences must be non-empty")
    m, n = len(a), len(b)
    score = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        score[i][0] = -i
    for j in range(n + 1):
        score[0][j] = -j
    for i in range(1, m + 1):
        row, above = score[i], score[i - 1]
        ca = a[i - 1]
        for j in range(1, n + 1):
            row[j] = max(above[j - 1] + (ca == b[j - 1]), above[j] - 1, row[j - 1] - 1)
    i, j = m, n
    matches = length = 0
    while i > 0 or j > 0:
        if i > 0 and j > 0 and score[i][j] == score[i - 1][j - 1] + (a[i - 1] == b[j - 1]):
            matches += a[i - 1] == b[j - 1]
            i, j = i - 1, j - 1
        elif i > 0 and score[i][j] == score[i - 1][j] - 1:
            i -= 1
        else:
            j -= 1
        length += 1
    return score[m][n], matches, length


def nw_identity(a: str, b: str) -> float:
    _, matches, length = nw_stats(a, b)
    return matches / length


def adversarial_corpus(seed: int, count: int = 300) -> list[tuple[str, str]]:
    """Pairs built to hit alignment ties: a 4-letter alphabet, indels,
    unequal lengths, single residues and identical sequences."""
    rng = np.random.default_rng([seed, 0x0A1])
    alphabet = "ACGT"

    def word(length):
        return "".join(alphabet[k] for k in rng.integers(0, 4, size=length))

    pairs = [("A", "A"), ("A", "C"), ("A", "AAAA"), ("ACGT", "TGCA"), ("AC", "CA")]
    while len(pairs) < count:
        a = word(int(rng.integers(1, 31)))
        kind = int(rng.integers(3))
        if kind == 0:
            b = word(int(rng.integers(1, 31)))
        else:
            b = list(a)
            for _ in range(int(rng.integers(1, 6))):
                pos = int(rng.integers(len(b) + 1))
                edit = int(rng.integers(3))
                if edit == 0 or not b:
                    b.insert(pos, alphabet[int(rng.integers(4))])
                elif edit == 1:
                    del b[min(pos, len(b) - 1)]
                else:
                    b[min(pos, len(b) - 1)] = alphabet[int(rng.integers(4))]
            b = "".join(b) or "A"
        pairs.append((a, b) if kind != 2 else (b, a))
    return pairs
