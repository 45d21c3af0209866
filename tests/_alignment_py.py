"""Pure-Python global alignment, the reference for enzood.seqid's kernel.

One pair at a time, one cell at a time: the plain recurrence the batched
numpy kernel must reproduce exactly.
"""


def align_stats(a: bytes, b: bytes) -> tuple[int, int, int]:
    """Needleman-Wunsch with match=+1, mismatch=0, linear gap=-1.

    Returns ``(score, matches, length)`` for the alignment the canonical
    traceback would produce: ties broken diagonal, then up (gap in ``b``),
    then left (gap in ``a``).  ``length`` counts gap columns.

    Single forward pass: each cell stores score plus the match/length
    tally of its preferred predecessor, which unrolls to exactly the
    traceback path, so no matrix is kept.
    """
    if not a or not b:
        raise ValueError("sequences must be non-empty")
    n = len(b)
    h_prev = [-j for j in range(n + 1)]
    m_prev = [0] * (n + 1)
    l_prev = list(range(n + 1))
    h_cur = [0] * (n + 1)
    m_cur = [0] * (n + 1)
    l_cur = [0] * (n + 1)
    for i, ca in enumerate(a, start=1):
        h_cur[0] = -i
        m_cur[0] = 0
        l_cur[0] = i
        for j in range(1, n + 1):
            match = 1 if ca == b[j - 1] else 0
            best = h_prev[j - 1] + match
            mm = m_prev[j - 1] + match
            ll = l_prev[j - 1] + 1
            cand = h_prev[j] - 1
            if cand > best:
                best = cand
                mm = m_prev[j]
                ll = l_prev[j] + 1
            cand = h_cur[j - 1] - 1
            if cand > best:
                best = cand
                mm = m_cur[j - 1]
                ll = l_cur[j - 1] + 1
            h_cur[j] = best
            m_cur[j] = mm
            l_cur[j] = ll
        h_prev, h_cur = h_cur, h_prev
        m_prev, m_cur = m_cur, m_prev
        l_prev, l_cur = l_cur, l_prev
    return h_prev[n], m_prev[n], l_prev[n]
