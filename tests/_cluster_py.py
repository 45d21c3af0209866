"""Greedy clustering plus merge closure, the order reference for
enzood.seqid's identity components.

The two-step construction the split code once used: representative
clustering, then a union of every pair of clusters that still shares a
pair above the threshold.  Its clusters, their members and their order
are what ``seqid._components`` must reproduce.
"""

import numpy as np

from enzood.seqid import pairwise_identity_matrix


def greedy_cluster(seqs, threshold, matrix=None) -> list[list[int]]:
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
    if matrix is None:
        matrix = pairwise_identity_matrix(seqs)
    order = sorted(range(len(seqs)), key=lambda i: (-len(seqs[i]), i))
    clusters = []
    for idx in order:
        for members in clusters:
            if matrix[idx, members[0]] > threshold:
                members.append(idx)
                break
        else:
            clusters.append([idx])
    return clusters


def merge_violating_clusters(clusters, matrix, threshold) -> list[list[int]]:
    """Union clusters until no cross-cluster pair exceeds the threshold.

    Representative clustering bounds member-to-representative identity
    only, so clusters are transitively merged along every pair above the
    threshold.  Merged clusters keep the position of their earliest
    cluster and list their members in ascending order.
    """
    parent = list(range(len(clusters)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cluster_of = {u: ci for ci, members in enumerate(clusters) for u in members}
    iu, ju = np.triu_indices(matrix.shape[0], k=1)
    above = matrix[iu, ju] > threshold
    for i, j in zip(iu[above], ju[above]):
        ra, rb = find(cluster_of[int(i)]), find(cluster_of[int(j)])
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    merged = {}
    for ci, members in enumerate(clusters):
        merged.setdefault(find(ci), []).extend(members)
    return [sorted(members) for _, members in sorted(merged.items())]


def reference_clusters(seqs, matrix, threshold) -> list[list[int]]:
    """Greedy clusters of ``seqs`` merged along every pair above
    ``threshold``."""
    return merge_violating_clusters(greedy_cluster(seqs, threshold, matrix), matrix, threshold)
