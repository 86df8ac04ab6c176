"""Exhaustive reference for the lexicographically smallest q-clique.

Tries every q-subset in `itertools.combinations` order, which is
lexicographic on sorted tuples, so the first clique it meets is the
smallest. Cost grows as C(n, q); keep it to small graphs. No imports
from the package under test; tests compare `codedbft.quorum` against
these functions.
"""

import itertools


def smallest_clique(adjacency, q):
    """First q-subset of the vertices whose pairs all list each other."""

    def joined(a, b):
        return b in adjacency.get(a, ()) and a in adjacency.get(b, ())

    for combo in itertools.combinations(sorted(adjacency), q):
        if all(joined(a, b) for a, b in itertools.combinations(combo, 2)):
            return list(combo)
    return None


def find_match_set(vectors, candidates, q):
    """Match set by the mutual-match rule; a None vector matches nobody."""

    def mutual(i, j):
        vi, vj = vectors.get(i), vectors.get(j)
        if vi is None or vj is None:
            return False
        return bool(vi[j - 1]) and bool(vj[i - 1])

    pool = sorted(set(candidates))
    for combo in itertools.combinations(pool, q):
        if all(mutual(i, j) for i, j in itertools.combinations(combo, 2)):
            return list(combo)
    return None
