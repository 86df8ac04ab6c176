"""Match vectors and per-generation match-set (quorum) selection.

The q-validity variant has no persistent match set: every generation,
each processor broadcasts which slot senders agreed with its own coded
word, and the match set is the lexicographically smallest q-clique of
the resulting mutual-match graph. All processors see the same vectors,
so they select the identical set with no extra communication.

The clique search is an ordered branch-and-bound in the style of
Bron-Kerbosch (CACM 1973, Algorithm 457). It first peels away every
vertex with fewer than q-1 live neighbours, which no q-clique can
contain, then extends a partial clique in ascending vertex order. A
branch is cut once too few candidates remain to reach q, or once a
greedy colouring of the candidates (the bound of Tomita and Seki's
MCQ, DMTCS 2003) uses too few colours: a clique has at most one vertex
of each colour. Branches are tried in lexicographic order and a cut
never removes a q-clique, so the first clique found is the
lexicographically smallest one.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def compute_match_bits(
    received: Sequence[bytes | None], coded: Sequence[bytes | None]
) -> tuple[bool, ...]:
    """bits[j-1] is TRUE iff slot j was delivered and equals own S[j]."""
    return tuple([r is not None and r == s for r, s in zip(received, coded)])


def smallest_clique(adjacency: Mapping[int, set[int]], q: int) -> list[int] | None:
    """Lexicographically smallest q-clique (sorted) of an undirected graph.

    `adjacency` maps each vertex to its neighbours; an edge is read only
    where both ends list each other, and neighbours outside the mapping
    are ignored.
    """
    live = {v: {u for u in nbrs if u != v and v in adjacency.get(u, ())}
            for v, nbrs in adjacency.items()}
    # peel: a vertex of a q-clique keeps its q-1 clique neighbours live
    low = [v for v, nbrs in live.items() if len(nbrs) < q - 1]
    while low:
        v = low.pop()
        for u in live.pop(v):
            nbrs = live[u]
            nbrs.discard(v)
            if len(nbrs) == q - 2:
                low.append(u)
    if len(live) < q:
        return None

    def extend(clique: list[int], candidates: list[int]) -> list[int] | None:
        if len(clique) == q:
            return clique
        # greedy colouring, stopped once enough colours are in use: a
        # clique takes one vertex per colour class at most
        need = q - len(clique)
        classes: list[set[int]] = []
        for v in candidates:
            nbrs = live[v]
            for cls in classes:
                if cls.isdisjoint(nbrs):
                    cls.add(v)
                    break
            else:
                classes.append({v})
                if len(classes) == need:
                    break
        if len(classes) < need:
            return None
        for index, v in enumerate(candidates):
            if len(clique) + len(candidates) - index < q:
                return None
            nbrs = live[v]
            found = extend(
                clique + [v], [u for u in candidates[index + 1:] if u in nbrs]
            )
            if found is not None:
                return found
        return None

    return extend([], sorted(live))


def find_match_set(
    vectors: Mapping[int, Sequence[bool] | None],
    candidates: Sequence[int],
    q: int,
) -> list[int] | None:
    """Lexicographically smallest q-clique of the mutual-match graph.

    Vertices are the distinct candidates. Candidates i and j are joined
    when vi[j-1] and vj[i-1] are both TRUE; a processor that withheld
    its vector (None) matches nobody. Each candidate's neighbour set is
    built once and searched by `smallest_clique` (see the module notes),
    so the set found is the one an exhaustive search in
    `itertools.combinations` order would return.
    """
    pool = set(candidates)
    adjacency: dict[int, set[int]] = {}
    for i in pool:
        vi = vectors.get(i)
        adjacency[i] = set() if vi is None else {j for j in pool if vi[j - 1]}
    return smallest_clique(adjacency, q)
