"""Match vectors and per-generation match-set (quorum) selection.

The q-validity variant has no persistent match set: every generation,
each processor broadcasts which slot senders agreed with its own coded
word, and the match set is the lexicographically smallest q-clique of
the resulting mutual-match graph. All processors see the same vectors,
so they select the identical set with no extra communication.

A match vector is an n-bit int: bit j-1 is set iff slot j matched. The
clique search is bit-parallel (San Segundo, Rodriguez-Losada and
Jimenez, Computers & OR 38(2), 2011): vertex sets and neighbourhoods
are masks. It first peels away every vertex with fewer than q-1 live
neighbours, which no q-clique can contain, then extends a partial
clique by its lowest candidate bit. A branch is cut once too few
candidates remain to reach q, or once a greedy colouring of the
candidates (the bound of Tomita and Seki's MCQ, DMTCS 2003) uses too
few colours: a clique has at most one vertex of each colour. Branches
are tried in ascending vertex order and a cut never removes a q-clique,
so the first clique found is the lexicographically smallest one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import eq
from typing import Iterable, Mapping, Sequence

# 1 << j by j, for `compress` to pick the bits of the selected slots
_POW2 = tuple(1 << j for j in range(256))


def compute_match_bits(
    received: Sequence[bytes | None], coded: Sequence[bytes | None]
) -> int:
    """Bit j-1 is set iff slot j was delivered and equals own S[j]."""
    bits = sum(compress(_POW2, map(eq, received, coded)))
    if not all(coded):  # a slot missing from both words is still no match
        bits &= ~sum(compress(_POW2, [r is None for r in received]))
    return bits


def first_clique(rows: Sequence[int], live: int, q: int) -> list[int] | None:
    """Lexicographically smallest q-clique, as ascending bit positions, of
    the vertices in the mask `live`; `rows[v]` is the mask of v's
    neighbours, symmetric and without v."""
    # peel: a vertex of a q-clique keeps its q-1 clique neighbours live
    while drop := sum(
        1 << v for v, row in enumerate(rows)
        if live >> v & 1 and (row & live).bit_count() < q - 1
    ):
        live ^= drop
    if live.bit_count() < q:
        return None

    def extend(size: int, candidates: int) -> list[int] | None:
        if size == q:
            return []
        # greedy colouring, one colour class at a time in ascending order,
        # stopped once enough colours are in use: a clique takes one vertex
        # per colour class at most
        uncoloured = candidates
        for _ in range(q - size):
            if not uncoloured:
                return None
            free = uncoloured
            while free:
                low = free & -free
                uncoloured ^= low
                free &= ~(low | rows[low.bit_length() - 1])
        while size + candidates.bit_count() >= q:
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            found = extend(size + 1, candidates & rows[v])
            if found is not None:
                return [v, *found]
        return None

    return extend(0, live)


def find_match_set(
    vectors: Mapping[int, int | None], candidates: Iterable[int], q: int
) -> list[int] | None:
    """Lexicographically smallest q-clique of the mutual-match graph.

    Vertices are the distinct candidates. Candidates i and j are joined
    when bit j-1 of vi and bit i-1 of vj are both set; a processor that
    withheld its vector (None) matches nobody. Each row keeps only mutual
    bits, and a non-candidate's row is empty, so the set `first_clique`
    finds is the one an exhaustive search in `itertools.combinations`
    order would return. The search runs once per distinct candidate set,
    their vectors and q; each call returns a list of its own.
    """
    pool = tuple(sorted(set(candidates)))
    found = _match_set(pool, tuple(vectors.get(i) or 0 for i in pool), q)
    return None if found is None else list(found)


@lru_cache(maxsize=2048)  # a pass of 600 random-adversary sweep runs asks ~950
def _match_set(pool: tuple[int, ...], masks: tuple[int, ...], q: int) -> tuple | None:
    """`find_match_set` for ascending candidates `pool` and their vectors."""
    width = max(pool, default=0)
    rows = [0] * width
    for i, mask in zip(pool, masks):
        rows[i - 1] = mask & ~_POW2[i - 1]
    # a vertex of a q-clique matches q-1 others, one way at least
    if sum(row.bit_count() >= q - 1 for row in rows) < q:
        return None
    # columns up to the widest candidate: char i of column j is bit j of row i
    text = [format(row, f"0{width}b")[::-1] for row in rows]
    rows = [row & int("".join(col)[::-1], 2) for row, col in zip(rows, zip(*text))]
    found = first_clique(rows, sum(_POW2[c - 1] for c in pool), q)
    return None if found is None else tuple(i + 1 for i in found)
