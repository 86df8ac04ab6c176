"""Match-bit computation and deterministic q-clique selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import clique_oracle as oracle
from codedbft.quorum import compute_match_bits, find_match_set, first_clique
from codedbft.rs import CodeParams, encode


def test_match_bits_require_delivery_and_equality():
    params = CodeParams(4, 2)
    coded = encode(params, b"\xde\xad")
    received = list(coded)
    received[1] = None
    received[2] = b"\x00"
    assert compute_match_bits(received, coded) == 0b1001


def test_match_bits_all_true_for_identical_words():
    params = CodeParams(4, 2)
    coded = encode(params, b"\x12\x34")
    assert compute_match_bits(list(coded), coded) == 0b1111


def mask(bits):
    """A match vector from its bools: bit j-1 is set iff bits[j-1]."""
    return sum(1 << j for j, bit in enumerate(bits) if bit)


def bools(vector, n):
    """A match vector as the tuple of bools `clique_oracle` reads."""
    return None if vector is None else tuple(vector >> j & 1 == 1 for j in range(n))


def complete_vectors(n):
    return {i: (1 << n) - 1 for i in range(1, n + 1)}


def test_complete_graph_selects_lex_smallest_clique():
    assert find_match_set(complete_vectors(7), range(1, 8), 5) == [1, 2, 3, 4, 5]


def test_two_small_cliques_cannot_make_a_big_one():
    a, b = {1, 2, 3, 4}, {5, 6, 7}
    vectors = {}
    for i in range(1, 8):
        side = a if i in a else b
        vectors[i] = mask(j in side for j in range(1, 8))
    assert find_match_set(vectors, range(1, 8), 5) is None
    assert find_match_set(vectors, range(1, 8), 4) == [1, 2, 3, 4]
    assert find_match_set(vectors, range(1, 8), 3) == [1, 2, 3]


def test_match_must_be_mutual():
    vectors = complete_vectors(4)
    vectors[2] = 0b1011  # 2 does not match 3
    assert find_match_set(vectors, range(1, 5), 3) == [1, 2, 4]


def test_withheld_vector_matches_nobody():
    vectors = complete_vectors(4)
    vectors[1] = None
    assert find_match_set(vectors, range(1, 5), 4) is None
    assert find_match_set(vectors, range(1, 5), 3) == [2, 3, 4]


def test_candidate_filter_excludes_convicted():
    vectors = complete_vectors(4)
    assert find_match_set(vectors, [2, 3, 4], 3) == [2, 3, 4]


# ------------------------------------------------- branch-and-bound vs oracle


@st.composite
def match_vectors(draw):
    """Vector maps, as masks, with a planted dense core, None and missing
    vectors."""
    n = draw(st.integers(1, 12))
    core = draw(st.sets(st.integers(1, n)))
    vectors = {}
    for i in range(1, n + 1):
        kind = draw(st.sampled_from(["bits", "bits", "bits", "none", "missing"]))
        if kind == "missing":
            continue
        if kind == "none":
            vectors[i] = None
            continue
        bits = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        vectors[i] = mask(
            b or (i in core and j in core) for j, b in enumerate(bits, start=1)
        )
    candidates = draw(
        st.one_of(
            st.just(list(range(1, n + 1))),
            st.lists(st.integers(1, n), max_size=2 * n),
            st.permutations(range(1, n + 1)),
        )
    )
    return n, vectors, candidates


@settings(max_examples=300, deadline=None)
@given(match_vectors())
def test_find_match_set_matches_oracle(case):
    n, vectors, candidates = case
    as_bools = {i: bools(v, n) for i, v in vectors.items()}
    for q in range(1, n + 1):
        assert find_match_set(vectors, candidates, q) == oracle.find_match_set(
            as_bools, candidates, q
        ), f"q={q}"


def uncached_match_set(vectors, candidates, q):
    """`first_clique` on the candidates' mutual rows, built bit by bit."""
    pool = set(candidates)
    vector = {i: vectors.get(i) or 0 for i in pool}
    rows = [
        sum(1 << j - 1 for j in pool if j != i and vector[i] >> j - 1 & vector[j] >> i - 1 & 1)
        if i in pool else 0
        for i in range(1, max(pool, default=0) + 1)
    ]
    found = first_clique(rows, sum(1 << i - 1 for i in pool), q)
    return None if found is None else [i + 1 for i in found]


@settings(max_examples=300, deadline=None)
@given(match_vectors(), st.data())
def test_each_match_set_key_answers_as_the_uncached_search(case, data):
    """The search is cached by candidates, their vectors and q: the same
    candidates in another order or form, and vectors that differ only
    off the candidates, ask the same key, and every answer is the one
    the uncached search gives."""
    n, vectors, candidates = case
    pool = sorted(set(candidates))
    others = {
        **vectors,
        **{i: data.draw(st.none() | st.integers(0, (1 << n) - 1))
           for i in range(1, n + 1) if i not in pool},
    }
    for q in range(1, n + 1):
        want = uncached_match_set(vectors, candidates, q)
        for form in (candidates, pool[::-1], pool + pool, candidates):  # the last asks again
            assert find_match_set(vectors, form, q) == want, f"q={q}"
        assert find_match_set(others, iter(pool), q) == want, f"q={q}"
        assert find_match_set(vectors, range(1, n + 1), q) == (
            uncached_match_set(vectors, range(1, n + 1), q)
        ), f"q={q}"


def test_a_returned_match_set_is_the_callers_own():
    vectors = complete_vectors(7)
    first = find_match_set(vectors, range(1, 8), 5)
    first[0] = 7
    first.append(6)
    again = find_match_set(dict(vectors), [7, 6, 5, 4, 3, 2, 1], 5)
    assert again == [1, 2, 3, 4, 5] and again is not first
    assert find_match_set(vectors, range(1, 8), 5) == [1, 2, 3, 4, 5]


@st.composite
def adjacency_maps(draw):
    """Adjacency maps with a planted core, one-sided entries, self-loops
    and neighbours outside the map."""
    n = draw(st.integers(1, 12))
    vertices = sorted(draw(st.sets(st.integers(1, n + 2), min_size=1)))
    core = draw(st.sets(st.sampled_from(vertices)))
    adjacency = {}
    for v in vertices:
        nbrs = set(draw(st.lists(st.integers(1, n + 2), max_size=n + 2)))
        adjacency[v] = nbrs | core if v in core else nbrs
    return adjacency


@settings(max_examples=300, deadline=None)
@given(adjacency_maps())
def test_smallest_clique_matches_oracle(adjacency):
    """`first_clique` on row masks: vertex v is bit `index[v]`, and an
    edge is read only where both ends list each other."""
    order = sorted(adjacency)
    index = {v: i for i, v in enumerate(order)}
    rows = [
        sum(1 << index[u] for u in adjacency[v] if u != v and v in adjacency.get(u, ()))
        for v in order
    ]
    for q in range(1, len(adjacency) + 1):
        found = first_clique(rows, (1 << len(order)) - 1, q)
        assert (None if found is None else [order[i] for i in found]) == (
            oracle.smallest_clique(adjacency, q)
        ), f"q={q}"


def turan_vectors(n, parts, layout):
    """Match vectors of the complete `parts`-partite graph T(n, parts)."""
    if layout == "interleaved":
        part = {i: i % parts for i in range(1, n + 1)}
    else:
        part = {i: (i - 1) * parts // n for i in range(1, n + 1)}
    vectors = {
        i: mask(part[i] != part[j] for j in range(1, n + 1)) for i in range(1, n + 1)
    }
    return vectors, part


@pytest.mark.parametrize("layout", ["interleaved", "blocks"])
@pytest.mark.parametrize("n,q", [
    (19, 7), (22, 8), (26, 9), (30, 10), (34, 11),
    # ids above 63, past one machine word, up to the codec's n=255
    (64, 22), (127, 43), (200, 67), (255, 85), (255, 128),
])
def test_turan_graph_has_no_q_clique(n, q, layout):
    vectors, part = turan_vectors(n, q - 1, layout)
    assert find_match_set(vectors, range(1, n + 1), q) is None
    # one vertex per part makes a (q-1)-clique; the smallest vertex of
    # each part gives the lexicographically smallest one
    smallest = sorted(
        min(i for i in part if part[i] == p) for p in set(part.values())
    )
    assert find_match_set(vectors, range(1, n + 1), q - 1) == smallest
