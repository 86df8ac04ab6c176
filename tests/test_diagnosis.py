"""Trust-graph tests, including an independent batch fixpoint oracle.

The oracle recomputes conviction closure from the whole dispute set at
once; the graph under test settles incrementally after each removal.
Both must land on identical final states for any dispute sequence.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedbft.consensus import matching_obligations
from codedbft.diagnosis import ConfigurationError, TrustGraph


def present_edges(g):
    return {(i, j) for i in range(1, g.n + 1) for j in g.neighbours(i) if i < j}


def settle_oracle(n, t, disputes):
    """Final (present_edges, convicted) by whole-set recomputation."""
    all_edges = {(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    removed = {(min(i, j), max(i, j)) for i, j in disputes}
    convicted = set()
    while True:
        counts = {v: 0 for v in range(1, n + 1)}
        for i, j in removed:
            counts[i] += 1
            counts[j] += 1
        newly = {v for v in counts if counts[v] >= t + 1} - convicted
        if not newly:
            return all_edges - removed, convicted
        convicted |= newly
        for v in newly:
            for u in range(1, n + 1):
                if u != v:
                    removed.add((min(u, v), max(u, v)))


# -------------------------------------------------------------- creation


def test_fresh_graph_is_complete():
    g = TrustGraph(4, 1)
    assert len(present_edges(g)) == 6
    assert g.convicted == set()
    assert len(present_edges(TrustGraph(7, 2))) == 21


def test_resilience_bound_enforced():
    with pytest.raises(ConfigurationError):
        TrustGraph(3, 1)
    with pytest.raises(ConfigurationError):
        TrustGraph(6, 2)
    with pytest.raises(ConfigurationError):
        TrustGraph(4, -1)


# ----------------------------------------------------------------- trust


def test_trust_is_symmetric_and_reflexive():
    g = TrustGraph(4, 1)
    assert g.edge_present(1, 2)
    g.remove_edge(1, 2)
    assert not g.edge_present(1, 2)
    assert not g.edge_present(2, 1)
    # self-trust is implicit (see test_match_helper_uses_self_trust)
    assert 3 not in g.neighbours(3)
    g.convict(3)
    assert not g.neighbours(3)


def test_removal_is_idempotent():
    a, b = TrustGraph(4, 1), TrustGraph(4, 1)
    a.remove_edge(1, 2)
    b.remove_edge(1, 2)
    assert b.remove_edge(2, 1) == []
    assert present_edges(a) == present_edges(b)
    assert a.convicted == b.convicted


def test_vertex_range_checked():
    g = TrustGraph(4, 1)
    with pytest.raises(ValueError):
        g.edge_present(0, 1)
    with pytest.raises(ValueError):
        g.remove_edge(1, 5)
    with pytest.raises(ValueError):
        g.remove_edge(2, 2)


# ------------------------------------------------------------ conviction


def test_threshold_conviction_removes_remaining_edges():
    g = TrustGraph(4, 1)
    assert g.remove_edge(1, 2) == [("edge", 1, 2)]
    # the conviction implies the edge (1,4) it drops, and lists none
    assert g.remove_edge(1, 3) == [("edge", 1, 3), ("convicted", 1)]
    assert g.convicted == {1}
    assert not g.edge_present(1, 4)
    assert g.removed_count(1) == 3
    assert g.removed == {(1, 2), (1, 3), (1, 4)}
    assert g.unconvicted() == [2, 3, 4]


def test_a_conviction_cascade_lists_only_its_convictions():
    g = TrustGraph(4, 1)
    g.remove_edge(3, 4)
    # dropping 1's edges takes 3 and 4 past t; convicting 3 then takes 2,
    # the lowest vertex over t, before 4
    assert g.convict(1) == [("convicted", 1), ("convicted", 3), ("convicted", 2),
                            ("convicted", 4)]
    assert present_edges(g) == set()
    assert all(g.removed_count(v) == 3 for v in range(1, 5))


def test_direct_conviction_is_total_and_idempotent():
    g = TrustGraph(7, 2)
    assert g.convict(5) == [("convicted", 5)]
    assert g.convict(5) == []
    assert g.removed_count(5) == 6
    assert not any(g.edge_present(5, u) for u in (1, 2, 3, 4, 6, 7))
    assert g.removed == {(min(5, u), max(5, u)) for u in (1, 2, 3, 4, 6, 7)}


def test_six_disputes_collapse_seven_vertices():
    """Convicting 1..4 pushes every remaining vertex past the threshold."""
    g = TrustGraph(7, 2)
    disputes = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for i, j in disputes:
        g.remove_edge(i, j)
    assert g.convicted == {1, 2, 3, 4, 5, 6, 7}
    assert present_edges(g) == set()
    oracle_edges, oracle_convicted = settle_oracle(7, 2, disputes)
    assert present_edges(g) == oracle_edges
    assert g.convicted == oracle_convicted


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=1, max_value=7),
        ).filter(lambda e: e[0] != e[1]),
        max_size=21,
    )
)
def test_incremental_settling_matches_batch_oracle(disputes):
    g = TrustGraph(7, 2)
    edges_before = present_edges(g)
    for i, j in disputes:
        g.remove_edge(i, j)
        edges_after = present_edges(g)
        # monotone: edges only disappear
        assert edges_after <= edges_before
        edges_before = edges_after
    oracle_edges, oracle_convicted = settle_oracle(7, 2, disputes)
    assert present_edges(g) == oracle_edges
    assert g.convicted == oracle_convicted
    # at fixpoint the conviction rule is exact in both directions
    for v in range(1, 8):
        assert (g.removed_count(v) >= 3) == (v in g.convicted)


# --------------------------------------------------------- removed edges


def test_removed_edges_track_effective_removals_only():
    g = TrustGraph(7, 2)
    assert g.removed == frozenset()
    g.remove_edge(2, 1)
    after_first = g.removed
    assert after_first == {(1, 2)}
    assert g.remove_edge(1, 2) == []
    assert g.removed is after_first
    g.remove_edge(1, 3)
    assert g.removed == after_first | {(1, 3)}


def test_removed_edges_take_a_direct_conviction_once():
    g = TrustGraph(7, 2)
    g.convict(5)
    convicted = g.removed
    assert convicted == {(min(5, u), max(5, u)) for u in range(1, 8) if u != 5}
    assert g.convict(5) == []
    assert g.removed is convicted


def test_removed_edges_take_a_threshold_conviction():
    g = TrustGraph(4, 1)
    g.remove_edge(1, 2)
    before = g.removed
    assert g.remove_edge(1, 3) == [("edge", 1, 3), ("convicted", 1)]
    # the dispute and the convict's last edge, each removed once, though
    # only the dispute is an event
    assert g.removed == before | {(1, 3), (1, 4)}
    assert not g.edge_present(1, 4)
    assert g.removed_count(1) == 3
    assert g.to_jsonable()["removed_edges"] == [[1, 2], [1, 3], [1, 4]]


# ---------------------------------------------------------------- helper


def helper_sends(g, p_match, receiver):
    """(helper, slot) of each helper-wave send to `receiver`."""
    return [
        (s, k) for s, k, receivers, _ in matching_obligations(g, p_match).helper
        if receiver in receivers
    ]


def test_match_helper_prefers_lowest_trusted_member():
    g = TrustGraph(7, 2)
    g.remove_edge(3, 4)
    assert helper_sends(g, {1, 2, 4}, 3) == [(1, 4)]
    g.remove_edge(3, 1)
    assert helper_sends(g, {1, 2, 4}, 3) == [(2, 1), (2, 4)]
    g = TrustGraph(7, 2)
    g.remove_edge(3, 5)
    # 3 trusts no member, so nobody helps it
    assert helper_sends(g, {5}, 3) == []
    assert matching_obligations(g, {5}).copies == ()


def test_match_helper_uses_self_trust():
    g = TrustGraph(4, 1)
    g.remove_edge(3, 1)
    g.remove_edge(3, 2)
    # member 3 is its own lowest trusted member: a local copy, no send
    assert helper_sends(g, {1, 2, 3}, 3) == []
    assert {(3, 1), (3, 2)} <= set(matching_obligations(g, {1, 2, 3}).copies)


# ------------------------------------------------------------ transcript


def test_jsonable_snapshot():
    g = TrustGraph(4, 1)
    g.remove_edge(2, 4)
    snap = g.to_jsonable()
    assert snap == {
        "n": 4,
        "t": 1,
        "removed_edges": [[2, 4]],
        "convicted": [],
    }
