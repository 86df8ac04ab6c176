"""Obligation derivation, detection flags, and claim-diagnosis rules."""

import copy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import obligation_oracle
from codedbft import consensus, rs, sim
from codedbft.consensus import (
    RULE_DISPUTE,
    RULE_FLAG,
    RULE_INCOMPLETE,
    RULE_NOT_CODEWORD,
    RULE_RECONSTRUCTION,
    STEP_HELPER,
    STEP_OWN,
    STEP_RECONSTRUCTED,
    Claims,
    detection_flag,
    matching_obligations,
    reconstruction_sources,
    run_diagnosis,
    select_decision,
)
from codedbft.diagnosis import TrustGraph
from codedbft.rs import CodeParams, encode, reconstruct_position

PARAMS = CodeParams(4, 3)
V_BLOCK = b"\x11\x22\x33"
W_BLOCK = b"\x44\x55\x66"
CV = encode(PARAMS, V_BLOCK)
CW = encode(PARAMS, W_BLOCK)


# ------------------------------------------------------------ obligations


def obligations(g, p_match):
    """A plan's sends as (sender, receiver, slot, step) tuples."""
    return obligation_oracle.flatten(matching_obligations(g, p_match))


def test_full_trust_full_match_is_own_slots_only():
    g = TrustGraph(4, 1)
    obs = obligations(g, [1, 2, 3, 4])
    assert len(obs) == 12
    assert all(step == STEP_OWN for _, _, _, step in obs)
    assert all(k == s and r != s for s, r, k, _ in obs)


def test_nonmember_resends_after_reconstruction():
    g = TrustGraph(4, 1)
    by_step = {}
    for ob in obligations(g, [1, 2, 3]):
        by_step.setdefault(ob[3], []).append(ob)
    assert len(by_step[STEP_OWN]) == 12
    assert STEP_HELPER not in by_step
    assert by_step[STEP_RECONSTRUCTED] == [
        (4, 1, 4, STEP_RECONSTRUCTED),
        (4, 2, 4, STEP_RECONSTRUCTED),
        (4, 3, 4, STEP_RECONSTRUCTED),
    ]


def test_helper_covers_distrusted_member_slots():
    g = TrustGraph(4, 1)
    g.remove_edge(2, 3)
    obs = obligations(g, [1, 2, 3, 4])
    helper = [ob for ob in obs if ob[3] == STEP_HELPER]
    assert (1, 3, 2, STEP_HELPER) in helper
    assert (1, 2, 3, STEP_HELPER) in helper
    assert len(helper) == 2
    own = [ob for ob in obs if ob[3] == STEP_OWN]
    assert len(own) == 10  # both directions of (2,3) dropped


def test_obligations_are_canonically_ordered():
    g = TrustGraph(4, 1)
    g.remove_edge(2, 3)
    obs = obligations(g, [1, 2, 3])
    wave = {STEP_OWN: 0, STEP_HELPER: 1, STEP_RECONSTRUCTED: 2}
    assert obs == sorted(obs, key=lambda ob: (wave[ob[3]], ob[0], ob[1], ob[2]))


def test_self_helper_becomes_local_copy():
    g = TrustGraph(4, 1)
    g.remove_edge(1, 2)
    # receiver 1 distrusts member 2; its lowest trusted member is itself
    plan = matching_obligations(g, [1, 2, 3, 4])
    assert plan.copies == ((1, 2), (2, 1))
    assert all(s != r for s, r, _, _ in obligation_oracle.flatten(plan))
    assert not plan.helper


@st.composite
def graphs_and_match_sets(draw):
    """A graph worn down by public removals and convictions, and a match
    set that is empty, everyone, or an unsorted list with repeats."""
    n = draw(st.integers(min_value=1, max_value=12))
    g = TrustGraph(n, (n - 1) // 3)
    ids = st.integers(min_value=1, max_value=n)
    for i, j in draw(st.lists(st.tuples(ids, ids), max_size=n)):
        if i != j:
            g.remove_edge(i, j)
    for v in draw(st.lists(ids, max_size=1)):
        g.convict(v)
    p_match = draw(st.one_of(
        st.just([]),
        st.just(list(range(1, n + 1))),
        st.lists(ids, min_size=n // 2, max_size=2 * n),
    ))
    return g, p_match


def helpers_out_of_receiver_order():
    """Receiver 3 distrusts member 1 and takes helper 2; receivers 4 and 5
    take helper 1: sender order differs from receiver order."""
    g = TrustGraph(7, 2)
    g.remove_edge(1, 3)
    g.remove_edge(4, 5)
    return g, [5, 4, 3, 2, 1, 1]


@settings(max_examples=200, deadline=None)
@given(graphs_and_match_sets())
@example(helpers_out_of_receiver_order())
def test_obligations_match_the_oracle(case):
    g, p_match = case
    plan = matching_obligations(g, p_match)
    obligation_oracle.assert_plan_matches(plan, g, p_match)
    # the tracer counts `len()` of what the engine's name returns as sends
    expected = obligation_oracle.matching_obligations(g, p_match)
    assert len(sim.matching_obligations(g, p_match)) == len(expected)
    # the own wave of another match set's plan, handed in as the plan
    # cache does, gives the same plan
    assert matching_obligations(g, p_match, matching_obligations(g, []).own) == plan
    # the own wave alone, which alg2 sends before it has a match set
    obligation_oracle.assert_plan_matches(matching_obligations(g, None), g, None)
    assert matching_obligations(g, None, plan.own).own is plan.own
    obligation_oracle.assert_plan_matches(sim._matching_plan(g, p_match), g, p_match)


# --------------------------------------------------- sources and detection


def test_reconstruction_sources_take_lowest_match_slots():
    vec = [b"\x01", None, b"\x03", b"\x04"]
    assert reconstruction_sources(vec, [1, 2, 3], 2) == [1, 3]
    assert reconstruction_sources(vec, [1, 2], 2) is None
    assert reconstruction_sources(vec, [1, 3, 4], 3) == [1, 3, 4]


def test_detection_flag_cases():
    members = (1, 2, 3, 4)
    clean = list(CV)
    assert detection_flag(PARAMS, clean, CV, True, members) is False
    erased = list(CV)
    erased[1] = None
    assert detection_flag(PARAMS, erased, CV, True, members) is False
    corrupt = list(CV)
    corrupt[1] = b"\x99"
    assert detection_flag(PARAMS, corrupt, CV, True, members) is True
    starved = [None] * 4
    starved[0] = b"\x11"
    assert detection_flag(PARAMS, starved, CV, False, members) is True
    # consistent word that differs from own coded word: caught in-match only
    other = list(CW)
    assert detection_flag(PARAMS, other, CV, False, members) is False
    assert detection_flag(PARAMS, other, CV, True, members) is True


def test_nonmember_detects_missing_match_sources():
    # exactly k symbols present, so the codeword check is vacuous, but
    # only two of them sit on match-set slots: reconstruction failed
    word = list(CV)
    word[0] = None
    word[3] = CW[3]
    assert detection_flag(PARAMS, word, CW, False, (1, 2, 3)) is True
    # the same word is fine for a processor whose match set covers it
    assert detection_flag(PARAMS, list(CV), CW, False, (1, 2, 3)) is False


# ---------------------------------------------------------- diagnosis rules


def test_a_word_showing_a_judged_codeword_needs_no_check(monkeypatch):
    asked = []

    def is_codeword(params, word):
        asked.append(list(word))
        return rs.is_codeword(params, word)
    monkeypatch.setattr(consensus, "is_codeword", is_codeword)
    verdicts = {}
    members = (1, 2, 3, 4)
    erased = [CV[0], None, CV[2], CV[3]]
    starved = [CV[0], None, None, CV[3]]
    corrupt = [CV[0], b"\x99", CV[2], CV[3]]
    assert detection_flag(PARAMS, list(CV), CV, True, members, verdicts) is False
    assert detection_flag(PARAMS, erased, CV, True, members, verdicts) is False
    assert detection_flag(PARAMS, list(CV), CV, True, members, verdicts) is False
    # below k present slots, or off the codeword, the word is judged itself
    assert detection_flag(PARAMS, starved, CV, True, members, verdicts) is True
    assert detection_flag(PARAMS, corrupt, CV, True, members, verdicts) is True
    assert asked == [list(CV), starved, corrupt]
    assert verdicts == {
        tuple(CV): True, tuple(erased): True, tuple(starved): False, tuple(corrupt): False
    }


def honest_claims(received, coded, in_match, p_match=(1, 2, 3, 4)):
    return Claims(
        detection_flag(PARAMS, received, coded, in_match, p_match), coded, received
    )


def plan_sends(g, p_match):
    """The (sender, receiver, slot) triples the engine hands diagnosis."""
    return list(sim._matching_plan(g, p_match).sends())


def fresh_world(p_match=(1, 2, 3, 4)):
    g = TrustGraph(4, 1)
    sends = plan_sends(g, p_match)
    claims = {
        p: honest_claims(list(CV), list(CV), p in p_match, p_match)
        for p in range(1, 5)
    }
    return g, sends, claims


def diagnose(g, sends, claims, p_match=(1, 2, 3, 4), threshold=3):
    return run_diagnosis(
        PARAMS, g, list(p_match), sends, claims, list(p_match), threshold
    )


def test_clean_claims_change_nothing():
    g, sends, claims = fresh_world()
    result = diagnose(g, sends, claims)
    assert result.events == []
    assert result.decide_ids == [1, 2, 3, 4]
    assert result.decide_value == V_BLOCK
    assert g.convicted == set()


def test_value_dispute_removes_the_edge():
    g, sends, claims = fresh_world()
    bad = list(CV)
    bad[1] = b"\x99"
    claims[3] = honest_claims(bad, list(CV), True)
    result = diagnose(g, sends, claims)
    assert (RULE_DISPUTE, ("edge", 2, 3)) in result.events
    assert not g.edge_present(2, 3)
    assert g.convicted == set()
    assert result.decide_ids == [1, 2, 3, 4]


def test_erasure_against_value_claim_disputes_too():
    g, sends, claims = fresh_world()
    holey = list(CV)
    holey[1] = None
    claims[3] = honest_claims(holey, list(CV), True)
    result = diagnose(g, sends, claims)
    assert (RULE_DISPUTE, ("edge", 2, 3)) in result.events
    assert result.decide_ids == [1, 2, 3, 4]


def test_member_with_noncodeword_claim_is_convicted():
    g, sends, claims = fresh_world()
    junk = list(CV)
    junk[3] = b"\x99"
    claims[2] = Claims(False, junk, list(CV))
    result = diagnose(g, sends, claims)
    assert (RULE_NOT_CODEWORD, ("convicted", 2)) in result.events
    assert g.convicted == {2}
    assert result.decide_ids == [1, 3, 4]
    assert result.decide_value == V_BLOCK


def test_silent_broadcaster_is_convicted():
    g, sends, claims = fresh_world()
    claims[2] = Claims(None, None, None)
    result = diagnose(g, sends, claims)
    assert (RULE_INCOMPLETE, ("convicted", 2)) in result.events
    assert result.decide_ids == [1, 3, 4]


def test_incomplete_coded_claim_is_convicted():
    g, sends, claims = fresh_world()
    holey = list(CV)
    holey[1] = None
    claims[2] = Claims(False, holey, list(CV))
    result = diagnose(g, sends, claims)
    assert (RULE_INCOMPLETE, ("convicted", 2)) in result.events


def test_nonmember_reconstruction_lie_is_convicted():
    p_match = (1, 2, 3)
    g = TrustGraph(4, 1)
    sends = plan_sends(g, p_match)
    # processor 4 rebuilt its slot from the match set, so an honest claim
    # shows encode-of-own-input overwritten at slot 4 with the rebuilt value
    own = list(CW)
    own[3] = CV[3]
    received = list(CV)
    claims = {p: honest_claims(list(CV), list(CV), True) for p in (1, 2, 3)}
    claims[4] = honest_claims(received, own, False)
    result = run_diagnosis(PARAMS, g, list(p_match), sends, claims, list(p_match), 3)
    assert result.events == []
    assert result.decide_ids == [1, 2, 3]

    lying = list(CW)  # kept its own slot despite claiming enough symbols
    claims[4] = Claims(False, lying, list(CV))
    g2 = TrustGraph(4, 1)
    result = run_diagnosis(
        PARAMS, g2, list(p_match), plan_sends(g2, p_match), claims,
        list(p_match), 3,
    )
    assert (RULE_RECONSTRUCTION, ("convicted", 4)) in result.events


def test_flag_contradicting_claims_is_convicted():
    g, sends, claims = fresh_world()
    claims[2] = Claims(True, list(CV), list(CV))
    result = diagnose(g, sends, claims)
    assert (RULE_FLAG, ("convicted", 2)) in result.events
    assert result.decide_ids == [1, 3, 4]


def test_rule_4_asks_once_per_flag_key(monkeypatch):
    """Claimants 1, 3 and 4 share a key, and 2's lie about its flag does
    not change it; 4 as a non-member, with the same words, has another."""
    asked = []
    real = consensus.detection_flag

    def counted(params, received, coded, in_match, *rest):
        asked.append(consensus.flag_key(received, coded, in_match))
        return real(params, received, coded, in_match, *rest)
    monkeypatch.setattr(consensus, "detection_flag", counted)
    for p_match in ((1, 2, 3, 4), (1, 2, 3)):
        g, sends, claims = fresh_world(p_match)
        claims[2] = Claims(True, list(CV), list(CV))
        asked.clear()
        result = diagnose(g, sends, claims, p_match)
        assert (RULE_FLAG, ("convicted", 2)) in result.events
        assert len(asked) == len(set(asked)) == 1 + (len(p_match) < 4)


def split_world():
    """Inputs split 2/2: everyone honestly received the slot mix."""
    g = TrustGraph(4, 1)
    sends = plan_sends(g, [1, 2, 3, 4])
    mix = [CV[0], CW[1], CV[2], CW[3]]
    claims = {}
    for p in range(1, 5):
        coded = list(CV) if p in (1, 3) else list(CW)
        claims[p] = honest_claims(list(mix), coded, True)
        assert claims[p].flag is True  # the mix is not a codeword
    return g, sends, claims


def test_split_factions_below_threshold_decide_nothing():
    g, sends, claims = split_world()
    result = diagnose(g, sends, claims)
    assert result.events == []
    assert g.convicted == set()
    assert result.decide_ids == []
    assert result.decide_value is None


def test_faction_tie_breaks_to_lex_smallest():
    g, sends, claims = split_world()
    result = diagnose(g, sends, claims, threshold=2)
    assert result.decide_ids == [1, 3]
    assert result.decide_value == V_BLOCK


def test_mutually_accusing_split_claims_collapse_the_graph():
    """Receivers claiming full copies of their own word accuse senders."""
    g, sends, claims = fresh_world()
    claims[2] = honest_claims(list(CW), list(CW), True)
    claims[4] = honest_claims(list(CW), list(CW), True)
    result = diagnose(g, sends, claims, threshold=2)
    # every vertex loses two edges, so everyone is convicted at t=1
    assert g.convicted == {1, 2, 3, 4}
    assert result.decide_ids == []


def test_decision_domain_restricts_candidates():
    g, sends, claims = fresh_world(p_match=(1, 2, 3))
    claims[4] = honest_claims(list(CV), list(CV), False)
    result = run_diagnosis(
        PARAMS, g, [1, 2, 3], sends, claims, [1, 2, 3], 3
    )
    assert result.decide_ids == [1, 2, 3]
    wider = run_diagnosis(
        PARAMS, TrustGraph(4, 1), [1, 2, 3], sends, claims, [1, 2, 3, 4], 4
    )
    assert wider.decide_ids == [1, 2, 3, 4]


def test_convicted_processors_cannot_join_the_decision():
    g, sends, claims = fresh_world()
    claims[2] = Claims(None, None, None)
    result = diagnose(g, sends, claims, threshold=2)
    assert 2 not in result.decide_ids


# ------------------------------------------------------- decision factions

P10 = CodeParams(10, 4)
A_BLOCK, B_BLOCK = b"\x01\x02\x03\x04", b"\x0a\x0b\x0c\x0d"


def test_select_decision_takes_the_largest_codeword_faction():
    a, b = encode(P10, A_BLOCK), encode(P10, B_BLOCK)
    not_codeword = list(a)
    not_codeword[9] = bytes([a[9][0] ^ 1])
    incomplete = list(a)
    incomplete[0] = None
    base = {1: b, 2: a, 3: a, 4: b, 5: a}

    def decide(junk=None, threshold=2, convicted=(), count_convicted=False):
        graph = TrustGraph(10, 3)
        for p in convicted:
            graph.convict(p)
        # four equal junk claims from 6..9 would be the largest faction
        words = {**base, **dict.fromkeys(range(6, 10), junk)}
        claims = {p: Claims(False, w and list(w), w and list(w)) for p, w in words.items()}
        return select_decision(
            P10, graph, claims, range(1, 11), threshold, count_convicted
        )

    # the larger faction wins over the one holding the lowest id
    assert decide() == ([2, 3, 5], A_BLOCK)
    # claims that are no codeword or are incomplete never count
    assert decide(not_codeword) == ([2, 3, 5], A_BLOCK)
    assert decide(incomplete) == ([2, 3, 5], A_BLOCK)
    # with 5 convicted the factions tie at two, and [1, 4] < [2, 3]
    assert decide(convicted=[5]) == ([1, 4], B_BLOCK)
    assert decide(convicted=[5], count_convicted=True) == ([2, 3, 5], A_BLOCK)
    # below the threshold nothing is decided
    assert decide(threshold=4) == ([], None)
    assert decide(threshold=3, convicted=[5]) == ([], None)


# ----------------------------------------------------- rule 5's wave order


def test_rule_5_checks_the_own_wave_before_the_helper_wave():
    """One own-wave dispute convicts processor 4 (its second lost edge),
    so the helper-wave check that would blame it on another edge first
    never runs.

    n=4, t=1, edge (1,4) already removed, match set {1,2,3}: processor 2
    helps 4 to slot 1, and non-member 4 sends slot 4 to 2 and 3.
    4's received claim is wrong on slot 1 (against 2's helper send) and
    on slot 3 (against 3's own-wave send); 2's received claim is wrong on
    slot 4 (against 4's send of it). In plan order the own wave reaches
    3 -> 4 before 4 -> 2: edge (3,4) goes, 4 is convicted and loses (2,4).
    Checked helper first, (2,4) would go first instead.
    """
    g = TrustGraph(4, 1)
    g.remove_edge(1, 4)
    p_match = [1, 2, 3]
    plan = sim._matching_plan(g, p_match)
    assert [(s, r, k) for s, k, receivers, _ in plan.helper for r in receivers] == [
        (2, 4, 1)
    ]
    received_4 = list(CV)
    received_4[0] = bytes([CV[0][0] ^ 1])
    received_4[2] = bytes([CV[2][0] ^ 1])
    coded_4 = list(CV)
    coded_4[3] = received_4[3] = reconstruct_position(PARAMS, received_4, 4, [1, 2, 3])
    received_2 = list(CV)
    received_2[3] = bytes([coded_4[3][0] ^ 1])
    words = {1: (list(CV), list(CV)), 2: (received_2, list(CV)), 3: (list(CV), list(CV)),
             4: (received_4, coded_4)}
    claims = {
        p: honest_claims(received, coded, p in p_match, p_match)
        for p, (received, coded) in words.items()
    }
    result = run_diagnosis(PARAMS, g, p_match, plan.sends(), claims, p_match, 3)
    # the conviction drops (2,4) without listing it
    assert result.events == [
        (RULE_DISPUTE, ("edge", 3, 4)),
        (RULE_DISPUTE, ("convicted", 4)),
    ]
    assert g.convicted == {4}
    assert not g.edge_present(2, 4)
    assert g.removed_count(4) == 3
    assert g.removed == {(1, 4), (2, 4), (3, 4)}
    assert result.decide_ids == [1, 2, 3]


@st.composite
def worlds_with_lying_claims(draw):
    """A worn graph and match set, and claims that start as one codeword
    and lie on random slots: a changed symbol or an erasure, in either
    vector. Flags follow the claims, so a lie in a received vector alone
    convicts no one before rule 5, and a few flags are flipped."""
    g, p_match = draw(graphs_and_match_sets())
    params = CodeParams(g.n, g.n - g.t)
    word = encode(params, draw(st.binary(min_size=params.k, max_size=params.k)))
    ids = st.integers(min_value=1, max_value=g.n)
    lie = st.one_of(st.none(), st.binary(min_size=1, max_size=1))
    vectors = {p: (list(word), list(word)) for p in range(1, g.n + 1)}
    for p, which, slot, value in draw(st.lists(
        st.tuples(ids, st.sampled_from([0, 1]), ids, lie), max_size=2 * g.n
    )):
        vectors[p][which][slot - 1] = value
    flipped = draw(st.lists(ids, max_size=2))
    claims = {
        p: Claims(
            detection_flag(params, received, coded, p in p_match, p_match) != (p in flipped),
            coded,
            received,
        )
        for p, (coded, received) in vectors.items()
    }
    return params, g, p_match, claims, draw(st.booleans())


def one_resend_dispute():
    """Member 2 received a wrong slot 4 from non-member 4: one dispute and
    no conviction, so the re-send check meets the edge already removed."""
    received_2 = list(CV)
    received_2[3] = b"\x99"
    claims = {p: honest_claims(list(CV), list(CV), p != 4, (1, 2, 3)) for p in range(1, 5)}
    claims[2] = honest_claims(received_2, list(CV), True, (1, 2, 3))
    return PARAMS, TrustGraph(4, 1), [1, 2, 3], claims, False


@settings(max_examples=300, deadline=None)
@given(worlds_with_lying_claims())
@example(one_resend_dispute())
def test_rule_5_learns_nothing_from_the_resend_wave(world):
    """Every re-send (s, r, s) repeats an own-wave check of the same two
    claim fields; convictions only grow and a removed edge stays removed,
    so checking the re-sends after the plan's sends changes nothing."""
    params, g, p_match, claims, count_convicted = world
    sends = plan_sends(g, p_match)
    resends = [ob[:3] for ob in obligations(g, p_match) if ob[3] == STEP_RECONSTRUCTED]
    outcomes = []
    for checked in (sends, sends + resends):
        graph = copy.deepcopy(g)
        result = run_diagnosis(
            params, graph, p_match, checked, claims, range(1, g.n + 1),
            g.n - g.t, count_convicted,
        )
        outcomes.append((
            result.events, graph.removed, graph.convicted,
            result.decide_ids, result.decide_value,
        ))
    assert outcomes[0] == outcomes[1]
