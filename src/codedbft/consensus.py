"""Shared protocol logic: matching obligations, detection, diagnosis.

Both consensus variants move one generation through the same three
stages. Matching spreads coded symbols point to point along the trust
graph; checking has every processor broadcast a one-bit detection flag;
when any flag is TRUE, diagnosis has every processor broadcast its full
coded and received vectors as claims, and all processors apply the same
deterministic rules to those claims: convict processors whose claims
are self-contradictory, and remove a trust edge between any
sender/receiver pair whose claims about one delivered symbol disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .diagnosis import TrustGraph
from .rs import (
    CodeParams,
    InsufficientSymbolsError,
    decode,
    is_codeword,
    reconstruct_position,
)

# matching proceeds in three send waves, one synchronous round each
STEP_OWN = "own"
STEP_HELPER = "helper"
STEP_RECONSTRUCTED = "reconstructed"

# broadcast tags
TAG_DETECTED = "detected"
TAG_MATCH_BITS = "match_bits"
TAG_CODED = "coded"
TAG_RECEIVED = "received"

# the two protocols, and what a generation can end in
ALG1 = "alg1"
ALG2 = "alg2"
OUTCOME_DECIDED = "DECIDED"
OUTCOME_DIAGNOSED = "DIAGNOSED_DECIDED"
OUTCOME_DEFAULT = "DEFAULT"
OUTCOME_TERMINATED = "TERMINATED_DEFAULT"


# the protocols' numbers, of (n, t, q) with q None for alg1: code dimension
# k (also the decision threshold), a fault-free generation's point-to-point
# symbols (alg2's bound under faults), the ceiling on diagnosis episodes
def code_dimension(n: int, t: int, q: int | None) -> int:
    return n - t if q is None else q


def generation_symbols(n: int, q: int | None) -> int:
    return (n if q is None else 2 * n - q) * (n - 1)


def episode_bound(t: int, q: int | None) -> int:
    return t * (t + 1) + (t if q is None else 0)


# one wave's sends from one sender of one slot, in plan order: (sender,
# slot, receivers, the record header bytes((sender, slot, m, *receivers)) of
# its m receivers, which an engine hashes with the slot into its wave digest)
Run = tuple[int, int, tuple[int, ...], bytes]


def wave_run(sender: int, slot: int, receivers: Iterable[int]) -> Run:
    receivers = tuple(receivers)
    return sender, slot, receivers, bytes((sender, slot, len(receivers), *receivers))


@dataclass(frozen=True)
class MatchingPlan:
    """Every network send of one matching stage, and the local copies.

    Diagnosis depends on all processors deriving the identical plan from
    (trust graph, match set) alone, so a plan never depends on private
    state or on delivered content. Each wave's sends, by (sender,
    receiver, slot), are held as runs: maximal stretches with one
    (sender, slot). `len()` of a plan is `size`, its number of sends.
    """

    own: tuple[Run, ...]
    helper: tuple[Run, ...]
    reconstructed: tuple[Run, ...]
    copies: tuple[tuple[int, int], ...]
    size: int

    def __len__(self) -> int:
        return self.size

    def sends(self) -> Iterator[tuple[int, int, int]]:
        """The own and helper waves' sends as (sender, receiver, slot), in
        plan order: every re-send repeats an own-wave triple."""
        for runs in (self.own, self.helper):
            for sender, slot, receivers, _ in runs:
                for receiver in receivers:
                    yield sender, receiver, slot


def matching_obligations(
    graph: TrustGraph, p_match: Iterable[int] | None, own: tuple[Run, ...] | None = None
) -> MatchingPlan:
    """The plan of one matching stage, or with `p_match` None of its own
    wave alone, which alg2 sends before it has a match set; `own`, when
    given, is the own wave already derived for this graph state.

    Wave 1: each processor offers its own slot to every trusted peer,
    one run per sender with a neighbour left. Wave 2: for each receiver
    that trusts a match-set member but not all of them, the lowest-index
    trusted member re-sends the slots the receiver cannot obtain
    directly; a member that is its own lowest trusted helper copies them
    locally instead. Wave 3: processors outside the match set re-send
    their own slot after rebuilding it from match-set symbols, the
    non-members' wave-1 runs. Self-deliveries are local, free, and not
    sends.
    """
    if own is None:
        own = tuple(
            wave_run(s, s, sorted(graph.neighbours(s)))
            for s in range(1, graph.n + 1) if graph.neighbours(s)
        )
    if p_match is None:
        return MatchingPlan(own, (), (), (), sum(len(run[2]) for run in own))
    chosen = set(p_match)
    members = sorted(chosen)
    helper_sends: list[tuple[int, int, int]] = []
    copies: list[tuple[int, int]] = []
    for r in range(1, graph.n + 1):
        trusted = graph.neighbours(r)
        missing = [k for k in members if k != r and k not in trusted]
        helper = next((m for m in members if m == r or m in trusted), None)
        if not missing or helper is None:
            continue
        if helper == r:
            copies += ((r, k) for k in missing)
        else:
            helper_sends += ((helper, r, k) for k in missing)
    helper_runs = tuple(
        wave_run(s, k, [r for _, r, _ in stretch])
        for (s, k), stretch in groupby(sorted(helper_sends), itemgetter(0, 2))
    )
    resends = tuple(run for run in own if run[0] not in chosen)
    size = sum(len(run[2]) for run in own + resends) + len(helper_sends)
    return MatchingPlan(own, helper_runs, resends, tuple(copies), size)


def reconstruction_sources(
    received: Sequence[bytes | None], p_match: Iterable[int], k: int
) -> list[int] | None:
    """The k lowest-index match-set slots present in `received`.

    None when fewer than k are present. Only match-set slots qualify:
    their delivered values are final after the helper wave, so every
    processor can later recompute the same reconstruction from the
    broadcast received-vector claims.
    """
    present = [m for m in sorted(set(p_match)) if received[m - 1] is not None]
    if len(present) < k:
        return None
    return present[:k]


# one generation's codeword verdicts, by word as a tuple of its slots
Verdicts = dict[tuple, bool]


def _codeword(
    params: CodeParams, word: Sequence[bytes | None], verdicts: Verdicts | None
) -> bool:
    """Whether `word` is a codeword with at least k non-erased slots, judged
    once per distinct word of `verdicts` (None: judged afresh). A word of n
    slots, k or more present, that shows a judged codeword's symbols on
    every present slot lies on that codeword's polynomial: no check."""
    verdicts = {} if verdicts is None else verdicts
    key = tuple(word)
    verdict = verdicts.get(key)
    if verdict is None:
        present = [i for i, v in enumerate(key) if v is not None]
        if len(key) == params.n and len(present) >= params.k and any(
            ok and all(c[i] == key[i] for i in present) for c, ok in verdicts.items()
        ):
            verdict = True
        else:
            try:
                verdict = is_codeword(params, word)
            except InsufficientSymbolsError:
                verdict = False
        verdicts[key] = verdict
    return verdict


def detection_flag(
    params: CodeParams,
    received: Sequence[bytes | None],
    coded: Sequence[bytes | None] | None,
    in_match: bool,
    p_match: Iterable[int],
    verdicts: Verdicts | None = None,
) -> bool:
    """TRUE when the received word is implausible or contradicts own S.

    Erased slots are skipped by the codeword check; fewer than k
    non-erased slots counts as detection (the word cannot be checked
    at all). A processor outside the match set also detects when it
    could not gather k match-set symbols: with exactly k symbols the
    codeword check is vacuous, so a starved processor must announce
    the failure rather than decode an unverifiable word. `verdicts`
    holds the generation's codeword verdicts, one per distinct word.
    """
    if not _codeword(params, received, verdicts):
        return True
    if in_match:
        if coded is not None:
            for r, s in zip(received, coded):
                if r is not None and s is not None and r != s:
                    return True
        return False
    return reconstruction_sources(received, p_match, params.k) is None


def flag_key(
    received: Sequence[bytes | None], coded: Sequence[bytes | None], in_match: bool
) -> tuple:
    """All that `detection_flag` reads of one processor in a generation:
    whether it is a match-set member, its received word and, for a member,
    its coded word. A generation's flags are asked once per key."""
    return (in_match, tuple(received), tuple(coded) if in_match else None)


@dataclass
class Claims:
    """One processor's diagnosis broadcasts; None marks silence."""

    flag: bool | None
    coded: list[bytes | None] | None
    received: list[bytes | None] | None


# conviction / dispute rule tags, as they appear in transcripts
RULE_INCOMPLETE = "incomplete-claims"
RULE_NOT_CODEWORD = "coded-claim-not-codeword"
RULE_RECONSTRUCTION = "reconstruction-mismatch"
RULE_FLAG = "flag-claims-mismatch"
RULE_DISPUTE = "claim-dispute"
RULE_SILENT_MATCH_VECTOR = "silent-match-vector"


@dataclass
class DiagnosisResult:
    """Graph updates plus the decision-set outcome of one diagnosis."""

    events: list[tuple[str, tuple]]
    decide_ids: list[int]
    decide_value: bytes | None


def run_diagnosis(
    params: CodeParams,
    graph: TrustGraph,
    p_match: Sequence[int],
    sends: Iterable[tuple[int, int, int]],
    claims: Mapping[int, Claims],
    decision_domain: Sequence[int],
    threshold: int,
    count_convicted: bool = False,
    verdicts: Verdicts | None = None,
) -> DiagnosisResult:
    """Apply the diagnosis rules to everyone's broadcast claims.

    All inputs are common knowledge (broadcasts plus deterministically
    derived state), so every fault-free processor computes this very
    function and lands on the identical graph and decision set.

    Rule order, each pass in ascending processor id:
      1. incomplete claims: a missing flag, missing vector, or a coded
         vector with erased slots proves the broadcaster faulty (a
         fault-free processor always has a complete coded word).
      2. a match-set member whose coded claim is not a codeword is
         faulty outright.
      3. a non-member whose received claims contain enough match-set
         symbols must show exactly the reconstruction they imply.
      4. a flag that does not follow from the broadcaster's own claims
         proves it faulty (honest flags are a function of the claims);
         each distinct `flag_key` is asked once.
      5. for every send (sender, receiver, slot), in plan order,
         the sender's coded claim and the receiver's received claim
         must agree on the slot; any difference, including a value
         against an erasure, removes the trust edge between them. In a
         synchronous network one of the two lied: a delivered symbol is
         received, a withheld one is not.
    Then the decision set is the largest group of domain processors
    with bit-identical complete-codeword coded claims (ties:
    lexicographically smallest id list); below `threshold` it is empty.
    With `count_convicted` the group may keep claims from processors
    convicted by the rules above: the claims were already broadcast, so
    counting them is deterministic, and any group of `threshold` or
    more claims contains a fault-free one whose codeword fixes the
    value. Without it only unconvicted processors count. Rules 2 and 4
    and the decision read the generation's `verdicts`, which the
    checking stage filled.
    """
    events: list[tuple[str, tuple]] = []

    def convict(p: int, rule: str) -> None:
        for ev in graph.convict(p):
            events.append((rule, ev))

    members = set(p_match)

    for p in sorted(claims):
        if p in graph.convicted:
            continue
        c = claims[p]
        if (
            c.flag is None
            or c.coded is None
            or c.received is None
            or None in c.coded
        ):
            convict(p, RULE_INCOMPLETE)

    for m in sorted(members):
        if m in graph.convicted or m not in claims:
            continue
        if not _codeword(params, claims[m].coded, verdicts):
            convict(m, RULE_NOT_CODEWORD)

    for j in sorted(claims):
        if j in members or j in graph.convicted:
            continue
        c = claims[j]
        sources = reconstruction_sources(c.received, members, params.k)
        if sources is None:
            continue
        if c.coded[j - 1] != reconstruct_position(params, c.received, j, sources):
            convict(j, RULE_RECONSTRUCTION)

    flags: dict[tuple, bool] = {}
    for p in sorted(claims):
        if p in graph.convicted:
            continue
        c = claims[p]
        key = flag_key(c.received, c.coded, p in members)
        if key not in flags:
            flags[key] = detection_flag(
                params, c.received, c.coded, p in members, members, verdicts
            )
        if c.flag != flags[key]:
            convict(p, RULE_FLAG)

    for sender, receiver, slot in sends:
        # a removed edge can convict a sender partway through its sends
        if sender in graph.convicted or receiver in graph.convicted:
            continue
        if claims[sender].coded[slot - 1] != claims[receiver].received[slot - 1]:
            for ev in graph.remove_edge(sender, receiver):
                events.append((RULE_DISPUTE, ev))

    decide_ids, decide_value = select_decision(
        params, graph, claims, decision_domain, threshold, count_convicted, verdicts
    )
    return DiagnosisResult(events, decide_ids, decide_value)


def select_decision(
    params: CodeParams,
    graph: TrustGraph,
    claims: Mapping[int, Claims],
    decision_domain: Sequence[int],
    threshold: int,
    count_convicted: bool = False,
    verdicts: Verdicts | None = None,
) -> tuple[list[int], bytes | None]:
    """Largest equal-coded-claim group meeting the threshold, if any.

    Only complete codeword claims are eligible: the group's value must
    decode, and a fault-free processor's coded claim in the domain is
    always a complete codeword. Claims are judged through `verdicts`.
    """
    factions: dict[tuple, list[int]] = {}
    for p in sorted(set(decision_domain)):
        if p not in claims:
            continue
        if not count_convicted and p in graph.convicted:
            continue
        coded = claims[p].coded
        if coded is None or None in coded:
            continue
        if not _codeword(params, coded, verdicts):
            continue
        factions.setdefault(tuple(coded), []).append(p)
    if not factions:
        return [], None
    best = min(factions.values(), key=lambda ids: (-len(ids), ids))
    if len(best) < threshold:
        return [], None
    return best, decode(params, claims[best[0]].coded, checked=True)
