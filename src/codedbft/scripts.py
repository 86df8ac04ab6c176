"""Hand-built adversary scripts, each aimed at one diagnosis rule.

Random scripts explore the action grammar broadly; the cases here pin
the corner each rule exists for, so a test suite can assert that every
conviction and dispute path actually fires.

Builders assume the deterministic worst-case layout used throughout
the test suite: the faulty processor is the highest index (plus index
1 for the two-fault helper case), every fault-free processor holds
processor 1's input for alg1 runs, and processors 1..n-t share
processor 1's input for alg2 runs. Under that layout each case is
guaranteed to produce at least one graph event carrying one of its
`expected_rules` tags, and the execution still has to PASS.
"""

from __future__ import annotations

from dataclasses import dataclass

from .consensus import (
    RULE_DISPUTE,
    RULE_FLAG,
    RULE_INCOMPLETE,
    RULE_NOT_CODEWORD,
    RULE_RECONSTRUCTION,
    RULE_SILENT_MATCH_VECTOR,
    STEP_HELPER,
    STEP_OWN,
    STEP_RECONSTRUCTED,
    TAG_CODED,
    TAG_DETECTED,
    TAG_MATCH_BITS,
    TAG_RECEIVED,
)
from .rs import encode, word_hex
from .sim import (
    ALG1,
    BCAST_REPLACE,
    BCAST_SILENT,
    SEND_CORRUPT,
    SEND_REPLACE,
    SEND_SILENT,
    AdversaryScript,
    ExecutionConfig,
)


@dataclass(frozen=True)
class CraftedCase:
    """One scripted attack plus the diagnosis evidence it must produce."""

    name: str
    script: AdversaryScript
    expected_rules: frozenset[str]


def _mask(sym_bytes: int, first: int = 0xFF) -> bytes:
    # XOR masks corrupt the first byte only; any nonzero byte works
    return bytes([first]) + b"\x00" * (sym_bytes - 1)


def _data_step(config: ExecutionConfig) -> str:
    """The wave whose corruption survives into the checked word.

    An alg2 non-member's own-wave symbol is overwritten by its re-send,
    so only re-send corruption is visible there; alg1 starts with every
    processor in the match set, where the own wave is final.
    """
    return STEP_OWN if config.algorithm == ALG1 else STEP_RECONSTRUCTED


def corrupt_symbol_case(config: ExecutionConfig) -> CraftedCase:
    """One flipped symbol to one receiver: the minimal dispute."""
    f = config.n
    script = AdversaryScript([f])
    script.add_send(1, _data_step(config), f, 1, SEND_CORRUPT, _mask(config.sym_bytes))
    return CraftedCase("corrupt-single-symbol", script, frozenset({RULE_DISPUTE}))


def equivocation_case(config: ExecutionConfig) -> CraftedCase:
    """Different symbols to t+1 receivers while claiming the honest word.

    Every poisoned receiver disputes the sender, and t+1 removed edges
    convict it without any single claim being provably false.
    """
    f = config.n
    script = AdversaryScript([f])
    camp = list(range(config.n - 1, config.n - 2 - config.t, -1))
    for idx, r in enumerate(camp):
        script.add_send(
            1, _data_step(config), f, r,
            SEND_CORRUPT, _mask(config.sym_bytes, 0xFF >> idx),
        )
    return CraftedCase("honest-looking-equivocation", script, frozenset({RULE_DISPUTE}))


def false_detected_case(config: ExecutionConfig) -> CraftedCase:
    """A Detected flag that the broadcaster's own claims contradict."""
    f = config.n
    script = AdversaryScript([f])
    script.add_broadcast(1, TAG_DETECTED, f, BCAST_REPLACE, True)
    return CraftedCase("false-detected-flag", script, frozenset({RULE_FLAG}))


def lying_received_claim_case(config: ExecutionConfig) -> CraftedCase:
    """A broadcast lie about what an honest sender delivered.

    The liar's claims stay self-consistent (the lie justifies its
    Detected flag), so only the cross-check against the honest sender's
    claim can catch it. When the misreported slot feeds the liar's own
    reconstruction the recompute rule convicts it outright instead.
    """
    f = config.n
    params = config.code_params()
    honest = encode(params, config.input_block(1, 1))
    if config.algorithm == ALG1:
        victim = 1
        expected = frozenset({RULE_DISPUTE})
    else:
        outsiders = [j for j in range(config.q + 1, config.n) if j != f]
        victim = outsiders[0] if outsiders else 1
        expected = frozenset(
            {RULE_DISPUTE} if outsiders else {RULE_RECONSTRUCTION}
        )
    lie = list(honest)
    lie[victim - 1] = bytes(b ^ 0xFF for b in honest[victim - 1])
    script = AdversaryScript([f])
    script.add_broadcast(1, TAG_DETECTED, f, BCAST_REPLACE, True)
    script.add_broadcast(1, TAG_RECEIVED, f, BCAST_REPLACE, word_hex(lie))
    return CraftedCase("broadcast-lie-received-claim", script, expected)


def silent_claims_case(config: ExecutionConfig) -> CraftedCase:
    """A Detected flag followed by silence when claims are due."""
    f = config.n
    script = AdversaryScript([f])
    script.add_broadcast(1, TAG_DETECTED, f, BCAST_REPLACE, True)
    script.add_broadcast(1, TAG_CODED, f, BCAST_SILENT, None)
    script.add_broadcast(1, TAG_RECEIVED, f, BCAST_SILENT, None)
    return CraftedCase("silent-claims", script, frozenset({RULE_INCOMPLETE}))


def full_silence_case(config: ExecutionConfig) -> CraftedCase:
    """One generation of total silence on every channel."""
    f = config.n
    script = AdversaryScript([f])
    for step in (STEP_OWN, STEP_HELPER, STEP_RECONSTRUCTED):
        for r in range(1, config.n):
            script.add_send(1, step, f, r, SEND_SILENT, None)
    for tag in (TAG_DETECTED, TAG_MATCH_BITS, TAG_CODED, TAG_RECEIVED):
        script.add_broadcast(1, tag, f, BCAST_SILENT, None)
    expected = (
        RULE_INCOMPLETE if config.algorithm == ALG1 else RULE_SILENT_MATCH_VECTOR
    )
    return CraftedCase("total-silence", script, frozenset({expected}))


def noncodeword_claim_case(config: ExecutionConfig) -> CraftedCase:
    """A match-set member whose broadcast coded word is no codeword.

    alg1 only: the non-codeword rule applies to match-set members and
    the highest index is never inside an alg2 match set here.
    """
    f = config.n
    params = config.code_params()
    claim = encode(params, config.input_block(f, 1))
    claim[0] = bytes(b ^ 0xFF for b in claim[0])
    script = AdversaryScript([f])
    script.add_send(1, STEP_OWN, f, 1, SEND_CORRUPT, _mask(config.sym_bytes))
    script.add_broadcast(1, TAG_CODED, f, BCAST_REPLACE, word_hex(claim))
    return CraftedCase("noncodeword-coded-claim", script, frozenset({RULE_NOT_CODEWORD}))


def wrong_reconstruction_case(config: ExecutionConfig) -> CraftedCase:
    """A non-member claiming a slot its own received claims refute.

    alg2 only: processors outside the match set exist from the first
    generation there.
    """
    f = config.n
    params = config.code_params()
    correct = encode(params, config.input_block(1, 1))[f - 1]
    claim = encode(params, config.input_block(f, 1))
    claim[f - 1] = bytes(b ^ 0xFF for b in correct)
    script = AdversaryScript([f])
    script.add_broadcast(1, TAG_DETECTED, f, BCAST_REPLACE, True)
    script.add_broadcast(1, TAG_CODED, f, BCAST_REPLACE, word_hex(claim))
    return CraftedCase(
        "wrong-reconstruction-claim", script, frozenset({RULE_RECONSTRUCTION})
    )


def helper_corruption_case(config: ExecutionConfig) -> CraftedCase:
    """A faulty helper poisoning the slot it re-sends for a peer.

    Needs two faults: one burns an edge in generation 1 so that the
    helper wave exists in generation 2, the other is the lowest index
    and therefore becomes the helper for the cut-off receiver.
    """
    f_high = config.n
    script = AdversaryScript([1, f_high])
    script.add_send(1, STEP_OWN, f_high, 2, SEND_CORRUPT, _mask(config.sym_bytes))
    script.add_send(2, STEP_HELPER, 1, 2, SEND_CORRUPT, _mask(config.sym_bytes))
    return CraftedCase("helper-corruption", script, frozenset({RULE_DISPUTE}))


def crafted_cases(config: ExecutionConfig) -> list[CraftedCase]:
    """All hand-built cases applicable to this configuration."""
    cases = [
        corrupt_symbol_case(config),
        equivocation_case(config),
        false_detected_case(config),
        lying_received_claim_case(config),
        silent_claims_case(config),
        full_silence_case(config),
    ]
    if config.algorithm == ALG1:
        cases.append(noncodeword_claim_case(config))
        if config.t >= 2 and config.generations >= 2:
            cases.append(helper_corruption_case(config))
    else:
        cases.append(wrong_reconstruction_case(config))
    return cases
