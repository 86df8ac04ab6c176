"""End-to-end executions: traffic identities, verdicts, determinism."""

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from codedbft import sim
from codedbft.consensus import (
    STEP_HELPER,
    STEP_RECONSTRUCTED,
    TAG_CODED,
    TAG_DETECTED,
    TAG_MATCH_BITS,
    TAG_RECEIVED,
)
from codedbft.diagnosis import ConfigurationError, TrustGraph
from codedbft.rs import CodeParams, ParameterError, encode, word_hex
from codedbft.sim import (
    ALG1,
    ALG2,
    OUTCOME_DECIDED,
    OUTCOME_DIAGNOSED,
    OUTCOME_TERMINATED,
    SEND_SILENT,
    STEP_OWN,
    AdversaryScript,
    Execution,
    ExecutionConfig,
    check_complexity,
    load_case,
    random_inputs,
    random_script,
    replay_identical,
    run_execution,
    serialize_case,
)
import obligation_oracle
import wave_oracle
from event_state import rebuilt_graph
from golden_corpus import all_cases
from engine_steps import counted, recorded_steps


def fault_free_config(algorithm, n, t, q, l_bits, d_bits, seed=1, sharers=None):
    inputs = random_inputs(random.Random(seed), n, l_bits, sharers=sharers)
    return ExecutionConfig(
        algorithm=algorithm, n=n, t=t, q=q,
        l_bits=l_bits, d_bits=d_bits, inputs=inputs, seed=seed,
    )


# ------------------------------------------------------ config validation


def test_config_rejects_bad_shapes():
    good = dict(algorithm=ALG1, n=4, t=1, l_bits=240, d_bits=24,
                inputs=tuple("00" * 30 for _ in range(4)))
    ExecutionConfig(**good)  # sanity: the base case is accepted
    bad = [
        dict(good, algorithm="alg3"),
        dict(good, n=3),                       # n < 3t+1
        dict(good, t=-1),
        dict(good, l_bits=241),                # not a multiple of 8
        dict(good, d_bits=20),                 # not a multiple of 8k
        dict(good, d_bits=0),
        dict(good, inputs=good["inputs"][:3]),  # wrong count
        dict(good, inputs=("zz" * 30,) * 4),   # not hex
        dict(good, inputs=("00" * 29,) * 4),   # wrong length
        dict(good, broadcast_coefficient=0),
    ]
    for kwargs in bad:
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**kwargs)


def test_config_alg2_needs_q_in_range():
    base = dict(algorithm=ALG2, n=7, t=2, l_bits=240, d_bits=24,
                inputs=tuple("00" * 30 for _ in range(7)))
    ExecutionConfig(**base, q=3)
    with pytest.raises(ConfigurationError):
        ExecutionConfig(**base)
    for q in (2, 6):  # outside t+1 .. n-t
        with pytest.raises(ConfigurationError):
            ExecutionConfig(**base, q=q)


def test_script_rejects_rules_for_honest_processors():
    script = AdversaryScript([4])
    with pytest.raises(ValueError):
        script.add_send(1, STEP_OWN, 2, 1, SEND_SILENT)
    with pytest.raises(ValueError):
        script.add_broadcast(1, "detected", 2, "silent")
    with pytest.raises(ValueError):
        script.add_send(1, "sideways", 4, 1, SEND_SILENT)


def test_validate_shapes_checks_payload_sizes():
    config = fault_free_config(ALG1, 4, 1, None, 240, 24)
    too_many = AdversaryScript([3, 4])
    with pytest.raises(ConfigurationError):
        too_many.validate_shapes(config)
    wrong_size = AdversaryScript([4])
    wrong_size.add_send(1, STEP_OWN, 4, 1, "corrupt", b"\xff\x00")
    message = r"^send rule 1\|own\|4\|1 carries 2 bytes, need 1$"
    with pytest.raises(ConfigurationError, match=message):
        wrong_size.validate_shapes(config)  # sym_bytes is 1 here
    for tag in ("coded", "received"):
        for slots in (["00"] * 3, ["00"] * 3 + ["0000"], ["00"] * 3 + [""]):
            bad_vector = AdversaryScript([4])
            bad_vector.add_broadcast(1, tag, 4, "replace", slots)
            message = rf"^broadcast rule 1\|{tag}\|4 does not fit: "
            with pytest.raises(ConfigurationError, match=message):
                bad_vector.validate_shapes(config)


def test_engine_refuses_a_faulty_symbol_of_the_wrong_length():
    """A script that answers `send` past its validated rules still cannot
    put a symbol of the wrong length into a received word."""

    class LongSymbols(AdversaryScript):
        def send(self, *args):
            return b"\x00\x00"

    config = fault_free_config(ALG1, 4, 1, None, 240, 24)  # sym_bytes is 1
    with pytest.raises(ParameterError, match="macro-symbol must be 1 bytes, got 2"):
        run_execution(config, LongSymbols([4]))


def test_a_script_that_answers_broadcasts_itself_is_asked_every_generation(
    monkeypatch,
):
    """Overriding `broadcast` alone makes no generation quiet: the engine
    takes one generation per step and asks about each."""

    class Broadcasts(AdversaryScript):
        def broadcast(self, generation, tag, sender, honest):
            asked.append((generation, tag, sender))
            return super().broadcast(generation, tag, sender, honest)

    asked = []
    config = fault_free_config(ALG1, 7, 2, None, 480, 120)
    steps = recorded_steps(monkeypatch)
    result = run_execution(config, Broadcasts([7]))
    assert [(g, width) for g, width, _, _ in steps] == [(g, 1) for g in range(1, 5)]
    assert asked == [(g, TAG_DETECTED, 7) for g in range(1, 5)]
    plain = run_execution(config, AdversaryScript([7]))
    assert result.transcript.to_jsonl() == plain.transcript.to_jsonl()


def test_quiet_generations_end_before_the_next_rule():
    script = AdversaryScript([7])
    script.add_send(3, STEP_OWN, 7, 1, "honest")
    script.add_broadcast(5, TAG_DETECTED, 7, "silent")
    assert [script.quiet_until(g, 6) for g in range(1, 7)] == [2, 2, 2, 4, 4, 6]
    assert AdversaryScript().quiet_until(2, 9) == 9


def test_script_send_applies_its_rule_to_the_honest_symbol():
    script = AdversaryScript([4])
    honest = b"\x0f"
    assert script.send(1, STEP_OWN, 4, 1, honest, False) == honest
    assert script.send(1, STEP_OWN, 4, 1, honest, True) is None
    script.add_send(1, STEP_OWN, 4, 1, SEND_SILENT)
    script.add_send(1, STEP_OWN, 4, 2, "replace", b"\xaa")
    script.add_send(1, STEP_RECONSTRUCTED, 4, 1, "corrupt", b"\xff")
    script.add_send(1, STEP_RECONSTRUCTED, 4, 2, "honest")
    assert script.send(1, STEP_OWN, 4, 1, honest, False) is None
    assert script.send(1, STEP_OWN, 4, 2, honest, False) == b"\xaa"
    # a starved non-member skips its re-send, but a corrupt rule still
    # sends its corrupted own-input slot
    assert script.send(1, STEP_RECONSTRUCTED, 4, 1, honest, True) == b"\xf0"
    assert script.send(1, STEP_RECONSTRUCTED, 4, 2, honest, True) is None
    assert script.send(1, STEP_RECONSTRUCTED, 4, 2, honest, False) == honest


def test_script_broadcast_answers_in_the_engines_types():
    script = AdversaryScript([4])
    honest = [b"\x01", None, b"\x03", b"\x04"]
    assert script.broadcast(1, TAG_CODED, 4, honest) is honest
    script.add_broadcast(1, TAG_DETECTED, 4, "silent")
    script.add_broadcast(1, TAG_CODED, 4, "replace", ["0A", None, "0b", "0c"])
    script.add_broadcast(1, TAG_MATCH_BITS, 4, "replace", [True, False, True, True])
    script.add_broadcast(2, TAG_DETECTED, 4, "replace", True)
    assert script.broadcast(1, TAG_DETECTED, 4, False) is None
    claim = script.broadcast(1, TAG_CODED, 4, honest)
    assert claim == [b"\x0a", None, b"\x0b", b"\x0c"]
    # bit j-1 for slot j, as `compute_match_bits` builds it
    assert script.broadcast(1, TAG_MATCH_BITS, 4, 0b1111) == 0b1101
    assert script.broadcast(2, TAG_DETECTED, 4, False) is True
    assert script.broadcast(2, TAG_RECEIVED, 4, honest) is honest


CLAIM_TAGS = (TAG_CODED, TAG_RECEIVED)


def observed_broadcasts(events, senders):
    """(g, tag, sender, payload) of every broadcast of `senders`, in the
    order the engine asks a script for them: a flag or mask from its
    round, a claim's hex from its `BROADCAST` line, "honest" for a claim
    its round counts; None for silence. Convicted senders broadcast
    nothing."""
    observed, convicted, lines = [], set(), {}
    for e in events:
        if e["type"] == "CONVICTED":
            convicted.add(e["processor"])
        elif e["type"] == "BROADCAST":
            lines[e["sender"]] = e["payload"]
        elif e["type"] == "ROUND":
            for s in senders:
                if s in convicted:
                    continue
                if e["tag"] in CLAIM_TAGS:
                    payload = lines.get(s, "honest")
                elif e["tag"] == TAG_DETECTED:
                    payload = {"-": None, "0": False, "1": True}[e["payload"][s - 1]]
                else:
                    mask = e["payload"][s - 1]
                    payload = None if mask is None else int(mask, 16)
                observed.append((e["g"], e["tag"], s, payload))
            lines = {}
    return observed


class RecordingScript(AdversaryScript):
    """Records each question the engine asks, with the script's answer."""

    def __init__(self, faulty=()):
        super().__init__(faulty)
        self.sends, self.broadcasts = [], []

    def send(self, *args):
        value = super().send(*args)
        self.sends.append((args, value))
        return value

    def broadcast(self, *args):
        payload = super().broadcast(*args)
        self.broadcasts.append((args, payload))
        return payload


@pytest.mark.parametrize("algorithm, q", [(ALG1, None), (ALG2, 3)])
def test_engine_asks_the_script_once_per_faulty_send_and_broadcast(
    algorithm, q, monkeypatch
):
    """One `send` per faulty obligation of every wave, in plan order. The
    sends that deviate (a symbol other than the sender's slot, or any
    symbol from a suppressed sender) are exactly the `SYMBOL_SENT` lines;
    the rest join their wave's `WAVE` count with the honest senders'."""
    real_send_wave = sim.Execution._send_wave
    counts: dict = {}  # (g, step) -> symbols the `WAVE` line must count

    def send_wave(self, g, step, runs, coded, received, suppressed=frozenset()):
        sends, faulty = self.script.sends, self.script.faulty
        before = len(sends)
        real_send_wave(self, g, step, runs, coded, received, suppressed)
        assert [(s, r) for (_, _, s, r, _, _), _ in sends[before:]] == [
            (s, r) for s, _, rs, _ in runs if s in faulty for r in rs
        ]
        honest = sum(
            len(rs) for s, _, rs, _ in runs
            if s not in faulty and s not in suppressed
        )
        agreeing = sum(
            value == honest_value and not skip
            for (*_, honest_value, skip), value in sends[before:] if value
        )
        counts[g, step] = counts.get((g, step), 0) + honest + agreeing

    symbols = silences = deviations = 0
    for seed in range(6):
        config = fault_free_config(algorithm, 7, 2, q, 480, 120, seed=seed)
        plain = random_script(config, seed, faulty=(2, 6))
        script = RecordingScript.from_jsonable(plain.to_jsonable())
        counts.clear()
        with monkeypatch.context() as m:
            m.setattr(sim.Execution, "_send_wave", send_wave)
            result = run_execution(config, script)
        assert result.transcript.to_jsonl() == (
            run_execution(config, plain).transcript.to_jsonl()
        )
        deviating = [
            (g, step, s, r, value.hex())
            for (g, step, s, r, honest, skip), value in script.sends
            if value is not None and (value != honest or skip)
        ]
        assert deviating == [
            (e["g"], e["step"], e["sender"], e["receiver"], e["value"])
            for e in result.transcript.of_type("SYMBOL_SENT")
        ]
        # alg2 sends a helper wave before and after its match set
        waves: dict = {}
        for e in result.transcript.of_type("WAVE"):
            waves[e["g"], e["step"]] = waves.get((e["g"], e["step"]), 0) + e["count"]
        assert waves == {key: count for key, count in counts.items() if count}
        # a claim equal to the honest word joins its round's digest
        assert [
            (g, tag, s, "honest" if tag in CLAIM_TAGS and payload == honest
             else word_hex(payload) if tag in CLAIM_TAGS and payload is not None
             else payload)
            for (g, tag, s, honest), payload in script.broadcasts
        ] == observed_broadcasts(result.transcript.events, (2, 6))
        symbols += sum(value is not None for _, value in script.sends)
        silences += sum(value is None for _, value in script.sends)
        silences += sum(payload is None for _, payload in script.broadcasts)
        deviations += len(deviating)
    # the scripts send honest symbols, deviate and withhold something
    assert symbols > deviations > 0 and silences


def test_vector_override_is_recorded_as_the_parsed_vector():
    """An override in uppercase hex is recorded in lowercase, as the
    vector the engine uses; the header keeps the script as written."""
    config = fault_free_config(ALG1, 4, 1, None, 240, 24)
    script = AdversaryScript([4])
    script.add_broadcast(1, TAG_DETECTED, 4, "replace", True)
    script.add_broadcast(1, TAG_CODED, 4, "replace", ["AB", None, "CD", "EF"])
    result = run_execution(config, script)
    header = result.transcript.events[0]
    assert header["script"]["broadcasts"]["1|coded|4"]["payload"] == [
        "AB", None, "CD", "EF"
    ]
    assert [
        e["payload"] for e in result.transcript.of_type("BROADCAST")
        if e["tag"] == TAG_CODED and e["sender"] == 4
    ] == [["ab", None, "cd", "ef"]]
    assert replay_identical(config, script) == ("PASS", True)


def test_a_faulty_symbol_equal_to_the_senders_slot_joins_the_wave():
    """A replace rule that sends the sender's own slot writes no line and
    adds one to the `WAVE` count: the run matches the run without it."""
    config = fault_free_config(ALG1, 4, 1, None, 240, 24)
    slot = encode(config.code_params(), config.input_block(4, 1))[3]

    def run(rule):
        script = AdversaryScript([4])
        if rule:
            script.add_send(1, STEP_OWN, 4, 1, "replace", rule)
        return run_execution(config, script).transcript.events

    plain, same, other = run(None), run(slot), run(bytes([slot[0] ^ 1]))
    assert same[1:] == plain[1:]
    assert same[0]["script"]["sends"] == {"1|own|4|1": {"kind": "replace", "data": slot.hex()}}

    def own_wave(events):
        lines = [e for e in events if e.get("g") == 1 and e.get("step") == STEP_OWN]
        return [e["type"] for e in lines], lines[-1]["count"]

    assert own_wave(same) == (["WAVE"], 12)
    assert own_wave(other) == (["SYMBOL_SENT", "WAVE"], 11)


def test_a_suppressed_senders_symbol_stays_a_line_even_when_equal():
    """Faulty member 3 withholds its own slot from faulty non-member 7,
    which so gathers only two of k = 3 match-set symbols and skips its
    re-send wave. A replace rule still sends 7's own-input slot, the
    symbol `send` is handed, and it is written as a `SYMBOL_SENT` line."""
    config = fault_free_config(ALG2, 7, 2, 3, 24, 24, sharers=range(1, 6))
    own_slot = encode(config.code_params(), config.input_block(7, 1))[6]

    def run(rule):
        script = RecordingScript([3, 7]).add_send(1, STEP_OWN, 3, 7, SEND_SILENT)
        if rule:
            script.add_send(1, STEP_RECONSTRUCTED, 7, 1, "replace", rule)
        events = run_execution(config, script).transcript.events
        assert [e["members"] for e in events if e["type"] == "MATCH_SET"] == [[1, 2, 3]]
        return script.sends, [e for e in events if e.get("step") == STEP_RECONSTRUCTED]

    sends, plain = run(None)
    # 7 is asked for every re-send, suppressed, and sends nothing
    resends = [(args, value) for args, value in sends if args[1] == STEP_RECONSTRUCTED]
    assert resends and all(
        args[2] == 7 and args[5] and value is None for args, value in resends
    )
    _, ruled = run(own_slot)
    assert ruled == [
        {"type": "SYMBOL_SENT", "g": 1, "step": STEP_RECONSTRUCTED, "sender": 7,
         "receiver": 1, "slot": 7, "value": own_slot.hex()},
        *plain,
    ]


# -------------------------------------------------- fault-free identities


def test_headline_traffic_four_processors():
    # n(n-1)/(n-t) * L with n=4, t=1, L=2400
    config = fault_free_config(ALG1, 4, 1, None, 2400, 240)
    result = run_execution(config, AdversaryScript())
    report = check_complexity(result)
    assert result.passed
    assert {o["kind"] for o in result.outcomes} == {OUTCOME_DECIDED}
    assert report.data_bits == 9600
    assert report.data_formula_bits == 9600
    assert report.overhead_bits == 640  # ten generations of four 1-bit flags


def test_headline_traffic_seven_processors():
    config = fault_free_config(ALG1, 7, 2, None, 8400, 840)
    report = check_complexity(run_execution(config, AdversaryScript()))
    assert report.data_bits == 70560 == report.data_formula_bits


def test_identical_inputs_decide_the_input():
    config = fault_free_config(ALG1, 4, 1, None, 480, 48)
    result = run_execution(config, AdversaryScript())
    want = config.padded_input(1)
    assert result.passed
    assert all(out == want for out in result.outputs.values())


def test_quorum_variant_per_generation_symbols_exact():
    # (2n-q)(n-1) matching symbols per generation, met with equality
    for q in (3, 4, 5):
        config = fault_free_config(
            ALG2, 7, 2, q, 8 * q * 4, 8 * q, sharers=range(1, q + 1)
        )
        result = run_execution(config, AdversaryScript())
        report = check_complexity(result)
        assert result.passed
        want = (2 * 7 - q) * 6
        assert report.alg2_symbol_bound == want
        per_gen = report.alg2_symbols_per_generation
        assert len(per_gen) == config.generations == 4
        assert set(per_gen.values()) == {want}
        assert report.data_matches_formula


def test_broadcast_coefficient_scales_overhead():
    cheap = fault_free_config(ALG1, 4, 1, None, 480, 48)
    doc = cheap.to_jsonable()
    doc["broadcast_coefficient"] = 4
    costly = ExecutionConfig.from_jsonable(doc)
    plain = check_complexity(run_execution(cheap, AdversaryScript()))
    scaled = check_complexity(run_execution(costly, AdversaryScript()))
    assert scaled.overhead_bits == 4 * plain.overhead_bits
    assert scaled.data_bits == plain.data_bits


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_own_waves_match_the_wave_oracle(data):
    n = data.draw(st.integers(2, 13), label="n")
    t = data.draw(st.integers(0, (n - 1) // 3), label="t")
    algorithm = data.draw(st.sampled_from([ALG1, ALG2]), label="algorithm")
    q = data.draw(st.integers(t + 1, n - t), label="q") if algorithm == ALG2 else None
    k = q or n - t
    sym_bytes = data.draw(st.integers(1, 3), label="sym_bytes")
    l_bytes = data.draw(st.integers(1, 3 * k * sym_bytes), label="l_bytes")
    sharers = data.draw(
        st.none() | st.integers(0, n).map(lambda m: range(1, m + 1)), label="sharers"
    )
    config = fault_free_config(
        algorithm, n, t, q, 8 * l_bytes, 8 * k * sym_bytes, sharers=sharers
    )
    events = run_execution(config, AdversaryScript()).transcript.events
    assert not any(e["type"] in ("SYMBOL_SENT", "EDGE_REMOVED") for e in events)
    own = [
        (e["g"], e["count"], e["sha256"])
        for e in events if e["type"] == "WAVE" and e["step"] == STEP_OWN
    ]
    assert own == wave_oracle.own_waves(events)


# without the explain phase a failure reports in under a minute, not five
@settings(max_examples=50, derandomize=True, deadline=None, database=None,
          phases=set(Phase) - {Phase.explain})
@given(st.data())
def test_send_wave_delivers_like_the_per_obligation_oracle(data):
    """Every wave of a plan, on a graph with removed edges, with faulty
    senders under send rules of every kind and suppressed senders, leaves
    the same received words and records the same `SYMBOL_SENT` and `WAVE`
    events as `wave_oracle.deliver`, obligation by obligation. Corrupt
    and replace rules may yield the sender's own slot, which joins the
    `WAVE` records unless the sender is suppressed."""
    n = data.draw(st.integers(4, 10), label="n")
    t = (n - 1) // 3
    sym = data.draw(st.integers(1, 2), label="sym_bytes")
    config = fault_free_config(ALG1, n, t, None, 16 * (n - t) * sym, 8 * (n - t) * sym)
    everyone = range(1, n + 1)
    graph = TrustGraph(n, t)
    pairs = [(i, j) for i in everyone for j in everyone if i < j]
    for i, j in data.draw(
        st.lists(st.sampled_from(pairs), max_size=n, unique=True), label="removed"
    ):
        graph.remove_edge(i, j)
    members = sorted(data.draw(st.sets(st.sampled_from(everyone), min_size=1), label="members"))
    faulty = data.draw(st.sets(st.sampled_from(everyone), max_size=t), label="faulty")
    suppressed = data.draw(st.sets(st.sampled_from(everyone)), label="suppressed")
    g = data.draw(st.integers(1, config.generations), label="g")
    rng = random.Random(data.draw(st.integers(0, 2**32), label="words"))
    coded = {p: [rng.randbytes(sym) for _ in everyone] for p in everyone}
    script = AdversaryScript(faulty)
    kinds = ("honest", SEND_SILENT, "corrupt", "replace")
    if faulty:
        rules = st.tuples(
            st.integers(1, config.generations), st.sampled_from(sim._STEPS),
            st.sampled_from(sorted(faulty)), st.sampled_from(everyone),
            st.sampled_from(kinds), st.binary(min_size=sym, max_size=sym),
            st.integers(0, 2),
        )
        for rule_g, step, s, r, kind, value, honest in data.draw(
            st.lists(rules, max_size=4 * n), label="rules"
        ):
            # a zero mask, or one of the sender's slots, as often as not
            if kind == "corrupt" and honest:
                value = bytes(sym)
            elif kind == "replace" and honest:
                value = coded[s][(r if honest == 1 else s) - 1]
            if r != s:
                script.add_send(rule_g, step, s, r, kind, value)
    received = {p: [rng.choice((None, rng.randbytes(sym))) for _ in everyone] for p in everyone}
    expected = {p: list(word) for p, word in received.items()}
    execution = Execution(config, script)
    events = execution._lines[0]
    plan = sim._matching_plan(graph, members)
    obligations = obligation_oracle.matching_obligations(graph, members)
    for step in sim._STEPS:
        before = len(events)
        execution._send_wave(g, step, getattr(plan, step), coded, received, suppressed)
        assert events[before:] == wave_oracle.deliver(
            g, step, [ob[:3] for ob in obligations if ob[3] == step],
            coded, expected, faulty, script.send, suppressed,
        )
        assert received == expected


# ------------------------------------------------------ verdict shapes


def test_split_inputs_terminate_on_identical_zero_default():
    rng = random.Random(5)
    first, second = rng.randbytes(60).hex(), rng.randbytes(60).hex()
    config = ExecutionConfig(
        algorithm=ALG1, n=4, t=1, l_bits=480, d_bits=48,
        inputs=(first, first, second, second), seed=5,
    )
    result = run_execution(config, AdversaryScript())
    assert result.passed
    assert {o["kind"] for o in result.outcomes} == {OUTCOME_TERMINATED}
    assert set(result.outputs.values()) == {bytes(config.padded_bytes)}


def test_starved_outsider_is_not_blamed():
    """A quorum member that stays silent toward an outsider burns only
    its own edge: the outsider announces the reconstruction failure and
    diagnosis must not convict either side."""
    rng = random.Random(13)
    config = ExecutionConfig(
        algorithm=ALG2, n=4, t=1, q=3, l_bits=72, d_bits=24,
        inputs=random_inputs(rng, 4, 72, sharers=(1, 2, 3)), seed=13,
    )
    script = AdversaryScript([1])
    for g in (1, 2, 3):
        script.add_send(g, STEP_OWN, 1, 4, SEND_SILENT)
    result = run_execution(config, script)
    assert result.passed
    want = config.padded_input(2)  # the shared value survives
    assert all(out == want for out in result.outputs.values())
    graph = rebuilt_graph(result.transcript.events)
    assert {tuple(edge) for edge in graph["removed_edges"]} <= {(1, 4)}
    assert not graph["convicted"]


def test_two_faulty_equivocators_lose_their_votes():
    config = fault_free_config(ALG1, 7, 2, None, 240, 40, seed=21)
    script = AdversaryScript([6, 7])
    mask = bytes([0xFF])
    for sender in (6, 7):
        for receiver in (1, 2):
            script.add_send(1, STEP_OWN, sender, receiver, "corrupt", mask)
    result = run_execution(config, script)
    assert result.passed
    assert all(out == config.padded_input(1) for out in result.outputs.values())
    kinds = {o["kind"] for o in result.outcomes}
    assert kinds <= {OUTCOME_DECIDED, OUTCOME_DIAGNOSED}


def test_obligations_follow_the_graph_after_diagnosis():
    """A dispute in g1 changes who sends what in g2, for the same match set."""
    config = fault_free_config(ALG1, 7, 2, None, 240, 40, seed=41)
    script = AdversaryScript([7]).add_send(1, STEP_OWN, 7, 1, "corrupt", b"\xff")
    result = run_execution(config, script)
    assert result.passed
    kinds = [o["kind"] for o in result.outcomes[:2]]
    assert kinds == [OUTCOME_DIAGNOSED, OUTCOME_DECIDED]
    # g2 keeps the full match set, so only the graph tells the two apart
    assert result.outcomes[0]["decide_set"] == list(range(1, 8))
    # every input is the same, so every sender holds this word in g2
    word = encode(config.code_params(), config.input_block(1, 2))

    def traffic(obligations):
        """Each wave's count and digest: processor 7 follows no rule in g2,
        so its symbols join the waves with everyone else's."""
        waves = {}
        for step in sim._STEPS:
            records = [
                bytes((s, r, k)) + word[k - 1]
                for s, r, k, ob_step in obligations if ob_step == step
            ]
            if records:
                digest = hashlib.sha256(b"".join(records)).hexdigest()
                waves[step] = (len(records), digest)
        return waves

    events = [ev for ev in result.transcript.events if ev.get("g") == 2]
    assert not [ev for ev in events if ev["type"] == "SYMBOL_SENT"]
    sent = {
        ev["step"]: (ev["count"], ev["sha256"])
        for ev in events if ev["type"] == "WAVE"
    }
    first = result.transcript.events[:1] + [
        ev for ev in result.transcript.events if ev.get("g") == 1
    ]
    graph = TrustGraph(7, 2)
    for i, j in rebuilt_graph(first)["removed_edges"]:
        graph.remove_edge(i, j)
    assert graph.removed
    assert sent == traffic(obligation_oracle.matching_obligations(graph, range(1, 8)))
    assert sent != traffic(
        obligation_oracle.matching_obligations(TrustGraph(7, 2), range(1, 8))
    )


# ------------------------------------------------- shared plans and words


def test_graphs_in_one_state_share_one_plan():
    members = [1, 2, 3, 4, 5]
    a, b = TrustGraph(7, 2), TrustGraph(7, 2)
    a.remove_edge(1, 2)
    a.remove_edge(3, 4)
    b.remove_edge(4, 3)
    b.remove_edge(2, 1)
    plan = sim._matching_plan(a, members)
    assert sim._matching_plan(b, members) is plan
    # maximal runs that flatten back to the oracle's sends, in order, with
    # their record prefixes, the size and the local copies
    obligation_oracle.assert_plan_matches(plan, a, members)
    # one run per sender in waves 1 and 3: every processor, and the two
    # non-members, each re-send run the non-member's own-wave run itself
    assert [s for s, _, _, _ in plan.own] == list(range(1, 8))
    assert plan.reconstructed == plan.own[5:]
    assert all(x is y for x, y in zip(plan.reconstructed, plan.own[5:]))
    b.remove_edge(1, 5)
    assert sim._matching_plan(b, members).own != plan.own


@pytest.mark.parametrize("algorithm, q, per_step", [(ALG1, None, 1), (ALG2, 3, 2)])
def test_each_generation_derives_each_plan_once(algorithm, q, per_step, monkeypatch):
    """alg1 derives its match set's plan once a step; alg2 derives
    everyone's plan, then the plan of the match set it found. A quiet
    run is one step of all its generations."""
    calls = counted(monkeypatch, "_matching_plan")
    steps = recorded_steps(monkeypatch)
    config = fault_free_config(algorithm, 7, 2, q, 480, 120, sharers=range(1, 8))
    result = run_execution(config, AdversaryScript())
    assert {o["kind"] for o in result.outcomes} == {OUTCOME_DECIDED}
    assert steps == [(1, config.generations, config.generations, 0)]
    assert [tuple(p_match) for _, p_match in calls] == [
        tuple(range(1, 8)), (1, 2, 3)
    ][:per_step]


@pytest.mark.parametrize("algorithm, q, flag_keys", [(ALG1, None, 1), (ALG2, 3, 2)])
def test_a_ruled_generation_splits_a_quiet_run_into_two_stretches(
    algorithm, q, flag_keys, monkeypatch
):
    """A rule in generation 3 of 5, one that changes nothing, leaves the
    stretches 1..2 and 4..5 around a step of generation 3 alone: each
    step derives its plans once and asks each flag and decode once per
    distinct word, at its own width."""
    config = fault_free_config(algorithm, 7, 2, q, 600, 120, sharers=range(1, 8))
    script = AdversaryScript([7]).add_send(3, STEP_OWN, 7, 1, "honest")
    calls = counted(monkeypatch, "_matching_plan")
    steps = recorded_steps(monkeypatch)
    flags = counted(monkeypatch, "detection_flag")
    decodes = counted(monkeypatch, "decode")
    result = run_execution(config, script)
    assert {o["kind"] for o in result.outcomes} == {OUTCOME_DECIDED}
    assert steps == [(1, 2, 2, 0), (3, 1, 1, 0), (4, 2, 2, 0)]
    per_step = [tuple(range(1, 8)), (1, 2, 3)][: 1 if algorithm == ALG1 else 2]
    assert [tuple(p_match) for _, p_match in calls] == per_step * 3
    # each call's width, from its wide symbol size
    sym = config.sym_bytes
    assert [params.sym_bytes // sym for params, *_ in flags] == (
        [2] * flag_keys + [1] * flag_keys + [2] * flag_keys
    )
    assert [params.sym_bytes // sym for params, *_ in decodes] == [2, 1, 2]
    plain = run_execution(config, AdversaryScript([7]))
    assert result.transcript.to_jsonl().split("\n")[1:] == (
        plain.transcript.to_jsonl().split("\n")[1:]
    )


def test_plan_cache_stays_bounded_and_holds_tuples_only(monkeypatch):
    from collections import OrderedDict

    from codedbft.cli import sweep_cases

    monkeypatch.setattr(sim, "_PLANS", OrderedDict())
    monkeypatch.setattr(sim, "_plans_held", 0)
    monkeypatch.setattr(sim, "_OWN_WAVES", {})
    derived = []
    real = sim.matching_obligations
    monkeypatch.setattr(
        sim, "matching_obligations", lambda *args: derived.append(1) or real(*args)
    )
    cases = [
        case for q in (None, 3, 4, 5)
        for case in sweep_cases(
            ALG1 if q is None else ALG2, 7, 2, [q], 150, 700, l_bits=24 * (q or 5)
        )
    ]
    assert len(cases) == 600
    for config, script in cases:
        run_execution(config, script)
    # every state of the sweep was derived once and is still held
    assert len(derived) == len(sim._PLANS) > 128
    held = sum(plan.size for plan in sim._PLANS.values())
    for (n, removed, members), plan in sim._PLANS.items():
        graph = TrustGraph(n, 2)
        for i, j in removed:
            graph.remove_edge(i, j)
        assert graph.removed == removed
        obligation_oracle.assert_plan_matches(plan, graph, members)
    assert sim._plans_held == held <= sim._PLAN_BUDGET
    # plans of one graph state share one own wave
    states = {key[:2] for key in sim._PLANS}
    assert len({id(plan.own) for plan in sim._PLANS.values()}) == len(states)

    def immutable(x):
        if dataclasses.is_dataclass(x):
            return x.__dataclass_params__.frozen and all(
                immutable(getattr(x, f.name)) for f in dataclasses.fields(x)
            )
        return type(x) in (int, str, bytes) or (
            isinstance(x, tuple) and all(immutable(y) for y in x)
        )
    assert all(immutable(plan) for plan in sim._PLANS.values())


def test_plan_cache_evicts_least_recently_used_down_to_its_budget(monkeypatch):
    from collections import OrderedDict

    monkeypatch.setattr(sim, "_PLANS", OrderedDict())
    monkeypatch.setattr(sim, "_plans_held", 0)
    monkeypatch.setattr(sim, "_OWN_WAVES", {})
    g = TrustGraph(7, 2)
    everyone, six, five = range(1, 8), range(1, 7), range(1, 6)
    size = {
        m: len(obligation_oracle.matching_obligations(g, m)) for m in (everyone, six, five)
    }
    assert size[everyone] < size[six] < size[five]
    monkeypatch.setattr(sim, "_PLAN_BUDGET", size[everyone] + size[five])
    first = sim._matching_plan(g, everyone)
    assert sim._matching_plan(g, six).own is first.own  # one graph state
    sim._matching_plan(g, everyone)  # a hit makes `six` the oldest
    sim._matching_plan(g, five)
    assert [key[2] for key in sim._PLANS] == [tuple(everyone), tuple(five)]
    assert sim._plans_held == size[everyone] + size[five]
    # a plan over the whole budget is still kept, alone
    monkeypatch.setattr(sim, "_PLAN_BUDGET", size[everyone] - 1)
    plan = sim._matching_plan(g, six)
    assert list(sim._PLANS.values()) == [plan]
    assert sim._plans_held == size[six] == plan.size


def counting_encode(monkeypatch):
    """Patch `sim.encode` to record each data block it is handed."""
    encoded, real = [], sim.encode
    monkeypatch.setattr(
        sim, "encode", lambda params, block: encoded.append(block) or real(params, block)
    )
    return encoded


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_generation_words_slice_to_each_generations_codeword(data):
    n = data.draw(st.integers(1, 12), label="n")
    k = data.draw(st.integers(1, n), label="k")
    s = data.draw(st.integers(1, 4), label="s")
    gens = data.draw(st.integers(1, 6), label="G")
    padded = data.draw(st.binary(min_size=gens * k * s, max_size=gens * k * s))
    words = sim._generation_words(CodeParams(n, k, s), padded, gens)
    assert [len(w) for w in words] == [s * gens] * n
    for g in range(1, gens + 1):
        block = padded[(g - 1) * k * s : g * k * s]
        want = encode(CodeParams(n, k, s), block)
        assert [w[g - 1 :: gens] for w in words] == want


def test_fresh_state_encodes_each_input_once_per_execution_and_shares_no_word(
    monkeypatch,
):
    config = fault_free_config(ALG1, 7, 2, None, 240, 80, sharers=range(1, 6))
    assert (config.generations, config.sym_bytes) == (3, 2)
    encoded = counting_encode(monkeypatch)
    execution = Execution(config, AdversaryScript())
    assert len(encoded) == len(set(config.inputs)) == 3
    for g in range(1, 4):
        coded, received = execution._fresh_state(g)
        assert len({id(word) for word in coded.values()}) == 7
        for i in range(1, 8):
            assert coded[i] == encode(config.code_params(), config.input_block(i, g))
            own = coded[i][i - 1]
            assert received[i] == [own if p == i else None for p in range(1, 8)]
    assert len(encoded) == 3


@pytest.mark.parametrize("algorithm, q", [(ALG1, None), (ALG2, 3)])
def test_run_encodes_once_per_distinct_input(algorithm, q, monkeypatch):
    config = fault_free_config(algorithm, 7, 2, q, 360, 120, sharers=range(1, 6))
    assert config.generations >= 3 and len(set(config.inputs)) == 3
    encoded = counting_encode(monkeypatch)
    assert run_execution(config, AdversaryScript()).passed
    assert [len(block) for block in encoded] == [config.padded_bytes] * 3


def test_reconstruction_writes_leave_other_words_and_generations_alone():
    config = fault_free_config(ALG1, 7, 2, None, 240, 80, sharers=range(1, 6))
    params = config.code_params()
    execution = Execution(config, AdversaryScript())
    coded, _ = execution._fresh_state(1)
    # a non-member sharing its input overwrites its own slot, as reconstruction does
    coded[5][4] = bytes(b ^ 0xFF for b in coded[5][4])
    for i in range(1, 5):
        assert coded[i] == encode(params, config.input_block(i, 1))
    for g in (1, 2):
        again, received = execution._fresh_state(g)
        for i in range(1, 8):
            assert again[i] == encode(params, config.input_block(i, g))
            assert received[i][i - 1] == again[i][i - 1]


# --------------------------------------------------- randomized batteries


@pytest.mark.parametrize("n,t", [(4, 1), (7, 2)])
def test_random_adversaries_never_violate(n, t):
    bound_alg1 = t + t * (t + 1)
    bound_alg2 = t * (t + 1)
    q_options = list(range(t + 1, n - t + 1))
    for i in range(80):
        seed = 5000 * n + i
        if i % 2 == 0:
            algorithm, q = ALG1, None
        else:
            algorithm, q = ALG2, q_options[(i // 2) % len(q_options)]
        k = q if q is not None else n - t
        rng = random.Random(seed)
        style = i % 3
        l_bits = 8 * k * 3
        if style == 0:
            inputs = random_inputs(rng, n, l_bits)
        elif style == 1:
            inputs = random_inputs(rng, n, l_bits, sharers=range(1, n - t + 1))
        else:
            inputs = tuple(rng.randbytes(l_bits // 8).hex() for _ in range(n))
        config = ExecutionConfig(
            algorithm=algorithm, n=n, t=t, q=q,
            l_bits=l_bits, d_bits=8 * k, inputs=inputs, seed=seed,
        )
        result = run_execution(config, random_script(config, seed))
        assert result.passed, f"seed {seed}: {result.violations}"
        bound = bound_alg1 if algorithm == ALG1 else bound_alg2
        assert result.diagnosis_count <= bound


@pytest.mark.xfail(
    strict=True, reason="rule 5 never checks alg2's helper wave before the match set"
)
def test_alg2_helper_lies_before_the_match_set_stay_within_the_bound():
    """alg2 runs a helper wave of `_matching_plan(graph, everyone)` before
    it picks the match set, and diagnosis checks only the match-set plan.
    Faulty 7's corrupt re-send to 3 costs edge (3,7) in g1. From g2 on,
    faulty 1 is 3's lowest helper for slot 7 and poisons it; with match
    set {1,2,3} no later send of slot 7 reaches 3. Every generation
    diagnoses, yet no further edge goes and 1 is never convicted: 10
    diagnoses, over alg2's t(t+1) = 6."""
    from codedbft import cli

    config = cli.build_config({
        "algorithm": ALG2, "n": 7, "t": 2, "q": 3, "l_bits": 240, "d_bits": 24,
        "inputs": {"generator": "shared-prefix", "sharers": 5}, "seed": 1,
    })
    script = AdversaryScript([1, 7]).add_send(1, STEP_RECONSTRUCTED, 7, 3, "corrupt", b"\x01")
    for g in range(2, 11):
        script.add_send(g, STEP_HELPER, 1, 3, "corrupt", b"\x01")
    result = run_execution(config, script)
    assert result.passed
    assert result.diagnosis_count <= config.t * (config.t + 1)


# ----------------------------------------------- checker's impossible states


def test_undecodable_accepted_word_is_a_violation(monkeypatch):
    # erase processor 1's received word right after its g1 flag, the first one
    real, calls = sim.detection_flag, []

    def flag_then_erase(params, received, *args):
        flag = real(params, received, *args)
        if not calls:
            received[:] = [None] * len(received)
        calls.append(flag)
        return flag

    monkeypatch.setattr(sim, "detection_flag", flag_then_erase)
    result = run_execution(
        fault_free_config(ALG1, 4, 1, None, 72, 24), AdversaryScript()
    )
    assert not result.passed
    assert "g1: fault-free processor 1 cannot decode its accepted word" in (
        result.violations
    )
    assert "processor 1 terminated without a full output" in result.violations


def test_missed_match_set_is_a_violation(monkeypatch):
    # identical inputs and full trust: any q of the four form a match set
    monkeypatch.setattr(sim, "find_match_set", lambda vectors, candidates, q: None)
    result = run_execution(
        fault_free_config(ALG2, 4, 1, 3, 72, 24), AdversaryScript()
    )
    assert result.violations[0] == (
        "g1: no match set found despite a trusting fault-free group sharing a block"
    )


# ----------------------------------------------------------- determinism


def test_serialized_case_replays_byte_identical():
    config = fault_free_config(ALG1, 4, 1, None, 72, 24, seed=31)
    script = random_script(config, 31)
    assert replay_identical(config, script) == ("PASS", True)


def test_case_round_trip_preserves_everything():
    config = fault_free_config(ALG2, 7, 2, 4, 96, 32, seed=17,
                               sharers=range(1, 6))
    script = random_script(config, 17)
    loaded_config, loaded_script = load_case(serialize_case(config, script))
    assert loaded_config == config
    assert loaded_script.to_jsonable() == script.to_jsonable()
    # the retired stop_when_no_match_set is refused like any unknown key
    written_before = json.loads(serialize_case(config, script))
    written_before["config"]["stop_when_no_match_set"] = False
    with pytest.raises(ConfigurationError, match="stop_when_no_match_set"):
        load_case(json.dumps(written_before))


def test_inputs_are_kept_as_lowercase_hex_so_one_value_is_written_once():
    def config(*inputs):
        return ExecutionConfig(
            algorithm=ALG1, n=4, t=1, l_bits=24, d_bits=24, inputs=inputs
        )

    spelled = config("abcdef", "ABCDEF", "ab cd ef", "AbCdEf")
    assert spelled.inputs == ("abcdef",) * 4
    assert spelled == config(*["abcdef"] * 4)
    result = run_execution(spelled, AdversaryScript())
    header = result.transcript.of_type("header")[0]
    assert header["input_values"] == ["abcdef"]
    assert header["config"]["inputs"] == [0, 0, 0, 0]


def test_transcript_header_records_padding_policy():
    config = fault_free_config(ALG1, 4, 1, None, 80, 24)  # pads 80 -> 96
    result = run_execution(config, AdversaryScript())
    header = result.transcript.of_type("header")[0]
    assert header["padding"] == "zero-fill-tail"
    assert header["original_l_bits"] == 80
    assert header["padded_bits"] == 96
    assert header["generations"] == 4


# --------------------------------------------------------- serialization


def test_transcripts_read_back_to_their_events():
    """Every line of every corpus transcript is canonical JSON, sorted
    keys and no spaces, and parses back to the event it was written from."""
    cases = all_cases()
    assert len(cases) == 86
    for key, (config, script) in cases.items():
        transcript = run_execution(config, script).transcript
        lines = transcript.to_jsonl().splitlines(keepends=True)
        assert len(lines) == len(transcript.events), key
        for event, line in zip(transcript.events, lines):
            assert line == json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"
            assert json.loads(line) == event, key
