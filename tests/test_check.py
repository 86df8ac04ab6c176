"""Violation lists of runs made to fail, frozen in violation_lists.json.

Golden hashes pin only passing transcripts. Here the engine is patched
where its results feed the judge: `decode` fails, decodes to zeros or
skews every other block; `detection_flag` raises false alarms;
`run_diagnosis` also convicts a fault-free processor or cuts an edge
between two; `find_match_set` finds nothing or picks the wrong q. Each
run's violation list, text and order, must stay as recorded. Run this
file as a script to re-record the lists after a deliberate change.

The engine asks `decode` and `detection_flag` once per distinct word
in a generation and hands the answer to every processor holding that
word, so the counting patches (decode-fails, decode-skews and
false-alarms) act once per distinct word, not once per processor.
A stretch of quiet generations asks once per distinct wide word for all
of them, so the lists are recorded with every step pinned to width 1;
the patches that count no calls give the same lists with stretches on.
"""

import dataclasses
import json
import re
import sys
from pathlib import Path

import pytest

from codedbft import rs, sim
from codedbft.consensus import code_dimension
from codedbft.rs import InsufficientSymbolsError
from codedbft.sim import (
    ALG1,
    ALG2,
    SEND_SILENT,
    STEP_OWN,
    AdversaryScript,
    ExecutionConfig,
    random_script,
)
from ledger_oracle import ledger_totals, resum_ledger
from engine_steps import counted, recorded_steps, width_one

FROZEN = Path(__file__).parent / "violation_lists.json"

# every message the judge can write, with its numbers wildcarded
MESSAGES = [
    r"g\d+: edge \(\d+,\d+\) between fault-free processors removed",
    r"g\d+: fault-free processor \d+ convicted",
    r"g\d+: fault-free processor \d+ cannot decode its accepted word",
    r"g\d+: fault-free processors decided different blocks",
    r"g\d+: decided block is no fault-free member's input",
    r"g\d+: no match set found despite a trusting fault-free group sharing a block",
    r"g\d+: decided block is no fault-free input",
    r"g\d+: majority quorum decided a block other than the shared one",
    r"processor \d+ terminated without a full output",
    r"final fault-free outputs differ",
    r"identical fault-free inputs were not decided",
    r"fault-free processor \d+ ended convicted",
]

# (algorithm, n, t, q, holders of the all-zero input); the rest share one value
POINTS = (
    (ALG1, 4, 1, None, ()),
    (ALG1, 4, 1, None, (4,)),
    (ALG1, 7, 2, None, ()),
    (ALG2, 4, 1, 2, (3, 4)),
    (ALG2, 4, 1, 3, (4,)),
    (ALG2, 7, 2, 3, (6, 7)),
    (ALG2, 7, 2, 5, (7,)),
)


def point_config(algorithm, n, t, q, zero_holders) -> ExecutionConfig:
    """Three one-unit generations: shared blocks 01.., 02.., 03.. or zeros."""
    k = code_dimension(n, t, q)
    shared = b"".join(bytes([g]) * k for g in (1, 2, 3)).hex()
    zero = bytes(3 * k).hex()
    inputs = tuple(zero if p in zero_holders else shared for p in range(1, n + 1))
    return ExecutionConfig(
        algorithm=algorithm, n=n, t=t, q=q, l_bits=24 * k, d_bits=8 * k,
        inputs=inputs, seed=n + (q or 0),
    )


def point_scripts(config) -> dict:
    return {
        "quiet": AdversaryScript(),
        "idle-top": AdversaryScript([config.n]),
        "random-1": random_script(config, 1),
        "random-2": random_script(config, 2),
    }


def _every(period, phase=0):
    """A predicate true on calls phase, phase + period, ... (from 0)."""
    calls = [-1]

    def due():
        calls[0] += 1
        return calls[0] % period == phase
    return due


def patch_decode_fails(monkeypatch, config, script):
    real, due = sim.decode, _every(3)

    def decode(params, vec, **kw):
        if due():
            raise InsufficientSymbolsError("patched")
        return real(params, vec, **kw)
    monkeypatch.setattr(sim, "decode", decode)


def patch_decode_zero(monkeypatch, config, script):
    monkeypatch.setattr(sim, "decode", lambda params, vec, **kw: bytes(params.block_bytes))


def patch_decode_skews(monkeypatch, config, script):
    real, due = sim.decode, _every(2, 1)

    def decode(params, vec, **kw):
        block = real(params, vec, **kw)
        return bytes([block[0] ^ 0x80]) + block[1:] if due() else block
    monkeypatch.setattr(sim, "decode", decode)


def patch_false_alarms(monkeypatch, config, script):
    real, due = sim.detection_flag, _every(5)
    monkeypatch.setattr(
        sim, "detection_flag", lambda *args: True if due() else real(*args)
    )


def _blaming(act):
    """run_diagnosis followed by `act(graph, fault_free)`'s graph events."""

    def patch(monkeypatch, config, script):
        real = sim.run_diagnosis
        fault_free = [p for p in range(1, config.n + 1) if p not in script.faulty]

        def run_diagnosis(params, graph, *args, **kw):
            result = real(params, graph, *args, **kw)
            extra = [("patched", ev) for ev in act(graph, fault_free)]
            return dataclasses.replace(result, events=result.events + extra)
        monkeypatch.setattr(sim, "run_diagnosis", run_diagnosis)
    return patch


def _convict_lowest(graph, fault_free):
    live = [p for p in fault_free if p not in graph.convicted]
    return graph.convict(live[0]) if live else []


def _cut_lowest_pair(graph, fault_free):
    for a in fault_free:
        for b in fault_free:
            if a < b and graph.edge_present(a, b):
                return graph.remove_edge(a, b)
    return []


def patch_no_match_set(monkeypatch, config, script):
    monkeypatch.setattr(sim, "find_match_set", lambda vectors, candidates, q: None)


def patch_last_q(monkeypatch, config, script):
    monkeypatch.setattr(
        sim, "find_match_set", lambda vectors, candidates, q: list(candidates)[-q:]
    )


PATCHES = {
    "decode-fails": patch_decode_fails,
    "decode-zero": patch_decode_zero,
    "decode-skews": patch_decode_skews,
    "false-alarms": patch_false_alarms,
    "convict-fault-free": _blaming(_convict_lowest),
    "cut-fault-free-edge": _blaming(_cut_lowest_pair),
    "no-match-set": patch_no_match_set,
    "last-q-match-set": patch_last_q,
}


def corpus():
    """Every (key, config, script, patch) of the frozen corpus."""
    for point in POINTS:
        config = point_config(*point)
        for script_name, script in point_scripts(config).items():
            for patch_name, patch in PATCHES.items():
                if config.algorithm == ALG1 and "match-set" in patch_name:
                    continue  # alg1 never searches for a match set
                key = (
                    f"{config.algorithm}-n{config.n}-q{config.q}"
                    f"-zeros{''.join(map(str, point[4]))}-{script_name}-{patch_name}"
                )
                yield key, config, script, patch


# the patches whose effect does not depend on how many calls they see
UNCOUNTED = (
    "decode-zero", "convict-fault-free", "cut-fault-free-edge",
    "no-match-set", "last-q-match-set",
)


def run_corpus(monkeypatch, patches=tuple(PATCHES), stretches=False) -> dict:
    """The violations of each corpus run under one of `patches`, with
    every step pinned to width 1 unless `stretches`; each run's are the
    ones its `VERDICT` line records."""
    chosen = [PATCHES[name] for name in patches]
    got = {}
    for key, config, script, patch in corpus():
        if patch not in chosen:
            continue
        with monkeypatch.context() as m:
            if not stretches:
                width_one(m)
            patch(m, config, script)
            result = sim.run_execution(config, script)
        verdict = result.transcript.events[-1]
        assert (verdict["verdict"], verdict["violations"]) == (
            result.verdict, result.violations
        ), key
        got[key] = result.violations
    return got


def test_violation_lists_are_frozen(monkeypatch):
    assert run_corpus(monkeypatch) == json.loads(FROZEN.read_text())


def test_stretches_keep_the_lists_of_the_patches_that_count_no_calls(monkeypatch):
    frozen = json.loads(FROZEN.read_text())
    with monkeypatch.context() as m:
        steps = recorded_steps(m)
        got = run_corpus(m, UNCOUNTED, stretches=True)
    assert len(got) == 116
    assert got == {key: frozen[key] for key in got}
    assert any(width > 1 for _, width, _, _ in steps)


def test_a_skew_in_one_lane_of_a_wide_decode_is_flagged_at_its_generation(
    monkeypatch,
):
    """The quiet run decodes its three generations in one wide call; lane
    j of the wide block is generation j+1's block. Generations 1 and 3
    decide the input, which their `DECIDED` lines name by its index;
    generation 2's block is no input's and is written in hex."""
    config = point_config(ALG1, 7, 2, None, ())
    real, widths = sim.decode, []

    def decode(params, vec, **kw):
        block = real(params, vec, **kw)
        widths.append(params.sym_bytes // config.sym_bytes)
        # byte 1 is lane 1 of the first data byte: generation 2's first byte
        return block[:1] + bytes([block[1] ^ 0x80]) + block[2:]
    monkeypatch.setattr(sim, "decode", decode)
    result = sim.run_execution(config, AdversaryScript())
    assert widths == [3]
    assert result.violations == [
        "g2: decided block is no fault-free member's input",
        "identical fault-free inputs were not decided",
    ]
    skewed = config.input_block(1, 2)
    skewed = bytes([skewed[0] ^ 0x80]) + skewed[1:]
    assert [(e["g"], e["value"]) for e in result.transcript.of_type("DECIDED")] == [
        (1, 0), (2, skewed.hex()), (3, 0)
    ]


@pytest.mark.parametrize(
    "point, keys", [((ALG1, 7, 2, None, ()), 1), ((ALG2, 7, 2, 3, ()), 2)]
)
def test_a_wide_false_alarm_falls_back_to_width_1(point, keys, monkeypatch):
    """A flag raised only on wide words cannot name its generation: the
    stretch is bisected down to width 1, where no alarm is raised, and
    the transcript is the one the run writes without the patch."""
    config = point_config(*point)
    want = sim.run_execution(config, AdversaryScript()).transcript.to_jsonl()
    real, widths = sim.detection_flag, []

    def detection_flag(params, *args):
        widths.append(params.sym_bytes // config.sym_bytes)
        return widths[-1] > 1 or real(params, *args)
    monkeypatch.setattr(sim, "detection_flag", detection_flag)
    steps = recorded_steps(monkeypatch)
    assert sim.run_execution(config, AdversaryScript()).transcript.to_jsonl() == want
    # every processor holds the same words: alg2 asks one flag for the
    # match set's members and one for the rest
    assert widths == [3] * keys + [1] * 3 * keys
    assert steps == [(1, 3, 0, 3), (1, 1, 1, 0), (2, 1, 1, 0), (3, 1, 1, 0)]


def once_per_word(monkeypatch):
    """Ask the engine's `decode` and `detection_flag` once per distinct
    word per generation and hand every later caller holding that word
    the same answer (or the same exception)."""
    memo: dict = {}
    fresh_state = sim.Execution._fresh_state

    def new_generation(self, g, width=1):
        assert width == 1
        memo.clear()
        return fresh_state(self, g, width)
    monkeypatch.setattr(sim.Execution, "_fresh_state", new_generation)

    def keyed(name, key):
        real = getattr(sim, name)

        def wrapper(*args, **kw):
            k = (name, key(*args))
            if k not in memo:
                try:
                    memo[k] = (real(*args, **kw), None)
                except InsufficientSymbolsError as error:
                    memo[k] = (None, error)
            value, error = memo[k]
            if error is not None:
                raise error
            return value
        monkeypatch.setattr(sim, name, wrapper)

    keyed("decode", lambda params, vec, *rest: tuple(vec))
    keyed("detection_flag", lambda params, received, coded, in_match, *rest: (
        in_match, tuple(received), tuple(coded) if in_match else None
    ))


def test_counting_patches_act_once_per_word(monkeypatch):
    """The frozen lists are what an engine that asks per processor gives
    when each patch is consulted once per distinct word per generation:
    run against such an engine, this proves the lists' re-record."""
    got = {}
    for key, config, script, patch in corpus():
        with monkeypatch.context() as m:
            width_one(m)
            patch(m, config, script)
            once_per_word(m)
            got[key] = sim.run_execution(config, script).violations
    assert got == json.loads(FROZEN.read_text())


def test_ledgers_resum_from_the_transcript(monkeypatch):
    for key, config, script, patch in corpus():
        with monkeypatch.context() as m:
            patch(m, config, script)
            result = sim.run_execution(config, script)
        events = result.transcript.events
        cells = resum_ledger(events)
        assert cells == result.ledger.to_jsonable(), key
        assert ledger_totals(cells) == events[-1]["ledger"], key


def withholding_script(config, receivers=(1, 2, 3)) -> AdversaryScript:
    """Faulty processor n withholds its own-wave symbol from `receivers` in
    every generation. The erased slot is a parity slot, so their words
    stay codewords and no flag is raised, but every generation has two
    distinct accepted words: theirs and everyone else's."""
    script = AdversaryScript([config.n])
    for g in range(1, config.generations + 1):
        for r in receivers:
            script.add_send(g, STEP_OWN, config.n, r, SEND_SILENT)
    return script


def test_decided_events_map_each_block_when_blocks_differ(monkeypatch):
    config = point_config(ALG1, 7, 2, None, ())
    script = withholding_script(config)
    # the second distinct word of each generation is skewed
    patch_decode_skews(monkeypatch, config, script)
    result = sim.run_execution(config, script)
    size, differ = config.block_bytes, 0
    for event in result.transcript.of_type("DECIDED"):
        g = event["g"]
        # the one input's block by its index, any other in hex
        blocks = {
            str(p): 0 if block == config.input_block(1, g) else block.hex()
            for p, out in result.outputs.items()
            for block in [out[(g - 1) * size : g * size]]
        }
        if len(set(blocks.values())) > 1:
            differ += 1
            assert event["values"] == blocks
        else:
            assert "values" not in event
    assert differ == 3
    assert "g1: fault-free processors decided different blocks" in result.violations


@pytest.mark.parametrize("withheld, words", [((), 1), ((1, 2, 3), 2)])
def test_each_distinct_word_is_judged_once_per_generation(monkeypatch, withheld, words):
    """Once per distinct word of each step: the quiet run is one step of
    all three generations, and a run with rules in every generation takes
    them one at a time."""
    # all-zero inputs: every generation holds the same words, so a verdict
    # kept from one step to the next would show as a missing call
    config = point_config(ALG1, 7, 2, None, tuple(range(1, 8)))
    script = withholding_script(config, withheld)
    flags = counted(monkeypatch, "detection_flag")
    decodes = counted(monkeypatch, "decode")
    steps = recorded_steps(monkeypatch)
    result = sim.run_execution(config, script)
    assert result.passed
    assert [o["kind"] for o in result.outcomes] == ["DECIDED"] * config.generations
    assert [(g, width) for g, width, _, _ in steps] == (
        [(1, 1), (2, 1), (3, 1)] if withheld else [(1, 3)]
    )
    assert len(flags) == len(decodes) == words * len(steps)
    for i, (_, width, _, _) in enumerate(steps):
        asked = flags[words * i : words * (i + 1)]
        assert len({tuple(received) for _, received, *_ in asked}) == words
        decoded = decodes[words * i : words * (i + 1)]
        assert {params.sym_bytes for params, *_ in asked + decoded} == {
            width * config.sym_bytes
        }


def test_back_to_back_executions_do_the_same_codec_work(monkeypatch):
    # a one-generation fault-free run ends judging the word the next run
    # judges first, and an adversarial run diagnoses; neither may reuse
    # a verdict from the run before
    real, calls = rs._eval_at, [0]

    def eval_at(*args):
        calls[0] += 1
        return real(*args)
    monkeypatch.setattr(rs, "_eval_at", eval_at)
    fault_free = point_config(ALG1, 7, 2, None, ())
    one_generation = dataclasses.replace(
        fault_free, l_bits=fault_free.d_bits,
        inputs=tuple(v[: 2 * fault_free.k] for v in fault_free.inputs),
    )
    adversarial = point_config(ALG2, 7, 2, 3, (6, 7))
    for config, script in (
        (one_generation, AdversaryScript()),
        (adversarial, random_script(adversarial, 2)),
    ):
        work = []
        for _ in range(2):
            calls[0] = 0
            sim.run_execution(config, script)
            work.append(calls[0])
        assert work[0] == work[1] > 0


def test_frozen_corpus_reaches_every_message():
    frozen = json.loads(FROZEN.read_text())
    seen = {line for lines in frozen.values() for line in lines}
    for pattern in MESSAGES:
        assert any(re.fullmatch(pattern, line) for line in seen), pattern
    assert all(any(re.fullmatch(p, line) for p in MESSAGES) for line in seen)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        recorded = run_corpus(mp)
    FROZEN.write_text(json.dumps(recorded, indent=1) + "\n")
    failing = sum(1 for lines in recorded.values() if lines)
    print(f"recorded {len(recorded)} runs, {failing} failing", file=sys.stderr)
