"""Stretches of quiet generations against the engine pinned to width 1.

A stretch runs its generations as the byte lanes of one wide step, and
must write the transcript that running them one at a time writes. The
corpus: every golden case, one seed of the benchmark's random-adversary
sweep, and alg2 runs whose match vectors coincide in one lane, which
the wide step takes on alone after its match vectors, with symbols of
one row and of two.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedbft import cli, sim
from codedbft.sim import (
    ALG2,
    OUTCOME_DECIDED,
    OUTCOME_DEFAULT,
    OUTCOME_TERMINATED,
    TAG_CODED,
    TAG_MATCH_BITS,
    TAG_RECEIVED,
    AdversaryScript,
    ExecutionConfig,
    run_execution,
)
from engine_steps import counted, recorded_ranges, recorded_steps, width_one
from golden_corpus import all_cases
from lane_oracle import lane_vectors
import wave_oracle

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def benchmark_sweep(seed: int, trials: int) -> list:
    """`sweep_cases` of the benchmark's workloads, loaded from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.sweep_cases(seed, trials)


def coinciding_config(
    g_cut: int, generations: int = 6, clique: tuple[int, ...] = ()
) -> ExecutionConfig:
    """alg2 n=7 q=3 with 1-byte symbols: processor p's block of generation
    g is three bytes 16g + p, so every match vector holds only its own
    bit, but in generation `g_cut` processor 2 holds processor 1's block
    and the two match each other in that lane alone. The processors of
    `clique` hold the blocks of its first, a match set in every lane."""
    def block(p, g):
        holder = 1 if (p, g) == (2, g_cut) else min(clique) if p in clique else p
        return bytes([16 * g + holder]) * 3
    inputs = tuple(
        b"".join(block(p, g) for g in range(1, generations + 1)).hex()
        for p in range(1, 8)
    )
    return ExecutionConfig(
        algorithm=ALG2, n=7, t=2, q=3, l_bits=24 * generations, d_bits=24,
        inputs=inputs,
    )


def two_row_config(
    g_both: int, g_one: int, row: int, generations: int = 6
) -> ExecutionConfig:
    """alg2 n=7 q=3 with 2-byte symbols: each row of processor p's three
    symbols in generation g is 16g + p, but processor 2 holds processor
    1's rows in generation `g_both` and processor 1's `row` alone in
    `g_one`. The rows are coded apart, so 2's match vector and 1's
    coincide in lane `g_both` only."""
    def block(p, g):
        holders = [1 if p == 2 and (g == g_both or (g, r) == (g_one, row)) else p
                   for r in range(2)]
        return bytes(16 * g + h for h in holders) * 3
    inputs = tuple(
        b"".join(block(p, g) for g in range(1, generations + 1)).hex()
        for p in range(1, 8)
    )
    return ExecutionConfig(
        algorithm=ALG2, n=7, t=2, q=3, l_bits=48 * generations, d_bits=48,
        inputs=inputs,
    )


def transcripts(monkeypatch, cases, pinned):
    with monkeypatch.context() as m:
        if pinned:
            width_one(m)
        return [run_execution(*case).transcript.to_jsonl() for case in cases]


def cut_at(config: ExecutionConfig, g_cut: int, monkeypatch):
    """The run of a six-generation config whose processors 1 and 2 match
    each other in lane `g_cut` alone, checked against the width-1 run."""
    want = transcripts(monkeypatch, [(config, AdversaryScript())], pinned=True)
    steps = recorded_steps(monkeypatch)
    ranges = recorded_ranges(monkeypatch, steps)
    result = run_execution(config, AdversaryScript())
    assert [result.transcript.to_jsonl()] == want
    # one wide step settles all six generations: after its match vectors
    # it goes on with the lanes before the cut, the cut generation's lane
    # alone and then the rest, each range with the words of its lanes
    # when a match set needs them
    assert steps == [(1, 6, 6, 0)]
    cut = ((1, g_cut - 1), (g_cut, 1), (g_cut + 1, 6 - g_cut))
    assert ranges == [(0, g, lanes) for g, lanes in cut if lanes]
    # the lanes on each side of the cut write their lines once, over their range
    masks = [
        (e["g"], e["payload"][:2]) for e in result.transcript.of_type("ROUND")
        if e["tag"] == TAG_MATCH_BITS
    ]
    assert masks == [
        (a if a == b else [a, b], pair)
        for a, b, pair in ((1, g_cut - 1, ["01", "02"]), (g_cut, g_cut, ["03", "03"]),
                           (g_cut + 1, 6, ["01", "02"]))
        if a <= b
    ]
    return result


@pytest.mark.parametrize("clique", [(), (5, 6, 7)])
@pytest.mark.parametrize("g_cut", [1, 2, 4, 6])
def test_a_lane_whose_match_vectors_coincide_cuts_the_stretch_there(
    g_cut, clique, monkeypatch
):
    result = cut_at(coinciding_config(g_cut, clique=clique), g_cut, monkeypatch)
    assert {o["kind"] for o in result.outcomes} == {
        OUTCOME_DECIDED if clique else OUTCOME_DEFAULT
    }


@pytest.mark.parametrize("g_both, g_one, row", [(2, 4, 1), (5, 1, 0)])
def test_a_lane_check_folds_both_rows_of_a_symbol(g_both, g_one, row, monkeypatch):
    # the lane whose rows all coincide is cut out; the one that coincides
    # in one row alone, the last or the first, stays among the wide
    # vectors' lanes
    config = two_row_config(g_both, g_one, row)
    assert config.sym_bytes == 2
    cut_at(config, g_both, monkeypatch)


def flag_generation_3(monkeypatch) -> None:
    """Make every detection flag TRUE on a word of generation 3 of a
    `coinciding_config` that is one lane wide."""
    real = sim.detection_flag

    def flag(params, received, *rest):
        if params.sym_bytes == 1 and any(v and v[0] >> 4 == 3 for v in received):
            return True
        return real(params, received, *rest)
    monkeypatch.setattr(sim, "detection_flag", flag)


def test_a_one_lane_range_diagnoses_where_it_stands(monkeypatch):
    flag_generation_3(monkeypatch)
    case = (coinciding_config(3, clique=(5, 6, 7)), AdversaryScript())
    want = transcripts(monkeypatch, [case], pinned=True)
    assert '"tag":"coded"' in want[0]
    steps = recorded_steps(monkeypatch)
    assert transcripts(monkeypatch, [case], pinned=False) == want
    # generation 3's lane goes on alone and diagnoses in place, which ends
    # the step after it: the lanes after it ran at the graph state before
    assert steps == [(1, 6, 3, 0), (4, 3, 3, 0)]


def test_a_claim_rule_answers_in_a_one_lane_range_that_diagnoses(monkeypatch):
    """A claim rule on generation 3 leaves the stretch whole, and the
    diagnosis that generation 3's lane holds alone asks the script for
    the claims all the same."""
    flag_generation_3(monkeypatch)
    script = AdversaryScript([7]).add_broadcast(3, TAG_CODED, 7, "replace", ["00"] * 7)
    case = (coinciding_config(3, clique=(5, 6, 7)), script)
    want = transcripts(monkeypatch, [case], pinned=True)
    assert '"sender":7,"tag":"coded","type":"BROADCAST"}' in want[0]
    steps = recorded_steps(monkeypatch)
    assert transcripts(monkeypatch, [case], pinned=False) == want
    assert steps == [(1, 6, 3, 0), (4, 3, 3, 0)]


def test_a_script_of_claim_rules_alone_runs_as_one_wide_step(monkeypatch):
    """Claims are broadcast only in a diagnosis, which a run whose every
    flag is FALSE never holds: its claim rules leave it one quiet step."""
    config = coinciding_config(0, clique=tuple(range(1, 8)))
    script = (
        AdversaryScript([6, 7])
        .add_broadcast(2, TAG_CODED, 7, "replace", ["00"] * 7)
        .add_broadcast(5, TAG_RECEIVED, 6, "silent")
    )
    want = transcripts(monkeypatch, [(config, script)], pinned=True)
    steps = recorded_steps(monkeypatch)
    assert transcripts(monkeypatch, [(config, script)], pinned=False) == want
    assert steps == [(1, 6, 6, 0)]
    assert '"type":"BROADCAST"' not in want[0] and '"DECIDED"' in want[0]


def test_a_width_1_run_cuts_no_lanes(monkeypatch):
    """A run pinned to width 1 takes each generation's symbols straight
    from the run's wide words and checks its match vectors without the
    lane check or a lane cut."""
    config = coinciding_config(3, clique=(5, 6, 7))
    width_one(monkeypatch)
    steps = recorded_steps(monkeypatch)
    checks = counted(monkeypatch, "_lane_vectors")
    cuts = counted(monkeypatch, "_lanes")
    run_execution(config, AdversaryScript())
    assert [width for _, width, _, _ in steps] == [1] * 6
    assert checks == cuts == []


def test_stretches_and_width_1_write_the_same_transcripts(monkeypatch):
    cases = [
        *all_cases().values(),
        *benchmark_sweep(3001, 50),
        *(
            (coinciding_config(g_cut, 9, clique), AdversaryScript())
            for g_cut, clique in ((3, ()), (9, ()), (4, (5, 6, 7)))
        ),
    ]
    assert len(cases) == 86 + 200 + 3
    want = transcripts(monkeypatch, cases, pinned=True)
    steps = recorded_steps(monkeypatch)
    ranges = recorded_ranges(monkeypatch, steps)
    assert transcripts(monkeypatch, cases, pinned=False) == want
    # every line between the header and the verdict is written into the
    # generation that the next DECIDED or TERMINATED_DEFAULT line settles
    for text in want:
        g = None
        for line in reversed(text.splitlines()[1:-1]):
            event = json.loads(line)
            if event["type"] in ("DECIDED", OUTCOME_TERMINATED):
                g = event["g"]
            assert event["g"] == g, line
    # wide steps that settle everything in one range of lanes, that take a
    # lane whose match vectors differ on alone, and that raise a flag they
    # cannot place, which bisects the stretch
    split = {i for i, _, lanes in ranges if lanes < steps[i][1]}
    wide = [(i, width, done, cut) for i, (_, width, done, cut) in enumerate(steps)
            if width > 1]
    kinds = {
        "uniform": sum(done == width and i not in split for i, width, done, _ in wide),
        "split": len(split),
        "bisected": sum(done == 0 and cut == width and i not in split
                        for i, width, done, cut in wide),
    }
    assert sum(kinds.values()) == len(wide) and min(kinds.values()) > 0, kinds


def test_a_wide_settle_maps_only_the_lane_whose_blocks_differ():
    """Two wide values three lanes wide that differ in lane 1 alone: only
    generation g+1's `DECIDED` line maps the blocks, and every processor
    decides what three one-lane settles decide. No block is an input's, so
    each is written in hex, and no two generations' lines are alike."""
    config = coinciding_config(g_cut=0, generations=3)
    blocks = [bytes([16 * j + b for b in range(3)]) for j in range(3)]
    other = bytes(b ^ 0xFF for b in blocks[1])
    holders = {p: blocks if p <= 4 else [blocks[0], other, blocks[2]] for p in range(1, 8)}
    settled = []
    for width in (3, 1):
        execution = sim.Execution(config, AdversaryScript())
        for j in range(0, 3, width):
            execution._lines, execution._waves, execution._width = [], [], width
            execution._settle(1 + j, OUTCOME_DECIDED, {
                p: b"".join(bytes(lanes) for lanes in zip(*lane[j : j + width]))
                for p, lane in holders.items()
            })
        settled.append(execution)
    wide, narrow = settled
    # each settled block: its first and last generation, lines and digests
    assert wide._blocks == narrow._blocks
    assert [(a, b, "values" in lines[-1]) for a, b, lines, _ in wide._blocks] == [
        (1, 1, False), (2, 2, True), (3, 3, False)
    ]
    assert wide._blocks[1][2][-1]["values"] == {
        str(p): lane[1].hex() for p, lane in holders.items()
    }
    for execution in settled:
        assert {p: b"".join(pieces) for p, pieces in execution.decided.items()} == {
            p: b"".join(lane) for p, lane in holders.items()
        }



class Untransposed(bytes):
    """A wide value that fails if it is cut into lanes."""

    def __getitem__(self, key):
        assert not (isinstance(key, slice) and key.step), f"{key} cuts a lane"
        return super().__getitem__(key)


def three_inputs_config() -> ExecutionConfig:
    """alg1 n=7 with 1-byte symbols over six 5-byte blocks: processors 1-3
    hold A, 4-6 hold B, which is A's block in generation 3, and 7 holds C,
    whose block in generation 4 is all zero."""
    def block(p, g):
        if p == 7 and g == 4:
            return bytes(5)
        return bytes([16 * g + (1 if p <= 3 or p <= 6 and g == 3 else 2 if p <= 6 else 3)]) * 5
    inputs = tuple(b"".join(block(p, g) for g in range(1, 7)).hex() for p in range(1, 8))
    return ExecutionConfig(algorithm=sim.ALG1, n=7, t=2, l_bits=240, d_bits=40, inputs=inputs)


@pytest.mark.parametrize("g, width", [(1, 6), (2, 3), (3, 2)])
@pytest.mark.parametrize("value", ["one input", "two inputs by lane", "default"])
def test_a_wide_settle_names_what_width_1_settles_name(g, width, value):
    """A wide settle over the run's lanes or a cut of them writes the blocks
    and decided bytes of one-lane settles. A value that is one input's in
    every lane (B, which shares generation 3's block with the lower A) is
    that input's slice and the all-zero default (C's block in generation 4)
    is its own, neither cut into lanes; a value that is A's in even lanes and
    B's in odd ones matches no input in full and is."""
    config = three_inputs_config()
    blocks = {i: [config.input_block(i, h) for h in range(g, g + width)] for i in (1, 4, 7)}
    held = {
        "one input": blocks[4],
        "two inputs by lane": [blocks[1 if j % 2 == 0 else 4][j] for j in range(width)],
        "default": None,
    }[value]
    settled = []
    for step in (width, 1):
        execution = sim.Execution(config, AdversaryScript())
        for j in range(0, width, step):
            execution._lines, execution._waves, execution._width = [], [], step
            lanes = held and b"".join(bytes(b) for b in zip(*held[j : j + step]))
            if step > 1 and value != "two inputs by lane":
                lanes = Untransposed(lanes or bytes(5 * width))
            kind = OUTCOME_DEFAULT if value == "default" else OUTCOME_DECIDED
            execution._settle(g + j, kind, lanes and dict.fromkeys(execution.fault_free, lanes))
        settled.append(execution)
    wide, narrow = settled
    assert wide._blocks == narrow._blocks
    for execution in settled:
        assert {p: b"".join(pieces) for p, pieces in execution.decided.items()} == (
            dict.fromkeys(range(1, 8), b"".join(held) if held else bytes(5 * width)))
    # each generation's name: the lowest input whose block it is, else its hex
    named = [lines[-1]["value"] for a, b, lines, _ in wide._blocks for _ in range(a, b + 1)]
    assert named == [{
        "one input": 0 if h == 3 else 1,
        "two inputs by lane": 0 if (h - g) % 2 == 0 or h == 3 else 1,
        "default": 2 if h == 4 else "00" * 5,
    }[value] for h in range(g, g + width)]


@st.composite
def lane_checks(draw):
    """Arguments of a lane check on words of up to 6 slots whose symbols
    are `rows` rows of `width` lanes, with erasures in both words, set and
    unset wide bits, and planted matches: a (p, slot, lane) equal in every
    row (`full`) and one equal in one row only (`partial`)."""
    width, rows, n = draw(st.integers(2, 64)), draw(st.integers(1, 3)), draw(st.integers(2, 6))
    size = rows * width
    slot = st.one_of(st.none(), *[st.binary(min_size=size, max_size=size)] * 3)
    vectors, received, coded, full, partial = {}, {}, {}, set(), set()
    for p in draw(st.lists(st.integers(1, 8), min_size=1, max_size=4, unique=True)):
        vectors[p] = draw(st.integers(0, (1 << n) - 1))
        received[p] = draw(st.lists(slot, min_size=n, max_size=n))
        coded[p] = draw(st.lists(slot, min_size=n, max_size=n))
        for i, (r, c) in enumerate(zip(received[p], coded[p])):
            if r is None or c is None:
                continue
            r = bytearray(r)
            for lane in draw(st.sets(st.integers(0, width - 1), max_size=3)):
                r[lane::width] = c[lane::width]
                full.add((p, i, lane))
            if rows > 1 and draw(st.booleans()):
                lane, row = draw(st.integers(0, width - 1)), draw(st.integers(0, rows - 1))
                r[lane::width] = bytes(b ^ 0xFF for b in c[lane::width])
                r[row * width + lane] = c[row * width + lane]
                full.discard((p, i, lane))
                partial.add((p, i, lane))
            received[p][i] = bytes(r)
    return (vectors, received, coded, rows, width), full, partial


@settings(max_examples=300, deadline=None)
@given(lane_checks())
def test_the_lane_check_names_what_the_per_slot_fold_names(check):
    (vectors, received, coded, rows, width), full, partial = check
    lanes = sim._lane_vectors(vectors, received, coded, rows, width)
    want = lane_vectors(vectors, received, coded, width)
    assert lanes == want
    # a lane without a bit of its own shares the wide vectors, which the
    # step groups its ranges of lanes by
    assert [v is vectors for v in lanes] == [v is vectors for v in want]
    for p, i, lane in full:
        assert lanes[lane][p] >> i & 1
    for p, i, lane in partial:
        assert lanes[lane][p] >> i & 1 == vectors[p] >> i & 1


def test_the_lane_check_converts_a_shared_received_word_once(monkeypatch):
    """Processors 1 and 2 hold one received word but their own coded words
    and set bits: the word is converted once and each coded word once,
    and each processor's set bits are masked in its XOR. Lane 0 of slot 1
    matches for processor 1, whose bit 1 is unset; processor 2's bit 1 is
    set, so its equal byte there names nothing."""
    received = [b"\x10\x11", b"\x20\x21", b"\x30\x31"]
    coded = {1: [b"\x00\x00", b"\x20\x00", b"\x00\x00"],
             2: [b"\x00\x11", b"\x20\x00", b"\x30\x00"]}
    vectors = {1: 0b001, 2: 0b010}
    words = {1: received, 2: list(received)}
    conversions = counted(monkeypatch, "_word_int")
    lanes = sim._lane_vectors(vectors, words, coded, 1, 2)
    assert lanes == lane_vectors(vectors, words, coded, 2)
    assert lanes == [{1: 0b011, 2: 0b110}, {1: 0b001, 2: 0b011}]
    assert len(conversions) == 3


def test_width_1_steps_whose_lines_agree_write_one_block(monkeypatch):
    """A sweep case with rules in generations 2 and 3 takes one step per
    generation, but its rules are for waves alg1 never sends here, so the
    three generations write equal lines: one block over [1, 3], whose
    own-wave digest is the SHA-256 of the three generations' records."""
    config, script = all_cases()["alg1-qNone-L7680-D2560-seed200"]
    steps = recorded_steps(monkeypatch)
    events = run_execution(config, script).transcript.events
    assert steps == [(1, 1, 1, 0), (2, 1, 1, 0), (3, 1, 1, 0)]
    assert [(e["type"], e.get("g")) for e in events] == [
        ("header", None), ("WAVE", [1, 3]), ("ROUND", [1, 3]), ("DECIDED", [1, 3]),
        ("VERDICT", None),
    ]
    assert events[3]["value"] == 0
    assert wave_oracle.own_waves(events) == [([1, 3], 42, events[1]["sha256"])]


def test_a_run_without_a_match_set_is_one_step_over_the_runs_own_symbols(monkeypatch):
    """alg2 n=19 q=7 with distinct inputs, the benchmark's no-quorum shape:
    one step covers every generation, and its coded words hold the very
    symbols of the run's one encode, uncut and uncopied."""
    data = {
        "algorithm": ALG2, "n": 19, "t": 6, "q": 7, "l_bits": 4800, "seed": 3001,
        "inputs": {"generator": "random"},
    }
    config = cli.build_config(data)
    script = cli.build_script(data, config)
    gens = config.generations
    assert gens > 1 and config.index == tuple(range(19))
    steps = recorded_steps(monkeypatch)
    result = run_execution(config, script)
    assert steps == [(1, gens, gens, 0)]
    assert {o["kind"] for o in result.outcomes} == {OUTCOME_DEFAULT}
    execution = sim.Execution(config, script)
    coded, received = execution._fresh_state(1, gens)
    for i, word in coded.items():
        assert len(word) == 19
        assert all(v is w for v, w in zip(word, execution._wide[i - 1]))
        assert word is not execution._wide[i - 1] and received[i][i - 1] is word[i - 1]
