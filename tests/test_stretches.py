"""Stretches of quiet generations against the engine pinned to width 1.

A stretch runs its generations as the byte lanes of one wide step, and
must write the transcript that running them one at a time writes. The
corpus: every golden case, one seed of the benchmark's random-adversary
sweep, and alg2 runs whose match vectors coincide in one lane, which
the wide step takes on alone after its match vectors.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from codedbft import sim
from codedbft.sim import (
    ALG2,
    OUTCOME_DECIDED,
    OUTCOME_DEFAULT,
    OUTCOME_TERMINATED,
    TAG_MATCH_BITS,
    AdversaryScript,
    ExecutionConfig,
    run_execution,
)
from engine_steps import recorded_ranges, recorded_steps, width_one
from golden_corpus import all_cases

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


def transcripts(monkeypatch, cases, pinned):
    with monkeypatch.context() as m:
        if pinned:
            width_one(m)
        return [run_execution(*case).transcript.to_jsonl() for case in cases]


@pytest.mark.parametrize("clique", [(), (5, 6, 7)])
@pytest.mark.parametrize("g_cut", [1, 2, 4, 6])
def test_a_lane_whose_match_vectors_coincide_cuts_the_stretch_there(
    g_cut, clique, monkeypatch
):
    config = coinciding_config(g_cut, clique=clique)
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
    masks = [
        e["payload"][:2] for e in result.transcript.of_type("ROUND")
        if e["tag"] == TAG_MATCH_BITS
    ]
    assert masks == [["01", "02"]] * (g_cut - 1) + [["03", "03"]] + [["01", "02"]] * (
        6 - g_cut
    )
    assert {o["kind"] for o in result.outcomes} == {
        OUTCOME_DECIDED if clique else OUTCOME_DEFAULT
    }


def test_a_one_lane_range_diagnoses_where_it_stands(monkeypatch):
    real = sim.detection_flag

    def flag(params, received, *rest):
        # TRUE on every word of generation 3 that is one lane wide
        if params.sym_bytes == 1 and any(v and v[0] >> 4 == 3 for v in received):
            return True
        return real(params, received, *rest)
    monkeypatch.setattr(sim, "detection_flag", flag)
    case = (coinciding_config(3, clique=(5, 6, 7)), AdversaryScript())
    want = transcripts(monkeypatch, [case], pinned=True)
    assert '"tag":"coded"' in want[0]
    steps = recorded_steps(monkeypatch)
    assert transcripts(monkeypatch, [case], pinned=False) == want
    # generation 3's lane goes on alone and diagnoses in place, which ends
    # the step after it: the lanes after it ran at the graph state before
    assert steps == [(1, 6, 3, 0), (4, 3, 3, 0)]


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
