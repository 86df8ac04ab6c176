"""The judge on hand-built event lists, with the messages it must write."""

import pytest

from codedbft.check import judge
from codedbft.sim import ALG1, ALG2, ExecutionConfig


def one_block_config(algorithm, inputs, q=None, generations=1) -> ExecutionConfig:
    """n=4, t=1 with 3-byte blocks; `inputs` are the per-processor blocks."""
    return ExecutionConfig(
        algorithm=algorithm, n=4, t=1, q=q, l_bits=24 * generations, d_bits=24,
        inputs=tuple(block.hex() * generations for block in inputs),
    )


def test_judge_reports_a_hand_built_alg2_run():
    shared, other, outside = b"\x01" * 3, b"\x02" * 3, b"\x09" * 3
    config = one_block_config(ALG2, (shared, shared, shared, other), q=3)
    events = [
        {"type": "header"},
        {"type": "ROUND", "g": 1, "tag": "detected", "payload": "1000",
         "payload_bits": 4},
        {"type": "MATCH_SET", "g": 1, "members": [1, 2, 3]},
        {"type": "EDGE_REMOVED", "g": 1, "i": 3, "j": 4, "rule": "dispute"},
        {"type": "EDGE_REMOVED", "g": 1, "i": 1, "j": 2, "rule": "dispute"},
        {"type": "CONVICTED", "g": 1, "processor": 3, "rule": "flag"},
        {"type": "DECIDED", "g": 1, "kind": "DIAGNOSED_DECIDED",
         "value": outside.hex(), "decide_set": [1, 2, 4]},
    ]
    outputs = dict.fromkeys((1, 2, 3), outside)
    # convicting 3 removes its edges to 1 and 2 as well: (3,4) is gone
    assert judge(config, {4}, events, outputs) == [
        "g1: edge (1,2) between fault-free processors removed",
        "g1: fault-free processor 3 convicted",
        "g1: edge (1,3) between fault-free processors removed",
        "g1: edge (2,3) between fault-free processors removed",
        "g1: decided block is no fault-free input",
        "g1: majority quorum decided a block other than the shared one",
        "fault-free processor 3 ended convicted",
    ]


def test_a_conviction_removes_the_edges_its_processor_has_left():
    """No `EDGE_REMOVED` line follows a `CONVICTED` one: the judge removes
    each edge the processor has left, lowest other end first, and
    reports those between fault-free processors after the conviction."""
    a = b"\x01" * 3
    config = one_block_config(ALG1, (a, a, a, a))
    events = [
        {"type": "EDGE_REMOVED", "g": 1, "i": 1, "j": 3, "rule": "dispute"},
        {"type": "CONVICTED", "g": 1, "processor": 3, "rule": "flag"},
        # 4's edges to 1 and 2 are left; (3,4) went with 3
        {"type": "CONVICTED", "g": 2, "processor": 4, "rule": "flag"},
        {"type": "EDGE_REMOVED", "g": 2, "i": 1, "j": 2, "rule": "dispute"},
    ]
    outputs = dict.fromkeys((1, 2, 3), a)
    assert judge(config, {4}, events, outputs) == [
        "g1: edge (1,3) between fault-free processors removed",
        "g1: fault-free processor 3 convicted",
        "g1: edge (2,3) between fault-free processors removed",
        "g2: edge (1,2) between fault-free processors removed",
        "fault-free processor 3 ended convicted",
    ]


def test_judge_carries_the_alg1_match_set_forward():
    # the g1 decide set [3, 4] leaves processor 3 the only fault-free
    # member in g2, so processor 1's block is no member's input there
    a, b = b"\x01" * 3, b"\x02" * 3
    config = one_block_config(ALG1, (a, a, b, b), generations=2)
    events = [
        {"type": "CONVICTED", "g": 1, "processor": 4, "rule": "flag"},
        {"type": "DECIDED", "g": 1, "kind": "DIAGNOSED_DECIDED",
         "value": b.hex(), "decide_set": [3, 4]},
        {"type": "DECIDED", "g": 2, "kind": "DECIDED",
         "value": a.hex(), "decide_set": []},
    ]
    outputs = dict.fromkeys((1, 2, 3), b + a)
    assert judge(config, {4}, events, outputs) == [
        "g2: decided block is no fault-free member's input",
    ]


def test_a_conviction_leaves_the_carried_alg1_match_set_without_a_decide_set():
    # convicting 4, the one fault-free holder of b, takes b out of the
    # members' inputs from the next generation, though no decide set follows
    a, b = b"\x01" * 3, b"\x02" * 3
    config = one_block_config(ALG1, (a, a, a, b), generations=2)
    events = [
        {"type": "CONVICTED", "g": 1, "processor": 4, "rule": "flag"},
        {"type": "DECIDED", "g": 1, "kind": "DECIDED", "value": b.hex(), "decide_set": []},
        {"type": "DECIDED", "g": 2, "kind": "DECIDED", "value": b.hex(), "decide_set": []},
    ]
    outputs = dict.fromkeys((2, 3, 4), b + b)
    assert judge(config, {1}, events, outputs) == [
        "g1: fault-free processor 4 convicted",
        "g1: edge (2,4) between fault-free processors removed",
        "g1: edge (3,4) between fault-free processors removed",
        "g2: decided block is no fault-free member's input",
        "fault-free processor 4 ended convicted",
    ]


def test_judge_reads_each_block_from_a_values_map():
    # processor 1 could not decode its word, so the blocks differ
    a = b"\x01" * 3
    config = one_block_config(ALG1, (a, a, a, a))
    events = [
        {"type": "DECIDED", "g": 1, "kind": "DECIDED", "value": "",
         "decide_set": [], "values": {"1": "", "2": a.hex(), "3": a.hex()}},
    ]
    outputs = {1: b"", 2: a, 3: a}
    assert judge(config, {4}, events, outputs) == [
        "g1: fault-free processor 1 cannot decode its accepted word",
        "g1: fault-free processors decided different blocks",
        "g1: decided block is no fault-free member's input",
        "processor 1 terminated without a full output",
        "final fault-free outputs differ",
        "identical fault-free inputs were not decided",
    ]


# The rules on final outputs compare them with each other and with a view of
# the shared input; the engine hands equal outputs over as one object, and
# these tests hand over distinct ones.


def test_equal_outputs_in_distinct_objects_pass():
    a = b"\x01\x02\x03" * 4
    config = one_block_config(ALG1, (a[:3],) * 4, generations=4)
    outputs = {p: bytes(bytearray(a)) for p in (1, 2, 3)}
    assert outputs[1] is not outputs[2]
    assert judge(config, {4}, [], outputs) == []


@pytest.mark.parametrize("algorithm, q, shared, want", [
    (ALG1, None, True, ["final fault-free outputs differ",
                        "identical fault-free inputs were not decided"]),
    (ALG1, None, False, ["final fault-free outputs differ"]),
    (ALG2, 3, True, ["final fault-free outputs differ"]),
])
def test_an_output_that_differs_in_its_last_byte(algorithm, q, shared, want):
    a, b = b"\x01\x02\x03", b"\x04\x05\x06"
    config = one_block_config(algorithm, (a, a, a if shared else b, a), q=q, generations=2)
    outputs = {1: a + a, 2: a + a, 3: a + a[:-1] + b"\x07"}
    assert judge(config, {4}, [], outputs) == want


def test_a_short_output_did_not_terminate_with_a_full_output():
    a = b"\x01\x02\x03"
    config = one_block_config(ALG1, (a,) * 4, generations=2)
    outputs = {1: a + a, 2: a, 3: a + a}
    assert judge(config, {4}, [], outputs) == [
        "processor 2 terminated without a full output",
        "final fault-free outputs differ",
        "identical fault-free inputs were not decided",
    ]


def test_identical_inputs_are_decided_up_to_l_bits_whatever_the_padding():
    """Two bytes of value in a three-byte block: the zero-filled tail is no
    part of the input, so an output that differs only there decides it."""
    config = ExecutionConfig(algorithm=ALG1, n=4, t=1, l_bits=16, d_bits=24,
                             inputs=("0102",) * 4)
    assert judge(config, {4}, [], dict.fromkeys((1, 2, 3), b"\x01\x02\x09")) == []
    assert judge(config, {4}, [], dict.fromkeys((1, 2, 3), b"\x01\x09\x00")) == [
        "identical fault-free inputs were not decided",
    ]


def test_an_empty_outputs_map_does_not_raise():
    config = one_block_config(ALG1, (b"\x01\x02\x03",) * 4)
    assert judge(config, {4}, [], {}) == []
