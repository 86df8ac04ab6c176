"""The judge on hand-built event lists, with the messages it must write."""

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
