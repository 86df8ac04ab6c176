"""The judge of one finished run: the paper's properties, checked once.

It knows the ground-truth faulty set, which the protocol code never does,
and walks the transcript events once, in order.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Collection, Iterable, Mapping

from .consensus import ALG1, OUTCOME_DECIDED, OUTCOME_DEFAULT

if TYPE_CHECKING:
    from .sim import ExecutionConfig


def span(g: int | list[int]) -> tuple[int, int]:
    """The first and last generation of a line's `g`: one generation, or the
    range [a, b] of generations that wrote the line alike."""
    return (g, g) if type(g) is int else (g[0], g[1])


def judge(
    config: ExecutionConfig, faulty: Collection[int], events: Iterable[dict],
    outputs: Mapping[int, bytes],
) -> list[str]:
    """Every violation of agreement, validity (alg1), q-validity and the
    shared-value rule (alg2), in the order the events reveal them, and
    within a range of generations generation by generation.

    A `DECIDED` event holds every fault-free processor's block of its
    generations (empty if the processor could not decode the word it
    accepted): the one `value` when the blocks agree, else its `values`
    map, each the index of the distinct input whose block it is (the
    lowest on a tie) or else the block's hex. A range whose blocks are
    one input's, which no rule can fault, is read once. The judge runs
    before `VERDICT` records the final outputs, so it also takes
    `outputs[p]`, fault-free processor p's final output.
    """
    fault_free = [p for p in range(1, config.n + 1) if p not in faulty]
    # each distinct fault-free input's index and how many fault-free processors
    # hold it, in the order of its lowest fault-free holder: a generation's
    # blocks are sliced once per distinct input and counted by weight
    weight = Counter(config.index[p - 1] for p in fault_free)
    weighted = [(config.distinct[x], w) for x, w in weight.items()]
    total = sum(weight.values())
    size = config.block_bytes

    def shared(g: int) -> dict[bytes, int]:
        """Generation g's fault-free blocks and how many fault-free processors
        hold each, in the order of their lowest holder."""
        counts: dict[bytes, int] = {}
        for padded, w in weighted:
            block = padded[(g - 1) * size : g * size]
            counts[block] = counts.get(block, 0) + w
        return counts
    # (generation, message) in the order the lines speak: a range's line
    # speaks for each of its generations, and a stable sort by generation
    # puts the lines of one range generation by generation
    found: list[tuple[int, str]] = []

    def say(g: int, message: str) -> None:
        found.append((g, message))
    convicted: set[int] = set()
    # removed trust edges (i, j), i < j: a conviction removes every edge
    # its processor has left, in ascending order of the other end
    removed: set[tuple[int, int]] = set()
    # alg1's match set: the last decide set, less the convicted; and the
    # indices of its fault-free members' inputs, rebuilt only when a decide
    # set or a conviction (`stale`) can change them
    p_match: Iterable[int] = range(1, config.n + 1)
    member_inputs, stale = set(weight), False

    def edge_removed(g: int, i: int, j: int) -> None:
        removed.add((i, j))
        if i not in faulty and j not in faulty:
            say(g, f"g{g}: edge ({i},{j}) between fault-free processors removed")

    def unfaulted(e: dict) -> bool:
        """Whether no rule can fault a `DECIDED` line in any generation of
        its range: one block for all, not an undecodable one, and an input
        that a member (alg1) or a fault-free processor (alg2) holds, which
        wins any majority."""
        value = e["value"]
        if "values" in e or value == "" and e["kind"] == OUTCOME_DECIDED:
            return False
        if config.algorithm == ALG1:  # a name in hex is no index
            return not member_inputs or value in member_inputs
        return e["kind"] == OUTCOME_DEFAULT or value in weight and (
            2 * weight[value] > total or total < config.q or config.q < (config.n + 2) // 2
        )

    def decided(g: int, e: dict, names: list) -> None:
        """The rules of a `DECIDED` line in generation g."""
        values = [config.distinct[v][(g - 1) * size : g * size] if type(v) is int
                  else bytes.fromhex(v) for v in names]
        distinct = set(values)
        if e["kind"] == OUTCOME_DECIDED and b"" in distinct:
            for p, value in zip(fault_free, values):
                if not value:
                    say(g, f"g{g}: fault-free processor {p} cannot decode its accepted word")
        if len(distinct) > 1:
            say(g, f"g{g}: fault-free processors decided different blocks")
        if config.algorithm == ALG1:
            # a fault-free match-set member's input, if one is in the match set
            if inputs := {config.distinct[x][(g - 1) * size : g * size] for x in member_inputs}:
                for _ in distinct - inputs:
                    say(g, f"g{g}: decided block is no fault-free member's input")
        elif e["kind"] != OUTCOME_DEFAULT:
            # a default is legal; any other decision is a fault-free input,
            # and the block a majority-sized fault-free quorum shares wins
            counts = shared(g)
            if values[0] not in counts:
                say(g, f"g{g}: decided block is no fault-free input")
            # the most widely held block; of a tie, the lowest holder's
            most = max(counts.values())
            block = next(b for b, c in counts.items() if c == most)
            if most >= config.q >= (config.n + 2) // 2 and values[0] != block:
                say(g, f"g{g}: majority quorum decided a block other than the shared one")
    for e in events:
        kind = e["type"]
        if kind in ("ROUND", "BROADCAST", "WAVE", "SYMBOL_SENT"):
            continue  # traffic, most of the events, carries no verdict
        g = e.get("g")
        if kind == "EDGE_REMOVED":  # an edge goes once, so in one generation
            edge_removed(g, e["i"], e["j"])
        elif kind == "CONVICTED":
            convicted.add(p := e["processor"])
            stale = True
            if p not in faulty:
                say(g, f"g{g}: fault-free processor {p} convicted")
            for u in range(1, config.n + 1):
                edge = (min(p, u), max(p, u))
                if u != p and edge not in removed:
                    edge_removed(g, *edge)
        elif kind == "MATCH_SET" and e["members"] is None:
            # q fault-free processors sharing a block must yield a match set:
            # until an edge between two of them goes, which is flagged above,
            # they trust each other pairwise
            a, b = span(g)
            for g in range(a, b + 1):
                if max(shared(g).values()) >= config.q:
                    say(g, f"g{g}: no match set found despite a trusting "
                        f"fault-free group sharing a block")
        elif kind == "DECIDED":
            a, b = span(g)
            # alg1's state is settled after a range's first generation
            for lo, hi in ((a, a), (a + 1, b)):
                if lo <= hi and not unfaulted(e):
                    names = [e["values"][str(p)] for p in fault_free] if "values" in e else (
                        [e["value"]] * len(fault_free))
                    for g in range(lo, hi + 1):
                        decided(g, e, names)
                if config.algorithm == ALG1 and (e["decide_set"] or stale):
                    p_match = [p for p in e["decide_set"] or p_match if p not in convicted]
                    member_inputs = {config.index[p - 1] for p in p_match if p not in faulty}
                    stale = False
    out = [message for _, message in sorted(found, key=lambda item: item[0])]
    out.extend(f"processor {p} terminated without a full output"
               for p, blob in outputs.items() if len(blob) != config.padded_bytes)
    first = next(iter(outputs.values()), b"")  # compared, not hashed: mostly one object
    if any(v != first for v in outputs.values()):
        out.append("final fault-free outputs differ")
    if config.algorithm == ALG1 and len(weight) == 1:
        value = memoryview(config.distinct[next(iter(weight))])[: config.l_bits // 8]
        if not all(v.startswith(value) for v in outputs.values()):
            out.append("identical fault-free inputs were not decided")
    out.extend(f"fault-free processor {p} ended convicted" for p in fault_free if p in convicted)
    return out
