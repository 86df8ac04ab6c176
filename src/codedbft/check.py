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


def judge(
    config: ExecutionConfig, faulty: Collection[int], events: Iterable[dict],
    outputs: Mapping[int, bytes],
) -> list[str]:
    """Every violation of agreement, validity (alg1), q-validity and the
    shared-value rule (alg2), in the order the events reveal them.

    A `DECIDED` event holds every fault-free processor's block of its
    generation (empty if the processor could not decode the word it
    accepted): the one `value` when the blocks agree, else its `values`
    map. The judge runs before `VERDICT` records the final outputs, so
    it also takes `outputs[p]`, fault-free processor p's final output.
    """
    fault_free = [p for p in range(1, config.n + 1) if p not in faulty]
    # each distinct fault-free input and its number of fault-free holders, in
    # the order of its lowest fault-free holder: a generation's blocks are
    # sliced once per distinct input and counted by weight
    weight = Counter(config.holders[p - 1] for p in fault_free)
    weighted = [(config.padded_input(h), w) for h, w in weight.items()]
    size = config.block_bytes

    def shared(g: int) -> dict[bytes, int]:
        """Generation g's fault-free blocks and their numbers of holders,
        in the order of their lowest holders."""
        counts: dict[bytes, int] = {}
        for padded, w in weighted:
            block = padded[(g - 1) * size : g * size]
            counts[block] = counts.get(block, 0) + w
        return counts
    out: list[str] = []
    convicted: set[int] = set()
    # removed trust edges (i, j), i < j: a conviction removes every edge
    # its processor has left, in ascending order of the other end
    removed: set[tuple[int, int]] = set()
    # alg1's match set: the last decide set, less the convicted; and the
    # lowest holders of its fault-free members' inputs, rebuilt only when a
    # decide set or a conviction (`stale`) can change them
    p_match: Iterable[int] = range(1, config.n + 1)
    member_holders, stale = set(weight), False

    def edge_removed(g: int, i: int, j: int) -> None:
        removed.add((i, j))
        if i not in faulty and j not in faulty:
            out.append(f"g{g}: edge ({i},{j}) between fault-free processors removed")
    for e in events:
        kind = e["type"]
        if kind in ("ROUND", "BROADCAST", "WAVE", "SYMBOL_SENT"):
            continue  # traffic, most of the events, carries no verdict
        g = e.get("g")
        if kind == "EDGE_REMOVED":
            edge_removed(g, e["i"], e["j"])
        elif kind == "CONVICTED":
            convicted.add(p := e["processor"])
            stale = True
            if p not in faulty:
                out.append(f"g{g}: fault-free processor {p} convicted")
            for u in range(1, config.n + 1):
                edge = (min(p, u), max(p, u))
                if u != p and edge not in removed:
                    edge_removed(g, *edge)
        elif kind == "MATCH_SET" and e["members"] is None:
            # q fault-free processors sharing a block must yield a match set:
            # until an edge between two of them goes, which is flagged above,
            # they trust each other pairwise
            if max(shared(g).values()) >= config.q:
                out.append(
                    f"g{g}: no match set found despite a trusting "
                    f"fault-free group sharing a block"
                )
        elif kind == "DECIDED":
            if blocks := e.get("values"):
                values = [bytes.fromhex(blocks[str(p)]) for p in fault_free]
            else:  # one block, every fault-free processor's
                values = [bytes.fromhex(e["value"])]
            distinct = set(values)
            if e["kind"] == OUTCOME_DECIDED and b"" in distinct:
                out.extend(
                    f"g{g}: fault-free processor {p} cannot decode its accepted word"
                    for p, value in zip(fault_free, values if blocks else values * len(fault_free))
                    if not value
                )
            if len(distinct) > 1:
                out.append(f"g{g}: fault-free processors decided different blocks")
            if config.algorithm == ALG1:
                # a fault-free match-set member's input, if one is in the match set
                if inputs := {config.input_block(h, g) for h in member_holders}:
                    message = f"g{g}: decided block is no fault-free member's input"
                    out += [message] * len(distinct - inputs)
                if e["decide_set"] or stale:
                    p_match = [p for p in e["decide_set"] or p_match if p not in convicted]
                    member_holders = {config.holders[p - 1] for p in p_match if p not in faulty}
                    stale = False
            elif e["kind"] != OUTCOME_DEFAULT:
                # a default is legal; any other decision is a fault-free input,
                # and the block a majority-sized fault-free quorum shares wins
                counts = shared(g)
                if values[0] not in counts:
                    out.append(f"g{g}: decided block is no fault-free input")
                # the most widely held block; of a tie, the lowest holder's
                most = max(counts.values())
                block = next(b for b, c in counts.items() if c == most)
                if most >= config.q >= (config.n + 2) // 2 and values[0] != block:
                    out.append(
                        f"g{g}: majority quorum decided a block other than the shared one"
                    )
    out.extend(f"processor {p} terminated without a full output"
               for p, blob in outputs.items() if len(blob) != config.padded_bytes)
    if len(set(outputs.values())) > 1:
        out.append("final fault-free outputs differ")
    size = config.l_bits // 8
    inputs = {config.padded_input(p)[:size] for p in fault_free}
    if config.algorithm == ALG1 and len(inputs) == 1:
        if any(v[:size] not in inputs for v in outputs.values()):
            out.append("identical fault-free inputs were not decided")
    out.extend(f"fault-free processor {p} ended convicted" for p in fault_free if p in convicted)
    return out
