"""Reference wave delivery, and the own-wave `WAVE` events of a fault-free
run recomputed from its header. No imports from the package under test.

`deliver` walks a wave's obligations one at a time: the reference the
engine's run-by-run delivery is checked against.

Wave 1 of every generation has each processor s offer slot s of its own
coded block to every peer it trusts, in (sender, receiver) order. A
fault-free run removes no trust edge, so every processor trusts every
other and the digest follows from the inputs alone: encode each
processor's block of the generation with the `gf_oracle` generator
matrix, byte lane by byte lane, and hash the records
`bytes((sender, slot, m, *receivers)) + symbol`, one per sender.
"""

import hashlib
from itertools import groupby

import gf_oracle


def deliver(g, step, obligations, coded, received, faulty, send, suppressed):
    """Deliver one wave obligation by obligation and return its events.

    `obligations` are (sender, receiver, slot) in plan order; `coded` and
    `received` map each processor to its word, a list of symbols, and
    `received` is written in place. A faulty sender's symbol is
    `send(g, step, sender, receiver, honest, sender in suppressed)`, None
    for silence; any other sender not in `suppressed` sends its slot. A
    symbol equal to its sender's slot from a sender not in `suppressed`
    joins the `WAVE` event written after the rest: its count is their
    number, and its `sha256` the SHA-256 of one record per run of
    consecutive obligations with one (sender, slot) that has a joined
    symbol, in order: the sender, the slot, the number m of receivers whose
    symbol joined and those m receivers in obligation order, one byte
    each, then the sender's slot. Every other faulty symbol sent is a
    `SYMBOL_SENT` event.
    """
    events, records, count = [], [], 0
    for (sender, slot), run in groupby(obligations, key=lambda ob: (ob[0], ob[2])):
        honest, joined = coded[sender][slot - 1], []
        for _, receiver, _ in run:
            if sender in faulty:
                value = send(g, step, sender, receiver, honest, sender in suppressed)
            else:
                value = None if sender in suppressed else honest
            if value is None:
                continue
            received[receiver][slot - 1] = value
            if value == honest and sender not in suppressed:
                joined.append(receiver)
            else:
                events.append({
                    "type": "SYMBOL_SENT", "g": g, "step": step, "sender": sender,
                    "receiver": receiver, "slot": slot, "value": value.hex(),
                })
        if joined:
            records.append(bytes([sender, slot, len(joined)] + joined) + honest)
            count += len(joined)
    if records:
        events.append({
            "type": "WAVE", "g": g, "step": step, "count": count,
            "sha256": hashlib.sha256(b"".join(records)).hexdigest(),
        })
    return events


def symbol_at(rows, k, block, pos):
    """Slot `pos` of `block`'s codeword under generator matrix `rows`:
    data symbol j is the j-th of k equal slices of the block, and byte b
    of every slot belongs to the codeword of lane b."""
    s = len(block) // k
    out = []
    for b in range(s):
        acc = 0
        for j in range(k):
            acc ^= gf_oracle.mul(block[j * s + b], rows[j][pos - 1])
        out.append(acc)
    return bytes(out)


def own_waves(events):
    """(g, count, sha256) of each own-wave line, in order, for the
    fault-free run whose transcript events are `events`: `g` is one
    generation, or the range [a, b] of generations that wrote their lines
    alike, whose `sha256` is the SHA-256 of their records in generation
    order.

    A generation that runs its matching stage has a broadcast round of
    match bits (alg2) or detection flags (alg1) after its own wave; an
    alg1 generation that terminates before matching has none.
    """
    header = events[0]
    reached = []
    for e in events:
        if e["type"] == "ROUND" and e["g"] not in reached:
            reached.append(e["g"])
    config = header["config"]
    n = config["n"]
    k = n - config["t"] if config["algorithm"] == "alg1" else config["q"]
    rows = gf_oracle.generator_matrix(n, k)
    size = config["d_bits"] // 8
    # each processor's input is an index into the header's distinct values
    values = header["input_values"]
    padded = [
        bytes.fromhex(values[i]).ljust(header["generations"] * size, b"\0")
        for i in config["inputs"]
    ]
    waves = []
    for g in reached:
        first, last = (g, g) if isinstance(g, int) else g
        records = []
        for h in range(first, last + 1):
            for s in range(1, n + 1):
                symbol = symbol_at(rows, k, padded[s - 1][(h - 1) * size : h * size], s)
                peers = [r for r in range(1, n + 1) if r != s]
                records.append(bytes([s, s, len(peers)] + peers) + symbol)
        waves.append((g, n * (n - 1), hashlib.sha256(b"".join(records)).hexdigest()))
    return waves
