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
`bytes((sender, receiver, slot)) + symbol`.
"""

import hashlib

import gf_oracle


def deliver(g, step, obligations, coded, received, faulty, send, suppressed):
    """Deliver one wave obligation by obligation and return its events.

    `obligations` are (sender, receiver, slot) in plan order; `coded` and
    `received` map each processor to its word, a list of symbols, and
    `received` is written in place. A faulty sender's symbol is
    `send(g, step, sender, receiver, honest, sender in suppressed)`, None
    for silence; any other sender not in `suppressed` sends its slot. A
    symbol equal to its sender's slot from a sender not in `suppressed`
    is a record `bytes((sender, receiver, slot)) + symbol`, and the
    records become one `WAVE` event after the rest: their count and the
    SHA-256 of the records in plan order. Every other faulty symbol sent
    is a `SYMBOL_SENT` event.
    """
    events, records = [], []
    for sender, receiver, slot in obligations:
        honest = coded[sender][slot - 1]
        if sender in faulty:
            value = send(g, step, sender, receiver, honest, sender in suppressed)
        else:
            value = None if sender in suppressed else honest
        if value is None:
            continue
        received[receiver][slot - 1] = value
        if value == honest and sender not in suppressed:
            records.append(bytes((sender, receiver, slot)) + value)
        else:
            events.append({
                "type": "SYMBOL_SENT", "g": g, "step": step, "sender": sender,
                "receiver": receiver, "slot": slot, "value": value.hex(),
            })
    if records:
        events.append({
            "type": "WAVE", "g": g, "step": step, "count": len(records),
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
    alike, whose `sha256` is the SHA-256 of their digests in order.

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
        digests = []
        for h in range(first, last + 1):
            records = []
            for s in range(1, n + 1):
                symbol = symbol_at(rows, k, padded[s - 1][(h - 1) * size : h * size], s)
                records += [bytes((s, r, s)) + symbol for r in range(1, n + 1) if r != s]
            digests.append(hashlib.sha256(b"".join(records)).digest())
        digest = digests[0] if first == last else hashlib.sha256(b"".join(digests)).digest()
        waves.append((g, len(records), digest.hex()))
    return waves
