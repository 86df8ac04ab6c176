"""The v7 transcript format folded into v8, with the symbols of the run's
v1 transcript.

v8 changes only the `sha256` of `WAVE` lines. v7 hashes, per generation,
one record `bytes((sender, receiver, slot)) + value` per symbol of the
wave, and a line over a range `[a, b]` hashes its generations' digests.
v8 hashes one record `bytes((sender, slot, m, *receivers)) + value` per
run of the wave's sends with one (sender, slot) that has a symbol in the
wave, over the m receivers of those symbols, and a line over a range
hashes its generations' records, joined in generation order.

A v7 transcript keeps only the digests, so the records come from a v1
transcript of the same run, which writes every delivered symbol as a
`SYMBOL_SENT` line in plan order. A wave is a run of consecutive
`SYMBOL_SENT` lines with one (g, step), and a run of its sends is a run
of consecutive lines with one (sender, slot). A symbol joins the wave
as `transcript_v1.v4_waves_from_v1` folds it. `v8_from_v7` checks every
v7 digest and count against the records it rebuilds before it replaces
the digest. It is exact for runs in which no run of a wave's sends is
silent as a whole between two runs of one (sender, slot), as in all four
fixtures: v1 does not show a silent send. No imports from the package
under test.
"""

import hashlib
import json
from itertools import groupby

from transcript_v6 import dumps


def wave_records(v1):
    """Per generation, the v7 and v8 records of each wave with a symbol
    in it, in order, from `v1`, a v1 transcript."""
    events = [json.loads(line) for line in v1.splitlines()]
    script = events[0]["script"]
    faulty, rules = set(script["faulty"]), script["sends"]

    def joins(e):
        return e["sender"] not in faulty or (
            f"{e['g']}|{e['step']}|{e['sender']}|{e['receiver']}" not in rules)

    waves = {}
    for (g, step), wave in groupby(
        events, key=lambda e: (e["g"], e["step"]) if e["type"] == "SYMBOL_SENT" else (None, None)
    ):
        if g is None:
            continue
        v7, v8 = [], []
        for (sender, slot), run in groupby(wave, key=lambda e: (e["sender"], e["slot"])):
            joined = [e for e in run if joins(e)]
            v7 += (bytes((sender, e["receiver"], slot)) + bytes.fromhex(e["value"]) for e in joined)
            if joined:
                receivers = [e["receiver"] for e in joined]
                v8.append(bytes([sender, slot, len(receivers)] + receivers)
                          + bytes.fromhex(joined[0]["value"]))
        if v7:
            waves.setdefault(g, []).append((step, v7, v8))
    return waves


def v8_from_v7(v7, v1):
    """`v7`, a v7 transcript, as the v8 transcript of the same run, whose
    v1 transcript is `v1`."""
    waves = wave_records(v1)
    lines = v7.splitlines(keepends=True)
    out = lines[:1]
    for _, block in groupby(lines[1:-1], key=lambda line: json.dumps(json.loads(line).get("g"))):
        index = 0
        for line in block:
            e = json.loads(line)
            if e["type"] != "WAVE":
                out.append(line)
                continue
            a, b = (e["g"], e["g"]) if type(e["g"]) is int else e["g"]
            ours = [waves[h][index] for h in range(a, b + 1)]
            index += 1
            assert {step for step, _, _ in ours} == {e["step"]}, e
            assert {len(v7) for _, v7, _ in ours} == {e["count"]}, e
            digests = [hashlib.sha256(b"".join(v7)).digest() for _, v7, _ in ours]
            want = digests[0] if a == b else hashlib.sha256(b"".join(digests)).digest()
            assert e["sha256"] == want.hex(), e
            e["sha256"] = hashlib.sha256(b"".join(r for _, _, v8 in ours for r in v8)).hexdigest()
            out.append(dumps(e))
    return "".join(out) + lines[-1]
