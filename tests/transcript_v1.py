"""The v1 transcript format folded into v2, as a pure text transform.

A v1 transcript records every delivered symbol as a `SYMBOL_SENT` line.
v2 keeps those lines only for faulty senders (the header's
`script.faulty`) and folds the honest ones of each wave into one `WAVE`
line: the count of honest symbols and the SHA-256 of their records
`bytes((sender, receiver, slot)) + value` in wave order, written after
the wave's faulty lines and only when the count is at least 1. A wave is
a run of consecutive `SYMBOL_SENT` lines with one (g, step). Every other
line is kept byte for byte.

v2 also gives `DECIDED` a `values` map when the fault-free blocks
differ, which a v1 transcript cannot show; `v2_from_v1` is exact for
every run whose fault-free processors decide alike.

v4 also folds into the `WAVE` records every faulty symbol equal to its
sender's slot from a sender the protocol did not silence. A v1 line does
not show the sender's slot, but a faulty sender's send with no rule in
the header's `script.sends` is exactly such a symbol. `v4_waves_from_v1`
is `v2_from_v1` with those lines folded in as well, and `v3_from_v2` of
it is the v4 transcript of the run. It is exact for runs in which every
send under a rule deviates (a symbol other than the sender's slot, or
one the protocol had the sender skip), as in all four fixtures; an
`honest` rule, a zero `corrupt` mask or a `replace` with the sender's
slot would be written into the wave by v4 and kept as a line here. No
imports from the package under test.
"""

import hashlib
import json


def wave_line(g, step, records):
    """The v2 `WAVE` line of one wave's honest records."""
    event = {
        "count": len(records),
        "g": g,
        "sha256": hashlib.sha256(b"".join(records)).hexdigest(),
        "step": step,
        "type": "WAVE",
    }
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def v2_from_v1(text):
    """`text`, a v1 transcript, as the v2 transcript of the same run."""
    return _fold(text, lambda event, faulty, rules: event["sender"] not in faulty)


def v4_waves_from_v1(text):
    """`text`, a v1 transcript, as the v2 transcript of the same run with
    v4's `WAVE` and `SYMBOL_SENT` lines."""

    def joins(event, faulty, rules):
        rule = f"{event['g']}|{event['step']}|{event['sender']}|{event['receiver']}"
        return event["sender"] not in faulty or rule not in rules
    return _fold(text, joins)


def _fold(text, joins):
    """`text` with each wave's symbols for which `joins(event, faulty,
    send rules)` holds folded into the wave's `WAVE` line."""
    lines = text.splitlines(keepends=True)
    script = json.loads(lines[0])["script"]
    faulty, rules = set(script["faulty"]), script["sends"]
    out = []
    wave = None  # (g, step) of the open wave
    records = []

    def close():
        if records:
            out.append(wave_line(*wave, records))
        records.clear()

    for line in lines:
        event = json.loads(line)
        key = None
        if event["type"] == "SYMBOL_SENT":
            key = (event["g"], event["step"])
        if key != wave:
            close()
            wave = key
        if key is None or not joins(event, faulty, rules):
            out.append(line)
            continue
        ids = (event["sender"], event["receiver"], event["slot"])
        records.append(bytes(ids) + bytes.fromhex(event["value"]))
    close()
    return "".join(out)
