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
every run whose fault-free processors decide alike. No imports from the
package under test.
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
    lines = text.splitlines(keepends=True)
    faulty = set(json.loads(lines[0])["script"]["faulty"])
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
        if key is None or event["sender"] in faulty:
            out.append(line)
            continue
        ids = (event["sender"], event["receiver"], event["slot"])
        records.append(bytes(ids) + bytes.fromhex(event["value"]))
    close()
    return "".join(out)
