"""The v4 transcript format folded into v5, as a pure text transform.

v4 writes each `BROADCAST` `match_bits` payload as a JSON list of n
bools. v5 writes it as the n-character string whose character j-1 is
`1` iff bool j-1 is true: `[true,false,true]` becomes `"101"`. A null
payload, `payload_bits` (still n) and every other line are kept byte
for byte, and the header's script keeps its match-bit overrides as
lists of bools. `v4_from_v5` undoes the fold. No imports from the
package under test.
"""

import json


def dumps(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def _rewrite(text, payload):
    """`text` with each non-null match-bit payload replaced by `payload(it)`."""
    out = []
    for line in text.splitlines(keepends=True):
        event = json.loads(line)
        if (
            event["type"] == "BROADCAST" and event["tag"] == "match_bits"
            and event["payload"] is not None
        ):
            event["payload"] = payload(event["payload"])
            line = dumps(event)
        out.append(line)
    return "".join(out)


def v5_from_v4(text):
    """`text`, a v4 transcript, as the v5 transcript of the same run."""
    return _rewrite(text, lambda bits: "".join("1" if b else "0" for b in bits))


def v4_from_v5(text):
    """`text`, a v5 transcript, as the v4 transcript of the same run."""
    return _rewrite(text, lambda bits: [c == "1" for c in bits])
