"""The v2 transcript format folded into v3, as a pure text transform.

A v2 transcript writes every processor's input in full hex in the
header's `config.inputs`, and every fault-free output in full hex in
`VERDICT.outputs`. v3 writes each distinct value once: `config.inputs`
becomes a list of indices into a new header key `input_values`, the
distinct inputs in the order of their first holder, and `outputs` maps
each fault-free id to an index into a new `VERDICT` key `output_values`,
the distinct outputs in the order of their lowest holder. Every other
line, and every other key of these two, is kept byte for byte. No
imports from the package under test.
"""

import json


def distinct_values(values):
    """Each value's index into the distinct values, and those values,
    in first-seen order."""
    table = {}
    return [table.setdefault(v, len(table)) for v in values], list(table)


def dumps(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def v3_from_v2(text):
    """`text`, a v2 transcript, as the v3 transcript of the same run."""
    lines = text.splitlines(keepends=True)
    header, verdict = json.loads(lines[0]), json.loads(lines[-1])
    config = header["config"]
    config["inputs"], header["input_values"] = distinct_values(config["inputs"])
    holders = sorted(verdict["outputs"], key=int)
    indices, verdict["output_values"] = distinct_values(
        verdict["outputs"][p] for p in holders
    )
    verdict["outputs"] = dict(zip(holders, indices))
    return dumps(header) + "".join(lines[1:-1]) + dumps(verdict)
