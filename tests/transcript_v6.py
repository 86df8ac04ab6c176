"""The v6 transcript format folded into v7, as a pure text transform.

v6 writes every line of every generation, each `DECIDED` value in hex,
every mask of a `match_bits` round, and the whole trust graph in
`VERDICT`. v7 folds them in four ways:

- a `DECIDED` value (or a `values` entry) that is block g of an input
  in the header's `input_values` becomes that input's index, the lowest
  on a tie;
- a `match_bits` round whose masks are all sent and all equal writes
  the one mask as its `payload`;
- `VERDICT.graph` keeps `convicted` and the number of removed edges,
  `edges_removed`, which the `EDGE_REMOVED` and `CONVICTED` lines imply;
- consecutive generations whose lines are equal apart from `g` and the
  `WAVE` digests write their lines once, with `g` the range `[a, b]`, and
  a merged `WAVE` line's `sha256` is the SHA-256 of its generations'
  digests (32 bytes each) in generation order.

`v7_from_v6` does all four. `v6_from_v7` undoes them, except that the
per-generation digest of a merged `WAVE` line is lost: it writes null.
No imports from the package under test.
"""

import hashlib
import json
from itertools import groupby


def dumps(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def _blocks(header):
    """Each input of the header's `input_values`, zero-padded, and the block size."""
    size = header["config"]["d_bits"] // 8
    padded = [
        bytes.fromhex(value).ljust(header["generations"] * size, b"\0")
        for value in header["input_values"]
    ]
    return padded, size


def rebuilt_edges(events, n):
    """The removed edges the `EDGE_REMOVED` and `CONVICTED` lines imply, sorted."""
    removed = set()
    for e in events:
        if e["type"] == "EDGE_REMOVED":
            removed.add((e["i"], e["j"]))
        elif e["type"] == "CONVICTED":
            v = e["processor"]
            removed.update((min(u, v), max(u, v)) for u in range(1, n + 1) if u != v)
    return sorted(removed)


def v7_from_v6(text):
    """`text`, a v6 transcript, as the v7 transcript of the same run."""
    events = [json.loads(line) for line in text.splitlines()]
    header, body, verdict = events[0], events[1:-1], events[-1]
    n = header["config"]["n"]
    padded, size = _blocks(header)

    def name(value, g):
        block = bytes.fromhex(value)
        return next(
            (i for i, p in enumerate(padded) if p[(g - 1) * size : g * size] == block), value
        )

    # per block of generations: its first and last, its lines without `g`
    # and `WAVE` digests, and those digests per `WAVE` line
    blocks = []
    for g, group in groupby(body, key=lambda e: e["g"]):
        lines, digests = list(group), []
        for e in lines:
            del e["g"]
            if e["type"] == "WAVE":
                digests.append(bytes.fromhex(e.pop("sha256")))
            elif e["type"] == "ROUND" and e["tag"] == "match_bits":
                masks = e["payload"]
                if None not in masks and len(set(masks)) == 1:
                    e["payload"] = masks[0]
            elif e["type"] == "DECIDED":
                e["value"] = name(e["value"], g)
                if "values" in e:
                    e["values"] = {p: name(v, g) for p, v in e["values"].items()}
        if blocks and blocks[-1][2] == lines:
            blocks[-1][1] = g
            for merged, digest in zip(blocks[-1][3], digests):
                merged.append(digest)
        else:
            blocks.append([g, g, lines, [[d] for d in digests]])
    out = [dumps(header)]
    for a, b, lines, waves in blocks:
        digests = iter(waves)
        for e in lines:
            e["g"] = a if a == b else [a, b]
            if e["type"] == "WAVE":
                d = next(digests)
                e["sha256"] = (d[0] if a == b else hashlib.sha256(b"".join(d)).digest()).hex()
            out.append(dumps(e))
    graph = verdict["graph"]
    verdict["graph"] = {
        "convicted": graph["convicted"], "edges_removed": len(graph["removed_edges"])
    }
    assert graph["removed_edges"] == [list(e) for e in rebuilt_edges(body, n)]
    return "".join(out) + dumps(verdict)


def v6_from_v7(text):
    """`text`, a v7 transcript, as v6 writes it, but with null for the
    digest of each `WAVE` line of a merged range's generations."""
    events = [json.loads(line) for line in text.splitlines()]
    header, body, verdict = events[0], events[1:-1], events[-1]
    config = header["config"]
    n = config["n"]
    padded, size = _blocks(header)

    def value(name, g):
        return padded[name][(g - 1) * size : g * size].hex() if type(name) is int else name

    out = [dumps(header)]
    for g, group in groupby(body, key=lambda e: json.dumps(e["g"])):
        lines = list(group)
        a, b = (lines[0]["g"],) * 2 if type(lines[0]["g"]) is int else lines[0]["g"]
        for h in range(a, b + 1):
            for e in lines:
                e = {**e, "g": h}
                if e["type"] == "WAVE" and a < b:
                    e["sha256"] = None
                elif e["type"] == "ROUND" and e["tag"] == "match_bits":
                    if isinstance(e["payload"], str):
                        e["payload"] = [e["payload"]] * n
                elif e["type"] == "DECIDED":
                    e["value"] = value(e["value"], h)
                    if "values" in e:
                        e["values"] = {p: value(v, h) for p, v in e["values"].items()}
                out.append(dumps(e))
    verdict["graph"] = {
        "n": n, "t": config["t"],
        "removed_edges": [list(e) for e in rebuilt_edges(body, n)],
        "convicted": verdict["graph"]["convicted"],
    }
    return "".join(out) + dumps(verdict)


def v6_events(text):
    """The events of `v6_from_v7(text)`, one generation each."""
    return [json.loads(line) for line in v6_from_v7(text).splitlines()]
