"""The v5 transcript format folded into v6, as a pure text transform.

v5 writes one `BROADCAST` line per sender of every broadcast round, one
`EDGE_REMOVED` line per edge a conviction drops, and a `VERDICT` with
the per-(generation, stage) ledger and every distinct output in hex.
v6 folds them in four ways:

- the `detected` and `match_bits` lines of one generation become one
  `ROUND` line (`flags_round`, `masks_round`), whose `payload_bits` is
  their sum;
- the `coded` and `received` lines of one generation become one `ROUND`
  line per tag holding the count, the summed `payload_bits` and the
  SHA-256 of the claims without a rule in the header's script, each
  claim with a rule keeping its `BROADCAST` line before its round;
- an `EDGE_REMOVED` line touching a processor convicted on an earlier
  line is dropped: the conviction implies it;
- `VERDICT.ledger` becomes the totals of its cells, and
  `output_values` becomes `output_sha256`, the SHA-256 of each value.

`digest_claims` does the last two folds, which lose what they hash or
sum, and `v6_from_v5` all four. `v5_from_v6` undoes the other two, so
`v5_from_v6(v6_from_v5(text)) == digest_claims(text)`. No imports from
the package under test.
"""

import hashlib
import json

CLAIM_TAGS = ("coded", "received")


def dumps(event):
    return json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n"


def _sym_bytes(config):
    k = config["n"] - config["t"] if config["algorithm"] == "alg1" else config["q"]
    return config["d_bits"] // (8 * k)


def claim_record(sender, word, sym_bytes):
    """The fixed-width record of a claim: the sender's id byte, then per
    slot 01 and its bytes, or 1 + sym_bytes zero bytes when empty."""
    absent = bytes(1 + sym_bytes)
    return bytes((sender,)) + b"".join(
        absent if v is None else b"\x01" + bytes.fromhex(v) for v in word
    )


def digest_claims(text):
    """`text`, a v5 transcript, with its claims and `VERDICT` folded."""
    lines = text.splitlines(keepends=True)
    header = json.loads(lines[0])
    sym, rules = _sym_bytes(header["config"]), header["script"]["broadcasts"]
    out = [lines[0]]
    # per claim tag of the open round: its ruled lines, then g, count,
    # payload bits and records of the claims it folds
    ruled, rounds = {}, {}

    def close():
        for tag in CLAIM_TAGS:
            if tag in rounds:
                g, count, bits, records = rounds.pop(tag)
                out.extend(ruled.pop(tag))
                out.append(dumps({
                    "type": "ROUND", "g": g, "tag": tag, "count": count,
                    "payload_bits": bits,
                    "sha256": hashlib.sha256(b"".join(records)).hexdigest(),
                }))

    for line in lines[1:-1]:
        e = json.loads(line)
        if e["type"] != "BROADCAST" or e["tag"] not in CLAIM_TAGS:
            close()
            out.append(line)
            continue
        g, tag, sender = e["g"], e["tag"], e["sender"]
        if tag not in rounds:
            ruled[tag], rounds[tag] = [], (g, 0, 0, [])
        if f"{g}|{tag}|{sender}" in rules:
            ruled[tag].append(line)
            continue
        _, count, bits, records = rounds[tag]
        records.append(claim_record(sender, e["payload"], sym))
        rounds[tag] = (g, count + 1, bits + e["payload_bits"], records)
    verdict = json.loads(lines[-1])
    cells = verdict["ledger"].values()
    verdict["ledger"] = {
        name: sum(cell[name] for cell in cells)
        for name in ("bcast_charged_bits", "bcast_payload_bits", "p2p_bits", "p2p_symbols")
    }
    verdict["output_sha256"] = [
        hashlib.sha256(bytes.fromhex(v)).hexdigest()
        for v in verdict.pop("output_values")
    ]
    return "".join(out) + dumps(verdict)


def flags_round(g, n, payloads):
    """The `detected` round of `payloads`, sender -> flag or None."""
    flags = ["-"] * n
    for sender, flag in payloads.items():
        if flag is not None:
            flags[sender - 1] = "1" if flag else "0"
    sent = n - flags.count("-")
    return {"type": "ROUND", "g": g, "tag": "detected", "payload": "".join(flags),
            "payload_bits": sent}


def masks_round(g, n, payloads):
    """The `match_bits` round of `payloads`, sender -> v5 bit string or None."""
    masks = [None] * n
    for sender, bits in payloads.items():
        if bits is not None:
            mask = sum(1 << j for j, c in enumerate(bits) if c == "1")
            masks[sender - 1] = format(mask, f"0{-(-n // 4)}x")
    sent = n - masks.count(None)
    return {"type": "ROUND", "g": g, "tag": "match_bits", "payload": masks,
            "payload_bits": n * sent}


def v6_from_v5(text):
    """`text`, a v5 transcript, as the v6 transcript of the same run."""
    lines = digest_claims(text).splitlines(keepends=True)
    n = json.loads(lines[0])["config"]["n"]
    out, convicted = [], set()
    # the open round's (g, tag) and its payloads by sender
    key, payloads = None, {}
    for line in lines:
        e = json.loads(line)
        kind, tag = e["type"], e.get("tag")
        if key is not None and (kind, e.get("g"), tag) != ("BROADCAST", *key):
            fold = flags_round if key[1] == "detected" else masks_round
            out.append(dumps(fold(key[0], n, payloads)))
            key, payloads = None, {}
        if kind == "BROADCAST" and tag not in CLAIM_TAGS:
            key = (e["g"], tag)
            payloads[e["sender"]] = e["payload"]
            continue
        if kind == "CONVICTED":
            convicted.add(e["processor"])
        elif kind == "EDGE_REMOVED" and convicted & {e["i"], e["j"]}:
            continue
        out.append(line)
    return "".join(out)


def v5_from_v6(text):
    """`text`, a v6 transcript, with its `detected` and `match_bits` rounds
    and implied edges written out as v5 writes them."""
    lines = text.splitlines(keepends=True)
    n = json.loads(lines[0])["config"]["n"]
    out, convicted, removed = [], set(), set()
    for line in lines:
        e = json.loads(line)
        kind, tag = e["type"], e.get("tag")
        if kind == "ROUND" and tag not in CLAIM_TAGS:
            for sender in range(1, n + 1):
                if sender in convicted:
                    continue
                if tag == "detected":
                    flag = e["payload"][sender - 1]
                    payload, bits = {"-": None, "0": False, "1": True}[flag], 1
                else:
                    mask = e["payload"][sender - 1]
                    payload = mask and format(int(mask, 16), f"0{n}b")[::-1]
                    bits = n
                out.append(dumps({
                    "type": "BROADCAST", "g": e["g"], "tag": tag, "sender": sender,
                    "payload": payload, "payload_bits": 0 if payload is None else bits,
                }))
            continue
        out.append(line)
        if kind == "EDGE_REMOVED":
            removed.add((e["i"], e["j"]))
        elif kind == "CONVICTED":
            v = e["processor"]
            convicted.add(v)
            for u in range(1, n + 1):
                edge = (min(u, v), max(u, v))
                if u != v and edge not in removed:
                    removed.add(edge)
                    out.append(dumps({
                        "type": "EDGE_REMOVED", "g": e["g"], "i": edge[0],
                        "j": edge[1], "rule": e["rule"],
                    }))
    return "".join(out)
