"""What a finished run leaves behind, rebuilt from its transcript events.

The `VERDICT` line keeps only the convicted processors and the number of
removed trust edges, and the outputs only as digests. Both follow from
the events before it: the graph from the `EDGE_REMOVED` and `CONVICTED`
lines, the outputs from the `DECIDED` and `TERMINATED_DEFAULT` lines,
each `DECIDED` line read once for its range of generations. No imports
from the package under test.
"""


def rebuilt_graph(events):
    """The trust graph as `TrustGraph.to_jsonable` writes it. Each
    `EDGE_REMOVED` line removes its edge, and each `CONVICTED` line
    every edge of its processor."""
    config = events[0]["config"]
    n = config["n"]
    removed, convicted = set(), set()
    for e in events:
        if e["type"] == "EDGE_REMOVED":
            removed.add((e["i"], e["j"]))
        elif e["type"] == "CONVICTED":
            v = e["processor"]
            convicted.add(v)
            removed.update((min(u, v), max(u, v)) for u in range(1, n + 1) if u != v)
    return {
        "n": n, "t": config["t"],
        "removed_edges": [list(edge) for edge in sorted(removed)],
        "convicted": sorted(convicted),
    }


def rebuilt_outputs(events):
    """Each fault-free processor's output: its blocks in `DECIDED` order,
    or all zeros, padded to every generation, once alg1 terminates. A
    value that names an input is that input's blocks of the line's range,
    sliced once; a hex value is the block of each of its generations."""
    header = events[0]
    faulty = set(header["script"]["faulty"])
    fault_free = [p for p in range(1, header["config"]["n"] + 1) if p not in faulty]
    if any(e["type"] == "TERMINATED_DEFAULT" for e in events):
        return dict.fromkeys(fault_free, bytes(header["padded_bits"] // 8))
    size = header["config"]["d_bits"] // 8
    padded = [
        bytes.fromhex(v).ljust(header["padded_bits"] // 8, b"\0")
        for v in header["input_values"]
    ]
    pieces = {p: [] for p in fault_free}
    for e in events:
        if e["type"] == "DECIDED":
            a, b = (e["g"], e["g"]) if isinstance(e["g"], int) else e["g"]
            for p in fault_free:
                value = e["values"][str(p)] if "values" in e else e["value"]
                pieces[p].append(
                    padded[value][(a - 1) * size : b * size] if isinstance(value, int)
                    else bytes.fromhex(value) * (b - a + 1)
                )
    return {p: b"".join(blocks) for p, blocks in pieces.items()}
