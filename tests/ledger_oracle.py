"""A run's cost ledger summed again from its transcript events alone.

The engine sums its ledger in one pass over each cell's events; this
reference charges it one event at a time, so a test can compare the two
for every (generations, stage) cell of the run's in-memory ledger and for
the totals its `VERDICT` records. A line whose `g` is a range [a, b]
charges each of its generations, in one cell per range. No imports from
the package under test.
"""

# the stage each broadcast tag is charged to
STAGE_OF_TAG = {
    "detected": "checking",
    "match_bits": "matching",
    "coded": "diagnosis",
    "received": "diagnosis",
}
FIELDS = ("p2p_symbols", "p2p_bits", "bcast_payload_bits", "bcast_charged_bits")


def resum_ledger(events):
    """Ledger cells keyed "g:stage", or "a-b:stage" for a range, as
    `CostLedger.to_jsonable` writes them, each holding one generation's sums.

    Every faulty sender's `SYMBOL_SENT` is one matching-stage symbol of
    8 * sym_bytes bits, and every `WAVE` is `count` honest ones; every
    `ROUND` and `BROADCAST` charges its payload bits times the broadcast
    coefficient times n^2.
    """
    config = events[0]["config"]
    n = config["n"]
    k = n - config["t"] if config["algorithm"] == "alg1" else config["q"]
    symbol_bits = config["d_bits"] // k
    scale = config["broadcast_coefficient"] * n * n
    cells = {}

    def cell(g, stage):
        g = g if isinstance(g, int) else f"{g[0]}-{g[1]}"
        return cells.setdefault(f"{g}:{stage}", dict.fromkeys(FIELDS, 0))

    for event in events:
        if event["type"] in ("SYMBOL_SENT", "WAVE"):
            symbols = event["count"] if event["type"] == "WAVE" else 1
            sums = cell(event["g"], "matching")
            sums["p2p_symbols"] += symbols
            sums["p2p_bits"] += symbols * symbol_bits
        elif event["type"] in ("ROUND", "BROADCAST"):
            sums = cell(event["g"], STAGE_OF_TAG[event["tag"]])
            sums["bcast_payload_bits"] += event["payload_bits"]
            sums["bcast_charged_bits"] += event["payload_bits"] * scale
    return cells


def generations(key):
    """How many generations a cell of `resum_ledger` covers."""
    first, _, last = key.split(":")[0].partition("-")
    return int(last or first) - int(first) + 1


def ledger_totals(cells):
    """The totals of every field over `resum_ledger`'s cells, as `VERDICT`
    records them."""
    return {
        name: sum(cell[name] * generations(key) for key, cell in cells.items())
        for name in FIELDS
    }
