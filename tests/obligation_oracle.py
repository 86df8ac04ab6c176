"""Reference derivation of a matching stage's sends, one trust query at a time.

These are the engine's first `matching_obligations` and
`local_helper_copies`: every question about the graph goes through the
validated `edge_present` query, by way of the `trusts` and `match_helper`
rules below, and the whole list is sorted at the end. Obligations come
out as plain (sender, receiver, slot, step) tuples. No imports from the
package under test; tests compare a plan of `codedbft.consensus` against
these functions with `assert_plan_matches`.
"""

STEP_ORDER = {"own": 0, "helper": 1, "reconstructed": 2}


def trusts(graph, i, j):
    """Self-trust is unconditional; otherwise the edge must survive."""
    return i == j or graph.edge_present(i, j)


def match_helper(graph, j, p_match):
    """Lowest-index member of p_match that j trusts, if any."""
    for member in sorted(p_match):
        if trusts(graph, j, member):
            return member
    return None


def matching_obligations(graph, p_match):
    """Wave 1 own slots, wave 2 helper re-sends, wave 3 rebuilt slots."""
    members = sorted(set(p_match))
    n = graph.n
    obligations = []
    for s in range(1, n + 1):
        for r in range(1, n + 1):
            if r != s and trusts(graph, s, r):
                obligations.append((s, r, s, "own"))
    for r in range(1, n + 1):
        missing = [k for k in members if not trusts(graph, r, k)]
        if not missing:
            continue
        helper = match_helper(graph, r, members)
        if helper is None or helper == r:
            continue
        for k in missing:
            obligations.append((helper, r, k, "helper"))
    for s in range(1, n + 1):
        if s in members:
            continue
        for r in range(1, n + 1):
            if r != s and trusts(graph, s, r):
                obligations.append((s, r, s, "reconstructed"))
    obligations.sort(key=lambda ob: (STEP_ORDER[ob[3]], ob[0], ob[1], ob[2]))
    return obligations


def local_helper_copies(graph, p_match):
    """(receiver, slot) pairs a member that is its own helper copies locally."""
    members = sorted(set(p_match))
    copies = []
    for r in members:
        missing = [k for k in members if not trusts(graph, r, k)]
        if missing and match_helper(graph, r, members) == r:
            copies.extend((r, k) for k in missing)
    return copies


def flatten(plan):
    """A matching plan's sends as (sender, receiver, slot, step) tuples,
    wave by wave and run by run."""
    return [
        (s, r, k, step)
        for step in STEP_ORDER
        for s, k, receivers, _ in getattr(plan, step)
        for r in receivers
    ]


def assert_plan_matches(plan, graph, p_match):
    """A matching plan's runs flatten to the oracle's sends, its `sends()`
    are the own and helper triples, `size` and `len()` count all three
    waves, and its local copies are the oracle's; a `p_match` of None
    asks for the own wave alone. Each run is maximal, one (sender, slot)
    apart from its neighbours, and holds its record header: the sender,
    the slot, the number m of its receivers and the m receivers, one byte
    each."""
    expected = matching_obligations(graph, p_match or ())
    if p_match is None:
        expected = [ob for ob in expected if ob[3] == "own"]
    assert flatten(plan) == expected
    assert list(plan.sends()) == [ob[:3] for ob in expected if ob[3] != "reconstructed"]
    assert plan.size == len(plan) == len(expected)
    assert list(plan.copies) == local_helper_copies(graph, p_match or ())
    for step in STEP_ORDER:
        runs = getattr(plan, step)
        for s, k, receivers, header in runs:
            assert header == bytes([s, k, len(receivers)] + list(receivers))
        keys = [(s, k) for s, k, _, _ in runs]
        assert all(a != b for a, b in zip(keys, keys[1:]))
