"""Per-slot reference versions of the codec's and the protocol's word walks.

These are the engine's first `decode`, `detection_flag` and
`compute_match_bits`: every slot is read by its position, `word[pos - 1]`,
one position at a time, and a data symbol that is erased is interpolated
byte lane by byte lane with `gf_oracle`, never read from the slot list.
A word is a list of n slots, each bytes or None. No imports from the package
under test; tests compare `codedbft.rs`, `consensus` and `quorum`
against these functions.
"""

import gf_oracle as oracle


def present_positions(word):
    return [pos for pos in range(1, len(word) + 1) if word[pos - 1] is not None]


def lane_polys(word, k):
    """Per byte lane, the interpolant through the k lowest present slots;
    None when fewer than k slots are present."""
    sources = present_positions(word)[:k]
    if len(sources) < k:
        return None
    return [
        oracle.lagrange_poly([(pos, word[pos - 1][lane]) for pos in sources])
        for lane in range(len(word[sources[0] - 1]))
    ]


def symbol_at(polys, pos):
    return bytes(oracle.poly_eval(poly, pos) for poly in polys)


def is_codeword(word, k):
    """Whether every present slot lies on the interpolant; None when fewer
    than k slots are present."""
    polys = lane_polys(word, k)
    if polys is None:
        return None
    return all(
        word[pos - 1] == symbol_at(polys, pos) for pos in present_positions(word)
    )


def decode(word, k):
    """Slots 1..k, each read if present and interpolated if erased; the
    word must hold at least k present slots."""
    polys = lane_polys(word, k)
    out = b""
    for pos in range(1, k + 1):
        value = word[pos - 1]
        out += symbol_at(polys, pos) if value is None else value
    return out


def contradicts_own(received, coded):
    """The in-match check: some slot present in both words differs."""
    for pos in range(1, len(received) + 1):
        r, s = received[pos - 1], coded[pos - 1]
        if r is not None and s is not None and r != s:
            return True
    return False


def detection_flag(k, received, coded, in_match, p_match):
    """TRUE for a word with fewer than k slots or off every codeword; then,
    in the match set, a contradiction of own coded word; outside it,
    fewer than k match-set slots to rebuild from."""
    if not is_codeword(received, k):
        return True
    if in_match:
        return coded is not None and contradicts_own(received, coded)
    return sum(received[m - 1] is not None for m in set(p_match)) < k


def match_bits(n, received, coded):
    """bits[j-1]: slot j was delivered and equals own coded slot j."""
    out = []
    for j in range(1, n + 1):
        r = received[j - 1]
        out.append(r is not None and r == coded[j - 1])
    return tuple(out)
