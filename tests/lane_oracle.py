"""Per-slot reference version of alg2's lane check on wide words.

This is the engine's first lane check: each unset match bit of two present
slots is read on its own, the slots' XOR OR-folded row by row into one row
of `width` lanes, and every zero byte of that row sets the bit in its lane.
No imports from the package under test; tests compare
`codedbft.sim._lane_vectors` against this function.
"""


def lane_vectors(vectors, received, coded, width):
    """Each of `width` lanes' match vectors: the wide `vectors` object where
    no bit is added, else a copy of it with the lane's bits added."""
    lanes, mask = [vectors] * width, (1 << 8 * width) - 1
    for p, bits in vectors.items() if width > 1 else ():
        for slot, (r, c) in enumerate(zip(received[p], coded[p])):
            if bits >> slot & 1 or r is None or c is None:
                continue
            x, fold = int.from_bytes(r, "big") ^ int.from_bytes(c, "big"), 0
            while x:
                fold, x = fold | x & mask, x >> 8 * width
            row, j = fold.to_bytes(width, "big"), -1
            while (j := row.find(0, j + 1)) >= 0:
                lanes[j] = dict(vectors) if lanes[j] is vectors else lanes[j]
                lanes[j][p] |= 1 << slot
    return lanes
