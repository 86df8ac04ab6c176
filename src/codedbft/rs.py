"""Systematic Reed-Solomon coding over GF(2^8), byte-interleaved.

A macro-symbol is a fixed-length byte string of `sym_bytes` bytes.  Byte
lane b of the n slots forms an independent (n, k) codeword: the codeword
is the evaluation of the unique degree-below-k polynomial through the k
data bytes at the field points 1..n.  Slots 1..k therefore carry the data
verbatim and any k slots determine the rest (minimum distance n - k + 1).
Since every lane is encoded with the same weights and no arithmetic
crosses lanes, G codewords of one (n, k) code share a single wider call
exactly: put byte b of codeword g's symbols (0 <= g < G) at lane b*G + g
of the wide symbols, and every G-th byte of a wide slot from lane g on
is codeword g's slot.

Evaluating at a point is a GF(2^8) linear combination of k source
symbols with Lagrange weights. Each weight c scales a whole symbol in one
`bytes.translate` call against the 256-byte row of products c*x, built
on first use of c; the scaled symbols are then XOR-summed as integers.
This is the table-lookup multiply of split-table GF(2^8) codecs (Plank,
Greenan, Miller, FAST 2013) without SIMD. The weights depend only on
the source positions and the target, so each (positions, target) pair
gets one cached plan of product rows, zero weights dropped, that every
later evaluation through the same positions reuses. A plan costs O(k)
log-table sums, given the barycentric weights of its positions, which
are derived once per position tuple. The caches keep the 2048 most
recently used plans and 256 weight tuples; an adversarial n=255 run
needs about 1,500 plans over about 40 tuples.

The code is systematic, so decoding a word with all of slots 1..k
present reads the block directly: the data slots joined, no interpolation.

A word is a list of n slots, slot j at index j-1: a sym_bytes-byte
string, or None for an erasure.  All functions are pure; words passed in
are never mutated by the codec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .gf256 import _EXP, _LOG, gf_mul


class ParameterError(ValueError):
    """Code parameters outside the supported range."""


class InsufficientSymbolsError(ValueError):
    """Fewer non-erased slots than the code dimension k."""


class NotACodewordError(ValueError):
    """Vector is inconsistent with every degree-below-k polynomial."""


@dataclass(frozen=True)
class CodeParams:
    """Shape of one (n, k) byte-interleaved code instance."""

    n: int
    k: int
    sym_bytes: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ParameterError(f"need 1 <= k <= n, got n={self.n} k={self.k}")
        if self.n > 255:
            raise ParameterError(f"n={self.n} exceeds the 255 field points of GF(2^8)")
        if self.sym_bytes < 1:
            raise ParameterError(f"sym_bytes must be positive, got {self.sym_bytes}")

    @property
    def block_bytes(self) -> int:
        """Payload bytes carried by one codeword (k data macro-symbols)."""
        return self.k * self.sym_bytes


def parse_word(n: int, sym_bytes: int, data: Sequence[str | None]) -> list[bytes | None]:
    """A word read from JSON: n slots, each hex of sym_bytes bytes or None."""
    if len(data) != n:
        raise ParameterError(f"expected {n} slots, got {len(data)}")
    word = [None if v is None else bytes.fromhex(v) for v in data]
    for value in word:
        if value is not None and len(value) != sym_bytes:
            raise ParameterError(
                f"macro-symbol must be {sym_bytes} bytes, got {len(value)}"
            )
    return word


def word_hex(word: Sequence[bytes | None]) -> list[str | None]:
    """The JSON form of a word, as `parse_word` reads it."""
    return [None if v is None else v.hex() for v in word]


# `bytes.translate` table: 1 for a zero byte, 0 for any other
_ZERO_FLAG = b"\x01" + bytes(255)


@lru_cache(maxsize=None)
def _mul_row(c: int) -> bytes:
    """Products c*x for x = 0..255, a `bytes.translate` table scaling by c."""
    return bytes(gf_mul(c, x) for x in range(256))


@lru_cache(maxsize=256)
def _log_weights(xs: tuple[int, ...]) -> tuple[int, ...]:
    """Log of each barycentric weight 1 / prod_{u != s} (x_s - x_u)."""
    return tuple(
        -sum(_LOG[x_s ^ x_u] for x_u in xs if x_u != x_s) % 255 for x_s in xs
    )


@lru_cache(maxsize=2048)
def _plan(xs: tuple[int, ...], target: int) -> tuple[tuple[int, bytes], ...]:
    """(source index, product row) per nonzero Lagrange weight at `target`.

    At a source point only that source has a nonzero weight, 1. Elsewhere
    weight s is l(target) w_s / (target - x_s), with l(x) the product of
    x - x_u over the sources and w_s the barycentric weight (Berrut and
    Trefethen, SIAM Review 46(3), 2004): O(k) log-table sums per target
    once the tuple's weights are known.
    """
    if target in xs:
        return ((xs.index(target), _mul_row(1)),)
    diffs = [_LOG[target ^ x_u] for x_u in xs]
    log_l = sum(diffs)
    return tuple(
        (s, _mul_row(_EXP[(log_l + w - d) % 255]))
        for s, (w, d) in enumerate(zip(_log_weights(xs), diffs))
    )


def _eval_at(
    xs: tuple[int, ...], symbols: Sequence[bytes], target: int, sym_bytes: int
) -> bytes:
    """Interpolant through (xs[s], symbols[s]) evaluated at `target`."""
    acc = 0
    for s, row in _plan(xs, target):
        acc ^= int.from_bytes(symbols[s].translate(row), "little")
    return acc.to_bytes(sym_bytes, "little")


def encode(params: CodeParams, data: bytes) -> list[bytes]:
    """Spread k data macro-symbols over n slots; slots 1..k hold the data."""
    if len(data) != params.block_bytes:
        raise ParameterError(
            f"data block must be {params.block_bytes} bytes, got {len(data)}"
        )
    n, k, s = params.n, params.k, params.sym_bytes
    xs = tuple(range(1, k + 1))
    symbols = [data[i * s : (i + 1) * s] for i in range(k)]
    return symbols + [_eval_at(xs, symbols, pos, s) for pos in range(k + 1, n + 1)]


def _seed(
    params: CodeParams, vec: Sequence[bytes | None]
) -> tuple[list[int], list[bytes]]:
    """Present positions, ascending, and the symbols at the k lowest."""
    present = [pos for pos, value in enumerate(vec, start=1) if value is not None]
    if len(present) < params.k:
        raise InsufficientSymbolsError(
            f"need {params.k} non-erased slots, have {len(present)}"
        )
    return present, [vec[pos - 1] for pos in present[: params.k]]


def is_codeword(params: CodeParams, vec: Sequence[bytes | None]) -> bool:
    """Consistency of every non-erased slot with one degree-below-k polynomial.

    Interpolates through the k lowest non-erased slots and checks the rest.
    Raises ParameterError unless the word has n slots of sym_bytes bytes
    or None, and InsufficientSymbolsError when fewer than k are present;
    callers in the protocol treat that as a detection.
    """
    if len(vec) != params.n or any(
        value is not None and len(value) != params.sym_bytes for value in vec
    ):
        raise ParameterError("vector shape does not match code parameters")
    present, symbols = _seed(params, vec)
    xs = tuple(present[: params.k])
    return all(
        vec[pos - 1] == _eval_at(xs, symbols, pos, params.sym_bytes)
        for pos in present[params.k :]
    )


def reconstruct_position(
    params: CodeParams, vec: Sequence[bytes | None], pos: int, sources: Iterable[int]
) -> bytes:
    """Value at `pos` of the codeword through exactly k given source slots."""
    src = tuple(sources)
    if len(src) != params.k:
        raise ParameterError(f"need exactly {params.k} sources, got {len(src)}")
    if len(set(src)) != params.k:
        raise ParameterError("duplicate source positions")
    symbols = []
    for p in src:
        if not 1 <= p <= params.n:
            raise ParameterError(f"source position {p} out of range 1..{params.n}")
        value = vec[p - 1]
        if value is None:
            raise InsufficientSymbolsError(f"source slot {p} is erased")
        symbols.append(value)
    return _eval_at(src, symbols, pos, params.sym_bytes)


def decode(
    params: CodeParams, vec: Sequence[bytes | None], *, checked: bool = False
) -> bytes:
    """Data block of a (possibly erased) vector that passes is_codeword.

    Raises NotACodewordError when the check fails. A caller that has just
    run is_codeword on this very vector passes checked=True to skip the
    repeat. When none of slots 1..k is erased the block is those slots
    joined; otherwise it is interpolated from the k lowest non-erased
    slots, without checking the rest.
    """
    if not checked and not is_codeword(params, vec):
        raise NotACodewordError("vector is not consistent with any codeword")
    data = vec[: params.k]
    if None not in data:
        return b"".join(data)
    present, symbols = _seed(params, vec)
    xs = tuple(present[: params.k])
    return b"".join(
        _eval_at(xs, symbols, pos, params.sym_bytes) if value is None else value
        for pos, value in enumerate(data, start=1)
    )


def min_distance_bruteforce(params: CodeParams) -> int:
    """Exact minimum Hamming distance (in slots) over all codeword pairs.

    The difference of two codewords is itself a codeword (the evaluation
    map is linear over GF(2^8)), so the pairwise minimum equals the
    minimum nonzero-codeword weight. Slot weight is also invariant under
    nonzero scalar multiples, so it suffices to enumerate the codewords
    whose first nonzero data symbol is 1: 256^(k-1-lead) of them for
    each leading position. Byte lanes are independent codewords, so one
    `encode` with one lane per tail enumerates all of a lead's codewords,
    and each slot's zero lanes are counted together.
    """
    if params.sym_bytes != 1 or (params.k - 1) * 8 > 16:
        raise ParameterError("brute force limited to sym_bytes=1 and k <= 3")
    n, k = params.n, params.k
    best = n
    for lead in range(k):
        tail_len = k - lead - 1
        lanes = 256**tail_len
        # tail digit j of lane i is base-256 digit j of i, most significant first
        tails = [
            b"".join(bytes([d]) * 256 ** (tail_len - 1 - j) for d in range(256))
            * 256**j
            for j in range(tail_len)
        ]
        vec = encode(
            CodeParams(n, k, lanes),
            bytes(lead * lanes) + b"\x01" * lanes + b"".join(tails),
        )
        # per lane, one byte counting its zero slots (at most n <= 255)
        zeros = sum(int.from_bytes(slot.translate(_ZERO_FLAG), "big") for slot in vec)
        best = min(best, n - max(zeros.to_bytes(lanes, "big")))
    return best
