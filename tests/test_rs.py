"""Reed-Solomon codec tests against the independent polynomial oracle.

Covers encode/membership/reconstruction/decode plus the brute-force
minimum-distance check. Derived expectations come from gf_oracle
(schoolbook Lagrange interpolation); a few of its outputs are also
frozen inline so a simultaneous bug in both sides would still trip.
"""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gf_oracle as oracle
from codedbft.rs import (
    CodeParams,
    InsufficientSymbolsError,
    NotACodewordError,
    ParameterError,
    _log_weights,
    _mul_row,
    _plan,
    decode,
    encode,
    is_codeword,
    min_distance_bruteforce,
    parse_word,
    reconstruct_position,
    word_hex,
)


MAX_N = 20
SYM_SIZES = (1, 7, 64, 4096)


@functools.cache
def oracle_row(c: int) -> bytes:
    """Products c*x for x = 0..255 by shift-and-xor."""
    return bytes(oracle.mul(c, x) for x in range(256))


@functools.cache
def oracle_generator(k: int) -> list[list[int]]:
    return oracle.generator_matrix(MAX_N, k)


def oracle_vector(params: CodeParams, data: bytes) -> list[bytes]:
    """Codeword of `data` as the sum of oracle generator rows, all lanes at once.

    Each data symbol is scaled byte by byte through a row of oracle
    products; whole symbols are XORed as big-endian integers.
    """
    n, k, s = params.n, params.k, params.sym_bytes
    rows = oracle_generator(k)
    symbols = [data[i * s : (i + 1) * s] for i in range(k)]
    slots = []
    for pos in range(n):
        acc = 0
        for row, sym in zip(rows, symbols):
            scaled = bytes(map(oracle_row(row[pos]).__getitem__, sym))
            acc ^= int.from_bytes(scaled, "big")
        slots.append(acc.to_bytes(s, "big"))
    return slots


@st.composite
def code_blocks(draw) -> tuple[CodeParams, bytes]:
    """Code shape up to n=20 with 1..4096-byte symbols, and one data block.

    The block comes from a drawn seed (a 4096-byte symbol is beyond
    hypothesis's own buffer); bytes below a drawn threshold are zeroed,
    so blocks range from no forced zeros to all zeros.
    """
    n = draw(st.integers(min_value=1, max_value=MAX_N))
    k = draw(st.integers(min_value=1, max_value=n))
    sym_bytes = draw(st.sampled_from(SYM_SIZES))
    threshold = draw(st.sampled_from((0, 128, 256)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    zeroing = bytes(0 if x < threshold else x for x in range(256))
    block = rng.randbytes(k * sym_bytes).translate(zeroing)
    return CodeParams(n, k, sym_bytes), block


# ---------------------------------------------------------------- params


def test_param_validation():
    CodeParams(4, 3)
    with pytest.raises(ParameterError):
        CodeParams(4, 5)
    with pytest.raises(ParameterError):
        CodeParams(4, 0)
    with pytest.raises(ParameterError):
        CodeParams(256, 3)
    with pytest.raises(ParameterError):
        CodeParams(4, 2, sym_bytes=0)


# ---------------------------------------------------------------- encode


def test_encode_zero_block_gives_zero_codeword():
    vec = encode(CodeParams(4, 3), b"\x00\x00\x00")
    assert all(vec[pos - 1] == b"\x00" for pos in range(1, 5))


def test_encode_repetition_code_copies_the_symbol():
    vec = encode(CodeParams(4, 1), b"\xa7")
    assert [vec[pos - 1] for pos in range(1, 5)] == [b"\xa7"] * 4


def test_encode_systematic_prefix_is_the_data():
    vec = encode(CodeParams(7, 5, sym_bytes=2), bytes(range(10)))
    for pos in range(1, 6):
        assert vec[pos - 1] == bytes(range(10))[(pos - 1) * 2 : pos * 2]


def test_parity_slot_matches_polynomial_oracle():
    vec = encode(CodeParams(3, 2), b"\x01\x02")
    expected = oracle.codeword(3, 2, [0x01, 0x02])
    assert vec[2] == bytes([expected[2]])
    # frozen: the interpolant through (1,01),(2,02) is p(x)=x
    assert vec[2] == b"\x03"


def test_known_codewords_frozen_from_oracle():
    assert encode(CodeParams(4, 2), b"\xde\xad") == [b"\xde", b"\xad", b"\x77", b"\x4b"]
    assert encode(CodeParams(4, 3), b"\xa7\x00\x5c") == [b"\xa7", b"\x00", b"\x5c", b"\x01"]


def test_encode_rejects_wrong_block_length():
    with pytest.raises(ParameterError):
        encode(CodeParams(4, 3), b"\x00\x00")


def test_mul_rows_match_oracle_exhaustively():
    for c in range(256):
        assert _mul_row(c) == oracle_row(c)


@settings(max_examples=40, deadline=None)
@given(code_blocks())
def test_encode_matches_oracle(case):
    params, block = case
    assert encode(params, block) == oracle_vector(params, block)


@settings(max_examples=40)
@given(st.binary(min_size=3, max_size=3), st.binary(min_size=3, max_size=3))
def test_encode_is_linear(a, b):
    """XOR of two codewords is the codeword of the XORed blocks."""
    params = CodeParams(6, 3)
    va, vb = encode(params, a), encode(params, b)
    vx = encode(params, bytes(x ^ y for x, y in zip(a, b)))
    for pos in range(1, 7):
        assert bytes(
            x ^ y for x, y in zip(va[pos - 1], vb[pos - 1])
        ) == vx[pos - 1]


def test_lanes_are_independent():
    """Multi-byte symbols behave as interleaved single-byte codewords."""
    params = CodeParams(5, 3, sym_bytes=2)
    block = b"\x11\x22\x33\x44\x55\x66"
    wide = encode(params, block)
    for lane in range(2):
        narrow = encode(CodeParams(5, 3), block[lane::2])
        for pos in range(1, 6):
            assert wide[pos - 1][lane] == narrow[pos - 1][0]


# ------------------------------------------------------------ membership


def test_encode_output_is_codeword():
    params = CodeParams(7, 5)
    assert is_codeword(params, encode(params, b"\x10\x20\x30\x40\x50"))


def test_flipped_byte_is_not_a_codeword():
    params = CodeParams(4, 3)
    vec = encode(params, b"\x01\x02\x03")
    vec[1] = bytes([vec[1][0] ^ 0x40])
    assert not is_codeword(params, vec)
    # brute-force confirmation: no choice of k slots interpolates a
    # polynomial consistent with all four
    for subset in itertools.combinations(range(1, 5), 3):
        points = [(pos, vec[pos - 1][0]) for pos in subset]
        poly = oracle.lagrange_poly(points)
        fits = all(
            oracle.poly_eval(poly, pos) == vec[pos - 1][0] for pos in range(1, 5)
        )
        assert not fits


def test_erased_slot_still_passes_membership():
    params = CodeParams(4, 3)
    vec = encode(params, b"\x01\x02\x03")
    vec[1] = None
    assert is_codeword(params, vec)


def test_membership_needs_k_present_slots():
    params = CodeParams(4, 3)
    vec = encode(params, b"\x01\x02\x03")
    vec[0] = None
    vec[2] = None
    with pytest.raises(InsufficientSymbolsError):
        is_codeword(params, vec)


def test_membership_follows_a_word_mutated_in_place():
    params = CodeParams(7, 3, 2)
    vec = encode(params, bytes(range(6)))
    parity = vec[6]
    assert is_codeword(params, vec)
    vec[6] = bytes([parity[0] ^ 1, parity[1]])
    assert not is_codeword(params, vec)
    # every complete word is a codeword of the (7, 7) code
    assert is_codeword(CodeParams(7, 7, 2), vec)
    vec[6] = None
    assert is_codeword(params, vec)
    vec[0] = b"\xff\xff"
    assert not is_codeword(params, vec)


def test_membership_rejects_shape_mismatch():
    with pytest.raises(ParameterError):
        is_codeword(CodeParams(4, 3), [None] * 5)
    with pytest.raises(ParameterError):
        is_codeword(CodeParams(4, 3), [b"\x00", b"\x00", b"\x00", b"\x00\x00"])


@settings(max_examples=40)
@given(st.binary(min_size=3, max_size=3), st.data())
def test_any_k_subset_interpolates_the_same_codeword(block, data):
    """MDS property: every k present slots determine the full word."""
    params = CodeParams(7, 3)
    vec = encode(params, block)
    subset = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=7),
            min_size=3,
            max_size=3,
            unique=True,
        )
    )
    for pos in range(1, 8):
        assert reconstruct_position(params, vec, pos, subset) == vec[pos - 1]


# -------------------------------------------------------- reconstruction


def test_reconstruct_parity_from_data_slots():
    params = CodeParams(7, 5)
    vec = encode(params, b"\x10\x20\x30\x40\x50")
    got = reconstruct_position(params, vec, 6, range(1, 6))
    assert got == vec[5]


def test_reconstruct_constant_code_from_any_slot():
    params = CodeParams(4, 1)
    vec = encode(params, b"\xa7")
    for source in range(1, 5):
        assert reconstruct_position(params, vec, 2, [source]) == b"\xa7"


def test_reconstruct_data_slot_from_parity_sources():
    params = CodeParams(4, 3)
    vec = encode(params, b"\x0b\xad\xf0")
    assert reconstruct_position(params, vec, 1, [2, 3, 4]) == b"\x0b"


def test_reconstruct_source_validation():
    params = CodeParams(4, 3)
    vec = encode(params, b"\x01\x02\x03")
    with pytest.raises(ParameterError):
        reconstruct_position(params, vec, 1, [2, 3])
    with pytest.raises(ParameterError):
        reconstruct_position(params, vec, 1, [2, 2, 3])
    with pytest.raises(ParameterError):
        reconstruct_position(params, vec, 1, [2, 3, 5])
    vec[3] = None
    with pytest.raises(InsufficientSymbolsError):
        reconstruct_position(params, vec, 1, [2, 3, 4])


@settings(max_examples=40, deadline=None)
@given(code_blocks(), st.data())
def test_reconstruct_matches_oracle(case, data):
    params, block = case
    n, k = params.n, params.k
    word = oracle_vector(params, block)
    sources = data.draw(st.permutations(range(1, n + 1)))[:k]
    # at a source position every other Lagrange weight is zero
    target = data.draw(st.sampled_from(sources) | st.integers(min_value=1, max_value=n))
    vec = [word[p - 1] if p in sources else None for p in range(1, n + 1)]
    assert reconstruct_position(params, vec, target, sources) == word[target - 1]


@settings(max_examples=60, deadline=None)
@given(code_blocks(), st.data())
def test_plans_match_oracle_on_source_subsets(case, data):
    """Membership and reconstruction through any present subset of a word.

    The erasures choose which k slots seed `is_codeword`; a target drawn
    from the sources gives a plan in which every other weight is zero.
    """
    params, block = case
    n, k = params.n, params.k
    word = oracle_vector(params, block)
    present = data.draw(
        st.sets(st.integers(min_value=1, max_value=n), min_size=k, max_size=n)
    )
    vec = [word[p - 1] if p in present else None for p in range(1, n + 1)]
    assert is_codeword(params, vec)
    sources = data.draw(st.permutations(sorted(present)))[:k]
    for target in (
        data.draw(st.sampled_from(sources)),
        data.draw(st.integers(min_value=1, max_value=n)),
    ):
        assert reconstruct_position(params, vec, target, sources) == word[target - 1]
    if len(present) > k:
        # the present slots form an MDS code of distance >= 2
        pos = data.draw(st.sampled_from(sorted(present)))
        sym = bytearray(vec[pos - 1])
        sym[data.draw(st.integers(min_value=0, max_value=params.sym_bytes - 1))] ^= (
            data.draw(st.integers(min_value=1, max_value=255))
        )
        vec[pos - 1] = bytes(sym)
        assert not is_codeword(params, vec)


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=1, max_value=171), st.data())
def test_wide_source_tuples_match_the_oracle_at_n255(k, data):
    """Reconstruction through k random sources of an n=255 word, up to
    the k=171 of alg1 at t=84, equals the oracle's evaluation of a random
    polynomial of degree below k at a source and at two other points."""
    n = 255
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    poly = list(rng.randbytes(k))
    sources = rng.sample(range(1, n + 1), k)
    targets = [data.draw(st.sampled_from(sources)), *rng.sample(range(1, n + 1), 2)]
    vec = [None] * n
    for p in sources:
        vec[p - 1] = bytes([oracle.poly_eval(poly, p)])
    params = CodeParams(n, k, 1)
    for target in targets:
        want = bytes([oracle.poly_eval(poly, target)])
        assert reconstruct_position(params, vec, target, sources) == want


# ---------------------------------------------------------------- decode


def test_plan_cache_stays_bounded_through_more_plans_than_it_holds():
    """Reconstruct through more (sources, target) pairs than the plan
    cache holds, over more source tuples than the weight cache holds,
    twice, so that the second pass re-derives evicted plans and weights:
    the caches stay within their bounds and every value matches the
    oracle."""
    n, k = 20, 3
    params = CodeParams(n, k, 1)
    word = oracle.codeword(n, k, [0x53, 0xCA, 0x01])
    vec = [bytes([v]) for v in word]
    pairs = [
        (sources, target)
        for sources in itertools.combinations(range(1, n + 1), k)
        for target in (1, n)
    ]
    assert len(pairs) > _plan.cache_info().maxsize == 2048
    assert len(pairs) // 2 > _log_weights.cache_info().maxsize == 256
    for _ in range(2):
        for sources, target in pairs:
            assert reconstruct_position(params, vec, target, sources) == bytes(
                [word[target - 1]]
            )
    for info in (_plan.cache_info(), _log_weights.cache_info()):
        assert info.currsize <= info.maxsize


def test_decode_round_trip_exhaustive_n4_k2():
    params = CodeParams(4, 2)
    for message in range(65536):
        block = message.to_bytes(2, "big")
        assert decode(params, encode(params, block)) == block


@settings(max_examples=40, deadline=None)
@given(code_blocks(), st.data())
def test_decode_matches_oracle(case, data):
    params, block = case
    n, k = params.n, params.k
    vec = oracle_vector(params, block)
    for pos in data.draw(st.sets(st.integers(min_value=1, max_value=n), max_size=n - k)):
        vec[pos - 1] = None
    assert decode(params, vec) == block
    assert decode(params, vec, checked=True) == block
    present = [pos for pos, value in enumerate(vec, start=1) if value is not None]
    if len(present) > k:
        pos = data.draw(st.sampled_from(present))
        lane = data.draw(st.integers(min_value=0, max_value=params.sym_bytes - 1))
        sym = bytearray(vec[pos - 1])
        sym[lane] ^= data.draw(st.integers(min_value=1, max_value=255))
        vec[pos - 1] = bytes(sym)
        with pytest.raises(NotACodewordError):
            decode(params, vec)


def test_decode_recovers_from_max_erasures():
    params = CodeParams(7, 5)
    block = b"\x10\x20\x30\x40\x50"
    vec = encode(params, block)
    vec[0] = None
    vec[3] = None
    assert decode(params, vec) == block


def test_decode_zero_vector():
    assert decode(CodeParams(4, 2), encode(CodeParams(4, 2), b"\x00\x00")) == b"\x00\x00"


def test_decode_rejects_corruption():
    params = CodeParams(4, 2)
    vec = encode(params, b"\x12\x34")
    vec[2] = bytes([vec[2][0] ^ 1])
    with pytest.raises(NotACodewordError):
        decode(params, vec)


def test_decode_needs_k_slots():
    params = CodeParams(4, 2)
    vec = encode(params, b"\x12\x34")
    for pos in (1, 2, 4):
        vec[pos - 1] = None
    with pytest.raises(InsufficientSymbolsError):
        decode(params, vec)
    with pytest.raises(InsufficientSymbolsError):
        decode(params, vec, checked=True)


# ---------------------------------------------------------- min distance


def test_min_distance_known_values():
    assert min_distance_bruteforce(CodeParams(4, 3)) == 2
    assert min_distance_bruteforce(CodeParams(3, 1)) == 3
    assert min_distance_bruteforce(CodeParams(2, 2)) == 1


def test_min_distance_agrees_with_codeword_scans():
    # acceptance criterion 8 checks the whole table the guard allows;
    # here the one-encode lane enumeration meets two slow scans
    for n in range(2, 8):
        for k in range(1, min(n, 2) + 1):
            params = CodeParams(n, k)
            # the codewords whose first nonzero data symbol is 1, one at a time
            canonical = [
                encode(params, bytes(lead) + b"\x01" + tail.to_bytes(tail_len, "big"))
                for lead in range(k)
                for tail_len in [k - lead - 1]
                for tail in range(256**tail_len)
            ]
            weight = min(
                sum(1 for pos in range(1, n + 1) if w[pos - 1] != b"\x00")
                for w in canonical
            )
            assert min_distance_bruteforce(params) == weight == n - k + 1
            if k == 1:
                # independent confirmation: full pairwise scan
                words = [encode(params, bytes([m])) for m in range(256)]
                pairwise = min(
                    sum(
                        1
                        for pos in range(1, n + 1)
                        if a[pos - 1] != b[pos - 1]
                    )
                    for a, b in itertools.combinations(words, 2)
                )
                assert pairwise == n - k + 1


def test_min_distance_guard():
    with pytest.raises(ParameterError):
        min_distance_bruteforce(CodeParams(4, 3, sym_bytes=2))
    with pytest.raises(ParameterError):
        min_distance_bruteforce(CodeParams(7, 4))


# ------------------------------------------------------------ JSON words


def test_parse_word_reads_hex_and_erasures():
    assert parse_word(4, 1, ["01", None, "0A", "ff"]) == [b"\x01", None, b"\x0a", b"\xff"]
    assert parse_word(2, 2, [None, None]) == [None, None]
    word = [b"\x01\x02", None, b"\xff\x00"]
    assert word_hex(word) == ["0102", None, "ff00"]
    assert parse_word(3, 2, word_hex(word)) == word


def test_parse_word_refuses_wrong_shapes():
    with pytest.raises(ParameterError, match="expected 4 slots, got 3"):
        parse_word(4, 1, ["01", "02", "03"])
    for slot in ("01", "010203", ""):
        with pytest.raises(ParameterError, match="macro-symbol must be 2 bytes"):
            parse_word(2, 2, ["0102", slot])
    with pytest.raises(ValueError):
        parse_word(2, 1, ["01", "zz"])
