"""The slot-list walks of decode, detection and matching against per-slot
references (`slot_oracle.py`), on words with random erasures and lies."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slot_oracle as oracle
from codedbft.consensus import detection_flag
from codedbft.quorum import compute_match_bits
from codedbft.rs import (
    CodeParams,
    InsufficientSymbolsError,
    NotACodewordError,
    decode,
    encode,
)


def lie(symbol: bytes, rng: random.Random) -> bytes:
    """`symbol` with every byte changed."""
    return bytes(b ^ rng.randint(1, 255) for b in symbol)


@st.composite
def codewords(draw, min_spare: int = 0) -> tuple[CodeParams, list[bytes]]:
    """An (n, k) code with n - k >= `min_spare`, and a codeword of a random
    block (hypothesis would draw mostly zero blocks, whose slots are all
    equal, so a walk that pairs the wrong slots would go unseen)."""
    n = draw(st.integers(min_value=1 + min_spare, max_value=12))
    k = draw(st.integers(min_value=1, max_value=n - min_spare))
    params = CodeParams(n, k, draw(st.sampled_from((1, 2, 3, 5))))
    return params, encode(params, draw(st.randoms()).randbytes(params.block_bytes))


@st.composite
def damaged(draw, word: list[bytes], k: int, lies: bool = True) -> list[bytes | None]:
    """`word` with erasures, either at random positions or of exactly one
    data slot (so a decoder must interpolate it), then, with `lies`, maybe
    one present slot changed."""
    out = list(word)
    if draw(st.booleans()):
        erased = draw(st.sets(st.integers(min_value=1, max_value=len(word))))
    else:
        erased = {draw(st.integers(min_value=1, max_value=k))}
    for pos in erased:
        out[pos - 1] = None
    present = [pos for pos, value in enumerate(out, start=1) if value is not None]
    if lies and present and draw(st.booleans()):
        pos = draw(st.sampled_from(present))
        out[pos - 1] = lie(out[pos - 1], draw(st.randoms()))
    return out


@settings(max_examples=80, deadline=None)
@given(codewords(), st.data())
def test_decode_matches_per_slot_reference(case, data):
    params, codeword = case
    word = data.draw(damaged(codeword, params.k))
    verdict = oracle.is_codeword(word, params.k)
    if verdict is None:
        with pytest.raises(InsufficientSymbolsError):
            decode(params, word)
        with pytest.raises(InsufficientSymbolsError):
            decode(params, word, checked=True)
        return
    # checked=True reads the block whether or not the word is a codeword
    assert decode(params, word, checked=True) == oracle.decode(word, params.k)
    if verdict:
        assert decode(params, word) == oracle.decode(word, params.k)
    else:
        with pytest.raises(NotACodewordError):
            decode(params, word)


@settings(max_examples=40, deadline=None)
@given(codewords(min_spare=1), st.data())
def test_decode_rejects_a_changed_slot_though_every_data_slot_is_present(case, data):
    params, codeword = case
    pos = data.draw(st.integers(min_value=1, max_value=params.n))
    word = list(codeword)
    word[pos - 1] = lie(word[pos - 1], data.draw(st.randoms()))
    assert oracle.is_codeword(word, params.k) is False
    with pytest.raises(NotACodewordError):
        decode(params, word)


@settings(max_examples=80, deadline=None)
@given(codewords(), st.data())
def test_detection_flag_matches_per_slot_reference(case, data):
    params, codeword = case
    k, n = params.k, params.n
    received = data.draw(damaged(codeword, k))
    coded = data.draw(st.one_of(
        st.none(),
        st.just(codeword),
        damaged(codeword, k),
        st.randoms().map(lambda rng: encode(params, rng.randbytes(params.block_bytes))),
    ))
    in_match = data.draw(st.booleans())
    p_match = data.draw(st.sets(st.integers(min_value=1, max_value=n)))
    assert detection_flag(params, received, coded, in_match, p_match) == (
        oracle.detection_flag(k, received, coded, in_match, p_match)
    )


@settings(max_examples=60, deadline=None)
@given(codewords(), st.data())
def test_in_match_check_matches_per_slot_reference(case, data):
    # a received codeword, so the flag is the in-match comparison alone
    params, codeword = case
    received = data.draw(damaged(codeword, params.k, lies=False))
    coded = data.draw(st.one_of(
        damaged(codeword, params.k),
        st.randoms().map(lambda rng: encode(params, rng.randbytes(params.block_bytes))),
    ))
    members = range(1, params.n + 1)
    assert detection_flag(params, received, coded, True, members) == (
        oracle.detection_flag(params.k, received, coded, True, members)
    )


@settings(max_examples=80, deadline=None)
@given(codewords(), st.data())
def test_match_bits_match_per_slot_reference(case, data):
    params, codeword = case
    received = data.draw(damaged(codeword, params.k))
    coded = data.draw(st.one_of(st.just(codeword), damaged(codeword, params.k)))
    # the reference's bools, bit j-1 for slot j
    bits = oracle.match_bits(params.n, received, coded)
    assert compute_match_bits(received, coded) == sum(
        1 << j for j, bit in enumerate(bits) if bit
    )
