"""Exhaustive checks of the table-driven GF(2^8) arithmetic.

The field is small enough to compare every product and every inverse
against the shift-and-xor reference in gf_oracle, which shares no code
with the implementation under test.
"""

import pytest

import gf_oracle as oracle
from codedbft.gf256 import gf_div, gf_mul


def test_mul_matches_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == oracle.mul(a, b)


def test_every_nonzero_element_has_the_brute_force_inverse():
    for a in range(1, 256):
        assert gf_div(1, a) == oracle.inv(a)
        assert gf_mul(a, gf_div(1, a)) == 1


def test_known_products():
    # frozen from the oracle
    assert gf_mul(0x57, 0x83) == 0x31
    assert gf_div(1, 0x03) == 0xF4


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        gf_div(1, 0)
    with pytest.raises(ZeroDivisionError):
        gf_div(0, 0)


def test_div_inverts_mul():
    for a in range(256):
        for b in range(1, 256, 7):
            assert gf_div(gf_mul(a, b), b) == a
