"""Exhaustive checks of the table-driven GF(2^8) arithmetic.

The field is small enough to compare every product against the
shift-and-xor reference in gf_oracle, which shares no code with the
implementation under test. Inversion is done by `rs` in the log domain;
the `gf_oracle` tests in test_rs.py cover it.
"""

import gf_oracle as oracle
from codedbft.gf256 import gf_mul


def test_mul_matches_oracle_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == oracle.mul(a, b)


def test_known_products():
    # frozen from the oracle
    assert gf_mul(0x57, 0x83) == 0x31
