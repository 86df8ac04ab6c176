"""Arithmetic over GF(2^8) with the 0x11D reduction polynomial.

Log and antilog tables are built once at import time; multiplication
becomes a table lookup, addition is XOR.
"""

from __future__ import annotations

REDUCTION_POLY = 0x11D

_EXP = [0] * 510
_LOG = [0] * 256


def _build_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= REDUCTION_POLY
    # duplicate so gf_mul can index _EXP[log(a) + log(b)] without a modulo
    for i in range(255, 510):
        _EXP[i] = _EXP[i - 255]


_build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]

