"""Slow, independent GF(2^8) and polynomial reference arithmetic.

Everything here is computed the obvious way: multiplication by
shift-and-xor reduction, inverses by exhaustive search, interpolation by
building the Lagrange polynomial coefficient-by-coefficient and then
evaluating it with Horner-free brute force. No lookup tables, and no
imports from the package under test; tests compare the fast codec
against these functions.
"""

REDUCTION = 0x11D


def mul(a: int, b: int) -> int:
    """Carry-less product reduced modulo x^8 + x^4 + x^3 + x^2 + 1."""
    acc = 0
    for bit in range(8):
        if (b >> bit) & 1:
            acc ^= a << bit
    for bit in range(15, 7, -1):
        if (acc >> bit) & 1:
            acc ^= REDUCTION << (bit - 8)
    return acc


def inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse")
    for b in range(1, 256):
        if mul(a, b) == 1:
            return b
    raise AssertionError("unreachable in a field")


def poly_add(p: list[int], q: list[int]) -> list[int]:
    size = max(len(p), len(q))
    p = list(p) + [0] * (size - len(p))
    q = list(q) + [0] * (size - len(q))
    return [x ^ y for x, y in zip(p, q)]


def poly_scale(p: list[int], c: int) -> list[int]:
    return [mul(coeff, c) for coeff in p]


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] ^= mul(a, b)
    return out


def poly_eval(p: list[int], x: int) -> int:
    acc = 0
    power = 1
    for coeff in p:
        acc ^= mul(coeff, power)
        power = mul(power, x)
    return acc


def lagrange_basis(xs: list[int], i: int) -> list[int]:
    """Coefficients of the polynomial that is 1 at xs[i] and 0 at the other xs."""
    basis = [1]
    denom = 1
    for j, xj in enumerate(xs):
        if i == j:
            continue
        # (x - xj) == (x + xj): characteristic 2
        basis = poly_mul(basis, [xj, 1])
        denom = mul(denom, xs[i] ^ xj)
    return poly_scale(basis, inv(denom))


def lagrange_poly(points: list[tuple[int, int]]) -> list[int]:
    """Coefficients (ascending powers) of the interpolant through points."""
    xs = [x for x, _ in points]
    poly = [0]
    for i, (_, yi) in enumerate(points):
        poly = poly_add(poly, poly_scale(lagrange_basis(xs, i), yi))
    return poly


def codeword(n: int, k: int, data: list[int]) -> list[int]:
    """Evaluations at 1..n of the interpolant through (1..k, data)."""
    points = list(zip(range(1, k + 1), data))
    poly = lagrange_poly(points)
    return [poly_eval(poly, x) for x in range(1, n + 1)]


def generator_matrix(n: int, k: int) -> list[list[int]]:
    """Row i: evaluations at 1..n of the codeword whose data is 1 at slot i+1.

    Any codeword is the XOR of these rows scaled by its k data symbols.
    """
    xs = list(range(1, k + 1))
    bases = [lagrange_basis(xs, i) for i in range(k)]
    return [[poly_eval(basis, x) for x in range(1, n + 1)] for basis in bases]
