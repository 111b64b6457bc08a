"""Reference search for field moduli, and the writer and checker of the table
of moduli that ``agq.fields`` reads.

``src/agq/data/moduli.json`` holds one row ``[p, m, [coefficients]]`` for
every (p, m) with p prime and p^(2m) within DEFAULT_FIELD_CAP: the defining
modulus of GF(p^{2m}), coefficients ascending (constant term first, leading 1
last).  The modulus is the Conway polynomial when the size is in CONWAY, so
that t-power listings are comparable with standard computer-algebra output;
otherwise it is the lexicographically least primitive polynomial.  The search
for it tests the norm of a root, then irreducibility (Euler's criterion on the
discriminant at degree 2 with p odd, Ben-Or's test otherwise), then the order
of x.  At degree 2 with p odd the order test runs on integer pairs a + b x;
otherwise the polynomials are packed into Python ints, bits for p = 2 and bit
fields for odd p, so that sums and products act on whole ints, and the powers
of x share their squarings.

Run from the repository root:

    PYTHONPATH=src python -m tests.modulus_search           # rewrite the table
    PYTHONPATH=src python -m tests.modulus_search --check   # exit 1 on any difference
"""

from __future__ import annotations

import argparse
import json
import sys
from math import gcd, isqrt
from pathlib import Path

from agq.config import DEFAULT_FIELD_CAP

TABLE = Path(__file__).resolve().parents[1] / "src" / "agq" / "data" / "moduli.json"

# Published Conway polynomials C_{p,2m}, coefficients ascending: the moduli of
# the fields they cover, and so the expected values of those table entries.
CONWAY = {
    (2, 2): (1, 1, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (2, 8): (1, 0, 1, 1, 1, 0, 0, 0, 1),
    (2, 10): (1, 1, 1, 1, 0, 1, 1, 0, 0, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 4): (2, 0, 0, 2, 1),
    (3, 6): (2, 2, 1, 0, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (5, 4): (2, 4, 4, 0, 1),
    (7, 2): (3, 6, 1),
    (11, 2): (2, 7, 1),
    (13, 2): (2, 12, 1),
    (17, 2): (3, 16, 1),
    (19, 2): (2, 18, 1),
    (23, 2): (5, 21, 1),
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _prime_factors(n: int) -> set[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


# -- packed polynomials over GF(p), used only for modulus search --------------
#
# A polynomial is one Python int: its bits for p = 2, one bit field per
# coefficient for odd p.  Sums and products act on whole ints, in place of
# loops over coefficient lists.


class _Polys:
    """Euclid and Ben-Or's test on top of a packing's rem and Frobenius map."""

    def gcd(self, a, b):
        while b:
            a, b = b, self.rem(a, b)
        return a

    def has_small_factor(self, f) -> bool:
        """Ben-Or's test: does monic f of degree d >= 2 with f(0) != 0 have a
        factor of degree <= d/2?

        Every irreducible factor of degree j divides x^(p^j) - x, so f is
        irreducible exactly when gcd(f, x^(p^j) - x) = 1 for j = 1 .. d/2.  The
        test stops at the first j with a nontrivial gcd.  Each x^(p^j) mod f is
        the p-th power of the one before.
        """
        h = self.x
        for _ in range(self.deg // 2):
            h = self.frobenius(h, f)
            if self.gcd(f, self.minus_x(h)) >= self.x:  # degree >= 1
                return True
        return False


class _BinaryPolys(_Polys):
    """Polynomials over GF(2): bit i is the coefficient of x^i, a sum is XOR
    and a product the XOR of shifted copies of one factor."""

    p = 2
    x = 0b10

    def __init__(self, deg):
        self.deg = deg

    def monic(self, value):
        """The monic polynomial of degree deg whose lower coefficients are the
        base-p digits of value."""
        return value | 1 << self.deg

    def coeffs(self, a, n):
        return tuple(a >> i & 1 for i in range(n))

    def mulmod(self, a, b, f):
        out = 0
        while b:
            low = b & -b  # x^i for the lowest term of b
            out ^= a * low
            b ^= low
        return self.rem(out, f)

    def rem(self, a, b):
        n = b.bit_length()
        while (top := a.bit_length()) >= n:
            a ^= b << top - n
        return a

    def square(self, a, f):
        """a^2 mod f.  The square of sum a_i x^i is sum a_i x^(2i), as cross
        terms come in pairs, so it is a spread of the bits reduced mod f."""
        return self.rem(int("0".join(format(a, "b")), 2), f)

    frobenius = square

    def minus_x(self, a):
        return a ^ self.x


class _PackedPolys(_Polys):
    """Polynomials over GF(p), p odd, of degree <= deg: coefficient i in bits
    [i w, (i+1) w) of one int (Kronecker substitution), so that a product is
    one integer product.  A field is wide enough for every sum below, so fields
    never carry into each other, and ``reduce`` takes every coefficient mod p
    at once: with M = ceil(2^s/p), floor(v M / 2^s) = floor(v/p) for every
    v < 2^s/p (Granlund and Montgomery, PLDI 1994), and each field's v M stays
    below 2^w."""

    def __init__(self, p, deg):
        self.p = p
        self.deg = deg
        # every field stays below deg^2 p^3, and bound doubles that: in mulmod a
        # product's coefficient (at most deg (p-1)^2) plus deg - 1 of them times
        # coefficients of x^(deg+i) mod f; in rem deg + 1 multiples of the divisor
        bound = 2 * deg * deg * p ** 3
        self.shift = bound.bit_length() + p.bit_length()
        self.magic = -(-(1 << self.shift) // p)
        w = self.w = bound.bit_length() + self.magic.bit_length()
        self.field = (1 << w) - 1
        self.low = (1 << deg * w) - 1
        self.quotients = sum((1 << w - self.shift) - 1 << i * w for i in range(deg + 1))
        self.x = 1 << w
        self._tails = {}

    def reduce(self, a):
        return a - self.p * (a * self.magic >> self.shift & self.quotients)

    def monic(self, value):
        p, w = self.p, self.w
        f = 1 << self.deg * w
        for i in range(self.deg):
            value, c = divmod(value, p)
            f |= c << i * w
        return f

    def coeffs(self, a, n):
        return tuple(a >> i * self.w & self.field for i in range(n))

    def rem(self, a, b):
        """a mod b for reduced b != 0 and a with fields below the bound.  Each
        step adds the multiple of b that makes a's top coefficient 0 mod p;
        fields from b's degree up are dropped at the end."""
        p, w, field = self.p, self.w, self.field
        db = (b.bit_length() - 1) // w
        neg_inv = -pow(b >> db * w, -1, p) % p
        for i in range((a.bit_length() - 1) // w, db - 1, -1):
            c = (a >> i * w & field) % p
            if c:
                a += c * neg_inv % p * b << (i - db) * w
        return self.reduce(a & (1 << db * w) - 1)

    def mulmod(self, a, b, f):
        """a b mod monic f of degree deg, for reduced a and b: the coefficient
        of x^(deg+i) in the product, unreduced, times x^(deg+i) mod f (kept
        per f in ``_tails``), added to the low half."""
        tails = self._tails.get(f) or self._new_tails(f)
        w, field = self.w, self.field
        c = a * b
        out = c & self.low
        c >>= self.deg * w
        for tail in tails:
            out += (c & field) * tail
            c >>= w
        return self.reduce(out)

    def _new_tails(self, f):
        """x^deg .. x^(2 deg - 2) mod f, each x times the one before."""
        tail = self.reduce((f & self.low) * (self.p - 1))  # x^deg = -(f - x^deg)
        tails = [tail]
        for _ in range(self.deg - 2):
            tail <<= self.w
            tail = self.reduce((tail & self.low) + (tail >> self.deg * self.w) * tails[0])
            tails.append(tail)
        self._tails[f] = tails
        return tails

    def square(self, a, f):
        return self.mulmod(a, a, f)

    def frobenius(self, a, f):
        """a^p mod f, by squaring and multiplying."""
        power = a
        for bit in bin(self.p)[3:]:
            power = self.mulmod(power, power, f)
            if bit == "1":
                power = self.mulmod(power, a, f)
        return power

    def minus_x(self, a):
        return self.reduce(a + (self.p - 1) * self.x)


def _least_primitive_poly(p, deg):
    """Lexicographically least primitive monic polynomial (packed-value order),
    coefficients ascending.

    Three tests in turn, cheapest first.  (-1)^deg f(0), the norm of a root,
    must generate GF(p)*.  f must be irreducible: Ben-Or's test
    (``has_small_factor``) finds no small factor.  Modulo an irreducible f
    with f(0) != 0, x^(p^deg - 1) = 1 (Lidl and Niederreiter, Finite Fields,
    Thm 3.3), so x is primitive exactly when x^((p^deg - 1)/r) != 1 for every
    prime r of p^deg - 1.  For r dividing p - 1 that power is the norm to the
    power (p - 1)/r, which the first test has checked, so only the other
    primes are tried, smallest first.  The polynomial arithmetic is packed:
    bits of an int for p = 2, and fields of an int for odd p
    (``_BinaryPolys``, ``_PackedPolys``).  Degree 2 with p odd has its own
    search, ``_least_primitive_quadratic``.
    """
    if deg == 2 and p > 2:
        return _least_primitive_quadratic(p)
    factors = _prime_factors(p - 1)
    order = p ** deg - 1
    cofactors = [order // r for r in sorted(_prime_factors(order) - factors)]
    norms = _primitive_norms(p, deg)
    polys = _BinaryPolys(deg) if p == 2 else _PackedPolys(p, deg)
    for value in range(1, p ** deg):
        if value % p not in norms:
            continue
        f = polys.monic(value)
        if polys.has_small_factor(f):
            continue
        # x^(2^i) mod f, squared as far as the next exponent needs
        squares = [polys.x]
        for e in cofactors:
            while len(squares) < e.bit_length():
                squares.append(polys.square(squares[-1], f))
            power = None
            for i, square in enumerate(squares):
                if e >> i & 1:
                    power = square if power is None else polys.mulmod(power, square, f)
            if power == 1:
                break
        else:
            return polys.coeffs(f, deg + 1)
    raise AssertionError("no primitive polynomial found")  # unreachable for prime p


def _primitive_norms(p, deg):
    """The constant terms f(0) whose norm (-1)^deg f(0) generates GF(p)*: the
    powers g^e, e prime to p - 1, of the least generator g, signed."""
    factors = _prime_factors(p - 1)
    g = next(c for c in range(1, p) if all(pow(c, (p - 1) // r, p) != 1 for r in factors))
    sign = -1 if deg % 2 else 1
    return {sign * pow(g, e, p) % p for e in range(1, p) if gcd(e, p - 1) == 1}


def _least_primitive_quadratic(p):
    """The least primitive x^2 + c1 x + c0 over GF(p), p odd, in packed-value
    order (c1 first, then c0), as (c0, c1, 1).

    c0, the norm of x, must generate GF(p)*, and the discriminant must be a
    non-square (Euler's criterion), so that f is irreducible.  The order test
    works in GF(p)[x]/(f) on integer pairs (a, b) for a + b x, with
    x^2 = -c1 x - c0.  It needs x^((p^2 - 1)/r) != 1 only for the primes r of
    p + 1 that do not divide p - 1.  There x^p is the other root, the
    conjugate, so with m = (p + 1)/r, x^((p^2 - 1)/r) = conj(x^m)/x^m, which
    is 1 exactly when x^m lies in GF(p): when its coefficient b is 0.  So x^m
    is formed by squaring and multiplying by x, over the bits of m.
    """
    norms = sorted(_primitive_norms(p, 2))
    exponents = [(p + 1) // r for r in sorted(_prime_factors(p + 1) - _prime_factors(p - 1))]
    half = (p - 1) // 2
    for c1 in range(p):
        for c0 in norms:
            if pow(c1 * c1 - 4 * c0, half, p) != p - 1:
                continue
            for m in exponents:
                a, b = 1, 0
                for bit in bin(m)[2:]:
                    bb = b * b
                    a, b = (a * a - bb * c0) % p, (2 * a * b - bb * c1) % p
                    if bit == "1":
                        a, b = -b * c0 % p, (a - b * c1) % p
                if b == 0:
                    break
            else:
                return (c0, c1, 1)
    raise AssertionError("no primitive polynomial found")  # unreachable for prime p


def admissible_towers() -> list[tuple[int, int]]:
    """Every (p, m) with p prime, m >= 1 and p^(2m) <= DEFAULT_FIELD_CAP, in order."""
    cap = DEFAULT_FIELD_CAP
    return [
        (p, m)
        for p in range(2, isqrt(cap) + 1)
        if _is_prime(p)
        for m in range(1, cap.bit_length() // 2 + 1)
        if p ** (2 * m) <= cap
    ]


def modulus(p: int, m: int) -> tuple[int, ...]:
    """The defining modulus of GF(p^{2m}): the Conway polynomial when CONWAY
    has it, else the least primitive polynomial."""
    return CONWAY.get((p, 2 * m)) or _least_primitive_poly(p, 2 * m)


def table_text(moduli: dict) -> str:
    """The table file of {(p, m): modulus}: one [p, m, [coefficients]] row a
    line, in (p, m) order."""
    lines = [f"[{p},{m},[{','.join(map(str, moduli[p, m]))}]]" for p, m in sorted(moduli)]
    return "[\n" + ",\n".join(lines) + "\n]\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Rewrite or check the table of field moduli from the reference search.")
    parser.add_argument("--check", action="store_true", help="re-derive every entry and exit 1 if the table differs")
    args = parser.parse_args(argv)
    moduli = {pm: modulus(*pm) for pm in admissible_towers()}
    text = table_text(moduli)
    if not args.check:
        TABLE.write_text(text)
        print(f"wrote {len(moduli)} moduli to {TABLE}")
        return 0
    current = TABLE.read_text()
    shipped = {(p, m): tuple(f) for p, m, f in json.loads(current)}
    wrong = sorted(pm for pm in moduli.keys() | shipped.keys() if moduli.get(pm) != shipped.get(pm))
    for pm in wrong:
        print(f"{pm}: table {shipped.get(pm)}, search {moduli.get(pm)}")
    if current != text:
        print(f"{TABLE.name} differs from the search: {len(wrong)} entries")
        return 1
    print(f"{TABLE.name}: all {len(moduli)} entries match the search")
    return 0


if __name__ == "__main__":
    sys.exit(main())
