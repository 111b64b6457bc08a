"""Scalar field elements, the tests' oracle for the exponent-code kernels.

agq computes on exponent codes only: an int or an int32 array entry, with
q^2-1 standing for zero.  Scalar wraps one code in a tower with operators,
so that a test can write a field identity as it reads and set it against the
vector kernels.  Its addition reads a Zech table of its own, one element at a
time, built from the powers of t that loop_exp_values lists exponent by
exponent from the modulus; no table of the tower is read.
"""

from __future__ import annotations

import functools

import numpy as np


class Scalar:
    """Zero or t^e in a fixed tower, held as its exponent code."""

    __slots__ = ("tower", "code")

    def __init__(self, tower, code):
        self.tower = tower
        self.code = int(code)

    def is_zero(self) -> bool:
        return self.code == self.tower.zero_code

    def is_one(self) -> bool:
        return self.code == 0

    def in_base_field(self) -> bool:
        """Membership in GF(q): zero, or (q+1) | log."""
        return self.is_zero() or self.code % (self.tower.q + 1) == 0

    def __add__(self, other: Scalar) -> Scalar:
        n, a, b = self.tower.n_units, self.code, other.code
        if a == n:
            return other
        if b == n:
            return self
        z = int(loop_zech(self.tower)[(b - a) % n])  # log(1 + t^(b-a))
        return Scalar(self.tower, n if z == n else (a + z) % n)

    def __neg__(self) -> Scalar:
        n = self.tower.n_units
        if self.tower.p == 2 or self.code == n:
            return self
        return Scalar(self.tower, (self.code + n // 2) % n)

    def __sub__(self, other: Scalar) -> Scalar:
        return self + -other

    def __mul__(self, other: Scalar) -> Scalar:
        n = self.tower.n_units
        if self.code == n or other.code == n:
            return zero(self.tower)
        return Scalar(self.tower, (self.code + other.code) % n)

    def __truediv__(self, other: Scalar) -> Scalar:
        if other.is_zero():
            raise ZeroDivisionError("division by the zero field element")
        if self.is_zero():
            return self
        return Scalar(self.tower, (self.code - other.code) % self.tower.n_units)

    def __pow__(self, j: int) -> Scalar:
        if j == 0:
            return one(self.tower)  # 0^0 = 1: empty-product convention
        if self.is_zero():
            return self
        return Scalar(self.tower, self.code * j % self.tower.n_units)

    def frobenius(self) -> Scalar:
        """x -> x^q."""
        return self ** self.tower.q

    def relative_norm(self) -> Scalar:
        """x^(q+1), landing in GF(q)."""
        return self ** (self.tower.q + 1)

    def relative_trace(self) -> Scalar:
        """x + x^q, landing in GF(q)."""
        return self + self.frobenius()

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self.code == other.code and self.tower.key() == other.tower.key()

    def __hash__(self):
        return hash((self.code, self.tower.key()))

    def __repr__(self):
        return self.tower.format(self.code)


def zero(tower) -> Scalar:
    return Scalar(tower, tower.zero_code)


def one(tower) -> Scalar:
    return Scalar(tower, 0)


def gen(tower) -> Scalar:
    return Scalar(tower, 1)


def from_value(tower, value: int) -> Scalar:
    """The element with packed base-p coordinate value 0 <= value < q^2."""
    return Scalar(tower, loop_log_values(tower)[value])


def from_int(tower, c: int) -> Scalar:
    """The prime-subfield element c*1, as a sum of c ones."""
    acc = zero(tower)
    for _ in range(c % tower.p):
        acc = acc + one(tower)
    return acc


def field_elements(tower):
    """All q^2 elements: t^0 .. t^(q^2-2), then 0."""
    return [Scalar(tower, e) for e in range(tower.q2)]


def subfield_elements(tower):
    """All q elements of GF(q): t^0, t^(q+1), ..., then 0."""
    return [Scalar(tower, j * (tower.q + 1)) for j in range(tower.q)]


def loop_exp_values(tower):
    """Reference oracle: the packed values of t^0 .. t^(n-1), exponent by
    exponent, as the exp table was first built; computed once per field."""
    return _loop_tables(tower.p, tower.m, tower.modulus)[0]


def loop_log_values(tower):
    """The inverse of loop_exp_values: the exponent of each packed value,
    q^2-1 at the value 0."""
    return _loop_tables(tower.p, tower.m, tower.modulus)[1]


def loop_zech(tower):
    """zech[e] = log(1 + t^e) for e < q^2-1, from the loop oracle alone."""
    return _loop_tables(tower.p, tower.m, tower.modulus)[2]


def plus_one(p, values):
    """The packed values of x + 1 for packed values x in characteristic p:
    the lowest base-p digit raised by one, mod p."""
    return values - values % p + (values % p + 1) % p


@functools.cache
def _loop_tables(p, m, modulus):
    deg, n = 2 * m, p ** (2 * m) - 1
    exp_val = np.zeros(n, dtype=np.int64)
    digits = [0] * deg
    digits[0] = 1
    weights = [p ** i for i in range(deg)]
    for e in range(n):
        exp_val[e] = sum(d * w for d, w in zip(digits, weights))
        carry = digits[deg - 1]
        digits = [0] + digits[: deg - 1]
        if carry:
            for i in range(deg):
                digits[i] = (digits[i] - carry * modulus[i]) % p
    log_val = np.full(n + 1, n, dtype=np.int32)
    log_val[exp_val] = np.arange(n, dtype=np.int32)
    tables = exp_val, log_val, log_val[plus_one(p, exp_val)]
    for table in tables:
        table.flags.writeable = False
    return tables
