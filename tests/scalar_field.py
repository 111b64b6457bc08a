"""Scalar field elements, the tests' oracle for the exponent-code kernels.

agq computes on exponent codes only: an int or an int32 array entry, with
q^2-1 standing for zero.  Scalar wraps one code in a tower with operators,
so that a test can write a field identity as it reads and set it against the
vector kernels.  Its addition reads a Zech table of its own, one element at a
time, built from the powers of t that loop_exp_values lists exponent by
exponent from the modulus; no table of the tower is read.

loop_exp_values packs each power in the polynomial basis t^0 .. t^(2m-1).
The tower packs it in tower coordinates instead, and tower_values turns the
one packing into the other with no code of the tower's own.
"""

from __future__ import annotations

import functools

import numpy as np


def _field(tower) -> tuple:
    """What names a tower's field and its codes: p, m and the modulus."""
    return (tower.p, tower.m, tower.modulus)


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
        return isinstance(other, Scalar) and self.code == other.code and _field(self.tower) == _field(other.tower)

    def __hash__(self):
        return hash((self.code, _field(self.tower)))

    def __repr__(self):
        return self.tower.format(self.code)


def zero(tower) -> Scalar:
    return Scalar(tower, tower.zero_code)


def one(tower) -> Scalar:
    return Scalar(tower, 0)


def gen(tower) -> Scalar:
    return Scalar(tower, 1)


def from_value(tower, value: int) -> Scalar:
    """The element with packed value 0 <= value < q^2 in the polynomial basis."""
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


def tower_values(tower, exp_val):
    """Reference oracle of the tower packing.  exp_val holds the packed values
    of t^0 .. t^(n-1) in the polynomial basis (loop_exp_values, or another
    oracle's for fields too large for it); returned is pack(a) + q pack(b) for
    each power x = t^e = a + b t, where a and b lie in GF(q) and pack gives
    their base-p digits in the basis N^0 .. N^(m-1), N = t^(q+1).

    With the Zech logs of exp_val, b = (x - x^q) / (t - t^q) and a = x - b t,
    on exponent codes.  The digits of each element of GF(q) are found by brute
    force: the codes of all p^m sums c_0 N^0 + .. + c_(m-1) N^(m-1), digit by
    digit, must be the q elements of GF(q), each once."""
    p, m, q = tower.p, tower.m, tower.q
    n = p ** (2 * m) - 1
    exp_val = np.asarray(exp_val, dtype=np.int64)
    log_val = np.full(n + 1, n, dtype=np.int64)
    log_val[exp_val] = np.arange(n)
    zech = log_val[plus_one(p, exp_val)]

    def add(a, b):
        a, b = np.broadcast_arrays(a, b)
        z = zech[(b - a) % n]
        total = np.where(z == n, n, (a + z) % n)
        return np.where(a == n, b, np.where(b == n, a, total))

    def neg(a):
        return a if p == 2 else np.where(a == n, n, (a + n // 2) % n)

    def mul(a, b):
        return np.where((a == n) | (b == n), n, (a + b) % n)

    x = np.arange(n)
    moved = add(x, neg(x * q % n))  # x - x^q
    b = np.where(moved == n, n, (moved - add(1, neg(q))) % n)
    a = add(x, neg(mul(b, 1)))
    span = np.array([n])  # the code of sum c_i N^i, at the packed value sum c_i p^i
    for i in range(m):
        span = add(span[None, :], mul(log_val[np.arange(p)], i * (q + 1))[:, None]).ravel()
    digits = np.full(n + 1, -1, dtype=np.int64)
    digits[span] = np.arange(q)
    assert np.count_nonzero(digits >= 0) == q, "N^0 .. N^(m-1) is not a basis of GF(q)"
    return digits[a] + q * digits[b]
