"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^m.

Elements of GF(q^2) are kept in discrete-log form: an element is either zero
or t^e for the tower generator t, with 0 <= e < q^2-1.  Multiplication is
exponent addition; addition goes through a precomputed Zech-logarithm table.
The same tables back the vectorized numpy kernels used by the matrix code
(arrays of int32 exponent codes, with code == q^2-1 standing for zero).

The defining modulus of GF(p^{2m}) is the Conway polynomial when the size is
in the built-in table, so that t-power listings are comparable with standard
computer-algebra output; otherwise the lexicographically least primitive
polynomial is used.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .config import DEFAULT_FIELD_CAP
from .errors import FieldTooLarge, NoConwayEntry, NotInBaseField, NotPrime, ZeroInput

# Conway polynomials C_{p,2m}, coefficients ascending (constant term first,
# leading 1 last).  Table covers every tower the bundled examples touch.
_CONWAY = {
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


# -- small polynomial arithmetic over GF(p), used only for modulus search ----

def _poly_mulmod(a, b, f, p):
    n = len(f) - 1
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    for i in range(len(res) - 1, n - 1, -1):
        c = res[i]
        if c:
            res[i] = 0
            for j in range(n):
                res[i - n + j] = (res[i - n + j] - c * f[j]) % p
    out = res[:n]
    out += [0] * (n - len(out))
    return out


def _poly_powmod(base, e, f, p):
    n = len(f) - 1
    result = [1] + [0] * (n - 1)
    b = _poly_mulmod(base, [1], f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, b, f, p)
        b = _poly_mulmod(b, b, f, p)
        e >>= 1
    return result


def _is_primitive_poly(f, p) -> bool:
    """True when x has full multiplicative order modulo f."""
    if f[0] == 0:
        return False
    n = len(f) - 1
    order = p ** n - 1
    one = [1] + [0] * (n - 1)
    if _poly_powmod([0, 1], order, f, p) != one:
        return False
    return all(_poly_powmod([0, 1], order // r, f, p) != one for r in _prime_factors(order))


def _least_primitive_poly(p, deg):
    """Lexicographically least primitive monic polynomial (packed-value order)."""
    for packed in range(1, p ** deg):
        coeffs = []
        v = packed
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        f = coeffs + [1]
        if _is_primitive_poly(f, p):
            return tuple(f)
    raise AssertionError("no primitive polynomial found")  # unreachable for prime p


class AdditiveMap(Enum):
    """GF(p)-linear maps whose fibers the curve module needs."""

    SQUARE_PLUS_Y = "y^2+y"
    FROB_PLUS_Y = "y^q+y"
    FROB_MINUS_Y = "y^q-y"


class FieldTower:
    """GF(p) < GF(q=p^m) < GF(q^2) with full log / Zech tables.

    Immutable after construction; every operation on elements or exponent
    arrays is pure, so towers are safe to share across threads.
    """

    def __init__(self, p: int, m: int, modulus: tuple[int, ...], conway: bool):
        self.p = p
        self.m = m
        self.q = p ** m
        self.q2 = p ** (2 * m)
        self.n_units = self.q2 - 1  # order of the multiplicative group
        self.zero_code = self.n_units  # exponent code reserved for 0
        self.modulus = modulus
        self.conway = conway
        self._build_tables()

    # -- table construction ---------------------------------------------

    def _build_tables(self):
        p, deg, n = self.p, 2 * self.m, self.n_units
        mod = self.modulus
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
                    digits[i] = (digits[i] - carry * mod[i]) % p
        log_val = np.full(self.q2, self.zero_code, dtype=np.int32)
        log_val[exp_val] = np.arange(n, dtype=np.int32)
        if log_val[0] != self.zero_code or np.count_nonzero(log_val != self.zero_code) != n:
            raise AssertionError("modulus is not primitive; tables inconsistent")
        # Zech table: zech[e] = log(1 + t^e), zero_code marks 1 + t^e = 0
        plus_one = exp_val - (exp_val % p) + (exp_val % p + 1) % p
        zech = log_val[plus_one].astype(np.int32)
        self._exp_val = exp_val
        self._log_val = log_val
        self._zech = zech

    # -- element constructors ---------------------------------------------

    def zero(self) -> "FieldElement":
        return FieldElement(self, self.zero_code)

    def one(self) -> "FieldElement":
        return FieldElement(self, 0)

    def gen(self) -> "FieldElement":
        return FieldElement(self, 1)

    def element(self, exponent: int) -> "FieldElement":
        """t^exponent (reduced mod q^2-1)."""
        return FieldElement(self, exponent % self.n_units)

    def from_value(self, value: int) -> "FieldElement":
        """Element from its packed base-p coordinate value (0 <= value < q^2)."""
        if value == 0:
            return self.zero()
        return FieldElement(self, int(self._log_val[value]))

    def from_int(self, c: int) -> "FieldElement":
        """Prime-subfield element c*1 for 0 <= c < p."""
        return self.from_value(c % self.p)

    def elements(self):
        """All q^2 elements: t^0 .. t^(n-1), then 0."""
        for e in range(self.n_units):
            yield FieldElement(self, e)
        yield self.zero()

    def subfield_elements(self):
        """All q elements of GF(q): t^0, t^(q+1), ..., then 0."""
        for j in range(self.q - 1):
            yield FieldElement(self, j * (self.q + 1))
        yield self.zero()

    # -- text form ---------------------------------------------------------

    def parse(self, token: str) -> "FieldElement":
        token = token.strip()
        if token == "0":
            return self.zero()
        if token == "1":
            return self.one()
        if token == "t":
            return self.gen()
        if token.startswith("t^"):
            try:
                e = int(token[2:])
            except ValueError:
                raise ValueError(f"bad exponent in token {token!r}") from None
            return self.element(e)
        try:
            c = int(token)
        except ValueError:
            raise ValueError(f"unrecognized element token {token!r}") from None
        if not 0 <= c < self.p:
            raise ValueError(f"integer token {token!r} outside prime subfield 0..{self.p - 1}")
        return self.from_int(c)

    def format(self, el: "FieldElement") -> str:
        if el.code == self.zero_code:
            return "0"
        if el.code == 0:
            return "1"
        return f"t^{el.code}"

    # -- scalar helpers (exponent-code arithmetic) --------------------------

    def _add_codes(self, a: int, b: int) -> int:
        n = self.n_units
        if a == n:
            return b
        if b == n:
            return a
        z = int(self._zech[(b - a) % n])
        if z == n:
            return n
        return (a + z) % n

    def _mul_codes(self, a: int, b: int) -> int:
        n = self.n_units
        if a == n or b == n:
            return n
        return (a + b) % n

    def _neg_code(self, a: int) -> int:
        n = self.n_units
        if self.p == 2 or a == n:
            return a
        return (a + n // 2) % n

    # -- vectorized kernels on int32 exponent-code arrays -------------------

    def varray(self, elements) -> np.ndarray:
        return np.asarray([el.code for el in elements], dtype=np.int32)

    def vadd(self, a, b):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        a, b = np.broadcast_arrays(a, b)
        z = self._zech[(b - a) % n]
        both = np.where(z == n, np.int32(n), (a + z) % n)
        return np.where(a == n, b, np.where(b == n, a, both)).astype(np.int32)

    def vmul(self, a, b):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        out = (a + b) % n
        return np.where((a == n) | (b == n), np.int32(n), out).astype(np.int32)

    def vneg(self, a):
        a = np.asarray(a, dtype=np.int32)
        if self.p == 2:
            return a.copy()
        n = self.n_units
        return np.where(a == n, np.int32(n), (a + n // 2) % n).astype(np.int32)

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vinv(self, a):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        return np.where(a == n, np.int32(n), (-a) % n).astype(np.int32)

    def vdiv(self, a, b):
        return self.vmul(a, self.vinv(b))

    def vfrob(self, a):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        return np.where(a == n, np.int32(n), (a.astype(np.int64) * self.q) % n).astype(np.int32)

    def vpow(self, a, j: int):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        if j == 0:
            return np.zeros_like(a)  # x^0 = 1, including 0^0
        return np.where(a == n, np.int32(n), (a.astype(np.int64) * j) % n).astype(np.int32)

    def vsum(self, arr, axis: int = -1):
        """Field sum along an axis (tree reduction over the Zech add)."""
        arr = np.asarray(arr, dtype=np.int32)
        arr = np.moveaxis(arr, axis, -1)
        length = arr.shape[-1]
        if length == 0:
            return np.full(arr.shape[:-1], self.zero_code, dtype=np.int32)
        width = 1 << (length - 1).bit_length()
        if width != length:
            pad = np.full(arr.shape[:-1] + (width - length,), self.zero_code, dtype=np.int32)
            arr = np.concatenate([arr, pad], axis=-1)
        while arr.shape[-1] > 1:
            half = arr.shape[-1] // 2
            arr = self.vadd(arr[..., :half], arr[..., half:])
        return arr[..., 0]

    # -- linear-map solver ---------------------------------------------------

    def _digits(self, value: int) -> list[int]:
        out = []
        for _ in range(2 * self.m):
            out.append(value % self.p)
            value //= self.p
        return out

    def solve_additive(self, amap: AdditiveMap, a: "FieldElement") -> tuple["FieldElement", ...]:
        """All y in GF(q^2) with map(y) = a; empty or a full kernel coset."""
        if amap is AdditiveMap.SQUARE_PLUS_Y and self.p != 2:
            raise ValueError("y^2+y is additive only in characteristic 2")

        def apply(y: FieldElement) -> FieldElement:
            if amap is AdditiveMap.SQUARE_PLUS_Y:
                return y * y + y
            if amap is AdditiveMap.FROB_PLUS_Y:
                return y.frobenius() + y
            return y.frobenius() - y

        p, dim = self.p, 2 * self.m
        cols = []
        for j in range(dim):
            img = apply(self.from_value(p ** j))
            cols.append(self._digits(int(self._exp_val[img.code]) if not img.is_zero() else 0))
        # augmented system M y = b over GF(p)
        rows = [[cols[j][i] for j in range(dim)] for i in range(dim)]
        b = self._digits(int(self._exp_val[a.code]) if not a.is_zero() else 0)
        aug = [row + [b[i]] for i, row in enumerate(rows)]
        pivots = []
        r = 0
        for c in range(dim):
            sel = next((i for i in range(r, dim) if aug[i][c] % p), None)
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            inv = pow(aug[r][c], -1, p)
            aug[r] = [(x * inv) % p for x in aug[r]]
            for i in range(dim):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
            pivots.append(c)
            r += 1
        if any(aug[i][dim] for i in range(r, dim)):
            return ()
        particular = [0] * dim
        for i, c in enumerate(pivots):
            particular[c] = aug[i][dim]
        free = [c for c in range(dim) if c not in pivots]
        kernel = []
        for c in free:
            vec = [0] * dim
            vec[c] = 1
            for i, pc in enumerate(pivots):
                vec[pc] = (-aug[i][c]) % p
            kernel.append(vec)
        sols = []
        counters = [0] * len(free)
        while True:
            digs = particular[:]
            for kvec, cnt in zip(kernel, counters):
                if cnt:
                    digs = [(d + cnt * kv) % p for d, kv in zip(digs, kvec)]
            value = sum(d * p ** i for i, d in enumerate(digs))
            sols.append(self.from_value(value))
            # odometer over GF(p)^nullity
            for idx in range(len(counters)):
                counters[idx] += 1
                if counters[idx] < p:
                    break
                counters[idx] = 0
            else:
                break
            if not counters or all(c == 0 for c in counters):
                break
        return tuple(sorted(set(sols), key=lambda el: el.code))

    # -- misc ----------------------------------------------------------------

    def key(self) -> tuple:
        return (self.p, self.m, self.modulus)

    def __repr__(self):
        tag = "conway" if self.conway else "least-primitive"
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q}, q2={self.q2}, {tag})"


class FieldElement:
    """Zero or t^e in a fixed tower.  Exponents are always reduced mod q^2-1."""

    __slots__ = ("tower", "code")

    def __init__(self, tower: FieldTower, code: int):
        self.tower = tower
        self.code = code

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.code == self.tower.zero_code

    def is_one(self) -> bool:
        return self.code == 0

    def in_base_field(self) -> bool:
        """Membership in GF(q): zero, or (q+1) | log."""
        return self.is_zero() or self.code % (self.tower.q + 1) == 0

    def in_prime_field(self) -> bool:
        return self.is_zero() or int(self.tower._exp_val[self.code]) < self.tower.p

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.tower, self.tower._add_codes(self.code, other.code))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.tower, self.tower._neg_code(self.code))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        return self + (-other)

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.tower, self.tower._mul_codes(self.code, other.code))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero field element")
        if self.is_zero():
            return self
        return FieldElement(self.tower, (self.code - other.code) % self.tower.n_units)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return FieldElement(self.tower, (-self.code) % self.tower.n_units)

    def __pow__(self, j: int) -> "FieldElement":
        if j == 0:
            return self.tower.one()  # 0^0 = 1: empty-product convention
        if self.is_zero():
            return self
        if j < 0:
            return self.inverse() ** (-j)
        return FieldElement(self.tower, (self.code * j) % self.tower.n_units)

    def frobenius(self) -> "FieldElement":
        """x -> x^q."""
        if self.is_zero():
            return self
        return FieldElement(self.tower, (self.code * self.tower.q) % self.tower.n_units)

    def conj(self) -> "FieldElement":
        return self.frobenius()

    def relative_norm(self) -> "FieldElement":
        """x^(q+1), landing in GF(q)."""
        return self ** (self.tower.q + 1)

    def relative_trace(self) -> "FieldElement":
        """x + x^q, landing in GF(q)."""
        return self + self.frobenius()

    # -- plumbing --------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and self.code == other.code
            and self.tower.key() == other.tower.key()
        )

    def __hash__(self):
        return hash((self.code, self.tower.key()))

    def __repr__(self):
        return self.tower.format(self)


def build_tower(
    p: int,
    m: int,
    field_cap: int = DEFAULT_FIELD_CAP,
    strict_conway: bool = False,
) -> FieldTower:
    """Construct the tower GF(p) < GF(p^m) < GF(p^{2m}) with full tables."""
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise ValueError("extension degree m must be positive")
    if p ** (2 * m) > field_cap:
        raise FieldTooLarge(f"p^(2m) = {p ** (2 * m)} exceeds cap {field_cap}")
    entry = _CONWAY.get((p, 2 * m))
    if entry is not None:
        return FieldTower(p, m, entry, conway=True)
    if strict_conway:
        raise NoConwayEntry(f"no Conway table entry for GF({p}^{2 * m})")
    return FieldTower(p, m, _least_primitive_poly(p, 2 * m), conway=False)


def norm_preimage(c: FieldElement) -> FieldElement:
    """Deterministic v with v^(q+1) = c, for c in GF(q)*.

    Chooses v = t^(log(c)/(q+1)), the unique preimage whose log is the
    exact quotient of the (q+1)-divisible representative.
    """
    if c.is_zero():
        raise ZeroInput("norm preimage of zero requested")
    tower = c.tower
    if c.code % (tower.q + 1) != 0:
        raise NotInBaseField(f"{tower.format(c)} is not in GF({tower.q})")
    return FieldElement(tower, c.code // (tower.q + 1))
