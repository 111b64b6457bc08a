"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^m.

Elements of GF(q^2) are kept in discrete-log form: an element is either zero
or t^e for the tower generator t, with 0 <= e < q^2-1.  The vectorized numpy
kernels used by the matrix code work on arrays of int32 exponent codes, with
code == q^2-1 standing for zero.  For q^2 <= 2^9 (every field of `agq
reproduce`) addition and multiplication are single gathers from full
q^2 x q^2 Cayley tables of codes; above that bound, where such a table would
not fit, addition goes through a Zech-logarithm table and multiplication is
exponent addition.  The fibers of the additive maps the curve module needs are read
from a per-map table that sorts all q^2 images once.

The defining modulus of GF(p^{2m}) is the Conway polynomial when the size is
in the built-in table, so that t-power listings are comparable with standard
computer-algebra output; otherwise the lexicographically least primitive
polynomial is used.
"""

from __future__ import annotations

import functools
from enum import Enum

import numpy as np

from .config import DEFAULT_FIELD_CAP
from .errors import BadRequest, FieldTooLarge, NoConwayEntry, NotInBaseField, NotPrime, ZeroInput

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

# largest q^2 with full Cayley tables: two int32 tables of q^4 entries, 1 MB each
_CAYLEY_MAX_Q2 = 2 ** 9

# distinct fields build_tower keeps built (reproduce touches 9)
_SHARED_TOWERS = 16


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
    """GF(p) < GF(q=p^m) < GF(q^2) with full log / Zech tables, plus Cayley
    tables when q^2 <= 2^9.

    Immutable after construction apart from the fiber tables of
    ``solve_additive``, which are filled on first use (a race only computes
    one twice); the table arrays are read-only and every operation on
    elements or exponent arrays is pure, so ``build_tower`` hands one tower
    to every caller and towers are safe to share across threads.  Scalar
    code paths read the Zech table through a zero-copy memoryview, which
    cannot be pickled, so towers are shared rather than copied.
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
        self._fibers = {}
        self._build_tables()

    # -- table construction ---------------------------------------------

    def _build_tables(self):
        p, deg, n, q2 = self.p, 2 * self.m, self.n_units, self.q2
        # digits(t * x) = digits(x) @ step: the transposed companion matrix
        step = np.zeros((deg, deg), dtype=np.int64)
        step[np.arange(deg - 1), np.arange(1, deg)] = 1
        step[deg - 1] = [(-c) % p for c in self.modulus[:deg]]
        weights = p ** np.arange(deg, dtype=np.int64)
        # digit rows of t^0 .. t^(width-1) by doubling, while step becomes
        # (C^width)^T; every product is reduced mod p, so no entry exceeds deg * p^2
        width = 1 << (n.bit_length() // 2)
        block = np.eye(1, deg, dtype=np.int64)
        while len(block) < width:
            block = np.concatenate([block, block @ step % p])
            step = step @ step % p
        exp_val = np.empty(n, dtype=np.int64)
        for start in range(0, n, width):
            stop = min(start + width, n)
            exp_val[start:stop] = block[: stop - start] @ weights
            block = block @ step % p
        log_val = np.full(q2, self.zero_code, dtype=np.int32)
        log_val[exp_val] = np.arange(n, dtype=np.int32)
        if log_val[0] != self.zero_code or np.count_nonzero(log_val != self.zero_code) != n:
            raise AssertionError("modulus is not primitive; tables inconsistent")
        # Zech table: zech[e] = log(1 + t^e), zero_code marks 1 + t^e = 0
        # in place: at q^2 = 2^22 each int64 temporary is 32 MB
        low = exp_val % p
        plus_one = exp_val - low
        low += 1
        low %= p
        plus_one += low
        zech = log_val[plus_one]
        self._exp_val = exp_val
        self._log_val = log_val
        self._zech = zech
        self._add_table = self._mul_table = None
        if q2 <= _CAYLEY_MAX_Q2:
            a, b = np.divmod(np.arange(q2 * q2, dtype=np.int32), np.int32(q2))
            self._add_table = self._zech_add(a, b)
            self._mul_table = self._log_mul(a, b)
        for table in (exp_val, log_val, zech, self._add_table, self._mul_table):
            if table is not None:
                table.flags.writeable = False
        self._zech_view = memoryview(zech)  # one Python int per index, no numpy scalar

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
        z = self._zech_view[(b - a) % n]
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
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self._add_table is None:
            return self._zech_add(a, b)
        return self._add_table[a * self.q2 + b]

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self._mul_table is None:
            return self._log_mul(a, b)
        return self._mul_table[a * self.q2 + b]

    def _zech_add(self, a, b):
        n = self.n_units
        a, b = np.broadcast_arrays(a, b)
        z = self._zech[(b - a) % n]
        both = np.where(z == n, np.int32(n), (a + z) % n)
        return np.where(a == n, b, np.where(b == n, a, both)).astype(np.int32)

    def _log_mul(self, a, b):
        n = self.n_units
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
        """Field sum along an axis (tree reduction over vadd)."""
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

    # -- additive-map fibers ----------------------------------------------------

    def solve_additive(self, amap: AdditiveMap, a: "FieldElement") -> tuple["FieldElement", ...]:
        """All y in GF(q^2) with map(y) = a, by code; empty or a full kernel coset.

        The first call for a map evaluates it on all q^2 codes and sorts the
        images stably, so every fiber is one slice, already ordered by code.
        """
        table = self._fibers.get(amap)
        if table is None:
            y = np.arange(self.q2, dtype=np.int32)
            if amap is AdditiveMap.SQUARE_PLUS_Y:
                if self.p != 2:
                    raise ValueError("y^2+y is additive only in characteristic 2")
                images = self.vadd(self.vmul(y, y), y)
            elif amap is AdditiveMap.FROB_PLUS_Y:
                images = self.vadd(self.vfrob(y), y)
            else:
                images = self.vsub(self.vfrob(y), y)
            order = np.argsort(images, kind="stable")
            bounds = np.searchsorted(images[order], np.arange(self.q2 + 1))
            table = self._fibers[amap] = (order, bounds)
        order, bounds = table
        codes = order[bounds[a.code] : bounds[a.code + 1]].tolist()
        return tuple(FieldElement(self, c) for c in codes)

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

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.tower, self.tower._add_codes(self.code, other.code))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.tower, self.tower._neg_code(self.code))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        tower = self.tower
        return FieldElement(tower, tower._add_codes(self.code, tower._neg_code(other.code)))

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
    """The tower GF(p) < GF(p^m) < GF(p^{2m}) with full tables.

    The arguments are checked on every call; the tower itself is shared: one
    process builds each field at most once while it stays among the
    _SHARED_TOWERS most recently used, and every caller gets the same
    immutable FieldTower.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if m < 1:
        raise BadRequest(f"extension degree m must be positive, got {m}")
    if p ** (2 * m) > field_cap:
        raise FieldTooLarge(f"p^(2m) = {p ** (2 * m)} exceeds cap {field_cap}")
    if strict_conway and (p, 2 * m) not in _CONWAY:
        raise NoConwayEntry(f"no Conway table entry for GF({p}^{2 * m})")
    return _shared_tower(p, m)


@functools.lru_cache(maxsize=_SHARED_TOWERS)
def _shared_tower(p: int, m: int) -> FieldTower:
    entry = _CONWAY.get((p, 2 * m))
    if entry is not None:
        return FieldTower(p, m, entry, conway=True)
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
