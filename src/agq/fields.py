"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^m.

An element of GF(q^2) is its exponent code, at every interface: e for t^e,
t the tower generator and 0 <= e < q^2-1, and q^2-1 for zero.  An element
lies in GF(q) exactly when its code is a multiple of q+1, zero included, as
q^2-1 = (q-1)(q+1).  Scalars are Python ints, and the vectorized numpy
kernels work on int32 arrays of codes; FieldTower.parse and FieldTower.format
are the only text forms.  For q^2 <= 2^9 (every field of `agq
reproduce`) addition and multiplication are each one take from a full
q^2 x q^2 Cayley table of codes, at the int32 index a*q^2 + b of the
broadcast operands; above that bound, where such a table would not fit,
addition goes through a Zech-logarithm table and multiplication is exponent
addition.  Long sums (vsum, Gram entries) use the additive form
instead: each element's 2m base-p digits packed into one int64, a bit field
of floor(63/2m) bits per digit, so that many elements add as plain integers
before any digit needs reducing mod p.  The fibers of the additive maps the
curve module needs are read from a per-map table that sorts all q^2 images
once: the fibers over a whole array of right-hand sides are one gather.

The defining modulus of GF(p^{2m}) is the Conway polynomial when the size is
in the built-in table, so that t-power listings are comparable with standard
computer-algebra output; otherwise the lexicographically least primitive
polynomial is used.  The search for it tests the norm of a root, then
irreducibility (Euler's criterion on the discriminant at degree 2 with p odd,
Ben-Or's test otherwise), then the order of x, from powers that share their
squarings.  The tables are built at run time from the modulus: the powers of t
by doubling, each doubling step a few gathers per power from q-entry tables,
and the log, Zech and additive tables from those powers.
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

# powers of t one gather of the exp-table doubling writes (two int64 temporaries of 2x this)
_TABLE_BLOCK = 1 << 16

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
                res[i + j] += ai * bj
    for i in range(len(res) - 1, n - 1, -1):  # f is monic; reduce mod p once, at the end
        c = res[i] % p
        if c:
            for j in range(n):
                res[i - n + j] -= c * f[j]
    out = [c % p for c in res[:n]]
    return out + [0] * (n - len(out))


def _poly_rem(a, b, p):
    """a mod b over GF(p), trailing zeros dropped; b ends in a nonzero
    coefficient, and a's coefficients may be any integers."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            for j in range(db):
                a[i - db + j] -= c * b[j]
    a = [c % p for c in a[:db]]
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_square(a, f, p):
    """a^2 mod f.  For p = 2 the square of sum a_i x^i is sum a_i x^(2i), as
    cross terms come in pairs, so it is a coefficient spread reduced mod f."""
    if p != 2:
        return _poly_mulmod(a, a, f, p)
    spread = [0] * (2 * len(a) - 1)
    spread[::2] = a
    out = _poly_rem(spread, f, p)
    return out + [0] * (len(f) - 1 - len(out))


def _has_small_factor(f, p) -> bool:
    """Ben-Or's test: does monic f of degree d >= 2 with f(0) != 0 have a
    factor of degree <= d/2?

    Every irreducible factor of degree j divides x^(p^j) - x, so f is
    irreducible exactly when gcd(f, x^(p^j) - x) = 1 for j = 1 .. d/2.  The
    test stops at the first j with a nontrivial gcd.  Each x^(p^j) is the p-th
    power of the one before, and h^p = sum h_i x^(ip), as h_i^p = h_i in GF(p).
    """
    h = [0, 1]
    for _ in range((len(f) - 1) // 2):
        power = [0] * (p * len(h) - p + 1)
        power[::p] = h
        h = _poly_rem(power, f, p)  # x^(p^j) mod f
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] -= 1
        a, b = f, _poly_rem(h_minus_x, f, p)
        while b:
            a, b = b, _poly_rem(a, b, p)
        if len(a) > 1:
            return True
    return False


def _least_primitive_poly(p, deg):
    """Lexicographically least primitive monic polynomial (packed-value order).

    Three tests in turn, cheapest first.  (-1)^deg f(0), the norm of a root,
    must generate GF(p)*.  f must be irreducible: at degree 2 with p odd,
    exactly when its discriminant is a non-square (Euler's criterion), and
    otherwise when Ben-Or's test (_has_small_factor) finds no small factor.
    Modulo an irreducible f with f(0) != 0, x^(p^deg - 1) = 1 (Lidl and
    Niederreiter, Finite Fields, Thm 3.3), so x is primitive exactly when
    x^((p^deg - 1)/r) != 1 for every prime r of p^deg - 1.  For r dividing
    p - 1 that power is the norm to the power (p - 1)/r, which the first test
    has checked, so only the other primes are tried, smallest first.
    """
    factors = _prime_factors(p - 1)
    order = p ** deg - 1
    cofactors = [order // r for r in sorted(_prime_factors(order) - factors)]
    one = [1] + [0] * (deg - 1)
    sign = -1 if deg % 2 else 1
    for packed in range(1, p ** deg):
        coeffs = []
        v = packed
        for _ in range(deg):
            coeffs.append(v % p)
            v //= p
        norm = sign * coeffs[0] % p
        if norm == 0 or any(pow(norm, (p - 1) // r, p) == 1 for r in factors):
            continue
        f = coeffs + [1]
        if deg == 2 and p > 2:
            if pow(coeffs[1] ** 2 - 4 * coeffs[0], (p - 1) // 2, p) != p - 1:
                continue
        elif _has_small_factor(f, p):
            continue
        # x^(2^i) mod f, squared as far as the next exponent needs
        squares = [[0, 1] + [0] * (deg - 2)]
        for e in cofactors:
            while len(squares) < e.bit_length():
                squares.append(_poly_square(squares[-1], f, p))
            power = None
            for i, square in enumerate(squares):
                if e >> i & 1:
                    power = square if power is None else _poly_mulmod(power, square, f, p)
            if power == one:
                break
        else:
            return tuple(f)
    raise AssertionError("no primitive polynomial found")  # unreachable for prime p


class AdditiveMap(Enum):
    """GF(p)-linear maps whose fibers the curve module needs."""

    SQUARE_PLUS_Y = "y^2+y"
    FROB_PLUS_Y = "y^q+y"
    FROB_MINUS_Y = "y^q-y"


class FieldTower:
    """GF(p) < GF(q=p^m) < GF(q^2) with full log / Zech tables and the
    additive table, plus Cayley tables when q^2 <= 2^9.

    ``_build_tables`` writes each power of t as its low and high m digits,
    two numbers below q.  Given t^0 .. t^(k-1), the powers t^k .. t^(2k-1)
    are their products with t^k; multiplication by t^k is GF(p)-linear, so
    each half of a product is the digit-wise sum of the images of the two
    halves, read from q-entry tables.  The sum is one gather: the images are
    written in base 2p-1, where two of them add with no carry, and a table of
    (2p-1)^m entries maps such a sum to its digits mod p.  That is O(q^2)
    gathered entries in all, with no matrix product larger than q x m.

    The additive table ``_words`` holds t^e in additive form for every
    log-sum e <= 2(q^2-1)-2 (e mod q^2-1), then the zero word; up to
    ``_word_terms`` = floor((2^b-1)/(p-1)) words of b-bit fields add carry-free.

    Immutable after construction apart from the fiber tables of
    ``solve_additive``, which are filled on first use (a race only computes
    one twice); the table arrays are read-only and every operation on
    exponent codes is pure, so ``build_tower`` hands one tower to every
    caller and towers are safe to share across threads.
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
        p, m, q, deg, n, q2 = self.p, self.m, self.q, 2 * self.m, self.n_units, self.q2
        # digits(t * x) = digits(x) @ step: the transposed companion matrix
        # (float64, so that matrix products take BLAS: every entry stays below deg * p^2)
        step = np.eye(deg, k=1)
        step[deg - 1] = [(-c) % p for c in self.modulus[:deg]]
        weights = p ** np.arange(deg, dtype=np.int64)
        half_digits = np.arange(q)[:, None] // weights[:m] % p  # the digits of each m-digit half
        # digit_sum: a sum of two halves written in base 2p-1 to its digits mod p
        spread = (2 * p - 1) ** np.arange(m)
        digit_sum = np.arange((2 * p - 1) ** m)[:, None] // spread % (2 * p - 1) % p @ weights[:m]
        # the low and high halves of t^e, int64 (numpy's index type) so that no
        # gather copies its index; t^e for e < deg is the single digit p^e, and
        # step becomes (C^deg)^T, whose rows are the digits of t^deg .. t^(2 deg - 1)
        halves = np.empty((2, n), dtype=np.int64)
        lo, hi = halves
        lo[:deg] = hi[:deg] = 0
        lo[:m] = hi[m:deg] = weights[:m]
        rows = [step[-1]]
        while len(rows) < deg:
            rows.append(rows[-1] @ step % p)
        step = np.array(rows)
        # doubling: while step is (C^k)^T, its rows :m map a low half to the digits
        # of its product with t^k, and rows m: a high half
        k = deg
        while k < n:
            c = min(k, n - k)
            images = (half_digits @ step.reshape(2, m, deg)).astype(np.int64)
            images %= p
            # images[s, h]: half h of the product of t^k with each value of half s
            images = (images.reshape(2, q, 2, m) @ spread).transpose(0, 2, 1)
            for start in range(0, c, _TABLE_BLOCK):  # blocks bound the int64 temporaries
                stop = min(start + _TABLE_BLOCK, c)
                index = images[0].take(lo[start:stop], axis=1)
                index += images[1].take(hi[start:stop], axis=1)
                digit_sum.take(index, out=halves[:, k + start : k + stop], mode="clip")  # in range: no buffer
            step = step @ step % p
            k += c
        del index
        # additive form: the digits in bit fields of floor(63/deg) bits; a word is
        # the words of its low and high halves, from one q-entry table
        bits = 63 // deg
        self._word_shifts = bits * np.arange(deg, dtype=np.int64)
        self._word_mask = (1 << bits) - 1
        self._word_terms = self._word_mask // (p - 1)  # words one int64 sum may add
        self._digit_weights = weights
        self._word_weights = np.left_shift(1, self._word_shifts)
        half = half_digits @ self._word_weights[:m]
        words = np.empty(2 * n, dtype=np.int64)
        (half << bits * m).take(hi, out=words[:n], mode="clip")
        words[:n] += half.take(lo)
        exp_val = hi * q
        exp_val += lo
        # adding 1 to t^e adds 1 to its packed value, or 1 - p where the lowest
        # digit is p - 1
        np.remainder(lo, p, out=lo)
        carry = lo == p - 1
        del halves, lo, hi
        log_val = np.full(q2, self.zero_code, dtype=np.int32)
        log_val[exp_val] = np.arange(n, dtype=np.int32)
        if log_val[0] != self.zero_code or np.count_nonzero(log_val != self.zero_code) != n:
            raise AssertionError("modulus is not primitive; tables inconsistent")
        # Zech table: zech[e] = log(1 + t^e), zero_code marks 1 + t^e = 0
        plus_one = exp_val + 1
        np.subtract(plus_one, p, out=plus_one, where=carry)
        zech = log_val.take(plus_one)
        del carry, plus_one
        # the second copy of the words, touched only now that the halves are gone
        words[n : 2 * n - 1] = words[: n - 1]
        words[2 * n - 1] = 0
        self._exp_val = exp_val
        self._log_val = log_val
        self._zech = zech
        self._words = words
        self._add_table = self._mul_table = None
        if q2 <= _CAYLEY_MAX_Q2:
            a, b = np.divmod(np.arange(q2 * q2, dtype=np.int32), np.int32(q2))
            self._add_table = self._zech_add(a, b)
            self._mul_table = self._log_mul(a, b)
        for table in (exp_val, log_val, zech, words, self._add_table, self._mul_table):
            if table is not None:
                table.flags.writeable = False

    # -- text form ---------------------------------------------------------

    def parse(self, token: str) -> int:
        """The exponent code of a token: t, t^e (e taken mod q^2-1), or an
        integer 0..p-1 of the prime subfield, 0 and 1 included.  Any other
        token raises BadRequest."""
        token = token.strip()
        if token == "t":
            return 1
        if token.startswith("t^"):
            try:
                return int(token[2:]) % self.n_units
            except ValueError:
                raise BadRequest(f"bad exponent in token {token!r}") from None
        try:
            c = int(token)
        except ValueError:
            raise BadRequest(f"unrecognized element token {token!r}") from None
        if not 0 <= c < self.p:
            raise BadRequest(f"integer token {token!r} outside prime subfield 0..{self.p - 1}")
        return int(self._log_val[c])

    def format(self, code: int) -> str:
        """The token of an exponent code: 0, 1 or t^e."""
        if code == self.zero_code:
            return "0"
        if code == 0:
            return "1"
        return f"t^{code}"

    # -- vectorized kernels on int32 exponent-code arrays -------------------

    def vadd(self, a, b):
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self._add_table is None:
            return self._zech_add(a, b)
        return self._add_table.take(a * np.int32(self.q2) + b)

    def vmul(self, a, b):
        a = np.asarray(a, dtype=np.int32)
        b = np.asarray(b, dtype=np.int32)
        if self._mul_table is None:
            return self._log_mul(a, b)
        return self._mul_table.take(a * np.int32(self.q2) + b)

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
        """Field sum along an axis: the additive-table words of the codes,
        summed as integers by _sum_words.  Zero codes read the zero word."""
        arr = np.moveaxis(np.asarray(arr, dtype=np.int32), axis, -1)
        return self._sum_words(self._words.take(self._word_slots(arr)))

    def _word_slots(self, codes) -> np.ndarray:
        """int64 indices into the additive table: a nonzero code is its own
        slot and zero is the last slot, 2(q^2-1)-1."""
        codes = np.asarray(codes, dtype=np.int64)
        return np.where(codes == self.zero_code, 2 * self.n_units - 1, codes)

    def _sum_products(self, a, b) -> np.ndarray:
        """Codes of sum_l x_l * y_l along the last axis, for slot arrays a and
        b of x and y (broadcast).  The slot sum of two nonzero codes is the
        log of their product, at most 2(q^2-1)-2; with a zero factor it is at
        least the zero slot, and clipping to the table reads the zero word."""
        return self._sum_words(self._words.take(a + b, mode="clip"))

    def _sum_words(self, words) -> np.ndarray:
        """Codes of the field sums of additive-form words along the last axis.

        Up to _word_terms words add as plain integers with no carry between
        bit fields; longer sums take the digits mod p after each run of that
        many, and the total's digits mod p are read back through the log table.
        """
        terms = self._word_terms
        while words.shape[-1] > terms:
            words = np.add.reduceat(words, np.arange(0, words.shape[-1], terms), axis=-1)
            if self.p == 2:
                words &= self._word_weights.sum()  # a digit mod 2 is its low bit
            else:
                words = self._word_digits(words) @ self._word_weights
        return self._log_val[self._word_digits(words.sum(axis=-1)) @ self._digit_weights]

    def _word_digits(self, words):
        return ((words[..., None] >> self._word_shifts) & self._word_mask) % self.p

    # -- additive-map fibers ----------------------------------------------------

    def solve_additive(self, amap: AdditiveMap, rhs) -> tuple[np.ndarray, np.ndarray]:
        """Every fiber {y : map(y) = rhs[i]}, as (owner, y): y holds the codes of
        all solutions, fiber after fiber, and owner[j] is the i whose fiber
        y[j] lies in.  A fiber is empty or a full kernel coset.

        The first call for a map evaluates it on all q^2 codes and sorts the
        images stably, so every fiber is one slice, already ordered by code,
        and all of them are read with one gather.
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
        rhs = np.asarray(rhs, dtype=np.int64)
        starts = bounds[rhs]
        counts = bounds[rhs + 1] - starts
        owner = np.repeat(np.arange(len(rhs)), counts)
        ends = np.cumsum(counts)
        # solution j of fiber i is entry j - (ends[i] - counts[i]) of fiber i's slice
        return owner, order[np.arange(len(owner)) + (starts - ends + counts)[owner]]

    # -- misc ----------------------------------------------------------------

    def key(self) -> tuple:
        return (self.p, self.m, self.modulus)

    def __repr__(self):
        tag = "conway" if self.conway else "least-primitive"
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q}, q2={self.q2}, {tag})"


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


def norm_preimage(tower: FieldTower, c: int) -> int:
    """Deterministic code of v with v^(q+1) = c, for the code c of an element
    of GF(q)*.

    Chooses v = t^(log(c)/(q+1)), the unique preimage whose log is the
    exact quotient of the (q+1)-divisible representative.
    """
    if c == tower.zero_code:
        raise ZeroInput("norm preimage of zero requested")
    if c % (tower.q + 1) != 0:
        raise NotInBaseField(f"{tower.format(c)} is not in GF({tower.q})")
    return c // (tower.q + 1)
