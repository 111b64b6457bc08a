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

The defining modulus of GF(p^{2m}) is read from data/moduli.json, which
holds one for every tower within DEFAULT_FIELD_CAP: the Conway polynomial for
the sixteen fields the bundled examples touch, so that t-power listings are
comparable with standard computer-algebra output, and the lexicographically
least primitive polynomial for the rest.  tests/modulus_search.py derives that
table by search and checks it.  The file is read, and the tables are built
from the modulus, on the first request for a field and never at import: the
powers of t by doubling, each doubling step a few gathers per power from
q-entry tables, and the log, Zech and additive tables from those powers.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from importlib import resources
from math import isqrt

import numpy as np

from .config import DEFAULT_FIELD_CAP
from .errors import BadRequest, FieldTooLarge, NotInBaseField, NotPrime, ZeroInput

# largest q^2 with full Cayley tables: two int32 tables of q^4 entries, 1 MB each
_CAYLEY_MAX_Q2 = 2 ** 9

# powers of t one gather of the exp-table doubling writes (two int64 temporaries of 2x this)
_TABLE_BLOCK = 1 << 16

# distinct fields build_tower keeps built (reproduce touches 9)
_SHARED_TOWERS = 16


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

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.q2 = p ** (2 * m)
        self.n_units = self.q2 - 1  # order of the multiplicative group
        self.zero_code = self.n_units  # exponent code reserved for 0
        self.modulus = modulus
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
        # digit_sum: a sum of two halves written in base 2p-1 to its digits mod p,
        # built by broadcasting one digit at a time
        spread = (2 * p - 1) ** np.arange(m)
        digit_sum = np.zeros(1, dtype=np.int64)
        for weight in weights[:m]:
            digit_sum = ((np.arange(2 * p - 1) % p * weight)[:, None] + digit_sum).ravel()
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
            # images[s, h]: half h of the product of t^k with each value of half s,
            # one contiguous row each: a 1-D take runs far faster than one along axis 1
            images = np.ascontiguousarray((images.reshape(2, q, 2, m) @ spread).transpose(0, 2, 1))
            for start in range(0, c, _TABLE_BLOCK):  # blocks bound the int64 temporaries
                stop = min(start + _TABLE_BLOCK, c)
                for h in range(2):
                    index = images[0, h].take(lo[start:stop])
                    index += images[1, h].take(hi[start:stop])
                    digit_sum.take(index, out=halves[h, k + start : k + stop], mode="clip")  # in range: no buffer
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
        # digit is p - 1: a carry read by the low half from a q-entry table
        carry = (np.arange(q) % p == p - 1).take(lo)
        del halves, lo, hi
        log_val = np.full(q2, self.zero_code, dtype=np.int32)
        log_val[exp_val] = np.arange(n, dtype=np.int32)
        if log_val[0] != self.zero_code or np.count_nonzero(log_val != self.zero_code) != n:
            raise AssertionError("modulus is not primitive; tables inconsistent")
        # Zech table: zech[e] = log(1 + t^e), zero_code marks 1 + t^e = 0
        plus_one = exp_val + 1
        plus_one -= np.multiply(carry, p, dtype=np.int16)  # p * carry would be an int64 temporary
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
            # row a of the product table is a + b mod n, then the zero column;
            # t^a + t^b = t^a (1 + t^(b-a)) is row a read at zech[(b - a) mod n]
            r = np.arange(n)
            mul = np.full((q2, q2), n, dtype=np.int32)
            mul[:n, :n] = np.concatenate([r, r]).take(r[:, None] + r)
            at = np.concatenate([zech, zech]).take((n - r)[:, None] + r) + (q2 * r)[:, None]
            add = np.empty_like(mul)
            add[:n, :n] = mul.take(at)
            add[n] = add[:, n] = np.arange(q2)  # 0 + x = x + 0 = x
            self._add_table, self._mul_table = add.ravel(), mul.ravel()
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
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q}, q2={self.q2})"


def build_tower(p: int, m: int) -> FieldTower:
    """The tower GF(p) < GF(p^m) < GF(p^{2m}) with full tables.

    The arguments are checked on every call, the size first: p^(2m) is at
    least 2^(2m) and p^2, so a p or m too large for DEFAULT_FIELD_CAP is
    rejected before the power is formed.  Within the cap the table of moduli
    has an entry for exactly the prime p, so a p it lacks is not prime.  The
    tower itself is shared: one process builds each field at most once while
    it stays among the _SHARED_TOWERS most recently used, and every caller
    gets the same immutable FieldTower.
    """
    if m < 1:
        raise BadRequest(f"extension degree m must be positive, got {m}")
    cap = DEFAULT_FIELD_CAP
    if m > cap.bit_length() // 2 or p > isqrt(cap) or p ** (2 * m) > cap:
        raise FieldTooLarge(f"p = {p}, m = {m}: p^(2m) exceeds the field cap {cap}")
    if (p, m) not in _moduli():
        raise NotPrime(f"{p} is not prime")
    return _shared_tower(p, m)


@functools.cache
def _moduli() -> dict[tuple[int, int], tuple[int, ...]]:
    """{(p, m): the modulus of GF(p^{2m}), coefficients ascending}, read from
    the [p, m, modulus] rows of data/moduli.json on first use."""
    rows = json.loads((resources.files(__package__) / "data" / "moduli.json").read_text())
    return {(p, m): tuple(modulus) for p, m, modulus in rows}


@functools.lru_cache(maxsize=_SHARED_TOWERS)
def _shared_tower(p: int, m: int) -> FieldTower:
    return FieldTower(p, m, _moduli()[p, m])


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
