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
addition goes through Zech logarithms and multiplication is exponent
addition.  Long sums (vsum, Gram entries) use the additive form
instead: each element's 2m base-p digits packed into one int64, a bit field
of floor(63/2m) bits per digit, so that many elements add as plain integers
before any digit needs reducing mod p.

Every other read of the field goes through two maps, exp (code to packed
value) and log (packed value to code): Zech logs and additive words are
derived from them and q-entry word tables.  Packed values are in tower
coordinates, a + b t with a and b in GF(q), and every unit is N^i t^j,
N = t^(q+1), i < q-1, j <= q, so both maps are computed from GF(q)'s exp and
log tables and the q+1 powers t^j in O(q) memory (Lidl-Niederreiter, Finite
Fields, ch. 2).  A Cayley field tabulates exp and log, two q^2-entry int32
tables, at construction.  A larger tower starts with the O(q) tables alone
and tabulates exp and log once its computed reads reach q^2, the tables' own
size: the ski-rental rule, which rents until the rent paid equals the price
(Karlin-Manasse-Rudolph-Sleator, Algorithmica 3, 1988; FieldTower).
The fibers of the additive maps the curve module needs are read from a
per-map table that sorts all q^2 images once: the fibers over a whole array
of right-hand sides are one gather, and their sizes another.

The defining modulus of GF(p^{2m}) is read from data/moduli.json, which
holds one for every tower within DEFAULT_FIELD_CAP: the Conway polynomial for
the sixteen fields the bundled examples touch, so that t-power listings are
comparable with standard computer-algebra output, and the lexicographically
least primitive polynomial for the rest.  tests/modulus_search.py derives that
table by search and checks it.  Only the requested field's row is parsed, on
the first request for that field, and nothing is read at import.
"""

from __future__ import annotations

import functools
from enum import Enum
from math import isqrt
from pathlib import Path

import numpy as np

from .config import DEFAULT_FIELD_CAP
from .errors import BadRequest, FieldTooLarge, NotInBaseField, NotPrime, ZeroInput

# largest q^2 with full Cayley tables: two int32 tables of q^4 entries, 1 MB each
_CAYLEY_MAX_Q2 = 2 ** 9

# entries per block of the table builds, read at call time: the exp table's in rows of q+1
_TABLE_BLOCK = 1 << 13
_NOT_PRIMITIVE = "modulus is not primitive; tables inconsistent"

# one [p,m,[coefficients]] row a line, in (p, m) order (tests/modulus_search.py writes it)
_MODULI = Path(__file__).with_name("data") / "moduli.json"

# distinct fields build_tower keeps built (reproduce touches 9)
_SHARED_TOWERS = 16

# table reads per block of rows, read at call time by points.local_derivatives (Zech
# logs, one row per stabilizer orbit) and codes.hermitian_gram (additive words, one
# column per orbit of the checked symmetry plus the zero point): 2 MB of int64 indices
_GATHER_ENTRIES = 1 << 18


class AdditiveMap(Enum):
    """GF(p)-linear maps whose fibers the curve module needs."""

    SQUARE_PLUS_Y = "y^2+y"
    FROB_PLUS_Y = "y^q+y"
    FROB_MINUS_Y = "y^q-y"


class FieldTower:
    """GF(p) < GF(q=p^m) < GF(q^2): the exp and log maps between exponent codes
    and packed values, two q-entry word tables, and the Cayley tables when
    q^2 <= 2^9.

    A packed value is in tower coordinates: a + b t (a, b in GF(q)) packs
    as pack(a) + q pack(b), pack giving the base-p digits in the basis N^0 ..
    N^(m-1) of GF(q), N = t^(q+1).  1 = N^0, so a prime-field integer c packs
    as c; for m = 1 the basis {1, t} is the modulus's own.  ``_start`` finds
    GF(q)'s exp table (the packed N^i) and t^j = a_j + b_j t for j <= q in O(q)
    rows of digits, for m > 1 through ``_tower_basis``.  It certifies t
    primitive in O(q): N's q-1 powers are distinct, and t^1 .. t^q lie in
    distinct cosets of GF(q)* (each b_j nonzero, the a_j / b_j distinct), so
    the (q-1)(q+1) products N^i t^j are distinct; else AssertionError.

    The two reads (``_value_of``, ``_code_of``) before the tables exist:

    - exp: code i(q+1)+j is N^i a_j + N^i b_j t, so its packed value is GF(q)'s
      exp table read at log a_j + i, plus q times it read at log b_j + i.  The
      zero code is row q-1 of column 0, and reads the zeros past the table.
    - log: a + b t with b = 0 has the code (q+1) log a, or the zero code for
      a = 0.  Otherwise it is b (N^r + t), r = log a - log b mod q-1, whose
      code is (q+1) log b + L[r] for the q-entry table L[r] = log(N^r + t),
      with slot q-1 standing for a = 0: t^j = b_j (N^(r_j) + t) for the coset
      certificate's ratio r_j, so L[r_j] = j - (q+1) log b_j mod q^2-1.

    A Zech log, log(1 + t^e), is log at t^e's packed value with its lowest
    base-p digit raised by one, mod p (zech_log).  The additive word of a code,
    its 2m digits in bit fields of b = floor(63/2m) bits, is
    ``_low_word[v % q] + _high_word[v // q]`` for its packed value v; up to
    ``_word_terms`` = floor((2^b-1)/(p-1)) words add carry-free.

    The switch.  A computed read costs several table reads, and the tables
    cost q^2 entries to build.  A Cayley field builds them at
    construction.  A larger tower counts the elements it reads through the
    computed path, and the read that brings that count to q^2 builds the
    tables (``_tabulate``) and reads from them, as does every later read.  So
    a tower that answers a few requests never pays O(q^2) time or memory, and
    bulk work spends about one build's worth of computed reads before it runs
    at table speed.  ``_tabulate`` lays the exp table out as (q-1) x (q+1):
    row i reads GF(q)'s at log a_j + i, and q times it at log b_j + i, in
    blocks of ``_TABLE_BLOCK`` entries that the log table is scattered from,
    so a build holds nothing larger than the two int32 tables it keeps, 8
    bytes per element.

    Every array is read-only.  Three things are filled on first use, the
    fiber tables of ``solve_additive``, the exp and log tables, and the three
    small tables of the computed log read (``_log_read``), which a Cayley field
    never makes; each is assigned once complete, so a race between threads
    only builds one twice.  Every operation on exponent codes is pure, so
    ``build_tower`` hands one tower to every caller and towers are safe to
    share across threads.
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
        self._computed_reads = 0
        self._exp = self._log_val = self._add_table = self._mul_table = self._computed_log = None
        self._start()
        if self.q2 <= _CAYLEY_MAX_Q2:
            self._tabulate()
            self._build_cayley_tables()

    # -- table construction ---------------------------------------------

    def _start(self):
        """The O(q) tables both reads and ``_tabulate`` use, read-only."""
        p, m, q, deg, n = self.p, self.m, self.q, 2 * self.m, self.n_units
        weights = p ** np.arange(deg, dtype=np.int64)
        half_digits = np.arange(q)[:, None] // weights[:m] % p  # the digits of each packed value of GF(q)
        # t^j in the polynomial basis t^0 .. t^(2m-1) for j <= q + 2m, and in tower coordinates
        # for j <= q: the digits of a_j and b_j in t^j = a_j + b_j t
        poly = _power_rows(-np.array(self.modulus[:deg]) % p, q + 1 + deg, p)
        if m == 1:  # {1, t} is the tower basis already, and N = t^(q+1) is f_0
            min_poly, coords = poly[q + 1, :1], poly[: q + 1]
        else:
            min_poly, basis = _tower_basis(poly, half_digits, weights, p)
            coords = poly[: q + 1] @ basis % p
        # GF(q)'s exp table, the packed values of N^0 .. N^(q-2), which must be distinct; then
        # again, and q zeros, read from the sentinel log 2(q-1) of the value 0
        small_exp = _power_rows(min_poly, q - 1, p) @ weights[:m]
        if not np.bincount(small_exp, minlength=q)[1:].all():
            raise AssertionError(_NOT_PRIMITIVE)
        sentinel = 2 * (q - 1)
        small_log = np.full(q, sentinel, dtype=np.int64)
        small_log[small_exp] = np.arange(q - 1)
        small_exp = np.concatenate([small_exp, small_exp, np.zeros(q, dtype=np.int64)])
        log_a, log_b = small_log[(coords.reshape(q + 1, 2, m) @ weights[:m]).T]
        # t^1 .. t^q must lie in distinct cosets of GF(q)*: each b_j nonzero, the a_j / b_j distinct
        ratios = np.where(log_a == sentinel, q - 1, (log_a - log_b) % (q - 1))[1:]
        if np.any(log_b[1:] == sentinel) or not np.bincount(ratios, minlength=q).all():
            raise AssertionError(_NOT_PRIMITIVE)
        # a_0 = 1 = N^(q-1): the zero code, row q-1 of column 0, reads small_exp's first zero
        log_a[0] = q - 1
        # additive form: the digits in bit fields of floor(63/deg) bits; a word is
        # the words of its low and high halves
        bits = 63 // deg
        self._word_shifts = bits * np.arange(deg, dtype=np.int64)
        self._word_mask = (1 << bits) - 1
        self._word_terms = self._word_mask // (p - 1)  # words one int64 sum may add
        self._digit_weights = weights
        self._word_weights = np.left_shift(1, self._word_shifts)
        self._low_word = half_digits @ self._word_weights[:m]
        self._high_word = self._low_word << bits * m
        self._small_exp, self._high_exp, self._small_log = small_exp, small_exp * q, small_log
        self._log_a, self._log_b = log_a, log_b
        for table in vars(self).values():
            if isinstance(table, np.ndarray):
                table.setflags(write=False)

    def _tabulate(self):
        """The q^2-entry int32 exp and log tables, read-only, a block of rows of the
        exp table at a time (FieldTower); every later read is a take from them."""
        q, n = self.q, self.n_units
        small_exp, high = self._small_exp, self._high_exp
        exp = np.empty(self.q2, dtype=np.int32)
        log_val = np.full(self.q2, n, dtype=np.int32)
        grid = exp[:n].reshape(q - 1, q + 1)
        rows = min(q - 1, max(1, _TABLE_BLOCK // (q + 1)))
        log_a, log_b = self._log_a + np.arange(rows)[:, None], self._log_b + np.arange(rows)[:, None]
        # int64, numpy's index type, so that the log scatter converts no index
        values, high_half = np.empty(log_a.shape, dtype=np.int64), np.empty(log_a.shape, dtype=np.int64)
        for start in range(0, q - 1, rows):
            r = min(rows, q - 1 - start)
            small_exp[start:].take(log_a[:r], out=values[:r], mode="clip")  # in range: no buffer
            high[start:].take(log_b[:r], out=high_half[:r], mode="clip")
            values[:r] += high_half[:r]
            grid[start : start + r] = values[:r]
            codes = np.arange(start * (q + 1), (start + r) * (q + 1), dtype=np.int32)
            log_val[values[:r]] = codes.reshape(r, q + 1)
        exp[n] = 0
        exp.flags.writeable = log_val.flags.writeable = False
        self._log_val, self._exp = log_val, exp

    def _build_cayley_tables(self):
        q2, n = self.q2, self.n_units
        # row a of the product table is a + b mod n, then the zero column: window a
        # of r repeated twice
        r = np.arange(n, dtype=np.int32)
        mul = np.full((q2, q2), n, dtype=np.int32)
        mul[:n, :n] = _windows(np.concatenate([r, r]), n)[:n]
        # t^a + t^b = t^a (1 + t^(b-a)) is row a of the product table read at
        # zech[(b - a) mod n], window n - a of the Zech logs repeated twice
        zech = self.zech_log(r)
        windows = _windows(np.concatenate([zech, zech]), n)[n:0:-1]
        add, flat = np.empty_like(mul), mul.ravel()
        rows = max(1, _TABLE_BLOCK // n)
        at = np.empty((rows, n), dtype=np.int64)  # a block of rows' indices into flat
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            np.add(windows[start:stop], (q2 * r[start:stop])[:, None], out=at[: stop - start])
            flat.take(at[: stop - start], out=add[start:stop, :n], mode="clip")
        add[n] = add[:, n] = np.arange(q2)  # 0 + x = x + 0 = x
        add.flags.writeable = flat.flags.writeable = False
        self._add_table, self._mul_table = add.ravel(), flat

    # -- the exp and log reads ---------------------------------------------

    def _value_of(self, codes) -> np.ndarray:
        """The packed values of exponent codes 0 .. q^2-1, an int or an int array:
        the exp read, int32 from the table and int64 computed."""
        if self._exp is None and not self._count_reads(np.size(codes)):
            rows = codes // (self.q + 1)
            cols = codes - (self.q + 1) * rows
            values = self._small_exp.take(self._log_a.take(cols) + rows)
            values += self._high_exp.take(self._log_b.take(cols) + rows)
            return values
        return self._exp.take(codes)

    def _code_of(self, values) -> np.ndarray:
        """The exponent codes, int32, of packed values 0 .. q^2-1, an int or an int
        array: the log read."""
        if self._log_val is None and not self._count_reads(np.size(values)):
            q, n = self.q, self.n_units
            log_terms, log_shift, base_code = self._log_read()
            high = values // q
            codes = log_terms.take(self._small_log.take(values - q * high) + log_shift.take(high))
            codes += base_code.take(high)
            # b = 0 reads at most the zero code q^2-1.  b != 0 adds to below 2(q^2-1), and never
            # to q^2-1 itself: its code is no multiple of q+1, as GF(q) holds every such code
            codes -= np.int32(n) * (codes > n)
            return codes
        return self._log_val.take(values)

    def _log_read(self):
        """(log_terms, log_shift, base_code) of the computed log read, read-only,
        built on its first use: a Cayley field reads its log table instead."""
        if self._computed_log is not None:
            return self._computed_log
        q, n, small_log, log_a, log_b = self.q, self.n_units, self._small_log, self._log_a, self._log_b
        ratios = np.where(log_a == 2 * (q - 1), q - 1, (log_a - log_b) % (q - 1))[1:]
        # the log read of a + b t takes log_terms at log a + log_shift[b].  For b != 0 the
        # shift is q-1 - log b, into L[r] = log(N^r + t) twice over, then slot q-1's value for
        # a = 0's sentinel; for b = 0 it is 3q-2, into GF(q)*'s codes, then the zero code
        coset_log = np.empty(q, dtype=np.int64)
        coset_log[ratios] = (np.arange(1, q + 1) - (q + 1) * log_b[1:]) % n
        log_terms = np.empty(5 * q - 3, dtype=np.int32)
        log_terms[: 2 * q - 2].reshape(2, q - 1)[:] = coset_log[:-1]
        log_terms[2 * q - 2 : 3 * q - 2] = coset_log[-1]
        log_terms[3 * q - 2 : 4 * q - 3] = np.arange(0, n, q + 1)
        log_terms[4 * q - 3 :] = n
        log_shift = q - 1 - small_log
        log_shift[0] = 3 * q - 2
        base_code = ((q + 1) * small_log).astype(np.int32)  # b's code, and 0 for b = 0
        base_code[0] = 0
        for table in (log_terms, log_shift, base_code):
            table.setflags(write=False)
        self._computed_log = log_terms, log_shift, base_code
        return self._computed_log

    def _count_reads(self, size: int) -> bool:
        """Add size computed reads; once they reach q^2, build the tables.  Are they built?"""
        self._computed_reads += size
        if self._computed_reads < self.q2:
            return False
        self._tabulate()
        return True

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
        return int(self._code_of(c))

    def format(self, code: int) -> str:
        """The token of an exponent code: 0, 1 or t^e."""
        if code == self.zero_code:
            return "0"
        if code == 0:
            return "1"
        return f"t^{code}"

    # -- vectorized kernels on int32 exponent-code arrays -------------------

    def vadd(self, a, b, out=None, at=None):
        return self._lookup(self._add_table, self._log_add, a, b, out, at)

    def vmul(self, a, b, out=None, at=None):
        return self._lookup(self._mul_table, self._log_mul, a, b, out, at)

    def _lookup(self, table, by_logs, a, b, out, at):
        """table[a * q^2 + b], or by_logs(a, b) without Cayley tables, into out when
        given (int32, may be a but not b), through at (int64): then no allocation."""
        a, b = np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32)
        if table is not None and out is not None:
            np.add(np.multiply(a, np.int32(self.q2), out=out), b, out=out)
            np.copyto(at, out)  # take would copy an int32 index to int64 itself
            return table.take(at, out=out, mode="clip")
        c = by_logs(a, b) if table is None else table.take(a * np.int32(self.q2) + b)
        if out is not None:
            out[...] = c
        return c if out is None else out

    def zech_log(self, e):
        """log(1 + t^e) for unit codes e < q^2-1, q^2-1 where 1 + t^e = 0:
        the log read at t^e's packed value with its lowest base-p digit raised
        by one, mod p.  Indices are not reduced: reduce them mod q^2-1 first."""
        v = self._value_of(e)
        v += 1
        v -= self.p * (v % self.p == 0)
        return self._code_of(v)

    def _log_add(self, a, b):
        n = self.n_units
        a, b = np.broadcast_arrays(a, b)
        z = self.zech_log((b - a) % n)
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
        return np.where(a == n, np.int32(n), (a + n // 2) % n)

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vinv(self, a):
        n = self.n_units
        a = np.asarray(a, dtype=np.int32)
        return np.where(a == n, np.int32(n), (-a) % n)

    def vdiv(self, a, b):
        """a / b, and 0 where b is 0 (as a * vinv(b))."""
        a, b, n = np.asarray(a, dtype=np.int32), np.asarray(b, dtype=np.int32), self.n_units
        return np.where((a == n) | (b == n), np.int32(n), (a - b) % n)

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
        """Field sum along an axis: the additive words of the codes, summed
        as integers by _word_sum.  Zero codes read the zero word."""
        arr = np.asarray(arr, dtype=np.int32)
        return self._word_sum(self._word_of(arr if axis == -1 else np.moveaxis(arr, axis, -1)))

    def _word_of(self, codes) -> np.ndarray:
        """The additive words of codes 0 .. q^2-1, from the two halves of
        their packed values; the zero code's value 0 has the zero word."""
        # int64, numpy's index type: a take converts an int32 index to it first
        values = self._value_of(codes).astype(np.int64)
        high = values // self.q
        values -= high * self.q
        words = self._low_word.take(values)
        words += self._high_word.take(high)
        return words

    def _word_slots(self, codes) -> np.ndarray:
        """int64 slots for _sum_products: a nonzero code is its own slot and
        zero is 2(q^2-1)-1."""
        codes = np.asarray(codes, dtype=np.int64)
        return np.where(codes == self.zero_code, 2 * self.n_units - 1, codes)

    def _sum_products(self, a, b) -> np.ndarray:
        """Codes of sum_l x_l * y_l along the last axis, for slot arrays a and
        b of x and y (broadcast).  The slot sum of two nonzero codes is the
        log of their product, at most 2(q^2-1)-2, taken mod q^2-1; with a zero
        factor it is at least 2(q^2-1)-1, and any such sum reads the zero word."""
        n = self.n_units
        slots = a + b
        codes = slots % n
        np.copyto(codes, n, where=slots >= 2 * n - 1)
        return self._word_sum(self._word_of(codes))

    def _word_sum(self, words) -> np.ndarray:
        """Codes of the field sums of additive-form words along the last axis.

        Up to _word_terms words add as plain integers with no carry between
        bit fields; longer sums take the digits mod p after each run of that
        many, and the total's digits mod p are read back through the log read.
        """
        terms = self._word_terms
        while words.shape[-1] > terms:
            words = np.add.reduceat(words, np.arange(0, words.shape[-1], terms), axis=-1)
            if self.p == 2:
                words &= self._word_weights.sum()  # a digit mod 2 is its low bit
            else:
                words = self._word_digits(words) @ self._word_weights
        return self._code_of(self._word_digits(words.sum(axis=-1)) @ self._digit_weights)

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
        order, bounds = self._fiber_table(amap)
        rhs = np.asarray(rhs, dtype=np.int64)
        starts = bounds[rhs]
        counts = bounds[rhs + 1] - starts
        owner = np.repeat(np.arange(len(rhs)), counts)
        ends = np.cumsum(counts)
        # solution j of fiber i is entry j - (ends[i] - counts[i]) of fiber i's slice
        return owner, order[np.arange(len(owner)) + (starts - ends + counts)[owner]]

    def additive_image(self, amap: AdditiveMap, y) -> np.ndarray:
        """The codes of map(y) for the codes y."""
        if amap is AdditiveMap.SQUARE_PLUS_Y:
            if self.p != 2:
                raise ValueError("y^2+y is additive only in characteristic 2")
            return self.vadd(self.vmul(y, y), y)
        if amap is AdditiveMap.FROB_PLUS_Y:
            return self.vadd(self.vfrob(y), y)
        return self.vsub(self.vfrob(y), y)

    def fiber_sizes(self, amap: AdditiveMap, rhs) -> np.ndarray:
        """|{y : map(y) = rhs[i]}| for each i, read from the fiber table of
        solve_additive without listing the solutions."""
        bounds = self._fiber_table(amap)[1]
        rhs = np.asarray(rhs, dtype=np.int64)
        return bounds[rhs + 1] - bounds[rhs]

    def _fiber_table(self, amap: AdditiveMap) -> tuple[np.ndarray, np.ndarray]:
        """(order, bounds), int32: the codes sorted stably by their image under
        the map, and where each image value's slice of them starts."""
        table = self._fibers.get(amap)
        if table is None:
            images = self.additive_image(amap, np.arange(self.q2, dtype=np.int32))
            order = np.argsort(images, kind="stable")
            bounds = np.searchsorted(images[order], np.arange(self.q2 + 1))
            table = self._fibers[amap] = (order.astype(np.int32), bounds.astype(np.int32))
        return table

    # -- misc ----------------------------------------------------------------

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, q={self.q}, q2={self.q2})"


def _windows(x: np.ndarray, width: int) -> np.ndarray:
    """The windows x[i : i + width] of a contiguous x as rows of one view: sliding_window_view
    without its checks, which cost more than a small field's Cayley tables."""
    return np.ndarray((len(x) - width + 1, width), x.dtype, x, 0, x.strides * 2)


def _orbit(start: np.ndarray, mat: np.ndarray, count: int, p: int) -> np.ndarray:
    """The rows start @ mat^i mod p for i < count, for a 1 x d start and a d x d matrix."""
    rows = np.empty((count, len(mat)), dtype=np.int64)
    rows[0] = start
    for i in range(1, count):
        np.remainder(rows[i - 1] @ mat, p, out=rows[i])
    return rows


def _tower_basis(poly: np.ndarray, half_digits: np.ndarray, weights: np.ndarray, p: int) -> tuple:
    """For m > 1 and the polynomial digits of t^0 .. t^(q+2m): the digits of N^m in the
    basis N^0 .. N^(m-1), and the matrix from polynomial digits to tower coordinates.
    Rows q+1 .. q+2m multiply by N.  GF(q) is the q sums x_0 N^0 + .. + x_(m-1) N^(m-1),
    listed by packed x, which finds N^m and T = t + t^q.  The matrix is the orbit of 1
    under multiplication by t, N^r -> N^r t and N^r t -> -N^(r+1) + N^r T t."""
    q, m = half_digits.shape
    norms = _orbit(poly[0], poly[q + 1 : q + 1 + 2 * m], m + 1, p)
    span = {value: x for x, value in enumerate((half_digits @ norms[:m] % p @ weights).tolist())}
    wanted = int(norms[m] @ weights), int((poly[1] + poly[q]) % p @ weights)
    if len(span) < q or not all(value in span for value in wanted):
        raise AssertionError(_NOT_PRIMITIVE)
    min_poly, trace = (half_digits[span[value]] for value in wanted)
    mul_n = np.eye(m, k=1, dtype=np.int64)
    mul_n[-1] = min_poly
    mul_t = np.eye(2 * m, k=m, dtype=np.int64)
    mul_t[m:, :m] = -mul_n % p
    mul_t[m:, m:] = _orbit(trace, mul_n, m, p)
    return min_poly, _orbit(poly[0], mul_t, 2 * m, p)


def _power_rows(tail: np.ndarray, count: int, p: int) -> np.ndarray:
    """The digits mod p of x^0 .. x^(count-1) in the basis x^0 .. x^(d-1), for a root x of
    X^d - (tail_0 + tail_1 X + .. + tail_(d-1) X^(d-1)).  Multiplication by x^s has the
    rows x^s .. x^(s+d-1), so rows k .. 2k-d-1 are rows d .. k-1 times rows k-d .. k-1."""
    d = len(tail)
    rows = np.zeros((max(count, d + 1), d), dtype=np.int64)
    rows[:d].flat[:: d + 1] = 1
    rows[d] = tail
    k = d + 1
    while k < count:
        c = min(k - d, count - k)
        np.remainder(rows[d : d + c] @ rows[k - d : k], p, out=rows[k : k + c])
        k += c
    return rows[:count]


def build_tower(p: int, m: int) -> FieldTower:
    """The tower GF(p) < GF(p^m) < GF(p^{2m}).

    The arguments are checked on every call, the size first: p^(2m) is at
    least 2^(2m) and p^2, so a p or m too large for DEFAULT_FIELD_CAP is
    rejected before the power is formed.  Within the cap the table of moduli
    has a row for exactly the prime p, so a p it lacks is not prime.  The
    tower itself is shared: one process builds each field at most once while
    it stays among the _SHARED_TOWERS most recently used, and every caller
    gets the same immutable FieldTower.
    """
    if m < 1:
        raise BadRequest(f"extension degree m must be positive, got {m}")
    cap = DEFAULT_FIELD_CAP
    if m > cap.bit_length() // 2 or p > isqrt(cap) or p ** (2 * m) > cap:
        raise FieldTooLarge(f"p = {p}, m = {m}: p^(2m) exceeds the field cap {cap}")
    if _modulus(p, m) is None:
        raise NotPrime(f"{p} is not prime")
    return _shared_tower(p, m)


@functools.cache
def _modulus(p: int, m: int) -> tuple[int, ...] | None:
    """The modulus of GF(p^{2m}), coefficients ascending, parsed from the line
    of data/moduli.json that holds the row [p,m,[...]] on the first request
    for (p, m); None if the table has no such row.  No other row is parsed."""
    text = _moduli_text()
    start = text.find(f"\n[{p},{m},[")
    if start < 0:
        return None
    start = text.index("[", start + 2) + 1
    return tuple(map(int, text[start : text.index("]", start)].split(",")))


@functools.cache
def _moduli_text() -> str:
    """data/moduli.json, read on the first request for any field."""
    return _MODULI.read_text(encoding="utf-8")


@functools.lru_cache(maxsize=_SHARED_TOWERS)
def _shared_tower(p: int, m: int) -> FieldTower:
    return FieldTower(p, m, _modulus(p, m))


@functools.cache
def _divisors(n: int) -> tuple[int, ...]:
    """The divisors of n above 1, largest first."""
    small = [d for d in range(2, isqrt(n) + 1) if n % d == 0]
    return tuple(sorted({n, *small, *(n // d for d in small)}, reverse=True))


def _stabilizer_step(codes: np.ndarray, n_units: int) -> int:
    """The least s | q^2-1 with nonzero + s = nonzero mod q^2-1, for the
    nonzero codes of an ascending code array: t^s generates the set's
    multiplicative stabilizer.  A set with a repeated point, or with no
    nonzero point, gets q^2-1.

    The stabilizer order d = (q^2-1)/s divides the number of nonzero points,
    so the divisors d of both are tried, largest first.  Shifting by s maps
    the ascending codes onto themselves exactly when code i + size/d is
    code i plus s for every i (codes lie in [0, q^2-1), so nothing wraps
    past the last block); code size/d is tried on its own before the rest.
    """
    size = int(codes.searchsorted(n_units))
    if not size or np.count_nonzero(codes[1:] == codes[:-1]):
        return n_units
    first = codes[0]
    for d in _divisors(n_units):
        if size % d == 0:
            s, r = n_units // d, size // d
            if codes[r] == first + s and not np.count_nonzero(codes[r:size] != codes[: size - r] + s):
                return s
    return n_units


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
