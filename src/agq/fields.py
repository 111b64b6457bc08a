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
before any digit needs reducing mod p.  Beyond the Cayley tables a tower
keeps 8 bytes per element, an exp and a log table of int32: Zech logs and
additive words are derived from them and q-entry tables on every read.  The
fibers of the additive maps the curve module needs are read from a per-map
table that sorts all q^2 images once: the fibers over a whole array of
right-hand sides are one gather, and their sizes another.

The defining modulus of GF(p^{2m}) is read from data/moduli.json, which
holds one for every tower within DEFAULT_FIELD_CAP: the Conway polynomial for
the sixteen fields the bundled examples touch, so that t-power listings are
comparable with standard computer-algebra output, and the lexicographically
least primitive polynomial for the rest.  tests/modulus_search.py derives that
table by search and checks it.  The file is read, and the tables are built
from the modulus, on the first request for a field and never at import: the
powers of t by doubling, straight into the exp table, each doubling step a
few gathers per power from q-entry tables; then the log table from those
powers, a block at a time.
"""

from __future__ import annotations

import functools
import json
from enum import Enum
from importlib import resources
from math import isqrt

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import DEFAULT_FIELD_CAP
from .errors import BadRequest, FieldTooLarge, NotInBaseField, NotPrime, ZeroInput

# largest q^2 with full Cayley tables: two int32 tables of q^4 entries, 1 MB each
_CAYLEY_MAX_Q2 = 2 ** 9

# entries per gather of the table build, through four int64 buffers of this size (256 KB)
_TABLE_BLOCK = 1 << 13

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
    """GF(p) < GF(q=p^m) < GF(q^2) with two q^2-entry int32 tables, inverse
    maps of each other: the log table ``_log_val`` (the exponent code of each
    packed value) and the exp table ``_exp`` (the packed value of t^e for
    e < q^2-1, then 0 at the zero code); two q-entry word tables; and the
    Cayley tables when q^2 <= 2^9.

    ``_build_tables`` reads each power of t as its low and high m digits,
    two numbers below q.  Given t^0 .. t^(k-1), the powers t^k .. t^(2k-1)
    are their products with t^k; multiplication by t^k is GF(p)-linear, so
    each half of a product is the digit-wise sum of the images of the two
    halves, read from q-entry tables.  The sum is one gather: the images are
    written in base 2p-1, where two of them add with no carry, and a table of
    (2p-1)^m entries maps such a sum to its digits mod p.  That is O(q^2)
    gathered entries in all, with no matrix product larger than q x m.  A
    block at a time, the halves are read back from ``_exp`` with one divmod
    into preallocated buffers and the products' packed values are written
    straight into it, so a build holds nothing larger than the two tables.

    The additive word of a code, its 2m digits in bit fields of b =
    floor(63/2m) bits, is ``_low_word[v % q] + _high_word[v // q]`` for its
    packed value v; up to ``_word_terms`` = floor((2^b-1)/(p-1)) words add
    carry-free.  A Zech log, log(1 + t^e), is the log table read at t^e's
    packed value with its lowest digit raised by one, mod p (zech_log).

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
        # the packed value of t^e; t^e for e < deg is the single digit p^e, and step
        # becomes (C^deg)^T, whose rows are the digits of t^deg .. t^(2 deg - 1)
        exp = np.empty(q2, dtype=np.int32)
        exp[:deg] = weights
        rows = [step[-1]]
        while len(rows) < deg:
            rows.append(rows[-1] @ step % p)
        step = np.array(rows)
        # every gather's operands, by block: int64 (numpy's index type), so that no
        # gather copies its index
        buffers = np.empty((4, min(_TABLE_BLOCK, n)), dtype=np.int64)
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
            for start in range(0, c, _TABLE_BLOCK):
                stop = min(start + _TABLE_BLOCK, c)
                hi, lo, x, y = buffers[:, : stop - start]
                np.divmod(exp[start:stop], q, out=(hi, lo))
                images[0, 1].take(lo, out=x, mode="clip")  # in range: no buffer
                images[1, 1].take(hi, out=y, mode="clip")
                x += y
                digit_sum.take(x, out=y, mode="clip")  # the product's high half
                images[0, 0].take(lo, out=x, mode="clip")
                images[1, 0].take(hi, out=lo, mode="clip")
                x += lo
                digit_sum.take(x, out=lo, mode="clip")  # and its low half
                y *= q
                y += lo
                exp[k + start : k + stop] = y
            step = step @ step % p
            k += c
        exp[n] = 0
        log_val = np.full(q2, self.zero_code, dtype=np.int32)
        for start in range(0, n, _TABLE_BLOCK):
            stop = min(start + _TABLE_BLOCK, n)
            log_val[exp[start:stop]] = np.arange(start, stop, dtype=np.int32)
        # log_val is a permutation of 0 .. n, with n at value 0, exactly when no power
        # of t is 0 and no exponent is lost to a repeated power: a lost one leaves an n
        # in its place, so the sum exceeds n(n+1)/2
        if log_val[0] != self.zero_code or log_val.sum(dtype=np.int64) != n * (n + 1) // 2:
            raise AssertionError("modulus is not primitive; tables inconsistent")
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
        self._exp = exp
        self._log_val = log_val
        self._add_table = self._mul_table = None
        tables = [exp, log_val, self._low_word, self._high_word]
        if q2 <= _CAYLEY_MAX_Q2:
            # row a of the product table is a + b mod n, then the zero column: window a
            # of r repeated twice
            r = np.arange(n, dtype=np.int32)
            mul = np.full((q2, q2), n, dtype=np.int32)
            mul[:n, :n] = sliding_window_view(np.concatenate([r, r]), n)[:n]
            # t^a + t^b = t^a (1 + t^(b-a)) is row a of the product table read at
            # zech[(b - a) mod n], window n - a of the Zech logs repeated twice
            zech = self.zech_log(r)
            windows = sliding_window_view(np.concatenate([zech, zech]), n)[n:0:-1]
            add, flat = np.empty_like(mul), mul.ravel()
            rows = max(1, _TABLE_BLOCK // n)
            at = np.empty((rows, n), dtype=np.int64)  # a block of rows' indices into flat
            for start in range(0, n, rows):
                stop = min(start + rows, n)
                np.add(windows[start:stop], (q2 * r[start:stop])[:, None], out=at[: stop - start])
                flat.take(at[: stop - start], out=add[start:stop, :n], mode="clip")
            add[n] = add[:, n] = np.arange(q2)  # 0 + x = x + 0 = x
            self._add_table, self._mul_table = add.ravel(), flat
            tables += [self._add_table, self._mul_table]
        for table in tables:
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
        the log table at t^e's packed value with its lowest base-p digit raised
        by one, mod p.  Indices are not reduced: reduce them mod q^2-1 first."""
        v = self._exp.take(e)
        v += 1
        v -= self.p * (v % self.p == 0)
        return self._log_val.take(v)

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
        arr = np.moveaxis(np.asarray(arr, dtype=np.int32), axis, -1)
        return self._word_sum(self._word_of(arr))

    def _word_of(self, codes) -> np.ndarray:
        """The additive words of codes 0 .. q^2-1, from the two halves of
        their packed values; the zero code's value 0 has the zero word."""
        # int64, numpy's index type: a take converts an int32 index to it first
        values = self._exp.take(codes).astype(np.int64)
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
        order, bounds = self._fiber_table(amap)
        rhs = np.asarray(rhs, dtype=np.int64)
        starts = bounds[rhs]
        counts = bounds[rhs + 1] - starts
        owner = np.repeat(np.arange(len(rhs)), counts)
        ends = np.cumsum(counts)
        # solution j of fiber i is entry j - (ends[i] - counts[i]) of fiber i's slice
        return owner, order[np.arange(len(owner)) + (starts - ends + counts)[owner]]

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
            table = self._fibers[amap] = (order.astype(np.int32), bounds.astype(np.int32))
        return table

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
