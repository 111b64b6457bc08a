"""Generator-matrix algebra over GF(q^2).

Everything here is oracle-grade: Gram certification, distances and MDS
checks are computed from the matrix, never assumed from the way a code
was built.  That holds for shortcuts too: what a construction knows about G
is a record, checked on the matrix once, and every record answers the same
questions (Record): rank k on any c columns, the terms the Gram sums, a
floor on d(C^perp) with its method, the column scan's w = 2 keys, and d(C)
from a light word.  Where its hypothesis fails a record answers None, and
the caller takes the path of a code without a record; no caller asks which
records a code has.  The line record (_line_record) is a twisted-Vandermonde
core on n0 >= k points plus unit columns c * e_r, r >= 1, as embedding steps
append them: rank k on any c columns with c - u >= k, u unit columns; the
core's Gram terms, one column per orbit, then the unit columns; and MDS
with no unit column ("vandermonde") or with one, in row k-1, a doubly
extended GRS code ("extended-grs"; MacWilliams-Sloane, ch. 11).  The curve
record (_curve_record) of a one-point code: rank k on more than m columns,
as a nonzero f of pole order at most m has at most m zeros (Stichtenoth, Thm
2.2.2); the floor 1, so is_mds runs the column scan first; w = 2 keys from
its points; and d(C) = n - m when a light word meets it.  certify's
Certificate is the one record of a code, one object: it holds the code, what
its construction knows (trace, designed distance, evaluation set, build
time), written onto it in place, and ``distance`` decides d(C) on first
read.  Matrices are numpy int32 arrays of exponent codes (tower convention:
code q^2-1 is zero): hot loops are lookups.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import islice
from bisect import bisect_right
from math import comb, gcd

import numpy as np

from . import config
from . import fields as _fields
from .curves import CurveSpec, on_curve
from .errors import CapExceeded, GramNonzero, ParseError, RankDefect
from .fields import FieldTower, build_tower
from .points import EvaluationSet

# SHA-256 from CPython's builtin module, byte-identical to hashlib's, which would
# map OpenSSL's libcrypto (about 3.6 MB resident) for one digest per Gram
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_CHUNK = 1 << 15
# exponent codes a column-scan block may hold, its chunk's projected matrices and
# its points (_first_collision), which sizes the arrays every block of a scan runs in
_LIVE_ENTRIES = 1 << 16
_FIRST_PREFIXES = 4  # prefixes in the first block of each w of the column scan
# coordinates in a column-scan entry's short key (_first_collision), where that
# leaves out at least as many: entries whose short keys repeat get full keys too
_SHORT_KEY = 3


class LinearCode:
    """[n, k] code over GF(q^2) held as a full-rank generator matrix.

    ``records`` yields the records G satisfies: the line record, then the
    curve record of what evaluation_code hands over as ``curve``, checked
    only when first reached.  With verify_rank, a G whose rank no record
    gives is row-reduced and a rank below k raises RankDefect; is_mds reads
    the same ``reduced`` form.
    """

    def __init__(self, tower: FieldTower, g: np.ndarray, verify_rank: bool = True, curve=None):
        g = np.asarray(g, dtype=np.int32)
        if g.ndim != 2:
            raise ValueError("generator matrix must be 2-dimensional")
        self.tower = tower
        self.g = g
        self.k, self.n = g.shape
        self._line = _line_record(tower, g)
        self._curve = curve
        if verify_rank and self.k > 0 and not self.full_rank_on(self.n):
            r = len(self.reduced[1])
            if r != self.k:
                raise RankDefect(r, self.k)

    @property
    def records(self) -> Iterator[Record]:
        found = (getattr(self, name) for name in ("_line", "_curve_checked"))  # the curve checked when reached
        return (record for record in found if record is not None)

    @cached_property
    def _curve_checked(self) -> CurveRecord | None:
        return None if self._curve is None else _curve_record(self.tower, self.g, *self._curve)

    def full_rank_on(self, columns: int) -> bool:
        """Does a record show that any `columns` columns of G have rank k?"""
        return any(record.full_rank_on(self, columns) for record in self.records)

    def ask(self, reader: str):
        """The first answer but None of a Record reader, by name, in the records' order."""
        return next((a for a in (getattr(record, reader)(self) for record in self.records) if a is not None), None)

    @cached_property
    def reduced(self) -> tuple[np.ndarray, tuple]:
        """rref(G): the reduced row echelon form and its pivot columns."""
        return rref(self.tower, self.g)

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_({self.tower.q}^2)"


class Record:
    """What a construction knows about G, checked on the matrix.  Each reader
    answers None where the record's hypothesis fails."""

    def full_rank_on(self, code: LinearCode, columns: int) -> bool | None:
        """Do any `columns` columns of G have rank k?"""

    def gram_terms(self, code: LinearCode) -> tuple | None:
        """(columns, d, c), the terms hermitian_gram sums."""

    def dual_floor(self, code: LinearCode) -> tuple[int, str] | None:
        """(floor on d(C^perp), method): k+1 makes C MDS by that method."""

    def parallel_keys(self, code: LinearCode) -> np.ndarray | None:
        """One key per column, equal for two columns exactly when they are parallel."""

    def light_word(self, code: LinearCode) -> DistanceResult | None:
        """d(C) from a certified floor that a word of C meets, with the word."""


@dataclass(frozen=True, eq=False)
class LineRecord(Record):
    """The line record (_line_record): hermitian_gram's terms and the unit columns."""

    columns: np.ndarray  # the core's orbit representatives, then its zero point, then the unit columns
    d: int
    c: np.ndarray | None
    unit_columns: tuple  # (r, c) of each unit column c * e_r

    def full_rank_on(self, code: LinearCode, columns: int) -> bool:
        # any k core columns: a v-scaled Vandermonde minor
        return columns - len(self.unit_columns) >= code.k

    def gram_terms(self, code: LinearCode) -> tuple | None:
        return self.columns, self.d, self.c

    def dual_floor(self, code: LinearCode) -> tuple[int, str] | None:
        rows = [r for r, _ in self.unit_columns]
        if not rows:
            return code.k + 1, "vandermonde"
        if rows == [code.k - 1]:  # k-1 core columns and e_(k-1): a Vandermonde minor of rows 0..k-2
            return code.k + 1, "extended-grs"
        return None


def _line_record(tower: FieldTower, g: np.ndarray) -> LineRecord | None:
    """The line record: None unless the columns of G with a zero in row 0 are
    unit columns c * e_r (one nonzero entry, so r >= 1) and the rest, the core,
    is (v_l * alpha_l^i) with 0 < k <= n0, v_l != 0 and alpha_l = G[1,l]/G[0,l]
    distinct.  A zero point's column v * e_0 is the core's.

    The alpha_l are sorted once, unless they already ascend.  Their nonzero
    codes are fixed by the group <t^s> of order d = (q^2-1)/s that
    fields._stabilizer_step checks on them, and representative r stands for
    the points alpha_r * t^(ms), m < d.  If the norms N_l = v_l^(q+1) step by
    a fixed multiple s * c_r along each orbit, log N(alpha_r t^(ms)) =
    log N(alpha_r) + m * s * c_r, which is checked on G[0], the orbit adds
    sum_m (t^s)^(m (i + qj + c_r)), d or 0, times the representative's
    product: the columns are the representatives, then the zero point if
    present, then the unit columns, each summed as a column of its own.
    Otherwise, and for k = 1, they are all of G, d = 1 and c is None.
    """
    zero, units = tower.zero_code, tower.n_units
    at = np.flatnonzero(g[0] == zero) if len(g) else ()
    unit_columns, full = (), g
    if len(at):
        nonzero = g[:, at] != zero
        if np.count_nonzero(np.count_nonzero(nonzero, axis=0) != 1):
            return None
        rows = nonzero.argmax(axis=0)
        unit_columns = tuple(zip(rows.tolist(), g[rows, at].tolist()))
        g = np.delete(g, at, axis=1)
    k, n = g.shape
    if not 0 < k <= n:
        return None
    whole = LineRecord(full, 1, None, unit_columns)
    if k == 1:
        return whole
    alpha = tower.vdiv(g[1], g[0])
    if not np.array_equal(g[1:], tower.vmul(g[:-1], alpha)):
        return None
    order = slice(None)
    # sort and compare neighbours: np.unique imports numpy.ma on its first call
    if np.count_nonzero(alpha[1:] <= alpha[:-1]):
        order = np.argsort(alpha)
        alpha = alpha[order]
        if np.count_nonzero(alpha[1:] == alpha[:-1]):
            return None
    s = _fields._stabilizer_step(alpha, units)
    if s == units:
        return whole
    d = units // s
    size = n - int(alpha[-1] == zero)  # the zero point sorts last
    reps = size // d
    g = g[:, order]
    norms = g[0, :size] * np.int64(tower.q + 1)
    steps = (norms[reps:] - norms[:-reps]) % units
    c = steps[:reps] // s
    # every step of orbit r is its first, and that is c_r * s only if s divides it
    if np.count_nonzero(steps.reshape(d - 1, reps) != c * s):
        return whole
    return LineRecord(np.concatenate((g[:, :reps], g[:, size:], full[:, at]), axis=1), d, c, unit_columns)


@dataclass(frozen=True, eq=False)
class CurveRecord(Record):
    """The curve record (_curve_record): row i of G is v_l * x_l^a * y_l^b at
    the points (x_l, y_l) of spec's curve, for the i-th monomial (a, b); m is
    the largest pole order a * pole_x + b * pole_y among them."""

    spec: CurveSpec
    monomials: tuple  # (a, b) of each row
    x: np.ndarray
    y: np.ndarray
    m: int

    def full_rank_on(self, code: LinearCode, columns: int) -> bool:
        # no nonzero word of C vanishes on more than m columns
        return columns > self.m

    def dual_floor(self, code: LinearCode) -> tuple[int, str] | None:
        return 1, "column-scan"  # no floor of its own yet: is_mds scans such a code first

    def parallel_keys(self, code: LinearCode) -> np.ndarray | None:
        """With the row of 1 and a twist with no zero, columns l and l' are
        parallel exactly when f(P_l) = f(P_l') for every row's monomial f.  So
        with rows 1, x and y the key is the point, and the record's points are
        distinct; with rows 1 and u, u = x or y, and every other row a power of
        u, the key is u."""
        if (0, 0) not in self.monomials:
            return None
        a, b = np.asarray(self.monomials).T
        if {(1, 0), (0, 1)} <= set(self.monomials):
            return self.x.astype(np.int64) * code.tower.q2 + self.y
        if (1, 0) in self.monomials and not b.any():
            return self.x
        if (0, 1) in self.monomials and not a.any():
            return self.y
        return None

    def light_word(self, code: LinearCode) -> DistanceResult | None:
        """d(C) = n - m, exhaustive_distance's first word.  With n > m, d(C) >=
        n - m.  When the top monomial is u^j, u = x or y, and u^0 .. u^j are
        all rows, the word of prod_i (u - a_i) over the j most frequent values
        a_i of u (ties to the lower code) is formed from those rows and
        weighed on G: for x it vanishes on j whole fibers, and for y on the
        points of its j most frequent values.  Its weight is n - m when those
        are m points, and then d(C) = n - m exactly."""
        if code.n <= self.m:
            return None
        floor = code.n - self.m
        tower, zero = code.tower, code.tower.zero_code
        spec = self.spec
        a, b = max(self.monomials, key=lambda ab: ab[0] * spec.pole_x + ab[1] * spec.pole_y)
        if a and b:
            return None
        j, u = (a, self.x) if b == 0 else (b, self.y)
        powers = [(i, 0) if b == 0 else (0, i) for i in range(j + 1)]
        if not set(powers) <= set(self.monomials):
            return None
        roots = np.argsort(-np.bincount(u, minlength=tower.q2), kind="stable")[:j]
        poly = np.full(j + 1, zero, dtype=np.int32)  # the coefficients of u^0 .. u^j
        poly[0] = 0  # the constant 1
        for minus_r in tower.vneg(roots):  # times (u - r)
            poly = tower.vadd(np.concatenate(([zero], poly[:-1])), tower.vmul(minus_r, poly))
        terms = tower.vmul(poly[:, None], code.g[[self.monomials.index(power) for power in powers]])
        word = terms[0]
        for term in terms[1:]:
            word = tower.vadd(word, term)
        if np.count_nonzero(word != zero) != floor:
            return None
        return DistanceResult(floor, True, tuple(word.tolist()), "goppa-light-word")


def _curve_record(
    tower: FieldTower, g: np.ndarray, spec: CurveSpec, monomials, x, y, twist
) -> CurveRecord | None:
    """The curve record: None unless every check holds.  On the matrix: G =
    (v_l * x_l^a * y_l^b) entry by entry, every (x_l, y_l) satisfies A(y) =
    x^e + c (evaluated from spec's amap, pole_y and c), the points are
    distinct, v has no zero, and every monomial has b < pole_x and its own
    pole order.  From the theory, one input: gcd(pole_x, pole_y) = 1, which
    makes P_inf the one pole of x and y, of orders pole_x and pole_y
    (Stichtenoth, Prop. 3.7.10 and 6.4.1), so a monomial's pole order is
    a * pole_x + b * pole_y.  A curve with gcd > 1 gets no record."""
    px, py = spec.pole_x, spec.pole_y
    monomials = tuple((int(a), int(b)) for a, b in monomials)
    orders = sorted(a * px + b * py for a, b in monomials)
    if gcd(px, py) != 1 or not orders or any(b >= px for _, b in monomials) or len(set(orders)) < len(orders):
        return None
    x, y, v = (np.asarray(u) for u in (x, y, twist))
    if np.count_nonzero(v == tower.zero_code) or not on_curve(spec, x, y):
        return None
    points = np.sort(x.astype(np.int64) * tower.q2 + y)
    if np.count_nonzero(points[1:] == points[:-1]):
        return None
    a, b = np.array(monomials).T
    if not np.array_equal(g, _monomial_rows(tower, v, [(x, a), (y, b)])):
        return None
    return CurveRecord(spec, monomials, x, y, orders[-1])


@dataclass(frozen=True)
class GramCertificate:
    matrix: np.ndarray  # k x k exponent codes
    all_zero: bool
    first_nonzero: tuple | None  # (i, j, token) of the first offending entry
    digest: str


@dataclass(frozen=True)
class DistanceResult:
    value: int
    exact: bool
    witness: tuple | None
    method: str


@dataclass(eq=False)
class Certificate:
    """What certify() decided about one code whose Gram matrix is all zero, with
    the code itself and what its construction knows: the one record a catalog
    entry is built from.  Only certify writes the verdict fields, and a
    construction writes the last four onto that record; nothing copies it.  A
    code certified on its own, as verify's is, keeps their defaults."""

    code: LinearCode
    gram: GramCertificate
    mds: bool | None  # None: the budget left it open
    mds_witness: tuple | None  # k columns with a singular minor
    mds_method: str
    dual_distance: DistanceResult  # d(C^perp) = d(C^perp_H)
    quantum_distance: DistanceResult  # min wt(C^perp_H \ C)
    trace: tuple = ()  # how the construction built the code, step by step
    designed_distance: int | None = None  # the construction's bound on d(C)
    eval_set: EvaluationSet | None = None  # a genus-0 chain member's points, which embed_once extends
    build_s: float = 0.0  # wall time to build and certify this chain member alone

    @cached_property
    def distance(self) -> DistanceResult | None:
        """d(C), decided here alone and on first read: n-k+1 (Singleton) when C
        is MDS, else exhaustive_distance, which stops at a record's floor
        when a light word meets it, or None past config.EXHAUSTIVE_CAP words."""
        if self.mds:
            return DistanceResult(self.code.n - self.code.k + 1, True, None, "mds-singleton")
        try:
            return exhaustive_distance(self.code)
        except CapExceeded:
            return None


# -- elimination kernels ------------------------------------------------------


def rref(tower: FieldTower, mat: np.ndarray):
    """Reduced row echelon form (leftmost pivots, leading ones, eliminate
    above and below).  Returns (R, pivot_columns)."""
    zero = tower.zero_code
    m = np.array(mat, dtype=np.int32, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        col = m[r:, c]
        nz = np.nonzero(col != zero)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = tower.vdiv(m[r], m[r, c])
        # clear column c from every other row at once; rows r.. are zero left of c
        factors = m[:, c].copy()
        factors[r] = zero
        m[:, c:] = tower.vsub(m[:, c:], tower.vmul(factors[:, None], m[r, c:]))
        pivots.append(c)
        r += 1
    return m, tuple(pivots)


def rank(tower: FieldTower, mat: np.ndarray) -> int:
    if mat.shape[0] == 0:
        return 0
    _, pivots = rref(tower, mat)
    return len(pivots)


def batched_dependent(tower: FieldTower, mats: np.ndarray) -> np.ndarray:
    """Which matrices in a (B, r, c) batch (c <= r) have dependent columns.

    Column-by-column elimination without per-batch row bookkeeping: a column
    with no pivot below the diagonal flags its matrix as dependent, and from
    then on that matrix's contents are don't-care (elimination ops are
    harmless no-ops or garbage that is never read back as a verdict).
    """
    zero = tower.zero_code
    m = np.array(mats, dtype=np.int32, copy=True)
    batch, rows, cols = m.shape
    if batch == 0:
        return np.zeros(0, dtype=bool)
    if cols > rows:
        return np.ones(batch, dtype=bool)
    dep = np.zeros(batch, dtype=bool)
    ar = np.arange(batch)
    for c in range(cols):
        colvals = m[:, c:, c]
        nz = colvals != zero
        has = nz.any(axis=1)
        dep |= ~has
        src = c + np.argmax(nz, axis=1)
        pivot_rows = m[ar, src].copy()
        m[ar, src] = m[:, c].copy()  # explicit copy: src may alias row c
        m[:, c] = pivot_rows
        if c == cols - 1:
            break
        piv = m[:, c, c]
        inv = tower.vinv(piv)  # zero pivot (flagged batch) -> zero, a no-op below
        factors = tower.vmul(tower.vneg(m[:, c + 1 :, c]), inv[:, None])
        update = tower.vmul(factors[:, :, None], m[:, c, c + 1 :][:, None, :])
        m[:, c + 1 :, c + 1 :] = tower.vadd(m[:, c + 1 :, c + 1 :], update)
    return dep


# -- construction --------------------------------------------------------------


def evaluation_code(spec: CurveSpec, monomials: tuple, x, y, twist) -> LinearCode:
    """Rows v_l * f_i(P_l) for the f_i = x^a y^b of the (a, b) in monomials,
    with the curve, monomials, points and twist handed on as the code's
    curve record, which LinearCode checks against the rows.

    x, y and twist are code arrays, one entry per point P_l = (x_l, y_l).
    Raises RankDefect when the evaluation vectors are dependent.
    """
    if len(twist) != len(x):
        raise ValueError("twist length != number of points")
    tower = spec.tower
    a, b = np.asarray(monomials, dtype=np.int64).reshape(-1, 2).T
    g = _monomial_rows(tower, twist, [(x, a), (y, b)])
    return LinearCode(tower, g, curve=(spec, monomials, x, y, twist))


def grs_rows(tower: FieldTower, eval_set, twist: np.ndarray, exponents) -> np.ndarray:
    """Rows v_l * alpha_l^e for e in exponents."""
    return _monomial_rows(tower, twist, [(eval_set.codes, exponents)])


def _monomial_rows(tower: FieldTower, v, factors) -> np.ndarray:
    """Rows i of v_l * prod x_l^e[i] over the (x, e) of factors, as one broadcast
    (log v + sum e[i] log x) mod (q^2-1); zero where v is zero or a zero x has
    e[i] > 0 (0^0 = 1, as in FieldTower.vpow)."""
    units = tower.n_units
    logs = v = np.asarray(v, dtype=np.int64)
    zero = v == units
    for x, e in factors:
        x, e = np.asarray(x, dtype=np.int64), np.asarray(e, dtype=np.int64)[:, None]
        logs = logs + e * x
        zero = zero | (x == units) & (e > 0)
    logs %= units
    logs[zero] = units
    return logs.astype(np.int32)


# -- certification --------------------------------------------------------------


def hermitian_gram(code: LinearCode) -> GramCertificate:
    """Exact k x k Gram matrix of <g_i, g_j>_H = sum_l G[i,l] * G[j,l]^q.

    Each product is a log-sum of G[i,l] and G[j,l]^q, whose additive word
    the tower derives from its exp read, and each entry is an integer sum
    of those words (tower._sum_products).  A record's terms (Record.gram_terms)
    give the columns, one per orbit of d points of a multiplicative symmetry
    checked on the matrix, and their norm steps c_r; a zero point's column
    and unit columns c * e_r follow the representatives and are summed as
    they stand.  An orbit of d columns adds
    d * [d | i + qj + c_r] * G[i,r] * G[j,r]^q for its representative r, so
    its left factor is scaled by d mod p and the entries where d does not
    divide i + qj + c_r are pushed to slot sums of 2(q^2-1) or more, which
    read the zero word.  Without such a symmetry, or a record, d = 1 and
    every column is its own orbit.  Blocks of rows read about
    _GATHER_ENTRIES words.  A block sums the entries with j >= its first
    row; left of that, as <g_i, g_j>_H = <g_j, g_i>_H^q (y^(q^2) = y), it
    takes the Frobenius image of entries already summed.
    """
    tower = code.tower
    k = code.k
    units = tower.n_units
    g, d, c = code.ask("gram_terms") or (code.g, 1, None)
    lhs = tower._word_slots(g)
    rhs = np.where(lhs < units, lhs * tower.q % units, lhs)  # the slots of G^q
    if d > 1:
        reps = len(c)
        lhs[:, :reps] += tower._code_of(d % tower.p)
        lhs[:, :reps] %= units
    m = np.empty((k, k), dtype=np.int32)
    rows = max(1, _fields._GATHER_ENTRIES // max(1, k * g.shape[1]))
    for start in range(0, k, rows):
        stop = start + rows
        if start:
            m[start:stop, :start] = tower.vfrob(m[:start, start:stop].T)
        right = rhs[None, start:, :]
        if d > 1:
            # 2(q^2-1) times a nonzero residue of i + qj + c_r reads the zero word
            row = np.arange(start, min(stop, k))[:, None, None]
            col = np.arange(start, k)[:, None]
            right = np.repeat(right, len(row), axis=0)
            right[:, :, :reps] += (row + tower.q * col + c) % d * (2 * units)
        m[start:stop, start:] = tower._sum_products(lhs[start:stop, None, :], right)
    nonzero = m != tower.zero_code
    if np.count_nonzero(nonzero):
        i, j = divmod(int(nonzero.argmax()), k)
        first = (i, j, tower.format(int(m[i, j])))
        return GramCertificate(m, False, first, _digest(code, m))
    return GramCertificate(m, True, None, _digest(code, m))


def _digest(code: LinearCode, gram: np.ndarray) -> str:
    h = sha256()
    h.update(f"q2={code.tower.q2} n={code.n} k={code.k};".encode())
    h.update(np.ascontiguousarray(gram, dtype=np.int32).tobytes())
    return h.hexdigest()


# -- distance oracles ------------------------------------------------------------


def _word_blocks(tower: FieldTower, heads: np.ndarray, rows: np.ndarray):
    """heads + every combination of rows, one vadd per word, in blocks of at most _CHUNK words."""
    if len(rows) == 0:
        yield heads
        return
    # the zero scalar comes first, so every extension of heads begins with heads itself
    scalars = np.roll(np.arange(tower.q2, dtype=np.int32), 1)
    step = max(1, _CHUNK // len(heads))
    for s in range(0, tower.q2, step):
        scaled = tower.vmul(scalars[s : s + step, None], rows[0])
        more = tower.vadd(scaled[:, None], heads[None]).reshape(-1, heads.shape[1])
        yield from _word_blocks(tower, more, rows[1:])


def exhaustive_distance(code: LinearCode) -> DistanceResult:
    """True minimum weight over the (q^{2k}-1)/(q^2-1) projective codewords
    (scaling preserves weight), weighed a pencil at a time.  Each projective word
    is the last row t = g[k-1] alone or h + a.t, with h a projective word of rows
    0..k-2 (g[i] plus every combination of the rows below it) and a in GF(q^2).
    Column j of h + a.t is zero for exactly one a, a = -h_j/t_j, where t_j != 0,
    and for every a or none where t_j = 0, as h_j is zero or not.  So one
    bincount over (head, -h_j/t_j) weighs all q^2 words of every head in a block
    of at most _CHUNK heads; the work is (q^{2k-2}-1)/(q^2-1) heads of n entries.
    Zero words, which only dependent rows give, are not counted.

    The search may stop at any word whose weight meets a certified floor on
    d(C), since no word is lighter.  The search weighs a record's light word
    first (Record.light_word): if that meets the record's floor, it is the
    answer, method goppa-light-word, and no word is enumerated, whatever the
    code's size.  Otherwise a code of more than config.EXHAUSTIVE_CAP words,
    q^{2k}, raises CapExceeded."""
    tower = code.tower
    zero = tower.zero_code
    q2, k, n = tower.q2, code.k, code.n
    if k == 0:
        return DistanceResult(n + 1, True, None, "degenerate")
    light = code.ask("light_word")
    if light is not None:
        return light
    total = q2 ** k
    if total > config.EXHAUSTIVE_CAP:
        raise CapExceeded(total, config.EXHAUSTIVE_CAP)
    t = code.g[k - 1]
    live = t != zero
    root = tower.vneg(tower.vinv(t[live]))  # h_j * root_j = -h_j/t_j
    best, witness = int(live.sum()) or n + 1, t
    for i in range(k - 1):
        for heads in _word_blocks(tower, code.g[i : i + 1], code.g[i + 1 : k - 1]):
            keys = tower.vmul(heads[:, live], root) + q2 * np.arange(len(heads))[:, None]
            hits = np.bincount(keys.ravel(), minlength=len(heads) * q2).reshape(-1, q2)
            weights = n - (heads[:, ~live] == zero).sum(axis=1)[:, None] - hits
            weights[weights == 0] = n + 1  # a dependent generator row gives the zero word
            pos = int(np.argmin(weights))
            if weights.flat[pos] < best:
                b, a = divmod(pos, q2)
                best, witness = int(weights.flat[pos]), tower.vadd(heads[b], tower.vmul(a, t))
    return DistanceResult(best, True, tuple(int(v) for v in witness) if best <= n else None, "exhaustive")


def _unrank(r: int, n: int, w: int) -> tuple:
    """The w-subset of range(n) at position r of itertools.combinations order.
    With i elements left to place from column lo on, comb(n - lo, i) -
    comb(n - 1 - c, i) subsets place the next one at or before c, so it is
    the first c where that passes r, found by bisection: O(w log n) comb calls."""
    combo, lo = [], 0
    for i in range(w, 0, -1):
        total = comb(n - lo, i)
        c = bisect_right(range(n - i + 1), r - total, lo=lo, key=lambda x: -comb(n - 1 - x, i))
        r -= total - comb(n - c, i)
        combo.append(c)
        lo = c + 1
    return tuple(combo)


def _prefix_projections(tower: FieldTower, g: np.ndarray, pre: np.ndarray):
    """Forward elimination of g on the columns of each lex-ordered prefix in pre.

    Returns (m, parent): m[parent[i]] is rows c.. of the eliminated matrix of
    prefix i, c = pre.shape[1], its projection modulo span(prefix).  Step c
    depends only on the first c+1 columns of a prefix, and lex order makes the
    prefixes that share them adjacent, so step c runs once per distinct
    (c+1)-prefix on a copy of its parent's rows c.., and rows that are no
    longer needed are dropped.
    """
    zero = tower.zero_code
    m = g[None]
    parent = np.zeros(len(pre), dtype=np.int64)
    for c in range(pre.shape[1]):
        new = np.ones(len(pre), dtype=bool)
        new[1:] = (pre[1:, : c + 1] != pre[:-1, : c + 1]).any(axis=1)
        m = m[parent[new]]
        parent = np.cumsum(new) - 1
        pc = pre[new, c]
        ar = np.arange(len(m))
        src = np.argmax(m[ar, :, pc] != zero, axis=1)
        pivot_rows = m[ar, src]
        m[ar, src] = m[:, 0].copy()  # explicit copy: src may alias row 0
        m = m[:, 1:]
        factors = tower.vdiv(tower.vneg(m[ar, :, pc]), pivot_rows[ar, pc][:, None])
        m = tower.vadd(m, tower.vmul(factors[:, :, None], pivot_rows[:, None, :]))
    return m, parent


def _prefix_groups(n: int, w: int, final):
    """(groups, count) of the w-scan: the (w-3)-subsets of range(n-3) in lex
    order, each followed by the (w-2)-prefixes it starts, as a (groups, w-3)
    int64 array, and how many of those prefixes each group starts.  With a
    final w-subset, only the groups up to final[:w-3] and the prefixes up to
    final[:w-2]: the ones whose first w-subset is at most final.  Built one
    column at a time, each cut after the row that equals final's so far."""
    groups = np.zeros((1, 0), dtype=np.int64)
    for i in range(w - 3):
        top = groups[:, -1] if i else np.array([-1])
        per = n - w + i - top  # next columns c: top < c <= n-w+i leaves room for w-4-i more below n-3
        c = np.arange(int(per.sum())) + np.repeat(n - w + i + 1 - per.cumsum(), per)
        groups = np.column_stack([groups.repeat(per, axis=0), c])
        if final is not None:  # the last row's parent is final[:i]: drop its children past final[i]
            groups = groups[: len(groups) - (n - w + i - final[i])]
    count = n - 3 - (groups[:, -1] if w > 3 else np.array([-1]))  # the last prefix column runs to n - 3
    if final is not None:
        count[-1] -= n - 3 - final[w - 3]
    return groups, count


def _prefix_chunks(tower: FieldTower, g: np.ndarray, w: int, final):
    """The (w-2)-prefixes up to final[:w-2] (all when final is None) and their
    projected matrices, in lex-ordered chunks (_chunk_frame) of whole groups
    of _prefix_groups.  The first chunk holds the groups of the first
    _FIRST_PREFIXES prefixes, so a scan that collides there eliminates nothing
    past them.  Each later one holds as many groups as keep their projected
    matrices within _LIVE_ENTRIES // 8 exponent codes, at least one.  w >= 3."""
    k, n = g.shape
    groups, count = _prefix_groups(n, w, final)
    opens = count.cumsum() - count  # the first prefix of each group, counted over the w
    a, z = 0, int(np.searchsorted(opens, _FIRST_PREFIXES - 1, side="right"))
    step = max(1, _LIVE_ENTRIES // 8 // ((k - w + 3) * n))
    while a < len(groups):
        yield _chunk_frame(tower, g, groups[a:z], count[a:z])
        a, z = z, z + step


def _chunk_frame(tower: FieldTower, g: np.ndarray, groups: np.ndarray, count: np.ndarray):
    """(groups, parent, last, m) for the count[i] prefixes of each of
    consecutive groups: prefix i is groups[parent[i]] + (last[i],), and
    m[parent[i]] is its group's projected matrix, one elimination per group
    (_prefix_projections)."""
    m, parent = _prefix_projections(tower, g, groups)
    top = groups[:, -1] if groups.shape[1] else np.array([-1])
    last = np.arange(int(count.sum())) + np.repeat(top + 1 - (count.cumsum() - count), count)  # top + 1, top + 2, ...
    return groups, parent.repeat(count), last, m


def _block_frame(tower: FieldTower, chunk, lo: int, hi: int, starts: np.ndarray):
    """(m, rows, factors) for the prefixes lo:hi of a chunk (_chunk_frame), the
    entries of block prefix b numbered from starts[b].  With M its projected
    matrix and s the first row where M[s, last[b]] != 0, coordinate r of the
    point of column j modulo span(prefix b) is row sel[r+1] of M minus
    factors[r, b] times row sel[0] = s, where sel swaps rows 0 and s (s is 0
    but for about 1/q^2 of the prefixes); rows[r, b] + e is the flat index in
    m of row sel[r] of M at the column of entry e."""
    _, parent, last, m = chunk
    rows, n = m.shape[1:]
    parent, last = parent[lo:hi], last[lo:hi]
    at = (parent * m[0].size + last) + np.arange(0, rows * n, n)[:, None]  # rows of M at the last column
    col = m.take(at)
    swap = np.flatnonzero(col[0] == tower.zero_code)
    if swap.size:
        s = (col[:, swap] != tower.zero_code).argmax(axis=0)
        at[0, swap], at[s, swap] = at[s, swap], at[0, swap]
        col[0, swap], col[s, swap] = col[s, swap], col[0, swap]
    return m, at + 1 - starts, tower.vdiv(tower.vneg(col[1:]), col[0])


_KEY_MAX = np.iinfo(np.int64).max


def _exact_keys(b: np.ndarray, points, q2: int, out: np.ndarray | None = None) -> np.ndarray:
    """One int64 per entry of (b, points), points holding one coordinate per
    row, in the entries' lexicographic order, so only equal entries share a
    key: b and the coordinates (exponent codes < q2) as radix-q2 digits, built
    in out when given, the key so far replaced by its dense rank first
    whenever the next digit could overflow int64."""
    key = np.empty(len(b), dtype=np.int64) if out is None else out
    np.copyto(key, b)
    bound = int(key.max(initial=0))
    for digit in points:
        if bound > (_KEY_MAX - (q2 - 1)) // q2:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct) - 1
        key *= q2
        key += digit
        bound = bound * q2 + q2 - 1
    return key


def _scan_arrays(entries: int, coordinates: int) -> list:
    """Flat int64 and int32 arrays for _block_arrays(entries, coordinates) and smaller."""
    return [np.empty(r * entries, dtype=d) for r, d in ((4 + coordinates, np.int64), (2 + 2 * coordinates, np.int32))]


def _block_arrays(entries: int, coordinates: int, flat: list):
    """Contiguous (rows, entries) views of flat for _point_keys: int64 rows b, keys,
    sorted keys, the gather indices of the head and each coordinate; int32 rows
    for the leads, the head, the coordinates and their products."""
    wide, narrow = 4 + coordinates, 2 + 2 * coordinates
    return flat[0][: wide * entries].reshape(wide, entries), flat[1][: narrow * entries].reshape(narrow, entries)


def _point_keys(tower: FieldTower, frame, e: np.ndarray, wide: np.ndarray, narrow: np.ndarray):
    """(keys, whether two agree) of the entries e of a block (_block_frame), in
    arrays of _block_arrays with the prefixes b in wide[0]: exact keys of b and
    the first coordinates of each point, scaled to lead with t^-1 (0 stays 0)."""
    m, rows, factors = frame
    short = len(wide) - 4
    b, keys, at = wide[0], wide[1], wide[3:]
    lead, points, product = narrow[0], narrow[1 : 2 + short], narrow[2 + short :]
    m.take(np.add(rows[: 1 + short].take(b, axis=1, out=at, mode="clip"), e, out=at), out=points, mode="clip")
    heads, points, at = points[0], points[1:], at[1:]
    tower.vmul(factors[:short].take(b, axis=1, out=product, mode="clip"), heads, out=product, at=at)
    tower.vadd(points, product, out=points, at=at)
    # t^(n-1-c) scales the lead, the first nonzero coordinate c, to t^-1 (n = q^2-1)
    zero, n = tower.zero_code, tower.n_units
    np.subtract(n - 1, points[0], out=lead)
    unset = np.nonzero(points[0] == zero)[0]
    if unset.size:  # the lead is further on, or all are zero and 1 keeps them zero
        rest = points[1:, unset]
        lead[unset] = np.maximum(n - 1 - rest[(rest != zero).argmax(axis=0), np.arange(unset.size)], 0)
    tower.vmul(points[1:], lead, out=points[1:], at=at[1:])
    np.maximum(points[0], n - 1, out=points[0])  # the first coordinate scaled: t^-1, or 0 stays 0
    keys = _exact_keys(b, points, tower.q2, out=keys)
    return keys, _repeats(keys, wide[2])


def _repeats(keys: np.ndarray, ordered: np.ndarray) -> bool:
    """Whether two keys agree: a plain sort, in ordered, and a compare of neighbours."""
    np.copyto(ordered, keys)
    ordered.sort()
    return bool((ordered[1:] == ordered[:-1]).any())


def _first_collision(tower: FieldTower, g: np.ndarray, w: int, final, arrays):
    """Lex-first dependent w-subset of the columns of g among the (w-2)-prefixes
    up to final[:w-2] (all when final is None), or None; w >= 3.  Every
    (w-1)-subset must be independent, so the projections modulo a prefix's
    span are nonzero.

    Prefixes and their eliminations come in the chunks of _prefix_chunks, and
    each chunk in blocks of entries (prefix b, column j > b's last column).
    The w's first block holds its first _FIRST_PREFIXES prefixes; every other
    one as many as keep the block within _LIVE_ENTRIES exponent codes, k-w+2
    coordinates per entry beside the chunk's matrices, at least one, and it
    ends at its chunk's end.  A block finds its prefixes' pivots
    (_block_frame) and runs in the scan's arrays (two flat ones and an arange
    grown by need).  Each entry gets a short key of b and the first
    _SHORT_KEY coordinates of its point, or all (_point_keys); parallel points
    share it, so only entries whose short keys repeat get full keys.  Entries
    ascend by prefix, then by column, and equal full keys share a prefix, so
    the first entry whose full key repeats and its next match are the
    lex-first dependent set (_first_repeat).
    """
    k, n = g.shape
    coordinates = k - w + 2
    short = _SHORT_KEY if coordinates >= 2 * _SHORT_KEY else coordinates
    first_block = True
    for chunk in _prefix_chunks(tower, g, w, final):
        groups, parent, last, m = chunk
        count = n - 1 - last  # entries of each prefix
        ends = count.cumsum()
        room = (_LIVE_ENTRIES - m.size) // coordinates  # entries a block may hold beside the matrices
        lo = start = 0  # start: the chunk's entries before the block
        while lo < len(last):
            hi = len(last)  # the rest of the chunk, when it fits
            if ends[-1] - start > room:
                hi = max(lo + 1, int(np.searchsorted(ends, start + room, side="right")))
            if first_block:  # the w's first: its first _FIRST_PREFIXES prefixes
                hi, first_block = min(hi, _FIRST_PREFIXES), False
            # entry e of the block reads column e - starts[b] + last[b] + 1 of its prefix b
            stops = ends[lo:hi] - start
            starts = stops - count[lo:hi]
            entries = int(stops[-1])
            if len(arrays[2]) < entries:
                arrays[2] = np.arange(2 * entries)
            e = arrays[2][:entries]
            wide, narrow = _block_arrays(entries, short, arrays)
            b = wide[0]
            b.fill(0)
            b[stops[:-1]] = 1
            np.add.accumulate(b, out=b)
            frame = _block_frame(tower, chunk, lo, hi, starts)
            keys, repeated = _point_keys(tower, frame, e, wide, narrow)
            if repeated and short < coordinates:
                _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
                e = np.flatnonzero(counts[inverse] > 1)
                wide, narrow = _block_arrays(len(e), coordinates, _scan_arrays(len(e), coordinates))
                b = np.take(b, e, out=wide[0])
                keys, repeated = _point_keys(tower, frame, e, wide, narrow)
            if repeated:
                i, partner = _first_repeat(keys)
                p = lo + int(b[i])
                first = int(last[p]) + 1 - int(starts[b[i]])  # the column of entry 0 of prefix p
                prefix = tuple(int(c) for c in groups[parent[p]]) + (int(last[p]),)
                return prefix + (int(e[i]) + first, int(e[partner]) + first)
            lo, start = hi, start + entries
        del chunk, m, frame  # the next chunk is built with this one freed
    return None


def _column_keys(tower: FieldTower, g: np.ndarray) -> np.ndarray:
    """One key per column of g, which has no zero column, equal for two
    columns exactly when they are parallel: the column scaled so that its
    first nonzero entry is 1, as an exact key (_exact_keys)."""
    lead = g[(g != tower.zero_code).argmax(axis=0), np.arange(g.shape[1])]
    return _exact_keys(np.zeros(g.shape[1], dtype=np.int64), tower.vdiv(g, lead), tower.q2)


def _first_repeat(keys: np.ndarray) -> tuple:
    """The lex-first pair of positions with equal keys, of keys known to
    repeat: the first position whose key comes again, and where it comes next."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    at = np.flatnonzero(ordered[1:] == ordered[:-1])
    i = at[np.argmin(order[at])]
    return int(order[i]), int(order[i + 1])


def dual_distance_by_columns(code: LinearCode) -> DistanceResult:
    """d(C^perp) = size of the smallest linearly dependent column set of G.

    Scans w = 1, 2, ... up to k+1, where dependence is guaranteed; a square
    code (k = n) has no k+1 columns, so its exact k+1 comes with no witness.  Once
    every (w-1)-subset is independent, S + {j, l} with |S| = w-2 is
    dependent exactly when columns j and l, projected modulo span(S), are
    parallel.  At w = 2, S is empty, and _first_repeat reads the lex-first
    pair of equal column keys (a record's Record.parallel_keys, else
    _column_keys).  From w = 3 on, the eliminations that depend only on the
    prefixes S run once per w, in lex-ordered chunks of whole groups
    (_prefix_chunks): g is eliminated on all but the last column of S once
    per distinct (w-3)-prefix.  The entries (S, later column j) come in
    blocks that slice a chunk, a first block of a few prefixes and then
    blocks that fill a cap on what a block holds, all in arrays made here for
    the largest block the budget lets the scan reach; each block finds the
    pivot row and factors of its prefixes' last columns, and only there do
    points become exact int64 keys (S first).  The scan stops at the first
    block where keys repeat, and _first_repeat reads its witness.  A stable
    sort runs only on keys that a plain sort showed to repeat.

    The budget is config.ops_cap() (AGQ_CAP_OPS) and counts nominal work:
    k*w*2 per w-subset, charged in lex-ordered blocks of _CHUNK subsets, with
    a block started only if it fits.  That fixes final, the last w-subset the
    budget certifies (_unrank), and the scan reads the prefixes up to
    final[:w-2]; a dependent set past final gives a lower bound `w` with
    exact=False, as does running out of budget after certifying all subsets
    of size < w independent.
    """
    tower = code.tower
    zero = tower.zero_code
    g = np.ascontiguousarray(code.g)
    k, n = code.k, code.n
    budget = config.ops_cap()
    if k == 0:
        return DistanceResult(1, True, (0,), "column-scan")
    zero_cols = np.nonzero((g == zero).all(axis=0))[0]
    if zero_cols.size:
        return DistanceResult(1, True, (int(zero_cols[0]),), "column-scan")
    # w-subsets certified, w = 2, 3, ..., and the largest block of w >= 3 (_first_collision)
    limits, spent, entries = [], 0, 0
    for w in range(2, k + 1):
        unit, total = k * w * 2, comb(n, w)
        limits.append(total if total * unit <= budget - spent else max(0, budget - spent) // (_CHUNK * unit) * _CHUNK)
        if w > 2:
            entries = max(entries, min(comb(n, w - 1), max(_LIVE_ENTRIES // (k - w + 2), n)))
        if limits[-1] < total:
            break
        spent += total * unit
    arrays = [*_scan_arrays(entries, min(k - 1, 2 * _SHORT_KEY - 1)), np.arange(0)]
    for w, limit in enumerate(limits, start=2):
        # every subset of size < w is certified independent, so d >= w
        if not limit:  # and no w-subset is
            return DistanceResult(w, False, None, "column-scan-lower-bound")
        final = _unrank(limit - 1, n, w) if limit < comb(n, w) else None  # the last w-subset certified
        if w == 2:
            keys = code.ask("parallel_keys")
            keys = _column_keys(tower, g) if keys is None else keys
            witness = _first_repeat(keys) if _repeats(keys, np.empty_like(keys)) else None
        else:
            witness = _first_collision(tower, g, w, final, arrays)
        if witness is not None and (final is None or witness <= final):
            return DistanceResult(w, True, witness, "column-scan")
        if final is not None:
            return DistanceResult(w, False, None, "column-scan-lower-bound")
    return DistanceResult(k + 1, True, tuple(range(k + 1)) if k < n else None, "column-scan")


def is_mds(code: LinearCode) -> tuple[bool | None, tuple | None, str, DistanceResult]:
    """Is every k-subset of the columns of G independent, and what is d(C^perp)?

    The two questions are one: every k columns are independent exactly when
    d(C^perp) = k+1 (Singleton).  This is the one place the verdict is made,
    in order: the first record's floor (Record.dual_floor) of k+1 is MDS by
    its method; a lower floor sends the code to the column scan first, whose
    exact d(C^perp) decides the verdict as below, and only a lower bound goes
    on; a reduced form [I | A] whose A has at most one column ("systematic")
    or is generalized Cauchy ("cauchy", _cauchy_verify) is MDS, while a pivot
    past column k-1 or a zero of A is a singular k-subset ("systematic"), and
    the scan then gives only d(C^perp).  Otherwise the column scan
    (AGQ_CAP_OPS caps it) decides: exact k+1 is MDS, an exact d <= k is not
    (the dependent set padded with the lowest unused columns is a singular
    k-subset), and a lower bound leaves the flag None.  Returns (flag,
    singular_witness_columns, method, dual_distance).
    """
    k, n = code.k, code.n
    if k == 0:
        return True, None, "degenerate", DistanceResult(1, True, None, "mds-singleton")
    singleton = DistanceResult(k + 1, True, None, "mds-singleton")
    floor = code.ask("dual_floor")
    if floor is not None and floor[0] == k + 1:
        return True, None, floor[1], singleton
    dd = dual_distance_by_columns(code) if floor is not None else None
    if dd is not None and dd.exact:
        return _scan_verdict(code, dd)
    r, pivots = code.reduced
    a = r[:, k:]
    zeros = np.argwhere(a == code.tower.zero_code)
    singular = None
    if pivots != tuple(range(k)):
        singular = tuple(range(k))
    elif zeros.size:  # a[i, j] = 0: column k+j is in the span of the unit columns but i
        i, j = (int(v) for v in zeros[0])
        singular = tuple(c for c in range(k) if c != i) + (k + j,)
    elif n - k <= 1:  # no square submatrix beyond the nonzero entries
        return True, None, "systematic", singleton
    elif _cauchy_verify(code.tower, a):
        return True, None, "cauchy", singleton
    if dd is None:
        dd = dual_distance_by_columns(code)
    if singular is not None:
        return False, singular, "systematic", dd
    if not dd.exact:
        return None, None, dd.method, dd
    return _scan_verdict(code, dd)


def _scan_verdict(code: LinearCode, dd: DistanceResult) -> tuple[bool, tuple | None, str, DistanceResult]:
    """is_mds's verdict from an exact d(C^perp): MDS at k+1, else the
    dependent set padded with the lowest unused columns, a singular k-subset."""
    k = code.k
    if dd.value == k + 1:
        return True, None, dd.method, dd
    pad = islice((c for c in range(code.n) if c not in dd.witness), k - dd.value)
    return False, tuple(sorted(dd.witness + tuple(pad))), dd.method, dd


def _cauchy_verify(tower: FieldTower, a: np.ndarray) -> bool:
    """Is a (at least 2 x 2) a generalized Cauchy matrix c_i*d_j/(x_i - y_j)
    with all x_i and y_j distinct, one of them possibly the point at infinity
    of the projective line (a row or a column c_i*d_j)?

    In homogeneous coordinates such a matrix is a[i][j] = 1/det(P_i, Q_j) for
    points P_i, Q_j of the line, so its entrywise inverse b = 1/a is X.Y with
    X of shape k x 2 (the P_i) and Y of shape 2 x m (the Q_j).  Every square
    submatrix of a is then a Cauchy determinant, nonzero exactly when its row
    points are distinct and so are its column points.  So a verifies when it
    has no zero entry, b has rank 2, and no two rows and no two columns of b
    are proportional: with rank 2, rows i and i' of b are proportional exactly
    when P_i = P_i', and columns j and j' exactly when Q_j = Q_j'.
    """
    if (a == tower.zero_code).any():
        return False
    b = tower.vinv(a)
    # rref steps once per column: take the side with fewer
    if rank(tower, b if b.shape[1] <= b.shape[0] else b.T) != 2:
        return False
    for lines in (b, b.T):
        # rows scaled to lead with 1 are equal exactly when proportional; sort and
        # compare neighbours, as np.unique imports numpy.ma on its first call
        scaled = tower.vdiv(lines, lines[:, :1])
        scaled = scaled[np.lexsort(scaled.T)]
        if (scaled[1:] == scaled[:-1]).all(axis=1).any():
            return False
    return True


# -- the certificate ----------------------------------------------------------------


def certify(code: LinearCode) -> Certificate:
    """Gram certificate, MDS verdict, d(C^perp) and quantum distance of one code.

    The Hermitian Gram check comes first, and a nonzero Gram raises
    GramNonzero at its first nonzero entry.  is_mds then decides MDS-ness and
    d(C^perp), and _quantum_distance checks on the scan's witness whether
    d(C^perp) is also the quantum distance; d(C) waits for Certificate.distance.
    """
    gram = hermitian_gram(code)
    if not gram.all_zero:
        raise GramNonzero(*gram.first_nonzero)
    mds, witness, method, dd = is_mds(code)
    return Certificate(code, gram, mds, witness, method, dd, _quantum_distance(code, dd))


def _quantum_distance(code: LinearCode, dd: DistanceResult) -> DistanceResult:
    """min wt(C^perp_H \\ C) for a Hermitian self-orthogonal C with d(C^perp) = dd.

    Frobenius keeps weights, so d(C^perp_H) = d(C^perp) = d bounds the quantum
    distance from below, and it is exact when a word of weight d in C^perp_H
    lies outside C.  An MDS C (d = k+1) has no nonzero word lighter than
    n-k+1 > k+1 when n > 2k, so it is pure.  With n = 2k, C^perp_H = C and the
    distance of an [[n, 0]] code is d(C^perp_H) itself.  Otherwise the scan's
    witness S, a minimal dependent column set, gives one such word: the kernel
    of G[:, S] is a word x of C^perp on S, and x^q lies in C^perp_H.  A nonzero
    word of C inside S lies in C^perp_H too, so its q-th power is in that
    kernel and the word is a multiple of x^q.  Hence x^q lies in C exactly
    when the columns outside S have rank < k.  A record may show rank k on
    n - |S| columns (LinearCode.full_rank_on); otherwise one rank tests it.
    A rank below k reports d as a lower bound, with method impure-lower-bound.
    """
    if not dd.exact or dd.value == code.k + 1 or code.n == 2 * code.k:
        return dd
    if code.full_rank_on(code.n - len(dd.witness)):
        return dd
    if rank(code.tower, np.delete(code.g, dd.witness, axis=1)) == code.k:
        return dd
    return replace(dd, exact=False, method="impure-lower-bound")


# -- matrix text format -----------------------------------------------------------


def export_matrix(code: LinearCode) -> str:
    tower = code.tower
    lines = [f"q2={tower.p}^{2 * tower.m} n={code.n} k={code.k}"]
    for i in range(code.k):
        lines.append(" ".join(tower.format(c) for c in code.g[i].tolist()))
    return "\n".join(lines) + "\n"


def import_matrix(text: str, systematic_prefix: bool = False) -> LinearCode:
    """Parse the matrix text format; optionally prepend the identity block."""
    lines = [ln for ln in text.splitlines()]
    # skip leading blank lines
    idx = 0
    while idx < len(lines) and not lines[idx].strip():
        idx += 1
    if idx == len(lines):
        raise ParseError(1, 1, "empty matrix file")
    header = lines[idx].strip()
    parts = header.split()
    fields: dict[str, str] = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(idx + 1, 1, f"malformed header token {part!r}")
        key, _, val = part.partition("=")
        fields[key] = val
    try:
        p_str, _, deg_str = fields["q2"].partition("^")
        p = int(p_str)
        deg = int(deg_str)
        n = int(fields["n"])
        k = int(fields["k"])
    except (KeyError, ValueError):
        raise ParseError(idx + 1, 1, "header must read 'q2=<p>^<2m> n=<n> k=<k>'") from None
    if deg % 2 != 0:
        raise ParseError(idx + 1, 1, f"q2 degree {deg} is odd; expected 2m")
    if n < 1 or k < 1:
        raise ParseError(idx + 1, 1, f"header needs n >= 1 and k >= 1, got n={n} k={k}")
    tower = build_tower(p, deg // 2)
    rows = []
    lineno = idx + 1
    for raw in lines[idx + 1 :]:
        lineno += 1
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) != n:
            raise ParseError(lineno, 1, f"expected {n} entries, found {len(tokens)}")
        row = []
        for col, tok in enumerate(tokens, start=1):
            try:
                row.append(tower.parse(tok))
            except ValueError as exc:
                raise ParseError(lineno, col, str(exc)) from None
        rows.append(row)
    if len(rows) != k:
        raise ParseError(lineno, 1, f"expected {k} rows, found {len(rows)}")
    g = np.asarray(rows, dtype=np.int32)
    if systematic_prefix:
        eye = np.full((k, k), tower.zero_code, dtype=np.int32)
        np.fill_diagonal(eye, 0)
        g = np.hstack([eye, g])
    return LinearCode(tower, g)
