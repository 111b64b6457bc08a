"""Generator-matrix algebra over GF(q^2).

Everything here is oracle-grade: Gram certification, distances and MDS
checks are computed from the matrix, never assumed from the way a code
was built.  That holds for shortcuts too: each code's one structure record,
LinearCode.structure, recognises a twisted-Vandermonde matrix and the orbits
of a multiplicative symmetry on its own codes, points and norms alike, and
the rank check, the Gram sum (once per orbit) and is_mds, where alone
MDS-ness is decided, all read it.  certify's Certificate is the one record
of a code: it holds the code, and its ``distance`` decides d(C) on first
read.  Matrices are numpy int32 arrays of exponent codes (tower convention:
code q^2-1 is zero), so the hot loops are table lookups.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cached_property
from math import comb

import numpy as np

from . import config
from . import fields as _fields
from .errors import CapExceeded, GramNonzero, ParseError, RankDefect
from .fields import FieldTower, build_tower

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
# exponent codes a column-scan block may hold, its projected matrices and points
# (_prefix_blocks), which sizes the arrays every block of a scan runs in
_LIVE_ENTRIES = 1 << 16
_FIRST_PREFIXES = 4  # prefixes in the column scan's first block; each later block doubles
# coordinates in a column-scan entry's short key (_first_collision), where that
# leaves out at least as many: entries whose short keys repeat get full keys too
_SHORT_KEY = 3


class LinearCode:
    """[n, k] code over GF(q^2) held as a full-rank generator matrix.

    ``structure`` is the one record of the matrix's shape, which _structure
    finds once, here, from the codes alone: None unless G = (v_l * alpha_l^i)
    with 0 < k <= n, nonzero v_l and distinct alpha_l, and otherwise the
    (columns, d, c) that hermitian_gram sums over.  Every k x k minor of such
    a G is a v-scaled Vandermonde determinant, nonzero, so its rank is k
    without rref, and is_mds reads the record as an MDS certificate.  With
    verify_rank, a G without the record is row-reduced and a rank below k
    raises RankDefect; is_mds reads the same ``reduced`` form.
    """

    def __init__(self, tower: FieldTower, g: np.ndarray, provenance: str = "", verify_rank: bool = True):
        g = np.asarray(g, dtype=np.int32)
        if g.ndim != 2:
            raise ValueError("generator matrix must be 2-dimensional")
        self.tower = tower
        self.g = g
        self.provenance = provenance
        self.k, self.n = g.shape
        self.structure = _structure(tower, g)
        if verify_rank and self.k > 0 and self.structure is None:
            r = len(self.reduced[1])
            if r != self.k:
                raise RankDefect(r, self.k)

    @cached_property
    def reduced(self) -> tuple[np.ndarray, tuple]:
        """rref(G): the reduced row echelon form and its pivot columns."""
        return rref(self.tower, self.g)

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_({self.tower.q}^2)<{self.provenance}>"


def _structure(tower: FieldTower, g: np.ndarray) -> tuple[np.ndarray, int, np.ndarray | None] | None:
    """LinearCode.structure: None unless G = (v_l * alpha_l^i) with 0 < k <= n,
    v_l != 0 and alpha_l = G[1,l]/G[0,l] distinct; otherwise (columns, d, c),
    the columns of G that hermitian_gram sums over, one per orbit of d
    points, and the orbits' exponents c_r.

    The alpha_l are sorted once, unless they already ascend.  Their nonzero
    codes are fixed by the group <t^s> of order d = (q^2-1)/s that
    fields._stabilizer_step checks on them, and representative r stands for
    the points alpha_r * t^(ms), m < d.  If the norms N_l = v_l^(q+1) step by
    a fixed multiple s * c_r along each orbit, log N(alpha_r t^(ms)) =
    log N(alpha_r) + m * s * c_r, which is checked on G[0], the orbit adds
    sum_m (t^s)^(m (i + qj + c_r)), d or 0, times the representative's
    product: the columns are the representatives, then the zero point if
    present.  Otherwise, and for k = 1, they are all of G, d = 1 and c is None.
    """
    zero, units = tower.zero_code, tower.n_units
    k, n = g.shape
    if not 0 < k <= n or np.count_nonzero(g[0] == zero):
        return None
    whole = (g, 1, None)
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
    return np.concatenate((g[:, :reps], g[:, size:]), axis=1), d, c


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


@dataclass(frozen=True)
class Certificate:
    """What certify() decided about one code whose Gram matrix is all zero, with
    the code itself: the one record a catalog entry is built from."""

    code: LinearCode
    gram: GramCertificate
    mds: bool | None  # None: the budget left it open
    mds_witness: tuple | None  # k columns with a singular minor
    mds_method: str
    dual_distance: DistanceResult  # d(C^perp) = d(C^perp_H)
    quantum_distance: DistanceResult  # min wt(C^perp_H \ C)

    @cached_property
    def distance(self) -> DistanceResult | None:
        """d(C), decided here alone and on first read: n-k+1 (Singleton) when C
        is MDS, else exhaustive_distance, or None past config.EXHAUSTIVE_CAP words."""
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


def evaluation_code(
    tower: FieldTower, monomials: tuple, x, y, twist, provenance: str = "evaluation"
) -> LinearCode:
    """Rows v_l * f_i(P_l) for the f_i = x^a y^b of the (a, b) in monomials.

    x, y and twist are code arrays, one entry per point P_l = (x_l, y_l).
    Raises RankDefect when the evaluation vectors are dependent.
    """
    if len(twist) != len(x):
        raise ValueError("twist length != number of points")
    a, b = np.asarray(monomials, dtype=np.int64).reshape(-1, 2).T
    return LinearCode(tower, _monomial_rows(tower, twist, [(x, a), (y, b)]), provenance=provenance)


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
    the tower derives from its exp table, and each entry is an integer sum
    of those words (tower._sum_products).  The sum runs over one column per
    orbit of a multiplicative symmetry checked on the matrix (code.structure):
    an orbit of d columns adds d * [d | i + qj + c_r] * G[i,r] * G[j,r]^q for
    its representative r, so its left factor is scaled by d mod p and the
    entries where d does not divide i + qj + c_r are pushed to slot sums of
    2(q^2-1) or more, which read the zero word.  Without such a symmetry
    d = 1 and every column is its own orbit.  Blocks of rows read about
    _GATHER_ENTRIES words.  A block sums the entries with j >= its first
    row; left of that, as <g_i, g_j>_H = <g_j, g_i>_H^q (y^(q^2) = y), it
    takes the Frobenius image of entries already summed.
    """
    tower = code.tower
    k = code.k
    units = tower.n_units
    g, d, c = code.structure or (code.g, 1, None)
    lhs = tower._word_slots(g)
    rhs = np.where(lhs < units, lhs * tower.q % units, lhs)  # the slots of G^q
    if d > 1:
        reps = len(c)
        lhs[:, :reps] += tower._log_val[d % tower.p]
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
    Zero words, which only dependent rows give, are not counted.  A code of
    more than config.EXHAUSTIVE_CAP words, q^{2k}, raises CapExceeded."""
    tower = code.tower
    zero = tower.zero_code
    q2, k, n = tower.q2, code.k, code.n
    if k == 0:
        return DistanceResult(n + 1, True, None, "degenerate")
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


def _lex_rank(combo: tuple, n: int) -> int:
    """Position of a sorted subset of range(n) in itertools.combinations order."""
    w = len(combo)
    return comb(n, w) - 1 - sum(comb(n - 1 - c, w - i) for i, c in enumerate(combo))


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


def _block_frame(tower: FieldTower, g: np.ndarray, pre: np.ndarray, first: np.ndarray):
    """(m, rows, factors) for a block of prefixes pre whose entry e reads column
    j = e + first[b] for its prefix pre[b]: with h = m.flat[rows[0, b] + e], the
    point of the entry, column j of g modulo the span of pre[b]'s columns, has
    coordinates m.flat[rows[i + 1, b] + e] + factors[i, b] * h (factors is None
    for w = 2: the point is column j).  With M one of the matrices that
    _prefix_projections leaves, c the last prefix column and s the first row with
    M[s, c] != 0, coordinate i is row r minus M[r, c]/M[s, c] times row s, r = i+1 but 0 for s."""
    k, n = g.shape
    if not pre.shape[1]:  # first = 0, and row 0 stands in for the head, which goes unread
        return g, np.maximum(np.arange(-n, k * n, n), 0)[:, None], None
    m, parent = _prefix_projections(tower, g, pre[:, :-1])
    col = m[parent, :, pre[:, -1]].T  # (rows of M, prefixes): the last prefix column
    s = np.argmax(col != tower.zero_code, axis=0)
    up = np.arange(1, len(col))[:, None]
    sel = np.vstack([s, up * (up != s)])  # row s, then the rows of the coordinates
    c = col[sel, np.arange(len(pre))]
    return m, parent * m[0].size + first + sel * n, tower.vdiv(tower.vneg(c[1:]), c[0])


def _prefix_blocks(k: int, n: int, w: int):
    """The (w-2)-prefixes of range(n-2), those with a pair of columns after
    them, in lex-ordered int64 blocks.  A block holds, at most, the (k-w+3, n)
    projected matrix of each distinct (w-3)-prefix and k-w+2 coordinates for
    each entry (prefix, later column).  Blocks start at _FIRST_PREFIXES
    prefixes and double while that stays within _LIVE_ENTRIES; a block is cut
    where it would not, and its rest opens the next one."""
    if w == 2:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    flat = itertools.chain.from_iterable(itertools.combinations(range(n - 2), w - 2))
    pre = np.zeros((0, w - 2), dtype=np.int64)
    size = _FIRST_PREFIXES
    most = (k - w + 3) * n + (n - 1) * (k - w + 2)  # held per prefix, at most
    while True:
        more = np.fromiter(itertools.islice(flat, (size - len(pre)) * (w - 2)), dtype=np.int64)
        pre = np.concatenate([pre, more.reshape(-1, w - 2)])
        if not len(pre):
            return
        if len(pre) * most <= _LIVE_ENTRIES:
            cut = len(pre)
        else:
            new = np.ones(len(pre), dtype=bool)
            new[1:] = (pre[1:, :-1] != pre[:-1, :-1]).any(axis=1)
            held = np.cumsum(new * (k - w + 3) * n + (n - 1 - pre[:, -1]) * (k - w + 2))
            cut = max(1, int(np.searchsorted(held, _LIVE_ENTRIES, side="right")))
        if cut == len(pre):
            size *= 2
        yield pre[:cut]
        pre = pre[cut:]


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
    if factors is not None:
        tower.vmul(factors[:short].take(b, axis=1, out=product, mode="clip"), heads, out=product, at=at)
        tower.vadd(points, product, out=points, at=at)
    # t^(n-1-c) scales the lead, the first nonzero coordinate c, to t^-1 (n = q^2-1)
    zero, n = tower.zero_code, tower.n_units
    np.subtract(n - 1, points[0], out=lead)
    unset = np.nonzero(points[0] == zero)[0]
    if unset.size:  # the lead is further on, or all are zero and 1 keeps them zero
        rest = points[1:, unset]
        lead[unset] = np.maximum(n - 1 - rest[(rest != zero).argmax(axis=0), np.arange(unset.size)], 0)
    tower.vmul(points, lead, out=points, at=at)
    keys = _exact_keys(b, points, tower.q2, out=keys)
    ordered = wide[2]  # a plain sort and a compare of neighbours
    np.copyto(ordered, keys)
    ordered.sort()
    return keys, bool((ordered[1:] == ordered[:-1]).any())


def _first_collision(tower: FieldTower, g: np.ndarray, w: int, limit: int, arrays):
    """Lex-first dependent w-subset of the columns of g among the (w-2)-prefixes
    whose first subset has lex rank < limit, or None.  Every (w-1)-subset must
    be independent, so the projections modulo a prefix's span are nonzero.

    Prefixes come in the growing blocks of _prefix_blocks, in the scan's arrays
    (two flat ones and an arange grown by need).  Each entry (prefix b, column
    j > the prefix's last column) gets a short key of b and the first
    _SHORT_KEY coordinates of its point, or all (_point_keys); parallel points
    share it, so only entries whose short keys repeat get full keys.  A block
    where those repeat is sorted stably once, to read the witness.
    """
    k, n = g.shape
    coordinates = k - w + 2
    short = _SHORT_KEY if coordinates >= 2 * _SHORT_KEY else coordinates
    offset = 0  # lex rank of the first subset of the next prefix
    for pre in _prefix_blocks(k, n, w):
        if offset >= limit:
            return None
        top = pre.max(axis=1, initial=-1)
        if limit < comb(n, w):  # keep the prefixes whose first subset is ranked below limit
            pairs = (n - 1 - top) * (n - 2 - top) // 2
            ends = offset + np.cumsum(pairs)
            keep = ends - pairs < limit
            pre, top, offset = pre[keep], top[keep], int(ends[-1])
        # entry e for every prefix b and column j = e + first[b] > top[b], b ascending, then j
        count = n - 1 - top
        stops = count.cumsum()
        first = top + 1 - (stops - count)
        size = int(stops[-1])
        if len(arrays[2]) < size:
            arrays[2] = np.arange(2 * size)
        e = arrays[2][:size]
        wide, narrow = _block_arrays(size, short, arrays)
        b = wide[0]
        b.fill(0)
        b[stops[:-1]] = 1
        np.add.accumulate(b, out=b)
        frame = _block_frame(tower, g, pre, first)
        keys, repeated = _point_keys(tower, frame, e, wide, narrow)
        if repeated and short < coordinates:
            _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
            e = np.flatnonzero(counts[inverse] > 1)
            wide, narrow = _block_arrays(len(e), coordinates, _scan_arrays(len(e), coordinates))
            b = np.take(b, e, out=wide[0])
            keys, repeated = _point_keys(tower, frame, e, wide, narrow)
        if not repeated:
            continue
        order = np.argsort(keys, kind="stable")
        b, e, keys = b[order], e[order], keys[order]
        hits = np.nonzero(keys[1:] == keys[:-1])[0]
        hits = hits[b[hits] == b[hits[0]]]
        at = hits[np.argmin(e[hits])]
        return tuple(int(c) for c in pre[b[at]]) + tuple(int(j) for j in e[at : at + 2] + first[b[at]])
    return None


def dual_distance_by_columns(code: LinearCode) -> DistanceResult:
    """d(C^perp) = size of the smallest linearly dependent column set of G.

    Scans w = 1, 2, ... up to k+1, where dependence is guaranteed; a square
    code (k = n) has no k+1 columns, so its exact k+1 comes with no witness.  Once
    every (w-1)-subset is independent, S + {j, l} with |S| = w-2 is
    dependent exactly when columns j and l, projected modulo span(S), are
    parallel.  So the prefixes S are taken in lex-ordered blocks that double
    in size up to a cap on the entries a block holds, all in arrays made here
    for the largest block the budget lets the scan reach.  The elimination
    steps of all but the last column of S run once per distinct shared
    prefix, and the last step only on the entries (S, later column j), whose
    points become exact int64 keys (S first).  The scan stops at the first
    block where keys repeat: one stable sort of that block gives the
    lex-first dependent set, the first colliding prefix's lowest colliding pair.

    The budget is config.ops_cap() (AGQ_CAP_OPS) and counts nominal work:
    k*w*2 per w-subset, charged in lex-ordered blocks of _CHUNK subsets, with
    a block started only if it fits.  That fixes how many w-subsets the
    budget certifies; a dependent set ranked at or past it gives a lower
    bound `w` with exact=False, as does running out of budget after
    certifying all subsets of size < w independent.
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
    # w-subsets certified, w = 2, 3, ..., and the largest block (_prefix_blocks)
    limits, spent, entries = [], 0, 0
    for w in range(2, k + 1):
        unit, total = k * w * 2, comb(n, w)
        limits.append(total if total * unit <= budget - spent else max(0, budget - spent) // (_CHUNK * unit) * _CHUNK)
        entries = max(entries, min(comb(n, w - 1), max(_LIVE_ENTRIES // (k - w + 2), n)))
        if limits[-1] < total:
            break
        spent += total * unit
    arrays = [*_scan_arrays(entries, min(k, 2 * _SHORT_KEY - 1)), np.arange(0)]
    for w, limit in enumerate(limits, start=2):
        witness = _first_collision(tower, g, w, limit, arrays)
        if witness is not None and (limit == comb(n, w) or _lex_rank(witness, n) < limit):
            return DistanceResult(w, True, witness, "column-scan")
        if limit < comb(n, w):
            # every subset of size < w is certified independent, so d >= w
            return DistanceResult(w, False, None, "column-scan-lower-bound")
    return DistanceResult(k + 1, True, tuple(range(k + 1)) if k < n else None, "column-scan")


def is_mds(code: LinearCode) -> tuple[bool | None, tuple | None, str, DistanceResult]:
    """Is every k-subset of the columns of G independent, and what is d(C^perp)?

    The two questions are one: every k columns are independent exactly when
    d(C^perp) = k+1 (Singleton).  This is the one place the verdict is made,
    in order: a structure record is MDS ("vandermonde"); so is a reduced form
    [I | A] whose A has at most one column ("systematic") or is generalized
    Cauchy ("cauchy", _cauchy_verify), while a pivot past column k-1 or a zero
    of A is a singular k-subset ("systematic"), and the scan then gives only
    d(C^perp).  Otherwise the column scan (AGQ_CAP_OPS caps it) decides: exact
    k+1 is MDS, an exact d <= k is not (the dependent set padded with the
    lowest unused columns is a singular k-subset), and a lower bound leaves
    the flag None.  Returns (flag, singular_witness_columns, method, dual_distance).
    """
    k, n = code.k, code.n
    if k == 0:
        return True, None, "degenerate", DistanceResult(1, True, None, "mds-singleton")
    singleton = DistanceResult(k + 1, True, None, "mds-singleton")
    if code.structure is not None:
        return True, None, "vandermonde", singleton
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
    dd = dual_distance_by_columns(code)
    if singular is not None:
        return False, singular, "systematic", dd
    if not dd.exact:
        return None, None, dd.method, dd
    if dd.value == k + 1:
        return True, None, dd.method, dd
    pad = [c for c in range(n) if c not in dd.witness][: k - dd.value]
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
    when the columns outside S have rank < k, which one rank tests; then d
    is reported as a lower bound with method impure-lower-bound.
    """
    if not dd.exact or dd.value == code.k + 1 or code.n == 2 * code.k:
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
    return LinearCode(tower, g, provenance="imported")
