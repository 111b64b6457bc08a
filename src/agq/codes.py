"""Generator-matrix algebra over GF(q^2).

Everything here is oracle-grade: Gram certification, duals, distances and
MDS checks are computed from the matrix, never assumed from the way a code
was built.  Matrices are numpy int32 arrays of exponent codes (tower
convention: code q^2-1 is zero), so the hot loops are table lookups.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from . import config
from .curves import MonomialBasis
from .errors import CapExceeded, ParseError, PoleAtPoint, RankDefect
from .fields import FieldElement, FieldTower, build_tower
from .points import TwistVector

_CHUNK = 1 << 15
_LIVE_ENTRIES = 1 << 20  # entries of one (prefixes, k, n) batch in the column scan
_FIRST_PREFIXES = 4  # prefixes in the column scan's first batch; each later batch doubles


class LinearCode:
    """[n, k] code over GF(q^2) held as a full-rank generator matrix."""

    def __init__(self, tower: FieldTower, g: np.ndarray, provenance: str = "", verify_rank: bool = True):
        g = np.asarray(g, dtype=np.int32)
        if g.ndim != 2:
            raise ValueError("generator matrix must be 2-dimensional")
        self.tower = tower
        self.g = g
        self.provenance = provenance
        self.k, self.n = g.shape
        if verify_rank and self.k > 0:
            r = rank(tower, g)
            if r != self.k:
                raise RankDefect(r, self.k)

    def entry(self, i: int, j: int) -> FieldElement:
        return FieldElement(self.tower, int(self.g[i, j]))

    def params(self) -> tuple[int, int]:
        return (self.n, self.k)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.k}]_({self.tower.q}^2)<{self.provenance}>"


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


def kernel_basis(tower: FieldTower, mat: np.ndarray) -> np.ndarray:
    """Rows spanning the right kernel {x : mat @ x^T = 0}."""
    zero = tower.zero_code
    r, pivots = rref(tower, mat)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    out = np.full((len(free), n), zero, dtype=np.int32)
    for row_idx, f in enumerate(free):
        out[row_idx, f] = 0  # coefficient 1
        for i, pc in enumerate(pivots):
            out[row_idx, pc] = tower.vneg(r[i, f])
    return out


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


def _combo_chunks(n: int, w: int):
    it = itertools.combinations(range(n), w)
    while True:
        block = list(itertools.islice(it, _CHUNK))
        if not block:
            return
        yield np.asarray(block, dtype=np.int64)


# -- construction --------------------------------------------------------------


def evaluation_code(
    tower: FieldTower,
    basis: MonomialBasis,
    points,
    twist: TwistVector | np.ndarray,
    provenance: str = "evaluation",
) -> LinearCode:
    """Rows v_l * f_i(P_l) for f_i = x^a y^b in the basis.

    points is a sequence of (x, y) with y = None on the line.  Raises
    RankDefect when the evaluation vectors are dependent.
    """
    if isinstance(twist, TwistVector):
        tw = twist.codes()
    else:
        tw = np.asarray(twist, dtype=np.int32)
    n = len(points)
    if len(tw) != n:
        raise ValueError("twist length != number of points")
    xs = np.asarray([p[0].code for p in points], dtype=np.int32)
    has_y = any(p[1] is not None for p in points)
    if has_y:
        ys = np.asarray(
            [p[1].code if p[1] is not None else tower.zero_code for p in points],
            dtype=np.int32,
        )
    rows = []
    for (a, b) in basis.monomials:
        row = tower.vpow(xs, a)
        if b:
            if not has_y:
                raise PoleAtPoint(f"monomial x^{a} y^{b} needs a second coordinate")
            row = tower.vmul(row, tower.vpow(ys, b))
        rows.append(tower.vmul(tw, row))
    g = np.stack(rows) if rows else np.zeros((0, n), dtype=np.int32)
    return LinearCode(tower, g, provenance=provenance)


def grs_rows(tower: FieldTower, eval_set, twist: TwistVector, exponents) -> np.ndarray:
    """Rows v_l * alpha_l^e for e in exponents."""
    xs = tower.varray(eval_set.points)
    tw = twist.codes()
    return np.stack([tower.vmul(tw, tower.vpow(xs, e)) for e in exponents])


# -- certification --------------------------------------------------------------


def hermitian_gram(code: LinearCode) -> GramCertificate:
    """Exact k x k Gram matrix of <g_i, g_j>_H = sum_l G[i,l] * G[j,l]^q."""
    tower = code.tower
    if code.k == 0:
        return GramCertificate(
            np.zeros((0, 0), dtype=np.int32), True, None, _digest(code, np.zeros((0, 0)))
        )
    gq = tower.vfrob(code.g)
    prod = tower.vmul(code.g[:, None, :], gq[None, :, :])
    m = tower.vsum(prod, axis=-1)
    nz = np.argwhere(m != tower.zero_code)
    if nz.size:
        i, j = (int(v) for v in nz[0])
        first = (i, j, tower.format(FieldElement(tower, int(m[i, j]))))
        return GramCertificate(m, False, first, _digest(code, m))
    return GramCertificate(m, True, None, _digest(code, m))


def _digest(code: LinearCode, gram: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(f"q2={code.tower.q2} n={code.n} k={code.k};".encode())
    h.update(np.ascontiguousarray(gram, dtype=np.int32).tobytes())
    return h.hexdigest()


def dual(code: LinearCode, kind: str = "euclidean") -> LinearCode:
    """Euclidean dual via row reduction; Hermitian dual as (C^q)^perp."""
    tower = code.tower
    if kind == "euclidean":
        base = code.g
    elif kind == "hermitian":
        base = tower.vfrob(code.g)
    else:
        raise ValueError(f"unknown dual kind {kind!r}")
    if code.k == 0:
        eye = np.full((code.n, code.n), tower.zero_code, dtype=np.int32)
        np.fill_diagonal(eye, 0)
        return LinearCode(tower, eye, provenance=f"dual-{kind}({code.provenance})")
    k = kernel_basis(tower, base)
    return LinearCode(tower, k, provenance=f"dual-{kind}({code.provenance})", verify_rank=False)


# -- distance oracles ------------------------------------------------------------


def _word_blocks(tower: FieldTower, heads: np.ndarray, rows: np.ndarray, tail: np.ndarray):
    """heads + every combination of rows + tail, one vadd per word, in blocks of at most _CHUNK words."""
    if len(rows) == 0:
        yield tower.vadd(heads[:, None], tail[None]).reshape(-1, tail.shape[1])
        return
    # the zero scalar comes first, so every extension of heads begins with heads itself
    scalars = np.roll(np.arange(tower.q2, dtype=np.int32), 1)
    step = max(1, _CHUNK // (len(heads) * len(tail)))
    for s in range(0, tower.q2, step):
        scaled = tower.vmul(scalars[s : s + step, None], rows[0])
        more = tower.vadd(scaled[:, None], heads[None]).reshape(-1, heads.shape[1])
        yield from _word_blocks(tower, more, rows[1:], tail)


def exhaustive_distance(code: LinearCode, cap: int | None = None) -> DistanceResult:
    """True minimum weight over the (q^{2k}-1)/(q^2-1) projective codewords
    (scaling preserves weight), weighed a pencil at a time.  Each projective word
    is the last row t = g[k-1] alone or h + a.t, with h a projective word of rows
    0..k-2 (g[i] plus every combination of the rows below it) and a in GF(q^2).
    Column j of h + a.t is zero for exactly one a, a = -h_j/t_j, where t_j != 0,
    and for every a or none where t_j = 0, as h_j is zero or not.  So one
    bincount over (head, -h_j/t_j) weighs all q^2 words of every head in a block
    of at most _CHUNK heads; the work is (q^{2k-2}-1)/(q^2-1) heads of n entries.
    Zero words, which only dependent rows give, are not counted.  The cap
    applies to q^{2k}, the size of the whole code."""
    tower = code.tower
    zero = tower.zero_code
    q2, k, n = tower.q2, code.k, code.n
    if k == 0:
        return DistanceResult(n + 1, True, None, "degenerate")
    total = q2 ** k
    limit = cap if cap is not None else config.exhaustive_cap()
    if total > limit:
        raise CapExceeded(total, limit)
    t = code.g[k - 1]
    live = t != zero
    root = tower.vneg(tower.vinv(t[live]))  # h_j * root_j = -h_j/t_j
    best, witness = int(live.sum()) or n + 1, t
    # table[:q2**r] holds every combination of the last r head rows, r <= low
    low = max((r for r in range(k - 1) if q2 ** r <= _CHUNK), default=0)
    zero_row = np.full((1, n), zero, dtype=np.int32)
    (table,) = _word_blocks(tower, zero_row, code.g[k - 1 - low : k - 1][::-1], zero_row)
    for i in range(k - 1):
        tail = table[: q2 ** min(k - 2 - i, low)]
        for heads in _word_blocks(tower, code.g[i : i + 1], code.g[i + 1 : max(i + 1, k - 1 - low)], tail):
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

    Returns (m, parent): m[parent[i]] is rows w-2.. of the eliminated matrix of
    prefix i, its projection modulo span(prefix).  Step c depends only on the
    first c+1 columns of a prefix, and lex order makes the prefixes that share
    them adjacent, so step c runs once per distinct (c+1)-prefix on a copy of
    its parent's rows c.., and rows that are no longer needed are dropped.
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


_KEY_MAX = np.iinfo(np.int64).max


def _exact_keys(b: np.ndarray, points: np.ndarray, q2: int) -> np.ndarray:
    """One int64 per row of (b, points) whose order is the rows' lexicographic
    order, so equal rows and only equal rows share a key.

    The key is b followed by the coordinates (exponent codes < q2) as digits in
    radix q2.  Whenever the next digit could overflow int64, the key built so
    far is first replaced by its dense rank, which keeps its order.
    """
    key = b.astype(np.int64)
    bound = int(key.max(initial=0))
    for digit in points.T:
        if bound > (_KEY_MAX - (q2 - 1)) // q2:
            distinct, key = np.unique(key, return_inverse=True)
            bound = len(distinct) - 1
        key = key * q2 + digit
        bound = bound * q2 + q2 - 1
    return key


def _first_collision(tower: FieldTower, g: np.ndarray, w: int, limit: int):
    """Lex-first dependent w-subset of the columns of g among the (w-2)-prefixes
    whose first subset has lex rank < limit, or None.  Every (w-1)-subset must
    be independent, so the projections modulo a prefix's span are nonzero.

    Prefixes are taken in lex-ordered blocks that grow: _FIRST_PREFIXES
    prefixes, then twice as many each round, up to about _LIVE_ENTRIES matrix
    entries, so a dependent set in an early prefix ends the scan after a few
    small eliminations.  For each block, _prefix_projections eliminates shared
    prefixes once; then every live entry (prefix b, column j > the prefix's
    last column) becomes one exact int64 key of (b, normalized projection of
    column j), and one stable sort puts equal keys next to each other with j
    ascending.
    """
    zero = tower.zero_code
    k, n = g.shape
    prefixes = itertools.combinations(range(n - 2), w - 2)  # those with a pair after them
    offset = 0  # lex rank of the first subset of the next prefix
    size, most = _FIRST_PREFIXES, max(1, _LIVE_ENTRIES // (k * n))
    while offset < limit:
        block = list(itertools.islice(prefixes, min(size, most)))
        size *= 2
        if not block:
            return None
        pre = np.asarray(block, dtype=np.int64).reshape(len(block), w - 2)
        top = pre.max(axis=1, initial=-1)
        pairs = (n - 1 - top) * (n - 2 - top) // 2
        ends = offset + np.cumsum(pairs)
        keep = ends - pairs < limit
        pre, top, offset = pre[keep], top[keep], int(ends[-1])
        proj, parent = _prefix_projections(tower, g, pre)
        b, j = np.nonzero(np.arange(n)[None, :] > top[:, None])
        points = proj[parent[b], :, j]  # (entries, k-w+2)
        lead = np.take_along_axis(points, np.argmax(points != zero, axis=1)[:, None], axis=1)
        keys = _exact_keys(b, tower.vdiv(points, lead), tower.q2)
        order = np.argsort(keys, kind="stable")
        b, j, keys = b[order], j[order], keys[order]
        hits = np.nonzero(keys[1:] == keys[:-1])[0]
        if hits.size:
            hits = hits[b[hits] == b[hits[0]]]
            first = hits[np.argmin(j[hits])]
            return tuple(int(c) for c in pre[b[first]]) + (int(j[first]), int(j[first + 1]))
    return None


def dual_distance_by_columns(
    code: LinearCode, d_max: int | None = None, ops_budget: int | None = None
) -> DistanceResult:
    """d(C^perp) = size of the smallest linearly dependent column set of G.

    Scans w = 1, 2, ... up to d_max (capped at k+1, where dependence is
    guaranteed).  Once every (w-1)-subset is independent, S + {j, l} with
    |S| = w-2 is dependent exactly when columns j and l, projected modulo
    span(S), are parallel.  So the prefixes S are eliminated in lex-ordered
    blocks that double in size from a few prefixes up to a memory cap, each
    elimination step once per distinct shared prefix, and the projective
    points of the later columns of every S in a block are encoded as exact
    int64 keys (S first) and sorted once; the lex-first dependent set is the
    first colliding prefix's lowest colliding pair, and the scan stops at the
    first block that holds one.

    The budget counts nominal work: k*w*2 per w-subset, charged in lex-ordered
    blocks of _CHUNK subsets, with a block started only if it fits.  That
    fixes how many w-subsets the budget certifies; a dependent set ranked at
    or past it gives a lower bound `w` with exact=False, as does running out
    of budget after certifying all subsets of size < w independent.
    """
    tower = code.tower
    zero = tower.zero_code
    g = code.g
    k, n = code.k, code.n
    cap = min(d_max if d_max is not None else k + 1, k + 1)
    budget = ops_budget if ops_budget is not None else config.ops_cap()
    spent = 0
    if k == 0:
        return DistanceResult(1, True, (0,), "column-scan")
    zero_cols = np.nonzero((g == zero).all(axis=0))[0]
    if zero_cols.size:
        return DistanceResult(1, True, (int(zero_cols[0]),), "column-scan")
    for w in range(2, cap + 1):
        if w == k + 1:
            return DistanceResult(k + 1, True, tuple(range(k + 1)), "column-scan")
        unit, total = k * w * 2, comb(n, w)
        if total * unit <= budget - spent:
            certified = total
        else:
            certified = max(0, budget - spent) // (_CHUNK * unit) * _CHUNK
        witness = _first_collision(tower, g, w, certified)
        if witness is not None and _lex_rank(witness, n) < certified:
            return DistanceResult(w, True, witness, "column-scan")
        if certified < total:
            # every subset of size < w is certified independent, so d >= w
            return DistanceResult(w, False, None, "column-scan-lower-bound")
        spent += total * unit
    return DistanceResult(cap + 1, False, None, "column-scan-lower-bound")


def is_mds(
    code: LinearCode, method: str = "minors", ops_budget: int | None = None
) -> tuple[bool, tuple | None, str]:
    """Every k columns of G nonsingular?

    method="minors": batched k x k rank over all column subsets (the direct
    oracle).  method="auto": try two exact structural certificates first --
    a twisted-Vandermonde row shape, or a generalized-Cauchy systematic
    block (the shape of any systematic GRS generator), both verified entry
    by entry so the conclusion rests on the determinant formulas alone --
    then fall back to minors inside budget.
    Returns (flag, singular_witness_columns, method_used).
    """
    tower = code.tower
    zero = tower.zero_code
    g = code.g
    k, n = code.k, code.n
    if k == 0:
        return True, None, "degenerate"
    if method == "auto":
        if _vandermonde_shape(tower, g):
            return True, None, "vandermonde"
        quick = _systematic_mds_screen(code)
        if quick is not None:
            return quick
        method = "minors"
    if method != "minors":
        raise ValueError(f"unknown is_mds method {method!r}")
    budget = ops_budget if ops_budget is not None else config.ops_cap()
    estimate = comb(n, k) * k * k * 2
    if estimate > budget:
        raise CapExceeded(estimate, budget)
    for combos in _combo_chunks(n, k):
        mats = np.transpose(g[:, combos], (1, 0, 2))
        bad = np.nonzero(batched_dependent(tower, mats))[0]
        if bad.size:
            first = int(bad[0])
            return False, tuple(int(c) for c in combos[first]), "minors"
    return True, None, "minors"


def _systematic_mds_screen(code: LinearCode):
    """Fast exact verdicts from the reduced systematic form, or None.

    After row reduction to [I | A]: a pivot outside the first k columns or
    a zero entry of A witnesses a singular k-subset immediately; an A that
    verifies as a generalized Cauchy matrix c_i*d_j/(x_i - y_j) certifies
    MDS (every square Cauchy submatrix is nonsingular).  Anything murkier
    returns None and the caller falls back to minors.
    """
    tower = code.tower
    zero = tower.zero_code
    k, n = code.k, code.n
    r, pivots = rref(tower, code.g)
    if pivots != tuple(range(k)):
        return False, tuple(range(k)), "systematic"
    a = r[:, k:]
    zpos = np.argwhere(a == zero)
    if zpos.size:
        i, j = (int(v) for v in zpos[0])
        witness = tuple(sorted(set(range(k)) - {i})) + (k + j,)
        return False, tuple(sorted(witness)), "systematic"
    m = n - k
    if k == 1 or m == 1:
        return True, None, "systematic"  # no square submatrix beyond nonzero entries
    if _cauchy_verify(tower, a):
        return True, None, "cauchy"
    return None


def _cauchy_verify(tower: FieldTower, a: np.ndarray) -> bool:
    """Does a[i][j] = c_i*d_j/(x_i - y_j) hold for recoverable parameters?

    Gauge-fixes x_0 = 0, x_1 = 1, c_0 = c_1 = 1, recovers the remaining
    parameters from the first two rows and columns, and verifies every
    entry plus all distinctness constraints.  Returns False on any
    degeneracy; the caller then uses the minor oracle instead.
    """
    k, m = a.shape
    el = lambda code_: FieldElement(tower, int(code_))
    one = tower.one()
    try:
        ys = []
        for j in range(m):
            rho = el(a[1, j]) / el(a[0, j])
            denom = rho - one
            if denom.is_zero():
                return False
            ys.append(rho / denom)
        ds = [-(ys[j]) * el(a[0, j]) for j in range(m)]
        xs = [tower.zero(), one]
        cs = [one, one]
        for i in range(2, k):
            ratio = (el(a[i, 0]) * ds[1]) / (el(a[i, 1]) * ds[0])
            denom = ratio - one
            if denom.is_zero():
                return False
            xi = (ratio * ys[0] - ys[1]) / denom
            xs.append(xi)
            cs.append(el(a[i, 0]) * (xi - ys[0]) / ds[0])
    except ZeroDivisionError:
        return False
    codes_x = {x.code for x in xs}
    codes_y = {y.code for y in ys}
    if len(codes_x) != k or len(codes_y) != m or codes_x & codes_y:
        return False
    if any(c.is_zero() for c in cs) or any(d.is_zero() for d in ds):
        return False
    xarr = tower.varray(xs)
    yarr = tower.varray(ys)
    carr = tower.varray(cs)
    darr = tower.varray(ds)
    lhs = tower.vmul(a, tower.vsub(xarr[:, None], yarr[None, :]))
    rhs = tower.vmul(carr[:, None], darr[None, :])
    return bool(np.array_equal(lhs, rhs))


def _vandermonde_shape(tower: FieldTower, g: np.ndarray) -> bool:
    """Is G exactly (v_l * alpha_l^i) with v_l != 0 and alpha_l distinct?"""
    zero = tower.zero_code
    k, n = g.shape
    if (g[0] == zero).any():
        return False
    if k == 1:
        return True
    ratio = tower.vdiv(g[1], g[0])
    # sort and compare neighbours: np.unique imports numpy.ma on its first call
    ordered = np.sort(ratio)
    if (ordered[1:] == ordered[:-1]).any():
        return False
    for i in range(1, k):
        if not np.array_equal(g[i], tower.vmul(g[i - 1], ratio)):
            return False
    return True


def frobenius_code(code: LinearCode) -> LinearCode:
    """Entrywise q-th power code C^q."""
    return LinearCode(
        code.tower,
        code.tower.vfrob(code.g),
        provenance=f"frobenius({code.provenance})",
        verify_rank=False,
    )


# -- matrix text format -----------------------------------------------------------


def export_matrix(code: LinearCode) -> str:
    tower = code.tower
    lines = [f"q2={tower.p}^{2 * tower.m} n={code.n} k={code.k}"]
    for i in range(code.k):
        lines.append(
            " ".join(tower.format(FieldElement(tower, int(c))) for c in code.g[i])
        )
    return "\n".join(lines) + "\n"


def import_matrix(
    text: str,
    systematic_prefix: bool = False,
    field_cap: int | None = None,
) -> LinearCode:
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
    kwargs = {}
    if field_cap is not None:
        kwargs["field_cap"] = field_cap
    tower = build_tower(p, deg // 2, **kwargs)
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
                row.append(tower.parse(tok).code)
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
