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
        for i in range(rows):
            if i != r and m[i, c] != zero:
                m[i] = tower.vsub(m[i], tower.vmul(m[i, c], m[r]))
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


def _combo_chunks(n: int, w: int, chunk: int = _CHUNK):
    it = itertools.combinations(range(n), w)
    while True:
        block = list(itertools.islice(it, chunk))
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
    """True minimum weight over the (q^{2k}-1)/(q^2-1) projective codewords: g[i]
    plus every combination of the rows below it (scaling preserves weight).  The
    cap applies to q^{2k}, the size of the whole code."""
    tower = code.tower
    zero = tower.zero_code
    q2, k, n = tower.q2, code.k, code.n
    if k == 0:
        return DistanceResult(n + 1, True, None, "degenerate")
    total = q2 ** k
    limit = cap if cap is not None else config.exhaustive_cap()
    if total > limit:
        raise CapExceeded(total, limit)
    # table[:q2**r] holds every combination of the last r rows, r <= low
    low = max(r for r in range(k) if q2 ** r <= _CHUNK)
    zero_row = np.full((1, n), zero, dtype=np.int32)
    (table,) = _word_blocks(tower, zero_row, code.g[k - low :][::-1], zero_row)
    best, witness = n + 1, None
    for i in range(k):
        tail = table[: q2 ** min(k - 1 - i, low)]
        for words in _word_blocks(tower, code.g[i : i + 1], code.g[i + 1 : max(i + 1, k - low)], tail):
            weights = (words != zero).sum(axis=1)
            weights[weights == 0] = n + 1  # a dependent generator row gives the zero word
            pos = int(np.argmin(weights))
            if weights[pos] < best:
                best, witness = int(weights[pos]), words[pos].copy()
    return DistanceResult(best, True, tuple(int(v) for v in witness), "exhaustive")


def dual_distance_by_columns(
    code: LinearCode, d_max: int | None = None, ops_budget: int | None = None
) -> DistanceResult:
    """d(C^perp) = size of the smallest linearly dependent column set of G.

    Scans w = 1, 2, ... up to d_max (capped at k+1, where dependence is
    guaranteed).  If the budget runs out after certifying all subsets of
    size < w independent, returns a lower bound `w` with exact=False.
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
        for combos in _combo_chunks(n, w):
            cost = combos.shape[0] * k * w * 2
            if spent + cost > budget:
                # every subset of size < w is certified independent, so d >= w
                return DistanceResult(w, False, None, "column-scan-lower-bound")
            spent += cost
            mats = np.transpose(g[:, combos], (1, 0, 2))  # (B, k, w)
            dep = np.nonzero(batched_dependent(tower, mats))[0]
            if dep.size:
                first = int(dep[0])
                return DistanceResult(w, True, tuple(int(c) for c in combos[first]), "column-scan")
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
    if len(np.unique(ratio)) != n:
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
