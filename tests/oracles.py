"""Reference implementations that the tests check agq against, each by a slow and
direct route, and the property checks that more than one test module runs.  No
test module is imported here."""

import itertools
from math import gcd, prod

import numpy as np

import agq.codes
from agq import config
from agq.codes import DistanceResult, GramCertificate, LinearCode, _digest, batched_dependent, rref
from agq.fields import AdditiveMap, norm_preimage
from agq.points import local_derivatives

from .scalar_field import Scalar, from_value, loop_exp_values, one, zero


def packed_digits(tw, code):
    """Base-p digits of the packed value of an exponent code, constant first."""
    value = 0 if code == tw.zero_code else int(loop_exp_values(tw)[code])
    return [(value // tw.p ** i) % tw.p for i in range(2 * tw.m)]


def gf_p_solve(tw, amap, a):
    """Reference oracle: the per-call GF(p) elimination that solve_additive
    replaced.  Returns the codes of all y with map(y) = a, ascending."""

    def apply(y):
        if amap is AdditiveMap.SQUARE_PLUS_Y:
            return y * y + y
        if amap is AdditiveMap.FROB_PLUS_Y:
            return y.frobenius() + y
        return y.frobenius() - y

    p, dim = tw.p, 2 * tw.m
    cols = [packed_digits(tw, apply(from_value(tw, p ** j)).code) for j in range(dim)]
    aug = [[cols[j][i] for j in range(dim)] + [b] for i, b in enumerate(packed_digits(tw, a.code))]
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
        return []
    particular = [0] * dim
    for i, c in enumerate(pivots):
        particular[c] = aug[i][dim]
    kernel = []
    for c in (c for c in range(dim) if c not in pivots):
        vec = [0] * dim
        vec[c] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-aug[i][c]) % p
        kernel.append(vec)
    sols = set()
    for counters in itertools.product(range(p), repeat=len(kernel)):
        digs = particular[:]
        for kvec, cnt in zip(kernel, counters):
            digs = [(d + cnt * kv) % p for d, kv in zip(digs, kvec)]
        sols.add(from_value(tw, sum(d * p ** i for i, d in enumerate(digs))).code)
    return sorted(sols)


def zech_tree_sum(tw, arr, axis=-1):
    """Reference oracle: the field sum that vsum took before additive words,
    a tree of vadd calls over the axis padded with zeros to a power of two."""
    arr = np.moveaxis(np.asarray(arr, dtype=np.int32), axis, -1)
    length = arr.shape[-1]
    if length == 0:
        return np.full(arr.shape[:-1], tw.zero_code, dtype=np.int32)
    width = 1 << (length - 1).bit_length()
    if width != length:
        pad = np.full(arr.shape[:-1] + (width - length,), tw.zero_code, dtype=np.int32)
        arr = np.concatenate([arr, pad], axis=-1)
    while arr.shape[-1] > 1:
        half = arr.shape[-1] // 2
        arr = tw.vadd(arr[..., :half], arr[..., half:])
    return arr[..., 0]


def assert_norm_preimage(x):
    c = x.relative_norm()
    v = Scalar(x.tower, norm_preimage(x.tower, c.code))
    assert v ** (x.tower.q + 1) == c
    assert c.in_base_field()


def elements(es):
    """The points of a set as Scalars, in set order."""
    return [Scalar(es.tower, c) for c in es.codes.tolist()]


def field_sum(tower, elements):
    return sum(elements, zero(tower))


def derivatives(es):
    """local_derivatives as Scalars."""
    return [Scalar(es.tower, c) for c in local_derivatives(es).tolist()]


def pairwise_product_derivatives(eval_set):
    """Reference oracle: h'(alpha_i) as the Scalar product over j != i."""
    pts = elements(eval_set)
    return tuple(prod((a - b for j, b in enumerate(pts) if j != i), start=one(eval_set.tower))
                 for i, a in enumerate(pts))


def brute_force_step(es):
    """Reference oracle: the least s | q^2-1 that maps the set's nonzero codes
    onto themselves under c -> c + s mod q^2-1, by trying every divisor; q^2-1
    for a set with a repeated point or with no nonzero point."""
    units = es.tower.n_units
    codes = es.codes.tolist()
    nonzero = {c for c in codes if c != units}
    if len(set(codes)) < len(codes) or not nonzero:
        return units
    return min(s for s in range(1, units + 1) if units % s == 0 and {(c + s) % units for c in nonzero} == nonzero)


def assert_residue_identity(es, e):
    terms = [(p ** e) / h for p, h in zip(elements(es), derivatives(es))]
    assert field_sum(es.tower, terms).is_zero(), (es.tower, es.family, es.n, e)


def kernel_basis(tower, mat):
    """Rows spanning the right kernel {x : mat @ x^T = 0}, read off rref(mat)."""
    r, pivots = rref(tower, mat)
    n = mat.shape[1]
    free = [c for c in range(n) if c not in pivots]
    out = np.full((len(free), n), tower.zero_code, dtype=np.int32)
    for row_idx, f in enumerate(free):
        out[row_idx, f] = 0  # coefficient 1
        for i, pc in enumerate(pivots):
            out[row_idx, pc] = tower.vneg(r[i, f])
    return out


def dual(code, kind="euclidean"):
    """The tests' oracle for duals: the Euclidean dual by row reduction, the
    Hermitian dual as (C^q)^perp."""
    tower = code.tower
    assert kind in ("euclidean", "hermitian"), kind
    k = kernel_basis(tower, tower.vfrob(code.g) if kind == "hermitian" else code.g)
    return LinearCode(tower, k, verify_rank=False)


def assert_double_dual_is_the_code(code):
    dd = dual(dual(code, "euclidean"), "euclidean")
    r1, _ = rref(code.tower, code.g)
    r2, _ = rref(code.tower, dd.g)
    assert np.array_equal(r1, r2)


def assert_frobenius_keeps_weight(tw, row):
    fr = tw.vfrob(row)
    assert (row != tw.zero_code).sum() == (fr != tw.zero_code).sum()


def zech_tree_gram(code):
    """Reference oracle: the Gram certificate as hermitian_gram formed it before
    additive words, every product by vmul and every entry by the Zech tree."""
    tw = code.tower
    m = zech_tree_sum(tw, tw.vmul(code.g[:, None, :], tw.vfrob(code.g)[None, :, :]), axis=-1)
    nz = np.argwhere(m != tw.zero_code)
    first = None
    if nz.size:
        i, j = (int(v) for v in nz[0])
        first = (i, j, tw.format(int(m[i, j])))
    return GramCertificate(m, first is None, first, _digest(code, m))


def row_space(tower, g):
    """Every word of g's row space, zero included, in blocks of agq.codes._CHUNK words:
    message sum_j d_j q^{2j} gives the word sum_j d_j g_j, by k vmul and k vadd."""
    q2, (k, n), block = tower.q2, g.shape, agq.codes._CHUNK
    for start in range(0, q2 ** k, block):
        rem = np.arange(start, min(start + block, q2 ** k), dtype=np.int64)
        words = np.full((rem.size, n), tower.zero_code, dtype=np.int32)
        for row in g:
            rem, digit = np.divmod(rem, q2)  # each digit ranges over all codes, zero included
            words = tower.vadd(words, tower.vmul(digit.astype(np.int32)[:, None], row[None, :]))
        yield words


def full_enumeration_distance(code):
    """Reference oracle: minimum weight over all q^{2k} messages; n + 1 if every word is zero."""
    best = code.n + 1
    for words in row_space(code.tower, code.g):
        weights = (words != code.tower.zero_code).sum(axis=1)
        best = min(best, int(weights[weights > 0].min(initial=best)))
    return best


def assert_dual_scan_equals_exhaustive(code):
    d_col = agq.codes.dual_distance_by_columns(dual(code, "euclidean")).value
    assert agq.codes.exhaustive_distance(code).value == d_col, (code.tower, code.g)


def combo_chunks(n, w):
    """The w-subsets of range(n) in lex order, as int64 blocks of agq.codes._CHUNK
    rows; the size is read at call time, so a test can patch it."""
    it = itertools.combinations(range(n), w)
    while block := list(itertools.islice(it, agq.codes._CHUNK)):
        yield np.asarray(block, dtype=np.int64)


def minors_is_mds(code):
    """Reference MDS oracle: a batched k x k rank test of every k-subset of columns
    in lex order.  Returns (flag, first singular k-subset or None, "minors")."""
    for combos in combo_chunks(code.n, code.k):
        mats = np.transpose(code.g[:, combos], (1, 0, 2))
        bad = np.nonzero(batched_dependent(code.tower, mats))[0]
        if bad.size:
            return False, tuple(int(c) for c in combos[bad[0]]), "minors"
    return True, None, "minors"


def per_subset_column_scan(code):
    """Reference oracle: the column scan that eliminates every w-subset of columns,
    charging k*w*2 per subset against config.ops_cap() in lex-ordered blocks of _CHUNK."""
    tower = code.tower
    zero = tower.zero_code
    g = code.g
    k, n = code.k, code.n
    budget = config.ops_cap()
    spent = 0
    if k == 0:
        return DistanceResult(1, True, (0,), "column-scan")
    zero_cols = np.nonzero((g == zero).all(axis=0))[0]
    if zero_cols.size:
        return DistanceResult(1, True, (int(zero_cols[0]),), "column-scan")
    for w in range(2, k + 1):
        for combos in combo_chunks(n, w):
            cost = combos.shape[0] * k * w * 2
            if spent + cost > budget:
                return DistanceResult(w, False, None, "column-scan-lower-bound")
            spent += cost
            mats = np.transpose(g[:, combos], (1, 0, 2))  # (B, k, w)
            dep = np.nonzero(batched_dependent(tower, mats))[0]
            if dep.size:
                return DistanceResult(w, True, tuple(int(c) for c in combos[dep[0]]), "column-scan")
    # a square code (k = n) has no k+1 columns to name
    return DistanceResult(k + 1, True, tuple(range(k + 1)) if k < n else None, "column-scan")


def row_by_row_rref(tower, mat):
    """Reference oracle: RREF that clears each pivot column one row at a time."""
    zero = tower.zero_code
    m = np.array(mat, dtype=np.int32, copy=True)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c] != zero)[0]
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


def brute_force_distances(code):
    """(d(C^perp_H), min wt(C^perp_H minus C)) by enumerating every word of the
    Hermitian dual; with n = 2k, where C^perp_H = C, the second is d(C^perp_H)."""
    tower = code.tower
    words = np.concatenate(list(row_space(tower, dual(code, "hermitian").g)))
    weight = (words != tower.zero_code).sum(axis=1)
    parity = dual(code, "euclidean").g  # C = {x : parity . x = 0}
    in_c = (tower.vsum(tower.vmul(words[:, None, :], parity[None]), axis=2) == tower.zero_code).all(axis=1)
    outside = ~in_c if code.n > 2 * code.k else weight > 0
    return int(weight[weight > 0].min()), int(weight[outside].min())


def semigroup_gap_count(a: int, b: int) -> int:
    """Reference oracle: the number of gaps of the numerical semigroup <a, b> (gcd(a,b)=1):
    the v below the conductor (a-1)(b-1) that are i*a + j*b for no i, j >= 0."""
    if gcd(a, b) != 1:
        raise ValueError("generators must be coprime")
    return sum(all((v - i * a) % b for i in range(v // a + 1)) for v in range(1, (a - 1) * (b - 1)))
