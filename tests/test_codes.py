import contextlib
import hashlib
import itertools
import os
import tracemalloc
from math import comb, gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import agq.codes
import agq.fields
from agq import config
from agq.codes import (
    _CHUNK,
    CurveRecord,
    DistanceResult,
    LinearCode,
    _cauchy_verify,
    _digest,
    _exact_keys,
    _monomial_rows,
    _quantum_distance,
    _unrank,
    batched_dependent,
    certify,
    dual_distance_by_columns,
    evaluation_code,
    exhaustive_distance,
    export_matrix,
    grs_rows,
    hermitian_gram,
    import_matrix,
    is_mds,
    rank,
    rref,
)
from agq.constructions import ConstructionRequest, construct, construct_chain
from agq.curves import CurveFamily, curve, on_curve, rational_points, rr_basis, x_support
from agq.errors import CapExceeded, GramNonzero, NotNormValue, ParseError, RankDefect
from agq.fields import build_tower
from agq.points import explicit_set, roots_of_unity_set, twist_vector

from .oracles import (
    assert_double_dual_is_the_code, assert_dual_scan_equals_exhaustive, assert_frobenius_keeps_weight, brute_force_step,
    dual, full_enumeration_distance, minors_is_mds, per_subset_column_scan, row_by_row_rref, zech_tree_gram,
    zech_tree_sum,
)
from .scalar_field import Scalar
from .strategies import (
    TWIST_TOWERS, coset_union_sets, random_row, random_short_code, random_sparse_code, seeded_batch,
    self_orthogonal_codes, stabilizer_cases, uniform_codes,
)


# -- evaluation codes ----------------------------------------------------------


def test_grs_evaluation_code_q13():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    g = grs_rows(tw, es, tv, range(2))
    code = LinearCode(tw, g)
    assert code.params() == (25, 2)
    assert hermitian_gram(code).all_zero


def test_single_row_twist_code_is_self_orthogonal():
    # k = 1: <g, g>_H = sum v^(q+1) = sum 1/h'(a) = 0 (residue identity at e = 0)
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    code = LinearCode(tw, grs_rows(tw, es, tv, range(1)))
    assert hermitian_gram(code).all_zero


def per_row_monomials(tw, v, x, a, y=None, b=None):
    """Reference oracle: rows v * x^a[i] * y^b[i] as grs_rows and evaluation_code
    built them before the one exponent broadcast, a vpow and a vmul per row."""
    rows = []
    for i, e in enumerate(a):
        row = tw.vpow(x, int(e))
        if y is not None and b[i]:
            row = tw.vmul(row, tw.vpow(y, int(b[i])))
        rows.append(tw.vmul(v, row))
    return np.stack(rows) if rows else np.zeros((0, len(x)), dtype=np.int32)


# odd and even p, Cayley-table and log/Zech kernels
ROW_TOWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1), (2, 5), (13, 1)]


@st.composite
def monomial_cases(draw):
    """A tower, a twist v and points (x, y) with or without zeros, and k >= 1
    exponent pairs (a, b) in [0, 2(q^2-1)], 0 among them a third of the time."""
    tw = build_tower(*draw(st.sampled_from(ROW_TOWERS)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, k = draw(st.integers(1, min(12, tw.q2 - 1))), draw(st.sampled_from([1, 1, 2, 5, 9]))
    z = tw.zero_code
    x = rng.permutation(z)[:n].astype(np.int32)  # distinct nonzero points
    if draw(st.booleans()):
        x[rng.integers(n)] = z
    v, y = (rng.integers(0, tw.q2, n).astype(np.int32) for _ in range(2))
    v[rng.random(n) < 0.8] = rng.integers(0, z)  # a twist is mostly nonzero
    y[rng.random(n) < 0.3] = z
    a, b = rng.integers(0, 2 * z + 1, (2, k))
    a[rng.random(k) < 0.3] = 0
    b[rng.random(k) < 0.3] = 0
    return tw, v, x, a, y, b


@settings(max_examples=150, deadline=None, derandomize=True)
@given(monomial_cases())
def test_monomial_rows_match_per_row_oracle(case):
    """The one exponent broadcast equals a vpow/vmul per row, on points with
    and without zero, with exponent 0 and k = 1, and for curve monomials whose
    y can be zero; grs_rows on an explicit point set is the y-free case."""
    tw, v, x, a, y, b = case
    got = _monomial_rows(tw, v, [(x, a), (y, b)])
    assert got.dtype == np.int32 and np.array_equal(got, per_row_monomials(tw, v, x, a, y, b))
    es = explicit_set(tw, x)
    twist = v[np.argsort(x, kind="stable")]
    assert np.array_equal(grs_rows(tw, es, twist, a), per_row_monomials(tw, twist, es.codes, a))


def test_construction_rows_match_per_row_oracle():
    """Curve codes (y = 0 on some points, b > 0) and every embedding step's new
    row at exponent k, from the pipelines, against the per-row oracle."""
    for family, pm, k in [(CurveFamily.ELLIPTIC, (2, 2), 5), (CurveFamily.HERMITIAN, (3, 1), 6),
                          (CurveFamily.ARTIN_SCHREIER, (3, 1), 4)]:
        spec = curve(family, build_tower(*pm), **({"t": 2} if family is CurveFamily.ARTIN_SCHREIER else {}))
        xs = x_support(spec)
        owner, y = rational_points(spec, xs)
        tv = twist_vector(xs)[owner]
        basis = rr_basis(spec, k)
        a, b = np.asarray(basis).T
        assert np.count_nonzero(y == spec.tower.zero_code) and np.count_nonzero(b)
        want = per_row_monomials(spec.tower, tv, xs.codes[owner], a, y, b)
        assert np.array_equal(evaluation_code(spec, basis, xs.codes[owner], y, tv).g, want)
    for request in [ConstructionRequest("c4", 2, 3, t=2, embed="iterate"),
                    ConstructionRequest("c1", 13, 1, n=25, k=3, embed="iterate")]:
        chain = construct_chain(request)
        assert len(chain) > 2
        for prev, cert in zip(chain, chain[1:]):
            es, tw = cert.eval_set, cert.code.tower
            twist = cert.code.g[0, : es.n]  # row 0 of the core columns is the twist
            assert np.array_equal(twist, twist_vector(es))
            want = per_row_monomials(tw, twist, es.codes, [prev.code.k])[0]
            assert np.array_equal(cert.code.g[-1, : es.n], want)


def test_evaluation_code_rank_defect():
    tw = build_tower(3, 1)
    spec = curve(CurveFamily.ARTIN_SCHREIER, tw, t=2)
    xs = x_support(spec)
    owner, y = rational_points(spec, xs)
    ones = np.zeros(len(owner), dtype=np.int32)  # all entries t^0 = 1
    basis = rr_basis(spec, 4)  # 1, y, x
    code = evaluation_code(spec, basis, xs.codes[owner], y, ones)
    assert code.params() == (15, 3)
    # a repeated monomial repeats a row, which must be rejected
    dup = basis + basis[1:2]
    with pytest.raises(RankDefect) as got:
        evaluation_code(spec, dup, xs.codes[owner], y, ones)
    assert (got.value.achieved_rank, got.value.expected) == (3, 4)


@st.composite
def cauchy_cases(draw):
    """Distinct x_0..x_{k-1} and y_0..y_{m-1}, as Scalars, one time in two
    with one of them None, the point at infinity; nonzero c and d, over two Cayley
    towers and two Zech-only ones; c_0 = c_1 one time in two."""
    tw = build_tower(*draw(st.sampled_from([(3, 1), (2, 2), (7, 1), (2, 5)])))
    k = draw(st.integers(2, 5))
    m = draw(st.integers(2, min(5, tw.q2 - k)))  # k + m distinct points of GF(q^2)
    el = lambda c: Scalar(tw, c)
    xy = [el(c) for c in draw(st.lists(st.integers(0, tw.zero_code), min_size=k + m, max_size=k + m, unique=True))]
    if draw(st.booleans()):
        xy[draw(st.integers(0, k + m - 1))] = None
    c = [el(v) for v in draw(st.lists(st.integers(0, tw.n_units - 1), min_size=k, max_size=k))]
    if draw(st.booleans()):
        c[1] = c[0]
    d = [el(v) for v in draw(st.lists(st.integers(0, tw.n_units - 1), min_size=m, max_size=m))]
    return tw, xy[:k], xy[k:], c, d, draw(st.integers(0, tw.n_units - 1))


def cauchy_matrix(tw, x, y, c, d, nonzero):
    """c_i*d_j/(x_i - y_j) as codes, c_i*d_j where x_i or y_j is None (at
    infinity), and the code nonzero where x_i = y_j."""

    def entry(xi, ci, yj, dj):
        if xi == yj:
            return nonzero
        if xi is None or yj is None:
            return (ci * dj).code
        return (ci * dj / (xi - yj)).code

    return np.asarray([[entry(xi, ci, yj, dj) for yj, dj in zip(y, d)] for xi, ci in zip(x, c)], dtype=np.int32)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cauchy_cases())
def test_cauchy_verify_accepts_cauchy_matrices_and_rejects_changes(case):
    """Every generalized Cauchy matrix verifies, with or without a point at
    infinity, and whichever point a gauge x_0 = 0, x_1 = 1, c_0 = c_1 would
    send to infinity.  A changed entry at i, j >= 2, an x_i equal to a finite
    y_j, or a repeated x or y never verifies."""
    tw, x, y, c, d, nonzero = case
    k, m = len(x), len(y)
    a = cauchy_matrix(tw, x, y, c, d, nonzero)
    assert _cauchy_verify(tw, a)
    if k > 2 and m > 2:
        i, j = 2 + nonzero % (k - 2), 2 + nonzero % (m - 2)
        changed = a.copy()
        changed[i, j] = (a[i, j] + 1 + nonzero % (tw.n_units - 1)) % tw.n_units
        assert not _cauchy_verify(tw, changed)
        if y[j] is not None:
            x_equal_y = x[:i] + [y[j]] + x[i + 1 :]
            assert not _cauchy_verify(tw, cauchy_matrix(tw, x_equal_y, y, c, d, nonzero))
            assert not _cauchy_verify(tw, cauchy_matrix(tw, x_equal_y, y, c, d, tw.zero_code))
    # a repeated x or y makes two rows or columns proportional: a singular 2x2 minor
    if k > 2:
        repeated_x = x[:2] + [x[nonzero % 2]] + x[3:]
        assert not _cauchy_verify(tw, cauchy_matrix(tw, repeated_x, y, c, d, nonzero))
    repeated_y = y[:-1] + [y[0]]
    assert not _cauchy_verify(tw, cauchy_matrix(tw, x, repeated_y, c, d, nonzero))


def every_minor_nonzero(tw, a):
    """Test-side oracle: every square submatrix of a is nonsingular, by row_by_row_rref."""
    k, m = a.shape
    for size in range(1, min(k, m) + 1):
        for rows in itertools.combinations(range(k), size):
            for cols in itertools.combinations(range(m), size):
                if len(row_by_row_rref(tw, a[np.ix_(rows, cols)])[1]) < size:
                    return False
    return True


@st.composite
def small_cauchy_cases(draw):
    """(tower, A, expected _cauchy_verify or None): A of 2-4 x 2-5 over GF(4) to
    GF(49), random, or c_i*d_j/(x_i - y_j) from points of the projective line
    (at least one time in two one of them None, at infinity) that are
    distinct (True), have one point repeated among the x or among the y
    (False), or are distinct with one entry changed (None)."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])))
    k = draw(st.integers(2, min(4, tw.q2 - 1)))
    m = draw(st.integers(2, min(5, tw.q2 + 1 - k)))  # k + m points of the line
    kind = draw(st.sampled_from(["random", "distinct", "repeated", "changed"]))
    if kind == "random":
        codes = draw(st.lists(st.integers(0, tw.zero_code), min_size=k * m, max_size=k * m))
        return tw, np.asarray(codes, dtype=np.int32).reshape(k, m), None
    el = lambda c: Scalar(tw, c)
    points = draw(st.lists(st.integers(0, tw.q2), min_size=k + m, max_size=k + m, unique=True))
    if draw(st.booleans()) and tw.q2 not in points:
        points[draw(st.integers(0, k + m - 1))] = tw.q2
    xy = [None if v == tw.q2 else el(v) for v in points]  # q^2 stands for infinity
    x, y = xy[:k], xy[k:]
    if kind == "repeated":
        side = x if draw(st.booleans()) else y
        i, j = draw(st.lists(st.integers(0, len(side) - 1), min_size=2, max_size=2, unique=True))
        side[j] = side[i]
    c = [el(v) for v in draw(st.lists(st.integers(0, tw.n_units - 1), min_size=k, max_size=k))]
    d = [el(v) for v in draw(st.lists(st.integers(0, tw.n_units - 1), min_size=m, max_size=m))]
    a = cauchy_matrix(tw, x, y, c, d, draw(st.integers(0, tw.n_units - 1)))
    if kind == "changed":
        i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, m - 1))
        a[i, j] = (a[i, j] + draw(st.integers(1, tw.n_units))) % tw.q2
        return tw, a, None
    return tw, a, kind == "distinct"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_cauchy_cases())
def test_cauchy_verify_against_every_minor(case):
    """_cauchy_verify (no zero, rank 2 of 1/A, no proportional rows or columns
    of 1/A) against every square submatrix of A.  With two rows or two
    columns the two are the same; otherwise Cauchy implies every minor is
    nonzero.  Distinct points verify and a repeated point never does."""
    tw, a, expected = case
    got = _cauchy_verify(tw, a)
    if expected is not None:
        assert got == expected
    if min(a.shape) == 2:
        assert got == every_minor_nonzero(tw, a)
    elif got:
        assert every_minor_nonzero(tw, a)


def test_hermitian_curve_code_64_3():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))
    assert cert.code.params() == (64, 3)
    assert hermitian_gram(cert.code).all_zero


# -- gram -------------------------------------------------------------------------


def test_gram_detects_corruption():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    g = grs_rows(tw, es, tv, range(2))
    good = hermitian_gram(LinearCode(tw, g))
    assert good.all_zero
    bad = g.copy()
    bad[0, 3] = (bad[0, 3] + 1) % tw.n_units  # bump one entry
    cert = hermitian_gram(LinearCode(tw, bad))
    assert not cert.all_zero
    assert cert.first_nonzero is not None
    assert good.digest != cert.digest


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(3, 1), (2, 2), (13, 1), (2, 5)]), st.integers(0, 6), st.integers(0, 9), st.integers(0, 2 ** 32 - 1))
def test_digest_matches_hashlib_sha256(pm, k, extra, seed):
    """_digest, from CPython's builtin SHA-256 module, is hashlib's sha256 over
    the same header and the Gram's int32 bytes, for square and empty Grams."""
    tw = build_tower(*pm)
    rng = np.random.default_rng(seed)
    code = LinearCode(tw, rng.integers(0, tw.q2, (k, k + extra)), verify_rank=False)
    gram = rng.integers(0, tw.q2, (k, k)).astype(np.int32)
    want = hashlib.sha256(f"q2={tw.q2} n={k + extra} k={k};".encode() + gram.tobytes()).hexdigest()
    assert _digest(code, gram) == want


# Cayley GF(9) and GF(16); Zech GF(2^10), GF(2^16), GF(3^8) and GF(251^2)
SUM_TOWERS = [(3, 1), (2, 2), (2, 5), (2, 8), (3, 4), (251, 1)]


@st.composite
def additive_sum_cases(draw):
    """A k x n matrix with zero entries and all-zero rows, a run length M for
    the additive sums (2, 3, 7 or the tower's own, at most the tower's own) and
    a Gram gather cap that makes blocks of 1 or 2 rows, or the module default.
    Where M <= 64, n is one below, at or one above a multiple of M; otherwise
    n <= 40, and n = 0 gives empty sums."""
    tw = build_tower(*draw(st.sampled_from(SUM_TOWERS)))
    terms = min(draw(st.sampled_from([2, 3, 7, tw._word_terms])), tw._word_terms)
    if terms <= 64:
        n = draw(st.integers(1, 9)) * terms + draw(st.integers(-1, 1))
    else:
        n = draw(st.integers(0, 40))
    k = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    g[rng.random((k, n)) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = tw.zero_code
    g[draw(st.lists(st.integers(0, k - 1), max_size=k))] = tw.zero_code
    rows = draw(st.sampled_from([1, 2, None]))
    cap = agq.fields._GATHER_ENTRIES if rows is None else rows * k * max(1, n)
    return tw, g, terms, cap


@settings(max_examples=200, deadline=None, derandomize=True)
@given(additive_sum_cases())
@example((build_tower(2, 2), np.zeros((0, 5), dtype=np.int32), 3, agq.fields._GATHER_ENTRIES))  # k = 0
def test_additive_sums_match_zech_tree(case):
    """hermitian_gram, matrix, verdict, first nonzero entry and digest, and
    vsum along every axis of a stack of two such matrices equal the Zech-tree
    oracle, whatever the run length of the integer sums and the Gram's row
    blocks, and with no rows at all."""
    tw, g, terms, cap = case
    code = LinearCode(tw, g, verify_rank=False)
    cube = np.stack([g, np.roll(g, 1, axis=1)])
    with mock.patch.object(tw, "_word_terms", terms), mock.patch.object(agq.fields, "_GATHER_ENTRIES", cap):
        got = hermitian_gram(code)
        sums = [tw.vsum(cube, axis) for axis in (0, 1, 2, -1)]
    want = zech_tree_gram(code)
    assert got.matrix.dtype == np.int32 and np.array_equal(got.matrix, want.matrix)
    assert (got.all_zero, got.first_nonzero, got.digest) == (want.all_zero, want.first_nonzero, want.digest)
    for axis, total in zip((0, 1, 2, -1), sums):
        assert total.dtype == np.int32 and np.array_equal(total, zech_tree_sum(tw, cube, axis))


@pytest.mark.parametrize("pm", SUM_TOWERS, ids=["pm0", "pm1", "pm2", "pm3", "pm4", "pm5"])
def test_word_runs_are_as_long_as_no_carry_allows(pm):
    """M = _word_terms words with every digit p-1, the worst case, fit in a
    bit field and one more would not; runs of them sum as the Zech tree does."""
    tw = build_tower(*pm)
    m = tw._word_terms
    assert m * (tw.p - 1) <= tw._word_mask < (m + 1) * (tw.p - 1)
    top = tw._code_of(tw.q2 - 1)  # the element whose digits are all p-1
    for n in (m, m + 1, 2 * m + 1) if m < 1000 else ():
        run = np.full((2, n), top, dtype=np.int32)
        assert np.array_equal(tw.vsum(run), zech_tree_sum(tw, run))


@st.composite
def twisted_vandermonde(draw, top_k):
    """G = (v_l * alpha_l^i), i < k <= top_k(n, q), on a set of
    coset_union_sets or stabilizer_cases, so with or without zero and
    sometimes with a repeated point; its columns in set order or permuted.

    The twist v is the set's own (when it has one), an equivariant one,
    v_l = c * alpha_l^(e_r) with the exponent e_r drawn per orbit of the set's
    stabilizer, so that the norms step by a different multiple along each
    orbit, the same with one entry changed, or a random one."""
    es = draw(st.one_of(coset_union_sets(TWIST_TOWERS, 64), stabilizer_cases()))
    assume(es.n > 0)
    tw, units = es.tower, es.tower.n_units
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alpha = es.codes.astype(np.int64)
    # equivariant twice: it is the draw whose orbits carry different c_r
    twist = draw(st.sampled_from(["own", "equivariant", "equivariant", "perturbed", "random"]))
    v = None
    if twist == "own":
        try:
            v = twist_vector(es)
        except NotNormValue:
            twist = "equivariant"
    if twist in ("equivariant", "perturbed"):
        s = brute_force_step(es)
        exponents = rng.integers(units, size=s)  # one per orbit of <t^s>; zero reads exponents[0]
        v = (rng.integers(units) + exponents[alpha % s] * alpha) % units
        if twist == "perturbed":
            at = rng.integers(es.n)
            v[at] = (v[at] + rng.integers(1, units)) % units
    elif twist == "random":
        v = rng.integers(units, size=es.n)
    k = draw(st.integers(1, top_k(es.n, tw.q)))
    g = np.stack([tw.vmul(v, tw.vpow(alpha, i)) for i in range(k)])
    if draw(st.booleans()):
        g = g[:, rng.permutation(es.n)]
    return tw, g


@st.composite
def orbit_gram_cases(draw):
    """A code of twisted_vandermonde with k <= 2q+3, and a Gram gather cap
    that makes blocks of 1 row, or the module default."""
    tw, g = draw(twisted_vandermonde(lambda n, q: min(n, 2 * q + 3)))
    cap = draw(st.sampled_from([1, agq.fields._GATHER_ENTRIES]))
    return LinearCode(tw, g, verify_rank=False), cap


def test_orbit_gram_matches_zech_tree():
    """hermitian_gram, matrix, verdict, first nonzero entry and digest, equals
    the Zech-tree oracle on twisted Vandermonde codes whose points and norms
    have a multiplicative symmetry, have one only on the points, or have none;
    enough of them take the reduced sum over orbit representatives."""
    reduced = []

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(orbit_gram_cases())
    def check(case):
        code, cap = case
        with mock.patch.object(agq.fields, "_GATHER_ENTRIES", cap):
            got = hermitian_gram(code)
        want = zech_tree_gram(code)
        assert got.matrix.dtype == np.int32 and np.array_equal(got.matrix, want.matrix)
        assert (got.all_zero, got.first_nonzero, got.digest) == (want.all_zero, want.first_nonzero, want.digest)
        _, d, c = code.ask("gram_terms") or (code.g, 1, None)
        if d > 1:
            reduced.append((len(c), len(set(c.tolist())), d % code.tower.p))

    check()
    assert len(reduced) >= 40
    assert sum(distinct > 1 for _, distinct, _ in reduced) >= 5  # orbits with different c_r
    assert sum(scale != 1 for _, _, scale in reduced) >= 15  # d != 1 in GF(p)


def brute_force_structure(tw, g):
    """Reference oracle for the line record's gram_terms, entry by entry with
    Scalar: None unless every column l with G[0,l] = 0 has one nonzero entry,
    a unit column (r, G[r,l]), and every other column l, of n0 >= k, is
    v_l * alpha_l^i, i < k, with the alpha_l distinct.  Then, on those core
    columns, d = (q^2-1)/s for the least divisor s of
    q^2-1 whose shift maps the nonzero points onto themselves, and c_r the
    exponent with N(alpha_r t^(ms)) = N(alpha_r) t^(msc_r) for every m < d on
    the orbit of each point alpha_r < s, with the unit columns after the
    representatives and the zero point; all of G, 1 and None when d = 1,
    k = 1 or some orbit has no such c_r.  The unit columns' (r, G[r,l]) come
    last."""
    k = g.shape[0]
    units = tw.n_units
    if k == 0 or any(np.count_nonzero(col != units) != 1 for col in g.T if col[0] == units):
        return None
    ones = [(r, int(g[r, l])) for l in range(g.shape[1]) for r in range(k) if g[0, l] == units != g[r, l]]
    full, unit_block = g, g[:, g[0] == units]
    g = g[:, g[0] != units]
    n = g.shape[1]
    if not 0 < k <= n:
        return None
    alphas = []
    for l in range(n):
        v = Scalar(tw, g[0, l])
        if v.is_zero():
            return None
        alpha = Scalar(tw, g[min(1, k - 1), l]) / v  # 1 when k = 1
        entry = v
        for i in range(k):
            if g[i, l] != entry.code:
                return None
            entry = entry * alpha
        alphas.append(alpha.code)
    if k == 1:
        return full, 1, None, ones
    if len(set(alphas)) < n:
        return None
    column = {a: l for l, a in enumerate(alphas)}
    nonzero = sorted(a for a in alphas if a != units)
    s = min(s for s in range(1, units + 1) if units % s == 0 and {(a + s) % units for a in nonzero} == set(nonzero))
    d = units // s
    if d == 1:
        return full, 1, None, ones
    norm = {a: Scalar(tw, g[0, column[a]]).relative_norm().code for a in nonzero}
    reps, c = [a for a in nonzero if a < s], []
    for r in reps:
        fits = [e for e in range(d) if all(norm[r + m * s] == (norm[r] + m * s * e) % units for m in range(d))]
        if not fits:
            return full, 1, None, ones
        c.append(fits[0])
    return np.hstack((g[:, [column[a] for a in reps + [units] * (units in column)]], unit_block)), d, c, ones


def with_unit_columns(tw, g, rows, rng, second=False):
    """g with a column c * e_r inserted at a random place for each r in rows,
    c a random unit; with second, the last one gets a second nonzero entry,
    in a row other than 0 and r where there is one."""
    k = g.shape[0]
    for i, r in enumerate(rows):
        col = np.full(k, tw.zero_code, dtype=np.int32)
        col[r] = rng.integers(tw.n_units)
        if second and i == len(rows) - 1:
            col[rng.choice([j for j in range(1, k) if j != r] or [0])] = rng.integers(tw.n_units)
        g = np.insert(g, rng.integers(g.shape[1] + 1), col, axis=1)
    return g


@st.composite
def structure_cases(draw):
    """A matrix of twisted_vandermonde with any k <= n, the same matrix with
    one entry, at a random row and column, changed to another code, and the
    same matrix with up to three columns c * e_r inserted (r = 0 reads as a
    zero point's column), the last of them at times with a second nonzero
    entry."""
    tw, g = draw(twisted_vandermonde(lambda n, q: n))
    changed = g.copy()
    i, l = draw(st.integers(0, g.shape[0] - 1)), draw(st.integers(0, g.shape[1] - 1))
    changed[i, l] = (changed[i, l] + draw(st.integers(1, tw.n_units))) % tw.q2
    k = g.shape[0]
    rows = [0] * draw(st.booleans()) + (draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=2)) if k > 1 else [])
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    second = k > 2 and draw(st.integers(0, 3)) == 0
    return tw, (g, changed, with_unit_columns(tw, g, rows, rng, second))


def test_structure_record_matches_brute_force():
    """The line record's gram_terms equal the entry-by-entry oracle on
    twisted Vandermonde matrices, as built, with one entry changed and with
    columns c * e_r inserted, and the Gram summed from the record of the
    matrix as built and with unit columns equals the Zech-tree oracle; the
    draws reach every kind of record: none, all of G, one column per orbit,
    and unit columns."""
    kinds = []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(structure_cases())
    def check(case):
        tw, matrices = case
        codes = [LinearCode(tw, g, verify_rank=False) for g in matrices]
        for code in codes:
            want = brute_force_structure(tw, code.g)
            if want is None:
                assert code.ask("gram_terms") is None
            else:
                (columns, d, c), units = code.ask("gram_terms"), code._line.unit_columns
                assert np.array_equal(columns, want[0]) and d == want[1] and list(units) == want[3]
                assert (None if c is None else c.tolist()) == want[2]
            kinds.append("none" if want is None else "orbits" if want[1] > 1 else "whole")
            kinds.extend(["units"] * bool(want and want[3]))
        for code in codes[::2]:
            got, ref = hermitian_gram(code), zech_tree_gram(code)
            assert np.array_equal(got.matrix, ref.matrix) and got.digest == ref.digest

    check()
    assert min(kinds.count(kind) for kind in ("none", "whole", "orbits", "units")) >= 10


def test_gram_zero_implies_zero_diagonal():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    m = cert.gram.matrix
    tw = cert.code.tower
    assert all(m[i, i] == tw.zero_code for i in range(cert.code.k))


# -- duals -------------------------------------------------------------------------


@settings(max_examples=30, deadline=None, derandomize=True)
@given(uniform_codes(st.integers(1, 3), st.integers(4, 9)))
def test_dual_dimension_and_involution(code):
    n, k = code.params()
    assert dual(code, "euclidean").params() == (n, n - k)
    assert_double_dual_is_the_code(code)


def test_hermitian_dual_contains_gram_certified_code():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    h_dual = dual(cert.code, "hermitian")
    tw = cert.code.tower
    stacked = np.vstack([h_dual.g, cert.code.g])
    assert rank(tw, stacked) == h_dual.k  # C is inside its Hermitian dual


def test_dual_of_artin_schreier_code():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    h_dual = dual(cert.code, "hermitian")
    assert h_dual.params() == (15, 12)
    # the [15,12] dual distance comes from the column oracle
    dd = dual_distance_by_columns(cert.code)
    assert (dd.value, dd.exact) == (3, True)


# -- distances -----------------------------------------------------------------------


def test_exhaustive_distance_examples():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    bare = LinearCode(cert.code.tower, cert.code.g)  # no curve record: every word is weighed
    res = exhaustive_distance(bare)
    assert (res.value, res.exact, res.method) == (12, True, "exhaustive")
    assert sum(1 for c in res.witness if c != cert.code.tower.zero_code) == 12
    # with the record, the light word x - a meets the floor n - m = 15 - 3 first
    light = exhaustive_distance(cert.code)
    assert (light.value, light.exact, light.method) == (12, True, "goppa-light-word")
    assert sum(1 for c in light.witness if c != cert.code.tower.zero_code) == 12


def test_exhaustive_distance_cap():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    code = LinearCode(tw, grs_rows(tw, es, tv, range(5)))
    with pytest.raises(CapExceeded):
        exhaustive_distance(code)
    # GF(16): 16^5 = 2^20 words are within the 2^21 cap, 16^8 = 2^32 are not; past
    # the cap, a light word that meets the curve record's floor still decides d(C)
    assert exhaustive_distance(construct(ConstructionRequest("c7i", 2, 2, n=16, k=10)).code).value == 55
    with pytest.raises(CapExceeded):
        exhaustive_distance(construct(ConstructionRequest("c7i", 2, 2, n=16, k=14)).code)
    light = exhaustive_distance(construct(ConstructionRequest("c7i", 2, 2, n=16, k=11)).code)
    assert (light.value, light.exact, light.method) == (54, True, "goppa-light-word")


def code_of(pm, rows):
    """Code over GF(p^{2m}) with the given rows of exponent codes, None for zero."""
    tw = build_tower(*pm)
    g = np.asarray([[tw.zero_code if c is None else c for c in row] for row in rows], dtype=np.int32)
    return LinearCode(tw, g)


@st.composite
def full_rank_codes(draw, max_k=4):
    """Random full-rank [n<=12, k<=max_k] codes over GF(4), GF(9), GF(16), GF(25),
    with zero columns and repeated or scaled copies of earlier columns."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    k = draw(st.integers(1, max_k))
    n = draw(st.integers(k, 12))
    entry = st.integers(0, tw.zero_code)
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(["random", "zero", "scaled"]))
        if kind == "zero":
            cols.append(np.full(k, tw.zero_code, dtype=np.int32))
        elif kind == "scaled" and cols:
            unit = draw(st.integers(0, tw.n_units - 1))  # code 0 is 1: a repeated column
            cols.append(tw.vmul(unit, draw(st.sampled_from(cols))))
        else:
            cols.append(np.asarray(draw(st.lists(entry, min_size=k, max_size=k)), dtype=np.int32))
    g = np.stack(cols, axis=1)
    assume(rank(tw, g) == k)
    return LinearCode(tw, g)


@st.composite
def pencil_codes(draw):
    """Full-rank [n<=12, k<=4] codes shaped for the pencils h + a.t, t = g[k-1]:
    t with zeros, over columns where the head rows are zero too, partly zero or
    nonzero; a sparse t, the minimum word on its own; or a sparse head row, the
    minimum word at a = 0."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    zero = tw.zero_code
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, 12))
    unit = st.integers(0, tw.n_units - 1)
    g = np.asarray(draw(st.lists(st.lists(unit, min_size=n, max_size=n), min_size=k, max_size=k)), dtype=np.int32)
    columns = st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2))
    shape = draw(st.sampled_from(["zeros-in-last", "sparse-last", "sparse-head"]))
    if shape == "zeros-in-last":
        for j in draw(columns):
            g[k - 1, j] = zero
            heads = draw(st.sampled_from(["zero", "some", "none"]))
            if heads == "zero":
                g[: k - 1, j] = zero
            elif heads == "some":
                g[: k - 1, j][draw(st.lists(st.booleans(), min_size=k - 1, max_size=k - 1))] = zero
    else:
        row = k - 1 if shape == "sparse-last" or k == 1 else draw(st.integers(0, k - 2))
        keep = draw(columns)
        g[row, [j for j in range(n) if j not in keep]] = zero
    assume(rank(tw, g) == k)
    return LinearCode(tw, g)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(full_rank_codes(), pencil_codes()), st.sampled_from([_CHUNK, 100, 7]))
@example(code_of((3, 1), [[0, None, 3, 5]]), 7)  # k = 1: no heads, no pencil
@example(code_of((2, 1), [[0, 1, 2, 0, 1], [None, None, None, 1, None]]), 7)  # t alone is lightest
@example(code_of((2, 1), [[None, None, 0, None, None], [0, 1, 2, 0, 1]]), 7)  # head at a = 0
@example(code_of((2, 2), [[0, None, 4, 9], [None, None, 0, 7], [2, None, None, 1]]), 7)  # t_j = 0, h_j = 0 or not
def test_exhaustive_distance_matches_full_enumeration(code, chunk):
    # small chunks force the chunked middle-row path that full-size codes take;
    # every kernel output stays within _CHUNK words and every histogram within
    # _CHUNK heads of q^2 bins
    tw = code.tower
    sizes, bins = [], []

    def sized(kernel, log):
        def call(*args, **kwargs):
            out = kernel(*args, **kwargs)
            log.append(out.size)
            return out

        return call

    kernels = {name: sized(getattr(tw, name), sizes) for name in ("vadd", "vmul", "vneg", "vinv")}
    with (
        mock.patch.object(agq.codes, "_CHUNK", chunk),
        mock.patch.multiple(tw, **kernels),
        mock.patch.object(np, "bincount", sized(np.bincount, bins)),
    ):
        res = exhaustive_distance(code)
    assert max(sizes) <= chunk * code.n
    assert max(bins, default=0) <= chunk * tw.q2
    assert (res.value, res.exact, res.method) == (full_enumeration_distance(code), True, "exhaustive")
    witness = np.asarray(res.witness, dtype=np.int32)
    assert int((witness != tw.zero_code).sum()) == res.value
    assert rank(tw, np.vstack([code.g, witness[None, :]])) == code.k


@settings(max_examples=40, deadline=None, derandomize=True)
@given(full_rank_codes(max_k=2), st.booleans(), st.integers(0, 9), st.integers(0, 9))
@example(code_of((2, 1), [[0, 1, None, 2], [None, 0, 0, 1]]), True, 1, 2)  # repeated last row
@example(code_of((3, 1), [[0, 1, None, 2], [None, 0, 0, 1]]), False, 0, 2)  # zero last row
def test_exhaustive_distance_rank_deficient_generators(code, repeat, i, at):
    """A repeated row, or an all-zero last row, puts zero words among the
    messages; they are not counted, and d is that of the full-rank code."""
    tw = code.tower
    row = code.g[i % code.k] if repeat else np.full(code.n, tw.zero_code, dtype=np.int32)
    g = np.insert(code.g, at % (code.k + 1) if repeat else code.k, row, axis=0)
    deficient = LinearCode(tw, g, verify_rank=False)
    res = exhaustive_distance(deficient)
    assert res.value == full_enumeration_distance(deficient) == exhaustive_distance(code).value
    assert int((np.asarray(res.witness) != tw.zero_code).sum()) == res.value


@pytest.mark.parametrize(
    "pm, k, chunk",
    [
        pytest.param((2, 1), 3, _CHUNK, id="pm0-3-32768"),
        pytest.param((2, 1), 4, 7, id="pm1-4-7"),
        pytest.param((3, 1), 3, 10, id="pm2-3-10"),
    ],
)
def test_exhaustive_distance_reaches_every_projective_word(pm, k, chunk):
    """For each projective message m, a code whose only minimum-weight words are
    the multiples of m.G: columns are every point of PG(k-1, q^2), so every word
    weighs q^{2(k-1)}, plus the points of the hyperplane m^perp again, which
    every word outside m's class also meets."""
    tw = build_tower(*pm)
    zero = tw.zero_code
    pts = np.asarray(
        [v for v in itertools.product(range(tw.q2), repeat=k) if next((c for c in v if c != zero), None) == 0],
        dtype=np.int32,
    )
    dots = tw.vsum(tw.vmul(pts[:, None, :], pts[None, :, :]), axis=-1)
    with mock.patch.object(agq.codes, "_CHUNK", chunk):
        for m, on_hyperplane in zip(pts, dots == zero):
            g = np.concatenate([pts, pts[on_hyperplane]]).T
            res = exhaustive_distance(LinearCode(tw, g))
            assert res.value == tw.q2 ** (k - 1)
            word = tw.vsum(tw.vmul(m[:, None], g), axis=0)
            assert rank(tw, np.stack([np.asarray(res.witness, dtype=np.int32), word])) == 1


def test_exhaustive_cap_ignores_ops_budget(monkeypatch):
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    monkeypatch.setenv("AGQ_CAP_OPS", "1")
    res = exhaustive_distance(cert.code)
    assert (res.value, res.exact) == (12, True)
    dd = dual_distance_by_columns(cert.code)
    assert not dd.exact and dd.method == "column-scan-lower-bound"


def test_zero_code_degenerate():
    tw = build_tower(3, 1)
    code = LinearCode(tw, np.zeros((0, 6), dtype=np.int32))
    res = exhaustive_distance(code)
    assert (res.value, res.method) == (7, "degenerate")
    zeros = LinearCode(tw, np.full((2, 6), tw.zero_code, dtype=np.int32), verify_rank=False)
    res = exhaustive_distance(zeros)  # all-zero rows span only the zero word
    assert (res.value, res.witness) == (7, None)
    dd = dual_distance_by_columns(code)
    assert (dd.value, dd.exact) == (1, True)


def test_dual_by_columns_lower_bound_budget(monkeypatch):
    monkeypatch.setenv("AGQ_CAP_OPS", str(10 ** 6))
    cert = construct(ConstructionRequest("c5", 2, 3, k=9))
    dd = dual_distance_by_columns(cert.code)
    assert not dd.exact
    assert dd.method == "column-scan-lower-bound"
    assert dd.value >= 3


# 1000 codes as 100 seeded batches of 10, since hypothesis lists repeat their
# elements: 999 distinct codes, 233 of them with d(C) <= 2 (hypothesis 6.155)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_batch(random_sparse_code))
def test_dual_by_columns_equals_exhaustive_small(codes):
    """cross-oracle equivalence: d(C) via column scan on dual == exhaustive."""
    for code in codes:
        assert_dual_scan_equals_exhaustive(code)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(uniform_codes(st.just(4), st.integers(5, 12)))
def test_dual_by_columns_equals_exhaustive_k4(code):
    # module invariant extends to k = 4 (smaller sample: 16^4 words per case)
    assert_dual_scan_equals_exhaustive(code)


def scan_budget(budget):
    """AGQ_CAP_OPS set to budget for the scans run inside the block."""
    return mock.patch.dict(os.environ, {"AGQ_CAP_OPS": str(budget)})


def nominal_spend(code, w, subsets):
    """Budget charged for every subset of size 2..w-1 plus the first `subsets` w-subsets."""
    k, n = code.k, code.n
    return sum(comb(n, v) * k * v * 2 for v in range(2, w)) + subsets * k * w * 2


@st.composite
def column_scan_cases(draw):
    """Full-rank [n<=16, 2<=k<=6] codes over GF(4/9/16/25/49/64) with parallel columns
    and columns that are sums of earlier ones, plus _CHUNK, block cap and a
    budget: the default, or one that ends inside some w's subsets, at a chunk
    boundary of that w or one off it, or anywhere.  AGQ_CAP_OPS must be
    positive, so a budget below 1 is drawn as 1, which certifies the same
    nothing."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)])))
    k = draw(st.sampled_from(range(2, 7)))
    n = draw(st.integers(k, 16))
    unit = st.integers(0, tw.n_units - 1)
    kinds = draw(st.sampled_from([["random"], ["random", "sparse", "sum"], ["random", "sparse", "parallel", "sum"]]))
    sparse = st.one_of(st.just(tw.zero_code), st.sampled_from(range(tw.q2)))  # zero pivots need row swaps
    cols = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        if kind == "parallel" and cols:
            cols.append(tw.vmul(draw(unit), draw(st.sampled_from(cols))))
        elif kind == "sum" and len(cols) >= 2:
            parts = draw(st.lists(st.sampled_from(range(len(cols))), min_size=2, max_size=3, unique=True))
            cols.append(tw.vsum(np.stack([tw.vmul(draw(unit), cols[i]) for i in parts]), axis=0))
        else:
            entry = sparse if kind == "sparse" else st.sampled_from(range(tw.q2))
            cols.append(np.asarray(draw(st.lists(entry, min_size=k, max_size=k)), dtype=np.int32))
    g = np.stack(cols, axis=1)
    assume(rank(tw, g) == k)
    code = LinearCode(tw, g)
    chunk = draw(st.sampled_from([_CHUNK, 100, 7]))
    w = draw(st.sampled_from(range(2, k + 1)))
    budget_kind = draw(st.sampled_from(["default", "any", "boundary", "boundary"]))
    if budget_kind == "default":
        budget = config.DEFAULT_OPS_CAP
    elif budget_kind == "any":
        budget = nominal_spend(code, w, draw(st.integers(0, comb(n, w)))) + draw(st.integers(0, k * w * 2))
    else:
        last = -(-comb(n, w) // chunk)
        blocks = draw(st.one_of(st.sampled_from([0, 1, last]), st.integers(0, last)))
        budget = nominal_spend(code, w, min(blocks * chunk, comb(n, w))) + draw(st.sampled_from([-1, 0, 1]))
    # 1: one prefix per block; a few prefixes per block split shared-prefix runs across blocks
    live = draw(st.sampled_from([1 << 20, 1, k * n * draw(st.integers(2, 5))]))
    return code, max(1, budget), chunk, live


@st.composite
def planted_scan_cases(draw):
    """[n<=14, k=4..5] codes over GF(49/64) with random columns, so sets of fewer
    than w columns are independent (almost surely), and a dependent w-set planted
    anywhere or next to the last w-subset a budget pays for.  With a block cap of
    2..12 k x n matrices the growing blocks reach the cap, and a block straddles
    the end of the budget."""
    tw = build_tower(*draw(st.sampled_from([(7, 1), (2, 3)])))
    k, n = draw(st.integers(4, 5)), draw(st.integers(10, 14))
    w = draw(st.integers(3, k))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    total = comb(n, w)
    certified = draw(st.integers(0, total))
    at = draw(st.one_of(st.integers(0, total - 1), st.sampled_from([certified - 1, certified])))
    planted = next(itertools.islice(itertools.combinations(range(n), w), min(max(at, 0), total - 1), None))
    coefficients = draw(st.lists(st.integers(0, tw.n_units - 1), min_size=w - 1, max_size=w - 1))
    g[:, planted[-1]] = tw.vsum(np.stack([tw.vmul(e, g[:, c]) for e, c in zip(coefficients, planted[:-1])]), axis=0)
    assume(rank(tw, g) == k)
    code = LinearCode(tw, g)
    budget = nominal_spend(code, w, certified) + draw(st.sampled_from([-1, 0, 1]))
    return code, max(1, budget), draw(st.sampled_from([7, 100])), k * n * draw(st.integers(2, 12))


@contextlib.contextmanager
def scan_blocks():
    """Record (prefixes, prefix width, entries held) for every block the column
    scan frames (_block_frame receives each one): the projected matrices of
    its chunk's groups plus k-w+2 coordinates for each of its entries, what
    the block holds if every entry is keyed in full.  It also pins the
    schedule: the first block of a w (the one that opens at the w's first
    prefix) holds at most _FIRST_PREFIXES prefixes, and every block that is
    neither its w's first nor its chunk's last would outgrow the
    _LIVE_ENTRIES cap with one more prefix."""
    blocks = []
    frame = agq.codes._block_frame

    def spy(tower, chunk, lo, hi, starts):
        out = frame(tower, chunk, lo, hi, starts)
        groups, _, last, m = chunk
        coordinates = len(out[1]) - 1
        entries = m.shape[-1] - 1 - last
        width = groups.shape[1] + 1
        blocks.append((hi - lo, width, m.size + int(entries[lo:hi].sum()) * coordinates))
        if lo == 0 and last[0] == width - 1:  # prefix (0, 1, .., w-3) opens the w
            assert hi - lo <= agq.codes._FIRST_PREFIXES
        elif hi < len(last):
            assert m.size + int(entries[lo : hi + 1].sum()) * coordinates > agq.codes._LIVE_ENTRIES
        return out

    with mock.patch.object(agq.codes, "_block_frame", spy):
        yield blocks


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(column_scan_cases(), planted_scan_cases()))
# w = 2: columns 0 and 1 are equal, found before any prefix is eliminated
@example((code_of((2, 1), [[0, 0, 1], [1, 1, None]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 3, {0, 2, 3}: no earlier step, and prefix (0,) has a zero in row 0
@example((code_of((2, 1), [[None, 0, None, None], [0, None, None, 0], [None, None, 0, 0]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 4, {0, 1, 2, 3}: after column 0, column 1 of prefix (0, 1) has a zero in row 0
@example(
    (
        code_of(
            (2, 1),
            [[0, 0, None, None, None], [None, None, 0, 0, None], [None, 0, None, 0, None], [None, None, None, None, 0]],
        ),
        config.DEFAULT_OPS_CAP,
        _CHUNK,
        1 << 20,
    )
)
# w = 2, {0, 1}: both columns are zero in row 0, so their keys scale by row 1
@example((code_of((2, 1), [[None, None, 0, None], [0, 1, None, None], [1, 2, 0, 0]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 3, {0, 1, 2}: modulo column 0 = e_0, columns 1 and 2 project to points
# whose first coordinate is zero
@example((code_of((2, 1), [[0, 0, 1, None], [None, None, None, 0], [None, 0, 0, None]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 2, {1, 2}: columns 0, 1 and 2 are zero in row 0, and of them only 1 and 2 = t * 1 are parallel
@example((code_of((2, 1), [[None, None, None, 0], [0, 0, 1, 0], [0, 1, 2, 1]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 2, {1, 4}: column 4 is t^5 times column 1, which leads in row 0, over GF(49)
@example((code_of((7, 1), [[3, 0, 7, 9, 5], [1, 2, 40, 11, 7], [6, 30, 4, 22, 35]]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
# w = 2, {4, 5}: parallel, but past (1, 3), the last of the 7 pairs that one _CHUNK of 7 pays for
@example((code_of((2, 2), [[0, 0, 0, 0, 0, 3], [0, 1, 2, 3, 4, 7], [0, 2, 4, 6, 8, 11]]), 7 * 3 * 2 * 2, 7, 1 << 20))
# w = 2, {3, 11}: k = 9 over GF(169), 9 digits of 8 bits, so the column keys are re-ranked on the way
@example((code_of((13, 1), [[(i * j) % 168 for j in range(11)] + [(3 * i + 5) % 168] for i in range(9)]), config.DEFAULT_OPS_CAP, _CHUNK, 1 << 20))
def test_column_scan_matches_per_subset_scan(case):
    code, budget, chunk, live = case
    with (
        mock.patch.object(agq.codes, "_CHUNK", chunk),
        mock.patch.object(agq.codes, "_LIVE_ENTRIES", live),
        scan_budget(budget),
        scan_blocks() as blocks,
    ):
        assert dual_distance_by_columns(code) == per_subset_column_scan(code)
    # no block outgrows the _LIVE_ENTRIES cap, unless it is a single prefix
    assert all(held <= live or count == 1 for count, _, held in blocks)


def lex_rank(combo, n):
    """Position of a sorted subset of range(n) in itertools.combinations order:
    the closed form that agq.codes._unrank inverts."""
    w = len(combo)
    return comb(n, w) - 1 - sum(comb(n - 1 - c, w - i) for i, c in enumerate(combo))


def test_unrank_matches_combinations():
    # every rank of every w-subset of range(n), n <= 11
    for n in range(12):
        for w in range(n + 1):
            for r, combo in enumerate(itertools.combinations(range(n), w)):
                assert _unrank(r, n, w) == combo


@st.composite
def unrank_cases(draw):
    """(n, w, r): n <= 1024, w <= 8, and a rank r of the w-subsets of range(n),
    the first or the last one often."""
    n = draw(st.integers(1, 1024))
    w = draw(st.integers(1, min(8, n)))
    r = draw(st.one_of(st.sampled_from([0, comb(n, w) - 1]), st.integers(0, comb(n, w) - 1)))
    return n, w, r


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unrank_cases())
@example((1024, 8, 0))
@example((1024, 8, comb(1024, 8) - 1))
def test_unrank_inverts_lex_rank(case):
    n, w, r = case
    combo = _unrank(r, n, w)
    assert len(combo) == w and all(a < b for a, b in zip((-1,) + combo, combo + (n,)))  # in range(n), increasing
    assert lex_rank(combo, n) == r


@pytest.mark.parametrize(
    "w, chunk, blocks",
    [
        pytest.param(3, 7, 6, id="7-6"),  # final inside the prefix (1,)
        pytest.param(3, 5, 15, id="5-15"),  # final opens the prefix (4,)
        pytest.param(3, 5, 16, id="5-16"),  # final ends the prefix (4,)
        pytest.param(4, 7, 3, id="w4-7-3"),  # final ends the prefix (0, 1)
        pytest.param(4, 7, 8, id="w4-7-8"),  # final ends the group (0,)
    ],
)
@pytest.mark.parametrize("shift, exact", [(-1, True), (0, False)])
def test_column_scan_budget_boundary(w, chunk, blocks, shift, exact):
    """The budget certifies the first L = blocks*chunk w-subsets of 9 columns, so
    final, the last one it certifies, has rank L-1; the lex-first dependent
    w-subset is planted at rank L-1 (found) or at rank L (past the budget).
    For w = 3, ranks 74 and 80 open the prefixes (4,) and (5,), so final =
    (4, 7, 8) ends a prefix at L = 80.  For w = 4, final = (0, 1, 7, 8) ends
    the prefix (0, 1) at L = 21, and final = (0, 6, 7, 8) ends the group (0,)
    at L = 56."""
    tw, k, n = build_tower(2, 3), 4, 9
    target = list(itertools.combinations(range(n), w))[blocks * chunk + shift]
    g = np.random.default_rng(5).integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    g[:, target[-1]] = tw.vsum(np.stack([tw.vmul(3 + 8 * i, g[:, c]) for i, c in enumerate(target[:-1])]), axis=0)
    code = LinearCode(tw, g)
    found = DistanceResult(w, True, target, "column-scan")
    budget = nominal_spend(code, w, blocks * chunk)
    with mock.patch.object(agq.codes, "_CHUNK", chunk):
        assert per_subset_column_scan(code) == found  # the planted set is the lex-first dependent one
        with scan_budget(budget):
            res = dual_distance_by_columns(code)
            assert res == per_subset_column_scan(code)
        with scan_budget(budget - 1):
            assert dual_distance_by_columns(code).method == "column-scan-lower-bound"
    assert res == (found if exact else DistanceResult(w, False, None, "column-scan-lower-bound"))


def test_column_scan_stops_at_the_first_dependent_prefix():
    """The lex-first dependent 4-set of this [60, 6] code over GF(64) is the planted
    {0, 1, 2, 3}, in the first prefix (0, 1): the w = 4 scan must end with the
    first block of _FIRST_PREFIXES prefixes, whose chunk holds the matrix of the
    one group (0,) it needs.  The w = 3 scan finds nothing, so it takes all 58
    prefixes of its one group: the first _FIRST_PREFIXES, then the other 54 in
    one block, which fits the _LIVE_ENTRIES cap."""
    tw, k, n = build_tower(2, 3), 6, 60
    g = np.random.default_rng(7).integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    g[:, 3] = tw.vsum(np.stack([tw.vmul(e, g[:, c]) for e, c in ((5, 0), (20, 1), (41, 2))]), axis=0)
    code = LinearCode(tw, g)
    with scan_blocks() as blocks:
        res = dual_distance_by_columns(code)
    assert res == DistanceResult(4, True, (0, 1, 2, 3), "column-scan") == per_subset_column_scan(code)
    assert [count for count, width, _ in blocks if width == 2] == [agq.codes._FIRST_PREFIXES]
    # (k-1) x n codes of matrix, and k-2 coordinates for each entry of the prefixes (0, 1) .. (0, 4)
    assert [held for _, width, held in blocks if width == 2] == [(k - 1) * n + (k - 2) * sum(range(n - 5, n - 1))]
    first = agq.codes._FIRST_PREFIXES
    assert [count for count, width, _ in blocks if width == 1] == [first, n - 2 - first]
    assert all(held <= agq.codes._LIVE_ENTRIES for _, _, held in blocks)


def test_column_scan_large_field():
    """GF(2^16), k = 6: a projective point of six 16-bit coordinates does not fit in
    an int64, yet the scan must find exactly the planted dependent set {2, 5, 7, 9}."""
    tw = build_tower(2, 8)
    g = np.random.default_rng(11).integers(0, tw.n_units, size=(6, 12)).astype(np.int32)
    g[:, 9] = tw.vsum(np.stack([tw.vmul(e, g[:, c]) for e, c in ((17, 2), (40000, 5), (9, 7))]), axis=0)
    code = LinearCode(tw, g)
    assert dual_distance_by_columns(code) == DistanceResult(4, True, (2, 5, 7, 9), "column-scan")
    assert per_subset_column_scan(code) == dual_distance_by_columns(code)
    with mock.patch.object(agq.codes, "_CHUNK", 100):
        for budget in (nominal_spend(code, 4, 300) - 1, nominal_spend(code, 4, 300)):
            with scan_budget(budget):
                assert dual_distance_by_columns(code) == per_subset_column_scan(code)


def test_column_scan_memory_on_the_budget_capped_row():
    """The [80, 8] code over GF(64) of the mixed-80-64-8-q8 reproduce row: under
    the default budget its scan certifies every 3-subset and part of the
    4-subsets, so it ends as the lower bound 4.  Its blocks run in arrays made
    once per scan, as large as its largest block could be (about 10,900
    entries of three short-key coordinates, with rows for five).  The
    projected matrices of a chunk of whole groups, the first group (0,) alone
    and then 14 groups at w = 4, stay live across its blocks and count
    against the same cap, and a chunk is freed before the next one is built;
    each block finds the pivots of its own prefixes.  The scan's peak of
    traced allocations is about 1.63 MiB.  It was 10.3 MiB when each block
    eliminated whole (prefixes, k, n) batches, and 2.26 MiB when each block
    made its own arrays and keyed every coordinate."""
    code = construct(ConstructionRequest("c5", 2, 3, k=9)).code
    assert (code.n, code.k, code.tower.q2) == (80, 8, 64)
    with scan_budget(config.DEFAULT_OPS_CAP):
        tracemalloc.start()
        try:
            res = dual_distance_by_columns(code)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert res == DistanceResult(4, False, None, "column-scan-lower-bound")
    assert peak < 1.8 * 2 ** 20, peak


def test_column_scan_keys_few_entries_in_full():
    """The budget of the [80, 8] code's scan pays for 70,934 of the 82,082 entries
    of w = 4, whose points have six coordinates.  Each gets a short key of
    three, and fewer than 1% of them a full key: their short keys repeat that
    rarely (none do), where keys of two coordinates repeat for 36,344."""
    code = construct(ConstructionRequest("c5", 2, 3, k=9)).code
    keyed = []  # (coordinates of the points, coordinates keyed, entries)
    point_keys = agq.codes._point_keys

    def spy(tower, frame, e, wide, narrow):
        keyed.append((len(frame[1]) - 1, len(wide) - 4, len(e)))
        return point_keys(tower, frame, e, wide, narrow)

    with scan_budget(config.DEFAULT_OPS_CAP), mock.patch.object(agq.codes, "_point_keys", spy):
        assert dual_distance_by_columns(code) == DistanceResult(4, False, None, "column-scan-lower-bound")
    assert sum(entries for points, keys, entries in keyed if points == 6 and keys < 6) == 70934
    assert sum(entries for points, keys, entries in keyed if points == keys == 6) < 709


@st.composite
def short_key_cases(draw):
    """[k+1 <= n <= k+5, 4 <= k <= 8] codes over GF(4), GF(16), GF(64) and GF(529),
    which has no Cayley tables, with a block cap that splits the scan into
    blocks of a few prefixes.  The first w-2 columns are unit vectors, so that
    modulo their span the point of a later column is its rows w-2..; two
    planted columns have points that agree in their first _SHORT_KEY
    coordinates, up to a scalar, and in the rest too, or not, or whose first
    coordinates are all zero.  Other columns are random or sparse, zero in
    most rows, so that leading coordinates are zero."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (2, 2), (2, 3), (23, 1)])))
    k = draw(st.integers(4, 8))
    n = draw(st.integers(k + 1, k + 5))
    w = draw(st.integers(2, k - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, tw.q2, size=(k, n)).astype(np.int32)
    sparse = rng.random(size=(k, n)) < draw(st.sampled_from([0.0, 0.5, 0.8]))
    g[sparse] = tw.zero_code
    g[:, : w - 2] = tw.zero_code
    g[range(w - 2), range(w - 2)] = 0
    j, l = sorted(rng.choice(range(w - 2, n), size=2, replace=False))
    lead, rest = slice(w - 2, w - 2 + agq.codes._SHORT_KEY), slice(w - 2 + agq.codes._SHORT_KEY, k)
    shape = draw(st.sampled_from(["agree", "parallel", "zero-lead agree", "zero-lead parallel"]))
    if shape.startswith("zero-lead"):
        g[lead, j] = g[lead, l] = tw.zero_code
    scale = int(rng.integers(0, tw.n_units))
    g[lead, l] = tw.vmul(scale, g[lead, j])
    if shape.endswith("parallel"):
        g[rest, l] = tw.vmul(scale, g[rest, j])
    assume(rank(tw, g) == k)
    return LinearCode(tw, g), k * n * draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(short_key_cases())
def test_short_keys_match_per_subset_scan(case):
    code, live = case
    with mock.patch.object(agq.codes, "_LIVE_ENTRIES", live):
        assert dual_distance_by_columns(code) == per_subset_column_scan(code)


@contextlib.contextmanager
def stable_sorts():
    """Record the length of every array np.argsort sorts stably: the column scan
    sorts stably only in a block whose keys repeat, to read the witness."""
    calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        if kwargs.get("kind") == "stable":
            calls.append(len(a))
        return argsort(a, *args, **kwargs)

    with mock.patch.object(np, "argsort", spy):
        yield calls


def planted_vandermonde(k, sources):
    """The [12, k] Vandermonde code over GF(64), every k columns independent, with
    column 11 replaced by a combination of the source columns."""
    tw = build_tower(2, 3)
    g = np.stack([tw.vpow(np.arange(12), i) for i in range(k)]).astype(np.int32)
    g[:, 11] = tw.vsum(np.stack([tw.vmul(5 * i + 3, g[:, c]) for i, c in enumerate(sources)]), axis=0)
    return LinearCode(tw, g)


@pytest.mark.parametrize(
    "pm, k",
    [pytest.param((2, 3), 3, id="pm0-3"), pytest.param((2, 3), 4, id="pm1-4"), pytest.param((7, 1), 4, id="pm2-4")],
)
def test_column_scan_without_repeated_keys_never_sorts_stably(pm, k):
    """A [12, k] Vandermonde code has no dependent set of k or fewer columns: the
    scan runs every w = 2..k, each w from 3 on over several blocks, and no keys repeat."""
    tw = build_tower(*pm)
    code = LinearCode(tw, np.stack([tw.vpow(np.arange(12), i) for i in range(k)]).astype(np.int32))
    with scan_blocks() as blocks, stable_sorts() as calls:
        res = dual_distance_by_columns(code)
    assert res == DistanceResult(k + 1, True, tuple(range(k + 1)), "column-scan")
    assert len([width for _, width, _ in blocks if width == k - 2]) > 1
    assert calls == []


@settings(max_examples=100, deadline=None, derandomize=True)
@given(planted_scan_cases().map(lambda case: (case[0], case[3])))
# w = 3, found in prefix (4,): the second block, which holds the rest of the one group
@example((planted_vandermonde(3, (4, 5)), 1 << 20))
# w = 4, found in prefix (4, 5): the third block, after the first 4 prefixes and
# the other 5 of group (0,), and the one block of the second chunk, groups (1,) to (8,)
@example((planted_vandermonde(4, (4, 5, 10)), 1 << 20))
# w = 3: prefix (0,) collides at (4, 5) and prefix (1,) at (2, 3), both in the first block
@example((code_of((2, 1), [[0, None, None, None, 0, 2], [None, 0, None, 0, 1, 2], [None, None, 0, 0, 0, 1]]), 1 << 20))
def test_column_scan_sorts_stably_once_to_read_the_witness(case):
    """A code with a planted dependent set: the blocks before the one that holds
    the lex-first dependent set have no repeated key, and that block is sorted
    stably once, to read the same witness as the per-subset scan."""
    code, live = case
    with mock.patch.object(agq.codes, "_LIVE_ENTRIES", live), stable_sorts() as calls:
        res = dual_distance_by_columns(code)
    assert res.exact and res == per_subset_column_scan(code)
    assert len(calls) == 1


@st.composite
def chunk_boundary_cases(draw):
    """[w+4 <= n <= 14, w <= k <= 6] codes over GF(4), GF(16), GF(49), GF(64) and
    GF(529), which has no Cayley tables, with random columns and a dependent
    w-set, w = 3..5, planted at any lex rank or in one of the first prefixes
    past the w's first block, and a block cap of 1 to 4*k*n codes.  The first
    group of the w-scan has n-w+1 > _FIRST_PREFIXES prefixes, so the first
    chunk is that group alone and its second block opens inside it, and with
    that cap each later chunk holds one group."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (2, 2), (7, 1), (2, 3), (23, 1)])))
    w = draw(st.integers(3, 5))
    k, n = draw(st.integers(w, 6)), draw(st.integers(w + 4, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    if draw(st.booleans()):
        planted = next(itertools.islice(itertools.combinations(range(n), w), draw(st.integers(0, comb(n, w) - 1)), None))
    else:
        at = min(agq.codes._FIRST_PREFIXES + draw(st.integers(0, 2)), comb(n - 2, w - 2) - 1)
        prefix = next(itertools.islice(itertools.combinations(range(n - 2), w - 2), at, None))
        planted = prefix + tuple(sorted(rng.choice(range(prefix[-1] + 1, n), size=2, replace=False)))
    coefficients = rng.integers(0, tw.n_units, size=w - 1)
    g[:, planted[-1]] = tw.vsum(np.stack([tw.vmul(int(e), g[:, c]) for e, c in zip(coefficients, planted[:-1])]), axis=0)
    assume(rank(tw, g) == k)
    return LinearCode(tw, g), draw(st.integers(1, 4 * k * n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(chunk_boundary_cases())
# w = 3, {4, 5, 11}: the fifth prefix (4,), at this cap in the fourth block of the one group
@example((planted_vandermonde(3, (4, 5)), 3 * 12 * 2))
# w = 4, {0, 5, 10, 11}: the fifth prefix (0, 5), in the second block of the first chunk, group (0,)
@example((planted_vandermonde(4, (0, 5, 10)), 4 * 12 * 2))
def test_chunked_scan_matches_per_subset_scan(case):
    """The prefixes of each chunk and each block give the per-subset scan's
    result, and each w eliminates each of its groups once: the groups its
    chunks eliminate are the first (w-3)-subsets of range(n-3) in lex order,
    none twice.  A witness past the w's first _FIRST_PREFIXES prefixes was
    found after a block that opens inside the first group."""
    code, live = case
    eliminated = {}  # groups by width, in the order eliminated
    opened = set()  # (prefix width, the chunk's first group) of every block that opens past its chunk's first prefix
    projections, frame = agq.codes._prefix_projections, agq.codes._block_frame

    def spy(tower, g, pre):
        eliminated.setdefault(pre.shape[1], []).extend(tuple(int(c) for c in row) for row in pre)
        return projections(tower, g, pre)

    def block_spy(tower, chunk, lo, hi, starts):
        groups = chunk[0]
        if groups is not None and lo > 0:
            opened.add((groups.shape[1] + 1, tuple(int(c) for c in groups[0])))
        return frame(tower, chunk, lo, hi, starts)

    with (
        mock.patch.object(agq.codes, "_LIVE_ENTRIES", live),
        mock.patch.object(agq.codes, "_prefix_projections", spy),
        mock.patch.object(agq.codes, "_block_frame", block_spy),
    ):
        res = dual_distance_by_columns(code)
    assert res == per_subset_column_scan(code)
    for width, groups in eliminated.items():
        assert groups == list(itertools.combinations(range(code.n - 3), width))[: len(groups)]
    if res.witness is not None and len(res.witness) >= 3:
        w = len(res.witness)
        prefixes = list(itertools.combinations(range(code.n - 2), w - 2))
        if prefixes.index(res.witness[: w - 2]) >= agq.codes._FIRST_PREFIXES:
            assert (w - 2, tuple(range(w - 3))) in opened


def test_column_scan_eliminates_each_first_column_once():
    """Under the default budget, the w = 4 scan of the [80, 8] code over GF(64)
    reaches the prefixes (a, b) with a <= 38, and eliminates g on each first
    column a once: 39 eliminations, where blocks that each eliminated their
    own prefixes' first columns ran 51."""
    code = construct(ConstructionRequest("c5", 2, 3, k=9)).code
    firsts = []
    projections = agq.codes._prefix_projections

    def spy(tower, g, pre):
        if pre.shape[1] == 1:  # the groups of the w = 4 scan
            firsts.extend(int(c) for c in pre[:, 0])
        return projections(tower, g, pre)

    with scan_budget(config.DEFAULT_OPS_CAP), mock.patch.object(agq.codes, "_prefix_projections", spy):
        assert dual_distance_by_columns(code) == DistanceResult(4, False, None, "column-scan-lower-bound")
    assert firsts == list(range(39))


@st.composite
def keyed_rows(draw):
    """(q2, b, digits): prefix indices and one coordinate per row of digits, with
    repeated entries and coordinates near q2 - 1."""
    q2 = draw(st.sampled_from([4, 64, 289, 2 ** 16, 2 ** 22]))
    width, size = draw(st.integers(0, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.integers(0, draw(st.sampled_from([1, 5, 3000])), size=size)
    low = draw(st.sampled_from([0, q2 - 2]))
    points = rng.integers(low, q2, size=(size, width)).astype(np.int32)
    copies = rng.integers(0, size, size=size // 3)
    return q2, np.concatenate([b, b[copies]]), np.concatenate([points, points[copies]]).T


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keyed_rows())
@example((2 ** 22, np.asarray([3000, 0, 3000]), np.full((8, 3), 2 ** 22 - 1, dtype=np.int32)))
def test_exact_keys_order_rows_lexicographically(case):
    # with q2 = 2^22 and 8 coordinates the key needs 176 bits, so it is re-ranked on the way
    q2, b, digits = case
    keys = _exact_keys(b, digits, q2)
    rows = [(int(bi), *map(int, pi)) for bi, pi in zip(b, digits.T)]
    order = np.argsort(keys, kind="stable")
    assert [rows[i] for i in order] == sorted(rows)
    for x, y in zip(order[:-1], order[1:]):
        assert (keys[x] == keys[y]) == (rows[x] == rows[y])


# 1000 rows as 100 seeded batches of 10: 997 distinct rows (hypothesis 6.155)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_batch(random_row))
def test_frobenius_weight_invariance(rows):
    for tw, row in rows:
        assert_frobenius_keeps_weight(tw, row)


def test_frobenius_code_has_the_same_distance():
    # wt spectra of C and C^q agree (small exhaustive case)
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    code = cert.code
    d1 = exhaustive_distance(code).value
    d2 = exhaustive_distance(LinearCode(code.tower, code.tower.vfrob(code.g), verify_rank=False)).value
    assert d1 == d2


def test_dual_distance_on_frobenius_dual_agrees():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    code = cert.code
    d1 = dual_distance_by_columns(code).value
    d2 = dual_distance_by_columns(LinearCode(code.tower, code.tower.vfrob(code.g), verify_rank=False)).value
    assert d1 == d2


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.integers(4, 8).flatmap(lambda n: uniform_codes(st.just(n - 2), st.just(n), towers=[(2, 1), (3, 1)])))
def test_hermitian_dual_distance_equals_euclidean_dual_distance(code):
    # d(C^perp_H) = d(C^perp): entrywise Frobenius preserves Hamming weight
    d_h = exhaustive_distance(dual(code, "hermitian")).value
    d_e = exhaustive_distance(dual(code, "euclidean")).value
    assert d_h == d_e


def test_ops_cap_env_override(monkeypatch):
    monkeypatch.setenv("AGQ_CAP_OPS", "1000000")
    cert = construct(ConstructionRequest("c5", 2, 3, k=9))
    dd = dual_distance_by_columns(cert.code)
    assert not dd.exact and dd.method == "column-scan-lower-bound"
    monkeypatch.delenv("AGQ_CAP_OPS")


# 1000 codes as 100 seeded batches of 10: 995 distinct codes (hypothesis 6.155)
@settings(max_examples=100, deadline=None, derandomize=True)
@given(seeded_batch(random_short_code))
def test_dual_involution_property_suite(codes):
    for code in codes:
        assert_double_dual_is_the_code(code)


# -- rank by shape -------------------------------------------------------------------


@st.composite
def shaped_matrices(draw):
    """Rows v_l * alpha_l^i, i < k, with distinct alpha_l (zero allowed) and
    nonzero v_l, or a near miss: a repeated alpha, a zero v_l or k > n.
    Returns the matrix and whether it has the shape with k <= n."""
    tw = build_tower(*draw(st.sampled_from([(3, 1), (2, 2), (13, 1), (2, 5), (2, 8)])))
    n = draw(st.integers(1, 9))
    alphas = draw(st.lists(st.integers(0, tw.zero_code), min_size=n, max_size=n, unique=True))
    v = draw(st.lists(st.integers(0, tw.n_units - 1), min_size=n, max_size=n))
    k = draw(st.integers(1, n))
    miss = draw(st.sampled_from(["none", "repeated alpha", "zero v", "k > n"]))
    if miss == "repeated alpha" and n > 1:
        alphas[draw(st.integers(1, n - 1))] = alphas[0]
    elif miss == "zero v":
        v[draw(st.integers(0, n - 1))] = tw.zero_code
    elif miss == "k > n":
        k = n + draw(st.integers(1, 2))
    g = np.stack([tw.vmul(v, tw.vpow(alphas, i)) for i in range(k)])
    shaped = k <= n and tw.zero_code not in v and (k == 1 or len(set(alphas)) == n)
    return tw, g, shaped


@settings(max_examples=200, deadline=None, derandomize=True)
@given(shaped_matrices())
def test_rank_by_shape_matches_rref(case):
    """A Vandermonde-shaped G skips rref and has rank k by rref too; every
    other G raises RankDefect, with rref's rank, exactly when rref finds rank < k."""
    tw, g, shaped = case
    k = g.shape[0]
    r = rank(tw, g)
    if shaped:
        assert r == k
    if r < k:
        with pytest.raises(RankDefect) as exc:
            LinearCode(tw, g)
        assert (exc.value.achieved_rank, exc.value.expected) == (r, k)
    else:
        no_rref = mock.patch.object(agq.codes, "rref", side_effect=AssertionError("rref ran"))
        with no_rref if shaped else contextlib.nullcontext():
            code = LinearCode(tw, g)
        assert any(code.records) == shaped


def test_is_mds_reads_the_shape_verdict_of_the_code():
    code = construct(ConstructionRequest("c1", 13, 1, n=25, k=5)).code
    assert any(code.records)
    with mock.patch.object(agq.codes, "_line_record", side_effect=AssertionError("record found again")):
        flag, witness, method, dd = is_mds(code)
    assert (flag, witness, method, dd.value) == (True, None, "vandermonde", 6)


@st.composite
def line_record_codes(draw):
    """A GRS core (v_l * alpha_l^i) on n0 >= k distinct points, zero allowed,
    over GF(4) to GF(49), with unit columns c * e_r inserted at random places:
    one in row k-1, two there, one in row k-2, one in each of k-2 and k-1, or
    any rows 1..k-1."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)])))
    k = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    alphas = rng.permutation(tw.q2)[: draw(st.integers(k, min(tw.q2, k + 5)))]
    v = rng.integers(tw.n_units, size=len(alphas))
    g = np.stack([tw.vmul(v, tw.vpow(alphas, i)) for i in range(k)])
    rows = draw(st.sampled_from([[k - 1], [k - 1, k - 1], [k - 2], [k - 2, k - 1], None]))
    rows = draw(st.lists(st.integers(1, k - 1), min_size=1, max_size=3)) if rows is None else rows
    return LinearCode(tw, with_unit_columns(tw, g, [r for r in rows if r], rng))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(line_record_codes())
def test_line_record_readers_match_their_oracles(code):
    """A GRS core with unit columns: MDS by the record ("extended-grs")
    exactly with one unit column, in row k-1, and is_mds's flag equal to the
    minors oracle's whatever the rows; any k + u columns, u unit columns, of
    rank k; the Gram equal to the Zech-tree oracle's."""
    tw, k = code.tower, code.k
    units = code._line.unit_columns
    flag, singular, method, _ = is_mds(code)
    assert (method == "extended-grs") == ([r for r, _ in units] == [k - 1])
    assert flag == minors_is_mds(code)[0]
    if singular is not None:
        assert rank(tw, code.g[:, list(singular)]) < k
    assert code.full_rank_on(k + len(units)) and not code.full_rank_on(k + len(units) - 1)
    cols = np.random.default_rng(code.n).permutation(code.n)[: k + len(units)]
    assert rank(tw, code.g[:, cols]) == k
    assert np.array_equal(hermitian_gram(code).matrix, zech_tree_gram(code).matrix)


# -- MDS ---------------------------------------------------------------------------


def test_grs_codes_are_mds():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    for k in (1, 2, 3):
        code = LinearCode(tw, grs_rows(tw, es, tv, range(k)))
        flag, wit, method = minors_is_mds(code)
        assert flag and wit is None
        flag2, _, method2, _ = is_mds(code)
        assert flag2 and method2 == "vandermonde"


def test_hermitian_code_not_mds_with_witness():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))
    flag, witness, method = minors_is_mds(cert.code)
    assert not flag
    cols = cert.code.g[:, list(witness)]
    assert rank(cert.code.tower, cols.T.copy().T) < len(witness)


def test_embedded_coset_code_mds():
    # the 26-column embedding of the 25-point coset-union code stays MDS
    from agq.constructions import construct_chain

    chain = construct_chain(ConstructionRequest("c3", 17, 1, n=12, t=1, k=2, embed="once"))
    last = chain[-1]
    assert last.code.params() == (26, 3)
    flag, _, _ = minors_is_mds(last.code)
    assert flag


def test_is_mds_cap(monkeypatch):
    from agq.constructions import construct_chain

    # the embedded [6,3] is extended GRS, and its systematic form [I | A],
    # which has no record, verifies as Cauchy
    code = construct_chain(ConstructionRequest("c1", 5, 1, n=5, embed="iterate"))[-1].code
    assert code.params() == (6, 3)
    assert is_mds(code)[:3] == (True, None, "extended-grs")
    systematic = LinearCode(code.tower, code.reduced[0])
    assert not any(systematic.records) and is_mds(systematic)[:3] == (True, None, "cauchy")
    # [I | A] over GF(25) with an A that is not Cauchy has no structural
    # certificate, so the column scan decides
    tw = build_tower(5, 1)
    g = np.full((3, 6), tw.zero_code, dtype=np.int32)
    g[np.arange(3), np.arange(3)] = 0
    g[:, 3:] = [[20, 15, 12], [6, 7, 0], [1, 0, 4]]
    code = LinearCode(tw, g)
    assert minors_is_mds(code)[0]
    flag, witness, method, dd = is_mds(code)
    assert (flag, witness, method) == (True, None, "column-scan") and dd.value == 4 and dd.exact
    monkeypatch.setenv("AGQ_CAP_OPS", "10")
    flag, witness, method, dd = is_mds(code)
    assert (flag, witness, method) == (None, None, "column-scan-lower-bound") and not dd.exact


def assert_square_code_is_mds(code):
    """A full-rank k x k code: every k-subset of its columns (there is one) is
    independent, and C^perp = {0}, so d(C^perp) = k+1 with no column set to show."""
    k = code.k
    assert code.n == k and minors_is_mds(code)[0]
    assert dual_distance_by_columns(code) == DistanceResult(k + 1, True, None, "column-scan")
    flag, witness, method, dd = is_mds(code)
    assert (flag, witness) == (True, None) and method in ("systematic", "vandermonde")
    assert dd == DistanceResult(k + 1, True, None, "mds-singleton")


def test_square_gf4_code_is_mds():
    # n - k = 0: the systematic form has no A to screen, and there is no column k
    assert_square_code_is_mds(code_of((2, 1), [[0, 0, None], [None, 0, 1], [0, 1, 2]]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3)]), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_invertible_square_codes_are_mds(pm, k, seed):
    """Random invertible k x k matrices, k = 1..6, over GF(4) to GF(64), zero entries included."""
    tw = build_tower(*pm)
    g = np.random.default_rng(seed).integers(0, tw.q2, size=(k, k)).astype(np.int32)
    assume(rank(tw, g) == k)
    assert_square_code_is_mds(LinearCode(tw, g))


@st.composite
def random_codes_gf25(draw):
    """Random full-rank [4..8, 1..3] codes over GF(25); every entry may be zero."""
    tw = build_tower(5, 1)
    n, k = draw(st.integers(4, 8)), draw(st.integers(1, 3))
    g = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, tw.q2, size=(k, n)).astype(np.int32)
    assume(rank(tw, g) == k)
    return LinearCode(tw, g)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.one_of(random_codes_gf25(), self_orthogonal_codes([(2, 1), (3, 1), (5, 1)], 8)))
def test_auto_matches_minors_on_random_codes(code):
    """is_mds, the verdict certify() records, agrees with the minors oracle on
    structural and scan-decided codes; a not-MDS witness is a singular k-subset."""
    flag, witness, _, dd = is_mds(code)
    assert flag == minors_is_mds(code)[0]
    assert dd.exact and (dd.value == code.k + 1) == flag
    if not flag:
        assert len(witness) == code.k and rank(code.tower, code.g[:, list(witness)]) < code.k
    gram = hermitian_gram(code)
    if gram.all_zero:
        assert certify(code).mds == flag
    else:
        with pytest.raises(GramNonzero) as err:
            certify(code)
        assert (err.value.row, err.value.col, err.value.value_token) == gram.first_nonzero


@st.composite
def adversarial_mds_shapes(draw):
    """Row-scaled, column-permuted GRS codes [9, 2..4] over GF(25), MDS but not in
    plain row shape, and systematic [I | A] codes whose 2x3 block A has no zero
    entry but proportional rows, so they are singular with no zero to show it."""
    tw = build_tower(5, 1)
    unit = st.integers(0, tw.n_units - 1)
    if draw(st.booleans()):
        es = roots_of_unity_set(tw, 9)
        k = draw(st.integers(2, 4))
        scales = np.asarray(draw(st.lists(unit, min_size=k, max_size=k)), dtype=np.int32)
        g = tw.vmul(scales[:, None], grs_rows(tw, es, twist_vector(es), range(k)))
        return LinearCode(tw, g[:, draw(st.permutations(range(9)))]), True
    lam = draw(st.integers(1, tw.n_units - 1))
    row0 = np.asarray(draw(st.lists(unit, min_size=3, max_size=3)), dtype=np.int32)
    eye = np.full((2, 2), tw.zero_code, dtype=np.int32)
    np.fill_diagonal(eye, 0)
    return LinearCode(tw, np.hstack([eye, np.stack([row0, (row0 + lam) % tw.n_units])])), False


@settings(max_examples=120, deadline=None, derandomize=True)
@given(adversarial_mds_shapes())
def test_structural_certificates_survive_adversarial_shapes(case):
    code, expected = case
    flag, _, _, _ = is_mds(code)
    assert flag == minors_is_mds(code)[0] is expected
    if hermitian_gram(code).all_zero:
        assert certify(code).mds is expected


def test_gram_zero_iff_contained_in_hermitian_dual():
    # the certificate is equivalent to containment in the Hermitian dual
    certified = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    tw = certified.code.tower
    h_dual = dual(certified.code, "hermitian")
    assert rank(tw, np.vstack([h_dual.g, certified.code.g])) == h_dual.k
    # and conversely: a nonzero Gram means some row escapes the dual
    eye_tw = build_tower(3, 1)
    eye = np.full((2, 2), eye_tw.zero_code, dtype=np.int32)
    np.fill_diagonal(eye, 0)
    bad = LinearCode(eye_tw, eye)
    assert not hermitian_gram(bad).all_zero
    bad_dual = dual(bad, "hermitian")
    assert rank(eye_tw, np.vstack([bad_dual.g, bad.g])) > bad_dual.k


def test_batched_dependent_matches_rank():
    rng = np.random.default_rng(43)
    tw = build_tower(3, 1)
    mats = rng.integers(0, tw.q2, size=(400, 5, 3)).astype(np.int32)
    mats[mats >= tw.n_units] = tw.zero_code
    dep = batched_dependent(tw, mats)
    for i in range(mats.shape[0]):
        assert dep[i] == (rank(tw, mats[i]) < 3)


@st.composite
def rref_cases(draw):
    """Matrices over GF(4)..GF(2^16): random, of deficient rank, and with zero columns."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (17, 1), (2, 5), (2, 8)])))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mat = rng.integers(0, tw.q2, size=(rows, cols)).astype(np.int32)
    mat[rng.random((rows, cols)) < draw(st.sampled_from([0.0, 0.5]))] = tw.zero_code
    kind = draw(st.sampled_from(["random", "deficient", "zero-columns"]))
    if kind == "deficient" and rows > 1:
        # rows rank_.. are combinations of the first rank_ rows
        rank_ = draw(st.integers(0, rows - 1))
        coeffs = rng.integers(0, tw.q2, size=(rows - rank_, rank_, 1)).astype(np.int32)
        mat[rank_:] = tw.vsum(tw.vmul(coeffs, mat[None, :rank_]), axis=1) if rank_ else tw.zero_code
    elif kind == "zero-columns" and cols:
        mat[:, rng.random(cols) < 0.5] = tw.zero_code
    return tw, mat


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rref_cases())
def test_rref_matches_row_by_row_oracle(case):
    tw, mat = case
    r, pivots = rref(tw, mat)
    r_ref, pivots_ref = row_by_row_rref(tw, mat)
    assert pivots == pivots_ref
    assert np.array_equal(r, r_ref)


# -- matrix text IO -----------------------------------------------------------------


def test_export_import_roundtrip():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    text = export_matrix(cert.code)
    reread = import_matrix(text)
    assert np.array_equal(reread.g, cert.code.g)
    assert export_matrix(reread) == text  # byte-identical round trip


def test_import_systematic_prefix():
    tw = build_tower(3, 1)
    text = "q2=3^2 n=2 k=2\nt^1 t^2\n1 t^3\n"
    code = import_matrix(text, systematic_prefix=True)
    assert code.params() == (4, 2)
    assert code.g[:, :2].tolist() == [[0, tw.zero_code], [tw.zero_code, 0]]  # the identity block


def test_import_parse_errors():
    with pytest.raises(ParseError) as err:
        import_matrix("q2=3^2 n=3 k=1\nt^1 t^2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        import_matrix("q2=3^2 n=2 k=1\nt^1 zork\n")
    assert (err.value.line, err.value.column) == (2, 2)
    with pytest.raises(ParseError):
        import_matrix("q2=3^3 n=2 k=1\nt^1 t^2\n")  # odd degree
    with pytest.raises(ParseError):
        import_matrix("")


def test_identity_matrix_rejected_by_gram():
    tw = build_tower(3, 1)
    text = "q2=3^2 n=2 k=2\n1 0\n0 1\n"
    code = import_matrix(text)
    cert = hermitian_gram(code)
    assert not cert.all_zero
    assert cert.first_nonzero[0] == 0 and cert.first_nonzero[1] == 0


# -- the curve record ------------------------------------------------------------------

# small curves over GF(4) .. GF(64): elliptic, hyperelliptic, Hermitian,
# half-exponent Hermitian and Artin-Schreier, with p | t (gcd(pole_x, pole_y) = p,
# no record) for the last three
RECORD_CURVES = [
    (CurveFamily.ELLIPTIC, (2, 1), None), (CurveFamily.ELLIPTIC, (2, 2), None), (CurveFamily.ELLIPTIC, (2, 3), None),
    (CurveFamily.HYPERELLIPTIC, (2, 2), None), (CurveFamily.HYPERELLIPTIC, (2, 3), None),
    (CurveFamily.HERMITIAN, (2, 1), None), (CurveFamily.HERMITIAN, (3, 1), None), (CurveFamily.HERMITIAN, (2, 2), None),
    (CurveFamily.SEMI_HERMITIAN, (3, 1), None), (CurveFamily.SEMI_HERMITIAN, (5, 1), None),
    (CurveFamily.ARTIN_SCHREIER, (3, 1), 2), (CurveFamily.ARTIN_SCHREIER, (2, 2), 3),
    (CurveFamily.ARTIN_SCHREIER, (2, 3), 5), (CurveFamily.ARTIN_SCHREIER, (7, 1), 6),
    (CurveFamily.ARTIN_SCHREIER, (3, 1), 3), (CurveFamily.ARTIN_SCHREIER, (5, 1), 5), (CurveFamily.ARTIN_SCHREIER, (7, 1), 7),
]


def curve_points(spec, rng):
    """The points above a random x-subset of the curve, with a few dropped a
    time in four (fibers no longer full), and shuffled a time in three."""
    xs = x_support(spec)
    keep = rng.permutation(xs.n)[: rng.integers(1, xs.n + 1)]
    owner, y = rational_points(spec, explicit_set(spec.tower, xs.codes[keep]))
    x = explicit_set(spec.tower, xs.codes[keep]).codes[owner]
    points = np.arange(len(x))
    if rng.random() < 0.25 and len(x) > 2:
        points = np.sort(rng.permutation(len(x))[: len(x) - rng.integers(1, 3)])
    if rng.random() < 0.33:
        points = rng.permutation(points)
    return x[points], y[points]


def curve_code(family, pm, k, t=None):
    """(code, inputs) of the k-th Riemann-Roch code of a curve at all its points, twist 1."""
    spec = curve(family, build_tower(*pm), t=t)
    xs = x_support(spec)
    owner, y = rational_points(spec, xs)
    x, v = xs.codes[owner], np.zeros(len(owner), dtype=np.int32)
    return evaluation_code(spec, rr_basis(spec, k), x, y, v), (spec, rr_basis(spec, k), x, y, v)


@st.composite
def record_codes(draw):
    """A code of the first monomials of a small curve, at the points above an
    x-subset, with q^(2k) <= 2^14, and a twist with no zero: random, or
    constant on each x-fiber as the constructions' twists are."""
    family, pm, t = draw(st.sampled_from(RECORD_CURVES))
    spec = curve(family, build_tower(*pm), t=t)
    tw = spec.tower
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x, y = curve_points(spec, rng)
    bases = {len(b): b for b in (rr_basis(spec, k) for k in range(1, 40)) if tw.q2 ** len(b) <= 1 << 14 and len(b) <= len(x)}
    # a one-row code checks little: it is drawn one time in four where a wider one exists
    sizes = sorted(bases)
    basis = bases[sizes[0] if not sizes[1:] or draw(st.integers(0, 3)) == 3 else draw(st.sampled_from(sizes[1:]))]
    v = rng.integers(0, tw.zero_code, len(x)).astype(np.int32)
    if draw(st.booleans()):
        v = rng.integers(0, tw.zero_code, tw.q2).astype(np.int32)[x]
    try:
        return evaluation_code(spec, basis, x, y, v)
    except RankDefect:  # n <= m: the record gives no rank, and rref found a defect
        assume(False)


# subsets that per_subset_column_scan may eliminate on one drawn code
ORACLE_SUBSETS = 1 << 15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(record_codes())
def test_curve_record_readers_match_their_oracles(code):
    """Each reader of the curve record against the oracle it replaces: the
    rank against rref, and any m+1 columns against rref too; d(C^perp), its
    witness and the MDS flag against the column scan from w = 2 of the same
    matrix without the record, and d(C^perp) against the scan that eliminates
    every subset where that is at most ORACLE_SUBSETS subsets; purity against
    the rank of G without the witness; d(C) from the light word against full
    enumeration.  A curve with gcd(pole_x, pole_y) > 1 has no record."""
    tw, spec, rec = code.tower, code._curve[0], curve_record(code)
    bare = LinearCode(tw, code.g, verify_rank=False)
    assert curve_record(bare) is None and (rec is None) == (gcd(spec.pole_x, spec.pole_y) > 1)
    if code.full_rank_on(code.n):
        assert rank(tw, code.g) == code.k
    if rec is not None:
        assert not rec.full_rank_on(code, rec.m)
        if code.n > rec.m:
            cols = np.random.default_rng(code.n).permutation(code.n)[: rec.m + 1]
            assert rank(tw, code.g[:, cols]) == code.k
    dd = dual_distance_by_columns(code)
    assert dd == dual_distance_by_columns(bare)
    if sum(comb(code.n, w) for w in range(2, min(dd.value, code.k) + 1)) <= ORACLE_SUBSETS:
        assert dd == per_subset_column_scan(code)
    flag, singular, _, mds_dd = is_mds(code)
    assert flag == is_mds(bare)[0] and (mds_dd.value, mds_dd.exact) == (dd.value, dd.exact)
    if singular is not None:
        assert rank(tw, code.g[:, list(singular)]) < code.k
    if dd.exact and dd.witness is not None:
        assert _quantum_distance(code, dd) == _quantum_distance(bare, dd)
    light = code.ask("light_word")
    d = full_enumeration_distance(code)
    if rec is not None and code.n > rec.m:
        assert code.n - rec.m <= d
    if light is not None:
        word = np.asarray(light.witness, dtype=np.int32)
        assert light.value == d == np.count_nonzero(word != tw.zero_code)
        assert rank(tw, np.vstack([code.g, word])) == code.k  # a word of C


@pytest.mark.parametrize(
    "family, pm, k, t, rows",
    [
        (CurveFamily.HERMITIAN, (2, 1), 4, None, [(0, 0), (1, 0), (0, 1)]),  # parallel: equal points, none
        (CurveFamily.HYPERELLIPTIC, (2, 2), 5, None, [(0, 0), (1, 0), (2, 0)]),  # parallel: equal x
        (CurveFamily.ARTIN_SCHREIER, (3, 1), 3, 2, [(0, 0), (0, 1)]),  # parallel: equal y, t < q
    ],
    ids=["rows-1-x-y", "powers-of-x", "powers-of-y"],
)
def test_curve_scan_matches_the_per_subset_scan_on_each_row_shape(family, pm, k, t, rows):
    """The row shapes whose parallel columns a curve's points tell apart, at
    all points with twist 1 and with a random twist: d(C^perp), its exactness
    and its witness from the column scan against the scan that eliminates
    every subset.  The draws of the test above hold these shapes too."""
    code, (spec, basis, x, y, v) = curve_code(family, pm, k, t=t)
    twisted = evaluation_code(spec, basis, x, y, np.random.default_rng(k).integers(0, spec.tower.zero_code, len(x)))
    assert list(basis) == rows and curve_record(code) is not None
    for c in (code, twisted):
        assert dual_distance_by_columns(c) == per_subset_column_scan(c)


def curve_record(code):
    """The code's curve record, or None."""
    return next((record for record in code.records if isinstance(record, CurveRecord)), None)


def test_curve_record_checks_each_hypothesis():
    """The record holds only when every check does: a perturbed entry of G, a
    point off the curve, a repeated point, a zero of the twist, a monomial
    with b >= pole_x, two monomials of one pole order, or a curve with
    gcd(pole_x, pole_y) > 1 each leave the code without one, and with the
    rank from rref."""
    code, (spec, basis, x, y, v) = curve_code(CurveFamily.HERMITIAN, (2, 2), 10)
    tw = spec.tower
    assert curve_record(code).m == 9 and code.full_rank_on(code.n)
    g = code.g.copy()
    g[2, 5] = tw.vadd(g[2, 5], 0)
    moved = x.copy()
    moved[3] = tw.vadd(moved[3], 0)
    repeated = np.concatenate([x, x[:1]]), np.concatenate([y, y[:1]]), np.concatenate([v, v[:1]])
    zero_v = v.copy()
    zero_v[7] = tw.zero_code
    cases = {
        "perturbed entry": (g, (spec, basis, x, y, v)),
        "point off the curve": (None, (spec, basis, moved, y, v)),
        "repeated point": (None, (spec, basis, *repeated)),
        "zero of the twist": (None, (spec, basis, x, y, zero_v)),
        "b >= pole_x": (None, (spec, basis + ((0, 4),), x, y, v)),
        "one pole order twice": (None, (spec, basis + ((0, 0),), x, y, v)),
    }
    for name, (matrix, inputs) in cases.items():
        a, b = np.asarray(inputs[1]).T
        matrix = _monomial_rows(tw, inputs[4], [(inputs[2], a), (inputs[3], b)]) if matrix is None else matrix
        assert curve_record(LinearCode(tw, matrix, verify_rank=False, curve=inputs)) is None, name
    assert on_curve(spec, x, y) and not on_curve(spec, moved, y)
    # p | t: gcd(pole_x, pole_y) = 3, no record even for 1 and x, of distinct
    # orders 0 and 3, and the rank comes from rref
    _, (spec, _, x, y, v) = curve_code(CurveFamily.ARTIN_SCHREIER, (3, 1), 1, t=3)
    with mock.patch.object(agq.codes, "rref", wraps=rref) as spy:
        p_t = evaluation_code(spec, ((0, 0), (1, 0)), x, y, v)
    assert curve_record(p_t) is None and not p_t.full_rank_on(p_t.n) and spy.call_count == 1
