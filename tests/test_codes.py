import itertools
import random
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import agq.codes
from agq import config
from agq.codes import (
    _CHUNK,
    DistanceResult,
    LinearCode,
    _combo_chunks,
    _exact_keys,
    batched_dependent,
    dual,
    dual_distance_by_columns,
    evaluation_code,
    exhaustive_distance,
    export_matrix,
    frobenius_code,
    grs_rows,
    hermitian_gram,
    import_matrix,
    is_mds,
    rank,
    rref,
)
from agq.constructions import ConstructionRequest, construct
from agq.curves import CurveFamily, curve, rr_basis
from agq.errors import CapExceeded, ParseError, RankDefect
from agq.fields import build_tower
from agq.points import roots_of_unity_set, twist_vector


def random_code(rng, tower, n, k):
    while True:
        g = np.asarray(
            [[rng.randrange(tower.q2) for _ in range(n)] for _ in range(k)],
            dtype=np.int32,
        )
        g[g >= tower.n_units] = tower.zero_code
        if rank(tower, g) == k:
            return LinearCode(tower, g, provenance="random")


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


def test_evaluation_code_rank_defect():
    tw = build_tower(3, 1)
    es = roots_of_unity_set(tw, 5)
    ones = np.zeros(5, dtype=np.int32)  # all entries t^0 = 1
    spec = curve(CurveFamily.LINE, tw)
    basis = rr_basis(spec, 2)
    pts = [(p, None) for p in es.points]
    code = evaluation_code(tw, basis, pts, ones)
    assert code.params() == (5, 2)
    # duplicated monomial row must be rejected
    from agq.curves import MonomialBasis

    dup = MonomialBasis(((0, 0), (0, 0)), 1, 0)
    with pytest.raises(RankDefect):
        evaluation_code(tw, dup, pts, ones)


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


def test_gram_zero_implies_zero_diagonal():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    m = cert.gram.matrix
    tw = cert.code.tower
    assert all(m[i, i] == tw.zero_code for i in range(cert.code.k))


# -- duals -------------------------------------------------------------------------


def test_dual_dimension_and_involution():
    rng = random.Random(3)
    for p, m in [(2, 1), (3, 1), (2, 2)]:
        tw = build_tower(p, m)
        for _ in range(10):
            n = rng.randint(4, 9)
            k = rng.randint(1, 3)
            code = random_code(rng, tw, n, k)
            d = dual(code, "euclidean")
            assert d.params() == (n, n - k)
            dd = dual(d, "euclidean")
            r1, _ = rref(tw, code.g)
            r2, _ = rref(tw, dd.g)
            assert np.array_equal(r1, r2)


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
    res = exhaustive_distance(cert.code)
    assert (res.value, res.exact, res.method) == (12, True, "exhaustive")
    assert sum(1 for c in res.witness if c != cert.code.tower.zero_code) == 12


def test_exhaustive_distance_cap():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    code = LinearCode(tw, grs_rows(tw, es, tv, range(5)))
    with pytest.raises(CapExceeded):
        exhaustive_distance(code)


def full_enumeration_distance(code):
    """Reference oracle: minimum weight over all q^{2k} messages, k vmul + k vadd per word."""
    tower = code.tower
    zero = tower.zero_code
    q2 = tower.q2
    total = q2 ** code.k
    best = code.n + 1
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        cw = np.full((idx.size, code.n), zero, dtype=np.int32)
        rem = idx
        for i in range(code.k):
            digit = (rem % q2).astype(np.int32)  # digit ranges over all codes incl zero
            rem = rem // q2
            cw = tower.vadd(cw, tower.vmul(digit[:, None], code.g[i][None, :]))
        weights = (cw != zero).sum(axis=1)
        weights[weights == 0] = code.n + 1  # the zero codeword is not counted
        best = min(best, int(weights.min()))
    return best


def code_of(pm, rows):
    """Code over GF(p^{2m}) with the given rows of exponent codes, None for zero."""
    tw = build_tower(*pm)
    g = np.asarray([[tw.zero_code if c is None else c for c in row] for row in rows], dtype=np.int32)
    return LinearCode(tw, g, provenance="example")


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
    return LinearCode(tw, g, provenance="hypothesis")


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
    return LinearCode(tw, g, provenance="hypothesis")


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


@pytest.mark.parametrize("pm, k, chunk", [((2, 1), 3, _CHUNK), ((2, 1), 4, 7), ((3, 1), 3, 10)])
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


def test_dual_by_columns_lower_bound_budget():
    cert = construct(ConstructionRequest("c5", 2, 3, k=9), ops_budget=10 ** 6)
    dd = dual_distance_by_columns(cert.code, ops_budget=10 ** 6)
    assert not dd.exact
    assert dd.method == "column-scan-lower-bound"
    assert dd.value >= 3


@st.composite
def uniform_codes(draw, ks, ns):
    """Full-rank codes over GF(4), GF(9) or GF(16) with k from ks, n from ns and
    every entry drawn from the whole field (a byte mod q^2)."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2)])))
    n, k = draw(ns), draw(ks)
    entries = draw(st.binary(min_size=k * n, max_size=k * n))  # one draw for all k*n entries
    g = (np.frombuffer(entries, dtype=np.uint8) % tw.q2).astype(np.int32).reshape(k, n)
    assume(rank(tw, g) == k)
    return LinearCode(tw, g, provenance="hypothesis", verify_rank=False)


def assert_dual_scan_equals_exhaustive(code):
    d_col = dual_distance_by_columns(dual(code, "euclidean"), d_max=code.n).value
    assert exhaustive_distance(code).value == d_col, (code.tower, code.g)


# 1000 codes as 100 examples of 10: generating one hypothesis example costs a few
# ms, about as much as checking one small code, so one code per example would
# nearly double the test's time
@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(uniform_codes(st.integers(1, 3), st.integers(4, 12)), min_size=10, max_size=10))
def test_dual_by_columns_equals_exhaustive_small(codes):
    """cross-oracle equivalence: d(C) via column scan on dual == exhaustive."""
    for code in codes:
        assert_dual_scan_equals_exhaustive(code)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(uniform_codes(st.just(4), st.integers(5, 12)))
def test_dual_by_columns_equals_exhaustive_k4(code):
    # module invariant extends to k = 4 (smaller sample: 16^4 words per case)
    assert_dual_scan_equals_exhaustive(code)


def per_subset_column_scan(code, d_max=None, ops_budget=None):
    """Reference oracle: the column scan that eliminates every w-subset of columns,
    charging k*w*2 per subset in lex-ordered blocks of _CHUNK."""
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
                return DistanceResult(w, False, None, "column-scan-lower-bound")
            spent += cost
            mats = np.transpose(g[:, combos], (1, 0, 2))  # (B, k, w)
            dep = np.nonzero(batched_dependent(tower, mats))[0]
            if dep.size:
                return DistanceResult(w, True, tuple(int(c) for c in combos[dep[0]]), "column-scan")
    return DistanceResult(cap + 1, False, None, "column-scan-lower-bound")


def nominal_spend(code, w, subsets):
    """Budget charged for every subset of size 2..w-1 plus the first `subsets` w-subsets."""
    k, n = code.k, code.n
    return sum(comb(n, v) * k * v * 2 for v in range(2, w)) + subsets * k * w * 2


@st.composite
def column_scan_cases(draw):
    """Full-rank [n<=16, 2<=k<=6] codes over GF(4/9/16/25/49/64) with parallel columns
    and columns that are sums of earlier ones, plus d_max, _CHUNK, batch size and a
    budget: the default, or one that ends inside some w's subsets, at a chunk
    boundary of that w or one off it, or anywhere."""
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
    code = LinearCode(tw, g, provenance="hypothesis")
    chunk = draw(st.sampled_from([_CHUNK, 100, 7]))
    w = draw(st.sampled_from(range(2, k + 1)))
    budget_kind = draw(st.sampled_from(["default", "any", "boundary", "boundary"]))
    if budget_kind == "default":
        budget = None
    elif budget_kind == "any":
        budget = nominal_spend(code, w, draw(st.integers(0, comb(n, w)))) + draw(st.integers(0, k * w * 2))
    else:
        last = -(-comb(n, w) // chunk)
        blocks = draw(st.one_of(st.sampled_from([0, 1, last]), st.integers(0, last)))
        budget = nominal_spend(code, w, min(blocks * chunk, comb(n, w))) + draw(st.sampled_from([-1, 0, 1]))
    d_max = draw(st.sampled_from([None, *range(1, k + 3)]))
    # 1: one prefix per batch; a few prefixes per batch split shared-prefix runs across batches
    live = draw(st.sampled_from([1 << 20, 1, k * n * draw(st.integers(2, 5))]))
    return code, d_max, budget, chunk, live


@st.composite
def planted_scan_cases(draw):
    """[n<=14, k=4..5] codes over GF(49/64) with random columns, so sets of fewer
    than w columns are independent (almost surely), and a dependent w-set planted
    anywhere or next to the last w-subset a budget pays for.  With a batch cap of
    2..12 prefixes the growing batches reach the cap, and a batch straddles the
    end of the budget."""
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
    code = LinearCode(tw, g, provenance="hypothesis")
    budget = nominal_spend(code, w, certified) + draw(st.sampled_from([-1, 0, 1]))
    return code, None, budget, draw(st.sampled_from([7, 100])), k * n * draw(st.integers(2, 12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(column_scan_cases(), planted_scan_cases()))
def test_column_scan_matches_per_subset_scan(case):
    code, d_max, budget, chunk, live = case
    eliminate = agq.codes._prefix_projections

    def capped(tower, g, pre):  # no batch may outgrow the _LIVE_ENTRIES cap
        assert len(pre) <= max(1, live // (code.k * code.n))
        return eliminate(tower, g, pre)

    with (
        mock.patch.object(agq.codes, "_CHUNK", chunk),
        mock.patch.object(agq.codes, "_LIVE_ENTRIES", live),
        mock.patch.object(agq.codes, "_prefix_projections", capped),
    ):
        assert dual_distance_by_columns(code, d_max, budget) == per_subset_column_scan(code, d_max, budget)


@pytest.mark.parametrize("chunk, blocks", [(7, 6), (5, 15), (5, 16)])
@pytest.mark.parametrize("shift, exact", [(-1, True), (0, False)])
def test_column_scan_budget_boundary(chunk, blocks, shift, exact):
    """The budget certifies the first L = blocks*chunk 3-subsets of 9 columns; the
    lex-first dependent 3-subset is planted at rank L-1 (found) or at rank L (past
    the budget).  Ranks 74 and 80 open the prefixes (4,) and (5,)."""
    tw, k, n = build_tower(2, 3), 4, 9
    target = list(itertools.combinations(range(n), 3))[blocks * chunk + shift]
    g = np.random.default_rng(5).integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    a, b, c = target
    g[:, c] = tw.vadd(tw.vmul(3, g[:, a]), tw.vmul(11, g[:, b]))
    code = LinearCode(tw, g)
    found = DistanceResult(3, True, target, "column-scan")
    budget = nominal_spend(code, 3, blocks * chunk)
    with mock.patch.object(agq.codes, "_CHUNK", chunk):
        assert per_subset_column_scan(code) == found  # the planted set is the lex-first dependent one
        res = dual_distance_by_columns(code, ops_budget=budget)
        assert res == per_subset_column_scan(code, ops_budget=budget)
        assert dual_distance_by_columns(code, ops_budget=budget - 1).method == "column-scan-lower-bound"
    assert res == (found if exact else DistanceResult(3, False, None, "column-scan-lower-bound"))


def test_column_scan_stops_at_the_first_dependent_prefix():
    """The lex-first dependent 4-set of this [60, 6] code over GF(64) is the planted
    {0, 1, 2, 3}, in the first prefix (0, 1): the w = 4 scan must end after a few
    prefixes, not after eliminating a full batch of _LIVE_ENTRIES // (k*n).  The
    w = 3 scan finds nothing, so it takes all 58 prefixes, in doubling batches."""
    tw, k, n = build_tower(2, 3), 6, 60
    g = np.random.default_rng(7).integers(0, tw.n_units, size=(k, n)).astype(np.int32)
    g[:, 3] = tw.vsum(np.stack([tw.vmul(e, g[:, c]) for e, c in ((5, 0), (20, 1), (41, 2))]), axis=0)
    code = LinearCode(tw, g)
    batches = []
    eliminate = agq.codes._prefix_projections

    def spy(tower, g, pre):
        batches.append(pre.shape)
        return eliminate(tower, g, pre)

    with mock.patch.object(agq.codes, "_prefix_projections", spy):
        res = dual_distance_by_columns(code)
    assert res == DistanceResult(4, True, (0, 1, 2, 3), "column-scan") == per_subset_column_scan(code)
    assert sum(count for count, width in batches if width == 2) <= agq.codes._LIVE_ENTRIES // (k * n) // 100
    sizes = [count for count, width in batches if width == 1]
    assert sum(sizes) == n - 2 and all(b == 2 * a for a, b in zip(sizes, sizes[1:-1]))


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
            assert dual_distance_by_columns(code, ops_budget=budget) == per_subset_column_scan(code, ops_budget=budget)


@st.composite
def keyed_rows(draw):
    """(q2, b, points): prefix indices and coordinate rows, with repeated rows and
    coordinates near q2 - 1."""
    q2 = draw(st.sampled_from([4, 64, 289, 2 ** 16, 2 ** 22]))
    width, size = draw(st.integers(0, 8)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    b = rng.integers(0, draw(st.sampled_from([1, 5, 3000])), size=size)
    low = draw(st.sampled_from([0, q2 - 2]))
    points = rng.integers(low, q2, size=(size, width)).astype(np.int32)
    copies = rng.integers(0, size, size=size // 3)
    return q2, np.concatenate([b, b[copies]]), np.concatenate([points, points[copies]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(keyed_rows())
@example((2 ** 22, np.asarray([3000, 0, 3000]), np.full((3, 8), 2 ** 22 - 1, dtype=np.int32)))
def test_exact_keys_order_rows_lexicographically(case):
    # with q2 = 2^22 and 8 coordinates the key needs 176 bits, so it is re-ranked on the way
    q2, b, points = case
    keys = _exact_keys(b, points, q2)
    rows = [(int(bi), *map(int, pi)) for bi, pi in zip(b, points)]
    order = np.argsort(keys, kind="stable")
    assert [rows[i] for i in order] == sorted(rows)
    for x, y in zip(order[:-1], order[1:]):
        assert (keys[x] == keys[y]) == (rows[x] == rows[y])


def test_frobenius_weight_invariance():
    rng = random.Random(31)
    towers = [build_tower(2, 1), build_tower(3, 1), build_tower(2, 2), build_tower(5, 1)]
    cases = 0
    while cases < 1000:
        tw = rng.choice(towers)
        n = rng.randint(3, 14)
        row = np.asarray([rng.randrange(tw.q2) for _ in range(n)], dtype=np.int32)
        row[row >= tw.n_units] = tw.zero_code
        fr = tw.vfrob(row)
        assert (row != tw.zero_code).sum() == (fr != tw.zero_code).sum()
        cases += 1
    # and for whole codes: wt spectra of C and C^q agree (small exhaustive case)
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    d1 = exhaustive_distance(cert.code).value
    d2 = exhaustive_distance(frobenius_code(cert.code)).value
    assert d1 == d2


def test_dual_distance_on_frobenius_dual_agrees():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    d1 = dual_distance_by_columns(cert.code).value
    d2 = dual_distance_by_columns(frobenius_code(cert.code)).value
    assert d1 == d2


def test_hermitian_dual_distance_equals_euclidean_dual_distance():
    # d(C^perp_H) = d(C^perp): entrywise Frobenius preserves Hamming weight
    rng = random.Random(47)
    for _ in range(25):
        tw = build_tower(rng.choice([2, 3]), 1)
        n = rng.randint(4, 8)
        code = random_code(rng, tw, n, n - 2)
        d_h = exhaustive_distance(dual(code, "hermitian")).value
        d_e = exhaustive_distance(dual(code, "euclidean")).value
        assert d_h == d_e


def test_ops_cap_env_override(monkeypatch):
    cert = construct(ConstructionRequest("c5", 2, 3, k=9), ops_budget=10 ** 6)
    monkeypatch.setenv("AGQ_CAP_OPS", "1000000")
    dd = dual_distance_by_columns(cert.code)
    assert not dd.exact and dd.method == "column-scan-lower-bound"
    monkeypatch.delenv("AGQ_CAP_OPS")


def test_dual_involution_property_suite():
    rng = random.Random(37)
    towers = [build_tower(2, 1), build_tower(3, 1), build_tower(2, 2)]
    cases = 0
    while cases < 1000:
        tw = rng.choice(towers)
        n = rng.randint(3, 10)
        k = rng.randint(1, min(3, n - 1))
        code = random_code(rng, tw, n, k)
        dd = dual(dual(code, "euclidean"), "euclidean")
        r1, _ = rref(tw, code.g)
        r2, _ = rref(tw, dd.g)
        assert np.array_equal(r1, r2)
        cases += 1
    assert cases >= 1000


# -- MDS ---------------------------------------------------------------------------


def test_grs_codes_are_mds():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    for k in (1, 2, 3):
        code = LinearCode(tw, grs_rows(tw, es, tv, range(k)))
        flag, wit, method = is_mds(code, method="minors")
        assert flag and wit is None
        flag2, _, method2 = is_mds(code, method="auto")
        assert flag2 and method2 == "vandermonde"


def test_hermitian_code_not_mds_with_witness():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))
    flag, witness, method = is_mds(cert.code, method="minors")
    assert not flag
    cols = cert.code.g[:, list(witness)]
    assert rank(cert.code.tower, cols.T.copy().T) < len(witness)


def test_embedded_coset_code_mds():
    # the 26-column embedding of the 25-point coset-union code stays MDS
    from agq.constructions import construct_chain

    chain = construct_chain(ConstructionRequest("c3", 17, 1, n=12, t=1, k=2, embed="once"))
    last = chain[-1]
    assert last.code.params() == (26, 3)
    flag, _, _ = is_mds(last.code, method="minors")
    assert flag


def test_is_mds_cap():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    code = LinearCode(tw, grs_rows(tw, es, tv, range(7)))
    with pytest.raises(CapExceeded):
        is_mds(code, method="minors", ops_budget=10)


def test_is_mds_minors_reads_chunk_at_call_time():
    tw = build_tower(13, 1)
    es = roots_of_unity_set(tw, 13)
    code = LinearCode(tw, grs_rows(tw, es, twist_vector(es), range(3)))
    sizes = []
    real = agq.codes.batched_dependent

    def recording(tower, mats):
        sizes.append(mats.shape[0])
        return real(tower, mats)

    with mock.patch.object(agq.codes, "_CHUNK", 7), mock.patch.object(agq.codes, "batched_dependent", recording):
        assert is_mds(code, method="minors") == (True, None, "minors")
    assert sum(sizes) == comb(13, 3)
    assert set(sizes[:-1]) == {7} and 1 <= sizes[-1] <= 7


def test_auto_matches_minors_on_random_codes():
    rng = random.Random(41)
    tw = build_tower(5, 1)
    for _ in range(60):
        code = random_code(rng, tw, rng.randint(4, 8), rng.randint(1, 3))
        fa, wa, _ = is_mds(code, method="auto")
        fm, wm, _ = is_mds(code, method="minors")
        assert fa == fm


def test_structural_certificates_survive_adversarial_shapes():
    # scaled + column-permuted GRS codes (MDS but not in plain row shape),
    # random codes, and all-nonzero-but-singular systematic blocks: the
    # structural fast paths must agree with the minor oracle on all of them
    rng = random.Random(99)
    tw = build_tower(5, 1)
    es = roots_of_unity_set(tw, 9)
    tv = twist_vector(es)
    for _ in range(60):
        k = rng.randint(2, 4)
        g = grs_rows(tw, es, tv, range(k))
        for i in range(k):
            g[i] = tw.vmul(np.int32(rng.randrange(tw.n_units)), g[i])
        perm = list(range(9))
        rng.shuffle(perm)
        code = LinearCode(tw, g[:, perm])
        fa, _, _ = is_mds(code, method="auto")
        fm, _, _ = is_mds(code, method="minors")
        assert fa == fm is True
    for _ in range(60):
        lam = rng.randrange(1, tw.n_units)
        row0 = [rng.randrange(tw.n_units) for _ in range(3)]
        row1 = [(c + lam) % tw.n_units for c in row0]
        eye = np.full((2, 2), tw.zero_code, dtype=np.int32)
        np.fill_diagonal(eye, 0)
        code = LinearCode(tw, np.hstack([eye, np.asarray([row0, row1], dtype=np.int32)]))
        fa, _, _ = is_mds(code, method="auto")
        fm, _, _ = is_mds(code, method="minors")
        assert fa == fm is False


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
    assert code.entry(0, 0).is_one() and code.entry(0, 1).is_zero()
    assert code.entry(1, 1).is_one() and code.entry(1, 0).is_zero()


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
