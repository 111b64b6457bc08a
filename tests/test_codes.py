import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import agq.codes
from agq.codes import (
    _CHUNK,
    LinearCode,
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


@st.composite
def full_rank_codes(draw):
    """Random full-rank [n<=12, k<=4] codes over GF(4), GF(9), GF(16), GF(25),
    with zero columns and repeated or scaled copies of earlier columns."""
    tw = build_tower(*draw(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)])))
    k = draw(st.integers(1, 4))
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(full_rank_codes(), st.sampled_from([_CHUNK, 100, 7]))
def test_exhaustive_distance_matches_full_enumeration(code, chunk):
    # small chunks force the chunked middle-row path that full-size codes take
    tw = code.tower
    vadd, sizes = tw.vadd, []

    def sized_vadd(a, b):
        out = vadd(a, b)
        sizes.append(out.size)
        return out

    with mock.patch.object(agq.codes, "_CHUNK", chunk), mock.patch.object(tw, "vadd", sized_vadd):
        res = exhaustive_distance(code)
    assert max(sizes) <= chunk * code.n
    assert (res.value, res.exact, res.method) == (full_enumeration_distance(code), True, "exhaustive")
    witness = np.asarray(res.witness, dtype=np.int32)
    assert int((witness != tw.zero_code).sum()) == res.value
    assert rank(tw, np.vstack([code.g, witness[None, :]])) == code.k


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
    dd = dual_distance_by_columns(code)
    assert (dd.value, dd.exact) == (1, True)


def test_dual_by_columns_lower_bound_budget():
    cert = construct(ConstructionRequest("c5", 2, 3, k=9), ops_budget=10 ** 6)
    dd = dual_distance_by_columns(cert.code, ops_budget=10 ** 6)
    assert not dd.exact
    assert dd.method == "column-scan-lower-bound"
    assert dd.value >= 3


def test_dual_by_columns_equals_exhaustive_small():
    """cross-oracle equivalence: d(C) via column scan on dual == exhaustive."""
    rng = random.Random(29)
    towers = [build_tower(2, 1), build_tower(3, 1), build_tower(2, 2)]
    cases = 0
    while cases < 1000:
        tw = rng.choice(towers)
        n = rng.randint(4, 12)
        k = rng.randint(1, 3)
        code = random_code(rng, tw, n, k)
        d_exh = exhaustive_distance(code).value
        d_col = dual_distance_by_columns(dual(code, "euclidean"), d_max=n).value
        assert d_exh == d_col, (tw, code.g)
        cases += 1
    assert cases >= 1000


def test_dual_by_columns_equals_exhaustive_k4():
    # module invariant extends to k = 4 (smaller sample: 16^4 words per case)
    rng = random.Random(53)
    towers = [build_tower(2, 1), build_tower(3, 1), build_tower(2, 2)]
    for _ in range(30):
        tw = rng.choice(towers)
        n = rng.randint(5, 12)
        code = random_code(rng, tw, n, 4)
        d_exh = exhaustive_distance(code).value
        d_col = dual_distance_by_columns(dual(code, "euclidean"), d_max=n).value
        assert d_exh == d_col


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
