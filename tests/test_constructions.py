import numpy as np
import pytest

from agq.codes import hermitian_gram
from agq.constructions import (
    ConstructionRequest,
    construct,
    construct_chain,
    deep_dimension,
    embed_iterate,
    embed_once,
    thm_key_k_max,
)
from agq.errors import DivisibilityViolated, EmbeddingRejected, GramNonzero
from agq.fields import build_tower


def test_c1_q13_k2_certified():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert cert.code.params() == (25, 2)
    assert cert.certificate.gram.all_zero
    assert cert.certificate.mds


def test_c1_default_k_is_stated_max():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25))
    assert cert.code.k == thm_key_k_max(25, 13, 0) == 2


def test_embed_once_q13():
    base = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    emb = embed_once(base)
    assert emb.code.params() == (25, 3)
    # first k rows restrict to the input code (no extension column here)
    assert np.array_equal(emb.code.g[:2], base.code.g)


def test_embed_extension_pads_old_rows():
    base = deep_dimension(build_tower(7, 1), 2, embed=False)  # [13,3]
    emb = embed_once(base)
    assert emb.code.params() == (14, 4)
    zero = emb.code.tower.zero_code
    assert np.array_equal(emb.code.g[:3, :13], base.code.g)
    assert (emb.code.g[:3, 13] == zero).all()
    assert emb.code.g[3, 13] != zero


def test_c9_q3_pipeline():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    assert cert.code.params() == (15, 3)
    assert cert.certificate.dual_distance.value == 3 and cert.certificate.dual_distance.exact


def test_c5_q4_pipeline():
    cert = construct(ConstructionRequest("c5", 2, 2, k=5))
    assert cert.code.params() == (24, 4)
    assert cert.certificate.gram.all_zero


def test_c5_assumption_check_runs_per_q():
    # for the bundled field sizes the norm hypothesis holds; the pipeline
    # must reach certification rather than NotNormValue
    for p, m in [(2, 2), (2, 3)]:
        cert = construct(ConstructionRequest("c5", p, m, k=3))
        assert cert.certificate.gram.all_zero


def test_deep_dimension_q13():
    tw = build_tower(13, 1)
    base = deep_dimension(tw, 2, embed=False)
    assert base.code.params() == (25, 6)
    full = deep_dimension(tw, 2, embed=True)
    assert full.code.params() == (25, 7)


def test_deep_dimension_q11_t3_extends():
    tw = build_tower(11, 1)
    full = deep_dimension(tw, 3)
    assert full.code.params() == (32, 6)


def test_deep_dimension_q5():
    tw = build_tower(5, 1)
    assert deep_dimension(tw, 2, embed=False).code.params() == (9, 2)
    assert deep_dimension(tw, 2).code.params() == (9, 3)


def test_deep_requires_divisor():
    with pytest.raises(DivisibilityViolated):
        deep_dimension(build_tower(13, 1), 3)  # 3 does not divide 14


def test_embedding_boundary_q11():
    base = construct(ConstructionRequest("c1", 11, 1, n=16, k=2))
    chain = embed_iterate(base)
    assert [c.code.params() for c in chain] == [(16, 3), (16, 4)]
    with pytest.raises(EmbeddingRejected):
        embed_once(chain[-1])


def test_direct_16_5_gram_nonzero():
    with pytest.raises(GramNonzero) as err:
        construct(ConstructionRequest("c1", 11, 1, n=16, k=5))
    assert err.value.row is not None and err.value.value_token != "0"


def test_chain_q8_grid():
    chain = construct_chain(ConstructionRequest("c4", 2, 3, t=2, embed="iterate"))
    assert [c.code.params() for c in chain] == [(16, 2), (16, 3), (16, 4), (16, 5)]
    for cert in chain:
        assert cert.certificate.gram.all_zero
        assert cert.certificate.mds


def test_chain_q9_grid_reaches_18_5():
    chain = construct_chain(ConstructionRequest("c4", 3, 2, t=2, embed="iterate"))
    assert chain[-1].code.params() == (18, 5)


def test_chain_q13_deep_links_all_certified():
    base = construct(ConstructionRequest("c1", 13, 1, n=25, k=3))
    chain = embed_iterate(base)
    assert chain[-1].code.params() == (25, 7)
    for cert in chain:
        assert cert.certificate.gram.all_zero


def test_c1_gram_matches_exponent_reduction_rule():
    # For roots-of-unity sets: sum v^(q+1) a^E = [ (n-1) | E ] for E > 0,
    # so the full Vandermonde Gram vanishes exactly where (n-1) does not
    # divide (i-1) + q(j-1).
    tw = build_tower(5, 1)
    from agq.codes import LinearCode, grs_rows
    from agq.points import roots_of_unity_set, twist_vector

    es = roots_of_unity_set(tw, 9)
    tv = twist_vector(es)
    kk = 6
    g = grs_rows(tw, es, tv, range(kk))
    code = LinearCode(tw, g)
    gram = hermitian_gram(code).matrix
    for i in range(kk):
        for j in range(kk):
            e = i + tw.q * j
            expected_zero = not (e > 0 and e % (es.n - 1) == 0)
            if (i, j) == (0, 0):
                expected_zero = True
            assert (gram[i, j] == tw.zero_code) == expected_zero, (i, j)


def test_general_case_pairing_identity():
    # when 2k0 + q <= n and the [n, k0] code certifies, the next-power row
    # pairs to zero with the top row: computed, not assumed
    tw = build_tower(13, 1)
    from agq.codes import grs_rows
    from agq.points import roots_of_unity_set, twist_vector

    es = roots_of_unity_set(tw, 25)
    tv = twist_vector(es)
    for k0 in (2, 3, 4, 5):
        if 2 * k0 + tw.q > es.n:
            continue
        g_k0 = tw.vmul(tv.codes, tw.vpow(es.codes, k0 - 1))
        g_next = tw.vmul(tv.codes, tw.vpow(es.codes, k0))
        pairing = tw.vsum(tw.vmul(g_k0, tw.vfrob(g_next)))
        assert pairing == tw.zero_code


def test_b_values_recorded_in_trace():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert any("B(j)" in line for line in cert.trace)


def test_embed_requires_mds_input():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))  # curve code
    with pytest.raises(EmbeddingRejected):
        embed_once(cert)


def test_c2_subgroup_must_sit_in_base_field():
    with pytest.raises(DivisibilityViolated):
        construct(ConstructionRequest("c2", 3, 2, n=10, t=1))  # 10 does not divide q-1=8


def test_c2_nonvacuous_tower_certifies():
    # q = 81 is the smallest tower where the norm-power leader pool escapes
    # the base subgroup; n = (q-1)/(3+1) = 20, one admissible coset
    cert = construct(ConstructionRequest("c2", 3, 4, n=20, t=1))
    assert cert.code.params() == (41, 1)
    assert cert.certificate.gram.all_zero
    tw = cert.code.tower
    assert all(c % (tw.q + 1) == 0 for c in cert.eval_set.codes.tolist())  # GF(q), zero included


def test_c6_hyperelliptic_certifies():
    cert = construct(ConstructionRequest("c6", 2, 2, n=16, k=7))
    assert cert.code.params() == (32, 5)
    assert cert.certificate.gram.all_zero
    # intermediate length: the 12-point subgroup-plus-zero x-set
    cert2 = construct(ConstructionRequest("c6", 2, 2, n=6, k=4))
    assert cert2.code.params() == (12, 2)
    assert cert2.certificate.gram.all_zero


def test_c7_cases_ii_iii():
    cert2 = construct(ConstructionRequest("c7ii", 5, 1, n=6, t=2, k=7))
    assert cert2.code.params() == (95, 3)
    cert3 = construct(ConstructionRequest("c7iii", 2, 2, t=2, k=8))
    assert cert3.code.params() == (32, 3)
    assert cert3.certificate.gram.all_zero


def test_c10_even_q():
    cert = construct(ConstructionRequest("c10", 2, 2, t=5, k=8))
    assert cert.code.params() == (64, 3)
    assert cert.certificate.gram.all_zero


def test_reference_distances_of_curve_codes():
    from agq.codes import exhaustive_distance

    for req, params, distance in [
        (ConstructionRequest("c9", 5, 1, t=3, k=6), (65, 3), 60),
        (ConstructionRequest("c10", 2, 2, t=5, k=8), (64, 3), 59),
        (ConstructionRequest("c9", 7, 1, t=4, k=8), (175, 3), 168),
        (ConstructionRequest("c8", 5, 1, k=6), (65, 3), 60),
    ]:
        cert = construct(req)
        assert cert.code.params() == params, req
        res = exhaustive_distance(cert.code)
        assert (res.value, res.exact) == (distance, True), (req, res.value)


def test_construct_chain_deep_via_n():
    chain = construct_chain(ConstructionRequest("c1", 13, 1, n=25, embed="deep"))
    assert [c.code.params() for c in chain] == [(25, 6), (25, 7)]
    with pytest.raises(DivisibilityViolated):
        construct_chain(ConstructionRequest("c1", 13, 1, n=26, embed="deep"))


def test_every_certified_code_has_zero_gram():
    reqs = [
        ConstructionRequest("c1", 13, 1, n=25, k=2, embed="iterate"),
        ConstructionRequest("c4", 7, 1, t=3, embed="iterate"),
        ConstructionRequest("c9", 3, 1, t=2, k=4),
        ConstructionRequest("c8", 5, 1, k=6),
    ]
    for req in reqs:
        for cert in construct_chain(req):
            assert cert.certificate.gram.all_zero
            assert hermitian_gram(cert.code).all_zero  # recomputed, same verdict
