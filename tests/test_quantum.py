import numpy as np
from hypothesis import example, given, settings

import agq.codes
from agq.cli import catalog_entry
from agq.codes import DistanceResult, LinearCode, certify
from agq.constructions import (
    ConstructionRequest,
    construct,
    construct_chain,
    embed_once,
)
from agq.fields import build_tower
from agq.quantum import stabilizer_params

from .oracles import brute_force_distances
from .strategies import self_orthogonal_codes

# the 3x7 Hermitian self-orthogonal GF(4) code whose weight-2 dual words all lie
# in C: d(C^perp_H) = 2 but the quantum distance is 3 (exponent codes, 3 = zero)
IMPURE_GF4 = LinearCode(
    build_tower(2, 1),
    np.asarray([[2, 0, 3, 2, 1, 2, 1], [3, 2, 2, 3, 1, 3, 2], [2, 2, 2, 2, 1, 3, 2]], dtype=np.int32),
)


def test_q13_deep_quantum_params():
    cert = construct(ConstructionRequest("c1", 13, 1, t=2, embed="deep"))
    qp = stabilizer_params(cert)
    assert (qp.n, qp.k, qp.d, qp.q) == (25, 11, 8, 13)
    assert qp.mds and qp.defect == 0


def test_artin_schreier_quantum_params():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    qp = stabilizer_params(cert)
    assert qp.params_string() == "[[15,9,3]]_3"
    assert qp.defect == 2 and qp.mds is False


def test_degenerate_k0():
    tw = build_tower(3, 1)
    code = LinearCode(tw, np.zeros((0, 7), dtype=np.int32))
    qp = stabilizer_params(certify(code))
    assert (qp.n, qp.k, qp.d) == (7, 7, 1)
    assert qp.defect == 0


def test_defect_arithmetic():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))
    qp = stabilizer_params(cert)
    assert qp.params_string() == "[[64,58,3]]_4"
    assert qp.defect == 64 - 58 - 2 * 3 + 2 == 2


def test_defect_requires_exact_distance(monkeypatch):
    monkeypatch.setenv("AGQ_CAP_OPS", str(10 ** 6))
    cert = construct(ConstructionRequest("c5", 2, 3, k=9))
    qp = stabilizer_params(cert)
    assert not qp.d_exact
    assert qp.mds is None and qp.defect is None


def test_environment_budget_reaches_every_entry_point(monkeypatch):
    """AGQ_CAP_OPS is the one column-scan budget: construct, construct_chain and
    the embedding steps all certify under it, and a structural certificate
    never reaches the scan that reads it."""
    monkeypatch.setenv("AGQ_CAP_OPS", "10")
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    assert not cert.dual_distance.exact
    assert stabilizer_params(cert).params_string() == "[[15,9,>=2]]_3"
    scanned = []
    scan = agq.codes.dual_distance_by_columns

    def spy(code, *args, **kwargs):
        scanned.append(code.params())
        return scan(code, *args, **kwargs)

    monkeypatch.setattr(agq.codes, "dual_distance_by_columns", spy)
    # n = 4: the [5,2] member is extended GRS and is never scanned
    chain = construct_chain(ConstructionRequest("c1", 5, 1, n=4, embed="iterate"))
    assert [stabilizer_params(c).params_string() for c in chain] == ["[[4,2,2]]_5", "[[5,1,3]]_5", "[[6,0,>=2]]_5"]
    assert [c.mds_method for c in chain] == ["vandermonde", "extended-grs", "column-scan-lower-bound"]
    assert scanned == [(6, 3)]
    assert stabilizer_params(embed_once(chain[1])).params_string() == "[[6,0,>=2]]_5"
    step = embed_once(chain[0])
    assert [stabilizer_params(c).params_string() for c in (step, embed_once(step))] == ["[[5,1,3]]_5", "[[6,0,>=2]]_5"]
    monkeypatch.delenv("AGQ_CAP_OPS")
    assert stabilizer_params(embed_once(chain[1])).params_string() == "[[6,0,4]]_5"


def test_mds_input_gives_k_plus_one_distance():
    for req in [
        ConstructionRequest("c1", 13, 1, n=25, k=2),
        ConstructionRequest("c4", 7, 1, t=3),
    ]:
        cert = construct(req)
        qp = stabilizer_params(cert)
        assert qp.d == cert.code.k + 1
        assert qp.defect == 0


def test_monotonicity_under_embedding():
    base = construct(ConstructionRequest("c4", 2, 3, t=2))
    qb = stabilizer_params(base)
    emb = embed_once(base)
    qe = stabilizer_params(emb)
    if emb.code.n == base.code.n:
        assert qe.k == qb.k - 2
    else:
        assert qe.k == qb.k - 1
    assert qe.d == qb.d + 1  # MDS chains step the distance by one


def test_json_shape():
    request = ConstructionRequest("c9", 3, 1, t=2, k=4)
    entry = catalog_entry(construct(request), request, 0.0)
    assert list(entry["request"]) == ["construction", "p", "m", "n", "t", "k", "embed"]
    assert list(entry["quantum"]) == ["q", "n", "k", "d", "d_exact", "d_method", "mds", "defect"]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(self_orthogonal_codes([(2, 1), (3, 1)], 8, codim_max=5))
@example(IMPURE_GF4)
def test_certify_quantum_distance_matches_brute_force(code):
    """An exact quantum distance from certify() is min wt(C^perp_H minus C); a
    lower bound never exceeds it."""
    certificate = certify(code)
    assert certificate.gram.all_zero
    dual_d, quantum_d = brute_force_distances(code)
    assert certificate.dual_distance.value == dual_d and certificate.dual_distance.exact
    qd = certificate.quantum_distance
    assert qd.exact or code.n > 2 * code.k  # an [[n, 0]] code's distance is d(C^perp_H)
    if qd.exact:
        assert qd.value == quantum_d
    else:
        assert qd.method == "impure-lower-bound" and qd.value <= quantum_d


def test_impure_code_distance_is_a_lower_bound():
    certificate = certify(IMPURE_GF4)
    assert certificate.dual_distance == DistanceResult(2, True, (0, 3), "column-scan")
    assert certificate.quantum_distance == DistanceResult(2, False, (0, 3), "impure-lower-bound")
    qp = stabilizer_params(certificate)
    assert qp.params_string() == "[[7,1,>=2]]_2" and qp.mds is None and qp.defect is None
