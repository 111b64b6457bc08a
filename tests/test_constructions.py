import contextlib
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import agq.constructions
from agq.cli import _repro_targets, _run_repro_target, _scan_requests, build_parser
from agq.codes import Certificate, LinearCode, evaluation_code, exhaustive_distance, grs_rows, hermitian_gram
from agq.config import EXHAUSTIVE_CAP
from agq.constructions import (
    ConstructionRequest,
    _construct_base,
    construct,
    construct_chain,
    embed_once,
    thm_key_k_max,
)
from agq.curves import rr_basis
from agq.errors import AgqError, BadRequest, DivisibilityViolated, EmbeddingRejected, GramNonzero, RankDefect
from agq.fields import build_tower

from .oracles import zech_tree_gram


def deep_dimension(tower, t):
    """The floor(n/2t)-dimensional code on the n = t(q-1)+1 roots of x^n - x,
    the base of a deep request; the deep code of the paper is one embedding
    step further, embed_once(deep_dimension(tower, t))."""
    return _construct_base(ConstructionRequest("c1", tower.p, tower.m, t=t, embed="deep"), tower)


def test_c1_q13_k2_certified():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert cert.code.params() == (25, 2)
    assert cert.gram.all_zero
    assert cert.mds


def test_unknown_embedding_policy_is_rejected_before_any_work(monkeypatch):
    """A misspelled policy is a BadRequest before the base is built, even for a
    base that would fail its own Gram check."""

    def no_certify(code):
        raise AssertionError("certify ran before the embedding policy was checked")

    monkeypatch.setattr(agq.constructions, "certify", no_certify)
    with pytest.raises(BadRequest, match="sideways"):
        construct_chain(ConstructionRequest("c1", 11, 1, n=16, k=5, embed="sideways"))


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
    base = deep_dimension(build_tower(7, 1), 2)  # [13,3]
    emb = embed_once(base)
    assert emb.code.params() == (14, 4)
    zero = emb.code.tower.zero_code
    assert np.array_equal(emb.code.g[:3, :13], base.code.g)
    assert (emb.code.g[:3, 13] == zero).all()
    assert emb.code.g[3, 13] != zero


def test_c9_q3_pipeline():
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    assert cert.code.params() == (15, 3)
    assert cert.dual_distance.value == 3 and cert.dual_distance.exact


def test_c5_q4_pipeline():
    cert = construct(ConstructionRequest("c5", 2, 2, k=5))
    assert cert.code.params() == (24, 4)
    assert cert.gram.all_zero


def test_c5_assumption_check_runs_per_q():
    # for the bundled field sizes the norm hypothesis holds; the pipeline
    # must reach certification rather than NotNormValue
    for p, m in [(2, 2), (2, 3)]:
        cert = construct(ConstructionRequest("c5", p, m, k=3))
        assert cert.gram.all_zero


def test_deep_dimension_q13():
    tw = build_tower(13, 1)
    base = deep_dimension(tw, 2)
    assert base.code.params() == (25, 6)
    assert embed_once(base).code.params() == (25, 7)


def test_deep_dimension_q11_t3_extends():
    tw = build_tower(11, 1)
    full = embed_once(deep_dimension(tw, 3))
    assert full.code.params() == (32, 6)


def test_deep_dimension_q5():
    tw = build_tower(5, 1)
    base = deep_dimension(tw, 2)
    assert base.code.params() == (9, 2)
    assert embed_once(base).code.params() == (9, 3)


def test_deep_requires_divisor():
    with pytest.raises(DivisibilityViolated):
        deep_dimension(build_tower(13, 1), 3)  # 3 does not divide 14


@contextlib.contextmanager
def pipeline_calls():
    """Record the arguments and results of the twist and fiber steps of
    construct, and the name of every row-building step it enters."""
    calls = {"twist": [], "points": [], "rows": []}
    twist, points = agq.constructions.twist_vector, agq.constructions.rational_points

    def spy_twist(es):
        calls["twist"].append((es, twist(es)))
        return calls["twist"][-1][1]

    def spy_points(spec, xs):
        calls["points"].append((spec, xs, points(spec, xs)))
        return calls["points"][-1][2]

    def spy_rows(name, fn):
        return lambda *args, **kwargs: calls["rows"].append(name) or fn(*args, **kwargs)

    with (
        mock.patch.object(agq.constructions, "twist_vector", spy_twist),
        mock.patch.object(agq.constructions, "rational_points", spy_points),
        mock.patch.object(agq.constructions, "grs_rows", spy_rows("grs_rows", grs_rows)),
        mock.patch.object(agq.constructions, "rr_basis", spy_rows("rr_basis", rr_basis)),
    ):
        yield calls


def rows_rank_defect(calls, k):
    """The RankDefect that building all k rows raises, from the recorded point
    set and twist: the verdict before rows were checked against the points."""
    with pytest.raises(RankDefect) as got:
        if calls["points"]:
            spec, xs, (owner, y) = calls["points"][-1]
            tv = calls["twist"][-1][1]
            evaluation_code(spec, rr_basis(spec, k), xs.codes[owner], y, tv[owner])
        else:
            es, tv = calls["twist"][-1]
            LinearCode(es.tower, grs_rows(es.tower, es, tv, range(k)))
    return got.value


# (request, b): from k = b on, n points cannot carry k rows (b = n + 1 on the
# line, n + 2g on a curve), so construct rejects k before it builds a row
OVERSIZED = [
    (ConstructionRequest("c1", 2, 2, n=16), 17),
    (ConstructionRequest("c5", 2, 2), 24 + 2),
    (ConstructionRequest("c6", 2, 2, n=4), 8 + 4),
    (ConstructionRequest("c7i", 2, 2, n=4), 16 + 12),
    (ConstructionRequest("c7ii", 3, 1, n=2, t=1), 15 + 6),
    (ConstructionRequest("c7iii", 3, 1, t=1), 9 + 6),
    (ConstructionRequest("c8", 3, 1), 15 + 2),
    (ConstructionRequest("c9", 3, 1, t=2), 15 + 2),
    (ConstructionRequest("c10", 3, 1, t=2), 15 + 2),
    # p | t: the semigroup <3, 3> is not numerical, and the basis has more than k - g monomials
    (ConstructionRequest("c9", 3, 1, t=3), 9 + 4),
]


@pytest.mark.parametrize("request_, b", OVERSIZED, ids=[f"{r.construction}-{r.p}-{r.t}" for r, _ in OVERSIZED])
def test_oversized_k_is_rejected_before_any_row_is_built(request_, b):
    """At k = b and b + 1 construct raises RankDefect without building a row,
    with the rank n of the points and the size of the basis (k on the line),
    exactly the verdict that building the rows gives.  At b - 1 the rows are
    built."""
    with pipeline_calls() as calls, contextlib.suppress(RankDefect, GramNonzero):
        construct(replace(request_, k=b - 1))
    assert calls["rows"]
    for k in (b, b + 1):
        with pipeline_calls() as calls, pytest.raises(RankDefect) as got:
            construct(replace(request_, k=k))
        assert calls["rows"] == []
        n = len(calls["points"][0][2][0]) if calls["points"] else calls["twist"][0][0].n
        spec = calls["points"][0][0] if calls["points"] else None
        assert got.value.achieved_rank == n
        assert got.value.expected == (len(rr_basis(spec, k)) if spec else k)
        old = rows_rank_defect(calls, k)
        assert (old.achieved_rank, old.expected) == (got.value.achieved_rank, got.value.expected)
    if spec is not None and (spec.pole_x, spec.pole_y) != (3, 3):
        assert got.value.expected == k - spec.genus  # Riemann-Roch: l((k-1)P) = k - g


def test_embedding_boundary_q11():
    chain = construct_chain(ConstructionRequest("c1", 11, 1, n=16, k=2, embed="iterate"))[1:]
    assert [c.code.params() for c in chain] == [(16, 3), (16, 4)]
    with pytest.raises(EmbeddingRejected) as err:
        embed_once(chain[-1])
    assert isinstance(err.value.__cause__, GramNonzero)


def test_direct_16_5_gram_nonzero():
    with pytest.raises(GramNonzero) as err:
        construct(ConstructionRequest("c1", 11, 1, n=16, k=5))
    assert err.value.row is not None and err.value.value_token != "0"


def test_chain_q8_grid():
    chain = construct_chain(ConstructionRequest("c4", 2, 3, t=2, embed="iterate"))
    assert [c.code.params() for c in chain] == [(16, 2), (16, 3), (16, 4), (16, 5)]
    for cert in chain:
        assert cert.gram.all_zero
        assert cert.mds


def test_chain_q9_grid_reaches_18_5():
    chain = construct_chain(ConstructionRequest("c4", 3, 2, t=2, embed="iterate"))
    assert chain[-1].code.params() == (18, 5)


def test_chain_q13_deep_links_all_certified():
    chain = construct_chain(ConstructionRequest("c1", 13, 1, n=25, k=3, embed="iterate"))[1:]
    assert chain[-1].code.params() == (25, 7)
    for cert in chain:
        assert cert.gram.all_zero


def test_c1_gram_matches_exponent_reduction_rule():
    # For roots-of-unity sets: sum v^(q+1) a^E = [ (n-1) | E ] for E > 0,
    # so the full Vandermonde Gram vanishes exactly where (n-1) does not
    # divide (i-1) + q(j-1).  The nonzero entries carry the factor n-1 = 8,
    # which is 3 in GF(5), so they are compared with the Zech-tree oracle too.
    tw = build_tower(5, 1)
    from agq.codes import LinearCode, grs_rows
    from agq.points import roots_of_unity_set, twist_vector

    es = roots_of_unity_set(tw, 9)
    tv = twist_vector(es)
    kk = 6
    g = grs_rows(tw, es, tv, range(kk))
    code = LinearCode(tw, g)
    cert = hermitian_gram(code)
    gram = cert.matrix
    for i in range(kk):
        for j in range(kk):
            e = i + tw.q * j
            expected_zero = not (e > 0 and e % (es.n - 1) == 0)
            if (i, j) == (0, 0):
                expected_zero = True
            assert (gram[i, j] == tw.zero_code) == expected_zero, (i, j)
    want = zech_tree_gram(code)
    assert np.array_equal(gram, want.matrix)
    assert (cert.first_nonzero, cert.digest) == (want.first_nonzero, want.digest)


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
        g_k0 = tw.vmul(tv, tw.vpow(es.codes, k0 - 1))
        g_next = tw.vmul(tv, tw.vpow(es.codes, k0))
        pairing = tw.vsum(tw.vmul(g_k0, tw.vfrob(g_next)))
        assert pairing == tw.zero_code


def test_b_values_recorded_in_trace():
    cert = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert any("B(j)" in line for line in cert.trace)


def test_embed_requires_mds_input():
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))  # curve code
    with pytest.raises(EmbeddingRejected):
        embed_once(cert)


def test_chain_ends_at_first_member_not_certified_mds(monkeypatch):
    """A member is extended only on a decided MDS verdict.  The [8,3] member of
    the GF(16) c1 n = 6 chain is MDS by the column scan alone: under a budget
    too small for that scan its verdict is undecided, and the chain ends there.
    The last member's trace says why the chain ended."""
    request = ConstructionRequest("c1", 2, 2, n=6, embed="iterate")
    full = construct_chain(request)
    assert [c.code.params() for c in full] == [(6, 1), (7, 2), (8, 3), (9, 4), (10, 5)]
    assert (full[2].mds, full[2].mds_method) == (True, "column-scan")
    assert full[-1].trace[-1].startswith("chain ends: Gram nonzero at k+1 = 6")
    assert all("chain ends" not in line for c in full[:-1] for line in c.trace)
    monkeypatch.setenv("AGQ_CAP_OPS", "10")
    chain = construct_chain(request)
    assert [c.code.params() for c in chain] == [(6, 1), (7, 2), (8, 3)]
    assert chain[-1].mds is None
    assert chain[-1].trace[-1] == "chain ends: embedding needs an MDS input code: MDS undecided under the budget"
    with pytest.raises(EmbeddingRejected, match="MDS undecided under the budget"):
        embed_once(chain[-1])
    step = embed_once(chain[1])
    with pytest.raises(EmbeddingRejected) as ends:
        embed_once(step)
    assert step.trace + (f"chain ends: {ends.value}",) == chain[-1].trace
    monkeypatch.delenv("AGQ_CAP_OPS")
    # a decided non-MDS member ends its chain too: [13,4] over GF(64)
    chain = construct_chain(ConstructionRequest("c1", 2, 3, n=10, embed="iterate"))
    assert chain[-1].code.params() == (13, 4) and chain[-1].mds is False
    assert chain[-1].trace[-1] == "chain ends: embedding needs an MDS input code: not MDS"
    # a code with no evaluation chain ends its chain at the base: c5 over GF(16)
    chain = construct_chain(ConstructionRequest("c5", 2, 2, k=5, embed="iterate"))
    assert len(chain) == 1
    assert chain[-1].trace[-1] == "chain ends: embedding needs a recorded genus-0 evaluation chain"


def test_each_chain_member_is_one_certificate(monkeypatch):
    """The construction writes its fields onto the record certify returns and
    copies no record: a chain makes one Certificate per member."""
    made = []
    init = Certificate.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Certificate, "__init__", counted)
    chain = construct_chain(ConstructionRequest("c1", 13, 1, n=25, k=2, embed="iterate"))
    assert len(made) == len(chain)
    assert all(mine is member for mine, member in zip(made, chain))


def test_c2_subgroup_must_sit_in_base_field():
    with pytest.raises(DivisibilityViolated):
        construct(ConstructionRequest("c2", 3, 2, n=10, t=1))  # 10 does not divide q-1=8


def test_c2_nonvacuous_tower_certifies():
    # q = 81 is the smallest tower where the norm-power leader pool escapes
    # the base subgroup; n = (q-1)/(3+1) = 20, one admissible coset
    cert = construct(ConstructionRequest("c2", 3, 4, n=20, t=1))
    assert cert.code.params() == (41, 1)
    assert cert.gram.all_zero
    tw = cert.code.tower
    assert all(c % (tw.q + 1) == 0 for c in cert.eval_set.codes.tolist())  # GF(q), zero included


def test_c6_hyperelliptic_certifies():
    cert = construct(ConstructionRequest("c6", 2, 2, n=16, k=7))
    assert cert.code.params() == (32, 5)
    assert cert.gram.all_zero
    # intermediate length: the 12-point subgroup-plus-zero x-set
    cert2 = construct(ConstructionRequest("c6", 2, 2, n=6, k=4))
    assert cert2.code.params() == (12, 2)
    assert cert2.gram.all_zero


def test_c7_cases_ii_iii():
    cert2 = construct(ConstructionRequest("c7ii", 5, 1, n=6, t=2, k=7))
    assert cert2.code.params() == (95, 3)
    cert3 = construct(ConstructionRequest("c7iii", 2, 2, t=2, k=8))
    assert cert3.code.params() == (32, 3)
    assert cert3.gram.all_zero


def test_c10_even_q():
    cert = construct(ConstructionRequest("c10", 2, 2, t=5, k=8))
    assert cert.code.params() == (64, 3)
    assert cert.gram.all_zero


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


def test_deep_embedding_says_why_it_stopped():
    """A rejected deep embedding step ends the base code's trace with the
    reason, as an iterate chain's last member does; an accepted step keeps
    its trace."""
    chain = construct_chain(ConstructionRequest("c1", 2, 5, t=1, embed="deep"))
    assert [c.code.params() for c in chain] == [(32, 16)]
    assert chain[-1].trace[-1] == (
        "chain ends: Gram nonzero at k+1 = 17 (k(q+1) = 528 avoids n-1 = 31 and n-1+q = 63)"
    )
    chain = construct_chain(ConstructionRequest("c1", 2, 5, t=11, embed="deep"))
    assert [c.code.params() for c in chain] == [(342, 15), (342, 16)]
    assert chain[-1].trace[-1] == (
        "embed: k(q+1) = 495 avoids n-1 = 341 and n-1+q = 373; accepted n' = n = 342 (self-pairing zero)"
    )
    assert all("chain ends" not in line for c in chain for line in c.trace)


_DEEP_SCOPE = "deep embedding builds its own c1 code: it takes construction c1 and no k"


@pytest.mark.parametrize(
    "req, error, message",
    [
        pytest.param(ConstructionRequest("c4", 13, 1, t=2, embed="deep"), BadRequest, _DEEP_SCOPE, id="not-c1"),
        pytest.param(ConstructionRequest("c1", 13, 1, n=25, k=3, embed="deep"), BadRequest, _DEEP_SCOPE, id="k-given"),
        pytest.param(ConstructionRequest("c1", 13, 1, n=26, t=2, embed="deep"), DivisibilityViolated,
                     "n = 26 is not t(q-1)+1 = 25", id="n-not-t(q-1)+1"),
        pytest.param(ConstructionRequest("c1", 13, 1, n=26, embed="deep"), DivisibilityViolated,
                     "deep embedding needs t, or n of the form t(q-1)+1", id="n-not-t(q-1)+1-without-t"),
        pytest.param(ConstructionRequest("c1", 13, 1, embed="deep"), DivisibilityViolated,
                     "deep embedding needs t, or n of the form t(q-1)+1", id="neither-n-nor-t"),
        pytest.param(ConstructionRequest("c1", 3, 1, t=0, embed="deep"), BadRequest,
                     "t must be positive, got 0", id="t-zero"),
        pytest.param(ConstructionRequest("c1", 13, 1, t=3, embed="deep"), DivisibilityViolated,
                     "t = 3 does not divide q+1 = 14", id="t-not-dividing-q+1"),
        pytest.param(ConstructionRequest("c1", 2, 1, t=3, embed="deep"), BadRequest,
                     "k'' = floor(n/2t) = floor(4/6) is 0", id="k2-zero"),
    ],
)
def test_deep_rejections_keep_their_types_and_messages(req, error, message):
    """Each of deep's rules rejects with its own error type and message, through
    construct_chain and, for a request of a tower and t alone, through
    deep_dimension as well."""
    with pytest.raises(AgqError) as info:
        construct_chain(req)
    assert (type(info.value), str(info.value)) == (error, message)
    if (req.construction, req.n, req.k) == ("c1", None, None) and req.t is not None:
        with pytest.raises(AgqError) as info:
            deep_dimension(build_tower(req.p, req.m), req.t)
        assert (type(info.value), str(info.value)) == (error, message)


def test_construct_chain_deep_via_n():
    chain = construct_chain(ConstructionRequest("c1", 13, 1, n=25, embed="deep"))
    assert [c.code.params() for c in chain] == [(25, 6), (25, 7)]
    with pytest.raises(DivisibilityViolated):
        construct_chain(ConstructionRequest("c1", 13, 1, n=26, embed="deep"))


def line_code_chain_requests():
    """The c1 and c4 iterate scan grids over towers 2,2 3,1 5,1 7,1 2,3 3,2,
    the c4 once grid over 7,1 and 3,2, and every line-code recipe of both
    reproduce tables."""
    towers = ["2,2", "3,1", "5,1", "7,1", "2,3", "3,2"]
    for cons, embed, grid in [("c1", "iterate", towers), ("c4", "iterate", towers), ("c4", "once", ["7,1", "3,2"])]:
        argv = ["scan", "--construction", cons, "--embed", embed]
        yield from _scan_requests(build_parser().parse_args(argv + [a for t in grid for a in ("--tower", t)]))
    for target in _repro_targets():
        if target["recipe"]["construction"] in ("c1", "c2", "c3", "c4"):
            yield ConstructionRequest(**target["recipe"])


def test_designed_distance_is_a_lower_bound_on_line_code_chains():
    """A line-code member's designed distance, that of its GRS core, is at most
    its exact classical d, and below the Singleton bound n - k + 1 when the
    code is not MDS: unit columns from embedding add length, not distance."""
    members = 0
    for req in line_code_chain_requests():
        try:
            chain = construct_chain(req)
        except AgqError:
            continue
        for cert in chain:
            members += 1
            d = cert.distance
            assert cert.designed_distance == cert.eval_set.n - cert.code.k + 1, req
            if d is not None:
                assert cert.designed_distance <= d.value, (req, cert.code.params())
            if cert.mds is False:
                assert cert.designed_distance <= cert.code.n - cert.code.k, (req, cert.code.params())
    assert members > 250


def curve_code_requests():
    """The c5, c8, c9 and c10 scan grids over towers 2,2 3,1 2,3 3,2 5,1 7,1,
    Artin-Schreier members with p | t among them, and one code each of c6,
    c7i, c7ii and c7iii."""
    towers = [a for t in ("2,2", "3,1", "2,3", "3,2", "5,1", "7,1") for a in ("--tower", t)]
    for cons in ("c5", "c8", "c9", "c10"):
        yield from _scan_requests(build_parser().parse_args(["scan", "--construction", cons, *towers]))
    yield ConstructionRequest("c6", 2, 2, n=4, k=4)
    yield ConstructionRequest("c7i", 2, 2, n=16, k=8)
    yield ConstructionRequest("c7ii", 3, 1, n=2, t=1, k=4)
    yield ConstructionRequest("c7iii", 2, 2, t=2, k=6)


def test_designed_distance_is_a_lower_bound_on_curve_codes():
    """A curve code's designed distance, the Goppa bound, is at most its d(C)
    wherever the record has one, and at most n - k when the code is not MDS.
    Every d that a light word meets (goppa-light-word) within the word cap
    equals the enumerated d."""
    members, methods, enumerated = 0, [], 0
    for req in curve_code_requests():
        try:
            chain = construct_chain(req)
        except AgqError:
            continue
        for cert in chain:
            members += 1
            d = cert.distance
            if d is not None:
                methods.append(d.method)
                assert cert.designed_distance <= d.value, (req, cert.code.params())
            if d is not None and d.method == "goppa-light-word" and cert.code.tower.q2 ** cert.code.k <= EXHAUSTIVE_CAP:
                assert d.value == exhaustive_distance(cert.code).value, (req, cert.code.params())
                enumerated += 1
            if cert.mds is False:
                assert cert.designed_distance <= cert.code.n - cert.code.k, (req, cert.code.params())
    counts = tuple(methods.count(method) for method in ("exhaustive", "goppa-light-word", "mds-singleton"))
    assert (members, *counts, enumerated) == (60, 7, 26, 4, 19)


def test_every_certified_code_has_zero_gram():
    reqs = [
        ConstructionRequest("c1", 13, 1, n=25, k=2, embed="iterate"),
        ConstructionRequest("c4", 7, 1, t=3, embed="iterate"),
        ConstructionRequest("c9", 3, 1, t=2, k=4),
        ConstructionRequest("c8", 5, 1, k=6),
    ]
    for req in reqs:
        for cert in construct_chain(req):
            assert cert.gram.all_zero
            assert hermitian_gram(cert.code).all_zero  # recomputed, same verdict


def test_line_chain_members_take_no_row_reduction_or_cauchy():
    """The line record stands in for rref and _cauchy_verify on every code of
    the mds1 table, the candidates that the Gram rejects included, and on the
    chain of c1 p=2 m=8 n=258 embed=once, whose [259,2] member is extended
    GRS; the mixed table keeps one rref, the [80,8] code's systematic screen."""
    calls = []

    def spy(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    tables = {}
    with (
        mock.patch.object(agq.codes, "rref", spy("rref", agq.codes.rref)),
        mock.patch.object(agq.codes, "_cauchy_verify", spy("cauchy", agq.codes._cauchy_verify)),
    ):
        for table in ("mds1", "mixed"):
            calls.clear()
            statuses = [_run_repro_target(target)["status"] for target in _repro_targets() if target["table"] == table]
            tables[table] = statuses.count("MATCH"), list(calls)
        calls.clear()
        chain = construct_chain(ConstructionRequest("c1", 2, 8, n=258, embed="once"))
    assert tables == {"mds1": (18, []), "mixed": (11, ["rref"])}
    assert calls == [] and [c.mds_method for c in chain] == ["vandermonde", "extended-grs"]


def test_a_line_record_spares_the_curve_check():
    """A curve code whose line record makes it MDS, such as the [256,1] codes
    of the catalog-curves workload, never has its curve record checked."""
    with mock.patch.object(agq.codes, "_curve_record", side_effect=AssertionError("curve record checked")):
        certificate = construct(ConstructionRequest("c10", 2, 4, t=3, k=2))
    assert (certificate.mds_method, certificate.distance.method) == ("vandermonde", "mds-singleton")


# one request of each catalog-curves slot whose curve has gcd(pole_x, pole_y) = 1:
# [49,3], [91,3], [175,3] twice, [671,2], [44,3], [64,3], [24,4] and [256,1]
COPRIME_CATALOG = [
    ConstructionRequest("c9", 7, 1, t=5, k=8), ConstructionRequest("c9", 7, 1, t=6, k=8),
    ConstructionRequest("c8", 7, 1, k=8), ConstructionRequest("c9", 7, 1, t=4, k=8),
    ConstructionRequest("c8", 11, 1, k=7), ConstructionRequest("c6", 2, 3, n=22, k=5),
    ConstructionRequest("c10", 2, 3, t=5, k=9), ConstructionRequest("c5", 2, 2, k=5),
    ConstructionRequest("c10", 2, 4, t=3, k=2),
]


def certifier_calls(request):
    """The rref calls, w = 2 reads of the matrix (column keys of the scan) and
    codeword enumerations (word blocks of exhaustive_distance) that certifying
    request and reading its d(C) and quantum distance make, and its d(C)."""
    calls = []

    def spy(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    with (
        mock.patch.object(agq.codes, "rref", spy("rref", agq.codes.rref)),
        mock.patch.object(agq.codes, "_column_keys", spy("w=2", agq.codes._column_keys)),
        mock.patch.object(agq.codes, "_word_blocks", spy("enumeration", agq.codes._word_blocks)),
    ):
        certificate = construct(request)
        distance = certificate.distance
        assert certificate.quantum_distance.exact
    return sorted(set(calls)), distance


def test_coprime_curve_codes_take_no_row_reduction_pair_scan_or_enumeration():
    """The curve record stands in for rref (rank, the MDS screen and purity),
    the w = 2 column keys and codeword enumeration on every gcd = 1 slot of
    the catalog-curves workload, with d(C) = n - m exact: exhaustive_distance
    stops at its first word, the light word.  The gcd 7 curve of c9 p=7 t=7
    has no record and takes all three."""
    for request in COPRIME_CATALOG:
        calls, distance = certifier_calls(request)
        assert calls == [], request
        assert distance.method in ("goppa-light-word", "mds-singleton"), request
    calls, distance = certifier_calls(ConstructionRequest("c9", 7, 1, t=7, k=10))
    assert calls == ["enumeration", "rref", "w=2"] and (distance.value, distance.method) == (42, "exhaustive")
