"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS line once its assertions hold, so a verbose
run doubles as the acceptance report.
"""

import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from agq.cli import main as cli_main
from agq.codes import (
    certify,
    dual_distance_by_columns,
    exhaustive_distance,
    import_matrix,
)
from agq.constructions import (
    CertifiedCode,
    ConstructionRequest,
    _embed_until_rejected,
    construct,
    construct_chain,
    embed_once,
)
from agq.curves import CurveFamily, curve, x_support
from agq.errors import EmbeddingRejected, GramNonzero
from agq.fields import build_tower
from agq.points import twist_vector
from agq.quantum import stabilizer_params

from .oracles import (
    assert_double_dual_is_the_code, assert_dual_scan_equals_exhaustive, assert_frobenius_keeps_weight,
    assert_norm_preimage, assert_residue_identity, minors_is_mds,
)
from .strategies import random_residue_case, random_row, random_short_code, random_unit, seeded_batch, uniform_codes

DATA = Path(__file__).resolve().parent / "data"


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_example_pipeline_q13():
    start = time.perf_counter()
    base = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert base.certificate.gram.all_zero and base.code.params() == (25, 2)
    emb = embed_once(base)
    assert emb.certificate.gram.all_zero and emb.code.params() == (25, 3)
    deep = construct(ConstructionRequest("c1", 13, 1, t=2, embed="deep"))
    assert deep.code.params() == (25, 7)
    t0 = time.perf_counter()
    flag, witness, method = minors_is_mds(deep.code)
    minors_time = time.perf_counter() - t0
    assert flag and witness is None and method == "minors"
    assert minors_time < 5.0, f"minor sweep took {minors_time:.2f}s"
    qp = stabilizer_params(deep)
    assert (qp.n, qp.k, qp.d, qp.q) == (25, 11, 8, 13)
    assert qp.defect == 0
    report(
        1,
        f"[25,2] -> [25,3], deep -> [25,7]; all C(25,7) minors nonsingular in "
        f"{minors_time:.2f}s; quantum [[25,11,8]]_13 with defect 0",
    )


def test_criterion_2_reference_matrices():
    """The stored MDS matrices, and f16_24_4, a [24,4] code over GF(16) whose
    Gram is zero but which is not MDS: its systematic form shows it, its
    classical distance is 20 of the Singleton 21, and its quantum code is
    [[24,16,4]]_4 with defect 2."""
    results = []
    for name, n, k, mds in [
        ("f49_22_5", 22, 5, True),
        ("f169_25_7", 25, 7, True),
        ("f289_33_9", 33, 9, True),
        ("f16_24_4", 24, 4, False),
    ]:
        text = (DATA / f"{name}.txt").read_text()
        # the stored rows without their identity block are another code, and
        # the Gram check names its first nonzero entry
        with pytest.raises(GramNonzero) as err:
            certify(import_matrix(text))
        assert (err.value.row, err.value.col) == (0, 0) and err.value.value_token != "0"
        t0 = time.perf_counter()
        code = import_matrix(text, systematic_prefix=True)
        certificate = certify(code)
        elapsed = time.perf_counter() - t0
        assert code.params() == (n, k)
        assert certificate.mds is mds, name
        assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"
        results.append(f"{name} [{n},{k}] gram+mds={mds} ({certificate.mds_method}) {elapsed * 1000:.0f}ms")
    assert (code.tower.q2, certificate.mds_method) == (16, "systematic")
    dist = exhaustive_distance(code)
    assert (dist.value, dist.exact) == (20, True)
    qp = stabilizer_params(CertifiedCode(certificate, (), None))
    assert (qp.params_string(), qp.d_exact, qp.defect) == ("[[24,16,4]]_4", True, 2)
    report(2, "; ".join(results))


def test_criterion_3_artin_schreier_q3():
    start = time.perf_counter()
    cert = construct(ConstructionRequest("c9", 3, 1, t=2, k=4))
    assert cert.code.params() == (15, 3)
    dist = exhaustive_distance(cert.code)
    assert (dist.value, dist.exact) == (12, True)
    dd = dual_distance_by_columns(cert.code)
    assert (dd.value, dd.exact) == (3, True)
    assert len(dd.witness) == 3  # a dependent triple; pairs all survived w=2
    qp = stabilizer_params(cert)
    assert qp.params_string() == "[[15,9,3]]_3"
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    report(3, f"[15,3] d=12 exhaustive over 91 projective words, dual d=3, [[15,9,3]]_3 in {elapsed:.2f}s")


def test_criterion_4_elliptic(monkeypatch):
    start = time.perf_counter()
    spec = curve(CurveFamily.ELLIPTIC, build_tower(2, 2))
    xs = x_support(spec)
    assert xs.n == 12
    twist_vector(xs)  # norm hypothesis holds for q = 4
    cert = construct(ConstructionRequest("c5", 2, 2, k=5))
    assert cert.code.params() == (24, 4)
    dist = exhaustive_distance(cert.code)
    assert (dist.value, dist.exact) == (20, True)
    sub = construct(ConstructionRequest("c5", 2, 2, k=4))
    qp = stabilizer_params(sub)
    assert qp.params_string() == "[[24,18,3]]_4"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"{elapsed:.2f}s"
    # q = 8: certification plus a budgeted dual-distance lower bound only
    monkeypatch.setenv("AGQ_CAP_OPS", str(10 ** 6))
    cert8 = construct(ConstructionRequest("c5", 2, 3, k=9))
    assert cert8.code.params() == (80, 8)
    assert cert8.certificate.gram.all_zero
    dd8 = dual_distance_by_columns(cert8.code)
    assert not dd8.exact and dd8.value >= 3
    report(
        4,
        f"q=4: |U_c|=12, [24,4] d=20 exhaustive, [[24,18,3]]_4 in {elapsed:.2f}s; "
        f"q=8: [80,8] certified, dual distance >= {dd8.value} (budget), primal skipped",
    )


def test_criterion_5_hermitian_q4():
    start = time.perf_counter()
    cert = construct(ConstructionRequest("c7i", 2, 2, n=16, k=8))
    assert cert.code.params() == (64, 3)
    dd = cert.certificate.dual_distance
    assert (dd.value, dd.exact) == (3, True)
    assert len(dd.witness) == 3  # pairs scan (C(64,2) = 2016) found nothing
    qp = stabilizer_params(cert)
    assert qp.params_string() == "[[64,58,3]]_4"
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"{elapsed:.2f}s"
    report(5, f"[64,3] certified, dual d=3 with dependent triple, [[64,58,3]]_4 in {elapsed:.2f}s")


def test_criterion_6_embedding_boundary_q11():
    start = time.perf_counter()
    base = construct(ConstructionRequest("c1", 11, 1, n=16, k=2))
    chain = _embed_until_rejected(base, None)
    assert [c.code.params() for c in chain] == [(16, 2), (16, 3), (16, 4)]
    with pytest.raises(EmbeddingRejected):
        embed_once(chain[-1])
    with pytest.raises(GramNonzero):
        construct(ConstructionRequest("c1", 11, 1, n=16, k=5))
    deep, emb = construct_chain(ConstructionRequest("c1", 11, 1, t=3, embed="deep"))
    assert deep.code.params() == (31, 5)
    assert emb.code.params() == (32, 6)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.2f}s"
    report(
        6,
        f"chain [16,2]..[16,4] certified, [16,5] rejected (Gram); "
        f"[31,5] -> [32,6] certified in {elapsed:.2f}s",
    )


def fresh_sample(seed_value, batches, check):
    """A property suite on a sample of its own: 100 batches of 10 cases under a
    fixed seed instead of derandomize, so the criterion draws cases the suite
    test's derandomized sample does not."""

    @seed(seed_value)
    @settings(max_examples=100, deadline=None, derandomize=False, database=None)
    @given(batches)
    def run(batch):
        for case in batch:
            check(case)

    return run


def tens(cases):
    return st.lists(cases, min_size=10, max_size=10)


# the five property suites of the unit tests, each with the assertion of its suite test and,
# but for the fifth (uniform codes, not the suite's sparse ones), its strategy.  Distinct
# cases per 1000 (hypothesis 6.155): 826 (set, e) pairs, 346 units, 999 rows, 998 codes and
# 230 codes; of these, 155, 252, 56, 37 and 0 are also in the suite test's sample
FRESH_SAMPLES = [
    fresh_sample(11, seeded_batch(random_residue_case), lambda case: assert_residue_identity(*case)),
    fresh_sample(13, seeded_batch(random_unit), assert_norm_preimage),
    fresh_sample(17, seeded_batch(random_row), lambda case: assert_frobenius_keeps_weight(*case)),
    fresh_sample(19, seeded_batch(random_short_code), assert_double_dual_is_the_code),
    fresh_sample(7, tens(uniform_codes(st.integers(1, 3), st.integers(4, 12))), assert_dual_scan_equals_exhaustive),
]


def test_criterion_7_property_suites():
    start = time.perf_counter()
    for run in FRESH_SAMPLES:
        run()
    elapsed = time.perf_counter() - start
    report(
        7,
        f"five property suites passed on fresh samples of 1000 cases each "
        f"in {elapsed:.1f}s",
    )


def test_criterion_8_reproduction_tables(capsys):
    start = time.perf_counter()
    code = cli_main(["reproduce", "mds1"])
    out1 = capsys.readouterr().out
    assert code == 0
    code = cli_main(["reproduce", "mixed"])
    out2 = capsys.readouterr().out
    assert code == 0
    elapsed = time.perf_counter() - start

    def statuses(out):
        table = {}
        for line in out.strip().splitlines()[:-1]:
            parts = line.split()
            table[parts[1]] = (parts[0], parts[3])
        return table

    mds1 = statuses(out1)
    mixed = statuses(out2)
    for row, expected in [
        ("mds1-9-3-4-q5", "[[9,3,4]]_5"),
        ("mds1-25-11-8-q13", "[[25,11,8]]_13"),
        ("mds1-33-15-10-q17", "[[33,15,10]]_17"),
        ("mds1-21-13-5-q7", "[[21,13,5]]_7"),
        ("mds1-16-10-4-q8", "[[16,10,4]]_8"),
        ("mds1-16-8-5-q8", "[[16,8,5]]_8"),
    ]:
        assert mds1[row] == ("MATCH", expected), (row, mds1[row])
    for row, expected in [
        ("mixed-15-9-3-q3", "[[15,9,3]]_3"),
        ("mixed-24-18-3-q4", "[[24,18,3]]_4"),
        ("mixed-64-58-3-q4", "[[64,58,3]]_4"),
        ("mixed-95-89-3-q5", "[[95,89,3]]_5"),
        ("mixed-91-81-4-q7", "[[91,81,4]]_7"),
    ]:
        assert mixed[row] == ("MATCH", expected), (row, mixed[row])
    assert mds1["mds1-discrepancy-17-q9"][0] == "UNMATCHED"
    assert mds1["mds1-discrepancy-26-q17"][0] == "UNMATCHED"
    assert mixed["mixed-20-12-4-q4"][0] == "UNMATCHED"
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    report(
        8,
        f"reproduce mds1 + mixed: all required rows MATCH, discrepancy rows "
        f"UNMATCHED, in {elapsed:.1f}s",
    )
