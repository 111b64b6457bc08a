import itertools
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

import pytest

import agq.codes
import agq.constructions
import agq.fields
from agq.cli import (
    _repro_targets,
    _run_repro_target,
    _scan_requests,
    build_parser,
    catalog_entry,
    main,
    parse_quantum_params,
    rejection_entry,
)
from agq.codes import DistanceResult
from agq.constructions import CONSTRUCTIONS, ConstructionRequest, construct
from agq.errors import AgqError
from agq.quantum import stabilizer_params

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_example_1(capsys):
    code, out = run_cli(
        capsys, "construct", "--construction", "c1", "--p", "13", "--m", "1", "--n", "25", "--embed", "deep"
    )
    assert code == 0
    entry = json.loads(out)
    assert entry["verdict"] == "CERTIFIED"
    assert entry["quantum"] == {
        "q": 13, "n": 25, "k": 11, "d": 8, "d_exact": True,
        "d_method": "mds-singleton", "mds": True, "defect": 0,
    }


def test_construct_c9(capsys):
    code, out = run_cli(capsys, "construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "2", "--k", "4")
    assert code == 0
    entry = json.loads(out)
    q = entry["quantum"]
    assert (q["n"], q["k"], q["d"]) == (15, 9, 3)


def test_construct_rejected_gram(capsys):
    code, out = run_cli(capsys, "construct", "--construction", "c1", "--p", "11", "--m", "1", "--n", "16", "--k", "5")
    assert code == 2
    entry = json.loads(out)
    assert entry["verdict"] == "REJECTED(GramNonzero)"
    assert entry["gram_failure"] == {"row": 1, "col": 4, "value": "1"}
    # the embedding step from [16,4] builds the same [16,5] matrix; its
    # rejection carries the Gram failure it was raised from
    code, out = run_cli(
        capsys, "construct", "--construction", "c1", "--p", "11", "--m", "1", "--n", "16", "--k", "4", "--embed", "once"
    )
    assert code == 2
    embedded = json.loads(out)
    assert embedded["verdict"] == "REJECTED(EmbeddingRejected)"
    assert embedded["reason"].startswith("EmbeddingRejected: Gram nonzero at k+1 = 5")
    assert embedded["gram_failure"] == entry["gram_failure"]


@pytest.mark.parametrize("name", ["c7", "C1"])
def test_construction_names_pass_through_unchanged(tmp_path, capsys, name):
    """No construction is named c7 (c7i, c7ii and c7iii are) or C1: construct
    prints the rejection and exits 2, scan writes one per tower and exits 0."""
    code, out = run_cli(capsys, "construct", "--construction", name, "--p", "3", "--m", "1", "--n", "4", "--t", "1")
    assert code == 2
    entry = json.loads(out)
    assert entry["verdict"] == "REJECTED(BadRequest)"
    assert entry["reason"] == f"BadRequest: unknown construction {name!r}"
    out_file = tmp_path / "scan.jsonl"
    code, _ = run_cli(capsys, "scan", "--construction", name, "--tower", "3,1", "--tower", "5,1", "--out", str(out_file))
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [(r["verdict"], r["request"]["construction"], r["request"]["p"]) for r in rows] == [
        ("REJECTED(BadRequest)", name, 3),
        ("REJECTED(BadRequest)", name, 5),
    ]


# each construction's fields besides k, and a request on p = 3 (c10: p = 2) that
# leaves out one of them, with its rejection; c5 and c8 need no field
NEEDS = {
    "c1": ("n", ["--k", "2"], "c1 needs n"),
    "c2": ("n t", ["--n", "2"], "c2 needs n and t"),
    "c3": ("n t", ["--t", "1"], "c3 needs n and t"),
    "c4": ("t", [], "c4 needs t"),
    "c5": ("", None, None),
    "c6": ("n", ["--k", "4"], "c6 needs n"),
    "c7i": ("n", ["--k", "3"], "c7i needs n"),
    "c7ii": ("n t", ["--n", "2"], "c7ii needs n and t"),
    "c7iii": ("t", [], "c7iii needs t"),
    "c8": ("", None, None),
    "c9": ("t", ["--k", "4"], "c9 needs t"),
    "c10": ("t", ["--k", "4"], "c10 needs t"),
}
SWEPT = {"c1": "n", "c4": "t", "c5": "k", "c9": "t", "c10": "t"}


def _tower(name):
    return ("2", "2") if name == "c10" else ("3", "2")


@pytest.mark.parametrize("name", [name for name, (_, argv, _) in NEEDS.items() if argv is not None])
def test_a_missing_field_is_rejected(tmp_path, capsys, name):
    """construct exits 2 with the construction's message; a scan that does not
    sweep the missing field writes the same rejection for the tower."""
    needs, argv, message = NEEDS[name]
    p, m = _tower(name)
    code, out = run_cli(capsys, "construct", "--construction", name, "--p", p, "--m", m, *argv)
    assert code == 2
    entry = json.loads(out)
    assert (entry["verdict"], entry["reason"]) == ("REJECTED(BadRequest)", f"BadRequest: {message}")
    if name in SWEPT:  # the scan fills in the one field the construction needs
        assert needs == SWEPT[name]
        return
    out_file = tmp_path / "scan.jsonl"
    assert run_cli(capsys, "scan", "--construction", name, "--tower", f"{p},{m}", *argv, "--out", str(out_file))[0] == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [(r["verdict"], r["reason"]) for r in rows] == [("REJECTED(BadRequest)", f"BadRequest: {message}")]


@pytest.mark.parametrize("name", list(NEEDS))
def test_a_field_the_construction_does_not_take_is_rejected(tmp_path, capsys, name):
    """Given n, t and k, a construction that does not take n or t rejects the
    request and names the first such field, in construct and in every row of a
    scan, so no certified record echoes such a field."""
    extra = [field for field in ("n", "t") if field not in NEEDS[name][0].split()]
    p, m = _tower(name)
    given = ("--n", "4", "--t", "1", "--k", "2")
    code, out = run_cli(capsys, "construct", "--construction", name, "--p", p, "--m", m, *given)
    entry = json.loads(out)
    if not extra:  # c2, c3 and c7ii take both
        assert "takes no" not in entry.get("reason", "")
        return
    rejected = ("REJECTED(BadRequest)", f"BadRequest: {name} takes no {extra[0]}")
    assert code == 2 and (entry["verdict"], entry["reason"]) == rejected
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--construction", name, "--tower", "2,2", "--tower", "3,1", *given, "--out", str(out_file))
    rows = [row for row in map(json.loads, out_file.read_text().splitlines()) if "verdict" in row]
    assert [(row["verdict"], row["reason"]) for row in rows] == [rejected, rejected]


def _requests(*argv):
    return list(_scan_requests(build_parser().parse_args(["scan", *argv])))


@pytest.mark.parametrize(
    "name, tower, values",
    [
        ("c1", "5,1", [3, 4, 5, 7, 9, 13, 25]),  # (n-1) | 24
        ("c4", "5,1", [1, 2, 3, 4, 5]),
        ("c5", "5,1", [2, 3, 4, 5, 6]),
        ("c9", "5,1", [2, 3, 4, 5, 6]),
        ("c10", "2,2", [2, 3, 4, 5]),
    ],
)
def test_scan_sweeps_its_field_over_a_tower(name, tower, values):
    """Each swept construction's values on one tower, the other fields unset;
    c5, c9 and c10 build the base code alone, c1 and c4 take --embed."""
    requests = _requests("--construction", name, "--tower", tower)
    field = SWEPT[name]
    assert [getattr(r, field) for r in requests] == values
    assert all(getattr(r, other) is None for r in requests for other in ("n", "t", "k") if other != field)
    assert {r.embed for r in requests} == {"iterate" if name in ("c1", "c4") else "none"}


def test_curve_scans_build_the_base_code_alone(tmp_path, capsys):
    """Every curve construction scans its base code alone, whatever --embed
    says: a curve code has no evaluation chain to embed, so a certified c8
    row's trace ends with its monomials, not a rejected embedding step."""
    for name, given in [("c5", []), ("c6", ["--n", "4"]), ("c7i", ["--n", "4"]), ("c7ii", ["--n", "2", "--t", "1"]),
                        ("c7iii", ["--t", "1"]), ("c8", []), ("c9", []), ("c10", [])]:
        assert {r.embed for r in _requests("--construction", name, "--tower", "2,2", "--embed", "iterate", *given)} == {"none"}
    out_file = tmp_path / "scan.jsonl"
    run_cli(capsys, "scan", "--construction", "c8", "--tower", "3,1", "--out", str(out_file))
    rows = [row for row in map(json.loads, out_file.read_text().splitlines()) if "verdict" in row]
    assert [(row["request"]["embed"], row["trace"][-1]) for row in rows] == [("none", "monomials [(0, 0), (0, 1), (1, 0)]")]


def test_c5_sweeps_k_to_the_old_bound():
    """Over every tower agq has a modulus for, c5's k runs from 2 to the bound
    the scan computed before, (2 * (q^2 // 2 + q) + q + 1) // (q + 1)."""
    rows = json.loads((SRC / "agq" / "data" / "moduli.json").read_text())
    assert len(rows) == 340
    for p, m, _ in rows:
        tower = agq.fields.build_tower(p, m)
        q, q2 = tower.q, tower.q2
        assert list(CONSTRUCTIONS["c5"].values(tower)) == list(range(2, (2 * (q2 // 2 + q) + q + 1) // (q + 1) + 1))


@pytest.mark.parametrize("name, field, value", [("c1", "n", 5), ("c4", "t", 2), ("c5", "k", 3), ("c9", "t", 3),
                                                ("c10", "t", 3), ("c9", "t", 0)])
def test_a_given_swept_field_yields_one_request_per_tower(name, field, value):
    """A swept field given on the command line, 0 included, is not swept: one request per tower."""
    requests = _requests("--construction", name, "--tower", "3,1", "--tower", "5,1", f"--{field}", str(value))
    assert [(r.p, getattr(r, field)) for r in requests] == [(3, value), (5, value)]


def test_verify_reference_matrices(capsys):
    for name, n, k in [("f169_25_7", 25, 7), ("f49_22_5", 22, 5), ("f289_33_9", 33, 9)]:
        code, out = run_cli(capsys, "verify", str(DATA / f"{name}.txt"), "--systematic-prefix")
        assert code == 0, out
        entry = json.loads(out)
        assert entry["verdict"] == "CERTIFIED"
        assert (entry["classical"]["n"], entry["classical"]["k"]) == (n, k)
        assert entry["classical"]["mds"] is True


def test_verify_example_1_quantum(capsys):
    code, out = run_cli(capsys, "verify", str(DATA / "f169_25_7.txt"), "--systematic-prefix")
    entry = json.loads(out)
    assert entry["quantum"] == {
        "q": 13, "n": 25, "k": 11, "d": 8, "d_exact": True,
        "d_method": "mds-singleton", "mds": True, "defect": 0,
    }


# the 3x7 GF(4) code of tests/test_quantum.py: impure, d(C^perp_H) = 2, quantum d = 3
IMPURE_GF4 = "q2=2^2 n=7 k=3\nt^2 1 0 t^2 t^1 t^2 t^1\n0 t^2 t^2 0 t^1 0 t^2\nt^2 t^2 t^2 t^2 t^1 0 t^2\n"


def test_verify_impure_code_never_reports_exact_2(tmp_path, capsys):
    f = tmp_path / "impure.txt"
    f.write_text(IMPURE_GF4)
    code, out = run_cli(capsys, "verify", str(f))
    assert code == 0
    entry = json.loads(out)
    assert entry["verdict"] == "CERTIFIED"
    assert (entry["classical"]["mds"], entry["classical"]["mds_method"]) == (False, "systematic")
    assert entry["dual_distance"] == {"value": 2, "exact": True, "method": "column-scan"}
    quantum = entry["quantum"]
    assert (quantum["d"], quantum["d_exact"]) == (3, True) or (
        quantum["d_exact"] is False and quantum["d_method"] == "impure-lower-bound"
    )


def test_verify_budget_capped_is_certified_with_a_bound(tmp_path, capsys, monkeypatch):
    f = tmp_path / "impure.txt"
    f.write_text(IMPURE_GF4)
    monkeypatch.setenv("AGQ_CAP_OPS", "1")  # too small for any pair of columns
    code, out = run_cli(capsys, "verify", str(f))
    assert code == 0
    entry = json.loads(out)
    assert entry["verdict"] == "CERTIFIED"
    assert entry["dual_distance"] == {"value": 2, "exact": False, "method": "column-scan-lower-bound"}
    assert entry["quantum"]["d_exact"] is False
    assert entry["quantum"]["d_method"] == "column-scan-lower-bound"


def test_construct_under_a_budget_is_certified_with_a_bound(capsys, monkeypatch):
    monkeypatch.setenv("AGQ_CAP_OPS", "10")
    code, out = run_cli(capsys, "construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "2", "--k", "4")
    assert code == 0
    entry = json.loads(out)
    assert entry["verdict"] == "CERTIFIED"
    assert (entry["quantum"]["d"], entry["quantum"]["d_exact"]) == (2, False)


def test_catalog_distance_stops_at_the_exhaustive_cap(capsys, monkeypatch):
    """Hermitian-curve codes over GF(16): the [64,5] code has 2^20 words, within
    the 2^21 cap, and gets its exhaustive d (its top monomial xy has no light
    word); the [64,6] code has 2^24, past the cap, and a light word of y^2
    meets its floor n - m = 54; the [64,8] code (top monomial x^2 y) has
    2^32, so its classical d is null, and the command still exits 0.  The
    certificate's d(C) is the same: enumerated once however often it is
    read, None past the cap, and Singleton's, with no enumeration, for an
    MDS code."""
    for k, params, d, method in [(10, (64, 5), 55, "exhaustive"), (11, (64, 6), 54, "goppa-light-word"),
                                 (14, (64, 8), None, None)]:
        code, out = run_cli(capsys, "construct", "--construction", "c7i", "--p", "2", "--m", "2", "--n", "16", "--k", str(k))
        assert code == 0
        classical = json.loads(out)["classical"]
        assert (classical["n"], classical["k"], classical["mds"]) == (*params, False)
        assert (classical["d"], classical["d_method"]) == (d, method)
    enumerated = []
    enumerate_words = agq.codes.exhaustive_distance
    monkeypatch.setattr(agq.codes, "exhaustive_distance", lambda code: enumerated.append(code) or enumerate_words(code))
    within = construct(ConstructionRequest("c7i", 2, 2, n=16, k=10))
    first, again = within.distance, within.distance
    assert (first.value, first.exact, first.method) == (55, True, "exhaustive")
    assert again is first and enumerated == [within.code]
    assert construct(ConstructionRequest("c7i", 2, 2, n=16, k=14)).distance is None
    enumerated.clear()
    mds = construct(ConstructionRequest("c1", 13, 1, n=25, k=2))
    assert mds.mds and mds.distance == DistanceResult(24, True, None, "mds-singleton")
    assert enumerated == []


def test_reproduce_enumerates_no_codewords(monkeypatch):
    """No reproduce row reads d(C), so no row enumerates codewords: certify
    leaves d(C) to the first read of Certificate.distance."""
    enumerated = []
    monkeypatch.setattr(agq.codes, "exhaustive_distance", lambda code: enumerated.append(code.params()))
    statuses = [_run_repro_target(target)["status"] for target in _repro_targets()]
    assert (statuses.count("MATCH"), statuses.count("UNMATCHED"), statuses.count("SKIPPED")) == (29, 3, 1)
    assert enumerated == []


def test_verify_identity_rejected(tmp_path, capsys):
    f = tmp_path / "eye.txt"
    f.write_text("q2=3^2 n=2 k=2\n1 0\n0 1\n")
    code, out = run_cli(capsys, "verify", str(f))
    assert code == 2
    entry = json.loads(out)
    assert entry["verdict"] == "REJECTED(GramNonzero)"
    assert entry["gram_failure"]["row"] == 0


def test_verify_parse_error_exit_4(tmp_path, capsys):
    f = tmp_path / "bad.txt"
    f.write_text("q2=3^2 n=3 k=1\nt^1 nope t^2\n")
    code, out = run_cli(capsys, "verify", str(f))
    assert code == 4


@pytest.mark.parametrize(
    "text, exit_code",
    [
        pytest.param("q2=3^2 n=3 k=1\nt^1 nope t^2\n", 4, id="bad-token"),
        pytest.param("q2=4^2 n=2 k=1\n1 1\n", 2, id="not-prime"),
    ],
)
def test_export_rejects_a_matrix_file_as_verify_does(tmp_path, capsys, text, exit_code):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    records = []
    for command in ("verify", "export"):
        code, out = run_cli(capsys, command, str(f))
        assert code == exit_code
        entry = json.loads(out)
        del entry["time_s"]
        records.append(entry)
    assert records[0] == records[1]
    assert records[1]["request"] == {"file": str(f), "systematic_prefix": False}


@pytest.mark.parametrize(
    "argv, verdict, exit_code",
    [
        pytest.param(("verify", "missing.txt"), "REJECTED(UnreadableInput)", 4, id="argv0-REJECTED(UnreadableInput)-4"),
        pytest.param(("scan", "--construction", "c1", "--tower", "4,1"), "REJECTED(NotPrime)", 2, id="argv1-REJECTED(NotPrime)-2"),
        pytest.param(("construct", "--construction", "c1", "--p", "13", "--m", "1", "--n", "25", "--k", "0"), "REJECTED(BadRequest)", 2, id="argv2-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c7i", "--p", "3", "--m", "1", "--k", "3"), "REJECTED(BadRequest)", 2, id="argv3-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c11", "--p", "3", "--m", "1"), "REJECTED(BadRequest)", 2, id="argv4-REJECTED(BadRequest)-2"),
        pytest.param(("AGQ_CAP_OPS=abc", "reproduce", "mixed"), "REJECTED(BadRequest)", 2, id="argv5-REJECTED(BadRequest)-2"),
        pytest.param(("AGQ_CAP_OPS=1e8", "construct", "--construction", "c5", "--p", "2", "--m", "2", "--k", "5"), "REJECTED(BadRequest)", 2, id="argv6-REJECTED(BadRequest)-2"),
        pytest.param(("AGQ_CAP_OPS=0", "export", str(DATA / "f49_22_5.txt")), "REJECTED(BadRequest)", 2, id="argv7-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c1", "--p", "5", "--m", "0", "--n", "7"), "REJECTED(BadRequest)", 2, id="argv8-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c1", "--p", "5", "--m", "-1", "--n", "7"), "REJECTED(BadRequest)", 2, id="argv9-REJECTED(BadRequest)-2"),
        pytest.param(("scan", "--construction", "c1", "--tower", "13"), "REJECTED(BadRequest)", 2, id="argv10-REJECTED(BadRequest)-2"),
        pytest.param(("scan", "--construction", "c1", "--tower", "a,1"), "REJECTED(BadRequest)", 2, id="argv11-REJECTED(BadRequest)-2"),
        pytest.param(("scan", "--construction", "c1", "--tower", "13,0"), "REJECTED(BadRequest)", 2, id="argv12-REJECTED(BadRequest)-2"),
        # bad parameter values and tokens: verdicts, not tracebacks
        pytest.param(("construct", "--construction", "c4", "--p", "3", "--m", "1", "--t", "0"), "REJECTED(BadRequest)", 2, id="argv13-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c3", "--p", "5", "--m", "1", "--n", "8", "--t", "-1"), "REJECTED(BadRequest)", 2, id="argv14-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "0", "--k", "2"), "REJECTED(BadRequest)", 2, id="argv15-REJECTED(BadRequest)-2"),
        pytest.param(("verify", "word.txt"), "REJECTED(ParseError)", 4, id="argv16-REJECTED(ParseError)-4"),
        pytest.param(("verify", "exponent.txt"), "REJECTED(ParseError)", 4, id="argv17-REJECTED(ParseError)-4"),
        pytest.param(("verify", "integer.txt"), "REJECTED(ParseError)", 4, id="argv18-REJECTED(ParseError)-4"),
        pytest.param(("construct", "--construction", "c2", "--p", "3", "--m", "1", "--n", "0", "--t", "1"), "REJECTED(DivisibilityViolated)", 2, id="argv19-REJECTED(DivisibilityViolated)-2"),
        pytest.param(("construct", "--construction", "c1", "--p", "3", "--m", "1", "--embed", "deep", "--t", "0"), "REJECTED(BadRequest)", 2, id="argv20-REJECTED(BadRequest)-2"),
        pytest.param(("construct", "--construction", "c1", "--p", "3", "--m", "1", "--n", "1", "--embed", "deep"), "REJECTED(BadRequest)", 2, id="argv21-REJECTED(BadRequest)-2"),
        pytest.param(("verify", "k0.txt"), "REJECTED(ParseError)", 4, id="argv22-REJECTED(ParseError)-4"),
        # deep embedding builds only its own c1 code, and needs k'' = floor(n/2t) >= 1
        pytest.param(("construct", "--construction", "c1", "--p", "2", "--m", "1", "--t", "3", "--embed", "deep"),
                     "REJECTED(BadRequest)", 2, id="deep-dimension-zero"),
        pytest.param(("construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "2", "--k", "4", "--embed", "deep"),
                     "REJECTED(BadRequest)", 2, id="deep-not-c1"),
        pytest.param(("construct", "--construction", "c1", "--p", "13", "--m", "1", "--n", "25", "--k", "3", "--embed", "deep"),
                     "REJECTED(BadRequest)", 2, id="deep-with-k"),
        # a curve code has no evaluation chain to embed along
        pytest.param(("construct", "--construction", "c5", "--p", "2", "--m", "2", "--k", "5", "--embed", "once"),
                     "REJECTED(EmbeddingRejected)", 2, id="once-without-evaluation-chain"),
    ],
)
def test_failures_are_json_verdicts(capsys, tmp_path, monkeypatch, argv, verdict, exit_code):
    monkeypatch.chdir(tmp_path)  # missing.txt really is missing
    (tmp_path / "k0.txt").write_text("q2=3^2 n=2 k=0\n")  # a header with no rows
    # one malformed element token each, one per way FieldTower.parse rejects a token
    (tmp_path / "word.txt").write_text("q2=3^2 n=2 k=1\nfoo 1\n")
    (tmp_path / "exponent.txt").write_text("q2=3^2 n=2 k=1\nt^x 1\n")
    (tmp_path / "integer.txt").write_text("q2=3^2 n=2 k=1\n7 1\n")  # outside GF(3)
    while "=" in argv[0]:  # leading NAME=value words set the environment, as in a shell
        name, _, value = argv[0].partition("=")
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, out = run_cli(capsys, *argv)
    assert code == exit_code
    assert json.loads(out)["verdict"] == verdict


@pytest.mark.parametrize(
    "argv, header",
    [
        pytest.param(("verify", "huge.txt"), "q2=1000000000000000000000007^2 n=1 k=1", id="argv0-q2=1000000000000000000000007^2 n=1 k=1"),
        pytest.param(("verify", "huge.txt"), "q2=2^400000000 n=1 k=1", id="argv1-q2=2^400000000 n=1 k=1"),
        pytest.param(("verify", "huge.txt"), "q2=4^24 n=1 k=1", id="argv2-q2=4^24 n=1 k=1"),  # not prime, and too large
        pytest.param(("scan", "--construction", "c1", "--tower", "1000000000000000000000007,1"), None, id="argv3-None"),
        pytest.param(("construct", "--construction", "c1", "--p", "2", "--m", "12", "--n", "5"), None, id="argv4-None"),
    ],
)
def test_huge_fields_are_rejected_at_once(capsys, tmp_path, monkeypatch, argv, header):
    """A field above the cap is a FieldTooLarge verdict before p is tested for
    primality or p^(2m) is formed, however large p or m is."""
    monkeypatch.chdir(tmp_path)
    if header:
        (tmp_path / "huge.txt").write_text(header + "\n1\n")
    start = time.perf_counter()
    code, out = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert json.loads(out)["verdict"] == "REJECTED(FieldTooLarge)"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "2", "--k", "4",
                      "--matrix-out", "missing/m.txt"), id="argv0"),
        pytest.param(("scan", "--construction", "c1", "--tower", "3,1", "--out", "missing/c.jsonl"), id="argv1"),
        pytest.param(("reproduce", "mds1", "--out", "missing/r.json"), id="argv2"),
        pytest.param(("export", str(DATA / "f49_22_5.txt"), "--out", "missing/e.txt"), id="argv3"),
    ],
)
def test_unwritable_output_is_rejected_before_work(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)  # no directory named missing

    def no_work(request):
        raise AssertionError("construct_chain ran before the output was opened")

    monkeypatch.setattr("agq.cli.construct_chain", no_work)
    code, out = run_cli(capsys, *argv)
    assert code == 4
    assert json.loads(out)["verdict"] == "REJECTED(UnwritableOutput)"
    assert not (tmp_path / "missing").exists()


def test_export_roundtrip(tmp_path, capsys):
    src = DATA / "f49_22_5.txt"
    out1 = tmp_path / "a.txt"
    code, _ = run_cli(capsys, "export", str(src), "--systematic-prefix", "--out", str(out1))
    assert code == 0
    out2 = tmp_path / "b.txt"
    code, _ = run_cli(capsys, "export", str(out1), "--out", str(out2))
    assert code == 0
    assert out1.read_text() == out2.read_text()


def test_scan_c1_q5_includes_9_3_4(tmp_path, capsys):
    out_file = tmp_path / "catalog.jsonl"
    code, _ = run_cli(capsys, "scan", "--construction", "c1", "--tower", "5,1", "--out", str(out_file))
    assert code == 0
    rows = [json.loads(line) for line in out_file.read_text().splitlines()]
    quantum = [r["quantum"] for r in rows if "quantum" in r]
    assert {"q": 5, "n": 9, "k": 3, "d": 4, "d_exact": True,
            "d_method": "mds-singleton", "mds": True, "defect": 0} in quantum


def test_scan_rows_do_not_depend_on_the_budget(tmp_path, capsys, monkeypatch):
    """A chain ends at its first member not certified MDS, so the GF(169) c1
    scan prints the same (n, k) rows at AGQ_CAP_OPS = 10^8 (the default) and
    10^9, and every row whose d(C^perp) is exact at the default reads the same
    bytes at the larger budget, apart from time_s."""
    scans = []
    for cap in ("100000000", "1000000000"):
        monkeypatch.setenv("AGQ_CAP_OPS", cap)
        out_file = tmp_path / f"{cap}.jsonl"
        code, _ = run_cli(capsys, "scan", "--construction", "c1", "--tower", "13,1", "--out", str(out_file))
        assert code == 0
        lines = [re.sub(r', "time_s": [^,}]+', "", line) for line in out_file.read_text().splitlines()]
        scans.append([(line, json.loads(line)) for line in lines])
    default, larger = scans
    assert len(default) == 52
    assert [(r["classical"]["n"], r["classical"]["k"]) for _, r in default] == [
        (r["classical"]["n"], r["classical"]["k"]) for _, r in larger
    ]
    exact = [(a, b) for (a, row), (b, _) in zip(default, larger) if row["dual_distance"]["exact"]]
    assert len(exact) == 49 and all(a == b for a, b in exact)


def test_record_dicts_equal_asdict_in_key_order():
    """The request and quantum blocks of a catalog entry, and the request of a
    rejection entry, are the dataclasses' fields in declaration order, the
    same items in the same order as dataclasses.asdict gives."""
    request = agq.constructions.ConstructionRequest("c1", 13, 1, n=25, embed="deep")
    cert = agq.constructions.construct_chain(request)[-1]
    entry = catalog_entry(cert, request, 0.0)
    assert list(entry["request"].items()) == list(asdict(request).items())
    assert list(entry["quantum"].items()) == list(asdict(stabilizer_params(cert)).items())
    request = agq.constructions.ConstructionRequest("c5", 2, 1, k=4)
    with pytest.raises(AgqError) as exc:
        agq.constructions.construct_chain(request)
    assert list(rejection_entry(request, exc.value, 0.0)["request"].items()) == list(asdict(request).items())


def test_chain_members_report_their_own_time(tmp_path, capsys, monkeypatch):
    """With a clock that advances one second per reading, every chain member
    reads time_s 1.0; the time of the chain so far would grow along it."""
    ticks = itertools.count()
    monkeypatch.setattr(agq.constructions, "perf_counter", lambda: float(next(ticks)))
    request = agq.constructions.ConstructionRequest("c1", 13, 1, n=25, k=2, embed="iterate")
    chain = agq.constructions.construct_chain(request)
    assert len(chain) == 6 and [c.build_s for c in chain] == [1.0] * 6
    out_file = tmp_path / "chains.jsonl"
    run_cli(capsys, "scan", "--construction", "c1", "--tower", "5,1", "--embed", "iterate", "--out", str(out_file))
    times = [json.loads(line).get("time_s") for line in out_file.read_text().splitlines()]
    assert len(times) == 16 and set(times) == {1.0}
    code, out = run_cli(capsys, "construct", "--construction", "c1", "--p", "13", "--m", "1", "--n", "25", "--embed", "deep")
    assert code == 0 and json.loads(out)["time_s"] == 1.0


def test_scan_empty_grid(tmp_path, capsys):
    out_file = tmp_path / "empty.jsonl"
    code, _ = run_cli(
        capsys, "scan", "--construction", "c9", "--tower", "3,1", "--t", "2", "--k", "99",
        "--out", str(out_file),
    )
    assert code == 0  # rejected rows still flush; exit stays 0


def test_scan_c5_assumption_lines(tmp_path, capsys):
    out_file = tmp_path / "c5.jsonl"
    code, _ = run_cli(capsys, "scan", "--construction", "c5", "--tower", "2,2", "--out", str(out_file))
    assert code == 0
    first = json.loads(out_file.read_text().splitlines()[0])
    assert first == {"assumption1": {"q": 4, "holds": True}}


def test_scan_deterministic_content(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AGQ_CAP_OPS", "1000000")
    outs = []
    for name in ("a.jsonl", "b.jsonl"):
        out_file = tmp_path / name
        run_cli(capsys, "scan", "--construction", "c1", "--tower", "3,1", "--out", str(out_file))
        rows = []
        for line in out_file.read_text().splitlines():
            d = json.loads(line)
            d.pop("time_s", None)
            rows.append(d)
        outs.append(rows)
    assert outs[0] == outs[1]


def test_parse_quantum_params():
    assert parse_quantum_params("[[25,11,8]]_13") == (25, 11, 8, 13)
    with pytest.raises(ValueError):
        parse_quantum_params("[25,11,8]_13")


def test_reproduce_report_shape(capsys):
    code, out = run_cli(capsys, "reproduce", "mds1")
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["match"] >= 6
    required = {
        "[[9,3,4]]_5", "[[25,11,8]]_13", "[[33,15,10]]_17",
        "[[21,13,5]]_7", "[[16,10,4]]_8", "[[16,8,5]]_8",
    }
    matched = {
        line.split()[3] for line in lines[:-1] if line.startswith("MATCH")
    }
    assert required <= matched
    # the known-discrepancy rows stay unmatched
    assert any(line.startswith("UNMATCHED") and "discrepancy-17" in line for line in lines)
    assert any(line.startswith("UNMATCHED") and "discrepancy-26" in line for line in lines)


def test_reproduce_out_report(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, _ = run_cli(capsys, "reproduce", "mixed", "--out", str(out_file))
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["table"] == "mixed"
    assert report["total"] == len(report["rows"])
    statuses = {r["row"]: r["status"] for r in report["rows"]}
    assert statuses["mixed-15-9-3-q3"] == "MATCH"
    assert statuses["mixed-80-64-8-q8"] == "SKIPPED"


def test_readme_library_tour_runs():
    # the code block in the README must keep working verbatim
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"```python\n(.*?)```", readme, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)


def test_public_names_resolve_and_elements_are_codes_only():
    """Every name in agq.__all__ resolves, and no module of the package defines
    or imports a scalar element class: an element is its exponent code."""
    import agq

    assert all(hasattr(agq, name) for name in agq.__all__)
    for path in Path(agq.__file__).parent.glob("*.py"):
        assert "FieldElement" not in path.read_text(), path.name


def test_construct_matrix_out_verifies(tmp_path, capsys):
    out_file = tmp_path / "code.txt"
    code, out = run_cli(
        capsys, "construct", "--construction", "c9", "--p", "3", "--m", "1", "--t", "2", "--k", "4",
        "--matrix-out", str(out_file),
    )
    assert code == 0
    built = json.loads(out)
    assert set(built["request"]) == {"construction", "p", "m", "n", "t", "k", "embed"}
    code, out = run_cli(capsys, "verify", str(out_file))
    assert code == 0
    entry = json.loads(out)
    assert entry["verdict"] == "CERTIFIED"
    # one record shape: verify reports what construct reported for the same
    # matrix, bar the designed distance, a label of the construction, and the
    # methods that the curve record, which an imported matrix has not, decides by
    assert entry["classical"].pop("designed_distance") is None
    assert built["classical"].pop("designed_distance") is not None
    methods = [(block.pop("mds_method"), block.pop("d_method")) for block in (built["classical"], entry["classical"])]
    assert methods == [("column-scan", "goppa-light-word"), ("systematic", "exhaustive")]
    for key in ("classical", "quantum", "gram_digest", "witnesses", "dual_distance"):
        assert entry[key] == built[key], key


def test_construct_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, 15-39 ms inside the first request
    script = (
        "import sys\n"
        "from agq.cli import main\n"
        "assert main(['construct', '--construction', 'c1', '--p', '13', '--m', '1', '--n', '25', '--embed', 'deep']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    entry, loaded = out.rstrip().rsplit("\n", 1)
    assert json.loads(entry)["verdict"] == "CERTIFIED"
    assert loaded == "False"


def test_curve_chain_and_grid_requests_do_not_import_numpy_ma():
    # x-supports, fibers, twists and point sets run on code arrays; np.unique
    # and np.setdiff1d would import numpy.ma there on their first call
    script = (
        "import sys\n"
        "from agq.cli import catalog_entry\n"
        "from agq.constructions import ConstructionRequest, construct_chain\n"
        "requests = [\n"
        "    ConstructionRequest('c5', 2, 2, k=5),\n"
        "    ConstructionRequest('c6', 2, 3, n=22),\n"
        "    ConstructionRequest('c7i', 2, 2, n=16),\n"
        "    ConstructionRequest('c8', 3, 1),\n"
        "    ConstructionRequest('c9', 7, 1, t=5, k=8),\n"
        "    ConstructionRequest('c10', 2, 3, t=3),\n"
        "    ConstructionRequest('c1', 2, 8, n=258, embed='once'),\n"
        "    ConstructionRequest('c4', 7, 1, t=3),\n"
        "]\n"
        "for request in requests:\n"
        "    chain = construct_chain(request)\n"
        "    print(len(chain), [catalog_entry(c, request, 0.0)['verdict'] for c in chain])\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    *chains, loaded = out.rstrip().split("\n")
    assert chains == ["1 ['CERTIFIED']"] * 6 + ["2 ['CERTIFIED', 'CERTIFIED']", "1 ['CERTIFIED']"]
    assert loaded == "False"


def test_certifying_a_code_loads_no_openssl():
    """Gram digests come from CPython's builtin SHA-256: importing agq and its
    CLI, and constructing and certifying a code, never loads hashlib's OpenSSL
    module (_hashlib), which would map libcrypto."""
    script = (
        "import sys\n"
        "import agq, agq.cli\n"
        "from agq.constructions import ConstructionRequest, construct\n"
        "cert = construct(ConstructionRequest('c1', 2, 4, n=18))\n"
        "print(cert.gram.digest, '_hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True).stdout
    digest, loaded = out.split()
    assert re.fullmatch("[0-9a-f]{64}", digest)
    assert loaded == "False"
