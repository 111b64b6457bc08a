"""Command-line front end: construct, verify, scan, reproduce, export.

Exit codes: 0 certified / report emitted, 2 rejected (a hypothesis failed or
the request is invalid, including an AGQ_CAP_OPS that is not a positive
integer), 4 parse error, unreadable input or unwritable output.  Neither
budget is a failure.  When AGQ_CAP_OPS stops the column scan, the code is
still certified (exit 0), and d_exact/d_method say that d is a lower bound,
as they do for an impure code.  The classical d is the certificate's
(codes.Certificate.distance): a non-MDS code of more than EXHAUSTIVE_CAP
words gets "d": null.  Output files are opened before the work starts.  All
machine output is JSON (one object per command, or line-delimited for
scans).  construct, verify and scan print one record per certified code
(catalog_entry), and they and export one
per rejection (rejection_entry); its "request" is the construction request,
or the matrix file.  A request carries only construction, p, m, n, t, k and
embed: coset leaders, the grid anchor and the elliptic constant are always
agq's defaults.  construct and scan pass --construction, --n, --t and --k on
unchanged, and constructions.CONSTRUCTIONS judges them: an unknown name, a
missing field or one the construction does not take is a BadRequest
rejection.  scan sweeps the field that table names for c1, c4, c5, c9 and
c10 unless it is given.  A rejection whose cause is a nonzero Gram entry
names that entry.  An AgqError that no command handles becomes a JSON
rejection verdict with exit code 2 (4 for UnwritableOutput), not a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time
from importlib import resources

from . import config, constructions
from .codes import (
    Certificate,
    certify,
    export_matrix,
    hermitian_gram,  # noqa: F401 -- bound here too; agqbench's tracer test wraps this binding
    import_matrix,
)
from .constructions import _EMBED_STEPS, ConstructionRequest, construct_chain
from .errors import AgqError, BadRequest, GramNonzero, ParseError, UnreadableInput, UnwritableOutput
from .fields import build_tower
from .quantum import stabilizer_params

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_PARSE = 4


# -- catalog entries -----------------------------------------------------------


def catalog_entry(cert: Certificate, request, elapsed: float) -> dict:
    """The JSON record of one certified code, read from its Certificate alone;
    elapsed becomes its time_s.  construct and scan pass the member's own
    build_s and a ConstructionRequest, verify its whole run time and a plain
    dict naming the matrix file; verify's certificate has an empty trace and
    no designed distance."""
    code, dd, d = cert.code, cert.dual_distance, cert.distance
    return {
        "request": dict(vars(request)) if isinstance(request, ConstructionRequest) else request,
        "verdict": "CERTIFIED",
        "classical": {
            "q2": code.tower.q2,
            "n": code.n,
            "k": code.k,
            "mds": cert.mds,
            "mds_method": cert.mds_method,
            "designed_distance": cert.designed_distance,
            "d": None if d is None else d.value,
            "d_method": None if d is None else d.method,
        },
        "quantum": dict(vars(stabilizer_params(cert))),
        "dual_distance": {"value": dd.value, "exact": dd.exact, "method": dd.method},
        "gram_digest": cert.gram.digest,
        "witnesses": {
            "mds_singular": list(cert.mds_witness) if cert.mds_witness else None,
            "dual_distance_columns": list(dd.witness) if dd.witness else None,
        },
        "trace": list(cert.trace),
        "time_s": round(elapsed, 4),
    }


def rejection_entry(request, exc: AgqError, elapsed: float) -> dict:
    """The JSON record of one rejection.  A failed Gram check, raised itself or
    as the cause of an EmbeddingRejected, adds its first nonzero entry."""
    entry = {
        "request": dict(vars(request)) if isinstance(request, ConstructionRequest) else request,
        "verdict": f"REJECTED({type(exc).__name__})",
        "reason": f"{type(exc).__name__}: {exc}",
        "time_s": round(elapsed, 4),
    }
    gram = exc if isinstance(exc, GramNonzero) else exc.__cause__
    if isinstance(gram, GramNonzero):
        entry["gram_failure"] = {"row": gram.row, "col": gram.col, "value": gram.value_token}
    return entry


def _emit(obj, out=None):
    text = json.dumps(obj, indent=2)
    if out:
        out.write(text + "\n")
    else:
        print(text)


@contextlib.contextmanager
def _output(path):
    """The file at path opened for writing, or None when no path was given.
    Failing to open it raises UnwritableOutput."""
    if not path:
        yield None
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise UnwritableOutput(f"{path}: {exc.strerror or exc}") from None
    with fh:
        yield fh


# -- construct ------------------------------------------------------------------


def cmd_construct(args) -> int:
    request = ConstructionRequest(args.construction, args.p, args.m, args.n, args.t, args.k, args.embed)
    with _output(args.matrix_out) as matrix_out:
        start = time.perf_counter()
        try:
            chain = construct_chain(request)
        except AgqError as exc:
            _emit(rejection_entry(request, exc, time.perf_counter() - start))
            return EXIT_REJECTED
        cert = chain[-1]
        entry = catalog_entry(cert, request, cert.build_s)
        if len(chain) > 1:
            entry["chain"] = [list(c.code.params()) for c in chain]
        _emit(entry)
        if matrix_out:
            matrix_out.write(export_matrix(cert.code))
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def _read_matrix(args):
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        raise UnreadableInput(f"{args.file}: {exc.strerror or exc}") from None
    return import_matrix(text, systematic_prefix=args.systematic_prefix)


def _matrix_rejected(args, exc: AgqError, start: float) -> int:
    """Print verify's or export's rejection record, which names the matrix file; its exit code."""
    request = {"file": args.file, "systematic_prefix": args.systematic_prefix}
    _emit(rejection_entry(request, exc, time.perf_counter() - start))
    return EXIT_PARSE if isinstance(exc, (ParseError, UnreadableInput)) else EXIT_REJECTED


def cmd_verify(args) -> int:
    start = time.perf_counter()
    try:
        cert = certify(_read_matrix(args))  # a nonzero Gram raises GramNonzero
    except AgqError as exc:
        return _matrix_rejected(args, exc, start)
    request = {"file": args.file, "systematic_prefix": args.systematic_prefix}
    _emit(catalog_entry(cert, request, time.perf_counter() - start))
    return EXIT_OK


# -- scan --------------------------------------------------------------------------


def _scan_requests(args):
    towers = []
    for spec in args.tower:  # every tower is checked before any request runs
        try:
            p, m = (int(x) for x in spec.split(","))
        except ValueError:
            raise BadRequest(f"--tower {spec!r} is not two integers p,m") from None
        towers.append(build_tower(p, m))
    entry = constructions.CONSTRUCTIONS.get(args.construction, constructions.Construction())
    given = {"n": args.n, "t": args.t, "k": args.k}
    embed = args.embed if entry.scan_embeds else "none"
    for tower in towers:
        swept = entry.swept is not None and given[entry.swept] is None
        for value in entry.values(tower) if swept else [None]:
            fields = {**given, entry.swept: value} if swept else given
            yield ConstructionRequest(args.construction, tower.p, tower.m, **fields, embed=embed)


def cmd_scan(args) -> int:
    with _output(args.out) as fh:
        _write_scan(args, fh or sys.stdout)
    return EXIT_OK


def _write_scan(args, out) -> None:
    entries = []
    assumption1 = {}
    for request in _scan_requests(args):
        start = time.perf_counter()
        try:
            chain = construct_chain(request)
        except AgqError as exc:
            entries.append(rejection_entry(request, exc, time.perf_counter() - start))
            if request.construction == "c5":
                assumption1.setdefault(request.p ** request.m, False)
            continue
        if request.construction == "c5":
            assumption1[request.p ** request.m] = True
        entries.extend(catalog_entry(cert, request, cert.build_s) for cert in chain)
    # dedupe certified entries by (q, n, k_quantum), keeping the best distance
    best = {}
    passthrough = []
    for e in entries:
        if not e["verdict"].startswith("CERTIFIED"):
            passthrough.append(e)
            continue
        key = (e["quantum"]["q"], e["quantum"]["n"], e["quantum"]["k"])
        cur = best.get(key)
        score = (e["quantum"]["d_exact"], e["quantum"]["d"])
        if cur is None or score > (cur["quantum"]["d_exact"], cur["quantum"]["d"]):
            best[key] = e
    final = sorted(best.values(), key=lambda e: (e["quantum"]["q"], e["quantum"]["n"], e["quantum"]["k"]))
    for q, flag in sorted(assumption1.items()):
        out.write(json.dumps({"assumption1": {"q": q, "holds": flag}}) + "\n")
    for e in final + passthrough:
        out.write(json.dumps(e) + "\n")


# -- reproduce -----------------------------------------------------------------------


_PARAM_RE = re.compile(r"^\[\[(\d+),(\d+),(\d+)\]\]_(\d+)$")


def parse_quantum_params(text: str) -> tuple[int, int, int, int]:
    m = _PARAM_RE.match(text.strip())
    if not m:
        raise ValueError(f"bad quantum parameter string {text!r}")
    n, k, d, q = (int(g) for g in m.groups())
    return n, k, d, q


def _repro_targets() -> list[dict]:
    """Reproduction rows, each pinned to one recipe, never a free search; read
    from data/repro_targets.json in table and row order."""
    return json.loads((resources.files(__package__) / "data" / "repro_targets.json").read_text())


def _run_repro_target(target: dict) -> dict:
    expected = parse_quantum_params(target["expected"])
    request = ConstructionRequest(**target["recipe"])
    report = {
        "table": target["table"],
        "row": target["row"],
        "expected": target["expected"],
    }
    if target.get("note"):
        report["note"] = target["note"]
    start = time.perf_counter()
    try:
        chain = construct_chain(request)
    except AgqError as exc:
        report.update(status="UNMATCHED", got=f"error: {type(exc).__name__}: {exc}")
        return report
    pick = target["pick"]
    cert = None
    if pick == "last":
        cert = chain[-1]
    else:
        for member in chain:
            if member.code.params() == tuple(pick):
                cert = member
                break
        if cert is None:
            report.update(
                status="UNMATCHED",
                got=f"chain {[m.code.params() for m in chain]} missing {tuple(pick)}",
            )
            return report
    qp = stabilizer_params(cert)
    report["time_s"] = round(time.perf_counter() - start, 3)
    got = (qp.n, qp.k, qp.d, qp.q)
    report["got"] = qp.params_string()
    if not qp.d_exact:
        if (qp.n, qp.k, qp.q) == (expected[0], expected[1], expected[3]) and qp.d <= expected[2]:
            report.update(status="SKIPPED", reason=f"cap: distance certified only as >= {qp.d}")
        else:
            report.update(status="UNMATCHED")
        return report
    report["status"] = "MATCH" if got == expected else "UNMATCHED"
    return report


def cmd_reproduce(args) -> int:
    targets = [t for t in _repro_targets() if t["table"] == args.table]
    rows = []
    with _output(args.out) as fh:
        for target in targets:
            row = _run_repro_target(target)
            rows.append(row)
            status = row["status"]
            detail = row.get("got") or row.get("reason") or ""
            print(f"{status:10s} {row['row']:32s} expected {row['expected']:18s} {detail}")
        summary = {
            "table": args.table,
            "total": len(rows),
            "match": sum(r["status"] == "MATCH" for r in rows),
            "unmatched": sum(r["status"] == "UNMATCHED" for r in rows),
            "skipped": sum(r["status"] == "SKIPPED" for r in rows),
            "rows": rows,
        }
        if fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    print(json.dumps({k: summary[k] for k in ("table", "total", "match", "unmatched", "skipped")}))
    return EXIT_OK


# -- export ---------------------------------------------------------------------------


def cmd_export(args) -> int:
    start = time.perf_counter()
    try:
        code = _read_matrix(args)
    except AgqError as exc:
        return _matrix_rejected(args, exc, start)
    text = export_matrix(code)
    # opened only after reading, so the output may overwrite the input file
    with _output(args.out) as fh:
        (fh or sys.stdout).write(text)
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agq",
        description="Hermitian self-orthogonal evaluation codes over GF(q^2) "
        "and their quantum stabilizer parameters, with certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="run one construction pipeline")
    pc.add_argument("--construction", required=True, help=", ".join(constructions.CONSTRUCTIONS))
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--m", type=int, required=True)
    pc.add_argument("--n", type=int)
    pc.add_argument("--t", type=int)
    pc.add_argument("--k", type=int)
    pc.add_argument("--embed", choices=list(_EMBED_STEPS), default="none")
    pc.add_argument("--matrix-out", help="write the generator matrix here")
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="certify a generator matrix file")
    pv.add_argument("file")
    pv.add_argument("--systematic-prefix", action="store_true",
                    help="prepend the identity block to the stored rows")
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("scan", help="sweep a parameter grid into a catalog")
    ps.add_argument("--construction", required=True, help=", ".join(constructions.CONSTRUCTIONS))
    ps.add_argument("--tower", action="append", required=True, metavar="p,m")
    ps.add_argument("--n", type=int)
    ps.add_argument("--t", type=int)
    ps.add_argument("--k", type=int)
    ps.add_argument("--embed", choices=list(_EMBED_STEPS), default="iterate")
    ps.add_argument("--out", help="write line-delimited JSON here (default stdout)")
    ps.set_defaults(func=cmd_scan)

    pr = sub.add_parser("reproduce", help="re-derive the bundled reference parameter tables")
    pr.add_argument("table", choices=["mds1", "mixed"])
    pr.add_argument("--out", help="write the JSON report here")
    pr.set_defaults(func=cmd_reproduce)

    pe = sub.add_parser("export", help="normalize a matrix file (canonical tokens)")
    pe.add_argument("file")
    pe.add_argument("--systematic-prefix", action="store_true")
    pe.add_argument("--out")
    pe.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        config.ops_cap()  # a malformed AGQ_CAP_OPS is rejected before any work
        return args.func(args)
    except AgqError as exc:
        request = {key: val for key, val in vars(args).items() if key != "func"}
        _emit(rejection_entry(request, exc, time.perf_counter() - start))
        return EXIT_PARSE if isinstance(exc, UnwritableOutput) else EXIT_REJECTED


if __name__ == "__main__":
    sys.exit(main())
