"""Command-line front end: construct, verify, scan, reproduce, export.

Exit codes: 0 certified / report emitted, 2 rejected (a hypothesis failed or
the request is invalid, including an AGQ_CAP_OPS that is not a positive
integer), 4 parse error, unreadable input or unwritable output.  Neither
budget is a failure.  When AGQ_CAP_OPS stops the column scan, the code is
still certified (exit 0), and d_exact/d_method say that d is a lower bound,
as they do for an impure code.  A non-MDS code of more than
config.EXHAUSTIVE_CAP words gets no classical distance ("d": null).  Output
files are opened before the work starts.  All machine output is JSON (one
object per command, or line-delimited for scans).  construct, verify and scan
print one record per certified code (catalog_entry), and they and export one
per rejection (rejection_entry); its "request" is the construction request,
or the matrix file.  A request carries only construction, p, m, n, t, k and
embed: coset leaders, the grid anchor and the elliptic constant are always
agq's defaults.  construct and scan both take the construction's name
(--construction c7ii) and pass it on unchanged, so a name that no
construction has is a BadRequest rejection.  A rejection whose cause is a
nonzero Gram entry names that entry.  An AgqError that no command handles
becomes a JSON rejection verdict with exit code 2 (4 for UnwritableOutput),
not a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import sys
import time
from importlib import resources

from . import config
from .codes import (
    certify,
    exhaustive_distance,
    export_matrix,
    hermitian_gram,  # noqa: F401 -- bound here too; agqbench's tracer test wraps this binding
    import_matrix,
)
from .constructions import _EMBED_STEPS, CertifiedCode, ConstructionRequest, construct_chain
from .errors import AgqError, BadRequest, CapExceeded, GramNonzero, ParseError
from .errors import UnreadableInput, UnwritableOutput
from .fields import build_tower
from .quantum import stabilizer_params

EXIT_OK = 0
EXIT_REJECTED = 2
EXIT_PARSE = 4


# -- catalog entries -----------------------------------------------------------


def _classical_block(cert: CertifiedCode) -> dict:
    code = cert.code
    tower = code.tower
    block = {
        "q2": tower.q2,
        "n": code.n,
        "k": code.k,
        "mds": cert.certificate.mds,
        "mds_method": cert.certificate.mds_method,
        "designed_distance": cert.designed_distance,
    }
    block["d"] = block["d_method"] = None
    if cert.certificate.mds:
        block["d"], block["d_method"] = code.n - code.k + 1, "mds-singleton"
    else:
        with contextlib.suppress(CapExceeded):  # too many words: d stays None
            res = exhaustive_distance(code)
            block["d"], block["d_method"] = res.value, res.method
    return block


def catalog_entry(cert: CertifiedCode, request, elapsed: float) -> dict:
    """The JSON record of one certified code; elapsed becomes its time_s.
    construct and scan pass the member's own build_s and a ConstructionRequest,
    verify its whole run time and a plain dict naming the matrix file."""
    certificate = cert.certificate
    dd = certificate.dual_distance
    return {
        "request": dict(vars(request)) if isinstance(request, ConstructionRequest) else request,
        "verdict": "CERTIFIED",
        "classical": _classical_block(cert),
        "quantum": dict(vars(stabilizer_params(cert))),
        "dual_distance": {"value": dd.value, "exact": dd.exact, "method": dd.method},
        "gram_digest": certificate.gram.digest,
        "witnesses": {
            "mds_singular": list(certificate.mds_witness) if certificate.mds_witness else None,
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
        code = _read_matrix(args)
        certificate = certify(code)  # a nonzero Gram raises GramNonzero
    except AgqError as exc:
        return _matrix_rejected(args, exc, start)
    request = {"file": args.file, "systematic_prefix": args.systematic_prefix}
    _emit(catalog_entry(CertifiedCode(code, certificate, (), None), request, time.perf_counter() - start))
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
    cons = args.construction
    for tower in towers:
        p, m, q = tower.p, tower.m, tower.q
        if cons == "c1":
            for n in range(3, tower.q2 + 1):
                if tower.n_units % (n - 1) == 0:
                    yield ConstructionRequest("c1", p, m, n=n, embed=args.embed)
        elif cons == "c5":
            kmax = (2 * (tower.q2 // 2 + q) + q + 1) // (q + 1)
            for k in range(2, kmax + 1):
                yield ConstructionRequest("c5", p, m, k=k, embed="none")
        elif cons in ("c9", "c10"):
            ts = [args.t] if args.t else range(2, q + 2)
            for t in ts:
                yield ConstructionRequest(cons, p, m, t=t, k=args.k, embed="none")
        elif cons == "c4":
            ts = [args.t] if args.t else range(1, q + 1)
            for t in ts:
                yield ConstructionRequest("c4", p, m, t=t, embed=args.embed)
        else:
            yield ConstructionRequest(
                cons, p, m, n=args.n, t=args.t, k=args.k, embed=args.embed
            )


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
    pc.add_argument("--construction", required=True, help="c1 .. c6, c7i, c7ii, c7iii, c8, c9 or c10")
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
    ps.add_argument("--construction", required=True)
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
