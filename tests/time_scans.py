"""Time agq's dual-distance column scans on this tree against another one.

    python -m tests.time_scans OTHER_TREE [ROUNDS]

loads this tree's src/agq and OTHER_TREE's into one process, as the packages
agq_this and agq_other, and collects, on this tree, the codes whose column
scans the 33 `reproduce` rows, the `catalog-curves` requests of
agqbench/bench_workloads.py and `agq scan --construction c1 --tower 13,1`
run.  It then runs every scan on both trees, interleaved, for ROUNDS rounds
(default 300), and prints each scan's median time on both trees and the
median of its per-round ratio other / this (above 1 is faster here).  The
same three numbers follow for the sum of the small `reproduce` scans (all
but the budget-capped [80, 8] one), for the sum of the `catalog-curves`
scans and for the sum of the c1 GF(169) scans, the ratio taken of the
per-round sums.  Last, in
a fresh interpreter per tree, it prints the getrusage minor page faults and
the time of the first scan of the [80, 8] code over GF(64) that the
mixed-80-64-8-q8 row scans, imported from its exported matrix: building it
with `construct` would certify it, and so scan it once before.  Results must
agree between the trees, or it exits 1.  It is not part of the test suite.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import os
import statistics
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BUDGET_CAPPED = "mixed-80-64-8-q8"  # the reproduce row whose scan spends the whole budget
C1_SCAN = "scan --construction c1 --tower 13,1"  # the agq command whose scans are timed as the c1 GF(169) ones

FIRST_SCAN = """
import resource, sys, time
from agq.codes import dual_distance_by_columns, import_matrix
code = import_matrix(sys.stdin.read())
faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
start = time.perf_counter()
dual_distance_by_columns(code)
seconds = time.perf_counter() - start
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults, f"{seconds * 1e3:.1f}")
"""


def load(tree: Path, name: str):
    """tree/src/agq imported as the package `name`; its modules import each other relatively."""
    src = tree / "src" / "agq"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("cli", "codes", "constructions", "errors", "fields"):
        importlib.import_module(f"{name}.{module}")
    return package


def collect(agq) -> list[tuple[str, int, int, object]]:
    """(label, p, m, generator matrix) of every distinct code the reproduce rows
    and the catalog-curves requests scan, and of every distinct code the c1
    GF(169) scan scans, in the order first scanned."""
    sys.path.insert(0, str(ROOT / "agqbench"))
    import bench_workloads

    seen, scans, label = set(), [], ""
    scan = agq.codes.dual_distance_by_columns

    def record(code):
        key = (label == C1_SCAN, code.tower.p, code.tower.m, code.g.shape, code.g.tobytes())
        if key not in seen:
            seen.add(key)
            scans.append((label, code.tower.p, code.tower.m, code.g.copy()))
        return scan(code)

    agq.codes.dual_distance_by_columns = record
    try:
        for target in agq.cli._repro_targets():
            label = target["row"]
            agq.cli._run_repro_target(target)
        for request in bench_workloads.pool("catalog-curves"):
            label = "catalog " + bench_workloads.request_id(request)
            request = agq.constructions.ConstructionRequest(**request)
            try:
                for member in agq.constructions.construct_chain(request):
                    agq.cli.catalog_entry(member, request, 0.0)
            except agq.errors.AgqError:
                pass
        label = C1_SCAN
        agq.cli._write_scan(agq.cli.build_parser().parse_args(C1_SCAN.split()), io.StringIO())
    finally:
        agq.codes.dual_distance_by_columns = scan
    return scans


def first_scan(tree: Path, matrix: str) -> str:
    """Minor faults and milliseconds of the first scan, in a fresh interpreter on
    tree, of the code whose exported matrix is given."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", FIRST_SCAN], input=matrix, env=env, capture_output=True, text=True, check=True
    )
    faults, ms = proc.stdout.split()
    return f"{faults:>5} faults {ms:>5} ms"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other_tree, rounds = Path(args[0]).resolve(), int(args[1]) if len(args) == 2 else 300
    trees = {"this": load(ROOT, "agq_this"), "other": load(other_tree, "agq_other")}
    scans = collect(trees["this"])
    codes = {
        name: [agq.codes.LinearCode(agq.fields.build_tower(p, m), g) for _, p, m, g in scans]
        for name, agq in trees.items()
    }
    results = {name: [astuple(agq.codes.dual_distance_by_columns(c)) for c in codes[name]] for name, agq in trees.items()}
    if results["this"] != results["other"]:
        print("the trees' scans disagree", file=sys.stderr)
        return 1
    times = {name: [[] for _ in scans] for name in trees}
    for r in range(rounds):
        order = ("this", "other") if r % 2 == 0 else ("other", "this")
        for i in range(len(scans)):
            for name in order:
                start = perf_counter()
                trees[name].codes.dual_distance_by_columns(codes[name][i])
                times[name][i].append(perf_counter() - start)
    print(f"medians of {rounds} interleaved rounds: ms on this tree and on the other, and of other / this per round")
    for i, (label, p, m, g) in enumerate(scans):
        mine, theirs = (statistics.median(times[name][i]) * 1e3 for name in ("this", "other"))
        ratio = statistics.median(b / a for a, b in zip(times["this"][i], times["other"][i]))
        k, n = g.shape
        print(f"{mine:8.3f} {theirs:8.3f} {ratio:6.3f}  [{n},{k}] GF({p ** (2 * m)}) {label}")
    sums = {"small reproduce": [], "catalog-curves": [], "c1 GF(169)": []}
    for i, (label, *_) in enumerate(scans):
        if label.startswith("catalog "):
            sums["catalog-curves"].append(i)
        elif label == C1_SCAN:
            sums["c1 GF(169)"].append(i)
        elif label != BUDGET_CAPPED:
            sums["small reproduce"].append(i)
    for name, members in sums.items():
        mine, theirs = (sum(statistics.median(times[tree][i]) for i in members) * 1e3 for tree in ("this", "other"))
        totals = {tree: [sum(times[tree][i][r] for i in members) for r in range(rounds)] for tree in ("this", "other")}
        ratio = statistics.median(b / a for a, b in zip(totals["this"], totals["other"]))
        print(f"{mine:8.3f} {theirs:8.3f} {ratio:6.3f}  sum of the {len(members)} {name} scans")
    capped = next(i for i, (label, *_) in enumerate(scans) if label == BUDGET_CAPPED)
    matrix = trees["this"].codes.export_matrix(codes["this"][capped])
    for name, tree in (("this", ROOT), ("other", other_tree)):
        runs = ", ".join(first_scan(tree, matrix) for _ in range(3))
        print(f"first [80,8] scan in a fresh interpreter, {name} tree:", runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
