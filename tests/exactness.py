"""How exact agq's printed distances are over four scan sweeps, here and on another tree.

    python -m tests.exactness [OTHER_TREE]

runs four sweeps of `agq scan`: c1 over the towers 7,1 2,3 3,2 11,1 13,1
17,1 19,1 23,1; c4 over 7,1 2,3 3,2 11,1 13,1; c5, c6, c8, c9 and c10 over
2,2 2,3 3,1 3,2 5,1 7,1; and c7iii over the same towers at t = 1, 2 and 3,
one scan per t.  Each tree's sweeps run in one fresh interpreter, in process,
with PYTHONPATH set to the tree's src.  For each sweep it prints the rows,
certified and rejected; how many d(C^perp) are exact and how many are lower
bounds; the count of each MDS method; the classical d by method, with
"null" for no d; and how many quantum d are exact.  With OTHER_TREE it
prints that tree's table under this one's, and then every row, keyed by its
construction and options and by its quantum [[n, k]]_q (a rejection by its
request), whose verdict or dual, classical or quantum distance differs
between the trees.  The exit code is 1 if one got less exact here: an exact
value turned into a bound, a printed d into null, or a certified row into a
rejection or into none; else 0.  It is not part of the test suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _towers(*specs: str) -> list[str]:
    return [arg for spec in specs for arg in ("--tower", spec)]


CURVE_TOWERS = _towers("2,2", "2,3", "3,1", "3,2", "5,1", "7,1")
SWEEPS = {
    "c1": [["--construction", "c1", *_towers("7,1", "2,3", "3,2", "11,1", "13,1", "17,1", "19,1", "23,1")]],
    "c4": [["--construction", "c4", *_towers("7,1", "2,3", "3,2", "11,1", "13,1")]],
    "c5 c6 c8 c9 c10": [["--construction", cons, *CURVE_TOWERS] for cons in ("c5", "c6", "c8", "c9", "c10")],
    "c7iii t=1..3": [["--construction", "c7iii", "--t", str(t), *CURVE_TOWERS] for t in (1, 2, 3)],
}

# runs in a fresh interpreter on one tree: every sweep's scans, in process;
# prints {sweep: [[label, row], ...]} with the assumption1 lines left out
WORKER = """
import json, sys, tempfile
from pathlib import Path
from agq.cli import main
sweeps, rows = json.loads(sys.argv[1]), {}
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "scan.jsonl"
    for name, commands in sweeps.items():
        rows[name] = []
        for command in commands:
            assert main(["scan", *command, "--out", str(out)]) == 0
            lines = [json.loads(line) for line in out.read_text().splitlines()]
            label = " ".join(command[1 : command.index("--tower")])  # the construction and its options
            rows[name] += [[label, row] for row in lines if "assumption1" not in row]
print(json.dumps(rows))
"""


def sweep_rows(tree: Path) -> dict[str, list]:
    """Every sweep's rows on tree's src, each as [construction and options, record]."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", WORKER, json.dumps(SWEEPS)], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def table(rows: list) -> list[str]:
    """The sweep's counts, one line each."""
    certified = [row for _, row in rows if row["verdict"] == "CERTIFIED"]
    exact_dual = sum(row["dual_distance"]["exact"] for row in certified)

    def counts(values) -> str:
        return ", ".join(f"{name} {count}" for name, count in sorted(Counter(values).items())) or "none"

    return [
        f"rows {len(rows)}: {len(certified)} certified, {len(rows) - len(certified)} rejected",
        f"d(C^perp): {exact_dual} exact, {len(certified) - exact_dual} lower bound",
        f"MDS method: {counts(str(row['classical']['mds_method']) for row in certified)}",
        f"classical d: {counts(str(row['classical']['d_method'] or 'null') for row in certified)}",
        f"quantum d: {sum(row['quantum']['d_exact'] for row in certified)} exact",
    ]


def distances(rows: list) -> dict:
    """Each row's verdict and distances, keyed by its construction and options and by
    its quantum [[n, k]]_q, or a rejection by its request."""
    keyed = {}
    for label, row in rows:
        if row["verdict"] != "CERTIFIED":
            keyed[label, json.dumps(row["request"])] = {"verdict": row["verdict"]}
            continue
        quantum, classical, dual = row["quantum"], row["classical"], row["dual_distance"]
        keyed[label, f"[[{quantum['n']},{quantum['k']}]]_{quantum['q']}"] = {
            "verdict": row["verdict"],
            "dual": (dual["value"], dual["exact"]),
            "classical": (classical["d"], classical["d_method"]),
            "quantum": (quantum["d"], quantum["d_exact"]),
        }
    return keyed


def describe(row: dict | None) -> str:
    if row is None or row["verdict"] != "CERTIFIED":
        return "no row" if row is None else row["verdict"]
    (dual, dual_exact), (d, method), (quantum, quantum_exact) = row["dual"], row["classical"], row["quantum"]
    classical = "null" if d is None else f"{d} ({method})"
    return (f"d(C^perp) {dual} {'exact' if dual_exact else 'bound'}, d {classical}, "
            f"quantum d {quantum} {'exact' if quantum_exact else 'bound'}")


def less_exact(here: dict | None, there: dict | None) -> bool:
    """Whether here's row says less than there's: a certified row lost, an exact
    d(C^perp) or quantum d now a bound, or a classical d now null."""
    if there is None or there["verdict"] != "CERTIFIED":
        return False
    if here is None or here["verdict"] != "CERTIFIED":
        return True
    return (
        there["dual"][1] and not here["dual"][1]
        or there["classical"][0] is not None and here["classical"][0] is None
        or there["quantum"][1] and not here["quantum"][1]
    )


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"this tree": sweep_rows(ROOT)}
    if args:
        trees["other tree"] = sweep_rows(Path(args[0]).resolve())
    changed = worse = 0
    for name in SWEEPS:
        print(name)
        for tree, rows in trees.items():
            print(f"  {tree}")
            for line in table(rows[name]):
                print(f"    {line}")
        if not args:
            continue
        mine, theirs = distances(trees["this tree"][name]), distances(trees["other tree"][name])
        for key in [*theirs, *(key for key in mine if key not in theirs)]:
            if mine.get(key) != theirs.get(key):
                changed += 1
                worse += less_exact(mine.get(key), theirs.get(key))
                print(f"  CHANGED {key[0]} {key[1]}: {describe(theirs.get(key))} there,",
                      f"{describe(mine.get(key))} here")
    if args:
        print(f"{changed} rows changed, {worse} of them less exact here")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
