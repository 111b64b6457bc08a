"""Compare agq's outputs on this tree and on another one, wall times aside.

    python -m tests.compare_outputs OTHER_TREE

runs a fixed set of agq commands (both reproduce tables, scans of c1, c4,
c5, c8, c9 and c10, four line-code constructs with deep, once and iterate
embedding, three Hermitian-curve constructs on either side of the exhaustive
word cap, constructs of c5, c6, c8 and c9, verify of every matrix in tests/data, eight requests that leave out
a field their construction needs or name no construction, and c4 and c9
scans given the field they sweep) once with
PYTHONPATH set to this tree's src and once with it set to OTHER_TREE/src.
Every "time_s" and "build_s" value is masked; the exit code, stdout and any
--out file must then match byte for byte.  Every command runs, whatever an
earlier one gave: each prints one line, "same" with its line count, or
"DIFFER" with both trees' line counts and the first line that differs.  The
exit code is 1 if any command differed, else 0.  It is not part of the test
suite: the scans take seconds each.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
_TIMES = re.compile(r'("(?:time_s|build_s)": )[^,}\n]+')


def _towers(*specs: str) -> list[str]:
    return [arg for spec in specs for arg in ("--tower", spec)]


def _construct(cons: str, p: int, m: int, t: int, embed: str, *extra: str) -> list[str]:
    return ["construct", "--construction", cons, "--p", str(p), "--m", str(m), "--t", str(t), "--embed", embed, *extra]


SMALL = _towers("2,2", "3,1", "2,3", "3,2")
COMMANDS = [
    ["reproduce", "mds1", "--out", "{out}"],
    ["reproduce", "mixed", "--out", "{out}"],
    ["scan", "--construction", "c1", *_towers("13,1", "7,1", "2,3", "3,2")],
    ["scan", "--construction", "c4", *_towers("3,1", "7,1", "2,3", "3,2")],
    ["scan", "--construction", "c4", "--embed", "once", *_towers("7,1")],
    *(["scan", "--construction", cons, "--out", "{out}", *SMALL] for cons in ("c5", "c8", "c9", "c10")),
    _construct("c1", 13, 1, 2, "deep"),  # [25,6] -> [25,7]
    _construct("c1", 2, 5, 1, "deep"),  # the step is rejected: the chain ends at [32,16]
    _construct("c4", 7, 1, 6, "once"),  # rejected, with a Gram failure
    _construct("c4", 7, 1, 3, "iterate", "--matrix-out", "{out}"),  # [21,3], [21,4], [22,5]
    # Hermitian-curve codes over GF(16): [64,5], d(C) 55 by enumeration, and past the word cap [64,6],
    # d(C) 54 from a light word of y^2, and [64,8], d null
    *(["construct", "--construction", "c7i", "--p", "2", "--m", "2", "--n", "16", "--k", k] for k in ("10", "11", "14")),
    # curve codes: c5 [80,8] over GF(64), d null -> 72; c9 with gcd(pole_x, pole_y) = 7, which has no
    # curve record; c6 [44,3] and c8 [671,2], with no y row and no x row
    ["construct", "--construction", "c5", "--p", "2", "--m", "3", "--k", "9"],
    ["construct", "--construction", "c9", "--p", "7", "--m", "1", "--t", "7", "--k", "10"],
    ["construct", "--construction", "c6", "--p", "2", "--m", "3", "--n", "22", "--k", "5"],
    ["construct", "--construction", "c8", "--p", "11", "--m", "1", "--k", "7"],
    *(["verify", str(path), "--systematic-prefix"] for path in sorted(DATA.glob("*.txt"))),
    # rejections of a request that leaves out a field its construction needs, or names no construction
    *(["construct", "--construction", cons, "--p", "3", "--m", "2", *extra]
      for cons, extra in (("c1", ["--k", "2"]), ("c2", ["--n", "8"]), ("c4", []), ("c6", ["--k", "4"]),
                          ("c7ii", ["--t", "1"]), ("c7iii", ["--k", "5"]), ("c7", ["--n", "4", "--t", "1"]))),
    ["construct", "--construction", "c9", "--p", "3", "--m", "1", "--k", "4"],
    # scans given the field they would sweep
    ["scan", "--construction", "c4", "--t", "2", *_towers("7,1", "3,2")],
    ["scan", "--construction", "c9", "--t", "3", "--k", "4", *_towers("3,1", "7,1")],
]


def run(tree: Path, argv: list[str]) -> list[str]:
    """Exit code, stdout and --out file of agq argv on tree's src, times masked, as lines."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [arg.replace("{out}", str(out)) for arg in argv]
        proc = subprocess.run([sys.executable, "-m", "agq.cli", *argv], cwd=tmp, env=env,
                              capture_output=True, text=True)
        text = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        if out.exists():
            text += "--out\n" + out.read_text()
    return _TIMES.sub(r"\1*", text).splitlines()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other = Path(args[0]).resolve()
    differed = 0
    for command in COMMANDS:
        mine, theirs = run(ROOT, command), run(other, command)
        label = " ".join(command).replace(str(ROOT) + "/", "")
        if mine == theirs:
            print(f"same   {label} ({len(mine)} lines)")
            continue
        differed += 1
        print(f"DIFFER {label}: {len(mine)} lines on this tree, {len(theirs)} on the other")
        # the first differing line, or the first line only one tree has
        lineno = next(i for i, (a, b) in enumerate(zip(mine + [None], theirs + [None])) if a != b)
        for tree, lines in (("this tree: ", mine), ("other tree:", theirs)):
            print(f"  line {lineno + 1}, {tree} {lines[lineno] if lineno < len(lines) else '(none)'}")
    print(f"{differed} of {len(COMMANDS)} commands differ")
    return 1 if differed else 0


if __name__ == "__main__":
    sys.exit(main())
