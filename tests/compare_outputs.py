"""Compare agq's outputs on this tree and on another one, wall times aside.

    python -m tests.compare_outputs OTHER_TREE

runs a fixed set of agq commands (both reproduce tables, scans of c1, c4,
c5, c8, c9 and c10, four line-code constructs with deep, once and iterate
embedding, and verify of every matrix in tests/data) once with
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
    *(["verify", str(path), "--systematic-prefix"] for path in sorted(DATA.glob("*.txt"))),
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
