"""Time agq's tower starts and table builds on this tree against another one.

    python -m tests.time_towers OTHER_TREE [ROUNDS]

loads this tree's src/agq and OTHER_TREE's into one process, as the packages
agq_this and agq_other, and lists the fields (p, m) that each benchmark
workload builds: those of the 33 `reproduce` rows and those of the requests
of agqbench/bench_workloads.py.  Both trees build from this tree's table of
moduli.  For ROUNDS rounds (default 30) it times, for every field and on both
trees, interleaved, two things: a fresh FieldTower(p, m, modulus), the start,
and a fresh tower whose exp and log tables are then built at once, the full
build.  Beyond the Cayley bound this tree's start builds no q^2-entry table;
a tree that builds its tables at construction has a full build equal to its
start.  It prints each field's median start and full build on both trees and
the medians of the per-round ratios other / this (above 1 is faster here),
then each workload's totals of the medians.  The trees must agree on every
field, or it exits 1 before timing: on the exp and log reads of a fresh
tower, on every fourth code and its value, and with the tables built, on the
exp, log and Zech log of every element and on the Cayley tables.  It is not
part of the test suite.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .time_scans import ROOT, load
from .workloads import workload_fields


def exp_read(tw, codes):
    """The packed values of codes: the exp read, or the exp table of a tower without one."""
    return tw._value_of(codes) if hasattr(tw, "_value_of") else tw._exp[codes].astype(np.int64)


def log_read(tw, values):
    """The codes of packed values: the log read, or the log table of a tower without one."""
    return tw._code_of(values) if hasattr(tw, "_code_of") else tw._log_val[values]


def tabulated(tw):
    """tw, with its exp and log tables built if it has none yet."""
    if tw._exp is None:
        tw._tabulate()
    return tw


def same_reads(a, b) -> bool:
    """Do fresh towers a and b of one field agree on every read, before and after their tables?"""
    codes = np.arange(0, a.q2, 4)  # a quarter of the codes and their values: no switch
    values = exp_read(a, codes)
    if not np.array_equal(values, exp_read(b, codes)) or not np.array_equal(log_read(a, values), log_read(b, values)):
        return False
    a, b, every = tabulated(a), tabulated(b), np.arange(a.q2)
    for read in (exp_read, log_read):
        if not np.array_equal(read(a, every), read(b, every)):
            return False
    if not np.array_equal(a.zech_log(every[:-1]), b.zech_log(every[:-1])):
        return False
    for name in ("_add_table", "_mul_table"):
        x, y = getattr(a, name), getattr(b, name)
        if (x is None) != (y is None) or (x is not None and not np.array_equal(x, y)):
            return False
    return True


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if not 1 <= len(args) <= 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    other_tree, rounds = Path(args[0]).resolve(), int(args[1]) if len(args) == 2 else 30
    trees = {"this": load(ROOT, "agq_this"), "other": load(other_tree, "agq_other")}
    fields = workload_fields(trees["this"].cli._repro_targets())
    every = sorted({pm for pms in fields.values() for pm in pms})
    moduli = {pm: trees["this"].fields._modulus(*pm) for pm in every}

    def start(name, pm):
        return trees[name].fields.FieldTower(*pm, moduli[pm])

    disagree = [pm for pm in every if not same_reads(start("this", pm), start("other", pm))]
    if disagree:
        print(f"the trees' reads disagree on GF({', '.join(f'{p}^{2 * m}' for p, m in disagree)})", file=sys.stderr)
        return 1
    kinds = {"start": start, "full": lambda name, pm: tabulated(start(name, pm))}
    times = {(kind, name): {pm: [] for pm in every} for kind in kinds for name in trees}
    for r in range(rounds):
        order = ("this", "other") if r % 2 == 0 else ("other", "this")
        for pm in every:
            for kind, make in kinds.items():
                for name in order:
                    begin = perf_counter()
                    make(name, pm)
                    times[kind, name][pm].append(perf_counter() - begin)
    medians = {key: {pm: statistics.median(t) * 1e3 for pm, t in by_field.items()} for key, by_field in times.items()}
    print(f"ms per tower over {rounds} interleaved rounds: the median start and full build on this tree")
    print("and on the other, and the median of other / this per round for each")
    for pm in every:
        ratios = [statistics.median(b / a for a, b in zip(times[kind, "this"][pm], times[kind, "other"][pm])) for kind in kinds]
        cells = [medians[kind, name][pm] for name in trees for kind in kinds]
        print(" ".join(f"{x:8.3f}" for x in cells), " ".join(f"{x:6.3f}" for x in ratios), f" GF({pm[0]}^{2 * pm[1]})")
    for workload, pms in fields.items():
        totals = {key: sum(medians[key][pm] for pm in pms) for key in times}
        print(
            f"{workload}: {len(pms)} fields; start {totals['start', 'this']:.3f} ms here, {totals['start', 'other']:.3f}"
            f" there; full build {totals['full', 'this']:.3f} ms here, {totals['full', 'other']:.3f} there"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
