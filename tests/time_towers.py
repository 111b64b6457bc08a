"""Time agq's tower-table builds on this tree against another one.

    python -m tests.time_towers OTHER_TREE [ROUNDS]

loads this tree's src/agq and OTHER_TREE's into one process, as the packages
agq_this and agq_other, and lists the fields (p, m) that each benchmark
workload builds: those of the 33 `reproduce` rows and those of the requests
of agqbench/bench_workloads.py.  For ROUNDS rounds (default 30) it builds a
fresh FieldTower(p, m, modulus) of every field on both trees, interleaved,
each tree with its own table of moduli, and prints each field's median and
minimum build time on both trees and the median of its per-round ratio
other / this (above 1 is faster here), then each workload's total of the
medians.  The trees' Zech logs and Cayley tables must agree on every field,
or it exits 1 before timing.  It is not part of the test suite.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from .time_scans import ROOT, load


def workload_fields(agq) -> dict[str, list[tuple[int, int]]]:
    """{workload: the (p, m) of every field it builds, ascending}."""
    sys.path.insert(0, str(ROOT / "agqbench"))
    import bench_workloads

    fields = {"reproduce": sorted({(t["recipe"]["p"], t["recipe"]["m"]) for t in agq.cli._repro_targets()})}
    for name in bench_workloads.SLOTS:
        fields[name] = sorted({(r["p"], r["m"]) for r in bench_workloads.pool(name)})
    return fields


def same_tables(a, b) -> bool:
    """Do two towers of one field agree on every Zech log and on their Cayley tables?"""
    units = np.arange(a.n_units)
    if not np.array_equal(a.zech_log(units), b.zech_log(units)):
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
    fields = workload_fields(trees["this"])
    every = sorted({pm for pms in fields.values() for pm in pms})
    moduli = {name: agq.fields._moduli() for name, agq in trees.items()}

    def build(name, pm):
        return trees[name].fields.FieldTower(*pm, moduli[name][pm])

    disagree = [pm for pm in every if not same_tables(build("this", pm), build("other", pm))]
    if disagree:
        print(f"the trees' tables disagree on GF({', '.join(f'{p}^{2 * m}' for p, m in disagree)})", file=sys.stderr)
        return 1
    times = {name: {pm: [] for pm in every} for name in trees}
    for r in range(rounds):
        order = ("this", "other") if r % 2 == 0 else ("other", "this")
        for pm in every:
            for name in order:
                start = perf_counter()
                build(name, pm)
                times[name][pm].append(perf_counter() - start)
    medians = {name: {pm: statistics.median(t) * 1e3 for pm, t in by_field.items()} for name, by_field in times.items()}
    print(f"ms per build over {rounds} interleaved rounds: median and minimum on this tree and on the other,")
    print("and the median of other / this per round")
    for pm in every:
        this, other = times["this"][pm], times["other"][pm]
        ratio = statistics.median(b / a for a, b in zip(this, other))
        print(
            f"{medians['this'][pm]:8.3f} {min(this) * 1e3:8.3f} {medians['other'][pm]:8.3f} {min(other) * 1e3:8.3f}"
            f" {ratio:6.3f}  GF({pm[0]}^{2 * pm[1]})"
        )
    for workload, pms in fields.items():
        this, other = (sum(medians[name][pm] for pm in pms) for name in ("this", "other"))
        print(f"{workload}: {len(pms)} fields, {this:.3f} ms here, {other:.3f} ms there, ratio {this / other:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
