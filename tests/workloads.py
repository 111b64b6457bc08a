"""The benchmark's workload file, agqbench/bench_workloads.py, and the fields
(p, m) that each workload builds, read from it and the reproduce targets.
tests/test_fields.py parametrizes over the fields, tests/time_towers.py times
their towers, and tests/time_scans.py lists the catalog-curves requests."""

from __future__ import annotations

import importlib.util
from pathlib import Path


def bench_workloads():
    """agqbench/bench_workloads.py, loaded by importlib under another name,
    which leaves sys.path alone."""
    path = Path(__file__).resolve().parents[1] / "agqbench" / "bench_workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads_fields", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def workload_fields(repro_targets) -> dict[str, list[tuple[int, int]]]:
    """{workload: the (p, m) of every field it builds, ascending}: reproduce's
    from repro_targets (cli._repro_targets()), then each slot's of
    bench_workloads.SLOTS."""
    workloads = bench_workloads()
    fields = {"reproduce": sorted({(t["recipe"]["p"], t["recipe"]["m"]) for t in repro_targets})}
    for name in workloads.SLOTS:
        fields[name] = sorted({(r["p"], r["m"]) for r in workloads.pool(name)})
    return fields
