"""Tests of the benchmark harness itself: tracer accounting, the reference
check and tracer clean-up.  They run a handful of cheap requests in-process."""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bench_layers  # noqa: E402
import bench_pass  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

CHEAP = (
    ("catalog-curves", bench_workloads.req("c10", 2, 4, t=3, k=2)),  # certified [256,1]
    ("catalog-curves", bench_workloads.req("c5", 2, 2, k=5)),  # certified [24,4], exhaustive d
    ("catalog-curves", bench_workloads.req("c5", 2, 1, k=4)),  # REJECTED(GramNonzero)
    ("catalog-curves", bench_workloads.req("c9", 7, 1, t=8, k=2)),  # REJECTED(GcdConditionViolated)
)


def _reference():
    with open(HERE / "reference.json") as fh:
        return json.load(fh)


def _cheap_pass(agq, tracer=None):
    items = [(bench_workloads.request_id(r), r) for _, r in CHEAP]
    return bench_pass.run_pass(agq, "catalog-curves", items, tracer)


def _agq_bindings(agq):
    """Every attribute of every agq module and of FieldTower, by identity."""
    mods = {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "agq" or name.startswith("agq."))}
    snap = {(name, key): id(val) for name, mod in mods.items() for key, val in vars(mod).items()}
    snap.update({("FieldTower", key): id(val) for key, val in vars(agq.fields.FieldTower).items()})
    return snap


def test_self_times_sum_to_traced_wall():
    agq = bench_pass.load_agq()
    _, plain_wall = _cheap_pass(agq)
    tracer = bench_layers.Tracer()
    tracer.install()
    try:
        results, traced_wall = _cheap_pass(agq, tracer)
    finally:
        tracer.uninstall()
    assert all("error" not in r["record"] for r in results)
    times = tracer.self_times()
    assert times["request"]["calls"] == len(CHEAP)
    assert times["codes.exhaustive_distance"]["calls"] >= 1
    assert times["fields.vadd"]["calls"] > 0
    self_sum = sum(row["self_s"] for row in times.values())
    overhead = abs(traced_wall - plain_wall)
    assert 0 < self_sum <= traced_wall
    assert traced_wall - self_sum <= max(overhead, 0.05 * traced_wall)
    # every layer's self time is within its own inclusive time
    for row in times.values():
        assert -1e-9 <= row["self_s"] <= row["total_s"] + 1e-9


def test_altered_record_fails_reference_check():
    agq = bench_pass.load_agq()
    reference = _reference()["catalog-curves"]
    results, _ = _cheap_pass(agq)
    assert run.check_records([{"requests": results}], reference) == []

    certified = next(r for r in results if r["record"]["verdict"] == "CERTIFIED")
    mutations = (
        lambda rec: rec["members"][0]["quantum"].__setitem__(3, not rec["members"][0]["quantum"][3]),
        lambda rec: rec["members"][0].__setitem__("gram", "0" * 64),
        lambda rec: rec["members"][0].__setitem__("classical_d", rec["members"][0]["classical_d"] + 1),
        lambda rec: rec.__setitem__("verdict", "REJECTED(GramNonzero)"),
    )
    for mutate in mutations:
        altered = copy.deepcopy(results)
        target = next(r for r in altered if r["id"] == certified["id"])
        mutate(target["record"])
        assert run.check_records([{"requests": altered}], reference) == [certified["id"]]

    crashed = copy.deepcopy(results)
    crashed[0]["record"] = {"error": "ValueError: boom"}
    assert run.check_records([{"requests": crashed}], reference) == [crashed[0]["id"]]


def test_reproduce_reference_counts():
    rows = _reference()["reproduce"]
    statuses = [r["status"] for r in rows.values()]
    assert (statuses.count("MATCH"), statuses.count("UNMATCHED"), statuses.count("SKIPPED")) == (29, 3, 1)


def test_tracer_restores_every_binding():
    agq = bench_pass.load_agq()
    before = _agq_bindings(agq)
    original_gram = agq.codes.hermitian_gram
    tracer = bench_layers.Tracer()
    tracer.install()
    try:
        # separate bindings of one function are each wrapped
        for mod in (agq.codes, agq.constructions, agq.cli, agq):
            assert getattr(mod.hermitian_gram, "__wrapped_layer__", None) == "codes.hermitian_gram"
            assert mod.hermitian_gram.__wrapped__ is original_gram
        assert agq.fields.FieldTower.vadd.__wrapped_layer__ == "fields.vadd"
        _cheap_pass(agq, tracer)
        with pytest.raises(agq.errors.NotPrime), tracer.request("boom"):
            agq.fields.build_tower(4, 1)
    finally:
        tracer.uninstall()
    assert _agq_bindings(agq) == before
    assert agq.codes.hermitian_gram is original_gram


def test_every_slot_variant_has_a_reference():
    reference = _reference()
    for workload in ("catalog-curves", "construct-large"):
        ids = [bench_workloads.request_id(r) for r in bench_workloads.pool(workload)]
        assert len(ids) == len(set(ids))
        assert set(ids) == set(reference[workload])


def test_speed_scaling_uses_probes_around_each_request():
    ref = run.PROBE_REFERENCE_S
    # probes every 0.05 s: twice the reference time up to t = 1, then the reference time
    probes = [(0.05 * i, 2 * ref if 0.05 * i < 1.0 else ref) for i in range(60)]
    assert run.speed_around(probes, 0.2, 0.3) == 2.0
    assert run.speed_around(probes, 2.0, 2.5) == 1.0
    # no probe within the window: the nearest ones decide
    assert run.speed_around(probes, 10.0, 10.1) == 1.0
    assert run.speed_around([(0.0, ref)], 5.0, 5.0) == 1.0


def test_probe_time_is_excluded_from_latencies():
    agq = bench_pass.load_agq()
    items = [(bench_workloads.request_id(r), r) for _, r in CHEAP]
    with bench_pass.SpeedProbe() as probe:
        results, wall = bench_pass.run_pass(agq, "catalog-curves", items, probe=probe)
    assert len(probe.samples) >= 1 and probe.spent > 0
    for r in results:
        assert 0 < r["latency_s"] <= r["end"] - r["start"]
    assert wall >= sum(r["latency_s"] for r in results)
