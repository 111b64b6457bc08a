"""One pass over a workload's requests, in a fresh interpreter.

    python3 agqbench/bench_pass.py --workload NAME --seed N --trace 0|1 --spawned-at T
    python3 agqbench/bench_pass.py --record

The first form imports agq from ``src/`` of this checkout, generates the
requests for the seed, runs each through the same entry points as the CLI
(``construct_chain`` then ``catalog_entry`` per chain member, or the
``reproduce`` row runner) and prints one JSON object with the set-up time,
every request's latency and output record, the pass wall time, peak RSS and
either the speed-probe samples (plain pass) or the per-layer metrics (traced
pass).  ``T`` is the ``time.monotonic()`` of the
parent just before it started this process, so set-up time counts
interpreter start.

``--record`` runs every request any seed can issue and rewrites
``reference.json``; run it only on the commit whose outputs are the
reference.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import signal
import sys
import time
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
SPANS_DIR = ROOT / ".agqbench"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import bench_layers  # noqa: E402
import bench_workloads  # noqa: E402

PROBE_INTERVAL_S = 0.05
PROBE_ELEMS = 4096


def load_agq():
    import agq  # noqa: F401
    import agq.cli
    import agq.constructions
    import agq.errors

    agq_file = Path(agq.__file__).resolve()
    if ROOT / "src" not in agq_file.parents:
        raise ImportError(f"agq was imported from {agq_file}, not from this checkout")
    return agq


def build_requests(agq, workload: str, seed: int) -> list[tuple[str, object]]:
    """(request id, request) pairs in the order the pass issues them."""
    if workload == "reproduce":
        targets = {t["row"]: t for t in agq.cli._repro_targets()}
        return [(row, targets[row]) for row in bench_workloads.reproduce_order(sorted(targets), seed)]
    picked = bench_workloads.catalog_requests(workload, seed)
    return [(bench_workloads.request_id(r), r) for r in picked]


def member_record(entry: dict) -> dict:
    quantum = entry["quantum"]
    return {
        "n": entry["classical"]["n"],
        "k": entry["classical"]["k"],
        "gram": entry["gram_digest"],
        "classical_d": entry["classical"]["d"],
        "quantum": [quantum["n"], quantum["k"], quantum["d"], quantum["d_exact"]],
    }


def run_request(agq, workload: str, item) -> dict:
    """The output record of one request; agq's own ``time_s`` is never read."""
    if workload == "reproduce":
        row = agq.cli._run_repro_target(item)
        return {"status": row["status"], "got": row.get("got")}
    request = agq.constructions.ConstructionRequest(**item)
    start = perf_counter()
    try:
        chain = agq.constructions.construct_chain(request)
        entries = [agq.cli.catalog_entry(c, request, perf_counter() - start) for c in chain]
    except agq.errors.AgqError as exc:
        return {"verdict": f"REJECTED({type(exc).__name__})"}
    return {"verdict": "CERTIFIED", "members": [member_record(e) for e in entries]}


def chain_counts(record: dict) -> tuple[int, int]:
    """(certified chain members, members whose quantum d is exact)."""
    if "members" in record:
        members = record["members"]
        return len(members), sum(bool(m["quantum"][3]) for m in members)
    got = record.get("got") or ""
    if got.startswith("[["):
        return 1, int(">=" not in got)
    return 0, 0


class SpeedProbe:
    """Samples how fast the machine runs while a pass runs.

    Every PROBE_INTERVAL_S of wall time a SIGALRM handler times a fixed slice
    of interpreter and numpy work that does not touch agq.  The host the
    benchmark was written on (2-core Xeon VM) changed speed by up to a third
    within minutes, in CPU time as much as in wall time, so each request's
    time is scaled by the probes taken around it.  ``samples`` holds
    ``(perf_counter at start, seconds)`` pairs; ``spent`` is the time the probes
    themselves took, which the pass subtracts from its latencies.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.spent = 0.0
        self._a = np.arange(PROBE_ELEMS, dtype=np.int32)
        self._table = (self._a * 7) % PROBE_ELEMS
        self._previous = None

    def _sample(self, signum, frame):
        start = perf_counter()
        acc = 0
        for i in range(300):
            acc = (acc * 31 + i) % 1000003
        for _ in range(4):
            np.where(self._a == 5, self._a, self._table[(self._a + 3) % PROBE_ELEMS])
        elapsed = perf_counter() - start
        self.samples.append((start, elapsed))
        self.spent += elapsed

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(agq, workload: str, requests, tracer=None, probe=None) -> tuple[list[dict], float]:
    """Run the requests in order; latencies and wall time exclude probe time."""
    out = []
    probe_spent = (lambda: probe.spent) if probe is not None else (lambda: 0.0)
    spent_before = probe_spent()
    pass_start = perf_counter()
    for rid, item in requests:
        spent = probe_spent()
        start = perf_counter()
        try:
            if tracer is None:
                record = run_request(agq, workload, item)
            else:
                with tracer.request(rid):
                    record = run_request(agq, workload, item)
        except Exception as exc:  # a crash is a failed request, not a verdict
            record = {"error": f"{type(exc).__name__}: {exc}"}
        end = perf_counter()
        latency = end - start - (probe_spent() - spent)
        certified, exact = chain_counts(record)
        out.append({"id": rid, "latency_s": latency, "start": start, "end": end, "record": record,
                    "certified": certified, "exact": exact})
    return out, perf_counter() - pass_start - (probe_spent() - spent_before)


def one_pass(workload: str, seed: int, traced: bool, spawned_at: float) -> dict:
    agq = load_agq()
    requests = build_requests(agq, workload, seed)
    setup_s = time.monotonic() - spawned_at
    probe = None
    if traced:
        # traced passes are not probed, so layer self times hold agq work only
        tracer = bench_layers.Tracer()
        tracer.install()
        try:
            results, wall_s = run_pass(agq, workload, requests, tracer)
        finally:
            tracer.uninstall()
    else:
        with SpeedProbe() as probe:
            results, wall_s = run_pass(agq, workload, requests, probe=probe)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "probes": probe.samples if probe else None,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "requests": results,
        "layers": None,
    }
    if traced:
        result["layers"] = bench_layers.layer_metrics(tracer.self_times(), tracer.work, wall_s)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write_spans(SPANS_DIR / f"spans-{workload}.json")
    return result


def record_reference() -> dict:
    agq = load_agq()
    reference = {}
    for workload in bench_workloads.WORKLOADS:
        if workload == "reproduce":
            items = [(t["row"], t) for t in agq.cli._repro_targets()]
        else:
            items = [(bench_workloads.request_id(r), r) for r in bench_workloads.pool(workload)]
        results, _ = run_pass(agq, workload, items)
        reference[workload] = {r["id"]: r["record"] for r in results}
        print(f"{workload}: {len(results)} requests recorded", file=sys.stderr)
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        with open(REFERENCE, "w") as fh:
            json.dump(record_reference(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0
    if args.workload is None or args.spawned_at is None:
        parser.error("--workload and --spawned-at are required")
    print(json.dumps(one_pass(args.workload, args.seed, bool(args.trace), args.spawned_at)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
