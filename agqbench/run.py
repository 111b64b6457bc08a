"""agq benchmark: certification time on three workloads.

    python3 agqbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``bench_workloads.py``):

* ``reproduce`` -- the 33 pinned rows of ``agq reproduce mds1|mixed``; the
  dual-distance column scan, including one row that spends the whole
  default budget.
* ``catalog-curves`` -- curve-family requests through ``construct_chain`` and
  ``catalog_entry``; exhaustive primal-distance enumeration.
* ``construct-large`` -- c1 codes of length up to 1024 in fields up to 2^16;
  twist vectors and tower tables, no distance search.

Each pass runs in a fresh interpreter (``bench_pass.py``), one after the
other, so tower tables are rebuilt as in one ``agq`` invocation.  The pass
count is fixed by ``--seconds`` and a nominal pass time, so the
latency sample count is the same on every commit.  Every output is checked
against ``reference.json``; a disagreement or a crash counts as failed and
the command exits 1 after printing its result.

The host this was written on changes speed by up to a third within
minutes, so each plain pass samples its own speed (``bench_pass.SpeedProbe``)
and every request's time is scaled to ``PROBE_REFERENCE_S`` by the probes
taken around it; set-up time is scaled by its pass's median probe.  The
unscaled medians and the median speed factor are in ``meta``.  The probe does not touch agq,
so a change to agq moves the scaled times exactly as much as the raw ones.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` plain and traced passes alternate and the result carries the
per-layer metrics of the traced passes plus the tracing overhead.  The last
line of stdout is the result JSON; the line before it (``meta``) records the
machine, versions, seed, tail percentile and ``src/agq`` line count.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_SCRIPT = HERE / "bench_pass.py"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))

import bench_workloads  # noqa: E402

# seconds one pass of any workload takes at the reference commit (2-core Xeon VM, numpy 2.4)
NOMINAL_PASS_S = 7.5
MIN_PASSES = 3
# median bench_pass.SpeedProbe sample on the reference host (2-core Xeon VM) in a
# quiet period; end-to-end times are reported as if every pass ran at that speed
PROBE_REFERENCE_S = 3.0e-4
# a request is scaled by the median probe within this many seconds of it, or by
# the nearest probes when fewer than PROBE_MIN_SAMPLES fall there
PROBE_WINDOW_S = 0.3
PROBE_MIN_SAMPLES = 3
PASS_TIMEOUT_S = 120
TAIL_BEYOND = 10

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def plan_passes(seconds: float, trace: bool) -> list[bool]:
    """Which passes are traced; plain and traced alternate when tracing."""
    if trace:
        pairs = max(1, round(seconds / (2 * NOMINAL_PASS_S)))
        return [False, True] * pairs
    return [False] * max(MIN_PASSES, round(seconds / NOMINAL_PASS_S))


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    return env


def spawn_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(PASS_SCRIPT), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced))]
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_records(passes: list[dict], reference: dict) -> list[str]:
    """Ids of requests whose record is missing from or differs from the reference."""
    bad = []
    for p in passes:
        for r in p["requests"]:
            if "error" in r["record"] or reference.get(r["id"]) != r["record"]:
                bad.append(r["id"])
    return bad


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest rank with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def speed_around(probes: list, start: float, end: float) -> float:
    """Machine slowness around [start, end] relative to PROBE_REFERENCE_S."""
    times = [t for t, _ in probes]
    lo = bisect.bisect_left(times, start - PROBE_WINDOW_S)
    hi = bisect.bisect_right(times, end + PROBE_WINDOW_S)
    if hi - lo < PROBE_MIN_SAMPLES:
        mid = bisect.bisect_left(times, start)
        lo, hi = max(0, mid - PROBE_MIN_SAMPLES), mid + PROBE_MIN_SAMPLES
    return statistics.median(e for _, e in probes[lo:hi]) / PROBE_REFERENCE_S


def end_to_end(passes: list[dict]) -> tuple[dict, dict]:
    """Each request's time is scaled to the reference speed by the probes around it."""
    scaled = [[r["latency_s"] / speed_around(p["probes"], r["start"], r["end"]) for r in p["requests"]]
              for p in passes]
    speed = [statistics.median(e for _, e in p["probes"]) / PROBE_REFERENCE_S for p in passes]
    latencies = [x for pass_latencies in scaled for x in pass_latencies]
    tail_s, tail_pct = tail(latencies)
    certified = sum(r["certified"] for p in passes for r in p["requests"])
    exact = sum(r["exact"] for p in passes for r in p["requests"])
    metrics = {
        "wall_s": (statistics.median(sum(s) for s in scaled), "s"),
        "req_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "req_tail_ms": (1e3 * tail_s, "ms"),
        "exact_d_frac": (exact / certified if certified else 1.0, "ratio"),
        "setup_s": (statistics.median(p["setup_s"] / f for p, f in zip(passes, speed)), "s"),
        "peak_rss_mb": (statistics.median(p["maxrss_mb"] for p in passes), "MB"),
    }
    raw_latencies = [r["latency_s"] for p in passes for r in p["requests"]]
    extra = {
        "tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "passes": len(passes),
        "speed_factor": statistics.median(speed),
        "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        "raw_req_p50_ms": 1e3 * statistics.median(raw_latencies),
        "raw_req_tail_ms": 1e3 * tail(raw_latencies)[0],
        "raw_setup_s": statistics.median(p["setup_s"] for p in passes),
    }
    return metrics, extra


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    traced = [p for p in passes if p["layers"] is not None]
    plain = [p for p in passes if p["layers"] is None]
    names = traced[0]["layers"].keys()
    metrics = {}
    for name in names:
        unit = layer_unit(name)
        metrics[name] = (statistics.median(p["layers"][name] for p in traced), unit)
    plain_wall = statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_frac"] = (metrics["trace.wall_s"][0] / plain_wall - 1.0, "ratio")
    return metrics, {"plain_wall_s": plain_wall, "traced_passes": len(traced)}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "1/s" if name.endswith("_per_s") else "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((ROOT / "src" / "agq").rglob("*.py")))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="agq certification benchmark")
    parser.add_argument("--workload", required=True, choices=bench_workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("AGQ_CAP_OPS"):
        print("refusing to run: AGQ_CAP_OPS is set; the benchmark measures the default budgets",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "agq" / "__init__.py").is_file():
        print(f"no agq sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    with open(REFERENCE) as fh:
        reference = json.load(fh)[args.workload]

    try:
        passes = [spawn_pass(args.workload, args.seed, traced)
                  for traced in plan_passes(args.seconds, bool(args.trace))]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    bad = check_records(passes, reference)
    attempted = sum(len(p["requests"]) for p in passes)
    verdicts = Counter(r["record"].get("status") or r["record"].get("verdict") or "ERROR"
                       for r in passes[0]["requests"])
    metrics, extra = per_layer(passes) if args.trace else end_to_end(passes)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "src_agq_lines": src_lines(),
        "failed_frac": len(bad) / attempted,
        "failed_ids": sorted(set(bad)),
        "verdicts_per_pass": dict(sorted(verdicts.items())),
        **extra,
    }
    for name, (value, unit) in [*metrics.items(), ("failed_frac", (meta["failed_frac"], "ratio"))]:
        print(f"{args.workload:16s} {name:44s} {value:14.6g} {unit}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bad else 1


if __name__ == "__main__":
    sys.exit(main())
