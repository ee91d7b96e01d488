"""Benchmark of pcells: end-to-end metrics per workload, per-layer metrics
from a separate traced run.

    python3 perfbench/run.py --workload kl-cells --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every job is a fresh, single-threaded
interpreter (perfbench/job.py) that imports pcells from ``src/``, builds the
workload's inputs from the seed, does the workload once from cold caches
and checks its outputs.  Jobs run one after another: a closed loop of one
job, so nothing else of the benchmark competes for the two cores.

--trace 0  starts jobs until the next one would end after --seconds (at
           least MIN_JOBS), then adds set-up-only jobs until there are
           SETUP_SAMPLES set-up times, and reports the medians of the
           end-to-end metrics.
--trace 1  runs one job without wrappers, one job with spans, and two
           counting jobs, checks that every count repeats exactly, and
           reports the per-layer metrics.  Spans are written to
           .perfbench/spans-<workload>-seed<seed>.jsonl.

Times are rescaled to the host's reference speed, which each job samples
while it runs (see job.py); the times as measured are printed beside them
and kept in the records.  Metric names and units come from BENCHMARK.json.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics.  Each run's job records, seed and host facts go to
.perfbench/<workload>-seed<seed>-trace<0|1>.json.  No layer waits on I/O,
locks or other processes, so no wait metrics are defined.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
# The median of at least this many jobs, even when the host is slow.
MIN_JOBS = 2
# Set-up is about 0.1 s and noisy in relative terms, so each run takes the
# median of at least this many fresh interpreters.
SETUP_SAMPLES = 21
# A run must end within 180 s; jobs get what is left of this.
RUN_BUDGET_S = 170.0


class JobError(RuntimeError):
    """A job exited with an error or printed no result."""


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": cpu}


def spawn(workload: str, seed: int, mode: str, deadline: float,
          spans_path: Path | None = None) -> dict:
    """Run one job in a fresh interpreter and return its record."""
    cmd = [sys.executable, str(BENCH / "job.py"), workload, str(seed), mode]
    if spans_path is not None:
        cmd.append(str(spans_path))
    # fixed string hashing, so that set iteration order and hence every
    # count repeats from run to run
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as e:
        raise JobError(f"{workload} {mode} job ran past the run budget") from e
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobError(f"{workload} {mode} job failed "
                       f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    record = json.loads(lines[-1])
    record["elapsed_s"] = time.monotonic() - start
    return record


def timed_run(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    jobs = []
    while True:
        jobs.append(spawn(workload, seed, "timed", deadline))
        typical = statistics.median(j["elapsed_s"] for j in jobs)
        if (len(jobs) >= MIN_JOBS
                and time.monotonic() - start + typical > seconds):
            break
    setups = list(jobs)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", deadline))
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    metrics = {
        "setup_s": statistics.median(j["setup_s"] for j in setups),
        "wall_s": statistics.median(j["wall_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_s"] for j in jobs),
        "peak_rss_mb": statistics.median(j["peak_rss_mb"] for j in jobs),
    }
    raw = {
        "setup_s": statistics.median(j["setup_raw_s"] for j in setups),
        "wall_s": statistics.median(j["wall_raw_s"] for j in jobs),
        "cpu_s": statistics.median(j["cpu_raw_s"] for j in jobs),
    }
    messages = [m for j in jobs for m in j["messages"]]
    return metrics, attempted, failed, {"jobs": jobs, "raw": raw,
                                        "setup_jobs": setups[len(jobs):],
                                        "messages": messages}


def _count_mismatch(a: dict, b: dict) -> list[str]:
    return [f"{k}: {a.get(k)} != {b.get(k)}" for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k)]


def traced_run(workload: str, seed: int, deadline: float):
    import tracing

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    plain = spawn(workload, seed, "timed", deadline)
    traced = spawn(workload, seed, "spans", deadline, spans_path)
    counting = [spawn(workload, seed, "counts", deadline) for _ in range(2)]
    jobs = [plain, traced, *counting]
    attempted = sum(j["attempted"] for j in jobs)
    failed = sum(j["failed"] for j in jobs)
    messages = [m for j in jobs for m in j["messages"]]

    # every count must repeat exactly: the spans job against the first
    # counting job (without the ring-operation counts only the latter
    # take), and the two counting jobs against each other
    without_ring = {k: v for k, v in counting[0]["counts"].items()
                    if not k.startswith("calls.laurent.")}
    for a, b in ((traced["counts"], without_ring),
                 (counting[0]["counts"], counting[1]["counts"])):
        diff = _count_mismatch(a, b)
        attempted += 1
        if diff:
            failed += 1
            messages.append("counts differ between traced runs: "
                            + "; ".join(diff[:10]))

    metrics = dict(traced["span_metrics"])
    metrics.update(tracing.count_metrics(counting[0]["counts"]))
    for name in tracing.MEASURES:
        metrics[name] = traced["measures"].get(name, 0.0)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["trace.spans"] = traced["spans"]
    return metrics, attempted, failed, {"jobs": jobs, "messages": messages,
                                        "spans_path": str(spans_path)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pcells" / "__init__.py").is_file():
        print(f"error: no pcells sources under {ROOT / 'src'}; run from the "
              "root of a pcells checkout", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # the build: byte-compile once, so that no job pays for compilation
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(BENCH, quiet=1)

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if args.trace:
            metrics, attempted, failed, record = traced_run(
                args.workload, args.seed, deadline)
        else:
            metrics, attempted, failed, record = timed_run(
                args.workload, args.seed, args.seconds, deadline)
    except JobError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    if set(metrics) != {m["name"] for m in declared}:
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in declared})}",
              file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, host=host_facts(), metrics=metrics,
                  attempted=attempted, failed=failed)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{len(record['jobs'])} jobs")
    raw = record.get("raw", {})
    for m in declared:
        line = f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}"
        if m["name"] in raw:
            line += f" (as measured: {raw[m['name']]:.6g} {m['unit']})"
        print(line)
    print(f"  failed_share = {failed / attempted:.6g} "
          f"({failed} of {attempted} output checks)")
    for message in record["messages"]:
        print(f"  check failed: {message}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
