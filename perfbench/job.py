"""One benchmark job: a fresh interpreter doing one workload once.

    python3 perfbench/job.py WORKLOAD SEED MODE [SPANS_PATH]

MODE is one of
  setup  import pcells and build the inputs, then stop;
  timed  do the job with no wrappers installed;
  spans  do the job with a span and call counts around each layer's
         public functions, and write the spans to SPANS_PATH;
  counts do the job with call counts only, plus counts of Laurent
         polynomial additions and multiplications.

The host's speed changes from second to second: the two cores are shared
with other machines' work, and a fixed piece of Python runs up to 1.7
times slower while they are busy.  So the job samples its own speed: a
fixed reference kernel runs every SAMPLE_INTERVAL_S seconds (from a timer
signal, between bytecodes of the job) and before and after each phase.
Each time is reported twice: as measured (``*_raw_s``) and rescaled to the
reference speed, ``raw * mean(REF_KERNEL_S / kernel time)`` after taking
out the kernel's own time.  The rescaled time is what the job would take
on the idle host; it is the one the benchmark reports.

The last line of standard output is one JSON object with the job's
measurements.  run.py starts the jobs and aggregates them.
"""

import signal
import time

clock = time.perf_counter

# Time of one kernel run on the idle host the baseline was recorded on.
REF_KERNEL_S = 2.0e-4
SAMPLE_INTERVAL_S = 0.05


def _kernel() -> None:
    d = {}
    for i in range(2000):
        k = i & 127
        d[k] = d.get(k, 0) + i


class SpeedSamples:
    """Kernel timings taken during the job, as (start, duration)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def probe(self, times: int = 3) -> None:
        for _ in range(times):
            start = clock()
            _kernel()
            self.samples.append((start, clock() - start))

    def _on_timer(self, signum, frame) -> None:
        self.probe(1)

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def speed(self, begin: float, end: float) -> float:
        """Mean speed relative to the reference over [begin, end], from the
        samples inside it and the probes that bracket it."""
        window = [d for t, d in self.samples
                  if begin - 0.01 <= t <= end + 0.01]
        return sum(REF_KERNEL_S / d for d in window) / len(window)

    def kernel_time(self, begin: float, end: float) -> float:
        return sum(d for t, d in self.samples if begin <= t <= end)

    def rescale(self, begin: float, end: float) -> tuple[float, float]:
        """(rescaled, raw) duration of [begin, end]."""
        raw = end - begin
        own = raw - self.kernel_time(begin, end)
        return own * self.speed(begin, end), raw


SPEED = SpeedSamples()
SPEED.probe()
_T0 = clock()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    import workloads  # imports pcells: part of the set-up time

    make_inputs, run = workloads.WORKLOADS[workload]
    inputs = make_inputs(seed)
    setup_end = clock()
    SPEED.probe()
    out = {"workload": workload, "seed": seed, "mode": mode}
    out["setup_s"], out["setup_raw_s"] = SPEED.rescale(_T0, setup_end)
    if mode != "setup":
        tracer = None
        if mode in ("spans", "counts"):
            import tracing

            tracer = tracing.Tracer(f"{workload}-{seed}-{mode}-{os.getpid()}",
                                    spans=mode == "spans")
            tracer.install(tracing.FUNCTIONS)
            if mode == "counts":
                tracer.install(tracing.ARITHMETIC)
        checks = workloads.Checks()
        SPEED.start_timer()
        start = clock()
        run(inputs, checks)
        end = clock()
        SPEED.stop_timer()
        SPEED.probe()
        out["wall_s"], out["wall_raw_s"] = SPEED.rescale(start, end)
        out["speed"] = SPEED.speed(start, end)
        out.update(attempted=checks.attempted, failed=checks.failed,
                   messages=checks.messages)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cpu = usage.ru_utime + usage.ru_stime
        out["cpu_raw_s"] = cpu
        out["cpu_s"] = ((cpu - SPEED.kernel_time(0.0, clock()))
                        * SPEED.speed(0.0, clock()))
        out["peak_rss_mb"] = usage.ru_maxrss / 1024  # KiB on Linux
        if tracer is not None:
            out["counts"] = tracer.exact_counts()
            out["measures"] = dict(tracer.measures)
            if mode == "spans":
                # span times are rescaled by the job's mean speed; they
                # include the kernel samples taken inside them
                out["span_metrics"] = tracing.span_metrics(
                    tracer.spans, out["wall_raw_s"],
                    scale=out["wall_s"] / out["wall_raw_s"])
                out["spans"] = len(tracer.spans)
                tracer.write_spans(argv[3])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
