"""Benchmark for twistdet: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload series-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source tree; the program is imported from ./src.
With --trace 0 the last line holds the end-to-end metrics of an untraced
run. With --trace 1 it holds the per-layer metrics of a traced pass over
the start of the same job list, and the tracing overhead against an
untraced pass over the same jobs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("cli-jobs", "series-dense", "invariants-mixed")
SETUP_PROBES = 2       # extra set-ups in fresh processes; setup_s is the median
PROBE_REF_S = 0.0004   # the host-speed probe's time at the reference speed
# A timed run makes PASSES passes over one job list of ROUNDS_PER_S * --seconds
# rounds, so that it takes about --seconds on the reference machine and
# attempts the same operations whatever the program's speed. The cli-jobs list
# is fixed at 116 jobs, so that more than ten lie beyond the 90th percentile.
PASSES = {"cli-jobs": 1, "series-dense": 2, "invariants-mixed": 3}
ROUNDS_PER_S = {"series-dense": 0.45, "invariants-mixed": 2.0}
TRACE_ROUNDS = {"series-dense": 2, "invariants-mixed": 3}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "twistdet", "__init__.py")):
        fail(f"no twistdet sources under {src}")
    sys.path.insert(0, src)
    import twistdet
    if not os.path.abspath(twistdet.__file__).startswith(src + os.sep):
        fail(f"twistdet was imported from {twistdet.__file__}, not from {src}")


class Workload:
    """Set-up, the timed job list and how to run and judge one job."""

    def __init__(self, name, root, seed):
        self.name, self.root, self.seed = name, root, seed
        self.workdir = os.path.join(HERE, f".work-{os.getpid()}")
        self.cli = None

    def setup(self, seconds, trace=False):
        import_program(self.root)
        if self.name == "cli-jobs":
            from cli_jobs import CliWorkload
            self.cli = CliWorkload(self.root, self.seed, self.workdir)
            jobs = self.cli.build()
            if trace:
                import twistdet.cli  # noqa: F401  (the traced pass calls main in-process)
            self.rounds = [jobs]
            self.trace_rounds = [jobs]
        else:
            import library
            build = library.dense_rounds if self.name == "series-dense" else library.mixed_rounds
            # at least three rounds, so that even a short run holds over 110 operations
            nrounds = max(3, round(ROUNDS_PER_S[self.name] * seconds))
            self.rounds = build(library.program(), self.seed, nrounds)
            self.trace_rounds = self.rounds[:TRACE_ROUNDS[self.name]]
        self.warm_up()

    def warm_up(self):
        """One job of each kind, untimed: fills __pycache__ and lazy state."""
        seen = set()
        for job in self.rounds[0]:
            if job.kind not in seen:
                seen.add(job.kind)
                self.execute(job, in_process=False)
                if self.cli:
                    break  # one child process is enough to fill __pycache__

    def execute(self, job, in_process):
        """Run one job and return its output."""
        if self.cli:
            return (self.cli.call if in_process else self.cli.spawn)(job)
        return job.run()

    def judge(self, job, out):
        """(passed, allowed to fail); an exception while checking is a wrong result."""
        if self.cli:
            return self.cli.judge(job, out), False
        return bool(job.check(out)), job.fault

    def peak_rss_mb(self):
        if self.cli:
            return self.cli.peak_rss_kb / 1024
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class HostClock:
    """A wall-clock timer that also gives each interval at a fixed host speed.

    The machine is shared: its speed for pure-Python work swings by up to
    1.7x within seconds, and its mean over 30 s windows varies by about 15%
    (interquartile range over median, measured with a fixed loop). After each
    timed interval a short fixed probe runs; the interval's wall time divided
    by the mean of the probe times just before and after it, times
    PROBE_REF_S, is its time at the reference speed, the speed at which the
    probe takes PROBE_REF_S.
    """

    def __init__(self):
        self.last = self._probe()

    @staticmethod
    def _probe():
        t0 = perf_counter()
        s, seen = Fraction(0), {}
        for i in range(1, 120):
            s += Fraction(i % 5 + 1, i % 7 + 1)
            seen[(i, i % 3)] = s
        return perf_counter() - t0

    def time(self, fn, *args):
        """(wall seconds, seconds at the reference speed, fn's result)."""
        before = self.last
        t0 = perf_counter()
        out = fn(*args)
        wall = perf_counter() - t0
        self.last = self._probe()
        return wall, wall * PROBE_REF_S / ((before + self.last) / 2), out


class Tally:
    def __init__(self):
        self.attempted, self.failed, self.correct = 0, 0, True
        self.errors = []
        self.wall, self.adjusted = [], []

    def add(self, clock, workload, job, in_process):
        """Run, time and judge one job."""
        self.attempted += 1
        try:
            wall, adjusted, out = clock.time(workload.execute, job, in_process)
        except Exception as exc:  # a raising job is a failed operation
            # a known-faulty job may also fail by refusing its input
            self._failed(job, getattr(job, "fault", False),
                         f"{job.kind}: {type(exc).__name__}: {exc}")
            return
        self.wall.append(wall)
        self.adjusted.append(adjusted)
        try:
            ok, may_fail = workload.judge(job, out)
        except Exception as exc:  # a check that cannot even read the output
            self._failed(job, False, f"{job.kind}: check raised {type(exc).__name__}: {exc}")
            return
        if not ok:
            self._failed(job, may_fail, f"{job.kind}: output failed its check")

    def _failed(self, job, allowed, message):
        self.failed += 1
        if not allowed:
            self.correct = False
            if len(self.errors) < 5:
                self.errors.append(message)


def timed_run(w, clock):
    """PASSES[w] passes over the job list."""
    tally = Tally()
    for _ in range(PASSES[w.name]):
        for job in (j for rnd in w.rounds for j in rnd):
            tally.add(clock, w, job, in_process=False)
    return tally


def end_to_end(w, times, setups):
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_p50_ms": (1000 * statistics.median(times), "ms"),
        "op_p90_ms": (1000 * deciles[8], "ms"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB"),
    }


def traced_run(w, clock, seconds):
    """Alternate untraced and traced passes over the trace job list."""
    from spans import Tracer
    tracer = Tracer()
    tally = Tally()
    sums = {False: 0.0, True: 0.0}
    passes = 0
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        for traced in (False, True):
            before = sum(tally.adjusted)
            if traced:
                tracer.install()
            try:
                for job in (j for rnd in w.trace_rounds for j in rnd):
                    tally.add(clock, w, job, in_process=True)
            finally:
                tracer.uninstall()
            sums[traced] += sum(tally.adjusted) - before
        passes += 1
    metrics = tracer.metrics(passes)
    metrics["cli.import_ms"] = (import_ms(w) if w.cli else 0.0, "ms")
    metrics["trace.overhead_pct"] = (100 * (sums[True] / sums[False] - 1), "%")
    return tally, metrics


def import_ms(w, repeats=5):
    """Median time a fresh interpreter spends in `import twistdet.cli`."""
    code = ("import time; t = time.perf_counter(); import twistdet.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], env=w.cli.env, cwd=w.root,
                             capture_output=True, text=True, check=True)
        times.append(1000 * float(out.stdout))
    return statistics.median(times)


def setup_probe(args):
    """Time one set-up in a fresh interpreter (used for the setup_s median)."""
    clock = HostClock()
    w = Workload(args.workload, os.getcwd(), args.seed)
    try:
        wall, adjusted, _ = clock.time(w.setup, args.seconds)
    finally:
        w.close()
    print(wall, adjusted)


def probe_setups(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    wall, adjusted = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        w, a = map(float, done.stdout.split()[-2:])
        wall.append(w)
        adjusted.append(a)
    return wall, adjusted


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        return setup_probe(args)

    clock = HostClock()
    w = Workload(args.workload, os.getcwd(), args.seed)
    wall = None
    try:
        setup_wall, setup_adjusted, _ = clock.time(w.setup, args.seconds, bool(args.trace))
        if args.trace:
            tally, metrics = traced_run(w, clock, args.seconds)
        else:
            probe_wall, probe_adjusted = probe_setups(args)
            tally = timed_run(w, clock)
            metrics = end_to_end(w, tally.adjusted, [setup_adjusted] + probe_adjusted)
            wall = end_to_end(w, tally.wall, [setup_wall] + probe_wall)
    finally:
        w.close()
    for message in tally.errors:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": as_json(metrics)}
    write_result(args, result, wall)
    print(json.dumps(result))


def as_json(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def write_result(args, result, wall):
    """Keep a copy of each result, with the unadjusted wall-clock metrics, under results/."""
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = os.path.join(out_dir, f"{kind}-{args.workload}-{args.seed}.json")
    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "time": time.strftime("%Y-%m-%dT%H:%M:%S"), **result}
    if wall is not None:
        doc["wall_clock_metrics"] = as_json(wall)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


if __name__ == "__main__":
    main()
