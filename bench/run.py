"""planejac benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload exact-pipeline --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; planejac is imported from ./src.
The run generates its map files from the seed, then runs the workload's job
list again and again, one job at a time, while whole passes fit in
--seconds (at least one pass).  Every job's answer is checked; a wrong or
failed job is counted, never dropped.

--trace 0 reports the end-to-end metrics, medians over the passes:
  setup_s        fresh process start until ready (imports, map generation,
                 first root solve), median of SETUP_PROBES child processes
  wall_s         time of the whole job list
  slowest_job_s  time of the longest job of a pass
  peak_rss_mb    peak resident memory of the run
All times are scaled to a reference host speed (see HostSpeed); the raw
ones are printed on stderr.

--trace 1 alternates untraced and traced passes of the same jobs and reports
the per-layer metrics of the traced passes, per pass, with the tracing
overhead, the root-kernel timings, error_rate and numeric_warnings.  Span
times are raw and include the host-speed samples taken while they ran
(about 1%).

Output (stdout): an "env" line, a "jobs" line (per job: runs, raw seconds,
failures and their reasons, numpy RuntimeWarnings, RootFindingErrors and
np.roots fallbacks) and, last, the result {"correct", "attempted",
"failed", "metrics"}.  A human-readable summary goes to stderr.  Exit code 0
when the run completed, also when an answer check failed (that shows as
"correct": false); 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# single-threaded BLAS/OpenMP; must be set before numpy is imported
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

from spans import Patcher, Tracer, layer_metrics  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_PROBES = 7
#: seeded per-degree root-kernel timing: (degree, solves)
KERNEL_SOLVES = ((4, 100), (16, 25), (40, 6))
#: calibration loops per host-speed sample between jobs
CALIBRATION_SAMPLES = 9
#: seconds between host-speed samples while a job runs
SAMPLE_INTERVAL_S = 0.1
#: time of one calibration loop on a 2-core Intel Xeon VM under Python 3.11
#: with the host quiet; timings are reported at this host speed
CALIBRATION_REF_S = 0.001


class HostSpeed:
    """Tracks how fast the host runs plain Python, to report times on a host
    of fixed speed.

    On a shared host the same job can take 40% longer from one minute, or one
    second, to the next.  A short pure-Python loop (integer arithmetic and
    dict stores, like the exact layers) is timed between jobs and, from a
    SIGALRM handler, every SAMPLE_INTERVAL_S while a job runs.  A job's time,
    less the time spent in the handler, is scaled by CALIBRATION_REF_S / (the
    median loop time around and during it).  Raw times are printed too."""

    def __init__(self):
        self.samples = []
        self.window = []
        self.paused = 0.0

    @staticmethod
    def _loop():
        s, d = 0, {}
        for i in range(7500):
            s += (i * 7919) % 104729
            d[i & 1023] = s
        return s

    def _time_loop(self):
        t0 = time.perf_counter()
        self._loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def sample(self):
        """CALIBRATION_SAMPLES loop times, taken now."""
        return [self._time_loop() for _ in range(CALIBRATION_SAMPLES)]

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.window.append(self._time_loop())
        self.paused += time.perf_counter() - t0

    @contextlib.contextmanager
    def during(self):
        """Sample while the block runs; afterwards ``window`` holds the loop
        times and ``paused`` the seconds the samples took."""
        self.window, self.paused = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def scale(loop_times):
        return CALIBRATION_REF_S / statistics.median(loop_times)


def import_program():
    """Import planejac from the checkout's src, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "planejac", "__init__.py")):
        print(f"error: no planejac sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import planejac
    if os.path.dirname(os.path.dirname(os.path.abspath(planejac.__file__))) != SRC:
        print(f"error: planejac imported from {planejac.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def setup(workload, seed, workdir):
    """Everything before the first job: imports, map generation and the
    first root solve.  Returns the job list."""
    import workloads
    from planejac.roots import find_roots
    jobs = workloads.build(workload, seed, ROOT, workdir)
    find_roots([1.0, 0.0, -1.0])
    return jobs


def environment():
    import numpy as np
    from planejac import _kernels
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": _kernels.BACKEND,
        "commit": commit,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


# ------------------------------------------------------------------ jobs

class FailureCounter:
    """Counts RootFindingErrors raised by find_roots, wherever it is bound.
    Installed for the whole run; it adds one Python call per solve."""

    def __init__(self, patcher):
        from planejac import roots
        self.errors = 0

        def make(fn):
            def counted(*args, **kw):
                try:
                    return fn(*args, **kw)
                except roots.RootFindingError:
                    self.errors += 1
                    raise
            return counted
        patcher.patch_function(roots, "find_roots", make)


def run_job(job, failures, speed, tracer=None):
    """Run one job and check its answer; the check is not timed.  Garbage of
    earlier jobs is collected first, as a fresh CLI process would not have
    it."""
    gc.collect()
    errors_before = failures.errors
    span = tracer.open(f"job:{job.name}") if tracer else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        t0 = time.perf_counter()
        with speed.during():
            try:
                out, error = job.run(), None
            except Exception as e:  # a job that raises is a failed job, not a crash
                out, error = None, f"raised {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0 - speed.paused
    if tracer:
        tracer.close(span)
    reason = error
    if reason is None:
        try:
            reason = job.check(out)
        except Exception as e:  # a report the check cannot read is a wrong answer
            reason = f"answer check raised {type(e).__name__}: {e}"
    return {
        "job": job.name,
        "seconds": dt,
        "loop_times": speed.window,
        "ok": reason is None,
        "reason": reason,
        "runtime_warnings": sum(1 for w in caught if issubclass(w.category, RuntimeWarning)),
        # enumerate_fiber_points answers every RootFindingError with np.roots
        ("np_roots_fallbacks" if job.kind == "fibers" else "root_errors"):
            failures.errors - errors_before,
    }


def run_pass(jobs, failures, speed, tracer=None):
    """One pass over the job list, each job between two host-speed samples."""
    t0 = time.perf_counter()
    records = []
    before = speed.sample()
    for job in jobs:
        rec = run_job(job, failures, speed, tracer)
        after = speed.sample()
        rec["scaled_seconds"] = rec["seconds"] * speed.scale(
            before + rec.pop("loop_times") + after)
        records.append(rec)
        before = after
    return {"wall": sum(r["seconds"] for r in records),
            "scaled_wall": sum(r["scaled_seconds"] for r in records),
            "scaled_slowest": max(r["scaled_seconds"] for r in records),
            "elapsed": time.perf_counter() - t0, "records": records}


def job_summary(passes):
    out = {}
    for p in passes:
        for r in p["records"]:
            s = out.setdefault(r["job"], {"runs": 0, "failed": 0, "seconds": [],
                                          "runtime_warnings": 0, "root_errors": 0,
                                          "np_roots_fallbacks": 0, "reasons": []})
            s["runs"] += 1
            s["seconds"].append(round(r["seconds"], 6))
            s["runtime_warnings"] += r["runtime_warnings"]
            s["root_errors"] += r.get("root_errors", 0)
            s["np_roots_fallbacks"] += r.get("np_roots_fallbacks", 0)
            if not r["ok"]:
                s["failed"] += 1
                if r["reason"] not in s["reasons"]:
                    s["reasons"].append(r["reason"])
    return out


def kernel_timings(seed):
    """Mean microseconds per find_roots solve at fixed degrees, on seeded
    random complex coefficients."""
    import random
    from planejac.roots import find_roots
    rng = random.Random(f"kernels-{seed}")
    out = {}
    for degree, n in KERNEL_SOLVES:
        polys = []
        for _ in range(n):
            c = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(degree + 1)]
            if abs(c[0]) <= 0.5:
                c[0] = 1.0 + 0j
            polys.append(c)
        find_roots(polys[0])
        t0 = time.perf_counter()
        for c in polys:
            find_roots(c)
        out[f"roots.kernel_us.deg{degree}"] = (1e6 * (time.perf_counter() - t0) / n, "us")
    return out


# ------------------------------------------------------------------ runs

def measure_setup(workload, seed, speed):
    """Median seconds from starting a fresh process until it is ready, raw
    and scaled to the reference host speed."""
    raw, scaled = [], []
    before = speed.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                              "--workload", workload, "--seed", str(seed)],
                             capture_output=True, text=True, timeout=120, check=True)
        raw.append(float(out.stdout.strip().splitlines()[-1]) - t0)
        after = speed.sample()
        scaled.append(raw[-1] * speed.scale(before + after))
        before = after
    return statistics.median(raw), statistics.median(scaled)


def untraced_run(jobs, seconds, failures, speed):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(jobs, failures, speed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["elapsed"] for p in passes) > seconds:
            return passes


def traced_run(jobs, seconds, failures, speed, tracer):
    """Alternating untraced and traced passes; returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(run_pass(jobs, failures, speed))
        patcher = Patcher()
        tracer.install(patcher)
        try:
            traced.append(run_pass(jobs, failures, speed, tracer))
        finally:
            patcher.restore()
        elapsed = time.perf_counter() - start
        pair = (statistics.median(p["elapsed"] for p in plain)
                + statistics.median(p["elapsed"] for p in traced))
        if elapsed + pair > seconds:
            return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    import_program()
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.setup_probe:
            setup(args.workload, args.seed, workdir)
            print(repr(time.time()))
            return 0
        return measured_run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass


def measured_run(args, workdir):
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    speed = HostSpeed()
    setup_times = measure_setup(args.workload, args.seed, speed) if not args.trace else None
    jobs = setup(args.workload, args.seed, workdir)
    env = environment()
    print(json.dumps({"env": env}, sort_keys=True))

    base = Patcher()
    failures = FailureCounter(base)
    try:
        if args.trace:
            tracer = Tracer()
            plain, traced = traced_run(jobs, args.seconds, failures, speed, tracer)
            passes = plain + traced
        else:
            passes = untraced_run(jobs, args.seconds, failures, speed)
    finally:
        base.restore()
    speed.sample()

    summary = job_summary(passes)
    print(json.dumps({"jobs": summary, "calibration_median_s": statistics.median(speed.samples)},
                     sort_keys=True))
    attempted = sum(s["runs"] for s in summary.values())
    failed = sum(s["failed"] for s in summary.values())
    warns = sum(s["runtime_warnings"] for s in summary.values())

    if args.trace:
        metrics = layer_metrics(tracer, len(traced))
        metrics.update(kernel_timings(args.seed))
        metrics["trace.overhead_frac"] = (
            statistics.median(p["scaled_wall"] for p in traced)
            / statistics.median(p["scaled_wall"] for p in plain) - 1, "ratio")
        metrics["error_rate"] = (failed / attempted, "ratio")
        metrics["numeric_warnings"] = (warns / len(passes), "count/pass")
    else:
        raw = {"setup_s": setup_times[0], "wall_s": statistics.median(p["wall"] for p in passes)}
        metrics = {
            "setup_s": (setup_times[1], "s"),
            "wall_s": (statistics.median(p["scaled_wall"] for p in passes), "s"),
            "slowest_job_s": (statistics.median(p["scaled_slowest"] for p in passes), "s"),
        }
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {len(passes)} passes, "
          f"{attempted} jobs, {failed} failed, {warns} numpy RuntimeWarnings, "
          f"backend {env['backend']}", file=sys.stderr)
    print(f"  host calibration loop: median {1e3 * statistics.median(speed.samples):.3f} ms "
          f"over {len(speed.samples)} samples, reference {1e3 * CALIBRATION_REF_S:.3f} ms",
          file=sys.stderr)
    if not args.trace:
        for name, value in raw.items():
            print(f"  {name + ' (raw)':44s} {value:14.6g} s", file=sys.stderr)
        print(f"  {'error_rate':44s} {failed / attempted:14.6g} ratio", file=sys.stderr)
        print(f"  {'numeric_warnings':44s} {warns / len(passes):14.6g} count/pass",
              file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}", file=sys.stderr)
    for name, s in summary.items():
        for reason in s["reasons"]:
            print(f"  FAILED {name}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
