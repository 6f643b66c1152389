"""Run the benchmark over several seeds, or summarize runs already made.

    python3 bench/spread.py run OUT --workloads lattice-sweep --seeds 1-10 --seconds 35
    python3 bench/spread.py report OUT [OTHER]

`run` saves each run's stdout as OUT/<workload>-s<seed>-t<trace>.out.
`report` prints, per workload and metric, the median, the quartiles and the
quartile spread (q3 - q1) / median; given OTHER, also the change of each
median from OUT to OTHER.  Runs whose environment records name different
root-finding backends are flagged: their timings are not comparable.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args):
    os.makedirs(args.out, exist_ok=True)
    for workload in args.workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            path = os.path.join(args.out, f"{workload}-s{seed}-t{args.trace}.out")
            with open(path, "w") as fh:
                fh.write(res.stdout)
            last = res.stdout.strip().splitlines()[-1] if res.stdout.strip() else ""
            print(f"{workload} seed {seed}: exit {res.returncode} {last[:160]}", flush=True)


def load(directory):
    """{workload: [(env, result)]} from the saved outputs."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        m = re.match(r"(.+)-s(\d+)-t(\d)\.out$", os.path.basename(path))
        lines = open(path).read().strip().splitlines()
        if not m or not lines:
            continue
        env = next((json.loads(ln)["env"] for ln in lines if ln.startswith('{"env"')), {})
        runs.setdefault(f"{m.group(1)} trace {m.group(3)}", []).append(
            (env, json.loads(lines[-1])))
    return runs


def summary(results):
    values = {}
    for _, res in results:
        for name, v in res["metrics"].items():
            values.setdefault(name, ([], v["unit"]))[0].append(v["value"])
    out = {}
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else float("nan"), unit, len(vals))
    return out


def report(args):
    first = load(args.out)
    second = load(args.other) if args.other else {}
    backends = {env.get("backend") for runs in (*first.values(), *second.values())
                for env, _ in runs}
    if len(backends) > 1:
        print(f"WARNING: runs used different root backends {sorted(map(str, backends))}; "
              "their timings are not comparable")
    for workload, results in first.items():
        bad = sum(1 for _, r in results if not r["correct"])
        print(f"{workload}: {len(results)} runs, {bad} with failed checks")
        s1 = summary(results)
        s2 = summary(second[workload]) if workload in second else {}
        for name, (med, q1, q3, spread, unit, n) in s1.items():
            line = (f"  {name:44s} median {med:12.6g} {unit:12s} q1 {q1:10.6g} "
                    f"q3 {q3:10.6g} spread {spread:6.3f}")
            if name in s2:
                line += f"  other median {s2[name][0]:10.6g} ({s2[name][0] / med - 1:+.3f})"
            print(line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    r = sub.add_parser("run")
    r.add_argument("out")
    r.add_argument("--workloads", nargs="+", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=float, default=35)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p = sub.add_parser("report")
    p.add_argument("out")
    p.add_argument("other", nargs="?")
    args = ap.parse_args(argv)
    if args.mode == "run":
        run(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
