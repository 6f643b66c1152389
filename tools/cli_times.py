"""Wall times of the CLI commands, one JSON line per command.

    python3 tools/cli_times.py [-n RUNS] [--map FILE] [--src DIR] [COMMAND ...]

Each command runs RUNS times (default 7) as a fresh
``python -m planejac.cli COMMAND FILE ARGS`` process, planejac imported from
DIR (default: the checkout's src), and "seconds" is the median wall time of
those runs, start-up included.  The commands are those of the Baseline CLI
table in ROADMAP.md on FILE (default maps/makar_limanov.json); naming some
(``check``, ``"verify dist -B 4"``) runs only those.  Pointing --src at the
src of another checkout times that one with the same harness.

Every line has "command", "map", "runs", "seconds" and "exit_codes", the
distinct exit codes of the runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 7
#: (command, arguments after the map file)
COMMANDS = (
    ("check", ()),
    ("exceptional", ()),
    ("fibers", ("-k", "3", "-B", "2")),
    ("verify", ("dist", "-B", "1")),
    ("verify", ("dhat", "-B", "2")),
    ("verify", ("bounds", "-B", "2")),
    ("verify", ("dist", "-B", "4")),
    ("invert", ("--translate", "1,1", "-N", "16")),
)


def time_command(command, rest, mapfile, runs, src):
    """The line of one command: the median of `runs` fresh processes."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    argv = [sys.executable, "-m", "planejac.cli", command, mapfile, *rest]
    seconds, codes = [], set()
    for _ in range(runs):
        t0 = time.perf_counter()
        codes.add(subprocess.run(argv, env=env, capture_output=True).returncode)
        seconds.append(time.perf_counter() - t0)
    return {"command": " ".join((command, *rest)), "map": os.path.basename(mapfile),
            "runs": runs, "seconds": round(statistics.median(seconds), 4),
            "exit_codes": sorted(codes)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("commands", nargs="*", metavar="COMMAND",
                    help="commands of the table to run, as printed (default: all)")
    ap.add_argument("-n", "--runs", type=int, default=RUNS)
    ap.add_argument("--map", default=os.path.join(ROOT, "maps", "makar_limanov.json"))
    ap.add_argument("--src", default=os.path.join(ROOT, "src"))
    args = ap.parse_args(argv)
    chosen = [(c, r) for c, r in COMMANDS
              if not args.commands or " ".join((c, *r)) in args.commands]
    unknown = set(args.commands) - {" ".join((c, *r)) for c, r in COMMANDS}
    if unknown or args.runs < 1:
        ap.error(f"no such command in the table: {sorted(unknown)}" if unknown
                 else "--runs must be at least 1")
    for command, rest in chosen:
        print(json.dumps(time_command(command, rest, args.map, args.runs, args.src)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
