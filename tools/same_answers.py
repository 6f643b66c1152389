"""Compare the answers in two JSON-lines files of tools/seeded_maps.py or
tools/fiber_boxes.py, written by two checkouts.

    python3 tools/same_answers.py OLD.jsonl NEW.jsonl

The fields before "seconds" on a line name its case (the seed, or P, power,
k, m and B); the fields after it, "seconds" left out, are its answer.  A
line finished when its status is not "timeout".  Prints each case whose
answers differ while both sides finished, then each case that finished on
one side only, and a summary line.  Exits 1 when some answers differ, and 0
otherwise: a case that finished on one side only is listed, not failed.
"""

from __future__ import annotations

import json
import sys


def read_lines(path):
    """{case: answer} of a JSON-lines file, in file order."""
    out = {}
    with open(path) as f:
        for text in f:
            if not text.strip():
                continue
            line = json.loads(text)
            keys = list(line)
            cut = keys.index("seconds")
            case = json.dumps({w: line[w] for w in keys[:cut]})
            out[case] = {w: line[w] for w in keys[cut + 1:]}
    return out


def compare(old, new):
    """(both, differing, one_sided): the number of cases finished on both
    sides, those of them whose answers differ, and (case, old status, new
    status) for each case finished on one side only; a case missing on one
    side counts as not finished there."""
    both, differing, one_sided = 0, [], []
    for case in dict.fromkeys([*old, *new]):
        a, b = old.get(case), new.get(case)
        done_a = a is not None and a.get("status") != "timeout"
        done_b = b is not None and b.get("status") != "timeout"
        if done_a and done_b:
            both += 1
            if a != b:
                differing.append(case)
        elif done_a or done_b:
            one_sided.append((case, a and a.get("status"), b and b.get("status")))
    return both, differing, one_sided


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: same_answers.py OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    old, new = read_lines(argv[0]), read_lines(argv[1])
    both, differing, one_sided = compare(old, new)
    for case in differing:
        print(f"differs: {case}\n  old: {json.dumps(old[case])}\n  new: {json.dumps(new[case])}")
    for case, a, b in one_sided:
        print(f"finished on one side only: {case} (old: {a}, new: {b})")
    print(f"{both} cases finished on both sides, {len(differing)} differ, "
          f"{len(one_sided)} finished on one side only")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
