"""Compare two golden CLI files (tests/data/cli_golden.json) case by case.

    python3 tools/golden_diff.py OLD NEW [--allow PATH ...]

Prints, under the name of each case where the two differ, every path at
which they do, with the old and the new value.  A report on stdout is
parsed as JSON, so its paths run into it (stdout.config.seed,
stdout.result.components[0].slice); stderr, the exit code and a stdout that
holds no report are compared as they are.  A case in one file only differs
at its own path.  A difference at PATH or below it is allowed; the tool
exits 1 when some difference is not, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

ABSENT = object()


def _show(x):
    return "(absent)" if x is ABSENT else json.dumps(x)


def _parsed(text):
    try:
        return json.loads(text)
    except ValueError:
        return text


def differences(a, b, path):
    """(path, a, b) of every place where the JSON values a and b differ:
    objects and equally long arrays are compared entry by entry, and 1,
    1.0 and true are three different values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in dict.fromkeys([*a, *b]):
            yield from differences(a.get(k, ABSENT), b.get(k, ABSENT), f"{path}.{k}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differences(x, y, f"{path}[{i}]")
    elif type(a) is not type(b) or a != b:
        yield path, a, b


def _case(entry):
    if entry is ABSENT:
        return ABSENT
    return {**entry, "stdout": _parsed(entry["stdout"])}


def allowed(path, prefixes):
    return any(path == p or path.startswith((p + ".", p + "[")) for p in prefixes)


def compare(old, new, prefixes=()):
    """{case: [(path, old value, new value, allowed)]} of the cases of two
    golden files that differ, in the order of the cases."""
    out = {}
    for case in dict.fromkeys([*old, *new]):
        a, b = (_case(g.get(case, ABSENT)) for g in (old, new))
        if a is ABSENT or b is ABSENT:
            found = [("", a, b)]
        else:
            found = [(p.lstrip("."), x, y) for p, x, y in differences(a, b, "")]
        if found:
            out[case] = [(p, x, y, allowed(p, prefixes)) for p, x, y in found]
    return out


def _read(path):
    with open(path) as f:
        return json.load(f)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--allow", action="append", default=[], metavar="PATH",
                        help="a path under which differences are allowed (repeatable)")
    args = parser.parse_args(argv)
    old, new = map(_read, (args.old, args.new))
    found = compare(old, new, args.allow)
    bad = 0
    for case, diffs in found.items():
        print(case)
        for path, a, b, ok in diffs:
            bad += not ok
            print(f"  {path or '(case)'}: {_show(a)} -> {_show(b)}" + (" (allowed)" if ok else ""))
    print(f"{len({*old, *new})} cases, {len(found)} differ; "
          f"{sum(map(len, found.values()))} differences, {bad} not allowed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
