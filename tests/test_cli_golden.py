"""Golden CLI bytes: the stdout, stderr and exit code of 50 in-process
invocations, the five shipped maps under ten commands, pinned in
tests/data/cli_golden.json.  A change that claims the same outputs keeps
every one of them byte for byte.

To regenerate the file by hand, check out the commit whose outputs it should
hold and run, from the root of the repository,

    PYTHONPATH=src python tests/test_cli_golden.py

then review the diff of tests/data/cli_golden.json before committing it.
"""

import json
import os

import pytest
from click.testing import CliRunner

from planejac.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
MAPS = os.path.join(HERE, "..", "maps")
GOLDEN = os.path.join(HERE, "data", "cli_golden.json")

MAP_FILES = ("elementary.json", "identity.json", "makar_limanov.json",
             "makar_limanov_printed.json", "shear_composition.json")
# (command, arguments after the map file)
COMMANDS = (
    ("exceptional", ()),
    ("exceptional", ("--seed", "3", "-S", "3")),
    ("fibers", ("-k", "3", "-B", "2")),
    ("verify", ("dist", "-B", "1")),
    ("verify", ("dhat", "-B", "2")),
    ("verify", ("bounds", "-B", "2")),
    ("fibers", ("-k", "0", "-B", "3", "--ring-m", "2")),
    ("verify", ("bounds", "-B", "3", "--ring-m", "2")),
    ("check", ()),
    ("invert", ("-N", "8")),
)
CASES = [(cmd, name, rest) for name in MAP_FILES for cmd, rest in COMMANDS]


def _key(cmd, name, rest):
    return " ".join((cmd, name) + rest)


def _run(cmd, name, rest):
    runner = CliRunner(mix_stderr=False) if "mix_stderr" in \
        CliRunner.__init__.__code__.co_varnames else CliRunner()
    r = runner.invoke(main, [cmd, os.path.join(MAPS, name), *rest])
    return {"exit_code": r.exit_code, "stdout": r.stdout, "stderr": r.stderr}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(*case) for case in CASES)


@pytest.mark.parametrize("cmd,name,rest", CASES, ids=[_key(*case) for case in CASES])
def test_cli_bytes_match_golden(golden, cmd, name, rest):
    assert _run(cmd, name, rest) == golden[_key(cmd, name, rest)]


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump({_key(*case): _run(*case) for case in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
