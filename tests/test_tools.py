"""The command-line tools under tools/ stay runnable."""

import multiprocessing
import os

TOOLS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools")


def test_seeded_maps_runs_one_seed_in_a_child_process(monkeypatch):
    # seed 3 finishes in milliseconds; the child inherits sys.path, which
    # must reach the tool, planejac and tests/support.py
    monkeypatch.syspath_prepend(TOOLS)
    import seeded_maps
    line = seeded_maps.run_seed(multiprocessing.get_context("spawn"), 3)
    assert list(line) == ["seed", "seconds", "status", "defining", "curve", "deg_geo",
                          "degree_counts", "verdict_counts"]
    assert line["seed"] == 3 and line["status"] == "ok"
    assert line["seconds"] < seeded_maps.TIMEOUT_S
