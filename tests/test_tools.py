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


def test_fiber_boxes_runs_one_case_in_a_child_process(monkeypatch):
    # makar_limanov's P = 1 on the B = 6 box: the two points (+-i, -1)
    monkeypatch.syspath_prepend(TOOLS)
    import fiber_boxes
    case = (fiber_boxes.MAKAR_LIMANOV_P, 1, 1, 1, 6)
    line = fiber_boxes.run_case(multiprocessing.get_context("spawn"), case)
    assert list(line) == ["P", "power", "k", "m", "B", "seconds", "status", "count", "digest"]
    assert line["status"] == "ok" and line["count"] == 2
    assert line["seconds"] < fiber_boxes.TIMEOUT_S
