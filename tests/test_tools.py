"""The command-line tools under tools/ stay runnable."""

import json
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


def test_same_answers_reports_differing_and_one_sided_lines(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(TOOLS)
    import same_answers
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    old.write_text("\n".join(json.dumps(line) for line in (
        {"seed": 0, "seconds": 1.0, "status": "ok", "curve": "u"},
        {"seed": 1, "seconds": 2.0, "status": "ok", "curve": "v"},
        {"seed": 2, "seconds": 20, "status": "timeout"},
        {"seed": 3, "seconds": 0.5, "status": "ok", "curve": "u*v"})) + "\n")
    new.write_text("\n".join(json.dumps(line) for line in (
        {"seed": 0, "seconds": 0.1, "status": "ok", "curve": "u"},
        {"seed": 1, "seconds": 0.2, "status": "ok", "curve": "v^2"},
        {"seed": 2, "seconds": 3.0, "status": "ok", "curve": "u"},
        {"seed": 3, "seconds": 20, "status": "timeout"})) + "\n")
    assert same_answers.main([str(old), str(old)]) == 0
    capsys.readouterr()
    assert same_answers.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [
        'differs: {"seed": 1}',
        '  old: {"status": "ok", "curve": "v"}',
        '  new: {"status": "ok", "curve": "v^2"}',
        'finished on one side only: {"seed": 2} (old: timeout, new: ok)',
        'finished on one side only: {"seed": 3} (old: ok, new: timeout)',
        "2 cases finished on both sides, 1 differ, 2 finished on one side only"]
    # a line that finished on one side only is listed, not failed
    new.write_text(old.read_text().replace('"seconds": 20, "status": "timeout"',
                                           '"seconds": 1, "status": "ok"'))
    assert same_answers.main([str(old), str(new)]) == 0
