import gc
import io
import json
import os

import jsonschema
import pytest
from click.testing import CliRunner

from planejac import exceptional as exc
from planejac.cli import EXIT_VIOLATIONS, MapFileError, load_map_file, main, _schema

MAPS = os.path.join(os.path.dirname(__file__), "..", "maps")


def _map(name):
    return os.path.join(MAPS, name)


@pytest.fixture()
def runner():
    return CliRunner(mix_stderr=False) if "mix_stderr" in \
        CliRunner.__init__.__code__.co_varnames else CliRunner()


def _payload(result):
    # stdout holds exactly the JSON report
    return json.loads(result.stdout)


# --------------------------------------------------------------- map loading

def test_load_map_file_with_curve():
    F, curve, meta = load_map_file(_map("makar_limanov.json"))
    assert F.deg_p == 10 and F.deg_q == 15
    assert curve is not None and curve.degree == 4
    assert meta["name"]


def test_load_map_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    with pytest.raises(MapFileError):
        load_map_file(str(bad))
    bad.write_text("not json")
    with pytest.raises(MapFileError):
        load_map_file(str(bad))


# --------------------------------------------------------------- check

def test_check_reports_degrees(runner):
    r = runner.invoke(main, ["check", _map("makar_limanov.json")])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["command"] == "check"
    assert rep["result"]["deg_p"] == 10
    assert rep["result"]["deg_q"] == 15
    assert rep["result"]["deg_gcd"] == 5
    assert not rep["result"]["is_unit"]


def test_check_unit_jacobian(runner):
    r = runner.invoke(main, ["check", _map("elementary.json")])
    rep = _payload(r)
    assert rep["result"]["is_unit"]


def test_reports_validate_and_are_deterministic(runner):
    a = runner.invoke(main, ["exceptional", _map("identity.json"), "--seed", "7"])
    b = runner.invoke(main, ["exceptional", _map("identity.json"), "--seed", "7"])
    assert a.exit_code == b.exit_code == 0
    assert a.stdout == b.stdout
    jsonschema.validate(_payload(a), _schema())


def test_pretty_flag_changes_layout_not_content(runner):
    a = runner.invoke(main, ["check", _map("identity.json")])
    b = runner.invoke(main, ["check", _map("identity.json"), "--pretty"])
    assert _payload(a) == _payload(b)
    assert a.stdout != b.stdout


# --------------------------------------------------------------- invert

def test_invert_elementary(runner):
    r = runner.invoke(main, ["invert", _map("elementary.json"), "-N", "10"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["roundtrip_residual"] == "0"
    assert rep["result"]["axis_u"]["tail"]["verdict"] == "poly-like"
    g2 = rep["result"]["inverse"]["g2"]
    assert {"eu": 2, "ev": 0, "re_num": -1, "im_num": 0, "den": 1} in g2["terms"]


def test_invert_shear_composition(runner):
    r = runner.invoke(main, ["invert", _map("shear_composition.json"), "-N", "12"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["roundtrip_residual"] == "0"


def test_invert_translated_ml_matches_fixed_point_loop(runner):
    # the inverse at (1, 1) is not polynomial; the axis series is the one the
    # full-order fixed-point loop computes
    r = runner.invoke(main, ["invert", _map("makar_limanov.json"),
                             "--translate", "1,1", "-N", "8"])
    assert r.exit_code == 0
    res = _payload(r)["result"]
    assert res["roundtrip_residual"] == "0"
    assert res["axis_u"]["series"] == (
        "-48004609/3221225472*u^8 - 714515/50331648*u^7 - 30499/2097152*u^6"
        " - 2263/131072*u^5 - 275/16384*u^4 - 17/512*u^3 - 23/64*u^2 - 5/4*u"
        " + O(u^9)")


def test_invert_requires_origin_unless_translated(runner, tmp_path):
    mf = tmp_path / "shifted.json"
    mf.write_text(json.dumps({"name": "shifted", "p": "x + 1", "q": "y + x^2"}))
    r = runner.invoke(main, ["invert", str(mf)])
    assert r.exit_code == 1
    r2 = runner.invoke(main, ["invert", str(mf), "--translate", "0,0", "-N", "6"])
    # F(0,0) = (1,0): translation by (0,0) recenters the value, fixing the origin
    assert r2.exit_code == 0


# --------------------------------------------------------------- exceptional

def test_exceptional_ml(runner):
    r = runner.invoke(main, ["exceptional", _map("makar_limanov.json")])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["defining"] == "u^6 - v^4"
    assert rep["result"]["deg_geo"]["value"] == 4
    assert rep["result"]["components"][0]["confirmed"]
    # the tolerance named is the one the preimage counts are accepted at
    assert rep["result"]["certification"] == \
        f"certified by sampling (5 points, tolerance {exc.CERTIFY_TOL})"
    assert exc.CERTIFY_TOL == 1e-7


def test_exceptional_printed_seed_30_survives_overflowing_candidates(runner):
    # a far-out sample candidate overflows in the magnitude bound after the
    # Newton polish; it is rejected, not raised
    r = runner.invoke(main, ["exceptional", _map("makar_limanov_printed.json"), "--seed", "30"])
    assert r.exit_code == 0, r.stderr
    assert _payload(r)["result"]["deg_geo"]["value"] == 4


STAGES = ("nonproper_candidates", "critical_values", "topological_degree",
          "certify_nonproper")


def _count_stage_calls(monkeypatch):
    calls = dict.fromkeys(STAGES, 0)

    def counted(name, fn):
        def wrapper(*args, **kw):
            calls[name] += 1
            return fn(*args, **kw)
        return wrapper

    for name in STAGES:
        monkeypatch.setattr(exc, name, counted(name, getattr(exc, name)))
    return calls


def test_exceptional_runs_each_stage_once(runner, monkeypatch):
    calls = _count_stage_calls(monkeypatch)
    r = runner.invoke(main, ["exceptional", _map("makar_limanov.json")])
    assert r.exit_code == 0
    assert calls == dict.fromkeys(STAGES, 1)
    rep = _payload(r)
    assert rep["result"]["deg_geo"]["value"] == 4
    assert rep["result"]["defining"] == "u^6 - v^4"


def test_verify_without_curve_takes_curve_and_degree_from_one_pass(runner, monkeypatch):
    calls = _count_stage_calls(monkeypatch)
    r = runner.invoke(main, ["verify", _map("makar_limanov_printed.json"), "bounds", "-B", "1"])
    assert r.exit_code == 0
    assert calls == dict.fromkeys(STAGES, 1)
    assert _payload(r)["result"]["deg_geo"] == 4


def test_fibers_with_supplied_curve_computes_degree_once(runner, monkeypatch):
    calls = _count_stage_calls(monkeypatch)
    r = runner.invoke(main, ["fibers", _map("makar_limanov.json"), "-k", "3", "-B", "1"])
    assert r.exit_code == 0
    assert calls["topological_degree"] == 1 and calls["certify_nonproper"] == 0
    assert _payload(r)["result"]["bound4"] == 80


def test_exceptional_identity_empty(runner):
    r = runner.invoke(main, ["exceptional", _map("identity.json")])
    rep = _payload(r)
    assert rep["result"]["degree"] == 0
    assert rep["result"]["deg_geo"]["value"] == 1


def test_exceptional_non_dominant_errors(runner, tmp_path):
    mf = tmp_path / "nd.json"
    mf.write_text(json.dumps({"name": "nd", "p": "x", "q": "x"}))
    r = runner.invoke(main, ["exceptional", str(mf)])
    assert r.exit_code == 1


def test_exceptional_failed_root_solve_is_an_error(runner, fail_y_slice_solves):
    r = runner.invoke(main, ["exceptional", _map("makar_limanov.json")])
    assert r.exit_code == 1
    assert "error: root iteration did not converge" in r.stderr
    assert isinstance(r.exception, SystemExit)  # no traceback


# --------------------------------------------------------------- fibers

def test_fibers_ml_k3(runner):
    r = runner.invoke(main, ["fibers", _map("makar_limanov.json"), "-k", "3", "-B", "2"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["count"] == 2
    assert [1, 0, 1, 0] in rep["result"]["points"]
    assert rep["result"]["bound4"] == 80


def test_fibers_gaussian_k(runner):
    r = runner.invoke(main, ["fibers", _map("identity.json"), "-k", "1+1i", "-B", "2"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["line_fiber"]["x_values"] == [[1, 1]]


def test_fibers_names_why_its_bounds_are_null(runner, tmp_path):
    mf = tmp_path / "nd.json"
    mf.write_text(json.dumps({"name": "nd", "p": "x + y", "q": "x + y"}))
    r = runner.invoke(main, ["fibers", str(mf), "-k", "0", "-B", "1"])
    assert r.exit_code == 0
    res = _payload(r)["result"]
    assert res["bound4"] is None and res["bound5"] is None
    assert "note: bound4 and bound5 are null: map is not dominant" in r.stderr
    # an empty curve gives null bounds too, with nothing to explain
    r = runner.invoke(main, ["fibers", _map("identity.json"), "-k", "0", "-B", "1"])
    assert _payload(r)["result"]["bound4"] is None and "note" not in r.stderr


def test_fibers_bad_k(runner):
    r = runner.invoke(main, ["fibers", _map("identity.json"), "-k", "x+1"])
    assert r.exit_code != 0


# --------------------------------------------------------------- verify

def test_verify_dhat_violations_exit_code(runner):
    r = runner.invoke(main, ["verify", _map("makar_limanov.json"), "dhat", "-B", "1"])
    assert r.exit_code == EXIT_VIOLATIONS
    rep = _payload(r)
    assert len(rep["result"]["violations"]) == 64


def test_verify_bad_box_is_an_error(runner):
    r = runner.invoke(main, ["verify", _map("makar_limanov.json"), "dist", "-B", "0"])
    assert r.exit_code == 1
    assert "error: box bound must be positive" in r.stderr
    assert isinstance(r.exception, SystemExit)  # no traceback


def test_verify_dist_clean_exit(runner):
    r = runner.invoke(main, ["verify", _map("makar_limanov.json"), "dist", "-B", "1"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["unconfirmed"] == []


def test_verify_bounds_sweep(runner):
    r = runner.invoke(main, ["verify", _map("makar_limanov.json"), "bounds", "-B", "2"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["bound4"] == 80
    assert rep["result"]["bound5"] == 160
    ks = [s["k"] for s in rep["result"]["sweep"]]
    assert ks == ["0", "1", "-1", "2", "-2", "i"]
    assert all(not s["exceeds"] for s in rep["result"]["sweep"])


@pytest.mark.parametrize("args", [
    ["invert", _map("elementary.json"), "-N", "4", "-W", "0"],
    ["exceptional", _map("identity.json"), "--tol", "0"],
    ["verify", _map("makar_limanov.json"), "dist", "-B", "1", "--tol", "-1"],
    ["check", _map("identity.json"), "--box", "0"],       # check reads no option
    ["invert", _map("elementary.json"), "--trials", "2"],  # nor does invert read -T
], ids=["window-0", "tol-0", "tol-negative", "check-box", "invert-trials"])
def test_bad_or_unread_option_is_a_usage_error(runner, args):
    r = runner.invoke(main, args)
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)  # no traceback
    assert r.stdout == ""


def test_missing_mapfile_is_an_error(runner):
    r = runner.invoke(main, ["check", "/nonexistent/map.json"])
    assert r.exit_code != 0


def _live_text_streams():
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, io.TextIOWrapper))


def test_repeated_invocations_release_their_output_streams(runner, tmp_path):
    # each in-process invocation captures stdout/stderr in fresh text
    # streams; none may outlive its invocation, on the report path or on an
    # error path
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    runner.invoke(main, ["check", _map("identity.json")])
    before = _live_text_streams()
    for _ in range(5):
        assert runner.invoke(main, ["check", _map("identity.json")]).exit_code == 0
        assert runner.invoke(main, ["check", str(bad)]).exit_code == 1
    assert _live_text_streams() <= before
