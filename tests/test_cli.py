import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest
from click.testing import CliRunner

import planejac
from planejac import exceptional as exc
from planejac import series as ser
from planejac.cli import (ANALYSIS_ERRORS, EXIT_VIOLATIONS, MapFileError, ReportSchemaError,
                          RunConfig, emit, load_map_file, main, _schema, _supported,
                          _validator, _violation)
from planejac.poly import Poly, parse_expression

MAPS = os.path.join(os.path.dirname(__file__), "..", "maps")
UV = (Poly.var("u", ("u", "v")), Poly.var("v", ("u", "v")))


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


#: map files that parse but do not define a map, or a curve
BAD_MAP_FILES = {
    "laurent-p": {"name": "laurent", "p": "x^-1", "q": "y"},
    "zero-curve": {"name": "zero-curve", "p": "x", "q": "y", "curve": "0"},
    "number": 3,
    "string": "name p q",
    "int-p": {"name": "int-p", "p": 5, "q": "y"},
    "int-curve": {"name": "int-curve", "p": "x", "q": "y", "curve": 7},
    "int-variables": {"name": "int-variables", "p": "x", "q": "y", "variables": 5},
    "int-name": {"name": 5, "p": "x", "q": "y"},
}


def test_load_map_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"name\": \"x\"}")
    with pytest.raises(MapFileError):
        load_map_file(str(bad))
    bad.write_text("not json")
    with pytest.raises(MapFileError):
        load_map_file(str(bad))
    for doc in BAD_MAP_FILES.values():
        bad.write_text(json.dumps(doc))
        with pytest.raises(MapFileError):
            load_map_file(str(bad))


@pytest.mark.parametrize("doc", BAD_MAP_FILES.values(), ids=BAD_MAP_FILES.keys())
def test_bad_map_file_is_one_error_line(runner, tmp_path, doc):
    mf = tmp_path / "bad.json"
    mf.write_text(json.dumps(doc))
    r = runner.invoke(main, ["check", str(mf)])
    assert r.exit_code == 1
    assert isinstance(r.exception, SystemExit)  # no traceback
    assert r.stdout == ""
    lines = r.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: map file {mf}")


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
    assert rep["result"]["automorphism"] == {
        "value": True, "reason": "F o G = (u, v) exactly",
        "inverse": {"g1": "u", "g2": "-u^2 + v"}, "integral_inverse": True}
    g2 = rep["result"]["inverse"]["g2"]
    assert {"eu": 2, "ev": 0, "re_num": -1, "im_num": 0, "den": 1} in g2["terms"]


def test_invert_shear_composition(runner):
    r = runner.invoke(main, ["invert", _map("shear_composition.json"), "-N", "12"])
    assert r.exit_code == 0
    rep = _payload(r)
    assert rep["result"]["roundtrip_residual"] == "0"


@pytest.mark.parametrize("order", ["2", "8", "16"])
@pytest.mark.parametrize("name, inverse", [
    ("identity", lambda u, v: (u, v)),
    ("elementary", lambda u, v: (u, v - u ** 2)),
    # (x, y + x^3) after (x + y^2, y)
    ("shear_composition", lambda u, v: (u - (v - u ** 3) ** 2, v - u ** 3)),
], ids=["identity", "elementary", "shear_composition"])
def test_invert_decides_shipped_automorphisms(runner, name, inverse, order):
    # below the map's degree too: the series runs to order max(N, d)
    r = runner.invoke(main, ["invert", _map(name + ".json"), "-N", order])
    assert r.exit_code == 0
    res = _payload(r)["result"]
    assert res["inverse"]["g1"]["order"] == int(order)
    assert res["automorphism"] == {
        "value": True, "reason": "F o G = (u, v) exactly",
        "inverse": dict(zip(("g1", "g2"), map(str, inverse(*UV)))),
        "integral_inverse": True}


@pytest.mark.parametrize("name", ["makar_limanov.json", "makar_limanov_printed.json"])
def test_invert_translated_ml_is_no_automorphism(runner, name):
    r = runner.invoke(main, ["invert", _map(name), "--translate", "1,1", "-N", "8"])
    assert r.exit_code == 0
    assert _payload(r)["result"]["automorphism"] == {
        "value": False, "reason": "JF is not a nonzero constant"}


def test_invert_composes_once(runner, monkeypatch):
    calls = []
    real = ser.compose_truncated

    def counted(G, F, order=None):
        calls.append(order)
        return real(G, F, order)

    monkeypatch.setattr(ser, "compose_truncated", counted)
    for args, order in ((["shear_composition.json", "-N", "8"], 36),
                        (["makar_limanov.json", "--translate", "1,1", "-N", "8"], 8)):
        calls.clear()
        assert runner.invoke(main, ["invert", _map(args[0])] + args[1:]).exit_code == 0
        assert calls == [order]


def test_invert_translated_ml_matches_fixed_point_loop(runner):
    # the inverse at (1, 1) is not polynomial; its u-axis coefficients are
    # the ones the full-order fixed-point loop computes
    r = runner.invoke(main, ["invert", _map("makar_limanov.json"),
                             "--translate", "1,1", "-N", "8"])
    assert r.exit_code == 0
    res = _payload(r)["result"]
    assert res["roundtrip_residual"] == "0"
    axis_u = {t["eu"]: (t["re_num"], t["im_num"], t["den"])
              for t in res["inverse"]["g1"]["terms"] if t["ev"] == 0}
    assert axis_u == {
        8: (-48004609, 0, 3221225472), 7: (-714515, 0, 50331648), 6: (-30499, 0, 2097152),
        5: (-2263, 0, 131072), 4: (-275, 0, 16384), 3: (-17, 0, 512), 2: (-23, 0, 64),
        1: (-5, 0, 4)}


def test_schema_requires_the_invert_verdict(runner):
    rep = _payload(runner.invoke(main, ["invert", _map("elementary.json"), "-N", "4"]))
    jsonschema.validate(rep, _schema())
    assert "window" not in rep["config"]
    rep["result"]["automorphism"]["value"] = "yes"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, _schema())
    del rep["result"]["automorphism"]
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, _schema())


def test_report_schema_is_a_valid_draft7_schema():
    # emit builds its validator once and trusts the schema; this checks it
    jsonschema.Draft7Validator.check_schema(_schema())


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
@pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
def test_emit_rejects_a_non_finite_float(capsys, pretty, value):
    # a report holds JSON values only: nothing turns a float into null
    meta = {"name": "m", "p": "x", "q": "y", "curve": None}
    with pytest.raises(ValueError):
        emit("check", meta, RunConfig(), {"value": value}, pretty, [])
    assert capsys.readouterr().out == ""


def test_emit_rejects_a_result_that_breaks_the_schema(runner, monkeypatch):
    real = ser.automorphism_verdict

    def stringly(F, G):
        verdict, resid = real(F, G)
        return {**verdict, "value": "yes"}, resid

    monkeypatch.setattr(ser, "automorphism_verdict", stringly)
    r = runner.invoke(main, ["invert", _map("elementary.json"), "-N", "4"])
    assert isinstance(r.exception, ReportSchemaError)
    assert r.stdout == ""
    # a broken report is a fault of the program, never an `error:` line
    assert not issubclass(ReportSchemaError, ANALYSIS_ERRORS)


@pytest.mark.parametrize("path, bad", [
    (("certification",), None),
    (("components",), None),
    (("components", 0, "confirmed"), "yes"),
    (("components", 0, "samples", 0, "point"), [1.0, 0.0, 1.0, 0.0]),
    (("components", 0, "samples", 0, "point"), ["1"]),
    (("components", 0, "samples", 0, "count"), -1),
], ids=["no-certification", "no-components", "confirmed-string", "point-floats",
        "point-short", "count-negative"])
def test_schema_requires_exact_exceptional_samples(runner, path, bad):
    rep = _payload(runner.invoke(main, ["exceptional", _map("makar_limanov.json")]))
    jsonschema.validate(rep, _schema())
    node = rep["result"]
    for key in path[:-1]:
        node = node[key]
    if bad is None:
        del node[path[-1]]
    else:
        node[path[-1]] = bad
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, _schema())


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
with open(GOLDEN) as _fh:
    #: the report of every golden invocation that prints one
    GOLDEN_REPORTS = {k: json.loads(v["stdout"]) for k, v in json.load(_fh).items()
                      if v["stdout"]}
DELETE = object()
INVERT, EXCEPTIONAL = "invert elementary.json -N 8", "exceptional makar_limanov.json"
SAMPLE = ("result", "components", 0, "samples", 0)
#: (golden report, path, new value or DELETE) of each report mutation; the
#: empty path puts the whole report in a list
MUTATIONS = {
    "verdict-string": (INVERT, ("result", "automorphism", "value"), "yes"),
    "verdict-int": (INVERT, ("result", "automorphism", "value"), 1),
    "no-verdict": (INVERT, ("result", "automorphism"), DELETE),
    "no-inverse": (INVERT, ("result", "inverse"), DELETE),
    "no-certification": (EXCEPTIONAL, ("result", "certification"), DELETE),
    "no-components": (EXCEPTIONAL, ("result", "components"), DELETE),
    "components-object": (EXCEPTIONAL, ("result", "components"), {}),
    "confirmed-string": (EXCEPTIONAL, ("result", "components", 0, "confirmed"), "yes"),
    "point-floats": (EXCEPTIONAL, SAMPLE + ("point",), [1.0, 0.0, 1.0, 0.0]),
    "point-1": (EXCEPTIONAL, SAMPLE + ("point",), ["1"]),
    "point-3": (EXCEPTIONAL, SAMPLE + ("point",), ["1", "0", "2"]),
    "point-string": (EXCEPTIONAL, SAMPLE + ("point",), "1,0"),
    "count-negative": (EXCEPTIONAL, SAMPLE + ("count",), -1),
    "count-0": (EXCEPTIONAL, SAMPLE + ("count",), 0),
    "count-true": (EXCEPTIONAL, SAMPLE + ("count",), True),
    "count-1.0": (EXCEPTIONAL, SAMPLE + ("count",), 1.0),
    "count-1.5": (EXCEPTIONAL, SAMPLE + ("count",), 1.5),
    **{f"{key}-{name}": ("check identity.json", ("config", key), value)
       for key in ("seed", "order", "box", "ring_m", "trials", "samples")
       for name, value in (("true", True), ("1.0", 1.0), ("2.5", 2.5), ("string", "3"))},
    "order-0": ("check identity.json", ("config", "order"), 0),
    "order-1": ("check identity.json", ("config", "order"), 1),
    "trials-2": ("check identity.json", ("config", "trials"), 2),
    "seed-negative": ("check identity.json", ("config", "seed"), -5),
    "no-seed": ("check identity.json", ("config", "seed"), DELETE),
    "tol-0": ("check identity.json", ("config", "tol"), 0),
    "tol-tiny": ("check identity.json", ("config", "tol"), 1e-300),
    "tol-negative": ("check identity.json", ("config", "tol"), -1e-9),
    "tol-string": ("check identity.json", ("config", "tol"), "1e-09"),
    "tol-true": ("check identity.json", ("config", "tol"), True),
    "curve-none": ("check makar_limanov.json", ("map", "curve"), None),
    "curve-int": ("check makar_limanov.json", ("map", "curve"), 5),
    "no-curve": ("check makar_limanov.json", ("map", "curve"), DELETE),
    "name-int": ("check identity.json", ("map", "name"), 5),
    "no-p": ("check identity.json", ("map", "p"), DELETE),
    "map-extra-key": ("check identity.json", ("map", "note"), "kept"),
    "map-list": ("check identity.json", ("map",), ["identity"]),
    "result-list": ("check identity.json", ("result",), []),
    "extra-key": ("check identity.json", ("stats",), {}),
    "no-result": ("check identity.json", ("result",), DELETE),
    "command-unknown": ("check identity.json", ("command",), "plot"),
    "command-invert": ("check identity.json", ("command",), "invert"),
    "command-exceptional": (INVERT, ("command",), "exceptional"),
    "command-check": (INVERT, ("command",), "check"),
    "report-list": (INVERT, (), list),
}


def _mutated(name):
    key, path, value = MUTATIONS[name]
    rep = copy.deepcopy(GOLDEN_REPORTS[key])
    if not path:
        return [rep]
    node = rep
    for step in path[:-1]:
        node = node[step]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return rep


@pytest.mark.parametrize("key", GOLDEN_REPORTS)
def test_report_checker_accepts_every_golden_report(key):
    rep = GOLDEN_REPORTS[key]
    assert jsonschema.Draft7Validator(_schema()).is_valid(rep)
    assert _violation(_validator(), rep) is None


@pytest.mark.parametrize("name", MUTATIONS)
def test_report_checker_agrees_with_jsonschema(name):
    # jsonschema's Draft-7 validator is the reference for every verdict
    rep = _mutated(name)
    why = _violation(_validator(), rep)
    assert (why is None) == jsonschema.Draft7Validator(_schema()).is_valid(rep), why


@pytest.mark.parametrize("schema, x", [
    ({"const": 1}, True), ({"const": 1}, 1.0), ({"enum": [0, "a"]}, False),
    ({"enum": [True]}, 1), ({"type": "integer"}, 10 ** 400), ({"type": "integer"}, 1e300),
    ({"type": "integer"}, math.inf), ({"type": "number", "minimum": 0}, True),
    ({"minimum": 0}, True), ({"minimum": 0, "maxItems": 0}, "text"),
    ({"required": ["a"], "minItems": 1}, ["a"]), ({"type": ["string", "null"]}, None),
    ({"items": {"type": "string"}, "minItems": 2}, ("a",)),
    ({"properties": {"a": {"type": "integer"}}, "additionalProperties": False}, {"a": 1.0}),
], ids=str)
def test_report_checker_agrees_with_jsonschema_on_small_schemas(schema, x):
    assert (_violation(_supported(schema), x) is None) == \
        jsonschema.Draft7Validator(schema).is_valid(x)


def test_report_mutations_are_mostly_rejected():
    verdicts = [_violation(_validator(), _mutated(name)) is None for name in MUTATIONS]
    assert 5 < verdicts.count(True) < verdicts.count(False)


@pytest.mark.parametrize("where, keyword, value", [
    (("properties", "map", "properties", "name"), "pattern", "^[a-z]"),
    ((), "additionalProperties", True),
    (("properties", "config"), "dependencies", {"tol": ["order"]}),
    (("properties", "result"), "type", "integr"),
    (("allOf", 0), "else", {}),
])
def test_report_checker_refuses_a_keyword_it_does_not_interpret(where, keyword, value):
    schema = _schema()
    node = schema
    for step in where:
        node = node[step]
    node[keyword] = value
    with pytest.raises(ReportSchemaError, match="does not interpret"):
        _supported(schema)
    assert _supported(_schema()) == _schema()


def test_check_and_invert_import_neither_numpy_nor_jsonschema():
    script = (
        "import sys\n"
        "from planejac import cli\n"
        f"for args in ({['check', _map('makar_limanov.json')]!r},\n"
        f"             {['invert', _map('elementary.json'), '-N', '8']!r}):\n"
        "    try:\n"
        "        cli.main(args)\n"
        "    except SystemExit as e:\n"
        "        assert e.code == 0, e.code\n"
        "print([m for m in ('numpy', 'jsonschema') if m in sys.modules], file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(planejac.__file__)))
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert r.returncode == 0, r.stderr
    assert [json.loads(line)["command"] for line in r.stdout.splitlines()] == ["check", "invert"]
    assert r.stderr.splitlines()[-1] == "[]"


@pytest.mark.parametrize("shift", ["1/2,1", "1,2,3", "x,1", "1+,1"])
def test_invert_translation_must_be_two_gaussian_integers(runner, shift):
    r = runner.invoke(main, ["invert", _map("elementary.json"), "--translate", shift])
    assert r.exit_code == 2
    assert isinstance(r.exception, SystemExit)  # no traceback
    assert r.stdout == ""
    assert "Invalid value for '--translate'" in r.stderr
    if shift == "1+,1":
        assert "unexpected end of input (at position 2)" in r.stderr


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
    assert rep["result"]["certification"] == \
        "exact preimage counts at 5 Gaussian-rational points per component"


@pytest.mark.parametrize("name", ["makar_limanov.json", "makar_limanov_printed.json"])
def test_exceptional_sample_points_are_exact_evidence(runner, name):
    # every reported point parses, lies exactly on its component, is off the
    # critical-value curve, and counts fewer than deg_geo = 4 preimages
    r = runner.invoke(main, ["exceptional", _map(name)])
    assert r.exit_code == 0
    res = _payload(r)["result"]
    crit = parse_expression(res["critical_values"]["defining"], ("u", "v"))
    assert res["deg_geo"]["value"] == 4 and res["components"]
    for comp in res["components"]:
        poly = parse_expression(comp["component"], ("u", "v"))
        assert comp["confirmed"] and len(comp["samples"]) == 5
        for s in comp["samples"]:
            u0, v0 = (parse_expression(t, ()).constant_value() for t in s["point"])
            assert not poly.evaluate({"u": u0, "v": v0})
            assert crit.evaluate({"u": u0, "v": v0})
            assert s["count"] < 4


def test_exceptional_with_critical_lines_off_the_lattice(runner, tmp_path):
    # the fold lines x = +-1/2 of (4x^3 - 3x, y) map onto u = +-1
    mf = tmp_path / "chebyshev.json"
    mf.write_text(json.dumps({"name": "chebyshev", "p": "4*x^3 - 3*x", "q": "y"}))
    r = runner.invoke(main, ["exceptional", str(mf)])
    assert r.exit_code == 0, r.stderr
    rep = _payload(r)
    jsonschema.validate(rep, _schema())
    assert rep["result"]["critical_values"]["defining"] == "u^2 - 1"
    assert rep["result"]["defining"] == "u^2 - 1"


def test_exceptional_printed_seed_30_gives_degree_4(runner):
    # the seed moves only the degree's random targets; certification is the
    # same deterministic search at every seed
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


def test_exceptional_failed_root_solve_is_an_error(runner, fail_certification_solves):
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


def test_verify_prints_an_infinite_value_as_null(runner, tmp_path):
    # the identity sends the origin to (0, 0), where neither slice of the
    # curve uv = 1 has a root: its Dist bound and its d-hat are infinite
    mf = tmp_path / "uv.json"
    mf.write_text(json.dumps({"name": "uv", "p": "x", "q": "y", "curve": "u*v - 1"}))
    origin = [0, 0, 0, 0]
    r = runner.invoke(main, ["verify", str(mf), "dist", "-B", "1"])
    assert r.exit_code == EXIT_VIOLATIONS
    res = _payload(r)["result"]
    assert {"p": origin, "bound": None, "witness": None} in res["unconfirmed"]
    assert {"p": origin, "bound": None} in res["axis_points"]
    assert res["max_bound"] is None
    r = runner.invoke(main, ["verify", str(mf), "dhat", "-B", "1"])
    assert r.exit_code == EXIT_VIOLATIONS
    assert ({"p": origin, "value": None, "infinite": True, "witness": None}
            in _payload(r)["result"]["violations"])


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
    ["invert", _map("elementary.json"), "-N", "4", "-W", "8"],  # no --window option
    ["invert", _map("elementary.json"), "-N", "0"],
    ["verify", _map("makar_limanov.json"), "dist", "-B", "1", "--tol", "0"],
    ["verify", _map("makar_limanov.json"), "dist", "-B", "1", "--tol", "-1"],
    ["verify", _map("makar_limanov.json"), "dhat", "-B", "1", "--tol", "nan"],
    ["verify", _map("makar_limanov.json"), "dhat", "-B", "1", "--tol", "inf"],
    ["check", _map("identity.json"), "--box", "0"],       # check reads no option
    ["invert", _map("elementary.json"), "--trials", "2"],  # nor does invert read -T
    # the degree's targets are rejected exactly, so neither reads --tol
    ["exceptional", _map("identity.json"), "--tol", "1e-9"],
    ["fibers", _map("identity.json"), "-B", "1", "--tol", "1e-9"],
], ids=["invert-window", "order-0", "tol-0", "tol-negative", "tol-nan", "tol-inf", "check-box",
        "invert-trials", "exceptional-tol", "fibers-tol"])
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


def test_report_does_not_outlive_the_command(runner):
    # the exit is taken after the command has returned, so no SystemExit
    # traceback keeps the frames that built the report; the cyclic GC is off,
    # as it is between two of its runs.  The first run fills the caches and
    # the interpreter's free lists (a freed tuple's block stays traced there),
    # so the second run's growth is what it leaves behind.
    args = ["verify", _map("makar_limanov.json"), "dhat", "-B", "3"]
    pkg = os.path.dirname(planejac.__file__)

    def held():
        return sum(t.size for t in tracemalloc.take_snapshot().traces
                   if t.traceback[0].filename.startswith(pkg))

    gc.disable()
    tracemalloc.start()
    try:
        runner.invoke(main, args)
        before = held()
        r = runner.invoke(main, args)
        after = held()
    finally:
        gc.enable()
        tracemalloc.stop()
    assert r.exit_code == EXIT_VIOLATIONS
    assert after - before < 64 * 1024
