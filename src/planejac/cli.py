"""Command-line front end: loads map definition files, dispatches the
analyses, and emits deterministic JSON reports (stdout) plus a short
human-readable summary (stderr).

Exit codes: 0 clean, 1 error, 3 violations or unconfirmed points found.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from importlib import resources

import click

from . import exceptional as exc
from . import series as ser
from ._kernels import VIOLATION_TOL, RootFindingError
from .gaussian import GaussianRational
from .poly import PolyMap, jacobian, parse_expression

EXIT_VIOLATIONS = 3
#: the failures of an analysis that end a command with `error: ...`, exit 1
ANALYSIS_ERRORS = (exc.ExceptionalError, RootFindingError, ValueError)


class MapFileError(RuntimeError):
    pass


def load_map_file(path):
    """Parse a JSON map file into (PolyMap, supplied curve or None, the
    report's map fields)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise MapFileError(f"cannot read map file {path}: {e}")
    if not isinstance(data, dict):
        raise MapFileError(f"map file {path}: the top level is not an object")
    for key in ("name", "p", "q"):
        if key not in data:
            raise MapFileError(f"map file {path} is missing required field '{key}'")
    for key, kind in (("name", str), ("p", str), ("q", str), ("curve", (str, type(None)))):
        if not isinstance(data.get(key), kind):
            raise MapFileError(f"map file {path}: field '{key}' is not a string")
    if not isinstance(data.get("integral", False), bool):
        raise MapFileError(f"map file {path}: field 'integral' is not true or false")
    if data.get("variables", ["x", "y"]) != ["x", "y"]:
        raise MapFileError(f"map file {path}: field 'variables' is not [\"x\", \"y\"]")
    try:
        F = PolyMap(parse_expression(data["p"]), parse_expression(data["q"]))
    except ValueError as e:
        raise MapFileError(f"map file {path}: {e}")
    if data.get("integral") and not F.is_integral():
        raise MapFileError(f"map file {path}: 'integral' is set but coefficients are not Gaussian integers")
    curve = None
    if data.get("curve"):
        try:
            curve = exc.PlaneCurveSet(parse_expression(data["curve"], ("u", "v")), ["supplied"])
        except ValueError as e:
            raise MapFileError(f"map file {path}: bad curve field: {e}")
    meta = {
        "name": data["name"],
        "p": data["p"],
        "q": data["q"],
        "curve": data.get("curve"),
    }
    return F, curve, meta


def _schema():
    with resources.files("planejac.schemas").joinpath("report.schema.json").open() as fh:
        return json.load(fh)


class ReportSchemaError(Exception):
    """A report that breaks the report schema, or a schema that the report
    checker does not interpret: a fault of the program, caught nowhere."""


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _same(a, b):
    return a == b and isinstance(a, bool) == isinstance(b, bool)  # True is not 1


#: the Draft-7 types: 1.0 is an integer, and True is no number
_TYPES = {"object": lambda x: isinstance(x, dict), "array": lambda x: isinstance(x, list),
          "string": lambda x: isinstance(x, str), "boolean": lambda x: isinstance(x, bool),
          "null": lambda x: x is None, "number": _is_number,
          "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer())}
#: keyword -> test of an instance x against the keyword's value v; each
#: keyword holds for the instances of other types than its own, as in Draft 7
_TESTS = {
    "type": lambda x, v: any(_TYPES[n](x) for n in ([v] if isinstance(v, str) else v)),
    "enum": lambda x, v: any(_same(x, e) for e in v),
    "const": _same,
    "required": lambda x, v: not isinstance(x, dict) or set(v) <= set(x),
    "minimum": lambda x, v: not _is_number(x) or x >= v,
    "exclusiveMinimum": lambda x, v: not _is_number(x) or x > v,
    "minItems": lambda x, v: not isinstance(x, list) or len(x) >= v,
    "maxItems": lambda x, v: not isinstance(x, list) or len(x) <= v,
}
_KEYWORDS = {*_TESTS, "properties", "additionalProperties", "items", "allOf", "if", "then",
             "$schema", "title"}  # the last two are annotations


def _supported(s):
    """The schema s, once `_violation` interprets every keyword in it as
    Draft 7 does; raises ReportSchemaError otherwise."""
    if not isinstance(s, dict):
        raise ReportSchemaError(f"the report checker does not interpret the subschema {s!r}")
    types = s.get("type", [])
    bad = set(s) - _KEYWORDS | set([types] if isinstance(types, str) else types) - set(_TYPES)
    if s.get("additionalProperties", False) is not False:
        bad.add("additionalProperties")
    if bad:
        raise ReportSchemaError(f"the report checker does not interpret {sorted(bad)}")
    for sub in [*s.get("properties", {}).values(), *s.get("allOf", []),
                *(s[k] for k in ("items", "if", "then") if k in s)]:
        _supported(sub)
    return s


def _violation(s, x, at="report"):
    """Where and how x first breaks the schema s, or None."""
    for k, v in s.items():
        if k in _TESTS and not _TESTS[k](x, v):
            return f"{at} breaks {k}: {v!r}"
    props, subs = s.get("properties", {}), [(sub, x, at) for sub in s.get("allOf", [])]
    if isinstance(x, dict):
        if "additionalProperties" in s and not set(x) <= set(props):
            return f"{at} has unexpected {sorted(set(x) - set(props))}"
        subs += [(props[k], x[k], f"{at}.{k}") for k in props if k in x]
    if isinstance(x, list) and "items" in s:
        subs += [(s["items"], y, f"{at}[{i}]") for i, y in enumerate(x)]
    if "if" in s and "then" in s and _violation(s["if"], x, at) is None:
        subs.append((s["then"], x, at))
    return next(filter(None, (_violation(*sub) for sub in subs)), None)


@functools.cache
def _validator():
    """The report schema, built once per process after `_supported` has
    checked that the checker interprets every keyword in it."""
    return _supported(_schema())


def emit(command, meta, config, result, pretty, summary_lines, exit_code=0):
    """Check the report against the schema, print it, and return the
    command's exit code.  `config` holds the command's options, each under
    its own key.  A report that breaks the schema raises ReportSchemaError,
    and the result must hold JSON values only: a non-finite float raises
    ValueError.  Either leaves stdout empty."""
    report = {"command": command, "map": meta, "config": config, "result": result}
    why = _violation(_validator(), report)
    if why:
        raise ReportSchemaError(why)
    if pretty:
        out = json.dumps(report, sort_keys=True, allow_nan=False, indent=2)
    else:
        out = json.dumps(report, sort_keys=True, allow_nan=False, separators=(",", ":"))
    # explicit streams: click's cache of its default streams would keep the
    # captured output of every in-process invocation alive
    click.echo(out, file=sys.stdout)
    for line in summary_lines:
        click.echo(line, file=sys.stderr)
    return exit_code


def _parse_gaussian_constant(text):
    p = parse_expression(text, ())
    if not p.is_constant():
        raise click.BadParameter(f"{text!r} is not a constant")
    return p.constant_value()


def _translation(ctx, param, value):
    """--translate 'a,b' as a pair of Gaussian integers."""
    if value is None:
        return None
    try:
        pair = [_parse_gaussian_constant(t) for t in value.split(",")]
    except ValueError as e:
        raise click.BadParameter(str(e))
    if len(pair) != 2 or not all(c.is_gaussian_integer() for c in pair):
        raise click.BadParameter(f"{value!r} is not a pair 'a,b' of Gaussian integers")
    return pair


def _finite(ctx, param, value):
    # FloatRange lets NaN through its comparisons, and inf is above 0
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not finite")
    return value


#: the lattice box of fibers and verify
box_options = [
    click.option("--box", "-B", type=int, default=4, show_default=True),
    click.option("--ring-m", type=int, default=1, show_default=True),
]
output_options = [
    click.option("--json", "output_json", flag_value=True, default=True, help="compact JSON (default)"),
    click.option("--pretty", "output_json", flag_value=False, help="indented JSON"),
]


def with_options(*options):
    """Give a command `options`, each one a key of its report's config, and
    --json / --pretty."""
    def decorate(f):
        for opt in reversed([*options, *output_options]):
            f = opt(f)
        return f
    return decorate


@click.group()
def main():
    """Exact-arithmetic toolkit for plane polynomial maps over Z[i]."""


@main.result_callback()
def _exit(code):
    # exits after the command has returned, so no traceback holds its report
    sys.exit(code)


def _fail(message):
    """End the command with `error: message` on stderr and exit code 1."""
    click.echo(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def _load(mapfile):
    try:
        return load_map_file(mapfile)
    except MapFileError as e:
        _fail(e)


@main.command()
@click.argument("mapfile", type=click.Path(exists=True))
@with_options()
def check(mapfile, output_json):
    """Jacobian and degree report for a map file."""
    F, _, meta = _load(mapfile)
    jf = jacobian(F)
    is_unit = jf.is_constant() and jf.constant_value() == GaussianRational(1)
    result = {
        "jacobian": str(jf),
        "is_unit": is_unit,
        "is_constant": jf.is_constant(),
        "deg_p": F.deg_p,
        "deg_q": F.deg_q,
        "deg_gcd": F.deg_gcd,
        "integral": F.is_integral(),
    }
    return emit("check", meta, {}, result, not output_json,
                [f"{meta['name']}: JF = {result['jacobian']}"
                 + (" (unit Jacobian)" if is_unit else "")])


@main.command()
@click.argument("mapfile", type=click.Path(exists=True))
@with_options(
    click.option("--translate", default=None, callback=_translation,
                 help="a,b to translate by before inverting (Gaussian integer constants)"),
    click.option("--order", "-N", type=click.IntRange(min=1), default=16, show_default=True))
def invert(mapfile, translate, order, output_json):
    """Truncated formal local inverse and the exact automorphism verdict."""
    F, _, meta = _load(mapfile)
    try:
        if translate:
            F = ser.translate_map(F, *translate)
        # the inverse of an automorphism has degree at most max(deg P, deg Q)
        G = ser.local_inverse(F, max(order, F.deg_p, F.deg_q)
                              if ser.has_constant_jacobian(F) else order)
    except ValueError as e:
        _fail(e)
    verdict, resid = ser.automorphism_verdict(F, G)
    # the report shows the series, and its round trip, through degree N
    g1, g2 = (ser.TruncSeries2(order, g.terms) for g in (G.g1, G.g2))
    top = max((sum(e) for r in (resid.g1, resid.g2) for e in r.terms if sum(e) <= order),
              default=0)
    result = {
        "inverse": {"g1": g1.to_json(), "g2": g2.to_json()},
        "inverse_str": {"g1": str(g1), "g2": str(g2)},
        "roundtrip_residual": "0" if top == 0 else f"nonzero at degree {top}",
        "automorphism": verdict,
    }
    config = {"order": order, "translate": translate and [str(c) for c in translate]}
    return emit("invert", meta, config, result, not output_json,
                [f"{meta['name']}: inverse to order {order}, "
                 f"residual {result['roundtrip_residual']}",
                 f"automorphism: {'yes' if verdict['value'] else 'no'} ({verdict['reason']})"])


def _curve_and_degree(F, curve, degree):
    """A_F and its DegreeReport from one pipeline pass; or the supplied
    curve, and the map's DegreeReport when `degree` is true (else None)."""
    if curve is None:
        rep = exc.exceptional_report(F)
        return rep.curve, rep.degree
    # the targets of exceptional_report at seed 0, whose degree takes seed 1
    return curve, exc.topological_degree(F, seed=1) if degree else None


@main.command()
@click.argument("mapfile", type=click.Path(exists=True))
@with_options(click.option("--seed", type=int, default=0, show_default=True,
                          help="picks the random targets of the degree"))
def exceptional(mapfile, seed, output_json):
    """Non-proper candidates, certification, critical values, degree."""
    F, _, meta = _load(mapfile)
    try:
        rep = exc.exceptional_report(F, seed=seed)
    except ANALYSIS_ERRORS as e:
        _fail(e)
    result = {
        "defining": str(rep.curve.defining),
        "degree": rep.curve.degree,
        "components": rep.verdicts,
        "nonproper_candidates": rep.candidates.to_json(),
        "critical_values": rep.critical.to_json(),
        "deg_geo": rep.degree.to_json(),
        "certification": "one exact preimage count over the points of a Gaussian-rational"
                         " slice per component",
    }
    return emit("exceptional", meta, {"seed": seed}, result, not output_json,
                [f"{meta['name']}: A_F defined by {result['defining']} "
                 f"(deg_geo = {rep.degree.deg_geo})"])


@main.command()
@click.argument("mapfile", type=click.Path(exists=True))
@with_options(click.option("-k", "k_text", default="0", show_default=True,
                          help="fiber level (Gaussian integer)"), *box_options)
def fibers(mapfile, k_text, box, ring_m, output_json):
    """Ring lattice points on the fiber P = k inside the box."""
    from . import lattice as lat
    F, curve, meta = _load(mapfile)
    try:
        kq = _parse_gaussian_constant(k_text)
        fset = lat.enumerate_fiber_points(F.p, kq, lat.LatticeBox(box, ring_m))
    except (ValueError, click.BadParameter) as e:
        _fail(e)
    result = fset.to_json()
    result["bound4"] = result["bound5"] = None
    lines = [f"{meta['name']}: {result['count']} fiber points at k = {k_text}, B = {box}"]
    try:
        curve, deg = _curve_and_degree(F, curve, degree=curve is None or not curve.is_empty())
        if not curve.is_empty():
            result["bound4"], result["bound5"] = lat.fiber_count_bounds(F, deg.deg_geo, curve)
    except ANALYSIS_ERRORS as e:
        lines.append(f"note: bound4 and bound5 are null: {e}")
    return emit("fibers", meta, {"k": str(kq), "box": box, "ring_m": ring_m}, result,
                not output_json, lines)


@main.command()
@click.argument("mapfile", type=click.Path(exists=True))
@click.argument("which", type=click.Choice(["dist", "dhat", "bounds"]))
@with_options(*box_options, click.option(
    "--tol", type=click.FloatRange(min=0, min_open=True), callback=_finite,
    default=VIOLATION_TOL, show_default=True))
def verify(mapfile, which, tol, box, ring_m, output_json):
    """Inequality and bound verification sweeps over the lattice box."""
    from . import lattice as lat
    F, curve, meta = _load(mapfile)
    try:
        grid = lat.LatticeBox(box, ring_m)
        curve, deg = _curve_and_degree(F, curve, degree=which == "bounds")
        if which == "dist":
            result = lat.verify_dist_inequality(F, curve, grid, tol=tol)
        elif which == "dhat":
            result = lat.verify_dhat_inequality(F, curve, grid, tol=tol)
        else:
            b4, b5 = lat.fiber_count_bounds(F, deg.deg_geo, curve)
            sweep = []
            for k in ("0", "1", "-1", "2", "-2", "i"):
                fset = lat.enumerate_fiber_points(F.p, _parse_gaussian_constant(k), grid)
                sweep.append({"k": k, "count": fset.count(),
                              "line_fiber": fset.line_fiber is not None,
                              "exceeds": fset.count() > min(b4, b5)})
    except ANALYSIS_ERRORS as e:
        _fail(e)
    if which == "dist":
        bad = len(result["unconfirmed"])
        line = f"{meta['name']}: dist sweep B={box}, {bad} unconfirmed of {result['checked']}"
    elif which == "dhat":
        bad = len(result["violations"])
        line = f"{meta['name']}: dhat sweep B={box}, {bad} violations of {result['checked']}"
    else:
        result = {"bound4": b4, "bound5": b5, "deg_geo": deg.deg_geo,
                  "curve_degree": curve.degree, "sweep": sweep}
        bad = sum(s["exceeds"] for s in sweep)
        line = (f"{meta['name']}: bounds {b4} / {b5}, "
                f"max count {max(s['count'] for s in sweep)}")
    result["curve"] = curve.to_json()
    return emit("verify", meta, {"box": box, "ring_m": ring_m, "tol": tol}, result,
                not output_json, [line],
                exit_code=EXIT_VIOLATIONS if bad else 0)


if __name__ == "__main__":
    main()
