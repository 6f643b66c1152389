"""Self-tests of the benchmark's generators, answer checks and tracer.

    python -m pytest -q bench
"""

import math
import os
import random
import signal
import time

import pytest

import gen
import spans
import workloads
from planejac import exceptional, lattice, poly
from planejac.gaussian import GaussianRational
from planejac.poly import Poly, jacobian, parse_expression

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2, 3)
LEVELS = [GaussianRational.coerce(parse_expression(k, ()).constant_value())
          for k in workloads.FIBER_LEVELS]


def _poly(f, variables=("x", "y")):
    return Poly(variables, {e: GaussianRational(*c) for e, c in f.items()})


def _ml(eps, eta):
    doc = workloads.unit_variant(ROOT, "makar_limanov", eps, eta)[0]
    return (parse_expression(doc["p"]), parse_expression(doc["q"]))


def _units(seed):
    return gen.unit_symmetry(seed)


# ------------------------------------------------------------------ generators

def test_unit_symmetry_is_seeded():
    assert all(_units(s) == _units(s) for s in range(20))
    assert all(u in gen.UNITS for s in range(20) for u in _units(s))
    assert len({_units(s) for s in range(40)}) > 4


def test_map_text_round_trips():
    rng = random.Random(7)
    for _ in range(50):
        f = {}
        for _ in range(rng.randint(1, 6)):
            f[(rng.randint(0, 5), rng.randint(0, 5))] = (rng.randint(-3, 3), rng.randint(-3, 3))
        f = {e: c for e, c in f.items() if c != (0, 0)}
        text = gen.format_poly(f)
        parsed = parse_expression(text)
        assert parsed == _poly(f), text
        assert parse_expression(str(parsed)) == parsed


@pytest.mark.parametrize("profile", gen.PROFILES)
def test_fixed_profile_automorphism_and_inverse(profile):
    for seed in SEEDS:
        fwd, inv = gen.fixed_profile_automorphism(random.Random(seed), profile)
        again = gen.fixed_profile_automorphism(random.Random(seed), profile)
        assert (fwd, inv) == again
        assert gen.compose_maps(fwd, inv) == (gen.X, gen.Y)
        assert gen.compose_maps(inv, fwd) == (gen.X, gen.Y)
        assert max(i + j for f in fwd for i, j in f) == math.prod(profile)
        doc = gen.map_document("a", *fwd)
        F = poly.PolyMap(parse_expression(doc["p"]), parse_expression(doc["q"]))
        assert jacobian(F) == Poly.const(1, ("x", "y"))


def test_unit_conjugates_keep_inverse_and_coefficient_sizes():
    fwd, inv = gen.fixed_profile_automorphism(random.Random(0), gen.PROFILES[-1])
    for seed in SEEDS:
        eps, eta = _units(seed)
        f2, i2 = (gen.conjugate_by_unit_symmetry(m, eps, eta) for m in (fwd, inv))
        assert gen.compose_maps(f2, i2) == (gen.X, gen.Y)
        for a, b in zip(fwd + inv, f2 + i2):
            assert {e: c[0] ** 2 + c[1] ** 2 for e, c in a.items()} == \
                {e: c[0] ** 2 + c[1] ** 2 for e, c in b.items()}


def test_shipped_inverses_are_inverses():
    for name, inverse in workloads.SHIPPED_INVERSES.items():
        _, p, q = workloads.shipped_terms(ROOT, name)
        assert gen.compose_maps((p, q), inverse) == (gen.X, gen.Y), name
        assert gen.compose_maps(inverse, (p, q)) == (gen.X, gen.Y), name


# ------------------------------------------------ D leaves the answers alone

@pytest.mark.parametrize("seed", SEEDS)
def test_unit_symmetry_keeps_box_images(seed):
    eps, eta = _units(seed)
    _, p, q = workloads.shipped_terms(ROOT, "makar_limanov")
    _, pd, qd = workloads.unit_variant(ROOT, "makar_limanov", eps, eta)
    box = [complex(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    images = {workloads._eval_map(p, q, x, y) for x in box for y in box}
    images_d = {workloads._eval_map(pd, qd, x, y) for x in box for y in box}
    assert images == images_d


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_symmetry_jacobian_up_to_unit(seed):
    eps, eta = _units(seed)
    p, q = _ml((1, 0), (1, 0))
    pd, qd = _ml(eps, eta)
    jf = gen.poly_terms(jacobian(poly.PolyMap(p, q)))
    expected = gen.pmul({(0, 0): gen.gmul(eps, eta)}, gen.apply_unit_symmetry(jf, eps, eta))
    assert jacobian(poly.PolyMap(pd, qd)) == _poly(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_unit_symmetry_keeps_fiber_counts(seed):
    pd, _ = _ml(*_units(seed))
    box = lattice.LatticeBox(workloads.FIBER_BOX)
    counts = {k: lattice.enumerate_fiber_points(pd, level, box).count()
              for k, level in zip(workloads.FIBER_LEVELS, LEVELS)}
    assert counts == workloads.PINNED_FIBER_COUNTS


# ------------------------------------------------------------------ checks

def test_cusp_divisibility_check():
    assert workloads.vanishes_on_cusp("u^6 - v^4")
    assert workloads.vanishes_on_cusp("u^4 - u*v^2")
    assert not workloads.vanishes_on_cusp("u^3 + v^2")
    assert not workloads.vanishes_on_cusp("u")


def test_reference_dhat_pinned_point():
    assert abs(workloads.reference_dhat(3, 7) - (7 - 3 * math.sqrt(3))) < 1e-12


def test_inverse_check_rejects_a_wrong_coefficient():
    check = workloads.inverse_checker(workloads.SHIPPED_INVERSES["elementary"])
    good = {"roundtrip_residual": "0", "inverse": {
        "g1": {"terms": [{"eu": 1, "ev": 0, "re_num": 1, "im_num": 0, "den": 1}]},
        "g2": {"terms": [{"eu": 0, "ev": 1, "re_num": 1, "im_num": 0, "den": 1},
                         {"eu": 2, "ev": 0, "re_num": -1, "im_num": 0, "den": 1}]}}}
    assert check(good) is None
    good["inverse"]["g2"]["terms"][1]["re_num"] = 1
    assert check(good) is not None


# ------------------------------------------------------------------ tracer

def test_patcher_replaces_every_binding_and_restores():
    orig = poly.poly_gcd
    assert exceptional.poly_gcd is orig
    patcher = spans.Patcher()
    tracer = spans.Tracer()
    patcher.patch_function(poly, "poly_gcd", tracer.span_wrapper("poly.poly_gcd"))
    try:
        assert poly.poly_gcd is not orig and exceptional.poly_gcd is poly.poly_gcd
        x = parse_expression("x^2 - 1")
        exceptional.poly_gcd(x, parse_expression("x - 1"))
        assert tracer.spans and tracer.spans[0][spans.NAME] == "poly.poly_gcd"
    finally:
        patcher.restore()
    assert poly.poly_gcd is orig and exceptional.poly_gcd is orig


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    patcher = spans.Patcher()
    tracer.install(patcher)
    try:
        job = tracer.open("job")
        exceptional.exceptional_set(poly.PolyMap(parse_expression("x"),
                                                 parse_expression("y + x^2")))
        tracer.close(job)
    finally:
        patcher.restore()
    m = spans.layer_metrics(tracer, passes=1)
    total = tracer.spans[job][spans.END] - tracer.spans[job][spans.START]
    assert m["exceptional.exceptional_set.calls"][0] == 1
    assert m["exceptional.topological_degree.calls"][0] == 1
    layer_self = sum(v for k, (v, unit) in m.items() if k.endswith(".self_s"))
    assert 0 < layer_self <= total


def test_host_speed_samples_during_a_block_and_restores_the_handler():
    import run
    speed = run.HostSpeed()
    previous = signal.getsignal(signal.SIGALRM)
    with speed.during():
        end = time.perf_counter() + 4 * run.SAMPLE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(speed.window) >= 2 and speed.paused > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
