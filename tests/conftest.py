import pytest

from planejac.poly import PolyMap

from support import UV, pe


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # load the root finder once, outside any timed region
    from planejac.roots import find_roots
    find_roots([1.0, 0.0, -1.0])


@pytest.fixture()
def fail_certification_solves(monkeypatch):
    """Every root solve raises, in ``roots.find_roots_batch``, the one
    kernel.  Certification proposes its points on a candidate component by
    slice roots, so the exceptional pipeline meets the failure there."""
    from planejac import roots

    def fail(C):
        raise roots.RootFindingError("root iteration did not converge")

    monkeypatch.setattr(roots, "find_roots_batch", fail)


@pytest.fixture(scope="session")
def ml_map():
    """The canonical dominant non-invertible example (coefficient-2 variant)."""
    return PolyMap(pe("x^6*y^4 + 2*x^2*y"), pe("x^9*y^6 + 3*x^5*y^3 + 3*x"))


@pytest.fixture(scope="session")
def ml_map_printed():
    return PolyMap(pe("x^6*y^4 + x^2*y"), pe("x^9*y^6 + 3*x^5*y^3 + 3*x"))


@pytest.fixture(scope="session")
def ml_curve():
    """The reference curve u*(u^3 - v^2) for the canonical example."""
    from planejac.exceptional import PlaneCurveSet
    return PlaneCurveSet(pe("u^4 - u*v^2", UV), ["supplied"])
