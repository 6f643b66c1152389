import pytest

from planejac.poly import PolyMap

from support import UV, pe


@pytest.fixture(scope="session", autouse=True)
def _warm_kernels():
    # load the root finder once, outside any timed region
    from planejac.roots import find_roots
    find_roots([1.0, 0.0, -1.0])


@pytest.fixture()
def fail_root_solves(monkeypatch):
    """Every root solve raises, in ``roots.find_roots_batch``, the one
    kernel."""
    from planejac import roots

    def fail(C):
        raise roots.RootFindingError("root iteration did not converge")

    monkeypatch.setattr(roots, "find_roots_batch", fail)


@pytest.fixture()
def dense_only(monkeypatch):
    """Fails a test whose remainder sequence runs on Poly entries instead of
    Gaussian-integer scalars."""
    from planejac import poly
    real = poly._subresultant_prs

    def checked(A, B):
        assert all(isinstance(c, poly.Zi) for c in A + B)
        return real(A, B)

    monkeypatch.setattr(poly, "_subresultant_prs", checked)


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
