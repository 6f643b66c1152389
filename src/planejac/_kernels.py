"""What the numeric layers share without importing NumPy, so that ``check``
and ``invert`` start without it.  ``bench/run.py`` reads ``BACKEND``; the
one numeric root path is ``roots.find_roots_batch``.
"""

BACKEND = "numpy"
#: tolerance on all <= 1 comparisons; the quantities of interest sit far away
VIOLATION_TOL = 1e-9


class RootFindingError(RuntimeError):
    pass


def to_complex(c):
    """complex(c) of an exact value c for the numeric layers; a c beyond the
    float range is a RootFindingError naming it, not an OverflowError."""
    try:
        return complex(c)
    except OverflowError:
        raise RootFindingError(f"{c} is beyond the float range") from None
