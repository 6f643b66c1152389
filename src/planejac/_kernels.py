"""What the numeric layers share without importing NumPy, so that ``check``
and ``invert`` start without it.  ``bench/run.py`` reads ``BACKEND``; the
one numeric root path is ``roots.find_roots_batch``.
"""

BACKEND = "numpy"
#: tolerance on all <= 1 comparisons; the quantities of interest sit far away
VIOLATION_TOL = 1e-9


class RootFindingError(RuntimeError):
    pass
