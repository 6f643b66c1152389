"""Exists only because ``bench/run.py`` reads ``BACKEND`` for its environment
record.  The one numeric root path is ``roots.find_roots_batch``:
companion-matrix eigenvalues and a NumPy Newton polish.
"""

BACKEND = "numpy"
