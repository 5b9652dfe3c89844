"""Import location of the removed ball tree.

``BallTree`` is :class:`~repro.neighbors.brute.BruteKNN`, the one exact KNN
index, under its old name.  It stays importable from this path only because
the benchmark tracer (``perfbench/spans.py``) wraps it here; it is not
exported from :mod:`repro.neighbors`.
"""

from repro.neighbors.brute import BruteKNN


class BallTree(BruteKNN):
    """Old name of :class:`~repro.neighbors.brute.BruteKNN` (same index)."""
