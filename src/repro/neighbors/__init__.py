"""Nearest-neighbour substrate: distances and the exact brute-force KNN index.

The index is :class:`BruteKNN`.
"""

from repro.neighbors.brute import BruteKNN
from repro.neighbors.distance import (
    MixedMetric,
    TableNeighborSpace,
    pairwise_euclidean,
)

__all__ = [
    "BruteKNN",
    "MixedMetric",
    "TableNeighborSpace",
    "pairwise_euclidean",
]
