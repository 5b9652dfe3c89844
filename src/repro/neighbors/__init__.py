"""Nearest-neighbour substrate: distances, the exact brute-force KNN index
(:class:`BruteKNN`), and the blocked kernel layer
(:mod:`repro.neighbors.kernels`)."""

from repro.neighbors.brute import BruteKNN
from repro.neighbors.distance import (
    MixedMetric,
    TableNeighborSpace,
    pairwise_euclidean,
)
from repro.neighbors.kernels import (
    CODED_SELF_DISTANCE_TOL,
    CodedLayout,
    NumpyDistanceBackend,
    kneighbors_blocked,
    resolve_distance_backend,
)

__all__ = [
    "BruteKNN",
    "CODED_SELF_DISTANCE_TOL",
    "CodedLayout",
    "MixedMetric",
    "NumpyDistanceBackend",
    "TableNeighborSpace",
    "kneighbors_blocked",
    "pairwise_euclidean",
    "resolve_distance_backend",
]
