"""Dense pairwise distances and the k-nearest-neighbor graph.

Distances are dense (O(m^2 D)) and come from one ``cdist`` call at every
size; clouds here are desk scale. One graph per cloud serves the dimension
estimate, the pilot density, the kernel (through its full distance matrix
``sq``) and the kNN truncation: the sort is stable, so each smaller neighbor
list is a column prefix of the largest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import InsufficientPointsError


@dataclass(frozen=True)
class NeighborGraph:
    """k nearest neighbors per point, self excluded, ties to lower index."""

    indices: np.ndarray  # (m, k) int
    sq_dists: np.ndarray  # (m, k) float64, nondecreasing along rows
    sq: np.ndarray  # (m, m) float64 squared distances, zero diagonal


def pairwise_sq_dist(points: np.ndarray) -> np.ndarray:
    """Symmetric (m, m) matrix of squared Euclidean distances, zero diagonal."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (m, D), got shape {pts.shape}")
    sq = cdist(pts, pts, "sqeuclidean")
    np.fill_diagonal(sq, 0.0)
    return sq


def knn(points: np.ndarray, k: int) -> NeighborGraph:
    """k nearest neighbors per point by squared distance.

    Equidistant candidates are ordered by point index, so results do not
    depend on any prior shuffling of equal distances.
    """
    pts = np.asarray(points, dtype=np.float64)
    m = pts.shape[0]
    if not 1 <= k <= m - 1:
        raise InsufficientPointsError(f"k must satisfy 1 <= k <= m-1, got k={k}, m={m}")
    sq = pairwise_sq_dist(pts)
    np.fill_diagonal(sq, np.inf)
    # stable sort keeps equal distances in index order; the copy frees the (m, m) sort
    order = np.argsort(sq, axis=1, kind="stable")[:, :k].copy()
    sq_dists = sq[np.arange(m)[:, None], order]
    np.fill_diagonal(sq, 0.0)
    return NeighborGraph(indices=order, sq_dists=sq_dists, sq=sq)
