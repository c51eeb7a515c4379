"""Dense pairwise distances and the k-nearest-neighbor graph.

Distances are dense (O(m^2 D)) and come from one ``cdist`` call at every
size; clouds here are desk scale. One graph per cloud serves the dimension
estimate, the pilot density, the kernel and the kNN truncation: it holds the
neighbor lists ``indices`` and the full distance matrix ``sq``, and a
neighbor's distance is read from ``sq`` at its index. ``knn`` selects the k
nearest per row with a partition and stable-sorts only those k, ties to lower
index; the order is that of a full stable sort, so each smaller neighbor list
is a column prefix of the largest. Passes over ``sq`` walk its rows in blocks
(``row_blocks``), so their temporaries are block-sized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPointsError

ROW_BLOCK = 1 << 16  # entries per row block of an (m, m) pass; clouds up to m = 256 are one block


@dataclass(frozen=True)
class NeighborGraph:
    """k nearest neighbors per point, self excluded, ties to lower index."""

    indices: np.ndarray  # (m, k) int, nearest first
    sq: np.ndarray  # (m, m) float64 squared distances, zero diagonal


def pairwise_sq_dist(points: np.ndarray) -> np.ndarray:
    """Symmetric (m, m) matrix of squared Euclidean distances, zero diagonal."""
    from scipy.spatial.distance import cdist  # here, not at module level, so `import pointforms` loads no scipy

    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be (m, D), got shape {pts.shape}")
    sq = cdist(pts, pts, "sqeuclidean")
    np.fill_diagonal(sq, 0.0)
    return sq


def row_blocks(m: int):
    """Row slices of an (m, m) array in blocks of at most ``ROW_BLOCK`` entries (one row at least),
    each with a float64 (rows, m) scratch block reused from block to block. Row reductions of a
    C-contiguous block equal those of the same rows of the whole array, bit for bit."""
    step = max(1, ROW_BLOCK // m)
    buf = np.empty(min(step, m) * m)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        yield slice(lo, hi), buf[: (hi - lo) * m].reshape(hi - lo, m)


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
    indices = np.empty((m, k), dtype=np.intp)
    for rows, _ in row_blocks(m):
        block = sq[rows]
        # The k smallest per row are those below the k-th value plus the
        # lowest-index entries tied at it: the set a full stable sort keeps.
        kth = np.partition(block, k - 1, axis=1)[:, k - 1 : k]
        keep = block <= kth
        over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
        sub, cut = block[over], kth[over]
        below, tied = sub < cut, sub == cut
        room = k - np.count_nonzero(below, axis=1, keepdims=True)
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        # candidates come in index order, so a stable sort by distance breaks ties toward lower index
        cand = np.nonzero(keep)[1].reshape(-1, k)
        cand_sq = np.take_along_axis(block, cand, axis=1)
        order = np.argsort(cand_sq, axis=1, kind="stable")
        indices[rows] = np.take_along_axis(cand, order, axis=1)
    np.fill_diagonal(sq, 0.0)
    return NeighborGraph(indices=indices, sq=sq)
