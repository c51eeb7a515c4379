"""Dense pairwise distances and k-nearest-neighbor selection."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from scipy.spatial.distance import cdist

from pointforms import InsufficientPointsError, knn, pairwise_sq_dist
from pointforms import graph as graph_module


def test_pairwise_sq_dist_345_triangle():
    pts = np.array([[0.0, 0.0], [3.0, 4.0]])
    sq = pairwise_sq_dist(pts)
    npt.assert_allclose(sq, [[0.0, 25.0], [25.0, 0.0]], rtol=0, atol=1e-12)


def test_pairwise_sq_dist_single_point():
    sq = pairwise_sq_dist(np.array([[1.0, 2.0, 3.0]]))
    npt.assert_array_equal(sq, [[0.0]])


def test_pairwise_sq_dist_duplicates_are_exactly_zero():
    pts = np.array([[0.7, -1.3], [0.7, -1.3], [2.0, 0.0]])
    sq = pairwise_sq_dist(pts)
    assert sq[0, 1] == 0.0 and sq[1, 0] == 0.0


def test_pairwise_sq_dist_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((40, 3))
    sq = pairwise_sq_dist(pts)
    brute = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    npt.assert_allclose(sq, brute, rtol=0, atol=1e-10)
    npt.assert_array_equal(sq, sq.T)
    assert (sq >= 0).all()
    npt.assert_array_equal(np.diag(sq), np.zeros(len(pts)))


def test_pairwise_sq_dist_large_cloud_uses_same_values():
    # A large, offset cloud (m^2 D = 2.9e6) still matches the brute-force sum.
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((600, 8)) * 3.0 + 5.0
    sq = pairwise_sq_dist(pts)
    idx = rng.integers(0, 600, size=50)
    jdx = rng.integers(0, 600, size=50)
    brute = ((pts[idx] - pts[jdx]) ** 2).sum(axis=1)
    npt.assert_allclose(sq[idx, jdx], brute, rtol=1e-10, atol=1e-8)


@pytest.mark.parametrize("D", [1, 2, 12, 48])
@pytest.mark.parametrize("m", [40, 300])  # 300 rows span two row blocks
@pytest.mark.parametrize("scale, offset", [(1.0, 0.0), (1e3, -4e6)], ids=["unit", "offset"])
def test_pairwise_sq_dist_equals_cdist_bitwise(m, D, scale, offset):
    pts = np.random.default_rng(m + D).standard_normal((m, D)) * scale + offset
    sq = pairwise_sq_dist(pts)
    assert sq.dtype == np.float64 and sq.shape == (m, m)
    assert sq.tobytes() == cdist(pts, pts, "sqeuclidean").tobytes()
    assert sq.tobytes() == np.ascontiguousarray(sq.T).tobytes()  # exactly symmetric


def test_pairwise_sq_dist_spans_row_blocks_at_300_points():
    assert len(list(graph_module.row_blocks(300))) == 2


@pytest.mark.parametrize(
    "shape", [(5, 0), (0, 3), (0, 0), (1, 4)], ids=["no-coords", "no-points", "empty", "one-point"]
)
def test_pairwise_sq_dist_edge_shapes_keep_cdists_answer(shape):
    pts = np.random.default_rng(0).standard_normal(shape)
    sq = pairwise_sq_dist(pts)
    assert sq.shape == (shape[0], shape[0])
    assert sq.tobytes() == cdist(pts, pts, "sqeuclidean").tobytes()
    npt.assert_array_equal(sq, np.zeros((shape[0], shape[0])))


def test_pairwise_sq_dist_allocates_only_its_output():
    m, D = 1000, 8
    pts = np.random.default_rng(3).standard_normal((m, D))
    tracemalloc.start()
    try:
        pairwise_sq_dist(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * m * m * 8, f"peak {peak / (m * m * 8):.1f}x the (m, m) float64 output"


def test_knn_collinear_nearest_by_inspection():
    pts = np.array([[0.0], [1.0], [3.0]])
    graph = knn(pts, 1)
    npt.assert_array_equal(graph.indices[:, 0], [1, 0, 1])


def test_knn_tie_breaks_toward_lower_index():
    # Integer coordinates make the two candidate distances exactly equal.
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    graph = knn(pts, 1)
    npt.assert_array_equal(graph.indices[:, 0], [1, 0, 0])


def test_knn_full_neighborhood_is_a_permutation():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((25, 4))
    graph = knn(pts, 24)
    sq = pairwise_sq_dist(pts)
    for i in range(25):
        others = np.delete(np.arange(25), i)
        assert sorted(graph.indices[i]) == sorted(others)
        # Brute-force full sort oracle: distances must be nondecreasing
        # and match an independent argsort of the full row.
        row = graph.sq[i, graph.indices[i]]
        assert (np.diff(row) >= 0).all()
        npt.assert_allclose(row, np.sort(sq[i][others]), rtol=0, atol=1e-12)


def _lattice(n):
    return np.stack(np.meshgrid(np.arange(n, dtype=float), np.arange(n, dtype=float)), axis=-1).reshape(-1, 2)


@pytest.mark.parametrize(
    "pts",
    [
        np.random.default_rng(4).standard_normal((40, 2)),
        np.random.default_rng(5).standard_normal((30, 12)),
        _lattice(6),
        np.repeat(np.random.default_rng(6).standard_normal((12, 3)), 3, axis=0),
        np.vstack([_lattice(5), _lattice(5)[::3]]),
    ],
    ids=["random-2d", "random-12d", "lattice", "triplicates", "lattice-with-duplicates"],
)
def test_knn_equals_the_full_stable_sort_for_every_k(pts, monkeypatch):
    # Lattices tie at the k-th distance on almost every row; duplicates tie at zero.
    m = len(pts)
    sq = pairwise_sq_dist(pts)
    np.fill_diagonal(sq, np.inf)
    order = np.argsort(sq, axis=1, kind="stable")
    for row_block in (graph_module.ROW_BLOCK, 3 * m):  # one block, then blocks of three rows
        monkeypatch.setattr(graph_module, "ROW_BLOCK", row_block)
        for k in range(1, m):
            graph = knn(pts, k)
            npt.assert_array_equal(graph.indices, order[:, :k], err_msg=f"k={k}")
            assert graph.indices.dtype == order.dtype
    npt.assert_array_equal(graph.sq, pairwise_sq_dist(pts))


def test_knn_excludes_self_even_with_duplicates():
    pts = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    graph = knn(pts, 1)
    assert graph.indices[0, 0] != 0
    assert graph.indices[1, 0] != 1
    assert graph.sq[0, graph.indices[0, 0]] == 0.0


def test_knn_rejects_too_few_points():
    with pytest.raises(InsufficientPointsError):
        knn(np.zeros((3, 2)), 3)
    with pytest.raises(InsufficientPointsError):
        knn(np.zeros((1, 2)), 1)
