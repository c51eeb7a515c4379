"""Variable-bandwidth diffusion Laplacian assembly and its density pilot."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse as sp

from pointforms import (
    ConfigurationError,
    DegenerateDensityError,
    DimensionEstimateError,
    InsufficientPointsError,
    IsolatedPointError,
    LaplacianParams,
    apply_laplacian,
    auto_bandwidth_scale,
    build_laplacian,
    estimate_density,
    estimate_dimension,
    knn,
    unit_circle,
    unit_sphere,
)
from pointforms import graph as graph_module


def _circle_points(n: int, seed: int = 0) -> np.ndarray:
    pts, _ = unit_circle().sample(n, np.random.default_rng(seed))
    return pts


# ---------------------------------------------------------------------------
# parameter validation


def test_params_validation_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        LaplacianParams(epsilon=0.0).validate(10)
    with pytest.raises(ConfigurationError):
        LaplacianParams(k0=1).validate(10)
    with pytest.raises(ConfigurationError):
        LaplacianParams(bandwidth_scale="fixed").validate(10)
    with pytest.raises(ConfigurationError):
        LaplacianParams(d="auto").validate(10)
    with pytest.raises(InsufficientPointsError):
        LaplacianParams(knn=10).validate(10)


@pytest.mark.parametrize(
    "bad",
    [
        {"knn": "foo"},
        {"d": "auto"},
        {"bandwidth_scale": "fixed"},
        {"epsilon": 0.0},
        {"k0": 1},
        {"d": 0},
        {"knn": 0},
        {"epsilon": np.inf},
        {"epsilon": np.nan},
        {"alpha": np.nan},
        {"alpha": np.inf},
        {"beta": np.nan},
        {"beta": -np.inf},
    ],
    ids=[
        "knn-word",
        "d-word",
        "bandwidth-scale",
        "epsilon",
        "k0",
        "d-zero",
        "knn-zero",
        "epsilon-inf",
        "epsilon-nan",
        "alpha-nan",
        "alpha-inf",
        "beta-nan",
        "beta-minus-inf",
    ],
)
def test_params_reject_size_free_values_at_construction(bad):
    with pytest.raises(ConfigurationError):
        LaplacianParams(**bad)


# ---------------------------------------------------------------------------
# dimension estimation


def test_dimension_estimate_circle_is_one():
    pts = _circle_points(500)
    assert estimate_dimension(pts, knn(pts, 16)) == 1


def test_dimension_estimate_sphere_is_two():
    pts, _ = unit_sphere().sample(700, np.random.default_rng(1))
    assert estimate_dimension(pts, knn(pts, 16)) == 2


def test_dimension_estimate_identical_points_rejected():
    with pytest.raises(DimensionEstimateError):
        estimate_dimension(np.ones((20, 3)), knn(np.ones((20, 3)), 16))


# ---------------------------------------------------------------------------
# pilot density


def test_density_two_points_closed_form():
    est = estimate_density(knn(np.array([[0.0], [1.0]]), 1), k0=2, d=1, pilot=True)
    npt.assert_allclose(est.rho0, [1.0, 1.0], atol=1e-15)
    assert est.eps0 == pytest.approx(1.0)
    expected_q0 = (2.0 * np.pi) ** -0.5 * 0.5 * (1.0 + np.exp(-0.5))
    npt.assert_allclose(est.q0, [expected_q0, expected_q0], rtol=1e-13)
    assert expected_q0 == pytest.approx(0.3204, abs=1e-4)


def test_density_scale_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.standard_normal((60, 3))
    c = 2.5
    base = estimate_density(knn(pts, 5), k0=6, d=2, pilot=True)
    scaled = estimate_density(knn(c * pts, 5), k0=6, d=2, pilot=True)
    npt.assert_allclose(scaled.rho0, c * base.rho0, rtol=1e-12)
    assert scaled.eps0 == pytest.approx(c**2 * base.eps0, rel=1e-12)
    npt.assert_allclose(scaled.q0, base.q0 / c**2, rtol=1e-12)


def test_density_uniform_circle_matches_continuum():
    est = estimate_density(knn(_circle_points(2000), 7), k0=8, d=1, pilot=True)
    median_q0 = float(np.median(est.q0))
    assert abs(median_q0 - 1.0 / (2.0 * np.pi)) <= 0.15 / (2.0 * np.pi)


def test_pilot_density_is_computed_only_where_it_is_read():
    pts = _circle_points(100, seed=3)
    graph = knn(pts, 7)
    assert estimate_density(graph, d=1).q0 is None
    assert build_laplacian(pts, LaplacianParams(d=1)).density.q0 is None
    raw = LaplacianParams(d=1, bandwidth_scale="raw")
    q0 = build_laplacian(pts, raw).density.q0  # the raw bandwidth reads it
    assert np.array_equal(q0, estimate_density(graph, d=1, pilot=True).q0)
    # asked for, it is the same pilot, and the operator is unchanged
    for params in (LaplacianParams(d=1), raw):
        alone, pilot = build_laplacian(pts, params), build_laplacian(pts, params, pilot=True)
        assert np.array_equal(alone.L.toarray(), pilot.L.toarray())
        assert np.array_equal(pilot.density.q0, q0)


def test_density_rejects_coincident_points():
    with pytest.raises(DegenerateDensityError):
        estimate_density(knn(np.zeros((10, 2)), 2), k0=3, d=1)


# ---------------------------------------------------------------------------
# operator assembly


@pytest.mark.parametrize(
    "params", [LaplacianParams(), LaplacianParams(knn="full", d=1)], ids=["defaults", "full-d1"]
)
def test_build_laplacian_sorts_and_measures_distances_once(params, monkeypatch):
    from pointforms import graph, laplacian

    calls = {"knn": 0, "pairwise_sq_dist": 0}
    for mod in (graph, laplacian):
        for name in calls:
            if hasattr(mod, name):
                def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(mod, name, counted)
    build_laplacian(_circle_points(128, seed=5), params)
    assert calls == {"knn": 1, "pairwise_sq_dist": 1}


def test_laplacian_annihilates_constants():
    rng = np.random.default_rng(3)
    op = build_laplacian(rng.standard_normal((80, 3)))
    residual = apply_laplacian(op, np.ones(80))
    assert np.abs(residual).max() <= 1e-12


def test_raw_flat_bandwidth_reduces_to_fixed_kernel():
    # With beta=0 and alpha=0 the kernel must collapse to the classical
    # fixed-bandwidth Gaussian exp(-r^2 / (4 eps)), row-normalized.
    rng = np.random.default_rng(4)
    pts = rng.standard_normal((30, 2))
    eps = 0.7
    params = LaplacianParams(
        epsilon=eps, alpha=0.0, beta=0.0, k0=4, knn="full", d=2, bandwidth_scale="raw"
    )
    op = build_laplacian(pts, params)
    sq = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    K = np.exp(-sq / (4.0 * eps))
    K_hat = K / K.sum(axis=1, keepdims=True)
    expected = (np.eye(30) - K_hat) / eps
    npt.assert_allclose(op.L.toarray(), expected, atol=1e-12)
    npt.assert_allclose(op.rho, np.ones(30), atol=1e-15)


def test_raw_pipeline_matches_literal_dense_oracle():
    # Straight-line re-implementation of every assembly step on three
    # collinear points, compared entrywise against the library.
    pts = np.array([[0.0], [1.0], [2.0]])
    eps, alpha, beta, k0, d = 1.0, 0.0, -0.5, 2, 1
    m = 3

    # pilot scales: mean squared distance to the k0-1 nearest others
    sq = (pts[:, None, 0] - pts[None, :, 0]) ** 2
    off = sq + np.diag([np.inf] * m)
    nearest = np.sort(off, axis=1)[:, : k0 - 1]
    rho0 = np.sqrt(nearest.mean(axis=1))
    # pilot density with pairwise bandwidth 2 rho0_i rho0_j, self included
    q0 = (2 * np.pi) ** (-0.5 * d) * np.exp(-sq / (2 * np.outer(rho0, rho0))).sum(1) / (rho0**d * m)
    rho = q0**beta
    K = np.exp(-sq / (4.0 * eps * np.outer(rho, rho)))
    q_eps = K.sum(axis=1) / rho**d
    K_alpha = K / (np.outer(q_eps**alpha, q_eps**alpha))
    K_hat = K_alpha / K_alpha.sum(axis=1, keepdims=True)
    expected_L = (np.eye(m) - K_hat) / (eps * rho**2)[:, None]

    params = LaplacianParams(
        epsilon=eps, alpha=alpha, beta=beta, k0=k0, knn="full", d=d, bandwidth_scale="raw"
    )
    op = build_laplacian(pts, params)
    npt.assert_allclose(op.L.toarray(), expected_L, atol=1e-12)
    npt.assert_allclose(op.rho, rho, atol=1e-12)
    npt.assert_allclose(op.q_eps, q_eps, atol=1e-12)
    npt.assert_allclose(op.density.q0, q0, atol=1e-12)
    assert op.eps_star == 1.0


def test_auto_mode_scale_equivariance():
    pts = _circle_points(200, seed=5)
    c = 3.0
    params = LaplacianParams(knn="full", d=1)
    base = build_laplacian(pts, params).L.toarray()
    scaled = build_laplacian(c * pts, params).L.toarray()
    npt.assert_allclose(scaled, base / c**2, rtol=1e-10, atol=1e-12)


def test_auto_bandwidth_scale_formula():
    pts = _circle_points(300, seed=6)
    eps0 = estimate_density(knn(pts, 7), d=1).eps0
    centered = pts - pts.mean(axis=0)
    r2 = float((centered**2).sum() / len(pts))
    expected = 0.5 * r2 * (eps0 / r2) ** (1.0 / 5.0)
    assert auto_bandwidth_scale(pts, eps0, 1) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(DegenerateDensityError):
        auto_bandwidth_scale(np.ones((5, 2)), 0.1, 1)


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    pts = _circle_points(120, seed=8)
    perm = rng.permutation(120)
    params = LaplacianParams(knn="full", d=1)
    L = build_laplacian(pts, params).L.toarray()
    L_perm = build_laplacian(pts[perm], params).L.toarray()
    npt.assert_allclose(L_perm, L[np.ix_(perm, perm)], atol=1e-12)


def test_knn_truncation_union_symmetrized():
    # Truncated kernel keeps entry (i, j) whenever either point lists the
    # other among its neighbors, so L's sparsity pattern is symmetric.
    pts = _circle_points(100, seed=9)
    op = build_laplacian(pts, LaplacianParams(knn=6, d=1))
    K_pattern = (op.L.toarray() != 0) | np.eye(100, dtype=bool)
    npt.assert_array_equal(K_pattern, K_pattern.T)
    assert apply_laplacian(op, np.ones(100)).max() <= 1e-12


def test_alpha_variants_stay_calibrated():
    # Density normalization must not destroy the constant kernel or move
    # the operator far from its alpha=0 behavior on uniform data.
    pts = _circle_points(400, seed=10)
    f = pts[:, 0]
    reference = None
    for alpha in (0.0, 0.5, 1.0):
        op = build_laplacian(pts, LaplacianParams(alpha=alpha, knn="full", d=1))
        assert np.abs(apply_laplacian(op, np.ones(400))).max() <= 1e-12
        lf = apply_laplacian(op, f)
        if reference is None:
            reference = lf
        else:
            scale = np.abs(reference).max()
            assert np.abs(lf - reference).max() <= 0.2 * scale


def test_isolated_point_rejected():
    pts = np.array([[0.0], [1.0], [1e9]])
    params = LaplacianParams(beta=0.0, k0=2, knn="full", d=1, bandwidth_scale="raw")
    with pytest.raises(IsolatedPointError):
        build_laplacian(pts, params)


def test_build_rejects_bad_shapes():
    with pytest.raises(ConfigurationError):
        build_laplacian(np.zeros(5))


def _dense_assembly(pts, params):
    """Reference: density and operator from whole (m, m) temporaries, one expression per step."""
    m = pts.shape[0]
    n_neighbors = None if params.knn == "full" else min(64, m - 1) if params.knn == "default" else int(params.knn)
    k_max = max(params.k0 - 1, n_neighbors or 0, 16 if params.d == "estimate" else 0)
    graph = knn(pts, min(k_max, m - 1))
    d = estimate_dimension(pts, graph) if params.d == "estimate" else int(params.d)
    sq = graph.sq

    rho0 = np.sqrt(sq[np.arange(m)[:, None], graph.indices[:, : params.k0 - 1]].mean(axis=1))
    band = 2.0 * rho0[:, None] * rho0[None, :]
    weights = np.exp(-sq / band)
    q0 = (2.0 * np.pi) ** (-0.5 * d) * weights.sum(axis=1) / (rho0**d * m)

    if params.bandwidth_scale == "raw":
        rho = q0**params.beta
    else:
        eps_star = auto_bandwidth_scale(pts, float(rho0.mean()) ** 2, d)
        log_q = np.log(np.exp(-0.25 * sq / eps_star).sum(axis=1))
        rho = np.sqrt(eps_star) * np.exp(params.beta * (log_q - log_q.mean()))
    K = np.exp(-0.25 * (sq / (params.epsilon * rho[:, None] * rho[None, :])))
    if n_neighbors is not None:
        mask = np.zeros((m, m), dtype=bool)
        mask[np.arange(m)[:, None], graph.indices[:, :n_neighbors]] = True
        mask |= mask.T
        np.fill_diagonal(mask, True)
        K = np.where(mask, K, 0.0)
    q_eps = K.sum(axis=1) / rho**d
    K_alpha = K / (q_eps[:, None] ** params.alpha * q_eps[None, :] ** params.alpha)
    K_hat = K_alpha / K_alpha.sum(axis=1)[:, None]
    L = (np.eye(m) - K_hat) / (params.epsilon * rho**2)[:, None]
    flat = np.flatnonzero(L)
    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(L, axis=1), out=indptr[1:])
    csr = {"data": L.ravel()[flat], "indices": (flat % m).astype(np.int32), "indptr": indptr}
    return csr, {"rho": rho, "q_eps": q_eps, "q0": q0, "rho0": rho0}


@pytest.mark.parametrize(
    "params, cloud",
    [
        (LaplacianParams(knn="full", d=1), "blob"),
        (LaplacianParams(), "blob"),
        (LaplacianParams(knn=10, alpha=0.5, epsilon=0.7), "blob"),
        (LaplacianParams(knn="full", alpha=1.0, bandwidth_scale="raw", epsilon=0.3), "blob"),
        # K underflows to 0 in 88 of the 90 rows, so the CSR values compact across gaps
        (LaplacianParams(knn="full", d=1, epsilon=0.005), "circle"),
        # truncated, and K underflows to 0 inside the graph in 24 rows, with the alpha division
        (LaplacianParams(knn=20, alpha=1.0, d=1, epsilon=0.001), "circle"),
        # the kernel sums at both ends of the float range: sq near 1e-300 and near 1e300
        (LaplacianParams(), "tiny-blob"),
        (LaplacianParams(), "huge-blob"),
    ],
    ids=[
        "full",
        "defaults",
        "knn10-alpha0.5",
        "raw-full-alpha1",
        "full-underflow",
        "knn20-alpha1-underflow",
        "defaults-1e-150",
        "defaults-1e150",
    ],
)
@pytest.mark.parametrize("rows_per_block", [None, 50, 7, 1], ids=["one-block", "two-blocks", "many-blocks", "row-by-row"])
def test_row_block_assembly_equals_dense_assembly_bitwise(params, cloud, rows_per_block, monkeypatch):
    m = 90
    if cloud == "circle":
        pts = _circle_points(m, seed=15)
    else:
        pts = np.random.default_rng(15).standard_normal((m, 3))
        pts[:, 2] *= 0.1
        pts *= {"blob": 1.0, "tiny-blob": 1e-150, "huge-blob": 1e150}[cloud]
    csr, vectors = _dense_assembly(pts, params)
    if cloud == "circle":
        assert csr["indptr"][-1] < m * m
    if rows_per_block is not None:
        monkeypatch.setattr(graph_module, "ROW_BLOCK", rows_per_block * m)
    op = build_laplacian(pts, params, pilot=True)
    for name, want in csr.items():
        got = getattr(op.L, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), name
    got = {"rho": op.rho, "q_eps": op.q_eps, "q0": op.density.q0, "rho0": op.density.rho0}
    for name, want in vectors.items():
        assert np.array_equal(got[name], want), name


def test_full_build_allocates_about_the_distances_and_the_operator():
    # sq (m^2 float64), overwritten as K, then L, then holding L's CSR values, plus int32 indices
    m = 2000
    pts = _circle_points(m, seed=16)
    params = LaplacianParams(knn="full", d=1)
    build_laplacian(pts[:100], params)  # loads scipy.sparse outside the trace
    tracemalloc.start()
    try:
        op = build_laplacian(pts, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.L.nnz == m * m
    assert peak < 14 * m * m, f"peak {peak / (m * m):.1f} bytes per entry of the (m, m) operator"


# ---------------------------------------------------------------------------
# operator application


@pytest.mark.parametrize(
    "params, every_entry",
    [
        (LaplacianParams(d=1, knn="full"), True),
        (LaplacianParams(d=1), False),
        (LaplacianParams(d=1, knn="full", epsilon=0.003), False),  # K underflows to 0 off the band
    ],
    ids=["full", "default", "full-underflow"],
)
def test_operator_csr_arrays_equal_scipy_conversion_of_the_dense_operator(params, every_entry):
    op = build_laplacian(_circle_points(200, seed=7), params)
    ref = sp.csr_matrix(op.L.toarray())  # drops explicit zeros, sorts indices
    for name in ("data", "indices", "indptr"):
        got, want = getattr(op.L, name), getattr(ref, name)
        assert got.dtype == want.dtype
        npt.assert_array_equal(got, want)
    assert op.L.has_sorted_indices and ref.has_sorted_indices
    assert (op.L.nnz == 200 * 200) == every_entry


def test_apply_indicator_reads_columns():
    pts = _circle_points(50, seed=11)
    op = build_laplacian(pts, LaplacianParams(knn="full", d=1))
    dense = op.L.toarray()
    e3 = np.zeros(50)
    e3[3] = 1.0
    npt.assert_allclose(apply_laplacian(op, e3), dense[:, 3], atol=1e-14)


@pytest.mark.parametrize("shape", [(60,), (60, 3)])
def test_apply_by_many_row_blocks_matches_dense_product(shape, monkeypatch):
    op = build_laplacian(_circle_points(60, seed=13), LaplacianParams(knn="full", d=1))
    f = np.random.default_rng(14).standard_normal(shape)
    monkeypatch.setattr(graph_module, "ROW_BLOCK", 7 * 60)  # nine blocks, the last of four rows
    got = apply_laplacian(op, f)
    assert got.shape == shape
    npt.assert_allclose(got, op.L.toarray() @ f, atol=1e-12)


def test_apply_is_linear_and_matches_dense_product():
    rng = np.random.default_rng(12)
    pts = _circle_points(60, seed=13)
    op = build_laplacian(pts, LaplacianParams(knn="full", d=1))
    dense = op.L.toarray()
    f = rng.standard_normal(60)
    h = rng.standard_normal((60, 2))
    npt.assert_allclose(apply_laplacian(op, f), dense @ f, atol=1e-12)
    npt.assert_allclose(apply_laplacian(op, h), dense @ h, atol=1e-12)
    lhs = apply_laplacian(op, 2.0 * f + h[:, 0])
    rhs = 2.0 * apply_laplacian(op, f) + apply_laplacian(op, h[:, 0])
    npt.assert_allclose(lhs, rhs, atol=1e-12)


def test_apply_rejects_wrong_length():
    op = build_laplacian(_circle_points(40, seed=14), LaplacianParams(knn="full", d=1))
    with pytest.raises(ConfigurationError):
        apply_laplacian(op, np.ones(41))
