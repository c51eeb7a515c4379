"""Closed-form manifold oracles, quadrature, samplers, and the studies."""

import dataclasses
import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import i0
from scipy.stats import chisquare

from pointforms import (
    ConfigurationError,
    ConfigurationWarning,
    InvalidDegreeError,
    LaplacianParams,
    MANIFOLDS,
    OraclePrecisionError,
    aggregate_metric,
    build_laplacian,
    chart_quadrature,
    compound_gram_field,
    convergence_study,
    coordinate_form,
    density_check,
    flat_torus,
    gram_field_1,
    line_segment,
    oracle_global_inner_product,
    oracle_gram_1,
    oracle_gram_k,
    unit_circle,
    unit_sphere,
    von_mises_sampler,
)
from pointforms import oracle
from pointforms.data import GramField


def _random_chart_points(manifold, n, seed):
    rng = np.random.default_rng(seed)
    _, u = manifold.sample(n, rng)
    return u


# ---------------------------------------------------------------------------
# oracle Gram fields are tangent projectors


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_oracle_gram_1_is_projector_with_trace_d(name):
    manifold = MANIFOLDS[name]()
    u = _random_chart_points(manifold, 25, seed=0)
    g = oracle_gram_1(manifold, u)
    assert g.shape == (25, manifold.ambient_dim, manifold.ambient_dim)
    for slice_ in g:
        npt.assert_allclose(slice_ @ slice_, slice_, atol=1e-12)
        npt.assert_allclose(slice_, slice_.T, atol=1e-14)
        assert np.trace(slice_) == pytest.approx(manifold.intrinsic_dim, abs=1e-12)
        eigs = np.linalg.eigvalsh(slice_)
        assert np.abs(eigs - np.round(eigs)).max() <= 1e-10


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_tangent_frames_are_orthonormal(name):
    manifold = MANIFOLDS[name]()
    u = _random_chart_points(manifold, 20, seed=3)
    frames = manifold.tangent_frame(u)
    d = manifold.intrinsic_dim
    for frame in frames:
        npt.assert_allclose(frame @ frame.T, np.eye(d), atol=1e-12)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_sampling_density_integrates_to_one(name):
    manifold = MANIFOLDS[name]()
    total = chart_quadrature(
        lambda u, w: w @ (manifold.density(u) * manifold.volume_element(u)), manifold.domain
    )
    assert total == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("name", sorted(MANIFOLDS))
def test_samples_follow_the_sampling_density(name):
    # chart bins, each expected to hold n times its integral of density x volume element
    manifold = MANIFOLDS[name]()
    n, bins = 4000, 6
    _, u = manifold.sample(n, np.random.default_rng(11))
    edges = [np.linspace(lo, hi, bins + 1) for lo, hi in manifold.domain]
    counts, _ = np.histogramdd(u, bins=edges)

    def mass(u, w):
        return w @ (manifold.density(u) * manifold.volume_element(u))

    # one (lo, hi) pair per chart axis, in the ravel order of the counts
    boxes = itertools.product(*(zip(e[:-1], e[1:]) for e in edges))
    expected = np.array([chart_quadrature(mass, box) for box in boxes])
    assert counts.sum() == n and expected.sum() == pytest.approx(1.0, abs=1e-6)
    assert chisquare(counts.ravel(), n * expected / expected.sum()).pvalue > 1e-3


def test_replaced_sampler_is_the_one_called():
    # a tracer swaps a manifold's sampler in with dataclasses.replace
    calls = []

    def sample(n, rng):
        calls.append(n)
        return np.zeros((n, 2)), np.zeros((n, 1))

    traced = dataclasses.replace(unit_circle(), sample=sample)
    traced.sample(3, np.random.default_rng(0))
    assert calls == [3]
    for name in sorted(MANIFOLDS):
        manifold = dataclasses.replace(MANIFOLDS[name](), sample=sample)
        assert manifold.intrinsic_dim == len(manifold.domain)


def test_oracle_circle_north_point():
    g = oracle_gram_1(unit_circle(), np.array([[np.pi / 2]]))
    npt.assert_allclose(g[0], [[1.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_oracle_line_constant_projector():
    manifold = line_segment()
    u = np.linspace(-0.9, 0.9, 7)[:, None]
    g = oracle_gram_1(manifold, u)
    for slice_ in g:
        npt.assert_allclose(slice_, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)


def test_oracle_sphere_is_ambient_complement():
    manifold = unit_sphere()
    u = _random_chart_points(manifold, 10, seed=1)
    pts = manifold.embed(u)
    g = oracle_gram_1(manifold, u)
    for p, slice_ in zip(pts, g):
        npt.assert_allclose(slice_, np.eye(3) - np.outer(p, p), atol=1e-12)


@pytest.mark.parametrize("name, k", [("circle", 2), ("sphere", 3), ("torus", 3)])
def test_oracle_gram_k_above_intrinsic_dim_vanishes(name, k):
    manifold = MANIFOLDS[name]()
    u = _random_chart_points(manifold, 6, seed=4)
    gk = oracle_gram_k(manifold, u, k)
    B = math.comb(manifold.ambient_dim, k)
    assert gk.shape == (6, B, B)
    npt.assert_allclose(gk, 0.0, atol=1e-14)


def test_oracle_sphere_pole_degree_two():
    g2 = oracle_gram_k(unit_sphere(), np.array([[0.0, 0.0]]), 2)
    npt.assert_allclose(g2[0], np.diag([1.0, 0.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("name", ["sphere", "torus"])
def test_oracle_gram_k_is_compound_of_gram_1(name):
    manifold = MANIFOLDS[name]()
    u = _random_chart_points(manifold, 8, seed=2)
    g1 = GramField(D=manifold.ambient_dim, k=1, values=oracle_gram_1(manifold, u))
    expected = compound_gram_field(g1, 2).values
    npt.assert_allclose(oracle_gram_k(manifold, u, 2), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# quadrature


def test_chart_quadrature_sin_squared():
    val = chart_quadrature(lambda u, w: w @ np.sin(u[:, 0]) ** 2, ((0.0, 2.0 * np.pi),))
    assert val == pytest.approx(np.pi, rel=1e-10)


def test_chart_quadrature_2d_separable():
    val = chart_quadrature(
        lambda u, w: w @ (np.sin(u[:, 0]) ** 2 * np.cos(u[:, 1]) ** 2),
        ((0.0, 2.0 * np.pi), (0.0, 2.0 * np.pi)),
    )
    assert val == pytest.approx(np.pi**2, rel=1e-10)


def test_chart_quadrature_flags_nonsmooth_integrand(monkeypatch):
    nodes = []

    def integral(u, w):
        nodes.append(len(w))
        return w @ np.abs(u[:, 0]) ** -0.9

    monkeypatch.setattr(oracle, "_QUAD_MAX_NODES", 64 * oracle._QUAD_ORDER)
    with pytest.raises(OraclePrecisionError, match=r"at 64 panels per axis \(768 nodes\)"):
        chart_quadrature(integral, ((0.0, 1.0),))
    assert max(nodes) == 768


@pytest.mark.parametrize("dim, panels", [(1, 16384), (2, 32)], ids=["1d", "2d"])
def test_chart_quadrature_caps_nodes_in_every_dimension(dim, panels):
    nodes = []

    def integral(u, w):
        nodes.append(len(w))
        return w @ np.abs(u[:, 0] - 1.0 / 3.0) ** -0.9

    with pytest.raises(OraclePrecisionError, match=f"at {panels} panels per axis"):
        chart_quadrature(integral, ((0.0, 1.0),) * dim)
    assert max(nodes) == (panels * oracle._QUAD_ORDER) ** dim <= oracle._QUAD_MAX_NODES


def test_global_oracle_circle_values():
    circle = unit_circle()
    dxdy = np.stack([coordinate_form(2, 1), coordinate_form(2, 2)])
    volume = oracle_global_inner_product(circle, dxdy, 1, "volume")
    assert volume[0, 0] == pytest.approx(np.pi, rel=1e-8)
    assert volume[0, 1] == pytest.approx(0.0, abs=1e-10)
    assert oracle_global_inner_product(circle, dxdy, 1, "density")[0, 0] == pytest.approx(0.5, rel=1e-8)


def test_global_oracle_circle_volume_matrix_of_coordinate_forms():
    c = oracle_global_inner_product(unit_circle(), np.eye(2), 1)
    assert c.shape == (2, 2)
    npt.assert_array_equal(c, c.T)
    npt.assert_allclose(np.diag(c), [np.pi, np.pi], rtol=1e-8)
    assert abs(c[0, 1]) <= 1e-10


def test_global_oracle_sphere_and_torus_values():
    sphere = unit_sphere()
    dx3 = coordinate_form(3, 1)[None, :]
    # integral of 1 - x^2 over the unit sphere: 4 pi - 4 pi / 3
    assert oracle_global_inner_product(sphere, dx3, 1, "volume")[0, 0] == pytest.approx(
        8.0 * np.pi / 3.0, rel=1e-8
    )
    torus = flat_torus()
    dx4 = coordinate_form(4, 1)[None, :]
    assert oracle_global_inner_product(torus, dx4, 1, "density")[0, 0] == pytest.approx(0.5, rel=1e-8)


def test_global_oracle_custom_density_callable():
    circle = unit_circle()
    dx = coordinate_form(2, 1)[None, :]
    # doubling the density doubles the weighted integral
    doubled = oracle_global_inner_product(
        circle, dx, 1, "density", density=lambda u: np.full(u.shape[0], 1.0 / np.pi)
    )
    assert doubled[0, 0] == pytest.approx(1.0, rel=1e-8)


def test_global_oracle_rejects_mismatches():
    circle = unit_circle()
    with pytest.raises(ConfigurationError):
        oracle_global_inner_product(circle, coordinate_form(3, 1)[None, :], 1)
    with pytest.raises(ConfigurationError):
        oracle_global_inner_product(circle, np.eye(2), 1, "mass")


# ---------------------------------------------------------------------------
# von Mises sampling


def test_von_mises_zero_kappa_is_uniform():
    pts, q = von_mises_sampler(4000, 0.0, rng=0)
    npt.assert_allclose(q, 1.0 / (2.0 * np.pi), atol=1e-15)
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
    counts, _ = np.histogram(angles, bins=20, range=(0.0, 2.0 * np.pi))
    assert chisquare(counts).pvalue > 0.01


def test_von_mises_mean_direction():
    pts, _ = von_mises_sampler(2000, 4.0, mode=0.0, rng=1)
    mean_dir = np.arctan2(pts[:, 1].mean(), pts[:, 0].mean())
    assert abs(mean_dir) <= 0.1


def test_von_mises_concentration_between_modes():
    pts, _ = von_mises_sampler(256, 8.0, mode=1.0, rng=2)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    within = np.abs(np.mod(angles - 1.0 + np.pi, 2.0 * np.pi) - np.pi) < np.pi / 2
    assert within.mean() >= 0.8


def test_von_mises_q_matches_closed_form():
    kappa, mode = 4.0, 0.7
    pts, q = von_mises_sampler(500, kappa, mode=mode, rng=3)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    expected = np.exp(kappa * np.cos(angles - mode)) / (2.0 * np.pi * i0(kappa))
    npt.assert_allclose(q, expected, atol=1e-12)


def test_von_mises_q_normalizes():
    kappa, mode = 6.0, 0.3
    total, _ = quad(
        lambda t: np.exp(kappa * np.cos(t - mode)) / (2.0 * np.pi * i0(kappa)),
        0.0,
        2.0 * np.pi,
    )
    assert total == pytest.approx(1.0, abs=1e-8)


def test_von_mises_rejects_negative_kappa():
    with pytest.raises(ConfigurationError):
        von_mises_sampler(10, -1.0)


def test_von_mises_rejects_nan_kappa():
    with pytest.raises(ConfigurationError):
        von_mises_sampler(10, float("nan"))


def test_von_mises_rejects_infinite_kappa():
    with pytest.raises(ConfigurationError):
        von_mises_sampler(10, float("inf"))


@pytest.mark.parametrize("kappa", [0.5, 4.0, 16.0])
def test_von_mises_angles_follow_q(kappa):
    mode, n = 1.0, 4000
    pts, _ = von_mises_sampler(n, kappa, mode=mode, rng=5)
    # angles measured from mode - pi, so the bins tile one full turn
    angles = np.mod(np.arctan2(pts[:, 1], pts[:, 0]) - mode + np.pi, 2.0 * np.pi) + mode - np.pi
    edges = np.linspace(mode - np.pi, mode + np.pi, 41)
    counts, _ = np.histogram(angles, bins=edges)

    def q(t):
        return np.exp(kappa * np.cos(t - mode)) / (2.0 * np.pi * i0(kappa))

    expected = n * np.array([quad(q, a, b)[0] for a, b in zip(edges[:-1], edges[1:])])
    # bins expected to hold fewer than 5 samples are pooled into one
    sparse = expected < 5.0
    obs = np.append(counts[~sparse], counts[sparse].sum())
    exp = np.append(expected[~sparse], expected[sparse].sum())
    assert expected.sum() == pytest.approx(n, rel=1e-8)
    assert chisquare(obs[exp > 0], exp[exp > 0] * n / exp.sum()).pvalue > 1e-3


def test_von_mises_large_kappa_stays_finite():
    # I0(1000) and exp(1000) overflow a float64; the sampler must not need either
    kappa, mode = 1000.0, 0.5
    pts, q = von_mises_sampler(200, kappa, mode=mode, rng=4)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    assert abs(np.arctan2(pts[:, 1].mean(), pts[:, 0].mean()) - mode) <= 0.01
    # large-kappa limit: a normal density of variance 1 / kappa around the mode
    npt.assert_allclose(q, np.sqrt(kappa / (2.0 * np.pi)) * np.exp(-0.5 * kappa * (angles - mode) ** 2), rtol=1e-2)


# ---------------------------------------------------------------------------
# consistency and bias studies


def test_convergence_rows_and_aggregate():
    rows = convergence_study(unit_circle(), [80, 160], n_seeds=2, base_seed=0)
    med = aggregate_metric(rows, "g1_err_median")
    assert sorted(med) == [80, 160]
    assert all(v > 0 for v in med.values())
    # reruns are deterministic
    rows2 = convergence_study(unit_circle(), [80, 160], n_seeds=2, base_seed=0)
    assert rows == rows2


def test_convergence_theta_out_of_range_warns():
    with pytest.warns(ConfigurationWarning):
        convergence_study(unit_circle(), [60], n_seeds=1, theta=0.5)


@pytest.mark.parametrize("name, k", [("circle", 0), ("circle", 3), ("torus", 4)])
def test_convergence_rejects_degree_before_any_operator(name, k, monkeypatch):
    def no_operator(*args, **kwargs):
        raise AssertionError("an operator was built for a degree the study cannot run")

    monkeypatch.setattr(oracle, "build_laplacian", no_operator)
    with pytest.raises(InvalidDegreeError):
        convergence_study(MANIFOLDS[name](), [2000], n_seeds=1, k=k)


def test_line_boundary_bias_exceeds_interior_error():
    manifold = line_segment()
    rng = np.random.default_rng([42, 1000])
    points, u = manifold.sample(1000, rng)
    op = build_laplacian(points, LaplacianParams(knn="full", d=1))
    g1 = gram_field_1(op, points)
    oracle = oracle_gram_1(manifold, u)
    err = np.abs(g1.values - oracle).max(axis=(1, 2))
    t = u[:, 0]
    lo, hi = np.quantile(t, [0.2, 0.8])
    interior = (t >= lo) & (t <= hi)
    assert np.median(err[interior]) < np.median(err[~interior])


def test_density_check_summary_contract():
    rows, summary = density_check([0.0], n=160, n_seeds=2)
    assert len(summary) == 1 and summary[0]["kappa"] == 0.0
    # at kappa=0 the corrected and uncorrected weight vectors coincide
    assert summary[0]["mae_corrected"] == pytest.approx(summary[0]["mae_uncorrected"], rel=1e-12)
    metrics = {r["metric"] for r in rows}
    assert metrics == {"mae_corrected", "mae_uncorrected"}


def test_aggregate_metric_median_over_seeds():
    rows = [
        {"metric": "m", "n": 10, "value": 1.0},
        {"metric": "m", "n": 10, "value": 3.0},
        {"metric": "m", "n": 10, "value": 2.0},
        {"metric": "other", "n": 10, "value": 99.0},
        {"metric": "m", "n": 20, "value": 5.0},
    ]
    assert aggregate_metric(rows, "m") == {10: 2.0, 20: 5.0}
