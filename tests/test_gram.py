"""Carre du champ, Gram fields, compound minors, and pairings."""

import itertools
import math

import numpy as np
import numpy.testing as npt
import pytest
from scipy.special import ive

from pointforms import (
    ConfigurationError,
    GramField,
    InvalidDegreeError,
    LaplacianParams,
    build_laplacian,
    carre_du_champ,
    comparison_matrix,
    compound_gram_field,
    coordinate_form,
    estimate_gram_memory,
    format_bytes,
    gram_field_1,
    multi_index_table,
    unit_circle,
)
from pointforms.gram import minors


def _toy_operator(m=5, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, dim))
    return build_laplacian(pts, LaplacianParams(k0=3, knn="full", d=1)), pts


def _circle_operator(n, seed=0, **overrides):
    pts, _ = unit_circle().sample(n, np.random.default_rng(seed))
    params = LaplacianParams(**{"knn": "full", "d": 1, **overrides})
    return build_laplacian(pts, params), pts


# ---------------------------------------------------------------------------
# carre du champ


def test_carre_du_champ_constant_is_zero():
    op, _ = _toy_operator(m=40)
    rng = np.random.default_rng(1)
    h = rng.standard_normal(40)
    gamma = carre_du_champ(op, np.full(40, 3.7), h)
    assert np.abs(gamma).max() <= 1e-12


def test_carre_du_champ_symmetry_is_exact():
    op, _ = _toy_operator(m=30, seed=2)
    rng = np.random.default_rng(3)
    f, h = rng.standard_normal((2, 30))
    npt.assert_array_equal(carre_du_champ(op, f, h), carre_du_champ(op, h, f))


def test_carre_du_champ_matches_dense_oracle():
    op, _ = _toy_operator(m=5, seed=4)
    rng = np.random.default_rng(5)
    f, h = rng.standard_normal((2, 5))
    L = op.L.toarray()
    expected = 0.5 * (f * (L @ h) + h * (L @ f) - L @ (f * h))
    npt.assert_allclose(carre_du_champ(op, f, h), expected, atol=1e-12)


def test_carre_du_champ_nonnegative_on_diagonal():
    # For this row-normalized kernel Laplacian, Gamma(f, f) is a weighted
    # sum of squared differences, so it can never be negative.
    op, _ = _toy_operator(m=50, seed=6)
    rng = np.random.default_rng(7)
    for f in rng.standard_normal((5, 50)):
        assert carre_du_champ(op, f, f).min() >= -1e-12


def test_carre_du_champ_rejects_bad_shapes():
    op, _ = _toy_operator(m=5)
    with pytest.raises(ConfigurationError):
        carre_du_champ(op, np.ones(4), np.ones(5))


# ---------------------------------------------------------------------------
# degree-1 Gram field


def test_gram_field_1_slices_equal_pairwise_carre_du_champ():
    op, pts = _toy_operator(m=12, dim=3, seed=8)
    g1 = gram_field_1(op, pts)
    for i in range(3):
        for j in range(3):
            expected = carre_du_champ(op, pts[:, i], pts[:, j])
            npt.assert_allclose(g1.values[:, i, j], expected, atol=1e-12)


def test_gram_field_1_line_recovers_projector():
    # 400 points on the line y = x: the tangent projector is vv^T with
    # v = (1, 1)/sqrt(2), i.e. all entries 0.5.
    t = np.linspace(-1.0, 1.0, 400)
    pts = np.column_stack([t, t]) / np.sqrt(2.0)
    op = build_laplacian(pts, LaplacianParams(knn="full", d=1))
    g1 = gram_field_1(op, pts)
    interior = np.argmin(np.abs(t))
    npt.assert_allclose(g1.values[interior], [[0.5, 0.5], [0.5, 0.5]], atol=0.1)


def test_gram_field_1_circle_tangent_at_east_pole():
    op, pts = _circle_operator(1200, seed=9)
    g1 = gram_field_1(op, pts)
    at = np.argmin(((pts - [1.0, 0.0]) ** 2).sum(axis=1))
    npt.assert_allclose(g1.values[at], [[0.0, 0.0], [0.0, 1.0]], atol=0.2)


def test_gram_field_trace_matches_smooth_kernel_limit():
    # Independent calibration oracle: on the uniform unit circle with a
    # fixed bandwidth s, the continuum limit of the per-point trace is
    # (1 - I1(z)/I0(z)) / s with z = 1/(2s) (chord-length moments of the
    # wrapped Gaussian kernel, Bessel form).
    s = 0.02
    op, pts = _circle_operator(
        1500, seed=10, epsilon=s, beta=0.0, bandwidth_scale="raw", k0=8
    )
    g1 = gram_field_1(op, pts)
    trace = g1.values[:, 0, 0] + g1.values[:, 1, 1]
    z = 1.0 / (2.0 * s)
    bessel_ratio = ive(1, z) / ive(0, z)
    predicted = (1.0 - bessel_ratio) / s
    assert float(np.median(trace)) == pytest.approx(predicted, rel=0.05)


def test_gram_field_1_rejects_mismatched_operator():
    op, pts = _toy_operator(m=10)
    with pytest.raises(ConfigurationError):
        gram_field_1(op, pts[:-1])


def _embedded_circle_operator(knn):
    # a circle linearly embedded in R^6: every exact slice has rank <= 2, so four eigenvalues sit at 0
    rng = np.random.default_rng(5)
    pts = unit_circle().sample(128, rng)[0] @ rng.standard_normal((2, 6))
    return build_laplacian(pts, LaplacianParams(knn=knn, d=1)), pts


@pytest.mark.parametrize("knn", ["default", "full"])
def test_gram_field_1_is_translation_invariant(knn):
    op, pts = _embedded_circle_operator(knn)
    g = gram_field_1(op, pts).values
    shifted = gram_field_1(op, pts + 1e3).values
    assert np.abs(shifted - g).max() <= 1e-10 * np.abs(g).max()


@pytest.mark.parametrize("knn", ["default", "full"])
def test_gram_field_1_far_from_the_origin_stays_psd(knn):
    op, pts = _embedded_circle_operator(knn)
    g = gram_field_1(op, pts + 1e6).values
    trace = np.trace(g, axis1=1, axis2=2)
    assert (np.linalg.eigvalsh(g).min(axis=1) >= -1e-12 * trace).all()


# ---------------------------------------------------------------------------
# compound fields


def _random_g1(m=6, D=4, seed=11) -> GramField:
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((m, D, D))
    return GramField(D=D, k=1, values=0.5 * (raw + raw.transpose(0, 2, 1)))


def _leibniz_det(a: np.ndarray) -> float:
    k = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(k)):
        sign = 1.0
        for x in range(k):
            for y in range(x + 1, k):
                if perm[x] > perm[y]:
                    sign = -sign
        term = sign
        for row, col in enumerate(perm):
            term *= a[row, col]
        total += term
    return total


def test_compound_degree_one_is_identity():
    g1 = _random_g1()
    # the degree-1 lift is the field itself, not a copy; no caller mutates a field's values
    assert compound_gram_field(g1, 1) is g1


def test_compound_of_diagonal_projector():
    vals = np.tile(np.diag([1.0, 1.0, 0.0]), (4, 1, 1))
    g2 = compound_gram_field(GramField(D=3, k=1, values=vals), 2)
    # order [(1,2), (1,3), (2,3)]: only the (1,2) x (1,2) minor survives
    npt.assert_allclose(g2.values, np.tile(np.diag([1.0, 0.0, 0.0]), (4, 1, 1)), atol=1e-15)


@pytest.mark.parametrize("k", [2, 3])
def test_compound_matches_leibniz_oracle(k):
    g1 = _random_g1(m=5, D=4, seed=12)
    gk = compound_gram_field(g1, k)
    rows = multi_index_table(4, k)
    for p in range(5):
        for a, I in enumerate(rows):
            for b, J in enumerate(rows):
                minor = g1.values[p][np.ix_(I, J)]
                assert gk.values[p, a, b] == pytest.approx(_leibniz_det(minor), abs=1e-10)


def _gathered_minors(values: np.ndarray, k: int) -> np.ndarray:
    """Minors from one (m, B, B, k, k) gather of every submatrix: the reference formula."""
    rows = multi_index_table(values.shape[-1], k)
    sub = values[:, rows[:, None, :, None], rows[None, :, None, :]]
    if k == 1:
        return sub[..., 0, 0]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    return (
        sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
        - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
        + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_minors_are_c_contiguous_and_equal_the_gathered_formula(k):
    values = _random_g1(m=9, D=6, seed=14).values
    got = minors(values, k)
    assert got.flags.c_contiguous
    npt.assert_array_equal(got, _gathered_minors(values, k))


def test_compound_of_rank_one_field_vanishes():
    rng = np.random.default_rng(13)
    v = rng.standard_normal((7, 5))
    vals = np.einsum("pi,pj->pij", v, v)
    g2 = compound_gram_field(GramField(D=5, k=1, values=vals), 2)
    assert np.abs(g2.values).max() <= 1e-12


def test_compound_rejects_unsupported_degrees():
    g1 = _random_g1(m=3, D=5)
    with pytest.raises(InvalidDegreeError):
        compound_gram_field(g1, 4)
    with pytest.raises(InvalidDegreeError):
        compound_gram_field(g1, 6)
    with pytest.raises(InvalidDegreeError):
        compound_gram_field(g1, 0)
    with pytest.raises(ConfigurationError):
        compound_gram_field(compound_gram_field(g1, 2), 2)


# ---------------------------------------------------------------------------
# local and global pairings: the comparison matrix


def _pointwise(gram: GramField, coeffs: np.ndarray) -> np.ndarray:
    """Local inner products F_p G_p F_p^T, (m, l, l): the comparison matrix
    under the unit measure at each point in turn."""
    return np.array([comparison_matrix(gram, coeffs, unit) for unit in np.eye(gram.m)])


def test_local_inner_product_basis_on_identity_slices():
    vals = np.tile(np.eye(3), (6, 1, 1))
    gram = GramField(D=3, k=1, values=vals)
    e2 = coordinate_form(3, 2)[None, :]
    npt.assert_allclose(_pointwise(gram, e2)[:, 0, 0], np.ones(6), atol=1e-15)


def test_local_inner_product_null_space_annihilates():
    vals = np.tile(np.diag([1.0, 1.0, 0.0]), (4, 1, 1))
    gram = GramField(D=3, k=1, values=vals)
    null = coordinate_form(3, 3)[None, :]
    npt.assert_allclose(_pointwise(gram, null)[:, 0, 0], np.zeros(4), atol=1e-15)


def test_local_inner_product_matches_triple_product_oracle():
    gram = _random_g1(m=5, D=3, seed=14)
    rng = np.random.default_rng(15)
    f = rng.standard_normal((5, 3))
    h = rng.standard_normal((5, 3))
    expected = np.array([f[p] @ gram.values[p] @ h[p] for p in range(5)])
    local = _pointwise(gram, np.stack([f, h], axis=1))
    npt.assert_allclose(local[:, 0, 1], expected, atol=1e-12)


def test_local_inner_product_batched_ranks():
    gram = _random_g1(m=4, D=3, seed=16)
    rng = np.random.default_rng(17)
    f = rng.standard_normal((4, 2, 3))
    h = rng.standard_normal((4, 2, 3))
    out = _pointwise(gram, np.concatenate([f, h], axis=1))[:, :2, 2:]
    assert out.shape == (4, 2, 2)
    for p in range(4):
        npt.assert_allclose(out[p], f[p] @ gram.values[p] @ h[p].T, atol=1e-12)


def test_global_inner_product_circle_uniform_and_corrected():
    op, pts = _circle_operator(2000, seed=18)
    g1 = gram_field_1(op, pts)
    dx = coordinate_form(2, 1)[None, :]
    uniform = np.full(2000, 1.0 / 2000)
    est = comparison_matrix(g1, dx, uniform)
    assert est.shape == (1, 1)
    assert est[0, 0] == pytest.approx(0.5, abs=0.05)

    q_true = np.full(2000, 1.0 / (2.0 * np.pi))
    corrected = 1.0 / (2000 * q_true)
    est_vol = comparison_matrix(g1, dx, corrected)[0, 0]
    assert est_vol == pytest.approx(np.pi, abs=0.3)


def test_global_inner_product_nonnegative_on_squares():
    gram = _random_g1(m=8, D=3, seed=19)
    # force PSD slices: G = A A^T per point
    vals = np.einsum("pik,pjk->pij", gram.values, gram.values)
    psd = GramField(D=3, k=1, values=vals)
    mu = np.full(8, 1.0 / 8)
    rng = np.random.default_rng(20)
    for w in rng.standard_normal((6, 3)):
        assert comparison_matrix(psd, w[None, :], mu)[0, 0] >= -1e-12


def test_constant_forms_equal_their_explicit_tiling_bitwise():
    gram = _random_g1(m=7, D=4, seed=21)
    rng = np.random.default_rng(22)
    forms = rng.standard_normal((3, 4))
    mu = rng.uniform(0.1, 1.0, size=7)
    tiled = np.tile(forms, (7, 1, 1))
    npt.assert_array_equal(comparison_matrix(gram, forms, mu), comparison_matrix(gram, tiled, mu))
    forms32 = forms.astype(np.float32)
    npt.assert_array_equal(
        comparison_matrix(gram, forms32, mu), comparison_matrix(gram, np.tile(forms32, (7, 1, 1)), mu)
    )
    with pytest.raises(ConfigurationError):
        comparison_matrix(gram, np.ones((3, 5)), mu)  # B = 4


# ---------------------------------------------------------------------------
# memory accounting


def test_memory_estimates_match_published_shapes():
    per_cloud_g1 = estimate_gram_memory(256, 12, 1)
    assert per_cloud_g1 == 4 * 256 * 12 * 12 == 147_456
    total = 240 * per_cloud_g1
    assert total == 35_389_440
    assert abs(total / 2**20 - 33.80) / 33.80 <= 0.02

    per_cloud_g2 = estimate_gram_memory(256, 12, 2)
    assert per_cloud_g2 == 4 * 256 * 66 * 66 == 4_460_544
    assert abs(per_cloud_g2 / 2**20 - 4.30) / 4.30 <= 0.02


def test_memory_estimate_small_and_cubic_cases():
    assert estimate_gram_memory(128, 2, 2) == 512  # C(2,2) = 1
    assert estimate_gram_memory(256, 12, 3) == 4 * 256 * 220**2 == 49_561_600
    assert estimate_gram_memory(10, 3, 1, precision="fp64") == 2 * estimate_gram_memory(10, 3, 1)
    with pytest.raises(InvalidDegreeError):
        estimate_gram_memory(10, 3, 4)
    with pytest.raises(ConfigurationError):
        estimate_gram_memory(10, 3, 1, precision="fp16")


def test_format_bytes_layout():
    text = format_bytes(4_460_544)
    assert text.startswith("4460544 B")
    assert "4.46 MB" in text and "4.25 MiB" in text


# ---------------------------------------------------------------------------
# coordinate forms


def test_coordinate_form_basis_layout():
    form = coordinate_form(3, (1, 3))
    npt.assert_array_equal(form, [0.0, 1.0, 0.0])
    with pytest.raises(ConfigurationError):
        coordinate_form(3, (3, 1))
