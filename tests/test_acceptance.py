"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test exercises the released pipeline at its default configuration and
checks a pinned tolerance. The tests print a single summary line so the
verdicts are legible in captured output; the assertions carry the same
condition.
"""

import itertools
import math

import numpy as np
import pytest

from pointforms import (
    CirclesLinesConfig,
    CloudSample,
    FormClassifier,
    GramField,
    LaplacianParams,
    MANIFOLDS,
    RnaKineticsConfig,
    TrainConfig,
    aggregate_metric,
    apply_laplacian,
    build_laplacian,
    carre_du_champ,
    compound_gram_field,
    comparison_matrix,
    convergence_study,
    density_check,
    estimate_gram_memory,
    gen_circles_lines,
    gen_rna_kinetics,
    gram_field_1,
    loss_and_grad,
    measure_weights,
    multi_index_table,
    oracle_gram_1,
    read_gram_cache,
    train,
    unit_circle,
    write_gram_cache,
)


def _report(criterion: int, ok: bool, detail: str) -> bool:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _featurize(clouds, params: LaplacianParams) -> list[CloudSample]:
    samples = []
    for cloud in clouds:
        op = build_laplacian(cloud.points, params)
        g1 = gram_field_1(op, cloud.points)
        mu = measure_weights(cloud, "uniform")
        samples.append(
            CloudSample(cloud_id=cloud.id, points=cloud.points, gram=g1, mu=mu, label=cloud.label)
        )
    return samples


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def circles_samples():
    clouds, _ = gen_circles_lines(CirclesLinesConfig())
    return _featurize(clouds, LaplacianParams())


@pytest.fixture(scope="module")
def rna_samples():
    clouds, _ = gen_rna_kinetics(RnaKineticsConfig())
    return _featurize(clouds, LaplacianParams(d=1))


@pytest.fixture(scope="module")
def circle_study():
    return convergence_study(unit_circle(), [250, 500, 1000, 2000], n_seeds=5)


# ---------------------------------------------------------------------------
# criteria


@pytest.mark.slow
def test_criterion_01_circles_vs_lines_auroc(circles_samples):
    scores = [
        train(circles_samples, TrainConfig(seed=s, split_seed=s)).test_auroc for s in range(5)
    ]
    mean = float(np.mean(scores))
    ok = mean >= 0.99
    assert _report(
        1, ok, f"circles vs lines mean test AUROC {mean:.4f} >= 0.99 (per-seed {np.round(scores, 4).tolist()})"
    )


@pytest.mark.slow
def test_criterion_02_rna_kinetics_auroc_with_control(rna_samples):
    scores = [train(rna_samples, TrainConfig(seed=s, split_seed=s)).test_auroc for s in range(5)]
    mean = float(np.mean(scores))

    control_clouds, _ = gen_rna_kinetics(RnaKineticsConfig(control=True))
    control_samples = _featurize(control_clouds, LaplacianParams(d=1))
    control = train(control_samples, TrainConfig()).test_auroc

    ok = mean >= 0.85 and 0.35 <= control <= 0.65
    assert _report(
        2,
        ok,
        f"rna kinetics mean test AUROC {mean:.4f} >= 0.85 (per-seed {np.round(scores, 4).tolist()}); "
        f"control AUROC {control:.4f} in [0.35, 0.65]",
    )


def test_criterion_03_local_consistency_on_circle(circle_study):
    med = aggregate_metric(circle_study, "g1_err_median")
    sizes = [250, 500, 1000, 2000]
    vals = [med[n] for n in sizes]
    decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    ratio = vals[-1] / vals[0]
    ok = decreasing and ratio <= 0.5
    assert _report(
        3,
        ok,
        "median per-point max-norm error "
        + ", ".join(f"n={n}: {v:.4f}" for n, v in zip(sizes, vals))
        + f"; strictly decreasing={decreasing}, final/initial {ratio:.4f} <= 0.5",
    )


def test_criterion_04_global_consistency_on_circle(circle_study):
    unif = [r["value"] for r in circle_study if r["metric"] == "gip_dxdx_uniform_err" and r["n"] == 2000]
    corr = [r["value"] for r in circle_study if r["metric"] == "gip_dxdx_corrected_err" and r["n"] == 2000]
    assert len(unif) == 5 and len(corr) == 5
    ok = max(unif) <= 0.05 and max(corr) <= 0.3
    assert _report(
        4,
        ok,
        f"n=2000 <<dx,dx>> error vs 0.5 (uniform weights) max {max(unif):.4f} <= 0.05; "
        f"error vs pi (density-corrected, true q) max {max(corr):.4f} <= 0.3",
    )


def test_criterion_05_density_correction_beats_uniform():
    _, summaries = density_check([2.0, 4.0, 8.0], n=512, n_seeds=10)
    ok = all(s["mae_corrected"] < s["mae_uncorrected"] for s in summaries)
    detail = "; ".join(
        f"kappa={s['kappa']:g}: corrected {s['mae_corrected']:.4f} < uncorrected {s['mae_uncorrected']:.4f}"
        for s in summaries
    )
    assert _report(5, ok, detail)


def _leibniz_det(a: np.ndarray) -> float:
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = (-1.0) ** inversions
        for i, p in enumerate(perm):
            term *= a[i, p]
        total += term
    return total


def test_criterion_06_compound_matches_leibniz_determinants():
    worst = 0.0
    rng = np.random.default_rng(606)
    for _ in range(200):
        k = int(rng.integers(2, 4))
        D = int(rng.integers(k, 7))
        raw = rng.standard_normal((1, D, D))
        g1 = GramField(D=D, k=1, values=np.einsum("pik,pjk->pij", raw, raw))
        gk = compound_gram_field(g1, k)
        table = multi_index_table(D, k)
        a = int(rng.integers(table.shape[0]))
        b = int(rng.integers(table.shape[0]))
        expected = _leibniz_det(g1.values[0][np.ix_(table[a], table[b])])
        worst = max(worst, abs(gk.values[0, a, b] - expected))
    ok = worst <= 1e-10
    assert _report(6, ok, f"200 random minors, k in {{2,3}}, D <= 6: max abs error {worst:.2e} <= 1e-10")


def _gradcheck_sample(rng: np.random.Generator, D: int, k: int, label: int) -> CloudSample:
    m = int(rng.integers(4, 8))
    pts = rng.standard_normal((m, D))
    raw = rng.standard_normal((m, D, D))
    g1 = GramField(D=D, k=1, values=np.einsum("pik,pjk->pij", raw, raw))
    gram = g1 if k == 1 else compound_gram_field(g1, k)
    w = rng.uniform(0.5, 1.5, size=m)
    mu = w / w.sum()
    return CloudSample(cloud_id=f"g{label}", points=pts, gram=gram, mu=mu, label=label)


def test_criterion_07_gradients_match_finite_differences():
    step = 1e-5
    worst = 0.0
    for k in (1, 2):
        for kind_idx, kind in enumerate(("tri", "flat", "diag", "pool")):
            for trial in range(5):
                rng = np.random.default_rng([707, k, kind_idx, trial])
                D = int(rng.integers(2, 4))
                samples = [_gradcheck_sample(rng, D, k, 0), _gradcheck_sample(rng, D, k, 1)]
                n_coeffs = math.comb(D, k)
                model = FormClassifier.create(
                    D, n_coeffs, n_forms=2, hidden=(4,), readout_kind=kind, rng=rng, dtype=np.float64
                )
                model.head_w[:] = rng.standard_normal(model.head_w.size)
                model.head_b[...] = rng.standard_normal()
                _, grads = loss_and_grad(model, samples)
                for p, g in zip(model.parameters(), grads):
                    flat_p, flat_g = p.reshape(-1), np.asarray(g).reshape(-1)
                    idx = rng.choice(flat_p.size, size=min(3, flat_p.size), replace=False)
                    for i in idx:
                        orig = flat_p[i]
                        flat_p[i] = orig + step
                        up, _ = loss_and_grad(model, samples)
                        flat_p[i] = orig - step
                        dn, _ = loss_and_grad(model, samples)
                        flat_p[i] = orig
                        fd = (up - dn) / (2 * step)
                        denom = max(abs(fd), abs(flat_g[i]), 1e-8)
                        worst = max(worst, abs(fd - flat_g[i]) / denom)
    ok = worst <= 1e-4
    assert _report(
        7, ok, f"5 random settings per (k in {{1,2}} x 4 readouts): max relative gradient error {worst:.2e} <= 1e-4"
    )


def test_criterion_08_comparison_matrix_permutation_invariant():
    worst = 0.0
    for trial in range(50):
        rng = np.random.default_rng([808, trial])
        m = int(rng.integers(20, 60))
        D = int(rng.integers(2, 5))
        pts = rng.standard_normal((m, D))
        raw = rng.standard_normal((m, D, D))
        gram = GramField(D=D, k=1, values=np.einsum("pik,pjk->pij", raw, raw))
        w = rng.uniform(0.5, 1.5, size=m)
        mu = w / w.sum()
        model = FormClassifier.create(D, D, n_forms=3, hidden=(6,), rng=rng, dtype=np.float64)
        c = comparison_matrix(gram, model.net.forward(pts), mu)
        perm = rng.permutation(m)
        c_perm = comparison_matrix(
            GramField(D=D, k=1, values=gram.values[perm]),
            model.net.forward(pts[perm]),
            mu[perm],
        )
        worst = max(worst, float(np.abs(c - c_perm).max()))
    ok = worst <= 1e-12
    assert _report(8, ok, f"50 random (cloud, weights) pairs: max comparison-matrix drift {worst:.2e} <= 1e-12")


def test_criterion_09_memory_accounting_published_shapes():
    g1_total_mib = 240 * estimate_gram_memory(256, 12, 1) / 2**20
    g2_cloud_mib = estimate_gram_memory(256, 12, 2) / 2**20
    rel1 = abs(g1_total_mib - 33.80) / 33.80
    rel2 = abs(g2_cloud_mib - 4.30) / 4.30
    ok = rel1 <= 0.02 and rel2 <= 0.02
    assert _report(
        9,
        ok,
        f"240 clouds (m=256, D=12): degree-1 total {g1_total_mib:.2f} vs 33.80 (rel {rel1:.3f}), "
        f"degree-2 per cloud {g2_cloud_mib:.2f} vs 4.30 (rel {rel2:.3f}); both <= 2%",
    )


def test_criterion_10_exactness_suite(tmp_path):
    rng = np.random.default_rng(1010)
    pts = rng.standard_normal((80, 3))
    op = build_laplacian(pts, LaplacianParams())
    ones = np.ones(80)
    h = rng.standard_normal(80)

    l_const = float(np.abs(apply_laplacian(op, ones)).max())
    gamma_const = float(np.abs(carre_du_champ(op, np.full(80, 3.7), h)).max())
    symmetric = np.array_equal(carre_du_champ(op, pts[:, 0], h), carre_du_champ(op, h, pts[:, 0]))

    proj_worst = 0.0
    for make in MANIFOLDS.values():
        manifold = make()
        mpts, u = manifold.sample(40, np.random.default_rng(2))
        proj = oracle_gram_1(manifold, u)
        idem = np.abs(proj @ proj - proj).max()
        tr = np.abs(np.trace(proj, axis1=1, axis2=2) - manifold.intrinsic_dim).max()
        proj_worst = max(proj_worst, float(idem), float(tr))

    g1 = gram_field_1(op, pts)
    path = tmp_path / "roundtrip.gram.bin"
    write_gram_cache(path, g1, precision="fp64")
    back = read_gram_cache(path)
    bit_exact = np.array_equal(back.values, g1.values) and back.values.dtype == np.float64

    ok = l_const <= 1e-12 and gamma_const <= 1e-12 and symmetric and proj_worst <= 1e-12 and bit_exact
    assert _report(
        10,
        ok,
        f"L(const)={l_const:.1e} <= 1e-12; Gamma(const,h)={gamma_const:.1e} <= 1e-12; "
        f"Gamma symmetry exact={symmetric}; projector idempotence/trace {proj_worst:.1e} <= 1e-12; "
        f"cache roundtrip bit-exact={bit_exact}",
    )
