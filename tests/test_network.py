"""Form networks, comparison matrices, readouts, loss, and training."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from pointforms import (
    CacheFormatError,
    CloudSample,
    ConfigurationError,
    FormClassifier,
    FormNetwork,
    GramField,
    PARAM_BUDGET,
    READOUTS,
    TrainConfig,
    UndefinedMetricError,
    auroc,
    comparison_matrix,
    evaluate,
    load_checkpoint,
    loss_and_grad,
    predict_logits,
    readout,
    readout_dim,
    readout_grad,
    save_checkpoint,
    split_samples,
    train,
)
from pointforms.network import _loss_only


def _identity_coeff_net(D: int) -> FormNetwork:
    """No hidden layers, zero weights, bias = flattened identity: every
    point maps to the l = B = D standard basis rows."""
    return FormNetwork(
        input_dim=D,
        n_coeffs=D,
        n_forms=D,
        hidden=(),
        weights=[np.zeros((D, D * D))],
        biases=[np.eye(D).ravel().copy()],
    )


def _random_sample(m=6, D=3, n_forms=2, seed=0, label=0, psd=True):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, D))
    raw = rng.standard_normal((m, D, D))
    vals = np.einsum("pik,pjk->pij", raw, raw) if psd else 0.5 * (raw + raw.transpose(0, 2, 1))
    gram = GramField(D=D, k=1, values=vals)
    mu = np.full(m, 1.0 / m)
    return CloudSample(cloud_id=f"s{seed}", points=pts, gram=gram, mu=mu, label=label)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(1)
    net = FormNetwork.create(3, 4, 2, hidden=(5, 7), rng=rng, dtype=np.float64)
    pts = rng.standard_normal((6, 3))
    out = net.forward(pts)
    assert out.shape == (6, 2, 4)
    a = pts
    a = np.tanh(a @ net.weights[0] + net.biases[0])
    a = np.tanh(a @ net.weights[1] + net.biases[1])
    a = a @ net.weights[2] + net.biases[2]
    npt.assert_allclose(out, a.reshape(6, 2, 4), atol=1e-12)


def test_forward_zero_parameters_gives_zero():
    net = FormNetwork.create(2, 3, 2, hidden=(4,), rng=0, dtype=np.float64)
    for w in net.weights:
        w[...] = 0.0
    for b in net.biases:
        b[...] = 0.0
    out = net.forward(np.random.default_rng(2).standard_normal((5, 2)))
    npt.assert_array_equal(out, np.zeros((5, 2, 3)))


def test_forward_identity_bias_net_outputs_basis_rows():
    net = _identity_coeff_net(3)
    pts = np.random.default_rng(3).standard_normal((4, 3))
    out = net.forward(pts)
    for p in range(4):
        npt.assert_array_equal(out[p], np.eye(3))


def test_forward_rejects_wrong_width():
    net = FormNetwork.create(3, 2, 1, rng=0)
    with pytest.raises(ConfigurationError):
        net.forward(np.zeros((4, 2)))


def test_param_budget_holds_for_benchmark_shapes():
    assert PARAM_BUDGET == 68_866
    shapes = [
        (2, math.comb(2, 1)),  # planar curves, degree 1
        (12, math.comb(12, 2)),  # 12-dim ambient, degree 2
        (12, math.comb(12, 3)),  # 12-dim ambient, degree 3
        (48, math.comb(48, 1)),  # kinetics, degree 1
    ]
    for D, B in shapes:
        for kind in READOUTS:
            model = FormClassifier.create(D, B, n_forms=8, readout_kind=kind, rng=0)
            assert model.param_count <= PARAM_BUDGET


# ---------------------------------------------------------------------------
# comparison matrix


def test_comparison_identity_example():
    m, D = 5, 3
    gram = GramField(D=D, k=1, values=np.tile(np.eye(D), (m, 1, 1)))
    coeffs = np.tile(np.eye(D), (m, 1, 1))
    mu = np.full(m, 1.0 / m)
    npt.assert_allclose(comparison_matrix(gram, coeffs, mu), np.eye(D), atol=1e-14)


def test_comparison_matches_triple_loop_oracle():
    rng = np.random.default_rng(4)
    m, D, forms = 4, 3, 2
    sample = _random_sample(m=m, D=D, seed=5)
    coeffs = rng.standard_normal((m, forms, D))
    expected = np.zeros((forms, forms))
    for a in range(forms):
        for b in range(forms):
            for p in range(m):
                for i in range(D):
                    for j in range(D):
                        expected[a, b] += (
                            sample.mu[p]
                            * coeffs[p, a, i]
                            * sample.gram.values[p, i, j]
                            * coeffs[p, b, j]
                        )
    got = comparison_matrix(sample.gram, coeffs, sample.mu)
    npt.assert_allclose(got, expected, atol=1e-12)


def test_comparison_permutation_invariance():
    rng = np.random.default_rng(6)
    sample = _random_sample(m=8, D=3, seed=7)
    coeffs = rng.standard_normal((8, 2, 3))
    base = comparison_matrix(sample.gram, coeffs, sample.mu)
    perm = rng.permutation(8)
    permuted = comparison_matrix(
        GramField(D=3, k=1, values=sample.gram.values[perm]),
        coeffs[perm],
        sample.mu[perm],
    )
    npt.assert_allclose(permuted, base, atol=1e-12)


def test_comparison_scales_linearly_in_measure():
    rng = np.random.default_rng(8)
    sample = _random_sample(m=5, D=2, seed=9)
    coeffs = rng.standard_normal((5, 2, 2))
    base = comparison_matrix(sample.gram, coeffs, sample.mu)
    doubled = comparison_matrix(
        sample.gram, coeffs, 2.0 * sample.mu
    )
    npt.assert_array_equal(doubled, 2.0 * base)


# ---------------------------------------------------------------------------
# readouts


def test_readout_closed_forms():
    a, b, c = 1.5, -0.25, 4.0
    C2 = np.array([[a, b], [b, c]])
    npt.assert_array_equal(readout(C2, "tri"), [a, b, c])
    npt.assert_array_equal(readout(C2, "diag"), [a, c])
    npt.assert_array_equal(readout(C2, "flat"), [a, b, b, c])
    pooled = readout(np.eye(3), "pool")
    npt.assert_allclose(pooled, [1.0, 0.0, np.sqrt(3.0)], atol=1e-15)


def test_readout_dims_consistent():
    for kind in READOUTS:
        n = 5
        assert readout(np.eye(n), kind).shape == (readout_dim(kind, n),)
    with pytest.raises(ConfigurationError):
        readout_dim("mean", 3)


@pytest.mark.parametrize("kind", READOUTS)
def test_readout_grad_matches_finite_differences(kind):
    rng = np.random.default_rng(10)
    C = rng.standard_normal((4, 4))
    g = rng.standard_normal(readout_dim(kind, 4))
    analytic = readout_grad(C, kind, g)
    step = 1e-6
    fd = np.zeros_like(C)
    for i in range(4):
        for j in range(4):
            cp, cm = C.copy(), C.copy()
            cp[i, j] += step
            cm[i, j] -= step
            fd[i, j] = (readout(cp, kind) @ g - readout(cm, kind) @ g) / (2 * step)
    npt.assert_allclose(analytic, fd, atol=1e-6)


def test_readout_pool_single_form_off_diagonal_is_zero():
    pooled = readout(np.array([[2.0]]), "pool")
    npt.assert_allclose(pooled, [2.0, 0.0, 2.0])


# ---------------------------------------------------------------------------
# AUROC


def test_auroc_reference_cases():
    assert auroc(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 0, 1, 1])) == 1.0
    assert auroc(np.array([0.1, 0.4, 0.35, 0.8]), np.array([0, 0, 1, 1])) == 0.75
    assert auroc(np.array([0.5, 0.5, 0.5, 0.5]), np.array([0, 1, 0, 1])) == 0.5
    with pytest.raises(UndefinedMetricError):
        auroc(np.array([0.1, 0.2]), np.array([1, 1]))


# ---------------------------------------------------------------------------
# loss and gradients


def _separable_pair():
    D = 2
    pts = np.random.default_rng(11).standard_normal((6, D))
    mu = np.full(6, 1.0 / 6)
    zero = GramField(D=D, k=1, values=np.zeros((6, D, D)))
    eye = GramField(D=D, k=1, values=np.tile(np.eye(D), (6, 1, 1)))
    s0 = CloudSample(cloud_id="a", points=pts, gram=zero, mu=mu, label=0)
    s1 = CloudSample(cloud_id="b", points=pts, gram=eye, mu=mu, label=1)
    return s0, s1


def test_converged_head_saturates_loss():
    s0, s1 = _separable_pair()
    net = _identity_coeff_net(2).astype(np.float64)
    model = FormClassifier(net=net, head_w=np.zeros(3), head_b=np.zeros(()), readout="tri")
    # tri features: zero field -> (0, 0, 0); identity field -> (1, 0, 1)
    model.head_w[:] = [10.0, 0.0, 10.0]
    model.head_b[...] = -10.0
    loss, _ = loss_and_grad(model, [s0, s1])
    assert loss <= 1e-3
    assert predict_logits(model, [s0, s1])[0] < 0 < predict_logits(model, [s0, s1])[1]


def test_duplicated_cloud_doubles_loss_exactly():
    sample = _random_sample(m=5, D=2, seed=12, label=1)
    model = FormClassifier.create(2, 2, n_forms=3, rng=13, dtype=np.float64)
    single, _ = loss_and_grad(model, [sample])
    double, _ = loss_and_grad(model, [sample, sample])
    assert double == 2.0 * single


def test_gradients_match_finite_differences():
    sample0 = _random_sample(m=5, D=3, seed=14, label=0)
    sample1 = _random_sample(m=5, D=3, seed=15, label=1)
    samples = [sample0, sample1]
    model = FormClassifier.create(3, 3, n_forms=2, hidden=(4,), rng=16, dtype=np.float64)
    _, grads = loss_and_grad(model, samples)
    params = model.parameters()
    step = 1e-5
    for p, g in zip(params, grads):
        flat_p = p.reshape(-1)
        flat_g = np.asarray(g).reshape(-1)
        idx = np.random.default_rng(17).choice(flat_p.size, size=min(6, flat_p.size), replace=False)
        for i in idx:
            orig = flat_p[i]
            flat_p[i] = orig + step
            up, _ = loss_and_grad(model, samples)
            flat_p[i] = orig - step
            dn, _ = loss_and_grad(model, samples)
            flat_p[i] = orig
            fd = (up - dn) / (2 * step)
            denom = max(abs(fd), abs(flat_g[i]), 1e-8)
            assert abs(fd - flat_g[i]) / denom <= 1e-4


@pytest.mark.parametrize("kind", READOUTS)
def test_logit_loss_and_validation_paths_agree(kind):
    samples = [_random_sample(m=6, D=3, seed=30 + i, label=i % 2) for i in range(4)]
    model = FormClassifier.create(3, 3, n_forms=3, hidden=(5,), readout_kind=kind, rng=31, dtype=np.float64)
    model.head_w[:] = np.random.default_rng(32).standard_normal(model.head_w.shape)
    model.head_b[...] = 0.3
    loss, _ = loss_and_grad(model, samples)
    assert loss == _loss_only(model, samples)
    by_hand = []
    for s in samples:
        c = comparison_matrix(s.gram, model.net.forward(s.points), s.mu)
        by_hand.append(readout(c, kind) @ model.head_w + model.head_b)
    npt.assert_array_equal(predict_logits(model, samples), by_hand)


def test_single_form_diag_readout_equals_global_inner_product():
    sample = _random_sample(m=7, D=3, seed=18, label=1)
    model = FormClassifier.create(3, 3, n_forms=1, readout_kind="diag", rng=19, dtype=np.float64)
    coeffs = model.net.forward(sample.points)
    c = comparison_matrix(sample.gram, coeffs, sample.mu)
    f = coeffs[:, 0, :]
    gip = sum(sample.mu[p] * f[p] @ sample.gram.values[p] @ f[p] for p in range(7))
    assert c[0, 0] == pytest.approx(gip, abs=1e-10)
    npt.assert_allclose(readout(c, "diag"), [gip], atol=1e-10)


# ---------------------------------------------------------------------------
# splits and training


def _training_set(n_per_class=8, seed=20):
    samples = []
    rng = np.random.default_rng(seed)
    for label in (0, 1):
        for i in range(n_per_class):
            s = _random_sample(m=6, D=2, seed=int(rng.integers(1 << 30)), label=label)
            s.cloud_id = f"cloud-{label}-{i:02d}"
            if label == 1:
                s.gram.values *= 3.0  # separable scale signal
            samples.append(s)
    return samples


def test_split_is_stratified_and_deterministic():
    samples = _training_set(n_per_class=10)
    splits = split_samples(samples, val_fraction=0.2, test_fraction=0.2, split_seed=0)
    assert splits == split_samples(samples, 0.2, 0.2, 0)
    all_idx = sorted(splits["train"] + splits["val"] + splits["test"])
    assert all_idx == list(range(20))
    for part, expected in (("train", 6), ("val", 2), ("test", 2)):
        labels = [samples[i].label for i in splits[part]]
        assert labels.count(0) == expected and labels.count(1) == expected
    assert split_samples(samples, 0.2, 0.2, 1) != splits


def test_train_is_deterministic_and_learns():
    samples = _training_set()
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=25, seed=0, split_seed=0)
    result = train(samples, config)
    again = train(samples, config)
    assert result.history == again.history
    assert result.test_auroc == again.test_auroc
    assert len(result.history) == 25
    assert set(result.history[0]) == {"epoch", "train_loss", "val_loss"}
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]
    assert set(result.splits) == {"train", "val", "test"}
    by_id = {s.cloud_id: s for s in samples}
    test_set = [by_id[cid] for cid in result.splits["test"]]
    assert evaluate(result.model, test_set) == result.test_auroc


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(readout="mean").validate()
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0).validate()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_bit_identical(tmp_path):
    samples = _training_set(n_per_class=3)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=4, seed=1, split_seed=1)
    result = train(samples, config)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, result.model, meta={"note": "roundtrip", "auroc": result.test_auroc})
    loaded, meta = load_checkpoint(path)
    assert meta["note"] == "roundtrip" and meta["auroc"] == result.test_auroc
    npt.assert_array_equal(predict_logits(loaded, samples), predict_logits(result.model, samples))
    assert loaded.readout == result.model.readout
    assert loaded.param_count == result.model.param_count


def test_checkpoint_corruption_detected(tmp_path):
    model = FormClassifier.create(2, 2, n_forms=1, rng=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheFormatError):
        load_checkpoint(path)
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(CacheFormatError):
        load_checkpoint(path)
