"""Form networks, comparison matrices, readouts, loss, and training."""

import errno
import json
import math
import os
import signal
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from pointforms import (
    CacheFormatError,
    CloudSample,
    ConfigurationError,
    FormNetwork,
    GramField,
    NumericFailureError,
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
import pointforms
from pointforms import data, network
from pointforms.data import fork_map, head_count
from pointforms.network import PACK_FLOATS, _Adam, _loss_only, _pack


def _identity_coeff_net(D: int) -> FormNetwork:
    """No hidden layers, zero weights, bias = flattened identity: every
    point maps to the l = B = D standard basis rows. Tri readout, zero head."""
    return FormNetwork(
        input_dim=D,
        n_coeffs=D,
        n_forms=D,
        hidden=(),
        readout="tri",
        weights=[np.zeros((D, D * D))],
        biases=[np.eye(D).ravel().copy()],
        head_w=np.zeros(readout_dim("tri", D)),
        head_b=np.zeros(()),
    )


def _random_field(m=6, D=3, seed=0) -> tuple[np.ndarray, GramField]:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, D))
    raw = rng.standard_normal((m, D, D))
    return pts, GramField(D=D, k=1, values=np.einsum("pik,pjk->pij", raw, raw))


def _random_sample(m=6, D=3, seed=0, label=0):
    """A cloud whose field is weighted by the uniform measure 1/m, as features load."""
    pts, gram = _random_field(m, D, seed)
    gram.values *= np.full(m, 1.0 / m)[:, None, None]
    return CloudSample(cloud_id=f"s{seed}", points=pts, gram=gram, label=label)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_matches_dense_oracle():
    rng = np.random.default_rng(1)
    net = FormNetwork.create(3, 4, 2, hidden=(5, 7), readout="tri", rng=rng, dtype=np.float64)
    pts = rng.standard_normal((6, 3))
    out = net.forward(pts)
    assert out.shape == (6, 2, 4)
    a = pts
    a = np.tanh(a @ net.weights[0] + net.biases[0])
    a = np.tanh(a @ net.weights[1] + net.biases[1])
    a = a @ net.weights[2] + net.biases[2]
    npt.assert_allclose(out, a.reshape(6, 2, 4), atol=1e-12)


def test_forward_zero_parameters_gives_zero():
    net = FormNetwork.create(2, 3, 2, hidden=(4,), readout="tri", rng=0, dtype=np.float64)
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
    net = FormNetwork.create(3, 2, 1, hidden=(32, 32), readout="tri", rng=0)
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
            model = FormNetwork.create(D, B, n_forms=8, hidden=(32, 32), readout=kind, rng=0)
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
    _, gram = _random_field(m=m, D=D, seed=5)
    mu = np.full(m, 1.0 / m)
    coeffs = rng.standard_normal((m, forms, D))
    expected = np.zeros((forms, forms))
    for a in range(forms):
        for b in range(forms):
            for p in range(m):
                for i in range(D):
                    for j in range(D):
                        expected[a, b] += (
                            mu[p]
                            * coeffs[p, a, i]
                            * gram.values[p, i, j]
                            * coeffs[p, b, j]
                        )
    got = comparison_matrix(gram, coeffs, mu)
    npt.assert_allclose(got, expected, atol=1e-12)


def test_comparison_permutation_invariance():
    rng = np.random.default_rng(6)
    _, gram = _random_field(m=8, D=3, seed=7)
    mu = np.full(8, 1.0 / 8)
    coeffs = rng.standard_normal((8, 2, 3))
    base = comparison_matrix(gram, coeffs, mu)
    perm = rng.permutation(8)
    permuted = comparison_matrix(
        GramField(D=3, k=1, values=gram.values[perm]),
        coeffs[perm],
        mu[perm],
    )
    npt.assert_allclose(permuted, base, atol=1e-12)


def test_comparison_scales_linearly_in_measure():
    rng = np.random.default_rng(8)
    _, gram = _random_field(m=5, D=2, seed=9)
    mu = np.full(5, 1.0 / 5)
    coeffs = rng.standard_normal((5, 2, 2))
    base = comparison_matrix(gram, coeffs, mu)
    doubled = comparison_matrix(
        gram, coeffs, 2.0 * mu
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
    with pytest.raises(UndefinedMetricError):
        auroc(np.array([0.1, 0.3, 0.2]), np.array([0, 1, 2]))


def _auroc_by_pairs(scores: np.ndarray, labels: np.ndarray) -> float:
    """The definition: positive-over-negative wins plus 1/2 per tie, over n_pos * n_neg."""
    pos, neg = scores[labels == 1], scores[labels == 0]
    wins = sum(float((p > neg).sum()) + 0.5 * float((p == neg).sum()) for p in pos)
    return wins / (pos.size * neg.size)


def test_auroc_matches_pairwise_definition_under_heavy_ties():
    rng = np.random.default_rng(7)
    checked = 0
    for trial in range(300):
        n = int(rng.integers(2, 120))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            continue
        scores = [
            rng.standard_normal(n),
            rng.integers(0, 4, size=n).astype(float),
            np.round(rng.standard_normal(n), 1),
            np.where(rng.random(n) < 0.3, np.inf * rng.choice([-1.0, 1.0], size=n), rng.integers(0, 3, size=n)),
        ][trial % 4]
        assert auroc(scores, labels) == _auroc_by_pairs(scores, labels)
        checked += 1
    assert checked > 250


def test_auroc_nan_score_is_a_numeric_failure():
    with pytest.raises(NumericFailureError):
        auroc(np.array([np.nan, 1.0, 2.0, 0.5]), np.array([0, 1, 0, 1]))


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, since other test modules import scipy.stats into this one
    src = Path(pointforms.__file__).resolve().parents[1]
    code = "import sys, pointforms.cli; assert 'scipy.stats' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# ---------------------------------------------------------------------------
# loss and gradients


def _separable_pair():
    D = 2
    pts = np.random.default_rng(11).standard_normal((6, D))
    # fields weighted by the uniform measure 1/6
    zero = GramField(D=D, k=1, values=np.zeros((6, D, D)))
    eye = GramField(D=D, k=1, values=np.tile(np.eye(D) / 6, (6, 1, 1)))
    s0 = CloudSample(cloud_id="a", points=pts, gram=zero, label=0)
    s1 = CloudSample(cloud_id="b", points=pts, gram=eye, label=1)
    return s0, s1


def test_converged_head_saturates_loss():
    s0, s1 = _separable_pair()
    model = _identity_coeff_net(2)
    # tri features: zero field -> (0, 0, 0); identity field -> (1, 0, 1)
    model.head_w[:] = [10.0, 0.0, 10.0]
    model.head_b[...] = -10.0
    loss, _ = loss_and_grad(model, [s0, s1])
    assert loss <= 1e-3
    assert predict_logits(model, [s0, s1])[0] < 0 < predict_logits(model, [s0, s1])[1]


def test_duplicated_cloud_doubles_loss_exactly():
    sample = _random_sample(m=5, D=2, seed=12, label=1)
    model = FormNetwork.create(2, 2, n_forms=3, hidden=(32, 32), readout="tri", rng=13, dtype=np.float64)
    single, _ = loss_and_grad(model, [sample])
    double, _ = loss_and_grad(model, [sample, sample])
    assert double == 2.0 * single


def test_gradients_match_finite_differences():
    sample0 = _random_sample(m=5, D=3, seed=14, label=0)
    sample1 = _random_sample(m=5, D=3, seed=15, label=1)
    samples = [sample0, sample1]
    model = FormNetwork.create(3, 3, n_forms=2, hidden=(4,), readout="tri", rng=16, dtype=np.float64)
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


def _ragged_samples(n=200, D=3, seed=40):
    """Clouds of 3 to 40 points: at n_forms = B = 3 they fill more than one pack."""
    sizes = np.random.default_rng(seed).integers(3, 41, size=n)
    return [_random_sample(m=int(m), D=D, seed=seed + 1 + i, label=i % 2) for i, m in enumerate(sizes)]


@pytest.mark.parametrize("kind", READOUTS)
def test_logit_loss_and_validation_paths_agree(kind):
    equal = [_random_sample(m=6, D=3, seed=30 + i, label=i % 2) for i in range(4)]
    ragged = _ragged_samples()
    model = FormNetwork.create(3, 3, n_forms=3, hidden=(5,), readout=kind, rng=31, dtype=np.float64)
    assert len(_pack(model, ragged)) >= 2
    model.head_w[:] = np.random.default_rng(32).standard_normal(model.head_w.shape)
    model.head_b[...] = 0.3
    for samples in (equal, ragged):
        loss, _ = loss_and_grad(model, samples)
        assert loss == _loss_only(model, samples)
        by_hand = []
        for s in samples:
            # the sample's field already carries its measure, so it is weighted by ones here
            c = comparison_matrix(s.gram, model.forward(s.points), np.ones(s.gram.m))
            by_hand.append(readout(c, kind) @ model.head_w + model.head_b)
        npt.assert_array_equal(predict_logits(model, samples), by_hand)


def test_packed_loss_and_grad_equal_the_sum_of_one_cloud_calls():
    samples = _ragged_samples()
    model = FormNetwork.create(3, 3, n_forms=3, hidden=(5,), readout="tri", rng=33, dtype=np.float64)
    model.head_w[:] = np.random.default_rng(34).standard_normal(model.head_w.shape)
    assert len(_pack(model, samples)) >= 2
    loss, grads = loss_and_grad(model, samples)
    singles = [loss_and_grad(model, [s]) for s in samples]
    npt.assert_allclose(loss, sum(single for single, _ in singles), rtol=1e-12)
    for i, g in enumerate(grads):
        npt.assert_allclose(g, sum(gs[i] for _, gs in singles), rtol=1e-10)


@pytest.mark.parametrize(("m", "n_clouds"), [(6, 40), (PACK_FLOATS // (8 * 3) + 1, 3)], ids=["narrow", "wide"])
def test_one_network_pass_per_pack(m, n_clouds, monkeypatch):
    samples = [_random_sample(m=m, D=3, seed=50 + i, label=i % 2) for i in range(n_clouds)]
    model = FormNetwork.create(3, 3, n_forms=8, hidden=(5,), readout="tri", rng=51, dtype=np.float64)
    calls = []
    forward_trace = FormNetwork.forward_trace
    monkeypatch.setattr(FormNetwork, "forward_trace", lambda self, pts: calls.append(len(pts)) or forward_trace(self, pts))
    loss_and_grad(model, samples)
    assert sum(calls) == m * n_clouds
    if m * 8 * 3 <= PACK_FLOATS:
        assert len(calls) < n_clouds
    else:
        assert calls == [m] * n_clouds


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_cloud_pack_views_the_gram_field(dtype):
    sample = _random_sample(m=7, D=3, seed=60, label=1)
    sample.gram.values = sample.gram.values.astype(dtype)
    model = FormNetwork.create(3, 3, n_forms=2, hidden=(5,), readout="tri", rng=61, dtype=dtype)
    (pack,) = _pack(model, [sample])
    assert np.shares_memory(pack.values, sample.gram.values)


def test_single_form_diag_readout_equals_global_inner_product():
    pts, gram = _random_field(m=7, D=3, seed=18)
    mu = np.full(7, 1.0 / 7)
    model = FormNetwork.create(3, 3, n_forms=1, hidden=(32, 32), readout="diag", rng=19, dtype=np.float64)
    coeffs = model.forward(pts)
    c = comparison_matrix(gram, coeffs, mu)
    f = coeffs[:, 0, :]
    gip = sum(mu[p] * f[p] @ gram.values[p] @ f[p] for p in range(7))
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
    assert set(result.history[0]) == {"epoch", "train_loss", "grad_norm", "val_loss"}
    losses = [row["train_loss"] for row in result.history]
    assert losses[-1] < losses[0]
    assert set(result.splits) == {"train", "val", "test"}
    by_id = {s.cloud_id: s for s in samples}
    test_set = [by_id[cid] for cid in result.splits["test"]]
    assert evaluate(result.model, test_set) == result.test_auroc


def test_validation_runs_at_epoch_0_every_tenth_epoch_and_the_last():
    samples = _training_set()
    result = train(samples, TrainConfig(n_forms=2, hidden=(8,), epochs=25, seed=0, split_seed=0))
    assert [row["epoch"] for row in result.history if "val_loss" in row] == [0, 10, 20, 24]
    val_set = [s for s in samples if s.cloud_id in set(result.splits["val"])]
    assert result.history[-1]["val_loss"] == _loss_only(result.model, val_set) / len(val_set)


def test_train_config_validation():
    with pytest.raises(ConfigurationError):
        TrainConfig(readout="mean")
    with pytest.raises(ConfigurationError):
        TrainConfig(epochs=0)


@pytest.mark.parametrize(
    ("points", "cut"),
    [([64] * 4, 2), ([64] * 5, 3), ([64, 192, 64, 128, 64], 2), ([10, 100], 1), ([100, 10], 1), ([192, 64, 64], 1)],
)
def test_head_runs_through_the_pack_that_reaches_half_the_points(points, cut):
    assert head_count(points) == cut


def _forced_worker(monkeypatch, forked: bool = True) -> None:
    """Take the forked-worker path, or not, whatever the BLAS threads of this process."""
    monkeypatch.setattr(data, "_can_fork", lambda: forked)


def _assert_no_child() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# forking a process that holds a BLAS thread warns on Python >= 3.12; these tests fork on purpose
fork_warning = pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")


# two clouds per pack of _training_set(n_per_class=7): 10 train clouds, 5 packs, the head 3 of them
TWO_CLOUD_PACKS = 2 * 6 * 2 * 2


def _head_and_tail_sums(samples: list[CloudSample], config: TrainConfig) -> tuple[float, list[np.ndarray], int]:
    """Epoch 0's sums as ``loss_and_grad`` of the head packs plus that of the tail, and the train split's size."""
    first = samples[0]
    model = FormNetwork.create(
        first.points.shape[1], first.gram.B, config.n_forms, config.hidden, config.readout,
        rng=np.random.default_rng([config.seed]), dtype=np.float32,
    )
    packs = _pack(model, [samples[i] for i in split_samples(samples, 0.2, 0.2, config.split_seed)["train"]])
    cut = head_count([len(p.points) for p in packs])
    loss, grads = loss_and_grad(model, packs[:cut])
    tail_loss, tail_grads = loss_and_grad(model, packs[cut:])
    for g, t in zip(grads, tail_grads):
        g += t
    return loss + tail_loss, grads, sum(len(p.samples) for p in packs)


@fork_warning
@pytest.mark.parametrize("forked", [False, True])
def test_an_epochs_sums_are_the_head_sums_plus_the_tail_sums(forked, monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=1, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    loss, grads, n_train = _head_and_tail_sums(samples, config)
    handed = []
    monkeypatch.setattr(_Adam, "update", lambda self, params, g: handed.append([x.copy() for x in g]))
    _forced_worker(monkeypatch, forked)
    result = train(samples, config)
    _assert_no_child()
    assert result.timings["worker"] is forked
    assert result.history[0]["train_loss"] == loss / n_train
    for g, h in zip(grads, handed[0]):
        assert g.tobytes() == h.tobytes()


@fork_warning
@pytest.mark.parametrize("cut", range(6))
def test_forced_worker_trains_bitwise_as_one_process(cut, monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=12, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    monkeypatch.setattr(network, "head_count", lambda costs: cut)
    _forced_worker(monkeypatch, False)
    alone = train(samples, config)
    _forced_worker(monkeypatch)
    forked = train(samples, config)
    _assert_no_child()
    # cut 0 leaves the head empty: no worker
    assert not alone.timings["worker"] and forked.timings["worker"] is (cut > 0)
    assert forked.history == alone.history
    assert forked.test_auroc == alone.test_auroc
    for a, b in zip(alone.model.parameters(), forked.model.parameters()):
        assert a.tobytes() == b.tobytes()


@fork_warning
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the NaN loss itself
def test_worker_error_reaches_the_caller_and_leaves_no_child(monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    _forced_worker(monkeypatch)
    head_cloud = samples[split_samples(samples, 0.2, 0.2, 0)["train"][0]]
    head_cloud.gram.values[0, 0, 0] = np.nan
    with pytest.raises(NumericFailureError, match=f"cloud {head_cloud.cloud_id}: non-finite loss"):
        train(samples, config)
    _assert_no_child()


@fork_warning
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the NaN losses themselves
@pytest.mark.parametrize("forked", [False, True])
def test_a_nan_in_the_head_and_the_tail_names_the_head_cloud(forked, monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    _forced_worker(monkeypatch, forked)
    train_ids = split_samples(samples, 0.2, 0.2, 0)["train"]
    head_cloud, tail_cloud = samples[train_ids[0]], samples[train_ids[-1]]
    for s in (head_cloud, tail_cloud):
        s.gram.values[0, 0, 0] = np.nan
    with pytest.raises(NumericFailureError, match=f"cloud {head_cloud.cloud_id}: non-finite loss"):
        train(samples, config)
    _assert_no_child()


@fork_warning
def test_forced_worker_parent_calls_loss_and_grad_once_per_epoch(monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=4, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    _forced_worker(monkeypatch)
    calls = []
    inner = network.loss_and_grad
    monkeypatch.setattr(network, "loss_and_grad", lambda *args: calls.append(os.getpid()) or inner(*args))
    result = train(samples, config)
    _assert_no_child()
    # the worker's calls are made in its own process and counted there
    assert result.timings["worker"] and calls == [os.getpid()] * config.epochs


@fork_warning
def test_ignored_sigchld_leaves_fork_map_and_train_as_one_process(monkeypatch, forked_workers):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    _forced_worker(monkeypatch, False)
    alone = train(samples, config)
    _forced_worker(monkeypatch)
    # as under an inherited "trap '' CHLD": the kernel reaps each child, and waitpid finds none
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        forked = train(samples, config)
        mapped = fork_map(lambda x: x * x, [1, 2, 3, 4], lambda x: 1)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    _assert_no_child()
    assert forked.timings["worker"] and len(forked_workers) == 1
    assert mapped == [1, 4, 9, 16] and forked.history == alone.history
    for a, b in zip(alone.model.parameters(), forked.model.parameters()):
        assert a.tobytes() == b.tobytes()


def test_grad_norm_is_the_norm_of_the_mean_loss_gradient():
    samples = _training_set()
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    result = train(samples, config)
    norms = [row["grad_norm"] for row in result.history]
    assert len(norms) == 3 and all(n > 0 for n in norms)
    # epoch 0 takes the gradient at the initial parameters
    first = samples[0]
    model = FormNetwork.create(
        first.points.shape[1], first.gram.B, 2, (8,), "tri", rng=np.random.default_rng([0]), dtype=np.float32
    )
    train_set = [samples[i] for i in split_samples(samples, 0.2, 0.2, 0)["train"]]
    _, grads = loss_and_grad(model, train_set)
    expected = math.sqrt(sum(float(np.sum(g.astype(np.float64) ** 2)) for g in grads)) / len(train_set)
    assert norms[0] == pytest.approx(expected, rel=1e-12)


@fork_warning
def test_forked_or_failed_fork_grad_norm_equals_one_process(monkeypatch):
    samples = _training_set(n_per_class=7)
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=12, seed=0, split_seed=0)
    monkeypatch.setattr(network, "PACK_FLOATS", TWO_CLOUD_PACKS)
    _forced_worker(monkeypatch, False)
    alone = train(samples, config)
    _forced_worker(monkeypatch)
    forked = train(samples, config)
    _assert_no_child()

    def fork_fails():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork_fails)
    unforked = train(samples, config)
    assert forked.timings["worker"] and not unforked.timings["worker"]
    for result in (forked, unforked):
        assert "grad_norm" in result.history[0] and result.history == alone.history
        for a, b in zip(alone.model.parameters(), result.model.parameters()):
            assert a.tobytes() == b.tobytes()


def test_tiny_train_splits_run_no_worker(monkeypatch):
    _forced_worker(monkeypatch)
    monkeypatch.setattr(network, "Worker", None)  # any attempt to fork fails the test
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    # one cloud per label in train: one pack
    result = train(_training_set(n_per_class=3), config)
    assert len(result.splits["train"]) == 2 and not result.timings["worker"]
    # a train split of one cloud: it trains, then one label cannot score an AUROC
    lone = [s for s in _training_set(n_per_class=3) if s.label == 0]
    with pytest.raises(UndefinedMetricError):
        train(lone, config)
    _assert_no_child()


@pytest.mark.parametrize("label", [None, 2, 1.5])
def test_train_checks_every_label_before_the_split(label):
    config = TrainConfig(n_forms=2, hidden=(8,), epochs=3, seed=0, split_seed=0)
    for i in range(10):  # the cloud in each position, whichever split it would land in
        samples = _training_set(n_per_class=5)
        samples[i].label = label
        with pytest.raises(ConfigurationError, match=f"cloud {samples[i].cloud_id}: label must be 0 or 1, got {label}"):
            train(samples, config)


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


def test_checkpoint_layout_is_pinned(tmp_path):
    model = FormNetwork.create(3, 2, n_forms=2, hidden=(4,), readout="pool", rng=5)
    model.head_w[:] = [0.5, -1.0, 2.0]
    model.head_b[...] = 0.25
    params = model.parameters()
    assert all(p is q for p, q in zip(params, [*model.weights, *model.biases, model.head_w, model.head_b], strict=True))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, meta={"note": "pinned"})
    raw = path.read_bytes()
    header = struct.Struct("<4sIQQ")
    n_params = model.param_count
    blob_end = header.size + 4 * n_params
    echo = raw[blob_end:]
    assert header.unpack_from(raw, 0) == (b"NPFC", 1, n_params, len(echo))
    blob = np.frombuffer(raw[header.size : blob_end], dtype="<f4")
    npt.assert_array_equal(blob, np.concatenate([p.astype("<f4").reshape(-1) for p in params]))
    info = json.loads(echo)
    assert set(info["arch"]) == {"input_dim", "n_coeffs", "n_forms", "hidden", "readout"}
    assert info["arch"] == {"input_dim": 3, "n_coeffs": 2, "n_forms": 2, "hidden": [4], "readout": "pool"}
    assert info["meta"] == {"note": "pinned"}


def test_checkpoint_corruption_detected(tmp_path):
    model = FormNetwork.create(2, 2, n_forms=1, hidden=(32, 32), readout="tri", rng=2)
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
