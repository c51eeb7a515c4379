"""Learnable form coefficients, comparison matrices, and the classifier.

A small dense network maps each ambient point to an (n_forms x B) block of
degree-k form coefficients. Per cloud those blocks are contracted against
the Gram field into a symmetric comparison matrix, reduced by a fixed
readout, and scored by a logistic head. Gradients are computed in closed
form end to end; training uses full-batch adaptive moment updates.

Training runs in float32. Gradient correctness is validated in float64
against central finite differences, so every backward formula here is
exact, not approximate.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
from scipy.stats import rankdata

from .data import GramField
from .errors import (
    CacheFormatError,
    ConfigurationError,
    MissingCacheError,
    NumericFailureError,
    UndefinedMetricError,
)
from .gram import contract

PARAM_BUDGET = 68_866

_CKPT_MAGIC = b"NPFC"
_CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIQQ")


@functools.lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle index pair for n forms, built once and shared read-only."""
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _tri_grad(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    dc = np.zeros_like(c)
    dc[_triu(c.shape[0])] = g
    return dc


def _diag_grad(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    dc = np.zeros_like(c)
    np.fill_diagonal(dc, g)
    return dc


def _pool(c: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    diag_sum = np.trace(c)
    off = (c.sum() - diag_sum) / (n * n - n) if n > 1 else c.dtype.type(0.0)
    fro = np.sqrt((c * c).sum())
    return np.array([diag_sum / n, off, fro], dtype=c.dtype)


def _pool_grad(c: np.ndarray, g: np.ndarray) -> np.ndarray:
    n = c.shape[0]
    dc = np.zeros_like(c)
    np.fill_diagonal(dc, g[0] / n)
    if n > 1:
        off = g[1] / (n * n - n)
        dc += off
        np.fill_diagonal(dc, np.diag(dc) - off)
    fro = np.sqrt((c * c).sum())
    if fro > 0:
        dc += (g[2] / fro) * c
    return dc


class _Readout(NamedTuple):
    dim: Callable[[int], int]  # feature length for n forms
    apply: Callable[[np.ndarray], np.ndarray]  # C -> features
    grad: Callable[[np.ndarray, np.ndarray], np.ndarray]  # (C, d features) -> dC


READOUTS: dict[str, _Readout] = {
    "tri": _Readout(lambda n: n * (n + 1) // 2, lambda c: c[_triu(c.shape[0])], _tri_grad),
    "flat": _Readout(lambda n: n * n, lambda c: c.reshape(-1), lambda c, g: g.reshape(c.shape).astype(c.dtype)),
    "diag": _Readout(lambda n: n, lambda c: np.diag(c).copy(), _diag_grad),
    "pool": _Readout(lambda n: 3, _pool, _pool_grad),
}


def _readout_kind(kind: str) -> _Readout:
    if kind not in READOUTS:
        raise ConfigurationError(f"unknown readout {kind!r}; expected one of {tuple(READOUTS)}")
    return READOUTS[kind]


def readout_dim(kind: str, n_forms: int) -> int:
    return _readout_kind(kind).dim(n_forms)


def readout(c: np.ndarray, kind: str) -> np.ndarray:
    """Reduce a comparison matrix to the feature vector for the head."""
    return _readout_kind(kind).apply(c)


def readout_grad(c: np.ndarray, kind: str, g: np.ndarray) -> np.ndarray:
    """Gradient of readout(c) pulled back to the comparison matrix."""
    return _readout_kind(kind).grad(c, g)


@dataclass(eq=False)
class FormNetwork:
    """Dense tanh network from R^D to n_forms x B coefficient blocks."""

    input_dim: int
    n_coeffs: int
    n_forms: int
    hidden: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def create(
        cls,
        input_dim: int,
        n_coeffs: int,
        n_forms: int,
        hidden: tuple[int, ...] = (32, 32),
        rng: np.random.Generator | int | None = None,
        dtype: np.dtype | type = np.float32,
    ) -> "FormNetwork":
        if not isinstance(rng, np.random.Generator):
            rng = np.random.default_rng(rng)
        sizes = [input_dim, *hidden, n_forms * n_coeffs]
        weights, biases = [], []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(dtype))
            biases.append(rng.uniform(-bound, bound, size=fan_out).astype(dtype))
        return cls(
            input_dim=input_dim,
            n_coeffs=n_coeffs,
            n_forms=n_forms,
            hidden=tuple(hidden),
            weights=weights,
            biases=biases,
        )

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    @property
    def param_count(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def astype(self, dtype) -> "FormNetwork":
        return FormNetwork(
            input_dim=self.input_dim,
            n_coeffs=self.n_coeffs,
            n_forms=self.n_forms,
            hidden=self.hidden,
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
        )

    def forward_trace(self, points: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Output (m, n_forms, B) plus the per-layer activations for backprop."""
        a = np.asarray(points, dtype=self.dtype)
        if a.ndim != 2 or a.shape[1] != self.input_dim:
            raise ConfigurationError(f"points must be (m, {self.input_dim}), got {a.shape}")
        trace = [a]
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            a = a @ w + b
            if i != last:
                a = np.tanh(a)
            trace.append(a)
        return a.reshape(a.shape[0], self.n_forms, self.n_coeffs), trace

    def forward(self, points: np.ndarray) -> np.ndarray:
        return self.forward_trace(points)[0]

    def backward(self, trace: list[np.ndarray], d_out: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Parameter gradients from the gradient w.r.t. the (m, l, B) output."""
        delta = d_out.reshape(d_out.shape[0], -1).astype(self.dtype)
        d_weights = [np.empty(0)] * len(self.weights)
        d_biases = [np.empty(0)] * len(self.biases)
        for i in range(len(self.weights) - 1, -1, -1):
            d_weights[i] = trace[i].T @ delta
            d_biases[i] = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ self.weights[i].T) * (1.0 - trace[i] ** 2)
        return d_weights, d_biases


@dataclass(eq=False)
class CloudSample:
    """One training example: points, Gram field, (m,) measure weights, binary label."""

    cloud_id: str
    points: np.ndarray
    gram: GramField
    mu: np.ndarray
    label: int | None = None


@dataclass(eq=False)
class FormClassifier:
    net: FormNetwork
    head_w: np.ndarray
    head_b: np.ndarray  # shape () scalar
    readout: str

    @classmethod
    def create(
        cls,
        input_dim: int,
        n_coeffs: int,
        n_forms: int = 8,
        hidden: tuple[int, ...] = (32, 32),
        readout_kind: str = "tri",
        rng: np.random.Generator | int | None = None,
        dtype: np.dtype | type = np.float32,
    ) -> "FormClassifier":
        net = FormNetwork.create(input_dim, n_coeffs, n_forms, hidden, rng, dtype)
        f_dim = readout_dim(readout_kind, n_forms)
        return cls(
            net=net,
            head_w=np.zeros(f_dim, dtype=dtype),
            head_b=np.zeros((), dtype=dtype),
            readout=readout_kind,
        )

    @property
    def dtype(self) -> np.dtype:
        return self.net.dtype

    @property
    def param_count(self) -> int:
        return self.net.param_count + self.head_w.size + 1

    def parameters(self) -> list[np.ndarray]:
        return [*self.net.weights, *self.net.biases, self.head_w, self.head_b]

    def astype(self, dtype) -> "FormClassifier":
        return FormClassifier(
            net=self.net.astype(dtype),
            head_w=self.head_w.astype(dtype),
            head_b=self.head_b.astype(dtype),
            readout=self.readout,
        )


def _forward(model: FormClassifier, sample: CloudSample) -> tuple[float, tuple]:
    """Logit of one cloud, and the cache the backward pass reuses: network
    activations, F G (m, l, B), the measure in the model dtype, C, and the
    readout features."""
    coeffs, trace = model.net.forward_trace(sample.points)
    c, fg, w = contract(sample.gram, coeffs, sample.mu)
    phi = readout(c, model.readout)
    return float(phi @ model.head_w + model.head_b), (trace, fg, w, c, phi)


def _bce(s: float, sample: CloudSample) -> float:
    """Binary cross-entropy of logit s against the cloud's label."""
    if sample.label not in (0, 1):
        raise ConfigurationError(f"cloud {sample.cloud_id}: label must be 0 or 1, got {sample.label}")
    loss = float(np.logaddexp(0.0, s) - float(sample.label) * s)
    if not np.isfinite(loss):
        raise NumericFailureError(f"cloud {sample.cloud_id}: non-finite loss")
    return loss


def predict_logits(model: FormClassifier, samples: list[CloudSample]) -> np.ndarray:
    return np.array([_forward(model, s)[0] for s in samples])


def loss_and_grad(model: FormClassifier, samples: list[CloudSample]) -> tuple[float, list[np.ndarray]]:
    """Summed binary cross-entropy and gradients for all parameters.

    The gradient list matches ``model.parameters()`` order. Each cloud
    contributes independently, so duplicating a cloud doubles its term.
    """
    d_weights = [np.zeros_like(w) for w in model.net.weights]
    d_biases = [np.zeros_like(b) for b in model.net.biases]
    d_hw = np.zeros_like(model.head_w)
    d_hb = np.zeros_like(model.head_b)
    total = 0.0
    for sample in samples:
        s, (trace, fg, w_mu, c, phi) = _forward(model, sample)
        total += _bce(s, sample)
        ds = np.asarray(1.0 / (1.0 + np.exp(-s)) - float(sample.label), dtype=model.dtype)
        d_hw += ds * phi
        d_hb += ds
        dc = readout_grad(c, model.readout, ds * model.head_w)
        # d/dF of mu_p F G F^T contracted with dc; G symmetric
        d_coeffs = ((dc + dc.T) @ fg) * w_mu[:, None, None]
        dw, db = model.net.backward(trace, d_coeffs)
        for i in range(len(d_weights)):
            d_weights[i] += dw[i]
            d_biases[i] += db[i]
    return total, [*d_weights, *d_biases, d_hw, d_hb]


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    ranks = rankdata(scores)
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# training


# shares of each label's clouds held out for validation and test
VAL_FRACTION = 0.2
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class TrainConfig:
    n_forms: int = 8
    hidden: tuple[int, ...] = (32, 32)
    readout: str = "tri"
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    split_seed: int = 0

    def validate(self) -> None:
        if self.epochs < 1 or self.learning_rate <= 0 or self.n_forms < 1:
            raise ConfigurationError("epochs, learning rate, and n_forms must be positive")
        _readout_kind(self.readout)


@dataclass(eq=False)
class TrainResult:
    model: FormClassifier
    history: list[dict]
    test_auroc: float
    splits: dict[str, list[str]]


def split_samples(
    samples: list[CloudSample], val_fraction: float, test_fraction: float, split_seed: int
) -> dict[str, list[int]]:
    """Deterministic stratified split by cloud, label-balanced."""
    by_label: dict[int, list[int]] = {}
    for i, s in enumerate(samples):
        by_label.setdefault(int(s.label), []).append(i)
    splits: dict[str, list[int]] = {"train": [], "val": [], "test": []}
    for label in sorted(by_label):
        idx = np.array(by_label[label])
        rng = np.random.default_rng([split_seed, label])
        idx = idx[rng.permutation(idx.size)]
        n_test = int(round(test_fraction * idx.size))
        n_val = int(round(val_fraction * idx.size))
        splits["test"].extend(idx[:n_test].tolist())
        splits["val"].extend(idx[n_test : n_test + n_val].tolist())
        splits["train"].extend(idx[n_test + n_val :].tolist())
    return {k: sorted(v) for k, v in splits.items()}


# Adam moment decay rates and denominator floor, the usual defaults
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adaptive moment estimation."""

    def __init__(self, params: list[np.ndarray], lr: float):
        self.lr = lr
        self.step = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def update(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        self.step += 1
        b1c = 1.0 - _ADAM_BETA1**self.step
        b2c = 1.0 - _ADAM_BETA2**self.step
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= _ADAM_BETA1
            m += (1.0 - _ADAM_BETA1) * g
            v *= _ADAM_BETA2
            v += (1.0 - _ADAM_BETA2) * g * g
            p -= (self.lr * (m / b1c) / (np.sqrt(v / b2c) + _ADAM_EPS)).astype(p.dtype)


def train(samples: list[CloudSample], config: TrainConfig | None = None) -> TrainResult:
    """Full-batch training with a fixed 60/20/20-style split by cloud."""
    config = config or TrainConfig()
    config.validate()
    if not samples:
        raise ConfigurationError("empty training set")
    splits = split_samples(samples, VAL_FRACTION, TEST_FRACTION, config.split_seed)
    train_set = [samples[i] for i in splits["train"]]
    val_set = [samples[i] for i in splits["val"]]
    test_set = [samples[i] for i in splits["test"]]
    first = samples[0]
    model = FormClassifier.create(
        input_dim=first.points.shape[1],
        n_coeffs=first.gram.B,
        n_forms=config.n_forms,
        hidden=config.hidden,
        readout_kind=config.readout,
        rng=np.random.default_rng([config.seed]),
        dtype=np.float32,
    )
    params = model.parameters()
    opt = _Adam(params, lr=config.learning_rate)
    history: list[dict] = []
    for epoch in range(config.epochs):
        loss, grads = loss_and_grad(model, train_set)
        opt.update(params, grads)
        row = {"epoch": epoch, "train_loss": loss / max(1, len(train_set))}
        if val_set:
            row["val_loss"] = _loss_only(model, val_set) / len(val_set)
        history.append(row)
    scores = predict_logits(model, test_set)
    labels = np.array([s.label for s in test_set])
    return TrainResult(
        model=model,
        history=history,
        test_auroc=auroc(scores, labels),
        splits={k: [samples[i].cloud_id for i in v] for k, v in splits.items()},
    )


def _loss_only(model: FormClassifier, samples: list[CloudSample]) -> float:
    return sum(_bce(_forward(model, s)[0], s) for s in samples)


def evaluate(model: FormClassifier, samples: list[CloudSample]) -> float:
    scores = predict_logits(model, samples)
    labels = np.array([s.label for s in samples])
    return auroc(scores, labels)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: FormClassifier, meta: dict | None = None) -> None:
    """Header, float32 little-endian parameter blob, then a JSON echo."""
    arch = {
        "input_dim": model.net.input_dim,
        "n_coeffs": model.net.n_coeffs,
        "n_forms": model.net.n_forms,
        "hidden": list(model.net.hidden),
        "readout": model.readout,
    }
    echo = json.dumps({"arch": arch, "meta": meta or {}}, sort_keys=True).encode()
    flat = np.concatenate([p.astype("<f4").reshape(-1) for p in model.parameters()])
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, flat.size, len(echo)))
        fh.write(flat.tobytes())
        fh.write(echo)


def load_checkpoint(path: str | Path) -> tuple[FormClassifier, dict]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise MissingCacheError(f"no checkpoint at {path}; run 'pointforms train' first") from exc
    if len(raw) < _CKPT_HEADER.size:
        raise CacheFormatError(f"{path}: shorter than the checkpoint header")
    magic, version, n_params, echo_len = _CKPT_HEADER.unpack_from(raw, 0)
    if magic != _CKPT_MAGIC or version != _CKPT_VERSION:
        raise CacheFormatError(f"{path}: bad checkpoint magic or version")
    blob_end = _CKPT_HEADER.size + 4 * n_params
    if len(raw) != blob_end + echo_len:
        raise CacheFormatError(f"{path}: checkpoint length mismatch")
    flat = np.frombuffer(raw[_CKPT_HEADER.size : blob_end], dtype="<f4")
    try:
        info = json.loads(raw[blob_end:].decode())
        arch, meta = info["arch"], info["meta"]
    except (ValueError, KeyError, TypeError) as exc:  # undecodable, unparsable, or missing keys
        raise CacheFormatError(f"{path}: unreadable checkpoint echo: {exc!r}") from exc
    model = FormClassifier.create(
        input_dim=arch["input_dim"],
        n_coeffs=arch["n_coeffs"],
        n_forms=arch["n_forms"],
        hidden=tuple(arch["hidden"]),
        readout_kind=arch["readout"],
        rng=0,
        dtype=np.float32,
    )
    offset = 0
    for p in model.parameters():
        chunk = flat[offset : offset + p.size].reshape(p.shape)
        p[...] = chunk
        offset += p.size
    if offset != n_params:
        raise CacheFormatError(f"{path}: parameter count mismatch")
    return model, meta
