"""Learnable form coefficients, comparison matrices, and the classifier.

A small dense network maps each ambient point to an (n_forms x B) block of
degree-k form coefficients. Per cloud those blocks are contracted against
the measure-weighted Gram field into a symmetric comparison matrix, reduced
by a fixed readout, and scored by a logistic head, in cache-sized packs of
clouds: one network pass per pack, one GEMM per cloud for its comparison matrix.
Gradients are computed in closed form end to end; training uses
full-batch adaptive moment updates.

The full-batch loss and gradient are a sum of independent per-cloud terms.
Each epoch ``train`` adds two sums: ``loss_and_grad`` of the head packs (the
first half of the points, ``data.head_count``) and of the tail. Where a
second CPU is free, one forked worker (``data.Worker``) computes the head's
while this process computes the tail's; otherwise this process computes
both, so the two paths add the same two sums and agree bitwise.

Training runs in float32. Gradient correctness is validated in float64
against central finite differences, so every backward formula here is
exact, not approximate.
"""

from __future__ import annotations

import functools
import json
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import data
from .data import GramField, Worker, head_count, read_framed
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
# the FormNetwork fields a checkpoint echoes, in FormNetwork.create's argument order
_CKPT_ARCH = ("input_dim", "n_coeffs", "n_forms", "hidden", "readout")


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
    """The form classifier: a dense tanh network from R^D to n_forms x B
    coefficient blocks, the readout of the comparison matrix, and a
    logistic head. ``parameters()`` is the one parameter order shared by
    gradients, the optimizer and checkpoints."""

    input_dim: int
    n_coeffs: int
    n_forms: int
    hidden: tuple[int, ...]
    readout: str
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    head_w: np.ndarray
    head_b: np.ndarray  # shape () scalar

    @classmethod
    def create(
        cls,
        input_dim: int,
        n_coeffs: int,
        n_forms: int,
        hidden: tuple[int, ...],
        readout: str,
        rng: np.random.Generator | int | None,
        dtype: np.dtype | type = np.float32,
    ) -> "FormNetwork":
        """Uniform fan-in weights and biases drawn layer by layer; zero head."""
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
            readout=readout,
            weights=weights,
            biases=biases,
            head_w=np.zeros(readout_dim(readout, n_forms), dtype=dtype),
            head_b=np.zeros((), dtype=dtype),
        )

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def parameters(self) -> list[np.ndarray]:
        return [*self.weights, *self.biases, self.head_w, self.head_b]

    @property
    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

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
        delta = d_out.reshape(d_out.shape[0], -1).astype(self.dtype, copy=False)
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
    """One training example: points, the Gram field weighted by its measure (slice p is mu_p G_p), binary label."""

    cloud_id: str
    points: np.ndarray
    gram: GramField
    label: int | None = None


# Network output floats (points x n_forms x B) a pack holds, 128 KiB at fp32: its activations
# and A stay in cache, where a whole-split stack fell out of it and ran slower than one cloud at a time.
PACK_FLOATS = 32_768


class _Pack(NamedTuple):
    """Consecutive clouds concatenated along the point axis, in the model dtype."""

    samples: list[CloudSample]
    points: np.ndarray  # (P, D)
    values: np.ndarray  # (P, B, B); a lone cloud's field itself, as a copy of wide fields costs a split's worth
    cols: list[slice]  # each cloud's columns of A


def _pack(model: FormNetwork, samples: list[CloudSample]) -> list[_Pack]:
    """Group clouds into packs of at most PACK_FLOATS network outputs (a wider cloud is a pack
    of its own), checking each against the model; packs pass through unchanged."""
    if samples and isinstance(samples[0], _Pack):
        return samples
    groups: list[list[CloudSample]] = []
    size = 0
    for s in samples:
        m = s.gram.m
        if np.shape(s.points) != (m, model.input_dim) or s.gram.B != model.n_coeffs:
            got = f"points {np.shape(s.points)} and a B={s.gram.B} field over {m} points"
            raise ConfigurationError(f"cloud {s.cloud_id}: {got} do not fit D={model.input_dim}, B={model.n_coeffs}")
        n = m * model.n_forms * model.n_coeffs
        if not groups or size + n > PACK_FLOATS:
            groups.append([])
            size = 0
        groups[-1].append(s)
        size += n

    packs = []
    for g in groups:
        fields = [s.gram.values for s in g]
        values = fields[0].astype(model.dtype, copy=False) if len(g) == 1 else np.concatenate(fields, dtype=model.dtype)
        ends = (np.cumsum([s.gram.m for s in g]) * model.n_coeffs).tolist()
        cols = [slice(lo, hi) for lo, hi in zip([0, *ends], ends)]
        packs.append(_Pack(g, np.concatenate([s.points for s in g], dtype=model.dtype), values, cols))
    return packs


def _forward(model: FormNetwork, pack: _Pack) -> tuple[list[float], tuple]:
    """Logits of a pack's clouds, and what backward reuses: activations, A = F W, each C and its features."""
    coeffs, trace = model.forward_trace(pack.points)
    cs, a = contract(pack.values, coeffs, pack.cols)
    phis = [readout(c, model.readout) for c in cs]
    return [float(phi @ model.head_w + model.head_b) for phi in phis], (trace, a, cs, phis)


def _bce(s: float, sample: CloudSample) -> float:
    """Binary cross-entropy of logit s against the cloud's label."""
    loss = float(np.logaddexp(0.0, s) - float(sample.label) * s)
    if not np.isfinite(loss):
        raise NumericFailureError(f"cloud {sample.cloud_id}: non-finite loss")
    return loss


def predict_logits(model: FormNetwork, samples: list[CloudSample]) -> np.ndarray:
    return np.array([s for pack in _pack(model, samples) for s in _forward(model, pack)[0]])


def loss_and_grad(model: FormNetwork, samples: list[CloudSample]) -> tuple[float, list[np.ndarray]]:
    """Summed binary cross-entropy and gradients for all parameters.

    The gradient list matches ``model.parameters()`` order. Each cloud
    contributes independently, so duplicating a cloud doubles its term.
    Takes clouds labelled 0 or 1 (``train`` checks them), or the packs
    ``train`` makes of them once.
    """
    grads = [np.zeros_like(p) for p in model.parameters()]
    total = 0.0
    for pack in _pack(model, samples):
        logits, (trace, a, cs, phis) = _forward(model, pack)
        d_a = np.empty_like(a)
        for s, sample, c, phi, cols in zip(logits, pack.samples, cs, phis, pack.cols):
            total += _bce(s, sample)
            ds = np.asarray(1.0 / (1.0 + np.exp(-s)) - float(sample.label), dtype=model.dtype)
            dc = readout_grad(c, model.readout, ds * model.head_w)
            # d/dF of F W F^T contracted with dc; W symmetric
            np.matmul(dc + dc.T, a[:, cols], out=d_a[:, cols])
            grads[-2] += ds * phi
            grads[-1] += ds
        dw, db = model.backward(trace, d_a.reshape(model.n_forms, -1, model.n_coeffs).transpose(1, 0, 2))
        for g, d in zip(grads, [*dw, *db]):
            g += d
    return total, grads


def auroc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.isin(labels, (0, 1)).all():
        raise UndefinedMetricError(f"AUROC labels must be 0 or 1, got {sorted(set(labels.tolist()) - {0, 1})}")
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC needs both classes present")
    if np.isnan(scores).any():
        raise NumericFailureError("AUROC scores contain NaN")
    # Mann-Whitney U over average ranks: tied values share the mean of their 1-based ranks
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


# ---------------------------------------------------------------------------
# training


# shares of each label's clouds held out for validation and test
VAL_FRACTION = 0.2
TEST_FRACTION = 0.2
# val_loss is computed at epoch 0, every VAL_EVERY-th epoch and the last epoch
VAL_EVERY = 10


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
        if self.epochs < 1 or not 0 < self.learning_rate < np.inf or self.n_forms < 1:
            raise ConfigurationError("epochs, learning rate, and n_forms must be positive and finite")
        if any(width < 1 for width in self.hidden):
            raise ConfigurationError(f"every hidden width must be >= 1, got {self.hidden}")
        _readout_kind(self.readout)


@dataclass(eq=False)
class TrainResult:
    model: FormNetwork
    history: list[dict]  # per epoch: train_loss, grad_norm (the L2 norm of its gradient) and maybe val_loss
    test_auroc: float
    splits: dict[str, list[str]]
    timings: dict  # epoch_s (seconds of each epoch), total_s (the whole call), worker (whether one was forked)


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


def _head_sums(model: FormNetwork, head: list[_Pack], received: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
    """In the worker: the head's sums at the parameters received."""
    for p, value in zip(model.parameters(), received):
        p[...] = value
    return loss_and_grad(model, head)


def train(samples: list[CloudSample], config: TrainConfig | None = None) -> TrainResult:
    """Full-batch training with a fixed 60/20/20-style split by cloud.

    Every cloud must be labelled 0 or 1. Each epoch's sums are the head
    packs' sums plus the tail's. Where the head is not empty, ``data._can_fork``
    allows and ``Worker.start`` starts one, a worker computes the head's; the
    result is bitwise that of one process.
    """
    started = time.perf_counter()
    config = config or TrainConfig()
    config.validate()
    if not samples:
        raise ConfigurationError("empty training set")
    for s in samples:
        if s.label not in (0, 1):
            raise ConfigurationError(f"cloud {s.cloud_id}: label must be 0 or 1, got {s.label}")
    splits = split_samples(samples, VAL_FRACTION, TEST_FRACTION, config.split_seed)
    train_set = [samples[i] for i in splits["train"]]
    val_set = [samples[i] for i in splits["val"]]
    test_set = [samples[i] for i in splits["test"]]
    first = samples[0]
    model = FormNetwork.create(
        input_dim=first.points.shape[1],
        n_coeffs=first.gram.B,
        n_forms=config.n_forms,
        hidden=config.hidden,
        readout=config.readout,
        rng=np.random.default_rng([config.seed]),
        dtype=np.float32,
    )
    params = model.parameters()
    opt = _Adam(params, lr=config.learning_rate)
    train_packs, val_packs = _pack(model, train_set), _pack(model, val_set)
    cut = head_count([len(p.points) for p in train_packs]) if len(train_packs) > 1 else 0
    head, tail = train_packs[:cut], train_packs[cut:]
    n_train = max(1, len(train_set))
    history: list[dict] = []
    epoch_s: list[float] = []
    worker = Worker.start(functools.partial(_head_sums, model, head)) if cut and data._can_fork() else None
    try:
        for epoch in range(config.epochs):
            tick = time.perf_counter()
            if worker:
                (loss, grads), (tail_loss, tail_grads) = worker.alongside(params, lambda: loss_and_grad(model, tail))
            else:
                (loss, grads), (tail_loss, tail_grads) = loss_and_grad(model, head), loss_and_grad(model, tail)
            loss += tail_loss
            for g, t in zip(grads, tail_grads):
                g += t
            # numpy's pairwise sums, not BLAS, so the norm does not depend on the thread count
            norm = float(np.sqrt(sum(np.square(g, dtype=np.float64).sum() for g in grads))) / n_train
            opt.update(params, grads)
            row = {"epoch": epoch, "train_loss": loss / n_train, "grad_norm": norm}
            if val_set and (epoch % VAL_EVERY == 0 or epoch == config.epochs - 1):
                row["val_loss"] = _loss_only(model, val_packs) / len(val_set)
            history.append(row)
            epoch_s.append(time.perf_counter() - tick)
    finally:
        if worker:
            worker.close()
    return TrainResult(
        model=model,
        history=history,
        test_auroc=evaluate(model, test_set),
        splits={k: [samples[i].cloud_id for i in v] for k, v in splits.items()},
        timings={"epoch_s": epoch_s, "total_s": time.perf_counter() - started, "worker": worker is not None},
    )


def _loss_only(model: FormNetwork, samples: list[CloudSample]) -> float:
    return sum(_bce(s, c) for pack in _pack(model, samples) for s, c in zip(_forward(model, pack)[0], pack.samples))


def evaluate(model: FormNetwork, samples: list[CloudSample]) -> float:
    scores = predict_logits(model, samples)
    labels = np.array([s.label for s in samples])
    return auroc(scores, labels)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, model: FormNetwork, meta: dict | None = None) -> None:
    """Header, float32 little-endian parameter blob, then a JSON echo."""
    arch = {k: getattr(model, k) for k in _CKPT_ARCH}
    echo = json.dumps({"arch": arch, "meta": meta or {}}, sort_keys=True).encode()
    flat = np.concatenate([p.astype("<f4").reshape(-1) for p in model.parameters()])
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(_CKPT_MAGIC, _CKPT_VERSION, flat.size, len(echo)))
        fh.write(flat.tobytes())
        fh.write(echo)


def load_checkpoint(path: str | Path) -> tuple[FormNetwork, dict]:
    try:
        raw, (n_params, echo_len) = read_framed(path, _CKPT_HEADER, _CKPT_MAGIC, _CKPT_VERSION)
    except OSError as exc:  # missing, a directory, or a path through a file
        raise MissingCacheError(f"cannot read checkpoint {path}: {exc.strerror}; run 'pointforms train' first") from None
    blob_end = _CKPT_HEADER.size + 4 * n_params
    if len(raw) != blob_end + echo_len:
        raise CacheFormatError(f"{path}: checkpoint length mismatch")
    flat = np.frombuffer(raw[_CKPT_HEADER.size : blob_end], dtype="<f4")
    try:
        info = json.loads(raw[blob_end:].decode())
        arch, meta = info["arch"], info["meta"]
        input_dim, n_coeffs, n_forms, hidden, kind = (arch[k] for k in _CKPT_ARCH)
        hidden = tuple(hidden)
    except (ValueError, KeyError, TypeError) as exc:  # undecodable, unparsable, or missing keys
        raise CacheFormatError(f"{path}: unreadable checkpoint echo: {exc!r}") from exc
    if kind not in tuple(READOUTS) or not all(type(n) is int and n > 0 for n in (input_dim, n_coeffs, n_forms, *hidden)):
        raise CacheFormatError(f"{path}: checkpoint arch needs positive integer sizes and a known readout, got {arch}")
    sizes = [input_dim, *hidden, n_forms * n_coeffs]
    expected = sum((i + 1) * o for i, o in zip(sizes, sizes[1:])) + readout_dim(kind, n_forms) + 1
    if expected != n_params:
        raise CacheFormatError(f"{path}: checkpoint arch has {expected} parameters, its blob holds {n_params}")
    model = FormNetwork.create(input_dim, n_coeffs, n_forms, hidden, kind, rng=0, dtype=np.float32)
    offset = 0
    for p in model.parameters():
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    return model, meta
