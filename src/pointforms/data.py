"""Core value types and on-disk formats.

Point clouds, multi-index arrays for degree-k minors, measure weights,
Gram fields, the binary Gram cache, and the CSV-plus-manifest dataset
layout all live here so the compute modules stay free of I/O concerns.
Each artifact kind has one checked reader or writer: ``read_manifest``,
``read_framed`` (Gram caches and checkpoints), ``read_csv``/``write_csv``
and ``write_json``; a manifest records each named file's sha256 as written,
and a reader checks the bytes it reads. ``PRECISIONS`` and ``MEASURES``
are the one list of each choice. The one channel to a second process is
here too: ``Worker``, a forked process answering pickled requests over two
pipes, and ``fork_map``, a per-item map whose head it runs in such a worker.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import os
import pickle
import struct
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    CacheFormatError,
    ConfigurationError,
    DegenerateDensityError,
    IngestionError,
    InvalidDegreeError,
)

CACHE_MAGIC = b"NPFG"
CACHE_VERSION = 1
_HEADER = struct.Struct("<4sIIIQI")
# cache precision -> payload dtype; the header flag is the entry's position
PRECISIONS = {"fp32": np.dtype("<f4"), "fp64": np.dtype("<f8")}
# per-point weights: 1/m, or 1/(m q(p)) for a sampling density q
MEASURES = ("uniform", "density_corrected")

MANIFEST_NAME = "manifest.json"
# each manifest's format tag -> its version, the command that writes it, and the keys of a cloud record
MANIFESTS = {
    "pointforms-dataset": (2, "gen", ("id", "path", "sha256")),
    "pointforms-features": (3, "precompute", ("id", "cache", "sha256")),
}


@dataclass(eq=False)
class PointCloud:
    """A finite point set in R^D with an optional label."""

    id: str
    points: np.ndarray  # (m, D) float64
    label: int | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2:
            raise IngestionError(f"cloud {self.id}: points must be 2-d, got shape {pts.shape}")
        if pts.shape[0] < 2 or pts.shape[1] < 1:
            raise IngestionError(f"cloud {self.id}: need at least 2 points and 1 column, got {pts.shape}")
        if not np.isfinite(pts).all():
            raise IngestionError(f"cloud {self.id}: non-finite coordinates")
        self.points = pts

    @property
    def m(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_degree(D: int, k: int) -> None:
    if D < 1:
        raise ConfigurationError(f"ambient dimension must be >= 1, got {D}")
    if not 1 <= k <= D:
        raise InvalidDegreeError(f"degree k must satisfy 1 <= k <= D, got k={k}, D={D}")


def multi_index_table(D: int, k: int) -> np.ndarray:
    """(C(D, k), k) intp array of the ascending k-subsets of {0..D-1}, 0-based,
    in lexicographic order."""
    _check_degree(D, k)
    return np.array(list(itertools.combinations(range(D), k)), dtype=np.intp)


def measure_weights(cloud: PointCloud, mode: str = "uniform", density: np.ndarray | None = None) -> np.ndarray:
    """Per-point (m,) weights: 1/m (uniform) or 1/(m q(p)) (density corrected)."""
    m = cloud.m
    if mode == "uniform":
        w = np.full(m, 1.0 / m)
    elif mode == "density_corrected":
        if density is None:
            raise ConfigurationError("density_corrected measure requires a per-point density")
        q = np.asarray(density, dtype=np.float64)
        if q.shape != (m,):
            raise ConfigurationError(f"density shape {q.shape} does not match cloud size {m}")
        if not np.isfinite(q).all() or (q <= 0).any():
            raise DegenerateDensityError("density values must be positive and finite")
        w = 1.0 / (m * q)
    else:
        raise ConfigurationError(f"unknown measure mode {mode!r}; expected one of {MEASURES}")
    if not np.isfinite(w).all() or (w <= 0).any():
        raise DegenerateDensityError("measure weights must be positive and finite")
    return w


@dataclass(eq=False)
class GramField:
    """Per-point symmetric B x B matrices of degree-k form inner products."""

    D: int
    k: int
    values: np.ndarray  # (m, B, B)

    def __post_init__(self):
        _check_degree(self.D, self.k)
        vals = np.asarray(self.values)
        B = self.B
        if vals.ndim != 3 or vals.shape[1:] != (B, B):
            raise ConfigurationError(
                f"gram values must have shape (m, {B}, {B}) for D={self.D}, k={self.k}; got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ConfigurationError("gram values must be finite")
        # store symmetrized slices; a no-op (bitwise) when already symmetric
        self.values = 0.5 * (vals + np.swapaxes(vals, 1, 2))

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def B(self) -> int:
        return math.comb(self.D, self.k)


def write_gram_cache(path: str | Path, gram: GramField, precision: str = "fp32") -> tuple[str, int]:
    """Write a Gram field as header + row-major point-major payload; returns the sha256 and length of the bytes."""
    if precision not in PRECISIONS:
        raise ConfigurationError(f"precision must be one of {tuple(PRECISIONS)}, got {precision!r}")
    flag = list(PRECISIONS).index(precision)
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, gram.D, gram.k, gram.m, flag)
    raw = header + np.ascontiguousarray(gram.values, dtype=PRECISIONS[precision]).tobytes()
    Path(path).write_bytes(raw)
    return hashlib.sha256(raw).hexdigest(), len(raw)


def read_framed(path: str | Path, header: struct.Struct, magic: bytes, version: int) -> tuple[bytes, tuple]:
    """The bytes of a file that opens with ``header`` (magic, version, more fields) and the fields after
    magic and version; a short file or another magic or version raises ``CacheFormatError``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < header.size:
        raise CacheFormatError(f"{path}: shorter than its {header.size}-byte header")
    found = header.unpack_from(raw, 0)
    if found[:2] != (magic, version):
        raise CacheFormatError(f"{path}: magic {found[0]!r} version {found[1]}, expected {magic!r} version {version}")
    return raw, found[2:]


def read_gram_cache(path: str | Path, sha256: str) -> GramField:
    """Read a Gram cache, validating magic, version, its recorded sha256, payload length and values."""
    raw, (D, k, m, flag) = read_framed(path, _HEADER, CACHE_MAGIC, CACHE_VERSION)
    if (found := hashlib.sha256(raw).hexdigest()) != sha256:
        raise CacheFormatError(f"{path} has sha256 {found}, the features record {sha256}; rerun 'pointforms precompute'")
    if flag >= len(PRECISIONS):
        raise CacheFormatError(f"{path}: unknown precision flag {flag}")
    dtype = list(PRECISIONS.values())[flag]
    if not 1 <= k <= D:
        raise CacheFormatError(f"{path}: inconsistent D={D}, k={k}")
    B = math.comb(D, k)
    expected = m * B * B * dtype.itemsize
    if len(raw) - _HEADER.size != expected:
        raise CacheFormatError(f"{path}: payload is {len(raw) - _HEADER.size} bytes, expected {expected}")
    # a read-only view of the file bytes; GramField stores a fresh symmetrized array
    values = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size).reshape(m, B, B)
    try:
        return GramField(D=D, k=k, values=values)
    except ConfigurationError as exc:
        raise CacheFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# dataset layout: one CSV per cloud plus a JSON manifest


def write_json(path: str | Path, payload: dict) -> None:
    """Write ``payload`` as JSON with indent 1, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(path: Path, fmt: str, keys: Collection[str], error: type) -> dict:
    """The JSON object at ``path`` tagged ``"format": fmt`` at its ``MANIFESTS`` version, holding ``keys`` and a
    ``clouds`` list of objects holding the format's record keys as strings; a file that is not raises ``error``,
    naming the writing command where it is missing or of another version."""
    version, writer, record_keys = MANIFESTS[fmt]
    try:
        manifest = json.loads(path.read_bytes())
    except OSError as exc:  # missing, or a path through a file
        raise error(f"cannot read {path}: {exc.strerror}; run 'pointforms {writer}' first") from None
    except ValueError as exc:  # not JSON, or not UTF-8
        raise error(f"{path}: invalid manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise error(f"{path}: not a {fmt} manifest")
    if manifest.get("version") != version:
        raise error(f"{path}: version {manifest.get('version')}, expected {version}; rerun 'pointforms {writer}'")
    records = manifest.get("clouds")
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise error(f"{path}: clouds must be a list of cloud records")
    missing = set(keys) - manifest.keys()
    missing |= {k for rec in records for k in record_keys if not isinstance(rec.get(k), str)}
    if missing:
        raise error(f"{path}: manifest or cloud record lacks {', '.join(sorted(missing))} (record keys are strings)")
    return manifest


def write_csv(path: str | Path, array: np.ndarray) -> str:
    """Write a 2-D array one row per line, each value as "%.17g" and comma separated:
    the bytes of ``np.savetxt(path, array, fmt="%.17g", delimiter=",")`` from one format call.
    Returns the sha256 of the bytes written."""
    rows = np.asarray(array, dtype=np.float64)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    raw = (line * rows.shape[0] % tuple(rows.ravel().tolist())).encode()
    Path(path).write_bytes(raw)
    return hashlib.sha256(raw).hexdigest()


def save_dataset(out_dir: str | Path, name: str, clouds: list[PointCloud], config: dict) -> Path:
    """Write one CSV per cloud and a manifest recording each cloud's id, path, label and sha256;
    returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for cloud in sorted(clouds, key=lambda c: c.id):
        rel = f"{cloud.id}.csv"
        digest = write_csv(out / rel, cloud.points)
        records.append({"id": cloud.id, "path": rel, "label": cloud.label, "sha256": digest})
    manifest = {
        "format": "pointforms-dataset",
        "version": MANIFESTS["pointforms-dataset"][0],
        "name": name,
        "config": config,
        "clouds": records,
    }
    manifest_path = out / MANIFEST_NAME
    write_json(manifest_path, manifest)
    return manifest_path


def read_csv(path: Path, cloud_id: str, sha256: str) -> np.ndarray:
    """The (rows, columns) float64 array of a file ``write_csv`` wrote, whose bytes hash to ``sha256``."""
    try:
        raw = path.read_bytes()
        if (found := hashlib.sha256(raw).hexdigest()) != sha256:
            raise IngestionError(f"cloud {cloud_id}: {path} has sha256 {found}, the dataset manifest records {sha256}")
        return np.loadtxt(io.BytesIO(raw), delimiter=",", ndmin=2, dtype=np.float64)  # PointCloud checks finiteness
    except (ValueError, OSError) as exc:
        raise IngestionError(f"cloud {cloud_id}: cannot parse {path.name}: {exc}") from exc


def load_dataset(dataset_dir: str | Path, ids: Collection[str] | None = None) -> tuple[list[PointCloud], dict]:
    """Load a dataset directory, or only the clouds named in ``ids``; clouds come back sorted by id.
    Each cloud file read must hash to the sha256 its record holds."""
    base = Path(dataset_dir)
    manifest_path = base / MANIFEST_NAME
    manifest = read_manifest(manifest_path, "pointforms-dataset", (), IngestionError)
    records = sorted(manifest["clouds"], key=lambda r: r["id"])
    for a, b in zip(records, records[1:]):
        if a["id"] == b["id"]:
            raise IngestionError(f"{manifest_path}: cloud id {a['id']!r} appears more than once")
    clouds: list[PointCloud] = []
    dim: int | None = None
    for rec in records:
        if ids is not None and rec["id"] not in ids:
            continue
        label = rec.get("label")
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise IngestionError(f"cloud {rec['id']}: label must be null, 0 or 1, got {label!r}")
        pts = read_csv(base / rec["path"], rec["id"], rec["sha256"])
        if dim is None:
            dim = pts.shape[1]
        elif pts.shape[1] != dim:
            raise IngestionError(
                f"cloud {rec['id']}: ambient dimension {pts.shape[1]} differs from {dim}"
            )
        clouds.append(PointCloud(id=rec["id"], points=pts, label=label))
    return clouds, manifest


# ---------------------------------------------------------------------------
# a second process: one forked worker over two pipes


def _can_fork() -> bool:
    """Whether a forked worker gets a CPU of its own, safely: fork exists, two or more CPUs are
    usable, and this process runs one OS thread, so no BLAS pool already holds the second CPU."""
    try:
        return hasattr(os, "fork") and len(os.sched_getaffinity(0)) > 1 and len(os.listdir("/proc/self/task")) == 1
    except (AttributeError, OSError):  # no affinity call or no /proc on this platform
        return False


def head_count(costs: Sequence[float]) -> int:
    """Number of head items: through the first item whose cumulative cost reaches half of the
    total, leaving at least the last item to the tail."""
    cum = np.cumsum(costs)
    return min(int(np.searchsorted(cum, cum[-1] / 2)) + 1, len(costs) - 1)


class Worker:
    """One forked process that answers each object sent to it with ``handle(obj)``, or with the
    exception that raised, until ``close`` ends and reaps it. The worker shares this process's
    memory copy-on-write, so ``handle`` needs no pickling; only requests and replies are pickled."""

    def __init__(self, handle: Callable):
        to_worker, tx = os.pipe()
        rx, from_worker = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (to_worker, tx, rx, from_worker):
                os.close(fd)
            raise
        if self.pid == 0:
            code = 1
            try:  # os._exit: no atexit hook, test teardown or buffered output of the parent runs here
                os.close(tx)
                os.close(rx)
                _serve(handle, open(to_worker, "rb"), open(from_worker, "wb"))
                code = 0
            finally:
                os._exit(code)
        os.close(to_worker)
        os.close(from_worker)
        self._tx, self._rx = open(tx, "wb"), open(rx, "rb")

    @classmethod
    def start(cls, *args) -> Worker | None:
        """``cls(*args)``, or None where the fork fails (no process to spare): the caller works alone."""
        try:
            return cls(*args)
        except OSError:
            return None

    def send(self, obj: object) -> None:
        pickle.dump(obj, self._tx, pickle.HIGHEST_PROTOCOL)
        self._tx.flush()

    def receive(self) -> object:
        """The worker's next reply; an exception it replied with is raised here as its own class and message."""
        try:
            reply = pickle.load(self._rx)
        except EOFError:
            raise ChildProcessError(f"worker {self.pid} exited without a reply") from None
        if isinstance(reply, Exception):
            raise reply
        return reply

    def alongside(self, request: object, local: Callable) -> tuple:
        """``(reply, local())``: sends ``request``, runs ``local`` while the worker answers, then receives.
        An error in the reply is raised before one from ``local``, as the worker's share comes first."""
        self.send(request)
        try:
            mine = local()
        except Exception:
            self.receive()
            raise
        return self.receive(), mine

    def close(self) -> None:
        """End the worker on every path: it reads EOF, or fails to write to a closed pipe, and exits."""
        for fh in (self._rx, self._tx):
            try:
                fh.close()
            except OSError:  # bytes left unsent to a worker that already ended
                pass
        try:
            os.waitpid(self.pid, 0)
        except ChildProcessError:  # SIGCHLD ignored: the kernel reaped the worker itself
            pass


def _serve(handle: Callable, rx, tx) -> None:
    """The worker's loop: answer each object received, until EOF."""
    while True:
        try:
            obj = pickle.load(rx)
        except EOFError:
            return
        try:
            reply = pickle.dumps(handle(obj), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # the parent raises it
            reply = pickle.dumps(exc, pickle.HIGHEST_PROTOCOL)
        tx.write(reply)
        tx.flush()


def fork_map(fn: Callable, items: Sequence, cost: Callable[[object], float]) -> list:
    """``[fn(x) for x in items]``, in input order. Where ``_can_fork`` allows, there are two or more
    items and ``Worker.start`` starts one, a forked ``Worker`` maps the head (``head_count`` of the
    items' costs) while this process maps the tail, and the first error in input order is raised.
    ``fn`` must print nothing, as a worker's output bypasses this process's streams; its files stay."""
    cut = head_count([cost(x) for x in items]) if len(items) > 1 and _can_fork() else 0
    worker = Worker.start(lambda _: [fn(x) for x in items[:cut]]) if cut else None
    if worker is None:
        return [fn(x) for x in items]
    try:
        head, tail = worker.alongside(None, lambda: [fn(x) for x in items[cut:]])
        return head + tail
    finally:
        worker.close()
