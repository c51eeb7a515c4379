"""Core value types and on-disk formats.

Point clouds, multi-index arrays for degree-k minors, measure weights,
Gram fields, the binary Gram cache, and the CSV-plus-manifest dataset
layout all live here so the compute modules stay free of I/O concerns.
Each artifact kind has one checked reader or writer: ``read_manifest``,
``read_framed`` (Gram caches and checkpoints), ``read_csv``/``write_csv``
and ``write_json``. ``PRECISIONS`` and ``MEASURES`` are the one list of
each choice.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
from collections.abc import Collection
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


def write_gram_cache(path: str | Path, gram: GramField, precision: str = "fp32") -> None:
    """Write a Gram field as header + row-major point-major payload."""
    if precision not in PRECISIONS:
        raise ConfigurationError(f"precision must be one of {tuple(PRECISIONS)}, got {precision!r}")
    flag = list(PRECISIONS).index(precision)
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, gram.D, gram.k, gram.m, flag)
    payload = np.ascontiguousarray(gram.values, dtype=PRECISIONS[precision]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


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


def read_gram_cache(path: str | Path) -> GramField:
    """Read a Gram cache, validating magic, version, payload length and values."""
    raw, (D, k, m, flag) = read_framed(path, _HEADER, CACHE_MAGIC, CACHE_VERSION)
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


def read_manifest(path: Path, fmt: str, keys: Collection[str], record_keys: Collection[str], error: type) -> dict:
    """The JSON object at ``path`` tagged ``"format": fmt``, holding ``keys`` and a ``clouds`` list of
    objects that each hold ``record_keys``; a file that is not raises ``error``."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid manifest: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != fmt:
        raise error(f"{path}: not a {fmt} manifest")
    records = manifest.get("clouds")
    if not isinstance(records, list) or not all(isinstance(rec, dict) for rec in records):
        raise error(f"{path}: clouds must be a list of cloud records")
    missing = (set(keys) - manifest.keys()) | {k for rec in records for k in record_keys if k not in rec}
    if missing:
        raise error(f"{path}: manifest or cloud record lacks {', '.join(sorted(missing))}")
    return manifest


def write_csv(path: str | Path, array: np.ndarray) -> None:
    """Write a 2-D array one row per line, each value as "%.17g" and comma separated:
    the bytes of ``np.savetxt(path, array, fmt="%.17g", delimiter=",")`` from one format call."""
    rows = np.asarray(array, dtype=np.float64)
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def save_dataset(out_dir: str | Path, name: str, clouds: list[PointCloud], config: dict) -> Path:
    """Write one CSV per cloud and a manifest recording each cloud's id, path and label;
    returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for cloud in sorted(clouds, key=lambda c: c.id):
        rel = f"{cloud.id}.csv"
        write_csv(out / rel, cloud.points)
        records.append({"id": cloud.id, "path": rel, "label": cloud.label})
    manifest = {
        "format": "pointforms-dataset",
        "version": 1,
        "name": name,
        "config": config,
        "clouds": records,
    }
    manifest_path = out / MANIFEST_NAME
    write_json(manifest_path, manifest)
    return manifest_path


def read_csv(path: Path, cloud_id: str) -> np.ndarray:
    """The finite (rows, columns) float64 array of a file ``write_csv`` wrote."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise IngestionError(f"cloud {cloud_id}: cannot parse {path.name}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise IngestionError(f"cloud {cloud_id}: non-finite values in {path.name}")
    return arr


def load_dataset(dataset_dir: str | Path, ids: Collection[str] | None = None) -> tuple[list[PointCloud], dict]:
    """Load a dataset directory, or only the clouds named in ``ids``; clouds come back sorted by id."""
    base = Path(dataset_dir)
    manifest_path = base / MANIFEST_NAME
    if not manifest_path.is_file():
        raise IngestionError(f"no manifest at {manifest_path}")
    manifest = read_manifest(manifest_path, "pointforms-dataset", (), ("id", "path"), IngestionError)
    clouds: list[PointCloud] = []
    dim: int | None = None
    for rec in sorted(manifest["clouds"], key=lambda r: r["id"]):
        if ids is not None and rec["id"] not in ids:
            continue
        label = rec.get("label")
        if label is not None and (type(label) is not int or label not in (0, 1)):
            raise IngestionError(f"cloud {rec['id']}: label must be null, 0 or 1, got {label!r}")
        pts = read_csv(base / rec["path"], rec["id"])
        if dim is None:
            dim = pts.shape[1]
        elif pts.shape[1] != dim:
            raise IngestionError(
                f"cloud {rec['id']}: ambient dimension {pts.shape[1]} differs from {dim}"
            )
        clouds.append(PointCloud(id=rec["id"], points=pts, label=label))
    return clouds, manifest
