"""Core value types and on-disk formats.

Point clouds, multi-index arrays for degree-k minors, measure weights,
Gram fields, the binary Gram cache, and the CSV-plus-manifest dataset
layout all live here so the compute modules stay free of I/O concerns.
``PRECISIONS`` and ``MEASURES`` are the one list of each choice.
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


def read_gram_cache(path: str | Path) -> GramField:
    """Read a Gram cache, validating magic, version, and payload length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise CacheFormatError(f"{path}: shorter than the fixed header")
    magic, version, D, k, m, flag = _HEADER.unpack_from(raw, 0)
    if magic != CACHE_MAGIC:
        raise CacheFormatError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise CacheFormatError(f"{path}: unsupported version {version}")
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
    return GramField(D=D, k=k, values=values)


# ---------------------------------------------------------------------------
# dataset layout: one CSV per cloud plus a JSON manifest


def write_csv(path: str | Path, array: np.ndarray) -> None:
    """Write a 2-D array one row per line, or a 1-D array one value per line,
    each value as "%.17g" and comma separated: the bytes of
    ``np.savetxt(path, array, fmt="%.17g", delimiter=",")`` from one format call."""
    arr = np.asarray(array, dtype=np.float64)
    rows = arr.reshape(-1, 1) if arr.ndim == 1 else arr
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(line * rows.shape[0] % tuple(rows.ravel().tolist()))


def save_dataset(
    out_dir: str | Path,
    name: str,
    clouds: list[PointCloud],
    config: dict,
    extras: dict[str, dict] | None = None,
) -> Path:
    """Write cloud CSVs and a manifest; returns the manifest path.

    ``extras`` maps cloud id to additional manifest fields. An extra entry
    ``q`` holding a per-point array is written as a sidecar CSV and recorded
    under ``q_path``.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for cloud in sorted(clouds, key=lambda c: c.id):
        rel = f"{cloud.id}.csv"
        write_csv(out / rel, cloud.points)
        rec: dict = {"id": cloud.id, "path": rel, "label": cloud.label}
        extra = dict((extras or {}).get(cloud.id, {}))
        q = extra.pop("q", None)
        if q is not None:
            q_rel = f"{cloud.id}.q.csv"
            write_csv(out / q_rel, q)
            rec["q_path"] = q_rel
        rec.update(extra)
        records.append(rec)
    manifest = {
        "format": "pointforms-dataset",
        "version": 1,
        "name": name,
        "config": config,
        "clouds": records,
    }
    manifest_path = out / MANIFEST_NAME
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def _load_matrix(path: Path, cloud_id: str) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    except (ValueError, OSError) as exc:
        raise IngestionError(f"cloud {cloud_id}: cannot parse {path.name}: {exc}") from exc
    if not np.isfinite(arr).all():
        raise IngestionError(f"cloud {cloud_id}: non-finite values in {path.name}")
    return arr


def load_dataset(dataset_dir: str | Path, ids: Collection[str] | None = None) -> tuple[list[PointCloud], dict]:
    """Load a dataset directory, or only the clouds named in ``ids``; clouds come back sorted by id."""
    root = Path(dataset_dir)
    manifest_path = root / MANIFEST_NAME if root.is_dir() else root
    if not manifest_path.is_file():
        raise IngestionError(f"no manifest at {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except json.JSONDecodeError as exc:
        raise IngestionError(f"{manifest_path}: invalid manifest: {exc}") from exc
    if manifest.get("format") != "pointforms-dataset":
        raise IngestionError(f"{manifest_path}: not a pointforms dataset manifest")
    records = manifest.get("clouds", [])
    missing = {key for rec in records for key in ("id", "path") if key not in rec}
    if missing:
        raise IngestionError(f"{manifest_path}: cloud record lacks {', '.join(sorted(missing))}")
    base = manifest_path.parent
    clouds: list[PointCloud] = []
    dim: int | None = None
    for rec in sorted(records, key=lambda r: r["id"]):
        if ids is not None and rec["id"] not in ids:
            continue
        pts = _load_matrix(base / rec["path"], rec["id"])
        if dim is None:
            dim = pts.shape[1]
        elif pts.shape[1] != dim:
            raise IngestionError(
                f"cloud {rec['id']}: ambient dimension {pts.shape[1]} differs from {dim}"
            )
        clouds.append(PointCloud(id=rec["id"], points=pts, label=rec.get("label")))
    return clouds, manifest


def load_cloud_q(dataset_dir: str | Path, manifest: dict, cloud_id: str) -> np.ndarray:
    """Load the sidecar true-density column recorded for one cloud."""
    base = Path(dataset_dir)
    if base.is_file():
        base = base.parent
    for rec in manifest.get("clouds", []):
        if rec["id"] == cloud_id:
            if "q_path" not in rec:
                raise IngestionError(f"cloud {cloud_id}: manifest records no density sidecar")
            q = _load_matrix(base / rec["q_path"], cloud_id)
            return q.reshape(-1)
    raise IngestionError(f"cloud {cloud_id}: not in manifest")
