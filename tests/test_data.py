"""Point-cloud containers, multi-index tables, measures, and binary caches."""

import json
import math
import os
import struct
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import pointforms
from pointforms import (
    CacheFormatError,
    ConfigurationError,
    DegenerateDensityError,
    GramField,
    IngestionError,
    InvalidDegreeError,
    PointCloud,
    load_dataset,
    measure_weights,
    multi_index_table,
    read_gram_cache,
    save_dataset,
    write_gram_cache,
)
from pointforms import data
from pointforms.data import CACHE_MAGIC, CACHE_VERSION, _HEADER, fork_map, head_count, write_csv


# ---------------------------------------------------------------------------
# PointCloud


def test_point_cloud_shape_and_accessors():
    pts = np.arange(6.0).reshape(3, 2)
    cloud = PointCloud(id="a", points=pts)
    assert cloud.m == 3
    assert cloud.dim == 2


def test_point_cloud_rejects_bad_shapes():
    with pytest.raises(IngestionError):
        PointCloud(id="a", points=np.zeros(4))
    with pytest.raises(IngestionError):
        PointCloud(id="a", points=np.zeros((1, 2)))
    with pytest.raises(IngestionError):
        PointCloud(id="a", points=np.array([[0.0, 1.0], [np.nan, 0.0]]))


# ---------------------------------------------------------------------------
# multi-index tables


def test_multi_index_singletons():
    table = multi_index_table(3, 1)
    npt.assert_array_equal(table, [[0], [1], [2]])


def test_multi_index_pairs_lexicographic():
    table = multi_index_table(3, 2)
    npt.assert_array_equal(table, [[0, 1], [0, 2], [1, 2]])


def test_multi_index_count_matches_binomial():
    table = multi_index_table(12, 2)
    assert table.shape == (66, 2)
    assert table.shape[0] == math.comb(12, 2)


def test_multi_index_row_arrays_are_zero_based():
    rows = multi_index_table(4, 2)
    assert rows.shape == (6, 2) and rows.dtype == np.intp
    npt.assert_array_equal(rows[0], [0, 1])
    npt.assert_array_equal(rows[-1], [2, 3])


def test_multi_index_rejects_invalid_degree():
    with pytest.raises(InvalidDegreeError):
        multi_index_table(3, 0)
    with pytest.raises(InvalidDegreeError):
        multi_index_table(3, 4)


# ---------------------------------------------------------------------------
# measures


def _cloud(m: int, dim: int = 2, seed: int = 0) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(id=f"c{m}", points=rng.standard_normal((m, dim)))


def test_uniform_measure_is_one_over_m():
    mu = measure_weights(_cloud(4), "uniform")
    npt.assert_array_equal(mu, np.full(4, 0.25))


def test_density_corrected_measure_direct_formula():
    mu = measure_weights(_cloud(2), "density_corrected", density=np.array([0.5, 0.25]))
    npt.assert_allclose(mu, [1.0, 2.0], rtol=0, atol=0)


def test_density_corrected_rejects_zero_density():
    with pytest.raises(DegenerateDensityError):
        measure_weights(_cloud(3), "density_corrected", density=np.array([0.5, 0.0, 0.25]))


def test_unknown_measure_mode_rejected():
    with pytest.raises(ConfigurationError):
        measure_weights(_cloud(3), "importance")


# ---------------------------------------------------------------------------
# Gram field container


def test_gram_field_symmetrizes_slices():
    vals = np.zeros((2, 2, 2))
    vals[0] = [[1.0, 2.0], [0.0, 1.0]]
    gram = GramField(D=2, k=1, values=vals)
    npt.assert_allclose(gram.values[0], [[1.0, 1.0], [1.0, 1.0]])
    npt.assert_array_equal(gram.values[0], gram.values[0].T)


def test_gram_field_validates_width_against_degree():
    with pytest.raises(ConfigurationError):
        GramField(D=3, k=2, values=np.zeros((2, 2, 2)))  # needs B = C(3,2) = 3


# ---------------------------------------------------------------------------
# binary cache


def test_cache_roundtrip_all_zero_identical_bytes(tmp_path):
    gram = GramField(D=2, k=1, values=np.zeros((3, 2, 2)))
    first = tmp_path / "a.gram.bin"
    write_gram_cache(first, gram, precision="fp32")
    again = tmp_path / "b.gram.bin"
    write_gram_cache(again, read_gram_cache(first), precision="fp32")
    assert first.read_bytes() == again.read_bytes()


def test_cache_roundtrip_fp64_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((5, 3, 3))
    gram = GramField(D=3, k=1, values=vals)
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram, precision="fp64")
    back = read_gram_cache(path)
    assert back.values.dtype == np.float64
    npt.assert_array_equal(back.values, gram.values)
    assert (back.D, back.k, back.m, back.B) == (3, 1, 5, 3)


def test_cache_fp32_narrowing_matches_cast(tmp_path):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((4, 3, 3))
    gram = GramField(D=3, k=1, values=vals)
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram, precision="fp32")
    back = read_gram_cache(path)
    npt.assert_array_equal(back.values, gram.values.astype(np.float32).astype(np.float64))


def test_cache_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    header = _HEADER.pack(b"XXXX", CACHE_VERSION, 2, 1, 1, 0)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(CacheFormatError):
        read_gram_cache(path)


def test_cache_wrong_version_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION + 9, 2, 1, 1, 0)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(CacheFormatError):
        read_gram_cache(path)


def test_cache_truncated_payload_rejected(tmp_path):
    gram = GramField(D=2, k=1, values=np.zeros((3, 2, 2)))
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CacheFormatError):
        read_gram_cache(path)


def test_cache_header_is_little_endian_fixed_layout(tmp_path):
    gram = GramField(D=3, k=2, values=np.zeros((7, 3, 3)))
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram, precision="fp64")
    raw = path.read_bytes()
    magic, version, D, k, m, flag = struct.unpack_from("<4sIIIQI", raw, 0)
    assert (magic, version, D, k, m, flag) == (CACHE_MAGIC, CACHE_VERSION, 3, 2, 7, 1)


# ---------------------------------------------------------------------------
# dataset directories


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    clouds = [
        PointCloud(id="b", points=rng.standard_normal((3, 2)), label=1),
        PointCloud(id="a", points=rng.standard_normal((3, 2)), label=0),
    ]
    save_dataset(tmp_path, "toy", clouds, {"seed": 3})
    loaded, manifest = load_dataset(tmp_path)
    assert [c.id for c in loaded] == ["a", "b"]
    assert loaded[0].dim == 2 and loaded[0].m == 3
    assert loaded[0].label == 0
    by_id = {c.id: c for c in clouds}
    for c in loaded:
        npt.assert_array_equal(c.points, by_id[c.id].points)
    assert manifest["name"] == "toy" and manifest["config"] == {"seed": 3}


def test_dataset_nan_csv_rejected(tmp_path):
    clouds = [PointCloud(id="a", points=np.ones((3, 2)))]
    save_dataset(tmp_path, "toy", clouds, {})
    (tmp_path / "a.csv").write_text("1.0,2.0\nNaN,0.0\n3.0,4.0\n")
    with pytest.raises(IngestionError):
        load_dataset(tmp_path)


def test_dataset_empty_manifest_loads(tmp_path):
    save_dataset(tmp_path, "empty", [], {})
    loaded, manifest = load_dataset(tmp_path)
    assert loaded == []
    assert manifest["clouds"] == []


def test_dataset_missing_manifest_rejected(tmp_path):
    with pytest.raises(IngestionError):
        load_dataset(tmp_path / "nowhere")


def test_dataset_mixed_dimensions_rejected(tmp_path):
    save_dataset(tmp_path, "toy", [PointCloud(id="a", points=np.ones((3, 2)))], {})
    np.savetxt(tmp_path / "b.csv", np.ones((3, 4)), fmt="%.17g", delimiter=",")
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["clouds"].append({"id": "b", "path": "b.csv", "label": None})
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(IngestionError):
        load_dataset(tmp_path)


_EDGES = np.array([np.inf, -np.inf, -0.0, 0.0, 1e-300, 5e-324, -1.7976931348623157e308, 0.1, 1.0 / 3.0])


@pytest.mark.parametrize(
    "array",
    [
        np.random.default_rng(8).standard_normal((128, 2)),
        np.random.default_rng(9).standard_normal((4, 48)) * 1e5,
        _EDGES.reshape(3, 3),
        np.zeros((0, 2)),
    ],
    ids=["points-2d", "points-48d", "edges-2d", "no-rows"],
)
def test_write_csv_matches_savetxt_bytes(tmp_path, array):
    np.savetxt(tmp_path / "ref.csv", array, fmt="%.17g", delimiter=",")
    write_csv(tmp_path / "out.csv", array)
    assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_only_data_parses_json_and_csv_files():
    # one checked reader per artifact kind, so no other module may parse a file itself
    package = Path(pointforms.__file__).parent
    for module in sorted(package.glob("*.py")):
        if module.name != "data.py":
            text = module.read_text()
            assert "json.load(" not in text and "np.loadtxt(" not in text, module.name


def test_dataset_duplicate_id_rejected_naming_it(tmp_path):
    save_dataset(tmp_path, "toy", [PointCloud(id=i, points=np.ones((3, 2)) * k) for k, i in enumerate("ab")], {})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["clouds"][1]["id"] = "a"
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    for ids in (None, {"a"}):
        with pytest.raises(IngestionError, match="cloud id 'a' appears more than once"):
            load_dataset(tmp_path, ids)


# ---------------------------------------------------------------------------
# the forked worker

# forking a process that holds a BLAS thread warns on Python >= 3.12; these tests fork on purpose
fork_warning = pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")


@fork_warning
@pytest.mark.parametrize("n", range(6))
def test_fork_map_equals_the_comprehension(n, forked_workers):
    items = list(range(n))
    out = fork_map(lambda x: (x, os.getpid()), items, lambda x: 1)
    assert [x for x, _ in out] == items
    # the worker maps the head, this process the tail; fewer than two items fork nothing
    pids = [pid for _, pid in out]
    cut = head_count([1] * n) if n > 1 else 0
    assert pids == forked_workers[:1] * cut + [os.getpid()] * (n - cut)
    assert len(forked_workers) == (n > 1)


def test_fork_map_without_fork_is_one_process(monkeypatch):
    monkeypatch.setattr(data, "_can_fork", lambda: False)
    monkeypatch.setattr(data, "Worker", None)  # any attempt to fork fails the test
    assert fork_map(lambda x: x * x, [1, 2, 3], lambda x: 1) == [1, 4, 9]


class _ItemError(Exception):
    pass


@fork_warning
@pytest.mark.parametrize(("failing", "first"), [({1}, 1), ({3}, 3), ({1, 3}, 1)], ids=["head", "tail", "both"])
def test_fork_map_raises_the_first_error_in_input_order(failing, first, forked_workers):
    def fn(x):
        if x in failing:
            raise _ItemError(f"item {x}")
        return x

    # costs 1 each: items 0 and 1 are the worker's head, 2 and 3 this process's tail
    with pytest.raises(_ItemError, match=f"^item {first}$"):
        fork_map(fn, [0, 1, 2, 3], lambda x: 1)
    assert len(forked_workers) == 1


@fork_warning
def test_worker_error_reaches_the_caller_as_its_class_and_message(forked_workers):
    worker = data.Worker(lambda x: {}[x])
    try:
        worker.send("missing")
        with pytest.raises(KeyError, match="missing"):
            worker.receive()
        worker.send(None)  # the worker still answers after an error
        with pytest.raises(KeyError):
            worker.receive()
    finally:
        worker.close()
