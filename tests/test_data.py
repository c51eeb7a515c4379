"""Point-cloud containers, multi-index tables, measures, and binary caches."""

import errno
import hashlib
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


def test_gram_field_keeps_a_symmetric_array_as_given():
    vals = np.random.default_rng(3).standard_normal((4, 3, 3)).astype(np.float32)
    vals += vals.transpose(0, 2, 1)
    assert GramField(D=3, k=1, values=vals).values is vals


def test_gram_field_validates_width_against_degree():
    with pytest.raises(ConfigurationError):
        GramField(D=3, k=2, values=np.zeros((2, 2, 2)))  # needs B = C(3,2) = 3


# ---------------------------------------------------------------------------
# binary cache


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_cache_roundtrip_all_zero_identical_bytes(tmp_path):
    gram = GramField(D=2, k=1, values=np.zeros((3, 2, 2)))
    first = tmp_path / "a.gram.bin"
    digest, _ = write_gram_cache(first, gram, precision="fp32")
    again = tmp_path / "b.gram.bin"
    write_gram_cache(again, read_gram_cache(first, digest), precision="fp32")
    assert first.read_bytes() == again.read_bytes()


def test_cache_roundtrip_fp64_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((5, 3, 3))
    gram = GramField(D=3, k=1, values=vals)
    path = tmp_path / "x.gram.bin"
    back = read_gram_cache(path, write_gram_cache(path, gram, precision="fp64")[0])
    assert back.values.dtype == np.float64
    npt.assert_array_equal(back.values, gram.values)
    assert (back.D, back.k, back.m, back.B) == (3, 1, 5, 3)


def test_cache_fp32_narrowing_matches_cast(tmp_path):
    rng = np.random.default_rng(2)
    vals = rng.standard_normal((4, 3, 3))
    gram = GramField(D=3, k=1, values=vals)
    path = tmp_path / "x.gram.bin"
    back = read_gram_cache(path, write_gram_cache(path, gram, precision="fp32")[0])
    npt.assert_array_equal(back.values, gram.values.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
def test_cache_reads_into_one_aligned_writable_payload_buffer(tmp_path, precision):
    vals = np.random.default_rng(4).standard_normal((5, 3, 3))
    gram = GramField(D=3, k=1, values=vals + vals.transpose(0, 2, 1))
    path = tmp_path / "x.gram.bin"
    back = read_gram_cache(path, write_gram_cache(path, gram, precision=precision)[0]).values
    assert back.dtype == data.PRECISIONS[precision]
    assert back.flags.writeable and back.flags.aligned and back.flags.c_contiguous
    # the fp64 payload starts at byte 28 of the file, yet its array is aligned
    owner = back.base
    assert owner.base is None and owner.nbytes == back.nbytes == path.stat().st_size - _HEADER.size


@pytest.mark.parametrize("precision", ["fp32", "fp64"])
def test_cache_bytes_are_the_header_then_the_cast_values(tmp_path, precision):
    vals = np.random.default_rng(5).standard_normal((4, 3, 3))
    gram = GramField(D=3, k=1, values=vals @ vals.transpose(0, 2, 1))
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram, precision=precision)
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION, 3, 1, 4, list(data.PRECISIONS).index(precision))
    assert path.read_bytes() == header + gram.values.astype(data.PRECISIONS[precision]).tobytes()


def test_session_runs_one_blas_thread():
    # tests/conftest.py pins BLAS to one thread before numpy loads, so the process runs one OS thread
    # (with numpy and scipy's BLAS loaded) and the forked-worker paths run in the suite
    import scipy.linalg  # noqa: F401

    assert all(os.environ[var] == "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"))
    if not os.path.isdir("/proc/self/task"):
        pytest.skip("no /proc to count this process's threads")
    assert len(os.listdir("/proc/self/task")) == 1


def test_cache_wrong_magic_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    header = _HEADER.pack(b"XXXX", CACHE_VERSION, 2, 1, 1, 0)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(CacheFormatError, match="magic"):
        read_gram_cache(path, _sha256(path))


def test_cache_wrong_version_rejected(tmp_path):
    path = tmp_path / "bad.bin"
    header = _HEADER.pack(CACHE_MAGIC, CACHE_VERSION + 9, 2, 1, 1, 0)
    path.write_bytes(header + b"\x00" * 16)
    with pytest.raises(CacheFormatError, match="version"):
        read_gram_cache(path, _sha256(path))


def test_cache_truncated_payload_rejected(tmp_path):
    gram = GramField(D=2, k=1, values=np.zeros((3, 2, 2)))
    path = tmp_path / "x.gram.bin"
    write_gram_cache(path, gram)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(CacheFormatError, match="payload"):
        read_gram_cache(path, _sha256(path))  # recorded anew, so the length check is the one that fails


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
    digest = hashlib.sha256((tmp_path / "b.csv").read_bytes()).hexdigest()
    manifest["clouds"].append({"id": "b", "path": "b.csv", "label": None, "sha256": digest})
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


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _fork_fails(*_):
    raise OSError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="counts open descriptors in /proc")
def test_failed_fork_closes_its_pipes_and_maps_in_one_process(monkeypatch):
    monkeypatch.setattr(data, "_can_fork", lambda: True)
    monkeypatch.setattr(os, "fork", _fork_fails)
    before = _open_fds()
    for _ in range(3):
        with pytest.raises(OSError):
            data.Worker(lambda x: x)
    assert _open_fds() == before
    assert data.Worker.start(lambda x: x) is None
    assert fork_map(lambda x: (x * x, os.getpid()), [1, 2, 3], lambda x: 1) == [(x * x, os.getpid()) for x in (1, 2, 3)]
    assert _open_fds() == before


# ---------------------------------------------------------------------------
# recorded digests


def test_writers_return_the_sha256_of_the_bytes_they_wrote(tmp_path):
    gram = GramField(D=3, k=1, values=np.tile(np.eye(3), (4, 1, 1)))
    path = tmp_path / "g.bin"
    assert write_gram_cache(path, gram) == (_sha256(path), path.stat().st_size)
    assert write_csv(tmp_path / "c.csv", np.ones((2, 2))) == hashlib.sha256(b"1,1\n1,1\n").hexdigest()
    save_dataset(tmp_path / "data", "toy", [PointCloud(id="a", points=np.ones((3, 2)))], {})
    (record,) = json.loads((tmp_path / "data" / "manifest.json").read_text())["clouds"]
    assert record["sha256"] == hashlib.sha256((tmp_path / "data" / "a.csv").read_bytes()).hexdigest()


def test_readers_reject_bytes_unlike_the_recorded_sha256(tmp_path):
    gram = GramField(D=3, k=1, values=np.tile(np.eye(3), (4, 1, 1)))
    digest, _ = write_gram_cache(tmp_path / "g.bin", gram)
    assert read_gram_cache(tmp_path / "g.bin", digest).m == 4
    with pytest.raises(CacheFormatError, match=f"g.bin has sha256 {digest}, the features record 0{{64}}"):
        read_gram_cache(tmp_path / "g.bin", "0" * 64)
    save_dataset(tmp_path, "toy", [PointCloud(id=i, points=np.ones((3, 2)) * k) for k, i in enumerate("ab", 1)], {})
    (tmp_path / "b.csv").write_text((tmp_path / "b.csv").read_text().replace("2", "3"))  # same length, other values
    assert [c.id for c in load_dataset(tmp_path, {"a"})[0]] == ["a"]  # only the clouds read are checked
    with pytest.raises(IngestionError, match="cloud b: .*b.csv has sha256 .*, the dataset manifest records"):
        load_dataset(tmp_path)


def test_dataset_manifest_of_another_version_asks_for_gen(tmp_path):
    save_dataset(tmp_path, "toy", [PointCloud(id="a", points=np.ones((3, 2)))], {})
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    for rec in manifest["clouds"]:
        del rec["sha256"]
    (tmp_path / "manifest.json").write_text(json.dumps({**manifest, "version": 1}))
    with pytest.raises(IngestionError, match="version 1, expected 2; rerun 'pointforms gen'"):
        load_dataset(tmp_path)
