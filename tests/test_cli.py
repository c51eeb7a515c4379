"""Command-line harness: plumbing, determinism, exit codes, reporting."""

import argparse
import dataclasses
import errno
import functools
import hashlib
import json
import struct
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pointforms import (
    CacheFormatError,
    ConfigurationError,
    ConfigurationWarning,
    DegenerateDensityError,
    DensityShiftConfig,
    DimensionEstimateError,
    IngestionError,
    InsufficientPointsError,
    IntegrationBlowupError,
    InvalidDegreeError,
    IsolatedPointError,
    MissingCacheError,
    NumericFailureError,
    OraclePrecisionError,
    PointCloud,
    PointFormsError,
    TrainConfig,
    UndefinedMetricError,
    load_checkpoint,
    save_dataset,
)
from pointforms import READOUTS, cli, data, network, oracle, tasks
from pointforms.cli import hash_input, main
from pointforms.laplacian import BANDWIDTH_SCALES, LaplacianParams
from pointforms.oracle import MANIFOLDS

# Exit codes as documented: 1 configuration, 2 data or format, 3 numeric.
DOCUMENTED_EXIT_CODES = {
    ConfigurationError: 1,
    InvalidDegreeError: 1,
    IngestionError: 2,
    CacheFormatError: 2,
    MissingCacheError: 2,
    InsufficientPointsError: 2,
    UndefinedMetricError: 2,
    DegenerateDensityError: 3,
    DimensionEstimateError: 3,
    IsolatedPointError: 3,
    NumericFailureError: 3,
    OraclePrecisionError: 3,
    IntegrationBlowupError: 3,
}


def _dir_digest(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A tiny end-to-end run shared by the train/eval tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    rng = np.random.default_rng(0)
    clouds = []
    for label in (0, 1):
        for i in range(8):
            t = rng.uniform(0.0, 2.0 * np.pi, size=48)
            scale = 1.0 if label == 0 else 2.0
            pts = scale * np.column_stack([np.cos(t), np.sin(t)])
            pts += 0.02 * rng.standard_normal(pts.shape)
            clouds.append(PointCloud(id=f"c{label}-{i:02d}", points=pts, label=label))
    save_dataset(data, "toy", clouds, {"seed": 0})
    feat = root / "feat"
    assert main(["precompute", "--dataset", str(data), "--out", str(feat), "--k", "1"]) == 0
    run = root / "run"
    assert (
        main(
            ["train", "--features", str(feat), "--out", str(run), "--epochs", "20", "--n-forms", "2"]
        )
        == 0
    )
    return {"data": data, "feat": feat, "run": run}


# ---------------------------------------------------------------------------
# choices


def _option(command: str, dest: str) -> argparse.Action:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


@pytest.mark.parametrize(
    ("command", "dest", "table"),
    [
        ("precompute", "precision", data.PRECISIONS),
        ("mem", "precision", data.PRECISIONS),
        ("gen", "task", tasks.TASKS),
        ("precompute", "measure", data.MEASURES),
        ("precompute", "bandwidth_scale", BANDWIDTH_SCALES),
        ("consistency", "bandwidth_scale", BANDWIDTH_SCALES),
        ("train", "readout", READOUTS),
        ("consistency", "manifold", MANIFOLDS),
    ],
    ids=lambda v: v if isinstance(v, str) else "table",
)
def test_parser_choices_are_the_library_tables(command, dest, table):
    # the very object, so a second copy of the list cannot drift from the library
    assert _option(command, dest).choices is table


def test_train_parser_defaults_are_train_config():
    args = cli.build_parser().parse_args(["train", "--features", "f", "--out", "o"])
    defaults = TrainConfig()
    for field in dataclasses.fields(TrainConfig):
        assert getattr(args, field.name) == getattr(defaults, field.name), field.name


@pytest.mark.parametrize(
    "argv",
    [
        ["precompute", "--dataset", "d", "--out", "o"],
        ["consistency", "--manifold", "circle"],
    ],
    ids=lambda argv: argv[0],
)
def test_laplacian_flags_are_the_params_fields_with_their_defaults(argv):
    args = cli.build_parser().parse_args(argv)
    defaults = LaplacianParams()
    # the study runs at the manifold's intrinsic dimension, so it has no --d
    fixed = {"d"} if argv[0] == "consistency" else set()
    for field in dataclasses.fields(LaplacianParams):
        if field.name not in fixed:
            assert getattr(args, field.name) == getattr(defaults, field.name), field.name


def test_train_flags_build_the_train_config():
    args = cli.build_parser().parse_args(
        ["train", "--features", "f", "--out", "o", "--hidden", "16,8", "--lr", "0.002", "--readout", "pool"]
    )
    config = cli._from_args(TrainConfig, args)
    assert config == TrainConfig(hidden=(16, 8), learning_rate=0.002, readout="pool")
    assert config.hidden == (16, 8)


# ---------------------------------------------------------------------------
# gen


def test_gen_density_shift_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "density-shift", "--seed", "3", "--out", str(a)]) == 0
    assert main(["gen", "density-shift", "--seed", "3", "--out", str(b)]) == 0
    da, db = _dir_digest(a), _dir_digest(b)
    assert da and da == db
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["format"] == "pointforms-dataset"
    assert len(manifest["clouds"]) == len(DensityShiftConfig().kappas) * DensityShiftConfig().n_per_class


# per task, a config small enough that gen runs in milliseconds
_TINY = {
    "circles-lines": {"n_per_class": 2, "n_points": 16, "n_steps": 32},
    "rna-kinetics": {"n_genes": 3, "n_per_class": 2, "n_perturbed": 1},
    "density-shift": {"n_per_class": 2, "n_points": 16},
}


@pytest.mark.parametrize("task", tasks.TASKS)
def test_every_task_writes_the_one_labelled_dataset_shape(task, tmp_path, monkeypatch):
    config_cls, generate = tasks.TASKS[task]
    tiny = functools.partial(config_cls, **_TINY[task])
    clouds, meta = generate(tiny(seed=0))
    assert meta["task"] == task
    assert {c.label for c in clouds} == {0, 1}
    monkeypatch.setitem(tasks.TASKS, task, (tiny, generate))
    out = tmp_path / task
    assert main(["gen", task, "--out", str(out)]) == 0
    expected = {"manifest.json", "config.json", *(f"{c.id}.csv" for c in clouds)}
    assert {p.name for p in out.iterdir()} == expected
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["clouds"]) == len(clouds)
    assert all(set(rec) == {"id", "path", "label", "sha256"} for rec in manifest["clouds"])
    assert all(rec["sha256"] == hash_input(out / rec["path"]) for rec in manifest["clouds"])


def test_density_shift_runs_gen_to_eval(tmp_path, capsys):
    data, feat, run = tmp_path / "data", tmp_path / "feat", tmp_path / "run"
    assert main(["gen", "density-shift", "--out", str(data)]) == 0
    assert main(["precompute", "--dataset", str(data), "--out", str(feat)]) == 0
    assert main(["train", "--features", str(feat), "--out", str(run), "--epochs", "3"]) == 0
    assert main(["eval", "--model", str(run / "model.ckpt"), "--features", str(feat)]) == 0
    assert "match: True" in capsys.readouterr().out


def test_gen_unknown_task_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as err:
        main(["gen", "mystery-task", "--out", "/tmp/never"])
    assert err.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("task", ["circles-lines", "density-shift"])
def test_gen_control_on_a_task_without_control_exit_1(task, tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["gen", task, "--control", "--out", str(out)]) == 1
    assert "control" in capsys.readouterr().err
    assert not out.exists()


def test_gen_writes_config_echo(tmp_path):
    out = tmp_path / "d"
    assert main(["gen", "density-shift", "--seed", "9", "--out", str(out)]) == 0
    echo = json.loads((out / "config.json").read_text())
    assert echo["command"] == "gen"
    assert echo["args"]["seed"] == 9


# ---------------------------------------------------------------------------
# precompute


def test_precompute_reports_payload_accounting_identity(tmp_path, capsys):
    data = tmp_path / "data"
    rng = np.random.default_rng(1)
    clouds = [
        PointCloud(id=f"x{i}", points=rng.standard_normal((20 + i, 3)), label=0) for i in range(3)
    ]
    save_dataset(data, "toy", clouds, {})
    feat = tmp_path / "feat"
    assert main(["precompute", "--dataset", str(data), "--out", str(feat), "--k", "2", "--d", "1"]) == 0
    line = capsys.readouterr().out.strip()
    payload = int(re.search(r"payload (\d+) B", line).group(1))
    B = math.comb(3, 2)
    assert payload == sum(4 * c.m * B * B for c in clouds)
    # one cache per cloud plus the manifest, which holds each measure, and the config echo
    assert {p.name for p in feat.iterdir()} == {"features.json", "config.json", *(f"{c.id}.gram.bin" for c in clouds)}
    manifest = json.loads((feat / "features.json").read_text())
    assert [rec["cache"] for rec in manifest["clouds"]] == [f"{c.id}.gram.bin" for c in clouds]
    assert [rec["mu"] for rec in manifest["clouds"]] == [[1.0 / c.m] * c.m for c in clouds]


def test_precompute_payload_is_measured_not_estimated(tmp_path, capsys, monkeypatch):
    # with the estimate off by one byte per call, the payload must still be what is on disk
    real = cli.estimate_gram_memory
    monkeypatch.setattr(cli, "estimate_gram_memory", lambda *a, **kw: real(*a, **kw) + 1)
    data_dir = _small_dataset(tmp_path / "data")
    feat = tmp_path / "feat"
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat), "--d", "1"]) == 0
    line = capsys.readouterr().out.strip()
    payload = int(re.search(r"payload (\d+) B", line).group(1))
    caches = [feat / rec["cache"] for rec in json.loads((feat / "features.json").read_text())["clouds"]]
    assert payload == sum(p.stat().st_size for p in caches) - len(caches) * data._HEADER.size
    assert payload == sum(24 * 5 * 5 * 4 for _ in caches)


def _small_dataset(root: Path, dim: int = 5) -> Path:
    rng = np.random.default_rng(2)
    clouds = [PointCloud(id=f"c{i}", points=rng.standard_normal((24, dim)), label=i % 2) for i in range(3)]
    save_dataset(root, "toy", clouds, {"seed": 2})
    return root


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "4"],
        ["--k", "6"],
        ["--k", "0"],
        ["--knn", "foo"],
        ["--d", "auto"],
        ["--d", "0"],
        ["--knn", "0"],
        ["--epsilon", "inf"],
        ["--epsilon", "nan"],
        ["--alpha", "nan"],
        ["--alpha", "inf"],
        ["--beta", "nan"],
        ["--beta", "inf"],
    ],
    ids=[
        "k-above-3",
        "k-above-D",
        "k-zero",
        "knn-word",
        "d-word",
        "d-zero",
        "knn-zero",
        "epsilon-inf",
        "epsilon-nan",
        "alpha-nan",
        "alpha-inf",
        "beta-nan",
        "beta-inf",
    ],
)
def test_precompute_bad_setting_exits_1_once_before_any_cloud(flags, tmp_path, capsys):
    data_dir = _small_dataset(tmp_path / "data")
    out = tmp_path / "feat"
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("sub", ["feat", "."], ids=["subdirectory", "dataset-itself"])
def test_precompute_into_its_own_dataset_then_train_and_eval(sub, small_pipeline, tmp_path, capsys):
    # the features record the digest of the dataset's manifest, which files written beside it leave alone
    import shutil

    data_dir = tmp_path / "data"
    shutil.copytree(small_pipeline["data"], data_dir)
    (data_dir / "config.json").write_text('{"command": "gen"}\n')
    manifest = (data_dir / data.MANIFEST_NAME).read_bytes()
    feat = data_dir / sub
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat)]) == 0
    assert (data_dir / data.MANIFEST_NAME).read_bytes() == manifest
    # an --out that is the input directory itself replaces the input's echo, which no digest covers
    assert json.loads((data_dir / "config.json").read_text())["command"] == ("precompute" if sub == "." else "gen")
    recorded = json.loads((feat / cli.FEATURES_MANIFEST).read_text())["dataset_sha256"]
    assert recorded == hash_input(data_dir / data.MANIFEST_NAME)
    assert main(["train", "--features", str(feat), "--out", str(feat / "run"), "--epochs", "2", "--n-forms", "2"]) == 0
    capsys.readouterr()
    assert main(["eval", "--model", str(feat / "run" / "model.ckpt"), "--features", str(feat)]) == 0
    assert "match: True" in capsys.readouterr().out


def test_precompute_every_cloud_failing_reports_the_first_failure(tmp_path, capsys):
    rng = np.random.default_rng(3)
    clouds = [PointCloud(id=f"c{i}", points=rng.standard_normal((3, 2)), label=i % 2) for i in range(4)]
    save_dataset(tmp_path / "data", "toy", clouds, {})
    code = main(["precompute", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "feat")])
    assert code == InsufficientPointsError.exit_code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 5  # one line per cloud, then the first cloud's error
    assert err[-1].startswith("error: need k0-1=7 neighbors")


def test_precompute_empty_dataset_exit_2(tmp_path, capsys):
    save_dataset(tmp_path / "data", "empty", [], {})
    code = main(["precompute", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "feat")])
    assert code == 2
    assert "no clouds" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["id", "path"])
def test_dataset_record_without_a_key_exit_2(key, tmp_path, capsys):
    data_dir = _small_dataset(tmp_path / "data")
    manifest_path = data_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["clouds"][1][key]
    manifest_path.write_text(json.dumps(manifest))
    code = main(["precompute", "--dataset", str(data_dir), "--out", str(tmp_path / "feat")])
    assert code == 2
    assert f"lacks {key}" in capsys.readouterr().err


@pytest.mark.parametrize("label", ["a", "1", 2, -1, 0.0, 1.5, True, [1]], ids=repr)
def test_dataset_label_other_than_null_0_or_1_exit_2(label, tmp_path, capsys):
    data_dir, feat = _small_dataset(tmp_path / "data"), tmp_path / "feat"
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat), "--d", "1"]) == 0
    manifest_path = data_dir / data.MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["clouds"][1]["label"] = label
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    for argv in (
        ["train", "--features", str(feat), "--out", str(tmp_path / "run")],
        ["precompute", "--dataset", str(data_dir), "--out", str(tmp_path / "feat2")],
    ):
        assert main(argv) == IngestionError.exit_code == 2
        assert "cloud c1: label must be null, 0 or 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "feat2").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda manifest: manifest["clouds"],
        lambda manifest: {**manifest, "clouds": len(manifest["clouds"])},
        lambda manifest: {**manifest, "clouds": [1, *manifest["clouds"]]},
    ],
    ids=["json-list", "clouds-not-a-list", "record-not-an-object"],
)
def test_malformed_dataset_manifest_exit_2(edit, tmp_path, capsys):
    manifest_path = _small_dataset(tmp_path / "data") / data.MANIFEST_NAME
    manifest_path.write_text(json.dumps(edit(json.loads(manifest_path.read_text()))))
    code = main(["precompute", "--dataset", str(tmp_path / "data"), "--out", str(tmp_path / "feat")])
    assert code == 2
    assert data.MANIFEST_NAME in capsys.readouterr().err


def test_precompute_missing_dataset_exits_2(tmp_path, capsys):
    code = main(["precompute", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "f")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_precompute_keeps_partial_progress_on_cloud_failure(tmp_path, capsys):
    data = tmp_path / "data"
    rng = np.random.default_rng(2)
    good = PointCloud(id="good", points=rng.standard_normal((30, 2)), label=0)
    # the far point underflows the fixed-bandwidth kernel row
    bad_pts = np.vstack([rng.standard_normal((10, 2)), [[1e9, 1e9]]])
    bad = PointCloud(id="zz-bad", points=bad_pts, label=1)
    save_dataset(data, "toy", [good, bad], {})
    feat = tmp_path / "feat"
    code = main(
        [
            "precompute", "--dataset", str(data), "--out", str(feat),
            "--bandwidth-scale", "raw", "--beta", "0", "--d", "1",
        ]
    )
    assert code == 3  # numeric failure propagated from the bad cloud
    err = capsys.readouterr().err
    assert "zz-bad" in err
    manifest = json.loads((feat / "features.json").read_text())
    assert [rec["id"] for rec in manifest["clouds"]] == ["good"]
    assert (feat / "good.gram.bin").is_file()


# forking a process that holds a BLAS thread warns on Python >= 3.12; these tests fork on purpose
fork_warning = pytest.mark.filterwarnings("ignore:.*fork:DeprecationWarning")
# one BLAS thread: the process runs one OS thread, so a real fork is allowed
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@fork_warning
def test_forked_precompute_equals_the_one_process_run(tmp_path, monkeypatch, capsys, forked_workers):
    rng = np.random.default_rng(4)
    # one 3-point cloud fails in each half: by cost m^2 the worker takes a, b-bad and c
    sizes = {"a": 40, "b-bad": 3, "c": 40, "d": 40, "e-bad": 3, "f": 40}
    clouds = [PointCloud(id=i, points=rng.standard_normal((m, 2)), label=0) for i, m in sizes.items()]
    assert data.head_count([m * m for m in sizes.values()]) == 3
    save_dataset(tmp_path / "data", "toy", clouds, {})
    runs = []
    for forked in (False, True):
        monkeypatch.setattr(data, "_can_fork", lambda: forked)
        feat = tmp_path / f"feat-{forked}"
        code = main(["precompute", "--dataset", str(tmp_path / "data"), "--out", str(feat), "--d", "1"])
        runs.append((code, capsys.readouterr(), _dir_digest(feat)))
    assert len(forked_workers) == 1
    assert runs[1] == runs[0]
    code, outputs, files = runs[1]
    assert code == InsufficientPointsError.exit_code
    assert [line.split(":")[0] for line in outputs.err.splitlines()] == [
        "cloud b-bad",
        "cloud e-bad",
        "2 cloud(s) failed; caches for the rest were kept",
        "error",
    ]
    assert sorted(files) == ["a.gram.bin", "c.gram.bin", "config.json", "d.gram.bin", "f.gram.bin", "features.json"]


def test_forked_precompute_and_consistency_equal_the_in_process_run(tmp_path, monkeypatch, capsys):
    """The real fork path: a fresh interpreter with one BLAS thread runs one OS thread."""
    monkeypatch.setattr(data, "_can_fork", lambda: False)
    data_dir = _small_dataset(tmp_path / "data")
    commands = {
        "precompute": ["precompute", "--dataset", str(data_dir), "--d", "1", "--out"],
        "consistency": ["consistency", "--manifold", "circle", "--sizes", "60,90", "--seeds", "2", "--out"],
    }
    # the CLI in a fresh interpreter, printing to stderr how many workers it forked
    code = """
import sys
from pointforms import data
from pointforms.cli import main
started = []
class Counted(data.Worker):
    def __init__(self, handle):
        super().__init__(handle)
        started.append(self.pid)
data.Worker = Counted
code = main(sys.argv[1:])
print(len(started), file=sys.stderr)
sys.exit(code)
"""
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **ONE_BLAS_THREAD}
    can_fork = hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
    for name, argv in commands.items():
        assert main([*argv, str(tmp_path / f"{name}-alone")]) == 0
        alone = capsys.readouterr().out
        argv = [*argv, str(tmp_path / f"{name}-forked")]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True, capture_output=True, text=True, timeout=300)
        assert done.stdout == alone and done.stderr == f"{int(can_fork)}\n", name
        assert _dir_digest(tmp_path / f"{name}-forked") == _dir_digest(tmp_path / f"{name}-alone"), name


# ---------------------------------------------------------------------------
# train / eval


def test_train_outputs_and_eval_reproduces_auroc(small_pipeline, capsys):
    run = small_pipeline["run"]
    for name in ("model.ckpt", "history.csv", "result.json", "config.json"):
        assert (run / name).is_file()
    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss,grad_norm"
    assert len(history) == 21
    # validation runs at epoch 0, every 10th epoch and the last; other rows write nan
    assert [int(row.split(",")[0]) for row in history[1:] if row.split(",")[2] != "nan"] == [0, 10, 19]
    result = json.loads((run / "result.json").read_text())
    assert 0.0 <= result["test_auroc"] <= 1.0

    code = main(
        ["eval", "--model", str(run / "model.ckpt"), "--features", str(small_pipeline["feat"])]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"AUROC {result['test_auroc']:.6f}" in out
    assert "match: True" in out


def test_train_readout_variants_logged_separately(small_pipeline, tmp_path):
    feat = small_pipeline["feat"]
    results = {}
    for kind in ("tri", "diag"):
        out = tmp_path / kind
        assert (
            main(
                [
                    "train", "--features", str(feat), "--out", str(out),
                    "--epochs", "5", "--n-forms", "2", "--readout", kind,
                ]
            )
            == 0
        )
        echo = json.loads((out / "config.json").read_text())
        assert echo["args"]["readout"] == kind
        results[kind] = json.loads((out / "result.json").read_text())
    assert set(results) == {"tri", "diag"}


def test_train_rerun_is_bit_identical(small_pipeline, tmp_path):
    feat = small_pipeline["feat"]
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--features", str(feat), "--out", str(out), "--epochs", "6"]) == 0
        outs.append(out)
    assert (outs[0] / "history.csv").read_bytes() == (outs[1] / "history.csv").read_bytes()
    assert (outs[0] / "model.ckpt").read_bytes() == (outs[1] / "model.ckpt").read_bytes()


def test_train_writes_timings_beside_config(small_pipeline):
    run = small_pipeline["run"]
    timings = json.loads((run / "timings.json").read_text())
    assert set(timings) == {"epoch_s", "total_s", "worker"}
    assert len(timings["epoch_s"]) == 20 and timings["total_s"] >= sum(timings["epoch_s"]) > 0
    assert timings["worker"] is False  # one pack: nothing to share
    echo = json.loads((run / "config.json").read_text())
    assert "timings" not in json.dumps(echo) and "epoch_s" not in json.dumps(echo)


# n_forms 64 makes 6,144 network outputs per 48-point cloud: 8 train clouds in two packs
TWO_PACKS = ["--epochs", "8", "--n-forms", "64"]


@fork_warning
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # the NaN loss itself
def test_worker_error_exits_with_its_class_code_and_message(small_pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(data, "_can_fork", lambda: True)
    load = cli._load_features
    first_train_id = []

    def load_with_a_nan_head_cloud(*args, **kwargs):
        samples, manifest = load(*args, **kwargs)
        head = samples[network.split_samples(samples, network.VAL_FRACTION, network.TEST_FRACTION, 0)["train"][0]]
        head.gram.values[0, 0, 0] = np.nan
        first_train_id.append(head.cloud_id)
        return samples, manifest

    monkeypatch.setattr(cli, "_load_features", load_with_a_nan_head_cloud)
    code = main(["train", "--features", str(small_pipeline["feat"]), "--out", str(tmp_path / "run"), *TWO_PACKS])
    assert code == 3
    assert capsys.readouterr().err == f"error: cloud {first_train_id[0]}: non-finite loss\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_train_outputs_equal_the_in_process_run(small_pipeline, tmp_path, monkeypatch):
    """The real fork path: a fresh interpreter with one BLAS thread runs one OS thread."""
    feat = str(small_pipeline["feat"])
    monkeypatch.setattr(data, "_can_fork", lambda: False)
    assert main(["train", "--features", feat, "--out", str(tmp_path / "alone"), *TWO_PACKS]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **ONE_BLAS_THREAD}
    argv = ["train", "--features", feat, "--out", str(tmp_path / "forked"), *TWO_PACKS]
    subprocess.run([sys.executable, "-m", "pointforms.cli", *argv], env=env, check=True, capture_output=True, timeout=300)
    timings = json.loads((tmp_path / "forked" / "timings.json").read_text())
    assert timings["worker"] is (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)
    for name in ("model.ckpt", "history.csv", "result.json", "config.json"):
        assert (tmp_path / "forked" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes(), name


def test_eval_missing_features_exit_2(small_pipeline, tmp_path, capsys):
    run = small_pipeline["run"]
    code = main(["eval", "--model", str(run / "model.ckpt"), "--features", str(tmp_path / "none")])
    assert code == 2
    assert "precompute" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage",
    [
        lambda rec: rec.pop("mu"),
        lambda rec: rec.update(mu=rec["mu"][:10]),
        lambda rec: rec.update(mu=["x", *rec["mu"][1:]]),
        lambda rec: rec.update(mu=[math.nan, *rec["mu"][1:]]),
        lambda rec: rec.update(mu=[0.0, *rec["mu"][1:]]),
        lambda rec: rec.update(mu=[-rec["mu"][0], *rec["mu"][1:]]),
    ],
    ids=["missing", "short", "non-numeric", "nan", "zero", "negative"],
)
def test_damaged_measure_record_exit_2(damage, small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    ckpt = small_pipeline["run"] / "model.ckpt"
    victim = load_checkpoint(ckpt)[1]["splits"]["test"][0]  # a cloud that eval reads too
    manifest = json.loads((feat_copy / cli.FEATURES_MANIFEST).read_text())
    damage(next(rec for rec in manifest["clouds"] if rec["id"] == victim))
    (feat_copy / cli.FEATURES_MANIFEST).write_text(json.dumps(manifest))
    code = main(["train", "--features", str(feat_copy), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert f"cloud {victim}: measure" in capsys.readouterr().err
    code = main(["eval", "--model", str(ckpt), "--features", str(feat_copy)])
    assert code == 2
    assert f"cloud {victim}: measure" in capsys.readouterr().err


def test_nan_in_a_cache_exit_2_naming_the_file(small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    ckpt = small_pipeline["run"] / "model.ckpt"
    victim_id = load_checkpoint(ckpt)[1]["splits"]["test"][0]  # a cloud that eval reads too
    manifest = json.loads((feat_copy / cli.FEATURES_MANIFEST).read_text())
    victim = feat_copy / next(rec["cache"] for rec in manifest["clouds"] if rec["id"] == victim_id)
    raw = victim.read_bytes()
    victim.write_bytes(raw[:-4] + np.float32(np.nan).tobytes())  # the last entry of an fp32 payload
    code = main(["train", "--features", str(feat_copy), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert str(victim) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    code = main(["eval", "--model", str(ckpt), "--features", str(feat_copy)])
    assert code == 2
    assert str(victim) in capsys.readouterr().err


def test_version_1_features_exit_2(small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    manifest = json.loads((feat_copy / cli.FEATURES_MANIFEST).read_text())
    for rec in manifest["clouds"]:
        rec["mu"] = f"{rec['id']}.mu.csv"
    (feat_copy / cli.FEATURES_MANIFEST).write_text(json.dumps({**manifest, "version": 1}))
    code = main(["train", "--features", str(feat_copy), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert "precompute" in capsys.readouterr().err
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat_copy)])
    assert code == 2
    assert "precompute" in capsys.readouterr().err


def test_eval_checkpoint_of_another_degree_exit_2(small_pipeline, tmp_path, capsys):
    feat2 = tmp_path / "feat2"
    assert main(["precompute", "--dataset", str(small_pipeline["data"]), "--out", str(feat2), "--k", "2"]) == 0
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat2)])
    assert code == 2
    assert "degree" in capsys.readouterr().err


def test_eval_checkpoint_on_other_features_exit_2(small_pipeline, tmp_path, capsys):
    feat2 = tmp_path / "feat2"
    code = main(
        ["precompute", "--dataset", str(small_pipeline["data"]), "--out", str(feat2), "--measure", "density_corrected"]
    )
    assert code == 0
    capsys.readouterr()
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat2)])
    assert code == 2
    err = capsys.readouterr().err
    for feat in (feat2, small_pipeline["feat"]):
        assert hash_input(feat / cli.FEATURES_MANIFEST) in err


@pytest.mark.parametrize(
    "flags",
    [["--hidden", "0"], ["--hidden", "4,-3"], ["--lr", "nan"], ["--lr", "inf"]],
    ids=["hidden-0", "hidden-negative", "lr-nan", "lr-inf"],
)
def test_train_bad_config_exit_1(flags, small_pipeline, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["train", "--features", str(small_pipeline["feat"]), "--out", str(out), "--epochs", "1", *flags])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_train_into_its_own_features_or_dataset_then_eval(small_pipeline, tmp_path, capsys):
    import shutil

    data_dir, feat = tmp_path / "data", tmp_path / "feat"
    shutil.copytree(small_pipeline["data"], data_dir)
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat), "--k", "1"]) == 0
    for out in (feat / "run", data_dir / "run"):
        assert main(["train", "--features", str(feat), "--out", str(out), "--epochs", "2", "--n-forms", "2"]) == 0
    capsys.readouterr()
    for out in (feat / "run", data_dir / "run"):
        assert main(["eval", "--model", str(out / "model.ckpt"), "--features", str(feat)]) == 0
        assert "match: True" in capsys.readouterr().out


@pytest.mark.parametrize("damage", ["missing", "directory", "unparsable-echo", "echo-without-arch"])
def test_eval_unreadable_checkpoint_exit_2(damage, small_pipeline, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    if damage == "directory":
        ckpt.mkdir()
    elif damage != "missing":
        raw = (small_pipeline["run"] / "model.ckpt").read_bytes()
        echo_start = raw.rindex(b'{"arch"')
        echo = b"not json" if damage == "unparsable-echo" else json.dumps({"meta": {}}).encode()
        # same length, so only the echo is wrong; JSON allows the trailing spaces
        ckpt.write_bytes(raw[:echo_start] + echo.ljust(len(raw) - echo_start))
    code = main(["eval", "--model", str(ckpt), "--features", str(small_pipeline["feat"])])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit",
    [{"hidden": [64, 64]}, {"input_dim": None}, {"readout": "mean"}],
    ids=["hidden-64-64", "no-input-dim", "unknown-readout"],
)
def test_eval_checkpoint_arch_unlike_its_blob_exit_2(edit, small_pipeline, tmp_path, capsys):
    raw = (small_pipeline["run"] / "model.ckpt").read_bytes()
    header = struct.Struct("<4sIQQ")
    magic, version, n_params, echo_len = header.unpack_from(raw, 0)
    info = json.loads(raw[-echo_len:])
    info["arch"] = {k: v for k, v in {**info["arch"], **edit}.items() if v is not None}
    echo = json.dumps(info).encode()
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(header.pack(magic, version, n_params, len(echo)) + raw[header.size : -echo_len] + echo)
    code = main(["eval", "--model", str(ckpt), "--features", str(small_pipeline["feat"])])
    assert code == 2
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[]", '{"format": "pointforms-features", "clouds": [1]}'])
def test_unparsable_features_manifest_exit_2(text, small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    (feat_copy / cli.FEATURES_MANIFEST).write_text(text)
    code = main(["train", "--features", str(feat_copy), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert cli.FEATURES_MANIFEST in capsys.readouterr().err
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat_copy)])
    assert code == 2
    assert cli.FEATURES_MANIFEST in capsys.readouterr().err


def test_relative_dataset_path_resolves_from_the_features(small_pipeline, tmp_path, monkeypatch, capsys):
    import shutil

    shutil.copytree(small_pipeline["data"], tmp_path / "data")
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    assert main(["precompute", "--dataset", "../data", "--out", "feat"]) == 0
    assert main(["train", "--features", "feat", "--out", "run", "--epochs", "2", "--n-forms", "2"]) == 0
    assert json.loads(Path("feat", cli.FEATURES_MANIFEST).read_text())["dataset"] == str(Path("..", "..", "data"))
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["eval", "--model", "work/run/model.ckpt", "--features", "work/feat"]) == 0
    assert "match: True" in capsys.readouterr().out


@pytest.mark.parametrize("split", ["test", "all"])
def test_eval_reads_only_the_scored_caches(split, small_pipeline, monkeypatch, capsys):
    run = small_pipeline["run"]
    read = []
    monkeypatch.setattr(cli, "read_gram_cache", lambda path, *a: read.append(path) or data.read_gram_cache(path, *a))
    code = main(["eval", "--model", str(run / "model.ckpt"), "--features", str(small_pipeline["feat"]), "--split", split])
    assert code == 0
    splits = json.loads((run / "result.json").read_text())["split_sizes"]
    assert len(read) == (splits["test"] if split == "test" else sum(splits.values()))
    assert f"over {len(read)} clouds" in capsys.readouterr().out


def test_eval_corrupt_cache_exit_2(small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    victim = feat_copy / f"{load_checkpoint(small_pipeline['run'] / 'model.ckpt')[1]['splits']['test'][0]}.gram.bin"
    raw = bytearray(victim.read_bytes())
    raw[0] ^= 0xFF
    victim.write_bytes(bytes(raw))
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat_copy)])
    assert code == 2


def test_cache_of_another_ambient_dimension_exit_2(small_pipeline, tmp_path, capsys):
    # every cache rewritten as a D=3 degree-1 field over the same points: m and degree still match
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    manifest = json.loads((feat_copy / cli.FEATURES_MANIFEST).read_text())
    for rec in manifest["clouds"]:  # recorded anew, so the dimension check is the one that fails
        victim = feat_copy / rec["cache"]
        gram = data.GramField(D=3, k=1, values=np.tile(np.eye(3), (rec["m"], 1, 1)))
        rec["sha256"], rec["bytes"] = data.write_gram_cache(victim, gram)
    (feat_copy / cli.FEATURES_MANIFEST).write_text(json.dumps(manifest))
    code = main(["train", "--features", str(feat_copy), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert "ambient dimension 3, the cloud has 2" in capsys.readouterr().err
    code = main(["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat_copy)])
    assert code == 2
    assert "ambient dimension 3, the cloud has 2" in capsys.readouterr().err


def test_features_of_a_changed_dataset_exit_2(small_pipeline, tmp_path, capsys):
    import shutil

    data = tmp_path / "data"
    shutil.copytree(small_pipeline["data"], data)
    feat = tmp_path / "feat"
    assert main(["precompute", "--dataset", str(data), "--out", str(feat), "--k", "1"]) == 0
    victim = next(data.glob("*.csv"))
    pts = np.loadtxt(victim, delimiter=",", ndmin=2)
    np.savetxt(victim, pts[::-1] * 1.5, fmt="%.17g", delimiter=",")
    capsys.readouterr()
    code = main(["train", "--features", str(feat), "--out", str(tmp_path / "run"), "--epochs", "1"])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# studies


def test_consistency_small_run_prints_table(tmp_path, capsys):
    out = tmp_path / "study"
    code = main(
        [
            "consistency", "--manifold", "circle", "--sizes", "60,90", "--seeds", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "median gram error by size" in text
    assert "n=    60" in text and "n=    90" in text
    assert (out / "consistency.csv").is_file()


def test_consistency_echo_records_the_operator_it_ran(tmp_path):
    # the study always runs the full kernel at the manifold's intrinsic dimension
    base = ["consistency", "--manifold", "circle", "--sizes", "60", "--seeds", "1"]
    assert main([*base, "--out", str(tmp_path / "plain")]) == 0
    assert main([*base, "--knn", "5", "--out", str(tmp_path / "flags")]) == 0
    csv = [(tmp_path / run / "consistency.csv").read_bytes() for run in ("plain", "flags")]
    assert csv[0] == csv[1]
    for run in ("plain", "flags"):
        params = json.loads((tmp_path / run / "config.json").read_text())["args"]["params"]
        assert (params["knn"], params["d"]) == ("full", 1)
    # --d has one legal value here, so the study does not take it
    with pytest.raises(SystemExit) as err:
        main([*base, "--d", "3", "--out", str(tmp_path / "d")])
    assert err.value.code == 1
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["consistency", "--manifold", "circle", "--sizes", ","],
        ["consistency", "--manifold", "circle", "--sizes", "-5"],
        ["consistency", "--manifold", "circle", "--seeds", "0"],
        ["density-check", "--kappas", ","],
        ["density-check", "--seeds", "0"],
    ],
    ids=[
        "consistency-no-sizes",
        "consistency-negative-size",
        "consistency-no-seeds",
        "density-check-no-kappas",
        "density-check-no-seeds",
    ],
)
def test_empty_study_exit_1(argv, capsys):
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["consistency", "--manifold", "circle", "--sizes", "7", "--seeds", "1"],
        ["consistency", "--manifold", "circle", "--sizes", "7,60", "--seeds", "1"],
        ["density-check", "--kappas", "2", "--n", "7", "--seeds", "2"],
        ["density-check", "--kappas", "0", "--n", "0", "--seeds", "2"],
    ],
    ids=["consistency-size-7", "consistency-one-size-7", "density-check-n-7", "density-check-n-0"],
)
def test_study_size_below_k0_exit_1(argv, capsys):
    # the operator needs k0 - 1 neighbors per point, so a study of fewer than k0 = 8 points is a flag error
    assert main(argv) == 1
    assert "k0=8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["consistency", "--manifold", "circle", "--sizes", "8", "--seeds", "1"],
        ["density-check", "--kappas", "2", "--n", "8", "--seeds", "2"],
    ],
    ids=["consistency", "density-check"],
)
def test_study_at_k0_points_runs(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path / "study")]) == 0


@pytest.mark.parametrize("sizes", ["8", "20,20"], ids=["one-size", "repeated-size"])
def test_consistency_of_one_distinct_size_gives_no_verdict(sizes, tmp_path, capsys):
    # a decrease and a final/initial ratio need two or more distinct sizes
    argv = ["consistency", "--manifold", "circle", "--sizes", sizes, "--seeds", "1", "--out", str(tmp_path / "s")]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "two or more distinct sizes" in text
    assert "PASS" not in text and "FAIL" not in text


def test_density_check_infinite_kappa_exit_1(tmp_path, capsys):
    assert main(["density-check", "--kappas", "inf", "--n", "8", "--seeds", "2", "--out", str(tmp_path / "dc")]) == 1
    assert "error:" in capsys.readouterr().err


def test_density_check_checks_every_kappa_before_any_operator(monkeypatch, capsys):
    monkeypatch.setattr(data, "_can_fork", lambda: False)  # the counter sees this process's builds only
    builds = []
    build = oracle.build_laplacian
    monkeypatch.setattr(oracle, "build_laplacian", lambda *args: builds.append(1) or build(*args))
    assert main(["density-check", "--kappas", "2,4,inf"]) == 1
    assert "inf" in capsys.readouterr().err
    assert builds == []
    # the counter sees the study's builds: one per kappa and seed
    assert main(["density-check", "--kappas", "2", "--n", "16", "--seeds", "2"]) == 0
    assert len(builds) == 2


def test_consistency_unknown_manifold_exit_1(capsys):
    # a parser choice, so a usage error like any other unknown word
    with pytest.raises(SystemExit) as err:
        main(["consistency", "--manifold", "klein"])
    assert err.value.code == 1
    err_text = capsys.readouterr().err
    assert "usage:" in err_text and "error:" in err_text and "'klein'" in err_text


def test_consistency_bad_theta_warns():
    with pytest.warns(ConfigurationWarning):
        main(["consistency", "--manifold", "circle", "--sizes", "60", "--seeds", "1", "--theta", "0.9"])


@pytest.mark.parametrize("theta", ["nan", "inf"])
def test_consistency_non_finite_theta_exit_1_before_any_size(theta, tmp_path, capsys):
    out = tmp_path / "study"
    flags = ["--sizes", "60", "--seeds", "1", "--theta", theta, "--out", str(out)]
    code = main(["consistency", "--manifold", "circle", *flags])
    assert code == 1
    captured = capsys.readouterr()
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "finite" in err[0]
    assert "n=" not in captured.out
    assert not out.exists()


def test_density_check_single_seed_warns(capsys):
    with pytest.warns(ConfigurationWarning):
        code = main(["density-check", "--kappas", "0", "--n", "96", "--seeds", "1"])
    assert code == 0
    assert "kappa" in capsys.readouterr().out


def test_density_check_writes_csv(tmp_path, capsys):
    out = tmp_path / "dc"
    code = main(["density-check", "--kappas", "0,2", "--n", "96", "--seeds", "2", "--out", str(out)])
    assert code == 0
    rows = (out / "density_check.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2  # header + kappas x seeds x metrics
    table = capsys.readouterr().out
    assert "PASS" in table


# ---------------------------------------------------------------------------
# mem


def test_mem_published_shape(capsys):
    assert main(["mem", "256", "12", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("degree-2 gram field for 256 points in R^12 (fp32):")
    assert "4460544 B" in out and "4.25 MiB" in out


def test_mem_trivial_and_cubic_shapes(capsys):
    assert main(["mem", "128", "2", "2"]) == 0
    assert "512 B" in capsys.readouterr().out
    assert main(["mem", "256", "12", "3"]) == 0
    assert "49561600 B" in capsys.readouterr().out


def test_mem_invalid_degree_exit_1(capsys):
    assert main(["mem", "16", "3", "7"]) == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_every_error_class_has_a_documented_exit_code():
    assert set(PointFormsError.__subclasses__()) == set(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("error", DOCUMENTED_EXIT_CODES, ids=lambda e: e.__name__)
def test_main_returns_documented_exit_code(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "estimate_gram_memory", fail)
    assert main(["mem", "16", "3", "1"]) == DOCUMENTED_EXIT_CODES[error]
    assert "error: injected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input hashing


def test_hash_input_tracks_content(tmp_path):
    f = tmp_path / "x.csv"
    f.write_text("1,2\n")
    h1 = hash_input(f)
    f.write_text("1,3\n")
    assert hash_input(f) != h1
    # a dataset's digest is its manifest's, which holds each cloud file's
    d = _small_dataset(tmp_path / "d")
    h_dir = hash_input(d / data.MANIFEST_NAME)
    (d / "notes.txt").write_text("not a cloud")
    assert hash_input(d / data.MANIFEST_NAME) == h_dir
    clouds, _ = data.load_dataset(d)
    save_dataset(d, "toy", [PointCloud(id=c.id, points=c.points * 2.0, label=c.label) for c in clouds], {"seed": 2})
    assert hash_input(d / data.MANIFEST_NAME) != h_dir


# ---------------------------------------------------------------------------
# recorded digests: each manifest holds the sha256 of every file it names, and each reader checks what it reads


def _flip_last_byte(path: Path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("kind", ["cache", "csv"])
def test_eval_checks_the_files_it_scores_and_train_every_file(kind, small_pipeline, tmp_path, capsys):
    import shutil

    data_dir, feat, run = tmp_path / "data", tmp_path / "feat", tmp_path / "run"
    shutil.copytree(small_pipeline["data"], data_dir)
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat)]) == 0
    assert main(["train", "--features", str(feat), "--out", str(run), "--epochs", "2", "--n-forms", "2"]) == 0
    splits = load_checkpoint(run / "model.ckpt")[1]["splits"]
    path = {"cache": lambda cid: feat / f"{cid}.gram.bin", "csv": lambda cid: data_dir / f"{cid}.csv"}[kind]
    evaluate = ["eval", "--model", str(run / "model.ckpt"), "--features", str(feat)]
    unscored, scored = path(splits["train"][0]), path(splits["test"][0])
    _flip_last_byte(unscored)
    capsys.readouterr()
    assert main(evaluate) == 0
    assert "match: True" in capsys.readouterr().out
    assert main(["train", "--features", str(feat), "--out", str(tmp_path / "run2"), "--epochs", "1"]) == 2
    assert f"{unscored} has sha256" in capsys.readouterr().err
    assert not (tmp_path / "run2").exists()
    _flip_last_byte(scored)
    assert main(evaluate) == 2
    assert f"{scored} has sha256" in capsys.readouterr().err


def test_features_of_a_relabelled_dataset_exit_2(small_pipeline, tmp_path, capsys):
    # every cloud file is intact; only the manifest, whose digest the features record, changed
    import shutil

    data_dir, feat = tmp_path / "data", tmp_path / "feat"
    shutil.copytree(small_pipeline["data"], data_dir)
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat)]) == 0
    manifest = json.loads((data_dir / data.MANIFEST_NAME).read_text())
    manifest["clouds"][0]["label"] = 1 - manifest["clouds"][0]["label"]
    (data_dir / data.MANIFEST_NAME).write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["train", "--features", str(feat), "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{data_dir / data.MANIFEST_NAME} has sha256 {hash_input(data_dir / data.MANIFEST_NAME)}" in err
    assert "rerun 'pointforms precompute'" in err
    # a features path through a file reads no manifest
    ckpt = small_pipeline["run"] / "model.ckpt"
    assert main(["eval", "--model", str(ckpt), "--features", str(data_dir / data.MANIFEST_NAME)]) == 2
    assert "run 'pointforms precompute' first" in capsys.readouterr().err


def test_every_cache_named_keeps_its_recorded_size(small_pipeline, tmp_path, capsys):
    # a stat each, so a truncated or missing cache stops eval even where eval does not read it
    import shutil

    feat = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat)
    ckpt = small_pipeline["run"] / "model.ckpt"
    victim = feat / f"{load_checkpoint(ckpt)[1]['splits']['train'][0]}.gram.bin"
    victim.write_bytes(victim.read_bytes()[:-4])
    assert main(["eval", "--model", str(ckpt), "--features", str(feat)]) == 2
    size = victim.stat().st_size
    assert f"{victim}: {size} bytes, the features record {size + 4}" in capsys.readouterr().err
    victim.unlink()
    assert main(["eval", "--model", str(ckpt), "--features", str(feat)]) == MissingCacheError.exit_code
    assert f"missing {victim}" in capsys.readouterr().err


def test_extra_files_change_no_digest_and_no_output(small_pipeline, tmp_path, capsys):
    import shutil

    data_dir, feat, run = tmp_path / "data", tmp_path / "feat", tmp_path / "run"
    shutil.copytree(small_pipeline["data"], data_dir)
    outputs = []
    for extra in (False, True):
        if extra:
            (data_dir / "notes.txt").write_text("kept beside the clouds")
        assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat)]) == 0
        if extra:
            (feat / "notes.txt").write_text("kept beside the caches")
        assert main(["train", "--features", str(feat), "--out", str(run), "--epochs", "2", "--n-forms", "2"]) == 0
        assert main(["eval", "--model", str(run / "model.ckpt"), "--features", str(feat)]) == 0
        files = {**_dir_digest(feat), **{f"run/{k}": v for k, v in _dir_digest(run).items()}}
        files.pop("notes.txt", None)
        files.pop("run/timings.json")  # seconds
        outputs.append((capsys.readouterr().out, files))
    assert outputs[1] == outputs[0]


def test_manifests_of_an_older_version_ask_for_the_command_that_writes_them(small_pipeline, tmp_path, capsys):
    import shutil

    data_dir, feat = tmp_path / "data", tmp_path / "feat"
    shutil.copytree(small_pipeline["data"], data_dir)
    shutil.copytree(small_pipeline["feat"], feat)
    manifest = json.loads((feat / cli.FEATURES_MANIFEST).read_text())
    (feat / cli.FEATURES_MANIFEST).write_text(json.dumps({**manifest, "version": 2}))
    for argv in (
        ["train", "--features", str(feat), "--out", str(tmp_path / "run"), "--epochs", "1"],
        ["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat)],
    ):
        assert main(argv) == 2
        assert "version 2, expected 3; rerun 'pointforms precompute'" in capsys.readouterr().err
    manifest = json.loads((data_dir / data.MANIFEST_NAME).read_text())
    (data_dir / data.MANIFEST_NAME).write_text(json.dumps({**manifest, "version": 1}))
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(tmp_path / "feat2")]) == 2
    assert "version 1, expected 2; rerun 'pointforms gen'" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("kind", "key", "value"),
    [
        ("dataset", "id", 7),
        ("dataset", "path", None),
        ("dataset", "sha256", 5),
        ("features", "id", 7),
        ("features", "cache", None),
        ("features", "sha256", None),
    ],
)
def test_record_key_that_is_not_a_string_exit_2_naming_the_file(kind, key, value, small_pipeline, tmp_path, capsys):
    import shutil

    data_dir, feat = tmp_path / "data", tmp_path / "feat"
    shutil.copytree(small_pipeline["data"], data_dir)
    shutil.copytree(small_pipeline["feat"], feat)
    manifest_path = data_dir / data.MANIFEST_NAME if kind == "dataset" else feat / cli.FEATURES_MANIFEST
    manifest = json.loads(manifest_path.read_text())
    manifest["clouds"][1][key] = value
    manifest_path.write_text(json.dumps(manifest))
    argvs = {
        "dataset": [["precompute", "--dataset", str(data_dir), "--out", str(tmp_path / "feat2")]],
        "features": [
            ["train", "--features", str(feat), "--out", str(tmp_path / "run"), "--epochs", "1"],
            ["eval", "--model", str(small_pipeline["run"] / "model.ckpt"), "--features", str(feat)],
        ],
    }[kind]
    for argv in argvs:
        assert main(argv) == 2
        assert f"error: {manifest_path}: manifest or cloud record lacks {key}" in capsys.readouterr().err


@fork_warning
def test_a_failed_fork_runs_precompute_and_train_in_one_process(small_pipeline, tmp_path, monkeypatch, capsys):
    def fork_fails():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    runs = []
    for fork in (None, fork_fails):
        monkeypatch.setattr(data, "_can_fork", lambda: fork is not None)
        if fork:
            monkeypatch.setattr(os, "fork", fork)
        feat, run = tmp_path / f"feat-{fork is None}", tmp_path / f"run-{fork is None}"
        assert main(["precompute", "--dataset", str(small_pipeline["data"]), "--out", str(feat)]) == 0
        assert main(["train", "--features", str(feat), "--out", str(run), *TWO_PACKS]) == 0
        assert not json.loads((run / "timings.json").read_text())["worker"]
        echo = {name: (run / name).read_bytes() for name in ("history.csv", "result.json")}
        params = load_checkpoint(run / "model.ckpt")[0].parameters()
        runs.append((capsys.readouterr().out, _dir_digest(feat), echo, params))
    (out0, feat0, echo0, params0), (out1, feat1, echo1, params1) = runs
    assert out1 == out0 and feat1 == feat0 and echo1 == echo0
    assert all(a.tobytes() == b.tobytes() for a, b in zip(params0, params1))


# ---------------------------------------------------------------------------
# start-up imports


def _fresh_python(code: str) -> None:
    # a fresh interpreter, since this one has imported scipy through other tests
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, capture_output=True)


def test_commands_without_an_operator_load_no_scipy(small_pipeline, tmp_path):
    argvs = [
        ["mem", "256", "12", "2"],
        ["gen", "circles-lines", "--out", str(tmp_path / "gen")],
        ["train", "--features", str(small_pipeline["feat"]), "--out", str(tmp_path / "run"), "--epochs", "1"],
        ["eval", "--model", str(tmp_path / "run" / "model.ckpt"), "--features", str(small_pipeline["feat"])],
    ]
    code = f"""
import sys
from pointforms.cli import main
for argv in {argvs!r}:
    assert main(argv) == 0, argv
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, loaded
"""
    _fresh_python(code)


def test_scipy_loads_at_the_call_that_uses_it():
    code = """
import sys
import numpy as np
from pointforms import build_laplacian, von_mises_sampler
assert "scipy.special" not in sys.modules
von_mises_sampler(16, 2.0, rng=0)
assert "scipy.special" in sys.modules and "scipy.sparse" not in sys.modules
op = build_laplacian(np.random.default_rng(0).standard_normal((40, 2)))
assert "scipy.sparse" in sys.modules and op.L.format == "csr"
"""
    _fresh_python(code)
