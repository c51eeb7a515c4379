"""Command-line harness: plumbing, determinism, exit codes, reporting."""

import argparse
import dataclasses
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
from pointforms import READOUTS, cli, data, oracle, tasks
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
    assert all(set(rec) == {"id", "path", "label"} for rec in manifest["clouds"])


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
def test_precompute_into_its_own_dataset_exit_1(sub, tmp_path, capsys):
    data_dir = _small_dataset(tmp_path / "data")
    before = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
    code = main(["precompute", "--dataset", str(data_dir), "--out", str(data_dir / sub)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "inside --dataset" in err[0]
    assert {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()} == before
    assert not (data_dir / "feat").exists()


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


# ---------------------------------------------------------------------------
# train / eval


def test_train_outputs_and_eval_reproduces_auroc(small_pipeline, capsys):
    run = small_pipeline["run"]
    for name in ("model.ckpt", "history.csv", "result.json", "config.json"):
        assert (run / name).is_file()
    history = (run / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_loss"
    assert len(history) == 21
    # validation runs at epoch 0, every 10th epoch and the last; other rows write nan
    assert [int(row.split(",")[0]) for row in history[1:] if not row.endswith(",nan")] == [0, 10, 19]
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
    assert hash_input(feat2) in err and hash_input(small_pipeline["feat"]) in err


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


def test_train_into_its_own_features_exit_1(small_pipeline, tmp_path, monkeypatch, capsys):
    import shutil

    feat = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat)
    code = main(["train", "--features", str(feat), "--out", str(feat / "run"), "--epochs", "1"])
    assert code == 1
    assert "inside --features" in capsys.readouterr().err
    assert not (feat / "run").exists()
    # nor inside the dataset the features were computed from, whose digest they record
    data_dir = tmp_path / "data"
    shutil.copytree(small_pipeline["data"], data_dir)
    assert main(["precompute", "--dataset", str(data_dir), "--out", str(feat), "--k", "1"]) == 0
    before = {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()}
    capsys.readouterr()
    monkeypatch.setattr(cli, "train", lambda *a, **kw: pytest.fail("trained before refusing --out"))
    code = main(["train", "--features", str(feat), "--out", str(data_dir / "run"), "--epochs", "1"])
    assert code == 1
    assert "inside the features' dataset" in capsys.readouterr().err
    assert {p: p.read_bytes() for p in data_dir.rglob("*") if p.is_file()} == before


@pytest.mark.parametrize("damage", ["missing", "unparsable-echo", "echo-without-arch"])
def test_eval_unreadable_checkpoint_exit_2(damage, small_pipeline, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    if damage != "missing":
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
    monkeypatch.setattr(cli, "read_gram_cache", lambda path: read.append(path) or data.read_gram_cache(path))
    code = main(["eval", "--model", str(run / "model.ckpt"), "--features", str(small_pipeline["feat"]), "--split", split])
    assert code == 0
    splits = json.loads((run / "result.json").read_text())["split_sizes"]
    assert len(read) == (splits["test"] if split == "test" else sum(splits.values()))
    assert f"over {len(read)} clouds" in capsys.readouterr().out


def test_eval_corrupt_cache_exit_2(small_pipeline, tmp_path, capsys):
    import shutil

    feat_copy = tmp_path / "feat"
    shutil.copytree(small_pipeline["feat"], feat_copy)
    victim = next(feat_copy.glob("*.gram.bin"))
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
    for victim in feat_copy.glob("*.gram.bin"):
        m = data.read_gram_cache(victim).m
        data.write_gram_cache(victim, data.GramField(D=3, k=1, values=np.tile(np.eye(3), (m, 1, 1))))
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
    d = tmp_path / "d"
    d.mkdir()
    (d / "a.txt").write_text("a")
    (d / "b.txt").write_text("b")
    h_dir = hash_input(d)
    (d / "b.txt").write_text("c")
    assert hash_input(d) != h_dir


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
