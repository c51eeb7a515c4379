"""Tests of the benchmark itself: names, span arithmetic, output checks,
and that a run leaves the source tree as it found it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pointforms import cli, data, tasks  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _gen_mini(out: Path, seed: int) -> int:
    cfg = tasks.CirclesLinesConfig(n_per_class=10, n_points=32, n_steps=64, seed=seed)
    clouds, meta = tasks.gen_circles_lines(cfg)
    data.save_dataset(out, "circles-lines", clouds, meta)
    return 0


MINI = workloads.Workload(name="mini", gen=_gen_mini, k=1, d="estimate", auroc_floor=0.0)
MINI_EPOCHS = 3


@pytest.fixture(scope="module")
def mini_pass(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(workloads, "EPOCHS", MINI_EPOCHS)
        return root, workloads.run_pass(MINI, 0, root)


def _tree() -> dict[str, int | None]:
    """Every file (with its mtime) and directory under the checkout."""
    skip = {".git", "__pycache__", ".pytest_cache"}
    return {
        p.relative_to(ROOT).as_posix(): p.stat().st_mtime_ns if p.is_file() else None
        for p in ROOT.rglob("*")
        if not skip.intersection(p.relative_to(ROOT).parts)
    }


# ---------------------------------------------------------------------------
# names


def test_declared_names_and_units_are_well_formed():
    spec = _spec()
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in spec[group]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert all(UNIT.match(m["unit"]) for g in ("end_to_end", "per_layer") for m in spec[g])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_measured_names_match_declared(mini_pass):
    spec = _spec()
    _, res = mini_pass
    e2e = run.end_to_end([res], [1.0])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    layer = set(tracing.layer_metrics([], {}, epochs=1))
    layer |= {"gen_s", "precompute_s", "train_s", "data.cache_bytes", "trace.overhead_frac"}
    layer |= {"laplacian.build_peak_mib", "gram.compound_peak_mib", "gram.field_mib"}
    assert layer == {m["name"] for m in spec["per_layer"]}


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["stage.train", 0.0, 10.0, -1],
        ["network.loss_and_grad", 1.0, 4.0, 0],
        ["network.forward", 2.0, 3.0, 1],
        ["network.validate", 5.0, 9.0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_arithmetic():
    spans = [
        ["stage.train", 0.0, 10.0, -1],
        ["network.train", 0.5, 9.5, 0],
        ["network.loss_and_grad", 1.0, 4.0, 1],
        ["network.forward", 2.0, 3.0, 2],
        ["network.validate", 5.0, 7.0, 1],
        ["network.forward", 5.5, 6.0, 4],  # validation forward: not in forward_ms
    ]
    m = tracing.layer_metrics(spans, {"laplacian.nnz": 30, "laplacian.rows": 10}, epochs=2)
    assert m["network.loss_and_grad_ms"] == pytest.approx(1500.0)
    assert m["network.forward_ms"] == pytest.approx(500.0)
    assert m["network.backward_ms"] == pytest.approx(1000.0)
    assert m["network.val_ms"] == pytest.approx(1000.0)
    assert m["network.optimizer_ms"] == pytest.approx(2000.0)  # 9 - 3 - 2 = 4 s over 2 epochs
    assert m["laplacian.nnz_per_row"] == pytest.approx(3.0)
    # stage self time is 10 - 9 = 1 s of 10 s
    assert m["trace.coverage_frac"] == pytest.approx(0.9)


def test_tracer_records_nesting_and_restores_originals(mini_pass):
    from pointforms import graph, laplacian

    root, _ = mini_pass
    clouds, _ = data.load_dataset(root / "data")
    original = laplacian.build_laplacian
    tracer = tracing.Tracer("t")
    with tracing.installed(tracer):
        with tracer.span("stage.precompute"):
            laplacian.build_laplacian(clouds[0].points)
    assert laplacian.build_laplacian is original and graph.knn.__name__ == "knn"
    names = [s[0] for s in tracer.spans]
    assert names[:2] == ["stage.precompute", "laplacian.build_laplacian"]
    by_index = {i: s for i, s in enumerate(tracer.spans)}
    knn = next(s for s in tracer.spans if s[0] == "graph.knn")
    assert by_index[knn[3]][0] in {"laplacian.build_laplacian", "laplacian.estimate_dimension", "laplacian.estimate_density"}
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.counts["laplacian.rows"] == clouds[0].m


# ---------------------------------------------------------------------------
# output checks


def test_clean_pass_passes_every_check(mini_pass):
    _, res = mini_pass
    assert res.failed == 0, res.errors
    assert set(res.checks) == {"auroc", "cache_bytes"} and all(res.checks.values())
    assert set(res.times) == {"gen", "precompute", "train", "eval"}


def test_auroc_mismatch_is_caught(mini_pass, tmp_path):
    root, _ = mini_pass
    result = json.loads((root / "run" / "result.json").read_text())
    eval_out = f"AUROC {result['test_auroc']:.6f} over 4 clouds (test split)\nrecorded test AUROC x; match: True\n"
    assert workloads.check_auroc(eval_out, root / "run" / "result.json", 0.0)[0]
    forged = tmp_path / "result.json"
    forged.write_text(json.dumps({**result, "test_auroc": result["test_auroc"] - 0.25}))
    ok, detail, _ = workloads.check_auroc(eval_out, forged, 0.0)
    assert not ok and "!=" in detail
    assert not workloads.check_auroc(eval_out.replace("True", "False"), root / "run" / "result.json", 0.0)[0]
    assert not workloads.check_auroc(eval_out, root / "run" / "result.json", 1.01)[0]


def test_corrupted_cache_is_caught(mini_pass, tmp_path):
    root, _ = mini_pass
    feats = tmp_path / "feats"
    shutil.copytree(root / "feats", feats)
    # the manifest names the dataset by its path, so it still resolves
    assert workloads.check_cache_bytes(feats)[0]
    victim = next(feats.glob("*.gram.bin"))
    victim.write_bytes(victim.read_bytes()[:-4])
    ok, detail, _ = workloads.check_cache_bytes(feats)
    assert not ok and "expected" in detail
    res = workloads.PassResult()
    workloads._run_command(
        "eval",
        lambda: cli.main(["eval", "--model", str(root / "run" / "model.ckpt"), "--features", str(feats)]),
        res,
        lambda name: contextlib.nullcontext(),
    )
    assert res.failed == 1 and "exit 2" in res.errors[0]


def test_cli_usage_error_counts_as_failed_command():
    res = workloads.PassResult()
    workloads._run_command("gen", lambda: cli.main(["gen"]), res, lambda name: contextlib.nullcontext())
    assert res.attempted == 1 and res.failed == 1 and "exit 1" in res.errors[0]


def test_consistency_check():
    assert workloads.check_consistency({250: 0.4, 500: 0.3, 1000: 0.2, 2000: 0.15})[0]
    assert not workloads.check_consistency({250: 0.4, 500: 0.45, 1000: 0.2, 2000: 0.15})[0]
    assert not workloads.check_consistency({250: 0.4, 500: 0.35, 1000: 0.3, 2000: 0.25})[0]


# ---------------------------------------------------------------------------
# whole runs through the entry point


@pytest.mark.parametrize("trace", [0, 1])
def test_run_writes_only_its_spans_into_the_tree(monkeypatch, capsys, trace):
    for var in run.BLAS_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setitem(workloads.WORKLOADS, "mini", MINI)
    monkeypatch.setattr(workloads, "EPOCHS", MINI_EPOCHS)
    monkeypatch.setattr(run, "SETUP_BEFORE", 1)
    monkeypatch.setattr(run, "SETUP_AFTER", 1)
    spec = _spec()
    spans = ROOT / ".bench_out" / "spans-mini-seed3.jsonl"
    spans.unlink(missing_ok=True)
    before = _tree()
    assert run.main(["--workload", "mini", "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    after = _tree()
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in spec[group]]
    written = {path: after.pop(path) for path in set(after) - set(before)}
    assert after == before  # nothing else added, changed or removed, work dir included
    if trace:
        assert set(written) <= {".bench_out", ".bench_out/spans-mini-seed3.jsonl"} and spans.is_file()
        header = json.loads(spans.read_text().splitlines()[0])
        assert header["facts"]["nproc"] >= 1
        spans.unlink()
        with contextlib.suppress(OSError):
            spans.parent.rmdir()
    else:
        assert written == {}


def test_incomplete_checkout_fails_without_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "circles-lines"]) != 0
    assert "{" not in capsys.readouterr().out
