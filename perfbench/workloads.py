"""Benchmark workloads: one closed-loop pass through the pointforms CLI.

A pass runs ``gen -> precompute -> train -> eval`` (and, on circles-lines,
the circle consistency study) in this process through
``pointforms.cli.main``, the way a user runs the commands, times each
command, then checks the outputs. Every command and every output check
counts as one attempted operation; a failure of either counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from pointforms import cli, data, gram, tasks
from pointforms.laplacian import LaplacianParams

CONSISTENCY_SIZES = (250, 500, 1000, 2000)
CONSISTENCY_SEEDS = 5
# Half the CLI default of 200 epochs, so that every run of the
# benchmark fits its time budget; the per-epoch cost is what moves.
EPOCHS = 100


def _gen_cli(task: str) -> Callable[[Path, int], int]:
    def gen(out: Path, seed: int) -> int:
        return cli.main(["gen", task, "--out", str(out), "--seed", str(seed)])

    return gen


def _gen_rna_degree2(out: Path, seed: int) -> int:
    # `gen` has no gene-count flag, so build the small-D dataset directly.
    cfg = tasks.RnaKineticsConfig(n_genes=6, n_per_class=40, n_perturbed=2, seed=seed)
    clouds, meta = tasks.gen_rna_kinetics(cfg)
    data.save_dataset(out, "rna-kinetics", clouds, meta)
    return 0


@dataclass(frozen=True)
class Workload:
    name: str
    gen: Callable[[Path, int], int]
    k: int  # form degree of the cached fields
    d: str  # intrinsic dimension: "estimate" or a fixed integer
    auroc_floor: float
    consistency: bool = False

    def laplacian_params(self) -> LaplacianParams:
        """The operator parameters that ``precompute`` resolves for this workload."""
        return LaplacianParams(d=self.d if self.d == "estimate" else int(self.d))


WORKLOADS: dict[str, Workload] = {
    "circles-lines": Workload(
        name="circles-lines",
        gen=_gen_cli("circles-lines"),
        k=1,
        d="estimate",
        auroc_floor=0.99,
        consistency=True,
    ),
    "rna-kinetics": Workload(name="rna-kinetics", gen=_gen_cli("rna-kinetics"), k=1, d="1", auroc_floor=0.85),
    "rna-degree2": Workload(name="rna-degree2", gen=_gen_rna_degree2, k=2, d="1", auroc_floor=0.85),
}


@dataclass
class PassResult:
    """Timings, quantities and check outcomes of one workload pass."""

    times: dict[str, float] = field(default_factory=dict)  # command -> seconds
    values: dict[str, float] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(self.times.values())

    def record(self, op: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{op}: {detail}" if detail else op)


class Dirs:
    def __init__(self, root: Path):
        self.data = root / "data"
        self.feats = root / "feats"
        self.run = root / "run"
        self.consistency = root / "consistency"


def _run_command(name: str, fn: Callable[[], int], res: PassResult, span) -> str:
    """Run one command with captured output; returns its stdout."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with span(f"stage.{name}"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = fn()
        except SystemExit as exc:  # the CLI's usage errors exit through argparse
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a benchmark crash
            rc = f"{type(exc).__name__}: {exc}"
    res.times[name] = time.perf_counter() - t0
    res.record(f"command {name}", rc == 0, f"exit {rc}; {err.getvalue().strip()[-300:]}")
    return out.getvalue()


def run_pass(wl: Workload, seed: int, root: Path, span=None) -> PassResult:
    """One pass of the workload in ``root``; ``span(name)`` wraps each command."""
    span = span or (lambda name: contextlib.nullcontext())
    d = Dirs(root)
    res = PassResult()

    def run(name, fn):
        return _run_command(name, fn, res, span)

    run("gen", lambda: wl.gen(d.data, seed))
    run("precompute", lambda: cli.main(
        ["precompute", "--dataset", str(d.data), "--out", str(d.feats), "--k", str(wl.k), "--d", wl.d]
    ))
    run("train", lambda: cli.main(
        ["train", "--features", str(d.feats), "--out", str(d.run), "--epochs", str(EPOCHS)]
    ))
    eval_out = run("eval", lambda: cli.main(
        ["eval", "--model", str(d.run / "model.ckpt"), "--features", str(d.feats)]
    ))
    if wl.consistency:
        run("consistency", lambda: cli.main([
            "consistency", "--manifold", "circle", "--knn", "full",
            "--sizes", ",".join(map(str, CONSISTENCY_SIZES)),
            "--seeds", str(CONSISTENCY_SEEDS), "--base-seed", str(seed),
            "--out", str(d.consistency),
        ]))
    check_outputs(wl, d, eval_out, res)
    return res


# ---------------------------------------------------------------------------
# output checks


def check_auroc(eval_stdout: str, result_path: Path, floor: float) -> tuple[bool, str, float]:
    """``eval`` agrees with ``result.json`` and clears the task's floor."""
    with open(result_path) as fh:
        recorded = float(json.load(fh)["test_auroc"])
    shown = re.search(r"^AUROC ([0-9.]+) over", eval_stdout, re.M)
    match = re.search(r"match: (True|False)", eval_stdout)
    if shown is None or match is None:
        return False, "eval printed no AUROC", recorded
    if match.group(1) != "True" or shown.group(1) != f"{recorded:.6f}":
        return False, f"eval AUROC {shown.group(1)} != recorded {recorded:.6f}", recorded
    if recorded < floor:
        return False, f"test AUROC {recorded:.4f} below floor {floor}", recorded
    return True, "", recorded


def check_cache_bytes(feats: Path) -> tuple[bool, str, int]:
    """Cache files hold exactly the estimated payload plus one header each."""
    with open(feats / cli.FEATURES_MANIFEST) as fh:
        manifest = json.load(fh)
    dim, k, precision = ambient_dim(Path(manifest["dataset"])), manifest["degree"], manifest["precision"]
    actual = expected = 0
    for rec in manifest["clouds"]:
        path = feats / rec["cache"]
        actual += path.stat().st_size
        expected += data._HEADER.size
        expected += gram.estimate_gram_memory(rec["m"], dim, k, precision=precision)
    if actual != expected:
        return False, f"cache holds {actual} B, expected {expected} B", actual
    return True, "", actual


def ambient_dim(dataset: Path) -> int:
    """Columns of the dataset's first cloud file."""
    with open(dataset / data.MANIFEST_NAME) as fh:
        first = json.load(fh)["clouds"][0]
    return np.loadtxt(dataset / first["path"], delimiter=",", ndmin=2).shape[1]


def consistency_medians(csv_path: Path) -> dict[int, float]:
    """Median over seeds of the per-point degree-1 error, by sample size."""
    by_n: dict[int, list[float]] = {}
    with open(csv_path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            row = dict(zip(header, line.strip().split(",")))
            if row["metric"] == "g1_err_median":
                by_n.setdefault(int(row["n"]), []).append(float(row["value"]))
    return {n: float(np.median(v)) for n, v in sorted(by_n.items())}


def check_consistency(medians: dict[int, float]) -> tuple[bool, str]:
    """Errors strictly decrease with n and the last is at most half the first."""
    errs = [medians[n] for n in sorted(medians)]
    if len(errs) < 2:
        return False, "consistency study produced fewer than two sizes"
    if not all(b < a for a, b in zip(errs, errs[1:])):
        return False, f"errors not strictly decreasing: {errs}"
    if errs[-1] > 0.5 * errs[0]:
        return False, f"final error {errs[-1]:.4f} above half the initial {errs[0]:.4f}"
    return True, ""


def check_outputs(wl: Workload, d: Dirs, eval_stdout: str, res: PassResult) -> None:
    checks = [("auroc", lambda: _auroc(wl, d, eval_stdout, res)), ("cache_bytes", lambda: _cache(d, res))]
    if wl.consistency:
        checks.append(("consistency", lambda: _consistency(d, res)))
    for name, fn in checks:
        try:
            ok, detail = fn()
        except (OSError, ValueError, KeyError) as exc:  # missing or garbled output
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        res.checks[name] = ok
        res.record(f"check {name}", ok, detail)


def _auroc(wl, d, eval_stdout, res):
    ok, detail, value = check_auroc(eval_stdout, d.run / "result.json", wl.auroc_floor)
    res.values["test_auroc"] = value
    return ok, detail


def _cache(d, res):
    ok, detail, n_bytes = check_cache_bytes(d.feats)
    res.values["cache_bytes"] = n_bytes
    return ok, detail


def _consistency(d, res):
    medians = consistency_medians(d.consistency / "consistency.csv")
    res.values["g1_err_initial"] = medians[min(medians)]
    res.values["g1_err_final"] = medians[max(medians)]
    return check_consistency(medians)


def largest_cloud(dataset: Path):
    clouds, _ = data.load_dataset(dataset)
    return max(clouds, key=lambda c: (c.m, c.id))


def mib(n_bytes: float) -> float:
    return n_bytes / 2**20
