"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload circles-lines --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it makes one untraced pass for
reference, one traced pass, and a separate tracemalloc pass, and reports
the per-layer metrics. Work files go to a ``.bench_work-*`` directory of
the checkout and are removed at exit; spans of a traced run are written to
``.bench_out/``. The run reads and writes nothing outside the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Interpreter starts timed for setup_s, before and after the passes, so
# that their median spans the whole run and not one moment of the host.
SETUP_BEFORE, SETUP_AFTER = 5, 4
# One BLAS thread, within the nproc cap: with two, the tiny per-cloud
# products of training ran up to 35% slower and varied run to run.
BLAS_THREADS = 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup() -> float:
    """Seconds from interpreter start until ``pointforms`` is imported."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import pointforms"], env=_child_env(), check=True)
    return time.perf_counter() - t0


def machine_facts(threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # source checkouts without git metadata
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "commit": commit,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def untraced(wl, seed: int, seconds: float, work: Path):
    """Set-up starts around whole passes, repeated while another pass and
    the closing starts fit in ``seconds``; there is always one pass."""
    from workloads import run_pass

    t0 = time.perf_counter()
    setup = [measure_setup() for _ in range(SETUP_BEFORE)]
    passes = []
    t_passes = time.perf_counter()
    while True:
        pass_dir = work / f"pass{len(passes)}"
        passes.append(run_pass(wl, seed, pass_dir))
        shutil.rmtree(pass_dir, ignore_errors=True)
        now = time.perf_counter()
        per_pass = (now - t_passes) / len(passes)
        if now - t0 + per_pass + SETUP_AFTER * statistics.mean(setup) > seconds:
            break
    setup += [measure_setup() for _ in range(SETUP_AFTER)]
    return passes, setup


def end_to_end(passes, setup: list[float]) -> dict[str, float]:
    from workloads import mib

    def med(get):
        return statistics.median(get(p) for p in passes)

    return {
        "setup_s": statistics.median(setup),
        "wall_s": med(lambda p: p.wall_s),
        "peak_rss_mib": peak_rss_mib(),
        # a value a failed check could not read counts as 0; the run is then incorrect
        "cache_mib": med(lambda p: mib(p.values.get("cache_bytes", 0))),
        "test_auroc": med(lambda p: p.values.get("test_auroc", 0.0)),
    }


def memory_probe(wl, dataset: Path, seed: int) -> dict[str, float]:
    """tracemalloc peaks of the workload's largest operator and field builds.

    Kept out of the timed passes so the allocation hooks inflate no timing.
    """
    import tracemalloc

    import numpy as np
    from pointforms import gram, laplacian, oracle

    from workloads import CONSISTENCY_SIZES, largest_cloud, mib

    cloud = largest_cloud(dataset)
    inputs = [(cloud.points, wl.laplacian_params())]
    if wl.consistency:
        n = max(CONSISTENCY_SIZES)
        pts, _ = oracle.MANIFOLDS["circle"]().sample(n, np.random.default_rng([seed, n, 0]))
        inputs.append((pts, laplacian.LaplacianParams(knn="full", d=1)))

    def peak_of(fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    k = wl.k
    build_peak = compound_peak = field = 0
    for pts, params in inputs:
        op, peak = peak_of(laplacian.build_laplacian, pts, params)
        build_peak = max(build_peak, peak)
        g = gram.gram_field_1(op, pts)
        if k > 1:
            g, peak = peak_of(gram.compound_gram_field, g, k)
            compound_peak = max(compound_peak, peak)
        field = max(field, g.values.nbytes)
    return {
        "laplacian.build_peak_mib": mib(build_peak),
        "gram.compound_peak_mib": mib(compound_peak),
        "gram.field_mib": mib(field),
    }


def traced(wl, seed: int, work: Path, facts: dict):
    """Untraced reference pass, traced pass, then the tracemalloc pass."""
    import tracing
    import workloads

    base = workloads.run_pass(wl, seed, work / "untraced")
    shutil.rmtree(work / "untraced", ignore_errors=True)
    tracer = tracing.Tracer(run_id=f"{wl.name}-seed{seed}-pid{os.getpid()}")
    with tracing.installed(tracer):
        res = workloads.run_pass(wl, seed, work / "traced", span=tracer.span)
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts, workloads.EPOCHS)
    # Command times come from the untraced pass; they swing too much on a
    # shared machine to bound as end-to-end metrics (see README).
    metrics.update({f"{c}_s": base.times.get(c, 0.0) for c in ("gen", "precompute", "train")})
    metrics["data.cache_bytes"] = float(res.values.get("cache_bytes", 0))
    metrics["trace.overhead_frac"] = res.wall_s / base.wall_s - 1.0
    metrics.update(memory_probe(wl, work / "traced" / "data", seed))
    tracer.write(ROOT / ".bench_out" / f"spans-{wl.name}-seed{seed}.jsonl", facts)
    return [base, res], metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "pointforms" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))

    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    facts = machine_facts(threads)
    print("facts " + json.dumps(facts, sort_keys=True), flush=True)

    work = Path(tempfile.mkdtemp(prefix=f".bench_work-{wl.name}-", dir=ROOT))
    setup = []
    try:
        if args.trace:
            passes, values = traced(wl, args.seed, work, facts)
            declared = spec["per_layer"]
        else:
            passes, setup = untraced(wl, args.seed, args.seconds, work)
            values = end_to_end(passes, setup)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = [m["name"] for m in declared]
    if set(values) != set(names):
        print(f"error: measured {sorted(values)} but BENCHMARK.json declares {sorted(names)}", file=sys.stderr)
        return 2
    for p in passes:
        for err in p.errors:
            print(f"FAILED {err}", file=sys.stderr)
        print(f"pass: {json.dumps({**p.times, **p.values, 'checks': p.checks}, sort_keys=True)}")
    attempted = len(setup) + sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
