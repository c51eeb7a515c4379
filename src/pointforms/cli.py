"""Command-line entry point.

Subcommands: gen, precompute, train, eval, consistency, density-check,
mem. Every command that writes a directory drops a ``config.json`` echo
holding the resolved arguments and the sha256 of each input's manifest,
which records the sha256 of each file it names; no output embeds
timestamps, so a rerun with the same arguments is byte-identical. Exit
codes: 0 success, otherwise the ``exit_code`` of the raised error class
(1 configuration or usage, 2 data or format, 3 numeric).
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from collections.abc import Collection
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import tasks
from .data import (
    _HEADER,
    MANIFEST_NAME,
    MANIFESTS,
    MEASURES,
    PRECISIONS,
    fork_map,
    load_dataset,
    measure_weights,
    read_gram_cache,
    read_manifest,
    save_dataset,
    write_gram_cache,
    write_json,
)
from .errors import (
    CacheFormatError,
    ConfigurationError,
    IngestionError,
    MissingCacheError,
    PointFormsError,
    UndefinedMetricError,
)
from .gram import check_computable_degree, compound_gram_field, estimate_gram_memory, format_bytes, gram_field_1
from .laplacian import BANDWIDTH_SCALES, KNN_WORDS, LaplacianParams, build_laplacian
from .network import (
    READOUTS,
    CloudSample,
    TrainConfig,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
    split_samples,
)
from .oracle import MANIFOLDS, aggregate_metric, convergence_study, density_check

FEATURES_MANIFEST = "features.json"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def hash_input(path: str | Path) -> str:
    """The sha256 of a file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_config_echo(out_dir: Path, command: str, args_dict: dict, inputs: dict[str, str]) -> None:
    write_json(out_dir / "config.json", {"command": command, "args": args_dict, "inputs": inputs})


def _list_of(kind: type):
    """Argparse type for a comma-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(tok) for tok in text.split(",") if tok.strip())
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a comma-separated {kind.__name__} list, got {text!r}") from None

    return parse


def _int_or_word(text: str) -> int | str:
    """Argparse type: integer text becomes an int, any other word passes through."""
    try:
        return int(text)
    except ValueError:
        return text


def _from_args(cls, args, **fixed):
    """The dataclass ``cls`` built from ``fixed`` and, for every other field, the parsed flag whose dest is its name."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if f.name not in fixed}, **fixed)


def _write_study(out: str | None, command: str, keys: list[str], rows: list[dict], echo: dict) -> None:
    """Write a study's rows as ``<command>.csv`` (``-`` read as ``_``) and its config echo under ``out``."""
    if not out:
        return
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / f"{command.replace('-', '_')}.csv", "w") as fh:
        fh.write(",".join(keys) + "\n")
        for row in rows:
            fh.write(",".join(str(row[k]) for k in keys) + "\n")
    _write_config_echo(out, command, echo, {})


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen(args) -> int:
    out = Path(args.out)
    config_cls, generate = tasks.TASKS[args.task]
    if args.control and "control" not in {f.name for f in fields(config_cls)}:
        raise ConfigurationError(f"task {args.task} has no control variant")
    options = {"control": True} if args.control else {}
    clouds, meta = generate(config_cls(seed=args.seed, **options))
    save_dataset(out, args.task, clouds, meta)
    _write_config_echo(out, "gen", {"task": args.task, "seed": args.seed, "control": args.control}, {})
    print(f"wrote {len(clouds)} clouds to {out}")
    return 0


def cmd_precompute(args) -> int:
    dataset_dir = Path(args.dataset)
    out = Path(args.out)
    params = _from_args(LaplacianParams, args)
    clouds, _ = load_dataset(dataset_dir)
    if not clouds:
        raise IngestionError(f"dataset {dataset_dir} holds no clouds")
    dim = clouds[0].dim
    check_computable_degree(dim, args.k)
    out.mkdir(parents=True, exist_ok=True)

    def cache(cloud):
        """Write one cloud's cache; its record, or the error it raised."""
        try:
            op = build_laplacian(cloud.points, params, pilot=args.measure == "density_corrected")
            g1 = gram_field_1(op, cloud.points)
            gram = compound_gram_field(g1, args.k)
            cache_rel = f"{cloud.id}.gram.bin"
            digest, size = write_gram_cache(out / cache_rel, gram, precision=args.precision)
            mu = measure_weights(cloud, args.measure, density=op.density.q0)
        except PointFormsError as exc:
            return exc
        # JSON floats round-trip exactly, so the record holds the measure itself
        return {"id": cloud.id, "cache": cache_rel, "sha256": digest, "bytes": size, "mu": mu.tolist(), "m": cloud.m}

    records = []
    failures = []
    for cloud, done in zip(clouds, fork_map(cache, clouds, lambda c: c.m**2)):
        if isinstance(done, PointFormsError):
            print(f"cloud {cloud.id}: {done}", file=sys.stderr)
            failures.append(done)
        else:
            records.append(done)
    if not records:
        raise failures[0]
    total_bytes = sum(rec["bytes"] for rec in records)
    dataset_hash = hash_input(dataset_dir / MANIFEST_NAME)
    manifest = {
        "format": "pointforms-features",
        "version": MANIFESTS["pointforms-features"][0],
        # a relative path is stored relative to the features, so they load from any working directory
        "dataset": str(dataset_dir) if dataset_dir.is_absolute() else os.path.relpath(dataset_dir, out),
        "dataset_sha256": dataset_hash,
        "degree": args.k,
        "precision": args.precision,
        "measure": args.measure,
        "params": asdict(params),
        "clouds": records,
    }
    write_json(out / FEATURES_MANIFEST, manifest)
    _write_config_echo(
        out,
        "precompute",
        {
            "dataset": str(dataset_dir),
            "k": args.k,
            "precision": args.precision,
            "measure": args.measure,
            "params": asdict(params),
        },
        {str(dataset_dir): dataset_hash},
    )
    estimate = estimate_gram_memory(sum(rec["m"] for rec in records), dim, args.k, precision=args.precision)
    print(
        f"cached {len(records)} gram fields (degree {args.k}, {args.precision}): "
        f"payload {format_bytes(total_bytes - len(records) * _HEADER.size)}, estimate {format_bytes(estimate)}, "
        f"{total_bytes} B on disk with headers"
    )
    if failures:
        print(f"{len(failures)} cloud(s) failed; caches for the rest were kept", file=sys.stderr)
        raise failures[0]
    return 0


def _open_features(features_dir: Path, ids: Collection[str] | None = None) -> tuple[list[CloudSample], dict]:
    """A sample per cloud named in ``ids`` (all when None), in record order, its field not read yet (None), and the
    manifest. The dataset's manifest must have its recorded sha256 and every cache named its recorded size."""
    manifest_path = features_dir / FEATURES_MANIFEST
    keys = ("dataset", "dataset_sha256", "degree", "measure")
    manifest = read_manifest(manifest_path, "pointforms-features", keys, CacheFormatError)
    dataset_dir = features_dir / manifest["dataset"]
    clouds, _ = load_dataset(dataset_dir, ids)
    if (digest := hash_input(dataset_dir / MANIFEST_NAME)) != manifest["dataset_sha256"]:
        raise CacheFormatError(
            f"{dataset_dir / MANIFEST_NAME} has sha256 {digest}, the features were computed from "
            f"{manifest['dataset_sha256']}; rerun 'pointforms precompute'"
        )
    by_id = {c.id: c for c in clouds}
    samples = []
    for rec in manifest["clouds"]:
        cache_path = features_dir / rec["cache"]
        if not cache_path.is_file():
            raise MissingCacheError(f"cloud {rec['id']}: missing {cache_path}; rerun 'pointforms precompute'")
        if (size := cache_path.stat().st_size) != rec.get("bytes"):
            raise CacheFormatError(f"{cache_path}: {size} bytes, the features record {rec.get('bytes')}")
        if ids is not None and rec["id"] not in ids:
            continue
        cloud = by_id.get(rec["id"])
        if cloud is None:
            raise MissingCacheError(f"cloud {rec['id']} missing from dataset {dataset_dir}")
        samples.append(CloudSample(cloud_id=cloud.id, points=cloud.points, gram=None, label=cloud.label))
    return samples, manifest


def _read_fields(features_dir: Path, manifest: dict, unread: list[CloudSample]) -> list[CloudSample]:
    """The samples with their fields read, each cache checked against its sha256; the one place the measure is
    applied, slice p weighted by mu_p."""
    records = {rec["id"]: rec for rec in manifest["clouds"]}
    samples = []
    for s in unread:
        rec = records[s.cloud_id]
        cache_path = features_dir / rec["cache"]
        gram = read_gram_cache(cache_path, rec["sha256"])
        m, dim = s.points.shape
        if gram.m != m:
            raise CacheFormatError(f"cloud {rec['id']}: gram field covers {gram.m} points, the cloud has {m}")
        if gram.D != dim:
            raise CacheFormatError(
                f"cloud {rec['id']}: gram field is for ambient dimension {gram.D}, the cloud has {dim}"
            )
        if gram.k != manifest["degree"]:
            raise CacheFormatError(
                f"cloud {rec['id']}: gram field has degree {gram.k}, the manifest says {manifest['degree']}"
            )
        mu = rec.get("mu")
        positive = isinstance(mu, list) and all(type(w) is float and 0.0 < w < np.inf for w in mu)
        if not positive or len(mu) != gram.m:
            raise CacheFormatError(f"cloud {rec['id']}: measure must be a list of {gram.m} positive finite weights")
        gram.values *= np.array(mu, dtype=gram.values.dtype)[:, None, None]
        samples.append(CloudSample(cloud_id=s.cloud_id, points=s.points, gram=gram, label=s.label))
    return samples


def cmd_train(args) -> int:
    started = time.perf_counter()
    features_dir = Path(args.features)
    out = Path(args.out)
    config = _from_args(TrainConfig, args)
    unread, feat_manifest = _open_features(features_dir)
    indices = split_samples(unread, split_seed=config.split_seed)
    parts = {k: [unread[i] for i in v] for k, v in indices.items()}
    fit_sets = [_read_fields(features_dir, feat_manifest, parts[k]) for k in ("train", "val")]
    read_s = {"fit": time.perf_counter() - started}
    fields_bytes = {"fit": sum(s.gram.values.nbytes for part in fit_sets for s in part)}
    model, history, timings = fit(*fit_sets, config)
    del fit_sets  # the last reference to every train and val field: each is released before a test field is read
    tick = time.perf_counter()
    test_set = _read_fields(features_dir, feat_manifest, parts["test"])
    read_s["test"] = time.perf_counter() - tick
    fields_bytes["test"] = sum(s.gram.values.nbytes for s in test_set)
    test_auroc = evaluate(model, test_set)
    timings.update(total_s=time.perf_counter() - started, read_s=read_s, fields_bytes=fields_bytes)
    splits = {k: [s.cloud_id for s in v] for k, v in parts.items()}
    out.mkdir(parents=True, exist_ok=True)
    feat_hash = hash_input(features_dir / FEATURES_MANIFEST)
    meta = {
        "train_config": asdict(config),
        "test_auroc": test_auroc,
        "splits": splits,
        "features": str(features_dir),
        "features_sha256": feat_hash,
        "degree": feat_manifest["degree"],
    }
    save_checkpoint(out / "model.ckpt", model, meta)
    with open(out / "history.csv", "w") as fh:
        fh.write("epoch,train_loss,val_loss,grad_norm\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']!r},{row.get('val_loss', float('nan'))!r},{row['grad_norm']!r}\n")
    write_json(
        out / "result.json",
        {
            "test_auroc": test_auroc,
            "param_count": model.param_count,
            "split_sizes": {k: len(v) for k, v in splits.items()},
        },
    )
    # seconds vary run to run, so they stay out of config.json and every other output
    write_json(out / "timings.json", timings)
    _write_config_echo(
        out,
        "train",
        {**asdict(config), "features": str(features_dir)},
        {str(features_dir): feat_hash},
    )
    print(f"trained {model.param_count} parameters for {config.epochs} epochs: test AUROC {test_auroc:.6f}")
    return 0


def cmd_eval(args) -> int:
    model, meta = load_checkpoint(args.model)
    # only the recorded test clouds are read; a checkpoint without a test split scores them all
    test_ids = set(meta.get("splits", {}).get("test", [])) if args.split == "test" else set()
    unread, manifest = _open_features(Path(args.features), test_ids or None)
    samples = _read_fields(Path(args.features), manifest, unread)
    trained = (meta.get("degree"), model.input_dim, model.n_coeffs)
    for s in samples:
        found = (s.gram.k, s.points.shape[1], s.gram.B)
        if found != trained:
            raise CacheFormatError(f"checkpoint expects (degree, input dim, B) {trained}, cloud {s.cloud_id} has {found}")
    digest = hash_input(Path(args.features) / FEATURES_MANIFEST)
    if digest != meta.get("features_sha256", digest):
        raise CacheFormatError(f"{FEATURES_MANIFEST} has sha256 {digest}, the checkpoint records {meta['features_sha256']}")
    if any(s.label is None for s in samples):
        raise UndefinedMetricError("evaluation requires labeled clouds")
    score = evaluate(model, samples)
    print(f"AUROC {score:.6f} over {len(samples)} clouds ({args.split} split)")
    recorded = meta.get("test_auroc")
    if args.split == "test" and recorded is not None:
        print(f"recorded test AUROC {recorded:.6f}; match: {np.isclose(score, recorded, atol=0.0)}")
    return 0


def cmd_consistency(args) -> int:
    manifold = MANIFOLDS[args.manifold]()
    # the study always runs the full kernel at the manifold's intrinsic dimension
    params = _from_args(LaplacianParams, args, knn="full", d=manifold.intrinsic_dim)
    rows = convergence_study(
        manifold,
        args.sizes,
        params=params,
        n_seeds=args.seeds,
        k=args.k,
        theta=args.theta,
        base_seed=args.base_seed,
    )
    med = aggregate_metric(rows, f"g{args.k}_err_median")
    ordered = [med[n] for n in sorted(med)]
    print(f"{args.manifold}: median gram error by size (degree {args.k})")
    for n in sorted(med):
        print(f"  n={n:>6d}  err={med[n]:.6f}")
    if len(ordered) < 2:
        print("no verdict: monotone decrease and the final/initial ratio need two or more distinct sizes")
    else:
        decreasing = all(b < a for a, b in zip(ordered, ordered[1:]))
        ratio = ordered[-1] / ordered[0] if ordered[0] > 0 else float("inf")
        print(f"monotone decrease: {'PASS' if decreasing else 'FAIL'}")
        print(f"final/initial ratio {ratio:.4f} <= 0.5: {'PASS' if ratio <= 0.5 else 'FAIL'}")
    _write_study(
        args.out,
        "consistency",
        ["manifold", "n", "epsilon", "alpha", "beta", "seed", "metric", "value"],
        rows,
        {
            "manifold": args.manifold,
            "sizes": args.sizes,
            "seeds": args.seeds,
            "degree": args.k,
            "theta": args.theta,
            "base_seed": args.base_seed,
            "params": asdict(params),
        },
    )
    return 0


def cmd_density_check(args) -> int:
    rows, summaries = density_check(args.kappas, n=args.n, n_seeds=args.seeds, base_seed=args.base_seed)
    print("kappa    uncorrected    corrected    verdict")
    for s in summaries:
        if s["kappa"] == 0.0:
            # Uniform density: both weightings coincide, so expect agreement.
            ok = np.isclose(s["mae_corrected"], s["mae_uncorrected"], rtol=0.05)
        else:
            ok = s["mae_corrected"] < s["mae_uncorrected"]
        verdict = "PASS" if ok else "FAIL"
        print(f"{s['kappa']:<8g} {s['mae_uncorrected']:<14.6f} {s['mae_corrected']:<12.6f} {verdict}")
    _write_study(
        args.out,
        "density-check",
        sorted(rows[0]),
        rows,
        {"kappas": args.kappas, "n": args.n, "seeds": args.seeds, "base_seed": args.base_seed},
    )
    return 0


def cmd_mem(args) -> int:
    n_bytes = estimate_gram_memory(args.points, args.ambient_dim, args.k, precision=args.precision)
    print(
        f"degree-{args.k} gram field for {args.points} points in R^{args.ambient_dim} "
        f"({args.precision}): {format_bytes(n_bytes)}"
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_laplacian_args(p: argparse.ArgumentParser) -> None:
    defaults = LaplacianParams()
    p.add_argument("--epsilon", type=float, default=defaults.epsilon, help="kernel time scale")
    p.add_argument("--alpha", type=float, default=defaults.alpha, help="density normalization exponent")
    p.add_argument("--beta", type=float, default=defaults.beta, help="bandwidth density exponent")
    p.add_argument("--k0", type=int, default=defaults.k0, help="neighbor count for the pilot density")
    p.add_argument(
        "--knn", type=_int_or_word, default=defaults.knn, help=f"kernel truncation: a count or one of {KNN_WORDS}"
    )
    p.add_argument(
        "--bandwidth-scale",
        choices=BANDWIDTH_SCALES,
        default=defaults.bandwidth_scale,
        help="auto-calibrated bandwidth prefactor or the raw density power",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pointforms", description="Diffusion-geometry form features for point clouds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("task", choices=tasks.TASKS)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--control", action="store_true", help="rna-kinetics: identical classes for a null check")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("precompute", help="build and cache gram fields for a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=1, help="form degree")
    p.add_argument("--precision", choices=PRECISIONS, default="fp32")
    p.add_argument("--measure", choices=MEASURES, default="uniform")
    _add_laplacian_args(p)
    p.add_argument(
        "--d", type=_int_or_word, default=LaplacianParams.d, help=f"intrinsic dimension: int or {LaplacianParams.d!r}"
    )
    p.set_defaults(func=cmd_precompute)

    p = sub.add_parser("train", help="train the form classifier on cached features")
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    defaults = TrainConfig()
    p.add_argument("--n-forms", type=int, default=defaults.n_forms)
    p.add_argument("--hidden", type=_list_of(int), default=defaults.hidden)
    p.add_argument("--readout", default=defaults.readout, choices=READOUTS)
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=defaults.learning_rate)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--split-seed", type=int, default=defaults.split_seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on cached features")
    p.add_argument("--model", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split", choices=("test", "all"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "consistency",
        help="estimator error versus sample size on analytic manifolds; "
        "the study runs the full kernel whatever --knn says, at the manifold's intrinsic dimension",
    )
    p.add_argument("--manifold", required=True, choices=MANIFOLDS)
    p.add_argument("--sizes", type=_list_of(int), default="250,500,1000,2000")
    p.add_argument("--seeds", type=int, default=5)
    p.add_argument("--k", type=int, default=1, help="form degree")
    p.add_argument("--theta", type=float, default=None, help="bandwidth decay exponent override")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_laplacian_args(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("density-check", help="density-corrected versus uniform inner products")
    p.add_argument("--kappas", type=_list_of(float), default="2,4,8")
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_density_check)

    p = sub.add_parser("mem", help="estimate gram cache size")
    p.add_argument("points", type=int, help="points per cloud (m)")
    p.add_argument("ambient_dim", type=int, help="ambient dimension (D)")
    p.add_argument("k", type=int, help="form degree")
    p.add_argument("--precision", choices=PRECISIONS, default="fp32")
    p.set_defaults(func=cmd_mem)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PointFormsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
