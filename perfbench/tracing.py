"""Spans around the calls into each pointforms module, taken from outside.

While a ``Tracer`` is installed, every traced public function of the
package is replaced, in every pointforms module that holds a reference
to it, by a wrapper that records one span: name, start, end and parent
span. Spans stay in memory and are written out when the run ends. A
layer's self time is its span's duration minus the time its child spans
cover, so layer times add up without double counting.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import time
from pathlib import Path

from pointforms import oracle

# (module, attribute, span name); dotted attributes are methods.
TRACED = (
    ("tasks", "gen_circles_lines", "tasks.generate"),
    ("tasks", "gen_rna_kinetics", "tasks.generate"),
    ("data", "save_dataset", "data.save_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "write_gram_cache", "data.write_gram_cache"),
    ("data", "read_gram_cache", "data.read_gram_cache"),
    ("cli", "hash_input", "cli.hash_input"),
    ("graph", "pairwise_sq_dist", "graph.pairwise_sq_dist"),
    ("graph", "knn", "graph.knn"),
    ("laplacian", "estimate_dimension", "laplacian.estimate_dimension"),
    ("laplacian", "estimate_density", "laplacian.estimate_density"),
    ("laplacian", "build_laplacian", "laplacian.build_laplacian"),
    ("gram", "gram_field_1", "gram.gram_field_1"),
    ("gram", "compound_gram_field", "gram.compound_gram_field"),
    ("network", "train", "network.train"),
    ("network", "loss_and_grad", "network.loss_and_grad"),
    ("network", "_loss_only", "network.validate"),
    ("network", "predict_logits", "network.predict_logits"),
    ("network", "evaluate", "network.evaluate"),
    ("network", "FormNetwork.forward_trace", "network.forward"),
    ("oracle", "oracle_gram_1", "oracle.oracle_gram_1"),
    ("oracle", "oracle_global_inner_product", "oracle.global_inner_product"),
)
STAGE_PREFIX = "stage."


class Tracer:
    """In-memory span recorder. A span is ``[name, start, end, parent]``,
    parent being the index of the enclosing span or -1."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if name == "laplacian.build_laplacian":
                self.counts["laplacian.nnz"] = self.counts.get("laplacian.nnz", 0) + out.L.nnz
                self.counts["laplacian.rows"] = self.counts.get("laplacian.rows", 0) + out.m
            return out

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path, facts: dict) -> None:
        """One JSON header line, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "facts": facts, "counts": self.counts}) + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}) + "\n")


def _modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if (n == "pointforms" or n.startswith("pointforms.")) and m]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap in traced wrappers everywhere, and restore the originals on exit."""
    undo: list[tuple[object, str, object]] = []
    mods = _modules()
    try:
        for mod_name, attr, span_name in TRACED:
            owner = sys.modules[f"pointforms.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                undo.append((cls, meth, orig))
                setattr(cls, meth, tracer.wrap(span_name, orig))
                continue
            orig = getattr(owner, attr)
            wrapper = tracer.wrap(span_name, orig)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        # Manifold samplers are closures, reached through the MANIFOLDS table.
        factory = oracle.MANIFOLDS["circle"]

        def traced_circle():
            m = factory()
            return dataclasses.replace(m, sample=tracer.wrap("oracle.sample", m.sample))

        oracle.MANIFOLDS["circle"] = traced_circle
        undo.append((oracle.MANIFOLDS, "circle", factory))
        yield tracer
    finally:
        for owner, key, orig in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)


# ---------------------------------------------------------------------------
# arithmetic over spans


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counts: dict[str, float], epochs: int) -> dict[str, float]:
    """Per-layer figures from one traced pass (times in s, per-epoch in ms)."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for (name, start, end, _), s in zip(spans, selfs):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + s
    forward_in_grad = sum(
        end - start
        for name, start, end, parent in spans
        if name == "network.forward" and parent >= 0 and spans[parent][0] == "network.loss_and_grad"
    )

    def o(name: str) -> float:
        return own.get(name, 0.0)

    per_epoch = 1e3 / epochs
    grad_ms = total.get("network.loss_and_grad", 0.0) * per_epoch
    forward_ms = forward_in_grad * per_epoch
    stage_time = sum(v for k, v in total.items() if k.startswith(STAGE_PREFIX))
    stage_self = sum(v for k, v in own.items() if k.startswith(STAGE_PREFIX))
    rows = counts.get("laplacian.rows", 0)
    return {
        "tasks.generate_s": o("tasks.generate"),
        "data.save_dataset_s": o("data.save_dataset"),
        "data.load_dataset_s": o("data.load_dataset"),
        "data.write_gram_cache_s": o("data.write_gram_cache"),
        "data.read_gram_cache_s": o("data.read_gram_cache"),
        "cli.hash_input_s": o("cli.hash_input"),
        "graph.pairwise_sq_dist_s": o("graph.pairwise_sq_dist"),
        "graph.knn_s": o("graph.knn"),
        "laplacian.estimate_dimension_s": o("laplacian.estimate_dimension"),
        "laplacian.estimate_density_s": o("laplacian.estimate_density"),
        "laplacian.build_laplacian_s": o("laplacian.build_laplacian"),
        "laplacian.nnz_per_row": counts.get("laplacian.nnz", 0) / rows if rows else 0.0,
        "gram.gram_field_1_s": o("gram.gram_field_1"),
        "gram.compound_gram_field_s": o("gram.compound_gram_field"),
        "network.loss_and_grad_ms": grad_ms,
        "network.forward_ms": forward_ms,
        "network.backward_ms": grad_ms - forward_ms,
        "network.val_ms": total.get("network.validate", 0.0) * per_epoch,
        "network.optimizer_ms": o("network.train") * per_epoch,
        "network.evaluate_s": total.get("network.evaluate", 0.0),
        "oracle.oracle_s": o("oracle.oracle_gram_1") + o("oracle.global_inner_product") + o("oracle.sample"),
        "trace.coverage_frac": 1.0 - stage_self / stage_time if stage_time > 0 else 0.0,
    }
