"""Traced run of one splal CLI command, with spans recorded from outside the program.

    python3 perfbench/traced.py SPANS_OUT.npz -- <splal CLI arguments>

Before the command runs, every public module-level function of the layer
modules, and every public PrototypeBank method, is replaced by a wrapper
that records a span (name, start, end, parent span, run id). The wrapper is
rebound under every name that refers to the function in any splal module,
so `from .x import y` call sites, intra-module calls and `module.y`
attribute calls all go through it. numerics kernels run once per vector
pair, so they are only counted, without spans. Spans stay in memory and are
written to SPANS_OUT when the command ends; `layer_metrics` turns the file
into the per-layer metrics. Nothing under src/ is modified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = (
    "cli", "config", "data", "orchestrator", "augment", "loss",
    "model", "prototypes", "selector", "pseudo", "metrics",
)
COUNTED_ONLY = ("numerics",)
PHASES = {
    "orchestrator.warmup_s": "orchestrator.warmup",
    "orchestrator.stage_s": "orchestrator.run_stage",
    "orchestrator.evaluate_s": "orchestrator.evaluate_params",
    "orchestrator.write_s": "orchestrator.write_run_dir",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


def _count_view_pairs(c, args, kwargs, result):
    c["augment.view_pairs"] += len(_arg(args, kwargs, 0, "grids"))


def _count_strong_views(c, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    c["augment.strong_views"] += 1 if np.ndim(x) == 2 else len(x)


def _count_pool(c, args, kwargs, result):
    labeled, unlabeled, _ = result
    c["pool_samples"] += len(labeled) + len(unlabeled)


def _count_forward_rows(c, args, kwargs, result):
    c["model.forward_rows"] += _rows(_arg(args, kwargs, 1, "X"))


def _count_selection(c, args, kwargs, result):
    c["selector.candidates"] += len(_arg(args, kwargs, 0, "features_by_id"))
    c["selector.selected"] += len(result)


def _count_knn_pairs(c, args, kwargs, result):
    c["pseudo.knn_pairs"] += len(_arg(args, kwargs, 3, "labeled_ids"))


def _count_rows_read(c, args, kwargs, result):
    c["data.rows_read"] += len(result[0])


def _count_rows_written(c, args, kwargs, result):
    c["data.rows_written"] += len(_arg(args, kwargs, 0, "samples"))


def _count_pseudo_labels(c, args, kwargs, result):
    # Pseudo-labels that ended the run in the labeled pool, against hidden truth.
    for s in result.state.labeled:
        if s.provenance == "pseudo" and s.true_label is not None:
            c["pseudo.labels"] += 1
            c["pseudo.labels_correct"] += int(np.argmax(s.visible_label)) == s.true_label


HOOKS = {
    "loss.make_views": _count_view_pairs,
    "augment.strong_augment": _count_strong_views,
    "orchestrator.build_pools": _count_pool,
    "model.forward": _count_forward_rows,
    "selector.select_reliable": _count_selection,
    "pseudo.knn_prediction": _count_knn_pairs,
    "data.load_csv": _count_rows_read,
    "data.save_csv": _count_rows_written,
    "orchestrator.run": _count_pseudo_labels,
}


class Recorder:
    """In-memory span table, one row per call, in call order."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.run_id = 0
        self.counts: dict[str, float] = {key: 0 for key in (
            "augment.view_pairs", "augment.strong_views", "pool_samples",
            "model.forward_rows", "selector.candidates", "selector.selected",
            "pseudo.knn_pairs", "data.rows_read", "data.rows_written",
            "pseudo.labels", "pseudo.labels_correct", "numerics.calls",
        )}

    def span_wrapper(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        kind, parent, run, start, end, stack = (
            self.kind, self.parent, self.run, self.start, self.end, self.stack,
        )
        hook = HOOKS.get(name)
        counts = self.counts
        new_run = name == "orchestrator.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if new_run:
                self.run_id += 1
            idx = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return wrapper

    def count_wrapper(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts["numerics.calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            counts=np.array(json.dumps(self.counts)),
            kind=np.frombuffer(self.kind, dtype=np.intc),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            run=np.frombuffer(self.run, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(rec: Recorder) -> None:
    """Wrap the layer functions and rebind every name that refers to them."""
    importlib.import_module("splal.cli")  # imports every layer
    namespaces = [vars(m) for name, m in list(sys.modules.items())
                  if name == "splal" or name.startswith("splal.")]
    for layer in LAYERS + COUNTED_ONLY:
        module = sys.modules[f"splal.{layer}"]
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            wrapped = (rec.count_wrapper(obj) if layer in COUNTED_ONLY
                       else rec.span_wrapper(f"{layer}.{attr}", obj))
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is obj:
                        ns[key] = wrapped
    bank = sys.modules["splal.prototypes"].PrototypeBank
    for attr, obj in list(vars(bank).items()):
        if not attr.startswith("_") and inspect.isfunction(obj):
            setattr(bank, attr, rec.span_wrapper(f"prototypes.PrototypeBank.{attr}", obj))


def layer_metrics(spans_path) -> dict[str, float]:
    """Per-layer self time and calls, phase times, and counts from a span file."""
    with np.load(spans_path) as z:
        names = json.loads(str(z["names"]))
        counts = json.loads(str(z["counts"]))
        kind, parent = z["kind"], z["parent"]
        duration = z["end"] - z["start"]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(kind))
    self_time = duration - child_time
    span_layer = np.array([LAYERS.index(n.split(".")[0]) for n in names])[kind]
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        mine = span_layer == i
        out[f"{layer}.self_s"] = float(self_time[mine].sum())
        out[f"{layer}.calls"] = int(mine.sum())
    name_ids = {n: i for i, n in enumerate(names)}
    for metric, span_name in PHASES.items():
        out[metric] = float(duration[kind == name_ids.get(span_name, -1)].sum())

    def calls(span_name):
        return int((kind == name_ids.get(span_name, -1)).sum())

    def ratio(a, b):
        return a / b if b else 0.0

    forwards = calls("model.forward")
    gate_evals = calls("selector.evaluate_feature")
    out.update({
        "augment.view_pairs": int(counts["augment.view_pairs"]),
        "augment.strong_views_per_sample": ratio(counts["augment.strong_views"], counts["pool_samples"]),
        "model.forward_rows": int(counts["model.forward_rows"]),
        "model.rows_per_forward": ratio(counts["model.forward_rows"], forwards),
        "model.adam_steps": calls("model.adam_step"),
        "prototypes.pushes": calls("prototypes.PrototypeBank.push"),
        "selector.candidates": int(counts["selector.candidates"]),
        "selector.gate_evals": gate_evals,
        "selector.selected": int(counts["selector.selected"]),
        "selector.evals_per_candidate": ratio(gate_evals, counts["selector.candidates"]),
        "pseudo.knn_queries": calls("pseudo.knn_prediction"),
        "pseudo.knn_pairs": int(counts["pseudo.knn_pairs"]),
        "pseudo.label_accuracy": ratio(counts["pseudo.labels_correct"], counts["pseudo.labels"]),
        "data.rows_read": int(counts["data.rows_read"]),
        "data.rows_written": int(counts["data.rows_written"]),
        "numerics.calls": int(counts["numerics.calls"]),
    })
    return out


def main(argv: list[str]) -> int:
    spans_out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_OUT.npz -- <splal CLI arguments>")
    rec = Recorder()
    install(rec)
    cli = sys.modules["splal.cli"]
    try:
        return cli.main(cli_args)
    finally:
        rec.save(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
