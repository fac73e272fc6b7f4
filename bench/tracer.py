"""Outside-in tracer for the pluralbench layers.

The tracer wraps public functions where each caller module looks them up
(``pluralbench.harness.nn_decide_batch``, ``pluralbench.hybrid.gcm_decide_batch``,
``pluralbench.cli.save_nn``, ...), so nothing under ``src/`` changes.  Each
call records one span (id, parent id, name, start, end) in memory; work
counts are computed from the call's arguments.  A target that a module no
longer defines is skipped, not treated as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

MODULES = (
    "pluralbench", "pluralbench.phonology", "pluralbench.dataset",
    "pluralbench.classifiers", "pluralbench.hybrid", "pluralbench.synthetic",
    "pluralbench.serialize", "pluralbench.harness", "pluralbench.cli",
)

# layer -> public functions traced in that layer
TARGETS = {
    "phonology": ("default_feature_table", "derive_plural_class", "encode_word"),
    "dataset": ("ingest", "filter_by_type_frequency", "remove_compounds", "split",
                "encode_entries"),
    "classifiers": ("nn_decide_batch", "nn_leave_one_out", "gcm_decide_batch",
                    "gcm_optimize_scale", "ExemplarMemory.from_encoded",
                    "mlp_grid_sweep", "mlp_train", "mlp_decide_batch"),
    "hybrid": ("threshold_sweep", "grid_search_s_t", "hybrid_decide_batch"),
    "synthetic": ("generate_language", "compare_simple_vs_hybrid", "regular_taxonomy"),
    "serialize": ("save_nn", "save_gcm", "save_mlp", "load_model"),
    "harness": ("run_experiment",),
    "cli": ("main",),
}

ROOT = "op"


def _distance(prefix, memory, n_queries, counts):
    pairs = len(memory) * n_queries
    counts[prefix + ".pairs"] += pairs
    counts["classifiers.distance.gflop_computed"] += 2.0 * pairs * memory.dim / 1e9


def _count_nn_decide_batch(a, result, counts):
    _distance("classifiers.nn_decide_batch", a["memory"], len(a["queries"]), counts)


def _count_gcm_decide_batch(a, result, counts):
    _distance("classifiers.gcm_decide_batch", a["memory"], len(a["queries"]), counts)


def _count_nn_leave_one_out(a, result, counts):
    n = len(a["nouns"])
    counts["classifiers.nn_leave_one_out.pairs"] += n * n
    dim = len(a["nouns"][0].vector)
    counts["classifiers.distance.gflop_computed"] += 2.0 * n * n * dim / 1e9


def _count_mlp_grid_sweep(a, result, counts):
    counts["classifiers.mlp_grid_sweep.updates"] += (
        len(a["train"]) * len(set(a["hidden_grid"])) * len(a["seeds"]) * max(a["epoch_grid"])
    )


def _count_mlp_train(a, result, counts):
    counts["classifiers.mlp_train.updates"] += len(a["train"]) * a["epochs"]


def _count_threshold_sweep(a, result, counts):
    counts["hybrid.threshold_sweep.points"] += len(a["test_set"]) * len(a["t_grid"])


def _count_grid_search_s_t(a, result, counts):
    counts["hybrid.grid_search_s_t.points"] += (
        len(a["test_set"]) * len(a["s_grid"]) * len(a["t_grid"])
    )


def _count_regular_taxonomy(a, result, counts):
    labels = a["sample"].labels
    n_reg = int((labels == a["sample"].spec.default_class_index).sum())
    n_irr = len(labels) - n_reg
    pairs = n_irr * n_reg + (n_irr * n_irr if a.get("radius") is None else 0)
    counts["synthetic.regular_taxonomy.pairs"] += pairs
    counts["classifiers.distance.gflop_computed"] += 2.0 * pairs * 2 / 1e9


def _count_save(a, result, counts):
    counts["serialize.bytes_written"] += os.path.getsize(a["path"])


def _count_load_model(a, result, counts):
    counts["serialize.bytes_read"] += os.path.getsize(a["path"])


COUNTERS = {
    "classifiers.nn_decide_batch": _count_nn_decide_batch,
    "classifiers.gcm_decide_batch": _count_gcm_decide_batch,
    "classifiers.nn_leave_one_out": _count_nn_leave_one_out,
    "classifiers.mlp_grid_sweep": _count_mlp_grid_sweep,
    "classifiers.mlp_train": _count_mlp_train,
    "hybrid.threshold_sweep": _count_threshold_sweep,
    "hybrid.grid_search_s_t": _count_grid_search_s_t,
    "synthetic.regular_taxonomy": _count_regular_taxonomy,
    "serialize.save_nn": _count_save,
    "serialize.save_gcm": _count_save,
    "serialize.save_mlp": _count_save,
    "serialize.load_model": _count_load_model,
}


def _module(name):
    try:
        return importlib.import_module(name)
    except ModuleNotFoundError:
        return None


class Tracer:
    """Spans and counts of one traced operation, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0

    def _open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, end):
        self._stack.pop()
        self.spans.append((sid, parent, name, start, end))

    @contextmanager
    def root(self):
        sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, ROOT, start, time.perf_counter())

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, start, time.perf_counter())
            if counter is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    counter(bound.arguments, result, self.counts)
                except (KeyError, TypeError, AttributeError, OSError):
                    # a changed signature loses the count, not the operation
                    self.counts["trace.count_errors"] += 1
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced target in every caller module; undo on exit."""
        modules = [m for m in map(_module, MODULES) if m is not None]
        undo = []
        try:
            for layer, names in TARGETS.items():
                home = _module(f"pluralbench.{layer}")
                for name in names if home is not None else ():
                    if "." in name:
                        undo.extend(self._patch_method(layer, home, name))
                        continue
                    original = getattr(home, name, None)
                    if original is None:
                        continue
                    wrapped = self.wrap(f"{layer}.{name}", original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                undo.append((mod, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _patch_method(self, layer, home, name):
        cls_name, meth = name.split(".")
        cls = getattr(home, cls_name, None)
        raw = None if cls is None else vars(cls).get(meth)
        if not isinstance(raw, classmethod):
            return []
        setattr(cls, meth, classmethod(self.wrap(f"{layer}.{name}", raw.__func__)))
        return [(cls, meth, raw)]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds and call count."""
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, start, end in self.spans:
            child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, _parent, name, start, end in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - child_time[sid]
            row["calls"] += 1
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, in the order they closed."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                ) + "\n")
