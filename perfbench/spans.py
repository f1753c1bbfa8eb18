"""Span recorder that wraps the public functions of each ``hgmm`` layer.

Every wrapped call records a span: name, start, end, parent span and
request id (one id per timed ``anticipate`` or oracle call).  Spans are
kept in flat arrays in memory and written once, at the end of a run.  A
function is wrapped where its caller looks the name up, and the original
is put back when tracing stops, so an untraced pass runs the bare library.

Counts recorded at the same boundaries (rows, mixands, children) give the
per-layer ratios.  Warnings from ``hgmm.engine`` (split depth cap) and
``hgmm.reduction`` (dropped hypotheses) are counted by a logging handler,
which also keeps them off the console.
"""

from __future__ import annotations

import logging
import time
from array import array
from collections import defaultdict

import numpy as np

import hgmm.core
import hgmm.engine
import hgmm.evaluation
import hgmm.models
import hgmm.reduction

# (owner, attribute, span name).  The owner is where the caller looks the
# name up: the engine imports the sigma, linearity, splitting and reduction
# functions into its own namespace, and ``normalize`` into two modules.
MODULE_TARGETS = (
    (hgmm.engine, "step_discrete", "engine.step_discrete"),
    (hgmm.engine, "step_continuous", "engine.step_continuous"),
    (hgmm.engine, "generate_sigma_points", "sigma.generate_sigma_points"),
    (hgmm.engine, "propagate_points", "sigma.propagate_points"),
    (hgmm.engine, "recombine", "sigma.recombine"),
    (hgmm.engine, "assess_linearity", "linearity.assess_linearity"),
    (hgmm.engine, "apply_split", "splitting.apply_split"),
    (hgmm.engine, "reduce_mixture", "reduction.reduce_mixture"),
    (hgmm.engine, "normalize", "core.normalize"),
    (hgmm.reduction, "normalize", "core.normalize"),
    (hgmm.reduction, "merge_cost", "reduction.merge_cost"),
    (hgmm.core.Gaussian, "__post_init__", "core.Gaussian.init"),
    (hgmm.models.Polyline, "project", "models.Polyline.project"),
    (hgmm.evaluation, "sample_particles", "evaluation.sample_particles"),
    (hgmm.evaluation, "propagate_particles", "evaluation.propagate_particles"),
    (hgmm.evaluation, "nll", "evaluation.nll"),
    (hgmm.evaluation, "mixture_pdf_points", "evaluation.mixture_pdf_points"),
)
# Looked up on each model instance (``model.f_c_batch``, ``self.transition_mask``).
MODEL_TARGETS = (
    ("f_c_batch", "models.f_c_batch"),
    ("transition_mask", "models.transition_mask"),
)
# The modules measured as layers; a span belongs to the layer its name starts with.
LAYERS = ("core", "sigma", "models", "engine", "linearity", "splitting", "reduction", "evaluation")
# Root span of each timed call, one per workload kind.
REQUESTS = ("engine.anticipate", "evaluation.oracle")
SPAN_NAMES = tuple(dict.fromkeys(
    [name for _, _, name in MODULE_TARGETS] + [name for _, name in MODEL_TARGETS])) + REQUESTS


class WarningCounter(logging.Handler):
    """Counts depth-cap and dropped-hypothesis warnings instead of printing them."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.depth_capped = 0       # mixands recombined at the split depth cap
        self.dropped = 0            # hypotheses dropped by the reducer

    def emit(self, record):
        if record.name == "hgmm.engine" and "depth cap" in record.msg:
            args = record.args if isinstance(record.args, tuple) else ()
            self.depth_capped += args[1] if len(args) > 1 and isinstance(args[1], int) else 1
        elif record.name == "hgmm.reduction" and "dropping hypothesis" in record.msg:
            self.dropped += 1

    def install(self):
        for name in ("hgmm.engine", "hgmm.reduction"):
            logger = logging.getLogger(name)
            logger.addHandler(self)
            logger.propagate = False


class Tracer:
    """Records spans and boundary counts while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self._stack = [-1]
        self._request = -1
        self.requests = 0
        self.counts = defaultdict(float)
        self.maxima = dict.fromkeys(("engine.mixands_after_fanout.max",
                                     "engine.mixands_after_split.max",
                                     "engine.mixands_after_reduce.max"), 0)
        self.split_requests = set()
        self._saved = []
        for name in SPAN_NAMES:
            self._id(name)

    # -- span recording -------------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id):
        i = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.request.append(self._request)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def run_request(self, name, fn, *args, **kwargs):
        """Run one timed call as a root span with a fresh request id."""
        self._request = self.requests
        self.requests += 1
        i = self.open(self._id(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(i)
            self._request = -1

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        name_id = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            i = tracer.open(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if after is not None:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, self._after.get(name)))

    def install(self, models):
        """Wrap every target; ``models`` are the instances the workload calls."""
        self._after = {
            "engine.step_discrete": self._max_len("engine.mixands_after_fanout.max"),
            "engine.step_continuous": self._max_len("engine.mixands_after_split.max"),
            "reduction.reduce_mixture": self._after_reduce,
            "splitting.apply_split": self._after_apply_split,
            "models.f_c_batch": self._rows(1, "models.f_c_batch.rows"),
            "models.Polyline.project": self._rows(1, "models.Polyline.project.rows"),
        }
        for owner, attr, name in MODULE_TARGETS:
            self._patch(owner, attr, name)
        for model in models:
            for attr, name in MODEL_TARGETS:
                self._saved.append((model, attr, None))
                setattr(model, attr, self._wrap(name, getattr(model, attr), self._after.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            if original is None:
                delattr(owner, attr)        # drop the instance attribute; the class method returns
            else:
                setattr(owner, attr, original)
        self._saved = []

    # -- boundary counts ------------------------------------------------------

    def _rows(self, index, key):
        def after(args, out):
            self.counts[key] += len(args[index])
        return after

    def _max_len(self, key):
        def after(args, out):
            self.maxima[key] = max(self.maxima[key], len(out))
        return after

    def _after_reduce(self, args, out):
        n_in, n_out = len(args[0]), len(out)
        self.counts["reduction.mixands_in"] += n_in
        self.counts["reduction.mixands_out"] += n_out
        self.counts["reduction.noop"] += out is args[0]
        self.counts["reduction.merged_calls"] += n_out < n_in
        self.maxima["engine.mixands_after_reduce.max"] = max(
            self.maxima["engine.mixands_after_reduce.max"], n_out)

    def _after_apply_split(self, args, out):
        self.counts["splitting.children"] += len(out)
        self.split_requests.add(self._request)

    # -- results --------------------------------------------------------------

    def span_arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        return np.frombuffer(self.name_id, dtype=np.uint16), dur, dur - covered

    def layer_metrics(self, dropped_hypotheses: int, depth_capped: int) -> dict:
        """Per-request averages of every span and count.

        Ratios whose base is zero (no reductions, no assessments) read 0.
        """
        names, dur, self_time = self.span_arrays()
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        total_ms = np.bincount(names, weights=dur, minlength=n_names) * 1e3
        self_ms = np.bincount(names, weights=self_time, minlength=n_names) * 1e3
        per = 1.0 / max(self.requests, 1)
        out = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] * per
            out[f"{name}.ms"] = total_ms[i] * per
            out[f"{name}.self_ms"] = self_ms[i] * per
        request_ms = sum(total_ms[self._ids[name]] for name in REQUESTS)
        for layer in LAYERS:
            ms = sum(self_ms[i] for i, name in enumerate(self.names) if name.startswith(layer + "."))
            out[f"layer.{layer}.self_ms"] = ms * per
            out[f"layer.{layer}.self_frac"] = ms / request_ms if request_ms else 0.0
        c = self.counts
        reduce_calls = calls[self._ids["reduction.reduce_mixture"]]
        assess_calls = calls[self._ids["linearity.assess_linearity"]]
        project_calls = calls[self._ids["models.Polyline.project"]]
        merges = c["reduction.mixands_in"] - c["reduction.mixands_out"] - dropped_hypotheses
        out.update({
            "models.f_c_batch.rows": c["models.f_c_batch.rows"] * per,
            "models.Polyline.project.rows": c["models.Polyline.project.rows"] * per,
            "models.Polyline.project.rows_per_call":
                c["models.Polyline.project.rows"] / project_calls if project_calls else 0.0,
            "reduction.mixands_in": c["reduction.mixands_in"] * per,
            "reduction.mixands_out": c["reduction.mixands_out"] * per,
            "reduction.merges": merges * per,
            "reduction.dropped_hypotheses": dropped_hypotheses * per,
            "reduction.noop_frac": c["reduction.noop"] / reduce_calls if reduce_calls else 0.0,
            "reduction.merged_frac":
                c["reduction.merged_calls"] / reduce_calls if reduce_calls else 0.0,
            "splitting.children": c["splitting.children"] * per,
            "splitting.depth_capped": depth_capped * per,
            "splitting.split_call_frac": len(self.split_requests) * per,
            "linearity.split_rate":
                calls[self._ids["splitting.apply_split"]] / assess_calls if assess_calls else 0.0,
            "trace.spans": float(len(dur)),
            "trace.requests": float(self.requests),
        })
        out.update({k: float(v) for k, v in self.maxima.items()})
        return out

    def save(self, path):
        """Write every span once; ``names[name_id]`` gives a span's name."""
        names, dur, self_time = self.span_arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=names,
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
            self_time=self_time,
        )
