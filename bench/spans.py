"""Span tracing of swipebench's layers, done from outside the package.

The tracer replaces public functions of each layer with wrappers that
record one span per call: name, start, end and parent span. A function
is wrapped under every name its callers look it up by, because
``protocol`` and ``experiments`` bind some of them at import time.
Classifiers are wrapped per model class, so every kind gets its own
spans, ensemble members included.

Spans stay in memory until the run ends. A layer's time is the self
time of its spans: their duration minus the time their child spans
cover, so the layer times of one round add up to at most its wall time.
"""

from __future__ import annotations

import functools
import random
import time

from swipebench import (experiments, ingest, protocol, selection, synthetic,
                        touchdata)
from swipebench.classifiers import KINDS
from swipebench.classifiers.base import TrainedModel, model_class
from swipebench.features import extract

# Per-layer metrics in report order: (metric name, unit). Times are self
# times; every value is per set-up plus per round (see Tracer.metrics).
LAYER_METRICS: list[tuple[str, str]] = [
    ("synthetic.generate_s", "s"),
    ("ingest.parse_s", "s"),
    ("ingest.events", "count"),
    ("touchdata.assemble_s", "s"),
    ("touchdata.filter_s", "s"),
    ("features.extract_s", "s"),
    ("features.swipes", "count"),
    ("features.ms_per_swipe", "ms"),
    ("features.export_s", "s"),
    ("selection.select_s", "s"),
]
for _kind in KINDS:
    LAYER_METRICS += [(f"classifiers.{_kind}.train_s", "s"),
                      (f"classifiers.{_kind}.score_s", "s"),
                      (f"classifiers.{_kind}.train_calls", "count")]
LAYER_METRICS += [
    ("stacking.train_s", "s"),
    ("stacking.score_s", "s"),
    ("stacking.train_calls", "count"),
    ("aggregation.window_s", "s"),
    ("aggregation.window_calls", "count"),
    ("aggregation.reduce_s", "s"),
    ("aggregation.reduce_calls", "count"),
    ("aggregation.concat_s", "s"),
    ("protocol.self_s", "s"),
    ("protocol.sample_s", "s"),
    ("protocol.evals", "count"),
    ("metrics.eer_s", "s"),
    ("metrics.eer_calls", "count"),
    ("experiments.self_s", "s"),
    ("experiments.write_s", "s"),
    ("trace.overhead_s", "s"),
]

# (owner, attribute, span name) for plain functions. One span name is
# one layer time: "ingest.parse" feeds ingest.parse_s, and so on.
_FUNCTIONS = [
    (synthetic, "generate_synthetic", "synthetic.generate"),
    (experiments, "generate_synthetic", "synthetic.generate"),
    (ingest, "load_canonical", "ingest.parse"),
    (experiments, "load_canonical", "ingest.parse"),
    (ingest, "parse_canonical", "ingest.parse"),
    (ingest, "convert_raw", "ingest.parse"),
    (ingest, "assemble_dataset", "touchdata.assemble"),
    (touchdata, "assemble_dataset", "touchdata.assemble"),
    (touchdata, "filter_eligible", "touchdata.filter"),
    (experiments, "filter_eligible", "touchdata.filter"),
    (extract, "build_feature_table", "features.extract"),
    (experiments, "build_feature_table", "features.extract"),
    (extract, "export_table_csv", "features.export"),
    (selection, "select_features", "selection.select"),
    (protocol, "train_stacker", "stacking.train"),
    (protocol, "stack_score", "stacking.score"),
    (protocol, "window_slices", "aggregation.window"),
    (protocol, "reduce_scores", "aggregation.reduce"),
    (protocol, "concat_window", "aggregation.concat"),
    (protocol, "run_experiment", "protocol.self"),
    (experiments, "run_experiment", "protocol.self"),
    (protocol, "evaluate_user_repetition", "protocol.self"),
    (protocol, "partition_attackers", "protocol.sample"),
    (protocol, "sample_negatives", "protocol.sample"),
    (protocol, "eer_from_scores", "metrics.eer"),
    (experiments, "run_matrix", "experiments.self"),
    (experiments, "write_report", "experiments.write"),
]

# span name -> (metric for its self time, metric counting its calls)
_SPAN_METRICS = {
    "synthetic.generate": ("synthetic.generate_s", None),
    "ingest.parse": ("ingest.parse_s", None),
    "touchdata.assemble": ("touchdata.assemble_s", None),
    "touchdata.filter": ("touchdata.filter_s", None),
    "features.extract": ("features.extract_s", None),
    "features.export": ("features.export_s", None),
    "selection.select": ("selection.select_s", None),
    "stacking.train": ("stacking.train_s", "stacking.train_calls"),
    "stacking.score": ("stacking.score_s", None),
    "aggregation.window": ("aggregation.window_s", "aggregation.window_calls"),
    "aggregation.reduce": ("aggregation.reduce_s", "aggregation.reduce_calls"),
    "aggregation.concat": ("aggregation.concat_s", None),
    "protocol.self": ("protocol.self_s", None),
    "protocol.sample": ("protocol.sample_s", None),
    "metrics.eer": ("metrics.eer_s", "metrics.eer_calls"),
    "experiments.self": ("experiments.self_s", None),
    "experiments.write": ("experiments.write_s", None),
}
for _kind in KINDS:
    _SPAN_METRICS[f"classifiers.{_kind}.train"] = (
        f"classifiers.{_kind}.train_s", f"classifiers.{_kind}.train_calls")
    _SPAN_METRICS[f"classifiers.{_kind}.score"] = (
        f"classifiers.{_kind}.score_s", None)

# How many sampled reducer and EER calls a traced run keeps for the
# oracle checks, and the share of calls it draws them from.
SAMPLE_CAP = 200
SAMPLE_RATE = 0.05


class Tracer:
    """Records spans while installed; restores every wrapped name on
    uninstall. ``phase`` tags each span with the part of the run it
    belongs to ("setup" or "round")."""

    def __init__(self, seed: int):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str], int] = {}
        self.phase = "setup"
        self.phase_runs = {"setup": 0, "round": 0}
        self.samples = {"eer": [], "reduce": []}
        self._sampler = random.Random(seed)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.phase])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _count(self, metric: str, n: int = 1) -> None:
        key = (self.phase, metric)
        self.counts[key] = self.counts.get(key, 0) + n

    def _traced(self, fn, name: str):
        after = self._after(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            after(args, result)
            return result
        return wrapper

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        originals = {}
        for owner, attr, name in _FUNCTIONS:
            fn = getattr(owner, attr)
            # one wrapper per function, so a module-internal call seen
            # through two bindings still makes a single span
            key = (fn, name)
            if key not in originals:
                originals[key] = self._traced(fn, name)
            self._replace(owner, attr, originals[key])
        for kind in KINDS:
            cls = model_class(kind)
            train_fn = cls.__dict__["train"].__func__
            self._replace(cls, "train", classmethod(
                self._traced(train_fn, f"classifiers.{kind}.train")))
            if "score" in cls.__dict__:
                self._replace(cls, "score", self._score_wrapper(
                    cls.__dict__["score"]))
        self._replace(TrainedModel, "score", self._score_wrapper(
            TrainedModel.__dict__["score"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _score_wrapper(self, fn):
        @functools.wraps(fn)
        def score(model, *args, **kwargs):
            index = self._enter(f"classifiers.{model.spec.kind}.score")
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._exit(index)
        return score

    def _after(self, name: str):
        """Counting and sampling done after a call returns, outside its
        span: the cost lands in the caller's self time, not the callee's."""
        calls = _SPAN_METRICS[name][1]

        def after(args, result):
            if calls is not None:
                self._count(calls)
            # parse_canonical and convert_raw return (records, report);
            # load_canonical returns (dataset, report) and parses through
            # parse_canonical, so only the records are counted
            if name == "ingest.parse" and isinstance(result[0], list):
                self._count("ingest.events", len(result[0]))
            elif name == "features.extract":
                self._count("features.swipes", result.n_rows)
            elif name == "protocol.self" and isinstance(result, dict):
                self._count("protocol.evals", sum(
                    1 for o in result.values()
                    if getattr(o, "eer", None) is not None))
            elif name == "metrics.eer" and self._draw("eer"):
                self.samples["eer"].append((
                    [float(v) for v in args[0]],
                    [float(v) for v in args[1]], result.eer))
            elif name == "aggregation.reduce" and self._draw("reduce"):
                self.samples["reduce"].append((
                    [float(v) for v in args[0]], args[1], result))
        return after

    def _draw(self, what: str) -> bool:
        """Whether to keep this call for the oracle checks."""
        return (self.phase == "round"
                and len(self.samples[what]) < SAMPLE_CAP
                and self._sampler.random() < SAMPLE_RATE)

    # -- reduction -------------------------------------------------------

    def self_times(self) -> dict[tuple[str, str], float]:
        """(phase, span name) -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _phase in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[tuple[str, str], float] = {}
        for i, (name, start, end, _parent, phase) in enumerate(self.spans):
            key = (phase, name)
            out[key] = out.get(key, 0.0) + (end - start) - child[i]
        return out

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, as the cost of one set-up plus one
        round: set-up spans are divided by the number of set-ups and
        round spans by the number of traced rounds."""
        per = {phase: max(1, n) for phase, n in self.phase_runs.items()}
        values = {name: 0.0 for name, _ in LAYER_METRICS}
        for (phase, span), seconds in self.self_times().items():
            time_metric = _SPAN_METRICS[span][0]
            values[time_metric] += seconds / per[phase]
        for (phase, metric), n in self.counts.items():
            values[metric] += n / per[phase]
        if values["features.swipes"]:
            values["features.ms_per_swipe"] = (
                1000.0 * values["features.extract_s"]
                / values["features.swipes"])
        values["trace.overhead_s"] = overhead_s
        return values

    def layer_shares(self, round_wall_s: float) -> dict[str, float]:
        """Each layer's share of the traced rounds' wall time; "untraced"
        is the rest, the benchmark's own code and tracing itself."""
        shares: dict[str, float] = {}
        for (phase, span), seconds in self.self_times().items():
            if phase == "round":
                layer = span.split(".")[0]
                shares[layer] = shares.get(layer, 0.0) + seconds / round_wall_s
        shares["untraced"] = 1.0 - sum(shares.values())
        return shares

    def span_records(self) -> list[dict]:
        return [{"name": name, "start": start, "end": end,
                 "parent": parent, "phase": phase}
                for name, start, end, parent, phase in self.spans]
