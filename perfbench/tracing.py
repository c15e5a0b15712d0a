"""In-memory span tracing of the emgeat modules, installed from outside.

`Tracer.install()` replaces every public function of the traced modules
(plus a few methods) with a wrapper, in every loaded `emgeat` module that
holds a reference to it, so a call is traced whichever name its caller looks
up. The program's source is untouched. Each finished call appends one span
(name, span id, parent span id, start, end) to arrays owned by the calling
thread; hooks add timestamped counts taken from arguments or results.
`dump()` writes everything to one `.npz` file and `layer_metrics()` turns
one or more such files into the per-layer figures.
"""

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from array import array

import numpy as np

MODULES = (
    "synth",
    "signal",
    "events",
    "features",
    "learn",
    "realtime",
    "feedback",
    "metrics",
    "io.protocol",
    "io.server",
    "io.models",
    "cli",
)

# Methods traced besides the module functions: "Class.method" -> span name.
# The three server session methods are the per-frame handlers.
METHODS = {
    "realtime": {
        "StreamEngine.push": "realtime.push",
        "StreamEngine.finalize": "realtime.finalize",
        "StreamEngine.rate_at": "realtime.rate_at",
    },
    "io.server": {
        "_Session.open": "io.server.frame",
        "_Session.samples": "io.server.frame",
        "_Session.close": "io.server.frame",
    },
}


def _count_fit(tracer, args, result):
    info = result.train_info
    tracer.count("learn.fits", 1)
    tracer.count("learn.fits_converged", bool(info["converged"]))
    tracer.count("learn.train_epochs", info["epochs"])


def _count_bytes(tracer, args, result):
    tracer.count("io.protocol.bytes_in", len(args[0]))


def _count_state(tracer, args, result):
    engine = args[0].engine
    if engine is not None:
        st = engine.state
        items = len(st.envelope) + len(st.raw_predictions) + len(st.events)
        tracer.count("realtime.state_items_sum", items)
        tracer.count("realtime.state_sessions", 1)


# Span name -> hook(tracer, args, result), run after a traced call returns.
HOOKS = {
    "learn.train_linear_svm": _count_fit,
    "io.protocol.parse_frame": _count_bytes,
}
# _Session.close shares the frame span name, so its hook is keyed by method.
METHOD_HOOKS = {"_Session.close": _count_state}


class _ThreadBuffer:
    def __init__(self):
        self.stack = []
        self.name_id = array("i")
        self.span_id = array("q")
        self.parent_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.count_id = array("i")
        self.count_value = array("d")
        self.count_time = array("d")


class _Counters(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Span recorder; `active` switches recording on and off at run time."""

    def __init__(self):
        self.active = False
        self.names = []
        self._name_ids = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._buffers = []
        self._lock = threading.Lock()
        self.extra_hooks = {}

    def _buffer(self):
        try:
            return self._local.buf
        except AttributeError:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
            return buf

    def _name_id(self, name):
        if name not in self._name_ids:
            with self._lock:
                if name not in self._name_ids:
                    self._name_ids[name] = len(self.names)
                    self.names.append(name)
        return self._name_ids[name]

    def count(self, key, value):
        """Record a count event (key, value, now) for the calling thread."""
        buf = self._buffer()
        buf.count_id.append(self._name_id(key))
        buf.count_value.append(value)
        buf.count_time.append(time.perf_counter())

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            buf = tracer._buffer()
            sid = next(tracer._ids)
            stack = buf.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.name_id.append(nid)
                buf.span_id.append(sid)
                buf.parent_id.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self):
        """Wrap the traced callables wherever a loaded emgeat module names them."""
        modules = {m: importlib.import_module(f"emgeat.{m}") for m in MODULES}
        replacements = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                hook = self.extra_hooks.get(name, HOOKS.get(name))
                replacements[id(fn)] = (fn, self.wrap(name, fn, hook))
            for path, name in METHODS.get(short, {}).items():
                cls_name, meth = path.split(".")
                cls = getattr(module, cls_name)
                hook = METHOD_HOOKS.get(path)
                setattr(cls, meth, self.wrap(name, getattr(cls, meth), hook))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "emgeat" and not mod_name.startswith("emgeat."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return self

    def dump(self, path):
        """Write every recorded span and count event to `path` (.npz)."""
        with self._lock:
            buffers = list(self._buffers)

        def cat(field, dtype):
            parts = [np.frombuffer(getattr(b, field), dtype=dtype) for b in buffers]
            return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=cat("name_id", np.int32),
            span_id=cat("span_id", np.int64),
            parent_id=cat("parent_id", np.int64),
            start=cat("start", np.float64),
            end=cat("end", np.float64),
            count_id=cat("count_id", np.int32),
            count_value=cat("count_value", np.float64),
            count_time=cat("count_time", np.float64),
        )


def summarize(path, split):
    """Per span name calls, inclusive and self seconds, plus summed counts.

    Returns two (spans, counters) pairs: what started before `split` and
    what started after it. A span's self time is its duration minus the
    durations of its direct children (same process, so same file).
    """
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        d = {key: data[key] for key in data.files if key != "names"}
    dur = d["end"] - d["start"]
    self_time = dur.copy()
    has_parent = d["parent_id"] >= 0
    if has_parent.any():
        order = np.argsort(d["span_id"])
        pos = order[np.searchsorted(d["span_id"], d["parent_id"][has_parent], sorter=order)]
        np.subtract.at(self_time, pos, dur[has_parent])
    phases = []
    for before in (True, False):
        in_phase = (d["start"] < split) == before
        spans = {}
        for i, name in enumerate(names):
            mask = in_phase & (d["name_id"] == i)
            if mask.any():
                spans[name] = {
                    "calls": int(mask.sum()),
                    "total_s": float(dur[mask].sum()),
                    "self_s": float(self_time[mask].sum()),
                }
        counters = _Counters()
        counted = (d["count_time"] < split) == before
        for key_id, value in zip(d["count_id"][counted], d["count_value"][counted]):
            counters[names[key_id]] += float(value)
        phases.append((spans, counters))
    return phases


def merge(weighted):
    """Sum (spans, counters) summaries, each scaled by its weight."""
    spans, counters = {}, _Counters()
    for (span_stats, counts), weight in weighted:
        for name, stats in span_stats.items():
            acc = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in stats.items():
                acc[key] += weight * value
        for key, value in counts.items():
            counters[key] += weight * value
    return spans, counters


def _span(name, field):
    return lambda spans, counters: spans.get(name, {}).get(field, 0)


def _counter(name):
    return lambda spans, counters: counters.get(name, 0)


def _state_items(spans, counters):
    n = counters.get("realtime.state_sessions", 0)
    return counters.get("realtime.state_items_sum", 0) / n if n else 0


# Per-layer metric -> (unit, how it is read from the merged trace).
LAYER_METRICS = {
    "synth.gen_session_s": ("s", _span("synth.gen_session", "total_s")),
    "signal.preprocess_recording_s": (
        "s", _span("signal.preprocess_recording", "total_s")),
    "events.detect_bursts_s": ("s", _span("events.detect_bursts", "total_s")),
    "features.build_feature_matrix_self_s": (
        "s", _span("features.build_feature_matrix", "self_s")),
    "features.extract_features_s": ("s", _span("features.extract_features", "total_s")),
    "features.extract_features_calls": (
        "count", _span("features.extract_features", "calls")),
    "learn.train_linear_svm_s": ("s", _span("learn.train_linear_svm", "total_s")),
    "learn.train_epochs": ("count", _counter("learn.train_epochs")),
    "learn.fits": ("count", _counter("learn.fits")),
    "learn.fits_converged": ("count", _counter("learn.fits_converged")),
    "learn.lopo_evaluate_self_s": ("s", _span("learn.lopo_evaluate", "self_s")),
    "learn.decision_values_calls": ("count", _span("learn.decision_values", "calls")),
    "realtime.calibrate_s": ("s", _span("realtime.calibrate", "total_s")),
    "realtime.rt_training_set_s": ("s", _span("realtime.rt_training_set", "total_s")),
    "realtime.push_self_s": ("s", _span("realtime.push", "self_s")),
    "realtime.push_calls": ("count", _span("realtime.push", "calls")),
    "realtime.rt_features_s": ("s", _span("realtime.rt_features", "total_s")),
    "realtime.rt_features_calls": ("count", _span("realtime.rt_features", "calls")),
    "realtime.rate_at_s": ("s", _span("realtime.rate_at", "total_s")),
    "realtime.state_items_end": ("items", _state_items),
    "io.protocol.parse_frame_s": ("s", _span("io.protocol.parse_frame", "total_s")),
    "io.protocol.parse_values_s": ("s", _span("io.protocol.parse_values", "total_s")),
    "io.protocol.bytes_in": ("bytes", _counter("io.protocol.bytes_in")),
    "io.server.frames_in": ("count", _span("io.server.frame", "calls")),
    "io.server.frame_self_s": ("s", _span("io.server.frame", "self_s")),
    "io.models.load_model_s": ("s", _span("io.models.load_model", "total_s")),
    "cli.serve_ready_s": ("s", _counter("cli.serve_ready_s")),
}


def layer_metrics(trace_paths, split, n_setups, n_rounds, extra=None):
    """Every per-layer metric, per set-up plus per round, as result entries.

    Spans and counts that start before `split` (the first round) are divided
    by the number of set-ups, later ones by the number of rounds, so the
    figures do not depend on how many rounds fit into the run.
    """
    weighted = []
    for path in trace_paths:
        before, after = summarize(path, split)
        weighted += [(before, 1.0 / n_setups), (after, 1.0 / n_rounds)]
    spans, counters = merge(weighted)
    out = {}
    for name, (unit, read) in LAYER_METRICS.items():
        out[name] = {"value": float(read(spans, counters)), "unit": unit}
    for name, (value, unit) in (extra or {}).items():
        out[name] = {"value": float(value), "unit": unit}
    return out
