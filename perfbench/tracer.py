"""Span recorder for the traced benchmark run.

Wraps, from outside the package, the module-level functions that
``enhance``/``enhance_frames`` reach through module attributes, records
one span per call in memory, and derives the per-layer metrics from the
spans after the run. Numerical event counts (fallbacks, variance clamps)
are measured by diffing the run's ``Diagnostics`` around each wrapped
cascade operation.
"""

import functools
import importlib
import time

import numpy as np

# (module, attribute, span name); the span name's first component is the layer
TARGETS = [
    ("reverbtrack.enhancer", "stft", "stft.stft"),
    ("reverbtrack.enhancer", "istft", "stft.istft"),
    ("reverbtrack.enhancer", "enhance_frames", "enhancer.enhance_frames"),
    ("reverbtrack.enhancer", "track_noise", "enhancer.track_noise"),
    ("reverbtrack.enhancer", "_fdr_priors_at", "enhancer.decay_priors"),
    ("reverbtrack.enhancer", "_advance", "enhancer.frame"),
    ("reverbtrack.speech", "log_mmse_preclean", "speech.log_mmse_preclean"),
    ("reverbtrack.speech", "estimate_ar", "speech.estimate_ar"),
    ("reverbtrack.speech", "predict_arrays", "speech.predict_arrays"),
    ("reverbtrack.speech", "decorrelate_arrays", "speech.decorrelate_arrays"),
    ("reverbtrack.speech", "recorrelate_arrays", "speech.recorrelate_arrays"),
    ("reverbtrack.lognorm", "logsum_moments", "lognorm.logsum_moments"),
    ("reverbtrack.lognorm", "split_scalar_obs", "lognorm.split_scalar_obs"),
    ("reverbtrack.lognorm", "split_distributed_obs", "lognorm.split_distributed_obs"),
    ("reverbtrack.lognorm", "line_constrained_update", "lognorm.line_constrained_update"),
    ("reverbtrack.lognorm", "fuse_moments", "lognorm.fuse_moments"),
]

ROOT = "enhance"
KF_SPANS = ("speech.predict_arrays", "speech.decorrelate_arrays", "speech.recorrelate_arrays")
SPLITS = ("lognorm.split_scalar_obs", "lognorm.split_distributed_obs")
COUNTED = ("lognorm.logsum_moments", *SPLITS)   # the ops that update Diagnostics


class Recorder:
    """In-memory spans (name, start, end, parent) plus event counters."""

    def __init__(self, diag_type):
        self._diag_type = diag_type
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.counts = {}
        self._stack = []
        self._dist_in_frame = 0

    def open(self, name):
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.ends[sid] = time.perf_counter()
        self._stack.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + int(value)

    def _find_diag(self, args, kwargs):
        for v in (*args, *kwargs.values()):
            if isinstance(v, self._diag_type):
                return v
        return None

    def wrap(self, name, fn):
        counted = name in COUNTED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "enhancer.frame":
                self._dist_in_frame = 0
            diag = self._find_diag(args, kwargs) if counted else None
            if diag is not None:
                fb0, cl0 = diag.fallbacks, diag.variance_clamps
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            key = name
            if name == "lognorm.split_distributed_obs":
                # a frame's first distributed split is step 8 (z -> r, n),
                # its second step 10 (r -> old, new)
                self._dist_in_frame += 1
                key += ".step8" if self._dist_in_frame == 1 else ".step10"
            if diag is not None:
                self.add(key + ".fallbacks", diag.fallbacks - fb0)
                self.add(key + ".clamps", diag.variance_clamps - cl0)
            if name in SPLITS:
                self.add("split.bin_evaluations", np.size(args[0]))
            elif name == "enhancer.decay_priors":
                self.add("enhancer.decay_priors.prior_bins", np.count_nonzero(result[4]))
            return result

        return wrapper


class Tracing:
    """Context manager that installs the wrappers and removes them on exit.

    Raises if a target attribute is missing, so that a rename in the
    package cannot silently report zero for a layer.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self._saved = []

    def __enter__(self):
        for mod_name, attr, span in TARGETS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.__exit__()
                raise RuntimeError(f"trace target {mod_name}.{attr} is missing")
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self.recorder.wrap(span, fn))
        return self.recorder

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def _us_quantiles(durations):
    us = np.asarray(durations) * 1e6
    return float(np.percentile(us, 50)), float(np.percentile(us, 99))


def derive(rec: Recorder, diag_fallbacks, diag_clamps):
    """Per-layer metrics per traced ``enhance`` call from the recorded spans.

    Times are seconds per call (``.s``) or microseconds per span
    (``.us_p50``/``.us_p99``); counts are per call. ``diag_fallbacks`` and
    ``diag_clamps`` are the ``Diagnostics`` totals of one call; the
    per-step breakdown must add up to them.
    """
    names = np.array(rec.names)
    if any(e is None for e in rec.ends):
        raise RuntimeError("a traced span was never closed")
    dur = np.array(rec.ends) - np.array(rec.starts)
    parents = np.array(rec.parents)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_t = dur - child
    n_calls = int(np.count_nonzero(names == ROOT))

    expected = {span for _, _, span in TARGETS}
    missing = sorted(expected - set(rec.names))
    if missing:
        raise RuntimeError(f"trace targets never called: {', '.join(missing)}")

    def total(name, arr=dur):
        return float(arr[names == name].sum()) / n_calls

    def calls(name):
        return int(np.count_nonzero(names == name)) // n_calls

    def count(key):
        return rec.counts.get(key, 0) // n_calls

    m = {}
    for op in ("lognorm.split_distributed_obs", "lognorm.logsum_moments", "lognorm.split_scalar_obs"):
        m[op + ".s"] = total(op)
        m[op + ".calls"] = calls(op)
        m[op + ".us_p50"], m[op + ".us_p99"] = _us_quantiles(dur[names == op])
    for op in ("lognorm.line_constrained_update", "lognorm.fuse_moments",
               "speech.log_mmse_preclean", "speech.estimate_ar",
               "enhancer.track_noise", "enhancer.decay_priors", "stft.stft", "stft.istft"):
        m[op + ".s"] = total(op)
    m["speech.kf.s"] = sum(total(op) for op in KF_SPANS)
    m["enhancer.loop_self.s"] = total("enhancer.frame", self_t)
    m["enhancer.frame.us_p50"], m["enhancer.frame.us_p99"] = _us_quantiles(dur[names == "enhancer.frame"])
    m["enhancer.decay_priors.prior_bins"] = count("enhancer.decay_priors.prior_bins")

    fb7 = count("lognorm.split_scalar_obs.fallbacks")
    fb8 = count("lognorm.split_distributed_obs.step8.fallbacks")
    fb10 = count("lognorm.split_distributed_obs.step10.fallbacks")
    m["lognorm.split_scalar_obs.fallbacks"] = fb7
    m["lognorm.split_distributed_obs.step8.fallbacks"] = fb8
    m["lognorm.split_distributed_obs.step10.fallbacks"] = fb10
    for key in ("lognorm.logsum_moments", "lognorm.split_scalar_obs",
                "lognorm.split_distributed_obs.step8", "lognorm.split_distributed_obs.step10"):
        m[key + ".clamps"] = count(key + ".clamps")
    m["lognorm.split.fallback_ratio"] = (fb7 + fb8 + fb10) / count("split.bin_evaluations")
    clamps = sum(v for k, v in m.items() if k.endswith(".clamps"))
    if (fb7 + fb8 + fb10, clamps) != (diag_fallbacks, diag_clamps):
        raise RuntimeError(
            f"per-step counts ({fb7 + fb8 + fb10} fallbacks, {clamps} clamps) do not add up "
            f"to Diagnostics ({diag_fallbacks}, {diag_clamps}); an uncounted operation changed them")

    wall = total(ROOT)
    layers = {}
    for name, s in zip(names, self_t):
        layer = "enhancer" if name == ROOT else name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + float(s)
    for layer in ("stft", "speech", "lognorm", "enhancer"):
        m[layer + ".self_s"] = layers.get(layer, 0.0) / n_calls
    m["enhance.traced_s"] = wall
    m["cascade.share"] = (m["lognorm.self_s"] + m["speech.kf.s"] + m["enhancer.loop_self.s"]) / wall
    return m
