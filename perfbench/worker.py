"""Benchmark worker: one fresh process that runs ``reverbtrack.enhance``.

Reads the noisy samples as a ``.npy`` payload on stdin, calls
``enhance`` repeatedly for ``--seconds`` (at least once), checks every
call's output, and writes an ``.npz`` payload to stdout holding the last
output, the T60/DRR estimates the quality metrics need, and a JSON
summary. Untraced calls run under ``probe.Probe``, and the summary holds
each call's wall time and its time scaled to the probe's reference
speed. With ``--trace 1`` every call is traced instead, and the summary
carries the per-layer metrics derived from the recorded spans.

Started by ``run.py``; the environment pins BLAS/OpenMP to one thread and
puts the package on ``PYTHONPATH``.
"""

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from reverbtrack import AudioBuffer, enhancer
from reverbtrack.lognorm import Diagnostics

sys.path.insert(0, str(Path(__file__).resolve().parent))
import probe  # noqa: E402
import tracer  # noqa: E402

# estimates scored against the true room: the final 2 s, bins 16-96
SCORE_FRAMES = 250
SCORE_BINS = slice(16, 97)


def checked_call(audio, kernel, recorder=None):
    """One ``enhance`` call. Returns (timing, result dict or None, error).

    Untraced, the timing is the probe's (wall, scaled, probe mean) in
    seconds; traced, it is (wall, None, None).
    """
    try:
        if recorder is None:
            with probe.Probe(kernel) as p:
                out, trace, diag = enhancer.enhance(audio)
            timing = (p.wall, p.scaled, p.probe_mean)
        else:
            t0 = time.perf_counter()
            sid = recorder.open(tracer.ROOT)
            try:
                out, trace, diag = enhancer.enhance(audio)
            finally:
                recorder.close(sid)
            timing = (time.perf_counter() - t0, None, None)
    except Exception as exc:  # a raising run is counted, not fatal
        return None, None, f"{type(exc).__name__}: {exc}"
    samples = out.samples
    if samples.shape != audio.samples.shape:
        return timing, None, f"output length {samples.shape} != input {audio.samples.shape}"
    if not np.all(np.isfinite(samples)):
        return timing, None, "non-finite output samples"
    bad = [f for f, arr in trace.arrays.items() if not np.all(np.isfinite(arr))]
    if bad:
        return timing, None, f"non-finite trace fields {bad}"
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    return timing, {
        "samples": samples,
        "sha256": hashlib.sha256(samples.tobytes()).hexdigest(),
        "t60": trace.arrays["t60_est"][-SCORE_FRAMES:, SCORE_BINS].copy(),
        "drr": trace.arrays["drr_est"][-SCORE_FRAMES:, SCORE_BINS].copy(),
        "frames": trace.n_frames,
        "trace_mb": sum(a.nbytes for a in trace.arrays.values()) / 2 ** 20,
        "fallbacks": diag.fallbacks,
        "variance_clamps": diag.variance_clamps,
    }, None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    audio = AudioBuffer(np.load(io.BytesIO(sys.stdin.buffer.read())))
    recorder = tracer.Recorder(Diagnostics) if args.trace else None
    kernel = probe.ArrayKernel()
    timings, errors, last = [], [], None
    t_end = time.perf_counter() + args.seconds
    while not (timings or errors) or time.perf_counter() < t_end:
        if recorder is None:
            timing, res, err = checked_call(audio, kernel)
        else:
            with tracer.Tracing(recorder):
                timing, res, err = checked_call(audio, kernel, recorder)
        if res is not None and last is not None and res["sha256"] != last["sha256"]:
            res, err = None, "output differs from the previous call on the same input"
        if res is None:
            errors.append(err)
            continue
        timings.append(timing)
        last = res

    walls, scaled, probe_means = (list(col) for col in zip(*timings)) if timings else ([], [], [])
    summary = {
        "attempted": len(timings) + len(errors),
        "failed": len(errors),
        "errors": errors[:5],
        "walls": walls,
        "scaled": scaled,
        "probe_means": probe_means,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    payload = {}
    if last is not None:
        summary.update({k: last[k] for k in ("sha256", "frames", "fallbacks", "variance_clamps")})
        payload = {k: last[k] for k in ("samples", "t60", "drr")}
        if recorder is not None and not errors:  # spans of a failed call are partial
            summary["layers"] = tracer.derive(recorder, last["fallbacks"], last["variance_clamps"])
            summary["layers"]["enhancer.trace_mb"] = last["trace_mb"]
    buf = io.BytesIO()
    np.savez(buf, summary=np.array(json.dumps(summary)), **payload)
    sys.stdout.buffer.write(buf.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
