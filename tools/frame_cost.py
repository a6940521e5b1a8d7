"""The per-frame cost of enhance_frames on one bin and on every bin.

Run from anywhere:

    python3 tools/frame_cost.py

Takes the benchmark's 4 s condition-G scene from ``perfbench/run.py``'s
``WORKLOADS["room_g_4s"](0)`` (white noise at 20 dB SNR, acoustics seed
0), as ``tools/split_replay.py`` does, takes its STFT and times
``enhance_frames`` on the full spectrum (K = 257) and on the single bin
64 (K = 1), alternating the two, five times each, with every bin in one
group in this process, as it runs where it cannot fork. Prints the
minimum of each in ms per frame and their ratio. Time that does not
scale with K is the per-call cost of the cascade's numpy operations, so
the K = 1 figure is that fixed cost. It imports ``reverbtrack`` from the
``src`` of the checkout it lives in, and pins BLAS to one thread.

Each in-process call runs under ``perfbench/probe.py``'s ``Probe`` with
its ``ArrayKernel``, the host-speed probe the benchmark scales ``rtf``
with. The wall figure moves with the load that other work puts on a
shared host. The scaled one takes the kernel runs out of each call's
time and scales it by the median kernel time over the whole run, not by
each call's own few samples, whose noise would add to the call's; the
minimum of the scaled times is printed next to the wall time.

Beside them, in the ``forked`` column, is the wall time of K = 257 run as
``enhance_frames`` runs it by default, its second bin group in a forked
child, timed in the same rounds. It is not scaled: the probe's kernel
slows while the child computes, so a scaled figure would overstate the
gain. K = 1 is one group, which never forks. On a host where
``enhance_frames`` cannot fork (one usable CPU, another thread), it runs
one group as in the ``wall`` column, and the column reads ``-``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

import probe  # noqa: E402
import run as bench  # noqa: E402  perfbench/run.py, for its workload scenes
from reverbtrack import enhancer  # noqa: E402
from reverbtrack.enhancer import enhance_frames  # noqa: E402
from reverbtrack.stft import AudioBuffer, SpectralFrames, stft  # noqa: E402

BIN = 64            # the bin of the K = 1 run
REPEATS = 5         # timed calls per K


def scene_spectrum():
    """The STFT of the benchmark's 4 s condition-G scene, seed 0."""
    return stft(AudioBuffer(bench.WORKLOADS["room_g_4s"](0).noisy))


def timed_call(spec, kernel):
    """(wall s, wall s without the kernel runs, kernel durations) of one
    call with every bin in one group in this process."""
    bin_groups = enhancer._bin_groups
    enhancer._bin_groups = lambda t_frames, k_bins: [slice(0, k_bins)]
    try:
        with probe.Probe(kernel) as p:
            enhance_frames(spec)
    finally:
        enhancer._bin_groups = bin_groups
    inside = sum(d for t, d in p.samples if p.t0 <= t < p.t1)
    return p.wall, p.wall - inside, [d for _, d in p.samples]


def forked_wall(spec):
    """Wall s of one call as enhance_frames runs it by default."""
    t0 = time.perf_counter()
    enhance_frames(spec)
    return time.perf_counter() - t0


def main():
    spec = scene_spectrum()
    one = SpectralFrames(spec.frames[:, BIN:BIN + 1].copy(), spec.config, spec.sample_rate)
    runs = {"K = 1": (one, []), f"K = {spec.n_bins}": (spec, [])}
    forks = len(enhancer._bin_groups(spec.n_frames, spec.n_bins)) == 2
    kernel = probe.ArrayKernel()
    enhance_frames(one)             # builds the lookup tables outside the timing
    durations, forked = [], []
    for _ in range(REPEATS):
        for s, calls in runs.values():
            wall, body, d = timed_call(s, kernel)
            calls.append((wall, body))
            durations += d
        if forks:
            forked.append(forked_wall(spec))
    scale = kernel.REF_S / statistics.median(durations)
    best = {k: (1e3 * min(w for w, _ in calls) / s.n_frames,
                1e3 * min(b for _, b in calls) * scale / s.n_frames)
            for k, (s, calls) in runs.items()}
    fork_ms = f"{1e3 * min(forked) / spec.n_frames:7.3f}" if forks else f"{'-':>7}"
    print(f"{spec.n_frames} frames, min of {REPEATS} calls each, ms/frame")
    print(f"{'':<8} {'wall':>7} {'scaled':>7} {'forked':>7}")
    (k_lo, (lo_w, lo_s)), (k_hi, (hi_w, hi_s)) = best.items()
    print(f"{k_lo:<8} {lo_w:7.3f} {lo_s:7.3f} {'-':>7}")
    print(f"{k_hi:<8} {hi_w:7.3f} {hi_s:7.3f} {fork_ms}")
    print(f"{'ratio':<8} {lo_w / hi_w:7.3f} {lo_s / hi_s:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
