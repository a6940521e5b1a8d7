"""The per-frame cost of enhance_frames on one bin and on every bin.

Run from anywhere:

    python3 tools/frame_cost.py

Synthesises the 4 s condition-G scene of the benchmark (white noise at
20 dB SNR, acoustics seed 0, utterance seed 3), takes its STFT and times
``enhance_frames`` on the full spectrum (K = 257) and on the single bin
64 (K = 1), alternating the two, five times each. Prints the minimum of
each in ms per frame and their ratio. Time that does not scale with K
is the per-call cost of the cascade's numpy operations, so the K = 1
figure is that fixed cost. It imports ``reverbtrack`` from the ``src``
of the checkout it lives in, and pins BLAS to one thread.

Each timed call runs under ``perfbench/probe.py``'s ``Probe`` with its
``ArrayKernel``, the host-speed probe the benchmark scales ``rtf`` with,
and the minimum of the probe-scaled times is printed next to the wall
time. The wall figure moves with the load that other work puts on a
shared host; the scaled one is the measure the benchmark's ``rtf`` uses.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"      # before numpy loads its BLAS

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_ROOT / "src"))
sys.path.insert(0, str(_ROOT / "perfbench"))

import probe  # noqa: E402
from reverbtrack.enhancer import enhance_frames  # noqa: E402
from reverbtrack.reverb import RoomParams  # noqa: E402
from reverbtrack.simkit import make_scene, speechlike_excitation  # noqa: E402
from reverbtrack.stft import SpectralFrames, stft  # noqa: E402

BIN = 64            # the bin of the K = 1 run
REPEATS = 5         # timed calls per K


def scene_spectrum():
    """The STFT of the benchmark's 4 s condition-G scene, seed 0."""
    clean = speechlike_excitation(4.0, seed=3)
    noisy, _, _ = make_scene(clean, RoomParams(0.61, -1.74), 20.0, "white", seed=0)
    return stft(noisy)


def ms_per_frame(spec):
    """(wall, probe-scaled) ms per frame of one enhance_frames call."""
    with probe.Probe(probe.ArrayKernel()) as p:
        enhance_frames(spec)
    return 1e3 * p.wall / spec.n_frames, 1e3 * p.scaled / spec.n_frames


def main():
    spec = scene_spectrum()
    one = SpectralFrames(spec.frames[:, BIN:BIN + 1].copy(), spec.config, spec.sample_rate)
    runs = {"K = 1": (one, []), f"K = {spec.n_bins}": (spec, [])}
    enhance_frames(one)             # builds the lookup tables outside the timing
    for _ in range(REPEATS):
        for s, times in runs.values():
            times.append(ms_per_frame(s))
    best = {k: [min(col) for col in zip(*times)] for k, (_, times) in runs.items()}
    print(f"{spec.n_frames} frames, min of {REPEATS} calls each, ms/frame")
    print(f"{'':<8} {'wall':>7} {'scaled':>7}")
    for k, (wall, scaled) in best.items():
        print(f"{k:<8} {wall:7.3f} {scaled:7.3f}")
    (lo_w, lo_s), (hi_w, hi_s) = best.values()
    print(f"{'ratio':<8} {lo_w / hi_w:7.3f} {lo_s / hi_s:7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
