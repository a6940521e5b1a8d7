"""Time-frequency analysis/synthesis and the floored magnitude.

Every signal is at SAMPLE_RATE, 16 kHz, and every spectrum has one
geometry: FRAME_SAMPLES (32 ms) frames every HOP_SAMPLES (8 ms, the frame
increment L of the signal model), no zero padding, N_BINS bins. The
periodic square-root raised-cosine WINDOW is applied at both analysis and
synthesis, so that its square overlap-adds to a constant at 75% overlap.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000         # the rate of every AudioBuffer and SpectralFrames
FRAME_SAMPLES = 512         # 32 ms
HOP_SAMPLES = 128           # 8 ms
FRAME_INCREMENT = HOP_SAMPLES / SAMPLE_RATE     # L in seconds, the double 0.008
N_BINS = FRAME_SAMPLES // 2 + 1
# periodic Hann; sqrt applied so analysis*synthesis = Hann
WINDOW = np.sqrt(0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_SAMPLES) / FRAME_SAMPLES))
WINDOW.flags.writeable = False
MAG_FLOOR_REL = 1e-10
MAG_FLOOR_ABS = 1e-12
_ANALYSIS_BLOCK = 32        # frames transformed at a time by stft
_SYNTHESIS_BLOCK = 256      # frames inverse-transformed at a time by istft


class StftError(ValueError):
    pass


def check_number(name, value):
    """Raises ValueError, naming the field name, unless value is a real
    number, numpy's included: not a bool, a string or None. Returns whether
    a float holds it finite (an int too large for a float is not)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass
class AudioBuffer:
    samples: np.ndarray     # at SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio contains non-finite samples")


@dataclass
class SpectralFrames:
    frames: np.ndarray  # complex, (T, K)

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def n_bins(self):
        return self.frames.shape[1]


def magnitude_floor(mag):
    """Each frame's magnitude floor, max(1e-10 * frame max, 1e-12), with the
    bins axis of mag kept as 1."""
    return np.maximum(MAG_FLOOR_REL * mag.max(axis=-1, keepdims=True), MAG_FLOOR_ABS)


def floored_magnitude(frames):
    """|X| floored per frame: max(|X|, magnitude_floor(|X|))."""
    mag = np.abs(frames)
    return np.maximum(mag, magnitude_floor(mag), out=mag)


def stft(audio: AudioBuffer) -> SpectralFrames:
    """The complex (T, N_BINS) spectrum of the windowed frames.

    The frames are read through a strided view of the samples and
    transformed a block at a time into the preallocated result, so that
    nothing but the result grows with the input's length.
    """
    x = audio.samples
    if len(x) < FRAME_SAMPLES:
        raise StftError(f"audio ({len(x)} samples) shorter than one frame ({FRAME_SAMPLES})")
    framed = np.lib.stride_tricks.sliding_window_view(x, FRAME_SAMPLES)[::HOP_SAMPLES]
    frames = np.empty((framed.shape[0], N_BINS), dtype=complex)
    for start in range(0, framed.shape[0], _ANALYSIS_BLOCK):
        block = slice(start, start + _ANALYSIS_BLOCK)
        frames[block] = np.fft.rfft(framed[block] * WINDOW, FRAME_SAMPLES, axis=1)
    return SpectralFrames(frames)


def istft(spec: SpectralFrames) -> AudioBuffer:
    """Overlap-add synthesis of a spectrum of N_BINS bins (else StftError)."""
    n, hop = FRAME_SAMPLES, HOP_SAMPLES
    if spec.n_bins != N_BINS:
        raise StftError(f"frame bins ({spec.n_bins}) do not match the frame size ({n})")
    t = spec.n_frames
    out = np.zeros((t - 1) * hop + n)
    norm = np.zeros_like(out)
    w2 = WINDOW * WINDOW
    # block by block, so that the time-domain frames never exist all at once
    for start in range(0, t, _SYNTHESIS_BLOCK):
        frames = np.fft.irfft(spec.frames[start:start + _SYNTHESIS_BLOCK], n, axis=1)
        frames *= WINDOW
        for i, frame in enumerate(frames, start):
            out[i * hop:i * hop + n] += frame
            norm[i * hop:i * hop + n] += w2
    out /= np.maximum(norm, 1e-8)
    return AudioBuffer(out)
