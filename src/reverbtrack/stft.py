"""Time-frequency analysis/synthesis and the floored magnitude.

Every signal is at SAMPLE_RATE, 16 kHz. Default geometry: 32 ms frames,
8 ms increment, no zero padding. A periodic square-root raised-cosine
window is applied at both analysis and synthesis so that 75% overlap
satisfies constant overlap-add.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000         # the rate of every AudioBuffer and SpectralFrames
MAG_FLOOR_REL = 1e-10
MAG_FLOOR_ABS = 1e-12
_ANALYSIS_BLOCK = 32        # frames transformed at a time by stft
_SYNTHESIS_BLOCK = 256      # frames inverse-transformed at a time by istft
_COLA_TOL = 1e-6            # largest relative ripple of the overlap-added window


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
class AnalysisConfig:
    frame_length: float = 0.032
    frame_increment: float = 0.008

    def __post_init__(self):
        for name in ("frame_length", "frame_increment"):
            if not check_number(name, getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")

    def frame_samples(self):
        return int(round(self.frame_length * SAMPLE_RATE))

    def hop_samples(self):
        return int(round(self.frame_increment * SAMPLE_RATE))

    def make_window(self):
        n = self.frame_samples()
        # periodic Hann; sqrt applied so analysis*synthesis = Hann
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        return np.sqrt(hann)

    def check_cola(self):
        """Verify that the squared window overlap-adds to a constant."""
        n = self.frame_samples()
        hop = self.hop_samples()
        if hop <= 0 or hop > n:
            raise StftError("need 0 < frame_increment <= frame_length")
        w2 = self.make_window() ** 2
        acc = np.zeros(3 * n)
        for start in range(0, 2 * n + 1, hop):
            acc[start:start + n] += w2
        interior = acc[n:2 * n]
        ripple = (interior.max() - interior.min()) / interior.mean()
        if ripple > _COLA_TOL:
            raise StftError(f"window/overlap pair violates COLA (ripple {ripple:.2e})")
        return interior.mean()


@dataclass
class SpectralFrames:
    frames: np.ndarray  # complex, (T, K)
    config: AnalysisConfig

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def n_bins(self):
        return self.frames.shape[1]


def floored_magnitude(frames):
    """|X| floored per frame: max(|X|, 1e-10 * frame max, 1e-12)."""
    mag = np.abs(frames)
    frame_max = mag.max(axis=-1, keepdims=True)
    return np.maximum(mag, np.maximum(MAG_FLOOR_REL * frame_max, MAG_FLOOR_ABS), out=mag)


def stft(audio: AudioBuffer, config: AnalysisConfig | None = None) -> SpectralFrames:
    """The complex (T, n // 2 + 1) spectrum of the windowed frames.

    The frames are read through a strided view of the samples and
    transformed a block at a time into the preallocated result, so that
    nothing but the result grows with the input's length.
    """
    config = config or AnalysisConfig()
    n = config.frame_samples()
    hop = config.hop_samples()
    config.check_cola()
    x = audio.samples
    if len(x) < n:
        raise StftError(f"audio ({len(x)} samples) shorter than one frame ({n})")
    win = config.make_window()
    framed = np.lib.stride_tricks.sliding_window_view(x, n)[::hop]     # (T, n) view
    frames = np.empty((framed.shape[0], n // 2 + 1), dtype=complex)
    for start in range(0, framed.shape[0], _ANALYSIS_BLOCK):
        block = slice(start, start + _ANALYSIS_BLOCK)
        frames[block] = np.fft.rfft(framed[block] * win, n, axis=1)
    return SpectralFrames(frames, config)


def istft(spec: SpectralFrames) -> AudioBuffer:
    """Overlap-add synthesis with the geometry the spectrum was analysed with."""
    config = spec.config
    n = config.frame_samples()
    hop = config.hop_samples()
    if spec.n_bins != n // 2 + 1:
        raise StftError(
            f"frame bins ({spec.n_bins}) do not match config frame size ({n})"
        )
    win = config.make_window()
    t = spec.n_frames
    out = np.zeros((t - 1) * hop + n)
    norm = np.zeros_like(out)
    w2 = win * win
    # block by block, so that the time-domain frames never exist all at once
    for start in range(0, t, _SYNTHESIS_BLOCK):
        frames = np.fft.irfft(spec.frames[start:start + _SYNTHESIS_BLOCK], n, axis=1)
        frames *= win
        for i, frame in enumerate(frames, start):
            out[i * hop:i * hop + n] += frame
            norm[i * hop:i * hop + n] += w2
    out /= np.maximum(norm, 1e-8)
    return AudioBuffer(out)

