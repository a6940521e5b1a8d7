"""Time-frequency analysis/synthesis and log-magnitude extraction.

Default geometry: 32 ms frames, 8 ms increment, 16 kHz, no zero padding.
A periodic square-root raised-cosine window is applied at both analysis
and synthesis so that 75% overlap satisfies constant overlap-add.
"""

from dataclasses import dataclass, field

import numpy as np

SAMPLE_RATE = 16000         # the one rate the enhancer and its file I/O take
MAG_FLOOR_REL = 1e-10
MAG_FLOOR_ABS = 1e-12
_ANALYSIS_BLOCK = 32        # frames transformed at a time by stft
_SYNTHESIS_BLOCK = 256      # frames inverse-transformed at a time by istft
_COLA_TOL = 1e-6            # largest relative ripple of the overlap-added window


class StftError(ValueError):
    pass


@dataclass
class AudioBuffer:
    samples: np.ndarray
    sample_rate: int = SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio contains non-finite samples")

    @property
    def duration(self):
        return len(self.samples) / self.sample_rate


@dataclass
class AnalysisConfig:
    frame_length: float = 0.032
    frame_increment: float = 0.008

    def frame_samples(self, sample_rate):
        return int(round(self.frame_length * sample_rate))

    def hop_samples(self, sample_rate):
        return int(round(self.frame_increment * sample_rate))

    def make_window(self, sample_rate):
        n = self.frame_samples(sample_rate)
        # periodic Hann; sqrt applied so analysis*synthesis = Hann
        hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)
        return np.sqrt(hann)

    def check_cola(self, sample_rate):
        """Verify that the squared window overlap-adds to a constant."""
        n = self.frame_samples(sample_rate)
        hop = self.hop_samples(sample_rate)
        if hop <= 0 or hop > n:
            raise StftError("need 0 < frame_increment <= frame_length")
        w2 = self.make_window(sample_rate) ** 2
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
    sample_rate: int = SAMPLE_RATE

    @property
    def n_frames(self):
        return self.frames.shape[0]

    @property
    def n_bins(self):
        return self.frames.shape[1]

    def magnitude(self):
        return floored_magnitude(self.frames)

    def log_magnitude(self):
        return log_magnitude(self)


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
    fs = audio.sample_rate
    n = config.frame_samples(fs)
    hop = config.hop_samples(fs)
    config.check_cola(fs)
    x = audio.samples
    if len(x) < n:
        raise StftError(f"audio ({len(x)} samples) shorter than one frame ({n})")
    win = config.make_window(fs)
    framed = np.lib.stride_tricks.sliding_window_view(x, n)[::hop]     # (T, n) view
    frames = np.empty((framed.shape[0], n // 2 + 1), dtype=complex)
    for start in range(0, framed.shape[0], _ANALYSIS_BLOCK):
        block = slice(start, start + _ANALYSIS_BLOCK)
        frames[block] = np.fft.rfft(framed[block] * win, n, axis=1)
    return SpectralFrames(frames, config, fs)


def istft(spec: SpectralFrames) -> AudioBuffer:
    """Overlap-add synthesis with the geometry the spectrum was analysed with."""
    config = spec.config
    fs = spec.sample_rate
    n = config.frame_samples(fs)
    hop = config.hop_samples(fs)
    if spec.n_bins != n // 2 + 1:
        raise StftError(
            f"frame bins ({spec.n_bins}) do not match config frame size ({n})"
        )
    win = config.make_window(fs)
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
    return AudioBuffer(out, fs)


def log_magnitude(spec: SpectralFrames) -> np.ndarray:
    """Natural log of the floored magnitude; always finite."""
    mag = floored_magnitude(spec.frames)
    return np.log(mag, out=mag)
