"""Blind joint denoising and dereverberation via log-spectral Kalman tracking."""

from .enhancer import EnhancerConfig, Trace, enhance, enhance_frames
from .reverb import RoomParams
from .stft import AnalysisConfig, AudioBuffer, SpectralFrames, istft, stft

__all__ = [
    "AnalysisConfig", "AudioBuffer", "EnhancerConfig", "RoomParams",
    "SpectralFrames", "Trace",
    "enhance", "enhance_frames", "istft", "stft",
]

__version__ = "0.1.0"
