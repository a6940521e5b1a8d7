"""16-bit PCM mono WAV input/output at 16 kHz."""

import wave

import numpy as np

from .stft import SAMPLE_RATE, AudioBuffer


class WavFormatError(ValueError):
    pass


def read_wav(path) -> AudioBuffer:
    """A mono 16-bit PCM WAV at 16 kHz, the only format enhance takes."""
    with wave.open(str(path), "rb") as wf:
        if wf.getnchannels() != 1:
            raise WavFormatError(f"{path}: need mono, got {wf.getnchannels()} channels")
        if wf.getsampwidth() != 2:
            raise WavFormatError(f"{path}: need 16-bit PCM, got {8 * wf.getsampwidth()}-bit")
        rate = wf.getframerate()
        if rate != SAMPLE_RATE:
            raise WavFormatError(
                f"{path}: sample rate {rate} unsupported, need {SAMPLE_RATE} "
                "(resampling is out of scope)")
        data = wf.readframes(wf.getnframes())
    samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    return AudioBuffer(samples, rate)


def write_wav(path, audio: AudioBuffer):
    pcm = np.clip(np.round(audio.samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(audio.sample_rate)
        wf.writeframes(pcm.tobytes())
