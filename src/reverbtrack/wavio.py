"""16-bit PCM mono WAV input/output at 16 kHz."""

import wave

import numpy as np

from .stft import SAMPLE_RATE, AudioBuffer


class WavFormatError(ValueError):
    pass


def read_wav(path) -> AudioBuffer:
    """A mono 16-bit PCM WAV at 16 kHz, the only format enhance takes;
    any other file raises WavFormatError naming the path."""
    try:
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
    except (wave.Error, EOFError) as exc:
        # wave raises EOFError, with no message, where the header ends early
        detail = str(exc) or "the header ends early"
        raise WavFormatError(f"{path}: not a WAV file: {detail}") from None
    if len(data) % 2:
        raise WavFormatError(f"{path}: the data ends inside a sample: {len(data)} bytes "
                             "is not a whole number of 2-byte samples")
    samples = np.frombuffer(data, dtype="<i2").astype(float) / 32768.0
    return AudioBuffer(samples)


def write_wav(path, audio: AudioBuffer):
    """16-bit PCM at read_wav's scale, so a file read and written back keeps its bytes."""
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    # opened here, not by wave: a Wave_write whose open failed inside its
    # constructor reports an AttributeError when it is collected
    with open(path, "wb") as fh, wave.open(fh, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(pcm.tobytes())
