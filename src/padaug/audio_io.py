"""Reading and writing 16-bit mono PCM WAV files.

Anything that is not plain 16-bit mono PCM is rejected outright rather
than converted; augmentation semantics stay unambiguous that way. Samples
are exchanged as float64 in [-1, 1] (int16 value / 32768); from_pcm
and to_pcm are that mapping, the one both read_wav and write_wav use.
quantize gives the samples as a WAV stores them, and write_wav returns
them, so a caller can go on with the stored samples without reading them
back.
"""

import struct
import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CorruptHeaderError, InvalidConfigError, UnsupportedFormatError

INT16_SCALE = 32768.0


@dataclass
class Waveform:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate_hz: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("waveform samples must be one-dimensional")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]


def read_wav(path) -> Waveform:
    """Read a 16-bit mono PCM WAV file.

    Raises FileNotFoundError for missing files, CorruptHeaderError for a
    broken RIFF container and UnsupportedFormatError for any codec other
    than 16-bit mono PCM.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[0:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    off = 12
    while off + 8 <= len(data):
        chunk_id = data[off : off + 4]
        (size,) = struct.unpack_from("<I", data, off + 4)
        body_start = off + 8
        if body_start + size > len(data):
            raise CorruptHeaderError(f"{path}: truncated chunk {chunk_id!r}")
        if chunk_id == b"fmt ":
            if size < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, body_start)
        elif chunk_id == b"data":
            payload = data[body_start : body_start + size]
        off = body_start + size + (size & 1)

    if fmt is None or payload is None:
        raise CorruptHeaderError(f"{path}: missing fmt or data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise UnsupportedFormatError(f"{path}: compressed or non-PCM format {audio_format}")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: expected 16-bit samples, got {bits}")
    if sample_rate <= 0:
        raise CorruptHeaderError(f"{path}: invalid sample rate {sample_rate}")
    if len(payload) % 2 != 0:
        raise CorruptHeaderError(f"{path}: odd data-chunk size for 16-bit samples")

    return Waveform(from_pcm(np.frombuffer(payload, dtype="<i2")), sample_rate)


def from_pcm(pcm: np.ndarray) -> np.ndarray:
    """float64 samples of int16 PCM values, pcm * 2**-15: a power-of-two
    scale is exact, so this is pcm / 32768 bit for bit. A fresh array."""
    return np.multiply(pcm, 1.0 / INT16_SCALE, dtype=np.float64)


def to_pcm(samples: np.ndarray) -> np.ndarray:
    """The int16 PCM values of quantized samples (each an int16 step, as
    quantize and from_pcm give them), exact; from_pcm inverts it. The cast
    goes through a small buffer, so no second signal-length float array
    is made."""
    return np.multiply(samples, INT16_SCALE, out=np.empty(len(samples), "<i2"), casting="unsafe")


def quantize(samples: np.ndarray) -> np.ndarray:
    """The samples as write_wav stores them and read_wav gives them back:
    each scaled to int16 steps, rounded half to even and clamped to the
    int16 range, infinities included; a NaN stays NaN. Sample by sample,
    so the quantized concatenation of slices is the concatenation of the
    quantized slices. A fresh float64 array."""
    # Same values as clip(rint(clip(x, -1, 1) * 32768), -32768, 32767), in
    # one buffer: scaling first only moves |x| > 1 further past the clamp,
    # to inf at worst, which the clamp also takes.
    with np.errstate(over="ignore"):
        q = np.multiply(samples, INT16_SCALE)
    np.rint(q, out=q)
    np.clip(q, -32768.0, 32767.0, out=q)
    np.divide(q, INT16_SCALE, out=q)
    return np.add(q, 0.0, out=q)  # -0.0 + 0.0 is 0.0: a stored zero reads back unsigned


def write_wav(w: Waveform, path) -> Waveform:
    """Write a waveform as 16-bit mono PCM and return the waveform read_wav
    gives back for the file, quantize(w.samples). A NaN sample raises
    InvalidConfigError before anything is written."""
    heard = quantize(w.samples)
    if np.isnan(heard.sum()):  # after the clamp only a NaN sample makes the sum NaN
        raise InvalidConfigError(f"{path}: sample {np.flatnonzero(np.isnan(heard))[0]} is NaN")
    pcm = to_pcm(heard)
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate_hz)
        f.writeframes(pcm.tobytes())
    return Waveform(heard, w.sample_rate_hz)
