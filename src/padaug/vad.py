"""Energy voice-activity detection with hang-before/hangover smoothing.

Frames are non-overlapping 10 ms blocks. A frame is raw speech when its
log energy exceeds an adaptive threshold: a low percentile of the frame
energies (the noise-floor estimate) plus a dB offset. Raw speech runs
are then dilated backward by hang_before frames and forward by
hang_over frames so unvoiced onsets and trailing consonants survive.

This is an adaptive-threshold stand-in for GMM-style VADs; the hang
semantics match, the statistical model does not.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import InvalidConfigError, LengthMismatchError, TooShortError, UnsupportedFormatError
from .manifest import staged

_ENERGY_FLOOR = 1e-12  # keeps log energy finite on digital silence
FRAME_MS = 10.0


@dataclass(frozen=True)
class VadConfig:
    energy_offset_db: float = 9.0
    hang_before: int = 10
    hang_over: int = 20
    floor_percentile: float = 0.1

    def __post_init__(self):
        if self.hang_before < 0 or self.hang_over < 0:
            raise InvalidConfigError("hang_before and hang_over must be >= 0")
        if not 0.0 < self.floor_percentile < 1.0:
            raise InvalidConfigError(f"floor_percentile must be in (0, 1), got {self.floor_percentile}")


@dataclass
class SpeechMask:
    flags: np.ndarray  # bool per frame
    frame_samples: int

    def __post_init__(self):
        self.flags = np.asarray(self.flags, dtype=bool)
        if self.flags.ndim != 1:
            raise InvalidConfigError("mask flags must be 1-D")


def _dilate(raw: np.ndarray, before: int, after: int) -> np.ndarray:
    """Extend every true run backward `before` and forward `after` frames."""
    out = raw.copy()
    edges = np.flatnonzero(np.diff(np.concatenate(([False], raw, [False])).astype(np.int8)))
    for start, end in zip(edges[::2], edges[1::2]):
        out[max(0, start - before) : end + after] = True
    return out


def detect(w: Waveform, cfg: VadConfig = VadConfig()) -> SpeechMask:
    """Per-frame speech decisions for w."""
    step = round(FRAME_MS * w.sample_rate_hz / 1000.0)
    if step == 0:
        raise UnsupportedFormatError(
            f"sample rate {w.sample_rate_hz} Hz gives a {FRAME_MS:g} ms frame of 0 samples; the VAD needs > 50 Hz"
        )
    nf = len(w) // step
    if nf < 1:
        raise TooShortError(f"need at least {step} samples for one frame, got {len(w)}")
    frames = w.samples[: nf * step].reshape(nf, step)
    energy_db = 10.0 * np.log10(np.maximum(np.mean(np.square(frames), axis=1), _ENERGY_FLOOR))
    threshold = np.quantile(energy_db, cfg.floor_percentile) + cfg.energy_offset_db
    raw = energy_db > threshold
    return SpeechMask(_dilate(raw, cfg.hang_before, cfg.hang_over), step)


def drop_silence(w: Waveform, mask: SpeechMask) -> Waveform:
    """Concatenate the samples of true frames, preserving order.

    The trailing partial frame (fewer than frame_samples samples) follows
    the decision of the last full frame. A mask that keeps no frame
    returns w unchanged: a VAD that finds no speech keeps the original.
    """
    step = mask.frame_samples
    nf = len(w) // step
    if nf != len(mask.flags):
        raise LengthMismatchError(f"mask has {len(mask.flags)} frames, waveform has {nf}")
    if not mask.flags.any():
        return w
    keep = np.repeat(mask.flags, step)
    tail = len(w) - nf * step
    if tail:
        keep = np.concatenate([keep, np.full(tail, mask.flags[-1])])
    return Waveform(w.samples[keep].copy(), w.sample_rate_hz)


# Mask dump: one line per utterance, "<utt_id>\t<'0'/'1' per frame>".


def write_mask_dump(path, items) -> None:
    with staged(path) as (tmp,), open(tmp, "w", encoding="utf-8") as f:
        for utt_id, mask in items:
            bits = "".join("1" if v else "0" for v in mask.flags)
            f.write(f"{utt_id}\t{bits}\n")
