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


def _frame_samples(w: Waveform) -> int:
    """Samples per FRAME_MS frame at w's sample rate."""
    step = round(FRAME_MS * w.sample_rate_hz / 1000.0)
    if step == 0:
        raise UnsupportedFormatError(
            f"sample rate {w.sample_rate_hz} Hz gives a {FRAME_MS:g} ms frame of 0 samples; the VAD needs > 50 Hz"
        )
    return step


def _dilate(raw: np.ndarray, before: int, after: int) -> np.ndarray:
    """Extend every true run backward `before` and forward `after` frames."""
    out = raw.copy()
    edges = np.flatnonzero(np.diff(np.concatenate(([False], raw, [False])).astype(np.int8)))
    for start, end in zip(edges[::2], edges[1::2]):
        out[max(0, start - before) : end + after] = True
    return out


def detect(w: Waveform, cfg: VadConfig = VadConfig()) -> np.ndarray:
    """Speech decisions for w: a 1-D bool array, one per FRAME_MS frame."""
    step = _frame_samples(w)
    nf = len(w) // step
    if nf < 1:
        raise TooShortError(f"need at least {step} samples for one frame, got {len(w)}")
    frames = w.samples[: nf * step].reshape(nf, step)
    energy_db = 10.0 * np.log10(np.maximum(np.mean(np.square(frames), axis=1), _ENERGY_FLOOR))
    threshold = np.quantile(energy_db, cfg.floor_percentile) + cfg.energy_offset_db
    raw = energy_db > threshold
    return _dilate(raw, cfg.hang_before, cfg.hang_over)


def drop_silence(w: Waveform, flags: np.ndarray) -> Waveform:
    """Concatenate the samples of the frames whose flag is true, in order.

    flags holds one bool per FRAME_MS frame of w, as detect returns. The
    trailing partial frame follows the decision of the last full frame.
    Flags that keep no frame return w unchanged: a VAD that finds no
    speech keeps the original.
    """
    step = _frame_samples(w)
    nf = len(w) // step
    flags = np.asarray(flags, dtype=bool)
    if flags.shape != (nf,):
        raise LengthMismatchError(f"mask has shape {flags.shape}, waveform has {nf} frames")
    if not flags.any():
        return w
    keep = np.repeat(flags, step)
    tail = len(w) - nf * step
    if tail:
        keep = np.concatenate([keep, np.full(tail, flags[-1])])
    return Waveform(w.samples[keep].copy(), w.sample_rate_hz)


def write_mask_dump(path, items) -> None:
    """One line per (utt_id, flags) pair: the id, a tab, then a 0 or 1 per frame."""
    with staged(path) as (tmp,), open(tmp, "w", encoding="utf-8") as f:
        for utt_id, flags in items:
            bits = "".join("1" if v else "0" for v in flags)
            f.write(f"{utt_id}\t{bits}\n")
