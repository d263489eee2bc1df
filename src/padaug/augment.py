"""Silence-padding augmentation (PadAug).

Each utterance is cut to a random chunk of T_s samples (T_s uniform over
[t_min, t_max]) and padded back to exactly t_max with white Gaussian
noise placed at the head, optionally inside the speech at a random split
point, and at the tail. Noise power is set relative to the chunk's mean
squared sample at an integer SNR drawn from [snr_min_db, snr_max_db].

Two position strategies exist: head-tail (HT, use_mid=False) and
head-mid-tail (HMT, use_mid=True). All sampled quantities for one
utterance are collected in a PaddingLayout so callers can reconstruct
exactly which output samples are speech and which are padding.
"""

from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform
from .errors import (
    InvalidConfigError,
    LengthMismatchError,
    SilentReferenceError,
    TooShortError,
)
from .seeding import Rng, randint

# Noise variance pad_aug_utterance uses for digitally-silent inputs, where
# erroring out on one utterance would abort a whole training batch.
SILENT_VARIANCE_FLOOR = 1e-10


@dataclass(frozen=True)
class PadAugConfig:
    """Sampling bounds for the augmentation, all durations in samples."""

    t_min: int
    t_max: int
    snr_min_db: float = 15.0
    snr_max_db: float = 30.0
    use_mid: bool = False

    def __post_init__(self):
        if self.t_min <= 0 or self.t_min > self.t_max:
            raise InvalidConfigError(f"need 0 < t_min <= t_max, got ({self.t_min}, {self.t_max})")
        if self.snr_min_db > self.snr_max_db:
            raise InvalidConfigError(f"need snr_min_db <= snr_max_db, got ({self.snr_min_db}, {self.snr_max_db})")


@dataclass(frozen=True)
class PaddingLayout:
    """All sampled quantities for one utterance.

    l_head + l_mid + l_tail always equals t_max - t_s, so assembling a
    t_s-sample chunk under this layout yields exactly t_max samples.
    """

    t_s: int
    l_head: int
    l_mid: int
    l_tail: int
    p_mid: int
    snr_db: float

    @property
    def l_pad(self) -> int:
        return self.l_head + self.l_mid + self.l_tail

    def pieces(self):
        """The (source, start, stop) slices assemble concatenates, in order:
        source 0 is the noise, 1 the speech chunk."""
        h, m = self.l_head, self.l_head + self.l_mid
        return ((0, 0, h), (1, 0, self.p_mid), (0, h, m), (1, self.p_mid, self.t_s), (0, m, self.l_pad))


@dataclass
class AugmentedUtterance:
    """Augmented output plus the bookkeeping to audit it."""

    waveform: Waveform
    layout: PaddingLayout
    chunk: Waveform

    def speech_index_ranges(self):
        """Index ranges of the output occupied by (unmodified) speech."""
        lo = self.layout
        first = (lo.l_head, lo.l_head + lo.p_mid)
        second_start = lo.l_head + lo.p_mid + lo.l_mid
        second = (second_start, second_start + lo.t_s - lo.p_mid)
        return first, second


def sample_layout(cfg: PadAugConfig, rng: Rng) -> PaddingLayout:
    """Draw one padding layout: chunk length, segment lengths, split, SNR."""
    t_s = randint(rng, cfg.t_min, cfg.t_max)
    l_pad = cfg.t_max - t_s
    l_head = randint(rng, 0, l_pad)
    if cfg.use_mid:
        l_mid = randint(rng, 0, l_pad - l_head)
        l_tail = l_pad - l_head - l_mid
    else:
        l_mid = 0
        l_tail = l_pad - l_head
    snr_lo = int(np.ceil(cfg.snr_min_db))
    snr_hi = int(np.floor(cfg.snr_max_db))
    if snr_hi < snr_lo:
        raise InvalidConfigError(f"no integer SNR in [{cfg.snr_min_db}, {cfg.snr_max_db}] dB")
    snr_db = float(randint(rng, snr_lo, snr_hi))
    p_mid = randint(rng, 0, t_s)
    return PaddingLayout(t_s=t_s, l_head=l_head, l_mid=l_mid, l_tail=l_tail, p_mid=p_mid, snr_db=snr_db)


def random_chunk(x: Waveform, t_s: int, rng: Rng) -> Waveform:
    """Contiguous slice of length t_s at a uniform random offset."""
    if t_s < 0:
        raise InvalidConfigError(f"negative chunk length {t_s}")
    if len(x) < t_s:
        raise TooShortError(f"waveform has {len(x)} samples, need {t_s}")
    offset = randint(rng, 0, len(x) - t_s)
    return Waveform(x.samples[offset : offset + t_s].copy(), x.sample_rate_hz)


def wgn_like(x_chunk: Waveform, snr_db: float, n_len: int, rng: Rng, variance_floor: float | None = None) -> Waveform:
    """White Gaussian noise whose power sits snr_db below the chunk's power.

    Power is the mean squared sample of x_chunk; the noise variance is
    P_x / 10**(snr_db / 10). A silent reference is an error unless a
    variance_floor is supplied (pad_aug_utterance passes one).
    """
    if n_len < 0:
        raise InvalidConfigError(f"negative noise length {n_len}")
    if n_len == 0:
        return Waveform(np.zeros(0), x_chunk.sample_rate_hz)
    p_x = float(np.mean(np.square(x_chunk.samples))) if len(x_chunk) else 0.0
    if p_x <= 0.0:
        if variance_floor is None:
            raise SilentReferenceError("reference chunk has zero power; noise variance undefined")
        variance = variance_floor
    else:
        variance = p_x / (10.0 ** (snr_db / 10.0))
    noise = np.sqrt(variance) * rng.standard_normal(n_len)
    return Waveform(noise, x_chunk.sample_rate_hz)


def assemble(x_chunk: Waveform, layout: PaddingLayout, n: Waveform) -> Waveform:
    """Concatenate head noise, split speech, mid noise, tail noise.

    Speech samples stay in order and unmodified; total length is
    layout.t_s + layout.l_pad.
    """
    if len(x_chunk) != layout.t_s:
        raise LengthMismatchError(f"chunk has {len(x_chunk)} samples, layout says {layout.t_s}")
    if len(n) != layout.l_pad:
        raise LengthMismatchError(f"noise has {len(n)} samples, layout needs {layout.l_pad}")
    if min(layout.l_head, layout.l_mid, layout.l_tail) < 0:
        raise LengthMismatchError("negative segment length in layout")
    if not 0 <= layout.p_mid <= layout.t_s:
        raise LengthMismatchError(f"split point {layout.p_mid} outside [0, {layout.t_s}]")
    sources = (n.samples, x_chunk.samples)
    out = np.concatenate([sources[s][a:b] for s, a, b in layout.pieces()])
    return Waveform(out, x_chunk.sample_rate_hz)


def loop_pad(x: Waveform, min_len: int) -> Waveform:
    """Repeat the waveform until it is at least min_len samples long."""
    if len(x) >= min_len:
        return x
    if len(x) == 0:
        raise TooShortError("cannot loop-pad an empty waveform")
    reps = -(-min_len // len(x))
    return Waveform(np.tile(x.samples, reps)[:min_len], x.sample_rate_hz)


def pad_aug_utterance(x: Waveform, cfg: PadAugConfig, rng: Rng) -> AugmentedUtterance:
    """Run the full per-utterance pipeline: layout, chunk, noise, assemble.

    Inputs shorter than the sampled chunk length are loop-padded first,
    so any non-empty input yields an output of exactly cfg.t_max samples.
    """
    layout = sample_layout(cfg, rng)
    chunk = random_chunk(loop_pad(x, layout.t_s), layout.t_s, rng)
    noise = wgn_like(chunk, layout.snr_db, layout.l_pad, rng, variance_floor=SILENT_VARIANCE_FLOOR)
    return AugmentedUtterance(waveform=assemble(chunk, layout, noise), layout=layout, chunk=chunk)

