"""Deterministic synthetic multi-speaker corpus.

Each speaker is a formant profile: a base pitch plus three resonance
(center, bandwidth) pairs drawn from vowel-like ranges. Utterances run a
jittered sawtooth source through the cascade of two-pole resonators and
shape the result into syllable bursts, so the corpus has speaker
structure (stable formants, stable pitch) and utterance variability
(pitch wander, per-utterance formant drift, burst timing) without any
recorded data. Padding-style experiments need headroom, so waveforms are
peak-normalized to 0.5.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

from .audio_io import Waveform, write_wav
from .errors import DatasetTooSmallError, InvalidConfigError
from .manifest import UtteranceRecord, staged, write_manifest
from .metrics import Trials, write_trials
from .seeding import Rng, child_seed, make_rng
from .workers import worker_map

SAMPLE_RATE = 16000

_F0_RANGE = (80.0, 300.0)
_FORMANT_RANGES = ((260.0, 900.0), (950.0, 2350.0), (2450.0, 3500.0))
_BANDWIDTH_RANGES = ((60.0, 120.0), (80.0, 160.0), (100.0, 200.0))


@dataclass(frozen=True)
class SynthSpeakerProfile:
    speaker_id: str
    f0_hz: float
    formants: tuple  # ((center_hz, bandwidth_hz), ...) x3
    amplitude_jitter: float
    f0_jitter: float


def make_speaker(seed: int, speaker_id: str | None = None) -> SynthSpeakerProfile:
    """Sample a speaker profile deterministically from seed."""
    rng = make_rng(seed)
    f0 = rng.uniform(*_F0_RANGE)
    formants = tuple(
        (rng.uniform(*fr), rng.uniform(*br)) for fr, br in zip(_FORMANT_RANGES, _BANDWIDTH_RANGES)
    )
    return SynthSpeakerProfile(
        speaker_id=speaker_id if speaker_id is not None else f"spk{seed & 0xFFFFFFFF:08x}",
        f0_hz=f0,
        formants=formants,
        amplitude_jitter=rng.uniform(0.05, 0.2),
        f0_jitter=rng.uniform(0.02, 0.06),
    )


def _resonator_coeffs(center_hz: float, bandwidth_hz: float, sr: int):
    r = np.exp(-np.pi * bandwidth_hz / sr)
    return [1.0 - r], [1.0, -2.0 * r * np.cos(2.0 * np.pi * center_hz / sr), r * r]


def _syllable_envelope(n: int, jitter: float, rng: Rng, sr: int) -> np.ndarray:
    """Bursts of voicing with raised-cosine edges and short gaps."""
    edge = round(0.010 * sr)
    ramp = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, edge))
    env = np.zeros(n)
    pos = 0
    while pos < n:
        burst = round(rng.uniform(0.12, 0.26) * sr)
        gap = round(rng.uniform(0.05, 0.12) * sr)
        amp = max(0.2, 1.0 + jitter * rng.standard_normal())
        seg = np.full(burst, amp)
        seg[:edge] *= ramp
        seg[-edge:] *= ramp[::-1]
        env[pos : pos + burst] = seg[: max(0, n - pos)]
        pos += burst + gap
    return env


def synth_utterance(p: SynthSpeakerProfile, duration_s: float, rng: Rng) -> Waveform:
    """One utterance from a profile; different rng, different waveform."""
    if duration_s <= 0:
        raise InvalidConfigError(f"duration must be positive, got {duration_s}")
    sr = SAMPLE_RATE
    n = round(duration_s * sr)

    # Pitch contour: slow wander around a per-utterance base.
    base_f0 = p.f0_hz * (1.0 + rng.uniform(-0.08, 0.08))
    n_ctrl = max(2, n // (sr // 20) + 1)
    ctrl = rng.standard_normal(n_ctrl)
    wander = np.interp(np.arange(n), np.linspace(0, n - 1, n_ctrl), ctrl)
    f0_t = np.clip(base_f0 * (1.0 + p.f0_jitter * wander), 60.0, 350.0)

    phase = np.cumsum(f0_t / sr)
    source = 2.0 * np.mod(phase, 1.0) - 1.0

    y = source
    for center, bandwidth in p.formants:
        center = center * (1.0 + rng.uniform(-0.04, 0.04))  # per-utterance drift
        b, a = _resonator_coeffs(center, bandwidth, sr)
        y = lfilter(b, a, y)

    y = y * _syllable_envelope(n, p.amplitude_jitter, rng, sr)
    y = y + 1.5e-4 * rng.standard_normal(n)  # recording-floor noise
    peak = np.max(np.abs(y))
    return Waveform(0.5 * y / peak, sr)


def make_trials(records, rng: Rng):
    """All same-speaker pairs as targets plus an equal count of random
    cross-speaker non-targets."""
    by_speaker: dict = {}
    for r in records:
        by_speaker.setdefault(r.speaker_id, []).append(r.utt_id)
    enroll, test = [], []
    for utts in by_speaker.values():
        for i in range(len(utts)):
            for j in range(i + 1, len(utts)):
                enroll.append(utts[i])
                test.append(utts[j])
    n_target = len(enroll)
    if n_target == 0:
        raise DatasetTooSmallError("no same-speaker pairs; need >= 2 utterances for some speaker")
    ids = [r.utt_id for r in records]
    speaker_of = {r.utt_id: r.speaker_id for r in records}
    seen = set()
    while len(seen) < n_target:
        a, b = ids[int(rng.integers(len(ids)))], ids[int(rng.integers(len(ids)))]
        if speaker_of[a] == speaker_of[b] or (a, b) in seen:
            continue
        seen.add((a, b))
        enroll.append(a)
        test.append(b)
    return Trials(tuple(enroll), tuple(test), (True,) * n_target + (False,) * n_target)


def build_corpus(n_speakers: int, n_utts_per_speaker: int, duration_s: float, out_dir, seed: int):
    """Write WAVs, a manifest, and a trial list through one staged block,
    so a failed run leaves nothing; returns (records, trials)."""
    if n_speakers < 2:
        raise DatasetTooSmallError(f"need >= 2 speakers, got {n_speakers}")
    if n_utts_per_speaker < 1 or duration_s <= 0:
        raise InvalidConfigError("need n_utts_per_speaker >= 1 and positive duration")
    out_dir = Path(out_dir)
    profiles = [make_speaker(child_seed(seed, "speaker", i), f"spk{i:03d}") for i in range(n_speakers)]
    jobs = [
        (p, out_dir / "wav" / f"{p.speaker_id}_u{j:03d}.wav")
        for p in profiles
        for j in range(n_utts_per_speaker)
    ]

    with staged(*(path for _, path in jobs), out_dir / "manifest.tsv", out_dir / "trials.txt") as tmps:

        def one(job):
            (profile, path), tmp = job
            rng = make_rng(child_seed(seed, "utt", path.stem))
            dur = duration_s * rng.uniform(0.85, 1.2)
            w = synth_utterance(profile, dur, rng)
            write_wav(w, tmp)
            return UtteranceRecord(path.stem, profile.speaker_id, str(path), len(w), w.sample_rate_hz)

        records = worker_map(one, zip(jobs, tmps))
        write_manifest(records, tmps[-2])
        trials = make_trials(records, make_rng(child_seed(seed, "trials")))
        write_trials(trials, tmps[-1])
    return records, trials
