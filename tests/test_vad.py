import numpy as np
import pytest

from padaug.audio_io import Waveform
from padaug.errors import InvalidConfigError, LengthMismatchError, TooShortError, UnsupportedFormatError
from padaug.seeding import make_rng
from padaug.vad import VadConfig, detect, drop_silence, write_mask_dump

SR = 16000
STEP = 160


def tone_silence_tone(level_gap_db=40.0):
    """1 s tone, 1 s near-silence, 1 s tone; returns waveform and frame truth."""
    t = np.arange(SR)
    loud = 0.4 * np.sin(2 * np.pi * 300 / SR * t)
    quiet_amp = 0.4 * 10 ** (-level_gap_db / 20)
    quiet = quiet_amp * make_rng(0).standard_normal(SR)
    w = Waveform(np.concatenate([loud, quiet, loud]), SR)
    truth = np.concatenate([np.ones(100), np.zeros(100), np.ones(100)]).astype(bool)
    return w, truth


def test_all_zero_input_all_false():
    mask = detect(Waveform(np.zeros(SR), SR))
    assert not mask.any()
    assert len(mask) == 100


def test_constructed_boundaries():
    w, truth = tone_silence_tone()
    cfg = VadConfig()
    mask = detect(w, cfg)
    # every true speech frame retained
    assert mask[truth].all()
    # the silence interior beyond the hang windows is mostly rejected
    interior = np.zeros_like(truth)
    interior[100 + cfg.hang_over : 200 - cfg.hang_before] = True
    dropped = (~mask[interior]).mean()
    assert dropped >= 0.8


def test_hang_over_extends_only_forward():
    w, _ = tone_silence_tone()
    short = detect(w, VadConfig(hang_over=0, hang_before=0))
    long = detect(w, VadConfig(hang_over=20, hang_before=0))
    grew = long & ~short
    # growth only in the 20 frames after a raw speech run
    runs = np.flatnonzero(np.diff(np.concatenate(([False], short, [False])).astype(int)))
    ends = runs[1::2]
    allowed = np.zeros_like(long)
    for e in ends:
        allowed[e : e + 20] = True
    assert not (grew & ~allowed).any()


def test_dilation_monotone_in_hang_over():
    w, _ = tone_silence_tone(level_gap_db=20.0)
    prev = detect(w, VadConfig(hang_over=0))
    for hang in (5, 10, 30):
        cur = detect(w, VadConfig(hang_over=hang))
        assert (cur | prev).tolist() == cur.tolist()  # superset
        prev = cur


def test_detect_too_short():
    with pytest.raises(TooShortError):
        detect(Waveform(np.zeros(100), SR))


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        VadConfig(hang_before=-1)
    with pytest.raises(InvalidConfigError):
        VadConfig(floor_percentile=1.0)


def test_drop_silence_counting():
    w = Waveform(make_rng(1).standard_normal(10 * STEP + 37), SR)
    flags = np.array([True, False] * 5)
    out = drop_silence(w, flags)
    # 5 true frames, plus the trailing 37 samples following the last frame (False)
    assert len(out) == 5 * STEP
    rebuilt = np.concatenate([w.samples[i * STEP : (i + 1) * STEP] for i in range(10) if flags[i]])
    assert np.array_equal(out.samples, rebuilt)


def test_drop_silence_trailing_partial_follows_last_frame():
    w = Waveform(make_rng(2).standard_normal(4 * STEP + 50), SR)
    out = drop_silence(w, np.array([False, True, False, True]))
    assert len(out) == 2 * STEP + 50
    assert np.array_equal(out.samples[-50:], w.samples[-50:])


def test_drop_silence_identity_and_errors():
    w = Waveform(make_rng(3).standard_normal(6 * STEP), SR)
    out = drop_silence(w, np.ones(6, dtype=bool))
    assert np.array_equal(out.samples, w.samples)
    assert drop_silence(w, np.zeros(6, dtype=bool)) is w  # no speech: keep the input
    for shape in ((5,), (7,), (6, 1), (1, 6), ()):  # one flag per frame, 1-D
        with pytest.raises(LengthMismatchError):
            drop_silence(w, np.ones(shape, dtype=bool))


def test_drop_silence_rate_too_low_to_frame():
    # at 50 Hz the 10 ms frame rounds to 0 samples, for drop_silence as for detect
    w = Waveform(0.1 * np.sin(np.arange(400)), 50)
    with pytest.raises(UnsupportedFormatError):
        detect(w)
    with pytest.raises(UnsupportedFormatError):
        drop_silence(w, np.ones(0, dtype=bool))


def test_mask_dump_text(tmp_path):
    masks = [
        ("a", np.array([True, False, True])),
        ("b", np.zeros(5, dtype=bool)),
    ]
    write_mask_dump(tmp_path / "m.txt", masks)
    assert (tmp_path / "m.txt").read_bytes() == b"a\t101\nb\t00000\n"
