from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padaug.audio_io import Waveform
from padaug.augment import (
    PadAugConfig,
    PaddingLayout,
    assemble,
    loop_pad,
    pad_aug_utterance,
    random_chunk,
    sample_layout,
    wgn_like,
)
from padaug.errors import (
    InvalidConfigError,
    LengthMismatchError,
    SilentReferenceError,
    TooShortError,
)
from padaug.seeding import make_rng

SR = 16000


def speech(n, seed=0):
    return Waveform(0.3 * np.sin(2 * np.pi * 220 / SR * np.arange(n)) + 0.05 * make_rng(seed).standard_normal(n), SR)


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        PadAugConfig(t_min=0, t_max=10)
    with pytest.raises(InvalidConfigError):
        PadAugConfig(t_min=11, t_max=10)
    with pytest.raises(InvalidConfigError):
        PadAugConfig(t_min=1, t_max=10, snr_min_db=20, snr_max_db=10)


def test_layout_conservation():
    rng = make_rng(1)
    cfg = PadAugConfig(t_min=100, t_max=700, use_mid=True)
    for _ in range(500):
        lo = sample_layout(cfg, rng)
        assert lo.l_head + lo.l_mid + lo.l_tail == cfg.t_max - lo.t_s
        assert cfg.t_min <= lo.t_s <= cfg.t_max
        assert min(lo.l_head, lo.l_mid, lo.l_tail) >= 0
        assert 0 <= lo.p_mid <= lo.t_s
        assert lo.snr_db == int(lo.snr_db) and 15 <= lo.snr_db <= 30


def test_layout_no_mid_without_flag():
    rng = make_rng(2)
    cfg = PadAugConfig(t_min=100, t_max=700, use_mid=False)
    assert all(sample_layout(cfg, rng).l_mid == 0 for _ in range(300))


def test_layout_degenerate_range():
    lo = sample_layout(PadAugConfig(t_min=400, t_max=400), make_rng(3))
    assert lo.t_s == 400 and lo.l_head == lo.l_mid == lo.l_tail == 0


def test_layout_mean_chunk_length():
    # uniform law over [16000, 48000]: mean within 1% of 32000
    rng = make_rng(4)
    cfg = PadAugConfig(t_min=16000, t_max=48000)
    mean = np.mean([sample_layout(cfg, rng).t_s for _ in range(100_000)])
    assert abs(mean - 32000) < 320


def test_no_integer_snr_in_range():
    cfg = PadAugConfig(t_min=1, t_max=2, snr_min_db=20.2, snr_max_db=20.8)
    with pytest.raises(InvalidConfigError):
        sample_layout(cfg, make_rng(0))


def test_random_chunk_membership():
    # every chunk is literally a slice of the source at some offset
    x = speech(48000)
    rng = make_rng(5)
    for _ in range(50):
        c = random_chunk(x, 16000, rng)
        assert len(c) == 16000
        hits = [o for o in range(0, 32001, 1) if x.samples[o] == c.samples[0]]
        assert any(np.array_equal(x.samples[o : o + 16000], c.samples) for o in hits)


def test_random_chunk_edges():
    x = speech(1000)
    assert np.array_equal(random_chunk(x, 1000, make_rng(0)).samples, x.samples)
    assert len(random_chunk(x, 0, make_rng(0))) == 0
    with pytest.raises(TooShortError):
        random_chunk(x, 1001, make_rng(0))


def test_wgn_power_calibration():
    x = Waveform(np.sin(2 * np.pi * 440 / SR * np.arange(SR)), SR)  # P_x = 0.5
    n = wgn_like(x, 10.0, 100_000, make_rng(6))
    assert abs(np.mean(n.samples**2) - 0.05) < 0.001  # within 2%
    n0 = wgn_like(x, 0.0, 100_000, make_rng(7))
    p_x = np.mean(x.samples**2)
    assert abs(np.mean(n0.samples**2) - p_x) < 0.02 * p_x


def test_wgn_edge_cases():
    x = speech(2000)
    assert len(wgn_like(x, 20.0, 0, make_rng(0))) == 0
    silent = Waveform(np.zeros(2000), SR)
    with pytest.raises(SilentReferenceError):
        wgn_like(silent, 20.0, 10, make_rng(0))
    floored = wgn_like(silent, 20.0, 1000, make_rng(0), variance_floor=1e-10)
    assert np.all(np.isfinite(floored.samples))
    assert np.mean(floored.samples**2) < 1e-8


def test_assemble_identity_and_head_only():
    x = speech(500)
    lo = PaddingLayout(t_s=500, l_head=0, l_mid=0, l_tail=0, p_mid=250, snr_db=20)
    out = assemble(x, lo, Waveform(np.zeros(0), SR))
    assert np.array_equal(out.samples, x.samples)

    noise = wgn_like(x, 20.0, 300, make_rng(8))
    lo = PaddingLayout(t_s=500, l_head=300, l_mid=0, l_tail=0, p_mid=0, snr_db=20)
    out = assemble(x, lo, noise)
    assert np.array_equal(out.samples[:300], noise.samples)
    assert np.array_equal(out.samples[300:], x.samples)


def test_assemble_length_mismatch():
    x = speech(500)
    lo = PaddingLayout(t_s=400, l_head=10, l_mid=0, l_tail=0, p_mid=0, snr_db=20)
    with pytest.raises(LengthMismatchError):
        assemble(x, lo, Waveform(np.zeros(10), SR))
    lo = PaddingLayout(t_s=500, l_head=10, l_mid=0, l_tail=0, p_mid=0, snr_db=20)
    with pytest.raises(LengthMismatchError):
        assemble(x, lo, Waveform(np.zeros(9), SR))


@st.composite
def hand_layouts(draw):
    """Any layout assemble accepts, drawn field by field, not by sample_layout."""
    t_s = draw(st.integers(0, 400))
    return PaddingLayout(t_s=t_s, l_head=draw(st.integers(0, 300)), l_mid=draw(st.integers(0, 300)),
                         l_tail=draw(st.integers(0, 300)), p_mid=draw(st.integers(0, t_s)), snr_db=20.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lo=hand_layouts(), k=st.integers(1, 50), seed=st.integers(0, 2**32 - 1))
def test_assemble_on_hand_made_layouts(lo, k, seed):
    rng = make_rng(seed)
    chunk = Waveform(rng.standard_normal(lo.t_s), SR)
    noise = Waveform(rng.standard_normal(lo.l_pad), SR)
    y = assemble(chunk, lo, noise).samples
    x, n = chunk.samples, noise.samples
    head, mid, p = lo.l_head, lo.l_mid, lo.p_mid
    assert len(y) == lo.t_s + lo.l_pad
    # speech in two slices around the mid noise, unmodified
    assert np.array_equal(y[head : head + p], x[:p])
    assert np.array_equal(y[head + p + mid : head + mid + lo.t_s], x[p:])
    # head, mid and tail noise, taken from the noise in that order
    assert np.array_equal(y[:head], n[:head])
    assert np.array_equal(y[head + p : head + p + mid], n[head : head + mid])
    assert np.array_equal(y[head + mid + lo.t_s :], n[head + mid :])

    # one bad field at a time; a negative length keeps l_pad, so only
    # the sign check can catch it
    bad = [(replace(lo, p_mid=-k), chunk, noise), (replace(lo, p_mid=lo.t_s + k), chunk, noise)]
    for field, other in (("l_head", "l_tail"), ("l_mid", "l_head"), ("l_tail", "l_mid")):
        moved = getattr(lo, other) + getattr(lo, field) + k
        bad.append((replace(lo, **{field: -k, other: moved}), chunk, noise))
    for t in (lo.t_s - k, lo.t_s + k):
        if t >= 0:
            bad.append((lo, Waveform(np.zeros(t), SR), noise))
    for t in (lo.l_pad - k, lo.l_pad + k):
        if t >= 0:
            bad.append((lo, chunk, Waveform(np.zeros(t), SR)))
    for layout, c, z in bad:
        with pytest.raises(LengthMismatchError):
            assemble(c, layout, z)


def test_reconstruction_oracle():
    # removing the noise index ranges recovers the chunk bit-exactly
    rng = make_rng(9)
    x = speech(40000)
    for use_mid in (False, True):
        cfg = PadAugConfig(t_min=5000, t_max=20000, use_mid=use_mid)
        for _ in range(30):
            out = pad_aug_utterance(x, cfg, rng)
            (a0, a1), (b0, b1) = out.speech_index_ranges()
            rebuilt = np.concatenate([out.waveform.samples[a0:a1], out.waveform.samples[b0:b1]])
            assert np.array_equal(rebuilt, out.chunk.samples)
            assert len(out.waveform) == cfg.t_max


def test_loop_pad():
    x = speech(300)
    assert loop_pad(x, 200) is x
    p = loop_pad(x, 1000)
    assert len(p) == 1000
    assert np.array_equal(p.samples[:300], x.samples)
    assert np.array_equal(p.samples[300:600], x.samples)
    with pytest.raises(TooShortError):
        loop_pad(Waveform(np.zeros(0), SR), 10)


def test_short_input_still_reaches_t_max():
    out = pad_aug_utterance(speech(1200), PadAugConfig(t_min=5000, t_max=9000), make_rng(10))
    assert len(out.waveform) == 9000


@st.composite
def pad_configs(draw):
    """Any config sample_layout accepts: its SNR range holds an integer."""
    t_max = draw(st.integers(1, 2000))
    snr = draw(st.integers(-10, 40))
    return PadAugConfig(t_min=draw(st.integers(1, t_max)), t_max=t_max,
                        snr_min_db=snr - draw(st.floats(0.0, 5.0)), snr_max_db=snr + draw(st.floats(0.0, 15.0)),
                        use_mid=draw(st.booleans()))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=pad_configs(), seed=st.integers(0, 2**64 - 1), n=st.integers(1, 3000))
def test_layout_and_output_properties(cfg, seed, n):
    lo = sample_layout(cfg, make_rng(seed))
    assert cfg.t_min <= lo.t_s <= cfg.t_max
    assert lo.l_head + lo.l_mid + lo.l_tail == cfg.t_max - lo.t_s
    assert min(lo.l_head, lo.l_mid, lo.l_tail) >= 0
    assert cfg.use_mid or lo.l_mid == 0
    assert 0 <= lo.p_mid <= lo.t_s

    aug = pad_aug_utterance(speech(n, seed), cfg, make_rng(seed))
    assert aug.layout == lo  # the pipeline draws its layout first
    assert len(aug.waveform) == cfg.t_max
    y = aug.waveform.samples
    (a1, b1), (a2, b2) = aug.speech_index_ranges()
    assert np.array_equal(np.concatenate([y[a1:b1], y[a2:b2]]), aug.chunk.samples)
