import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padaug.features
from padaug.audio_io import Waveform
from padaug.errors import CorruptHeaderError, InvalidConfigError, TooShortError
from padaug.features import (
    HOP_MS,
    LOG_FLOOR,
    N_MELS,
    PREEMPHASIS,
    WIN_MS,
    FeatureMatrix,
    chunk_frames,
    cmn,
    fbank,
    fbank_pieces,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
    read_feature_dump,
    read_feature_index,
    write_feature_dump,
)
from padaug.seeding import make_rng
from padaug.workers import worker_map

SR = 16000


def tone(freq, seconds=3.0, amp=0.5):
    n = round(seconds * SR)
    return Waveform(amp * np.sin(2 * np.pi * freq / SR * np.arange(n)), SR)


def fbank_ref(w):
    """The uncached fbank: fancy-index framing, a fresh Hamming window and a
    freshly built filterbank on every call."""
    sr = w.sample_rate_hz
    win = round(WIN_MS * sr / 1000.0)
    hop = round(HOP_MS * sr / 1000.0)
    x = w.samples
    pre = np.empty_like(x)
    pre[0] = x[0]
    pre[1:] = x[1:] - PREEMPHASIS * x[:-1]

    nf = 1 + (len(x) - win) // hop
    idx = np.arange(win)[None, :] + hop * np.arange(nf)[:, None]
    frames = pre[idx] * np.hamming(win)

    n_fft = 1 << (win - 1).bit_length()
    power = np.abs(np.fft.rfft(frames, n=n_fft, axis=1)) ** 2
    energies = power @ mel_filterbank.__wrapped__(N_MELS, n_fft, sr).T
    return FeatureMatrix(np.log(np.maximum(energies, LOG_FLOOR)))


def test_frame_count_formula():
    # brute-force oracle: slide a 400-window by 160 until it falls off
    for n in (400, 401, 559, 560, 561, 48000, 48159, 48160):
        expected = 0
        start = 0
        while start + 400 <= n:
            expected += 1
            start += 160
        assert fbank(Waveform(np.ones(n), SR)).frames == expected


# Sample counts: 400, 401, 3 s, 4 s + 17 and 11 s at each rate; the share
# of the samples, in percent, silenced at the head and tail as padding
# leaves them; and the stddev of a noise floor added over the whole input
# (0.0 keeps the silence digital, so frames inside it hit LOG_FLOOR).
REF_CASES = [(sr, n, pad_pct, floor)
             for sr in (8000, 16000)
             for n in (400, 401, 3 * sr, 4 * sr + 17, 11 * sr)
             for pad_pct in (1, 40, 80)
             for floor in (0.0, 1e-3)]


@pytest.mark.parametrize("sr, n, pad_pct, floor", REF_CASES)
def test_fbank_matches_reference(sr, n, pad_pct, floor):
    rng = make_rng(n + sr)
    x = 0.3 * rng.standard_normal(n) + 0.2 * np.sin(2 * np.pi * 440.0 / sr * np.arange(n))
    edge = n * pad_pct // 200
    x[:edge] = 0.0
    x[n - edge :] = 0.0
    w = Waveform(x + floor * make_rng(5).standard_normal(n), sr)
    got = fbank(w).values
    assert np.array_equal(got, fbank_ref(w).values)
    if floor == 0.0 and edge >= round(WIN_MS * sr / 1000.0):
        assert np.all(got[0] == np.log(LOG_FLOOR))


def test_cached_constants_are_shared_read_only(monkeypatch):
    fb = mel_filterbank(80, 512, SR)
    assert mel_filterbank(80, 512, SR) is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    # two threads filling the emptied caches at once still match the oracle
    mel_filterbank.cache_clear()
    monkeypatch.setenv("PADAUG_THREADS", "2")
    waves = [Waveform(make_rng(i).standard_normal(SR * (1 + i % 3)), SR) for i in range(8)]
    got = worker_map(lambda w: fbank(w).values, waves)
    assert all(np.array_equal(g, fbank_ref(w).values) for g, w in zip(got, waves))


def noisy(sr, n, seed=0):
    return Waveform(0.3 * make_rng(seed).standard_normal(n), sr)


def test_scratch_reuse_matches_reference():
    # One thread, so every call reuses the same scratch. 12 kHz has win 300
    # but the same n_fft 512 as 16 kHz (win 400): scratch kept across that
    # switch would feed the previous rate's samples in columns [300:400].
    calls = [(16000, 11 * 16000), (16000, 400), (12000, 3 * 12000), (16000, 3 * 16000)]
    for i, (sr, n) in enumerate(calls):
        w = noisy(sr, n, seed=i)
        assert np.array_equal(fbank(w).values, fbank_ref(w).values), (sr, n)


def test_result_does_not_alias_scratch():
    a = fbank(noisy(SR, 3 * SR, seed=1))
    saved = a.values.copy()
    fbank(noisy(SR, 3 * SR, seed=2))
    assert np.array_equal(a.values, saved)


def test_threads_keep_their_own_scratch(monkeypatch):
    # Runs of one rate with falling lengths, so that the threads reuse their
    # scratch rather than remake it; one buffer shared by both would race.
    monkeypatch.setenv("PADAUG_THREADS", "2")
    waves = [noisy(sr, sr * 3 - 997 * j, seed=j) for sr in (16000, 12000, 8000) for j in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = worker_map(lambda w: fbank(w).values, waves)
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(g, fbank_ref(w).values) for g, w in zip(got, waves))


HOP = round(HOP_MS * SR / 1000.0)
WIN = round(WIN_MS * SR / 1000.0)


@st.composite
def spliced(draw):
    """A source of 2800-8000 samples (16-48 frames) and up to two more,
    shorter than a frame or as long, and 1-2 outputs of 1-5 pieces each:
    slices that start at 0, on the hop grid or anywhere, and are empty,
    shorter than a frame, a whole number of hops, of any length or the
    rest of the source, each source free to be taken again. Most outputs
    that come out shorter than a frame get the first source whole."""
    rng = make_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = [draw(st.integers(WIN + 15 * HOP, 8000))]
    lengths += draw(st.lists(st.one_of(st.integers(1, WIN - 1), st.integers(WIN + 15 * HOP, 8000)), max_size=2))
    sources = [Waveform(draw(st.sampled_from([0.0, 1e-6, 0.3, 2.0])) * rng.standard_normal(n), SR) for n in lengths]

    def piece():
        s = draw(st.integers(0, len(sources) - 1))
        n = len(sources[s])
        room = max(n - WIN, 0)  # starts that leave a frame, where the source has one
        a = draw(st.one_of(st.just(0), st.integers(0, room // HOP).map(lambda i: i * HOP), st.integers(0, room)))
        grid = st.integers(0, (n - a) // HOP).map(lambda i: i * HOP)
        length = draw(st.one_of(st.just(0), st.integers(1, WIN - 1), grid, grid, st.integers(0, n - a), st.just(n - a)))
        return s, a, min(n, a + length)

    outputs = []
    for _ in range(draw(st.integers(1, 2))):
        pieces = [piece() for _ in range(draw(st.integers(1, 5)))]
        if sum(b - a for _, a, b in pieces) < WIN and draw(st.integers(0, 3)):  # keep a quarter too short
            pieces.insert(draw(st.integers(0, len(pieces))), (0, 0, lengths[0]))
        outputs.append(pieces)
    return sources, outputs


@settings(max_examples=100, deadline=None)
@given(case=spliced())
def test_fbank_pieces_equals_fbank_of_the_concatenation(case):
    sources, outputs = case
    joined = [Waveform(np.concatenate([sources[s].samples[a:b] for s, a, b in pieces]), SR) for pieces in outputs]
    short = [w for w in joined if len(w) < WIN]
    if short:
        with pytest.raises(TooShortError) as want:
            fbank(short[0])
        with pytest.raises(TooShortError, match=f"^{want.value}$"):
            fbank_pieces(sources, outputs)
        return
    got = fbank_pieces(sources, outputs)
    assert len(got) == len(outputs)
    for g, w in zip(got, joined):
        assert g.values.dtype == np.float64
        assert np.array_equal(g.values, fbank(w).values)


@pytest.mark.parametrize("n_boundary", range(1, 16))
def test_fbank_pieces_computes_each_distinct_frame_once(monkeypatch, n_boundary):
    # The first piece lends its 48 rows. The second sits 5 samples off the
    # hop grid, so every frame that reaches it is a boundary frame.
    src = noisy(SR, 8000, seed=n_boundary)
    tail = n_boundary * HOP - 80
    outputs = [[(0, 0, 8000), (0, 5, 5 + tail)], [(0, 0, 8000)]]
    products = []
    real = padaug.features._log_mel
    monkeypatch.setattr(padaug.features, "_log_mel", lambda view, sr: (products.append(len(view)), real(view, sr))[1])
    got = fbank_pieces([src], outputs)
    assert products == [48, 16]  # the source whole, then the boundary frames padded to 16 rows
    assert got[0].frames == 48 + n_boundary
    monkeypatch.undo()
    assert np.array_equal(got[0].values, fbank(Waveform(np.concatenate([src.samples, src.samples[5:5 + tail]]), SR)).values)
    assert np.array_equal(got[1].values, fbank(src).values)


def test_fbank_pieces_rejects_bad_pieces():
    src = noisy(SR, 1000)
    with pytest.raises(InvalidConfigError):
        fbank_pieces([src], [[(0, 600, 1001)]])
    with pytest.raises(InvalidConfigError):
        fbank_pieces([src, noisy(8000, 1000)], [[(0, 0, 1000)]])


def test_three_seconds_gives_298_frames():
    f = fbank(tone(1000))
    assert f.frames == 298 and f.dims == 80


def test_too_short_input():
    with pytest.raises(TooShortError):
        fbank(Waveform(np.zeros(399), SR))
    assert fbank(Waveform(np.ones(400), SR)).frames == 1


def test_all_zero_input_hits_log_floor():
    f = fbank(Waveform(np.zeros(48000), SR))
    assert np.all(f.values == np.log(LOG_FLOOR))
    assert np.all(np.isfinite(f.values))


def test_mel_scale_roundtrip():
    freqs = np.array([0.0, 300.0, 1000.0, 4000.0, 8000.0])
    assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)
    assert abs(hz_to_mel(1000.0) - 1000.0) < 0.1  # the scale pins 1 kHz near 1000 mel


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(80, 512, SR)
    assert fb.shape == (80, 257)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)  # every filter sees at least one bin


def test_tone_lands_in_bracketing_filter():
    # oracle from the center-frequency formula: the strongest mel bin for a
    # pure tone must have 1 kHz between its neighbors' centers
    centers = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SR / 2.0), 80 + 2))[1:-1]
    f = fbank(tone(1000.0))
    argmax = np.argmax(f.values, axis=1)
    assert len(set(argmax.tolist())) == 1
    b = argmax[0]
    assert centers[b - 1] < 1000.0 < centers[b + 1]


def test_energy_monotonicity_under_scaling():
    w = tone(700.0, amp=0.2)
    f1 = fbank(w)
    c = 3.7
    f2 = fbank(Waveform(c * w.samples, SR))
    above = f1.values > np.log(LOG_FLOOR) + 1e-9
    shift = f2.values[above] - f1.values[above]
    assert np.allclose(shift, 2 * np.log(c), atol=1e-9)


def test_cmn_properties():
    f = FeatureMatrix(make_rng(1).standard_normal((50, 8)) * 4 + 2)
    c = cmn(f)
    assert np.abs(c.values.mean(axis=0)).max() < 1e-12
    assert np.allclose(cmn(c).values, c.values)  # idempotent
    single = cmn(FeatureMatrix(np.ones((1, 8))))
    assert np.all(single.values == 0)


def test_chunk_frames_wrap_and_slice():
    f = FeatureMatrix(np.arange(10, dtype=float)[:, None])
    short = chunk_frames(f, 13, make_rng(0))
    assert short.frames == 13
    assert short.values[:, 0].tolist() == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2]

    f2 = FeatureMatrix(np.arange(1000, dtype=float)[:, None])
    sl = chunk_frames(f2, 300, make_rng(1))
    start = int(sl.values[0, 0])
    assert sl.values[:, 0].tolist() == list(range(start, start + 300))

    same = chunk_frames(f2, 1000, make_rng(2))
    assert np.array_equal(same.values, f2.values)


def test_chunk_frames_validation():
    f = FeatureMatrix(np.zeros((4, 2)))
    with pytest.raises(InvalidConfigError):
        chunk_frames(f, 0, make_rng(0))
    with pytest.raises(TooShortError):
        chunk_frames(FeatureMatrix(np.zeros((0, 2))), 3, make_rng(0))


def test_dump_roundtrip(tmp_path):
    rng = make_rng(4)
    items = [(f"utt{i}", FeatureMatrix(rng.standard_normal((5 + i, 3)))) for i in range(4)]
    path = tmp_path / "feats.bin"
    write_feature_dump(path, items)
    back = read_feature_dump(path)
    assert list(back.keys()) == [f"utt{i}" for i in range(4)]
    for utt, mat in items:
        # values survive the float32 round
        assert np.allclose(back[utt].values, mat.values, atol=1e-6)
        assert back[utt].frames == mat.frames
    idx = read_feature_index(path)
    assert idx["utt0"] == 0
    assert idx["utt1"] == 4 + 8 + 5 * 3 * 4


def test_dump_corruption_detected(tmp_path):
    path = tmp_path / "f.bin"
    write_feature_dump(path, [("u", FeatureMatrix(np.zeros((2, 2))))])
    blob = path.read_bytes()
    path.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(CorruptHeaderError):
        read_feature_dump(path)
    path.write_bytes(blob[:-4])
    with pytest.raises(CorruptHeaderError):
        read_feature_dump(path)


def test_failed_dump_rewrite_keeps_old_dump(tmp_path):
    path = tmp_path / "f.bin"
    write_feature_dump(path, [("a", FeatureMatrix(np.ones((2, 2))))])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(InvalidConfigError):
        write_feature_dump(path, [("a", FeatureMatrix(np.zeros((3, 2)))), ("b c", FeatureMatrix(np.zeros((1, 2))))])
    # the old .bin and .idx untouched, no temporary file left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize(
    "blob, index",
    [
        (b"FBK1" + struct.pack("<ii", 1, 1) + bytes(4), "u 0\n"),  # index line without a tab
        (b"FBK1" + struct.pack("<i", 2), "u\t0\n"),  # truncated entry header
        (b"FBK1" + struct.pack("<ii", 2**28, 2**28), "u\t0\n"),  # a 2**58-byte read if trusted
        (b"FBK1" + struct.pack("<ii", 1, 1) + bytes(4), "u\t" + "9" * 30 + "\n"),  # too large to seek to
    ],
    ids=["index-no-tab", "short-header", "shape-past-eof", "offset-past-eof"],
)
def test_dump_corrupt_header(tmp_path, blob, index):
    path = tmp_path / "f.bin"
    path.write_bytes(blob)
    (tmp_path / "f.bin.idx").write_text(index)
    with pytest.raises(CorruptHeaderError):
        read_feature_dump(path)
