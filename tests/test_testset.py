from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import padaug.manifest
from padaug.audio_io import Waveform, read_wav, write_wav
from padaug.augment import PaddingLayout, assemble, wgn_like
from padaug.errors import DimMismatchError, InvalidConfigError, LengthMismatchError, TooShortError
from padaug.features import N_MELS, cmn, fbank
from padaug.manifest import UtteranceRecord, map_records, read_manifest
from padaug.model import ToyModelConfig, forward, init_model
from padaug.seeding import child_seed, make_rng, randint
from padaug.synth import build_corpus
from padaug.testset import (
    MAX_RATIO_SECONDS,
    PLACEMENTS,
    TEST_SNR_DB,
    build_chunk3s,
    build_ratio,
    build_testset,
    check_ratio,
    ratio_sweep,
)

SR = 16000


def speech(n, seed=0):
    rng = make_rng(seed)
    return Waveform(0.4 * np.sin(2 * np.pi * 180 / SR * np.arange(n)) + 0.02 * rng.standard_normal(n), SR)


def test_chunk3s_is_a_slice():
    x = speech(10 * SR)
    c = build_chunk3s(x, make_rng(1))
    assert len(c) == 3 * SR
    found = any(
        np.array_equal(x.samples[o : o + 3 * SR], c.samples) for o in range(0, 7 * SR + 1)
    )
    assert found


def test_chunk3s_loop_pads_short_input():
    c = build_chunk3s(speech(2 * SR), make_rng(2))
    assert len(c) == 3 * SR


def test_chunk3s_deterministic_and_rejects_empty():
    x = speech(8 * SR)
    a = build_chunk3s(x, make_rng(3))
    b = build_chunk3s(x, make_rng(3))
    assert np.array_equal(a.samples, b.samples)
    with pytest.raises(TooShortError):
        build_chunk3s(Waveform(np.zeros(0), SR), make_rng(0))


def pad_fixed_ref(w3s, head_s, tail_s, mid_s, snr_db, rng):
    """Fixed-duration head/tail(/mid) padding, the builder build_ratio
    replaced; kept as the oracle for k=2 and k=3."""
    if min(head_s, tail_s, mid_s) < 0:
        raise InvalidConfigError("negative padding duration")
    sr = w3s.sample_rate_hz
    l_head = round(head_s * sr)
    l_mid = round(mid_s * sr)
    l_tail = round(tail_s * sr)
    t_s = len(w3s)
    if l_mid > 0:
        if t_s < 2:
            raise LengthMismatchError(f"speech of {t_s} samples has no interior for mid padding")
        p_mid = randint(rng, 1, t_s - 1)
    else:
        p_mid = 0
    layout = PaddingLayout(t_s=t_s, l_head=l_head, l_mid=l_mid, l_tail=l_tail, p_mid=p_mid, snr_db=0.0 if snr_db is None else snr_db)
    noise = Waveform(np.zeros(layout.l_pad), sr) if snr_db is None else wgn_like(w3s, snr_db, layout.l_pad, rng)
    return assemble(w3s, layout, noise)


@pytest.mark.parametrize("from_start", [False, True])
@pytest.mark.parametrize("snr_db", [25.0, None])
@pytest.mark.parametrize("seed", range(4))
def test_build_ratio_matches_fixed_padding_oracle(seed, snr_db, from_start):
    # 1 s at head and tail is k=2 head-tail-even, and 1 s at head, mid and
    # tail is k=3 head-mid-tail-even, drawing from the chunk's rng in the same order.
    # from_start pads x's first 3 s with a fresh rng; build_chunk3s instead
    # draws a chunk offset, which leaves half a 64-bit word buffered that
    # the split point consumes without advancing the noise stream.
    x = speech(5 * SR, seed=seed)

    def chunk(rng):
        return Waveform(x.samples[: 3 * SR].copy(), SR) if from_start else build_chunk3s(x, rng)

    for k, placement, mid_s in ((2, "head-tail-even", 0), (3, "head-mid-tail-even", 1)):
        rng_new, rng_ref = make_rng(100 + seed), make_rng(100 + seed)
        new = build_ratio(chunk(rng_new), k, placement, snr_db, rng_new)
        ref = pad_fixed_ref(chunk(rng_ref), 1, 1, mid_s, snr_db, rng_ref)
        assert np.array_equal(new.samples, ref.samples)


def test_pad_fixed_lengths():
    c = build_chunk3s(speech(5 * SR), make_rng(5))
    assert len(build_ratio(c, 2, "head-tail-even", 25.0, make_rng(6))) == 80000
    assert len(build_ratio(c, 3, "head-mid-tail-even", 25.0, make_rng(6))) == 96000
    out = build_ratio(c, 0, "head-mid-tail-even", 25.0, make_rng(6))
    assert np.array_equal(out.samples, c.samples)


def nonzero_speech(n, seed):
    c = speech(n, seed=seed)
    return Waveform(np.where(np.abs(c.samples) < 1e-3, 1e-3, c.samples), SR)  # no accidental zeros


def test_pad_fixed_mid_lands_inside_speech():
    # with zero padding the mid segment must interrupt the speech, never
    # abut the head or tail noise
    c = nonzero_speech(3 * SR, seed=7)
    for trial in range(10):
        out = build_ratio(c, 3, "head-mid-tail-even", None, make_rng(trial))
        zero = out.samples == 0.0
        # head and tail seconds are zeros, and one zero run sits strictly inside
        assert zero[:SR].all() and zero[-SR:].all()
        interior = zero[SR:-SR]
        edges = np.flatnonzero(np.diff(interior.astype(int)))
        assert len(edges) == 2  # exactly one interior zero run
        start, end = edges[0] + 1, edges[1] + 1
        assert 0 < start and end < len(interior)
        assert end - start == SR
    with pytest.raises(LengthMismatchError):
        build_ratio(Waveform(np.ones(1), SR), 1, "head-mid-tail-even", None, make_rng(0))


NONZERO_CHUNK = nonzero_speech(3 * SR, seed=8)


@settings(max_examples=50, deadline=None)
@given(k=st.integers(0, MAX_RATIO_SECONDS), placement=st.sampled_from(PLACEMENTS), seed=st.integers(0, 2**64 - 1))
def test_build_ratio_placement_properties(k, placement, seed):
    out = build_ratio(NONZERO_CHUNK, k, placement, None, make_rng(seed)).samples
    zero = out == 0.0
    assert len(out) == (3 + k) * SR
    assert np.array_equal(out[~zero], NONZERO_CHUNK.samples)
    assert zero.sum() == k * SR
    if placement == "head-mid-tail-even" and k >= 1:
        speech_at = np.flatnonzero(~zero)
        inside = zero[speech_at[0] : speech_at[-1] + 1]
        edges = np.flatnonzero(np.diff(inside.astype(int)))
        assert len(edges) == 2  # exactly one zero run strictly inside the speech
        assert edges[1] - edges[0] == (k * SR) // 3


def test_build_ratio_lengths_and_split():
    c = speech(3 * SR)
    assert build_ratio(c, 0, "head-tail-even", 25.0, make_rng(0)) is c
    out = build_ratio(c, 2, "head-tail-even", None, make_rng(0))
    assert len(out) == 80000
    assert (out.samples[:SR] == 0).all() and (out.samples[-SR:] == 0).all()
    assert np.array_equal(out.samples[SR : SR + 3 * SR], c.samples)
    out8 = build_ratio(c, 8, "head-tail-even", 25.0, make_rng(0))
    assert len(out8) == 176000


def test_build_ratio_per_layout_total():
    c = speech(3 * SR)
    lengths = {len(build_ratio(c, 3, "per-layout", 25.0, make_rng(i))) for i in range(5)}
    assert lengths == {3 * SR + 3 * SR}


def test_build_ratio_duration_monotone_in_k():
    c = speech(3 * SR)
    lens = [len(build_ratio(c, k, "head-tail-even", 25.0, make_rng(k))) for k in range(9)]
    assert lens == sorted(lens) and len(set(lens)) == 9


def test_build_ratio_rejects_bad_k():
    c = speech(3 * SR)
    for k in (-1, 9):
        with pytest.raises(InvalidConfigError):
            build_ratio(c, k, "head-tail-even", 25.0, make_rng(0))
    with pytest.raises(InvalidConfigError):
        build_ratio(c, 2, "sideways", 25.0, make_rng(0))


def test_variant_validation():
    with pytest.raises(InvalidConfigError):
        check_ratio(2, "sideways")
    with pytest.raises(InvalidConfigError):
        check_ratio(MAX_RATIO_SECONDS + 1, "head-tail-even")
    for k in range(MAX_RATIO_SECONDS + 1):
        for placement in PLACEMENTS:
            check_ratio(k, placement)


def _write_corpus(tmp_path, n=4):
    records = []
    for i in range(n):
        w = speech((4 + i) * SR, seed=i)
        p = tmp_path / f"u{i}.wav"
        write_wav(w, p)
        records.append(UtteranceRecord(f"u{i}", f"s{i % 2}", str(p), len(w), SR))
    return records


def test_build_testset_chunk3s(tmp_path):
    records = _write_corpus(tmp_path)
    out = build_testset(records, tmp_path / "ts", seed=42, k_seconds=0)
    assert len(out) == 4
    for r in out:
        assert r.num_samples == 3 * SR
        assert len(read_wav(r.wav_path)) == 3 * SR
    back = read_manifest(tmp_path / "ts" / "manifest.tsv")
    assert [r.utt_id for r in back] == [r.utt_id for r in records]


def test_build_testset_order_independent(tmp_path):
    # per-utterance seeding: shuffling the manifest cannot change any file
    records = _write_corpus(tmp_path)
    build_testset(records, tmp_path / "f", 7, 3, "head-mid-tail-even")
    build_testset(records[::-1], tmp_path / "r", 7, 3, "head-mid-tail-even")
    for r in records:
        a = (tmp_path / "f" / f"{r.utt_id}.wav").read_bytes()
        b = (tmp_path / "r" / f"{r.utt_id}.wav").read_bytes()
        assert a == b


def test_build_testset_error_names_utterance(tmp_path):
    records = [UtteranceRecord("ghost", "s", str(tmp_path / "ghost.wav"), 10, SR)]
    with pytest.raises(FileNotFoundError) as err:
        build_testset(records, tmp_path / "x", seed=0, k_seconds=0)
    assert "ghost" in str(err.value)


def test_ratio_builds_share_chunk_across_ks():
    # same rng seed -> the k=0 chunk is a sub-array of every padded output
    x = speech(6 * SR, seed=9)

    def build(k):
        rng = make_rng(77)
        return build_ratio(build_chunk3s(x, rng), k, "head-tail-even", 25.0, rng)

    base, padded = build(0), build(4)
    l_head = (4 * SR) // 2
    assert np.array_equal(padded.samples[l_head : l_head + 3 * SR], base.samples)


def ratio_sweep_ref(records, models, work_dir, seed, placement="head-tail-even", snr_db=TEST_SNR_DB):
    """ratio_sweep as two pool passes per k: write the padded set, then
    read every padded WAV back for its features, then embed on the calling
    thread; kept as the oracle for the one-pass sweep."""
    work_dir = Path(work_dir)
    for k in range(MAX_RATIO_SECONDS + 1):
        padded = build_testset(records, work_dir / f"ratio{k}", seed, k, placement, snr_db)
        feats = map_records(padded, lambda rec, w, rng: cmn(fbank(w)))
        yield k, [np.stack([forward(model, f) for f in feats]) for model in models]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """Nine utterances of three speakers, 1.4-1.9 s long so that each is
    loop-padded to the 3 s chunk, and two untrained models of different
    embedding sizes."""
    records, _ = build_corpus(3, 3, 1.6, tmp_path_factory.mktemp("corpus"), seed=5)
    models = [init_model(ToyModelConfig(n_speakers=3, hidden_dim=16, embed_dim=dim, seed=i)) for i, dim in ((1, 8), (2, 5))]
    return records, models


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("placement, snr_db", [(p, TEST_SNR_DB) for p in PLACEMENTS] + [("head-tail-even", None)])
def test_ratio_sweep_matches_two_pass_oracle(sweep_inputs, tmp_path, monkeypatch, threads, placement, snr_db):
    monkeypatch.setenv("PADAUG_THREADS", threads)
    records, models = sweep_inputs
    got = list(ratio_sweep(records, models, tmp_path / "new", 11, placement, snr_db))
    want = list(ratio_sweep_ref(records, models, tmp_path / "ref", 11, placement, snr_db))
    assert [k for k, _ in got] == [k for k, _ in want] == list(range(MAX_RATIO_SECONDS + 1))
    for (_, embs), (_, ref) in zip(got, want):
        assert [e.shape for e in embs] == [(len(records), m.embed_dim) for m in models]
        assert all(e.dtype == np.float64 and np.array_equal(e, r) for e, r in zip(embs, ref, strict=True))
    assert tree(tmp_path / "new") == tree(tmp_path / "ref")


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ratio_sweep_reads_each_input_once(sweep_inputs, tmp_path, monkeypatch, threads):
    monkeypatch.setenv("PADAUG_THREADS", threads)
    records, models = sweep_inputs
    reads = []
    real_read_wav = padaug.manifest.read_wav
    monkeypatch.setattr(padaug.manifest, "read_wav", lambda path: (reads.append(Path(path)), real_read_wav(path))[1])
    ratio_sweep(records, models, tmp_path / "work", 11)
    assert Counter(reads) == {Path(r.wav_path): 1 for r in records}


def test_pcg64_normals_are_prefixes():
    # ratio_sweep slices a smaller k's noise out of k = 8's on this property
    assert np.array_equal(make_rng(5).standard_normal(16000), make_rng(5).standard_normal(128000)[:16000])


def states_before_noise(w, utt_id, seed):
    """The generator state per-layout reaches the noise in, for k = 1..8."""
    rng = make_rng(child_seed(seed, utt_id))
    build_chunk3s(w, rng)
    start = rng.bit_generator.state
    states = []
    for k in range(1, MAX_RATIO_SECONDS + 1):
        rng.bit_generator.state = start
        randint(rng, 0, k * SR)
        states.append(rng.bit_generator.state)
    return states


@pytest.mark.parametrize("threads", ["1", "2"])
def test_ratio_sweep_draws_afresh_when_the_state_differs(tmp_path, monkeypatch, threads):
    # At seed 11, the per-layout split draw of u2857 (k = 8) and u10087
    # (k = 6) rejects a 32-bit word and draws again, so those k reach the
    # noise in another state than the other k, and must draw their own.
    monkeypatch.setenv("PADAUG_THREADS", threads)
    records = []
    for i, utt in enumerate(("u0", "u2857", "u10087")):
        w = speech(4 * SR, seed=i)
        write_wav(w, tmp_path / f"{utt}.wav")
        records.append(UtteranceRecord(utt, "s0", str(tmp_path / f"{utt}.wav"), len(w), SR))
        states = states_before_noise(w, utt, 11)
        assert (states.count(states[0]) == len(states)) == (utt == "u0")
    models = [init_model(ToyModelConfig(n_speakers=1, hidden_dim=8, embed_dim=4, seed=0))]
    got = ratio_sweep(records, models, tmp_path / "new", 11, "per-layout")
    want = list(ratio_sweep_ref(records, models, tmp_path / "ref", 11, "per-layout"))
    assert tree(tmp_path / "new") == tree(tmp_path / "ref")
    # the redrawn noise is a source of its own, and its frames are featurized from it
    assert [k for k, _ in got] == [k for k, _ in want]
    assert all(np.array_equal(e, r) for (_, embs), (_, ref) in zip(got, want) for e, r in zip(embs, ref, strict=True))


def test_ratio_sweep_failure_leaves_no_directory(sweep_inputs, tmp_path):
    records, models = sweep_inputs
    wrong = init_model(ToyModelConfig(n_speakers=3, input_dim=N_MELS + 1, hidden_dim=16, embed_dim=8))
    with pytest.raises(DimMismatchError, match=f"^utterance {records[0].utt_id}: "):
        ratio_sweep(records, [*models, wrong], tmp_path / "work", 11)
    assert not (tmp_path / "work").exists()
