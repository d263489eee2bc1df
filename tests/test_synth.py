import numpy as np
import pytest

from padaug.errors import DatasetTooSmallError, InvalidConfigError
from padaug.features import fbank
from padaug.manifest import UtteranceRecord, read_manifest
from padaug.metrics import read_trials
from padaug.seeding import make_rng
from padaug.synth import (
    SAMPLE_RATE,
    build_corpus,
    make_speaker,
    make_trials,
    synth_utterance,
)


def test_make_speaker_deterministic():
    assert make_speaker(42) == make_speaker(42)
    assert make_speaker(42).speaker_id == f"spk{42:08x}"
    assert make_speaker(7, "alice").speaker_id == "alice"


def test_speaker_parameter_ranges():
    seen = set()
    for seed in range(20):
        p = make_speaker(seed)
        assert 80.0 <= p.f0_hz <= 300.0
        assert 0.05 <= p.amplitude_jitter <= 0.2
        assert 0.02 <= p.f0_jitter <= 0.06
        (f1, b1), (f2, b2), (f3, b3) = p.formants
        assert 260.0 <= f1 <= 900.0 and 60.0 <= b1 <= 120.0
        assert 950.0 <= f2 <= 2350.0 and 80.0 <= b2 <= 160.0
        assert 2450.0 <= f3 <= 3500.0 and 100.0 <= b3 <= 200.0
        seen.add(p.formants)
    assert len(seen) == 20  # profiles differ across seeds


def test_utterance_shape_and_peak():
    p = make_speaker(3)
    w = synth_utterance(p, 3.0, make_rng(0))
    assert len(w) == 3 * SAMPLE_RATE
    assert w.sample_rate_hz == SAMPLE_RATE
    assert np.abs(w.samples).max() == 0.5
    assert np.all(np.isfinite(w.samples))


def test_utterance_deterministic_per_rng():
    p = make_speaker(4)
    a = synth_utterance(p, 1.0, make_rng(11))
    b = synth_utterance(p, 1.0, make_rng(11))
    c = synth_utterance(p, 1.0, make_rng(12))
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_utterance_duration_validation():
    p = make_speaker(5)
    for bad in (0.0, -1.0):
        with pytest.raises(InvalidConfigError):
            synth_utterance(p, bad, make_rng(0))


def test_speaker_structure_in_spectra():
    # mean log-mel vectors cluster by speaker
    vecs = {}
    for spk_seed in (0, 1):
        p = make_speaker(spk_seed)
        vecs[spk_seed] = [
            fbank(synth_utterance(p, 1.2, make_rng(100 * spk_seed + j))).values.mean(axis=0)
            for j in range(3)
        ]
    intra, inter = [], []
    for s, vs in vecs.items():
        for i in range(3):
            for j in range(i + 1, 3):
                intra.append(np.linalg.norm(vs[i] - vs[j]))
    for a in vecs[0]:
        for b in vecs[1]:
            inter.append(np.linalg.norm(a - b))
    assert np.mean(inter) > np.mean(intra)


# ---------------------------------------------------------------------------
# trials


def records_for(speakers):
    recs = []
    for spk, n in speakers.items():
        for j in range(n):
            recs.append(UtteranceRecord(f"{spk}_u{j}", spk, f"{spk}_u{j}.wav", 16000, 16000))
    return recs


def test_make_trials_balance():
    recs = records_for({"a": 3, "b": 2, "c": 2})
    trials = make_trials(recs, make_rng(0))
    pairs = list(zip(trials.enroll, trials.test, trials.is_target))
    targets = [(a, b) for a, b, target in pairs if target]
    nons = [(a, b) for a, b, target in pairs if not target]
    assert len(targets) == 3 + 1 + 1
    assert len(nons) == len(targets)
    spk = {r.utt_id: r.speaker_id for r in recs}
    for a, b in targets:
        assert spk[a] == spk[b]
    for a, b in nons:
        assert spk[a] != spk[b]
    assert len(set(nons)) == len(nons)


def test_make_trials_deterministic():
    recs = records_for({"a": 2, "b": 2})
    assert make_trials(recs, make_rng(5)) == make_trials(recs, make_rng(5))


def test_make_trials_needs_pairs():
    with pytest.raises(DatasetTooSmallError):
        make_trials(records_for({"a": 1, "b": 1}), make_rng(0))


# ---------------------------------------------------------------------------
# corpus


def test_build_corpus_layout(tmp_path):
    records, trials = build_corpus(3, 2, 1.0, tmp_path / "c", seed=99)
    assert len(records) == 6
    assert sorted(r.utt_id for r in records)[0] == "spk000_u000"
    wavs = sorted((tmp_path / "c" / "wav").glob("*.wav"))
    assert len(wavs) == 6
    back = read_manifest(tmp_path / "c" / "manifest.tsv")
    assert [r.utt_id for r in back] == [r.utt_id for r in records]
    assert read_trials(tmp_path / "c" / "trials.txt") == trials
    assert sum(trials.is_target) == 3
    assert len(trials) == 6
    # durations jittered around the nominal value
    for r in records:
        assert 0.85 * 16000 - 1 <= r.num_samples <= 1.2 * 16000 + 1


def test_build_corpus_deterministic(tmp_path):
    build_corpus(2, 2, 0.8, tmp_path / "one", seed=7)
    build_corpus(2, 2, 0.8, tmp_path / "two", seed=7)
    for name in sorted(p.name for p in (tmp_path / "one" / "wav").glob("*.wav")):
        a = (tmp_path / "one" / "wav" / name).read_bytes()
        b = (tmp_path / "two" / "wav" / name).read_bytes()
        assert a == b, name
    assert (tmp_path / "one" / "manifest.tsv").read_text() == (tmp_path / "two" / "manifest.tsv").read_text()
    assert (tmp_path / "one" / "trials.txt").read_text() == (tmp_path / "two" / "trials.txt").read_text()


def test_build_corpus_validation(tmp_path):
    with pytest.raises(DatasetTooSmallError):
        build_corpus(1, 2, 1.0, tmp_path / "x", seed=0)
    with pytest.raises(InvalidConfigError):
        build_corpus(2, 0, 1.0, tmp_path / "x", seed=0)
    with pytest.raises(InvalidConfigError):
        build_corpus(2, 1, -1.0, tmp_path / "x", seed=0)
