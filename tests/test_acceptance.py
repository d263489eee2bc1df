"""Acceptance gate: one test per release criterion, pinned tolerances.

The directional tests train two toy models (with and without padding
augmentation) on a synthetic 20-speaker corpus and compare EER across
padded evaluation sets. That experiment runs once in a module fixture
and takes a few minutes; everything else is fast.
"""

import shutil
import time

import numpy as np
import pytest

from padaug.audio_io import Waveform
from padaug.augment import PadAugConfig, pad_aug_utterance
from padaug.features import LOG_FLOOR, FeatureMatrix, cmn, fbank
from padaug.metrics import det_metrics, score_trials
from padaug.model import (
    ToyModelConfig,
    batch_loss_and_grads,
    init_model,
    load_training_set,
    train,
)
from padaug.seeding import make_rng
from padaug.synth import build_corpus, make_speaker, synth_utterance
from padaug.testset import ratio_sweep
from padaug.vad import FRAME_MS, VadConfig, detect

from test_metrics import brute_force, mk
from test_model import numeric_gradients

SEED = 20260814


def test_length_invariant_and_reconstruction():
    t0 = time.monotonic()
    rng = make_rng(77)
    for i in range(10_000):
        t_min = int(rng.integers(400, 24_000))
        t_max = int(rng.integers(t_min, 48_001))
        cfg = PadAugConfig(t_min=t_min, t_max=t_max, use_mid=bool(i % 2))
        n_in = int(rng.integers(1, 2 * t_max + 1))
        x = Waveform(0.2 * rng.standard_normal(n_in), 16000)
        aug = pad_aug_utterance(x, cfg, rng)
        assert len(aug.waveform) == t_max
        (a0, a1), (b0, b1) = aug.speech_index_ranges()
        rebuilt = np.concatenate([aug.waveform.samples[a0:a1], aug.waveform.samples[b0:b1]])
        assert np.array_equal(rebuilt, aug.chunk.samples)
    assert time.monotonic() - t0 < 30.0


def test_snr_calibration():
    rng = make_rng(4242)
    checked = 0
    tries = 0
    while checked < 1000:
        tries += 1
        assert tries < 20_000
        cfg = PadAugConfig(t_min=16000, t_max=48000, use_mid=bool(tries % 2))
        n_in = int(rng.integers(18_000, 60_000))
        x = Waveform(0.1 * rng.standard_normal(n_in), 16000)
        aug = pad_aug_utterance(x, cfg, rng)
        if aug.layout.l_pad < 8000:  # want >= 0.5 s of padding to measure
            continue
        noise_mask = np.ones(len(aug.waveform), dtype=bool)
        for lo, hi in aug.speech_index_ranges():
            noise_mask[lo:hi] = False
        noise = aug.waveform.samples[noise_mask]
        assert len(noise) == aug.layout.l_pad
        p_x = np.mean(aug.chunk.samples ** 2)
        p_n = np.mean(noise ** 2)
        measured = 10.0 * np.log10(p_x / p_n)
        assert abs(measured - aug.layout.snr_db) <= 0.5
        checked += 1


def test_ht_hmt_structure():
    rng = make_rng(88)
    for use_mid in (False, True):
        cfg = PadAugConfig(t_min=2000, t_max=9000, use_mid=use_mid)
        for _ in range(500):
            x = Waveform(np.full(12_000, 2.0), 16000)  # noise never hits 2.0 exactly
            aug = pad_aug_utterance(x, cfg, rng)
            pos = np.flatnonzero(aug.waveform.samples == 2.0)
            assert len(pos) == aug.layout.t_s
            runs = 1 + int(np.sum(np.diff(pos) > 1))
            assert runs <= (2 if use_mid else 1)


def test_metric_oracle_equivalence():
    rng = make_rng(SEED)
    for i in range(1000):
        n_t = int(rng.integers(1, 40))
        n_n = int(rng.integers(1, 40))
        decimals = 2 if i % 2 else 6  # coarse rounding forces tied scores
        targets = np.round(rng.standard_normal(n_t), decimals)
        nons = np.round(rng.standard_normal(n_n) - 0.4, decimals)
        p = [0.01, 0.05, 0.5][i % 3]
        m = det_metrics(*mk(targets, nons), p_target=p)
        e, d = m.eer, m.min_dcf
        oracle_e, oracle_d = brute_force(list(targets), list(nons), p_target=p)
        assert d == oracle_d
        assert abs(e - oracle_e) <= 1e-12
    worked = det_metrics(*mk([0.8, 0.4], [0.6, 0.2]))
    assert worked.eer == 0.5
    assert worked.min_dcf == 0.5


def test_feature_contracts():
    w = synth_utterance(make_speaker(1), 3.0, make_rng(5))
    f = fbank(w)
    assert f.frames == 298
    c = cmn(f)
    assert np.abs(c.values.mean(axis=0)).max() < 1e-6
    z = fbank(Waveform(np.zeros(48_000), 16000))
    assert np.all(np.isfinite(z.values))
    assert np.allclose(z.values, np.log(LOG_FLOOR))


def test_gradient_check():
    t0 = time.monotonic()
    cfg = ToyModelConfig(n_speakers=5, input_dim=6, hidden_dim=5, embed_dim=4,
                         warmup_steps=1, total_steps=10, seed=9)
    m = init_model(cfg)
    feats = FeatureMatrix(make_rng(1009).standard_normal((7, 6)))
    loss, grads = batch_loss_and_grads(m, [feats], [2], 0.2, 32.0)
    assert loss > 0.1  # away from the saturated-softmax noise floor
    num = numeric_gradients(m, feats, 2, 0.2, 32.0, eps=1e-5)
    worst = 0.0
    for name in grads:
        rel = np.abs(num[name] - grads[name]) / np.maximum(np.abs(num[name]) + np.abs(grads[name]), 1e-6)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-4
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# trained-model criteria


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Train baseline and padding-augmented models once; EER per (system, k)."""
    t0 = time.monotonic()
    root = tmp_path_factory.mktemp("exp")
    records, trials = build_corpus(20, 50, 4.0, root, seed=SEED)
    ts = load_training_set(records)
    cfg = ToyModelConfig(n_speakers=20, hidden_dim=64, embed_dim=32,
                         warmup_steps=60, total_steps=800, batch_size=32, seed=SEED)
    ht = PadAugConfig(t_min=16000, t_max=48000)
    models = {"baseline": train(cfg, ts).model, "padaug": train(cfg, ts, ht).model}
    t_train = time.monotonic() - t0

    ids = [rec.utt_id for rec in records]
    eers = {}
    t0 = time.monotonic()
    for k, embs in ratio_sweep(records, list(models.values()), root / "sweep", SEED + 1):
        for name, emb in zip(models, embs):
            eers[name, k] = det_metrics(score_trials(trials, dict(zip(ids, emb))), trials.is_target).eer
    t_sweep = time.monotonic() - t0  # building, embedding and scoring every k
    shutil.rmtree(root / "sweep")  # ~2 GB of padded WAVs
    return {"eers": eers, "t_train": t_train, "t_sweep": t_sweep}


def test_directional_padding_robustness(experiment):
    eers = experiment["eers"]
    assert eers["baseline", 2] > eers["baseline", 0]  # padding hurts the baseline
    assert eers["padaug", 2] <= eers["baseline", 2]  # augmented model holds up
    assert experiment["t_train"] + experiment["t_sweep"] < 300.0


def test_ratio_sweep_stability(experiment):
    eers = experiment["eers"]
    base = [eers["baseline", k] for k in range(9)]
    pad = [eers["padaug", k] for k in range(9)]
    assert all(0.0 <= e <= 1.0 for e in base + pad)
    assert base[8] > base[0]
    assert (pad[8] - pad[0]) < (base[8] - base[0])


def test_vad_retention():
    sr = 16000
    cfg = VadConfig()
    step = round(FRAME_MS / 1000.0 * sr)
    for seed in range(10):
        rng = make_rng(900 + seed)
        pieces = []
        speech_samples = []

        def add_silence():
            n = int(rng.integers(int(0.7 * sr), int(1.2 * sr)))
            pieces.append(0.3 * 0.01 / np.sqrt(2.0) * rng.standard_normal(n))
            speech_samples.append(np.zeros(n, dtype=bool))

        add_silence()
        for _ in range(3):
            n = int(rng.integers(int(0.8 * sr), int(1.5 * sr)))
            t = np.arange(n) / sr
            pieces.append(0.3 * np.sin(2.0 * np.pi * rng.uniform(150.0, 400.0) * t))
            speech_samples.append(np.ones(n, dtype=bool))
            add_silence()

        w = Waveform(np.concatenate(pieces), sr)
        truth = np.concatenate(speech_samples)
        nf = len(w) // step
        frame_truth = truth[: nf * step].reshape(nf, step)
        speech_frames = frame_truth.all(axis=1)
        silence_frames = ~frame_truth.any(axis=1)

        mask = detect(w, cfg)
        assert mask[speech_frames].mean() >= 0.95

        idx_speech = np.flatnonzero(speech_frames)
        interior = []
        for i in np.flatnonzero(silence_frames):
            before = idx_speech[idx_speech < i]
            after = idx_speech[idx_speech > i]
            clear_after = len(before) == 0 or i - before.max() > cfg.hang_over
            clear_before = len(after) == 0 or after.min() - i > cfg.hang_before
            if clear_after and clear_before:
                interior.append(i)
        assert len(interior) > 50
        assert (~mask[interior]).mean() >= 0.80
