import struct
from dataclasses import replace

import numpy as np
import pytest

import padaug.model
from padaug.audio_io import Waveform, from_pcm, quantize, read_wav, to_pcm
from padaug.augment import PadAugConfig
from padaug.errors import (
    CorruptHeaderError,
    DatasetTooSmallError,
    DimMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    TooShortError,
)
from padaug.features import FeatureMatrix, cmn, fbank
from padaug.model import (
    CHECKPOINT_MAGIC,
    VAR_FLOOR,
    ToyModel,
    ToyModelConfig,
    TrainingSet,
    _forward,
    aam_loss,
    batch_loss_and_grads,
    embed_utterance,
    forward,
    init_model,
    load_model,
    load_training_set,
    save_model,
    schedule,
    train,
)
from padaug.seeding import make_rng
from padaug.synth import build_corpus, make_speaker, synth_utterance

HT = PadAugConfig(t_min=16000, t_max=48000)


def small_cfg(seed=0, **kw):
    base = dict(n_speakers=5, input_dim=6, hidden_dim=5, embed_dim=4,
                warmup_steps=2, total_steps=20, batch_size=4, seed=seed)
    base.update(kw)
    return ToyModelConfig(**base)


def numeric_gradients(m, feats, label, margin, s, eps=1e-5):
    """Central-difference gradients for every parameter group. feats and
    label are one utterance and its label, or lists of them (summed loss)."""
    if isinstance(feats, FeatureMatrix):
        feats, label = [feats], [label]
    out = {}
    for name, p in m.params().items():
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = p[i]
            p[i] = orig + eps
            lp, _ = batch_loss_and_grads(m, feats, label, margin, s)
            p[i] = orig - eps
            lm, _ = batch_loss_and_grads(m, feats, label, margin, s)
            p[i] = orig
            num[i] = (lp - lm) / (2 * eps)
        out[name] = num
    return out


# ---------------------------------------------------------------------------
# The one-utterance model math, written out plainly: the oracle that the
# batch code must match bit for bit.


def _forward_ref(m, x):
    h_pre = x @ m.w1.T + m.b1
    h = np.maximum(h_pre, 0.0)
    mu = h.mean(axis=0)
    pooled = np.concatenate([mu, np.sqrt(np.maximum(h.var(axis=0), VAR_FLOOR))])
    z = m.w2 @ pooled + m.b2
    z_norm = float(np.linalg.norm(z))
    emb = z / z_norm if z_norm > 0.0 else np.zeros_like(z)
    return h_pre, h, pooled, z_norm, emb


def _aam_loss_ref(emb, label, m, margin, s):
    norms = np.linalg.norm(m.head, axis=1)
    wn = m.head / norms[:, None]
    cos = wn @ emb
    cos_y = np.clip(cos[label], -1.0 + 1e-12, 1.0 - 1e-12)
    theta = np.arccos(cos_y)
    clamped = theta + margin >= np.pi
    psi = np.cos(min(theta + margin, np.pi))
    logits = s * cos
    logits[label] = s * psi
    shifted = logits - logits.max()
    expv = np.exp(shifted)
    p = expv / expv.sum()
    loss = float(np.log(expv.sum()) - shifted[label])
    dlogit = p.copy()
    dlogit[label] -= 1.0
    dcos = s * dlogit
    dpsi_dcos = 0.0 if clamped else np.sin(theta + margin) / np.sin(theta)
    dcos[label] *= dpsi_dcos
    d_emb = wn.T @ dcos
    d_head = (dcos[:, None] * (emb[None, :] - cos[:, None] * wn)) / norms[:, None]
    return loss, d_emb, d_head


def loss_and_grads_ref(m, x, label, margin, s):
    h_pre, h, pooled, z_norm, emb = _forward_ref(m, x)
    loss, d_emb, d_head = _aam_loss_ref(emb, label, m, margin, s)
    if z_norm > 0.0:
        dz = (d_emb - np.dot(d_emb, emb) * emb) / z_norm
    else:
        dz = np.zeros_like(d_emb)
    dpooled = m.w2.T @ dz
    hid = m.hidden_dim
    t = h.shape[0]
    mu, sd = pooled[:hid], pooled[hid:]
    dmu, dsd = dpooled[:hid], dpooled[hid:]
    dvar = np.where(sd > np.sqrt(VAR_FLOOR), dsd / (2.0 * sd), 0.0)
    dh = dmu / t + (2.0 / t) * dvar * (h - mu)
    dh_pre = dh * (h_pre > 0.0)
    return loss, {
        "w1": dh_pre.T @ x,
        "b1": dh_pre.sum(axis=0),
        "w2": np.outer(dz, pooled),
        "b2": dz,
        "head": d_head,
    }


def oracle_model(n_speakers, kind, seed=0):
    """A model at the shipped sizes; "dead_unit" has a hidden unit that is
    never active (its sd sits on the floor), "zero_w2" has z = 0."""
    m = init_model(ToyModelConfig(n_speakers=n_speakers, seed=seed))
    if kind == "dead_unit":
        m.w1[3] = 0.0
        m.b1[3] = -1.0
    elif kind == "zero_w2":
        m.w2[:] = 0.0
        m.b2[:] = 0.0
    return m


@pytest.mark.parametrize("n_speakers", [2, 200])
@pytest.mark.parametrize("batch", [1, 3, 32])
@pytest.mark.parametrize("frames", [2, 300])
def test_batch_matches_per_utterance_oracle(n_speakers, batch, frames):
    rng = make_rng(n_speakers * 1000 + batch * 10 + frames)
    for kind in ("plain", "dead_unit", "zero_w2"):
        m = oracle_model(n_speakers, kind)
        feats = [FeatureMatrix(rng.standard_normal((frames, m.input_dim))) for _ in range(batch)]
        labels = rng.integers(0, n_speakers, batch)
        # 3.0 clamps theta + margin at pi for every item: |cos| stays far below 1
        emb = np.array([forward(m, f) for f in feats])
        assert np.all(np.abs(emb @ m.head.T) < 0.9 * np.linalg.norm(m.head, axis=1))
        for margin in (0.0, 0.2, 3.0):
            loss, grads = batch_loss_and_grads(m, feats, labels, margin, 32.0)
            ref_loss, ref_grads = 0.0, {k: np.zeros_like(v) for k, v in m.params().items()}
            for f, label in zip(feats, labels):
                one_loss, one = loss_and_grads_ref(m, f.values, int(label), margin, 32.0)
                ref_loss += one_loss
                for k in ref_grads:
                    ref_grads[k] += one[k]
            assert loss == ref_loss, (kind, margin)
            for k in ref_grads:
                assert np.array_equal(grads[k], ref_grads[k]), (kind, margin, k)


def test_forward_matches_oracle_at_any_length():
    m = oracle_model(10, "plain", seed=3)
    rng = make_rng(12)
    for frames in (2, 3, 17, 298, 300, 1101):
        x = rng.standard_normal((frames, m.input_dim))
        assert np.array_equal(forward(m, FeatureMatrix(x)), _forward_ref(m, x)[-1]), frames


def test_labels_outside_range_rejected():
    m = oracle_model(5, "plain")
    feats = [FeatureMatrix(make_rng(i).standard_normal((4, m.input_dim))) for i in range(2)]
    for bad in (-1, 5):
        with pytest.raises(InvalidLabelError):
            batch_loss_and_grads(m, feats, [0, bad], 0.2, 32.0)
        with pytest.raises(InvalidLabelError):
            batch_loss_and_grads(m, feats[:1], [bad], 0.2, 32.0)


# ---------------------------------------------------------------------------
# pooling


SHIFT = 10.0  # b1 of pooling_model, above every |x| the pooling tests feed


def pooling_model(dims):
    """w1 = I and b1 = SHIFT: ReLU passes every frame, so _forward pools x + SHIFT."""
    return ToyModel(w1=np.eye(dims), b1=np.full(dims, SHIFT), w2=np.zeros((2, 2 * dims)),
                    b2=np.ones(2), head=np.ones((2, 2)))


def pool(x):
    """_forward's pooled [mean, sd] of one utterance's frames x."""
    return _forward(pooling_model(x.shape[1]), [FeatureMatrix(x)])[0][0]


def test_tsp_constant_rows():
    h = np.tile([1.0, -2.0, 3.0], (10, 1))
    pooled = pool(h)
    assert np.allclose(pooled[:3], np.array([1.0, -2.0, 3.0]) + SHIFT)
    assert np.allclose(pooled[3:], 1e-5)  # floored std


def test_tsp_two_frame_closed_form():
    v = np.array([0.5, -1.5, 2.0])
    pooled = pool(np.stack([v, -v]))
    assert np.allclose(pooled[:3], SHIFT)
    assert np.allclose(pooled[3:], np.abs(v))


def test_tsp_matches_two_pass_oracle():
    x = make_rng(0).standard_normal((300, 64))
    assert np.abs(x).max() < SHIFT
    pooled = pool(x)
    h = x + SHIFT
    mean = np.array([sum(h[:, j]) / 300 for j in range(64)])
    std = np.array([np.sqrt(sum((h[:, j] - mean[j]) ** 2) / 300) for j in range(64)])
    assert np.abs(pooled[:64] - mean).max() < 1e-9
    assert np.abs(pooled[64:] - std).max() < 1e-9


def test_tsp_needs_two_frames():
    for frames in (0, 1):
        with pytest.raises(TooShortError):
            pool(np.zeros((frames, 4)))
    with pytest.raises(TooShortError):
        forward(init_model(small_cfg(0)), FeatureMatrix(np.zeros((1, 6))))


# ---------------------------------------------------------------------------
# forward


def test_forward_unit_norm():
    m = init_model(small_cfg(1))
    for seed in range(5):
        f = FeatureMatrix(make_rng(seed).standard_normal((12, 6)))
        e = forward(m, f)
        assert abs(np.linalg.norm(e) - 1.0) < 1e-6


def test_forward_repetition_invariant():
    m = init_model(small_cfg(2))
    f = make_rng(9).standard_normal((8, 6))
    e1 = forward(m, FeatureMatrix(f))
    e2 = forward(m, FeatureMatrix(np.concatenate([f, f])))
    assert np.abs(e1 - e2).max() < 1e-9


def test_forward_zero_weights_no_nan():
    m = ToyModel(w1=np.zeros((5, 6)), b1=np.zeros(5), w2=np.zeros((4, 10)),
                 b2=np.zeros(4), head=np.ones((5, 4)))
    e = forward(m, FeatureMatrix(np.ones((4, 6))))
    assert np.all(np.isfinite(e))
    assert np.all(e == 0)  # degenerate model maps to the zero vector


def test_forward_dim_mismatch():
    m = init_model(small_cfg(3))
    with pytest.raises(DimMismatchError):
        forward(m, FeatureMatrix(np.zeros((5, 7))))


# ---------------------------------------------------------------------------
# loss


def test_margin_zero_matches_plain_softmax():
    m = init_model(small_cfg(4))
    emb = make_rng(3).standard_normal(4)
    emb /= np.linalg.norm(emb)
    (loss,), _, _ = aam_loss(emb[None], [1], m, margin=0.0, s=32.0)
    wn = m.head / np.linalg.norm(m.head, axis=1, keepdims=True)
    logits = 32.0 * wn @ emb
    oracle = np.log(np.exp(logits - logits.max()).sum()) - (logits[1] - logits.max())
    assert abs(loss - oracle) < 1e-9


def test_loss_monotone_in_margin():
    m = init_model(small_cfg(5))
    emb = make_rng(4).standard_normal(4)
    emb /= np.linalg.norm(emb)
    losses = [aam_loss(emb[None], [2], m, margin=mg, s=32.0)[0][0] for mg in np.linspace(0, 1.5, 12)]
    assert all(b >= a - 1e-12 for a, b in zip(losses, losses[1:]))


def test_margin_hurts_aligned_embedding():
    m = init_model(small_cfg(6))
    emb = m.head[0] / np.linalg.norm(m.head[0])
    (l0,), _, _ = aam_loss(emb[None], [0], m, margin=0.0, s=32.0)
    (lm,), _, _ = aam_loss(emb[None], [0], m, margin=0.2, s=32.0)
    assert lm > l0


def test_invalid_label():
    m = init_model(small_cfg(7))
    emb = np.ones(4) / 2.0
    for bad in (5, -1):
        with pytest.raises(InvalidLabelError):
            aam_loss(emb[None], [bad], m, margin=0.1, s=32.0)


def test_gradients_match_finite_differences():
    # moderate-loss instances; tiny entries are compared absolutely via the
    # 1e-6 denominator guard (|a|+|b| below guard means noise-floor regime).
    # The last instance is a batch of three, its loss summed.
    rng = make_rng(1040)
    batch = [FeatureMatrix(rng.standard_normal((t, 6))) for t in (7, 5, 9)]
    for seed, feats, label in ((9, FeatureMatrix(make_rng(1009).standard_normal((7, 6))), 2),
                               (28, FeatureMatrix(make_rng(1028).standard_normal((7, 6))), 2),
                               (9, batch, [2, 1, 3])):
        m = init_model(small_cfg(seed))
        if isinstance(feats, FeatureMatrix):
            loss, g = batch_loss_and_grads(m, [feats], [label], 0.2, 32.0)
        else:
            loss, g = batch_loss_and_grads(m, feats, label, 0.2, 32.0)
            loss /= len(feats)
        assert 0.1 < loss < 10.0
        num = numeric_gradients(m, feats, label, 0.2, 32.0)
        for name in g:
            rel = np.abs(num[name] - g[name]) / np.maximum(np.abs(num[name]) + np.abs(g[name]), 1e-6)
            assert rel.max() < 1e-4, f"{name}: {rel.max()}"
            norm_rel = np.linalg.norm(num[name] - g[name]) / np.linalg.norm(g[name])
            assert norm_rel < 1e-4, f"{name}: {norm_rel}"


def test_gradients_with_saturated_softmax():
    # saturated instances have near-zero gradients; group norms still agree
    cfg = small_cfg(3)
    m = init_model(cfg)
    feats = FeatureMatrix(make_rng(11).standard_normal((7, 6)))
    _, g = batch_loss_and_grads(m, [feats], [2], 0.15, 32.0)
    num = numeric_gradients(m, feats, 2, 0.15, 32.0)
    for name in g:
        denom = max(np.linalg.norm(g[name]), 1e-12)
        assert np.linalg.norm(num[name] - g[name]) / denom < 1e-3, name


# ---------------------------------------------------------------------------
# schedule


def test_schedule_endpoints():
    cfg = small_cfg(0, warmup_steps=100, total_steps=1000, margin_warm_steps=400)
    m0, lr0 = schedule(0, cfg)
    assert m0 == 0.0 and lr0 == 0.0
    m_end, lr_end = schedule(1000, cfg)
    assert abs(lr_end - 5e-5) / 5e-5 < 1e-9
    assert m_end == 0.2
    _, lr_w = schedule(100, cfg)
    assert lr_w == cfg.lr_init
    _, lr_half = schedule(50, cfg)
    assert abs(lr_half - 0.05) < 1e-12


def test_schedule_margin_warm():
    cfg = small_cfg(0, total_steps=1000, margin_warm_steps=400)
    for step in (400, 600, 1000):
        assert schedule(step, cfg)[0] == 0.2
    assert schedule(200, cfg)[0] == pytest.approx(0.1)
    # default warm span is half the run
    cfg2 = small_cfg(0, total_steps=1000)
    assert cfg2.margin_warm == 500


def test_schedule_lr_decreasing_after_warmup():
    cfg = small_cfg(0, warmup_steps=10, total_steps=200)
    lrs = [schedule(s, cfg)[1] for s in range(10, 201)]
    assert all(b < a for a, b in zip(lrs, lrs[1:]))


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        small_cfg(0, warmup_steps=20, total_steps=20)
    with pytest.raises(InvalidConfigError):
        small_cfg(0, lr_init=1e-5, lr_final=1e-3)
    with pytest.raises(InvalidConfigError):
        small_cfg(0, margin_final=1.6)


# ---------------------------------------------------------------------------
# training


def tiny_training_set(n_speakers=2, n_utts=10, seconds=2.0):
    # synth floats are not int16 steps; quantize them as a WAV would store them
    pcm, ids, labels = [], [], []
    for spk in range(n_speakers):
        profile = make_speaker(1000 + spk, f"s{spk}")
        for j in range(n_utts):
            rng = make_rng(spk * 100 + j)
            pcm.append(to_pcm(quantize(synth_utterance(profile, seconds, rng).samples)))
            ids.append(f"s{spk}_u{j}")
            labels.append(spk)
    return TrainingSet(utt_ids=ids, labels=np.array(labels), pcm=pcm, sample_rate_hz=16000,
                       speakers=[f"s{i}" for i in range(n_speakers)])


def test_load_training_set_holds_int16_pcm(tmp_path):
    records = build_corpus(2, 3, 0.5, tmp_path, seed=4)[0]
    ts = load_training_set(records)
    assert ts.sample_rate_hz == 16000
    assert [p.dtype for p in ts.pcm] == [np.dtype(np.int16)] * len(records)
    assert all(p.ndim == 1 and p.flags.owndata for p in ts.pcm)  # no view keeps a float64 buffer alive
    assert sum(p.nbytes for p in ts.pcm) == 2 * sum(len(p) for p in ts.pcm) == 2 * sum(r.num_samples for r in records)
    for rec, p in zip(records, ts.pcm):
        assert from_pcm(p).tobytes() == read_wav(rec.wav_path).samples.tobytes()


def test_train_loss_decreases():
    ts = tiny_training_set()
    cfg = ToyModelConfig(n_speakers=2, hidden_dim=16, embed_dim=8, warmup_steps=20,
                         total_steps=200, batch_size=8, seed=5)
    res = train(cfg, ts)
    assert res.log[-1][1] < res.log[0][1]
    assert len(res.log) == 200


def test_train_deterministic():
    ts = tiny_training_set()
    cfg = ToyModelConfig(n_speakers=2, hidden_dim=8, embed_dim=4, warmup_steps=5,
                         total_steps=40, batch_size=4, seed=6)
    a = train(cfg, ts, HT)
    b = train(cfg, ts, HT)
    for pa, pb in zip(a.model.params().values(), b.model.params().values()):
        assert np.array_equal(pa, pb)


def test_train_augment_changes_inputs():
    ts = tiny_training_set()
    cfg = ToyModelConfig(n_speakers=2, hidden_dim=8, embed_dim=4, warmup_steps=5,
                         total_steps=40, batch_size=4, seed=7)
    plain = train(cfg, ts)
    padded = train(cfg, ts, HT)
    assert any(abs(a[1] - b[1]) > 1e-9 for a, b in zip(plain.log, padded.log))
    assert plain.log[-1][1] < plain.log[0][1]
    assert padded.log[-1][1] < padded.log[0][1]


def test_train_rejects_single_speaker():
    ts = tiny_training_set(n_speakers=2)
    solo = TrainingSet(utt_ids=ts.utt_ids, labels=ts.labels, pcm=ts.pcm, sample_rate_hz=ts.sample_rate_hz,
                       speakers=["s0"])
    cfg = ToyModelConfig(n_speakers=2, total_steps=10, warmup_steps=1, seed=0)
    with pytest.raises(DatasetTooSmallError):
        train(cfg, solo)
    with pytest.raises(DatasetTooSmallError):  # fewer utterances than one batch
        train(replace(cfg, batch_size=len(ts.utt_ids) + 1), ts)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    m = init_model(small_cfg(8))
    save_model(m, tmp_path / "m.bin", meta={"note": "x"})
    back = load_model(tmp_path / "m.bin")
    for a, b in zip(m.params().values(), back.params().values()):
        assert np.array_equal(a, b)
    assert "note=x" in (tmp_path / "m.bin.meta").read_text()


def test_failed_checkpoint_rewrite_keeps_old_checkpoint(tmp_path):
    m = init_model(small_cfg(8))
    save_model(m, tmp_path / "m.bin", meta={"note": "x"})
    header = CHECKPOINT_MAGIC + struct.pack("<iiii", m.input_dim, m.hidden_dim, m.embed_dim, m.n_speakers)
    assert (tmp_path / "m.bin").read_bytes() == header + b"".join(
        m.params()[name].astype("<f8").tobytes() for name in ("w1", "b1", "w2", "b2", "head"))
    assert (tmp_path / "m.bin.meta").read_bytes() == b"note=x\n"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    class Unformattable:
        def __format__(self, spec):
            raise RuntimeError("cannot format")

    with pytest.raises(RuntimeError):
        save_model(init_model(small_cfg(9)), tmp_path / "m.bin", meta={"bad": Unformattable()})
    # the old checkpoint and .meta untouched, no temporary file left behind
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_checkpoint_corruption(tmp_path):
    m = init_model(small_cfg(9))
    save_model(m, tmp_path / "m.bin")
    blob = (tmp_path / "m.bin").read_bytes()
    (tmp_path / "bad.bin").write_bytes(b"WRNG" + blob[4:])
    with pytest.raises(CorruptHeaderError):
        load_model(tmp_path / "bad.bin")
    (tmp_path / "cut.bin").write_bytes(blob[:-16])
    with pytest.raises(CorruptHeaderError):
        load_model(tmp_path / "cut.bin")
    (tmp_path / "short.bin").write_bytes(blob[:6])
    with pytest.raises(CorruptHeaderError, match="20-byte header"):
        load_model(tmp_path / "short.bin")


def test_embed_utterance_featurizes_once_for_all_models(monkeypatch):
    w = synth_utterance(make_speaker(5), 1.5, make_rng(6))
    m1, m2 = (init_model(ToyModelConfig(n_speakers=2, hidden_dim=8, embed_dim=4, seed=s)) for s in (1, 2))
    expected = [forward(m, cmn(fbank(w))) for m in (m1, m2)]
    calls = []
    monkeypatch.setattr(padaug.model, "fbank", lambda *a: (calls.append(1), fbank(*a))[1])
    got = embed_utterance([m1, m2], w)
    assert len(calls) == 1
    assert len(got) == 2
    for g, e in zip(got, expected):
        assert g.tobytes() == e.tobytes()
