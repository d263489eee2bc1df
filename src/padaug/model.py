"""A tiny trainable speaker-embedding model, numpy only.

Architecture: per-frame affine + ReLU, temporal statistics pooling
(mean and population std over time), a second affine down to the
embedding size, L2 normalization, and an additive-angular-margin
softmax head for training. Gradients are written out by hand, for a
whole mini-batch in one call; an independent finite-difference oracle in
the test suite checks every parameter group, and a one-utterance oracle
checks that the batch sums exactly as one call per utterance would.

Everything runs in float64 and all randomness flows from the config
seed, so training twice with the same config is bit-identical.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import Waveform, from_pcm, to_pcm
from .augment import PadAugConfig, pad_aug_utterance
from .errors import (
    CorruptHeaderError,
    DatasetTooSmallError,
    DimMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    TooShortError,
    UnsupportedFormatError,
    naming_utterance,
)
from .features import N_MELS, FeatureMatrix, chunk_frames, cmn, fbank
from .manifest import map_records, staged
from .seeding import child_seed, make_rng, spawn
from .workers import worker_map

CHECKPOINT_MAGIC = b"PADM"
VAR_FLOOR = 1e-10


@dataclass(frozen=True)
class ToyModelConfig:
    n_speakers: int
    input_dim: int = N_MELS
    hidden_dim: int = 64
    embed_dim: int = 32
    scale: float = 32.0
    margin_final: float = 0.2
    lr_init: float = 1e-1
    lr_final: float = 5e-5
    warmup_steps: int = 100
    total_steps: int = 1000
    margin_warm_steps: int = -1  # -1 means total_steps // 2
    batch_size: int = 32
    chunk_len: int = 300
    seed: int = 0

    def __post_init__(self):
        if min(self.n_speakers, self.input_dim, self.hidden_dim, self.embed_dim) < 1:
            raise InvalidConfigError("all model dimensions must be >= 1")
        if self.lr_final > self.lr_init:
            raise InvalidConfigError("lr_final must not exceed lr_init")
        if not 0.0 <= self.margin_final < np.pi / 2:
            raise InvalidConfigError(f"margin_final must be in [0, pi/2), got {self.margin_final}")
        if not 0 <= self.warmup_steps < self.total_steps:
            raise InvalidConfigError("need 0 <= warmup_steps < total_steps")
        if self.batch_size < 1 or self.chunk_len < 2:
            raise InvalidConfigError("batch_size >= 1 and chunk_len >= 2 required")

    @property
    def margin_warm(self) -> int:
        return self.total_steps // 2 if self.margin_warm_steps < 0 else self.margin_warm_steps


@dataclass
class ToyModel:
    w1: np.ndarray  # hidden x input
    b1: np.ndarray  # hidden
    w2: np.ndarray  # embed x 2*hidden
    b2: np.ndarray  # embed
    head: np.ndarray  # n_speakers x embed, rows unit-normalized at use

    def params(self):
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": self.b2, "head": self.head}

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    @property
    def n_speakers(self) -> int:
        return self.head.shape[0]


def init_model(cfg: ToyModelConfig) -> ToyModel:
    rng = make_rng(child_seed(cfg.seed, "init"))
    return ToyModel(
        w1=rng.standard_normal((cfg.hidden_dim, cfg.input_dim)) / np.sqrt(cfg.input_dim),
        b1=np.zeros(cfg.hidden_dim),
        w2=rng.standard_normal((cfg.embed_dim, 2 * cfg.hidden_dim)) / np.sqrt(2 * cfg.hidden_dim),
        b2=np.zeros(cfg.embed_dim),
        head=rng.standard_normal((cfg.n_speakers, cfg.embed_dim)) / np.sqrt(cfg.embed_dim),
    )


def _center(h: np.ndarray):
    """Subtract the mean over time from h in place; return the mean and the
    population variance. The variance is bit-identical to h.var(axis=0),
    which also sums, divides by the count, subtracts, squares and sums."""
    mu = h.mean(axis=0)
    h -= mu
    return mu, (h * h).sum(axis=0) / h.shape[0]


def _floored_sd(var: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(var, VAR_FLOOR))


def _matvecs(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """a @ v[i] for every row of v, one BLAS gemv per row, so each row
    rounds as the one-vector product does (one GEMM over the batch does not)."""
    return np.matmul(a, v[:, :, None])[:, :, 0]


def _forward(m: ToyModel, feats):
    """Forward pass over a batch of utterances of any lengths.

    Returns pooled [mean, sd] (B, 2*hidden), |z| (B,), the embeddings
    (B, embed) and, per utterance, (x, h - mean, h > 0) for the backward
    pass. The frame layer runs per utterance, into row blocks of one
    (total frames, hidden) array; everything after pooling runs on the
    whole batch.
    """
    b, hid = len(feats), m.hidden_dim
    for f in feats:
        if f.dims != m.input_dim:
            raise DimMismatchError(f"features have {f.dims} dims, model expects {m.input_dim}")
        if f.frames < 2:
            raise TooShortError(f"pooling needs >= 2 frames, got {f.frames}")
    rows = sum(f.frames for f in feats)
    centered, active = np.empty((rows, hid)), np.empty((rows, hid), dtype=bool)
    mus, variances = np.empty((b, hid)), np.empty((b, hid))
    frames, start = [], 0
    for i, f in enumerate(feats):
        x, t = f.values, f.frames
        h, mask = centered[start : start + t], active[start : start + t]
        start += t
        np.matmul(x, m.w1.T, out=h)
        h += m.b1
        np.maximum(h, 0.0, out=h)
        np.greater(h, 0.0, out=mask)
        mus[i], variances[i] = _center(h)
        frames.append((x, h, mask))
    pooled = np.concatenate([mus, _floored_sd(variances)], axis=1)
    z = _matvecs(m.w2, pooled) + m.b2
    z_norm = np.sqrt(np.vecdot(z, z))
    emb = np.divide(z, z_norm[:, None], out=np.zeros_like(z), where=z_norm[:, None] > 0.0)
    return pooled, z_norm, emb, frames


def forward(m: ToyModel, f: FeatureMatrix) -> np.ndarray:
    """Embedding for one utterance; unit norm unless the model is degenerate."""
    return _forward(m, [f])[2][0]


def aam_loss(emb: np.ndarray, labels, m: ToyModel, margin: float, s: float):
    """AAM-softmax loss for a batch of (already normalized) embeddings.

    Returns (loss per item, d_emb per item, d_head summed over the batch
    from zero). The true-class logit is s*cos(min(theta + margin, pi));
    the pi clamp keeps loss monotone in the margin for any angle.
    """
    labels = np.asarray(labels)
    if labels.shape != (len(emb),):
        raise DimMismatchError(f"{len(emb)} embeddings but labels of shape {labels.shape}")
    # Checked here, not by indexing: a label of -1 would wrap.
    outside = (labels < 0) | (labels >= m.n_speakers)
    if outside.any():
        raise InvalidLabelError(f"label {labels[outside][0]} outside [0, {m.n_speakers})")
    head = m.head
    norms = np.linalg.norm(head, axis=1)
    if np.any(norms == 0.0):
        raise InvalidConfigError("head row with zero norm")
    wn = head / norms[:, None]
    true = np.arange(len(labels)), labels
    cos = _matvecs(wn, emb)
    theta = np.arccos(np.clip(cos[true], -1.0 + 1e-12, 1.0 - 1e-12))
    clamped = theta + margin >= np.pi
    logits = s * cos
    logits[true] = s * np.cos(np.minimum(theta + margin, np.pi))
    shifted = logits - logits.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1, keepdims=True)
    loss = np.log(total[:, 0]) - shifted[true]

    # dL/dlogit = p - onehot; chain the margin through the true class only.
    dlogit = expv / total
    dlogit[true] -= 1.0
    dcos = s * dlogit
    dcos[true] *= np.where(clamped, 0.0, np.sin(theta + margin) / np.sin(theta))
    d_emb = _matvecs(wn.T, dcos)
    d_head = (dcos[:, :, None] * (emb[:, None, :] - cos[:, :, None] * wn)) / norms[:, None]
    return loss, d_emb, np.add.reduce(d_head, axis=0, initial=0.0)


def batch_loss_and_grads(m: ToyModel, feats, labels, margin: float, s: float):
    """Loss and gradients for every parameter group, summed over a batch.

    Bit-identical to adding the one-utterance results left to right,
    starting from zero: per-item matrix products stay per item, and every
    sum over the batch runs in item order.
    """
    pooled, z_norm, emb, frames = _forward(m, feats)
    losses, d_emb, d_head = aam_loss(emb, labels, m, margin, s)

    # Through L2 normalization: z = emb * |z|.
    dz = np.divide(d_emb - np.vecdot(d_emb, emb)[:, None] * emb, z_norm[:, None],
                   out=np.zeros_like(d_emb), where=z_norm[:, None] > 0.0)
    dpooled = _matvecs(m.w2.T, dz)

    hid = m.hidden_dim
    sd = pooled[:, hid:]
    dmu, dsd = dpooled[:, :hid], dpooled[:, hid:]
    # sd = sqrt(var); flat where the floor is active.
    dvar = np.where(sd > np.sqrt(VAR_FLOOR), dsd / (2.0 * sd), 0.0)
    gw1, gb1, tmp = np.zeros_like(m.w1), np.zeros_like(m.b1), np.empty_like(m.w1)
    for (x, dh, mask), dmu_i, dvar_i in zip(frames, dmu, dvar):
        # var as a function of h has derivative 2(h - mu)/t; the mu path
        # adds dmu/t. dh starts as h - mu and becomes dL/dh_pre in place.
        t = x.shape[0]
        dh *= (2.0 / t) * dvar_i
        dh += dmu_i / t
        dh *= mask
        gw1 += np.matmul(dh.T, x, out=tmp)
        gb1 += dh.sum(axis=0)

    # A Python loop, not sum(), which compensates float rounding on 3.12+.
    total = 0.0
    for loss in losses.tolist():
        total += loss
    return total, {
        "w1": gw1,
        "b1": gb1,
        "w2": np.add.reduce(dz[:, :, None] * pooled[:, None, :], axis=0, initial=0.0),
        "b2": np.add.reduce(dz, axis=0, initial=0.0),
        "head": d_head,
    }


def schedule(step: int, cfg: ToyModelConfig):
    """(margin, lr) at a given step.

    lr climbs linearly from 0 to lr_init across warmup_steps, then decays
    geometrically to land exactly on lr_final at total_steps. The margin
    climbs linearly from 0 to margin_final across margin_warm steps.
    """
    if step < cfg.warmup_steps:
        lr = cfg.lr_init * step / cfg.warmup_steps
    else:
        frac = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
        lr = cfg.lr_init * (cfg.lr_final / cfg.lr_init) ** frac
    warm = cfg.margin_warm
    margin = cfg.margin_final if warm <= 0 else cfg.margin_final * min(step / warm, 1.0)
    return margin, lr


# ---------------------------------------------------------------------------
# Training


@dataclass
class TrainingSet:
    utt_ids: list
    labels: np.ndarray  # int per utterance
    pcm: list  # per utterance, its int16 samples as the WAV stores them (1-D, 2 bytes each)
    sample_rate_hz: int  # of every utterance
    speakers: list  # index -> speaker_id


def load_training_set(records) -> TrainingSet:
    """Load the audio into memory as int16 PCM and map speaker ids to label
    indices. Each float64 waveform lives only while its record is read.
    All waveforms must share one sample rate."""
    speakers = sorted({r.speaker_id for r in records})
    if len(speakers) < 2:
        raise DatasetTooSmallError(f"need >= 2 speakers, got {len(speakers)}")
    index = {s: i for i, s in enumerate(speakers)}
    utt_ids = [r.utt_id for r in records]
    labels = np.array([index[r.speaker_id] for r in records], dtype=np.int64)
    read = map_records(records, lambda rec, w, rng: (to_pcm(w.samples), w.sample_rate_hz))
    rates = {sr: r.utt_id for r, (_, sr) in zip(records, read)}
    if len(rates) > 1:
        named = ", ".join(f"{utt!r} at {sr} Hz" for sr, utt in sorted(rates.items()))
        raise UnsupportedFormatError(f"training set mixes sample rates: {named}")
    return TrainingSet(utt_ids=utt_ids, labels=labels, pcm=[pcm for pcm, _ in read],
                       sample_rate_hz=next(iter(rates)), speakers=speakers)


@dataclass
class TrainResult:
    model: ToyModel
    log: list  # (step, loss, lr, margin) per step


def train(cfg: ToyModelConfig, ts: TrainingSet, pad_cfg: PadAugConfig | None = None) -> TrainResult:
    """SGD over shuffled mini-batches for cfg.total_steps steps.

    With a pad_cfg each utterance passes through the padding augmentation
    (HT, or HMT when pad_cfg.use_mid) before feature extraction, fresh
    draws every step; None trains on the unpadded waveforms. Each item
    converts its utterance's PCM to float64 where it is used, once per
    utterance without augmentation (the features are cached). Per-utterance
    seeds are drawn up front each step, so batch assembly may run in a
    worker pool without changing the result. A PadAugError or OSError
    raised for an item names its utterance, as map_records does.
    """
    if len(ts.speakers) < 2:
        raise DatasetTooSmallError("need >= 2 speakers")
    if len(ts.utt_ids) < cfg.batch_size:
        raise DatasetTooSmallError(f"need >= batch_size={cfg.batch_size} utterances, got {len(ts.utt_ids)}")

    model = init_model(cfg)
    order_rng = make_rng(child_seed(cfg.seed, "order"))
    data_rng = make_rng(child_seed(cfg.seed, "data"))
    feature_cache: dict = {}  # full fbank per utterance, only when not augmenting

    def waveform(idx):
        return Waveform(from_pcm(ts.pcm[idx]), ts.sample_rate_hz)

    def batch_features(indices, seeds):
        def one(pair):
            idx, sub_seed = pair
            rng = make_rng(sub_seed)
            with naming_utterance(ts.utt_ids[idx]):
                if pad_cfg is None:
                    if idx not in feature_cache:
                        feature_cache[idx] = fbank(waveform(idx))
                    feats = feature_cache[idx]
                else:
                    feats = fbank(pad_aug_utterance(waveform(idx), pad_cfg, rng).waveform)
                return cmn(chunk_frames(feats, cfg.chunk_len, rng))

        return worker_map(one, zip(indices, seeds))

    n = len(ts.utt_ids)
    log = []
    queue: list = []
    for step in range(cfg.total_steps):
        if len(queue) < cfg.batch_size:
            queue.extend(order_rng.permutation(n).tolist())
        indices = [queue.pop(0) for _ in range(cfg.batch_size)]
        seeds = [spawn(data_rng) for _ in indices]
        feats = batch_features(indices, seeds)

        margin, lr = schedule(step + 1, cfg)
        total_loss, grads = batch_loss_and_grads(model, feats, ts.labels[indices], margin, cfg.scale)
        inv = 1.0 / len(indices)
        for k, p in model.params().items():
            p -= lr * inv * grads[k]
        log.append((step, total_loss * inv, lr, margin))
    return TrainResult(model=model, log=log)


def embed_utterance(models, w) -> list:
    """Evaluation embeddings of w, one per model: cmn(fbank(w)) once, then forward."""
    f = cmn(fbank(w))
    return [forward(m, f) for m in models]


# ---------------------------------------------------------------------------
# Checkpoint: magic, four int32 dims, float64 blocks w1 b1 w2 b2 head,
# all little-endian, plus a text sidecar (meta_path(path)) with config notes.


def meta_path(path) -> str:
    """The checkpoint's text sidecar, `<path>.meta`."""
    return f"{path}.meta"


def save_model(m: ToyModel, path, meta: dict | None = None, extra: dict | None = None) -> None:
    """Write the checkpoint and its .meta through manifest.staged, moved
    into place (checkpoint first, .meta, then the paths extra maps to
    write(tmp) callables) only once all are written."""
    extra = extra or {}
    with staged(path, meta_path(path), *extra) as (tmp_bin, tmp_meta, *tmps):
        with open(tmp_bin, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<iiii", m.input_dim, m.hidden_dim, m.embed_dim, m.n_speakers))
            for name in ("w1", "b1", "w2", "b2", "head"):
                f.write(m.params()[name].astype("<f8").tobytes(order="C"))
        tmp_meta.write_text("".join(f"{k}={v}\n" for k, v in sorted((meta or {}).items())), encoding="utf-8")
        for write, tmp in zip(extra.values(), tmps):
            write(tmp)


def load_model(path) -> ToyModel:
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CorruptHeaderError(f"bad checkpoint magic {blob[:4]!r}")
    if len(blob) < 20:
        raise CorruptHeaderError(f"checkpoint is {len(blob)} bytes, shorter than its 20-byte header")
    input_dim, hidden_dim, embed_dim, n_speakers = struct.unpack("<iiii", blob[4:20])
    if min(input_dim, hidden_dim, embed_dim, n_speakers) < 1:
        raise CorruptHeaderError("non-positive dimension in checkpoint header")
    shapes = [
        (hidden_dim, input_dim),
        (hidden_dim,),
        (embed_dim, 2 * hidden_dim),
        (embed_dim,),
        (n_speakers, embed_dim),
    ]
    need = 20 + 8 * sum(int(np.prod(s)) for s in shapes)
    if len(blob) != need:
        raise CorruptHeaderError(f"checkpoint is {len(blob)} bytes, expected {need}")
    offset = 20
    blocks = []
    for shape in shapes:
        count = int(np.prod(shape))
        blocks.append(np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy())
        offset += 8 * count
    return ToyModel(*blocks)
