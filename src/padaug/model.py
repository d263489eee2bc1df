"""A tiny trainable speaker-embedding model, numpy only.

Architecture: per-frame affine + ReLU, temporal statistics pooling
(mean and population std over time), a second affine down to the
embedding size, L2 normalization, and an additive-angular-margin
softmax head for training. Gradients are written out by hand; an
independent finite-difference oracle in the test suite checks every
parameter group.

Everything runs in float64 and all randomness flows from the config
seed, so training twice with the same config is bit-identical.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .augment import PadAugConfig, pad_aug_utterance
from .errors import (
    CorruptHeaderError,
    DatasetTooSmallError,
    DimMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    TooFewFramesError,
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


def tsp_pool(h: np.ndarray) -> np.ndarray:
    """Mean and population std over time, std floored at sqrt(VAR_FLOOR)."""
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] < 2:
        raise TooFewFramesError(f"pooling needs >= 2 frames, got shape {h.shape}")
    mu = h.mean(axis=0)
    sd = np.sqrt(np.maximum(h.var(axis=0), VAR_FLOOR))
    return np.concatenate([mu, sd])


@dataclass
class _Cache:
    f: np.ndarray
    h_pre: np.ndarray
    h: np.ndarray
    pooled: np.ndarray  # [mean, sd] from tsp_pool
    z: np.ndarray
    z_norm: float
    emb: np.ndarray


def _forward(m: ToyModel, f: FeatureMatrix) -> _Cache:
    x = f.values
    if x.shape[1] != m.input_dim:
        raise DimMismatchError(f"features have {x.shape[1]} dims, model expects {m.input_dim}")
    h_pre = x @ m.w1.T + m.b1
    h = np.maximum(h_pre, 0.0)
    pooled = tsp_pool(h)
    z = m.w2 @ pooled + m.b2
    z_norm = float(np.linalg.norm(z))
    emb = z / z_norm if z_norm > 0.0 else np.zeros_like(z)
    return _Cache(f=x, h_pre=h_pre, h=h, pooled=pooled, z=z, z_norm=z_norm, emb=emb)


def forward(m: ToyModel, f: FeatureMatrix) -> np.ndarray:
    """Embedding for one utterance; unit norm unless the model is degenerate."""
    return _forward(m, f).emb


def zero_grads(m: ToyModel):
    return {k: np.zeros_like(v) for k, v in m.params().items()}


def aam_loss(emb: np.ndarray, label: int, m: ToyModel, margin: float, s: float):
    """AAM-softmax loss for one (already normalized) embedding.

    Returns (loss, d_emb, d_head). The true-class logit is
    s*cos(min(theta + margin, pi)); the pi clamp keeps loss monotone in
    the margin for any angle.
    """
    if not 0 <= label < m.n_speakers:
        raise InvalidLabelError(f"label {label} outside [0, {m.n_speakers})")
    head = m.head
    norms = np.linalg.norm(head, axis=1)
    if np.any(norms == 0.0):
        raise InvalidConfigError("head row with zero norm")
    wn = head / norms[:, None]
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

    # dL/dlogit = p - onehot; chain the margin through the true class only.
    dlogit = p.copy()
    dlogit[label] -= 1.0
    dcos = s * dlogit
    dpsi_dcos = 0.0 if clamped else np.sin(theta + margin) / np.sin(theta)
    dcos[label] *= dpsi_dcos
    d_emb = wn.T @ dcos
    d_head = (dcos[:, None] * (emb[None, :] - cos[:, None] * wn)) / norms[:, None]
    return loss, d_emb, d_head


def loss_and_grads(m: ToyModel, f: FeatureMatrix, label: int, margin: float, s: float):
    """Loss plus gradients for every parameter group, one utterance."""
    c = _forward(m, f)
    loss, d_emb, d_head = aam_loss(c.emb, label, m, margin, s)

    # Through L2 normalization: z = emb * |z|.
    if c.z_norm > 0.0:
        dz = (d_emb - np.dot(d_emb, c.emb) * c.emb) / c.z_norm
    else:
        dz = np.zeros_like(d_emb)

    dpooled = m.w2.T @ dz

    hid = m.hidden_dim
    t = c.h.shape[0]
    mu, sd = c.pooled[:hid], c.pooled[hid:]
    dmu, dsd = dpooled[:hid], dpooled[hid:]
    # sd = sqrt(var); flat where the floor is active.
    dvar = np.where(sd > np.sqrt(VAR_FLOOR), dsd / (2.0 * sd), 0.0)
    # var as a function of h has derivative 2(h - mu)/t; the mu path adds dmu/t.
    dh = dmu / t + (2.0 / t) * dvar * (c.h - mu)
    dh_pre = dh * (c.h_pre > 0.0)
    return loss, {
        "w1": dh_pre.T @ c.f,
        "b1": dh_pre.sum(axis=0),
        "w2": np.outer(dz, c.pooled),
        "b2": dz,
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
    waveforms: list
    speakers: list  # index -> speaker_id


def load_training_set(records) -> TrainingSet:
    """Load waveforms into memory and map speaker ids to label indices."""
    speakers = sorted({r.speaker_id for r in records})
    if len(speakers) < 2:
        raise DatasetTooSmallError(f"need >= 2 speakers, got {len(speakers)}")
    index = {s: i for i, s in enumerate(speakers)}
    utt_ids = [r.utt_id for r in records]
    labels = np.array([index[r.speaker_id] for r in records], dtype=np.int64)
    waveforms = map_records(records, lambda rec, w, rng: w)
    return TrainingSet(utt_ids=utt_ids, labels=labels, waveforms=waveforms, speakers=speakers)


@dataclass
class TrainResult:
    model: ToyModel
    log: list  # (step, loss, lr, margin) per step


def train(cfg: ToyModelConfig, ts: TrainingSet, pad_cfg: PadAugConfig | None = None) -> TrainResult:
    """SGD over shuffled mini-batches for cfg.total_steps steps.

    With a pad_cfg each utterance passes through the padding augmentation
    (HT, or HMT when pad_cfg.use_mid) before feature extraction, fresh
    draws every step; None trains on the unpadded waveforms. Per-utterance
    seeds are drawn up front each step, so batch assembly may run in a
    worker pool without changing the result.
    """
    if len(ts.speakers) < 2:
        raise DatasetTooSmallError("need >= 2 speakers")
    if len(ts.utt_ids) < cfg.batch_size:
        raise DatasetTooSmallError(f"need >= batch_size={cfg.batch_size} utterances, got {len(ts.utt_ids)}")

    model = init_model(cfg)
    order_rng = make_rng(child_seed(cfg.seed, "order"))
    data_rng = make_rng(child_seed(cfg.seed, "data"))
    feature_cache: dict = {}  # full fbank per utterance, only when not augmenting

    def batch_features(indices, seeds):
        def one(pair):
            idx, sub_seed = pair
            rng = make_rng(sub_seed)
            if pad_cfg is None:
                if idx not in feature_cache:
                    feature_cache[idx] = fbank(ts.waveforms[idx])
                feats = feature_cache[idx]
            else:
                feats = fbank(pad_aug_utterance(ts.waveforms[idx], pad_cfg, rng).waveform)
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
        total_loss = 0.0
        grads = zero_grads(model)
        for f, idx in zip(feats, indices):
            loss, g = loss_and_grads(model, f, int(ts.labels[idx]), margin, cfg.scale)
            total_loss += loss
            for k in grads:
                grads[k] += g[k]
        inv = 1.0 / len(indices)
        for k, p in model.params().items():
            p -= lr * inv * grads[k]
        log.append((step, total_loss * inv, lr, margin))
    return TrainResult(model=model, log=log)


def embed_utterance(m: ToyModel, w) -> np.ndarray:
    """Evaluation-time embedding: whole-utterance features, CMN, forward."""
    return forward(m, cmn(fbank(w)))


# ---------------------------------------------------------------------------
# Checkpoint: magic, four int32 dims, float64 blocks w1 b1 w2 b2 head,
# all little-endian, plus a text sidecar (<path>.meta) with config notes.


def save_model(m: ToyModel, path, meta: dict | None = None) -> None:
    """Write the checkpoint and its .meta through manifest.staged, moved
    into place (checkpoint first, .meta last) only once both are written."""
    with staged(path, f"{path}.meta") as (tmp_bin, tmp_meta):
        with open(tmp_bin, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<iiii", m.input_dim, m.hidden_dim, m.embed_dim, m.n_speakers))
            for name in ("w1", "b1", "w2", "b2", "head"):
                f.write(m.params()[name].astype("<f8").tobytes(order="C"))
        tmp_meta.write_text("".join(f"{k}={v}\n" for k, v in sorted((meta or {}).items())), encoding="utf-8")


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
