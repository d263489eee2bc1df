"""Evaluation test-set construction.

A padded test set is a random 3 s chunk of every utterance padded with
k in [0, 8] extra seconds by build_ratio, under one of three placements
(head-tail, random head/tail split, or head-mid-tail), so its spec is the
pair (k_seconds, placement): k=0 is the bare chunk, k=2 head-tail-even 1 s
at head and tail. ratio_sweep builds every k in one pass per record: it
reads the record's WAV, cuts its chunk and draws its noise once, writes
the chunk padded for k = 8 down to 0, and embeds all nine with each model
from one fbank_pieces call, which computes each distinct frame once; all
nine directories are published together, and scoring the embeddings is
the caller's.
Padding "silence" is white Gaussian noise at a fixed SNR (default 25 dB)
so the padded regions resemble a quiet recording floor; digital zeros are
available by passing snr_db=None.

Per-utterance randomness is derived from (seed, utt_id), never from
manifest position, so rebuilding a subset or reordering the manifest
reproduces identical files. Draw order per utterance is pinned: chunk
offset, then mid split point, then noise, so test sets that share a seed
also share the underlying chunk, and a sweep's k = 8 noise holds every
smaller k's noise as a prefix whenever the generator reaches the noise in
the same state.
"""

from pathlib import Path

import numpy as np

from .audio_io import Waveform, quantize
from .augment import PaddingLayout, assemble, loop_pad, random_chunk, wgn_like
from .errors import InvalidConfigError, LengthMismatchError
from .features import cmn, fbank_pieces
from .manifest import map_wavs
from .model import forward
from .seeding import Rng, randint

CHUNK_SECONDS = 3.0
TEST_SNR_DB = 25.0
MAX_RATIO_SECONDS = 8
PLACEMENTS = ("head-tail-even", "per-layout", "head-mid-tail-even")


def build_chunk3s(w: Waveform, rng: Rng) -> Waveform:
    """Random contiguous 3 s chunk; shorter inputs are loop-padded first."""
    t_s = round(CHUNK_SECONDS * w.sample_rate_hz)
    return random_chunk(loop_pad(w, t_s), t_s, rng)


def check_ratio(k_seconds: int, placement: str) -> None:
    """Raise unless build_ratio accepts (k_seconds, placement)."""
    if not 0 <= k_seconds <= MAX_RATIO_SECONDS:
        raise InvalidConfigError(f"k_seconds must be in [0, {MAX_RATIO_SECONDS}], got {k_seconds}")
    if placement not in PLACEMENTS:
        raise InvalidConfigError(f"unknown placement {placement!r}")


def build_ratio(w3s: Waveform, k_seconds: int, placement: str, snr_db, rng: Rng) -> Waveform:
    """Pad a 3 s chunk with k extra seconds of noise, drawn by
    wgn_like(w3s, snr_db, l_pad, rng) after any split point.

    head-tail-even splits k evenly between head and tail (odd sample
    remainder goes to the tail); per-layout draws a random head/tail
    split of the same total; head-mid-tail-even puts a third at the head
    and a third at a uniform split point strictly inside the speech, so
    it always interrupts the chunk, and the rest at the tail.
    """
    layout = _ratio_layout(w3s, k_seconds, placement, snr_db, rng)
    if layout.l_pad == 0:
        return w3s
    return assemble(w3s, layout, _ratio_noise(w3s, layout, snr_db, rng))


def _ratio_layout(w3s: Waveform, k_seconds: int, placement: str, snr_db, rng: Rng) -> PaddingLayout:
    """build_ratio's layout, with its split draws; k = 0 draws nothing."""
    check_ratio(k_seconds, placement)
    l_pad = round(k_seconds * w3s.sample_rate_hz)
    t_s = len(w3s)
    l_mid = p_mid = 0
    if l_pad == 0 or placement == "head-tail-even":
        l_head = l_pad // 2
    elif placement == "per-layout":
        l_head = randint(rng, 0, l_pad)
    else:
        if t_s < 2:
            raise LengthMismatchError(f"speech of {t_s} samples has no interior for mid padding")
        l_head = l_mid = l_pad // 3
        p_mid = randint(rng, 1, t_s - 1)
    return PaddingLayout(
        t_s=t_s, l_head=l_head, l_mid=l_mid, l_tail=l_pad - l_head - l_mid, p_mid=p_mid, snr_db=0.0 if snr_db is None else snr_db
    )


def _ratio_noise(w3s: Waveform, layout: PaddingLayout, snr_db, rng: Rng) -> Waveform:
    """build_ratio's layout.l_pad samples of padding: digital zeros when snr_db is None."""
    return Waveform(np.zeros(layout.l_pad), w3s.sample_rate_hz) if snr_db is None else wgn_like(w3s, snr_db, layout.l_pad, rng)


def build_testset(records, out_dir, seed: int, k_seconds: int, placement: str = "head-tail-even", snr_db=TEST_SNR_DB):
    """Write every record's 3 s chunk padded by build_ratio to out_dir,
    one WAV each plus a manifest.tsv; returns the new records. Raises
    before writing anything when (k_seconds, placement) is out of range.
    """
    check_ratio(k_seconds, placement)

    def one(rec, w: Waveform, rng: Rng) -> Waveform:
        return build_ratio(build_chunk3s(w, rng), k_seconds, placement, snr_db, rng)

    return map_wavs(records, out_dir, one, seed)


def ratio_sweep(records, models, work_dir, seed, placement="head-tail-even", snr_db=TEST_SNR_DB):
    """Embed the padded test set with every model for k = 0..MAX_RATIO_SECONDS.

    One worker item is one record: its WAV is read and its chunk cut once,
    then for k = 8 down to 0 its generator is reset to the state just
    after the chunk, as build_testset leaves it, and build_ratio's layout
    and noise are drawn. The first noise drawn, k = 8's, is kept, and a
    smaller k takes its prefix whenever the generator state before the
    draw is the same (it can differ under per-layout, whose split draw may
    reject and draw again); otherwise it draws its own. Descending k
    allocates the largest buffers first.

    Each padded chunk is written to work_dir/ratio<k> as build_testset
    writes it, and embedded as written (the features of what read_wav
    would give back, then cmn, then forward, as embed_utterance does),
    without being read back or built a second time: quantization works
    sample by sample, so a padded chunk as heard is the concatenation of
    the layout's slices of the quantized chunk and the quantized noise,
    and fbank_pieces featurizes the nine of them from those sources,
    sharing every frame that lies inside one slice at a hop-aligned
    offset. Under head-tail-even that is all but three frames per join.

    All nine directories are published by one staged block before the
    result is returned: a list of (k, embs) for k = 0..MAX_RATIO_SECONDS,
    where embs[j] is models[j]'s (len(records), embed_dim) float64 matrix,
    one row per record in record order.
    """
    check_ratio(MAX_RATIO_SECONDS, placement)
    ks = range(MAX_RATIO_SECONDS, -1, -1)
    embs = {}

    def one(rec, w: Waveform, rng: Rng):
        chunk = build_chunk3s(w, rng)
        start = rng.bit_generator.state
        sources, padded = [chunk], []  # padded: (layout, index of its noise in sources) per k
        first = None  # (state before the draw, noise index) of k = 8, the longest
        for k in ks:
            rng.bit_generator.state = start
            layout = _ratio_layout(chunk, k, placement, snr_db, rng)
            state = rng.bit_generator.state
            if first is not None and (first[0] == state or layout.l_pad == 0):  # k = 0 takes no noise
                noise = first[1]
            else:
                sources.append(_ratio_noise(chunk, layout, snr_db, rng))
                noise = len(sources) - 1
                first = first or (state, noise)
            padded.append((layout, noise))
        outputs = [[((noise, 0)[s], a, b) for s, a, b in layout.pieces()] for layout, noise in padded]
        # One statement, so that no quantized source or feature matrix stays
        # alive while the nine WAVs are written.
        embs[rec.utt_id] = [[forward(m, f) for m in models] for f in map(cmn, fbank_pieces(
            [Waveform(quantize(s.samples), s.sample_rate_hz) for s in sources], outputs))]
        for layout, noise in padded:
            yield assemble(chunk, layout, Waveform(sources[noise].samples[: layout.l_pad], chunk.sample_rate_hz))

    map_wavs(records, [Path(work_dir) / f"ratio{k}" for k in ks], one, seed)
    return [(k, [np.reshape([embs[rec.utt_id][ks.index(k)][j] for rec in records], (len(records), m.embed_dim))
                 for j, m in enumerate(models)]) for k in range(MAX_RATIO_SECONDS + 1)]
