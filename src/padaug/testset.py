"""Evaluation test-set construction.

A padded test set is a random 3 s chunk of every utterance padded with
k in [0, 8] extra seconds by build_ratio, under one of three placements
(head-tail, random head/tail split, or head-mid-tail), so its spec is the
pair (k_seconds, placement): k=0 is the bare chunk, k=2 head-tail-even 1 s
at head and tail. ratio_sweep builds every k in one pass per record: it
reads the record's WAV and cuts its chunk once, then for k = 8 down to 0
pads it, writes it and embeds it with each model; all nine directories
are published together, and scoring the embeddings is the caller's.
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

from .audio_io import Waveform
from .augment import PaddingLayout, assemble, loop_pad, random_chunk, wgn_like
from .errors import InvalidConfigError, LengthMismatchError
from .manifest import map_wavs
from .model import embed_utterance
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


def build_ratio(w3s: Waveform, k_seconds: int, placement: str, snr_db, rng: Rng, wgn=wgn_like) -> Waveform:
    """Pad a 3 s chunk with k extra seconds of noise, drawn by
    wgn(w3s, snr_db, l_pad, rng) after any split point.

    head-tail-even splits k evenly between head and tail (odd sample
    remainder goes to the tail); per-layout draws a random head/tail
    split of the same total; head-mid-tail-even puts a third at the head
    and a third at a uniform split point strictly inside the speech, so
    it always interrupts the chunk, and the rest at the tail.
    """
    check_ratio(k_seconds, placement)
    l_pad = round(k_seconds * w3s.sample_rate_hz)
    if l_pad == 0:
        return w3s
    t_s = len(w3s)
    l_mid = p_mid = 0
    if placement == "head-tail-even":
        l_head = l_pad // 2
    elif placement == "per-layout":
        l_head = randint(rng, 0, l_pad)
    else:
        if t_s < 2:
            raise LengthMismatchError(f"speech of {t_s} samples has no interior for mid padding")
        l_head = l_mid = l_pad // 3
        p_mid = randint(rng, 1, t_s - 1)
    layout = PaddingLayout(
        t_s=t_s, l_head=l_head, l_mid=l_mid, l_tail=l_pad - l_head - l_mid, p_mid=p_mid, snr_db=0.0 if snr_db is None else snr_db
    )
    noise = Waveform(np.zeros(l_pad), w3s.sample_rate_hz) if snr_db is None else wgn(w3s, snr_db, l_pad, rng)
    return assemble(w3s, layout, noise)


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
    after the chunk, as build_testset leaves it, and the padded chunk is
    written to work_dir/ratio<k> and embedded from memory as written with
    embed_utterance. Descending k allocates the largest buffers first.
    The first noise drawn, k = 8's, is kept, and a smaller k takes its
    prefix whenever the generator state before the draw is the same (it
    can differ under per-layout, whose split draw may reject and draw
    again); otherwise it draws its own. All nine directories are published
    by one staged block before the result is returned: a list of (k, embs)
    for k = 0..MAX_RATIO_SECONDS, where embs[j] is models[j]'s
    (len(records), embed_dim) float64 matrix, one row per record in record
    order.
    """
    check_ratio(MAX_RATIO_SECONDS, placement)
    ks = range(MAX_RATIO_SECONDS, -1, -1)

    def one(rec, w: Waveform, rng: Rng):
        chunk = build_chunk3s(w, rng)
        start = rng.bit_generator.state
        first = None  # (state before the draw, noise) of k = 8, the longest

        def shared_wgn(x, snr, n, rng):
            nonlocal first
            state = rng.bit_generator.state
            if first is None:
                first = state, wgn_like(x, snr, n, rng)
            elif first[0] != state:
                return wgn_like(x, snr, n, rng)
            return Waveform(first[1].samples[:n], x.sample_rate_hz)

        for k in ks:
            rng.bit_generator.state = start
            yield build_ratio(chunk, k, placement, snr_db, rng, shared_wgn)

    rows = map_wavs(records, [Path(work_dir) / f"ratio{k}" for k in ks], one, seed,
                    step=lambda rec, heard: embed_utterance(models, heard))
    return [(k, [np.reshape([row[ks.index(k)][j] for row in rows], (len(records), m.embed_dim))
                 for j, m in enumerate(models)]) for k in range(MAX_RATIO_SECONDS + 1)]
