"""Dataset manifests: one TSV row per utterance.

Columns: utt_id, speaker_id, wav_path, num_samples, sample_rate. No
header row. wav_path is stored relative to the manifest's directory so a
dataset directory can be moved wholesale. map_wavs writes a WAV dataset
directory: `<utt_id>.wav` per record plus `manifest.tsv`.
"""

import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path

from .audio_io import read_wav, write_wav
from .errors import CorruptHeaderError, InvalidConfigError, PadAugError, read_text
from .workers import worker_map

_NUM_COLS = 5


@dataclass(frozen=True)
class UtteranceRecord:
    utt_id: str
    speaker_id: str
    wav_path: str  # absolute after reading, relative on disk
    num_samples: int
    sample_rate_hz: int


def check_utt_id(utt_id: str) -> None:
    """An utterance id names a WAV file and fills one column of the
    space-delimited trial and score files, so it must be non-empty, with no
    whitespace and no '/'. Raises InvalidConfigError otherwise."""
    if not utt_id or "/" in utt_id or any(c.isspace() for c in utt_id):
        raise InvalidConfigError(f"bad utt_id {utt_id!r}: must be non-empty, without whitespace or '/'")


def _check_field(value: str, name: str) -> str:
    if not value:
        raise InvalidConfigError(f"empty {name} in manifest record")
    if "\t" in value or "\n" in value:
        raise InvalidConfigError(f"{name} contains a tab or newline: {value!r}")
    return value


def write_manifest(records, path) -> None:
    """Write records as TSV, paths stored relative to the manifest dir."""
    path = Path(path)
    base = path.resolve().parent
    lines = []
    seen = set()
    for r in records:
        check_utt_id(r.utt_id)
        _check_field(r.speaker_id, "speaker_id")
        if r.utt_id in seen:
            raise InvalidConfigError(f"duplicate utt_id {r.utt_id!r}")
        seen.add(r.utt_id)
        rel = os.path.relpath(Path(r.wav_path).resolve(), base)
        _check_field(rel, "wav_path")
        lines.append(f"{r.utt_id}\t{r.speaker_id}\t{rel}\t{r.num_samples}\t{r.sample_rate_hz}\n")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def read_manifest(path):
    """Read a manifest; wav_path fields come back absolute."""
    path = Path(path)
    base = path.resolve().parent
    records = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) != _NUM_COLS:
            raise CorruptHeaderError(f"{path}:{lineno}: expected {_NUM_COLS} columns, got {len(cols)}")
        utt_id, speaker_id, rel, n, sr = cols
        try:
            check_utt_id(utt_id)
        except InvalidConfigError as e:
            raise CorruptHeaderError(f"{path}:{lineno}: {e}") from e
        if utt_id in seen:
            raise CorruptHeaderError(f"{path}:{lineno}: duplicate utt_id {utt_id!r}")
        seen.add(utt_id)
        try:
            num_samples = int(n)
            sample_rate = int(sr)
        except ValueError as e:
            raise CorruptHeaderError(f"{path}:{lineno}: non-integer size field") from e
        if num_samples < 0 or sample_rate <= 0:
            raise CorruptHeaderError(f"{path}:{lineno}: bad sizes ({num_samples}, {sample_rate})")
        records.append(
            UtteranceRecord(
                utt_id=utt_id,
                speaker_id=speaker_id,
                wav_path=str((base / rel).resolve()),
                num_samples=num_samples,
                sample_rate_hz=sample_rate,
            )
        )
    return records


def map_wavs(records, out_dir, fn):
    """Write fn(rec, waveform) as out_dir/<utt_id>.wav for every record,
    plus out_dir/manifest.tsv; returns the new records in input order.

    All or nothing: the files are written into a temporary sibling of
    out_dir and moved into out_dir, manifest last, only once every record
    has succeeded. On failure only the temporary directory is removed, so
    out_dir gains no file and loses none. Records run through worker_map,
    so fn must derive any randomness from the record itself. A PadAugError
    or OSError is re-raised with the utterance id prefixed to its message.
    """
    out_dir = Path(out_dir)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))

    def one(rec: UtteranceRecord) -> UtteranceRecord:
        dst = staging / f"{rec.utt_id}.wav"
        try:
            out = fn(rec, read_wav(rec.wav_path))
            write_wav(out, dst)
        except (PadAugError, OSError) as e:
            raise type(e)(f"utterance {rec.utt_id}: {e}") from e
        return UtteranceRecord(rec.utt_id, rec.speaker_id, str(dst), len(out), out.sample_rate_hz)

    try:
        staged = worker_map(one, records)
        write_manifest(staged, staging / "manifest.tsv")
        out_dir.mkdir(exist_ok=True)
        new_records = [replace(rec, wav_path=str(out_dir / f"{rec.utt_id}.wav")) for rec in staged]
        for src, dst in zip(staged, new_records):
            os.replace(src.wav_path, dst.wav_path)
        os.replace(staging / "manifest.tsv", out_dir / "manifest.tsv")
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return new_records
