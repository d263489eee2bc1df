"""Dataset manifests and the per-record I/O boundary.

Manifest columns: utt_id, speaker_id, wav_path, num_samples, sample_rate.
No header row. wav_path is stored relative to the manifest's directory so
a dataset directory can be moved wholesale.

map_records is the one read path: it reads each record's WAV and applies
a transform with the record's own generator, seeded from (seed, utt_id).
staged is the one publish path for every file the package writes, WAV
dataset directories included: it refuses a destination that is a
directory, creates the missing parent directories, writes temporary
siblings and moves them into place only once all of them are complete; a
failure removes the temporaries and the directories it created. map_wavs
writes one or several WAV dataset directories (`<utt_id>.wav` per record
plus `manifest.tsv` in each), and any further files its caller names,
through one staged block.
"""

import errno
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .audio_io import read_wav, write_wav
from .errors import CorruptHeaderError, InvalidConfigError, naming_utterance, read_text
from .seeding import child_seed, make_rng
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
    whitespace, '/' or NUL. Raises InvalidConfigError otherwise."""
    if not utt_id or "/" in utt_id or "\0" in utt_id or any(c.isspace() for c in utt_id):
        raise InvalidConfigError(f"bad utt_id {utt_id!r}: must be non-empty, without whitespace, '/' or NUL")


def _check_field(value: str, name: str) -> str:
    if not value:
        raise InvalidConfigError(f"empty {name} in manifest record")
    if "\t" in value or "\n" in value:
        raise InvalidConfigError(f"{name} contains a tab or newline: {value!r}")
    return value


def refuse_directories(*paths) -> None:
    """Raise IsADirectoryError for the first path that is an existing
    directory, which staged cannot publish over. A subcommand calls it on
    its outputs before doing any work; None entries are skipped."""
    for p in paths:
        if p is not None and Path(p).is_dir():
            raise IsADirectoryError(errno.EISDIR, "cannot publish over a directory", str(p))


@contextmanager
def staged(*paths):
    """Yield a `<path>.tmp` sibling for each path, each missing parent
    directory created once. Once the block succeeds they are os.replace'd
    into place in the order given; if it raises they are unlinked, the
    directories created here are removed, and no path changes.

    A path that is an existing directory is refused on entry with
    IsADirectoryError, before any directory is made or the block runs. If
    an os.replace fails, the temporaries not yet moved are unlinked before
    the error propagates.
    """
    paths = [Path(p) for p in paths]
    refuse_directories(*paths)
    tmps = tuple(Path(f"{p}.tmp") for p in paths)
    made = []
    try:
        for d in dict.fromkeys(p.parent for p in paths):
            for new in reversed([a for a in (d, *d.parents) if not a.exists()]):
                new.mkdir()
                made.append(new)
        yield tmps
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        for d in reversed(made):
            d.rmdir()
        raise
    for i, (tmp, p) in enumerate(zip(tmps, paths)):
        try:
            os.replace(tmp, p)
        except BaseException:
            for left in tmps[i:]:
                left.unlink(missing_ok=True)
            raise


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
    with staged(path) as (tmp,):
        tmp.write_text("".join(lines), encoding="utf-8")


def read_manifest(path):
    """Read a manifest; wav_path fields come back absolute."""
    path = Path(path)
    base = path.resolve().parent
    records = []
    seen = set()
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        if "\0" in line:
            raise CorruptHeaderError(f"{path}:{lineno}: NUL byte in a field")
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


def map_records(records, fn, seed=None):
    """fn(rec, waveform, rng) for every record, read from rec.wav_path,
    through worker_map; returns the results in input order.

    rng is a generator seeded from (seed, rec.utt_id), never from the
    record's position, so results do not depend on manifest order or the
    worker count; it is None when no seed is given. A PadAugError or
    OSError is re-raised with the utterance id prefixed to its message.
    """

    def one(rec: UtteranceRecord):
        rng = None if seed is None else make_rng(child_seed(seed, rec.utt_id))
        with naming_utterance(rec.utt_id):
            return fn(rec, read_wav(rec.wav_path), rng)

    return worker_map(one, records)


def map_wavs(records, out_dir, fn, seed=None, extra=None):
    """Write fn(rec, waveform, rng) as out_dir/<utt_id>.wav for every
    record through map_records, plus out_dir/manifest.tsv, and return the
    new records in input order.

    out_dir may instead be a list of directories: fn then yields one
    waveform per directory, in that order, each is written as it is
    yielded, and each record's result is the list of its new records, in
    directory order. extra maps further paths to write(tmp) callables,
    run once every record has succeeded.

    All or nothing: the WAVs, then the manifests, then the extra paths
    are published by one staged block once every record has succeeded,
    so a failed run adds no file or directory and removes none.
    """
    several = not isinstance(out_dir, (str, os.PathLike))
    out_dirs = [Path(d) for d in out_dir] if several else [Path(out_dir)]
    for rec in records:
        check_utt_id(rec.utt_id)  # before any path is built from it
    wavs = [d / f"{rec.utt_id}.wav" for d in out_dirs for rec in records]
    manifests = [d / "manifest.tsv" for d in out_dirs]
    extra = extra or {}
    with staged(*wavs, *manifests, *extra) as tmps:
        tmp_of = dict(zip([*wavs, *manifests, *extra], tmps))

        def one(rec: UtteranceRecord, w, rng):
            outs = fn(rec, w, rng)
            done = []
            for d, out in zip(out_dirs, outs if several else [outs], strict=True):
                path = d / f"{rec.utt_id}.wav"
                write_wav(out, tmp_of[path])
                done.append(UtteranceRecord(rec.utt_id, rec.speaker_id, str(path), len(out), out.sample_rate_hz))
            return done

        results = map_records(records, one, seed)
        for i, path in enumerate(manifests):
            write_manifest([done[i] for done in results], tmp_of[path])
        for path, write in extra.items():
            write(tmp_of[path])
    return results if several else [done[0] for done in results]
