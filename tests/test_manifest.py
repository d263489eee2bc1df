import os
import re

import numpy as np
import pytest

from padaug.audio_io import Waveform, write_wav
from padaug.errors import CorruptHeaderError, InvalidConfigError
from padaug.features import FeatureMatrix, write_feature_dump
from padaug.manifest import UtteranceRecord, check_utt_id, map_records, map_wavs, read_manifest, staged, write_manifest
from padaug.seeding import child_seed, make_rng


def recs(base):
    return [
        UtteranceRecord("u1", "spkA", str(base / "wav" / "u1.wav"), 48000, 16000),
        UtteranceRecord("u2", "spkB", str(base / "wav" / "u2.wav"), 32000, 16000),
    ]


def test_roundtrip_with_relative_paths(tmp_path):
    write_manifest(recs(tmp_path), tmp_path / "m.tsv")
    text = (tmp_path / "m.tsv").read_text()
    assert "wav/u1.wav" in text  # stored relative to the manifest directory
    back = read_manifest(tmp_path / "m.tsv")
    assert [r.utt_id for r in back] == ["u1", "u2"]
    assert back[0].wav_path == str(tmp_path / "wav" / "u1.wav")
    assert back[1].num_samples == 32000


def test_manifest_survives_directory_move(tmp_path):
    src = tmp_path / "a"
    src.mkdir()
    write_manifest(
        [UtteranceRecord("u", "s", str(src / "u.wav"), 10, 16000)], src / "m.tsv"
    )
    moved = tmp_path / "b"
    src.rename(moved)
    back = read_manifest(moved / "m.tsv")
    assert back[0].wav_path == str(moved / "u.wav")


def test_duplicate_utt_id_rejected(tmp_path):
    rows = recs(tmp_path)
    rows.append(rows[0])
    with pytest.raises(InvalidConfigError):
        write_manifest(rows, tmp_path / "m.tsv")
    (tmp_path / "d.tsv").write_text("u\ts\tw.wav\t1\t16000\nu\ts\tw.wav\t1\t16000\n")
    with pytest.raises(CorruptHeaderError):
        read_manifest(tmp_path / "d.tsv")


def test_tab_in_field_rejected(tmp_path):
    bad = [UtteranceRecord("u\t1", "s", str(tmp_path / "w.wav"), 1, 16000)]
    with pytest.raises(InvalidConfigError):
        write_manifest(bad, tmp_path / "m.tsv")


def test_malformed_rows_rejected(tmp_path):
    cases = [
        "only\tthree\tcols\n",
        "u\ts\tw.wav\tnotint\t16000\n",
        "u\ts\tw.wav\t-5\t16000\n",
        "u\ts\tw.wav\t10\t0\n",
    ]
    for i, line in enumerate(cases):
        p = tmp_path / f"bad{i}.tsv"
        p.write_text(line)
        with pytest.raises(CorruptHeaderError):
            read_manifest(p)


def test_blank_lines_skipped(tmp_path):
    p = tmp_path / "m.tsv"
    p.write_text("u\ts\tw.wav\t10\t16000\n\n")
    assert len(read_manifest(p)) == 1


BAD_UTT_IDS = {"empty": "", "space": "b c", "dotdot": "../../escaped", "slash": "dir/u1", "nul": "u\0"}


@pytest.mark.parametrize("case", sorted(BAD_UTT_IDS))
def test_bad_utt_id_rejected_everywhere(tmp_path, case):
    utt_id = BAD_UTT_IDS[case]
    with pytest.raises(InvalidConfigError):
        check_utt_id(utt_id)
    p = tmp_path / "m.tsv"
    p.write_text(f"u0\ts\tw.wav\t1\t16000\n{utt_id}\ts\tw.wav\t1\t16000\n")
    with pytest.raises(CorruptHeaderError, match=re.escape(f"{p}:2: ")):
        read_manifest(p)
    with pytest.raises(InvalidConfigError):
        write_manifest([UtteranceRecord(utt_id, "s", str(tmp_path / "w.wav"), 1, 16000)], tmp_path / "out.tsv")
    assert not (tmp_path / "out.tsv").exists()
    with pytest.raises(InvalidConfigError):
        write_feature_dump(tmp_path / "f.bin", [(utt_id, FeatureMatrix(np.zeros((1, 2))))])


def test_map_records_seeds_each_record_from_its_id(tmp_path):
    records = []
    for i, n in enumerate((100, 250, 40)):
        write_wav(Waveform(np.zeros(n), 16000), tmp_path / f"u{i}.wav")
        records.append(UtteranceRecord(f"u{i}", "s", str(tmp_path / f"u{i}.wav"), n, 16000))

    def fn(rec, w, rng):
        return rec.utt_id, len(w), None if rng is None else int(rng.integers(2**32))

    out = map_records(records, fn, seed=7)
    assert out == [(r.utt_id, r.num_samples, int(make_rng(child_seed(7, r.utt_id)).integers(2**32))) for r in records]
    assert map_records(records[::-1], fn, seed=7) == out[::-1]  # not from the position
    assert map_records(records, fn) == [(r.utt_id, r.num_samples, None) for r in records]


def _noisy_inputs(tmp_path):
    records = []
    for i, n in enumerate((300, 170, 41)):
        write_wav(Waveform(0.3 * np.sin(0.05 * np.arange(n)), 16000), tmp_path / f"u{i}.wav")
        records.append(UtteranceRecord(f"u{i}", "s", str(tmp_path / f"u{i}.wav"), n, 16000))
    return records


def _off_grid(rec, w, rng):
    # samples between int16 steps, some past full scale, so the write rounds and clamps
    return Waveform(1.7 * w.samples + 1e-3 * rng.standard_normal(len(w)), w.sample_rate_hz)


def test_map_wavs_returns_the_new_records(tmp_path):
    records = _noisy_inputs(tmp_path)[::-1]
    plain = map_wavs(records, tmp_path / "plain", _off_grid, seed=3)
    assert plain == read_manifest(tmp_path / "plain" / "manifest.tsv")  # the new records, in input order
    assert [(r.utt_id, r.num_samples) for r in plain] == [(r.utt_id, r.num_samples) for r in records]

    def twice(rec, w, rng):
        yield _off_grid(rec, w, rng)
        yield w

    both = map_wavs(records, [tmp_path / "a", tmp_path / "b"], twice, seed=3)
    assert both == [list(pair) for pair in zip(read_manifest(tmp_path / "a" / "manifest.tsv"),
                                               read_manifest(tmp_path / "b" / "manifest.tsv"))]
    assert (tmp_path / "a" / "u0.wav").read_bytes() == (tmp_path / "plain" / "u0.wav").read_bytes()


def test_map_wavs_nan_sample_publishes_nothing(tmp_path):
    records = _noisy_inputs(tmp_path)
    before = sorted(tmp_path.rglob("*"))

    def nan_at_5(rec, w, rng):
        return Waveform(np.where(np.arange(len(w)) == 5, np.nan, w.samples), w.sample_rate_hz)

    with pytest.raises(InvalidConfigError, match="^utterance u0: .*sample 5 is NaN"):
        map_wavs(records, tmp_path / "out" / "deeper", nan_at_5)
    assert sorted(tmp_path.rglob("*")) == before


def test_map_records_error_names_utterance(tmp_path):
    records = [UtteranceRecord("gone01", "s", str(tmp_path / "missing.wav"), 1, 16000)]
    with pytest.raises(FileNotFoundError, match="^utterance gone01: "):
        map_records(records, lambda rec, w, rng: w)


def test_staged_publishes_in_order(tmp_path, monkeypatch):
    a, b = tmp_path / "new" / "a.txt", tmp_path / "b.txt"
    b.write_text("old")
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: (replaced.append(dst), real_replace(src, dst)))
    with staged(a, b) as (ta, tb):
        assert (ta, tb) == (tmp_path / "new" / "a.txt.tmp", tmp_path / "b.txt.tmp")
        tb.write_text("new b")
        ta.write_text("new a")
        assert b.read_text() == "old"
    assert replaced == [a, b]
    assert (a.read_text(), b.read_text()) == ("new a", "new b")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "b.txt", "new"]
    # the permission bits a plain open() gives
    with open(tmp_path / "plain.txt", "w"):
        pass
    assert a.stat().st_mode == (tmp_path / "plain.txt").stat().st_mode


def test_staged_failure_changes_nothing(tmp_path):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "new" / "deeper" / "c.txt"
    a.write_text("old a")
    with pytest.raises(RuntimeError), staged(a, b, c) as (ta, tb, tc):
        ta.write_text("new a")
        tb.write_text("new b")
        tc.write_text("new c")
        raise RuntimeError("failed half way")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]
    assert a.read_text() == "old a"


def test_staged_refuses_a_directory_on_entry(tmp_path):
    a, b = tmp_path / "new" / "a.txt", tmp_path / "b.txt"
    b.mkdir()
    with pytest.raises(IsADirectoryError, match=re.escape(str(b))), staged(a, b):
        raise AssertionError("the block ran")
    assert [p.name for p in tmp_path.iterdir()] == ["b.txt"]


def test_staged_failed_replace_unlinks_the_rest(tmp_path, monkeypatch):
    a, b, c = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "c.txt"
    real_replace = os.replace

    def replace(src, dst):
        if dst == b:
            raise PermissionError(f"cannot move {src}")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(PermissionError), staged(a, b, c) as tmps:
        for tmp in tmps:
            tmp.write_text("new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt"]  # moved before the failure
