import re

import numpy as np
import pytest

from padaug.errors import CorruptHeaderError, InvalidConfigError
from padaug.features import FeatureMatrix, write_feature_dump
from padaug.manifest import UtteranceRecord, check_utt_id, read_manifest, write_manifest


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


BAD_UTT_IDS = {"empty": "", "space": "b c", "dotdot": "../../escaped", "slash": "dir/u1"}


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
