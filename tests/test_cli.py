import builtins
import errno
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np
import pytest

import padaug.cli
import padaug.features
import padaug.manifest
import padaug.model
from padaug.audio_io import Waveform, read_wav, write_wav
from padaug.augment import PadAugConfig
from padaug.cli import main
from padaug.features import FeatureMatrix, read_feature_dump, write_feature_dump
from padaug.manifest import UtteranceRecord, read_manifest, write_manifest
from padaug.metrics import Trials, write_scores, write_trials
from padaug.model import ToyModelConfig, init_model, load_model, save_model
from padaug.seeding import make_rng
from padaug.testset import ratio_sweep
from padaug.vad import VadConfig, write_mask_dump


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    rc = main(["synth", "--out", str(d), "--n-speakers", "2", "--n-utts", "3",
               "--duration", "1.0", "--seed", "21"])
    assert rc == 0
    return d


def test_synth_cmd(corpus, capsys):
    records = read_manifest(corpus / "manifest.tsv")
    assert len(records) == 6
    assert len(list((corpus / "wav").glob("*.wav"))) == 6
    assert (corpus / "trials.txt").exists()


def test_resolved_config_echoed(corpus, tmp_path, capsys):
    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"),
               "--out", str(tmp_path / "t"), "--k", "2", "--seed", "1"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "resolved-config:" in err
    assert " k=2 " in err


def test_augment_cmd(corpus, tmp_path):
    out = tmp_path / "aug"
    argv = ["augment", "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
            "--mode", "hmt", "--seed", "5"]
    assert main(argv) == 0
    records = read_manifest(out / "manifest.tsv")
    assert len(records) == 6
    for r in records:
        assert r.num_samples == 48000
        assert len(read_wav(r.wav_path)) == 48000
    blob = (out / records[0].utt_id).with_suffix(".wav").read_bytes()
    out2 = tmp_path / "aug2"
    assert main(argv[:3] + ["--out", str(out2)] + argv[5:]) == 0
    assert (out2 / records[0].utt_id).with_suffix(".wav").read_bytes() == blob


def test_build_testset_cmd(corpus, tmp_path):
    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"),
               "--out", str(tmp_path / "c3"), "--seed", "2"])
    assert rc == 0
    for r in read_manifest(tmp_path / "c3" / "manifest.tsv"):
        assert r.num_samples == 48000

    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"),
               "--out", str(tmp_path / "ht"), "--k", "2", "--seed", "2"])
    assert rc == 0
    for r in read_manifest(tmp_path / "ht" / "manifest.tsv"):
        assert r.num_samples == 80000

    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"),
               "--out", str(tmp_path / "r3"), "--k", "3", "--placement", "head-mid-tail-even", "--seed", "2"])
    assert rc == 0
    for r in read_manifest(tmp_path / "r3" / "manifest.tsv"):
        assert r.num_samples == 96000


def test_build_testset_zero_pad(corpus, tmp_path):
    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"),
               "--out", str(tmp_path / "z"), "--k", "1",
               "--zero-pad", "--seed", "3"])
    assert rc == 0
    for r in read_manifest(tmp_path / "z" / "manifest.tsv"):
        w = read_wav(r.wav_path)
        assert len(w) == 64000
        assert np.all(w.samples[:8000] == 0.0)  # head half of 1s zero padding
        assert np.all(w.samples[-8000:] == 0.0)


EXCLUSIVE_NOISE = {
    "build-testset": "build-testset --manifest {m} --out {out} --k 2 --zero-pad --snr-db 5 --seed 3",
    "build-testset-config": "build-testset --config {cfg} --manifest {m} --out {out} --k 2 --snr-db 5 --seed 3",
    "sweep": "sweep --manifest {m} --trials {t} --model a={model} --out {out} --snr-db 5 --zero-pad --seed 3",
}


@pytest.mark.parametrize("case", sorted(EXCLUSIVE_NOISE))
def test_snr_db_and_zero_pad_are_exclusive(corpus, model_file, tmp_path, capsys, case):
    # zero padding has no SNR: giving both, one of them from --config, is a usage error
    cfg = tmp_path / "ts.cfg"
    cfg.write_text("zero_pad=true\n")
    out = tmp_path / "out"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(EXCLUSIVE_NOISE[case].format(m=corpus / "manifest.tsv", t=corpus / "trials.txt", model=model_file,
                                          out=out, cfg=cfg).split())
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_featurize_train_embed_score_eval(corpus, tmp_path, capsys):
    feats = tmp_path / "feats.bin"
    assert main(["featurize", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(feats), "--cmn"]) == 0
    dump = read_feature_dump(feats)
    assert len(dump) == 6
    for mat in dump.values():
        assert mat.dims == 80
        assert np.abs(mat.values.mean(axis=0)).max() < 1e-6  # float32 dump

    model_path = tmp_path / "m.bin"
    assert main(["train", "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(model_path), "--steps", "12", "--warmup-steps", "2",
                 "--batch-size", "4", "--hidden-dim", "8", "--embed-dim", "4",
                 "--chunk-frames", "50", "--log", str(tmp_path / "log.tsv"),
                 "--seed", "21"]) == 0
    meta = (tmp_path / "m.bin.meta").read_text()
    assert "augment=none" in meta and "seed=21" in meta
    log_lines = (tmp_path / "log.tsv").read_text().splitlines()
    assert log_lines[0] == "step\tloss\tlr\tmargin"
    assert len(log_lines) == 13

    emb = tmp_path / "emb.bin"
    assert main(["embed", "--manifest", str(corpus / "manifest.tsv"),
                 "--model", str(model_path), "--out", str(emb)]) == 0
    for mat in read_feature_dump(emb).values():
        assert mat.values.shape == (1, 4)
        assert abs(np.linalg.norm(mat.values[0]) - 1.0) < 1e-6

    scores = tmp_path / "scores.txt"
    assert main(["score", "--trials", str(corpus / "trials.txt"),
                 "--embeddings", str(emb), "--out", str(scores)]) == 0
    assert len(scores.read_text().splitlines()) == 12

    capsys.readouterr()
    assert main(["eval", "--trials", str(corpus / "trials.txt"),
                 "--scores", str(scores), "--name", "demo",
                 "--out", str(tmp_path / "report.tsv")]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "testset\teer\tmin_dcf\teer_threshold\tdcf_threshold"
    assert out.splitlines()[1].startswith("demo\t")
    assert (tmp_path / "report.tsv").read_text() == out


def test_eval_worked_example(tmp_path, capsys):
    (tmp_path / "trials.txt").write_text("1 a b\n1 c d\n0 e f\n0 g h\n")
    (tmp_path / "scores.txt").write_text(
        "a b 0.800000\nc d 0.400000\ne f 0.600000\ng h 0.200000\n")
    assert main(["eval", "--trials", str(tmp_path / "trials.txt"),
                 "--scores", str(tmp_path / "scores.txt")]) == 0
    row = capsys.readouterr().out.splitlines()[1].split("\t")
    assert row == ["testset", "0.500000", "0.500000", "0.600000", "0.800000"]


def test_missing_id_error_is_plain_text(corpus, model_file, tmp_path, capsys):
    # the message as raised, not a KeyError repr in quotes
    emb = tmp_path / "emb.bin"
    assert main(["embed", "--manifest", str(corpus / "manifest.tsv"), "--model", str(model_file), "--out", str(emb)]) == 0
    (tmp_path / "trials.txt").write_text("0 spk000_u000 ghost\n")
    (tmp_path / "scores.txt").write_text("spk000_u000 spk000_u001 0.500000\n")
    for argv, message in ((["score", "--embeddings", str(emb), "--out", str(tmp_path / "s.txt")],
                           "no embedding for 'ghost'"),
                          (["eval", "--scores", str(tmp_path / "scores.txt")],
                           "no score for trial ('spk000_u000', 'ghost')")):
        capsys.readouterr()
        assert main([argv[0], "--trials", str(tmp_path / "trials.txt"), *argv[1:]]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"


def test_score_accepts_target_only_trials(corpus, model_file, tmp_path):
    # only det_metrics needs both trial kinds
    emb = tmp_path / "emb.bin"
    assert main(["embed", "--manifest", str(corpus / "manifest.tsv"), "--model", str(model_file), "--out", str(emb)]) == 0
    write_trials(Trials(("spk000_u000", "spk001_u000"), ("spk000_u001", "spk001_u002"), (True, True)),
                 tmp_path / "trials.txt")
    assert main(["score", "--trials", str(tmp_path / "trials.txt"), "--embeddings", str(emb),
                 "--out", str(tmp_path / "scores.txt")]) == 0
    assert len((tmp_path / "scores.txt").read_text().splitlines()) == 2


def test_score_rejects_a_feature_dump(corpus, tmp_path, capsys):
    # a featurize dump has one row per frame, not one embedding per utterance
    feats = tmp_path / "feats.bin"
    assert main(["featurize", "--manifest", str(corpus / "manifest.tsv"), "--out", str(feats)]) == 0
    utt, mat = next(iter(read_feature_dump(feats).items()))
    capsys.readouterr()
    assert main(["score", "--trials", str(corpus / "trials.txt"), "--embeddings", str(feats),
                 "--out", str(tmp_path / "scores.txt")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {feats}: {utt!r} has {mat.frames} rows, an embedding has one")
    assert not (tmp_path / "scores.txt").exists()


def test_score_rejects_an_empty_dump_entry(tmp_path, capsys):
    emb = tmp_path / "emb.bin"
    write_feature_dump(emb, [("a", FeatureMatrix(np.ones((1, 3)))), ("b", FeatureMatrix(np.zeros((0, 3))))])
    write_trials(Trials(("a",), ("b",), (False,)), tmp_path / "trials.txt")
    capsys.readouterr()
    assert main(["score", "--trials", str(tmp_path / "trials.txt"), "--embeddings", str(emb),
                 "--out", str(tmp_path / "scores.txt")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {emb}: 'b' has 0 rows, an embedding has one"
    assert not (tmp_path / "scores.txt").exists()


def test_vad_cmd(tmp_path):
    sr = 16000
    rng = make_rng(0)
    t = np.arange(sr) / sr
    tone = 0.4 * np.sin(2 * np.pi * 250 * t)
    quiet = 0.4 * 0.01 * rng.standard_normal(sr)
    voiced = np.concatenate([tone, quiet, tone])
    wav_dir = tmp_path / "in"
    wav_dir.mkdir()
    write_wav(Waveform(voiced, sr), wav_dir / "voiced.wav")
    write_wav(Waveform(np.zeros(sr), sr), wav_dir / "silent.wav")
    records = [
        UtteranceRecord("voiced", "s0", str(wav_dir / "voiced.wav"), 3 * sr, sr),
        UtteranceRecord("silent", "s1", str(wav_dir / "silent.wav"), sr, sr),
    ]
    write_manifest(records, tmp_path / "manifest.tsv")

    out = tmp_path / "vad"
    assert main(["vad", "--manifest", str(tmp_path / "manifest.tsv"),
                 "--out", str(out), "--mask-out", str(tmp_path / "masks.txt")]) == 0
    back = {r.utt_id: r for r in read_manifest(out / "manifest.tsv")}
    assert back["silent"].num_samples == sr  # nothing detected: kept as-is
    assert 2 * sr <= back["voiced"].num_samples < 3 * sr
    masks = (tmp_path / "masks.txt").read_text().splitlines()
    assert len(masks) == 2
    assert set(masks[0].split("\t")[1]) <= {"0", "1"}


def test_vad_rejecting_every_frame_keeps_the_inputs(corpus, tmp_path):
    out = tmp_path / "vad"
    assert main(["vad", "--manifest", str(corpus / "manifest.tsv"), "--out", str(out),
                 "--mask-out", str(tmp_path / "masks.txt"), "--offset-db", "200"]) == 0
    records = read_manifest(corpus / "manifest.tsv")
    for rec in records:
        assert (out / f"{rec.utt_id}.wav").read_bytes() == Path(rec.wav_path).read_bytes()
    rows = [line.split("\t") for line in (tmp_path / "masks.txt").read_text().splitlines()]
    assert [utt for utt, _ in rows] == [r.utt_id for r in records]
    assert all(bits and set(bits) == {"0"} for _, bits in rows)


def sweep_inputs(tmp_path):
    """A 2 x 2 corpus and two untrained models: argv for `padaug sweep` minus --out."""
    d = tmp_path / "corpus"
    assert main(["synth", "--out", str(d), "--n-speakers", "2", "--n-utts", "2",
                 "--duration", "1.0", "--seed", "8"]) == 0
    for name, seed in (("a", 0), ("b", 1)):
        cfg = ToyModelConfig(n_speakers=2, hidden_dim=8, embed_dim=4,
                             warmup_steps=1, total_steps=10, seed=seed)
        save_model(init_model(cfg), tmp_path / f"{name}.bin")
    return ["sweep", "--manifest", str(d / "manifest.tsv"),
            "--trials", str(d / "trials.txt"),
            "--model", f"sysA={tmp_path / 'a.bin'}",
            "--model", f"sysB={tmp_path / 'b.bin'}",
            "--seed", "9"]


def test_sweep_cmd(tmp_path, capsys, monkeypatch):
    argv = sweep_inputs(tmp_path)
    calls = []
    real_fbank = padaug.features.fbank

    def counting_fbank(*args, **kwargs):
        calls.append(1)
        return real_fbank(*args, **kwargs)

    monkeypatch.setattr(padaug.features, "fbank", counting_fbank)
    out = tmp_path / "sweep.tsv"
    rc = main(argv + ["--out", str(out)])
    assert rc == 0
    assert len(calls) == 2 * 4  # each record's chunk and noise once, not each padded utterance or model
    lines = out.read_text().splitlines()
    assert lines[0] == "system\tk_seconds\tratio\teer\tmin_dcf"
    assert len(lines) == 1 + 18
    ks = [line.split("\t")[1] for line in lines[1:]]
    assert ks == [str(k) for k in range(9) for _ in range(2)]
    for line in lines[1:]:
        name, k, ratio, eer_s, dcf_s = line.split("\t")
        assert name in ("sysA", "sysB")
        assert float(ratio) == pytest.approx(int(k) / 3.0, abs=5e-5)
        assert 0.0 <= float(eer_s) <= 1.0
        assert 0.0 <= float(dcf_s) <= 1.0
    assert (tmp_path / "sweep.tsv.work" / "ratio8").is_dir()

    hmt = tmp_path / "hmt.tsv"
    assert main(argv + ["--out", str(hmt), "--placement", "head-mid-tail-even"]) == 0
    names = [line.split("\t")[0] for line in hmt.read_text().splitlines()[1:]]
    assert sorted(names) == ["sysA"] * 9 + ["sysB"] * 9


def test_sweep_refuses_a_directory_in_place_of_a_wav(tmp_path, capsys, monkeypatch):
    argv = sweep_inputs(tmp_path)
    work = tmp_path / "W"
    first = read_manifest(tmp_path / "corpus" / "manifest.tsv")[0].utt_id
    (work / "ratio3" / f"{first}.wav").mkdir(parents=True)
    reads = []
    monkeypatch.setattr(padaug.manifest, "read_wav", reads.append)
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "s.tsv"), "--work-dir", str(work)]) == 1
    assert str(work / "ratio3" / f"{first}.wav") in capsys.readouterr().err
    assert reads == []  # refused before any record is read, padded or embedded
    assert sorted(p.relative_to(work) for p in work.rglob("*")) == [Path("ratio3"), Path("ratio3") / f"{first}.wav"]
    assert not (tmp_path / "s.tsv").exists()


@pytest.mark.parametrize("flag", ["sweep --out", "train --out", "train --out .meta", "train --log"])
def test_directory_output_is_refused_before_any_work(corpus, tmp_path, capsys, monkeypatch, flag):
    def never(*args, **kwargs):
        raise AssertionError("called after the output was refused")

    target = tmp_path / ("m.bin.meta" if flag == "train --out .meta" else "target")
    target.mkdir()
    if flag == "sweep --out":
        monkeypatch.setattr(padaug.cli, "load_model", never)
        argv = sweep_inputs(tmp_path) + ["--out", str(target)]
    else:
        monkeypatch.setattr(padaug.cli, "train", never)
        outs = {"train --out": {"--out": target, "--log": tmp_path / "log.tsv"},
                "train --out .meta": {"--out": tmp_path / "m.bin", "--log": tmp_path / "log.tsv"},
                "train --log": {"--out": tmp_path / "m.bin", "--log": target}}[flag]
        argv = ["train", "--manifest", str(corpus / "manifest.tsv"), "--steps", "3", "--seed", "1",
                *(str(a) for kv in outs.items() for a in kv)]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert main(argv) == 1
    assert "cannot publish over a directory" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before  # no <out>.work, checkpoint or log
    assert not (tmp_path / "target.work").exists()


def test_sweep_bad_p_target_builds_nothing(tmp_path, capsys):
    argv = sweep_inputs(tmp_path)
    out = tmp_path / "s.tsv"
    assert main(argv + ["--out", str(out), "--p-target", "2"]) == 1
    assert "need 0 < p_target < 1" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "s.tsv.work").exists()  # checked before k = 0 is padded


BAD_TRIALS = {
    "unknown-id": ("1 spk000_u000 spk000_u001\n0 spk000_u000 ghost\n", "no embedding for 'ghost'"),
    "target-only": ("1 spk000_u000 spk000_u001\n1 spk000_u000 spk000_u002\n1 spk000_u001 spk000_u002\n",
                    "need both trial kinds, got 3 target / 0 non-target"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRIALS))
def test_sweep_bad_trials_build_nothing(corpus, model_file, tmp_path, capsys, monkeypatch, case):
    # the trial list is checked against the manifest before any model loads
    def no_load(path):
        raise AssertionError("a model was loaded")

    monkeypatch.setattr(padaug.cli, "load_model", no_load)
    text, message = BAD_TRIALS[case]
    (tmp_path / "trials.txt").write_text(text)
    out = tmp_path / "s.tsv"
    capsys.readouterr()
    assert main(["sweep", "--manifest", str(corpus / "manifest.tsv"), "--trials", str(tmp_path / "trials.txt"),
                 "--model", f"a={model_file}", "--out", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not out.exists()
    assert not (tmp_path / "s.tsv.work").exists()


def trees_at_thread_counts(tmp_path, monkeypatch, argv_for):
    """Every output file's bytes, keyed by path, after running argv_for(out_dir)
    at PADAUG_THREADS=1 and =2."""
    outputs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("PADAUG_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main([str(a) for a in argv_for(out)]) == 0
        outputs[threads] = {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return outputs["1"], outputs["2"]


def test_sweep_identical_at_any_thread_count(tmp_path, monkeypatch):
    argv = sweep_inputs(tmp_path)
    serial, parallel = trees_at_thread_counts(tmp_path, monkeypatch, lambda out: argv + ["--out", out / "sweep.tsv"])
    assert len(serial) == 1 + 9 * 5  # the table, plus 4 WAVs and a manifest per k
    assert serial == parallel


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    """An untrained 2-speaker model on disk."""
    path = tmp_path_factory.mktemp("model") / "m.bin"
    save_model(init_model(ToyModelConfig(n_speakers=2, hidden_dim=8, embed_dim=4,
                                         warmup_steps=1, total_steps=10, seed=0)), path)
    return path


def test_build_testset_then_embed_reproduces_the_sweep(corpus, model_file, tmp_path):
    # the step-by-step CLI path gives the k = 2 rows ratio_sweep returns, as float32
    ts = tmp_path / "ratio2"
    assert main(["build-testset", "--manifest", str(corpus / "manifest.tsv"), "--out", str(ts), "--k", "2",
                 "--placement", "head-mid-tail-even", "--seed", "13"]) == 0
    assert main(["embed", "--manifest", str(ts / "manifest.tsv"), "--model", str(model_file),
                 "--out", str(tmp_path / "emb.bin")]) == 0
    dump = read_feature_dump(tmp_path / "emb.bin")
    records = read_manifest(corpus / "manifest.tsv")
    sweep = ratio_sweep(records, [load_model(model_file)], tmp_path / "work", 13, "head-mid-tail-even")
    emb = next(embs[0] for k, embs in sweep if k == 2)
    assert list(dump) == [rec.utt_id for rec in records]
    for rec, row in zip(records, emb, strict=True):
        assert np.array_equal(dump[rec.utt_id].values, row.astype(np.float32)[None, :])  # the dump stores float32


# Every subcommand besides sweep (tested above) that runs records through
# worker_map: its arguments (split on spaces, then formatted) and the number
# of files it writes.
THREADED_ARGV = {
    "augment": ("--manifest {corpus}/manifest.tsv --out {out} --mode hmt --seed 5", 6 + 1),
    "build-testset": ("--manifest {corpus}/manifest.tsv --out {out} --k 2 --placement per-layout "
                      "--seed 3", 6 + 1),
    "embed": ("--manifest {corpus}/manifest.tsv --model {model} --out {out}/emb.bin", 2),
    "featurize": ("--manifest {corpus}/manifest.tsv --out {out}/feats.bin --cmn", 2),
    "synth": ("--out {out} --n-speakers 2 --n-utts 3 --duration 1.0 --seed 21", 6 + 2),
    "train": ("--manifest {corpus}/manifest.tsv --out {out}/m.bin --augment ht --steps 3 --warmup-steps 1 "
              "--batch-size 4 --hidden-dim 8 --embed-dim 4 --chunk-frames 50 --log {out}/log.tsv --seed 21", 3),
    "vad": ("--manifest {corpus}/manifest.tsv --out {out} --mask-out {out}/masks.txt", 6 + 2),
}


@pytest.mark.parametrize("command", sorted(THREADED_ARGV))
def test_identical_at_any_thread_count(corpus, model_file, tmp_path, monkeypatch, command):
    template, n_files = THREADED_ARGV[command]

    def argv_for(out):
        return [command] + [a.format(corpus=corpus, out=out, model=model_file) for a in template.split()]

    serial, parallel = trees_at_thread_counts(tmp_path, monkeypatch, argv_for)
    assert len(serial) == n_files
    assert serial == parallel


def test_vad_masks_under_thread_contention(corpus, tmp_path, monkeypatch):
    # vad workers store masks in one shared dict; more workers than cores and
    # a short switch interval must still give the serial run's mask dump (the
    # pool is clamped to the CPU count, so the test claims 8 CPUs)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    src = read_manifest(corpus / "manifest.tsv")
    records = [UtteranceRecord(f"{r.utt_id}-{i}", r.speaker_id, r.wav_path, r.num_samples, r.sample_rate_hz)
               for i in range(8) for r in src]
    write_manifest(records, tmp_path / "many.tsv")

    def mask_dump(threads):
        monkeypatch.setenv("PADAUG_THREADS", threads)
        out = tmp_path / f"t{threads}"
        assert main(["vad", "--manifest", str(tmp_path / "many.tsv"), "--out", str(out),
                     "--mask-out", str(out / "masks.txt")]) == 0
        return (out / "masks.txt").read_text()

    serial = mask_dump("1")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        contended = mask_dump("8")
    finally:
        sys.setswitchinterval(interval)
    assert len(serial.splitlines()) == len(records)
    assert contended == serial


def test_escaping_utt_id_writes_nothing_outside_out(corpus, tmp_path):
    rec = read_manifest(corpus / "manifest.tsv")[0]
    (tmp_path / "m.tsv").write_text(f"../../escaped\t{rec.speaker_id}\t{rec.wav_path}\t{rec.num_samples}\t16000\n")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "out" / "sub"
    assert main(["build-testset", "--manifest", str(tmp_path / "m.tsv"), "--out", str(out), "--seed", "1"]) == 1
    assert [p for p in sorted(tmp_path.rglob("*")) if out not in (p, *p.parents)] == before


def test_empty_wav_error_names_utterance(model_file, tmp_path, capsys):
    write_wav(Waveform(np.zeros(0), 16000), tmp_path / "empty.wav")
    write_manifest([UtteranceRecord("empty01", "s0", str(tmp_path / "empty.wav"), 0, 16000)], tmp_path / "m.tsv")
    for command, extra in (("augment", ["--seed", "1"]), ("vad", []), ("featurize", []),
                           ("embed", ["--model", str(model_file)])):
        capsys.readouterr()
        argv = [command, "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / command)] + extra
        assert main(argv) == 1
        assert "utterance empty01" in capsys.readouterr().err


def test_featurize_rate_too_low_to_frame(tmp_path, capsys):
    # at 50 Hz or less the 10 ms hop rounds to 0 samples
    write_wav(Waveform(0.1 * np.sin(np.arange(400)), 40), tmp_path / "slow.wav")
    write_manifest([UtteranceRecord("slow01", "s0", str(tmp_path / "slow.wav"), 400, 40)], tmp_path / "m.tsv")
    capsys.readouterr()
    assert main(["featurize", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "f.bin")]) == 1
    err = capsys.readouterr().err
    assert "utterance slow01" in err and "sample rate 40 Hz" in err
    assert not (tmp_path / "f.bin").exists()


def test_vad_rate_too_low_to_frame(tmp_path, capsys):
    # at 50 Hz or less the 10 ms VAD frame rounds to 0 samples
    write_wav(Waveform(0.1 * np.sin(np.arange(400)), 40), tmp_path / "slow.wav")
    write_manifest([UtteranceRecord("slow01", "s0", str(tmp_path / "slow.wav"), 400, 40)], tmp_path / "m.tsv")
    capsys.readouterr()
    assert main(["vad", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "v")]) == 1
    err = capsys.readouterr().err
    assert "utterance slow01" in err and "sample rate 40 Hz" in err
    assert not (tmp_path / "v").exists()


def test_train_rejects_mixed_sample_rates(tmp_path, capsys):
    # --t-min/--t-max and fbank's Mel bands both depend on the rate, so one
    # training set has one rate
    records = []
    for i, sr in enumerate((16000, 16000, 8000, 8000)):
        path = tmp_path / f"u{i}.wav"
        write_wav(Waveform(0.1 * make_rng(i).standard_normal(sr), sr), path)
        records.append(UtteranceRecord(f"u{i}", f"s{i % 2}", str(path), sr, sr))
    write_manifest(records, tmp_path / "m.tsv")
    capsys.readouterr()
    assert main(["train", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "model.bin"),
                 "--augment", "ht", "--steps", "2", "--warmup-steps", "1", "--batch-size", "4", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert "'u3' at 8000 Hz, 'u1' at 16000 Hz" in err
    assert list(tmp_path.glob("model.bin*")) == []


def test_train_names_the_utterance_too_short_to_featurize(tmp_path, capsys):
    records = []
    for i, n in enumerate((16000, 16000, 200, 16000)):
        path = tmp_path / f"u{i}.wav"
        write_wav(Waveform(0.1 * make_rng(i).standard_normal(n), 16000), path)
        records.append(UtteranceRecord(f"u{i}", f"s{i % 2}", str(path), n, 16000))
    write_manifest(records, tmp_path / "m.tsv")
    capsys.readouterr()
    assert main(["train", "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / "model.bin"),
                 "--steps", "2", "--warmup-steps", "1", "--batch-size", "4", "--seed", "1"]) == 1
    assert "error: utterance u2: need at least 400 samples, got 200" in capsys.readouterr().err
    assert list(tmp_path.glob("model.bin*")) == []


@pytest.mark.parametrize("field", ["utt_id", "speaker_id", "wav_path"])
def test_nul_in_manifest_is_pipeline_error(corpus, tmp_path, capsys, field):
    # an exception escaping main is the traceback the user would see
    rec = read_manifest(corpus / "manifest.tsv")[0]
    row = {"utt_id": rec.utt_id, "speaker_id": rec.speaker_id, "wav_path": rec.wav_path}
    row[field] += "\0x"
    (tmp_path / "m.tsv").write_text("\t".join([*row.values(), str(rec.num_samples), "16000"]) + "\n")
    for command, extra in (("augment", ["--seed", "1"]), ("featurize", [])):
        capsys.readouterr()
        assert main([command, "--manifest", str(tmp_path / "m.tsv"), "--out", str(tmp_path / command)] + extra) == 1
        assert "error: " in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def cli_writer(*argv):
    """A writer that runs padaug with argv and raises when it exits non-zero."""

    def run():
        if main([str(a) for a in argv]) != 0:
            raise OSError(f"padaug {argv[0]} failed")

    return run


def text_writer(name, d, corpus):
    """(path, write) for each writer of a text file: write() (re)writes path."""
    trials = Trials(("a", "c"), ("b", "d"), (True, False))
    if name == "write_manifest":
        return d / "m.tsv", lambda: write_manifest(read_manifest(corpus / "manifest.tsv"), d / "m.tsv")
    if name == "write_trials":
        return d / "t.txt", lambda: write_trials(trials, d / "t.txt")
    if name == "write_scores":
        return d / "s.txt", lambda: write_scores(trials, np.array([0.5, -0.25]), d / "s.txt")
    if name == "write_mask_dump":
        return d / "m.txt", lambda: write_mask_dump(d / "m.txt", [("a", np.array([True, False]))])
    if name == "eval --out":
        write_trials(trials, d / "t.txt")
        write_scores(trials, np.array([0.5, -0.25]), d / "s.txt")
        return d / "r.tsv", cli_writer("eval", "--trials", d / "t.txt", "--scores", d / "s.txt", "--out", d / "r.tsv")
    if name == "sweep --out":
        return d / "sweep.tsv", cli_writer(*sweep_inputs(d), "--out", d / "sweep.tsv")
    assert name == "train --log"
    return d / "log.tsv", cli_writer("train", "--manifest", corpus / "manifest.tsv", "--out", d / "m.bin",
                                     "--steps", "3", "--warmup-steps", "1", "--batch-size", "4", "--hidden-dim", "8",
                                     "--embed-dim", "4", "--chunk-frames", "50", "--log", d / "log.tsv", "--seed", "1")


@pytest.fixture
def disk_full(monkeypatch):
    """disk_full(path): from then on, a write to path or to its staging
    sibling `<path>.tmp` stores half its data and fails as a full disk does."""
    real_open = io.open
    targets = set()

    def failing_open(file, mode="r", *args, **kwargs):
        f = real_open(file, mode, *args, **kwargs)
        if "w" in mode and str(file) in targets:
            real_write = f.write

            def write(data):
                real_write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            f.write = write
        return f

    monkeypatch.setattr(builtins, "open", failing_open)
    monkeypatch.setattr(io, "open", failing_open)
    return lambda path: targets.update({str(path), f"{path}.tmp"})


def file_digests(d):
    return {str(p.relative_to(d)): hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(d.rglob("*")) if p.is_file()}


TEXT_WRITERS = ["write_manifest", "write_trials", "write_scores", "write_mask_dump",
                "eval --out", "sweep --out", "train --log"]


@pytest.mark.parametrize("name", TEXT_WRITERS)
def test_failed_text_write_keeps_old_file(corpus, tmp_path, disk_full, name):
    path, write = text_writer(name, tmp_path, corpus)
    write()
    before = file_digests(tmp_path)
    assert path.name in before
    disk_full(path)
    with pytest.raises(OSError):
        write()
    # the earlier file byte-identical, no temporary file left behind
    assert file_digests(tmp_path) == before


@pytest.mark.parametrize("command", ["vad", "train"])
def test_second_output_a_directory_publishes_neither(corpus, tmp_path, capsys, command):
    # --mask-out and --log are published in the same staged block as --out
    first, second = tmp_path / "out", tmp_path / "second"
    second.mkdir()
    flags = {"vad": ["--mask-out", second],
             "train": ["--steps", "3", "--warmup-steps", "1", "--batch-size", "4", "--hidden-dim", "8",
                       "--embed-dim", "4", "--chunk-frames", "50", "--log", second, "--seed", "1"]}[command]
    capsys.readouterr()
    assert main([command, "--manifest", str(corpus / "manifest.tsv"), "--out", str(first), *map(str, flags)]) == 1
    assert str(second) in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == [second]


def test_failed_record_adds_no_file_to_out(tmp_path):
    # --out may hold other files (e.g. be the corpus directory): a run that
    # fails on one record must leave it exactly as it was
    sr = 16000
    write_wav(Waveform(0.1 * np.ones(2 * sr), sr), tmp_path / "good.wav")
    write_wav(Waveform(np.zeros(0), sr), tmp_path / "empty.wav")
    write_manifest([UtteranceRecord("a_good", "s0", str(tmp_path / "good.wav"), 2 * sr, sr),
                    UtteranceRecord("b_empty", "s0", str(tmp_path / "empty.wav"), 0, sr)], tmp_path / "m.tsv")
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept")
    before = sorted(tmp_path.rglob("*"))
    assert main(["augment", "--manifest", str(tmp_path / "m.tsv"), "--out", str(out), "--seed", "1"]) == 1
    assert sorted(tmp_path.rglob("*")) == before
    assert (out / "keep.txt").read_text() == "kept"


def test_failed_record_creates_no_out(tmp_path):
    # a missing --out (and its missing parent) must not outlive a failed run
    sr = 16000
    write_wav(Waveform(0.1 * np.ones(2 * sr), sr), tmp_path / "good.wav")
    write_wav(Waveform(np.zeros(0), sr), tmp_path / "empty.wav")
    write_manifest([UtteranceRecord("a_good", "s0", str(tmp_path / "good.wav"), 2 * sr, sr),
                    UtteranceRecord("b_empty", "s0", str(tmp_path / "empty.wav"), 0, sr)], tmp_path / "m.tsv")
    before = sorted(tmp_path.rglob("*"))
    out = tmp_path / "new" / "out"
    assert main(["augment", "--manifest", str(tmp_path / "m.tsv"), "--out", str(out), "--seed", "1"]) == 1
    assert sorted(tmp_path.rglob("*")) == before


def test_failed_synth_leaves_no_out(tmp_path, capsys):
    # one utterance per speaker gives no target trial, found only after the
    # WAVs are synthesized
    out = tmp_path / "c"
    assert main(["synth", "--out", str(out), "--n-speakers", "2", "--n-utts", "1", "--duration", "1.0",
                 "--seed", "1"]) == 1
    assert "no same-speaker pairs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# (subcommand argv, the file among its inputs that gets a non-UTF-8 byte)
NOT_UTF8_INPUTS = {
    "manifest": (["vad", "--manifest", "{bad}", "--out", "{tmp}/v"], "m.tsv"),
    "trials": (["eval", "--trials", "{bad}", "--scores", "{tmp}/s.txt"], "t.txt"),
    "scores": (["eval", "--trials", "{corpus}/trials.txt", "--scores", "{bad}"], "s.txt"),
    "config": (["synth", "--config", "{bad}", "--out", "{tmp}/c", "--seed", "1"], "c.cfg"),
    "feature-index": (["score", "--trials", "{corpus}/trials.txt", "--embeddings", "{tmp}/e.bin",
                       "--out", "{tmp}/s.txt"], "e.bin.idx"),
}


@pytest.mark.parametrize("kind", sorted(NOT_UTF8_INPUTS))
def test_non_utf8_text_input_is_pipeline_error(corpus, tmp_path, capsys, kind):
    argv, name = NOT_UTF8_INPUTS[kind]
    bad = tmp_path / name
    bad.write_bytes(b"ab\xffcd\n")
    rc = main([a.format(bad=bad, tmp=tmp_path, corpus=corpus) for a in argv])
    assert rc == 1
    assert f"{bad}: not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["abc", "0"])
def test_bad_thread_count_is_usage_error(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("PADAUG_THREADS", threads)
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "c"), "--n-speakers", "2", "--n-utts", "1",
              "--duration", "1.0", "--seed", "1"])
    assert exc.value.code == 2
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("names", [("a", "a"), ("",), ("a\tb",), ("a\nb",), ("a\n",)],
                         ids=["twice", "empty", "tab", "newline", "trailing-newline"])
def test_sweep_rejects_ambiguous_names(corpus, model_file, tmp_path, capsys, monkeypatch, names):
    # every NAME must label its own rows of the table, before any model loads
    def no_load(path):
        raise AssertionError("a model was loaded")

    monkeypatch.setattr(padaug.cli, "load_model", no_load)
    argv = ["sweep", "--manifest", str(corpus / "manifest.tsv"), "--trials", str(corpus / "trials.txt"),
            "--out", str(tmp_path / "s.tsv"), "--seed", "1"]
    for name in names:
        argv += ["--model", f"{name}={model_file}"]
    capsys.readouterr()
    assert main(argv) == 1
    assert "--model NAME" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("n_speakers=3  # comment\nn-utts=4\nduration=1.0\n")
    out = tmp_path / "c"
    assert main(["synth", "--config", str(cfg), "--out", str(out),
                 "--n-utts", "2", "--seed", "4"]) == 0
    records = read_manifest(out / "manifest.tsv")
    speakers = {r.speaker_id for r in records}
    assert len(speakers) == 3  # from config
    assert len(records) == 6  # explicit flag beat the config value


def test_config_negative_exponent_float(tmp_path, monkeypatch, capsys):
    # a value is spliced in as --key=value, so "-1e-3" is not taken for a flag
    (tmp_path / "aug.cfg").write_text("snr_min = -1e-3\n")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["augment", "--config", "aug.cfg", "--manifest", "m.tsv", "--out", "o", "--seed", "1"]) == 1
    assert " snr_min=-0.001 " in capsys.readouterr().err.splitlines()[0]


def test_config_boolean_flag(tmp_path, corpus):
    cfg = tmp_path / "ts.cfg"
    cfg.write_text("zero_pad=true\nk=1\n")
    out = tmp_path / "z"
    assert main(["build-testset", "--config", str(cfg),
                 "--manifest", str(corpus / "manifest.tsv"),
                 "--out", str(out), "--seed", "3"]) == 0
    w = read_wav(read_manifest(out / "manifest.tsv")[0].wav_path)
    assert np.all(w.samples[:8000] == 0.0)


def test_exit_codes(tmp_path, corpus):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x"), "--seed", "1", "--bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "x")])  # --seed is required
    assert exc.value.code == 2
    rc = main(["augment", "--manifest", str(tmp_path / "missing.tsv"),
               "--out", str(tmp_path / "y"), "--seed", "1"])
    assert rc == 1
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("no equals sign here\n")
    rc = main(["synth", "--config", str(bad_cfg), "--out", str(tmp_path / "x"), "--seed", "1"])
    assert rc == 1
    rc = main(["sweep", "--manifest", str(corpus / "manifest.tsv"),
               "--trials", str(corpus / "trials.txt"), "--model", "nopath",
               "--out", str(tmp_path / "s.tsv"), "--seed", "1"])
    assert rc == 1  # --model wants NAME=PATH
    (tmp_path / "bad_scores.txt").write_text("x z abc\n")
    rc = main(["eval", "--trials", str(corpus / "trials.txt"), "--scores", str(tmp_path / "bad_scores.txt")])
    assert rc == 1  # a score that is not a number
    rc = main(["train", "--manifest", str(corpus / "manifest.tsv"), "--out", str(tmp_path / "m.bin"),
               "--steps", "2", "--warmup-steps", "1", "--batch-size", "8", "--seed", "1"])
    assert rc == 1  # 6 utterances, fewer than one batch
    assert not (tmp_path / "m.bin").exists()
    rc = main(["build-testset", "--manifest", str(corpus / "manifest.tsv"), "--out", str(tmp_path / "r9"),
               "--k", "9", "--seed", "1"])
    assert rc == 1  # k outside [0, 8]
    assert not (tmp_path / "r9").exists()


RESOLVED_DEFAULTS = {
    "augment": (["--manifest", "m.tsv", "--out", "o", "--seed", "1"],
                "command=augment manifest=m.tsv mode=ht out=o seed=1 snr_max=30.0 snr_min=15.0 t_max=3.0 t_min=1.0"),
    "train": (["--manifest", "m.tsv", "--out", "o", "--seed", "1"],
              "augment=none batch_size=32 chunk_frames=300 command=train embed_dim=32 hidden_dim=64 log=None "
              "lr_final=5e-05 lr_init=0.1 manifest=m.tsv margin=0.2 margin_warm_steps=-1 out=o scale=32.0 seed=1 "
              "snr_max=30.0 snr_min=15.0 steps=1000 t_max=3.0 t_min=1.0 warmup_steps=100"),
    "build-testset": (["--manifest", "m.tsv", "--out", "o", "--seed", "1"],
                      "command=build-testset k=0 manifest=m.tsv out=o placement=head-tail-even "
                      "seed=1 snr_db=25.0 zero_pad=False"),
    "featurize": (["--manifest", "m.tsv", "--out", "o"], "cmn=False command=featurize manifest=m.tsv out=o"),
    "sweep": (["--manifest", "m.tsv", "--trials", "t.txt", "--model", "a=a.bin", "--out", "o", "--seed", "1"],
              "command=sweep manifest=m.tsv model=['a=a.bin'] out=o p_target=0.01 placement=head-tail-even seed=1 "
              "snr_db=25.0 trials=t.txt work_dir=None zero_pad=False"),
}


@pytest.mark.parametrize("command", sorted(RESOLVED_DEFAULTS))
def test_resolved_config_defaults_are_pinned(tmp_path, monkeypatch, capsys, command):
    argv, resolved = RESOLVED_DEFAULTS[command]
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main([command] + argv) == 1  # m.tsv does not exist
    assert capsys.readouterr().err.splitlines()[0] == "resolved-config: " + resolved


# Each option default is the config field it fills: (config, {option dest: field}).
CONFIG_DEFAULTS = {
    "augment": (PadAugConfig(t_min=1, t_max=1), {"snr_min": "snr_min_db", "snr_max": "snr_max_db"}),
    "vad": (VadConfig(), {"offset_db": "energy_offset_db", "hang_before": "hang_before",
                          "hang_over": "hang_over", "floor_percentile": "floor_percentile"}),
    "train": (ToyModelConfig(n_speakers=2), {
        "steps": "total_steps", "batch_size": "batch_size", "hidden_dim": "hidden_dim", "embed_dim": "embed_dim",
        "scale": "scale", "margin": "margin_final", "lr_init": "lr_init", "lr_final": "lr_final",
        "warmup_steps": "warmup_steps", "margin_warm_steps": "margin_warm_steps", "chunk_frames": "chunk_len"}),
}


@pytest.mark.parametrize("command", sorted(CONFIG_DEFAULTS))
def test_option_defaults_are_the_config_defaults(command):
    cfg, fields = CONFIG_DEFAULTS[command]
    argv = [command, "--manifest", "m.tsv", "--out", "o"] + ([] if command == "vad" else ["--seed", "1"])
    args = padaug.cli._build_parser().parse_args(argv)
    parsed = {dest: (type(getattr(args, dest)), getattr(args, dest)) for dest in fields}
    assert parsed == {dest: (type(getattr(cfg, field)), getattr(cfg, field)) for dest, field in fields.items()}


# Flags that padaug does not have: each is a usage error, never a silent no-op.
# A test set is named by --k and --placement alone, so --variant is one of them.
REMOVED_FLAGS = {
    "featurize-n-mels": "featurize --manifest {m} --out {out} --n-mels 40",
    "featurize-dither": "featurize --manifest {m} --out {out} --dither 0.1 --seed 4",
    "build-testset-from-start": "build-testset --manifest {m} --out {out} --seed 1 --from-start",
    **{f"build-testset-variant-{variant}": f"build-testset --manifest {{m}} --out {{out}} --variant {variant} --k 5 "
                                           "--placement head-mid-tail-even --seed 1"
       for variant in ("original", "chunk3s", "chunk3s-ht", "chunk3s-hmt", "ratio")},
}


@pytest.mark.parametrize("case", sorted(REMOVED_FLAGS))
def test_removed_flag_is_usage_error(corpus, tmp_path, case):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(REMOVED_FLAGS[case].format(m=corpus / "manifest.tsv", out=out).split())
    assert exc.value.code == 2
    assert not out.exists()


NON_FINITE = {
    "augment-snr-min-nan": ("augment --manifest {m} --out {out} --seed 1 --snr-min nan", "--snr-min"),
    "augment-t-min-nan": ("augment --manifest {m} --out {out} --seed 1 --t-min nan", "--t-min"),
    "augment-t-max-inf": ("augment --manifest {m} --out {out} --seed 1 --t-max inf", "--t-max"),
    "synth-duration-nan": ("synth --out {out} --n-speakers 2 --n-utts 1 --duration nan --seed 1", "--duration"),
    "train-lr-init-nan": ("train --manifest {m} --out {out} --steps 2 --warmup-steps 1 --batch-size 4 "
                          "--seed 1 --lr-init nan", "--lr-init"),
    "train-scale-inf": ("train --manifest {m} --out {out} --steps 2 --warmup-steps 1 --batch-size 4 "
                        "--seed 1 --scale inf", "--scale"),
    "config-scale-inf": ("train --config {cfg} --manifest {m} --out {out} --steps 2 --warmup-steps 1 "
                         "--batch-size 4 --seed 1", "--scale"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_float_is_usage_error(corpus, tmp_path, capsys, case):
    template, flag = NON_FINITE[case]
    cfg = tmp_path / "train.cfg"
    cfg.write_text("scale = inf\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(template.format(m=corpus / "manifest.tsv", out=out, cfg=cfg).split())
    assert exc.value.code == 2
    assert f"argument {flag}: not a finite number" in capsys.readouterr().err
    assert not out.exists()
