"""Command-line entry point.

One binary, ten subcommands covering the whole pipeline: corpus
synthesis, augmentation, test-set construction, features, VAD, training,
embedding extraction, scoring, evaluation, and the ratio sweep.

Conventions: every pipeline subcommand takes a required --seed and is
fully reproducible from its argv; `--config FILE` supplies key=value
defaults (keys are long option names, '#' starts a comment, each line
is passed as --key=value) that explicit flags override; the resolved
configuration is echoed to stderr; PADAUG_THREADS caps the worker pool. Exit codes: 0 success, 1 pipeline
failure, 2 usage error (bad arguments, or a PADAUG_THREADS that is not an
integer >= 1).
"""

import argparse
import math
import sys
from pathlib import Path

from .augment import PadAugConfig, pad_aug_utterance
from .errors import DimMismatchError, InvalidConfigError, PadAugError, read_text
from .features import FeatureMatrix, cmn, fbank, read_feature_dump, write_feature_dump
from .manifest import map_records, map_wavs, read_manifest, refuse_directories, staged
from .metrics import (check_costs, check_ids, check_kinds, det_metrics, format_report, read_scores, read_trials,
                      score_trials, write_scores)
from .model import ToyModelConfig, embed_utterance, load_model, load_training_set, meta_path, save_model, train
from .synth import build_corpus
from .testset import CHUNK_SECONDS, PLACEMENTS, TEST_SNR_DB, build_testset, ratio_sweep
from .vad import VadConfig, detect, drop_silence, write_mask_dump
from .workers import worker_count


def _finite_float(text: str) -> float:
    """The type of every float option: nan and +-inf are usage errors."""
    try:
        value = float(text)
    except ValueError:  # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _log_config(args) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print("resolved-config: " + " ".join(f"{k}={v}" for k, v in shown.items()), file=sys.stderr)


def _load_config_tokens(path) -> list:
    tokens = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfigError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise InvalidConfigError(f"{path}:{lineno}: empty key")
        flag = "--" + key.replace("_", "-")
        if value.lower() == "true":
            tokens.append(flag)
        elif value.lower() == "false":
            pass  # store_true flags default to false
        else:
            tokens.append(f"{flag}={value}")  # one token: a value like -1e-3 is not taken for a flag
    return tokens


def _splice_config(argv: list) -> list:
    """Replace `--config FILE` with the file's tokens, placed right after
    the subcommand so explicit flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise InvalidConfigError("--config needs a file path")
    if i == 0:
        raise InvalidConfigError("--config must follow a subcommand")
    tokens = _load_config_tokens(argv[i + 1])
    rest = argv[:i] + argv[i + 2 :]
    return [rest[0]] + tokens + rest[1:]


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_synth(args) -> int:
    records, trials = build_corpus(args.n_speakers, args.n_utts, args.duration, args.out, args.seed)
    print(f"wrote {len(records)} utterances, {len(trials)} trials under {args.out}")
    return 0


def _pad_config(args, sample_rate_hz: int, mode: str) -> PadAugConfig:
    """The augmentation settings of `augment`/`train`, seconds to samples."""
    return PadAugConfig(
        t_min=round(args.t_min * sample_rate_hz),
        t_max=round(args.t_max * sample_rate_hz),
        snr_min_db=args.snr_min,
        snr_max_db=args.snr_max,
        use_mid=mode == "hmt",
    )


def _cmd_augment(args) -> int:
    def one(rec, w, rng):
        return pad_aug_utterance(w, _pad_config(args, w.sample_rate_hz, args.mode), rng).waveform

    new_records = map_wavs(read_manifest(args.manifest), args.out, one, args.seed)
    print(f"augmented {len(new_records)} utterances into {args.out}")
    return 0


def _cmd_build_testset(args) -> int:
    snr = None if args.zero_pad else args.snr_db
    new_records = build_testset(read_manifest(args.manifest), args.out, args.seed, args.k, args.placement, snr)
    print(f"built ratio{args.k} with {len(new_records)} utterances under {args.out}")
    return 0


def _cmd_featurize(args) -> int:
    records = read_manifest(args.manifest)

    def one(rec, w, rng):
        feats = fbank(w)
        return rec.utt_id, cmn(feats) if args.cmn else feats

    write_feature_dump(args.out, map_records(records, one))
    print(f"wrote features for {len(records)} utterances to {args.out}")
    return 0


def _cmd_vad(args) -> int:
    records = read_manifest(args.manifest)
    cfg = VadConfig(
        energy_offset_db=args.offset_db,
        hang_before=args.hang_before,
        hang_over=args.hang_over,
        floor_percentile=args.floor_percentile,
    )
    masks = {}

    def one(rec, w, rng):
        flags = masks[rec.utt_id] = detect(w, cfg)
        return drop_silence(w, flags)

    def write_masks(tmp):
        write_mask_dump(tmp, [(r.utt_id, masks[r.utt_id]) for r in records])

    map_wavs(records, args.out, one, extra={args.mask_out: write_masks} if args.mask_out else None)
    print(f"dropped silence for {len(records)} utterances into {args.out}")
    return 0


def _cmd_train(args) -> int:
    refuse_directories(args.out, meta_path(args.out), args.log)  # before any step, not after the last
    records = read_manifest(args.manifest)
    ts = load_training_set(records)
    cfg = ToyModelConfig(
        n_speakers=len(ts.speakers),
        hidden_dim=args.hidden_dim,
        embed_dim=args.embed_dim,
        scale=args.scale,
        margin_final=args.margin,
        lr_init=args.lr_init,
        lr_final=args.lr_final,
        warmup_steps=args.warmup_steps,
        total_steps=args.steps,
        margin_warm_steps=args.margin_warm_steps,
        batch_size=args.batch_size,
        chunk_len=args.chunk_frames,
        seed=args.seed,
    )
    # Built, and so validated, even when unused.
    pad_cfg = _pad_config(args, ts.sample_rate_hz, args.augment)
    result = train(cfg, ts, None if args.augment == "none" else pad_cfg)
    meta = {
        "augment": args.augment,
        "speakers": ",".join(ts.speakers),
        "steps": cfg.total_steps,
        "final_loss": f"{result.log[-1][1]:.6f}",
        "seed": args.seed,
    }

    def write_log(tmp):
        with open(tmp, "w", encoding="utf-8") as f:
            f.write("step\tloss\tlr\tmargin\n")
            for step, loss, lr, margin in result.log:
                f.write(f"{step}\t{loss:.6f}\t{lr:.8f}\t{margin:.6f}\n")

    save_model(result.model, args.out, meta, extra={args.log: write_log} if args.log else None)
    print(f"trained {cfg.total_steps} steps (final loss {result.log[-1][1]:.4f}), saved {args.out}")
    return 0


def _cmd_embed(args) -> int:
    model = load_model(args.model)
    records = read_manifest(args.manifest)

    def one(rec, w, rng):
        return rec.utt_id, FeatureMatrix(embed_utterance([model], w)[0][None, :])

    write_feature_dump(args.out, map_records(records, one))
    print(f"wrote {len(records)} embeddings to {args.out}")
    return 0


def _cmd_score(args) -> int:
    trials = read_trials(args.trials)
    store = {}
    for utt, mat in read_feature_dump(args.embeddings).items():
        if mat.frames != 1:
            raise DimMismatchError(f"{args.embeddings}: {utt!r} has {mat.frames} rows, an embedding has one")
        store[utt] = mat.values[0]
    write_scores(trials, score_trials(trials, store), args.out)
    print(f"scored {len(trials)} trials to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    trials = read_trials(args.trials)
    scores = read_scores(args.scores, trials)
    m = det_metrics(scores, trials.is_target, p_target=args.p_target, c_miss=args.c_miss, c_fa=args.c_fa)
    report = format_report([(args.name, m)])
    if args.out:
        with staged(args.out) as (tmp,):
            tmp.write_text(report, encoding="utf-8")
    sys.stdout.write(report)
    return 0


def _cmd_sweep(args) -> int:
    refuse_directories(args.out)  # before the sweep, not after it
    records = read_manifest(args.manifest)
    trials = read_trials(args.trials)
    ids = [rec.utt_id for rec in records]
    check_ids(trials, set(ids))
    check_kinds(trials.is_target)
    specs = {}
    for spec in args.model:
        name, eq, path = spec.partition("=")
        if not eq:
            raise InvalidConfigError(f"--model wants NAME=PATH, got {spec!r}")
        # NAME fills one cell of the table: one non-empty line, no tab
        if "\t" in name or name.splitlines() != [name]:
            raise InvalidConfigError(f"--model NAME must be non-empty, without tab or line break, got {name!r}")
        if name in specs:
            raise InvalidConfigError(f"--model NAME {name!r} given twice")
        specs[name] = path
    check_costs(args.p_target)
    models = {name: load_model(path) for name, path in specs.items()}
    work_dir = Path(args.work_dir) if args.work_dir else Path(str(args.out) + ".work")
    snr = None if args.zero_pad else args.snr_db

    lines = ["system\tk_seconds\tratio\teer\tmin_dcf"]
    for k, embs in ratio_sweep(records, list(models.values()), work_dir, args.seed, args.placement, snr):
        for name, emb in zip(models, embs):
            m = det_metrics(score_trials(trials, dict(zip(ids, emb))), trials.is_target, p_target=args.p_target)
            lines.append(f"{name}\t{k}\t{k / CHUNK_SECONDS:.4f}\t{m.eer:.6f}\t{m.min_dcf:.6f}")
            print(f"ratio {k}/{CHUNK_SECONDS:g} {name}: eer {m.eer:.4f} min_dcf {m.min_dcf:.4f}", file=sys.stderr)
    with staged(args.out) as (tmp,):
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"wrote sweep table to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padaug",
        description="Silence-padding augmentation and a desk-scale speaker-verification pipeline.",
        epilog="Any subcommand accepts --config FILE with key=value lines; explicit flags override.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="subcommand")

    def add(name, fn, help_text, *parents):
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(func=fn)
        return p

    pad_aug = argparse.ArgumentParser(add_help=False)  # augment and train
    pad_aug.add_argument("--t-min", type=_finite_float, default=1.0, help="minimum chunk seconds")
    pad_aug.add_argument("--t-max", type=_finite_float, default=3.0, help="output length in seconds")
    pad_aug.add_argument("--snr-min", type=_finite_float, default=PadAugConfig.snr_min_db)
    pad_aug.add_argument("--snr-max", type=_finite_float, default=PadAugConfig.snr_max_db)

    test_pad = argparse.ArgumentParser(add_help=False)  # build-testset and sweep
    test_pad.add_argument("--placement", choices=PLACEMENTS, default="head-tail-even")
    noise = test_pad.add_mutually_exclusive_group()
    noise.add_argument("--snr-db", type=_finite_float, default=TEST_SNR_DB)
    noise.add_argument("--zero-pad", action="store_true", help="pad with digital zeros instead of noise")

    p = add("synth", _cmd_synth, "generate a synthetic multi-speaker corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--n-speakers", type=int, default=20)
    p.add_argument("--n-utts", type=int, default=50)
    p.add_argument("--duration", type=_finite_float, default=4.0)
    p.add_argument("--seed", type=int, required=True)

    p = add("augment", _cmd_augment, "apply padding augmentation to a manifest", pad_aug)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("ht", "hmt"), default="ht")
    p.add_argument("--seed", type=int, required=True)

    p = add("build-testset", _cmd_build_testset, "pad a 3 s chunk of every utterance by k seconds", test_pad)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int, default=0, help="padding seconds, 0 to 8")
    p.add_argument("--seed", type=int, required=True)

    p = add("featurize", _cmd_featurize, "extract log-Mel features to a binary dump")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cmn", action="store_true", help="apply utterance-level mean normalization")

    p = add("vad", _cmd_vad, "drop silent frames with an energy VAD")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mask-out", default=None)
    p.add_argument("--offset-db", type=_finite_float, default=VadConfig.energy_offset_db)
    p.add_argument("--hang-before", type=int, default=VadConfig.hang_before)
    p.add_argument("--hang-over", type=int, default=VadConfig.hang_over)
    p.add_argument("--floor-percentile", type=_finite_float, default=VadConfig.floor_percentile)

    p = add("train", _cmd_train, "train the toy embedding model", pad_aug)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--augment", choices=("none", "ht", "hmt"), default="none")
    p.add_argument("--steps", type=int, default=ToyModelConfig.total_steps)
    p.add_argument("--batch-size", type=int, default=ToyModelConfig.batch_size)
    p.add_argument("--hidden-dim", type=int, default=ToyModelConfig.hidden_dim)
    p.add_argument("--embed-dim", type=int, default=ToyModelConfig.embed_dim)
    p.add_argument("--scale", type=_finite_float, default=ToyModelConfig.scale)
    p.add_argument("--margin", type=_finite_float, default=ToyModelConfig.margin_final)
    p.add_argument("--lr-init", type=_finite_float, default=ToyModelConfig.lr_init)
    p.add_argument("--lr-final", type=_finite_float, default=ToyModelConfig.lr_final)
    p.add_argument("--warmup-steps", type=int, default=ToyModelConfig.warmup_steps)
    p.add_argument("--margin-warm-steps", type=int, default=ToyModelConfig.margin_warm_steps)
    p.add_argument("--chunk-frames", type=int, default=ToyModelConfig.chunk_len)
    p.add_argument("--log", default=None, help="optional per-step training log TSV")
    p.add_argument("--seed", type=int, required=True)

    p = add("embed", _cmd_embed, "extract embeddings with a trained model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)

    p = add("score", _cmd_score, "cosine-score a trial list")
    p.add_argument("--trials", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)

    p = add("eval", _cmd_eval, "compute EER and minDCF from scores")
    p.add_argument("--trials", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--name", default="testset")
    p.add_argument("--p-target", type=_finite_float, default=0.01)
    p.add_argument("--c-miss", type=_finite_float, default=1.0)
    p.add_argument("--c-fa", type=_finite_float, default=1.0)
    p.add_argument("--out", default=None)

    p = add("sweep", _cmd_sweep, "evaluate models across the padding-ratio sweep", test_pad)
    p.add_argument("--manifest", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--model", action="append", required=True, help="NAME=PATH, repeatable")
    p.add_argument("--out", required=True)
    p.add_argument("--work-dir", default=None)
    p.add_argument("--p-target", type=_finite_float, default=0.01)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _splice_config(argv)
        parser = _build_parser()
        args = parser.parse_args(argv)
        try:
            worker_count()
        except InvalidConfigError as e:
            parser.error(str(e))
        _log_config(args)
        return args.func(args)
    except (PadAugError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
