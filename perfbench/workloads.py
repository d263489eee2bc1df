"""The four benchmark workloads: inputs made from a seed, the measured CLI
operation, and the checks on its outputs.

Every workload drives the shipped code path through `padaug.cli.main`.
`setup()` makes the inputs; `op()` is the unit that is timed and repeated;
`check()` verifies the outputs of one op and returns informational
metrics. The program sees only the files that `setup()` writes.
"""

import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import padaug.cli
import padaug.errors
import padaug.model


class OpFailed(Exception):
    """A CLI call returned a non-zero exit code."""


def cli(argv, ledger) -> None:
    """Run one padaug subcommand in-process and count it as one operation."""
    ledger.attempted += 1
    rc = padaug.cli.main([str(a) for a in argv])
    if rc != 0:
        raise OpFailed(f"padaug {argv[0]} exited with {rc}")


def digest(root: Path) -> str:
    """SHA-256 over every file under root, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def seeds(seed: int, n: int):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


# ---------------------------------------------------------------------------
# Training workloads


class Train:
    """`padaug train` on a synthetic corpus; one op is one training run."""

    threads = 1
    setup_repeats = 3  # setup_s is their median

    def __init__(self, augment: str, tiny: bool):
        self.augment = augment
        # (rounds, steps, lines) of run.Reference: the kinds that tracked
        # each operation best across the host's slow and fast spells.
        self.reference = (0, 360, 0) if augment == "none" else (8, 0, 0)
        if tiny:
            self.corpus = dict(n_speakers=3, n_utts=4, duration=1.5)
            self.steps, self.warmup, self.batch = 3, 1, 4
        else:
            # 100 utterances: the augment=none feature cache fills within the
            # first ~4 steps, so loss_and_grads dominates that run.
            self.corpus = dict(n_speakers=10, n_utts=10, duration=4.0)
            self.steps, self.warmup, self.batch = (60, 10, 32) if augment == "none" else (12, 2, 32)
        self.items_per_op = self.steps * self.batch
        self.item, self.rate = "training examples", "utts_per_s"

    def setup(self, work: Path, seed: int, ledger) -> dict:
        corpus_seed, train_seed = seeds(seed, 2)
        c = self.corpus
        cli(["synth", "--out", work / "corpus", "--n-speakers", c["n_speakers"], "--n-utts", c["n_utts"],
             "--duration", c["duration"], "--seed", corpus_seed], ledger)
        return {"manifest": work / "corpus" / "manifest.tsv", "train_seed": train_seed}

    def op(self, ctx: dict, out: Path, ledger) -> None:
        cli(["train", "--manifest", ctx["manifest"], "--out", out / "model.bin", "--augment", self.augment,
             "--steps", self.steps, "--warmup-steps", self.warmup, "--batch-size", self.batch,
             "--log", out / "train.tsv", "--seed", ctx["train_seed"]], ledger)

    def check(self, ctx: dict, out: Path):
        checks = []
        try:
            model = padaug.model.load_model(out / "model.bin")
            finite = all(np.all(np.isfinite(p)) for p in model.params().values())
            checks.append(Check("checkpoint_finite", finite))
        except padaug.errors.PadAugError as e:
            checks.append(Check("checkpoint_loads", False, str(e)))
        rows = (out / "train.tsv").read_text().splitlines()[1:]
        steps = [int(r.split("\t")[0]) for r in rows]
        checks.append(Check("log_steps", steps == list(range(self.steps)), f"{len(steps)} rows"))
        final_loss = float(rows[-1].split("\t")[1]) if rows else float("nan")
        checks.append(Check("final_loss_finite", bool(np.isfinite(final_loss))))
        return checks, {"final_loss": (final_loss, "nats")}


# ---------------------------------------------------------------------------
# Padded-evaluation sweep


class Sweep:
    """`padaug sweep` over k = 0..8 for a baseline and a pad-augmented model."""

    threads = 2
    reference = (8, 0, 0)
    setup_repeats = 3
    systems = ("baseline", "padaug")

    def __init__(self, tiny: bool):
        # The sweep embeds every utterance 9 x 2 times at 3..11 s, so the
        # corpus is kept small enough for several sweeps per run. Training
        # uses batch 16 because `train` needs at least one batch of utterances.
        if tiny:
            self.corpus = dict(n_speakers=3, n_utts=2, duration=2.0)
            self.train_args = {"none": (4, 1, 4), "ht": (2, 1, 4)}
        else:
            self.corpus = dict(n_speakers=8, n_utts=3, duration=4.0)
            self.train_args = {"none": (40, 5, 16), "ht": (8, 2, 16)}
        n_utts = self.corpus["n_speakers"] * self.corpus["n_utts"]
        self.items_per_op = n_utts * 9 * len(self.systems)
        self.item, self.rate = "utterances embedded", "utts_per_s"

    def setup(self, work: Path, seed: int, ledger) -> dict:
        corpus_seed, train_seed, sweep_seed = seeds(seed, 3)
        c = self.corpus
        cli(["synth", "--out", work / "corpus", "--n-speakers", c["n_speakers"], "--n-utts", c["n_utts"],
             "--duration", c["duration"], "--seed", corpus_seed], ledger)
        manifest = work / "corpus" / "manifest.tsv"
        for system, augment in zip(self.systems, ("none", "ht")):
            steps, warmup, batch = self.train_args[augment]
            cli(["train", "--manifest", manifest, "--out", work / "models" / f"{system}.bin", "--augment", augment,
                 "--steps", steps, "--warmup-steps", warmup, "--batch-size", batch, "--seed", train_seed], ledger)
        trials = work / "corpus" / "trials.txt"
        n_trials = sum(1 for line in trials.read_text().splitlines() if line.strip())
        models = [a for s in self.systems for a in ("--model", f"{s}={work / 'models' / s}.bin")]
        return {"manifest": manifest, "trials": trials, "models": models, "sweep_seed": sweep_seed, "n_trials": n_trials}

    def op(self, ctx: dict, out: Path, ledger) -> None:
        cli(["sweep", "--manifest", ctx["manifest"], "--trials", ctx["trials"], *ctx["models"],
             "--out", out / "sweep.tsv", "--work-dir", out / "sweep.work", "--seed", ctx["sweep_seed"]], ledger)

    def check(self, ctx: dict, out: Path):
        lines = (out / "sweep.tsv").read_text().splitlines()
        rows = [line.split("\t") for line in lines[1:]]
        keys = sorted((r[0], int(r[1])) for r in rows)
        checks = [
            Check("sweep_rows", len(rows) == 18 and keys == sorted((s, k) for s in self.systems for k in range(9))),
        ]
        eer = {(r[0], int(r[1])): float(r[3]) for r in rows}
        dcf = [float(r[4]) for r in rows]
        checks.append(Check("eer_in_unit", all(0.0 <= v <= 1.0 for v in eer.values())))
        checks.append(Check("min_dcf_in_unit", all(0.0 <= v <= 1.0 for v in dcf)))
        info = {
            "eer_mean": (float(np.mean(list(eer.values()))), "fraction"),
            "eer_growth": (eer.get(("padaug", 8), np.nan) - eer.get(("padaug", 0), np.nan), "fraction"),
            "trials_per_op": (ctx["n_trials"] * 9 * len(self.systems), "count"),
        }
        return checks, info


# ---------------------------------------------------------------------------
# Scoring and evaluation of a large trial list


class Score:
    """`padaug score` then `padaug eval` over a generated embedding dump."""

    threads = 1
    # About as long as an op, and like it in kind: see run.Reference.
    reference = (4, 0, 16000)
    # A set-up takes ~10 ms, inside one spell of the host's speed, so
    # many of them, spread over the run, give a steady median.
    setup_repeats = 30
    dim = 32

    def __init__(self, tiny: bool):
        self.n_speakers, self.n_utts = (5, 6) if tiny else (20, 25)
        # All same-speaker pairs plus as many cross-speaker pairs:
        # 20 x C(25, 2) = 6,000 targets, 12,000 trials in all. An op takes
        # ~0.25 s, so a run times ~50 of them: their median is steadier
        # than that of fewer, longer ops on a host whose speed flickers.
        self.n_trials = 2 * self.n_speakers * self.n_utts * (self.n_utts - 1) // 2
        self.items_per_op = self.n_trials
        self.item, self.rate = "trials scored and evaluated", "trials_per_s"

    def setup(self, work: Path, seed: int, ledger) -> dict:
        rng = np.random.default_rng(seeds(seed, 1)[0])
        s, u, d = self.n_speakers, self.n_utts, self.dim
        centers = rng.standard_normal((s, d))
        emb = (centers[:, None, :] + 0.8 * rng.standard_normal((s, u, d))).reshape(s * u, d).astype("<f4")
        ids = [f"spk{i // u:03d}-u{i % u:03d}" for i in range(s * u)]
        work.mkdir(parents=True, exist_ok=True)
        # Feature-dump format (padaug.features): FBK1, <frames, dims> int32, float32 rows.
        index = []
        with open(work / "emb.bin", "wb") as f:
            for utt, row in zip(ids, emb):
                index.append(f"{utt}\t{f.tell()}\n")
                f.write(b"FBK1" + struct.pack("<ii", 1, d) + row.tobytes())
        (work / "emb.bin.idx").write_text("".join(index))

        iu, ju = np.triu_indices(u, 1)
        tgt_a = (np.arange(s)[:, None] * u + iu[None, :]).ravel()
        tgt_b = (np.arange(s)[:, None] * u + ju[None, :]).ravel()
        n_non = len(tgt_a)
        non = np.empty(0, dtype=np.int64)
        while len(non) < n_non:
            a = rng.integers(s * u, size=2 * n_non)
            b = rng.integers(s * u, size=2 * n_non)
            codes = np.concatenate([non, (a * (s * u) + b)[a // u != b // u]])
            _, first = np.unique(codes, return_index=True)
            non = codes[np.sort(first)]
        non = non[:n_non]
        enroll = np.concatenate([tgt_a, non // (s * u)])
        test = np.concatenate([tgt_b, non % (s * u)])
        label = np.concatenate([np.ones(n_non, dtype=int), np.zeros(n_non, dtype=int)])
        trials = work / "trials.txt"
        trials.write_text("".join(f"{lab} {ids[a]} {ids[b]}\n" for lab, a, b in zip(label, enroll, test)))
        return {"emb": emb, "ids": ids, "enroll": enroll, "test": test, "trials": trials, "dump": work / "emb.bin"}

    def op(self, ctx: dict, out: Path, ledger) -> None:
        cli(["score", "--trials", ctx["trials"], "--embeddings", ctx["dump"], "--out", out / "scores.txt"], ledger)
        cli(["eval", "--trials", ctx["trials"], "--scores", out / "scores.txt", "--out", out / "report.tsv"], ledger)

    def check(self, ctx: dict, out: Path):
        rows = [line.split() for line in (out / "scores.txt").read_text().splitlines()]
        ids = ctx["ids"]
        same_pairs = len(rows) == len(ctx["enroll"]) and all(
            r[0] == ids[a] and r[1] == ids[b] for r, a, b in zip(rows, ctx["enroll"], ctx["test"])
        )
        checks = [Check("score_pairs", same_pairs)]
        if same_pairs:
            e = ctx["emb"].astype(np.float64)
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            want = np.clip(np.einsum("ij,ij->i", e[ctx["enroll"]], e[ctx["test"]]), -1.0, 1.0)
            got = np.array([float(r[2]) for r in rows])
            # Scores are written at 6 decimals: at most 5e-7 of rounding.
            err = float(np.max(np.abs(got - want)))
            checks.append(Check("scores_match_numpy", err <= 5e-7 + 1e-12, f"max error {err:.3g}"))
        report = (out / "report.tsv").read_text().splitlines()
        eer = float(report[1].split("\t")[1])
        checks.append(Check("eer_in_unit", 0.0 <= eer <= 1.0))
        return checks, {"eer": (eer, "fraction")}


def make(name: str, tiny: bool):
    if name == "train-none":
        return Train("none", tiny)
    if name == "train-ht":
        return Train("ht", tiny)
    if name == "sweep":
        return Sweep(tiny)
    if name == "score":
        return Score(tiny)
    raise KeyError(name)
