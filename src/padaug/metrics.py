"""Cosine trial scoring, EER, and normalized minimum detection cost.

Acceptance convention throughout: a trial is accepted when its score is
>= the threshold (ties accept). FRR(t) is the fraction of target scores
strictly below t; FAR(t) the fraction of non-target scores >= t. Both
metrics are read off the one DET curve det_metrics builds over the observed
scores, plus a sentinel above the maximum for the reject-everything point.

EER is read off the FRR/FAR crossing with linear interpolation between
the two adjacent operating points (no convex-hull smoothing). minDCF is
the exact minimum over the swept thresholds, normalized by
min(c_miss*p_target, c_fa*(1-p_target)) so a system that always rejects
(or always accepts) scores 1.0.

A trial list is a `Trials` of three columns (check_ids and check_kinds vet
it before any scoring); scores are a float array in trial order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTrialSetError,
    DimMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    MissingEmbeddingError,
    ZeroNormError,
    read_text,
)
from .manifest import staged


@dataclass(frozen=True)
class Trials:
    """A trial list as three parallel columns, one entry per trial."""

    enroll: tuple  # enrollment utt_id
    test: tuple  # test utt_id
    is_target: tuple  # bool, True for a same-speaker trial

    def __len__(self) -> int:
        return len(self.enroll)


@dataclass(frozen=True)
class DetMetrics:
    eer: float
    eer_threshold: float
    min_dcf: float
    dcf_threshold: float


def check_costs(p_target: float, c_miss: float = 1.0, c_fa: float = 1.0) -> None:
    """Raise unless det_metrics accepts the detection-cost parameters."""
    if not 0.0 < p_target < 1.0 or c_miss <= 0.0 or c_fa <= 0.0:
        raise InvalidConfigError("need 0 < p_target < 1 and positive costs")


def check_kinds(is_target) -> None:
    """Raise unless the labels hold both target and non-target trials."""
    n_target = int(np.count_nonzero(is_target))
    if not 0 < n_target < len(is_target):
        raise DegenerateTrialSetError(f"need both trial kinds, got {n_target} target / {len(is_target) - n_target} non-target")


def check_ids(trials: Trials, known) -> list:
    """The ids the trials use, in order of first use; raises on the first not in known."""
    ids = list(dict.fromkeys(trials.enroll + trials.test))
    for utt in ids:
        if utt not in known:
            raise MissingEmbeddingError(f"no embedding for {utt!r}")
    return ids


def det_metrics(scores, is_target, p_target: float = 0.01, c_miss: float = 1.0, c_fa: float = 1.0) -> DetMetrics:
    """EER and normalized minDCF, both read off one DET curve."""
    scores = np.asarray(scores, dtype=np.float64)
    is_target = np.asarray(is_target, dtype=bool)
    if scores.ndim != 1 or scores.shape != is_target.shape:
        raise DimMismatchError(f"scores {scores.shape} and labels {is_target.shape} differ in shape")
    check_kinds(is_target)
    if not np.all(np.isfinite(scores)):
        raise InvalidConfigError("non-finite score in trial set")
    check_costs(p_target, c_miss, c_fa)
    targets = np.sort(scores[is_target])
    nons = np.sort(scores[~is_target])
    all_scores = np.concatenate([targets, nons])
    thr = np.concatenate([np.unique(all_scores), [all_scores.max() + 1.0]])
    frr = np.searchsorted(targets, thr, side="left") / len(targets)
    far = (len(nons) - np.searchsorted(nons, thr, side="left")) / len(nons)
    diff = frr - far
    # diff starts at -1 (threshold <= every score) and ends at +1 (sentinel),
    # so the first nonnegative index always has a predecessor.
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        e, e_thr = frr[i], thr[i]
    else:
        u = (far[i - 1] - frr[i - 1]) / ((frr[i] - frr[i - 1]) - (far[i] - far[i - 1]))
        e, e_thr = frr[i - 1] + u * (frr[i] - frr[i - 1]), thr[i - 1] + u * (thr[i] - thr[i - 1])
    dcf = c_miss * p_target * frr + c_fa * (1.0 - p_target) * far
    j = int(np.argmin(dcf))
    norm = min(c_miss * p_target, c_fa * (1.0 - p_target))
    return DetMetrics(eer=float(e), eer_threshold=float(e_thr), min_dcf=float(dcf[j] / norm), dcf_threshold=float(thr[j]))


def score_trials(trials: Trials, store) -> np.ndarray:
    """Cosine score per trial against an utt_id -> embedding mapping.

    Only the embeddings some trial uses are stacked and checked; the pairs
    are gathered by index and scored a block of trials at a time, so the
    gathered rows stay small whatever the length of the trial list.
    """
    n = len(trials)
    block = 4096  # trials per gather
    if n == 0:
        return np.zeros(0)
    ids = check_ids(trials, store)
    rows = [np.asarray(store[utt], dtype=np.float64) for utt in ids]
    shapes = {r.shape for r in rows}
    if len(shapes) > 1 or rows[0].ndim != 1:
        raise DimMismatchError(f"embedding shapes differ: {sorted(shapes)}")
    emb = np.stack(rows)
    norms = np.linalg.norm(emb, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormError(f"cosine undefined for zero-norm embedding {ids[int(np.argmin(norms))]!r}")
    row = {utt: i for i, utt in enumerate(ids)}
    a, b = (np.fromiter(map(row.__getitem__, col), dtype=np.intp, count=n) for col in (trials.enroll, trials.test))
    scores = np.empty(n)
    for lo in range(0, n, block):
        ia, ib = a[lo : lo + block], b[lo : lo + block]
        scores[lo : lo + block] = np.einsum("ij,ij->i", emb[ia], emb[ib]) / (norms[ia] * norms[ib])
    return np.clip(scores, -1.0, 1.0, out=scores)


# ---------------------------------------------------------------------------
# Text formats. Trials: "label enroll_id test_id", label 1 = target.
# Scores: "enroll_id test_id score" at 6 decimals.
# Report: TSV "testset eer min_dcf eer_threshold dcf_threshold".


def write_trials(trials: Trials, path) -> None:
    with staged(path) as (tmp,), open(tmp, "w", encoding="utf-8") as f:
        for enroll, test, target in zip(trials.enroll, trials.test, trials.is_target):
            f.write(f"{int(target)} {enroll} {test}\n")


def read_trials(path) -> Trials:
    enroll, test, is_target = [], [], []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise InvalidLabelError(f"{path}:{lineno}: expected 'label enroll test'")
        if parts[0] not in ("0", "1"):
            raise InvalidLabelError(f"{path}:{lineno}: label must be 0 or 1, got {parts[0]!r}")
        is_target.append(parts[0] == "1")
        enroll.append(parts[1])
        test.append(parts[2])
    return Trials(tuple(enroll), tuple(test), tuple(is_target))


def write_scores(trials: Trials, scores, path) -> None:
    with staged(path) as (tmp,), open(tmp, "w", encoding="utf-8") as f:
        for enroll, test, score in zip(trials.enroll, trials.test, np.asarray(scores, dtype=np.float64).tolist()):
            f.write(f"{enroll} {test} {score:.6f}\n")


def read_scores(path, trials: Trials) -> np.ndarray:
    """Join a score file against its trial list by (enroll, test) pair;
    returns the scores in trial order."""
    table = {}
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 3:
            raise InvalidLabelError(f"{path}:{lineno}: expected 'enroll test score'")
        try:
            table[(parts[0], parts[1])] = float(parts[2])
        except ValueError as e:
            raise InvalidLabelError(f"{path}:{lineno}: score {parts[2]!r} is not a number") from e
    out = np.empty(len(trials))
    for i, key in enumerate(zip(trials.enroll, trials.test)):
        if key not in table:
            raise MissingEmbeddingError(f"no score for trial {key}")
        out[i] = table[key]
    return out


def format_report(rows) -> str:
    """rows: (name, DetMetrics) pairs -> TSV with a header line."""
    lines = ["testset\teer\tmin_dcf\teer_threshold\tdcf_threshold"]
    for name, m in rows:
        lines.append(f"{name}\t{m.eer:.6f}\t{m.min_dcf:.6f}\t{m.eer_threshold:.6f}\t{m.dcf_threshold:.6f}")
    return "\n".join(lines) + "\n"
