import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padaug.errors import (
    DegenerateTrialSetError,
    DimMismatchError,
    InvalidConfigError,
    InvalidLabelError,
    MissingEmbeddingError,
    ZeroNormError,
)
from padaug.metrics import (
    DetMetrics,
    Trials,
    det_metrics,
    format_report,
    read_scores,
    read_trials,
    score_trials,
    write_scores,
    write_trials,
)
from padaug.seeding import make_rng


def mk(targets, nons):
    """(scores, is_target) arrays: the targets first, then the non-targets."""
    scores = np.concatenate([np.asarray(targets, dtype=np.float64), np.asarray(nons, dtype=np.float64)])
    is_target = np.arange(len(scores)) < len(targets)
    return scores, is_target


def cosine_ref(a, b):
    """Per-pair numpy cosine: the reference for score_trials."""
    return float(np.clip(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)), -1.0, 1.0))


def score_pairs(*pairs):
    """score_trials over pairs of vectors, each trial on its own two ids."""
    store = {}
    for i, (a, b) in enumerate(pairs):
        store[f"e{i}"], store[f"t{i}"] = a, b
    n = len(pairs)
    trials = Trials(tuple(f"e{i}" for i in range(n)), tuple(f"t{i}" for i in range(n)), (True,) * n)
    return score_trials(trials, store)


def brute_force(targets, nons, p_target=0.01, c_miss=1.0, c_fa=1.0):
    """Plain-Python sweep over the same candidate thresholds."""
    cand = sorted(set(list(targets) + list(nons)))
    cand.append(max(cand) + 1.0)
    pts = []
    for t in cand:
        frr = sum(1 for s in targets if s < t) / len(targets)
        far = sum(1 for s in nons if s >= t) / len(nons)
        pts.append((frr, far))
    dcfs = [c_miss * p_target * frr + c_fa * (1.0 - p_target) * far for frr, far in pts]
    mind = min(dcfs) / min(c_miss * p_target, c_fa * (1.0 - p_target))
    i = next(k for k, (frr, far) in enumerate(pts) if frr - far >= 0.0)
    frr_i, far_i = pts[i]
    if frr_i - far_i == 0.0:
        e = frr_i
    else:
        frr_p, far_p = pts[i - 1]
        u = (far_p - frr_p) / ((frr_i - frr_p) - (far_i - far_p))
        e = frr_p + u * (frr_i - frr_p)
    return e, mind


# ---------------------------------------------------------------------------
# cosine


def test_cosine_closed_forms():
    a = np.array([3.0, 4.0])
    got = score_pairs((a, a), (np.array([1.0, 0.0]), np.array([0.0, 2.0])),
                      (np.array([1.0, 0.0]), np.array([1.0, 1.0])), (a, -a))
    assert got[0] == 1.0
    assert got[1] == 0.0
    assert abs(got[2] - math.sqrt(2) / 2) < 1e-15
    assert got[3] == -1.0


def test_cosine_clamped():
    rng = make_rng(0)
    vs = [rng.standard_normal(16) for _ in range(50)]
    got = score_pairs(*[(v, 3.7 * v) for v in vs])
    assert np.all((-1.0 <= got) & (got <= 1.0))


def test_cosine_errors():
    with pytest.raises(DimMismatchError):
        score_pairs((np.ones(3), np.ones(4)))
    with pytest.raises(DimMismatchError):
        score_pairs((np.ones((2, 2)), np.ones((2, 2))))
    with pytest.raises(ZeroNormError):
        score_pairs((np.zeros(3), np.ones(3)))


def test_score_trials_matches_per_pair_cosine():
    tol = 1e-15  # summation order differs from np.dot / np.linalg.norm
    rng = make_rng(31)
    for rep in range(20):
        n_utts = int(rng.integers(2, 40))
        dim = int(rng.integers(1, 64))
        store = {f"u{i}": rng.standard_normal(dim) for i in range(n_utts)}
        n = int(rng.integers(1, 200)) if rep else 9000  # 9000 spans several scoring blocks
        enroll = tuple(f"u{i}" for i in rng.integers(n_utts, size=n))
        test = tuple(f"u{i}" for i in rng.integers(n_utts, size=n))
        trials = Trials(enroll, test, tuple(bool(b) for b in rng.integers(2, size=n)))
        got = score_trials(trials, store)
        want = np.array([cosine_ref(store[a], store[b]) for a, b in zip(enroll, test)])
        assert got.shape == (n,)
        assert np.max(np.abs(got - want)) <= tol


def test_score_trials_ignores_unused_zero_norm():
    store = {"a": np.array([1.0, 0.0]), "b": np.array([1.0, 1.0]), "unused": np.zeros(2)}
    got = score_trials(Trials(("a",), ("b",), (True,)), store)
    assert abs(got[0] - math.sqrt(2) / 2) < 1e-15


# ---------------------------------------------------------------------------
# worked examples


def test_worked_example_two_by_two():
    m = det_metrics(*mk([0.8, 0.4], [0.6, 0.2]))
    assert m.eer == 0.5 and m.eer_threshold == 0.6
    assert m.min_dcf == 0.5 and m.dcf_threshold == 0.8


def test_all_scores_equal():
    assert det_metrics(*mk([0.3, 0.3], [0.3])).eer == 0.5


def test_fully_separated():
    m = det_metrics(*mk([0.9, 0.8], [0.1, 0.2]))
    assert m.eer == 0.0 and m.min_dcf == 0.0


def test_fully_inverted():
    assert det_metrics(*mk([0.1], [0.5, 0.9])).eer == 1.0


def test_interpolated_crossing():
    # FRR jumps 0 -> 2/3 while FAR drops 1/2 -> 0 at t=0.5: cross at 3/7
    e = det_metrics(*mk([0.5, 0.6, 0.9], [0.2, 0.5])).eer
    oracle_e, _ = brute_force([0.5, 0.6, 0.9], [0.2, 0.5])
    assert abs(e - oracle_e) < 1e-15
    assert 0.0 < e < 0.5


# ---------------------------------------------------------------------------
# randomized oracle


def test_matches_brute_force_sweep():
    rng = make_rng(123)
    for trial in range(200):
        n_t = int(rng.integers(1, 60))
        n_n = int(rng.integers(1, 60))
        targets = rng.standard_normal(n_t)
        nons = rng.standard_normal(n_n) - 0.5
        if trial % 3 == 0:
            targets = np.round(targets, 1)  # force ties
            nons = np.round(nons, 1)
        p = [0.01, 0.05, 0.5][trial % 3]
        cm, cf = [(1.0, 1.0), (10.0, 1.0), (1.0, 4.0)][trial % 3]
        m = det_metrics(*mk(targets, nons), p_target=p, c_miss=cm, c_fa=cf)
        e, d = m.eer, m.min_dcf
        oe, od = brute_force(list(targets), list(nons), p, cm, cf)
        assert abs(e - oe) <= 1e-12
        assert d == od
        assert 0.0 <= e <= 1.0
        assert 0.0 <= d <= 1.0 + 1e-12


def test_monotone_transform_invariance():
    rng = make_rng(7)
    targets = rng.standard_normal(40)
    nons = rng.standard_normal(55) - 0.3
    base = det_metrics(*mk(targets, nons), p_target=0.05)
    warped = det_metrics(*mk(3.0 * targets + 1.0, 3.0 * nons + 1.0), p_target=0.05)
    assert abs(base.eer - warped.eer) < 1e-12
    assert abs(base.min_dcf - warped.min_dcf) < 1e-12


# Scores on a 1/8 grid, so 4x - 1 and x**3 are exact in float64 and keep
# distinct scores distinct; ties within the draw are kept as ties.
grid_scores = st.lists(st.integers(-24, 24).map(lambda i: i / 8.0), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(targets=grid_scores, nons=grid_scores, p_target=st.sampled_from([0.01, 0.05, 0.5]))
def test_metrics_invariant_under_increasing_transform(targets, nons, p_target):
    scores, is_target = mk(targets, nons)
    base = det_metrics(scores, is_target, p_target=p_target)
    for transform in (lambda x: 4.0 * x - 1.0, lambda x: x**3):
        warped = det_metrics(transform(scores), is_target, p_target=p_target)
        assert warped.eer == base.eer
        assert warped.min_dcf == base.min_dcf


def test_det_metrics_bundles_both():
    # both operating points in one result; the EER point ignores the costs
    recs = mk([0.8, 0.4], [0.6, 0.2])
    m = det_metrics(*recs)
    assert m == DetMetrics(eer=0.5, eer_threshold=0.6, min_dcf=0.5, dcf_threshold=0.8)
    costly = det_metrics(*recs, p_target=0.5, c_miss=10.0, c_fa=3.0)
    assert (costly.eer, costly.eer_threshold) == (m.eer, m.eer_threshold)


# ---------------------------------------------------------------------------
# validation


def test_degenerate_sets():
    with pytest.raises(DegenerateTrialSetError):
        det_metrics(*mk([0.5], []))
    with pytest.raises(DegenerateTrialSetError):
        det_metrics(*mk([], [0.5]))
    with pytest.raises(DimMismatchError):
        det_metrics(np.array([0.5, 0.4]), np.array([True]))


def test_non_finite_scores():
    with pytest.raises(InvalidConfigError):
        det_metrics(*mk([np.nan], [0.5]))
    with pytest.raises(InvalidConfigError):
        det_metrics(*mk([0.5], [np.inf]))


def test_min_dcf_parameter_validation():
    recs = mk([0.8], [0.2])
    for bad in ({"p_target": 0.0}, {"p_target": 1.0}, {"c_miss": 0.0}, {"c_fa": -1.0}):
        with pytest.raises(InvalidConfigError):
            det_metrics(*recs, **bad)


# ---------------------------------------------------------------------------
# trial scoring and files


def test_score_trials_order_and_values():
    store = {"a": np.array([1.0, 0.0]), "b": np.array([0.0, 1.0]), "c": np.array([1.0, 1.0])}
    trials = Trials(("a", "a"), ("c", "b"), (True, False))
    scores = score_trials(trials, store)
    assert abs(scores[0] - math.sqrt(2) / 2) < 1e-15
    assert scores[1] == 0.0


def test_score_trials_missing_embedding():
    with pytest.raises(MissingEmbeddingError):
        score_trials(Trials(("a",), ("ghost",), (True,)), {"a": np.ones(2)})


def test_trials_file_roundtrip(tmp_path):
    trials = Trials(("spk0_u0", "spk2_u1"), ("spk1_u3", "spk2_u2"), (False, True))
    p = tmp_path / "trials.txt"
    write_trials(trials, p)
    assert p.read_text() == "0 spk0_u0 spk1_u3\n1 spk2_u1 spk2_u2\n"
    assert read_trials(p) == trials


def test_trials_file_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("2 a b\n")
    with pytest.raises(InvalidLabelError):
        read_trials(p)
    p.write_text("1 a\n")
    with pytest.raises(InvalidLabelError):
        read_trials(p)
    p.write_text("\n1 a b\n\n")
    assert len(read_trials(p)) == 1


def test_scores_file_roundtrip(tmp_path):
    trials = Trials(("a", "a"), ("b", "c"), (True, False))
    p = tmp_path / "scores.txt"
    write_scores(trials, np.array([0.123456789, -0.25]), p)
    assert p.read_text() == "a b 0.123457\na c -0.250000\n"
    back = read_scores(p, trials)
    assert back[0] == pytest.approx(0.123457)
    assert back[1] == -0.25


def test_scores_file_missing_trial(tmp_path):
    p = tmp_path / "scores.txt"
    write_scores(Trials(("a",), ("b",), (True,)), np.array([0.5]), p)
    with pytest.raises(MissingEmbeddingError):
        read_scores(p, Trials(("a",), ("zzz",), (False,)))


def test_scores_file_non_numeric_score(tmp_path):
    p = tmp_path / "scores.txt"
    p.write_text("a b 0.5\nx z abc\n")
    with pytest.raises(InvalidLabelError, match=re.escape(f"{p}:2: ")):
        read_scores(p, Trials(("a", "x"), ("b", "z"), (True, False)))


def test_report_format():
    m = DetMetrics(eer=0.051234567, eer_threshold=0.25, min_dcf=0.4, dcf_threshold=0.75)
    out = format_report([("clean", m)])
    lines = out.splitlines()
    assert lines[0] == "testset\teer\tmin_dcf\teer_threshold\tdcf_threshold"
    assert lines[1] == "clean\t0.051235\t0.400000\t0.250000\t0.750000"
    assert out.endswith("\n")
