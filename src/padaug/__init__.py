"""Silence-padding augmentation for speaker verification, with a
self-contained evaluation pipeline: WAV I/O, the padding augmentation,
test-set builders, log-Mel features, an energy VAD, a tiny trainable
embedding model, EER/minDCF scoring, and a synthetic corpus generator.
"""

from .audio_io import Waveform, read_wav, write_wav
from .augment import (
    AugmentedUtterance,
    PadAugConfig,
    PaddingLayout,
    pad_aug_utterance,
)
from .errors import PadAugError
from .features import FeatureMatrix, cmn, fbank
from .metrics import DetMetrics, Trials, det_metrics, score_trials
from .model import ToyModel, ToyModelConfig, forward, train
from .synth import build_corpus, make_speaker, synth_utterance
from .testset import build_testset, ratio_sweep
from .vad import VadConfig, detect, drop_silence

__version__ = "0.1.0"

__all__ = [
    "AugmentedUtterance",
    "DetMetrics",
    "FeatureMatrix",
    "PadAugConfig",
    "PadAugError",
    "PaddingLayout",
    "ToyModel",
    "ToyModelConfig",
    "Trials",
    "VadConfig",
    "Waveform",
    "build_corpus",
    "build_testset",
    "cmn",
    "det_metrics",
    "detect",
    "drop_silence",
    "fbank",
    "forward",
    "make_speaker",
    "pad_aug_utterance",
    "ratio_sweep",
    "read_wav",
    "score_trials",
    "synth_utterance",
    "train",
    "write_wav",
]
