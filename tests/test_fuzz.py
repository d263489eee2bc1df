"""Parser fuzzing: every reader of an on-disk format, fed a valid file
with bytes flipped, cut off or inserted, may fail only with a PadAugError
(which the CLI reports as exit 1), never with a bare numpy, struct or
OS-level exception."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padaug.audio_io import Waveform, read_wav, write_wav
from padaug.errors import PadAugError
from padaug.features import FeatureMatrix, read_feature_dump, write_feature_dump
from padaug.manifest import UtteranceRecord, read_manifest, write_manifest
from padaug.metrics import Trials, read_scores, read_trials, write_scores, write_trials
from padaug.model import ToyModelConfig, init_model, load_model, save_model

# Mutations as data, so explicit examples can name them: positions wrap
# around the file length.
MUTATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(1, 255)),
        st.tuples(st.just("truncate"), st.integers(0, 2**16)),
        st.tuples(st.just("insert"), st.integers(0, 2**16), st.binary(min_size=1, max_size=8)),
    ),
    min_size=1,
    max_size=3,
)


def mutate(blob: bytes, mutations) -> bytes:
    for kind, pos, *arg in mutations:
        if kind == "truncate":
            blob = blob[: pos % (len(blob) + 1)]
        elif kind == "flip" and blob:
            i = pos % len(blob)
            blob = blob[:i] + bytes([blob[i] ^ arg[0]]) + blob[i + 1 :]
        elif kind == "insert":
            i = pos % (len(blob) + 1)
            blob = blob[:i] + arg[0] + blob[i:]
    return blob


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory holding one small valid file of every format."""
    d = tmp_path_factory.mktemp("fuzz")
    write_wav(Waveform(0.3 * np.sin(np.arange(64)), 16000), d / "a.wav")
    rng = np.random.default_rng(0)
    write_feature_dump(d / "f.bin", [("a", FeatureMatrix(rng.standard_normal((3, 2)))),
                                     ("b", FeatureMatrix(rng.standard_normal((2, 2))))])
    save_model(init_model(ToyModelConfig(n_speakers=2, input_dim=3, hidden_dim=2, embed_dim=2,
                                         warmup_steps=1, total_steps=2)), d / "m.bin")
    write_manifest([UtteranceRecord("a", "s0", str(d / "a.wav"), 64, 16000),
                    UtteranceRecord("b", "s1", str(d / "a.wav"), 64, 16000)], d / "m.tsv")
    trials = Trials(("a", "a"), ("b", "a"), (False, True))
    write_trials(trials, d / "t.txt")
    write_scores(trials, np.array([0.125, 1.0]), d / "s.txt")
    return d


# format -> (the file that is corrupted, its reader given the directory)
READERS = {
    "wav": ("a.wav", lambda d: read_wav(d / "a.wav")),
    "feature-bin": ("f.bin", lambda d: read_feature_dump(d / "f.bin")),
    "feature-idx": ("f.bin.idx", lambda d: read_feature_dump(d / "f.bin")),
    "checkpoint": ("m.bin", lambda d: load_model(d / "m.bin")),
    "manifest": ("m.tsv", lambda d: read_manifest(d / "m.tsv")),
    "trials": ("t.txt", lambda d: read_trials(d / "t.txt")),
    "scores": ("s.txt", lambda d: read_scores(d / "s.txt", read_trials(d / "t.txt"))),
}


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(mutations=MUTATIONS)
# NULs inside the manifest's first utt_id, speaker_id and wav_path
@example(mutations=[("insert", 1, b"\0")])
@example(mutations=[("insert", 3, b"\0")])
@example(mutations=[("insert", 9, b"\0")])
def test_corrupt_input_fails_as_padaug_error(files, fmt, mutations):
    name, reader = READERS[fmt]
    pristine = (files / name).read_bytes()
    (files / name).write_bytes(mutate(pristine, mutations))
    try:
        reader(files)
    except PadAugError:
        pass
    finally:
        (files / name).write_bytes(pristine)
