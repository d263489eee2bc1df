"""Exception types shared across the package, the UTF-8 text reader
that turns undecodable bytes into one of them, and naming_utterance,
which prefixes an utterance id to an error raised for it."""

from contextlib import contextmanager
from pathlib import Path


class PadAugError(Exception):
    """Base class for all errors raised by this package."""


class CorruptHeaderError(PadAugError):
    """A WAV, manifest, dump or other input file is malformed or truncated."""


class UnsupportedFormatError(PadAugError):
    """Audio is readable but not in a supported format: 16-bit mono PCM,
    at a sample rate fbank and the VAD can frame (above 50 Hz), and one
    sample rate across a training set."""


class InvalidConfigError(PadAugError, ValueError):
    """A configuration object violates its invariants."""


class TooShortError(PadAugError):
    """Input signal is shorter than the operation requires: an empty
    waveform, or fewer than two frames for statistics pooling."""


class LengthMismatchError(PadAugError):
    """Segment lengths do not add up to the declared layout."""


class SilentReferenceError(PadAugError):
    """Reference signal has zero power, noise variance is undefined."""


class DimMismatchError(PadAugError):
    """Vector or matrix dimensions do not agree."""


class ZeroNormError(PadAugError):
    """Cosine scoring received a zero-norm vector."""


class InvalidLabelError(PadAugError, ValueError):
    """Class label outside [0, n_speakers)."""


class DegenerateTrialSetError(PadAugError):
    """Trial set lacks target or non-target entries."""


class MissingEmbeddingError(PadAugError):
    """A trial references an id absent from the embedding store or score file."""


class DatasetTooSmallError(PadAugError):
    """Training set does not contain enough speakers or utterances."""


def read_text(path) -> str:
    """The file's contents as UTF-8 text with universal newlines, as
    open(path, encoding="utf-8") reads it; bytes that are not UTF-8 raise
    CorruptHeaderError naming the path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise CorruptHeaderError(f"{path}: not UTF-8 text (byte {e.start}: {e.object[e.start:e.end]!r})") from e


@contextmanager
def naming_utterance(utt_id: str):
    """Re-raise a PadAugError or OSError from the block as the same type,
    its message prefixed with `utterance <utt_id>: `."""
    try:
        yield
    except (PadAugError, OSError) as e:
        raise type(e)(f"utterance {utt_id}: {e}") from e
