"""Exception types shared across the package."""


class PadAugError(Exception):
    """Base class for all errors raised by this package."""


class CorruptHeaderError(PadAugError):
    """WAV container is malformed or truncated."""


class UnsupportedFormatError(PadAugError):
    """WAV file is readable but not 16-bit mono PCM."""


class InvalidConfigError(PadAugError, ValueError):
    """A configuration object violates its invariants."""


class TooShortError(PadAugError):
    """Input signal is shorter than the operation requires."""


class LengthMismatchError(PadAugError):
    """Segment lengths do not add up to the declared layout."""


class SilentReferenceError(PadAugError):
    """Reference signal has zero power, noise variance is undefined."""


class EmptyInputError(PadAugError):
    """Operation received a zero-length waveform."""


class EmptyResultError(PadAugError):
    """Operation would produce an empty waveform (e.g. all frames dropped)."""


class InvalidRatioError(PadAugError, ValueError):
    """Silence-to-speech ratio outside the supported sweep range."""


class DimMismatchError(PadAugError):
    """Vector or matrix dimensions do not agree."""


class ZeroNormError(PadAugError):
    """Cosine scoring received a zero-norm vector."""


class InvalidLabelError(PadAugError, ValueError):
    """Class label outside [0, n_speakers)."""


class TooFewFramesError(PadAugError):
    """Statistics pooling needs at least two frames."""


class DegenerateTrialSetError(PadAugError):
    """Trial set lacks target or non-target entries."""


class MissingEmbeddingError(PadAugError, KeyError):
    """A trial references an id absent from the embedding store."""


class DatasetTooSmallError(PadAugError):
    """Training set does not contain enough speakers or utterances."""
