"""Log-Mel filterbank features and the binary feature dump format.

Pipeline per frame: pre-emphasis (first sample of the utterance kept as
is), Hamming window, magnitude-squared FFT, triangular Mel filterbank on
the HTK mel scale spanning 0 to Nyquist, then a natural log with the
energy floored at LOG_FLOOR. The floor is a max(), not an addend, so
scaling a waveform by c shifts every above-floor output by exactly
2*ln(c). A frame's row depends only on its own samples and the one before
them, so fbank_pieces gives fbank of several concatenations of slices of
shared sources, bit for bit, computing each distinct frame once.
"""

import functools
import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import Waveform
from .errors import CorruptHeaderError, InvalidConfigError, TooShortError, UnsupportedFormatError, read_text
from .manifest import check_utt_id, staged
from .seeding import Rng, randint

FEATURE_MAGIC = b"FBK1"


# The front end is fixed: every caller gets these settings.
N_MELS = 80
WIN_MS = 25.0
HOP_MS = 10.0
PREEMPHASIS = 0.97
LOG_FLOOR = 1e-10


@dataclass
class FeatureMatrix:
    """frames x dims array of finite reals."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise InvalidConfigError(f"feature matrix must be 2-D, got shape {self.values.shape}")

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=None)
def mel_filterbank(n_mels: int, n_fft: int, sr: int) -> np.ndarray:
    """Triangular filters, n_mels x (n_fft//2 + 1), HTK scale 0..Nyquist.
    Built once per argument triple and shared read-only by every caller."""
    n_bins = n_fft // 2 + 1
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sr / 2.0), n_mels + 2))
    bin_hz = np.arange(n_bins) * sr / n_fft
    fb = np.zeros((n_mels, n_bins))
    for i in range(n_mels):
        lo, center, hi = edges_hz[i], edges_hz[i + 1], edges_hz[i + 2]
        rising = (bin_hz - lo) / (center - lo)
        falling = (hi - bin_hz) / (hi - center)
        fb[i] = np.maximum(0.0, np.minimum(rising, falling))
    fb.flags.writeable = False
    return fb


@functools.lru_cache(maxsize=None)
def _hamming(win: int) -> np.ndarray:
    """np.hamming(win), built once per length and shared read-only."""
    window = np.hamming(win)
    window.flags.writeable = False
    return window


class _Workspace(threading.local):
    """fbank's per-thread scratch from framing to Mel energies, reused from
    call to call so that each call does not fault fresh temporaries in. The
    buffers grow to the longest input the thread has seen. fbank never
    writes the zero-padded columns frames[:, win:], so the buffers are
    remade, at the current size, whenever win changes (n_fft follows
    from win)."""

    win = None

    def spectra(self, nf: int, win: int, n_fft: int):
        """(frames, spectrum, power, energies) views of nf rows each."""
        if self.win != win or len(self.frames) < nf:
            n_bins = n_fft // 2 + 1
            self.frames = np.zeros((nf, n_fft))
            self.spec = np.empty((nf, n_bins), dtype=np.complex128)
            self.power = np.empty((nf, n_bins))
            self.energies = np.empty((nf, N_MELS))
            self.win = win
        return self.frames[:nf], self.spec[:nf], self.power[:nf], self.energies[:nf]


_WORKSPACE = _Workspace()


def _frame_geometry(sr: int, n: int):
    """(win, hop) in samples at sr; raises unless an n-sample input gives
    at least one frame."""
    win = round(WIN_MS * sr / 1000.0)
    hop = round(HOP_MS * sr / 1000.0)
    if hop < 1:  # win >= hop, so this also catches win < 1
        raise UnsupportedFormatError(f"sample rate {sr} Hz gives a {HOP_MS:g} ms hop of 0 samples; fbank needs > 50 Hz")
    if n < win:
        raise TooShortError(f"need at least {win} samples, got {n}")
    return win, hop


def _framed(x: np.ndarray, win: int, hop: int) -> np.ndarray:
    """Pre-emphasized frames of x, row j = pre[j*hop : j*hop + win], as a
    view of one fresh pre array."""
    # Pre-emphasis over the whole signal; frames then share boundary context.
    # Computed in place in pre, with no signal-length temporaries.
    pre = np.empty_like(x)
    pre[0] = x[0]
    np.multiply(x[:-1], PREEMPHASIS, out=pre[1:])
    np.subtract(x[1:], pre[1:], out=pre[1:])
    return sliding_window_view(pre, win)[::hop]


def _log_mel(view: np.ndarray, sr: int) -> np.ndarray:
    """Windowed, FFT'd, Mel-projected and floored log energies of the
    frames in view's rows; a fresh (rows, N_MELS) array."""
    win = view.shape[1]
    n_fft = 1 << (win - 1).bit_length()  # next power of two >= win
    # From here on every step writes into the thread's scratch, with the
    # shapes the plain expressions had, so the results are bit-identical.
    frames, spec, power, energies = _WORKSPACE.spectra(len(view), win, n_fft)
    np.multiply(view, _hamming(win), out=frames[:, :win])
    np.fft.rfft(frames, axis=1, out=spec)  # frames is already zero-padded to n_fft
    np.square(np.abs(spec, out=power), out=power)
    np.matmul(power, mel_filterbank(N_MELS, n_fft, sr).T, out=energies)
    # The only fresh array, so no result aliases the scratch.
    out = np.maximum(energies, LOG_FLOOR)
    np.log(out, out=out)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite filterbank output")
    return out


def fbank(w: Waveform) -> FeatureMatrix:
    """N_MELS log-Mel features of w under the fixed front end above;
    frames = 1 + floor((len - win) / hop)."""
    sr = w.sample_rate_hz
    win, hop = _frame_geometry(sr, len(w))
    return FeatureMatrix(_log_mel(_framed(w.samples, win, hop), sr))


# A Mel product of fewer rows than this can round differently from the
# same rows inside a taller one (OpenBLAS takes a small-matrix dgemm path
# for them), while every taller product gives each row the same bits. So
# rows are shared only between products of at least this many rows.
MIN_SHARED_ROWS = 16


def fbank_pieces(sources, outputs) -> list:
    """fbank of each output, where an output is a list of (source index,
    start, stop) pieces of the waveforms in sources, all of one sample
    rate, and stands for the concatenation of those slices. Returns one
    FeatureMatrix per output, each equal bit for bit to
    fbank(Waveform(np.concatenate(slices))), without building any output.

    A frame's log-Mel row depends only on its win samples and, through
    pre-emphasis, the sample before them; frame 0 has none. So output
    frame j takes row i of fbank(source) when its samples and the one
    before lie inside one piece, the piece's offset into the source
    minus its offset in the output is a multiple of the hop (then i is j
    plus that difference in hops), and j == 0 exactly when the frame
    starts at source sample 0. Each source that lends a row is featurized
    once, whole. Every other frame is a boundary frame, framed from the
    pieces: a run of at least MIN_SHARED_ROWS consecutive ones (a piece
    off the hop grid) takes an FFT and Mel pass of its own, and all the
    shorter runs share one pass, padded to MIN_SHARED_ROWS rows. An
    output of fewer frames than that is featurized whole, as fbank itself
    would.
    """
    sr = sources[0].sample_rate_hz
    if any(s.sample_rate_hz != sr for s in sources):
        raise InvalidConfigError("fbank_pieces needs sources of one sample rate")
    plans = []  # per output: its pieces with output offsets, length, frame count, lent spans
    for pieces in outputs:
        placed, o = [], 0
        for s, a, b in pieces:
            if not 0 <= a <= b <= len(sources[s]):
                raise InvalidConfigError(f"piece [{a}, {b}) lies outside source {s} of {len(sources[s])} samples")
            placed.append((s, a, b, o))
            o += b - a
        win, hop = _frame_geometry(sr, o)
        n_frames = 1 + (o - win) // hop
        spans = []  # (first j, end j, source, row of the first j)
        for s, a, b, start in placed:
            if n_frames < MIN_SHARED_ROWS or (a - start) % hop or len(sources[s]) < win + (MIN_SHARED_ROWS - 1) * hop:
                continue
            j_lo = 0 if start == a == 0 else -(-(start + 1) // hop)
            j_hi = (start + b - a - win) // hop + 1
            if j_lo < j_hi:
                spans.append((j_lo, j_hi, s, j_lo + (a - start) // hop))
        plans.append((placed, o, n_frames, spans))

    blocks = []  # row blocks, concatenated at the end

    def place(rows):
        """Append a block of rows; their indices in the concatenation."""
        start = sum(len(r) for r in blocks)
        blocks.append(rows)
        return np.arange(start, start + len(rows))

    lent = {s: place(fbank(sources[s]).values)[0] for s in sorted({s for *_, spans in plans for _, _, s, _ in spans})}
    picks, short = [], []  # short: (pick, run, frames) of each run below MIN_SHARED_ROWS
    for placed, length, n_frames, spans in plans:
        pick = np.empty(n_frames, dtype=np.intp)
        picks.append(pick)
        if n_frames < MIN_SHARED_ROWS:  # fbank of it takes the small-product path
            pick[:] = place(fbank(Waveform(_concat(sources, placed, 0, length), sr)).values)
            continue
        todo = np.ones(n_frames, dtype=bool)
        for j_lo, j_hi, s, i_lo in spans:
            pick[j_lo:j_hi] = np.arange(lent[s] + i_lo, lent[s] + i_lo + j_hi - j_lo)
            todo[j_lo:j_hi] = False
        todo = np.flatnonzero(todo)
        for run in np.split(todo, np.flatnonzero(np.diff(todo) > 1) + 1) if len(todo) else ():
            lo = max(run[0] - 1, 0) * hop  # one frame early, for the sample before frame run[0]
            view = _framed(_concat(sources, placed, lo, run[-1] * hop + win), win, hop)
            view = view[1:] if run[0] else view
            if len(run) >= MIN_SHARED_ROWS:
                pick[run] = place(_log_mel(view, sr))
            else:
                short.append((pick, run, view))
    if short:
        n = sum(len(run) for _, run, _ in short)
        pad = np.zeros((max(MIN_SHARED_ROWS - n, 0), win))
        at = place(_log_mel(np.concatenate([view for *_, view in short] + [pad]), sr))
        for pick, run, _ in short:
            pick[run], at = at[: len(run)], at[len(run) :]
    rows = np.concatenate(blocks)
    return [FeatureMatrix(rows[pick]) for pick in picks]


def _concat(sources, placed, lo: int, hi: int) -> np.ndarray:
    """Samples lo..hi of the concatenation of the placed pieces."""
    return np.concatenate([sources[s].samples[a + max(lo - o, 0) : a + min(hi - o, b - a)]
                           for s, a, b, o in placed if o < hi and lo < o + b - a])


def cmn(f: FeatureMatrix) -> FeatureMatrix:
    """Subtract the per-dimension mean over time."""
    return FeatureMatrix(f.values - f.values.mean(axis=0, keepdims=True))


def chunk_frames(f: FeatureMatrix, n: int, rng: Rng) -> FeatureMatrix:
    """Contiguous random n-frame window; wrap-pad along time if too short."""
    if n < 1:
        raise InvalidConfigError(f"chunk length must be >= 1, got {n}")
    if f.frames == 0:
        raise TooShortError("cannot chunk an empty feature matrix")
    if f.frames < n:
        return FeatureMatrix(f.values[np.arange(n) % f.frames])
    offset = randint(rng, 0, f.frames - n)
    return FeatureMatrix(f.values[offset : offset + n].copy())


# ---------------------------------------------------------------------------
# Binary dump: [magic][frames int32][dims int32][row-major float32] per entry,
# little-endian, with a sidecar TSV index "<utt_id>\t<byte offset>".


def _index_path(path) -> Path:
    return Path(str(path) + ".idx")


def write_feature_dump(path, items) -> None:
    """Write (utt_id, FeatureMatrix) pairs plus the sidecar index through
    manifest.staged, so both appear only once every entry is written."""
    index_lines = []
    with staged(path, _index_path(path)) as (tmp_bin, tmp_idx):
        with open(tmp_bin, "wb") as f:
            for utt_id, mat in items:
                check_utt_id(utt_id)
                index_lines.append(f"{utt_id}\t{f.tell()}\n")
                f.write(FEATURE_MAGIC)
                f.write(struct.pack("<ii", mat.frames, mat.dims))
                f.write(mat.values.astype("<f4").tobytes(order="C"))
        tmp_idx.write_text("".join(index_lines), encoding="utf-8")


def _read_entry(f, file_size: int) -> FeatureMatrix:
    magic = f.read(4)
    if magic != FEATURE_MAGIC:
        raise CorruptHeaderError(f"bad feature magic {magic!r}")
    header = f.read(8)
    if len(header) != 8:
        raise CorruptHeaderError("truncated feature entry header")
    frames, dims = struct.unpack("<ii", header)
    if frames < 0 or dims < 1:
        raise CorruptHeaderError(f"bad feature shape ({frames}, {dims})")
    # Checked before reading, so a corrupt shape cannot ask for a huge buffer.
    if 4 * frames * dims > file_size - f.tell():
        raise CorruptHeaderError(f"feature entry of {frames} x {dims} runs past the end of the file")
    raw = f.read(4 * frames * dims)
    return FeatureMatrix(np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(frames, dims))


def read_feature_index(path):
    """Load the sidecar index as an ordered utt_id -> offset dict."""
    index = {}
    for lineno, line in enumerate(read_text(_index_path(path)).split("\n"), start=1):
        if not line:
            continue
        utt_id, _, off = line.partition("\t")
        if not (off.isascii() and off.isdigit()):
            raise CorruptHeaderError(f"{_index_path(path)}:{lineno}: expected <utt_id>\\t<offset>")
        index[utt_id] = int(off)
    return index


def read_feature_dump(path):
    """Load every entry as an ordered utt_id -> FeatureMatrix dict."""
    index = read_feature_index(path)
    out = {}
    with open(path, "rb") as f:
        file_size = os.fstat(f.fileno()).st_size
        for utt_id, off in index.items():
            if off > file_size:
                raise CorruptHeaderError(f"{path}: offset {off} of {utt_id!r} is past the end of the file")
            f.seek(off)
            out[utt_id] = _read_entry(f, file_size)
    return out
