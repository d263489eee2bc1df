import struct
import warnings
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from padaug.audio_io import INT16_SCALE, Waveform, from_pcm, quantize, read_wav, to_pcm, write_wav
from padaug.errors import CorruptHeaderError, InvalidConfigError, UnsupportedFormatError


def test_roundtrip_is_exact_on_grid_values(tmp_path):
    # samples on the int16 grid survive a write/read cycle untouched
    ints = np.array([-32768, -1, 0, 1, 12345, 32767])
    w = Waveform(ints / INT16_SCALE, 16000)
    write_wav(w, tmp_path / "a.wav")
    back = read_wav(tmp_path / "a.wav")
    assert back.sample_rate_hz == 16000
    assert np.array_equal(back.samples, w.samples)


def test_pcm_mapping_is_exact_for_every_int16_value():
    pcm = np.arange(-32768, 32768).astype("<i2")
    samples = from_pcm(pcm)
    assert samples.dtype == np.float64
    assert samples.tobytes() == (pcm / 32768.0).tobytes()
    back = to_pcm(samples)
    assert back.dtype == np.dtype("<i2") and back.tobytes() == pcm.tobytes()


def test_roundtrip_quantization_error_bounded(tmp_path):
    rng = np.random.default_rng(0)
    w = Waveform(rng.uniform(-0.9, 0.9, 5000), 8000)
    write_wav(w, tmp_path / "b.wav")
    back = read_wav(tmp_path / "b.wav")
    assert len(back) == 5000
    assert np.max(np.abs(back.samples - w.samples)) <= 0.5 / INT16_SCALE + 1e-12


def test_out_of_range_samples_clamp(tmp_path):
    w = Waveform(np.array([2.0, -2.0, 1.0, -1.0]), 16000)
    write_wav(w, tmp_path / "c.wav")
    back = read_wav(tmp_path / "c.wav")
    assert back.samples[0] == 32767 / INT16_SCALE
    assert back.samples[1] == -1.0
    assert back.samples[2] == 32767 / INT16_SCALE


def test_waveform_validation():
    with pytest.raises(Exception):
        Waveform(np.zeros((2, 2)), 16000)
    with pytest.raises(Exception):
        Waveform(np.zeros(4), 0)
    w = Waveform(np.zeros(800), 16000)
    assert len(w) == 800


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/nothing.wav")


def test_bad_magic(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CorruptHeaderError):
        read_wav(p)


def test_truncated_data_chunk(tmp_path):
    p = tmp_path / "t.wav"
    write_wav(Waveform(np.zeros(100), 16000), p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-40])
    with pytest.raises(CorruptHeaderError):
        read_wav(p)


def _wav_header(audio_format=1, channels=1, rate=16000, bits=16, payload=b"\x00\x00"):
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate, rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def test_unsupported_formats(tmp_path):
    cases = [
        dict(audio_format=3),  # float pcm
        dict(channels=2),
        dict(bits=8),
    ]
    for i, kw in enumerate(cases):
        p = tmp_path / f"u{i}.wav"
        p.write_bytes(_wav_header(**kw))
        with pytest.raises(UnsupportedFormatError):
            read_wav(p)


def test_stereo_file_from_stdlib_writer_rejected(tmp_path):
    p = tmp_path / "st.wav"
    with wave.open(str(p), "wb") as f:
        f.setnchannels(2)
        f.setsampwidth(2)
        f.setframerate(16000)
        f.writeframes(b"\x00\x00" * 200)
    with pytest.raises(UnsupportedFormatError):
        read_wav(p)


def test_odd_payload_rejected(tmp_path):
    p = tmp_path / "odd.wav"
    p.write_bytes(_wav_header(payload=b"\x00\x01\x02"))
    with pytest.raises(CorruptHeaderError):
        read_wav(p)


def test_zero_rate_rejected(tmp_path):
    p = tmp_path / "zr.wav"
    p.write_bytes(_wav_header(rate=0))
    with pytest.raises(CorruptHeaderError):
        read_wav(p)


def write_wav_ref(w, path):
    """write_wav's body before it quantized in one buffer and returned the
    stored waveform; kept as the oracle for the bytes it writes."""
    q = np.clip(np.rint(np.clip(w.samples, -1.0, 1.0) * INT16_SCALE), -32768, 32767)
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(w.sample_rate_hz)
        f.writeframes(q.astype("<i2").tobytes())


# Values where the quantizer could go wrong: the ends of the range and past
# them, signed zeros, subnormals, and samples half an LSB from a step.
EDGE_SAMPLES = [
    1.0, -1.0, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, -2.2250738585072009e-308,
    1.0 + 2**-52, -1.0 - 2**-52, 2.0, -2.0, 1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
    32767.5 / INT16_SCALE, -32768.5 / INT16_SCALE, 32766.5 / INT16_SCALE, -32767.5 / INT16_SCALE,
    0.5 / INT16_SCALE, -0.5 / INT16_SCALE, 1.5 / INT16_SCALE, -1.5 / INT16_SCALE,
]
_sample = st.one_of(
    st.sampled_from(EDGE_SAMPLES),
    st.integers(-32770, 32769).map(lambda n: (n + 0.5) / INT16_SCALE),  # every half-LSB tie
    st.floats(allow_nan=False),
    st.floats(-1.5, 1.5),
)


@settings(max_examples=300, deadline=None)
@given(
    samples=st.one_of(
        st.lists(_sample, max_size=200).map(np.array),
        arrays(np.float64, st.integers(0, 2000), elements=st.floats(-1.2, 1.2, width=64)),
    ),
    rate=st.sampled_from([8000, 16000, 44100]),
)
def test_write_wav_matches_quantize_oracle(tmp_path_factory, samples, rate):
    d = tmp_path_factory.mktemp("q")
    w = Waveform(samples, rate)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow or cast warning on any finite or infinite input
        heard = write_wav(w, d / "new.wav")
    write_wav_ref(w, d / "ref.wav")
    assert (d / "new.wav").read_bytes() == (d / "ref.wav").read_bytes()
    back = read_wav(d / "new.wav")
    assert heard.sample_rate_hz == back.sample_rate_hz == rate
    assert heard.samples.dtype == back.samples.dtype
    assert heard.samples.tobytes() == back.samples.tobytes()  # -0.0 comes back as 0.0, as from the file
    assert quantize(samples).tobytes() == back.samples.tobytes()


def test_write_wav_rejects_nan_before_writing(tmp_path):
    p = tmp_path / "nan.wav"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfigError, match=r"sample 1 is NaN"):
            write_wav(Waveform(np.array([0.1, np.nan, 0.2, np.nan]), 16000), p)
    assert not p.exists()
