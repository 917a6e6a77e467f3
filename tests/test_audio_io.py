import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voicepd.audio_io import (
    AudioSignal,
    frame_geometry,
    frame_signal,
    load_manifest,
    load_wav,
    peak_normalize,
    save_wav,
)
from voicepd.errors import AudioDecodeError, DataError


def write_wav(path, ints, fs=8000, channels=1, sampwidth=2):
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(sampwidth)
        wf.setframerate(fs)
        if sampwidth == 2:
            wf.writeframes(np.asarray(ints, dtype="<i2").tobytes())
        else:
            raw = b"".join(struct.pack("<i", v)[:3] for v in ints)
            wf.writeframes(raw)


class TestLoadWav:
    def test_symmetric_full_scale(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, [16384, -16384])
        sig = load_wav(str(path))
        assert sig.samples.tolist() == [1.0, -1.0]
        assert sig.sample_rate == 8000

    def test_stereo_downmix_average(self, tmp_path):
        path = tmp_path / "st.wav"
        # one stereo frame: L=0.4, R=0.8 (of full scale); peak-normalized afterwards
        left, right = int(0.4 * 32768), int(0.8 * 32768)
        write_wav(path, [left, right, left, right], channels=2)
        sig = load_wav(str(path))
        mono = (left + right) / 2 / 32768
        np.testing.assert_allclose(sig.samples, [1.0, 1.0])  # 0.6 / 0.6 after norm
        # before normalization the mixed value is 0.6
        assert mono == pytest.approx(0.6, abs=1e-4)

    def test_all_zero_no_division(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(path, [0] * 100)
        sig = load_wav(str(path))
        assert len(sig.samples) == 100
        assert np.all(sig.samples == 0.0)

    def test_24_bit(self, tmp_path):
        path = tmp_path / "deep.wav"
        write_wav(path, [1 << 22, -(1 << 22)], sampwidth=3)
        sig = load_wav(str(path))
        np.testing.assert_allclose(sig.samples, [1.0, -1.0])

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioDecodeError, match="not found"):
            load_wav(str(tmp_path / "nope.wav"))

    def test_not_a_wav(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"this is not RIFF data at all....")
        with pytest.raises(AudioDecodeError, match="PCM WAV"):
            load_wav(str(path))

    def test_unsupported_bit_depth(self, tmp_path):
        path = tmp_path / "b8.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(1)
            wf.setframerate(8000)
            wf.writeframes(bytes([128, 255, 0]))
        with pytest.raises(AudioDecodeError, match="bit depth"):
            load_wav(str(path))

    def test_zero_length(self, tmp_path):
        path = tmp_path / "empty.wav"
        write_wav(path, [])
        with pytest.raises(AudioDecodeError, match="zero-length"):
            load_wav(str(path))

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        write_wav(path, list(range(100)))
        data = path.read_bytes()
        path.write_bytes(data[:-40])  # cut the tail of the data chunk
        with pytest.raises(AudioDecodeError, match="truncat"):
            load_wav(str(path))

    def test_chunk_size_past_end_of_file(self, tmp_path):
        path = tmp_path / "chunk.wav"
        write_wav(path, list(range(100)))
        data = bytearray(path.read_bytes())
        data[16:20] = bytes([0x10, 0x00, 0x67, 0x00])  # `fmt ` chunk size 0x670010
        path.write_bytes(bytes(data))
        with pytest.raises(AudioDecodeError, match="past the end"):
            load_wav(str(path))

    @given(ints=st.lists(st.integers(-32768, 32767), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_within_one_lsb(self, ints, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        path, path2 = tmp / "a.wav", tmp / "b.wav"
        write_wav(path, ints)
        sig = load_wav(str(path))
        save_wav(sig, str(path2))
        sig2 = load_wav(str(path2))
        assert np.max(np.abs(sig.samples - sig2.samples)) <= 1.0 / 32768 + 1e-12


def previous_decode(raw, sampwidth, n_channels):
    """load_wav's scaling before it divided in place: the bit-equality oracle."""
    if sampwidth == 2:
        ints = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    else:
        b = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        ints = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints).astype(np.float64)
    samples = ints / {2: 32768.0, 3: 8388608.0}[sampwidth]
    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    peak = np.max(np.abs(samples))
    return samples if peak == 0.0 else samples / peak


def _decode_cases():
    rng = np.random.default_rng(1019)
    lo16, hi16, lo24, hi24 = -(1 << 15), (1 << 15) - 1, -(1 << 23), (1 << 23) - 1
    with_zeros = rng.integers(lo16, hi16, 1000)
    with_zeros[::4] = 0
    extremes24 = rng.integers(lo24, hi24 + 1, 1001)
    extremes24[[0, 1, 2, 3]] = [lo24, hi24, -1, 0]
    return {
        # name: (ints, channels, bytes per sample)
        "even": (rng.integers(lo16, hi16 + 1, 1000), 1, 2),
        "odd": (rng.integers(lo16, hi16 + 1, 1001), 1, 2),
        "exact_zeros": (with_zeros, 1, 2),
        "full_scale": (np.array([lo16, hi16, 0, 1, -1, 12345]), 1, 2),
        "all_negative": (rng.integers(lo16, 0, 999), 1, 2),
        "constant": (np.full(500, 1234), 1, 2),
        "silence": (np.zeros(300, dtype=int), 1, 2),
        "stereo": (rng.integers(lo16, hi16 + 1, 2 * 501), 2, 2),
        "stereo_negative_peak": (np.array([-30000, -32768, 5, 7, 100, -100]), 2, 2),
        "24_bit": (extremes24, 1, 3),
        "24_bit_all_negative": (rng.integers(lo24, 0, 1000), 1, 3),
        "24_bit_stereo": (rng.integers(lo24, hi24 + 1, 2 * 400), 2, 3),
    }


class TestDecodingOracle:
    @pytest.mark.parametrize("name", sorted(_decode_cases()))
    def test_bit_equal_to_previous_decoding(self, name, tmp_path):
        ints, channels, sampwidth = _decode_cases()[name]
        path = tmp_path / "a.wav"
        write_wav(path, ints, channels=channels, sampwidth=sampwidth)
        with wave.open(str(path), "rb") as wf:
            raw = wf.readframes(wf.getnframes())
        got = load_wav(str(path)).samples
        want = previous_decode(raw, sampwidth, channels)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", sorted(_decode_cases()))
    def test_peak_normalize_bit_equal(self, name):
        x = _decode_cases()[name][0] / 32768.0
        peak = np.max(np.abs(x))
        want = x if peak == 0.0 else x / peak
        assert peak_normalize(x).tobytes() == want.tobytes()

    def test_range_check_sees_negative_peaks(self):
        AudioSignal(samples=np.array([-1.0, 0.5]), sample_rate=8000)
        with pytest.raises(AudioDecodeError, match="exceed"):
            AudioSignal(samples=np.array([-1.01, 0.5]), sample_rate=8000)
        with pytest.raises(AudioDecodeError, match="exceed"):
            AudioSignal(samples=np.array([-0.5, 1.01]), sample_rate=8000)


class TestNormalization:
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100))
    def test_idempotent(self, values):
        x = np.array(values)
        once = peak_normalize(x)
        twice = peak_normalize(once)
        np.testing.assert_array_equal(once, twice)

    def test_signal_invariants(self):
        with pytest.raises(AudioDecodeError):
            AudioSignal(samples=np.array([]), sample_rate=8000)
        with pytest.raises(AudioDecodeError):
            AudioSignal(samples=np.array([np.nan]), sample_rate=8000)
        with pytest.raises(AudioDecodeError):
            AudioSignal(samples=np.array([0.5]), sample_rate=0)


class TestManifest:
    def test_table_counts(self, tmp_path):
        lines = (
            [f"off{i}.wav,0" for i in range(22)]
            + [f"on{i}.wav,2" for i in range(30)]
            + [f"h{i}.wav,1" for i in range(28)]
        )
        path = tmp_path / "m.csv"
        path.write_text("\n".join(lines) + "\n")
        entries = load_manifest(str(path))
        assert len(entries) == 80
        counts = np.bincount([e.label for e in entries], minlength=3)
        assert tuple(counts) == (22, 28, 30)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        assert load_manifest(str(path)) == []

    def test_bad_label(self, tmp_path):
        path = tmp_path / "m.csv"
        # a first line is a header only when its last column is `label`, so
        # neither `1.0` nor `class` there is skipped
        for text, lineno, label in [("x.wav,1\na.wav,3\n", 2, "3"),
                                    ("a.wav,1.0\nb.wav,1\n", 1, "1.0"),
                                    ("file,class\na.wav,1\n", 1, "class"),
                                    ("x.wav,1\na.wav,+1\n", 2, "+1")]:
            path.write_text(text)
            with pytest.raises(DataError) as caught:
                load_manifest(str(path))
            assert str(caught.value) == (f"{str(path)!r} line {lineno}: "
                                         f"label '{label}' is not one of 0, 1, 2")

    def test_malformed_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x.wav,1\nbroken-line\n")
        with pytest.raises(DataError, match="line 2"):
            load_manifest(str(path))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("path,label\nx.wav,1\n")
        entries = load_manifest(str(path))
        assert len(entries) == 1 and entries[0].label == 1

    @given(labels=st.lists(st.integers(0, 2), min_size=1, max_size=50))
    @settings(max_examples=25, deadline=None)
    def test_counts_sum_to_total(self, labels, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("mf")
        path = tmp / "m.csv"
        path.write_text("".join(f"f{i}.wav,{lb}\n" for i, lb in enumerate(labels)))
        entries = load_manifest(str(path))
        assert [e.label for e in entries] == labels


class TestFraming:
    def test_counts_1s_8khz(self):
        frames = frame_signal(np.ones(8000) * 0.5, 8000, 40.0, 10.0)
        assert frames.shape == (97, 320)

    def test_short_signal_empty(self):
        frames = frame_signal(np.ones(160) * 0.5, 8000, 40.0, 10.0)
        assert frames.shape == (0, 320)

    def test_nonoverlapping_tiling(self):
        x = np.arange(1000.0)
        frames = frame_signal(x, 8000, 40.0, 40.0)
        assert len(frames) == 1000 // 320
        starts = frames[:, 0].astype(int).tolist()
        assert starts == [0, 320, 640]

    def test_frames_fit_signal(self):
        # sample values equal their indices, so each row shows its own offsets
        x = np.arange(999.0)
        frames = frame_signal(x, 8000, 17.0, 5.0)
        length, hop = frame_geometry(8000, 17.0, 5.0)
        assert frames.shape == ((999 - length) // hop + 1, length)
        for i, row in enumerate(frames):
            np.testing.assert_array_equal(row, x[i * hop:i * hop + length])

    def test_view_shares_memory(self):
        x = np.arange(8000.0)
        assert np.shares_memory(frame_signal(x, 8000, 40.0, 10.0), x)
