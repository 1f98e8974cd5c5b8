import struct

import numpy as np
import pytest

from peaudio.errors import (
    CorruptHeaderError,
    InvalidRateError,
    NonFiniteAudioError,
    UnsupportedFormatError,
)
from peaudio.signal_io import AudioBuffer, load_wav, resample, save_wav


def build_wav(path, payload, format_tag=1, channels=1, sample_rate=22050, bits=16):
    """Assemble raw WAV bytes so tests control every header field."""
    block_align = channels * max(bits // 8, 1)
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack(
                "<IHHIIHH",
                16,
                format_tag,
                channels,
                sample_rate,
                sample_rate * block_align,
                block_align,
                bits,
            ),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    path.write_bytes(header + payload)
    return path


class TestLoadWav:
    def test_16bit_full_scale_mapping(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<h", 32767))
        buf = load_wav(path)
        assert buf.sample_rate == 22050
        np.testing.assert_allclose(buf.samples, [32767 / 32768])

    def test_16bit_min_maps_to_minus_one(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<h", -32768))
        assert load_wav(path).samples[0] == -1.0

    def test_stereo_averages_channels(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<hh", 16384, -16384), channels=2)
        buf = load_wav(path)
        assert buf.samples.shape == (1,)
        assert buf.samples[0] == 0.0

    def test_header_arithmetic(self, tmp_path):
        payload = struct.pack(f"<{3 * 44100}h", *([0] * (3 * 44100)))
        path = build_wav(tmp_path / "t.wav", payload, sample_rate=44100)
        buf = load_wav(path)
        assert len(buf) == 132300
        assert buf.sample_rate == 44100

    def test_8bit_unsigned(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", bytes([255, 0, 128]), bits=8)
        np.testing.assert_allclose(load_wav(path).samples, [127 / 128, -1.0, 0.0])

    def test_24bit_scaling(self, tmp_path):
        # +0x400000 = 2^22 -> 0.5; 0xFFFFFF = -1 -> -1/2^23
        payload = bytes([0x00, 0x00, 0x40]) + bytes([0xFF, 0xFF, 0xFF])
        path = build_wav(tmp_path / "t.wav", payload, bits=24)
        np.testing.assert_allclose(load_wav(path).samples, [0.5, -1.0 / (1 << 23)])

    def test_float32_passthrough_and_clip(self, tmp_path):
        payload = struct.pack("<3f", 0.25, -1.5, 1.0)
        path = build_wav(tmp_path / "t.wav", payload, format_tag=3, bits=32)
        np.testing.assert_allclose(load_wav(path).samples, [0.25, -1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_float32_non_finite_rejected(self, tmp_path, bad):
        # Clipping would turn an infinity into full scale; reject it instead.
        payload = struct.pack("<3f", 0.25, bad, 1.0)
        path = build_wav(tmp_path / "t.wav", payload, format_tag=3, bits=32)
        with pytest.raises(NonFiniteAudioError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_wav(tmp_path / "nope.wav")

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"NOTAWAVFILE0")
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<4h", 1, 2, 3, 4))
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(CorruptHeaderError):
            load_wav(path)

    def test_extensible_rejected(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<h", 0), format_tag=0xFFFE)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_compressed_rejected(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", b"\x00\x00", format_tag=0x0055)  # mp3
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_three_channels_rejected(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<3h", 0, 0, 0), channels=3)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_32bit_int_pcm_rejected(self, tmp_path):
        path = build_wav(tmp_path / "t.wav", struct.pack("<i", 1 << 30), bits=32)
        with pytest.raises(UnsupportedFormatError):
            load_wav(path)

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(rng.uniform(-0.99, 0.99, 4096), 16000)
        path = tmp_path / "rt.wav"
        save_wav(buf, path)
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, buf.samples, atol=0.5 / 32768)


class TestResample:
    def test_two_to_one_decimation(self):
        pattern = np.array([0.0, 1.0, 0.0, -1.0] * 32)
        buf = AudioBuffer(pattern, 44100)
        out = resample(buf, 22050)
        np.testing.assert_allclose(out.samples, pattern[::2])
        assert out.sample_rate == 22050

    def test_identity_rate(self):
        buf = AudioBuffer(np.linspace(-1, 1, 100), 22050)
        out = resample(buf, 22050)
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_length_arithmetic(self):
        buf = AudioBuffer(np.zeros(22050), 22050)
        assert len(resample(buf, 11025)) == 11025

    def test_idempotent_at_fixed_rate(self):
        rng = np.random.default_rng(3)
        buf = AudioBuffer(rng.uniform(-1, 1, 5000), 22050)
        once = resample(buf, 16000)
        twice = resample(once, 16000)
        np.testing.assert_array_equal(once.samples, twice.samples)

    def test_dc_preserved_through_load_and_resample(self, tmp_path):
        dc = 0.25
        buf = AudioBuffer(np.full(22050, dc), 22050)
        path = tmp_path / "dc.wav"
        save_wav(buf, path)
        out = resample(load_wav(path), 16000)
        assert np.abs(out.samples - dc).max() < 1e-6

    def test_invalid_rate(self):
        buf = AudioBuffer(np.zeros(10), 22050)
        with pytest.raises(InvalidRateError):
            resample(buf, 0)
        with pytest.raises(InvalidRateError):
            resample(buf, -8000)


class TestAudioBuffer:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteAudioError):
            AudioBuffer(np.array([0.0, np.nan]), 8000)

    def test_rejects_over_full_scale(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([1.5]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidRateError):
            AudioBuffer(np.zeros(4), 0)
