import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import peaudio
from peaudio.cli import main
from peaudio.errors import (
    CorruptHeaderError,
    InvalidRateError,
    NonFiniteAudioError,
    UnsupportedFormatError,
    WorkerLostError,
)
from peaudio import signal_io
from peaudio.signal_io import AudioBuffer, fork_map, load_wav, resample, save_wav, thread_map

# Zero, negative, fractional, NaN, infinite and boolean rates all read as InvalidRateError.
BAD_RATES = [0, -8000, 1.5, float("nan"), float("inf"), float("-inf"), True, np.True_]


def riff(chunks):
    """RIFF/WAVE bytes from (id, body) chunks, each odd body followed by its pad byte."""
    body = b"WAVE" + b"".join(
        cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1) for cid, data in chunks
    )
    return b"RIFF" + struct.pack("<I", len(body)) + body


def fmt_body(channels, bits, format_tag=1, sample_rate=22050):
    block_align = channels * max(bits // 8, 1)
    return struct.pack(
        "<HHIIHH", format_tag, channels, sample_rate, sample_rate * block_align, block_align, bits
    )


def build_wav(path, payload, format_tag=1, channels=1, sample_rate=22050, bits=16):
    """Write a plain fmt-then-data WAV so tests control every header field."""
    path.write_bytes(
        riff([(b"fmt ", fmt_body(channels, bits, format_tag, sample_rate)), (b"data", payload)])
    )
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

    @pytest.mark.parametrize("chunks, error, message", [
        ([(b"fmt ", fmt_body(1, 16)[:14]), (b"data", b"\0\0")],
         CorruptHeaderError, "fmt chunk too small"),
        ([(b"fmt ", fmt_body(1, 16))], CorruptHeaderError, "missing fmt or data chunk"),
        ([(b"fmt ", fmt_body(1, 16, sample_rate=0)), (b"data", b"\0\0")],
         CorruptHeaderError, "non-positive sample rate in header"),
        ([(b"fmt ", fmt_body(1, 64, format_tag=3)), (b"data", b"\0" * 8)],
         UnsupportedFormatError, "64-bit float is not supported"),
        ([(b"fmt ", fmt_body(1, 12)), (b"data", b"\0\0")],
         CorruptHeaderError, "invalid bit depth 12"),
        # Three bytes of 16-bit PCM; riff() writes the pad byte, so the
        # chunk walk finds a whole chunk and the sample size is what fails.
        ([(b"fmt ", fmt_body(1, 16)), (b"data", b"\0\0\0")],
         CorruptHeaderError, "PCM payload not sample-aligned"),
    ], ids=["short-fmt", "no-data", "rate-0", "float64", "pcm12", "partial-sample"])
    def test_header_rejections(self, tmp_path, capsys, chunks, error, message):
        path = tmp_path / "h.wav"
        path.write_bytes(riff(chunks))
        with pytest.raises(error) as info:
            load_wav(path)
        assert str(info.value) == f"{path}: {message}"
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"

    def test_save_load_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        buf = AudioBuffer(rng.uniform(-0.99, 0.99, 4096), 16000)
        path = tmp_path / "rt.wav"
        save_wav(buf, path)
        back = load_wav(path)
        assert back.sample_rate == 16000
        np.testing.assert_allclose(back.samples, buf.samples, atol=0.5 / 32768)


class TestSaveWav:
    @pytest.mark.parametrize("sample_rate", [8000, 22050, 44100])
    @pytest.mark.parametrize("n", [0, 1, 7, 22050])
    def test_bytes_of_the_struct_packed_header(self, tmp_path, n, sample_rate):
        samples = np.random.default_rng(n).uniform(-1.0, 1.0, n)
        samples[:2] = [1.0, -1.0][:n]  # full scale saturates to 32767 and -32768
        # riff packs the header with struct, field by field: the 44 bytes save_wav must write.
        pcm = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2").tobytes()
        want = riff([(b"fmt ", fmt_body(1, 16, sample_rate=sample_rate)), (b"data", pcm)])
        assert np.frombuffer(want, "<i2", min(n, 2), 44).tolist() == [32767, -32768][:n]
        for path in (tmp_path / "path.wav", str(tmp_path / "str.wav")):
            save_wav(AudioBuffer(samples, sample_rate), path)
            assert Path(path).read_bytes() == want


class TestMappedInput:
    """load_wav maps a non-empty regular file, and reads a pipe or an empty file."""

    @pytest.fixture
    def maps(self, monkeypatch):
        """The sizes of the files load_wav maps, in order."""
        sizes = []
        real = signal_io.mmap.mmap

        def spied(fileno, length, **kwargs):
            sizes.append(os.fstat(fileno).st_size)
            return real(fileno, length, **kwargs)

        monkeypatch.setattr(signal_io.mmap, "mmap", spied)
        return sizes

    def test_empty_file_is_one_line_exit_2(self, tmp_path, capsys, maps):
        path = tmp_path / "empty.wav"
        path.write_bytes(b"")
        out = tmp_path / "pe.csv"
        assert main(["analyze", str(path), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not a RIFF/WAVE file\n"
        assert not out.exists()
        assert maps == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_fifo_decodes_as_the_file(self, tmp_path, maps):
        values = np.random.default_rng(5).integers(-(1 << 23), 1 << 23, 2 * 3000).tolist()
        path = build_wav(tmp_path / "t.wav", encode_pcm(values, 24), channels=2, bits=24)
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)

        def writer():
            with open(fifo, "wb") as fh:
                fh.write(path.read_bytes())

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        piped = load_wav(fifo)
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert maps == []
        mapped = load_wav(path)
        assert maps == [path.stat().st_size]
        assert piped.sample_rate == mapped.sample_rate == 22050
        assert piped.samples.tobytes() == mapped.samples.tobytes()
        assert mapped.samples.size == 3000

    def test_peak_is_the_decoded_samples_with_no_file_bytes(self, tmp_path, maps):
        # 30 s of 24-bit stereo 44.1 kHz: a 7.9 MB file and 10.6 MB of
        # decoded samples. Read onto the heap, the file's bytes would add
        # 7.9 MB to the peak; mapped, they add nothing tracemalloc sees.
        n = 30 * 44100
        ints = np.random.default_rng(6).integers(-(1 << 23), 1 << 23, 2 * n).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        path = build_wav(tmp_path / "t.wav", payload, channels=2, sample_rate=44100, bits=24)
        del ints, payload
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            buf = load_wav(path)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert maps == [path.stat().st_size]
        assert buf.samples.nbytes == 8 * n
        assert peak <= buf.samples.nbytes + 2**20, peak


def encode_pcm(values, bits):
    """Little-endian PCM bytes; 8-bit PCM is unsigned with its zero at 128."""
    if bits == 8:
        return bytes(v + 128 for v in values)
    return b"".join(v.to_bytes(bits // 8, "little", signed=True) for v in values)


def oracle_samples(payload, bits, channels):
    """Independent per-sample decode: each channel over full scale, averaged."""
    width = bits // 8
    full_scale = float(1 << (bits - 1))
    chunks = [payload[i : i + width] for i in range(0, len(payload), width)]
    if bits == 8:
        ints = [c[0] - 128 for c in chunks]
    else:
        ints = [int.from_bytes(c, "little", signed=True) for c in chunks]
    frames = [ints[i : i + channels] for i in range(0, len(ints), channels)]
    return np.array([sum(v / full_scale for v in frame) / channels for frame in frames])


@st.composite
def pcm_payloads(draw):
    """(bits, channels, values): random samples plus both extremes of the format."""
    bits = draw(st.sampled_from([8, 16, 24]))
    channels = draw(st.sampled_from([1, 2]))
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    values = draw(st.lists(st.integers(lo, hi), max_size=40)) + [lo, hi]
    values = draw(st.permutations(values))
    if len(values) % channels:
        values.append(draw(st.integers(lo, hi)))
    return bits, channels, values


property_settings = settings(
    max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestDecoderProperties:
    @property_settings
    @given(pcm_payloads())
    def test_integer_pcm_bit_identical_to_oracle(self, tmp_path, case):
        bits, channels, values = case
        payload = encode_pcm(values, bits)
        path = build_wav(tmp_path / "p.wav", payload, channels=channels, bits=bits)
        samples = load_wav(path).samples
        assert samples.dtype == np.float64
        assert np.array_equal(samples, oracle_samples(payload, bits, channels))

    @property_settings
    @given(
        pcm_payloads(),
        st.binary(max_size=9),
        st.sampled_from(["extra_first", "extra_last", "fmt_after_data"]),
    )
    def test_chunk_layouts_decode_the_same(self, tmp_path, case, extra, layout):
        bits, channels, values = case
        payload = encode_pcm(values, bits)
        fmt = (b"fmt ", fmt_body(channels, bits))
        data = (b"data", payload)
        chunks = {
            "extra_first": [fmt, (b"LIST", extra), data],
            "extra_last": [fmt, data, (b"LIST", extra)],
            "fmt_after_data": [(b"LIST", extra), data, fmt],
        }[layout]
        path = tmp_path / "p.wav"
        path.write_bytes(riff(chunks))
        assert np.array_equal(load_wav(path).samples, oracle_samples(payload, bits, channels))

    def test_odd_chunk_pad_byte_is_skipped(self, tmp_path):
        # A 3-byte chunk is followed by one pad byte; the data chunk starts after it.
        payload = encode_pcm([-32768, 32767, 5], 16)
        blob = riff([(b"fmt ", fmt_body(1, 16)), (b"junk", b"abc"), (b"data", payload)])
        assert blob.index(b"data") % 2 == 0
        path = tmp_path / "p.wav"
        path.write_bytes(blob)
        np.testing.assert_array_equal(load_wav(path).samples, [-1.0, 32767 / 32768, 5 / 32768])

    @pytest.mark.parametrize("cut", [1, 2, 5])
    def test_truncated_last_chunk_is_corrupt(self, tmp_path, capsys, cut):
        payload = encode_pcm([1, 2, 3, 4], 16)
        blob = riff([(b"fmt ", fmt_body(1, 16)), (b"data", payload), (b"LIST", b"abcdef")])
        path = tmp_path / "p.wav"
        path.write_bytes(blob[:-cut])
        with pytest.raises(CorruptHeaderError):
            load_wav(path)
        assert main(["analyze", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("bits", [8, 16, 24])
    def test_stereo_odd_sample_count_is_corrupt(self, tmp_path, bits):
        path = build_wav(tmp_path / "p.wav", encode_pcm([1, -1, 7], bits), channels=2, bits=bits)
        with pytest.raises(CorruptHeaderError):
            load_wav(path)
        assert main(["analyze", str(path)]) == 2

    def test_float_stereo_is_mean_of_channels(self, tmp_path):
        left = np.array([0.25, 1e-30, -0.75, 1.5], dtype=np.float32)
        right = np.array([0.5, 1.0, -0.5, 1.5], dtype=np.float32)
        payload = np.stack([left, right], axis=1).astype("<f4").tobytes()
        path = build_wav(tmp_path / "p.wav", payload, format_tag=3, channels=2, bits=32)
        expected = np.clip(np.stack([left, right], axis=1).astype(np.float64).mean(axis=1), -1, 1)
        assert np.array_equal(load_wav(path).samples, expected)


class TestResample:
    def test_two_to_one_decimation(self):
        pattern = np.array([0.0, 1.0, 0.0, -1.0] * 32)
        buf = AudioBuffer(pattern, 44100)
        out = resample(buf, 22050)
        np.testing.assert_allclose(out.samples, pattern[::2])
        assert out.sample_rate == 22050

    def test_identity_rate(self):
        # The buffer's own rate returns the buffer itself, not a copy.
        buf = AudioBuffer(np.linspace(-1, 1, 100), 22050)
        out = resample(buf, 22050)
        np.testing.assert_array_equal(out.samples, buf.samples)
        assert np.shares_memory(out.samples, buf.samples)

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

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_invalid_rate(self, rate):
        buf = AudioBuffer(np.zeros(10), 22050)
        with pytest.raises(InvalidRateError):
            resample(buf, rate)


class TestAudioBuffer:
    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteAudioError):
            AudioBuffer(np.array([0.0, np.nan]), 8000)

    def test_rejects_over_full_scale(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([1.5]), 8000)

    @pytest.mark.parametrize("rate", BAD_RATES)
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(InvalidRateError):
            AudioBuffer(np.zeros(4), rate)

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match="mono"):
            AudioBuffer(np.zeros((2, 4)), 8000)


class TestMapRows:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("min_blocks", [2, sys.maxsize], ids=["threads", "serial"])
    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_and_one_scratch_per_share(self, monkeypatch, thread_spy, block, min_blocks):
        monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", block)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", min_blocks)
        for row_len in (0, 1, 3, block + 1, 100):
            rows = max(1, block // max(row_len, 1))
            for n_rows in (0, 1, 50):
                expected = signal_io.row_blocks(n_rows, rows)
                shares = []
                started = len(thread_spy.threads)

                def scratch(n):
                    shares.append((n, threading.current_thread(), []))
                    return shares[-1][2]

                def fn(block_rows, seen):
                    seen.append(block_rows)
                    return block_rows

                assert signal_io.map_rows(fn, n_rows, row_len, scratch) == expected
                parallel = len(expected) >= min_blocks
                assert len(shares) == (min(2, len(expected)) if parallel else 1)
                assert all(n == min(rows, n_rows) for n, _, _ in shares)
                # The calling thread runs one share and a thread started
                # for the map each other one, each its blocks in order.
                assert threading.main_thread() in [thread for _, thread, _ in shares]
                assert len(thread_spy.threads) - started == len(shares) - 1
                shares.sort(key=lambda share: share[2][0].start if share[2] else 0)
                assert [block_rows for _, _, seen in shares for block_rows in seen] == expected
                assert signal_io.map_rows(lambda r: r, n_rows, row_len) == expected
        assert thread_spy.all_joined()
        assert set(thread_spy.starters) <= {threading.main_thread()}


class TestThreadMap:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("failing, raised", [((1, 6), 1), ((6,), 6), ((6, 8), 6)])
    def test_first_error_in_item_order_after_every_share(self, thread_spy, failing, raised):
        # Items 0-4 are the calling thread's share, 5-9 the other thread's,
        # which is still sleeping when the calling thread's share fails.
        def fn(item):
            if item >= 5:
                time.sleep(0.01)
            if item in failing:
                raise ValueError(item)
            return item

        with pytest.raises(ValueError) as info:
            thread_map(fn, range(10))
        assert info.value.args == (raised,)
        assert len(thread_spy.threads) == 1 and thread_spy.all_joined()

    def test_a_map_inside_a_share_runs_serially(self, thread_spy):
        def inner(item):
            return thread_map(lambda x: (x, threading.current_thread()), range(4))

        outer = thread_map(inner, range(2))
        assert thread_spy.starters == [threading.main_thread()]
        for inner_results in outer:
            assert len({thread for _, thread in inner_results}) == 1

    def test_more_threads_than_cores_with_short_switch_interval(self, monkeypatch):
        # Eight shares on a shortened switch interval: each block adds into
        # its own rows only, so no update may be lost or land twice.
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 8)
        out = np.zeros((400, 64))
        blocks = signal_io.row_blocks(400, 3)

        def add(rows):
            ones = np.ones((rows.stop - rows.start, 64))
            for _ in range(20):
                out[rows] += ones

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread_map(add, blocks)
        finally:
            sys.setswitchinterval(interval)
        assert (out == 20.0).all()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_maps_on_threads_of_its_own(self):
        # A child forked after a map has none of the parent's threads: a
        # map there that waited on a thread of the parent's would wait
        # forever. The parent kills a child that is still running after 10 s.
        script = (
            "import os, signal, sys, time\n"
            "from peaudio import signal_io\n"
            "signal_io.usable_cpus = lambda: 2\n"
            "assert signal_io.thread_map(abs, [-1, -2]) == [1, 2]\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os._exit(0 if signal_io.thread_map(abs, [-3, -4]) == [3, 4] else 1)\n"
            "deadline = time.monotonic() + 10\n"
            "while time.monotonic() < deadline:\n"
            "    done, status = os.waitpid(pid, os.WNOHANG)\n"
            "    if done:\n"
            "        sys.exit(os.waitstatus_to_exitcode(status))\n"
            "    time.sleep(0.01)\n"
            "os.kill(pid, signal.SIGKILL)\n"
            "os.waitpid(pid, 0)\n"
            "sys.exit('the forked child hung in thread_map')\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not signal_io._CAN_FORK, reason="fork_map forks on Linux only")
class TestForkMap:
    @pytest.fixture(autouse=True)
    def two_cpus_and_no_child_left(self, monkeypatch):
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_results_in_order_the_second_share_from_a_child(self):
        parent = os.getpid()
        results = fork_map(lambda item: (item, os.getpid()), range(5))
        assert [item for item, _ in results] == list(range(5))
        # Items 0-1 are this process's share, 2-4 the child's.
        assert [pid == parent for _, pid in results] == [True, True, False, False, False]

    @pytest.mark.parametrize("failing, raised", [((1, 3), 1), ((3,), 3), ((3, 4), 3)])
    def test_first_error_in_item_order(self, failing, raised):
        def fn(item):
            if item in failing:
                raise ValueError(item)
            return item

        with pytest.raises(ValueError) as info:
            fork_map(fn, range(5))
        assert info.value.args == (raised,)

    def test_a_child_that_ends_without_a_result_raises_worker_lost(self):
        parent = os.getpid()

        def fn(item):
            if os.getpid() != parent:
                os._exit(3)
            return item

        with pytest.raises(WorkerLostError, match="exited with code 3 before sending its result"):
            fork_map(fn, range(2))

    def test_no_thread_alive_in_a_share_and_each_maps_serially(self, thread_spy):
        assert thread_map(abs, [-1, -2]) == [1, 2]  # starts and joins one thread

        def fn(item):
            live = [t for t in threading.enumerate() if t.name.startswith("peaudio")]
            return len(live), thread_map(abs, [-item, -item])

        # No peaudio thread is alive in either share, and neither share's
        # own map starts one.
        assert fork_map(fn, [1, 2]) == [(0, [1, 1]), (0, [2, 2])]
        assert len(thread_spy.threads) == 1 and thread_spy.all_joined()

    def test_a_live_thread_gives_no_fork_warning(self):
        # Python 3.12+ warns of a fork in a process with threads; the test
        # suite turns every DeprecationWarning into an error.
        stop = threading.Event()
        waiter = threading.Thread(target=stop.wait)
        waiter.start()
        try:
            assert fork_map(abs, [-1, -2]) == [1, 2]
        finally:
            stop.set()
            waiter.join(timeout=10)
        assert not waiter.is_alive()

    @pytest.mark.parametrize("can_fork, cpus", [(False, 2), (True, 1)], ids=["no-fork", "one-cpu"])
    def test_thread_map_where_it_cannot_fork_or_would_run_serially(
        self, monkeypatch, can_fork, cpus
    ):
        monkeypatch.setattr(signal_io, "_CAN_FORK", can_fork)
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: cpus)
        pids = fork_map(lambda item: os.getpid(), range(3))
        assert pids == [os.getpid()] * 3
