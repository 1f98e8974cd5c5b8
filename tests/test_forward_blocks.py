"""The forward path in blocks: decode, resample, STFT, masking analysis and PE.

Every stage walks its input in blocks of signal_io.BLOCK_ELEMENTS values.
The block size must not change a bit of any result, so each stage is
compared, at blocks of 1, 2 and 7 rows, with its default block size and
with a whole-array oracle: the same computation as one call over the
whole clip. Nor may the threads the blocks are mapped over: each
stage, the gradient and its checker are compared with their serial runs.
CLI analyze and thresholds, which form their STFT frames inside their
walks, are compared with the public path over the whole spectrum, and
the bytes thresholds writes with those at the default block size.
"""

import json
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peaudio import signal_io
from peaudio.cli import CliConfig, _load_frames, main
from peaudio.errors import NonFiniteAudioError
from peaudio.pe import check_gradient, pe_gradient, perceptual_entropy
from peaudio.psychoacoustic import (
    SFM_POWER_FLOOR,
    BarkAnalysis,
    _band_stage,
    _bin_powers,
    analyze,
    bark_layout,
    masking_offset_db,
    renormalize_and_clamp,
    spread_threshold,
    spreading_kernel,
    tonality,
)
from peaudio.signal_io import AudioBuffer, load_wav, map_rows, resample, save_wav
from peaudio.spectral import Spectrogram, StftConfig, stft

from conftest import harmonic_signal

SR = 22050
BLOCK_ROWS = (1, 2, 7)
_LN10 = float(np.log(10.0))


# ---------------------------------------------------------------- oracles


def whole_decode(payload: bytes, bits: int, channels: int, is_float: bool) -> np.ndarray:
    """The payload decoded as whole arrays, stereo summed, then scaled."""
    if is_float:
        values = np.frombuffer(payload, "<f4").astype(np.float64)
        full_scale = 1
    else:
        width = bits // 8
        raw = np.frombuffer(payload, np.uint8).reshape(-1, width).astype(np.int32)
        values = sum(raw[:, i] << (8 * i) for i in range(width))
        if bits == 8:
            values = values - 128
        else:
            values = np.where(values >= 1 << (bits - 1), values - (1 << bits), values)
        full_scale = 1 << (bits - 1)
    if channels == 2:
        samples = np.add(values[0::2], values[1::2], dtype=np.float64)
    else:
        samples = np.asarray(values, dtype=np.float64)
    samples = samples / (channels * full_scale)
    return np.clip(samples, -1.0, 1.0) if is_float else samples


def whole_resample(samples: np.ndarray, rate: int, target_rate: int) -> np.ndarray:
    """Linear interpolation as one np.interp call over the whole clip."""
    n_out = samples.size * target_rate // rate
    positions = np.arange(n_out) * (rate / target_rate)
    return np.interp(positions, np.arange(samples.size), samples)


def whole_stft(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """One windowed rfft over the whole (T, fft_size) frame matrix."""
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.fft_size)[:: cfg.hop]
    return scipy.fft.rfft(frames * cfg.window_samples(), axis=1)


def whole_analyze(spec: Spectrogram) -> BarkAnalysis:
    """The masking pipeline with whole-clip (T, bins) power arrays."""
    layout = bark_layout(spec.config)
    power = spec.power()
    k = layout.k
    band_power = np.add.reduceat(power, layout.lower_bins, axis=1)
    spread_power = np.einsum("tj,ij->ti", band_power, spreading_kernel(spec.config))
    floored = np.maximum(power, SFM_POWER_FLOOR)
    log_geo = np.add.reduceat(np.log(floored), layout.lower_bins, axis=1) / k
    arith = np.add.reduceat(floored, layout.lower_bins, axis=1) / k
    flatness = np.minimum((10.0 / _LN10) * (log_geo - np.log(arith)), 0.0)
    alpha = tonality(flatness)
    offsets = masking_offset_db(alpha, np.arange(1, layout.n + 1))
    raw_threshold = spread_threshold(spread_power, offsets)
    return BarkAnalysis(
        band_power=band_power,
        spread_power=spread_power,
        sfm_db=flatness,
        tonality=alpha,
        offset_db=offsets,
        spread_threshold=raw_threshold,
        masking_threshold=renormalize_and_clamp(raw_threshold, spec.config),
        config=spec.config,
    )


def whole_pe(spec: Spectrogram, analysis: BarkAnalysis) -> np.ndarray:
    """Per-frame bits log2(2|x|/step + 1), summed over Re and Im of every bin."""
    k = bark_layout(spec.config).k
    steps = np.repeat(np.sqrt(6.0 * analysis.masking_threshold / k), k, axis=1)
    bits = np.log2(np.abs(spec.frames.real) * 2.0 / steps + 1.0)
    bits += np.log2(np.abs(spec.frames.imag) * 2.0 / steps + 1.0)
    return bits.sum(axis=1)


ANALYSIS_ARRAYS = ("band_power", "spread_power", "sfm_db", "tonality", "offset_db",
                   "spread_threshold", "masking_threshold")


def assert_analyses_equal(got: BarkAnalysis, want: BarkAnalysis, rows=slice(None)):
    assert got.config == want.config
    for name in ANALYSIS_ARRAYS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name)[rows], err_msg=name)


# ---------------------------------------------------------------- inputs


def wav_header(payload_size: int, bits: int, channels: int, rate: int, is_float: bool) -> bytes:
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", 3 if is_float else 1, channels, rate, rate * block, block, bits)
    return b"".join([
        b"RIFF", struct.pack("<I", 36 + payload_size), b"WAVE",
        b"fmt ", struct.pack("<I", 16), fmt,
        b"data", struct.pack("<I", payload_size),
    ])


def encode(mono: np.ndarray, bits: int, channels: int, is_float: bool) -> bytes:
    """Payload of a signal in [-1, 1); a stereo right channel is the left delayed and scaled."""
    x = mono
    if channels == 2:
        x = np.stack([x, 0.9 * np.roll(x, 1)], axis=1).ravel()
    if is_float:
        return x.astype("<f4").tobytes()
    full = 1 << (bits - 1)
    ints = np.clip(np.round(x * full), -full, full - 1).astype("<i4")
    if bits == 8:
        ints = ints + 128
    return ints.view(np.uint8).reshape(-1, 4)[:, : bits // 8].tobytes()


FORMATS = [(8, False), (16, False), (24, False), (32, True)]


def gapped_signal() -> np.ndarray:
    """0.6 s of six harmonics at SR, 19 frames of which three are exact zeros."""
    sig = harmonic_signal(duration=0.6, n_harmonics=6, noise=0.0)
    sig[4000:7000] = 0.0
    return sig


def cli_bytes(command: str, wav, out, fmt: str) -> bytes:
    """What CLI `command` writes for a WAV in format fmt."""
    assert main([command, str(wav), "--format", fmt, "--output", str(out)]) == 0
    return out.read_bytes()


def cli_json(command: str, wav, out) -> dict:
    """What CLI `command` writes for a WAV as JSON, read back (repr round-trips every float)."""
    return json.loads(cli_bytes(command, wav, out, "json"))


@pytest.fixture(scope="module")
def analysis_spec():
    """19 frames with an exact-zero gap and bins below the flatness floor."""
    cfg = StftConfig(sample_rate=SR)
    frames = stft(AudioBuffer(gapped_signal(), SR), cfg).frames.copy()
    frames[12, ::5] = 1e-7 * (1 + 1j)
    spec = Spectrogram(frames, cfg)
    power = spec.power()
    assert spec.n_frames == 19
    assert (~spec.frames.any(axis=1)).sum() == 3
    assert np.any(power[spec.frames.any(axis=1)] < SFM_POWER_FLOOR)
    return spec


# ---------------------------------------------------------------- block invariance


class TestBlockInvariance:
    @pytest.mark.parametrize("bits, is_float", FORMATS)
    @pytest.mark.parametrize("channels", [1, 2])
    def test_load_wav(self, tmp_path, monkeypatch, bits, is_float, channels):
        mono = np.random.default_rng(bits + channels).uniform(-1.0, 1.0, 1001)
        if is_float:
            mono[::97] *= 1.5  # out of range: the float path clips
        payload = encode(mono, bits, channels, is_float)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_header(len(payload), bits, channels, 44100, is_float) + payload)
        default = load_wav(path).samples
        np.testing.assert_array_equal(default, whole_decode(payload, bits, channels, is_float))
        for rows in BLOCK_ROWS:
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * channels)
            np.testing.assert_array_equal(load_wav(path).samples, default)

    @pytest.mark.parametrize("target", [22050, 44100, 16000, 48000, 8000])
    def test_resample(self, monkeypatch, target):
        samples = np.random.default_rng(target).uniform(-1.0, 1.0, 1001)
        buf = AudioBuffer(samples, 22050)
        default = resample(buf, target).samples
        if target != 22050:
            np.testing.assert_array_equal(default, whole_resample(samples, 22050, target))
        for rows in BLOCK_ROWS:
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows)
            np.testing.assert_array_equal(resample(buf, target).samples, default)

    def test_stft(self, monkeypatch):
        cfg = StftConfig(sample_rate=SR)
        x = harmonic_signal(duration=0.6)
        default = stft(AudioBuffer(x, SR), cfg).frames
        assert default.shape[0] == 19
        np.testing.assert_array_equal(default, whole_stft(x, cfg))
        for rows in BLOCK_ROWS:
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * cfg.fft_size)
            np.testing.assert_array_equal(stft(AudioBuffer(x, SR), cfg).frames, default)

    def test_analyze_and_perceptual_entropy(self, analysis_spec, tmp_path, monkeypatch):
        spec = analysis_spec
        default = analyze(spec)
        assert_analyses_equal(default, whole_analyze(spec))
        default_pe = perceptual_entropy(spec, default).per_frame
        np.testing.assert_array_equal(default_pe, whole_pe(spec, default))
        # CLI analyze and thresholds form their frames from the samples
        # inside their block walks, on threads from 2 blocks up; their
        # outputs must be those of the spectrum's public path. Their
        # text, whose blocks are sized from the same constant, must not
        # change by a byte.
        wav, out = tmp_path / "gapped.wav", tmp_path / "out.json"
        save_wav(AudioBuffer(gapped_signal(), SR), wav)
        wav_spec = stft(load_wav(wav), spec.config)
        wav_analysis = analyze(wav_spec)
        wav_pe = perceptual_entropy(wav_spec, wav_analysis)
        texts = {fmt: cli_bytes("thresholds", wav, out, fmt) for fmt in ("csv", "json")}
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)
        for rows in (1, 2, 3, 5, 7, 8):
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * spec.config.bins)
            blocked = analyze(spec)
            assert_analyses_equal(blocked, default)
            np.testing.assert_array_equal(perceptual_entropy(spec, blocked).per_frame, default_pe)
            pe = cli_json("analyze", wav, out)
            np.testing.assert_array_equal(pe["per_frame_pe"], wav_pe.per_frame)
            assert (pe["mean_pe"], pe["loss_pe"]) == (wav_pe.mean_pe, wav_pe.loss_pe)
            for fmt, text in texts.items():
                assert cli_bytes("thresholds", wav, out, fmt) == text, (rows, fmt)
            thresholds = json.loads(texts["json"])
            for key, name in [("band_power", "band_power"), ("tonality", "tonality"),
                              ("threshold", "masking_threshold")]:
                np.testing.assert_array_equal(thresholds[key], getattr(wav_analysis, name))


class TestBandStage:
    def test_rows_of_a_call_equal_those_rows_of_the_whole_clip(self):
        # The band stage's rows do not see each other: any run of rows
        # gives the bits the whole clip gives them, whatever its length.
        cfg = StftConfig(sample_rate=SR)
        sig = harmonic_signal(duration=3.0, n_harmonics=6)
        sig[20000:30000] = 0.0
        spec = stft(AudioBuffer(sig, SR), cfg)
        power, floored = np.empty((2, *spec.frames.shape))
        sums = _bin_powers(spec.frames, bark_layout(cfg).lower_bins, power, floored, power)
        whole = _band_stage(cfg, *sums)
        n_frames = spec.n_frames
        assert n_frames > 63 + 5
        for m in (1, 7, 63, n_frames):
            for a in sorted({0, 5, n_frames - m}):
                rows = slice(a, a + m)
                part = _band_stage(cfg, *(s[rows].copy() for s in sums))
                assert_analyses_equal(part, whole, rows)


def threaded_clips(directory):
    """A 24-bit stereo 44.1 kHz clip, a float 16 kHz clip and a 16-bit clip with exact-zero gaps.

    Each is long enough for two blocks or more in every stage it reaches.
    """
    clips = []
    for name, seconds, bits, channels, rate, is_float in [
        ("pcm24-stereo-44k.wav", 3.0, 24, 2, 44100, False),
        ("float-16k.wav", 4.0, 32, 1, 16000, True),
        ("gapped-22k.wav", 3.0, 16, 1, SR, False),
    ]:
        mono = harmonic_signal(duration=seconds, sr=rate, amplitude=0.8)
        if name.startswith("gapped"):
            mono[20000:40000] = 0.0
            mono[50000:52000] = 0.0
        payload = encode(mono, bits, channels, is_float)
        path = directory / name
        path.write_bytes(wav_header(len(payload), bits, channels, rate, is_float) + payload)
        clips.append(path)
    return clips


def stage_outputs(path) -> dict:
    """Every stage's result on one clip, from decode to the gradient check."""
    cfg = StftConfig(sample_rate=SR)
    raw = load_wav(path)
    buf = resample(raw, SR)
    spec = stft(buf, cfg)
    analysis = analyze(spec)
    check = check_gradient(spec, n_coords=20)
    assert check.n_checked == 20
    outputs = {
        "load_wav": raw.samples,
        "resample": buf.samples,
        "stft": spec.frames,
        "perceptual_entropy": perceptual_entropy(spec, analysis).per_frame,
        "pe_gradient": pe_gradient(spec).grad,
        "check_gradient.coordinates": check.coordinates,
        "check_gradient.finite_differences": check.finite_differences,
        "check_gradient.json": np.array(json.dumps(check.to_json_dict())),
    }
    for name in ANALYSIS_ARRAYS:
        outputs[f"analyze.{name}"] = getattr(analysis, name)
    return outputs


class TestThreadedBlocks:
    """From PARALLEL_MIN_BLOCKS blocks up, a stage maps its blocks over threads."""

    @pytest.fixture(scope="class")
    def clips(self, tmp_path_factory):
        return threaded_clips(tmp_path_factory.mktemp("threaded"))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_threaded_stages_match_serial(self, clips, monkeypatch, thread_spy, cpus):
        # Every stage of these clips maps its blocks at a threshold of 2,
        # over as many threads as there are usable CPUs; the bits must be
        # those of the serial loops.
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", sys.maxsize)
        serial = [stage_outputs(path) for path in clips]
        assert thread_spy.starters == []
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)
        for path, want in zip(clips, serial):
            got = stage_outputs(path)
            for name, value in want.items():
                assert got[name].shape == value.shape, (path.name, name)
                assert got[name].tobytes() == value.tobytes(), (path.name, name)
        if cpus == 1:
            assert thread_spy.starters == []
        else:
            assert thread_spy.starters
            assert set(thread_spy.starters) == {threading.main_thread()}

    @pytest.mark.parametrize("nan_at", [(100, 100_000), (100_000,)])
    def test_first_non_finite_block_is_reported(self, tmp_path, monkeypatch, nan_at):
        # 110,250 float samples are four blocks; the second thread's share
        # holds the last one.
        mono = harmonic_signal(duration=5.0, amplitude=0.8)
        mono[list(nan_at)] = np.nan
        payload = encode(mono, 32, 1, True)
        path = tmp_path / "nan.wav"
        path.write_bytes(wav_header(len(payload), 32, 1, SR, True) + payload)
        messages = []
        for cpus, min_blocks in [(1, sys.maxsize), (2, 2)]:
            monkeypatch.setattr(signal_io, "usable_cpus", lambda: cpus)
            monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", min_blocks)
            with pytest.raises(NonFiniteAudioError) as info:
                load_wav(path)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == f"{path}: float payload holds NaN or infinite samples"


class TestStreamedFrames:
    """CLI analyze and thresholds decode, resample and frame each block of frames from the file."""

    @pytest.mark.parametrize("rate", [16000, SR, 44100])
    @pytest.mark.parametrize("bits, is_float", FORMATS)
    @pytest.mark.parametrize("channels", [1, 2])
    def test_frames_equal_those_of_the_whole_clip(
        self, tmp_path, monkeypatch, thread_spy, rate, bits, is_float, channels
    ):
        # 1.5 s is 49 frames at the analysis rate. The frames the CLI's
        # walks form, at blocks of 1 to 64 frames and on threads from 2
        # blocks up, must be those of the whole decoded, resampled clip.
        mono = harmonic_signal(duration=1.5, sr=rate, amplitude=0.8)
        if is_float:
            mono[::97] *= 1.5  # out of range: the float path clips
        payload = encode(mono, bits, channels, is_float)
        path = tmp_path / "x.wav"
        path.write_bytes(wav_header(len(payload), bits, channels, rate, is_float) + payload)
        cfg = CliConfig()
        want = stft(resample(load_wav(path), SR), cfg.stft()).frames
        assert want.shape[0] == 49
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)
        for rows in (1, 2, 7, 64):
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * want.shape[1])
            stft_cfg, n_frames, block_of = _load_frames(path, cfg)
            got = np.empty((n_frames, stft_cfg.bins), np.complex128)
            map_rows(lambda rows: block_of(rows, got[rows]), n_frames, stft_cfg.bins)
            assert got.tobytes() == want.tobytes(), rows
        assert thread_spy.threads and thread_spy.all_joined()


class TestResampleProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 400),
        rate=st.integers(8000, 96000),
        target=st.integers(8000, 96000),
        block=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, rate=8000, target=48000, block=1, seed=0)  # 1 sample, 6x up
    @example(n=7, rate=22050, target=44100, block=2, seed=1)  # outputs past position n - 1
    @example(n=301, rate=44100, target=22050, block=7, seed=2)  # 2:1 down
    @example(n=300, rate=16000, target=22050, block=3, seed=3)  # non-integer up
    def test_matches_whole_interp_at_any_block(self, n, rate, target, block, seed):
        samples = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        buf = AudioBuffer(samples, rate)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(signal_io, "BLOCK_ELEMENTS", block)
            got = resample(buf, target).samples
        want = samples if target == rate else whole_resample(samples, rate, target)
        assert got.size == n * target // rate
        np.testing.assert_array_equal(got, want)


# ---------------------------------------------------------------- memory


def write_tone_clip(path, seconds: int, bits: int, channels: int, rate: int):
    """`seconds` repeats of one second of integer PCM: a tone plus noise."""
    t = np.arange(rate) / rate
    rng = np.random.default_rng(0)
    mono = 0.5 * np.sin(2 * np.pi * 220.0 * t) + 0.01 * rng.standard_normal(rate)
    second = encode(mono, bits, channels, False)
    with open(path, "wb") as fh:
        fh.write(wav_header(len(second) * seconds, bits, channels, rate, False))
        for _ in range(seconds):
            fh.write(second)


def forward_peak_bytes(path) -> int:
    cfg = StftConfig(sample_rate=SR)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spec = stft(resample(load_wav(path), SR), cfg)
        perceptual_entropy(spec, analyze(spec))
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_forward_path_memory_grows_at_most_twice_the_decoded_samples(tmp_path):
    # Beyond the file's bytes and what each stage returns (decoded and
    # resampled samples, the spectrum, the (T, 23) analysis) every stage
    # holds a fixed number of blocks. One extra second of 44.1 kHz input
    # is 44100 decoded float64 samples.
    peaks = {}
    for seconds in (30, 300):
        path = tmp_path / f"clip-{seconds}s.wav"
        write_tone_clip(path, seconds, 24, 2, 44100)
        peaks[seconds] = forward_peak_bytes(path)
        path.unlink()
    decoded_bytes_per_s = 44100 * np.dtype(np.float64).itemsize
    assert peaks[300] - peaks[30] <= 2 * decoded_bytes_per_s * (300 - 30)


def cli_peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# Bytes per extra second of thresholds' three (T, 23) float64 arrays at
# the 22.05 kHz analysis rate (hop 661), whatever the input's rate.
THRESHOLDS_ARRAY_BYTES_PER_S = 3 * 23 * 8 * SR / 661


def test_cli_analyze_memory_grows_at_most_one_and_a_half_times_the_decoded_samples(
    tmp_path, monkeypatch
):
    # CLI analyze decodes each block of STFT frames from the mapped file
    # inside the PE walk, so beyond one thread's few blocks (the map runs
    # on one thread here, so the peak does not depend on how the threads'
    # blocks overlap) it holds its per-frame PE and, after the walk, its
    # text: no samples and no spectrum. It grows by 0.3 KB/s, 0.002 times
    # the 22050 decoded float64 samples that one extra second of 16-bit
    # mono 22.05 kHz input is; it grew by 1.00 times while it held them.
    monkeypatch.setattr(signal_io, "usable_cpus", lambda: 1)
    peaks = {}
    for seconds in (30, 300):
        path = tmp_path / f"clip-{seconds}s.wav"
        write_tone_clip(path, seconds, 16, 1, SR)
        peaks[seconds] = cli_peak_bytes(["analyze", str(path), "--output", str(tmp_path / "pe.csv")])
        path.unlink()
    decoded_bytes_per_s = SR * np.dtype(np.float64).itemsize
    assert peaks[300] - peaks[30] <= 0.005 * decoded_bytes_per_s * (300 - 30)


def test_cli_thresholds_memory_grows_at_most_its_text_and_the_decoded_samples(tmp_path, monkeypatch):
    # CLI thresholds decodes its frames from the file as analyze does and
    # holds only the three (T, 23) arrays it writes, then their text, once,
    # in pieces; beyond those, one thread's few blocks. One extra second
    # of 16-bit mono 22.05 kHz input is 33 frames: 18.4 KB of the arrays
    # and 47 KB of CSV or 62 KB of JSON. The peak grows by 1.01 (CSV) and
    # 1.00 (JSON) times their sum; it grew by 1.03 and 0.96 times the
    # text and the 22050 decoded samples while it held those.
    monkeypatch.setattr(signal_io, "usable_cpus", lambda: 1)
    peaks, sizes = {}, {}
    for seconds in (30, 300):
        path = tmp_path / f"clip-{seconds}s.wav"
        write_tone_clip(path, seconds, 16, 1, SR)
        for fmt in ("csv", "json"):
            out = tmp_path / f"thresholds.{fmt}"
            argv = ["thresholds", str(path), "--format", fmt, "--output", str(out)]
            peaks[fmt, seconds] = cli_peak_bytes(argv)
            sizes[fmt, seconds] = out.stat().st_size
        path.unlink()
    for fmt in ("csv", "json"):
        text_bytes_per_s = (sizes[fmt, 300] - sizes[fmt, 30]) / (300 - 30)
        growth_per_s = (peaks[fmt, 300] - peaks[fmt, 30]) / (300 - 30)
        assert growth_per_s <= 1.05 * (text_bytes_per_s + THRESHOLDS_ARRAY_BYTES_PER_S), fmt


def test_cli_memory_on_24_bit_stereo_grows_at_most_1_55_times_the_decoded_samples(tmp_path, monkeypatch):
    # A 44.1 kHz file is resampled to the 22.05 kHz analysis rate one
    # block of frames at a time, from just the decoded input that block
    # reaches, so neither the decoded nor the resampled samples are held.
    # The file's bytes are mapped, not read onto the heap. Per extra second
    # (44100 decoded float64 samples, 353 KB) analyze grows by 0.4 KB,
    # and thresholds by 0.92 (CSV) and 0.96 (JSON) times its text and its
    # three (T, 23) arrays; all three grew by 1.50 times the decoded
    # samples while the decoded and the resampled ones were held.
    monkeypatch.setattr(signal_io, "usable_cpus", lambda: 1)
    peaks, sizes = {}, {}
    for seconds in (30, 120):
        path = tmp_path / f"clip-{seconds}s.wav"
        write_tone_clip(path, seconds, 24, 2, 44100)
        for command, fmt in (("analyze", "csv"), ("thresholds", "csv"), ("thresholds", "json")):
            out = tmp_path / "out"
            argv = [command, str(path), "--format", fmt, "--output", str(out)]
            peaks[command, fmt, seconds] = cli_peak_bytes(argv)
            sizes[command, fmt, seconds] = out.stat().st_size
        path.unlink()
    decoded_bytes_per_s = 44100 * np.dtype(np.float64).itemsize
    for command, fmt in (("analyze", "csv"), ("thresholds", "csv"), ("thresholds", "json")):
        growth = (peaks[command, fmt, 120] - peaks[command, fmt, 30]) / (120 - 30)
        if command == "analyze":
            assert growth <= 0.005 * decoded_bytes_per_s, growth / decoded_bytes_per_s
        else:
            text = (sizes[command, fmt, 120] - sizes[command, fmt, 30]) / (120 - 30)
            bound = 1.05 * (text + THRESHOLDS_ARRAY_BYTES_PER_S)
            assert growth <= bound, (fmt, growth / (text + THRESHOLDS_ARRAY_BYTES_PER_S))
