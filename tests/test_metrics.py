import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peaudio import metrics
from peaudio.errors import LengthMismatchError, MismatchWarning, ShapeMismatchError
from peaudio.metrics import MCD_CONSTANT, F0Track, compare, extract_f0, f0_metrics, mcd
from peaudio.signal_io import AudioBuffer, Workspace, save_wav
from peaudio.spectral import StftConfig

from conftest import SR, sine_signal


def track(f0_values):
    return F0Track(np.asarray(f0_values, float))


def frame_autocorr(frame):
    """Normalized autocorrelation of one frame at every lag 0..n-1."""
    n = frame.size
    size = scipy.fft.next_fast_len(2 * n)
    spectrum = scipy.fft.rfft(frame, size)
    raw = scipy.fft.irfft(spectrum * np.conj(spectrum), size)[:n]
    squares = np.cumsum(frame * frame)
    total = squares[-1]
    lags = np.arange(n)
    energy_head = squares[n - 1 - lags]
    energy_tail = total - np.concatenate(([0.0], squares[:-1]))
    denom = np.sqrt(energy_head * energy_tail)
    out = np.zeros(n)
    good = denom > 0
    out[good] = raw[good] / denom[good]
    return out


def per_frame_f0(buf, hop_seconds=0.03, window_seconds=metrics.F0_WINDOW_SECONDS,
                 fmin=metrics.F0_MIN_HZ, fmax=metrics.F0_MAX_HZ,
                 voicing_threshold=metrics.VOICING_AUTOCORR_THRESHOLD,
                 rms_gate=metrics.VOICING_RMS_GATE):
    """The tracker evaluated one frame at a time, with a full-length
    autocorrelation per frame: the reference the blocked tracker is
    held to."""
    rate = buf.sample_rate
    window = max(2, round(window_seconds * rate))
    hop = max(1, round(hop_seconds * rate))
    x = buf.samples
    n_frames = 1 + (x.size - window) // hop if x.size >= window else 0
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    if n_frames == 0:
        return f0, voiced
    frames = x[hop * np.arange(n_frames)[:, None] + np.arange(window)[None, :]]
    rms = np.sqrt(np.mean(frames**2, axis=1))
    peak_rms = rms.max()
    lag_min = max(1, math.ceil(rate / fmax))
    lag_max = min(window - 1, math.floor(rate / fmin))
    if lag_max <= lag_min:
        return f0, voiced
    for t in range(n_frames):
        if peak_rms == 0 or rms[t] < rms_gate * peak_rms:
            continue
        corr = frame_autocorr(frames[t])
        candidates = corr[lag_min : lag_max + 1]
        best = candidates.max()
        if best < voicing_threshold:
            continue
        lag = lag_min + int(np.argmax(candidates >= 0.98 * best))
        refined = float(lag)
        if 1 <= lag < window - 1:
            left, mid, right = corr[lag - 1], corr[lag], corr[lag + 1]
            denom = left - 2.0 * mid + right
            if denom < 0:
                refined += 0.5 * (left - right) / denom
        voiced[t] = True
        f0[t] = min(max(rate / refined, fmin), fmax)
    return f0, voiced


def pitched_signal(rate, duration, seed=0):
    """Vibrato harmonic tone plus noise, with an exactly silent stretch,
    a stretch below the RMS gate and one just above it."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(duration * rate)) / rate
    f0 = rng.uniform(90.0, 600.0) * (1.0 + 0.03 * np.sin(2 * np.pi * 5.0 * t))
    phase = 2 * np.pi * np.cumsum(f0) / rate
    x = sum(np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k for k in range(1, 6))
    x = 0.4 * x / np.abs(x).max() + 0.02 * rng.standard_normal(t.size)
    quarter = t.size // 4
    x[quarter : 2 * quarter] = 0.0
    x[2 * quarter : 3 * quarter] *= 0.004  # below the 1% RMS gate
    x[3 * quarter + quarter // 2 :] *= 0.05  # above it
    return np.clip(x, -1.0, 1.0)


class TestBlockedTrackerMatchesPerFrame:
    """The blocked tracker against per_frame_f0: voicing decisions equal,
    F0 equal up to FFT roundoff."""

    @staticmethod
    def assert_matches(buf, hop_seconds=0.03, **oracle_kwargs):
        f0, voiced = per_frame_f0(buf, hop_seconds, **oracle_kwargs)
        track = extract_f0(buf, hop_seconds)
        np.testing.assert_array_equal(track.voiced, voiced)
        np.testing.assert_allclose(track.f0, f0, rtol=1e-9, atol=0)
        return track

    @pytest.mark.parametrize("rate", [8000, 16000, 22050, 44100, 48000])
    @pytest.mark.parametrize("window_seconds", [metrics.F0_WINDOW_SECONDS])
    def test_pitched_signal(self, rate, window_seconds):
        buf = AudioBuffer(pitched_signal(rate, 0.8, seed=rate), rate)
        track = self.assert_matches(buf, hop_seconds=0.01)
        assert track.voiced.any()
        hop = round(0.01 * rate)
        window = round(window_seconds * rate)
        n = buf.samples.size
        gated = slice(n // 2 // hop, (3 * (n // 4) - window) // hop)
        assert not track.voiced[gated].any()

    def test_best_lag_at_longest_candidate(self):
        # At 22075 Hz a pulse-like tone of period 441.25 peaks at lag_max
        # = floor(22075 / 50) = 441, so refinement reads lag 442.
        # rate / 441 is not a whole multiple of F0_MIN_HZ, so the clamp
        # does not hide the refinement.
        rate = 22075
        t = np.arange(rate) / rate
        x = sum(np.sin(2 * np.pi * (rate / 441.25) * k * t) for k in range(1, 60)) / 60.0
        track = self.assert_matches(AudioBuffer(x, rate))
        assert track.voiced.any()
        voiced_f0 = track.f0[track.voiced]
        assert np.any((voiced_f0 > metrics.F0_MIN_HZ) & (voiced_f0 < rate / 441))

    def test_gate_keeps_frames_at_exactly_the_gate(self, monkeypatch):
        # A gate of 1 lets through only the frames whose RMS equals the peak.
        monkeypatch.setattr(metrics, "VOICING_RMS_GATE", 1.0)
        track = self.assert_matches(AudioBuffer(sine_signal(220.0), SR), rms_gate=1.0)
        assert track.voiced.any()

    def test_noise(self):
        rng = np.random.default_rng(4)
        buf = AudioBuffer(np.clip(rng.standard_normal(SR) / 3.0, -1, 1), SR)
        self.assert_matches(buf)

    def test_silence(self):
        track = self.assert_matches(AudioBuffer(np.zeros(SR), SR))
        assert len(track) > 0 and not track.voiced.any()

    @pytest.mark.parametrize("extra", [0, 1, 200])
    def test_single_frame(self, extra):
        window = round(metrics.F0_WINDOW_SECONDS * SR)
        buf = AudioBuffer(sine_signal(220.0, duration=(window + extra) / SR), SR)
        track = self.assert_matches(buf, hop_seconds=0.03)
        assert len(track) == 1 and track.voiced.all()

    def test_shorter_than_one_window(self):
        window = round(metrics.F0_WINDOW_SECONDS * SR)
        buf = AudioBuffer(sine_signal(220.0, duration=(window - 1) / SR), SR)
        assert len(self.assert_matches(buf)) == 0

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_size_does_not_change_the_result(self, monkeypatch, block):
        buf = AudioBuffer(pitched_signal(SR, 1.5, seed=3), SR)
        default = extract_f0(buf, hop_seconds=0.01)
        monkeypatch.setattr(metrics, "F0_BLOCK_FRAMES", block)
        blocked = extract_f0(buf, hop_seconds=0.01)
        np.testing.assert_array_equal(blocked.voiced, default.voiced)
        np.testing.assert_array_equal(blocked.f0, default.f0)


def test_window_holds_every_lag_read():
    # extract_f0 reads lags up to lag_max + 1 and refines the chosen lag
    # from both neighbours without checking either against the window.
    # That holds only while the window is at least lag_max + 2 samples
    # long at every rate where the tracker runs; a change to the
    # constants that breaks this would need those checks back.
    rates = np.arange(1, 2_000_001)
    window = np.maximum(2, np.round(metrics.F0_WINDOW_SECONDS * rates))
    lag_min = np.maximum(1, np.ceil(rates / metrics.F0_MAX_HZ))
    lag_max = np.floor(rates / metrics.F0_MIN_HZ)
    runs = lag_max > lag_min
    assert runs.sum() > 1_900_000
    assert np.all(lag_max[runs] + 2 <= window[runs])


def scipy_normalized_autocorr(frames, lo, hi):
    """metrics._normalized_autocorr's formula on scipy.fft, at the same FFT size."""
    n = frames.shape[1]
    size = scipy.fft.next_fast_len(n + hi, real=True)
    spectrum = scipy.fft.rfft(frames, size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    raw = scipy.fft.irfft(power, size, axis=1)[:, lo:hi]
    squares = np.zeros((frames.shape[0], n + 1))
    np.cumsum(frames * frames, axis=1, out=squares[:, 1:])
    energy_head = squares[:, n - hi + 1 : n - lo + 1][:, ::-1]
    energy_tail = squares[:, n:] - squares[:, lo:hi]
    denom = np.sqrt(energy_head * energy_tail)
    return np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)


@pytest.mark.parametrize("rate, window, lo, hi", [
    # The F0 window and the lags extract_f0 reads at three rates.
    (16000, 640, 14, 322),
    (22050, 882, 20, 443),
    (44100, 1764, 40, 884),
    (22050, 2, 0, 2),
])
def test_autocorr_bit_identical_to_scipy_fft(rate, window, lo, hi):
    # The tracker's rfft/irfft are numpy's; with numpy >= 2 they run the
    # same pocketfft core as scipy.fft and must give the same bits.
    x = pitched_signal(rate, 1.0, seed=window)
    hop = round(0.01 * rate)
    frames = np.lib.stride_tricks.sliding_window_view(x, window)[::hop][: metrics.F0_BLOCK_FRAMES]
    frames = np.vstack([frames, np.zeros(window)])  # a zero-energy row
    got = metrics._normalized_autocorr(frames, lo, hi, Workspace())
    want = scipy_normalized_autocorr(frames, lo, hi)
    assert got.shape == (metrics.F0_BLOCK_FRAMES + 1, hi - lo)
    assert got.tobytes() == want.tobytes()


def test_next_fast_len_is_scipys_real_length():
    got = [metrics.next_fast_len(n) for n in range(1, 100_001)]
    want = [scipy.fft.next_fast_len(n, real=True) for n in range(1, 100_001)]
    assert got == want


def traced_peak_bytes(buf):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        extract_f0(buf)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_extract_f0_memory_does_not_grow_with_length():
    # Beyond its per-frame outputs (a few arrays of 8 bytes or less per
    # frame) the tracker may hold only a fixed number of frame blocks.
    rate = 22050
    sizes = {}
    for seconds in (30, 300):
        t = np.arange(seconds * rate) / rate
        buf = AudioBuffer(0.5 * np.sin(2 * np.pi * 220.0 * t), rate)
        del t
        sizes[seconds] = (traced_peak_bytes(buf), len(extract_f0(buf)))
    (short_peak, short_frames), (long_peak, long_frames) = sizes[30], sizes[300]
    assert long_peak - short_peak <= 64 * (long_frames - short_frames)


class TestExtractF0:
    def test_pure_sine_220(self):
        buf = AudioBuffer(sine_signal(220.0), SR)
        result = extract_f0(buf, hop_seconds=0.03)
        assert result.voiced.all()
        assert np.abs(result.f0 - 220.0).max() < 2.0

    def test_silence_unvoiced(self):
        result = extract_f0(AudioBuffer(np.zeros(SR), SR), hop_seconds=0.03)
        assert not result.voiced.any()
        np.testing.assert_array_equal(result.f0, 0.0)

    def test_white_noise_mostly_unvoiced(self):
        rng = np.random.default_rng(31)
        noise = np.clip(rng.standard_normal(SR) / 3.5, -1, 1)
        result = extract_f0(AudioBuffer(noise, SR), hop_seconds=0.03)
        assert (~result.voiced).mean() >= 0.90

    def test_subharmonic_not_picked(self):
        # A 220 Hz sine has near-unity autocorrelation at 2x and 4x the
        # period as well; the shortest near-best lag must win.
        buf = AudioBuffer(sine_signal(220.0, duration=0.5), SR)
        result = extract_f0(buf, hop_seconds=0.03)
        voiced_f0 = result.f0[result.voiced]
        assert np.all(voiced_f0 > 150.0)

    def test_higher_pitch(self):
        buf = AudioBuffer(sine_signal(440.0, duration=0.5), SR)
        result = extract_f0(buf, hop_seconds=0.03)
        assert np.abs(result.f0[result.voiced] - 440.0).max() < 2.0

    @pytest.mark.parametrize("hop_seconds", [-0.03, 0.0, math.nan, math.inf])
    def test_hop_not_finite_and_positive(self, hop_seconds):
        with pytest.raises(ValueError, match="hop_seconds must be finite and positive"):
            extract_f0(AudioBuffer(sine_signal(220.0), SR), hop_seconds)


class TestF0Track:
    @pytest.mark.parametrize("value", [3000.0, 10.0, -5.0, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, value):
        # Beside an unvoiced frame: a voicing array once let -5 and NaN
        # through on frames it marked unvoiced.
        with pytest.raises(ValueError, match="nonzero f0 must lie in"):
            F0Track(np.array([value, 0.0]))

    def test_rejects_two_dimensional_f0(self):
        with pytest.raises(ValueError, match=r"f0 must be a 1-D array, got shape \(1, 2\)"):
            F0Track(np.array([[100.0, 0.0]]))


class TestMcd:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((7, 25))
        assert mcd(a, a) == 0.0

    def test_single_coefficient_unit_difference(self):
        a = np.zeros((1, 25))
        b = np.zeros((1, 25))
        b[0, 3] = 1.0
        assert mcd(a, b) == pytest.approx(MCD_CONSTANT, rel=1e-12)
        assert mcd(a, b) == pytest.approx(6.1421, abs=1e-3)

    def test_c0_excluded(self):
        a = np.zeros((3, 25))
        b = np.zeros((3, 25))
        b[:, 0] = 50.0
        assert mcd(a, b) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 13))
        b = rng.standard_normal((5, 13))
        assert mcd(a, b) == mcd(b, a)

    @settings(max_examples=100, deadline=None)
    @given(frames=st.integers(1, 40), coeffs=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
    @example(frames=9, coeffs=25, seed=0)  # a manifest row's shape
    @example(frames=1, coeffs=25, seed=1)  # one frame: C- and F-contiguous at once
    def test_bits_do_not_depend_on_memory_order(self, frames, coeffs, seed):
        # Each frame's squared differences are summed in one order,
        # whether the cepstra come C-ordered, F-ordered or strided.
        rng = np.random.default_rng(seed)
        ref, pred = rng.standard_normal((2, frames, coeffs)) * 10.0

        def strided(a):
            wide = np.zeros((2 * frames, 3 * coeffs))
            wide[::2, ::3] = a
            return wide[::2, ::3]

        layouts = (np.ascontiguousarray, np.asfortranarray, strided)
        got = {mcd(r(ref), p(pred)).hex() for r in layouts for p in layouts}
        assert len(got) == 1

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mcd(np.zeros((2, 13)), np.zeros((3, 13)))
        with pytest.raises(ShapeMismatchError):
            mcd(np.zeros((2, 1)), np.zeros((2, 1)))
        with pytest.raises(ShapeMismatchError, match="no frames to compare"):
            mcd(np.zeros((0, 13)), np.zeros((0, 13)))


class TestF0Metrics:
    def test_identical_tracks(self):
        a = track([220.0, 230.0, 0.0, 240.0])
        rmse, vuv, corr = f0_metrics(a, a)
        assert (rmse, vuv, corr) == (0.0, 0.0, 1.0)

    def test_constant_shift(self):
        ref = track([220.0, 230.0, 240.0, 0.0])
        pred = track([221.0, 231.0, 241.0, 0.0])
        rmse, vuv, corr = f0_metrics(ref, pred)
        assert rmse == pytest.approx(1.0, rel=1e-12)
        assert vuv == 0.0
        assert corr == pytest.approx(1.0, rel=1e-12)

    def test_inverted_flags_half(self):
        ref = track([220.0, 220.0, 0.0, 0.0])
        pred = track([220.0, 0.0, 220.0, 0.0])
        _, vuv, _ = f0_metrics(ref, pred)
        assert vuv == 50.0

    def test_undefined_with_no_covoiced(self):
        ref = track([220.0, 0.0])
        pred = track([0.0, 220.0])
        rmse, vuv, corr = f0_metrics(ref, pred)
        assert np.isnan(rmse) and np.isnan(corr)
        assert vuv == 100.0

    def test_undefined_with_single_covoiced(self):
        ref = track([220.0, 0.0])
        pred = track([225.0, 0.0])
        rmse, _, corr = f0_metrics(ref, pred)
        assert rmse == pytest.approx(5.0)
        assert np.isnan(corr)

    def test_undefined_with_zero_variance(self):
        ref = track([220.0, 220.0, 220.0])
        pred = track([225.0, 226.0, 227.0])
        _, _, corr = f0_metrics(ref, pred)
        assert np.isnan(corr)

    def test_affine_invariance_of_correlation(self):
        rng = np.random.default_rng(5)
        values_ref = rng.uniform(200, 400, 30)
        values_pred = values_ref + rng.uniform(-20, 20, 30)
        ref = track(values_ref)
        pred = track(values_pred)
        _, _, corr = f0_metrics(ref, pred)
        a, b = 1.5, 30.0
        _, _, corr2 = f0_metrics(track(a * values_ref + b), track(a * values_pred + b))
        assert corr2 == pytest.approx(corr, rel=1e-9)

    def test_vuv_invariant_under_permutation(self):
        rng = np.random.default_rng(8)
        f_ref = np.where(rng.random(40) > 0.4, rng.uniform(100, 300, 40), 0.0)
        f_pred = np.where(rng.random(40) > 0.4, rng.uniform(100, 300, 40), 0.0)
        ref, pred = track(f_ref), track(f_pred)
        _, vuv, _ = f0_metrics(ref, pred)
        perm = rng.permutation(40)
        _, vuv2, _ = f0_metrics(track(f_ref[perm]), track(f_pred[perm]))
        assert vuv2 == vuv

    def test_identical_tracks_correlate_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            a = track(rng.uniform(100, 400, rng.integers(2, 300)))
            assert f0_metrics(a, a)[2] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            f0_metrics(track([220.0]), track([220.0, 220.0]))
        with pytest.raises(LengthMismatchError, match="empty tracks"):
            f0_metrics(track([]), track([]))


class TestCompare:
    def test_file_vs_itself(self, sine_wav_factory):
        path = sine_wav_factory(220.0)
        report = compare(path, path)
        assert report.mcd_db == 0.0
        assert report.f0_rmse_hz == 0.0
        assert report.vuv_error_pct == 0.0
        assert report.f0_corr == 1.0
        assert report.frames_compared > 0

    def test_sine_pair_rmse(self, sine_wav_factory):
        a = sine_wav_factory(220.0, name="a.wav")
        b = sine_wav_factory(247.0, name="b.wav")
        report = compare(a, b)
        assert report.f0_rmse_hz == pytest.approx(27.0, abs=1.0)
        assert report.vuv_error_pct < 2.0

    def test_sine_vs_silence(self, sine_wav_factory, tmp_path):
        a = sine_wav_factory(220.0)
        silence = tmp_path / "sil.wav"
        save_wav(AudioBuffer(np.zeros(SR), SR), silence)
        report = compare(a, silence)
        assert report.vuv_error_pct > 95.0
        assert np.isnan(report.f0_rmse_hz) and np.isnan(report.f0_corr)

    def test_resamples_to_config_rate(self, tmp_path):
        rate = 44100
        t = np.arange(rate) / rate
        path = tmp_path / "hi.wav"
        save_wav(AudioBuffer(0.9 * np.sin(2 * np.pi * 220 * t), rate), path)
        report = compare(path, path, StftConfig(sample_rate=22050))
        assert report.mcd_db == 0.0

    def test_mismatch_warning(self, sine_wav_factory):
        a = sine_wav_factory(220.0, duration=1.0, name="long.wav")
        b = sine_wav_factory(220.0, duration=0.5, name="short.wav")
        with pytest.warns(MismatchWarning):
            report = compare(a, b)
        assert report.frames_compared > 0

    def test_deterministic(self, sine_wav_factory):
        a = sine_wav_factory(220.0, name="x.wav")
        b = sine_wav_factory(247.0, name="y.wav")
        r1 = compare(a, b)
        r2 = compare(a, b)
        assert r1 == r2
