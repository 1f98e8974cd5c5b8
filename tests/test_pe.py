import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaudio.errors import DegenerateThresholdError, ShapeMismatchError
from peaudio.pe import _quantize_block
from peaudio.pe import (
    LossConfig,
    pe_loss,
    perceptual_entropy,
    sing_loss,
)
from peaudio.psychoacoustic import (
    BarkAnalysis,
    absolute_threshold,
    analyze,
    bark_layout,
    spreading_gain,
)
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import Spectrogram, StftConfig, stft

from conftest import bin_ranges, harmonic_signal, scaled


def toy_config(fft_size, sample_rate):
    """A small real config; bark_layout gives it a few bands of a few bins."""
    return StftConfig(fft_size=fft_size, hop=fft_size, sample_rate=sample_rate)


# Highest sample rate at which every band of bark_layout still gets a
# bin, per toy fft size; from there down to 1 Hz every rate works.
TOY_TOP_RATE = {4: 600, 8: 1020, 16: 2015}


def random_toy_config(rng):
    """A toy config of 3, 5 or 9 bins at a rate that gives it 1 to 9 bands."""
    fft_size = int(rng.choice(list(TOY_TOP_RATE)))
    return toy_config(fft_size, int(rng.integers(100, TOY_TOP_RATE[fft_size] + 1)))


def toy_analysis(cfg, thresholds, n_frames):
    """BarkAnalysis for cfg's bands carrying only what perceptual_entropy consumes."""
    n = bark_layout(cfg).n
    thresholds = np.broadcast_to(np.asarray(thresholds, float), (n_frames, n)).copy()
    zeros = np.zeros_like(thresholds)
    return BarkAnalysis(
        band_power=zeros,
        spread_power=zeros,
        sfm_db=zeros,
        tonality=zeros,
        offset_db=zeros,
        spread_threshold=thresholds,
        masking_threshold=thresholds,
        config=cfg,
    )


def naive_pe(frames, bin_ranges, thresholds):
    """Independent double-loop evaluation of the per-frame bit count."""
    out = []
    for t in range(frames.shape[0]):
        pe = 0.0
        for i, (lo, hi) in enumerate(bin_ranges):
            k = hi - lo + 1
            step = math.sqrt(6.0 * thresholds[i] / k)
            for w in range(lo, hi + 1):
                pe += math.log2(2.0 * abs(frames[t, w].real) / step + 1.0)
                pe += math.log2(2.0 * abs(frames[t, w].imag) / step + 1.0)
        out.append(pe)
    return np.array(out)


class TestPerceptualEntropy:
    def test_silence_gives_zero_pe_and_unit_loss(self):
        cfg = toy_config(8, 320)
        assert bin_ranges(bark_layout(cfg)) == [(0, 2), (3, 4)]
        spec = Spectrogram(np.zeros((3, 5), complex), cfg)
        result = perceptual_entropy(spec, toy_analysis(cfg, [1.0, 2.0], 3))
        np.testing.assert_array_equal(result.per_frame, 0.0)
        assert result.mean_pe == 0.0
        assert result.loss_pe == 1.0

    def test_unit_quantizer_step_is_one_bit(self):
        # Re at half the quantizer step of a one-bin band: log2(2*0.5+1) = 1.
        cfg = toy_config(4, 600)
        assert bin_ranges(bark_layout(cfg)) == [(0, 0), (1, 1), (2, 2)]
        threshold = np.array([0.5, 1.0, 2.0])
        step0 = math.sqrt(6.0 * threshold[0] / 1)
        frames = np.zeros((1, 3), complex)
        frames[0, 0] = step0 / 2.0
        result = perceptual_entropy(Spectrogram(frames, cfg), toy_analysis(cfg, threshold, 1))
        assert result.per_frame[0] == pytest.approx(1.0, rel=1e-15)

    def test_halved_step_quotient_is_the_doubled_magnitude_one(self):
        # The quantizer forms u = |x|/(step/2) + 1 for 2|x|/step + 1. A step
        # is at least sqrt(6 * 5e-324 / k), far above the subnormals, so
        # halving it is exact, and so is doubling any |x| below DBL_MAX/2:
        # both quotients round the same real number. Random blocks over
        # 600 decades, plus the extremes: 0, subnormal and huge |x|,
        # subnormal, huge and infinite thresholds.
        rng = np.random.default_rng(11)
        k = np.array([1, 2, 3])
        rows, bins = 4000, int(k.sum())
        big, tiny = np.finfo(float).max, np.finfo(float).smallest_subnormal
        shape = (2, rows, bins)
        parts = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-323.5, 308.2, shape)
        extremes = [0.0, -0.0, tiny, -3 * tiny, np.finfo(float).tiny, big / 2, -big / 2, big]
        parts[:, : len(extremes)] = np.reshape(extremes, (-1, 1))
        thresholds = 10.0 ** rng.uniform(-323, 308, (rows, k.size))
        thresholds[: len(extremes)] = thresholds[:: len(extremes) + 1] = [tiny, big, np.inf]
        x = parts[0] + 1j * parts[1]
        work = np.empty((6, rows, bins))
        with np.errstate(over="ignore", invalid="ignore"):
            _quantize_block(x, thresholds, k, work)
            steps = np.repeat(np.sqrt(6.0 * thresholds / k), k, axis=1)
            doubled = [2.0 * np.abs(part) / steps + 1.0 for part in parts]
        for u, want, part in zip(work[:2], doubled, parts):
            finite = np.abs(part) <= big / 2  # 2|x| is finite
            np.testing.assert_array_equal(u[finite], want[finite])
            # Where 2|x| overflows the doubled form reads inf, or NaN at an
            # infinite step; the halved form stays finite from a step of 2 up.
            over = ~finite
            assert np.isinf(want[over & np.isfinite(steps)]).all()
            assert np.isnan(want[over & np.isinf(steps)]).all()
            assert np.isfinite(u[over & (steps >= 2.0)]).all() and (over & np.isinf(steps)).any()

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            cfg = random_toy_config(rng)
            ranges = bin_ranges(bark_layout(cfg))
            thresholds = rng.uniform(0.1, 5.0, len(ranges))
            frames = rng.standard_normal((3, cfg.bins)) + 1j * rng.standard_normal((3, cfg.bins))
            spec = Spectrogram(frames, cfg)
            result = perceptual_entropy(spec, toy_analysis(cfg, thresholds, 3))
            expected = naive_pe(frames, ranges, thresholds)
            np.testing.assert_allclose(result.per_frame, expected, atol=1e-12)

    def test_monotone_in_component_magnitude(self):
        cfg = toy_config(8, 400)
        assert bin_ranges(bark_layout(cfg)) == [(0, 1), (2, 4)]
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
        analysis = toy_analysis(cfg, [1.0, 3.0], 1)
        base = perceptual_entropy(Spectrogram(frames, cfg), analysis).per_frame[0]
        for idx in range(5):
            grown = frames.copy()
            grown[0, idx] = grown[0, idx].real * 3.0 + 1j * grown[0, idx].imag
            bigger = perceptual_entropy(Spectrogram(grown, cfg), analysis).per_frame[0]
            assert bigger >= base - 1e-12

    def test_nonnegative_per_frame(self):
        cfg = toy_config(8, 200)  # one band of all five bins
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
        result = perceptual_entropy(Spectrogram(frames, cfg), toy_analysis(cfg, [0.7], 10))
        assert np.all(result.per_frame >= 0)

    def test_degenerate_threshold_raises(self):
        # One zero, negative or NaN cell is enough; NaN fails every comparison.
        cfg = toy_config(16, 400)
        spec = Spectrogram(np.ones((3, 9), complex), cfg)
        for bad in (0.0, -1.0, np.nan):
            analysis = toy_analysis(cfg, [0.7, 0.7], 3)
            analysis.masking_threshold[1, 1] = bad
            with pytest.raises(DegenerateThresholdError):
                perceptual_entropy(spec, analysis)

    def test_rejects_analysis_of_another_bin_count(self):
        spec = Spectrogram(np.ones((3, 5), complex), toy_config(8, 200))
        with pytest.raises(ValueError, match=r"analysis thresholds are \(3, 2\), not \(3, 1\)"):
            perceptual_entropy(spec, toy_analysis(toy_config(16, 400), [0.7, 0.7], 3))

    def test_rejects_analysis_of_another_frame_count(self):
        cfg = toy_config(8, 200)
        spec = Spectrogram(np.ones((3, 5), complex), cfg)
        with pytest.raises(ValueError, match=r"analysis thresholds are \(2, 1\), not \(3, 1\)"):
            perceptual_entropy(spec, toy_analysis(cfg, [0.7], 2))

    def test_rejects_analysis_of_another_config_of_the_same_shape(self):
        # Both configs give 23 bands, and these clips 43 frames each.
        sr = 22050
        noise = np.random.default_rng(0).uniform(-0.5, 0.5, 2 * sr)
        cfg = StftConfig(fft_size=1024, hop=1024, sample_rate=sr)
        other = StftConfig(fft_size=2048, hop=512, sample_rate=sr)
        spec = stft(AudioBuffer(noise, sr), cfg)
        other_spec = stft(AudioBuffer(noise[: 2048 + 42 * 512], sr), other)
        analysis = analyze(other_spec)
        assert analysis.masking_threshold.shape == (spec.n_frames, bark_layout(cfg).n) == (43, 23)
        with pytest.raises(ValueError, match="another STFT config"):
            perceptual_entropy(spec, analysis)

    def test_scale_invariance_when_clamp_inactive(self):
        sr = 22050
        cfg = StftConfig(sample_rate=sr)
        spec = stft(AudioBuffer(harmonic_signal(duration=0.5), sr), cfg)
        quiet = absolute_threshold(cfg)
        gain = spreading_gain(cfg)
        base = perceptual_entropy(spec, analyze(spec))
        for c in (0.5, 2.0):
            spec_c = scaled(spec, c)
            res = analyze(spec_c)
            assert np.all(res.spread_threshold / gain > quiet), "clamp must stay inactive"
            result = perceptual_entropy(spec_c, res)
            assert result.mean_pe == pytest.approx(base.mean_pe, rel=1e-6)


class TestPeLoss:
    def test_values(self):
        assert pe_loss(0.0) == 1.0
        assert pe_loss(1.0) == 0.5
        assert pe_loss(99.0) == pytest.approx(0.01, rel=1e-15)

    @given(st.floats(min_value=0.0, max_value=1e9))
    @settings(max_examples=50, deadline=None)
    def test_range(self, pe):
        value = pe_loss(pe)
        assert 0.0 < value <= 1.0

    def test_strictly_decreasing(self):
        grid = np.linspace(0, 500, 1000)
        values = [pe_loss(v) for v in grid]
        assert np.all(np.diff(values) < 0)


class TestSingLoss:
    def test_identical_pairs(self):
        a = np.ones((4, 8))
        m = np.ones((4, 3))
        assert sing_loss(a, a, m, m) == 0.0

    def test_constant_offset(self):
        a = np.zeros((4, 8))
        m = np.zeros((4, 3))
        assert sing_loss(a + 1.0, a, m + 1.0, m) == pytest.approx(2.0, rel=1e-15)

    def test_matches_manual_summation(self):
        rng = np.random.default_rng(3)
        pl, rl = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
        pm, rm = rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        manual = abs(pl - rl).sum() / pl.size + abs(pm - rm).sum() / pm.size
        assert sing_loss(pl, rl, pm, rm) == pytest.approx(manual, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError, match="linear"):
            sing_loss(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatchError, match="mel"):
            sing_loss(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((3, 2)))


class TestLossConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)
