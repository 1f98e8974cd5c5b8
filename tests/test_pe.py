import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peaudio.errors import DegenerateThresholdError, ShapeMismatchError
from peaudio.pe import (
    LossConfig,
    PEResult,
    pe_loss,
    perceptual_entropy,
    sing_loss,
    total_loss,
)
from peaudio.psychoacoustic import (
    BarkAnalysis,
    BarkBandLayout,
    absolute_threshold,
    analyze,
    bark_layout,
    spreading_gain,
)
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import Spectrogram, StftConfig, stft

from conftest import harmonic_signal, scaled


def toy_layout(bin_ranges):
    """Hand-built layout over a small spectrum; edges are placeholders."""
    n = len(bin_ranges)
    lower = np.array([lo for lo, _ in bin_ranges])
    upper = np.array([hi for _, hi in bin_ranges])
    edges = np.linspace(0.0, 1000.0, n + 1)
    return BarkBandLayout(band_edges=edges, lower_bins=lower, upper_bins=upper, n=n)


def toy_analysis(layout, thresholds, n_frames):
    """BarkAnalysis carrying only what perceptual_entropy consumes."""
    thresholds = np.broadcast_to(np.asarray(thresholds, float), (n_frames, layout.n)).copy()
    zeros = np.zeros_like(thresholds)
    return BarkAnalysis(
        band_power=zeros,
        spread_power=zeros,
        sfm_db=zeros,
        tonality=zeros,
        offset_db=zeros,
        spread_threshold=thresholds,
        masking_threshold=thresholds,
        layout=layout,
    )


def toy_config(bins):
    fft_size = 2 * (bins - 1)
    return StftConfig(fft_size=fft_size, hop=fft_size, sample_rate=8000)


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
        layout = toy_layout([(0, 2), (3, 4)])
        cfg = toy_config(5)
        spec = Spectrogram(np.zeros((3, 5), complex), cfg)
        result = perceptual_entropy(spec, toy_analysis(layout, [1.0, 2.0], 3))
        np.testing.assert_array_equal(result.per_frame, 0.0)
        assert result.mean_pe == 0.0
        assert result.loss_pe == 1.0

    def test_unit_quantizer_step_is_one_bit(self):
        # Re at half the quantizer step of a one-bin band: log2(2*0.5+1) = 1.
        layout = toy_layout([(0, 0), (1, 1), (2, 2)])
        cfg = toy_config(3)
        threshold = np.array([0.5, 1.0, 2.0])
        step0 = math.sqrt(6.0 * threshold[0] / 1)
        frames = np.zeros((1, 3), complex)
        frames[0, 0] = step0 / 2.0
        result = perceptual_entropy(Spectrogram(frames, cfg), toy_analysis(layout, threshold, 1))
        assert result.per_frame[0] == pytest.approx(1.0, rel=1e-15)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(123)
        for trial in range(60):
            bins = int(rng.choice([4, 8, 16])) // 2 + 1  # 3, 5 or 9 one-sided bins
            n_bands = int(rng.integers(1, min(3, bins - 1) + 1))
            cuts = np.sort(rng.choice(np.arange(1, bins), size=n_bands - 1, replace=False))
            edges = np.concatenate(([0], cuts, [bins]))
            ranges = [(int(edges[i]), int(edges[i + 1] - 1)) for i in range(n_bands)]
            layout = toy_layout(ranges)
            thresholds = rng.uniform(0.1, 5.0, n_bands)
            frames = rng.standard_normal((3, bins)) + 1j * rng.standard_normal((3, bins))
            spec = Spectrogram(frames, toy_config(bins))
            result = perceptual_entropy(spec, toy_analysis(layout, thresholds, 3))
            expected = naive_pe(frames, ranges, thresholds)
            np.testing.assert_allclose(result.per_frame, expected, atol=1e-12)

    def test_monotone_in_component_magnitude(self):
        layout = toy_layout([(0, 1), (2, 4)])
        cfg = toy_config(5)
        rng = np.random.default_rng(2)
        frames = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
        analysis = toy_analysis(layout, [1.0, 3.0], 1)
        base = perceptual_entropy(Spectrogram(frames, cfg), analysis).per_frame[0]
        for idx in range(5):
            grown = frames.copy()
            grown[0, idx] = grown[0, idx].real * 3.0 + 1j * grown[0, idx].imag
            bigger = perceptual_entropy(Spectrogram(grown, cfg), analysis).per_frame[0]
            assert bigger >= base - 1e-12

    def test_nonnegative_per_frame(self):
        layout = toy_layout([(0, 4)])
        rng = np.random.default_rng(6)
        frames = rng.standard_normal((10, 5)) + 1j * rng.standard_normal((10, 5))
        result = perceptual_entropy(
            Spectrogram(frames, toy_config(5)), toy_analysis(layout, [0.7], 10)
        )
        assert np.all(result.per_frame >= 0)

    def test_degenerate_threshold_raises(self):
        layout = toy_layout([(0, 4)])
        spec = Spectrogram(np.zeros((1, 5), complex), toy_config(5))
        with pytest.raises(DegenerateThresholdError):
            perceptual_entropy(spec, toy_analysis(layout, [0.0], 1))

    def test_rejects_analysis_of_another_bin_count(self):
        spec = Spectrogram(np.ones((3, 5), complex), toy_config(5))
        with pytest.raises(ValueError, match="analysis layout does not match the spectrogram bins"):
            perceptual_entropy(spec, toy_analysis(toy_layout([(0, 3), (4, 8)]), [0.7, 0.7], 3))

    def test_rejects_analysis_of_another_frame_count(self):
        spec = Spectrogram(np.ones((3, 5), complex), toy_config(5))
        with pytest.raises(ValueError, match="analysis frame count does not match the spectrogram"):
            perceptual_entropy(spec, toy_analysis(toy_layout([(0, 4)]), [0.7], 2))

    def test_scale_invariance_when_clamp_inactive(self):
        sr = 22050
        cfg = StftConfig(sample_rate=sr)
        layout = bark_layout(cfg)
        spec = stft(AudioBuffer(harmonic_signal(duration=0.5), sr), cfg)
        quiet = absolute_threshold(cfg)
        gain = spreading_gain(layout)
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


class TestTotalLoss:
    def _pe_result(self, loss):
        return PEResult(per_frame=np.array([0.0]), mean_pe=1.0 / loss - 1.0, loss_pe=loss)

    def test_zero_lambda_is_identity(self):
        result = self._pe_result(0.37)
        assert total_loss(0.8251, result, LossConfig(lam=0.0)) == 0.8251

    def test_default_lambda(self):
        result = self._pe_result(1.0)
        assert total_loss(0.5, result, LossConfig(lam=0.01)) == pytest.approx(0.51, rel=1e-15)

    def test_conformer_lambda(self):
        result = self._pe_result(0.25)
        assert total_loss(0.5, result, LossConfig(lam=0.02)) == pytest.approx(
            0.5 + 0.02 * 0.25, rel=1e-15
        )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-0.1)
