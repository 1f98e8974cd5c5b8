import importlib
import inspect
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peaudio
from peaudio.psychoacoustic import (
    ZWICKER_UPPER_EDGES_HZ,
    BarkBandLayout,
    absolute_threshold,
    analyze,
    bark_layout,
    hearing_threshold_db_spl,
    masking_offset_db,
    renormalize_and_clamp,
    spread_threshold,
    spreading_function_db,
    spreading_gain,
    spreading_kernel,
    tonality,
)
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import Spectrogram, StftConfig, stft

from conftest import band_of_bin, bark_spectrum, bin_ranges, harmonic_signal, scaled, sfm_db
from conftest import spread


class TestBarkLayout:
    def test_band_count_at_22050(self):
        lay = bark_layout(StftConfig(sample_rate=22050))
        assert lay.n == 23  # Nyquist 11025 sits inside the 9500-12000 band

    def test_band_count_at_8000(self):
        lay = bark_layout(StftConfig(fft_size=1024, hop=512, sample_rate=8000))
        assert lay.n == 18  # Nyquist 4000 sits inside the 3700-4400 band

    def test_band_count_matches_table_walk(self):
        # Independent count: edges strictly below Nyquist, plus the partial band.
        for sr in (8000, 22050, 44100):
            lay = bark_layout(StftConfig(fft_size=2048, hop=512, sample_rate=sr))
            expected = sum(1 for e in ZWICKER_UPPER_EDGES_HZ if e < sr / 2) + 1
            assert lay.n == expected

    def test_bins_partition_spectrum(self):
        cfg = StftConfig(sample_rate=22050)
        lay = bark_layout(cfg)
        seen = []
        for lo, hi in bin_ranges(lay):
            seen.extend(range(lo, hi + 1))
        assert seen == list(range(cfg.bins))
        assert np.all(lay.k >= 1)

    def test_dc_bin_in_first_band(self):
        lay = bark_layout(StftConfig(sample_rate=22050))
        assert lay.lower_bins[0] == 0
        assert band_of_bin(lay)[0] == 0

    def test_bin_assignment_by_center_frequency(self):
        cfg = StftConfig(sample_rate=22050)
        lay = bark_layout(cfg)
        freqs = cfg.bin_frequencies()
        bands = band_of_bin(lay)
        for b, f in zip(bands, freqs):
            assert lay.band_edges[b] <= f or b == 0
            assert f < lay.band_edges[b + 1] or b == lay.n - 1

    def test_one_read_only_layout_per_config(self):
        lay = bark_layout(StftConfig(sample_rate=22050))
        assert bark_layout(StftConfig(sample_rate=22050)) is lay
        for array in (lay.band_edges, lay.lower_bins, lay.upper_bins):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_too_small_fft_raises(self):
        with pytest.raises(ValueError):
            bark_layout(StftConfig(fft_size=128, hop=64, sample_rate=22050))

    def test_layout_validation(self):
        with pytest.raises(ValueError):
            BarkBandLayout(
                band_edges=np.array([0.0, 100.0, 200.0]),
                lower_bins=np.array([0, 3]),
                upper_bins=np.array([1, 4]),  # gap: bin 2 unassigned
                n=2,
            )

    @pytest.mark.parametrize("change, message", [
        ({"band_edges": [0.0, 100.0]}, "band_edges must have n\\+1 entries"),
        ({"band_edges": [0.0, 200.0, 100.0]}, "band_edges must be strictly ascending"),
        ({"lower_bins": [0]}, "bin ranges must have one entry per band"),
        ({"lower_bins": [1, 3]}, "first band must start at bin 0"),
        ({"upper_bins": [2, 2]}, "every band needs at least one bin"),
    ])
    def test_partition_checks(self, change, message):
        valid = {"band_edges": [0.0, 100.0, 200.0], "lower_bins": [0, 3], "upper_bins": [2, 4]}
        BarkBandLayout(**{key: np.array(v) for key, v in valid.items()}, n=2)
        with pytest.raises(ValueError, match=message):
            BarkBandLayout(**{key: np.array(v) for key, v in {**valid, **change}.items()}, n=2)

    def test_partition_invariants_over_a_config_grid(self):
        # What a BarkBandLayout promises, held on its one producer: each
        # config either gets a gapless partition of its bins whose edges
        # run from 0 Hz to Nyquist, or is refused in one line.
        rates = (200, 300, 400, 600, 1000, 2000, 4000, 8000, 11025, 16000, 22050,
                 32000, 44100, 48000, 88200, 96000, 176400, 192000)
        fft_sizes = [2**p for p in range(2, 14)]  # 4 ... 8192
        refused = 0
        for sr in rates:
            for fft_size in fft_sizes:
                cfg = StftConfig(fft_size=fft_size, hop=1, sample_rate=sr)
                try:
                    lay = bark_layout(cfg)
                except ValueError as exc:
                    assert "has no FFT bin" in str(exc) and "\n" not in str(exc)
                    refused += 1
                    continue
                assert lay.band_edges.shape == (lay.n + 1,)
                assert lay.band_edges[0] == 0.0 and lay.band_edges[-1] == sr / 2
                assert np.all(np.diff(lay.band_edges) > 0)
                assert lay.lower_bins.shape == lay.upper_bins.shape == (lay.n,)
                assert lay.lower_bins[0] == 0
                assert np.all(lay.upper_bins >= lay.lower_bins)
                np.testing.assert_array_equal(lay.lower_bins[1:], lay.upper_bins[:-1] + 1)
                assert lay.upper_bins[-1] == cfg.bins - 1
                for array in (lay.band_edges, lay.lower_bins, lay.upper_bins):
                    assert not array.flags.writeable
        assert 0 < refused < len(rates) * len(fft_sizes)


class TestBarkSpectrum:
    def _toy_layout(self):
        lay = bark_layout(StftConfig(fft_size=16, hop=16, sample_rate=600))
        assert bin_ranges(lay) == [(0, 2), (3, 5), (6, 8)]
        return lay

    def test_zero_frame(self):
        lay = self._toy_layout()
        np.testing.assert_array_equal(bark_spectrum(np.zeros(9, complex), lay), 0.0)

    def test_unit_impulse_in_band(self):
        lay = self._toy_layout()
        frame = np.zeros(9, complex)
        frame[4] = 1.0j  # inside band 2
        np.testing.assert_array_equal(bark_spectrum(frame, lay), [0.0, 1.0, 0.0])

    def test_matches_bruteforce_summation(self):
        lay = self._toy_layout()
        rng = np.random.default_rng(4)
        frame = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        expected = []
        for lo, hi in bin_ranges(lay):
            total = 0.0
            for w in range(lo, hi + 1):
                total += frame[w].real ** 2 + frame[w].imag ** 2
            expected.append(total)
        np.testing.assert_allclose(bark_spectrum(frame, lay), expected, rtol=1e-12)


class TestSpread:
    cfg = StftConfig(sample_rate=22050)
    lay = bark_layout(cfg)

    def test_zero_in_zero_out(self):
        np.testing.assert_array_equal(spread(np.zeros(self.lay.n), self.cfg), 0.0)

    def test_impulse_reads_kernel_row(self):
        j = 7
        b = np.zeros(self.lay.n)
        b[j] = 1.0
        c = spread(b, self.cfg)
        offsets = np.arange(self.lay.n) - j
        expected = 10.0 ** (spreading_function_db(offsets) / 10.0)
        np.testing.assert_allclose(c, expected, rtol=1e-12)

    def test_matches_independent_matrix_oracle(self):
        # Kernel assembled from scratch with its own attenuation formula.
        n = self.lay.n
        kernel = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                dz = i - j
                db = 15.81 + 7.5 * (dz + 0.474) - 17.5 * np.sqrt(1 + (dz + 0.474) ** 2)
                kernel[i, j] = 10.0 ** (db / 10.0)
        rng = np.random.default_rng(8)
        b = rng.uniform(0, 10, n)
        np.testing.assert_allclose(spread(b, self.cfg), kernel @ b, rtol=1e-12)

    def test_linear_and_monotone(self):
        rng = np.random.default_rng(1)
        b1 = rng.uniform(0, 5, self.lay.n)
        b2 = rng.uniform(0, 5, self.lay.n)
        np.testing.assert_allclose(
            spread(2.0 * b1 + 3.0 * b2, self.cfg),
            2.0 * spread(b1, self.cfg) + 3.0 * spread(b2, self.cfg),
            rtol=1e-12,
        )
        bumped = b1.copy()
        bumped[4] += 1.0
        assert np.all(spread(bumped, self.cfg) >= spread(b1, self.cfg))

    def test_upward_spread_stronger(self):
        # Masking leaks more toward higher bands than lower ones.
        assert spreading_function_db(1) > spreading_function_db(-1)


class TestSfm:
    def test_flat_band_is_zero_db(self):
        assert sfm_db([3.7, 3.7, 3.7, 3.7]) == 0.0

    def test_component_with_zero(self):
        # Floor turns [1, 0] into [1, 1e-12].
        expected = 10 * np.log10(np.sqrt(1e-12) / ((1 + 1e-12) / 2))
        assert sfm_db([1.0, 0.0]) == pytest.approx(expected, rel=1e-12)
        assert sfm_db([1.0, 0.0]) == pytest.approx(-56.99, abs=0.01)

    def test_four_and_one(self):
        # geometric 2, arithmetic 2.5
        assert sfm_db([4.0, 1.0]) == pytest.approx(10 * np.log10(0.8), rel=1e-12)
        assert sfm_db([4.0, 1.0]) == pytest.approx(-0.969, abs=1e-3)

    def test_never_positive(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            comps = rng.uniform(0, 10, rng.integers(1, 12)) ** 3
            assert sfm_db(comps) <= 1e-12

    def test_zero_iff_all_floored_equal(self):
        # equal (floored) components sit at 0 up to mean-rounding noise
        assert sfm_db([0.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
        assert sfm_db([1e-13, 1e-14]) == pytest.approx(0.0, abs=1e-12)
        assert sfm_db([2.0, 2.1]) < -1e-12


class TestTonality:
    def test_endpoints(self):
        assert tonality(0.0) == 0.0
        assert tonality(-60.0) == 1.0
        assert tonality(-30.0) == 0.5

    def test_pins_below_minus_sixty(self):
        assert tonality(-90.0) == 1.0

    @given(st.floats(min_value=-60.0, max_value=0.0))
    @settings(max_examples=50, deadline=None)
    def test_linear_on_range(self, x):
        assert tonality(x) == pytest.approx(x / -60.0)

    def test_monotone_nonincreasing(self):
        grid = np.linspace(-80.0, 0.0, 400)
        values = tonality(grid)
        assert np.all(np.diff(values) <= 1e-15)


class TestOffset:
    def test_noise_offset(self):
        assert masking_offset_db(0.0, 5) == 5.5

    def test_tone_offset_band_one(self):
        assert masking_offset_db(1.0, 1) == 15.5

    def test_blend_midpoint(self):
        assert masking_offset_db(0.5, 10) == pytest.approx(15.0, rel=1e-15)


class TestSpreadThreshold:
    def test_unit_power_ten_db(self):
        assert spread_threshold(1.0, 10.0) == 0.1

    def test_zero_power(self):
        assert spread_threshold(0.0, 7.0) == 0.0

    def test_two_at_three_db(self):
        assert spread_threshold(2.0, 3.0) == pytest.approx(2.0 * 10 ** -0.3, rel=1e-12)


class TestRenormalizeAndClamp:
    @pytest.mark.parametrize("sr", [8000, 22050, 44100])
    def test_flat_spectrum_roundtrip(self, sr):
        # Defining property: a flat bark spectrum's renormalized threshold
        # equals the unspread attenuation exactly, at any offset vector.
        cfg = StftConfig(fft_size=1024, hop=512, sample_rate=sr)
        lay = bark_layout(cfg)
        offsets = masking_offset_db(np.full(lay.n, 0.3), np.arange(1, lay.n + 1))
        raw = spread_threshold(spread(np.ones(lay.n), cfg), offsets)
        renormalized = raw / spreading_gain(cfg)
        np.testing.assert_allclose(renormalized, 10.0 ** (-offsets / 10.0), rtol=1e-9)

    def test_zero_thresholds_clamp_to_absolute(self):
        cfg = StftConfig(sample_rate=22050)
        lay = bark_layout(cfg)
        out = renormalize_and_clamp(np.zeros(lay.n), cfg)
        np.testing.assert_array_equal(out, absolute_threshold(cfg))

    def test_result_never_below_absolute(self):
        cfg = StftConfig(sample_rate=22050)
        lay = bark_layout(cfg)
        rng = np.random.default_rng(3)
        quiet = absolute_threshold(cfg)
        for _ in range(20):
            raw = rng.uniform(0, 1e-3, lay.n) * quiet.mean()
            assert np.all(renormalize_and_clamp(raw, cfg) >= quiet)

    def test_absolute_threshold_uses_most_sensitive_bin(self):
        cfg = StftConfig(sample_rate=22050)
        lay = bark_layout(cfg)
        quiet = absolute_threshold(cfg)
        freqs = cfg.bin_frequencies()
        for i, (lo, hi) in enumerate(bin_ranges(lay)):
            best_db = hearing_threshold_db_spl(freqs[lo : hi + 1]).min()
            expected = 10.0 ** ((best_db - 96.0) / 10.0)
            expected *= (cfg.window_samples().sum() / 2.0) ** 2
            assert quiet[i] == pytest.approx(expected, rel=1e-12)


class TestAnalyze:
    sr = 22050

    def test_silence(self):
        cfg = StftConfig(sample_rate=self.sr)
        spec = stft(AudioBuffer(np.zeros(self.sr // 2), self.sr), cfg)
        res = analyze(spec)
        np.testing.assert_array_equal(res.band_power, 0.0)
        np.testing.assert_array_equal(res.spread_power, 0.0)
        np.testing.assert_allclose(
            res.masking_threshold, np.broadcast_to(absolute_threshold(cfg), res.masking_threshold.shape)
        )

    def test_pure_tone_is_tonal_in_its_band(self):
        # Large FFT so window leakage inside the band stays far below the
        # peak; at fft 1024 the 8-bin band reads the leakage as noise.
        cfg = StftConfig(fft_size=8192, hop=4096, sample_rate=self.sr)
        lay = bark_layout(cfg)
        t = np.arange(self.sr) / self.sr
        spec = stft(AudioBuffer(0.99 * np.sin(2 * np.pi * 1000.0 * t), self.sr), cfg)
        res = analyze(spec)
        band = int(np.searchsorted(lay.band_edges[1:], 1000.0, side="right"))
        assert lay.band_edges[band] == 920.0 and lay.band_edges[band + 1] == 1080.0
        assert res.tonality[:, band].mean() > 0.9

    def test_white_noise_reads_noisy(self):
        cfg = StftConfig(sample_rate=self.sr)
        rng = np.random.default_rng(77)
        noise = np.clip(rng.standard_normal(self.sr) / 3.5, -1, 1)
        res = analyze(stft(AudioBuffer(noise, self.sr), cfg))
        assert res.tonality.mean() < 0.3

    def test_scale_equivariance(self):
        cfg = StftConfig(sample_rate=self.sr)
        spec = stft(AudioBuffer(harmonic_signal(duration=0.4), self.sr), cfg)
        base = analyze(spec)
        quiet = absolute_threshold(cfg)
        gain = spreading_gain(cfg)
        for c in (0.5, 2.0):
            res = analyze(scaled(spec, c))
            np.testing.assert_allclose(res.band_power, c**2 * base.band_power, rtol=1e-9)
            np.testing.assert_allclose(res.spread_power, c**2 * base.spread_power, rtol=1e-9)
            np.testing.assert_allclose(
                res.spread_threshold, c**2 * base.spread_threshold, rtol=1e-9
            )
            np.testing.assert_allclose(res.sfm_db, base.sfm_db, atol=1e-9)
            np.testing.assert_allclose(res.tonality, base.tonality, atol=1e-12)
            inactive = (base.spread_threshold / gain > quiet) & (
                res.spread_threshold / gain > quiet
            )
            np.testing.assert_allclose(
                res.masking_threshold[inactive],
                c**2 * base.masking_threshold[inactive],
                rtol=1e-9,
            )

    def test_sfm_floor_keeps_silence_flat(self):
        # All-zero bands read as flat (0 dB up to mean-rounding noise),
        # hence fully noise-like.
        cfg = StftConfig(sample_rate=self.sr)
        spec = Spectrogram(np.zeros((2, cfg.bins), complex), cfg)
        res = analyze(spec)
        assert np.all(res.sfm_db <= 0.0)
        np.testing.assert_allclose(res.sfm_db, 0.0, atol=1e-12)
        assert np.all(res.tonality >= 0.0)
        np.testing.assert_allclose(res.tonality, 0.0, atol=1e-13)

    def test_matches_per_frame_oracles(self):
        # The blocked, whole-array pipeline against one frame and one band
        # at a time: band sums, the spreading product and the flatness.
        cfg = StftConfig(sample_rate=self.sr)
        lay = bark_layout(cfg)
        spec = stft(AudioBuffer(harmonic_signal(duration=0.3), self.sr), cfg)
        res = analyze(spec)
        for t, frame in enumerate(spec.frames):
            bands = bark_spectrum(frame, lay)
            np.testing.assert_allclose(res.band_power[t], bands, rtol=1e-12)
            np.testing.assert_allclose(res.spread_power[t], spread(bands, cfg), rtol=1e-12)
            power = frame.real**2 + frame.imag**2
            flatness = [sfm_db(power[lo : hi + 1]) for lo, hi in bin_ranges(lay)]
            np.testing.assert_allclose(res.sfm_db[t], flatness, rtol=1e-9, atol=1e-12)

    def test_sfm_components_are_bins_not_band_sums(self):
        # Two equal-power bins in one band: flat at bin level even though
        # the band total is large.
        cfg = StftConfig(fft_size=1024, hop=512, sample_rate=self.sr)
        lay = bark_layout(cfg)
        frames = np.zeros((1, cfg.bins), complex)
        lo, hi = bin_ranges(lay)[10]
        frames[0, lo] = 3.0
        frames[0, lo + 1] = 3.0
        res = analyze(Spectrogram(frames, cfg))
        assert res.sfm_db[0, 10] < 0.0  # other bins in band are floored
        frames[0, lo : hi + 1] = 2.0
        res = analyze(Spectrogram(frames, cfg))
        assert res.sfm_db[0, 10] == pytest.approx(0.0, abs=1e-9)


def _public_callables():
    """Every public function, method and constructor defined in a peaudio module."""
    for info in pkgutil.iter_modules(peaudio.__path__):
        module = importlib.import_module(f"peaudio.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if inspect.isfunction(member) and (attr == "__init__" or attr[0] != "_"):
                        yield f"{module.__name__}.{name}.{attr}", member


class TestOneBandSource:
    """The critical bands are decided in one place: bark_layout(cfg)."""

    @pytest.mark.parametrize("fn", [
        bark_layout, absolute_threshold, renormalize_and_clamp, spreading_kernel, spreading_gain,
    ])
    def test_band_functions_take_the_stft_config(self, fn):
        param = inspect.signature(fn, eval_str=True).parameters.get("cfg")
        assert param is not None and param.annotation is StftConfig

    def test_no_public_function_takes_a_layout(self):
        callables = dict(_public_callables())
        assert "peaudio.pe.perceptual_entropy" in callables
        assert "peaudio.psychoacoustic.BarkAnalysis.__init__" in callables
        takers = [
            f"{where}({param.name})"
            for where, fn in callables.items()
            for param in inspect.signature(fn, eval_str=True).parameters.values()
            if "BarkBandLayout" in str(param.annotation)
        ]
        assert takers == []
