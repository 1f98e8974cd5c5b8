import tracemalloc

import numpy as np
import pytest

from peaudio import pe
from peaudio.pe import check_gradient, pe_gradient, perceptual_entropy, toy_fit
from peaudio.pe import LossConfig
from peaudio.errors import DivergenceError
from peaudio.psychoacoustic import (
    SFM_DB_MAX,
    SFM_POWER_FLOOR,
    absolute_threshold,
    analyze,
    bark_layout,
    spreading_gain,
    spreading_kernel,
)
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import Spectrogram, StftConfig, stft

from conftest import harmonic_signal

SR = 22050


@pytest.fixture(scope="module")
def voiced_spec():
    cfg = StftConfig(sample_rate=SR)
    buf = AudioBuffer(harmonic_signal(duration=0.6), SR)
    return stft(buf, cfg), bark_layout(cfg)


def loss_pe_of(spec, layout):
    """Forward pass only: the PE loss of a complex spectrogram."""
    return perceptual_entropy(spec, analyze(spec, layout)).loss_pe


def full_pipeline_fd(spec, layout, coordinates, rel_step=1e-5, through_thresholds=True):
    """Central differences of the whole-clip PE loss, one coordinate at a time.

    The reference the frame-local checker is held to: each quotient
    perturbs one component of the full spectrogram and reruns the whole
    pipeline on it, assuming nothing about which frames a component
    reaches. Its own roundoff grows with the frame count, so it is only
    sharp on short clips.
    """
    components = np.stack([spec.frames.real, spec.frames.imag], axis=-1)
    frozen = analyze(spec, layout)

    def loss_at(values):
        rebuilt = Spectrogram(values[..., 0] + 1j * values[..., 1], spec.config)
        if not through_thresholds:
            return perceptual_entropy(rebuilt, frozen).loss_pe
        return loss_pe_of(rebuilt, layout)

    fd = []
    for frame, bin_idx, part in coordinates:
        value = components[frame, bin_idx, part]
        h = rel_step * abs(value)
        components[frame, bin_idx, part] = value + h
        loss_plus = loss_at(components)
        components[frame, bin_idx, part] = value - h
        loss_minus = loss_at(components)
        components[frame, bin_idx, part] = value
        fd.append((loss_plus - loss_minus) / (2.0 * h))
    return np.array(fd)


def reference_gradient(spec, analysis, through_thresholds):
    """The PE-loss gradient formed on whole (T, bins) arrays, term by term.

    The oracle for the fused, frame-blocked pe_gradient: the same
    derivation without reordering, factoring or blocking.
    """
    layout = analysis.layout
    re, im = spec.frames.real, spec.frames.imag
    k = layout.k
    bin_band = layout.band_of_bin()
    steps = np.sqrt(6.0 * analysis.masking_threshold / k)
    steps_bin = steps[:, bin_band]
    u_re = 2.0 * np.abs(re) / steps_bin + 1.0
    u_im = 2.0 * np.abs(im) / steps_bin + 1.0
    mean_pe = (np.log2(u_re) + np.log2(u_im)).sum(axis=1).mean()
    dl_dpe = -1.0 / ((1.0 + mean_pe) ** 2 * spec.n_frames)
    ln2, ln10 = np.log(2.0), np.log(10.0)

    dpe_dre = (2.0 / ln2) * np.sign(re) / (steps_bin * u_re)
    dpe_dim = (2.0 / ln2) * np.sign(im) / (steps_bin * u_im)
    if through_thresholds:
        dpe_dstep_bin = -(2.0 / ln2) / steps_bin**2 * (np.abs(re) / u_re + np.abs(im) / u_im)
        dpe_dstep = np.add.reduceat(dpe_dstep_bin, layout.lower_bins, axis=1)
        dpe_dthresh = dpe_dstep * 3.0 / (k * steps)

        gain = spreading_gain(layout)
        quiet = absolute_threshold(layout, spec.config)
        clamp_inactive = (analysis.spread_threshold / gain) >= quiet
        dpe_draw = np.where(clamp_inactive, dpe_dthresh / gain, 0.0)
        dpe_dspread = dpe_draw * 10.0 ** (-analysis.offset_db / 10.0)
        dpe_doffset = dpe_draw * (-(ln10 / 10.0) * analysis.spread_threshold)
        dpe_dalpha = dpe_doffset * (9.0 + np.arange(1, layout.n + 1))
        unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
        dpe_dflatness = np.where(unpinned, dpe_dalpha * (1.0 / SFM_DB_MAX), 0.0)

        power = re**2 + im**2
        floored = np.maximum(power, SFM_POWER_FLOOR)
        arith = np.add.reduceat(floored, layout.lower_bins, axis=1) / k
        coeff = dpe_dflatness * (10.0 / ln10) / k
        dpe_dfloored = coeff[:, bin_band] * (1.0 / floored - 1.0 / arith[:, bin_band])
        dpe_dpower = np.where(power >= SFM_POWER_FLOOR, dpe_dfloored, 0.0)
        dpe_dpower += (dpe_dspread @ spreading_kernel(layout))[:, bin_band]

        dpe_dre += dpe_dpower * 2.0 * re
        dpe_dim += dpe_dpower * 2.0 * im
    return dl_dpe * (dpe_dre + 1j * dpe_dim)


@pytest.fixture(scope="module")
def gapped_spec():
    """19 frames of six harmonics with every kink the gradient has.

    Three frames are exact zeros, the high bands sit at the absolute
    threshold clamp, frame 12 has every fifth bin shrunk to 1e-7, below
    the flatness power floor inside bands whose threshold passes
    gradient, and band 9 of frame 14 is one loud bin over a quiet rest,
    which pins its tonality at 1.
    """
    cfg = StftConfig(sample_rate=SR)
    layout = bark_layout(cfg)
    sig = harmonic_signal(duration=0.6, n_harmonics=6, noise=0.0)
    sig[4000:7000] = 0.0
    frames = stft(AudioBuffer(sig, SR), cfg).frames.copy()
    frames[12, ::5] = 1e-7 * (1 + 1j)
    lo, hi = layout.lower_bins[8], layout.upper_bins[8]
    frames[14, lo : hi + 1] = 1e-3
    frames[14, lo] = 1e3
    spec = Spectrogram(frames, cfg)
    analysis = analyze(spec, layout)
    silent = ~spec.frames.any(axis=1)
    clamped = analysis.spread_threshold / spreading_gain(layout) < absolute_threshold(layout, cfg)
    unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
    live = (~clamped & unpinned)[12, layout.band_of_bin()]
    assert silent.sum() == 3
    assert clamped[~silent].any() and not clamped[~silent].all()
    assert np.any(live & (spec.power()[12] < SFM_POWER_FLOOR))
    assert not clamped[14, 8] and analysis.sfm_db[14, 8] < SFM_DB_MAX
    return spec, layout


class TestFusedGradient:
    @pytest.mark.parametrize("through_thresholds", [True, False])
    @pytest.mark.parametrize("with_phase_source", [False, True])
    def test_matches_whole_clip_reference(
        self, gapped_spec, through_thresholds, with_phase_source
    ):
        spec, layout = gapped_spec
        phase_source = None
        if with_phase_source:
            other = AudioBuffer(harmonic_signal(duration=0.6, seed=7), SR)
            phase_source = stft(other, spec.config)
            spec = Spectrogram(np.abs(spec.frames).astype(complex), spec.config)
        got = pe_gradient(
            spec, layout, phase_source=phase_source, through_thresholds=through_thresholds
        ).grad
        rebuilt = spec
        if with_phase_source:
            rebuilt = Spectrogram(
                np.abs(spec.frames) * np.exp(1j * np.angle(phase_source.frames)), spec.config
            )
        want = reference_gradient(rebuilt, analyze(rebuilt, layout), through_thresholds)
        # Reordered roundoff only: the fused pass factors constants out and
        # forms 1/(step*u) once, which moves the last bits.
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_size_does_not_change_the_result(self, gapped_spec, monkeypatch):
        spec, layout = gapped_spec
        bins = spec.config.bins
        monkeypatch.setattr(pe, "BLOCK_ELEMENTS", spec.n_frames * bins)
        whole = pe_gradient(spec, layout)
        scale = np.abs(whole.grad).max()
        # 19 frames leave a lone last row for blocks of 2 and 3 rows.
        for rows in (1, 2, 3, 5, 8):
            monkeypatch.setattr(pe, "BLOCK_ELEMENTS", rows * bins)
            blocked = pe_gradient(spec, layout)
            forward = perceptual_entropy(spec, analyze(spec, layout))
            np.testing.assert_array_equal(blocked.pe.per_frame, whole.pe.per_frame)
            np.testing.assert_array_equal(forward.per_frame, whole.pe.per_frame)
            # The band spreading product is a matrix product per block, and
            # BLAS may round it differently for different row counts.
            assert np.abs(blocked.grad - whole.grad).max() <= 1e-15 * scale

    def test_memory_grows_at_most_twice_the_spectrum(self):
        # Beyond its output (one spectrum's worth) the gradient holds a
        # fixed number of frame blocks; the masking analysis it runs first
        # holds about 1.5 spectra of whole-clip temporaries.
        cfg = StftConfig(sample_rate=SR)
        layout = bark_layout(cfg)
        rng = np.random.default_rng(0)
        sizes = {}
        for seconds in (30, 120):
            t = np.arange(seconds * SR) / SR
            sig = 0.5 * np.sin(2 * np.pi * 220.0 * t) + 0.01 * rng.standard_normal(t.size)
            spec = stft(AudioBuffer(sig, SR), cfg)
            del t, sig
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                pe_gradient(spec, layout)
                sizes[seconds] = (tracemalloc.get_traced_memory()[1] - base, spec.n_frames)
            finally:
                tracemalloc.stop()
        (short_peak, short_frames), (long_peak, long_frames) = sizes[30], sizes[120]
        spectrum_frame_bytes = cfg.bins * np.dtype(np.complex128).itemsize
        assert long_peak - short_peak <= 2 * spectrum_frame_bytes * (long_frames - short_frames)


class TestFrameLocalFd:
    cfg = StftConfig(sample_rate=SR)

    def _spec(self, seed=42):
        return stft(AudioBuffer(harmonic_signal(duration=0.3, seed=seed), SR), self.cfg)

    @pytest.mark.parametrize("through_thresholds", [True, False])
    @pytest.mark.parametrize("with_phase_source", [False, True])
    def test_matches_full_pipeline_oracle(self, through_thresholds, with_phase_source):
        spec = self._spec()
        layout = bark_layout(self.cfg)
        phase_source = self._spec(seed=7) if with_phase_source else None
        check = check_gradient(
            spec, layout, n_coords=10, seed=1,
            phase_source=phase_source, through_thresholds=through_thresholds,
        )
        assert check.n_checked == 10
        rebuilt = spec
        if with_phase_source:
            phase = np.exp(1j * np.angle(phase_source.frames))
            rebuilt = Spectrogram(np.abs(spec.frames) * phase, self.cfg)
        reference = full_pipeline_fd(
            rebuilt, layout, check.coordinates, through_thresholds=through_thresholds
        )
        # The oracle's quotient of two whole-clip losses carries ~1e-7
        # relative roundoff on these 9 frames; a coordinate credited to the
        # wrong frame or component would be off by order 1.
        np.testing.assert_allclose(check.finite_differences, reference, rtol=1e-6)

    def test_row_blocks_do_not_change_the_result(self, monkeypatch):
        spec = self._spec()
        layout = bark_layout(self.cfg)
        whole = check_gradient(spec, layout, n_coords=60, seed=2)
        monkeypatch.setattr(pe, "FD_BLOCK_ROWS", 6)
        blocked = check_gradient(spec, layout, n_coords=60, seed=2)
        np.testing.assert_array_equal(blocked.coordinates, whole.coordinates)
        np.testing.assert_allclose(blocked.finite_differences, whole.finite_differences, rtol=1e-12)


class TestPeGradient:
    def test_zero_spectrum_gives_zero_gradient(self):
        cfg = StftConfig(sample_rate=SR)
        layout = bark_layout(cfg)
        spec = Spectrogram(np.zeros((3, cfg.bins), complex), cfg)
        report = pe_gradient(spec, layout)
        np.testing.assert_array_equal(report.grad, 0.0)

    def test_matches_finite_differences(self, voiced_spec):
        spec, layout = voiced_spec
        check = check_gradient(spec, layout, n_coords=100, seed=1)
        assert not check.all_kink
        assert check.n_checked == 100
        assert check.max_rel_err < 1e-4

    def test_check_deterministic_in_seed(self, voiced_spec):
        spec, layout = voiced_spec
        a = check_gradient(spec, layout, n_coords=20, seed=5)
        b = check_gradient(spec, layout, n_coords=20, seed=5)
        assert a.max_rel_err == b.max_rel_err
        assert a.worst == b.worst

    def test_radial_direction_is_flat(self, voiced_spec):
        # PE is scale invariant away from the clamps, so the derivative
        # along c*spec at c=1 vanishes.
        spec, layout = voiced_spec
        report = pe_gradient(spec, layout)
        directional = float(
            np.sum(report.grad.real * spec.frames.real + report.grad.imag * spec.frames.imag)
        )
        scale = np.linalg.norm(report.grad.view(np.float64)) * np.linalg.norm(
            spec.frames.view(np.float64)
        )
        assert abs(directional) < 1e-9 * scale

        h = 1e-4
        fd = (loss_pe_of(spec.scaled(1 + h), layout) - loss_pe_of(spec.scaled(1 - h), layout)) / (
            2 * h
        )
        assert abs(fd) < 1e-12

    def test_stop_gradient_matches_frozen_threshold_fd(self, voiced_spec):
        spec, layout = voiced_spec
        check = check_gradient(spec, layout, n_coords=40, seed=3, through_thresholds=False)
        assert check.max_rel_err < 1e-4

    def test_threshold_path_contributes(self, voiced_spec):
        spec, layout = voiced_spec
        full = pe_gradient(spec, layout, through_thresholds=True)
        frozen = pe_gradient(spec, layout, through_thresholds=False)
        assert np.abs(full.grad - frozen.grad).max() > 0

    def test_phase_source_reconstruction_matches_complex(self, voiced_spec):
        # mag*exp(i*angle) rebuilds exact zeros as ~1e-17, which flips the
        # subgradient sign right at the |x| = 0 kink, so compare off-kink.
        spec, layout = voiced_spec
        mag_only = Spectrogram(np.abs(spec.frames).astype(complex), spec.config)
        via_phase = pe_gradient(mag_only, layout, phase_source=spec)
        direct = pe_gradient(spec, layout)
        off_kink_re = np.abs(spec.frames.real) > 1e-12
        off_kink_im = np.abs(spec.frames.imag) > 1e-12
        np.testing.assert_allclose(
            via_phase.grad.real[off_kink_re], direct.grad.real[off_kink_re], rtol=1e-9
        )
        np.testing.assert_allclose(
            via_phase.grad.imag[off_kink_im], direct.grad.imag[off_kink_im], rtol=1e-9
        )

    @pytest.mark.parametrize("through_thresholds", [True, False])
    @pytest.mark.parametrize("with_phase_source", [False, True])
    def test_reports_the_pe_it_was_taken_at(
        self, voiced_spec, through_thresholds, with_phase_source
    ):
        spec, layout = voiced_spec
        phase_source = None
        if with_phase_source:
            phase_source = spec.scaled(-1.0)
            spec = Spectrogram(np.abs(spec.frames).astype(complex), spec.config)
        got = pe_gradient(
            spec, layout, phase_source=phase_source, through_thresholds=through_thresholds
        ).pe
        rebuilt = spec
        if with_phase_source:
            rebuilt = Spectrogram(
                np.abs(spec.frames) * np.exp(1j * np.angle(phase_source.frames)), spec.config
            )
        want = perceptual_entropy(rebuilt, analyze(rebuilt, layout))
        np.testing.assert_array_equal(got.per_frame, want.per_frame)
        assert got.mean_pe == want.mean_pe
        assert got.loss_pe == want.loss_pe

    def test_all_kink_vacuous_pass(self):
        cfg = StftConfig(sample_rate=SR)
        layout = bark_layout(cfg)
        spec = Spectrogram(np.zeros((2, cfg.bins), complex), cfg)
        check = check_gradient(spec, layout, n_coords=10)
        assert check.all_kink
        assert check.passed()
        assert check.max_rel_err == 0.0


class TestToyFit:
    cfg = StftConfig(sample_rate=SR)

    def _target(self, duration=0.4):
        return AudioBuffer(harmonic_signal(duration=duration), SR)

    def test_single_step_applies_one_gradient(self):
        target = self._target()
        record = toy_fit(
            target, LossConfig(lam=0.0), steps=1, learning_rate=0.1, seed=0, stft_cfg=self.cfg
        )
        assert len(record.l_sing_curve) == 2
        assert record.l_sing_curve[1] != record.l_sing_curve[0]

    def test_lambda_zero_still_records_pe_curve(self):
        record = toy_fit(
            self._target(), LossConfig(lam=0.0), steps=3, learning_rate=0.1, seed=0,
            stft_cfg=self.cfg,
        )
        assert len(record.mean_pe_curve) == 4
        assert all(np.isfinite(record.mean_pe_curve))

    def test_deterministic_for_fixed_seed(self):
        a = toy_fit(self._target(), LossConfig(lam=0.01), steps=5, learning_rate=0.1,
                    seed=9, stft_cfg=self.cfg)
        b = toy_fit(self._target(), LossConfig(lam=0.01), steps=5, learning_rate=0.1,
                    seed=9, stft_cfg=self.cfg)
        assert a.l_sing_curve == b.l_sing_curve
        assert a.mean_pe_curve == b.mean_pe_curve

    def test_regularized_arm_raises_final_pe(self):
        target = self._target(duration=0.5)
        reg = toy_fit(target, LossConfig(lam=0.01), steps=200, learning_rate=0.1,
                      seed=7, stft_cfg=self.cfg)
        base = toy_fit(target, LossConfig(lam=0.0), steps=200, learning_rate=0.1,
                       seed=7, stft_cfg=self.cfg)
        assert reg.final_mean_pe >= base.final_mean_pe
        assert abs(reg.final_l_sing - base.final_l_sing) <= 0.10 * base.final_l_sing

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError) as excinfo:
            toy_fit(self._target(), LossConfig(lam=0.0), steps=300, learning_rate=1e6,
                    stft_cfg=self.cfg)
        assert excinfo.value.step >= 0

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_one_masking_analysis_per_iterate(self, monkeypatch, lam):
        calls = []

        def counting_analyze(spec, layout):
            calls.append(spec.n_frames)
            return analyze(spec, layout)

        monkeypatch.setattr(pe, "analyze", counting_analyze)
        steps = 4
        toy_fit(self._target(), LossConfig(lam=lam), steps=steps, learning_rate=0.1,
                seed=0, stft_cfg=self.cfg)
        assert len(calls) == steps + 1

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            toy_fit(self._target(), LossConfig(), steps=0, learning_rate=0.1)
