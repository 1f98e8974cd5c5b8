import numpy as np
import pytest

from peaudio import pe
from peaudio.pe import check_gradient, pe_gradient, perceptual_entropy, toy_fit
from peaudio.pe import LossConfig
from peaudio.errors import DivergenceError
from peaudio.psychoacoustic import analyze, bark_layout
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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
