import tracemalloc

import numpy as np
import pytest

from peaudio import pe, psychoacoustic, signal_io
from peaudio.pe import FD_REL_STEP, check_gradient, fit_target, pe_gradient, perceptual_entropy
from peaudio.pe import FitRecord, LossConfig, toy_fit
from peaudio.errors import DegenerateThresholdError, DivergenceError
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
from peaudio.spectral import Spectrogram, StftConfig, mel_filterbank, stft

from conftest import band_of_bin, harmonic_signal, scaled

SR = 22050


@pytest.fixture(scope="module")
def voiced_spec():
    cfg = StftConfig(sample_rate=SR)
    buf = AudioBuffer(harmonic_signal(duration=0.6), SR)
    return stft(buf, cfg)


def loss_pe_of(spec):
    """Forward pass only: the PE loss of a complex spectrogram."""
    return perceptual_entropy(spec, analyze(spec)).loss_pe


def full_pipeline_fd(spec, coordinates):
    """Central differences of the whole-clip PE loss, one coordinate at a time.

    The reference the frame-local checker is held to: each quotient
    perturbs one component of the full spectrogram and reruns the whole
    pipeline on it, assuming nothing about which frames a component
    reaches. Its own roundoff grows with the frame count, so it is only
    sharp on short clips.
    """
    components = np.stack([spec.frames.real, spec.frames.imag], axis=-1)

    def loss_at(values):
        return loss_pe_of(Spectrogram(values[..., 0] + 1j * values[..., 1], spec.config))

    fd = []
    for frame, bin_idx, part in coordinates:
        value = components[frame, bin_idx, part]
        h = FD_REL_STEP * abs(value)
        components[frame, bin_idx, part] = value + h
        loss_plus = loss_at(components)
        components[frame, bin_idx, part] = value - h
        loss_minus = loss_at(components)
        components[frame, bin_idx, part] = value
        fd.append((loss_plus - loss_minus) / (2.0 * h))
    return np.array(fd)


def reference_gradient(spec, analysis):
    """The PE-loss gradient formed on whole (T, bins) arrays, term by term.

    The oracle for the fused, frame-blocked pe_gradient: the same
    derivation without reordering, factoring or blocking.
    """
    layout = bark_layout(spec.config)
    re, im = spec.frames.real, spec.frames.imag
    k = layout.k
    bin_band = band_of_bin(layout)
    steps = np.sqrt(6.0 * analysis.masking_threshold / k)
    steps_bin = steps[:, bin_band]
    u_re = 2.0 * np.abs(re) / steps_bin + 1.0
    u_im = 2.0 * np.abs(im) / steps_bin + 1.0
    mean_pe = (np.log2(u_re) + np.log2(u_im)).sum(axis=1).mean()
    dl_dpe = -1.0 / ((1.0 + mean_pe) ** 2 * spec.n_frames)
    ln2, ln10 = np.log(2.0), np.log(10.0)

    dpe_dre = (2.0 / ln2) * np.sign(re) / (steps_bin * u_re)
    dpe_dim = (2.0 / ln2) * np.sign(im) / (steps_bin * u_im)
    dpe_dstep_bin = -(2.0 / ln2) / steps_bin**2 * (np.abs(re) / u_re + np.abs(im) / u_im)
    dpe_dstep = np.add.reduceat(dpe_dstep_bin, layout.lower_bins, axis=1)
    dpe_dthresh = dpe_dstep * 3.0 / (k * steps)

    gain = spreading_gain(spec.config)
    quiet = absolute_threshold(spec.config)
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
    dpe_dpower += (dpe_dspread @ spreading_kernel(spec.config))[:, bin_band]

    dpe_dre += dpe_dpower * 2.0 * re
    dpe_dim += dpe_dpower * 2.0 * im
    return dl_dpe * (dpe_dre + 1j * dpe_dim)


def reference_toy_fit(target, cfg, steps, learning_rate, seed):
    """toy_fit's descent in the spectrum domain, written from the public API.

    The oracle for the walk-fused toy_fit: each iterate builds its
    complex prediction, takes the PE gradient of it where the PE term
    moves the next step (the plain forward pass elsewhere), and projects
    that gradient onto the magnitude after scaling it.
    """
    weights = mel_filterbank(target.config)
    cos_phi, sin_phi = target.phase.real, target.phase.imag
    mag = np.random.default_rng(seed).uniform(1e-4, 1e-2, target.magnitude.shape)
    record = FitRecord(lam=cfg.lam, steps=steps, learning_rate=learning_rate, seed=seed)
    for step in range(steps + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            mel_err = np.square(mag) @ weights.T - target.mel
            linear_err = mag - target.magnitude
            l_sing = float(np.mean(np.abs(linear_err)) + np.mean(np.abs(mel_err)))
        if not np.isfinite(l_sing):
            raise DivergenceError(step)
        pred = Spectrogram(target.phase * mag, target.config)
        if cfg.lam > 0 and step < steps:
            report = pe_gradient(pred)
            pe_result = report.pe
        else:
            pe_result = perceptual_entropy(pred, analyze(pred))
        record.l_sing_curve.append(l_sing)
        record.loss_pe_curve.append(pe_result.loss_pe)
        record.mean_pe_curve.append(pe_result.mean_pe)
        if not np.isfinite(l_sing + cfg.lam * pe_result.loss_pe):
            raise DivergenceError(step)
        if step == steps:
            return record
        grad = np.sign(linear_err) / mag.size
        grad += ((np.sign(mel_err) / mel_err.size) @ weights) * (2.0 * mag)
        if cfg.lam > 0:
            grad += cfg.lam * (report.grad.real * cos_phi + report.grad.imag * sin_phi)
        with np.errstate(over="ignore", invalid="ignore"):
            mag = mag - learning_rate * grad


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
    analysis = analyze(spec)
    silent = ~spec.frames.any(axis=1)
    clamped = analysis.spread_threshold / spreading_gain(cfg) < absolute_threshold(cfg)
    unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
    live = (~clamped & unpinned)[12, band_of_bin(layout)]
    assert silent.sum() == 3
    assert clamped[~silent].any() and not clamped[~silent].all()
    assert np.any(live & (spec.power()[12] < SFM_POWER_FLOOR))
    assert not clamped[14, 8] and analysis.sfm_db[14, 8] < SFM_DB_MAX
    return spec


class TestFusedGradient:
    def test_matches_whole_clip_reference(self, gapped_spec):
        spec = gapped_spec
        got = pe_gradient(spec).grad
        want = reference_gradient(spec, analyze(spec))
        # Reordered roundoff only: the fused pass factors constants out and
        # forms 1/(step*u) once, which moves the last bits.
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_block_size_does_not_change_the_result(self, gapped_spec, monkeypatch):
        spec = gapped_spec
        bins = spec.config.bins
        monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", spec.n_frames * bins)
        whole = pe_gradient(spec)
        # 19 frames leave a lone last row for blocks of 2 and 3 rows.
        for rows in (1, 2, 3, 5, 7, 8, 63):
            monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * bins)
            blocked = pe_gradient(spec)
            forward = perceptual_entropy(spec, analyze(spec))
            np.testing.assert_array_equal(blocked.pe.per_frame, whole.pe.per_frame)
            np.testing.assert_array_equal(forward.per_frame, whole.pe.per_frame)
            np.testing.assert_array_equal(blocked.grad, whole.grad)

    def test_memory_grows_at_most_twice_the_spectrum(self):
        # Beyond its output (one spectrum's worth) and the per-frame PE the
        # gradient holds a fixed number of frame blocks: each block forms
        # its own masking analysis.
        cfg = StftConfig(sample_rate=SR)
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
                pe_gradient(spec)
                sizes[seconds] = (tracemalloc.get_traced_memory()[1] - base, spec.n_frames)
            finally:
                tracemalloc.stop()
        (short_peak, short_frames), (long_peak, long_frames) = sizes[30], sizes[120]
        spectrum_frame_bytes = cfg.bins * np.dtype(np.complex128).itemsize
        assert long_peak - short_peak <= 2 * spectrum_frame_bytes * (long_frames - short_frames)

    @pytest.mark.parametrize("big", [(3, 40), (slice(None), slice(None))], ids=["one", "every"])
    def test_raises_where_perceptual_entropy_does(self, voiced_spec, big):
        # Components of 1e200 overflow their bin powers to inf, which makes
        # their band's flatness, and so its threshold, NaN.
        frames = voiced_spec.frames.copy()
        frames[big] = 1e200
        spec = Spectrogram(frames, voiced_spec.config)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DegenerateThresholdError):
                perceptual_entropy(spec, analyze(spec))
            with pytest.raises(DegenerateThresholdError):
                pe_gradient(spec)


class TestFrameLocalFd:
    cfg = StftConfig(sample_rate=SR)

    def _spec(self):
        return stft(AudioBuffer(harmonic_signal(duration=0.3), SR), self.cfg)

    def test_matches_full_pipeline_oracle(self):
        spec = self._spec()
        check = check_gradient(spec, n_coords=10, seed=1)
        assert check.n_checked == 10
        reference = full_pipeline_fd(spec, check.coordinates)
        # The oracle's quotient of two whole-clip losses carries ~1e-7
        # relative roundoff on these 9 frames; a coordinate credited to the
        # wrong frame or component would be off by order 1.
        np.testing.assert_allclose(check.finite_differences, reference, rtol=1e-6)

    def test_row_blocks_do_not_change_the_result(self, monkeypatch):
        # 120 perturbed rows, walked in blocks of 1, 2, 7 and 63 rows (a
        # ragged last block at 7 and 63), at the default parallel
        # threshold and at 2 blocks, which maps every walk of two blocks
        # or more over the pool.
        spec = self._spec()
        bins = spec.config.bins
        whole = check_gradient(spec, n_coords=60, seed=2)
        assert whole.n_checked == 60
        default = signal_io.PARALLEL_MIN_BLOCKS
        for rows in (1, 2, 7, 63):
            for min_blocks in (default, 2):
                monkeypatch.setattr(signal_io, "BLOCK_ELEMENTS", rows * bins)
                monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", min_blocks)
                blocked = check_gradient(spec, n_coords=60, seed=2)
                np.testing.assert_array_equal(blocked.coordinates, whole.coordinates)
                np.testing.assert_array_equal(
                    blocked.finite_differences, whole.finite_differences
                )

    def test_checker_runs_two_walks(self, monkeypatch):
        # The gradient's walk over the clip's T frames, then one
        # forward-only walk over the two perturbed copies of each checked
        # component's frame; no masking analysis of its own.
        calls = []
        walk = pe._pe_walk

        def counting(cfg, n_frames, block_of, finish=None):
            calls.append((n_frames, finish))
            return walk(cfg, n_frames, block_of, finish)

        def forbidden(*args):
            raise AssertionError("the checker ran the two-map forward pass")

        monkeypatch.setattr(pe, "_pe_walk", counting)
        monkeypatch.setattr(pe, "perceptual_entropy", forbidden)
        for module in (pe, psychoacoustic):
            monkeypatch.setattr(module, "analyze", forbidden, raising=False)
        spec = self._spec()
        check = check_gradient(spec, n_coords=30, seed=4)
        assert check.n_checked == 30
        assert len(calls) == 2
        (frames, finish), (rows, fd_finish) = calls
        assert frames == spec.n_frames and finish is not None
        assert rows == 2 * check.n_checked and fd_finish is None


class TestPeGradient:
    def test_zero_spectrum_gives_zero_gradient(self):
        cfg = StftConfig(sample_rate=SR)
        spec = Spectrogram(np.zeros((3, cfg.bins), complex), cfg)
        report = pe_gradient(spec)
        np.testing.assert_array_equal(report.grad, 0.0)

    def test_matches_finite_differences(self, voiced_spec):
        spec = voiced_spec
        check = check_gradient(spec, n_coords=100, seed=1)
        assert not check.all_kink
        assert check.n_checked == 100
        assert check.max_rel_err < 1e-4

    def test_check_deterministic_in_seed(self, voiced_spec):
        spec = voiced_spec
        a = check_gradient(spec, n_coords=20, seed=5)
        b = check_gradient(spec, n_coords=20, seed=5)
        assert a.max_rel_err == b.max_rel_err
        assert a.worst == b.worst

    def test_radial_direction_is_flat(self, voiced_spec):
        # PE is scale invariant away from the clamps, so the derivative
        # along c*spec at c=1 vanishes.
        spec = voiced_spec
        report = pe_gradient(spec)
        directional = float(
            np.sum(report.grad.real * spec.frames.real + report.grad.imag * spec.frames.imag)
        )
        scale = np.linalg.norm(report.grad.view(np.float64)) * np.linalg.norm(
            spec.frames.view(np.float64)
        )
        assert abs(directional) < 1e-9 * scale

        h = 1e-4
        up, down = scaled(spec, 1 + h), scaled(spec, 1 - h)
        fd = (loss_pe_of(up) - loss_pe_of(down)) / (2 * h)
        assert abs(fd) < 1e-12

    def test_reports_the_pe_it_was_taken_at(self, voiced_spec):
        spec = voiced_spec
        got = pe_gradient(spec).pe
        want = perceptual_entropy(spec, analyze(spec))
        np.testing.assert_array_equal(got.per_frame, want.per_frame)
        assert got.mean_pe == want.mean_pe
        assert got.loss_pe == want.loss_pe

    def test_all_kink_vacuous_pass(self):
        cfg = StftConfig(sample_rate=SR)
        spec = Spectrogram(np.zeros((2, cfg.bins), complex), cfg)
        check = check_gradient(spec, n_coords=10)
        assert check.all_kink
        assert check.passed()
        assert check.max_rel_err == 0.0

    def test_zero_exact_gradient_passes_vacuously(self):
        # The 2-point periodic Hann window is [0, 1], so |DC| = |Nyquist| in
        # every frame and every band sits on the flat-band kink (sfm = 0):
        # the exact gradient is 0. Its ~1e-17 roundoff partials once passed
        # the relative resolvability guard and failed against ~1e-12
        # difference quotients with rel_err 1.
        cfg = StftConfig(fft_size=2, hop=2, sample_rate=100)
        sig = np.random.default_rng(0).uniform(-0.5, 0.5, 25)
        spec = stft(AudioBuffer(sig, 100), cfg)
        assert np.all(analyze(spec).sfm_db == 0.0)
        assert np.abs(pe_gradient(spec).grad).max() < 1e-15
        check = check_gradient(spec, n_coords=5)
        assert check.all_kink and check.passed()
        assert check.n_checked == check.n_eligible == 0

    @pytest.mark.parametrize("n_coords", [0, -3])
    def test_rejects_fewer_than_one_coordinate(self, voiced_spec, n_coords):
        # Unchecked, 0 died in numpy's argmax of an empty sequence and a
        # negative count in an array constructor.
        spec = voiced_spec
        with pytest.raises(ValueError, match=f"n_coords must be >= 1, got {n_coords}"):
            check_gradient(spec, n_coords=n_coords)


class TestToyFit:
    cfg = StftConfig(sample_rate=SR)

    def _target(self, duration=0.4):
        return fit_target(stft(AudioBuffer(harmonic_signal(duration=duration), SR), self.cfg))

    def test_single_step_applies_one_gradient(self):
        target = self._target()
        record = toy_fit(target, LossConfig(lam=0.0), steps=1, learning_rate=0.1, seed=0)
        assert len(record.l_sing_curve) == 2
        assert record.l_sing_curve[1] != record.l_sing_curve[0]

    def test_lambda_zero_still_records_pe_curve(self):
        record = toy_fit(self._target(), LossConfig(lam=0.0), steps=3, learning_rate=0.1, seed=0)
        assert len(record.mean_pe_curve) == 4
        assert all(np.isfinite(record.mean_pe_curve))

    def test_deterministic_for_fixed_seed(self):
        a = toy_fit(self._target(), LossConfig(lam=0.01), steps=5, learning_rate=0.1, seed=9)
        b = toy_fit(self._target(), LossConfig(lam=0.01), steps=5, learning_rate=0.1, seed=9)
        assert a.l_sing_curve == b.l_sing_curve
        assert a.mean_pe_curve == b.mean_pe_curve

    def test_regularized_arm_raises_final_pe(self):
        target = self._target(duration=0.5)
        reg = toy_fit(target, LossConfig(lam=0.01), steps=200, learning_rate=0.1, seed=7)
        base = toy_fit(target, LossConfig(lam=0.0), steps=200, learning_rate=0.1, seed=7)
        assert reg.final_mean_pe >= base.final_mean_pe
        assert abs(reg.final_l_sing - base.final_l_sing) <= 0.10 * base.final_l_sing

    def test_divergence_raises(self):
        with pytest.raises(DivergenceError) as excinfo:
            toy_fit(self._target(), LossConfig(lam=0.0), steps=300, learning_rate=1e6)
        assert excinfo.value.step >= 0

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_one_masking_analysis_per_iterate(self, monkeypatch, lam):
        # Each iterate walks its prediction's blocks once; where the PE
        # term moves the next step, that walk also projects the gradient.
        calls = []
        walk = pe._pe_walk

        def counting(*args):
            calls.append(args[-1])
            return walk(*args)

        monkeypatch.setattr(pe, "_pe_walk", counting)
        steps = 4
        toy_fit(self._target(), LossConfig(lam=lam), steps=steps, learning_rate=0.1, seed=0)
        assert len(calls) == steps + 1
        assert sum(finish is not None for finish in calls) == (steps if lam else 0)

    @pytest.mark.parametrize("lam, rtol", [(0.0, 0.0), (0.01, 1e-11), (1.0, 1e-11), (100.0, 1e-6)])
    def test_matches_the_spectrum_domain_reference(self, lam, rtol):
        # At lambda 0 the steps are the same ufuncs in the same order. With
        # lambda > 0 the PE term is rounded before its scale and added
        # before the mel term, which moves a step by a few ulps. At lambda
        # 100 the descent amplifies that about 2.5x per step through the
        # kinks of sign(mag - ref_mag) and the PE: 20 steps on harmonic
        # targets of 0.4-2 s moved curve values by 4e-12 to 9e-8.
        target = self._target(duration=0.5)
        got = toy_fit(target, LossConfig(lam=lam), steps=20, learning_rate=0.1, seed=3)
        want = reference_toy_fit(target, LossConfig(lam=lam), steps=20, learning_rate=0.1, seed=3)
        for name in ("l_sing_curve", "loss_pe_curve", "mean_pe_curve"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=rtol, atol=0)

    @pytest.mark.parametrize("lam", [0.0, 0.01])
    def test_diverges_at_the_reference_step(self, lam):
        target = self._target()
        with pytest.raises(DivergenceError) as want:
            reference_toy_fit(target, LossConfig(lam=lam), steps=300, learning_rate=1e6, seed=0)
        with pytest.raises(DivergenceError) as got:
            toy_fit(target, LossConfig(lam=lam), steps=300, learning_rate=1e6, seed=0)
        assert got.value.step == want.value.step

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            toy_fit(self._target(), LossConfig(), steps=0, learning_rate=0.1)

    @pytest.mark.parametrize("rate", [0.0, -0.1, float("nan"), float("inf")])
    def test_rejects_learning_rate_outside_zero_to_inf(self, rate):
        # Unchecked, a negative rate ascended, 0 never moved and NaN
        # surfaced as a DivergenceError at step 1.
        with pytest.raises(ValueError, match="learning_rate must be finite and positive"):
            toy_fit(self._target(), LossConfig(), steps=1, learning_rate=rate)

    @staticmethod
    def _traced_growth(build, lams):
        """Traced growth, in bytes, of what build() makes plus each arm's peak while it fits that.

        The arms run one at a time on the calling thread, and their peaks
        are summed as if they coincided, so the figure cannot depend on how
        two arms' allocations interleave: it bounds both arms at once, on
        two threads, in one process.
        """
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            target = build()
            growth = tracemalloc.get_traced_memory()[0] - base
            for lam in lams:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                toy_fit(target, LossConfig(lam=lam), steps=2, learning_rate=0.1)
                growth += tracemalloc.get_traced_memory()[1] - before
            return growth
        finally:
            tracemalloc.stop()

    def _spectrum(self, seconds):
        rng = np.random.default_rng(0)
        t = np.arange(seconds * SR) / SR
        sig = 0.5 * np.sin(2 * np.pi * 220.0 * t) + 0.01 * rng.standard_normal(t.size)
        return stft(AudioBuffer(sig, SR), self.cfg)

    def test_two_arms_grow_at_most_five_spectra(self):
        # One shared reference (|X|, its phase and mel energies: 1.6
        # spectra per frame), and per arm the iterate, two step buffers
        # and the mel error (0.8); the complex prediction and the PE
        # gradient exist one block at a time. Each arm holding its
        # complex prediction, and the regularized arm its complex PE
        # gradient, grew by 7.9 on two threads.
        sizes, frames = {}, {}
        for seconds in (5, 20):
            spec = self._spectrum(seconds)
            frames[seconds] = spec.n_frames
            sizes[seconds] = self._traced_growth(lambda: fit_target(spec), [0.01, 0.0])
        spectrum_frame_bytes = self.cfg.bins * np.dtype(np.complex128).itemsize
        growth = (sizes[20] - sizes[5]) / (frames[20] - frames[5]) / spectrum_frame_bytes
        assert growth <= 5.0

    @pytest.mark.parametrize("lam", [0.01, 0.0])
    def test_one_arm_grows_at_most_two_and_a_half_spectra(self, lam):
        # Its three (T, bins) float arrays and the mel error are 1.6
        # spectra; the rest is the PE walk's block buffers, one set per
        # thread. With a complex prediction, and a complex PE gradient in
        # the regularized arm, an arm grew by 3.1 and 4.1.
        spec = self._spectrum(20)
        target = fit_target(spec)
        assert self._traced_growth(lambda: target, [lam]) / spec.frames.nbytes <= 2.5
