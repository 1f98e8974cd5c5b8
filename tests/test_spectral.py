import numpy as np
import pytest
import scipy.fft

from peaudio.errors import BufferTooShortError, InvalidRateError
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import (
    N_MELS,
    Spectrogram,
    StftConfig,
    mel_cepstrum,
    mel_filterbank,
    mel_spectrogram,
    stft,
)

from conftest import harmonic_signal


def gathered_stft(x, cfg):
    """The STFT framed by gathering through a (T, fft_size) index matrix.

    The straightforward construction the strided framing in the library
    must reproduce bit for bit.
    """
    n_frames = 1 + (x.size - cfg.fft_size) // cfg.hop
    idx = cfg.hop * np.arange(n_frames)[:, None] + np.arange(cfg.fft_size)[None, :]
    return scipy.fft.rfft(x[idx] * cfg.window_samples(), axis=1)


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.fft_size == 1024
        assert cfg.hop == 661
        assert cfg.bins == 513

    @pytest.mark.parametrize("fft_size", [0, 1, 3, 100, 1000])
    def test_rejects_non_power_of_two(self, fft_size):
        with pytest.raises(ValueError):
            StftConfig(fft_size=fft_size, hop=1)

    def test_rejects_hop_out_of_range(self):
        with pytest.raises(ValueError):
            StftConfig(fft_size=64, hop=0)
        with pytest.raises(ValueError):
            StftConfig(fft_size=64, hop=65)

    @pytest.mark.parametrize("rate", [0, -1, 1.5, float("nan"), float("inf"), True])
    def test_rejects_bad_sample_rate(self, rate):
        with pytest.raises(InvalidRateError, match="sample_rate must be a positive integer"):
            StftConfig(sample_rate=rate)

    def test_stores_a_whole_float_rate_as_int(self):
        cfg = StftConfig(sample_rate=16000.0)
        assert type(cfg.sample_rate) is int and cfg == StftConfig(sample_rate=16000)


class TestSpectrogram:
    def test_rejects_wrong_bin_count(self):
        with pytest.raises(ValueError, match=r"must be \(T, 33\) for fft_size 64, got \(2, 32\)"):
            Spectrogram(np.zeros((2, 32)), StftConfig(fft_size=64, hop=32))

    def test_rejects_nan(self):
        frames = np.zeros((2, 33), complex)
        frames[1, 3] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="spectrogram contains non-finite values"):
            Spectrogram(frames, StftConfig(fft_size=64, hop=32))


class TestStft:
    def test_dc_only(self):
        # The periodic Hann window of 8 points is 0.5 - 0.5 cos(2 pi n / 8):
        # a frame of ones puts sum(window) = 4 into bin 0 and -2 into bin 1.
        cfg = StftConfig(fft_size=8, hop=8, sample_rate=8000)
        spec = stft(AudioBuffer(np.ones(8), 8000), cfg)
        assert spec.n_frames == 1
        np.testing.assert_allclose(spec.frames[0], [4, -2, 0, 0, 0], atol=1e-12)

    def test_pure_cosine_bin3(self):
        # The window's bins shifted by +-3: the Nyquist bin 4 takes both images.
        cfg = StftConfig(fft_size=8, hop=8, sample_rate=8000)
        x = np.cos(2 * np.pi * 3 * np.arange(8) / 8)
        spec = stft(AudioBuffer(x, 8000), cfg)
        np.testing.assert_allclose(spec.frames[0], [0, 0, -1, 2, -2], atol=1e-12)

    def test_buffer_too_short(self):
        cfg = StftConfig(fft_size=64, hop=16, sample_rate=8000)
        with pytest.raises(BufferTooShortError):
            stft(AudioBuffer(np.zeros(63), 8000), cfg)

    def test_samples_at_another_rate(self):
        # Framing 44.1 kHz samples under a 22.05 kHz config would label its bins wrongly.
        with pytest.raises(ValueError, match="44100 Hz.*22050 Hz"):
            stft(AudioBuffer(np.zeros(4096), 44100), StftConfig())

    def test_parseval_every_frame(self):
        # Windowed-frame energy equals the one-sided spectral sum / N.
        rng = np.random.default_rng(11)
        x = rng.uniform(-0.9, 0.9, 4000)
        cfg = StftConfig(fft_size=256, hop=100, sample_rate=8000)
        spec = stft(AudioBuffer(x, 8000), cfg)
        w = cfg.window_samples()
        for t in range(spec.n_frames):
            frame = x[t * cfg.hop : t * cfg.hop + cfg.fft_size] * w
            time_energy = np.sum(frame**2)
            mags = np.abs(spec.frames[t]) ** 2
            spectral = (mags[0] + 2 * mags[1:-1].sum() + mags[-1]) / cfg.fft_size
            np.testing.assert_allclose(spectral, time_energy, rtol=1e-9)

    def test_hop_shift_matches_frame_shift(self):
        x = harmonic_signal(duration=0.3)
        cfg = StftConfig(fft_size=512, hop=160, sample_rate=22050)
        full = stft(AudioBuffer(x, 22050), cfg)
        shifted = stft(AudioBuffer(x[cfg.hop :], 22050), cfg)
        np.testing.assert_allclose(
            shifted.frames, full.frames[1 : 1 + shifted.n_frames], atol=1e-12
        )

    @pytest.mark.parametrize(
        "fft_size, hop, n_samples",
        [
            (512, 160, 4000),  # hop < fft_size
            (256, 256, 4096),  # hop == fft_size, frames tile the signal
            (1024, 661, 1024),  # exactly one frame
            (1024, 661, 1024 + 3 * 661 + 660),  # trailing samples fill no frame
            (64, 1, 300),  # every sample starts a frame
        ],
    )
    def test_strided_framing_matches_gather(self, fft_size, hop, n_samples):
        x = np.random.default_rng(fft_size + hop).uniform(-1, 1, n_samples)
        cfg = StftConfig(fft_size=fft_size, hop=hop, sample_rate=22050)
        expected = gathered_stft(x, cfg)
        got = stft(AudioBuffer(x, 22050), cfg).frames
        assert got.shape == expected.shape == (1 + (n_samples - fft_size) // hop, cfg.bins)
        assert np.array_equal(got, expected)


class TestMel:
    cfg = StftConfig(fft_size=256, hop=128, sample_rate=22050)

    def test_zero_spectrogram_gives_zero_mel(self):
        spec = Spectrogram(np.zeros((3, self.cfg.bins), dtype=complex), self.cfg)
        mel = mel_spectrogram(spec)
        assert mel.shape == (3, N_MELS)
        np.testing.assert_array_equal(mel, 0.0)

    def test_single_bin_impulse_reads_filter_column(self):
        weights = mel_filterbank(self.cfg)
        frames = np.zeros((1, self.cfg.bins), dtype=complex)
        frames[0, 37] = 1.0  # unit power in one bin
        mel = mel_spectrogram(Spectrogram(frames, self.cfg))
        np.testing.assert_allclose(mel[0], weights[:, 37])

    def test_flat_power_gives_filter_areas(self):
        weights = mel_filterbank(self.cfg)
        areas = weights.sum(axis=1)  # independent per-filter weight sums
        frames = np.ones((1, self.cfg.bins), dtype=complex)
        mel = mel_spectrogram(Spectrogram(frames, self.cfg))
        np.testing.assert_allclose(mel[0], areas, rtol=1e-12)

    def test_unit_peak_normalization(self):
        weights = mel_filterbank(self.cfg)
        assert weights.max() <= 1.0 + 1e-12
        assert weights.min() >= 0.0

    def test_built_once_and_read_only(self):
        weights = mel_filterbank(self.cfg)
        assert mel_filterbank(StftConfig(fft_size=256, hop=128, sample_rate=22050)) is weights
        assert not weights.flags.writeable
        fresh = mel_filterbank.__wrapped__(self.cfg)
        assert fresh is not weights
        assert fresh.tobytes() == weights.tobytes()


class TestMelCepstrum:
    def test_all_ones_frame_gives_zero_coeffs(self):
        cep = mel_cepstrum(np.ones((2, 32)))
        assert cep.shape == (2, 25)
        assert np.abs(cep).max() < 1e-6

    def test_dct_basis_vector_recovered(self):
        n = 32
        k = 5
        basis = scipy.fft.idct(np.eye(n)[k], norm="ortho")
        cep = mel_cepstrum(np.exp(basis)[None, :])
        expected = np.zeros(n)
        expected[k] = 1.0
        np.testing.assert_allclose(cep[0], expected[:25], atol=1e-8)

    def test_roundtrip_recovers_log_mel(self):
        rng = np.random.default_rng(9)
        frames = rng.uniform(0.1, 10.0, (4, 25))
        cep = mel_cepstrum(frames)
        recovered = scipy.fft.idct(cep, norm="ortho", axis=1)
        np.testing.assert_allclose(recovered, np.log(frames + 1e-10), atol=1e-9)

    def test_rejects_too_many_coeffs(self):
        with pytest.raises(ValueError):
            mel_cepstrum(np.ones((1, 24)))

    def test_row_blocks_give_the_whole_bits(self):
        # No bit of a row may depend on the other rows of the call.
        rng = np.random.default_rng(11)
        mel = rng.uniform(1e-6, 50.0, (333, 80))
        whole = mel_cepstrum(mel)
        for rows in (1, 2, 7, 64, 100, 332):
            blocks = [mel_cepstrum(mel[a : a + rows]) for a in range(0, mel.shape[0], rows)]
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), rows

    @pytest.mark.parametrize("n_mels", [25, 32, 80, 128])
    def test_agrees_with_scipy_dct(self, n_mels):
        rng = np.random.default_rng(n_mels)
        mel = rng.uniform(1e-6, 50.0, (200, n_mels))
        mel[0] = 0.0  # a silent frame: every band at the log floor
        want = scipy.fft.dct(np.log(mel + 1e-10), type=2, norm="ortho", axis=1)[:, :25]
        got = mel_cepstrum(mel)
        # Within 1e-13 of each row's largest coefficient.
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=1, keepdims=True))


class TestWindows:
    def test_bit_identical_to_scipy_signal(self):
        # The library builds its window without scipy.signal; the tests
        # may import it as the reference.
        import scipy.signal

        for n in (2**e for e in range(1, 17)):
            ours = StftConfig(fft_size=n, hop=1).window_samples()
            reference = scipy.signal.get_window("hann", n, fftbins=True)
            assert ours.dtype == np.float64
            assert np.array_equal(ours, reference), n
