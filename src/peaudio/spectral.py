"""Short-time spectral analysis: STFT, mel filterbank, cepstrum.

Conventions: one-sided spectra (fft_size/2 + 1 bins), unnormalized
forward DFT (a constant frame of ones puts sum(window) into bin 0),
frame t covering samples [t*hop, t*hop + fft_size) with no centering
pad, every frame weighted by the periodic Hann window.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BufferTooShortError
from .signal_io import AudioBuffer, map_blocks, row_blocks, rows_per_block

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_FFT_SIZE = 1024
DEFAULT_HOP = 661  # ~29.98 ms at 22050 Hz
DEFAULT_N_MELS = 80
DEFAULT_N_CEPSTRA = 25
LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for short-time analysis.

    fft_size must be a power of two and at least hop. Every frame is
    weighted by the periodic (DFT-even) Hann window, window_samples().
    """

    fft_size: int = DEFAULT_FFT_SIZE
    hop: int = DEFAULT_HOP
    sample_rate: int = DEFAULT_SAMPLE_RATE

    def __post_init__(self):
        if self.fft_size < 2 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise ValueError(f"fft_size must be a power of two >= 2, got {self.fft_size}")
        if not 1 <= self.hop <= self.fft_size:
            raise ValueError(f"hop must satisfy 1 <= hop <= fft_size, got {self.hop}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")

    @property
    def bins(self) -> int:
        return self.fft_size // 2 + 1

    def window_samples(self) -> np.ndarray:
        """The periodic (DFT-even) Hann window: fft_size + 1 symmetric points, last one dropped.

        The same recipe, and so the same bits, as SciPy's
        get_window("hann", fft_size, fftbins=True).
        """
        return (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, self.fft_size + 1)))[:-1]

    def bin_frequencies(self) -> np.ndarray:
        """Center frequency of each one-sided bin in Hz."""
        return np.arange(self.bins) * (self.sample_rate / self.fft_size)


@dataclass(frozen=True)
class Spectrogram:
    """Complex short-time spectrum, frames laid out as (n_frames, bins)."""

    frames: np.ndarray
    config: StftConfig

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        object.__setattr__(self, "frames", frames)
        if frames.ndim != 2 or frames.shape[1] != self.config.bins:
            raise ValueError(
                f"frames must be (T, {self.config.bins}) for fft_size {self.config.fft_size}, "
                f"got {frames.shape}"
            )
        if frames.size and not np.isfinite(frames).all():
            raise ValueError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def power(self) -> np.ndarray:
        return self.frames.real**2 + self.frames.imag**2


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Windowed one-sided STFT without centering.

    Frame t covers samples [t*hop, t*hop + fft_size); trailing samples
    that do not fill a frame are dropped.
    """
    x = buf.samples
    if x.size < cfg.fft_size:
        raise BufferTooShortError(
            f"need at least fft_size={cfg.fft_size} samples, got {x.size}"
        )
    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.fft_size)[:: cfg.hop]
    window = cfg.window_samples()
    out = np.empty((frames.shape[0], cfg.bins), np.complex128)

    def transform(block):
        np.fft.rfft(frames[block] * window, axis=1, out=out[block])

    map_blocks(transform, row_blocks(frames.shape[0], rows_per_block(cfg.fft_size)))
    return Spectrogram(out, cfg)


def hz_to_mel(freq_hz) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(cfg: StftConfig, n_mels: int) -> np.ndarray:
    """Triangular mel filterbank, shape (n_mels, bins), built once per (cfg, n_mels) and read-only.

    Center frequencies are mel-spaced from 0 Hz to Nyquist. Filters are
    normalized to unit peak, not unit area.
    """
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    nyquist = cfg.sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    freqs = cfg.bin_frequencies()

    left = hz_points[:-2, None]
    center = hz_points[1:-1, None]
    right = hz_points[2:, None]
    rising = (freqs[None, :] - left) / np.maximum(center - left, 1e-30)
    falling = (right - freqs[None, :]) / np.maximum(right - center, 1e-30)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    return weights


def mel_from_power(power: np.ndarray, weights: np.ndarray, out=None) -> np.ndarray:
    """Apply a filterbank to power-spectrum rows; linear in the power."""
    return np.matmul(power, weights.T, out=out)


def mel_spectrogram(spec: Spectrogram, n_mels: int = DEFAULT_N_MELS) -> np.ndarray:
    """Mel-band energies of the power spectrum |X|^2, shape (n_frames, n_mels)."""
    return mel_from_power(spec.power(), mel_filterbank(spec.config, n_mels))


def mel_cepstrum(mel: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II of log(mel + 1e-10) along each row, first DEFAULT_N_CEPSTRA columns.

    The DCT is the FFT of each reordered row (even samples, then odd
    ones reversed), turned by a quarter-sample phase (Makhoul, IEEE
    TASSP 28(1), 1980). It agrees with scipy.fft.dct(x, type=2,
    norm="ortho") to within a few ULPs of each row's largest
    coefficient, and no bit of a row depends on the other rows.
    """
    n = mel.shape[1]
    if n < DEFAULT_N_CEPSTRA:
        raise ValueError(f"need at least {DEFAULT_N_CEPSTRA} mel bands, got {n}")
    log_mel = np.log(mel + LOG_FLOOR)
    reordered = np.concatenate((log_mel[:, 0::2], log_mel[:, 1::2][:, ::-1]), axis=1)
    k = np.arange(DEFAULT_N_CEPSTRA)
    # The rfft holds bins 0..n//2; bin k above that is the conjugate of bin n - k.
    spectrum = np.fft.rfft(reordered, axis=1)[:, np.minimum(k, n - k)]
    conjugate = np.where(k > n // 2, -1.0, 1.0)
    scale = np.where(k == 0, np.sqrt(1.0 / n), np.sqrt(2.0 / n))
    phase = np.pi * k / (2 * n)
    # Re(exp(-i phase) X) as two real products: numpy's complex product
    # may round differently in its vector and scalar paths.
    return spectrum.real * (np.cos(phase) * scale) + spectrum.imag * (
        np.sin(phase) * scale * conjugate
    )
