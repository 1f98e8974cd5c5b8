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
from .signal_io import AudioBuffer, _buffer_source, _Source, _whole_rate, map_rows

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_FFT_SIZE = 1024
DEFAULT_HOP = 661  # ~29.98 ms at 22050 Hz
N_MELS = 80  # mel bands of every mel spectrum: the synthesis loss's and the MCD's
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
        object.__setattr__(self, "sample_rate", _whole_rate(self.sample_rate, "sample_rate"))

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
            raise ValueError(f"frames must be (T, {self.config.bins}) for fft_size "
                             f"{self.config.fft_size}, got {frames.shape}")
        if frames.size and not np.isfinite(frames).all():
            raise ValueError("spectrogram contains non-finite values")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    def power(self) -> np.ndarray:
        return _power(self.frames)


def _power(x: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """|x|^2 as two squares (x * conj(x) rounds by how rows are blocked), into out if given."""
    power = np.square(x.real, out=out)
    power += np.square(x.imag, out=scratch)
    return power


def _frame_source(source: _Source, cfg: StftConfig):
    """The STFT's frame count and block_of(rows, out), which writes frames `rows` into out.

    out is (rows, bins) complex128, and block_of returns it. A block of
    frames reads source samples [rows.start * hop, (rows.stop - 1) * hop
    + fft_size), and no row's bits depend on which rows share a block.
    """
    if source.sample_rate != cfg.sample_rate:
        raise ValueError(f"samples at {source.sample_rate} Hz, STFT config at {cfg.sample_rate} Hz")
    if source.size < cfg.fft_size:
        raise BufferTooShortError(f"need at least fft_size={cfg.fft_size} samples, got {source.size}")
    window, hop, fft = cfg.window_samples(), cfg.hop, cfg.fft_size

    def block_of(rows, out):
        x = source.read(rows.start * hop, (rows.stop - 1) * hop + fft)
        # A strided view of the contiguous samples: sliding_window_view
        # costs about 20 us more per block.
        frames = np.ndarray((rows.stop - rows.start, fft), np.float64, x, 0, (8 * hop, 8))
        return np.fft.rfft(frames * window, axis=1, out=out)

    return (source.size - fft) // hop + 1, block_of


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Windowed one-sided STFT without centering.

    Frame t covers samples [t*hop, t*hop + fft_size); trailing samples
    that do not fill a frame are dropped. buf must be at cfg.sample_rate.
    """
    n_frames, block_of = _frame_source(_buffer_source(buf), cfg)
    out = np.empty((n_frames, cfg.bins), np.complex128)
    map_rows(lambda rows: block_of(rows, out[rows]), n_frames, cfg.fft_size)
    return Spectrogram(out, cfg)


def hz_to_mel(freq_hz) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=None)
def mel_filterbank(cfg: StftConfig) -> np.ndarray:
    """Triangular mel filterbank, shape (N_MELS, bins), built once per config and read-only.

    Center frequencies are mel-spaced from 0 Hz to Nyquist. Filters are
    normalized to unit peak, not unit area.
    """
    nyquist = cfg.sample_rate / 2.0
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(nyquist), N_MELS + 2)
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


def mel_spectrogram(spec: Spectrogram) -> np.ndarray:
    """Mel-band energies of the power spectrum |X|^2, shape (n_frames, N_MELS)."""
    return spec.power() @ mel_filterbank(spec.config).T


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
