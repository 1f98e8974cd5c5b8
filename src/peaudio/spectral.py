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
from .signal_io import AudioBuffer, Workspace, _buffer_source, _Source, _whole_rate
from .signal_io import map_rows, row_blocks

DEFAULT_SAMPLE_RATE = 22050
DEFAULT_FFT_SIZE = 1024
DEFAULT_HOP = 661  # ~29.98 ms at 22050 Hz
N_MELS = 80  # mel bands of every mel spectrum: the synthesis loss's and the MCD's
DEFAULT_N_CEPSTRA = 25
LOG_FLOOR = 1e-10
# Rows of every mel product. A clip of more frames is formed in blocks
# of this many, the last of them its last MEL_BLOCK_FRAMES frames, so no
# frame's mel energies depend on the clip's length.
MEL_BLOCK_FRAMES = 128


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
        """|frames|^2, the imaginary parts squared one MEL_BLOCK_FRAMES block at a time."""
        power = np.empty(self.frames.shape)
        scratch = np.empty((min(MEL_BLOCK_FRAMES, self.n_frames), self.config.bins))
        for rows in row_blocks(self.n_frames, MEL_BLOCK_FRAMES):
            _power(self.frames[rows], power[rows], scratch[: rows.stop - rows.start])
        return power


def _power(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """|x|^2 as two squares (x * conj(x) rounds by how rows are blocked), into out."""
    power = np.square(x.real, out=out)
    power += np.square(x.imag, out=scratch)
    return power


def _frames(source: _Source, length: int, hop: int):
    """How many frames of length samples, hop apart, a source holds, and frames_of(rows).

    Frame t covers samples [t*hop, t*hop + length). frames_of(rows) is
    frames `rows`, a (rows, length) strided view of the one source.read
    of samples [rows.start * hop, (rows.stop - 1) * hop + length), so no
    row's bits depend on which rows share a block.
    """

    def frames_of(rows):
        x = source.read(rows.start * hop, (rows.stop - 1) * hop + length)
        # A strided view of the contiguous samples: numpy's windowing helper
        # costs about 20 us more per block.
        return np.ndarray((rows.stop - rows.start, length), np.float64, x, 0, (8 * hop, 8))

    return (1 + (source.size - length) // hop if source.size >= length else 0), frames_of


def _frame_source(source: _Source, cfg: StftConfig):
    """The STFT's frame count and block_of(rows, out), which writes frames `rows` into out.

    out is (rows, bins) complex128, and block_of returns it; the
    windowed frames go into windowed, (rows, fft_size) float64, if it is
    given. The frames are _frames' of the source.
    """
    if source.sample_rate != cfg.sample_rate:
        raise ValueError(f"samples at {source.sample_rate} Hz, STFT config at {cfg.sample_rate} Hz")
    if source.size < cfg.fft_size:
        raise BufferTooShortError(f"need at least fft_size={cfg.fft_size} samples, got {source.size}")
    window = cfg.window_samples()
    n_frames, frames_of = _frames(source, cfg.fft_size, cfg.hop)

    def block_of(rows, out, windowed=None):
        return np.fft.rfft(np.multiply(frames_of(rows), window, out=windowed), axis=1, out=out)

    return n_frames, block_of


def _spectrum(cfg: StftConfig, n_frames: int, block_of) -> Spectrogram:
    """The spectrogram of n_frames frames under cfg, each block written by a _frame_source's block_of."""
    out = np.empty((n_frames, cfg.bins), np.complex128)
    map_rows(lambda rows: block_of(rows, out[rows]), n_frames, cfg.fft_size)
    return Spectrogram(out, cfg)


def stft(buf: AudioBuffer, cfg: StftConfig) -> Spectrogram:
    """Windowed one-sided STFT without centering.

    Frame t covers samples [t*hop, t*hop + fft_size); trailing samples
    that do not fill a frame are dropped. buf must be at cfg.sample_rate.
    """
    return _spectrum(cfg, *_frame_source(_buffer_source(buf), cfg))


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


def _mel_blocks(n_frames: int) -> list[slice]:
    """Blocks of MEL_BLOCK_FRAMES frames, or of all n_frames if fewer, that cover range(n_frames).

    The last block is the last MEL_BLOCK_FRAMES frames, so it may
    overlap the one before it.
    """
    rows = min(MEL_BLOCK_FRAMES, n_frames)
    starts = (min(a, n_frames - rows) for a in range(0, n_frames, MEL_BLOCK_FRAMES))
    return [slice(a, a + rows) for a in starts]


def _mel_product(power: np.ndarray, cfg: StftConfig, out: np.ndarray) -> np.ndarray:
    """The mel energies of one _mel_blocks block of power spectra, written into out."""
    return np.matmul(power, mel_filterbank(cfg).T, out=out)


def mel_spectrogram(spec: Spectrogram) -> np.ndarray:
    """Mel-band energies of the power spectrum |X|^2, shape (n_frames, N_MELS).

    The power and the product are formed one _mel_blocks block at a time.
    """
    mel = np.empty((spec.n_frames, N_MELS))
    power, scratch = np.empty((2, min(MEL_BLOCK_FRAMES, spec.n_frames), spec.config.bins))
    for rows in _mel_blocks(spec.n_frames):
        _mel_product(_power(spec.frames[rows], power, scratch), spec.config, mel[rows])
    return mel


def _cepstra(cfg: StftConfig, n_frames: int, block_of, work: Workspace) -> np.ndarray:
    """mel_cepstrum(mel_spectrogram(spectrum)) of a _frame_source's n_frames frames.

    Each _mel_blocks block is windowed, transformed, squared and put
    through the mel product in work's buffers, and then through
    mel_cepstrum, whose temporaries are a block's plain arrays.
    """
    rows = min(MEL_BLOCK_FRAMES, n_frames)
    cepstra = np.empty((n_frames, DEFAULT_N_CEPSTRA))
    frames = work.take("fft_out", (rows, cfg.bins), np.complex128)
    windowed = work.take("fft_in", (rows, cfg.fft_size))
    power = work.take("squares", (rows, cfg.bins))
    mel = work.take("mel", (rows, N_MELS))
    for block in _mel_blocks(n_frames):
        block_of(block, frames, windowed)
        # The imaginary parts square in place: the frames are not read again.
        _mel_product(_power(frames, power, frames.imag), cfg, mel)
        cepstra[block] = mel_cepstrum(mel)
    return cepstra


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
