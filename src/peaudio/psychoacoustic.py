"""Critical-band masking analysis of short-time spectra.

Per spectrogram frame the pipeline is:

  1. sum bin powers into critical bands (Zwicker band edges, truncated
     at Nyquist),
  2. spread each band's energy across its neighbours with the Schroeder
     spreading function evaluated at integer band offsets,
  3. rate each band's tonality from the spectral flatness of its bin
     powers (0 dB = noise-like, -60 dB or below = fully tonal),
  4. blend the tone-masks-noise offset (14.5 + i) dB with the
     noise-masks-tone offset 5.5 dB by the tonality coefficient,
  5. lower the spread energy by the offset to get the raw threshold,
  6. divide by the spreading row gain (so a flat spectrum round-trips to
     its unspread threshold) and clamp to the absolute hearing threshold
     (Terhardt curve, full-scale sinusoid pinned to 96 dB SPL).

The bands follow from the STFT config alone: bark_layout(cfg) is their
one source, and what needs them takes the config or the spectrum.
"""

from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .signal_io import Workspace, map_rows
from .spectral import Spectrogram, StftConfig, _power

# Upper edges of the Zwicker critical bands, Hz.
ZWICKER_UPPER_EDGES_HZ = (
    100.0, 200.0, 300.0, 400.0, 510.0, 630.0, 770.0, 920.0, 1080.0,
    1270.0, 1480.0, 1720.0, 2000.0, 2320.0, 2700.0, 3150.0, 3700.0,
    4400.0, 5300.0, 6400.0, 7700.0, 9500.0, 12000.0, 15500.0,
)

SFM_DB_MAX = -60.0  # spectral flatness at or below this reads as fully tonal
SFM_POWER_FLOOR = 1e-12  # keeps the geometric mean finite on silent bands
TONE_OFFSET_BASE_DB = 14.5  # tone-masks-noise offset is (14.5 + band index) dB
NOISE_OFFSET_DB = 5.5  # noise-masks-tone offset
FULL_SCALE_SPL_DB = 96.0  # SPL assigned to a full-scale sinusoid

_LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class BarkBandLayout:
    """Partition of the one-sided FFT bins into critical bands; built only by bark_layout(cfg).

    band_edges has n+1 ascending entries with edge 0 at 0 Hz and edge n
    at Nyquist; lower_bins/upper_bins are inclusive bin indices per band
    and together cover [0, fft_size/2] without gaps or overlap; the
    constructor checks this of the arrays it is given. All three arrays
    are read-only.
    """

    band_edges: np.ndarray
    lower_bins: np.ndarray
    upper_bins: np.ndarray
    n: int

    def __post_init__(self):
        if self.band_edges.shape != (self.n + 1,):
            raise ValueError("band_edges must have n+1 entries")
        if np.any(np.diff(self.band_edges) <= 0):
            raise ValueError("band_edges must be strictly ascending")
        if self.lower_bins.shape != (self.n,) or self.upper_bins.shape != (self.n,):
            raise ValueError("bin ranges must have one entry per band")
        if self.lower_bins[0] != 0:
            raise ValueError("first band must start at bin 0")
        if np.any(self.upper_bins < self.lower_bins):
            raise ValueError("every band needs at least one bin")
        if np.any(self.lower_bins[1:] != self.upper_bins[:-1] + 1):
            raise ValueError("bin ranges must partition the spectrum without gaps")

    @property
    def k(self) -> np.ndarray:
        """Bin count per band."""
        return self.upper_bins - self.lower_bins + 1

    def band_centers(self) -> np.ndarray:
        """Midpoint frequency of each band in Hz."""
        return 0.5 * (self.band_edges[:-1] + self.band_edges[1:])


@dataclass(frozen=True)
class BarkAnalysis:
    """Per-frame, per-band results of the masking pipeline, all (T, n) over bark_layout's bands."""

    band_power: np.ndarray  # bin powers summed per band
    spread_power: np.ndarray  # band power convolved with the spreading kernel
    sfm_db: np.ndarray  # spectral flatness per band, <= 0
    tonality: np.ndarray  # flatness mapped to [0, 1]
    offset_db: np.ndarray  # masking offset per band
    spread_threshold: np.ndarray  # spread power lowered by the offset
    masking_threshold: np.ndarray  # renormalized and clamped final threshold
    config: StftConfig  # the STFT config of the spectrum analysed

    @property
    def n_frames(self) -> int:
        return self.band_power.shape[0]


@lru_cache(maxsize=None)
def bark_layout(cfg: StftConfig) -> BarkBandLayout:
    """Assign FFT bins to critical bands for the config's rate and size; cached and read-only.

    Band boundaries follow the Zwicker table truncated at Nyquist; a bin
    belongs to the band whose [lower, upper) range contains its center
    frequency, the DC bin lands in band 1, and the Nyquist bin in the
    top band. Raises if any band would end up with no bins (the FFT is
    too short for the sample rate).
    """
    nyquist = cfg.sample_rate / 2.0
    uppers = [edge for edge in ZWICKER_UPPER_EDGES_HZ if edge < nyquist]
    uppers.append(nyquist)
    n = len(uppers)
    edges = np.array([0.0] + uppers)

    freqs = cfg.bin_frequencies()
    band = np.searchsorted(uppers, freqs, side="right")
    band = np.minimum(band, n - 1)  # Nyquist bin joins the top band
    counts = np.bincount(band, minlength=n)
    if np.any(counts == 0):
        empty = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(
            f"band {empty + 1} ({edges[empty]:.0f}-{edges[empty + 1]:.0f} Hz) has no FFT bin; "
            f"fft_size {cfg.fft_size} is too small for sample rate {cfg.sample_rate}"
        )
    upper_bins = np.cumsum(counts) - 1
    lower_bins = np.concatenate(([0], upper_bins[:-1] + 1))
    for array in (edges, lower_bins, upper_bins):
        array.setflags(write=False)
    return BarkBandLayout(edges, lower_bins, upper_bins, n)


def spreading_function_db(dz) -> np.ndarray:
    """Schroeder spreading attenuation in dB at a bark offset dz (masked - masker)."""
    dz = np.asarray(dz, dtype=np.float64)
    return 15.81 + 7.5 * (dz + 0.474) - 17.5 * np.sqrt(1.0 + (dz + 0.474) ** 2)


@lru_cache(maxsize=None)
def _kernel_and_gain(n: int) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.arange(n)[:, None] - np.arange(n)[None, :]
    kernel = 10.0 ** (spreading_function_db(offsets) / 10.0)
    kernel.setflags(write=False)
    gain = kernel.sum(axis=1)
    gain.setflags(write=False)
    return kernel, gain


def spreading_kernel(cfg: StftConfig) -> np.ndarray:
    """Linear-power spreading matrix K[i, j] = sf(i - j) over the n bands of bark_layout(cfg)."""
    return _kernel_and_gain(bark_layout(cfg).n)[0]


def spreading_gain(cfg: StftConfig) -> np.ndarray:
    """Row sums of spreading_kernel(cfg): the gain a flat spectrum receives, shape (n,)."""
    return _kernel_and_gain(bark_layout(cfg).n)[1]


def tonality(sfm) -> np.ndarray:
    """Map spectral flatness (dB, <= 0) to a tonality coefficient in [0, 1]."""
    return np.minimum(np.asarray(sfm, dtype=np.float64) / SFM_DB_MAX, 1.0)


def masking_offset_db(tonality_coeff, band_index) -> np.ndarray:
    """Blend the tone-masks-noise and noise-masks-tone offsets; band_index is 1-based."""
    alpha = np.asarray(tonality_coeff, dtype=np.float64)
    idx = np.asarray(band_index, dtype=np.float64)
    return alpha * (TONE_OFFSET_BASE_DB + idx) + NOISE_OFFSET_DB * (1.0 - alpha)


def spread_threshold(spread_power, offset_db) -> np.ndarray:
    """Raw masking threshold: spread power attenuated by the offset in dB."""
    c = np.asarray(spread_power, dtype=np.float64)
    return c * 10.0 ** (-np.asarray(offset_db, dtype=np.float64) / 10.0)


def hearing_threshold_db_spl(freq_hz) -> np.ndarray:
    """Terhardt approximation of the absolute hearing threshold in dB SPL.

    Frequencies are floored at 20 Hz; the formula diverges toward DC.
    """
    f_khz = np.maximum(np.asarray(freq_hz, dtype=np.float64), 20.0) / 1000.0
    return (
        3.64 * f_khz**-0.8
        - 6.5 * np.exp(-0.6 * (f_khz - 3.3) ** 2)
        + 1e-3 * f_khz**4
    )


@lru_cache(maxsize=None)
def absolute_threshold(cfg: StftConfig) -> np.ndarray:
    """Absolute-hearing-threshold power per band of bark_layout(cfg), (n,); cached, read-only.

    Each band is represented by its most sensitive bin (minimum Terhardt
    level); dB SPL converts to spectrum power with a full-scale sinusoid
    pinned to 96 dB SPL, whose bin-centered band power under the Hann
    window is (sum(window) / 2)^2.
    """
    full_scale_power = float((cfg.window_samples().sum() / 2.0) ** 2)
    quiet_db = hearing_threshold_db_spl(cfg.bin_frequencies())
    per_band_min = np.minimum.reduceat(quiet_db, bark_layout(cfg).lower_bins)
    quiet = full_scale_power * 10.0 ** ((per_band_min - FULL_SCALE_SPL_DB) / 10.0)
    quiet.setflags(write=False)
    return quiet


def renormalize_and_clamp(thresholds: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Divide by the spreading row gain, then clamp to the absolute threshold.

    The division undoes the gain the spreading convolution gives a flat
    spectrum, which is the testable meaning of moving the threshold back
    into the unspread band domain.
    """
    renormalized = np.asarray(thresholds, dtype=np.float64) / spreading_gain(cfg)
    return np.maximum(renormalized, absolute_threshold(cfg))


def _bin_powers(x: np.ndarray, lower_bins: np.ndarray, power, floored, logs) -> list:
    """(rows, n) band sums of a block's bin powers, them floored, and their logs.

    Each goes into its (rows, bins) buffer; logs may be power's, spent by then.
    """
    _power(x, out=power, scratch=floored)
    sums = [np.add.reduceat(power, lower_bins, axis=1)]
    np.maximum(power, SFM_POWER_FLOOR, out=floored)
    sums.append(np.add.reduceat(floored, lower_bins, axis=1))
    sums.append(np.add.reduceat(np.log(floored, out=logs), lower_bins, axis=1))
    return sums


def _band_stage(cfg: StftConfig, band_power, floored_sum, log_sum) -> BarkAnalysis:
    """Steps 2-6 on the (rows, n) band sums of any rows of a spectrum made under cfg.

    Each row's bits are the same whichever rows share the call: einsum
    adds a row's bands in one fixed order, where a BLAS product rounds by
    the row count and the CPU kernel.
    """
    k = bark_layout(cfg).k
    spread_power = np.einsum("tj,ij->ti", band_power, spreading_kernel(cfg))
    # Log geometric over arithmetic mean, clamped to the AM-GM bound: float
    # noise on flat bands can stray a few ulp above 0, which would push
    # the tonality negative.
    flatness = np.minimum((10.0 / _LN10) * (log_sum / k - np.log(floored_sum / k)), 0.0)
    alpha = tonality(flatness)
    offsets = masking_offset_db(alpha, np.arange(1, k.size + 1))
    raw_threshold = spread_threshold(spread_power, offsets)
    return BarkAnalysis(band_power, spread_power, flatness, alpha, offsets, raw_threshold,
                        renormalize_and_clamp(raw_threshold, cfg), cfg)


def _analyze_frames(cfg: StftConfig, n_frames: int, block_of, names) -> dict:
    """The (T, n) analysis arrays `names` of n_frames frames under cfg, each block from block_of."""
    # The per-bin steps run per block of frames and keep only their band
    # sums. The band stage then runs on blocks of 2^15 sums, where its small
    # array operations cost little (per block of frames, it slowed the
    # analyze benchmark), and writes its results over the sums it has read:
    # band_power is its own sums, and the next two arrays take the others.
    layout, bins = bark_layout(cfg), cfg.bins
    sums = np.empty((3, n_frames, layout.n))

    def band_sums(rows, work):
        n = rows.stop - rows.start
        power, floored = work.take("walk", (2, n, bins))
        x = block_of(rows, work.take("frames", (n, bins), np.complex128))
        sums[:, rows] = _bin_powers(x, layout.lower_bins, power, floored, power)

    map_rows(band_sums, n_frames, bins, Workspace)
    spare = [sums[1], sums[2]]
    arrays = {name: sums[0] if name == "band_power" else spare.pop() if spare else np.empty_like(sums[0])
              for name in names}

    def band_stage(rows):
        analysis = _band_stage(cfg, *sums[:, rows])
        for name, array in arrays.items():
            array[rows] = getattr(analysis, name)

    map_rows(band_stage, n_frames, layout.n)
    return arrays


def analyze(spec: Spectrogram) -> BarkAnalysis:
    """Run the full masking pipeline on every frame of a spectrogram.

    The bands are bark_layout(spec.config). Spectral flatness is computed
    from the per-bin power components of each band, not from the band sums.
    """
    names = [field.name for field in fields(BarkAnalysis) if field.name != "config"]
    arrays = _analyze_frames(spec.config, spec.n_frames, lambda rows, _: spec.frames[rows], names)
    return BarkAnalysis(**arrays, config=spec.config)
