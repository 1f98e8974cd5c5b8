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
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal_io import map_blocks, row_blocks, rows_per_block
from .spectral import Spectrogram, StftConfig

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
    """Partition of the one-sided FFT bins into critical bands.

    band_edges has n+1 ascending entries with edge 0 at 0 Hz and edge n
    at Nyquist; lower_bins/upper_bins are inclusive bin indices per band
    and together cover [0, fft_size/2] without gaps or overlap.
    """

    band_edges: np.ndarray
    lower_bins: np.ndarray
    upper_bins: np.ndarray
    n: int

    def __post_init__(self):
        object.__setattr__(self, "band_edges", np.asarray(self.band_edges, dtype=np.float64))
        object.__setattr__(self, "lower_bins", np.asarray(self.lower_bins, dtype=np.int64))
        object.__setattr__(self, "upper_bins", np.asarray(self.upper_bins, dtype=np.int64))
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

    @property
    def n_bins(self) -> int:
        return int(self.upper_bins[-1]) + 1

    def band_centers(self) -> np.ndarray:
        """Midpoint frequency of each band in Hz."""
        return 0.5 * (self.band_edges[:-1] + self.band_edges[1:])


@dataclass(frozen=True)
class BarkAnalysis:
    """Per-frame, per-band results of the masking pipeline, all (T, n)."""

    band_power: np.ndarray  # bin powers summed per band
    spread_power: np.ndarray  # band power convolved with the spreading kernel
    sfm_db: np.ndarray  # spectral flatness per band, <= 0
    tonality: np.ndarray  # flatness mapped to [0, 1]
    offset_db: np.ndarray  # masking offset per band
    spread_threshold: np.ndarray  # spread power lowered by the offset
    masking_threshold: np.ndarray  # renormalized and clamped final threshold
    layout: BarkBandLayout

    @property
    def n_frames(self) -> int:
        return self.band_power.shape[0]


def bark_layout(cfg: StftConfig) -> BarkBandLayout:
    """Assign FFT bins to critical bands for the config's rate and size.

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


def spreading_kernel(layout: BarkBandLayout) -> np.ndarray:
    """Linear-power spreading matrix K with K[i, j] = sf(i - j), shape (n, n)."""
    return _kernel_and_gain(layout.n)[0]


def spreading_gain(layout: BarkBandLayout) -> np.ndarray:
    """Row sums of the spreading kernel: the gain a flat spectrum receives."""
    return _kernel_and_gain(layout.n)[1]


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


def full_scale_band_power(cfg: StftConfig) -> float:
    """Band power a full-scale bin-centered sinusoid produces under the Hann window."""
    window = cfg.window_samples()
    return float((window.sum() / 2.0) ** 2)


def absolute_threshold(layout: BarkBandLayout, cfg: StftConfig) -> np.ndarray:
    """Absolute-hearing-threshold power per band, shape (n,).

    Each band is represented by its most sensitive bin (minimum Terhardt
    level); dB SPL converts to spectrum power with a full-scale sinusoid
    pinned to 96 dB SPL.
    """
    quiet_db = hearing_threshold_db_spl(cfg.bin_frequencies())
    per_band_min = np.minimum.reduceat(quiet_db, layout.lower_bins)
    return full_scale_band_power(cfg) * 10.0 ** ((per_band_min - FULL_SCALE_SPL_DB) / 10.0)


def renormalize_and_clamp(
    thresholds: np.ndarray, layout: BarkBandLayout, cfg: StftConfig
) -> np.ndarray:
    """Divide by the spreading row gain, then clamp to the absolute threshold.

    The division undoes the gain the spreading convolution gives a flat
    spectrum, which is the testable meaning of moving the threshold back
    into the unspread band domain.
    """
    renormalized = np.asarray(thresholds, dtype=np.float64) / spreading_gain(layout)
    return np.maximum(renormalized, absolute_threshold(layout, cfg))


def analyze(spec: Spectrogram, layout: BarkBandLayout) -> BarkAnalysis:
    """Run the full masking pipeline on every frame of a spectrogram.

    Spectral flatness is computed from the per-bin power components of
    each band, not from the band sums.
    """
    if spec.config.bins != layout.n_bins:
        raise ValueError(
            f"layout covers {layout.n_bins} bins but spectrogram has {spec.config.bins}"
        )
    # The per-bin steps run one block of frames at a time and keep only
    # their band sums; the band-level steps after the map see whole (T, n)
    # arrays, so the spreading product is one matrix product, rounded
    # the same way whatever the block size or thread count.
    lower = layout.lower_bins
    band_power = np.empty((spec.n_frames, layout.n))
    floored_sum, log_sum = np.empty_like(band_power), np.empty_like(band_power)

    def band_sums(block):
        x = spec.frames[block]
        power = x.real**2 + x.imag**2
        band_power[block] = np.add.reduceat(power, lower, axis=1)
        floored = np.maximum(power, SFM_POWER_FLOOR, out=power)
        floored_sum[block] = np.add.reduceat(floored, lower, axis=1)
        log_sum[block] = np.add.reduceat(np.log(floored, out=floored), lower, axis=1)

    map_blocks(band_sums, row_blocks(spec.n_frames, rows_per_block(layout.n_bins)))

    k = layout.k
    spread_power = band_power @ spreading_kernel(layout).T
    log_geo = log_sum / k
    arith = floored_sum / k
    # Clamped to the AM-GM bound; float noise on flat bands can stray
    # a few ulp above 0, which would push the tonality negative.
    flatness = np.minimum((10.0 / _LN10) * (log_geo - np.log(arith)), 0.0)

    alpha = tonality(flatness)
    offsets = masking_offset_db(alpha, np.arange(1, layout.n + 1))
    raw_threshold = spread_threshold(spread_power, offsets)
    final_threshold = renormalize_and_clamp(raw_threshold, layout, spec.config)

    return BarkAnalysis(
        band_power=band_power,
        spread_power=spread_power,
        sfm_db=flatness,
        tonality=alpha,
        offset_db=offsets,
        spread_threshold=raw_threshold,
        masking_threshold=final_threshold,
        layout=layout,
    )
