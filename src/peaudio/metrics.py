"""Objective evaluation of synthesized audio against a reference.

Covers mel-cepstral distortion and the F0-track metrics (RMSE on
co-voiced frames, voiced/unvoiced disagreement rate, Pearson
correlation), plus an autocorrelation pitch extractor so raw WAV pairs
can be compared directly. Frames are compared index-aligned, no DTW.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, MismatchWarning, ShapeMismatchError
from .signal_io import AudioBuffer, load_wav, resample, row_blocks
from .spectral import DEFAULT_N_CEPSTRA, DEFAULT_N_MELS, StftConfig
from .spectral import mel_cepstrum, mel_spectrogram, stft

MCD_CONSTANT = 10.0 * math.sqrt(2.0) / math.log(10.0)

F0_MIN_HZ = 50.0
F0_MAX_HZ = 1100.0
VOICING_AUTOCORR_THRESHOLD = 0.45
VOICING_RMS_GATE = 0.01  # fraction of the utterance's peak frame RMS
F0_WINDOW_SECONDS = 0.04
F0_BLOCK_FRAMES = 64  # frames per autocorrelation block; bounds the tracker's memory


@dataclass(frozen=True)
class F0Track:
    """Fundamental frequency per frame, 0 where unvoiced."""

    f0: np.ndarray
    voiced: np.ndarray
    hop_seconds: float

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=np.float64)
        voiced = np.asarray(self.voiced, dtype=bool)
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "voiced", voiced)
        if f0.shape != voiced.shape or f0.ndim != 1:
            raise ValueError("f0 and voiced must be matching 1-D arrays")
        if np.any((f0 > 0) != voiced):
            raise ValueError("f0 must be positive exactly on voiced frames")
        if np.any(voiced) and (
            f0[voiced].min() < F0_MIN_HZ - 1e-9 or f0[voiced].max() > F0_MAX_HZ + 1e-9
        ):
            raise ValueError(f"voiced f0 must lie in [{F0_MIN_HZ}, {F0_MAX_HZ}] Hz")

    def __len__(self) -> int:
        return self.f0.size


@dataclass(frozen=True)
class MetricReport:
    """One utterance pair's objective scores; NaN marks undefined values."""

    mcd_db: float
    f0_rmse_hz: float
    vuv_error_pct: float
    f0_corr: float
    frames_compared: int

    def to_json_dict(self) -> dict:
        def clean(value):
            return float(value) if np.isfinite(value) else None

        return {
            "mcd_db": clean(self.mcd_db),
            "f0_rmse_hz": clean(self.f0_rmse_hz),
            "vuv_error_pct": clean(self.vuv_error_pct),
            "f0_corr": clean(self.f0_corr),
            "frames_compared": self.frames_compared,
        }


def _normalized_autocorr(frames: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Autocorrelation of each row at lags lo..hi-1, each lag normalized
    by the energies of the two overlapping segments; zero-energy overlaps
    give 0.

    The FFT is at least window + hi long, so no lag below hi wraps
    around: the values are the linear autocorrelation, not an
    approximation of it.
    """
    # numpy has no next_fast_len; importing scipy.fft here keeps it off the masking commands.
    from scipy.fft import next_fast_len

    n = frames.shape[1]
    size = next_fast_len(n + hi, real=True)
    # Padded here, not through rfft's n: numpy's own padding took 1.4x
    # as long on the tracker's blocks, for the same bits.
    padded = np.zeros((frames.shape[0], size))
    padded[:, :n] = frames
    spectrum = np.fft.rfft(padded, axis=1)
    # |X|^2 as two squares: numpy's complex product X * conj(X) may round
    # differently in its vector and scalar paths, which would make the
    # result depend on how frames are split into blocks.
    power = spectrum.real**2 + spectrum.imag**2
    raw = np.fft.irfft(power, size, axis=1)[:, lo:hi]
    # squares[:, m] is the energy of the first m samples of each row.
    squares = np.zeros((frames.shape[0], n + 1))
    np.cumsum(frames * frames, axis=1, out=squares[:, 1:])
    energy_head = squares[:, n - hi + 1 : n - lo + 1][:, ::-1]
    energy_tail = squares[:, n:] - squares[:, lo:hi]
    denom = np.sqrt(energy_head * energy_tail)
    return np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)


def extract_f0(
    buf: AudioBuffer,
    hop_seconds: float = 0.03,
    window_seconds: float = F0_WINDOW_SECONDS,
    fmin: float = F0_MIN_HZ,
    fmax: float = F0_MAX_HZ,
    voicing_threshold: float = VOICING_AUTOCORR_THRESHOLD,
    rms_gate: float = VOICING_RMS_GATE,
) -> F0Track:
    """Autocorrelation pitch tracker.

    A frame is voiced when its best normalized autocorrelation peak in
    the candidate range reaches voicing_threshold and its RMS clears
    rms_gate times the utterance's peak frame RMS. Among lags within 2%
    of the best peak the smallest wins, which suppresses subharmonic
    (octave-down) picks when an integer multiple of the period happens
    to align better with the lag grid. The chosen lag is refined by
    parabolic interpolation before converting to Hz.

    Frames are processed F0_BLOCK_FRAMES at a time, so memory beyond
    the per-frame outputs does not grow with the signal's length.
    """
    rate = buf.sample_rate
    window = max(2, round(window_seconds * rate))
    hop = max(1, round(hop_seconds * rate))
    x = buf.samples
    n_frames = 1 + (x.size - window) // hop if x.size >= window else 0
    f0 = np.zeros(n_frames)
    voiced = np.zeros(n_frames, dtype=bool)
    lag_min = max(1, math.ceil(rate / fmax))
    lag_max = min(window - 1, math.floor(rate / fmin))
    if n_frames == 0 or lag_max <= lag_min:
        return F0Track(f0, voiced, hop_seconds)

    windows = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
    rms = np.empty(n_frames)
    for block in row_blocks(n_frames, F0_BLOCK_FRAMES):
        rms[block] = np.sqrt(np.mean(windows[block] ** 2, axis=1))
    peak_rms = rms.max()
    if peak_rms == 0:
        return F0Track(f0, voiced, hop_seconds)
    gated_in = np.flatnonzero(~(rms < rms_gate * peak_rms))

    # Lags lag_min-1 .. lag_max+1 are read; lag_max+1 only below window-1.
    lo = lag_min - 1
    hi = min(window, lag_max + 2)
    for block in row_blocks(gated_in.size, F0_BLOCK_FRAMES):
        rows = gated_in[block]
        corr = _normalized_autocorr(windows[rows], lo, hi)
        candidates = corr[:, 1 : lag_max - lo + 1]
        best = candidates.max(axis=1)
        is_voiced = ~(best < voicing_threshold)
        at = np.flatnonzero(is_voiced)
        # Column of the chosen lag in corr; its neighbours are at +-1.
        col = 1 + np.argmax(candidates[at] >= 0.98 * best[at, None], axis=1)
        lag = lo + col
        left = corr[at, col - 1]
        mid = corr[at, col]
        right = corr[at, np.minimum(col + 1, hi - lo - 1)]
        denom = left - 2.0 * mid + right
        refined = lag.astype(np.float64)
        bend = (lag < window - 1) & (denom < 0)
        refined[bend] += 0.5 * (left - right)[bend] / denom[bend]
        voiced[rows[at]] = True
        f0[rows[at]] = np.minimum(np.maximum(rate / refined, fmin), fmax)

    return F0Track(f0, voiced, hop_seconds)


def mcd(ref: np.ndarray, pred: np.ndarray) -> float:
    """Mel-cepstral distortion in dB, c0 excluded.

    (10*sqrt(2)/ln 10) times the mean over frames of the Euclidean
    distance across coefficients 1..K-1. Frames are index-aligned.
    """
    ref = np.asarray(ref, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if ref.shape != pred.shape or ref.ndim != 2:
        raise ShapeMismatchError(f"cepstra shapes differ: {ref.shape} vs {pred.shape}")
    if ref.shape[1] < 2:
        raise ShapeMismatchError("need at least 2 coefficients (c0 is excluded)")
    if ref.shape[0] == 0:
        raise ShapeMismatchError("no frames to compare")
    diff = ref[:, 1:] - pred[:, 1:]
    return MCD_CONSTANT * float(np.mean(np.sqrt(np.sum(diff * diff, axis=1))))


def f0_metrics(ref: F0Track, pred: F0Track) -> tuple[float, float, float]:
    """(f0_rmse_hz, vuv_error_pct, f0_corr) for two equal-length tracks.

    RMSE and correlation use only frames voiced in both tracks; the
    correlation is NaN with fewer than 2 such frames or zero variance,
    and exactly 1 for identical tracks.
    """
    if len(ref) != len(pred):
        raise LengthMismatchError(f"track lengths differ: {len(ref)} vs {len(pred)}")
    if len(ref) == 0:
        raise LengthMismatchError("empty tracks")
    vuv_error = 100.0 * float(np.mean(ref.voiced != pred.voiced))
    both = ref.voiced & pred.voiced
    if not both.any():
        return float("nan"), vuv_error, float("nan")
    diff = ref.f0[both] - pred.f0[both]
    rmse = float(np.sqrt(np.mean(diff * diff)))
    if both.sum() < 2:
        return rmse, vuv_error, float("nan")
    a = ref.f0[both]
    b = pred.f0[both]
    da = a - a.mean()
    db = b - b.mean()
    saa = np.sum(da * da)
    sbb = np.sum(db * db)
    if saa == 0 or sbb == 0:
        return rmse, vuv_error, float("nan")
    # sqrt(saa * saa) == saa in IEEE arithmetic, so identical tracks give exactly 1.
    corr = float(np.sum(da * db) / np.sqrt(saa * sbb))
    return rmse, vuv_error, max(-1.0, min(1.0, corr))


def compare(
    ref_path,
    pred_path,
    cfg: StftConfig | None = None,
    n_mels: int = DEFAULT_N_MELS,
    n_coeffs: int = DEFAULT_N_CEPSTRA,
) -> MetricReport:
    """Load two WAVs and score prediction against reference.

    Both files are resampled to the config rate; features are compared
    over the shorter one's frames. A MismatchWarning is issued when the
    frame counts differ by more than 5%.
    """
    cfg = cfg or StftConfig()
    ref_buf = resample(load_wav(ref_path), cfg.sample_rate)
    pred_buf = resample(load_wav(pred_path), cfg.sample_rate)

    ref_cep = mel_cepstrum(mel_spectrogram(stft(ref_buf, cfg), n_mels), n_coeffs)
    pred_cep = mel_cepstrum(mel_spectrogram(stft(pred_buf, cfg), n_mels), n_coeffs)
    frames = min(ref_cep.shape[0], pred_cep.shape[0])
    longest = max(ref_cep.shape[0], pred_cep.shape[0])
    if longest and (longest - frames) / longest > 0.05:
        warnings.warn(
            f"frame counts differ by more than 5% ({ref_cep.shape[0]} vs {pred_cep.shape[0]})",
            MismatchWarning,
            stacklevel=2,
        )
    mcd_db = mcd(ref_cep[:frames], pred_cep[:frames])

    ref_track = extract_f0(ref_buf, hop_seconds=cfg.hop_seconds)
    pred_track = extract_f0(pred_buf, hop_seconds=cfg.hop_seconds)
    n_f0 = min(len(ref_track), len(pred_track))
    rmse, vuv, corr = f0_metrics(
        F0Track(ref_track.f0[:n_f0], ref_track.voiced[:n_f0], ref_track.hop_seconds),
        F0Track(pred_track.f0[:n_f0], pred_track.voiced[:n_f0], pred_track.hop_seconds),
    )
    return MetricReport(
        mcd_db=mcd_db,
        f0_rmse_hz=rmse,
        vuv_error_pct=vuv,
        f0_corr=corr,
        frames_compared=frames,
    )
