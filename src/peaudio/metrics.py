"""Objective evaluation of synthesized audio against a reference.

Covers mel-cepstral distortion and the F0-track metrics (RMSE on
co-voiced frames, voiced/unvoiced disagreement rate, Pearson
correlation), plus an autocorrelation pitch extractor so raw WAV pairs
can be compared directly. Frames are compared index-aligned, no DTW.
compare scores one pair as score(file_features(ref), file_features(pred));
a caller scoring many pairs can compute each file's features once.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BufferTooShortError, LengthMismatchError, MismatchWarning, ShapeMismatchError
from .signal_io import AudioBuffer, load_wav, resample, row_blocks
from .spectral import StftConfig, _power, mel_cepstrum, mel_spectrogram, stft

MCD_CONSTANT = 10.0 * math.sqrt(2.0) / math.log(10.0)

F0_MIN_HZ = 50.0
F0_MAX_HZ = 1100.0
VOICING_AUTOCORR_THRESHOLD = 0.45
VOICING_RMS_GATE = 0.01  # fraction of the utterance's peak frame RMS
F0_WINDOW_SECONDS = 0.04
F0_BLOCK_FRAMES = 64  # frames per autocorrelation block; bounds the tracker's memory


@dataclass(frozen=True)
class F0Track:
    """Fundamental frequency per frame in Hz, 0 where unvoiced.

    voiced is f0 > 0; every nonzero f0 must lie in [F0_MIN_HZ, F0_MAX_HZ].
    """

    f0: np.ndarray

    def __post_init__(self):
        f0 = np.asarray(self.f0, dtype=np.float64)
        object.__setattr__(self, "f0", f0)
        if f0.ndim != 1:
            raise ValueError(f"f0 must be a 1-D array, got shape {f0.shape}")
        nonzero = f0[f0 != 0]
        if nonzero.size and not (
            F0_MIN_HZ - 1e-9 <= nonzero.min() <= nonzero.max() <= F0_MAX_HZ + 1e-9
        ):
            raise ValueError(f"nonzero f0 must lie in [{F0_MIN_HZ}, {F0_MAX_HZ}] Hz")

    @property
    def voiced(self) -> np.ndarray:
        return self.f0 > 0

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
    mismatch: str | None = None  # why the frame counts are a mismatch, if they are

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


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, as scipy.fft.next_fast_len(n, real=True) gives."""
    best = 1 << (n - 1).bit_length()  # the power of two
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # The smallest power-of-two multiple of odd that reaches n.
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _normalized_autocorr(frames: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Autocorrelation of each row at lags lo..hi-1, each lag normalized
    by the energies of the two overlapping segments; zero-energy overlaps
    give 0.

    The FFT is at least window + hi long, so no lag below hi wraps
    around: the values are the linear autocorrelation, not an
    approximation of it.
    """
    n = frames.shape[1]
    size = next_fast_len(n + hi)
    # Padded here, not through rfft's n: numpy's own padding took 1.4x
    # as long on the tracker's blocks, for the same bits.
    padded = np.zeros((frames.shape[0], size))
    padded[:, :n] = frames
    spectrum = np.fft.rfft(padded, axis=1)
    power = _power(spectrum)
    raw = np.fft.irfft(power, size, axis=1)[:, lo:hi]
    # squares[:, m] is the energy of the first m samples of each row.
    squares = np.zeros((frames.shape[0], n + 1))
    np.cumsum(frames * frames, axis=1, out=squares[:, 1:])
    energy_head = squares[:, n - hi + 1 : n - lo + 1][:, ::-1]
    energy_tail = squares[:, n:] - squares[:, lo:hi]
    denom = np.sqrt(energy_head * energy_tail)
    return np.divide(raw, denom, out=np.zeros_like(raw), where=denom > 0)


def extract_f0(buf: AudioBuffer, hop_seconds: float = 0.03) -> F0Track:
    """Autocorrelation pitch tracker.

    A frame is voiced when its best normalized autocorrelation peak
    between F0_MIN_HZ and F0_MAX_HZ reaches VOICING_AUTOCORR_THRESHOLD
    and its RMS over the F0_WINDOW_SECONDS window clears VOICING_RMS_GATE
    times the utterance's peak frame RMS. Among lags within 2% of the
    best peak the smallest wins, which suppresses subharmonic
    (octave-down) picks when an integer multiple of the period happens
    to align better with the lag grid. The chosen lag is refined by
    parabolic interpolation before converting to Hz.

    Frames are processed F0_BLOCK_FRAMES at a time, so memory beyond
    the per-frame outputs does not grow with the signal's length.
    """
    if not 0.0 < hop_seconds < math.inf:
        raise ValueError(f"hop_seconds must be finite and positive, got {hop_seconds}")
    rate = buf.sample_rate
    window = max(2, round(F0_WINDOW_SECONDS * rate))
    hop = max(1, round(hop_seconds * rate))
    x = buf.samples
    n_frames = 1 + (x.size - window) // hop if x.size >= window else 0
    f0 = np.zeros(n_frames)
    lag_min = max(1, math.ceil(rate / F0_MAX_HZ))
    lag_max = math.floor(rate / F0_MIN_HZ)
    if n_frames == 0 or lag_max <= lag_min:
        return F0Track(f0)

    windows = np.lib.stride_tricks.sliding_window_view(x, window)[::hop]
    rms = np.empty(n_frames)
    for block in row_blocks(n_frames, F0_BLOCK_FRAMES):
        rms[block] = np.sqrt(np.mean(windows[block] ** 2, axis=1))
    peak_rms = rms.max()
    if peak_rms == 0:
        return F0Track(f0)
    gated_in = np.flatnonzero(~(rms < VOICING_RMS_GATE * peak_rms))

    # Lags lag_min-1 .. lag_max+1 are read; the window holds lag_max + 2
    # samples at every rate where the tracker runs (test_window_holds_every_lag_read).
    lo = lag_min - 1
    hi = lag_max + 2
    for block in row_blocks(gated_in.size, F0_BLOCK_FRAMES):
        rows = gated_in[block]
        corr = _normalized_autocorr(windows[rows], lo, hi)
        candidates = corr[:, 1 : lag_max - lo + 1]
        best = candidates.max(axis=1)
        at = np.flatnonzero(~(best < VOICING_AUTOCORR_THRESHOLD))
        # Column of the chosen lag in corr; its neighbours are at +-1.
        col = 1 + np.argmax(candidates[at] >= 0.98 * best[at, None], axis=1)
        lag = lo + col
        left = corr[at, col - 1]
        mid = corr[at, col]
        right = corr[at, col + 1]
        denom = left - 2.0 * mid + right
        refined = lag.astype(np.float64)
        bend = denom < 0
        refined[bend] += 0.5 * (left - right)[bend] / denom[bend]
        f0[rows[at]] = np.minimum(np.maximum(rate / refined, F0_MIN_HZ), F0_MAX_HZ)

    return F0Track(f0)


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
    ref_voiced, pred_voiced = ref.voiced, pred.voiced
    vuv_error = 100.0 * float(np.mean(ref_voiced != pred_voiced))
    both = ref_voiced & pred_voiced
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


@dataclass(frozen=True)
class FileFeatures:
    """One file's per-frame features, or the error that stopped them.

    load_error is what decoding or resampling raised, feature_error what
    the analysis of the decoded clip raised; cepstrum and track are set
    exactly when neither is.
    """

    cepstrum: np.ndarray | None = None
    track: F0Track | None = None
    load_error: Exception | None = None
    feature_error: Exception | None = None


def file_features(path, cfg: StftConfig) -> FileFeatures:
    """Decode one WAV, resample it to the config rate and keep only its
    mel cepstrum and F0 track.

    An error is returned, not raised, so that score can report a pair's
    errors in a fixed order; a clip too short for either feature is
    named in its error.
    """
    try:
        buf = resample(load_wav(path), cfg.sample_rate)
    except Exception as exc:
        return FileFeatures(load_error=exc)
    try:
        cepstrum = mel_cepstrum(mel_spectrogram(stft(buf, cfg)))
        track = extract_f0(buf, cfg.hop / cfg.sample_rate)
    except BufferTooShortError as exc:
        return FileFeatures(feature_error=BufferTooShortError(f"{path}: {exc}"))
    except Exception as exc:
        return FileFeatures(feature_error=exc)
    if len(track) == 0:
        detail = f"need at least {F0_WINDOW_SECONDS:g} s for one F0 frame, got {len(buf)} samples"
        return FileFeatures(feature_error=BufferTooShortError(f"{path}: {detail}"))
    return FileFeatures(cepstrum, track)


def score(ref_path, pred_path, ref: FileFeatures, pred: FileFeatures) -> MetricReport:
    """Score a prediction's features against its reference's.

    A failed file raises its error here: a load error before a feature
    error, and the reference's before the prediction's. Features are
    compared over the shorter file's frames; when the frame counts
    differ by more than 5%, the report's mismatch says so, naming both
    files.
    """
    for error in (ref.load_error, pred.load_error, ref.feature_error, pred.feature_error):
        if error is not None:
            raise error
    frames = min(ref.cepstrum.shape[0], pred.cepstrum.shape[0])
    longest = max(ref.cepstrum.shape[0], pred.cepstrum.shape[0])
    mismatch = None
    if (longest - frames) / longest > 0.05:
        counts = f"{ref.cepstrum.shape[0]} vs {pred.cepstrum.shape[0]}"
        mismatch = f"{ref_path} and {pred_path}: frame counts differ by more than 5% ({counts})"
    mcd_db = mcd(ref.cepstrum[:frames], pred.cepstrum[:frames])

    n_f0 = min(len(ref.track), len(pred.track))
    rmse, vuv, corr = f0_metrics(F0Track(ref.track.f0[:n_f0]), F0Track(pred.track.f0[:n_f0]))
    return MetricReport(
        mcd_db=mcd_db,
        f0_rmse_hz=rmse,
        vuv_error_pct=vuv,
        f0_corr=corr,
        frames_compared=frames,
        mismatch=mismatch,
    )


def compare(ref_path, pred_path, cfg: StftConfig | None = None) -> MetricReport:
    """Load two WAVs and score prediction against reference.

    Both files are resampled to the config rate; features are compared
    over the shorter one's frames. When the frame counts differ by more
    than 5%, a MismatchWarning is issued and the report's mismatch holds
    its message, which names both files.
    """
    cfg = cfg or StftConfig()
    ref = file_features(ref_path, cfg)
    report = score(ref_path, pred_path, ref, file_features(pred_path, cfg))
    if report.mismatch:
        warnings.warn(report.mismatch, MismatchWarning, stacklevel=2)
    return report
