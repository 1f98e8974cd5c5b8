"""Perceptual entropy, its loss interpolation, and exact spectrum gradients.

Per frame, each bin contributes
    log2(2*|Re|/step + 1) + log2(2*|Im|/step + 1)
bits, where step = sqrt(6*threshold/k) is the quantizer step its band's
masking threshold allows. The loss 1/(1 + mean PE) rewards spectra that
carry more perceptible information; gradients are hand-derived
reverse-mode and flow through the whole masking pipeline (spreading,
flatness, offsets, renormalization) unless stopped at the threshold.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateThresholdError, DivergenceError, ShapeMismatchError
from .psychoacoustic import (
    SFM_DB_MAX,
    SFM_POWER_FLOOR,
    BarkAnalysis,
    BarkBandLayout,
    absolute_threshold,
    analyze,
    bark_layout,
    spreading_gain,
    spreading_kernel,
)
from .signal_io import AudioBuffer
from .spectral import MelSpectrogram, Spectrogram, StftConfig, mel_filterbank, stft

_LN2 = float(np.log(2.0))
_LN10 = float(np.log(10.0))


@dataclass(frozen=True)
class PEResult:
    """Perceptual entropy per frame (bits), its mean, and the derived loss."""

    per_frame: np.ndarray
    mean_pe: float
    loss_pe: float

    def to_json_dict(self) -> dict:
        return {
            "per_frame_pe": [float(v) for v in self.per_frame],
            "mean_pe": self.mean_pe,
            "loss_pe": self.loss_pe,
        }


@dataclass(frozen=True)
class LossConfig:
    """Weights for the interpolated objective: lam scales the perceptual-entropy loss."""

    lam: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lam must be finite and nonnegative, got {self.lam}")


@dataclass(frozen=True)
class GradientReport:
    """Loss partials w.r.t. the spectrum, packed re+1j*im per bin, and the PE they were taken at."""

    grad: np.ndarray
    pe: PEResult


def pe_loss(mean_pe: float) -> float:
    """1/(1 + mean PE); 1 for silence, approaching 0 as PE grows."""
    return 1.0 / (1.0 + mean_pe)


def _quantize(spec: Spectrogram, analysis: BarkAnalysis):
    """The PE of spec under analysis, with the quantities its gradient reuses.

    Returns the PEResult, the per-band quantizer steps sqrt(6*threshold/k)
    (T, n), the same steps per bin (T, bins), and u = 2|x|/step + 1 for
    the real and the imaginary parts (T, bins); a bin carries
    log2(u_re) + log2(u_im) bits.
    """
    if analysis.layout.n_bins != spec.config.bins:
        raise ValueError("analysis layout does not match the spectrogram bins")
    if analysis.n_frames != spec.n_frames:
        raise ValueError("analysis frame count does not match the spectrogram")
    if np.any(analysis.masking_threshold <= 0):
        raise DegenerateThresholdError("masking threshold must be strictly positive")

    steps = np.sqrt(6.0 * analysis.masking_threshold / analysis.layout.k)
    steps_bin = steps[:, analysis.layout.band_of_bin()]
    u_re = 2.0 * np.abs(spec.frames.real) / steps_bin + 1.0
    u_im = 2.0 * np.abs(spec.frames.imag) / steps_bin + 1.0
    bits = np.log2(u_re)
    bits += np.log2(u_im)
    per_frame = bits.sum(axis=1)
    mean_pe = float(per_frame.mean()) if per_frame.size else 0.0
    result = PEResult(per_frame=per_frame, mean_pe=mean_pe, loss_pe=pe_loss(mean_pe))
    return result, steps, steps_bin, u_re, u_im


def perceptual_entropy(spec: Spectrogram, analysis: BarkAnalysis) -> PEResult:
    """Bits of perceptible information per frame under the masking thresholds."""
    return _quantize(spec, analysis)[0]


def _as_frames(x) -> np.ndarray:
    if isinstance(x, MelSpectrogram):
        return x.frames
    if isinstance(x, Spectrogram):
        return x.frames
    return np.asarray(x)


def sing_loss(pred_linear, ref_linear, pred_mel, ref_mel) -> float:
    """Mean absolute error of the linear pair plus that of the mel pair."""
    pl, rl = _as_frames(pred_linear), _as_frames(ref_linear)
    pm, rm = _as_frames(pred_mel), _as_frames(ref_mel)
    if pl.shape != rl.shape:
        raise ShapeMismatchError(f"linear shapes differ: {pl.shape} vs {rl.shape}")
    if pm.shape != rm.shape:
        raise ShapeMismatchError(f"mel shapes differ: {pm.shape} vs {rm.shape}")
    return float(np.mean(np.abs(pl - rl)) + np.mean(np.abs(pm - rm)))


def total_loss(l_sing: float, pe_result: PEResult, cfg: LossConfig) -> float:
    """Synthesis loss plus lam times the PE loss."""
    return l_sing + cfg.lam * pe_result.loss_pe


def _reconstruct(spec: Spectrogram, phase_source: Spectrogram | None) -> Spectrogram:
    if phase_source is None:
        return spec
    if phase_source.frames.shape != spec.frames.shape:
        raise ShapeMismatchError("phase source shape does not match the spectrum")
    phase = np.angle(phase_source.frames)
    return Spectrogram(np.abs(spec.frames) * np.exp(1j * phase), spec.config)


def pe_gradient(
    spec: Spectrogram,
    layout: BarkBandLayout,
    phase_source: Spectrogram | None = None,
    through_thresholds: bool = True,
) -> GradientReport:
    """Exact partials of the PE loss w.r.t. every Re and Im, and the PE they were taken at.

    When phase_source is given, spec is treated as magnitude-only and the
    complex spectrum is rebuilt as |spec| * exp(i*phase) first; partials
    are w.r.t. the rebuilt components. With through_thresholds=False the
    masking thresholds are treated as constants (ablation switch).

    Subgradient conventions at the kinks: d|x|/dx = 0 at x = 0, the
    tonality min(u, 1) keeps the u-branch derivative at u = 1, and the
    max() clamps (threshold floor, flatness power floor) follow whichever
    branch is active, ties going to the variable branch.
    """
    spec = _reconstruct(spec, phase_source)
    return _gradient(spec, analyze(spec, layout), through_thresholds)


def _gradient(
    spec: Spectrogram, analysis: BarkAnalysis, through_thresholds: bool
) -> GradientReport:
    """Loss partials packed re+1j*im, with the PE they were taken at."""
    pe_result, steps, steps_bin, u_re, u_im = _quantize(spec, analysis)
    layout = analysis.layout
    re = spec.frames.real
    im = spec.frames.imag
    k = layout.k
    bin_band = layout.band_of_bin()

    # d loss / d PE(t): the mean couples every frame through 1/(1+mean).
    dl_dpe = -1.0 / ((1.0 + pe_result.mean_pe) ** 2 * max(spec.n_frames, 1))

    # Quantizer terms, thresholds held fixed.
    dpe_dre = (2.0 / _LN2) * np.sign(re) / (steps_bin * u_re)
    dpe_dim = (2.0 / _LN2) * np.sign(im) / (steps_bin * u_im)

    if through_thresholds:
        # d PE(t) / d step, summed over the band's bins.
        dpe_dstep_bin = -(2.0 / _LN2) / steps_bin**2 * (np.abs(re) / u_re + np.abs(im) / u_im)
        dpe_dstep = np.add.reduceat(dpe_dstep_bin, layout.lower_bins, axis=1)
        # step = sqrt(6 T'/k)  =>  d step/d T' = 3/(k*step)
        dpe_dthresh = dpe_dstep * 3.0 / (k * steps)

        gain = spreading_gain(layout)
        quiet = absolute_threshold(layout, spec.config)
        clamp_inactive = (analysis.spread_threshold / gain) >= quiet
        dpe_draw = np.where(clamp_inactive, dpe_dthresh / gain, 0.0)

        attenuation = 10.0 ** (-analysis.offset_db / 10.0)
        dpe_dspread = dpe_draw * attenuation
        dpe_doffset = dpe_draw * (-(_LN10 / 10.0) * analysis.spread_threshold)

        # offset = 5.5 + alpha*(9 + i), i 1-based. Flatness is pinned both
        # at the fully-tonal bound (min with 1) and at the flat-band clamp
        # (sfm exactly 0); neither branch passes gradient.
        dpe_dalpha = dpe_doffset * (9.0 + np.arange(1, layout.n + 1))
        unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
        dpe_dflatness = np.where(unpinned, dpe_dalpha * (1.0 / SFM_DB_MAX), 0.0)

        # flatness = (10/ln10)*(mean(log q) - log(mean q)), q floored powers.
        power = re**2 + im**2
        floored = np.maximum(power, SFM_POWER_FLOOR)
        arith = np.add.reduceat(floored, layout.lower_bins, axis=1) / k
        coeff = dpe_dflatness * (10.0 / _LN10) / k  # (T, n)
        dpe_dfloored = coeff[:, bin_band] * (1.0 / floored - 1.0 / arith[:, bin_band])
        dpe_dpower = np.where(power >= SFM_POWER_FLOOR, dpe_dfloored, 0.0)

        # Band powers feed the spreading convolution: C = K @ B per frame.
        dpe_dband = dpe_dspread @ spreading_kernel(layout)
        dpe_dpower += dpe_dband[:, bin_band]

        dpe_dre += dpe_dpower * 2.0 * re
        dpe_dim += dpe_dpower * 2.0 * im

    return GradientReport(grad=dl_dpe * (dpe_dre + 1j * dpe_dim), pe=pe_result)


# Perturbed frames analysed per batch in check_gradient, two per coordinate;
# bounds its memory whatever the coordinate count.
FD_BLOCK_ROWS = 256


@dataclass
class GradientCheckResult:
    """Outcome of comparing the analytic gradient to central differences.

    coordinates holds the checked (frame, bin, part) triples, part 0 for
    Re and 1 for Im; finite_differences and rel_errs are aligned with it.
    n_eligible counts the components the kink and resolvability guards
    let through, of which the checked ones are a seeded sample.
    """

    report: GradientReport
    n_checked: int
    all_kink: bool
    max_rel_err: float
    worst: dict | None = None
    n_eligible: int = 0
    coordinates: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))
    finite_differences: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rel_errs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def passed(self, tolerance: float = 1e-4) -> bool:
        if self.all_kink:
            return True
        return bool(self.max_rel_err < tolerance)

    def to_json_dict(self) -> dict:
        p50 = p95 = None
        if self.rel_errs.size:
            p50, p95 = (float(q) for q in np.percentile(self.rel_errs, [50, 95]))
        return {
            "max_rel_err_vs_fd": None if self.all_kink else float(self.max_rel_err),
            "n_coords": self.n_checked,
            "all_kink": self.all_kink,
            "worst_coordinate": self.worst,
            "n_eligible": self.n_eligible,
            "rel_err_p50": p50,
            "rel_err_p95": p95,
        }


def check_gradient(
    spec: Spectrogram,
    layout: BarkBandLayout,
    n_coords: int = 100,
    seed: int = 42,
    rel_step: float = 1e-5,
    phase_source: Spectrogram | None = None,
    through_thresholds: bool = True,
) -> GradientCheckResult:
    """Compare the analytic PE-loss gradient to central finite differences.

    Coordinates are sampled among components whose magnitude clears a
    kink guard (well away from the |x| = 0 and power-floor corners) and
    whose analytic partial is large enough for a double-precision
    central difference to resolve at the given relative step; where the
    quantizer and threshold paths nearly cancel, the difference quotient
    is pure truncation/roundoff noise. On an all-silent spectrum there
    is nothing to sample and the check passes vacuously. The differences
    themselves come from _frame_local_fd.
    """
    spec = _reconstruct(spec, phase_source)
    analysis = analyze(spec, layout)
    report = _gradient(spec, analysis, through_thresholds)
    grad = report.grad

    components = np.stack([spec.frames.real, spec.frames.imag], axis=-1)  # (T, bins, 2)
    magnitudes = np.abs(components).ravel()
    # 1e-2 of full scale keeps the relative step large enough that the
    # central difference is not dominated by float roundoff.
    guard = max(1e-8, 1e-2 * magnitudes.max()) if magnitudes.size else 1e-8
    off_kink = magnitudes > guard
    partials = np.abs(np.stack([grad.real, grad.imag], axis=-1).ravel())
    if np.any(off_kink):
        rms_partial = float(np.sqrt(np.mean(partials[off_kink] ** 2)))
        resolvable = partials > 1e-2 * rms_partial
    else:
        resolvable = np.zeros_like(off_kink)
    eligible = np.flatnonzero(off_kink & resolvable)
    if eligible.size == 0:
        return GradientCheckResult(report=report, n_checked=0, all_kink=True, max_rel_err=0.0)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(eligible, size=min(n_coords, eligible.size), replace=False)
    coordinates = np.stack(np.unravel_index(chosen, components.shape), axis=-1)
    fd = _frame_local_fd(
        spec, analysis, report.pe.per_frame, coordinates, rel_step, through_thresholds
    )

    frame, bin_idx, part = coordinates.T
    analytic = np.where(part == 0, grad.real[frame, bin_idx], grad.imag[frame, bin_idx])
    rel = np.abs(fd - analytic) / np.maximum(np.maximum(np.abs(fd), np.abs(analytic)), 1e-30)
    i = int(np.argmax(rel))
    worst = None
    if rel[i] > 0:
        worst = {
            "frame": int(frame[i]),
            "bin": int(bin_idx[i]),
            "part": "re" if part[i] == 0 else "im",
            "analytic": float(analytic[i]),
            "finite_difference": float(fd[i]),
            "rel_err": float(rel[i]),
        }

    return GradientCheckResult(
        report=report,
        n_checked=int(chosen.size),
        all_kink=False,
        max_rel_err=float(rel[i]),
        worst=worst,
        n_eligible=int(eligible.size),
        coordinates=coordinates,
        finite_differences=fd,
        rel_errs=rel,
    )


def _frame_local_fd(
    spec: Spectrogram,
    analysis: BarkAnalysis,
    per_frame: np.ndarray,
    coordinates: np.ndarray,
    rel_step: float,
    through_thresholds: bool,
) -> np.ndarray:
    """Central differences of the PE loss at (frame, bin, part) coordinates.

    analysis and per_frame are the masking analysis and per-frame PE of
    spec itself. Every pipeline stage works on one frame, and frames meet
    only in the mean PE, so moving a component of frame t moves PE(t)
    alone. Each coordinate's two perturbed copies of its frame (+-h,
    h = rel_step * |component|) become rows of one batch that analyze and
    perceptual_entropy see once per FD_BLOCK_ROWS rows; with
    through_thresholds=False the rows keep frame t's unperturbed
    thresholds instead. The loss difference is then formed in closed form,

        L+ - L- = ((PE-(t) - PE+(t)) / T) / ((1 + m + d+) (1 + m + d-)),
        d+- = (PE+-(t) - PE(t)) / T,

    which never subtracts two nearly equal whole-clip losses, so its
    roundoff does not grow with the frame count T.
    """
    n_frames = spec.n_frames
    one_plus_mean = 1.0 + float(per_frame.mean())
    components = np.stack([spec.frames.real, spec.frames.imag], axis=-1)
    fd = np.empty(len(coordinates))
    per_block = FD_BLOCK_ROWS // 2
    for start in range(0, len(coordinates), per_block):
        frame, bin_idx, part = coordinates[start : start + per_block].T
        h = rel_step * np.abs(components[frame, bin_idx, part])
        n = frame.size
        rows_frame = np.concatenate([frame, frame])
        rows = components[rows_frame]  # rows 0..n-1 get +h, rows n..2n-1 get -h
        rows[np.arange(2 * n), np.tile(bin_idx, 2), np.tile(part, 2)] += np.concatenate([h, -h])
        batch = Spectrogram(rows[..., 0] + 1j * rows[..., 1], spec.config)
        if through_thresholds:
            batch_analysis = analyze(batch, analysis.layout)
        else:
            batch_analysis = analysis.select(rows_frame)
        pe_rows = perceptual_entropy(batch, batch_analysis).per_frame
        pe_plus, pe_minus = pe_rows[:n], pe_rows[n:]
        d_plus = (pe_plus - per_frame[frame]) / n_frames
        d_minus = (pe_minus - per_frame[frame]) / n_frames
        loss_diff = ((pe_minus - pe_plus) / n_frames) / (
            (one_plus_mean + d_plus) * (one_plus_mean + d_minus)
        )
        fd[start : start + n] = loss_diff / (2.0 * h)
    return fd


@dataclass
class FitRecord:
    """Gradient-descent trace of the toy spectrum fitter.

    Curves hold one entry per evaluated iterate (steps + 1 including the
    final model), so curve[0] is the fresh initialization.
    """

    lam: float
    steps: int
    learning_rate: float
    seed: int
    l_sing_curve: list[float] = field(default_factory=list)
    loss_pe_curve: list[float] = field(default_factory=list)
    mean_pe_curve: list[float] = field(default_factory=list)

    @property
    def final_l_sing(self) -> float:
        return self.l_sing_curve[-1]

    @property
    def final_loss_pe(self) -> float:
        return self.loss_pe_curve[-1]

    @property
    def final_mean_pe(self) -> float:
        return self.mean_pe_curve[-1]

    def to_json_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "steps": self.steps,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "curve": {
                "l_sing": self.l_sing_curve,
                "loss_pe": self.loss_pe_curve,
                "mean_pe": self.mean_pe_curve,
            },
            "l_sing": self.final_l_sing,
            "loss_pe": self.final_loss_pe,
            "mean_pe": self.final_mean_pe,
        }


def toy_fit(
    target: AudioBuffer,
    cfg: LossConfig,
    steps: int,
    learning_rate: float,
    seed: int = 42,
    stft_cfg: StftConfig | None = None,
    n_mels: int = 80,
) -> FitRecord:
    """Fit a free magnitude spectrogram to a target by plain gradient descent.

    The variable starts as seeded small positive noise and descends the
    interpolated objective (L1 on linear magnitudes and mel energies,
    plus lam times the PE loss) against the target's features, using the
    target's phases to rebuild complex spectra for the PE term. The PE
    curve is recorded even when lam is 0, where it never moves the
    optimizer. Deterministic for a fixed seed.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    stft_cfg = stft_cfg or StftConfig()
    ref_spec = stft(target, stft_cfg)
    ref_mag = np.abs(ref_spec.frames)
    phase = np.exp(1j * np.angle(ref_spec.frames))
    cos_phi = phase.real
    sin_phi = phase.imag
    weights = mel_filterbank(stft_cfg, n_mels)
    ref_mel = (ref_mag**2) @ weights.T
    layout = bark_layout(stft_cfg)

    rng = np.random.default_rng(seed)
    mag = rng.uniform(1e-4, 1e-2, ref_mag.shape)
    n_linear = mag.size
    n_mel = ref_mel.size

    record = FitRecord(lam=cfg.lam, steps=steps, learning_rate=learning_rate, seed=seed)
    for step in range(steps + 1):
        mel = (mag**2) @ weights.T
        l_sing = sing_loss(mag, ref_mag, mel, ref_mel)
        pred = Spectrogram(mag * cos_phi + 1j * (mag * sin_phi), stft_cfg)
        # One masking analysis per iterate: the gradient's forward pass
        # supplies the PE whenever the PE term moves the next step.
        if cfg.lam > 0 and step < steps:
            report = pe_gradient(pred, layout)
            pe_result = report.pe
        else:
            pe_result = perceptual_entropy(pred, analyze(pred, layout))
        record.l_sing_curve.append(l_sing)
        record.loss_pe_curve.append(pe_result.loss_pe)
        record.mean_pe_curve.append(pe_result.mean_pe)
        if not np.isfinite(total_loss(l_sing, pe_result, cfg)):
            raise DivergenceError(step)
        if step == steps:
            return record

        grad = np.sign(mag - ref_mag) / n_linear
        grad += ((np.sign(mel - ref_mel) / n_mel) @ weights) * (2.0 * mag)
        if cfg.lam > 0:
            grad += cfg.lam * (report.grad.real * cos_phi + report.grad.imag * sin_phi)
        mag = mag - learning_rate * grad
