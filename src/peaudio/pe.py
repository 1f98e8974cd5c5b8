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


# Elements in each work buffer of one block of frames (2^15 float64 is
# 256 KiB): the gradient's memory beyond its output stays a fixed number of
# blocks, whatever the clip length.
BLOCK_ELEMENTS = 1 << 15


def _row_blocks(n_rows: int, row_len: int) -> list[slice]:
    """Consecutive row slices of BLOCK_ELEMENTS elements each, and at least one row."""
    rows = max(1, BLOCK_ELEMENTS // max(row_len, 1))
    return [slice(a, min(a + rows, n_rows)) for a in range(0, n_rows, rows)]


def _quantize(spec: Spectrogram, analysis: BarkAnalysis, per_frame: np.ndarray):
    """The PE forward pass of spec under analysis, one block of frames at a time.

    Writes each frame's bits into per_frame (T,) and yields, per block,
    its row slice, the per-band quantizer steps sqrt(6*threshold/k)
    (rows, n) and six (rows, bins) work buffers: u = 2|x|/step + 1 for
    the real and for the imaginary parts (a bin carries
    log2(u_re) + log2(u_im) bits), |re|, |im| and two spares. The next
    block overwrites all six, so the caller may use them freely in between.
    """
    if analysis.layout.n_bins != spec.config.bins:
        raise ValueError("analysis layout does not match the spectrogram bins")
    if analysis.n_frames != spec.n_frames:
        raise ValueError("analysis frame count does not match the spectrogram")
    if np.any(analysis.masking_threshold <= 0):
        raise DegenerateThresholdError("masking threshold must be strictly positive")

    k = analysis.layout.k
    blocks = _row_blocks(spec.n_frames, spec.config.bins)
    height = max((rows.stop - rows.start for rows in blocks), default=0)
    work = np.empty((6, height, spec.config.bins))

    def quantized_blocks():  # a generator of its own, so the checks above run at once
        for rows in blocks:
            buffers = work[:, : rows.stop - rows.start]
            u_re, u_im, abs_re, abs_im, bits, spare = buffers
            steps = np.sqrt(6.0 * analysis.masking_threshold[rows] / k)
            steps_bin = np.repeat(steps, k, axis=1)
            x = spec.frames[rows]
            for part, magnitude, u in ((x.real, abs_re, u_re), (x.imag, abs_im, u_im)):
                np.multiply(np.abs(part, out=magnitude), 2.0, out=u)
                u /= steps_bin
                u += 1.0
            np.log2(u_re, out=bits)
            bits += np.log2(u_im, out=spare)
            bits.sum(axis=1, out=per_frame[rows])
            yield rows, steps, buffers

    return quantized_blocks()


def _pe_result(per_frame: np.ndarray) -> PEResult:
    mean_pe = float(per_frame.mean()) if per_frame.size else 0.0
    return PEResult(per_frame=per_frame, mean_pe=mean_pe, loss_pe=pe_loss(mean_pe))


def perceptual_entropy(spec: Spectrogram, analysis: BarkAnalysis) -> PEResult:
    """Bits of perceptible information per frame under the masking thresholds."""
    per_frame = np.empty(spec.n_frames)
    for _ in _quantize(spec, analysis, per_frame):
        pass
    return _pe_result(per_frame)


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
    return _l1_loss(pl - rl, pm - rm)


def _l1_loss(linear_err: np.ndarray, mel_err: np.ndarray) -> float:
    return float(np.mean(np.abs(linear_err)) + np.mean(np.abs(mel_err)))


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
    """Loss partials packed re+1j*im, with the PE they were taken at.

    One pass over blocks of frames: each block's forward quantization
    turns into its partials while it is still in cache, and each block's
    Re and Im partials are written once into the real and imaginary views
    of the result. All partials are formed divided by 2/ln2 * dL/dPE, the
    one factor that needs the whole-clip mean PE; it is applied once, after
    the last block.

    Per bin, r = 1/(step*u) gives both quantizer partials: d bits / dx is
    sign(x)*r, and d bits / d step is -|x|*r/step. With step =
    sqrt(6*T/k), a band's threshold T therefore receives -sum(|x|*r)/(2*T)
    over its bins, which the masking pipeline passes back to the band
    powers (spreading) and the bin powers (flatness), and so, by
    d power / dx = 2x, to every component. The 2 cancels the 2 in 2*T.
    """
    layout = analysis.layout
    k = layout.k
    per_frame = np.empty(spec.n_frames)
    blocks = _quantize(spec, analysis, per_frame)
    grad = np.empty(spec.frames.shape, np.complex128)
    if through_thresholds:
        # What the threshold path makes of a band's sum(|x|*r), per band
        # and frame. The threshold is the spread threshold over the
        # spreading gain unless the absolute-threshold clamp replaced it.
        gain = spreading_gain(layout)
        clamp_inactive = analysis.masking_threshold == analysis.spread_threshold / gain
        to_raw = np.where(clamp_inactive, -1.0 / (gain * analysis.masking_threshold), 0.0)
        # The raw threshold is the spread power lowered by the offset ...
        to_spread = to_raw * np.exp(analysis.offset_db * (-_LN10 / 10.0))
        # ... and the offset is 5.5 + alpha*(9 + i), i 1-based, with alpha
        # = sfm/SFM_DB_MAX except where it is pinned: at the fully-tonal
        # bound (min with 1) and at the flat-band clamp (sfm exactly 0).
        # The flatness (10/ln10)*(mean(log q) - log(mean q)) of the band's
        # floored bin powers q has d/dq_j = (10/ln10)/k * (1/q_j - 1/mean q),
        # which is 0 below the floor; to_flatness carries the band factor.
        unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
        offset_slope = (9.0 + np.arange(1, layout.n + 1)) / (SFM_DB_MAX * k)
        to_flatness = np.where(unpinned, -to_raw * analysis.spread_threshold * offset_slope, 0.0)
        kernel = spreading_kernel(layout)

    for rows, steps, (r_re, r_im, abs_re, abs_im, a, b) in blocks:
        x = spec.frames[rows]
        inv_steps = np.repeat(1.0 / steps, k, axis=1)
        np.divide(inv_steps, r_re, out=r_re)
        np.divide(inv_steps, r_im, out=r_im)
        dpower = None
        if through_thresholds:
            power = np.square(abs_re, out=a)
            power += np.square(abs_im, out=b)
            abs_re *= r_re
            abs_im *= r_im
            abs_re += abs_im
            band_sum = np.add.reduceat(abs_re, layout.lower_bins, axis=1)
            # Band powers feed the spreading convolution: C = K @ B per frame.
            d_band = (band_sum * to_spread[rows]) @ kernel
            coeff = band_sum * to_flatness[rows]
            floored = np.maximum(power, SFM_POWER_FLOOR, out=b)
            band_total = np.add.reduceat(floored, layout.lower_bins, axis=1)
            dpower = np.divide(np.repeat(coeff, k, axis=1), floored, out=b)
            dpower -= np.repeat(coeff * k / band_total, k, axis=1)
            np.copyto(dpower, 0.0, where=power < SFM_POWER_FLOOR)
            dpower += np.repeat(d_band, k, axis=1)

        # sign(x)*r, plus x times the power partial (its 2 is folded in).
        for part, r, out in ((x.real, r_re, grad[rows].real), (x.imag, r_im, grad[rows].imag)):
            partial = np.sign(part, out=inv_steps)
            partial *= r
            if dpower is not None:
                partial += np.multiply(dpower, part, out=abs_re)
            out[...] = partial

    pe_result = _pe_result(per_frame)
    # d loss / d PE(t): the mean couples every frame through 1/(1+mean).
    dl_dpe = -1.0 / ((1.0 + pe_result.mean_pe) ** 2 * max(spec.n_frames, 1))
    parts = grad.view(np.float64)
    parts *= (2.0 / _LN2) * dl_dpe
    return GradientReport(grad=grad, pe=pe_result)


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


def _components(spec: Spectrogram) -> np.ndarray:
    """Re and Im of every bin as a (T, bins, 2) view of the frames, no copy."""
    frames = np.ascontiguousarray(spec.frames)
    return frames.view(np.float64).reshape(frames.shape + (2,))


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

    components = _components(spec)
    magnitudes = np.abs(components).ravel()
    # 1e-2 of full scale keeps the relative step large enough that the
    # central difference is not dominated by float roundoff.
    guard = max(1e-8, 1e-2 * magnitudes.max()) if magnitudes.size else 1e-8
    off_kink = magnitudes > guard
    partials = np.abs(grad.view(np.float64)).ravel()
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
    components = _components(spec)
    fd = np.empty(len(coordinates))
    per_block = FD_BLOCK_ROWS // 2
    for start in range(0, len(coordinates), per_block):
        frame, bin_idx, part = coordinates[start : start + per_block].T
        h = rel_step * np.abs(components[frame, bin_idx, part])
        n = frame.size
        rows_frame = np.concatenate([frame, frame])
        rows = components[rows_frame]  # rows 0..n-1 get +h, rows n..2n-1 get -h
        rows[np.arange(2 * n), np.tile(bin_idx, 2), np.tile(part, 2)] += np.concatenate([h, -h])
        batch = Spectrogram(rows.view(np.complex128)[..., 0], spec.config)
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
        # A diverging run overflows to inf or nan, which the finiteness test
        # reports as a DivergenceError before the PE runs; numpy's warnings
        # on the way there would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            mel = (mag**2) @ weights.T
            mag_err = mag - ref_mag
            mel_err = mel - ref_mel
            l_sing = _l1_loss(mag_err, mel_err)
        if not np.isfinite(l_sing):
            raise DivergenceError(step)
        pred = Spectrogram(phase * mag, stft_cfg)
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

        grad = np.sign(mag_err) / n_linear
        grad += ((np.sign(mel_err) / n_mel) @ weights) * (2.0 * mag)
        if cfg.lam > 0:
            grad += cfg.lam * (report.grad.real * cos_phi + report.grad.imag * sin_phi)
        with np.errstate(over="ignore", invalid="ignore"):
            mag -= learning_rate * grad
