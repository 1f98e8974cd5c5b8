"""Perceptual entropy, its loss interpolation, and exact spectrum gradients.

Per frame, each bin contributes
    log2(2*|Re|/step + 1) + log2(2*|Im|/step + 1)
bits, where step = sqrt(6*threshold/k) is the quantizer step its band's
masking threshold allows. The loss 1/(1 + mean PE) rewards spectra that
carry more perceptible information; gradients are hand-derived
reverse-mode and flow through the whole masking pipeline (spreading,
flatness, offsets, renormalization).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateThresholdError, DivergenceError, ShapeMismatchError
from .psychoacoustic import (
    NOISE_OFFSET_DB,
    SFM_DB_MAX,
    SFM_POWER_FLOOR,
    TONE_OFFSET_BASE_DB,
    BarkAnalysis,
    _band_stage,
    _bin_powers,
    bark_layout,
    spreading_gain,
    spreading_kernel,
)
from .signal_io import Workspace, map_rows
from .spectral import Spectrogram, StftConfig, mel_filterbank

_LN2 = float(np.log(2.0))
_LN10 = float(np.log(10.0))

DEFAULT_SEED = 42  # toy-fit's initial noise and grad-check's coordinate draw
DEFAULT_N_COORDS = 100  # components grad-check compares
GRAD_CHECK_TOLERANCE = 1e-4  # largest relative error vs finite differences that passes


@dataclass(frozen=True)
class PEResult:
    """Perceptual entropy per frame (bits), its mean, and the derived loss."""

    per_frame: np.ndarray
    mean_pe: float
    loss_pe: float

    def to_json_dict(self) -> dict:
        return {
            "per_frame_pe": self.per_frame.tolist(),
            "mean_pe": self.mean_pe,
            "loss_pe": self.loss_pe,
        }


@dataclass(frozen=True)
class LossConfig:
    """Weights for the interpolated objective: lam scales the perceptual-entropy loss."""

    lam: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.lam < np.inf:
            raise ValueError(f"lambda must be finite and nonnegative, got {self.lam}")


@dataclass(frozen=True)
class GradientReport:
    """Loss partials w.r.t. the spectrum, packed re+1j*im per bin, and the PE they were taken at."""

    grad: np.ndarray
    pe: PEResult


def pe_loss(mean_pe: float) -> float:
    """1/(1 + mean PE); 1 for silence, approaching 0 as PE grows."""
    return 1.0 / (1.0 + mean_pe)


def _quantize_block(x: np.ndarray, thresholds: np.ndarray, k: np.ndarray, work: np.ndarray):
    """Bits per frame of block x under its (rows, n) thresholds, and steps sqrt(6*threshold/k).

    work, six (rows, bins) buffers, comes back holding u = 2|x|/step + 1 for
    Re and Im (a bin carries log2(u_re) + log2(u_im) bits), |re|, |im| and two spares.
    u is formed as |x|/(step/2) + 1: halving a step is exact, so the
    quotient is the correctly rounded 2|x|/step, one pass sooner, unless
    2|x| overflows.
    """
    if not np.all(thresholds > 0):  # not any(<= 0), which a NaN would pass
        raise DegenerateThresholdError("masking threshold must be strictly positive")
    u_re, u_im, abs_re, abs_im, bits, spare = work
    steps = np.sqrt(6.0 * thresholds / k)
    half_steps_bin = np.repeat(0.5 * steps, k, axis=1)
    for part, magnitude, u in ((x.real, abs_re, u_re), (x.imag, abs_im, u_im)):
        np.divide(np.abs(part, out=magnitude), half_steps_bin, out=u)
        u += 1.0
    np.log2(u_re, out=bits)
    bits += np.log2(u_im, out=spare)
    return bits.sum(axis=1), steps


def _pe_result(per_frame: np.ndarray) -> PEResult:
    mean_pe = float(per_frame.mean()) if per_frame.size else 0.0
    return PEResult(per_frame=per_frame, mean_pe=mean_pe, loss_pe=pe_loss(mean_pe))


def perceptual_entropy(spec: Spectrogram, analysis: BarkAnalysis) -> PEResult:
    """Bits of perceptible information per frame under the masking thresholds.

    The bands are bark_layout(spec.config). Of analysis only the (T, n)
    masking_threshold and the config, which must be spec.config, are read.
    """
    layout, bins = bark_layout(spec.config), spec.config.bins
    thresholds, shape = analysis.masking_threshold, (spec.n_frames, layout.n)
    if thresholds.shape != shape:
        raise ValueError(f"analysis thresholds are {thresholds.shape}, not {shape}")
    if analysis.config != spec.config:
        raise ValueError("analysis was made under another STFT config than the spectrum")
    per_frame = np.empty(spec.n_frames)

    def quantize(rows, work):
        stack = work.take("walk", (6, rows.stop - rows.start, bins))
        per_frame[rows] = _quantize_block(spec.frames[rows], thresholds[rows], layout.k, stack)[0]

    map_rows(quantize, spec.n_frames, bins, Workspace)
    return _pe_result(per_frame)


def sing_loss(pred_linear, ref_linear, pred_mel, ref_mel) -> float:
    """Mean absolute error of the linear pair plus that of the mel pair (arrays)."""
    pl, rl, pm, rm = (np.asarray(x) for x in (pred_linear, ref_linear, pred_mel, ref_mel))
    if pl.shape != rl.shape:
        raise ShapeMismatchError(f"linear shapes differ: {pl.shape} vs {rl.shape}")
    if pm.shape != rm.shape:
        raise ShapeMismatchError(f"mel shapes differ: {pm.shape} vs {rm.shape}")
    return _l1_loss(pl - rl, pm - rm)


def _l1_loss(linear_err: np.ndarray, mel_err: np.ndarray, scratch=None) -> float:
    return float(np.mean(np.abs(linear_err, out=scratch)) + np.mean(np.abs(mel_err)))


def _partials_scale(pe_result: PEResult, n_frames: int) -> float:
    """2/ln2 * dL/dPE(t), which turns the walk's partials into those of the PE loss.

    d loss / d PE(t): the mean couples every frame through 1/(1+mean).
    """
    return (2.0 / _LN2) * (-1.0 / ((1.0 + pe_result.mean_pe) ** 2 * max(n_frames, 1)))


def _pe_walk(cfg: StftConfig, n_frames: int, block_of, finish=None) -> PEResult:
    """The PE of n_frames frames under cfg, and with finish each block's partials.

    One walk over blocks of frames. block_of(rows, buf) returns the
    complex frames `rows`: a view, or values it writes into buf, the
    (rows, bins) "frames" buffer of the running share's Workspace. Each
    block forms its band sums, its thresholds and its PE as analyze and
    perceptual_entropy do, so the PE is theirs bit for bit. With finish,
    the block then forms its partials while it is still in cache and
    calls finish(rows, d_re, d_im), the (rows, bins) partials of the
    PE loss w.r.t. Re and Im divided by _partials_scale, the one factor
    that needs the whole-clip mean PE; the caller applies it after the
    walk. The buffers are the share's, reused by its next block.
    """
    layout, bins = bark_layout(cfg), cfg.bins
    # Per bin, r = 1/(step*u) gives both quantizer partials: d bits / dx is
    # sign(x)*r, and d bits / d step is -|x|*r/step. With step =
    # sqrt(6*T/k), a band's threshold T therefore receives -sum(|x|*r)/(2*T)
    # over its bins, which the masking pipeline passes back to the band
    # powers (spreading) and the bin powers (flatness), and so, by
    # d power / dx = 2x, to every component. The 2 cancels the 2 in 2*T.
    k, lower = layout.k, layout.lower_bins
    gain, kernel = spreading_gain(cfg), spreading_kernel(cfg)
    tone_minus_noise = TONE_OFFSET_BASE_DB - NOISE_OFFSET_DB  # the 9 below
    offset_slope = (tone_minus_noise + np.arange(1, layout.n + 1)) / (SFM_DB_MAX * k)
    per_frame = np.empty(n_frames)

    def walk(rows, work):
        n = rows.stop - rows.start
        stack = work.take("walk", (8, n, bins))
        x = block_of(rows, work.take("frames", (n, bins), np.complex128))
        power, floored, quantizer = stack[0], stack[1], stack[2:]
        sums = _bin_powers(x, lower, power, floored, quantizer[0])
        analysis = _band_stage(cfg, *sums)
        per_frame[rows], steps = _quantize_block(x, analysis.masking_threshold, k, quantizer)
        if finish is None:
            return
        r_re, r_im, abs_re, abs_im = quantizer[:4]
        # What the threshold path makes of a band's sum(|x|*r), per band
        # and frame. The threshold is the spread threshold over the
        # spreading gain unless the absolute-threshold clamp replaced it.
        threshold, raw = analysis.masking_threshold, analysis.spread_threshold
        to_raw = np.where(threshold == raw / gain, -1.0 / (gain * threshold), 0.0)
        # The raw threshold is the spread power lowered by the offset ...
        to_spread = to_raw * np.exp(analysis.offset_db * (-_LN10 / 10.0))
        # ... and the offset is 5.5 + alpha*(9 + i), i 1-based, with alpha
        # = sfm/SFM_DB_MAX except where it is pinned: at the fully-tonal
        # bound (min with 1) and at the flat-band clamp (sfm exactly 0).
        # The flatness (10/ln10)*(mean(log q) - log(mean q)) of the band's
        # floored bin powers q has d/dq_j = (10/ln10)/k * (1/q_j - 1/mean q),
        # which is 0 below the floor; to_flatness carries the band factor.
        unpinned = (analysis.sfm_db >= SFM_DB_MAX) & (analysis.sfm_db < 0.0)
        to_flatness = np.where(unpinned, -to_raw * raw * offset_slope, 0.0)

        inv_steps = np.repeat(1.0 / steps, k, axis=1)
        np.divide(inv_steps, r_re, out=r_re)
        np.divide(inv_steps, r_im, out=r_im)
        abs_re *= r_re
        abs_im *= r_im
        abs_re += abs_im
        band_sum = np.add.reduceat(abs_re, lower, axis=1)
        # Band powers feed the spreading C = K @ B per frame, whose
        # transpose runs in the band stage's fixed order too.
        d_band = np.einsum("tj,ji->ti", band_sum * to_spread, kernel)
        coeff = band_sum * to_flatness
        dpower = np.divide(np.repeat(coeff, k, axis=1), floored, out=floored)
        dpower -= np.repeat(coeff * k / sums[1], k, axis=1)  # the floored band sums
        np.copyto(dpower, 0.0, where=power < SFM_POWER_FLOOR)
        dpower += np.repeat(d_band, k, axis=1)
        # sign(x)*r, plus x times the power partial (its 2 is folded in).
        for part, r in ((x.real, r_re), (x.imag, r_im)):
            r *= np.sign(part, out=inv_steps)
            r += np.multiply(dpower, part, out=abs_re)
        finish(rows, r_re, r_im)

    map_rows(walk, n_frames, bins, Workspace)
    return _pe_result(per_frame)


def pe_gradient(spec: Spectrogram) -> GradientReport:
    """Exact partials of the PE loss w.r.t. every Re and Im, and the PE they were taken at.

    Subgradient conventions at the kinks: d|x|/dx = 0 at x = 0, the
    tonality min(u, 1) keeps the u-branch derivative at u = 1, and the
    max() clamps (threshold floor, flatness power floor) follow whichever
    branch is active, ties going to the variable branch.
    """
    grad = np.empty(spec.frames.shape, np.complex128)

    def write(rows, d_re, d_im):
        grad[rows].real = d_re
        grad[rows].imag = d_im

    pe_result = _pe_walk(spec.config, spec.n_frames, lambda rows, _: spec.frames[rows], write)
    parts = grad.view(np.float64)
    parts *= _partials_scale(pe_result, spec.n_frames)
    return GradientReport(grad=grad, pe=pe_result)


# Central-difference step of check_gradient, relative to the component's magnitude.
FD_REL_STEP = 1e-5


def _percentiles(values: np.ndarray, qs) -> list[float]:
    """np.percentile(values, qs) of a non-empty 1-D array, with no numpy.ma import.

    numpy's default linear rule on a sorted copy: the q-th percentile sits
    at the virtual index (n - 1) * q / 100 between the values a and b on
    either side, and is numpy's _lerp of them. Past the last index both are
    the last value, and any NaN makes every percentile NaN. The results
    are np.percentile's bits, but for a NaN's sign and payload. (np.percentile
    calls np.unique, which imports numpy.ma: 13-16 ms of a fresh grad-check.)
    """
    x = np.sort(values).tolist()
    if math.isnan(x[-1]):  # NaNs sort last
        return [x[-1]] * len(qs)
    out = []
    for q in qs:
        v = (len(x) - 1) * (q / 100)
        i, j = (int(v), int(v) + 1) if v < len(x) - 1 else (-1, -1)
        gamma = v - i
        a, b = x[i], x[j]
        diff = b - a
        out.append(b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma)
    return out


@dataclass
class GradientCheckResult:
    """Outcome of comparing the analytic gradient to central differences.

    coordinates holds the checked (frame, bin, part) triples, part 0 for
    Re and 1 for Im; finite_differences and rel_errs are aligned with it.
    n_eligible counts the components the kink and resolvability guards
    let through, of which the checked ones are a seeded sample.
    to_json_dict() writes the verdict too: the tolerance, whether
    passed(), and, when all_kink, a note that says why it passed.
    """

    n_checked: int
    all_kink: bool
    max_rel_err: float
    worst: dict | None = None
    n_eligible: int = 0
    coordinates: np.ndarray = field(default_factory=lambda: np.zeros((0, 3), dtype=np.int64))
    finite_differences: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rel_errs: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def passed(self) -> bool:
        return self.all_kink or bool(self.max_rel_err < GRAD_CHECK_TOLERANCE)

    def to_json_dict(self) -> dict:
        p50 = p95 = None
        if self.rel_errs.size:
            p50, p95 = _percentiles(self.rel_errs, (50, 95))
        payload = {
            "max_rel_err_vs_fd": None if self.all_kink else float(self.max_rel_err),
            "n_coords": self.n_checked,
            "all_kink": self.all_kink,
            "worst_coordinate": self.worst,
            "n_eligible": self.n_eligible,
            "rel_err_p50": p50,
            "rel_err_p95": p95,
            "tolerance": GRAD_CHECK_TOLERANCE,
            "pass": self.passed(),
        }
        if self.all_kink:
            payload["note"] = "all-kink: every component sits at a subgradient kink"
        return payload


def check_gradient(
    spec: Spectrogram, n_coords: int = DEFAULT_N_COORDS, seed: int = DEFAULT_SEED
) -> GradientCheckResult:
    """Compare the analytic PE-loss gradient to central finite differences.

    Coordinates are sampled among components whose magnitude clears a
    kink guard (well away from the |x| = 0 and power-floor corners) and
    whose analytic partial is large enough for a double-precision
    central difference to resolve at the relative step FD_REL_STEP:
    where the quantizer and threshold paths nearly cancel, the
    difference quotient is pure truncation/roundoff noise. When no
    component qualifies (an all-silent spectrum, or one whose exact
    gradient is zero) there is nothing to sample and the check passes
    vacuously. The differences themselves come from _frame_local_fd.
    """
    if n_coords < 1:
        raise ValueError(f"n_coords must be >= 1, got {n_coords}")
    report = pe_gradient(spec)
    # Each component and its partial, addressed by one flat index into
    # the (T, 2 * bins) float views, in which column 2 * bin + part holds
    # part 0 (Re) or 1 (Im) of a bin. They are judged one block of frames
    # at a time, which keeps whole-clip temporaries out and maps the
    # blocks over threads.
    values = np.ascontiguousarray(spec.frames).view(np.float64)
    slopes = report.grad.view(np.float64)
    width = values.shape[1]
    # 1e-2 of full scale keeps the relative step large enough that the
    # central difference is not dominated by float roundoff.
    peak = max(values.max(initial=0.0), -values.min(initial=0.0))
    guard = max(1e-8, 1e-2 * peak)

    def off_kink_squares(rows):
        partials = slopes[rows][np.abs(values[rows]) > guard]
        return partials.size, np.square(partials).sum()

    blocks = map_rows(off_kink_squares, spec.n_frames, width)
    n_off_kink = sum(n for n, _ in blocks)
    if n_off_kink == 0:
        return GradientCheckResult(n_checked=0, all_kink=True, max_rel_err=0.0)
    rms_partial = float(np.sqrt(sum(squares for _, squares in blocks) / n_off_kink))
    # The partials are judged against each other only. Where all of
    # them are roundoff (an exactly zero gradient), a step must also move
    # PE(t) by more than roundoff: by about h*|dPE(t)/dx|, which is
    # h*|dL/dx| over |dL/dPE(t)| = 1/((1 + mean PE)^2 T).
    per_frame = report.pe.per_frame
    moved_scale = (1.0 + report.pe.mean_pe) ** 2 * spec.n_frames

    def eligible_in(rows):
        magnitudes = np.abs(values[rows]).ravel()
        partials = np.abs(slopes[rows]).ravel()
        at = np.flatnonzero((magnitudes > guard) & (partials > 1e-2 * rms_partial))
        pe_moved = FD_REL_STEP * magnitudes[at] * partials[at]
        pe_moved *= moved_scale
        pe_at = per_frame[rows][at // width]
        at = at[pe_moved >= 1e3 * np.finfo(np.float64).eps * np.maximum(pe_at, 1.0)]
        return at + rows.start * width

    eligible = np.concatenate(map_rows(eligible_in, spec.n_frames, width))
    if eligible.size == 0:
        return GradientCheckResult(n_checked=0, all_kink=True, max_rel_err=0.0)

    rng = np.random.default_rng(seed)
    chosen = rng.choice(eligible, size=min(n_coords, eligible.size), replace=False)
    fd = _frame_local_fd(spec.config, values, report.pe, chosen)
    analytic = slopes.ravel()[chosen]
    coordinates = np.stack(np.unravel_index(chosen, (spec.n_frames, spec.config.bins, 2)), axis=-1)
    frame, bin_idx, part = coordinates.T
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
        n_checked=int(chosen.size),
        all_kink=False,
        max_rel_err=float(rel[i]),
        worst=worst,
        n_eligible=int(eligible.size),
        coordinates=coordinates,
        finite_differences=fd,
        rel_errs=rel,
    )


def _frame_local_fd(cfg: StftConfig, values, pe_result: PEResult, flat) -> np.ndarray:
    """Central differences of the PE loss at flat indices into values, a (T, 2 * bins) float view.

    pe_result is the PE of values itself. Every pipeline stage works on
    one frame, and frames meet only in the mean PE, so moving a
    component of frame t moves PE(t) alone. Each component's two
    perturbed copies of its frame (+-h, h = FD_REL_STEP * |component|)
    are rows of one forward-only PE walk: of n components, row i moves
    component i mod n, by +h in the first n rows and by -h in the rest,
    and each block of rows is formed in the walk's own buffer. The loss
    difference is then formed in closed form,

        L+ - L- = ((PE-(t) - PE+(t)) / T) / ((1 + m + d+) (1 + m + d-)),
        d+- = (PE+-(t) - PE(t)) / T,

    which never subtracts two nearly equal whole-clip losses, so its
    roundoff does not grow with the frame count T.
    """
    n_frames, width = values.shape
    frame, column = np.divmod(flat, width)
    h = FD_REL_STEP * np.abs(values[frame, column])
    n, shifts = frame.size, np.concatenate([h, -h])

    def perturbed(rows, buf):
        at = np.arange(rows.start, rows.stop) % n
        parts = buf.view(np.float64)
        # The frames are in range; mode "raise" would copy through a
        # temporary instead of writing into parts.
        np.take(values, frame[at], axis=0, out=parts, mode="clip")
        parts[np.arange(at.size), column[at]] += shifts[rows]
        return buf

    pe_rows = _pe_walk(cfg, 2 * n, perturbed).per_frame
    pe_plus, pe_minus, pe_at = pe_rows[:n], pe_rows[n:], pe_result.per_frame[frame]
    one_plus_mean = 1.0 + pe_result.mean_pe
    d_plus = (pe_plus - pe_at) / n_frames
    d_minus = (pe_minus - pe_at) / n_frames
    loss_diff = ((pe_minus - pe_plus) / n_frames) / (
        (one_plus_mean + d_plus) * (one_plus_mean + d_minus)
    )
    return loss_diff / (2.0 * h)


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


@dataclass(frozen=True)
class FitTarget:
    """What toy_fit reads of its target: |X|, exp(i angle X), the mel energies of |X|, the config.

    Made by fit_target; its arrays are read-only, so fits running side by
    side may share one.
    """

    magnitude: np.ndarray
    phase: np.ndarray
    mel: np.ndarray
    config: StftConfig


def fit_target(spec: Spectrogram) -> FitTarget:
    """The fit reference of a target spectrum, built once for every fit against it."""
    magnitude = np.abs(spec.frames)
    phase = np.exp(1j * np.angle(spec.frames))
    mel = magnitude**2 @ mel_filterbank(spec.config).T
    for array in (magnitude, phase, mel):
        array.flags.writeable = False
    return FitTarget(magnitude, phase, mel, spec.config)


def magnitude_gradient(target: FitTarget, mag: np.ndarray, lam: float, out=None) -> PEResult:
    """The PE of the prediction target.phase * mag, and into out d(lam * loss_PE) / d mag.

    mag is a (T, bins) magnitude spectrogram under target.config; the
    phase is the target's. pe_gradient's block walk forms the prediction
    one block of frames at a time, so no complex spectrum or gradient is
    held. With out, a (T, bins) float array, each block's partials
    g = d loss_PE / d(Re + i Im) are projected onto the magnitude,
    Re(g) cos(phi) + Im(g) sin(phi), into out; after the walk, out is
    scaled once by the one product (2/ln2) dL/dPE * lam. Without out the
    walk runs forward only. The PE is bit for bit perceptual_entropy's
    on Spectrogram(target.phase * mag).
    """
    def predicted(rows, buf):
        return np.multiply(target.phase[rows], mag[rows], out=buf)

    def project(rows, d_re, d_im):
        along = np.multiply(d_re, target.phase.real[rows], out=out[rows])
        along += np.multiply(d_im, target.phase.imag[rows], out=d_im)

    pe_result = _pe_walk(target.config, mag.shape[0], predicted, None if out is None else project)
    if out is not None:
        out *= _partials_scale(pe_result, mag.shape[0]) * lam
    return pe_result


def _sign_over(err: np.ndarray, n: int, zero: np.ndarray) -> None:
    """err <- sign(err) / n in place, with zero, a bool buffer of err's shape, as scratch.

    copysign(1/n, err) rounds as sign(err) / n does where err != 0, and
    takes a fraction of np.sign's time; the zeros are put back after.
    """
    np.equal(err, 0.0, out=zero)
    np.copysign(1.0 / n, err, out=err)
    np.copyto(err, 0.0, where=zero)


def toy_fit(
    target: FitTarget,
    cfg: LossConfig,
    steps: int,
    learning_rate: float,
    seed: int = DEFAULT_SEED,
) -> FitRecord:
    """Fit a free magnitude spectrogram to a target by plain gradient descent.

    The variable starts as seeded small positive noise and descends the
    interpolated objective (L1 on linear magnitudes and mel energies,
    plus lam times the PE loss) against the target's features, the PE term
    from magnitude_gradient. The PE curve is recorded even when lam is 0,
    where it never moves the optimizer. Deterministic for a fixed seed.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0.0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be finite and positive, got {learning_rate}")
    ref_mag, ref_mel = target.magnitude, target.mel
    weights = mel_filterbank(target.config)

    rng = np.random.default_rng(seed)
    mag = rng.uniform(1e-4, 1e-2, ref_mag.shape)
    n_linear = mag.size
    n_mel = ref_mel.size
    # Every iterate reuses these, so a step allocates no spectrum-sized array of its own.
    grad = np.empty_like(mag)
    scratch = np.empty_like(mag)
    mel_err = np.empty_like(ref_mel)
    linear_zero = np.empty(mag.shape, bool)
    mel_zero = np.empty(ref_mel.shape, bool)

    record = FitRecord(lam=cfg.lam, steps=steps, learning_rate=learning_rate, seed=seed)
    for step in range(steps + 1):
        # A diverging run overflows to inf or nan, which the finiteness test
        # reports as a DivergenceError before the PE runs; numpy's warnings
        # on the way there would only repeat it.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(np.square(mag, out=scratch), weights.T, out=mel_err)
            mel_err -= ref_mel
            np.subtract(mag, ref_mag, out=grad)
            l_sing = _l1_loss(grad, mel_err, scratch)
        # A finite l_sing makes every mag finite, and |cos|, |sin| <= 1
        # then make the prediction finite; with its PE loss in (0, 1] and
        # a finite lam, the objective l_sing + lam * loss_pe is finite too.
        if not np.isfinite(l_sing):
            raise DivergenceError(step)
        # One masking analysis per iterate, which fills scratch where the PE term moves the step.
        moves = cfg.lam > 0 and step < steps
        pe_result = magnitude_gradient(target, mag, cfg.lam, scratch if moves else None)
        record.l_sing_curve.append(l_sing)
        record.loss_pe_curve.append(pe_result.loss_pe)
        record.mean_pe_curve.append(pe_result.mean_pe)
        if step == steps:
            return record

        # sign(mag - ref_mag)/n_linear, plus lam times the PE term, plus
        # ((sign(mel_err)/n_mel) @ weights) * (2*mag); grad holds
        # mag - ref_mag, and mel_err is spent once read.
        _sign_over(grad, n_linear, linear_zero)
        if moves:
            grad += scratch
        _sign_over(mel_err, n_mel, mel_zero)
        np.matmul(mel_err, weights, out=scratch)
        scratch *= mag
        scratch *= 2.0  # doubling is exact: this rounds as scratch * (2*mag) does
        grad += scratch
        with np.errstate(over="ignore", invalid="ignore"):
            grad *= learning_rate
            mag -= grad
