"""Output checks, run in the worker outside the timed region.

Each check returns None when the output is right and a one-line reason
otherwise. The analyze check compares against ``reference_pe``, an
independent frame-at-a-time evaluation of the documented PE formula
that shares none of the program's masking or PE code: only the band
partition, the STFT frames and the window come from the public API.
"""

import json
import math

import numpy as np

N_SAMPLED_FRAMES = 8
PE_REL_TOL = 1e-9
N_BANDS = 23  # critical bands below Nyquist at the CLI's default 22050 Hz


def reference_pe(frames, cfg, layout):
    """Perceptual entropy of each frame, evaluated one frame and one band at a time."""
    n = layout.n
    band_index = np.arange(1, n + 1)
    dz = (np.arange(n)[:, None] - np.arange(n)[None, :]) + 0.474
    kernel = 10.0 ** ((15.81 + 7.5 * dz - 17.5 * np.sqrt(1.0 + dz**2)) / 10.0)
    gain = kernel.sum(axis=1)
    f_khz = np.maximum(cfg.bin_frequencies(), 20.0) / 1000.0
    quiet_db = 3.64 * f_khz**-0.8 - 6.5 * np.exp(-0.6 * (f_khz - 3.3) ** 2) + 1e-3 * f_khz**4
    full_scale = (cfg.window_samples().sum() / 2.0) ** 2
    bands = [slice(lo, hi + 1) for lo, hi in zip(layout.lower_bins, layout.upper_bins)]
    quiet = np.array([full_scale * 10.0 ** ((quiet_db[b].min() - 96.0) / 10.0) for b in bands])

    out = []
    for frame in frames:
        power = frame.real**2 + frame.imag**2
        band_power = np.array([power[b].sum() for b in bands])
        sfm = np.empty(n)
        for i, b in enumerate(bands):
            q = np.maximum(power[b], 1e-12)
            sfm[i] = min(10.0 * math.log10(math.exp(np.mean(np.log(q))) / np.mean(q)), 0.0)
        alpha = np.minimum(sfm / -60.0, 1.0)
        offset = alpha * (14.5 + band_index) + 5.5 * (1.0 - alpha)
        threshold = np.maximum(kernel @ band_power * 10.0 ** (-offset / 10.0) / gain, quiet)
        pe = 0.0
        for i, b in enumerate(bands):
            step = math.sqrt(6.0 * threshold[i] / (b.stop - b.start))
            pe += np.sum(np.log2(2.0 * np.abs(frame[b].real) / step + 1.0))
            pe += np.sum(np.log2(2.0 * np.abs(frame[b].imag) / step + 1.0))
        out.append(pe)
    return np.array(out)


class References:
    """Expected values per input file, computed once per run."""

    def __init__(self, peaudio, seed):
        self._pa = peaudio
        self._cfg = peaudio.cli.CliConfig().stft()
        self._seed = seed
        self._cache = {}

    def __call__(self, path):
        if path not in self._cache:
            pa, cfg = self._pa, self._cfg
            spec = pa.stft(pa.resample(pa.load_wav(path), cfg.sample_rate), cfg)
            rng = np.random.default_rng([self._seed, len(self._cache)])
            picks = rng.choice(spec.n_frames, size=min(N_SAMPLED_FRAMES, spec.n_frames), replace=False)
            frames = np.unique(np.concatenate(([0, spec.n_frames - 1], picks)))
            expected = reference_pe(spec.frames[frames], cfg, pa.bark_layout(cfg))
            self._cache[path] = (spec.n_frames, frames, expected)
        return self._cache[path]


def _close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b), 1.0)


def check_analyze(check, refs):
    n_frames, frames, expected = refs(check["input"])
    with open(check["output"]) as fh:
        if check["fmt"] == "json":
            payload = json.load(fh)
            per_frame = payload["per_frame_pe"]
            mean_pe, loss_pe = payload["mean_pe"], payload["loss_pe"]
        else:
            rows = [line.split(",") for line in fh.read().splitlines()]
            if rows[0] != ["frame", "pe"] or [r[0] for r in rows[-2:]] != ["mean_pe", "loss_pe"]:
                return "malformed analyze CSV"
            per_frame = [float(r[1]) for r in rows[1:-2]]
            mean_pe, loss_pe = float(rows[-2][1]), float(rows[-1][1])
    if len(per_frame) != n_frames:
        return f"{len(per_frame)} frames, expected {n_frames}"
    for t, want in zip(frames, expected):
        if not _close(per_frame[t], want, PE_REL_TOL):
            return f"frame {t}: PE {per_frame[t]!r}, reference {want!r}"
    if not _close(mean_pe, math.fsum(per_frame) / n_frames, PE_REL_TOL):
        return f"mean_pe {mean_pe!r} is not the mean of the per-frame PE"
    if not _close(loss_pe, 1.0 / (1.0 + mean_pe), 1e-12):
        return f"loss_pe {loss_pe!r} is not 1/(1 + mean_pe)"
    return None


def check_thresholds(check, refs):
    n_frames = refs(check["input"])[0]
    with open(check["output"]) as fh:
        if check["fmt"] == "json":
            threshold = np.asarray(json.load(fh)["threshold"], dtype=float)
        else:
            rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            threshold = np.array([[float(v) for v in r[2:]] for r in rows if r[1] == "threshold"])
            if len(rows) != 3 * n_frames:
                return f"{len(rows)} CSV rows, expected {3 * n_frames}"
    if threshold.shape != (n_frames, N_BANDS):
        return f"threshold shape {threshold.shape}, expected {(n_frames, N_BANDS)}"
    if not np.all(threshold > 0):
        return "a masking threshold is not positive"
    return None


def check_grad_check(check, refs, rc):
    """(reason, consistent): consistent is False when exit code and payload disagree."""
    with open(check["output"]) as fh:
        payload = json.load(fh)
    passed = payload["pass"]
    err = payload["max_rel_err_vs_fd"]
    consistent = (rc == 0) == (passed is True) and (
        err is None or (err < payload["tolerance"]) == passed
    )
    if not consistent:
        return f"exit {rc} disagrees with pass={passed}, max_rel_err={err}", False
    if rc != 0:
        return f"gradient check failed: max_rel_err {err}", True
    return None, True


def check_toy_fit(check, refs):
    with open(check["output"]) as fh:
        payload = json.load(fh)
    for arm in ("regularized", "baseline"):
        for name, curve in payload[arm]["curve"].items():
            if len(curve) != check["steps"] + 1:
                return f"{arm} {name} curve has {len(curve)} points, expected {check['steps'] + 1}"
            if not all(math.isfinite(v) for v in curve):
                return f"{arm} {name} curve is not finite"
    if payload["regularized"]["mean_pe"] < payload["baseline"]["mean_pe"]:
        return "regularized final PE is below the baseline's"
    return None


def check_compare(check, refs):
    pairs = [tuple(p) for p in check["pairs"]]
    with open(check["output"]) as fh:
        header, *body = [line.split(",") for line in fh.read().splitlines()]
    if not body or body[-1][0] != "mean":
        return "mean row missing"
    rows = [dict(zip(header, r)) for r in body[:-1]]
    if [(r["ref"], r["pred"]) for r in rows] != pairs:
        return "rows are not in manifest order"
    mcd, rmse = rows[-1]["mcd_db"], rows[-1]["f0_rmse_hz"]
    if pairs[-1][0] != pairs[-1][1] or float(mcd or "nan") != 0.0 or float(rmse or "nan") != 0.0:
        return f"self-pair scored mcd {mcd!r}, f0 rmse {rmse!r}"
    return None


def run_check(check, refs, rc):
    """(reason, consistent) for one operation; reason None means the output passed.

    consistent is False when the program returned a wrong result without
    signalling it; True when it either succeeded or reported its own
    failure through its documented check-failure exit code.
    """
    if check["kind"] == "grad_check":
        if rc not in (0, 1):
            return f"exit code {rc}", False
        return check_grad_check(check, refs, rc)
    if rc != 0:
        return f"exit code {rc}", False
    kinds = {
        "analyze": check_analyze,
        "thresholds": check_thresholds,
        "toy_fit": check_toy_fit,
        "compare": check_compare,
    }
    reason = kinds[check["kind"]](check, refs)
    return reason, reason is None
