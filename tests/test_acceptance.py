"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
pass. Every tolerance is pinned here, not calibrated elsewhere.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from peaudio.metrics import MCD_CONSTANT, F0Track, extract_f0, f0_metrics, mcd
from peaudio.pe import LossConfig, check_gradient, fit_target, perceptual_entropy, toy_fit
from peaudio.psychoacoustic import (
    absolute_threshold,
    analyze,
    bark_layout,
    masking_offset_db,
    spread_threshold,
    spreading_gain,
    tonality,
)
from peaudio.signal_io import AudioBuffer
from peaudio.spectral import StftConfig, Spectrogram, stft

from conftest import SR, bin_ranges, scaled, sfm_db, sine_signal, spread
from test_pe import naive_pe, random_toy_config, toy_analysis


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: {text} ... PASS")


def test_criterion_1_bruteforce_pe_oracle():
    """Vectorized PE equals an independent double loop on 50+ toy spectra."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    trials = 0
    for _ in range(60):
        cfg = random_toy_config(rng)  # 3, 5 or 9 bins, all <= 16
        ranges = bin_ranges(bark_layout(cfg))
        thresholds = rng.uniform(0.05, 8.0, len(ranges))
        frames = rng.standard_normal((4, cfg.bins)) + 1j * rng.standard_normal((4, cfg.bins))
        spec = Spectrogram(frames, cfg)
        result = perceptual_entropy(spec, toy_analysis(cfg, thresholds, 4))
        expected = naive_pe(frames, ranges, thresholds)
        np.testing.assert_allclose(result.per_frame, expected, atol=1e-12, rtol=0)
        trials += 1
    elapsed = time.monotonic() - start
    assert trials >= 50
    assert elapsed < 1.0
    report(1, f"{trials} toy spectra match the naive double loop to 1e-12 ({elapsed:.2f}s)")


def test_criterion_2_gradient_correctness(voiced_wav):
    """Analytic gradient matches central differences to 1e-4 on 100 coords."""
    from peaudio.signal_io import load_wav

    start = time.monotonic()
    cfg = StftConfig(sample_rate=SR)
    spec = stft(load_wav(voiced_wav), cfg)
    check = check_gradient(spec, n_coords=100, seed=11)
    elapsed = time.monotonic() - start
    assert not check.all_kink
    assert check.n_checked == 100
    assert check.max_rel_err < 1e-4
    assert elapsed < 30.0
    report(2, f"max rel err {check.max_rel_err:.2e} over 100 coordinates ({elapsed:.1f}s)")


def test_criterion_3_scale_invariance(voiced_wav):
    """Mean PE agrees to 1e-4 relative across gains 0.5/1/2, clamp inactive."""
    from peaudio.signal_io import load_wav

    cfg = StftConfig(sample_rate=SR)
    spec = stft(load_wav(voiced_wav), cfg)
    quiet = absolute_threshold(cfg)
    gain = spreading_gain(cfg)
    values = {}
    for c in (0.5, 1.0, 2.0):
        spec_c = scaled(spec, c)
        res = analyze(spec_c)
        assert np.all(res.spread_threshold / gain > quiet), f"clamp active at gain {c}"
        values[c] = perceptual_entropy(spec_c, res).mean_pe
    for c in (0.5, 2.0):
        assert values[c] == pytest.approx(values[1.0], rel=1e-4)
    report(3, f"mean PE {values[1.0]:.3f} stable across gains 0.5/1/2")


def test_criterion_4_renormalization_roundtrip():
    """Flat bark spectrum reproduces the unspread attenuation per band."""
    for sr in (8000, 22050, 44100):
        cfg = StftConfig(fft_size=1024, hop=512, sample_rate=sr)
        layout = bark_layout(cfg)
        offsets = masking_offset_db(np.full(layout.n, 0.5), np.arange(1, layout.n + 1))
        raw = spread_threshold(spread(np.ones(layout.n), cfg), offsets)
        roundtrip = raw / spreading_gain(cfg)
        np.testing.assert_allclose(roundtrip, 10.0 ** (-offsets / 10.0), rtol=1e-9)
    report(4, "flat-spectrum threshold round trip holds at 8000/22050/44100 Hz")


def test_criterion_5_closed_form_cases(silence_wav):
    """Exact values at the model's corner points."""
    from peaudio.signal_io import load_wav

    cfg = StftConfig(sample_rate=SR)
    spec = stft(load_wav(silence_wav), cfg)
    result = perceptual_entropy(spec, analyze(spec))
    assert result.mean_pe == 0.0
    assert result.loss_pe == 1.0

    assert sfm_db([2.5, 2.5, 2.5, 2.5]) == 0.0
    assert tonality(-60.0) == 1.0
    assert tonality(0.0) == 0.0
    assert masking_offset_db(0.0, 7) == 5.5
    assert masking_offset_db(1.0, 1) == 15.5
    assert spread_threshold(1.0, 10.0) == 0.1
    report(5, "silence PE, flat SFM, tonality and offset endpoints, unit threshold")


def test_criterion_6_metric_oracles():
    """MCD and F0 metric closed forms plus the pitch extractor on a sine."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 25))
    assert mcd(x, x) == 0.0

    a = np.zeros((1, 25))
    b = np.zeros((1, 25))
    b[0, 7] = 1.0
    assert mcd(a, b) == pytest.approx(6.1421, abs=1e-3)
    assert mcd(a, b) == pytest.approx(MCD_CONSTANT, rel=1e-12)

    ref = F0Track(np.array([220.0, 240.0, 0.0]))
    assert f0_metrics(ref, ref) == (0.0, 0.0, 1.0)

    shifted = F0Track(np.array([221.0, 241.0, 0.0]))
    rmse, vuv, corr = f0_metrics(ref, shifted)
    assert rmse == pytest.approx(1.0, rel=1e-12)
    assert vuv == 0.0
    assert corr == pytest.approx(1.0, rel=1e-12)

    track = extract_f0(AudioBuffer(sine_signal(220.0), SR), hop_seconds=0.03)
    assert track.voiced.all()
    assert abs(track.f0[track.voiced].mean() - 220.0) < 2.0
    report(6, "MCD constants, F0 metric closed forms, 220 Hz extraction within 2 Hz")


def test_criterion_7_regularization_direction(voiced_wav):
    """PE loss pushes the toy fit toward higher final PE at matched L_sing."""
    from peaudio.signal_io import load_wav

    start = time.monotonic()
    buf = load_wav(voiced_wav)
    half = AudioBuffer(buf.samples[: SR // 2], SR)  # desk-scale clip
    cfg = StftConfig(sample_rate=SR)
    target = fit_target(stft(half, cfg))
    regularized = toy_fit(target, LossConfig(lam=0.01), steps=200, learning_rate=0.1, seed=7)
    baseline = toy_fit(target, LossConfig(lam=0.0), steps=200, learning_rate=0.1, seed=7)
    elapsed = time.monotonic() - start
    assert regularized.final_mean_pe >= baseline.final_mean_pe
    assert abs(regularized.final_l_sing - baseline.final_l_sing) <= 0.10 * baseline.final_l_sing
    assert elapsed < 60.0
    report(
        7,
        f"final PE {regularized.final_mean_pe:.3f} >= {baseline.final_mean_pe:.3f}, "
        f"L_sing within 10% ({elapsed:.1f}s)",
    )


def test_criterion_8_tonality_sanity():
    """A pure tone reads tonal in its band; white noise reads noise-like."""
    # Window leakage bounds per-band flatness at small FFT sizes, so the
    # tone check runs at fft 8192 where the band holds 60 bins.
    cfg = StftConfig(fft_size=8192, hop=4096, sample_rate=SR)
    layout = bark_layout(cfg)
    spec = stft(AudioBuffer(sine_signal(1000.0, amplitude=0.99), SR), cfg)
    res = analyze(spec)
    band = int(np.searchsorted(layout.band_edges[1:], 1000.0, side="right"))
    alpha_tone = res.tonality[:, band].mean()
    assert alpha_tone > 0.9

    rng = np.random.default_rng(99)
    noise = np.clip(rng.standard_normal(SR) / 3.5, -1.0, 1.0)
    noise_res = analyze(stft(AudioBuffer(noise, SR), cfg))
    alpha_noise = noise_res.tonality.mean()
    assert alpha_noise < 0.3
    report(8, f"tone band alpha {alpha_tone:.3f} > 0.9, noise mean alpha {alpha_noise:.3f} < 0.3")


def test_criterion_9_invariant_suite_green():
    """Every invariant/property test passes; the full run stays under 5 min."""
    tests_dir = Path(__file__).parent
    start = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", str(tests_dir), "-q", "-rfE",
            "--ignore", str(tests_dir / "test_acceptance.py"),
            "-p", "no:cacheprovider",
        ],
        capture_output=True,
        text=True,
        cwd=tests_dir.parent,
    )
    elapsed = time.monotonic() - start
    # -rfE puts one FAILED or ERROR line per failing test in the summary.
    failed = [line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    assert proc.returncode == 0, "\n".join([
        "invariant suite failed:", *failed,
        "--- stdout tail ---", proc.stdout[-4000:], "--- stderr tail ---", proc.stderr[-2000:],
    ])
    assert elapsed < 300.0
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    report(9, f"invariant suite green in {elapsed:.0f}s ({summary})")
