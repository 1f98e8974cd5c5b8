import json
import os
import struct
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

import peaudio
from peaudio.cli import main
from peaudio.psychoacoustic import absolute_threshold, bark_layout
from peaudio.signal_io import AudioBuffer, save_wav
from peaudio.spectral import StftConfig

from conftest import harmonic_signal


def load_schema(name):
    with resources.files("peaudio.schemas").joinpath(name).open() as fh:
        return json.load(fh)


def run(args):
    return main(list(args))


class TestAnalyze:
    def test_silence_summary(self, silence_wav, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(["analyze", str(silence_wav), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,pe"
        assert lines[-2] == "mean_pe,0.0"
        assert lines[-1] == "loss_pe,1.0"

    def test_json_matches_schema(self, voiced_wav, tmp_path):
        out = tmp_path / "out.json"
        assert run(["analyze", str(voiced_wav), "--format", "json", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("analyze.schema.json"))
        assert payload["mean_pe"] > 0

    def test_deterministic_across_runs(self, voiced_wav, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        run(["analyze", str(voiced_wav), "--format", "json", "--output", str(a)])
        run(["analyze", str(voiced_wav), "--format", "json", "--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_gain_invariance_at_two_levels(self, tmp_path):
        # Same waveform at half gain: mean PE agrees to 1e-4 relative.
        from conftest import SR, harmonic_signal
        from peaudio.signal_io import AudioBuffer, save_wav

        sig = harmonic_signal(duration=0.5)
        full = tmp_path / "full.wav"
        half = tmp_path / "half.wav"
        save_wav(AudioBuffer(sig, SR), full)
        save_wav(AudioBuffer(0.5 * sig, SR), half)
        outs = []
        for path in (full, half):
            out = tmp_path / (path.stem + ".json")
            run(["analyze", str(path), "--format", "json", "--output", str(out)])
            outs.append(json.loads(out.read_text())["mean_pe"])
        assert outs[0] == pytest.approx(outs[1], rel=1e-4)

    def test_missing_file_is_io_error(self):
        assert run(["analyze", "/no/such/file.wav"]) == 2


class TestThresholds:
    def test_column_count_is_bands_plus_prefix(self, voiced_wav, tmp_path):
        out = tmp_path / "t.csv"
        assert run(["thresholds", str(voiced_wav), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        layout = bark_layout(StftConfig())
        assert len(lines[0].split(",")) == layout.n + 2  # frame, quantity prefix

    def test_silence_rows_equal_absolute_threshold(self, silence_wav, tmp_path):
        out = tmp_path / "t.csv"
        run(["thresholds", str(silence_wav), "--output", str(out)])
        cfg = StftConfig()
        quiet = absolute_threshold(bark_layout(cfg), cfg)
        lines = [l for l in out.read_text().splitlines()[1:] if ",threshold," in l]
        values = np.array([float(v) for v in lines[0].split(",")[2:]])
        np.testing.assert_allclose(values, quiet, rtol=1e-12)

    def test_tone_band_tonality(self, tmp_path):
        # Large FFT so the band's flatness sees the tone, not window leakage.
        from conftest import SR, sine_signal
        from peaudio.signal_io import AudioBuffer, save_wav

        wav = tmp_path / "tone.wav"
        save_wav(AudioBuffer(sine_signal(1000.0), SR), wav)
        out = tmp_path / "t.json"
        assert run([
            "thresholds", str(wav), "--fft-size", "8192", "--hop", "4096",
            "--format", "json", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("thresholds.schema.json"))
        centers = payload["band_center_hz"]
        band = next(i for i, c in enumerate(centers) if 920 <= c < 1080)
        tonal = np.array(payload["tonality"])[:, band]
        assert tonal.mean() > 0.9


class TestGradCheck:
    def test_voiced_passes(self, voiced_wav, tmp_path):
        out = tmp_path / "g.json"
        assert run([
            "grad-check", str(voiced_wav), "--n-coords", "50", "--output", str(out)
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("grad_check.schema.json"))
        assert payload["pass"] is True
        assert payload["max_rel_err_vs_fd"] < 1e-4
        assert payload["n_eligible"] >= payload["n_coords"] == 50
        assert 0 <= payload["rel_err_p50"] <= payload["rel_err_p95"] <= payload["max_rel_err_vs_fd"]

    def test_silence_vacuous_pass_with_note(self, silence_wav, tmp_path):
        out = tmp_path / "g.json"
        assert run(["grad-check", str(silence_wav), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("grad_check.schema.json"))
        assert payload["all_kink"] is True
        assert "all-kink" in payload["note"]
        assert payload["n_eligible"] == 0
        assert payload["rel_err_p50"] is None and payload["rel_err_p95"] is None

    def test_long_clip_passes(self, tmp_path):
        # A whole-clip difference quotient lost precision as 1/T and failed
        # the 1e-4 gate on this 20 s clip (max_rel_err 1.1e-4) although the
        # gradient is right; the frame-local quotient keeps it near 1e-7.
        wav = tmp_path / "long.wav"
        save_wav(AudioBuffer(harmonic_signal(duration=20.0, seed=2), 22050), wav)
        out = tmp_path / "g.json"
        assert run(["grad-check", str(wav), "--n-coords", "100", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["n_coords"] == 100
        assert payload["max_rel_err_vs_fd"] < 1e-5

    def test_zero_coords_is_config_error(self, voiced_wav):
        assert run(["grad-check", str(voiced_wav), "--n-coords", "0"]) == 3


class TestCompare:
    def test_self_comparison(self, sine_wav_factory, tmp_path):
        wav = sine_wav_factory(220.0)
        out = tmp_path / "c.csv"
        assert run(["compare", str(wav), str(wav), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert float(row[2]) == 0.0  # mcd

    def test_manifest_rows_plus_mean(self, sine_wav_factory, tmp_path):
        a = sine_wav_factory(220.0, name="a.wav")
        b = sine_wav_factory(247.0, name="b.wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{a},{a}\n{a},{b}\n{b},{b}\n")
        out = tmp_path / "c.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 3 rows + mean
        assert lines[-1].startswith("mean,")

    def test_manifest_json_schema(self, sine_wav_factory, tmp_path):
        a = sine_wav_factory(220.0, name="a.wav")
        b = sine_wav_factory(247.0, name="b.wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{a},{b}\n{b},{a}\n")
        out = tmp_path / "c.json"
        assert run([
            "compare", "--manifest", str(manifest), "--format", "json", "--output", str(out)
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("compare.schema.json"))

    def test_missing_pred_no_partial_output(self, sine_wav_factory, tmp_path):
        a = sine_wav_factory(220.0)
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{a},{a}\n{a},{tmp_path / 'missing.wav'}\n")
        out = tmp_path / "c.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 2
        assert not out.exists()

    def test_pair_arguments_required(self, sine_wav_factory):
        wav = sine_wav_factory(220.0)
        assert run(["compare", str(wav)]) == 3

    def test_empty_manifest_is_config_error(self, tmp_path, capsys):
        manifest = tmp_path / "m.csv"
        manifest.write_text("\n  \n")
        out = tmp_path / "c.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert not out.exists()


class TestToyFit:
    def test_lambda_zero_arms_identical(self, voiced_wav, tmp_path):
        out = tmp_path / "t.json"
        assert run([
            "toy-fit", str(voiced_wav), "--steps", "3", "--lambda", "0", "--output", str(out)
        ]) == 0
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("toy_fit.schema.json"))
        assert payload["regularized"]["curve"] == payload["baseline"]["curve"]

    def test_bit_identical_across_runs(self, voiced_wav, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run(["toy-fit", str(voiced_wav), "--steps", "3", "--output", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_steps_is_config_error(self, voiced_wav):
        assert run(["toy-fit", str(voiced_wav), "--steps", "0"]) == 3

    def test_divergence_is_one_stderr_line(self, sine_wav_factory):
        # In a process of its own, as a shell runs it: numpy's overflow
        # warnings would print before the error line.
        path = sine_wav_factory(440.0)
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "peaudio.cli", "toy-fit", str(path),
             "--steps", "300", "--lr", "1e6"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 1
        assert len(err) == 1
        assert err[0].startswith("error: loss became non-finite at step ")


class TestConfigHandling:
    def test_config_file_applies(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("fft_size = 512\nhop = 256\nformat = json\n")
        out = tmp_path / "o.json"
        assert run([
            "analyze", str(voiced_wav), "--config", str(cfg), "--output", str(out)
        ]) == 0
        payload = json.loads(out.read_text())
        expected_frames = 1 + (22050 - 512) // 256
        assert len(payload["per_frame_pe"]) == expected_frames

    def test_flags_beat_config_file(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("format = json\nfft_size = 512\nhop = 256\n")
        out = tmp_path / "o.json"
        assert run([
            "analyze", str(voiced_wav), "--config", str(cfg),
            "--fft-size", "1024", "--hop", "512", "--output", str(out),
        ]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["per_frame_pe"]) == 1 + (22050 - 1024) // 512

    def test_env_var_supplies_config(self, voiced_wav, tmp_path, monkeypatch):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("format = json\n")
        monkeypatch.setenv("PE_AUDIO_CONFIG", str(cfg))
        out = tmp_path / "o.json"
        assert run(["analyze", str(voiced_wav), "--output", str(out)]) == 0
        json.loads(out.read_text())  # json because the env config said so

    def test_unknown_key_rejected(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("windowing = hann\n")
        assert run(["analyze", str(voiced_wav), "--config", str(cfg)]) == 3

    def test_bad_flag_value(self, voiced_wav):
        assert run(["analyze", str(voiced_wav), "--fft-size", "1000"]) == 3

    def test_unknown_flag_is_config_error(self, voiced_wav):
        assert run(["analyze", str(voiced_wav), "--no-such-flag"]) == 3

    def test_fft_too_small_for_bark_bands(self, voiced_wav, capsys):
        # 64 bins at 22050 Hz are 345 Hz apart: the 100-200 Hz band gets none.
        assert run(["analyze", str(voiced_wav), "--fft-size", "64", "--hop", "32"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("config error:") and "no FFT bin" in err[0]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--lr", "nan"],
            ["--lr", "inf"],
            ["--lr", "-0.5"],
            ["--lr", "0"],
            ["--lambda", "nan"],
            ["--lambda", "inf"],
        ],
    )
    def test_bad_toy_fit_rate_or_lambda(self, voiced_wav, tmp_path, capsys, flags):
        out = tmp_path / "t.json"
        args = ["toy-fit", str(voiced_wav), "--steps", "2", "--output", str(out), *flags]
        assert run(args) == 3
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:")
        assert captured.out == ""
        assert not out.exists()

    def test_non_finite_lambda_in_config_file(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("lambda = nan\n")
        assert run(["analyze", str(voiced_wav), "--config", str(cfg)]) == 3


class TestInputErrors:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_wav_is_io_error(self, tmp_path, capsys, bad):
        samples = [0.1 * np.sin(0.05 * i) for i in range(4096)]
        samples[100] = bad
        payload = struct.pack(f"<{len(samples)}f", *samples)
        fmt = struct.pack("<HHIIHH", 3, 1, 22050, 22050 * 4, 4, 32)
        body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
        body += b"data" + struct.pack("<I", len(payload)) + payload
        wav = tmp_path / "bad.wav"
        wav.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        assert run(["analyze", str(wav)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "NaN or infinite" in err[0]
