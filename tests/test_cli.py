import contextlib
import inspect
import io
import itertools
import json
import math
import os
import pkgutil
import re
import signal
import struct
import subprocess
import sys
import tempfile
import threading
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import peaudio
from peaudio import cli, signal_io, spectral
from peaudio.cli import _REPORT_COLUMNS, _json_text, _mean_report_row, build_parser, main
from peaudio.cli import resolve_config
from peaudio.errors import DivergenceError
from peaudio.metrics import compare
from peaudio.pe import DEFAULT_N_COORDS, DEFAULT_SEED, LossConfig, check_gradient, fit_target
from peaudio.pe import toy_fit
from peaudio.psychoacoustic import absolute_threshold, bark_layout
from peaudio.signal_io import AudioBuffer, load_wav, resample, save_wav
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
        quiet = absolute_threshold(cfg)
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
    def test_default_coordinate_count_is_the_library_default(self):
        args = build_parser().parse_args(["grad-check", "in.wav"])
        default = inspect.signature(check_gradient).parameters["n_coords"].default
        assert args.n_coords == default == DEFAULT_N_COORDS

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

    def test_zero_exact_gradient_passes_vacuously(self, voiced_wav, tmp_path, capsys):
        # fft 2 puts every band on the flat-band kink, where the exact
        # gradient is 0; roundoff partials used to fail the check (exit 1).
        out = tmp_path / "g.json"
        argv = ["grad-check", str(voiced_wav), "--fft-size", "2", "--hop", "2",
                "--sample-rate", "100", "--n-coords", "5", "--output", str(out)]
        assert run(argv) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        jsonschema.validate(payload, load_schema("grad_check.schema.json"))
        assert payload["pass"] is True and payload["all_kink"] is True
        assert "all-kink" in payload["note"]

    def test_zero_coords_is_config_error(self, voiced_wav):
        assert run(["grad-check", str(voiced_wav), "--n-coords", "0"]) == 3

    def test_over_tolerance_is_exit_1_with_the_verdict_written(
        self, voiced_wav, tmp_path, capsys, monkeypatch
    ):
        # At a tolerance of 0 any roundoff in the differences fails the
        # check; the JSON carries the tolerance the verdict was taken at.
        monkeypatch.setattr("peaudio.pe.GRAD_CHECK_TOLERANCE", 0.0)
        out = tmp_path / "g.json"
        argv = ["grad-check", str(voiced_wav), "--n-coords", "20", "--output", str(out)]
        assert run(argv) == 1
        payload = json.loads(out.read_text())
        assert payload["pass"] is False and payload["tolerance"] == 0.0
        assert "note" not in payload
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gradient check failed: worst coordinate {'frame':")


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
        # Blank lines only, and bytes that are not UTF-8 (once a traceback).
        for content in (b"\n  \n", b"\xff\xfe,a"):
            manifest = tmp_path / "m.csv"
            manifest.write_bytes(content)
            out = tmp_path / "c.csv"
            assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:")
            assert not out.exists()

    @pytest.mark.parametrize(
        "row", ["{a},", " ,{a}", "{a}", "{a},{a},{a}"],
        ids=["empty-pred", "empty-ref", "one-field", "three-fields"],
    )
    def test_malformed_manifest_row_is_config_error(self, sine_wav_factory, tmp_path, capsys, row):
        a = sine_wav_factory(220.0)
        manifest = tmp_path / "m.csv"
        manifest.write_text(row.format(a=a) + "\n")
        out = tmp_path / "c.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 3
        assert capsys.readouterr().err == f"config error: {manifest}:1: expected 'ref,pred'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv", [["compare", "WAV", "WAV"], ["toy-fit", "WAV", "--steps", "1"]],
        ids=["compare", "toy-fit"],
    )
    def test_mel_band_count_is_not_a_setting(self, voiced_wav, tmp_path, argv):
        # The band count is spectral.N_MELS: neither a flag nor a config key sets it.
        argv = [str(voiced_wav) if arg == "WAV" else arg for arg in argv]
        code, stdout, stderr, left = run_to_file([*argv, "--n-mels", "40"])
        assert (code, stderr) == (3, "peaudio: error: unrecognized arguments: --n-mels 40\n")
        assert_clean_failure(stdout, stderr, left)
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("n_mels = 40\n")
        code, stdout, stderr, left = run_to_file([*argv, "--config", str(cfg)])
        assert (code, stderr) == (3, f"config error: {cfg}:1: unknown key 'n_mels'\n")
        assert_clean_failure(stdout, stderr, left)

    def test_options_between_the_inputs(self, sine_wav_factory, capsys):
        a = sine_wav_factory(220.0, name="a.wav")
        b = sine_wav_factory(247.0, name="b.wav")
        assert run(["compare", str(a), str(b), "--format", "json", "--hop", "512"]) == 0
        expected = capsys.readouterr()
        for argv in (
            [str(a), "--format", "json", str(b), "--hop", "512"],
            ["--format", "json", str(a), "--hop", "512", str(b)],
            ["--hop", "512", "--format", "json", str(a), str(b)],
        ):
            assert run(["compare", *argv]) == 0
            assert capsys.readouterr() == expected

    def test_third_input_is_one_line_config_error(self, sine_wav_factory, capsys):
        a, b, c = (str(sine_wav_factory(220.0, name=f"{n}.wav")) for n in "abc")
        for argv in ([a, b, c], [a, "--format", "json", b, c], [a, b, "--hop", "512", c]):
            assert run(["compare", *argv]) == 3
            assert capsys.readouterr().err.splitlines() == [
                f"peaudio: error: unrecognized arguments: {c}"
            ]

    @pytest.mark.parametrize("samples, flags, detail", [
        (100, [], "need at least fft_size=1024 samples, got 100"),
        (600, ["--fft-size", "512", "--hop", "256"],
         "need at least 0.04 s for one F0 frame, got 600 samples"),
    ], ids=["stft-frame", "f0-frame"])
    def test_short_input_is_named(
        self, sine_wav_factory, tmp_path, capsys, samples, flags, detail
    ):
        good = sine_wav_factory(220.0, name="good.wav")
        short = tmp_path / "short.wav"
        save_wav(AudioBuffer(np.full(samples, 0.5), 22050), short)
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{good},{good}\n{good},{short}\n")
        for argv, label in (
            ([str(short), str(good)], ""),
            ([str(good), str(short)], ""),
            (["--manifest", str(manifest)], f"{manifest}:2: "),
        ):
            assert run(["compare", *argv, *flags]) == 2
            assert capsys.readouterr().err.splitlines() == [f"error: {label}{short}: {detail}"]

    def test_length_mismatch_warns_once_per_pair(self, sine_wav_factory, tmp_path):
        # In a fresh interpreter, under Python's default warning filters,
        # which show a repeated warning message only once.
        a = sine_wav_factory(220.0, duration=1.0, name="a.wav")
        b = sine_wav_factory(220.0, duration=0.5, name="b.wav")
        c = sine_wav_factory(247.0, duration=0.5, name="c.wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{a},{b}\n{a},{a}\n{a},{c}\n")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        env.pop("PYTHONWARNINGS", None)
        mismatch = "frame counts differ by more than 5% (32 vs 16)"
        for argv, warned in (
            ([str(a), str(b)], [f"warning: {a} and {b}: {mismatch}"]),
            (["--manifest", str(manifest)], [
                f"warning: {manifest}:1: {a} and {b}: {mismatch}",
                f"warning: {manifest}:3: {a} and {c}: {mismatch}",
            ]),
        ):
            proc = subprocess.run(
                [sys.executable, "-m", "peaudio.cli", "compare", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert (proc.returncode, proc.stderr.splitlines()) == (0, warned)
            expected = io.StringIO()
            with contextlib.redirect_stdout(expected):
                assert run(["compare", *argv]) == 0
            assert proc.stdout == expected.getvalue()

    def test_manifest_reports_first_failing_row(self, sine_wav_factory, tmp_path, capsys):
        good = sine_wav_factory(220.0, name="good.wav")
        not_riff = tmp_path / "not-riff.wav"
        not_riff.write_bytes(b"OggS" + bytes(60))
        short = tmp_path / "short.wav"
        save_wav(AudioBuffer(np.zeros(100), 22050), short)
        rows = {
            "missing": (f"{good},{tmp_path / 'missing.wav'}", "i/o error: ", "missing.wav"),
            "not-riff": (f"{not_riff},{good}", "error: ", "not a RIFF/WAVE file"),
            "short": (f"{good},{short}", "error: ", "need at least fft_size=512"),
        }
        manifest = tmp_path / "m.csv"
        out = tmp_path / "c.csv"
        for order in itertools.permutations(rows):
            for valid_at in range(len(order) + 1):
                lines = [rows[name][0] for name in order]
                lines.insert(valid_at, f"{good},{good}")
                manifest.write_text("\n".join(lines) + "\n")
                argv = ["compare", "--manifest", str(manifest), "--output", str(out)]
                assert run([*argv, "--fft-size", "512", "--hop", "256"]) == 2
                lineno = 1 + (valid_at == 0)
                _, prefix, detail = rows[order[0]]
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1, err
                assert err[0].startswith(f"{prefix}{manifest}:{lineno}: "), err
                assert detail in err[0], err
                assert not out.exists()


    @pytest.mark.parametrize("extra", [["a.wav"], ["a.wav", "b.wav"]], ids=["ref", "ref-pred"])
    def test_manifest_with_inputs_is_config_error(
        self, sine_wav_factory, tmp_path, capsys, extra
    ):
        a = sine_wav_factory(220.0, name="a.wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{a},{a}\n")
        out = tmp_path / "c.csv"
        argv = ["compare", "--manifest", str(manifest), *extra, "--output", str(out)]
        assert run(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert not out.exists()


def pcm24_stereo_wav_bytes(samples, rate) -> bytes:
    """A 24-bit PCM stereo WAV file with the samples in both channels."""
    ints = np.round(np.asarray(samples) * (2**23 - 1)).astype("<i4")
    payload = np.repeat(ints, 2).view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    fmt = struct.pack("<HHIIHH", 1, 2, rate, rate * 6, 6, 24)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def compare_rows_alone(pairs, fmt) -> str:
    """The bytes compare --manifest writes, each row scored alone by metrics.compare."""
    rows = [compare(ref, pred, StftConfig()).to_json_dict() for ref, pred in pairs]
    mean = _mean_report_row(rows)
    if fmt == "json":
        return _json_text({
            "rows": [{"ref": ref, "pred": pred, **row} for (ref, pred), row in zip(pairs, rows)],
            "mean": mean,
        })

    def cells(row):
        return ",".join("" if row[c] is None else repr(row[c]) for c in _REPORT_COLUMNS)

    lines = ["ref,pred," + ",".join(_REPORT_COLUMNS)]
    lines += [f"{ref},{pred},{cells(row)}" for (ref, pred), row in zip(pairs, rows)]
    lines.append(f"mean,,{cells(mean)}")
    return "\n".join(lines) + "\n"


class TestCompareByFile:
    """compare --manifest: one task per distinct file, rows scored from their features."""

    @pytest.fixture
    def systems(self, tmp_path):
        # Two references; three systems' predictions of the first one at
        # other rates and formats; and a self-pair.
        ref = tmp_path / "ref.wav"
        save_wav(AudioBuffer(harmonic_signal(f0=220.0), 22050), ref)
        other = tmp_path / "other.wav"
        save_wav(AudioBuffer(harmonic_signal(f0=180.0, seed=3), 22050), other)
        pred = tmp_path / "pred.wav"
        save_wav(AudioBuffer(harmonic_signal(f0=224.0, seed=5), 22050), pred)
        pred_44k = tmp_path / "pred-44k.wav"
        pred_44k.write_bytes(
            pcm24_stereo_wav_bytes(harmonic_signal(f0=216.0, sr=44100, seed=6), 44100)
        )
        pred_16k = tmp_path / "pred-16k.wav"
        pred_16k.write_bytes(float_wav_bytes(harmonic_signal(f0=230.0, sr=16000, seed=7), 16000))
        pairs = [
            (str(ref), str(pred)),
            (str(other), str(pred_16k)),
            (str(ref), str(pred_44k)),
            (str(other), str(other)),
            (str(ref), str(pred_16k)),
        ]
        manifest = tmp_path / "m.csv"
        manifest.write_text("".join(f"{a},{b}\n" for a, b in pairs))
        return manifest, pairs

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_bytes_of_each_row_scored_alone(self, systems, tmp_path, capsys, monkeypatch, cpus):
        manifest, pairs = systems
        monkeypatch.setattr("peaudio.signal_io.usable_cpus", lambda: cpus)
        for fmt in ("csv", "json"):
            out = tmp_path / f"c.{fmt}"
            argv = ["compare", "--manifest", str(manifest), "--format", fmt, "--output", str(out)]
            assert run(argv) == 0
            assert capsys.readouterr().err == ""
            assert out.read_text() == compare_rows_alone(pairs, fmt)

    def test_each_file_decoded_once(self, systems, tmp_path, monkeypatch):
        manifest, pairs = systems
        decoded = []

        def counting_load_wav(path):
            decoded.append(path)
            return load_wav(path)

        monkeypatch.setattr("peaudio.metrics.load_wav", counting_load_wav)
        assert run(["compare", "--manifest", str(manifest), "--output", str(tmp_path / "c")]) == 0
        distinct = list(dict.fromkeys(path for pair in pairs for path in pair))
        assert sorted(decoded) == sorted(distinct)

    def expect_error(self, tmp_path, capsys, rows, line):
        manifest = tmp_path / "m.csv"
        manifest.write_text("".join(f"{a},{b}\n" for a, b in rows))
        out = tmp_path / "c.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [line.format(manifest=manifest)]
        assert not out.exists()

    def test_missing_pred_before_a_later_short_ref(self, sine_wav_factory, tmp_path, capsys):
        good = sine_wav_factory(220.0, name="good.wav")
        short = tmp_path / "short.wav"
        save_wav(AudioBuffer(np.full(100, 0.5), 22050), short)
        missing = tmp_path / "missing.wav"
        self.expect_error(
            tmp_path, capsys, [(good, good), (good, missing), (short, good)],
            f"i/o error: {{manifest}}:2: [Errno 2] No such file or directory: '{missing}'",
        )

    def test_a_file_failing_in_two_rows_is_reported_at_the_first(
        self, sine_wav_factory, tmp_path, capsys
    ):
        good = sine_wav_factory(220.0, name="good.wav")
        other = sine_wav_factory(247.0, name="other.wav")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"OggS" + bytes(60))
        self.expect_error(
            tmp_path, capsys, [(good, other), (good, bad), (other, good), (bad, other)],
            f"error: {{manifest}}:2: {bad}: not a RIFF/WAVE file",
        )

    def test_a_missing_pred_before_its_short_ref(self, tmp_path, capsys):
        short = tmp_path / "short.wav"
        save_wav(AudioBuffer(np.full(100, 0.5), 22050), short)
        missing = tmp_path / "missing.wav"
        detail = f"[Errno 2] No such file or directory: '{missing}'"
        line = f"i/o error: {{manifest}}:1: {detail}"
        self.expect_error(tmp_path, capsys, [(short, missing)], line)
        assert run(["compare", str(short), str(missing)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"i/o error: {detail}"]


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

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_concurrent_arms_match_serial_fits(self, voiced_wav, tmp_path, monkeypatch, cpus):
        # With two usable CPUs the baseline arm runs in a forked child,
        # with one both run on the calling thread, with numpy's BLAS
        # threads as the test process has them; the bytes must be those
        # of two fits run one after the other, each against a reference
        # of its own.
        monkeypatch.setattr("peaudio.signal_io.usable_cpus", lambda: cpus)
        out = tmp_path / "t.json"
        assert run(["toy-fit", str(voiced_wav), "--steps", "3", "--output", str(out)]) == 0
        buf = resample(load_wav(voiced_wav), spectral.DEFAULT_SAMPLE_RATE)
        spec = spectral.stft(buf, StftConfig())
        serial = {
            name: toy_fit(fit_target(spec), LossConfig(lam=lam), steps=3,
                          learning_rate=0.1).to_json_dict()
            for name, lam in (("regularized", LossConfig.lam), ("baseline", 0.0))
        }
        assert out.read_text() == json.dumps(serial, indent=2) + "\n"
        # No arm can write the reference the other reads.
        target = fit_target(spec)
        for array in (target.magnitude, target.phase, target.mel):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0

    def test_zero_steps_is_config_error(self, voiced_wav):
        assert run(["toy-fit", str(voiced_wav), "--steps", "0"]) == 3

    def test_divergence_is_one_stderr_line(self, sine_wav_factory, tmp_path):
        # In a process of its own, as a shell runs it: numpy's overflow
        # warnings would print before the error line. Both arms diverge,
        # the baseline arm in a forked child; the regularized arm's error
        # is reported.
        path = sine_wav_factory(440.0)
        out = tmp_path / "fit.json"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "peaudio.cli", "toy-fit", str(path),
             "--steps", "300", "--lr", "1e6", "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 1
        assert len(err) == 1
        assert err[0].startswith("error: loss became non-finite at step ")
        assert proc.stdout == ""
        assert not out.exists()


@pytest.mark.skipif(not signal_io._CAN_FORK, reason="the baseline arm forks on Linux only")
class TestForkedArm:
    """toy-fit's baseline arm runs in a forked child while there are two usable CPUs."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)

    @staticmethod
    def in_the_child(monkeypatch, fail):
        """Patch cli.toy_fit to call fail() in the forked child and fit as usual in this process."""
        parent, real = os.getpid(), cli.toy_fit

        def fit(*args, **kwargs):
            if os.getpid() != parent:
                fail()
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "toy_fit", fit)

    @staticmethod
    def assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("lam", ["0.01", "100"])
    def test_same_bytes_as_the_thread_map_fallback(self, voiced_wav, tmp_path, monkeypatch, lam):
        outputs = []
        for can_fork in (True, False):
            monkeypatch.setattr(signal_io, "_CAN_FORK", can_fork)
            out = tmp_path / f"fit-{can_fork}.json"
            argv = ["toy-fit", str(voiced_wav), "--steps", "3", "--lambda", lam]
            assert run([*argv, "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        self.assert_no_child_left()

    @pytest.mark.parametrize("error, code, line", [
        (DivergenceError(4), 1, "error: loss became non-finite at step 4"),
        (MemoryError("Unable to allocate 1.00 TiB"), 2,
         "error: out of memory: Unable to allocate 1.00 TiB"),
    ], ids=["divergence", "memory"])
    def test_an_error_in_the_child_is_the_one_line_of_today(
        self, voiced_wav, tmp_path, capfd, monkeypatch, error, code, line
    ):
        def fail():
            raise error

        self.in_the_child(monkeypatch, fail)
        out = tmp_path / "fit.json"
        assert run(["toy-fit", str(voiced_wav), "--steps", "2", "--output", str(out)]) == code
        assert capfd.readouterr() == ("", line + "\n")
        assert not out.exists()
        self.assert_no_child_left()

    def test_a_child_killed_by_a_signal_is_one_line_exit_2(
        self, voiced_wav, tmp_path, capfd, monkeypatch
    ):
        self.in_the_child(monkeypatch, lambda: os.kill(os.getpid(), signal.SIGKILL))
        out = tmp_path / "fit.json"
        assert run(["toy-fit", str(voiced_wav), "--steps", "2", "--output", str(out)]) == 2
        stdout, stderr = capfd.readouterr()
        assert stdout == ""
        assert stderr == (
            f"error: a forked worker process was killed by signal {int(signal.SIGKILL)}"
            " before sending its result\n"
        )
        assert not out.exists()
        self.assert_no_child_left()

    def test_the_child_writes_nothing_and_flushes_nothing(self, voiced_wav, tmp_path):
        # In a process of its own whose stdout is a buffered pipe, so the
        # text written before the fit is still in the parent's buffer when
        # the child is forked: it must reach stdout once.
        out = tmp_path / "fit.json"
        script = (
            "import os, sys\n"
            "from peaudio import signal_io\n"
            "from peaudio.cli import main\n"
            "signal_io.usable_cpus = lambda: 2\n"
            "sys.stdout.write('before\\n')\n"
            "code = main(sys.argv[1:])\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    print('no child left', code)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.run(
            [sys.executable, "-c", script, "toy-fit", str(voiced_wav), "--steps", "2",
             "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        lines = proc.stdout.splitlines()
        assert proc.stderr == ""
        assert lines[0] == "before" and lines[1].startswith("final mean PE: regularized")
        assert lines[2:] == ["no child left 0"]
        assert out.exists()


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),  # NaN and both infinities among them
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-05]),
    st.text(),  # non-ASCII and control characters among them
)
json_payloads = st.recursive(
    # Lists of lists of scalars take the writer's grid path; empty rows do not.
    json_scalars | st.lists(st.lists(json_scalars, max_size=4), max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=40,
)


class TestJsonText:
    @settings(max_examples=500, deadline=None)
    @given(payload=json_payloads)
    @example(payload={
        "caf\u00e9 \u2713": [[-0.0, 5e-324], [1e16, 1e-05]],
        "special": [math.nan, math.inf, -math.inf, True, False, None, -3],
        "empty": [[], {}, [[]], [[], [1.5]]],
        "nested": {"rows": [[1, "\U0001F600"], ["\n\"", None]]},
    })
    def test_bytes_of_json_dumps_with_indent_2(self, payload):
        assert _json_text(payload) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "WAV"],
        ["thresholds", "WAV"],
        ["grad-check", "WAV", "--n-coords", "5"],
        ["compare", "WAV", "WAV"],
        ["toy-fit", "WAV", "--steps", "2"],
    ])
    def test_cli_json_is_stdlib_indent_2(self, short_wav, tmp_path, argv):
        # Pins every command's JSON to the stdlib's bytes, whatever writer makes them.
        out = tmp_path / "out.json"
        argv = [str(short_wav) if arg == "WAV" else arg for arg in argv]
        code, _, stderr = run_quietly([*argv, "--format", "json", "--output", str(out)])
        assert code == 0, stderr
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


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

    def test_comments_and_blank_lines_are_skipped(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("# frames every 512 samples\n\nhop = 512  # x\n")
        via_file, via_flag = tmp_path / "file.csv", tmp_path / "flag.csv"
        assert run([
            "analyze", str(voiced_wav), "--config", str(cfg), "--output", str(via_file)
        ]) == 0
        assert run(["analyze", str(voiced_wav), "--hop", "512", "--output", str(via_flag)]) == 0
        assert via_file.read_bytes() == via_flag.read_bytes()
        assert len(via_file.read_text().splitlines()) == 3 + 1 + (22050 - 1024) // 512

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

    @pytest.mark.parametrize("command", [["grad-check"], ["toy-fit", "--steps", "2"]])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_is_config_error(self, voiced_wav, tmp_path, capsys, command, source):
        out = tmp_path / "out.json"
        args = [command[0], str(voiced_wav), *command[1:], "--output", str(out)]
        if source == "flag":
            args += ["--seed", "-1"]
        else:
            cfg = tmp_path / "pe.cfg"
            cfg.write_text("seed = -1\n")
            args += ["--config", str(cfg)]
        assert run(args) == 3
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("config error:") and "seed" in err[0]
        assert captured.out == ""
        assert not out.exists()


# Per config-file key: the CliConfig field it sets, its flag, the library
# default, and valid values that differ from it, so that a flag, the file and the
# default can each leave a value of their own.
SETTINGS = {
    "sample_rate": ("sample_rate", "--sample-rate", spectral.DEFAULT_SAMPLE_RATE, [16000, 44100]),
    "fft_size": ("fft_size", "--fft-size", spectral.DEFAULT_FFT_SIZE, [2048, 4096]),
    "hop": ("hop", "--hop", spectral.DEFAULT_HOP, [256, 400]),
    "lambda": ("lam", "--lambda", LossConfig().lam, [0.0, 0.5]),
    "seed": ("seed", "--seed", DEFAULT_SEED, [0, 7]),
    "format": ("format", "--format", "csv", ["json"]),
}


def some_settings():
    """Any subset of the keys, each with one of its valid values."""
    return st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(setting[-1]) for key, setting in SETTINGS.items()}
    )


def flag_argv(values: dict) -> list:
    return [arg for key, v in values.items() for arg in (SETTINGS[key][1], str(v))]


def config_file_text(values: dict) -> str:
    return "".join(f"{key} = {v}\n" for key, v in values.items())


@contextlib.contextmanager
def config_source(text: str, via_env: bool):
    """Write text to a config file; yield the extra argv that names it.

    Named by --config, the environment variable points at a missing file,
    which would be a config error if it were read.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "pe.cfg")
        with open(path, "w") as fh:
            fh.write(text)
        env_path = path if via_env else os.path.join(tmp, "missing.cfg")
        with mock.patch.dict(os.environ, {"PE_AUDIO_CONFIG": env_path}):
            yield [] if via_env else ["--config", path]


def run_quietly(argv):
    """main(argv) with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


ascii_text = st.text(st.characters(min_codepoint=32, max_codepoint=126, exclude_characters="#="))


def converts(kind, raw: str) -> bool:
    try:
        kind(raw.strip())
    except ValueError:
        return False
    return True


@st.composite
def bad_config_lines(draw):
    """One line that makes a config file unusable, whatever else it holds."""
    kind = draw(st.sampled_from(["malformed", "unknown key", "uncoercible"]))
    if kind == "malformed":
        return draw(ascii_text.filter(str.strip))
    if kind == "unknown key":
        keys = st.from_regex(r"[a-z_]{1,12}", fullmatch=True)
        return f"{draw(keys.filter(lambda k: k not in SETTINGS))} = {draw(ascii_text)}"
    key = draw(st.sampled_from([k for k in SETTINGS if k != "format"]))
    parse = float if key == "lambda" else int
    return f"{key} = {draw(ascii_text.filter(lambda raw: not converts(parse, raw)))}"


class TestConfigMerge:
    @settings(max_examples=150, deadline=None)
    @given(file_values=some_settings(), flag_values=some_settings(), via_env=st.booleans())
    def test_flag_beats_file_beats_library_default(self, file_values, flag_values, via_env):
        with config_source(config_file_text(file_values), via_env) as config_argv:
            args = build_parser().parse_args(
                ["analyze", "in.wav", *config_argv, *flag_argv(flag_values)]
            )
            cfg = resolve_config(args)
        for key, (name, _, default, _) in SETTINGS.items():
            want = flag_values.get(key, file_values.get(key, default))
            assert getattr(cfg, name) == want, key

    def test_readme_lists_every_flag_and_key(self):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme) as fh:
            section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
        flags = re.search(r"Shared flags: `([^`]*)`", section)[1].split()
        keys = re.search(r"\(keys:([^;]*);", section)[1].split(",")
        assert flags == [
            "--" + key.replace("_", "-") for key in cli._FIELDS_BY_KEY
        ] + ["--output", "--config"]
        assert [key.strip() for key in keys] == list(cli._FIELDS_BY_KEY)

    @settings(max_examples=150, deadline=None)
    @given(
        good=some_settings(),
        flag_values=some_settings(),
        bad=bad_config_lines(),
        at=st.integers(min_value=0, max_value=len(SETTINGS)),
        via_env=st.booleans(),
    )
    def test_bad_config_file_is_one_line_config_error(
        self, voiced_wav, good, flag_values, bad, at, via_env
    ):
        # The last line for a key wins, so no good line may follow a bad value.
        good.pop(bad.split("=", 1)[0].strip(), None)
        lines = config_file_text(good).splitlines()
        lines.insert(min(at, len(lines)), bad)
        with config_source("\n".join(lines) + "\n", via_env) as config_argv:
            out = os.path.join(os.path.dirname(os.environ["PE_AUDIO_CONFIG"]), "out.csv")
            argv = ["analyze", str(voiced_wav), "--output", out, *config_argv]
            code, stdout, stderr = run_quietly(argv + flag_argv(flag_values))
            assert not os.path.exists(out)
        assert code == 3
        assert stdout == ""
        assert len(stderr.splitlines()) == 1 and stderr.startswith("config error: ")

    def test_undecodable_config_file_is_config_error(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_bytes(b"hop = \xff\xfe\n")
        code, _, stderr = run_quietly(["analyze", str(voiced_wav), "--config", str(cfg)])
        assert code == 3
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith(f"config error: cannot read config file {cfg}: ")


class TestArgparseErrors:
    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--no-such-flag"], "peaudio: error: unrecognized arguments: --no-such-flag"),
            (["--hop", "abc"], "peaudio analyze: error: argument --hop: invalid int value: 'abc'"),
            (["--format", "xml"], "config error: format must be csv or json, got 'xml'"),
        ],
    )
    def test_one_stderr_line_exit_3(self, voiced_wav, flags, line):
        assert run_quietly(["analyze", str(voiced_wav), *flags]) == (3, "", line + "\n")

    def test_bad_format_in_config_file_reads_as_the_flag_does(self, voiced_wav, tmp_path):
        cfg = tmp_path / "pe.cfg"
        cfg.write_text("format = xml\n")
        code, _, stderr = run_quietly(["analyze", str(voiced_wav), "--config", str(cfg)])
        assert (code, stderr) == (3, "config error: format must be csv or json, got 'xml'\n")


@pytest.fixture(scope="module")
def short_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wavs") / "short.wav"
    save_wav(AudioBuffer(harmonic_signal(duration=0.25), 22050), path)
    return path


@st.composite
def boundary_argv(draw):
    """A masking command or compare with any STFT setup, valid or not, within bounded sizes.

    "WAV" stands for each input. Rates stop at 48 kHz: resampling to far
    higher rates allocates in proportion to the rate, which is not what
    this test is about.
    """
    command = draw(st.sampled_from(["analyze", "thresholds", "grad-check", "compare"]))
    fft = 2 ** draw(st.integers(min_value=1, max_value=12))
    in_range = st.integers(min_value=max(1, fft // 8), max_value=fft)
    hop = draw(st.one_of(in_range, st.sampled_from([0, -1, fft + 1])))
    rate = draw(st.sampled_from([1, 50, 100, 8000, 16000, 22050, 44100, 48000, 0, -5]))
    options = ["--fft-size", str(fft), "--hop", str(hop), "--sample-rate", str(rate)]
    if command == "grad-check":
        options += ["--n-coords", str(draw(st.sampled_from([-3, 0, 1, 10**6])))]
    if command == "compare":
        options += ["--format", draw(st.sampled_from(["csv", "json"]))]
        # compare's second input goes before, between or after the options.
        options.insert(2 * draw(st.integers(0, len(options) // 2)), "WAV")
    return [command, "WAV", *options]


def run_to_file(argv):
    """run_quietly(argv + ["--output", FILE]): (code, stdout, stderr, whether FILE was left)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        code, stdout, stderr = run_quietly([*argv, "--output", out])
        return code, stdout, stderr, os.path.exists(out)


def assert_clean_failure(stdout, stderr, left):
    """A failed command printed one stderr line, no traceback, and left no output file."""
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and "Traceback" not in stderr, stderr
    assert not left


class TestCliBoundary:
    @settings(max_examples=300, deadline=None)
    @given(argv=boundary_argv())
    def test_clean_exit_one_line_no_partial_output(self, short_wav, argv):
        code, stdout, stderr, left = run_to_file(
            [str(short_wav) if arg == "WAV" else arg for arg in argv]
        )
        assert code in (0, 2, 3), stderr
        if code == 0:
            assert stdout == "" and left
        else:
            assert_clean_failure(stdout, stderr, left)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.one_of(
            st.integers(max_value=0), st.integers(1, 3), st.integers(10**3, 10**12)
        ),
        data=st.data(),
    )
    def test_toy_fit_any_step_count(self, short_wav, steps, data):
        # A long run only gets a rate at which it diverges within a few
        # dozen steps, so every example ends in well under a second.
        rates = [1e6, 1e30, 1e300] if steps > 3 else [0.1, 1e300, 0.0, -1.0, math.nan, math.inf]
        lr = data.draw(st.sampled_from(rates))
        argv = ["toy-fit", str(short_wav), "--steps", str(steps), "--lr", str(lr)]
        code, stdout, stderr, left = run_to_file(argv)
        if steps < 1 or not 0.0 < lr < math.inf:
            assert code == 3, stderr
            assert stderr.startswith("config error: ")
        else:
            assert code in (0, 1), stderr
        if code == 0:
            assert left and stderr == ""
            assert stdout.startswith("final mean PE: ")
        else:
            assert_clean_failure(stdout, stderr, left)
        if code == 1:
            assert stderr.startswith("error: loss became non-finite at step ")


def float_wav_bytes(samples, rate=22050, channels=1) -> bytes:
    """A 32-bit IEEE float WAV file of the samples, interleaved if stereo."""
    payload = np.asarray(samples, dtype="<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


@st.composite
def non_finite_wavs(draw):
    """A float WAV of a quiet tone with NaN or an infinity at random positions."""
    channels = draw(st.sampled_from([1, 2]))
    n = channels * draw(st.integers(min_value=1, max_value=8192))
    samples = 0.1 * np.sin(0.05 * np.arange(n))
    bad = st.sampled_from([math.nan, math.inf, -math.inf])
    for at in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8)):
        samples[at] = draw(bad)
    return float_wav_bytes(samples, draw(st.sampled_from([16000, 22050])), channels)


class TestInputErrors:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_wav_is_io_error(self, tmp_path, capsys, bad):
        samples = [0.1 * np.sin(0.05 * i) for i in range(4096)]
        samples[100] = bad
        wav = tmp_path / "bad.wav"
        wav.write_bytes(float_wav_bytes(samples))
        assert run(["analyze", str(wav)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "NaN or infinite" in err[0]

    @settings(max_examples=100, deadline=None)
    @given(
        wav=non_finite_wavs(),
        command=st.sampled_from(["analyze", "thresholds", "compare ref", "compare pred"]),
        fmt=st.sampled_from(["csv", "json"]),
    )
    # +inf beside -inf in one stereo frame once added numpy's "invalid
    # value" warning to stderr before the error line.
    @example(wav=float_wav_bytes([math.inf, -math.inf], channels=2), command="analyze", fmt="csv")
    def test_non_finite_samples_anywhere(self, short_wav, wav, command, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            bad = os.path.join(tmp, "bad.wav")
            with open(bad, "wb") as fh:
                fh.write(wav)
            paths = {
                "analyze": [bad], "thresholds": [bad],
                "compare ref": [bad, str(short_wav)], "compare pred": [str(short_wav), bad],
            }[command]
            argv = [command.split()[0], *paths, "--format", fmt]
            code, stdout, stderr, left = run_to_file(argv)
        assert code == 2, stderr
        assert_clean_failure(stdout, stderr, left)
        assert stderr.startswith("error: ") and "NaN or infinite" in stderr


class TestOutOfMemory:
    def test_memory_error_is_one_line_exit_2(self, sine_wav_factory, tmp_path):
        # Resampling 1 s to 2 GHz asks numpy for a 14.9 GiB array, which a
        # 1,500 MB address-space limit refuses: a MemoryError, as a huge
        # input or setting gives on a small machine.
        path = sine_wav_factory(220.0)
        out = tmp_path / "pe.csv"
        script = (
            "import resource, sys\n"
            "limit = 1500 * 2**20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from peaudio.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, "analyze", str(path), "--sample-rate", "2000000000",
             "--fft-size", "33554432", "--hop", "16777216", "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        err = proc.stderr.splitlines()
        assert proc.returncode == 2, proc.stderr
        assert len(err) == 1 and err[0].startswith("error: out of memory"), proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command, worker", [
        ("toy-fit", "toy_fit"), ("compare", "file_features"), ("compare", "metrics.extract_f0"),
    ])
    def test_memory_error_in_a_pool_thread(
        self, voiced_wav, sine_wav_factory, tmp_path, capsys, monkeypatch, command, worker
    ):
        # The calling thread runs the first file or arm itself; the error
        # is raised on the pool thread that runs the other file, or in the
        # forked child that runs the baseline arm (a child's only thread is
        # its main thread). A bare worker name is the CLI's;
        # metrics.extract_f0 fails inside file_features, whose catch-all
        # returns the error for the row to raise.
        target = worker if "." in worker else f"cli.{worker}"
        real = pkgutil.resolve_name(f"peaudio.{target}")
        parent = os.getpid()

        def exhausted(*args, **kwargs):
            if threading.current_thread() is threading.main_thread() and os.getpid() == parent:
                return real(*args, **kwargs)
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(f"peaudio.{target}", exhausted)
        monkeypatch.setattr("peaudio.signal_io.usable_cpus", lambda: 2)
        out = tmp_path / "out"
        if command == "compare":
            args = [str(voiced_wav), str(sine_wav_factory(247.0))]
        else:
            args = [str(voiced_wav), "--steps", "2"]
        assert run([command, *args, "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: out of memory: Unable to allocate 1.00 TiB"]
        assert not out.exists()

    def test_memory_error_in_a_block_on_a_pool_thread(
        self, sine_wav_factory, tmp_path, capsys, monkeypatch, pool_spy
    ):
        # analyze forms a 3 s clip's 99 frames inside the PE walk, in two
        # blocks of 63 rows; at a threshold of 2 the pool thread transforms
        # the second, and its FFTs fail.
        rfft = np.fft.rfft

        def exhausted(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                return rfft(*args, **kwargs)
            raise MemoryError("Unable to allocate 1.00 TiB")

        monkeypatch.setattr(np.fft, "rfft", exhausted)
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)
        out = tmp_path / "pe.csv"
        assert run(["analyze", str(sine_wav_factory(220.0, 3.0)), "--output", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: out of memory: Unable to allocate 1.00 TiB"]
        assert not out.exists()
        assert pool_spy.futures and all(future.done() for future in pool_spy.futures)


class TestSharedPool:
    """Every map of every command runs on the one pool, and none nests in another."""

    @pytest.fixture(autouse=True)
    def every_stage_maps(self, monkeypatch):
        # Two CPUs, and every stage of two blocks or more maps them.
        monkeypatch.setattr(signal_io, "usable_cpus", lambda: 2)
        monkeypatch.setattr(signal_io, "PARALLEL_MIN_BLOCKS", 2)

    def argv(self, command, voiced_wav, sine_wav_factory, tmp_path):
        if command == "compare":
            other = sine_wav_factory(247.0, duration=3.0, name="other.wav")
            manifest = tmp_path / "m.csv"
            manifest.write_text(f"{voiced_wav},{other}\n{other},{voiced_wav}\n")
            return ["compare", "--manifest", str(manifest)]
        clip = sine_wav_factory(220.0, duration=3.0)
        if command == "toy-fit":
            return ["toy-fit", str(clip), "--steps", "2"]
        return ["analyze", str(clip)]

    @pytest.mark.parametrize("command, maps", [("compare", 1), ("toy-fit", 2)])
    def test_no_map_submits_from_a_pool_thread(
        self, voiced_wav, sine_wav_factory, tmp_path, pool_spy, command, maps
    ):
        # The files are one map of two shares. toy-fit decodes its target
        # and takes its STFT in a map each; its arms then run in this
        # process and a forked child, which submit nothing. The stages
        # inside a share or an arm run serially, though each has two
        # blocks or more.
        argv = self.argv(command, voiced_wav, sine_wav_factory, tmp_path)
        assert run([*argv, "--output", str(tmp_path / "out")]) == 0
        assert pool_spy.submitters == [threading.main_thread()] * maps

    @pytest.mark.parametrize("command", ["analyze", "compare", "toy-fit"])
    def test_no_pool_work_runs_after_main_returns(
        self, voiced_wav, sine_wav_factory, tmp_path, pool_spy, command
    ):
        argv = self.argv(command, voiced_wav, sine_wav_factory, tmp_path)
        assert run([*argv, "--output", str(tmp_path / "out")]) == 0
        assert pool_spy.futures
        assert all(future.done() for future in pool_spy.futures)


@pytest.mark.skipif(sys.platform != "linux", reason="reads Linux's ru_minflt")
class TestToyFitFaults:
    def test_a_step_does_not_fault_its_memory_back_in(self, tmp_path):
        # In a fresh interpreter, after a warm-up run: a 24-step fit on a
        # 5 s clip may take only a little more than a 4-step one, counting
        # the faults of the forked child that runs the baseline arm. A step
        # that allocated and freed a whole spectrum took about 870 minor
        # faults more, as the allocator returned the pages and the next
        # step touched them again.
        pytest.importorskip("resource")
        clip = tmp_path / "target.wav"
        rng = np.random.default_rng(DEFAULT_SEED)
        t = np.arange(5 * 22050) / 22050
        sig = 0.5 * np.sin(2 * np.pi * 220.0 * t) + 0.05 * rng.standard_normal(t.size)
        save_wav(AudioBuffer(sig, 22050), clip)
        script = (
            "import resource, sys\n"
            "from peaudio.cli import main\n"
            "clip, out = sys.argv[1], sys.argv[2]\n"
            "def minflt():\n"
            "    return sum(resource.getrusage(who).ru_minflt\n"
            "               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))\n"
            "def faults(steps):\n"
            "    before = minflt()\n"
            "    code = main(['toy-fit', clip, '--steps', str(steps), '--output', out])\n"
            "    assert code == 0, code\n"
            "    return minflt() - before\n"
            "faults(2)\n"
            "print(faults(4), faults(24))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(clip), str(tmp_path / "fit.json")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        short, long = (int(n) for n in proc.stdout.splitlines()[-1].split())
        assert (long - short) / 20 < 100, (short, long)


class TestColdStart:
    def test_no_command_imports_scipy_signal(self, voiced_wav, tmp_path):
        # In a fresh interpreter, as a shell runs it: scipy.signal alone
        # roughly doubles the import time and the import-time RSS, and
        # scipy.fft cost compare 0.24-0.34 s and 25 MB.
        script = (
            "import sys\n"
            "from peaudio.cli import main\n"
            "wav, out = sys.argv[1], sys.argv[2]\n"
            "codes = [\n"
            "    main(['analyze', wav, '--output', out]),\n"
            "    main(['thresholds', wav, '--output', out]),\n"
            "    main(['grad-check', wav, '--n-coords', '5', '--output', out]),\n"
            "    main(['toy-fit', wav, '--steps', '1', '--output', out]),\n"
            "    main(['compare', wav, wav, '--output', out]),\n"
            "]\n"
            "print(codes, 'scipy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(voiced_wav), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] False"

    def test_fresh_interpreter_manifest_at_8_cpus_equals_warm_run(
        self, voiced_wav, sine_wav_factory, tmp_path
    ):
        # A fresh interpreter's pool threads do their first work, and any
        # first-use setup, at about the same time; the bytes must not change.
        other = sine_wav_factory(247.0, name="other.wav")
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"{voiced_wav},{other}\n{other},{voiced_wav}\n" * 4)
        script = (
            "import sys\n"
            "from peaudio import cli, signal_io\n"
            "signal_io.usable_cpus = lambda: 8\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(peaudio.__file__)))
        fresh = tmp_path / "fresh.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script, "compare", "--manifest", str(manifest),
             "--output", str(fresh)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        warm = tmp_path / "warm.csv"
        assert run(["compare", "--manifest", str(manifest), "--output", str(warm)]) == 0
        assert fresh.read_bytes() == warm.read_bytes()
