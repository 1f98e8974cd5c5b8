import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

import peaudio
from peaudio.signal_io import AudioBuffer, save_wav

from conftest import SR, harmonic_signal

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from cli_identity import describe, numeric_diff  # noqa: E402

COMMANDS = ("analyze", "thresholds", "grad-check")
# Runs every command on the clip in argv[1], each into <command>.out, and
# prints their exit codes.
RUN_COMMANDS = (
    "import sys\n"
    "from peaudio.cli import main\n"
    f"print(*(main([c, sys.argv[1], '--output', c + '.out']) for c in {COMMANDS!r}))\n"
)
NPY_TARGET = "X86_V4 AVX512_ICL AVX512_SPR"


def test_same_tree_twice_has_no_differences():
    src = str(ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "cli_identity.py"), src, src, "--tiny"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.splitlines()[-1].endswith(" runs compared, 0 differences")


def test_numeric_diff_counts_numbers_and_their_largest_relative_difference():
    old = "frame,pe\n0,1.0\n1,-2.5e-05\nmean_pe,7\n"
    new = "frame,pe\n0,1.0000000000000002\n1,-2.5e-05\nmean_pe,7\n"
    n_differ, n_numbers, largest = numeric_diff(old, new)
    assert (n_differ, n_numbers) == (1, 5)
    assert largest == pytest.approx(2.2e-16, rel=0.01)
    assert describe(old.encode(), new.encode()) == "1 of 5 numbers differ, at most 2.2e-16 relative"


def test_numeric_diff_reports_an_extra_column_as_a_structure_difference():
    old = "frame,pe\n0,1.0\n"
    new = "frame,pe\n0,1.0,3.5\n"
    assert numeric_diff(old, new) is None
    assert describe(old.encode(), new.encode()) == "structure differs"


def run_commands(clip: Path, out_dir: Path, **target) -> dict:
    """Exit code and output text of each command, run in a child process under target's env."""
    out_dir.mkdir()
    env = {**os.environ, "PYTHONPATH": str(Path(peaudio.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", **target}
    env.pop("PE_AUDIO_CONFIG", None)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_COMMANDS, str(clip)],
        cwd=out_dir, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes = [int(code) for code in proc.stdout.split()]
    return {c: (code, (out_dir / f"{c}.out").read_text()) for c, code in zip(COMMANDS, codes)}


@pytest.fixture(scope="module")
def dispatch_clip(tmp_path_factory):
    path = tmp_path_factory.mktemp("dispatch") / "clip.wav"
    save_wav(AudioBuffer(harmonic_signal(duration=2.0), SR), path)
    return path


@pytest.fixture(scope="module")
def default_outputs(dispatch_clip, tmp_path_factory):
    return run_commands(dispatch_clip, tmp_path_factory.mktemp("dispatch") / "default")


@pytest.mark.parametrize("target, exact", [
    pytest.param(
        {"OPENBLAS_CORETYPE": "Prescott"}, True, id="openblas-prescott",
        marks=pytest.mark.skipif(
            platform.machine().lower() not in ("x86_64", "amd64"),
            reason="Prescott is an x86-64 OpenBLAS core type",
        ),
    ),
    pytest.param(
        {"NPY_DISABLE_CPU_FEATURES": NPY_TARGET}, False, id="numpy-without-avx512",
        marks=pytest.mark.skipif(
            not all(__cpu_features__.get(feature) for feature in NPY_TARGET.split()),
            reason=f"the host lacks one of numpy's {NPY_TARGET} targets",
        ),
    ),
])
def test_other_cpu_dispatch_target_moves_numbers_by_ulps_only(
    dispatch_clip, default_outputs, tmp_path, target, exact
):
    # No BLAS product reaches these commands, so another BLAS kernel
    # changes no byte. Another numpy SIMD target may round differently,
    # but by no more than a few ulps.
    outputs = run_commands(dispatch_clip, tmp_path / "target", **target)
    if exact:
        assert outputs == default_outputs
        return
    for command in ("analyze", "thresholds"):
        (code, text), (default_code, default_text) = outputs[command], default_outputs[command]
        assert code == default_code == 0
        diff = numeric_diff(default_text, text)
        assert diff is not None, f"{command}: structure differs"
        assert diff[2] <= 1e-13, f"{command}: {diff}"
    code, text = outputs["grad-check"]
    default_code, default_text = default_outputs["grad-check"]
    assert code == default_code
    assert json.loads(text)["pass"] == json.loads(default_text)["pass"]
