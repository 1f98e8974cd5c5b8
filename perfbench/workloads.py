"""The four workloads: which inputs they generate and which CLI operations they loop over.

A workload is built once per run from its seed into a work directory;
the result is a plan the worker process executes: a warm-up operation
on the smallest input, then a cycle of operations repeated whole in a
closed loop. Each operation carries the argv for ``peaudio.cli.main``,
the seconds of input audio it processes, and what its output check
needs.
"""

import os

import numpy as np

import gen

# Timed seconds of one cycle's operations on the reference host (see
# run.REFERENCE_S). A run repeats the cycle a fixed number of times,
# --seconds over this, so the same seed and --seconds always attempt
# the same operations.
CYCLE_S = {"analyze": 1.7, "fit": 0.42, "gradcheck": 3.4, "compare": 1.6}
TINY_SCALE = 0.05

FIT_STEPS = 20
GRAD_CHECK_COORDS = 100


def _op(argv, audio_s, check):
    return {"argv": [str(a) for a in argv], "audio_s": float(audio_s), "check": check}


def _analyze_ops(clip, work, tag):
    ops = []
    for command in ("analyze", "thresholds"):
        for fmt in ("csv", "json"):
            out = os.path.join(work, f"{command}-{tag}.{fmt}")
            argv = [command, clip.path, "--format", fmt, "--output", out]
            check = {"kind": command, "fmt": fmt, "output": out, "input": clip.path}
            ops.append(_op(argv, clip.seconds, check))
    return ops


def build_analyze(rng, work, tiny):
    # Forward path only, over three lengths and every WAV format; the
    # 60 s 24-bit stereo 44.1 kHz clip is resampled and sets peak memory.
    # The 1 s clip also runs a plain `analyze CLIP` (default format): with
    # 13 operations per cycle the median latency falls in the middle of
    # the 10 s clip's operations instead of on the gap between two of them.
    lengths = (0.5, 1.0, 2.0) if tiny else (1.0, 10.0, 60.0)
    formats = (gen.FLOAT32_MONO_16K, gen.PCM16_MONO_22K, gen.PCM24_STEREO_44K)
    cycle = []
    for seconds, fmt in zip(lengths, formats):
        tag = f"{seconds:g}s"
        clip = gen.make_clip(rng, os.path.join(work, f"clip-{tag}.wav"), seconds, fmt)
        cycle += _analyze_ops(clip, work, tag)
    first = cycle[0]["check"]
    out = os.path.join(work, "analyze-default.csv")
    check = {"kind": "analyze", "fmt": "csv", "output": out, "input": first["input"]}
    cycle.insert(0, _op(["analyze", first["input"], "--output", out], lengths[0], check))
    return cycle[0], cycle


def build_fit(rng, work, tiny):
    # The paper's training use: both arms of toy-fit on one 5 s target.
    seconds = 1.0 if tiny else 5.0
    steps = 2 if tiny else FIT_STEPS
    clip = gen.make_clip(rng, os.path.join(work, "target.wav"), seconds, gen.PCM16_MONO_22K)
    out = os.path.join(work, "fit.json")
    argv = ["toy-fit", clip.path, "--steps", steps, "--output", out]
    op = _op(argv, seconds, {"kind": "toy_fit", "output": out, "steps": steps})
    return op, [op]


def build_gradcheck(rng, work, tiny):
    # The 20 s clip fails the checker's 1e-4 gate on most inputs (a known
    # defect of the finite-difference quotient) and stays in so that shows.
    lengths = (0.5, 1.0, 2.0) if tiny else (1.0, 5.0, 20.0)
    coords = 10 if tiny else GRAD_CHECK_COORDS
    formats = (gen.FLOAT32_MONO_16K, gen.PCM16_MONO_22K, gen.PCM24_STEREO_44K)
    cycle = []
    for seconds, fmt in zip(lengths, formats):
        clip = gen.make_clip(rng, os.path.join(work, f"clip-{seconds:g}s.wav"), seconds, fmt)
        out = os.path.join(work, f"grad-{seconds:g}s.json")
        argv = ["grad-check", clip.path, "--n-coords", coords, "--output", out]
        cycle.append(_op(argv, seconds, {"kind": "grad_check", "output": out}))
    return cycle[0], cycle


def build_compare(rng, work, tiny):
    # Decode, resample, F0 tracking and MCD only: every second prediction
    # is stored at another rate and format, and the last row compares a
    # reference with itself, which must score exactly zero.
    seconds = 1.0 if tiny else 10.0
    n_pairs = 2 if tiny else 8
    other = (gen.PCM24_STEREO_44K, gen.FLOAT32_MONO_16K)
    pairs = []
    for i in range(n_pairs):
        ref = gen.make_clip(rng, os.path.join(work, f"ref-{i}.wav"), seconds, gen.PCM16_MONO_22K)
        fmt = gen.PCM16_MONO_22K if i % 2 == 0 else other[(i // 2) % 2]
        pred_path = os.path.join(work, f"pred-{i}.wav")
        gen.write_wav(pred_path, gen.perturb(rng, ref.samples, ref.fmt[2], fmt[2]), fmt)
        pairs.append((ref.path, pred_path))
    pairs.append((pairs[0][0], pairs[0][0]))
    manifest = os.path.join(work, "pairs.csv")
    with open(manifest, "w") as fh:
        fh.write("".join(f"{ref},{pred}\n" for ref, pred in pairs))

    out = os.path.join(work, "compare.csv")
    argv = ["compare", "--manifest", manifest, "--output", out]
    op = _op(argv, 2 * seconds * len(pairs), {"kind": "compare", "output": out, "pairs": pairs})
    warm_out = os.path.join(work, "compare-warmup.csv")
    warmup = _op(["compare", *pairs[0], "--output", warm_out], 2 * seconds, None)
    return warmup, [op]


_BUILDERS = {
    "analyze": build_analyze,
    "fit": build_fit,
    "gradcheck": build_gradcheck,
    "compare": build_compare,
}
NAMES = tuple(_BUILDERS)


def build(name, seed, work, tiny=False):
    """Generate the workload's inputs under ``work`` and return its plan."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    warmup, cycle = _BUILDERS[name](rng, work, tiny)
    cycle_s = CYCLE_S[name] * (TINY_SCALE if tiny else 1.0)
    return {"workload": name, "seed": seed, "warmup": warmup, "cycle": cycle, "cycle_s": cycle_s}
