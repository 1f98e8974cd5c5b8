"""Seeded synthetic WAV inputs for the benchmark.

A clip is a sequence of voiced (harmonic stack with a slow F0 glide),
vibrato (harmonic stack with ~5.5 Hz frequency modulation) and noise
(band-shaped noise burst) segments separated by exact-zero silent gaps.
Clips are written in the three formats the loader has to handle: 16-bit
mono PCM, 24-bit stereo PCM and 32-bit mono IEEE float. The same seed
always gives byte-identical files; the program only ever sees the files.
"""

import struct
from dataclasses import dataclass

import numpy as np

# Formats the workloads mix: (bits, channels, sample_rate, float).
PCM16_MONO_22K = (16, 1, 22050, False)
PCM24_STEREO_44K = (24, 2, 44100, False)
FLOAT32_MONO_16K = (32, 1, 16000, True)


@dataclass(frozen=True)
class Clip:
    path: str
    seconds: float
    fmt: tuple
    samples: np.ndarray  # the float signal before quantization, mono


def _harmonic(rng, n, rate, f0_track):
    """Band-limited harmonic stack following a per-sample F0 track."""
    phase = 2 * np.pi * np.cumsum(f0_track) / rate
    out = np.zeros(n)
    tilt = rng.uniform(0.6, 1.2)
    for k in range(1, 40):
        if k * f0_track.max() >= 0.45 * rate:
            break
        out += np.sin(k * phase + rng.uniform(0, 2 * np.pi)) / k**tilt
    return out


def _segment(rng, kind, n, rate):
    t = np.arange(n) / rate
    if kind == "noise":
        white = rng.standard_normal(n + 64)
        taps = rng.uniform(-1, 1, 64) * np.hanning(64)
        sig = np.convolve(white, taps, mode="valid")[:n]
    else:
        f0 = rng.uniform(110.0, 420.0)
        if kind == "voiced":
            track = f0 * (1.0 + rng.uniform(-0.08, 0.08) * t / max(t[-1], 1e-9))
        else:
            depth = rng.uniform(0.01, 0.03)
            track = f0 * (1.0 + depth * np.sin(2 * np.pi * rng.uniform(5.0, 6.5) * t))
        sig = _harmonic(rng, n, rate, track)
        sig += 1e-3 * rng.standard_normal(n)  # breath noise floor
    ramp = min(n // 2, int(0.01 * rate))
    env = np.ones(n)
    if ramp:
        env[:ramp] = np.linspace(0, 1, ramp)
        env[-ramp:] = np.linspace(1, 0, ramp)
    sig = sig * env
    return rng.uniform(0.15, 0.8) * sig / max(np.abs(sig).max(), 1e-12)


def synth(rng, seconds, rate):
    """Mono float signal in [-1, 1] of exactly round(seconds*rate) samples."""
    total = int(round(seconds * rate))
    out = np.zeros(total)
    pos = int(rng.uniform(0.0, 0.05) * rate)
    kind = "voiced"  # every clip opens voiced, so it always has a pitch track
    while pos < total:
        n = min(total - pos, int(rng.uniform(0.3, 1.5) * rate))
        if n < 64:
            break
        out[pos : pos + n] = _segment(rng, kind, n, rate)
        pos += n + int(rng.uniform(0.05, 0.3) * rate)  # silent gap
        kind = rng.choice(["voiced", "voiced", "vibrato", "noise"])
    return out


def write_wav(path, mono, fmt):
    """Write a mono float signal in the given (bits, channels, rate, float) format.

    The second channel of a stereo file is the first delayed by one
    sample and scaled by 0.9, so the loader's channel average differs
    from either channel.
    """
    bits, channels, rate, is_float = fmt
    x = np.clip(np.asarray(mono, dtype=np.float64), -1.0, 1.0)
    if channels == 2:
        right = 0.9 * np.concatenate(([0.0], x[:-1]))
        x = np.stack([x, right], axis=1).ravel()
    if is_float:
        payload = x.astype("<f4").tobytes()
        tag = 3
    elif bits == 16:
        payload = np.round(x * 32767).astype("<i2").tobytes()
        tag = 1
    elif bits == 24:
        ints = np.round(x * 8388607).astype("<i4")
        payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        tag = 1
    else:
        raise ValueError(f"unsupported format {fmt}")
    block = channels * bits // 8
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, tag, channels, rate, rate * block, block, bits),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def make_clip(rng, path, seconds, fmt) -> Clip:
    samples = synth(rng, seconds, fmt[2])
    write_wav(path, samples, fmt)
    return Clip(str(path), seconds, fmt, samples)


def perturb(rng, samples, rate, out_rate):
    """A 'prediction' of a reference: slight detune, added noise, new rate.

    The rate change uses plain linear interpolation; the program
    resamples it back for comparison.
    """
    n = samples.size
    stretch = 1.0 + rng.uniform(-0.01, 0.01)
    src = np.clip(np.arange(n) * stretch, 0, n - 1)
    y = np.interp(src, np.arange(n), samples)
    y = y + rng.uniform(0.002, 0.02) * rng.standard_normal(n)
    if out_rate != rate:
        m = n * out_rate // rate
        y = np.interp(np.arange(m) * (rate / out_rate), np.arange(n), y)
    return np.clip(y, -1.0, 1.0)
