"""WAV loading, normalization and resampling.

All audio is reduced to mono float64 in [-1, 1] on load. The resampler
is a plain linear interpolator: adequate here because nothing downstream
depends on resampler quality, but it does not band-limit, so
downsampling aliases content above the new Nyquist.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptHeaderError,
    InvalidRateError,
    NonFiniteAudioError,
    UnsupportedFormatError,
)

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if int(self.sample_rate) != self.sample_rate or self.sample_rate <= 0:
            raise InvalidRateError(f"sample_rate must be a positive integer, got {self.sample_rate}")
        object.__setattr__(self, "sample_rate", int(self.sample_rate))
        if samples.ndim != 1:
            raise ValueError("AudioBuffer is mono: samples must be one-dimensional")
        if samples.size:
            if not np.isfinite(samples).all():
                raise NonFiniteAudioError("samples contain non-finite values")
            peak = np.abs(samples).max()
            if peak > 1.0 + 1e-12:
                raise ValueError(f"samples exceed full scale: peak {peak}")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate

    def scaled(self, gain: float) -> "AudioBuffer":
        """Copy with samples multiplied by ``gain`` (result must stay in [-1, 1])."""
        return AudioBuffer(self.samples * gain, self.sample_rate)


def _decode_pcm(payload: bytes, bits: int, path) -> np.ndarray:
    if bits == 8:
        raw = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
        return (raw - 128.0) / 128.0
    if bits == 16:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64)
        return raw / 32768.0
    if bits == 24:
        triplets = np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).astype(np.int64)
        raw = triplets[:, 0] | (triplets[:, 1] << 8) | (triplets[:, 2] << 16)
        raw = (raw ^ 0x800000) - 0x800000  # sign-extend 24 -> 64 bit
        return raw.astype(np.float64) / float(1 << 23)
    raise UnsupportedFormatError(f"{path}: {bits}-bit PCM is not supported (8/16/24-bit only)")


def load_wav(path) -> AudioBuffer:
    """Load a RIFF/WAVE file as normalized mono audio.

    Accepts little-endian 8/16/24-bit integer PCM and 32-bit float, mono
    or stereo. Stereo collapses to mono by averaging the channels.
    Integer samples are scaled by the format's full-scale value; float
    samples are clipped to [-1, 1], and NaN or infinite ones are rejected.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptHeaderError(f"{path}: truncated '{chunk_id.decode('latin1')}' chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise CorruptHeaderError(f"{path}: missing fmt or data chunk")
    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt

    if format_tag == _FORMAT_EXTENSIBLE:
        raise UnsupportedFormatError(f"{path}: WAVE_FORMAT_EXTENSIBLE is not supported")
    if format_tag not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatError(f"{path}: compressed format tag 0x{format_tag:04X}")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {channels} channels (mono/stereo only)")
    if sample_rate <= 0:
        raise CorruptHeaderError(f"{path}: non-positive sample rate in header")

    if format_tag == _FORMAT_IEEE_FLOAT:
        if bits != 32:
            raise UnsupportedFormatError(f"{path}: {bits}-bit float is not supported")
        if len(payload) % 4:
            raise CorruptHeaderError(f"{path}: float payload not sample-aligned")
        samples = np.frombuffer(payload, dtype="<f4").astype(np.float64)
        if not np.isfinite(samples).all():
            raise NonFiniteAudioError(f"{path}: float payload holds NaN or infinite samples")
    else:
        bytes_per_sample = bits // 8
        if bits % 8 or bytes_per_sample == 0:
            raise CorruptHeaderError(f"{path}: invalid bit depth {bits}")
        if len(payload) % bytes_per_sample:
            raise CorruptHeaderError(f"{path}: PCM payload not sample-aligned")
        samples = _decode_pcm(payload, bits, path)

    if samples.size % channels:
        raise CorruptHeaderError(f"{path}: payload not aligned to {channels}-channel frames")
    if channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    samples = np.clip(samples, -1.0, 1.0)
    return AudioBuffer(samples, sample_rate)


def save_wav(buf: AudioBuffer, path) -> None:
    """Write the buffer as a 16-bit PCM mono WAV file.

    Quantization mirrors the loader's full-scale convention (divide by
    32768), so save/load round-trips within half a quantization step;
    +1.0 saturates to 32767.
    """
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = pcm.tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            struct.pack("<IHHIIHH", 16, _FORMAT_PCM, 1, buf.sample_rate, buf.sample_rate * 2, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation.

    Output length is floor(len * target_rate / source_rate). Resampling
    to the buffer's own rate returns an identical copy, which makes the
    operation idempotent at a fixed rate.
    """
    if target_rate <= 0 or int(target_rate) != target_rate:
        raise InvalidRateError(f"target_rate must be a positive integer, got {target_rate}")
    target_rate = int(target_rate)
    if target_rate == buf.sample_rate:
        return AudioBuffer(buf.samples.copy(), target_rate)
    n_out = buf.samples.size * target_rate // buf.sample_rate
    if n_out == 0 or buf.samples.size == 0:
        return AudioBuffer(np.zeros(0), target_rate)
    positions = np.arange(n_out) * (buf.sample_rate / target_rate)
    out = np.interp(positions, np.arange(buf.samples.size), buf.samples)
    return AudioBuffer(out, target_rate)
