"""WAV loading, normalization and resampling.

All audio is reduced to mono float64 in [-1, 1]. A WAV file opens as a
sample source, whose read(a, b, step=1) decodes samples a, a + step, ...
below b from the file mapped read-only, and only those; the file must
not shrink while it is read, since touching a mapped page past its end
raises SIGBUS. Opened at a rate, it is a resampling source, which reads
just the input each range reaches. load_wav and resample fill one array
through these reads. Every CLI command opens its input at the analysis
rate; all but compare, which reads it whole once, read each block of
frames inside an STFT or walk. The resampler is a plain linear
interpolator, and at the buffer's own rate it returns the buffer itself.
At a whole-number ratio s of the rates it reads every s-th input
sample, the value linear interpolation gives at a knot, so a 44.1 kHz
file decodes only the frames a 22.05 kHz analysis keeps. It does not
band-limit, so downsampling aliases content above the new Nyquist
frequency into the bands the masking model and the metrics read;
ROADMAP Direction 7 plans a windowed-sinc replacement.

Every stage of the forward path, here and in the modules above, walks
its input in blocks of rows through map_rows, the one place that sizes
them: a block holds BLOCK_ELEMENTS values, so a stage allocates what it
returns plus a fixed number of block buffers per thread, whatever the
clip length. thread_map and fork_map share one contract, fn over items
in contiguous shares, and differ only in whether a share after the
first runs on a thread or in a forked child. map_rows alone knows
blocks: it hands its blocks, the factory of each share's work buffers
(a Workspace, as thread_map's callers pass too) and the
PARALLEL_MIN_BLOCKS threshold to the same runner, on threads. Each block
writes only its own rows, so no bit depends on the thread count.
"""

import contextvars
import math
import mmap
import os
import pickle
import stat
import struct
import sys
import warnings
import wave
from collections.abc import Callable
from dataclasses import dataclass
from threading import Thread

import numpy as np

from .errors import (
    CorruptHeaderError,
    InvalidRateError,
    NonFiniteAudioError,
    UnsupportedFormatError,
    WorkerLostError,
)

_FORMAT_PCM = 0x0001
_FORMAT_IEEE_FLOAT = 0x0003
_FORMAT_EXTENSIBLE = 0xFFFE

# Values in each work buffer of one block (2^15 float64 is 256 KiB).
BLOCK_ELEMENTS = 1 << 15
# Blocks from which a stage maps them over threads. Below it the
# second thread costs about what it saves; measured per stage in the
# README's "Threads" section, it keeps every stage of a 10 s clip serial.
PARALLEL_MIN_BLOCKS = 12
# Threads of one map, at most, the caller's among them.
MAX_THREADS = 8


def row_blocks(n_rows: int, rows: int) -> list[slice]:
    """Consecutive slices of at most `rows` rows that cover range(n_rows)."""
    return [slice(a, min(a + rows, n_rows)) for a in range(0, n_rows, rows)]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux: honours CPU affinity
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# True while a map's shares run, in every thread and child that runs one
# (each share runs in a copy of the caller's context): a map called
# inside a share runs serially, so the threads never outnumber the CPUs.
_in_map = contextvars.ContextVar("peaudio_in_map", default=False)


def _map_shares(fn, items: list, start, scratch=None, min_items=2) -> list:
    """[fn(item) for item in items] in contiguous shares, the runner of every map.

    The items are cut into min(MAX_THREADS, usable CPUs, len(items))
    shares. The calling thread runs the first share and start(run, share)
    starts each other one, returning a wait() that gives the share's
    (results, error) once its thread is joined or its child reaped. With
    scratch, a share calls scratch() once and runs fn(item, buffers) on
    what it returned. Fewer than min_items items, or a map called inside
    a share, run serially on the calling thread. Every share is waited
    for before the map returns or raises, and the error raised is the
    first in item order, the one a serial loop would raise.
    """

    def run(share):
        if scratch is None:
            return [fn(item) for item in share]
        buffers = scratch()
        return [fn(item, buffers) for item in share]

    serial = _in_map.get() or len(items) < min_items
    threads = 1 if serial else min(MAX_THREADS, usable_cpus(), len(items))
    if threads < 2:
        return run(items)
    bounds = [len(items) * i // threads for i in range(threads + 1)]
    shares = [items[a:b] for a, b in zip(bounds, bounds[1:])]
    token = _in_map.set(True)
    waits = []
    try:
        for share in shares[1:]:
            waits.append(start(run, share))
        results = run(shares[0])
    finally:
        _in_map.reset(token)
        outcomes = [wait() for wait in waits]
    for share_results, error in outcomes:
        if error is not None:
            raise error
        results += share_results
    return results


def _start_thread(run, share):
    """Start run(share) on a new thread, in a copy of the caller's context; a wait() that joins it."""
    outcome = [None, None]

    def target():
        try:
            outcome[0] = run(share)
        except BaseException as exc:  # raised again by the map, from the calling thread
            outcome[1] = exc

    thread = Thread(target=contextvars.copy_context().run, args=(target,), name="peaudio-share")
    thread.start()

    def wait():
        thread.join()
        return outcome

    return wait


def thread_map(fn, items, scratch=None) -> list:
    """[fn(item) for item in items], each share after the first on a thread started for this map.

    The shares are _map_shares'; each runs its items in order, in a copy
    of the caller's contextvars context (numpy's errstate lives there),
    and every thread is joined before the map returns or raises. With
    scratch, each share calls scratch() once and runs fn(item, buffers)
    on what it returned, as _map_shares does.
    """
    return _map_shares(fn, list(items), _start_thread, scratch)


# Only Linux forks: numpy's Accelerate BLAS on macOS is not fork-safe.
_CAN_FORK = sys.platform == "linux" and hasattr(os, "fork")


def fork_map(fn, items) -> list:
    """[fn(item) for item in items], each share after the first in a forked child process.

    thread_map's contract, for work that holds the GIL too often to gain
    from a second thread: a child made with os.fork() runs each share
    after the first and sends back its results, or the exception it
    raised, pickled over a pipe. Every child is reaped before the map
    returns or raises, and a child that ends without sending its share's
    outcome raises WorkerLostError in its place. Where the platform does
    not fork, it is thread_map.
    """
    return _map_shares(fn, list(items), _start_child if _CAN_FORK else _start_thread)


def _start_child(run, share):
    """Fork a child that runs run(share) and writes back the outcome; a wait() that reaps it."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork in a process that has threads.
            # The child runs only its share, and no thread of this module
            # outlives its map, so none is mid-share at the fork.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to be had: the caller's error line says why
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return lambda: _reap(pid, read)
    # The child leaves through os._exit whatever happens, so it never
    # unwinds into the caller or flushes the caller's stdio.
    code = 1
    try:
        os.close(read)
        try:
            outcome = run(share), None
        except Exception as exc:
            outcome = None, exc
        with open(write, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        code = 0
    finally:
        os._exit(code)


def _reap(pid: int, read: int) -> tuple[list | None, BaseException | None]:
    """(results, error) a child sent, once it has exited; WorkerLostError if it sent none."""
    try:
        with open(read, "rb") as pipe:
            data = pipe.read()
    finally:
        status = os.waitpid(pid, 0)[1]
    code = os.waitstatus_to_exitcode(status)
    if code == 0:
        return pickle.loads(data)  # bytes this module's child wrote
    reason = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
    return None, WorkerLostError(f"a forked worker process {reason} before sending its result")


def map_rows(fn, n_rows: int, row_len: int, scratch=None) -> list:
    """[fn(rows) for rows in a stage's blocks], the blocks split over threads as thread_map's items.

    The blocks are the row_blocks of range(n_rows) that hold as many rows
    of row_len values as fill BLOCK_ELEMENTS, and at least one. Below
    PARALLEL_MIN_BLOCKS blocks the map runs serially. scratch is
    thread_map's: each share calls scratch() once and runs fn(rows,
    buffers) on what it returned.
    """
    rows = max(1, BLOCK_ELEMENTS // max(row_len, 1))
    return _map_shares(fn, row_blocks(n_rows, rows), _start_thread, scratch, PARALLEL_MIN_BLOCKS)


def _whole_rate(rate, name: str) -> int:
    """rate as an int if it is a positive whole number and not a bool, else InvalidRateError."""
    try:
        if not isinstance(rate, (bool, np.bool_)) and int(rate) == rate > 0:
            return int(rate)
    except (TypeError, ValueError, OverflowError):  # int() of NaN, an infinity or a non-number
        pass
    raise InvalidRateError(f"{name} must be a positive integer, got {rate}")


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio: float64 samples in [-1, 1] plus their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", _whole_rate(self.sample_rate, "sample_rate"))
        if samples.ndim != 1:
            raise ValueError("AudioBuffer is mono: samples must be one-dimensional")
        if samples.size:
            # max and min carry any NaN or infinity, so the two reductions
            # check finiteness and full scale without a whole-clip temporary.
            peak = max(samples.max(), -samples.min())
            if not np.isfinite(peak):
                raise NonFiniteAudioError("samples contain non-finite values")
            if peak > 1.0 + 1e-12:
                raise ValueError(f"samples exceed full scale: peak {peak}")

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class _Source:
    """A clip's length, rate and read(a, b, out=None, step=1): its float64 samples in [-1, 1].

    read gives samples a, a + step, ... below b, and no others. It writes
    them into out if it is given, else returns a new contiguous array or
    a contiguous view not to be written. No bit depends on the range
    read or the step.
    """

    size: int
    sample_rate: int
    read: Callable


def _into(out, values):
    if out is None:
        return np.ascontiguousarray(values)  # a copy only of a strided view
    out[...] = values
    return out


def _buffer_source(buf: AudioBuffer) -> _Source:
    samples = np.ascontiguousarray(buf.samples)  # a copy only of a strided view
    return _Source(samples.size, buf.sample_rate,
                   lambda a, b, out=None, step=1: _into(out, samples[a:b:step]))


def _read_into(source: _Source, samples: np.ndarray) -> AudioBuffer:
    """A source's samples, read into samples (source.size values) one map_rows block at a time."""
    map_rows(lambda rows: source.read(rows.start, rows.stop, samples[rows]), source.size, 1)
    return AudioBuffer(samples, source.sample_rate)


def _whole(source: _Source) -> AudioBuffer:
    """All of a source's samples in one new array."""
    return _read_into(source, np.empty(source.size))


class Workspace:
    """Work buffers that one thread reuses from call to call, whatever it computes.

    take(name, shape) is a view of the buffer called name, which is made
    again only when a larger shape of it, or another dtype, is asked for.
    The view holds whatever the last taker left there, and it is
    overwritten by the next; nothing returned to a caller may be one.
    Names are roles, so stages that run one after the other share the
    buffer of a role: "fft_in" and "fft_out" hold a block's forward FFT
    input and output and "squares" its power or its running energy, in
    the cepstrum and then in the F0 tracker. A walk over blocks of STFT
    frames takes its stack of (rows, bins) work arrays as "walk" and its
    block's complex frames as "frames".
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _resampled(source: _Source, target_rate: int) -> _Source:
    """The source linearly interpolated to floor(size * target_rate / rate) samples, or itself.

    At a whole-number ratio s of the rates every output is at a knot, so
    a read reads every s-th input sample, the knot's value, and no other.
    Otherwise a read is one np.interp over just the input its positions
    reach, so each output has the neighbours, slope and arithmetic of a
    whole-clip call.
    """
    if target_rate == source.sample_rate:
        return source
    size = source.size * target_rate // source.sample_rate
    if source.sample_rate % target_rate == 0:
        s = source.sample_rate // target_rate
        return _Source(size, target_rate,
                       lambda a, b, out=None, step=1: source.read(a * s, b * s, out, s * step))
    ratio = source.sample_rate / target_rate
    last = source.size - 1

    def interpolate(a, b, out=None, step=1):
        positions = np.arange(a, b, step, dtype=np.float64) * ratio
        lo = min(int(positions[0]), last)
        hi = min(int(positions[-1]) + 2, last + 1)
        knots = np.arange(lo, hi, dtype=np.float64)  # float: np.interp converts int knots
        return _into(out, np.interp(positions, knots, source.read(lo, hi)))

    return _Source(size, target_rate, interpolate)


def _payload_reader(data, offset: int, frames: int, channels: int, bits: int, is_float: bool, path):
    """A (frames, channels) view of the payload and what converts a slice of it to unscaled values."""
    if is_float:
        dtype, convert = "<f4", lambda v: v
    elif bits == 8:
        dtype, convert = np.uint8, lambda v: np.subtract(v, 128, dtype=np.int32)
    elif bits == 16:
        dtype, convert = "<i2", lambda v: v
    elif bits == 24:
        # Read each 3-byte sample as an unaligned <i4 that starts one byte
        # early (a chunk header always precedes the payload): the sample
        # fills the top 24 bits and the arithmetic shift sign-extends it.
        dtype, convert, offset = "<i4", lambda v: v >> 8, offset - 1
    else:
        raise UnsupportedFormatError(f"{path}: {bits}-bit PCM is not supported (8/16/24-bit only)")
    return np.ndarray((frames, channels), dtype, data, offset, (bits // 8 * channels, bits // 8)), convert


def _open_wav(path, rate: int | None = None) -> _Source:
    """The sample source of a WAV file as load_wav decodes it, resampled to rate if one is given."""
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        if stat.S_ISREG(info.st_mode) and info.st_size:
            # Not closed here: an array over it can outlive this call in a
            # traceback, and closing a map that arrays still export raises
            # BufferError. It is unmapped once the last of them is gone.
            data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            data = fh.read()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    payload = None  # (offset, size) of the data chunk body; never sliced out
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        if pos + 8 + size > len(data):
            raise CorruptHeaderError(f"{path}: truncated '{chunk_id.decode('latin1')}' chunk")
        if chunk_id == b"fmt ":
            if size < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", data, pos + 8)
        elif chunk_id == b"data":
            payload = (pos + 8, size)
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or payload is None:
        raise CorruptHeaderError(f"{path}: missing fmt or data chunk")
    format_tag, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    offset, size = payload

    if format_tag == _FORMAT_EXTENSIBLE:
        raise UnsupportedFormatError(f"{path}: WAVE_FORMAT_EXTENSIBLE is not supported")
    if format_tag not in (_FORMAT_PCM, _FORMAT_IEEE_FLOAT):
        raise UnsupportedFormatError(f"{path}: compressed format tag 0x{format_tag:04X}")
    if channels not in (1, 2):
        raise UnsupportedFormatError(f"{path}: {channels} channels (mono/stereo only)")
    if sample_rate <= 0:
        raise CorruptHeaderError(f"{path}: non-positive sample rate in header")

    is_float = format_tag == _FORMAT_IEEE_FLOAT
    if is_float and bits != 32:
        raise UnsupportedFormatError(f"{path}: {bits}-bit float is not supported")
    if bits % 8 or bits < 8:
        raise CorruptHeaderError(f"{path}: invalid bit depth {bits}")
    if size % (bits // 8):
        kind = "float" if is_float else "PCM"
        raise CorruptHeaderError(f"{path}: {kind} payload not sample-aligned")
    count = size // (bits // 8)
    frames, convert = _payload_reader(data, offset, count // channels, channels, bits, is_float, path)
    if count % channels:
        raise CorruptHeaderError(f"{path}: payload not aligned to {channels}-channel frames")
    # Screened before any sample is decoded, so a NaN or an infinity anywhere, even
    # where a read never goes, is reported first; min and max need no temporary.
    if is_float and count and not np.isfinite([frames.min(), frames.max()]).all():
        raise NonFiniteAudioError(f"{path}: float payload holds NaN or infinite samples")
    # Stereo sums are exact (int32 holds two 24-bit samples, float64 two
    # float32 ones), and the power-of-two scale multiplies without rounding.
    scale = 1.0 / (channels * (1 if is_float else 1 << (bits - 1)))

    def decode(a, b, out=None, step=1):
        values = convert(frames[a:b:step])  # only the frames read
        if channels == 2:
            values = np.add(values[:, 0], values[:, 1], dtype=np.float64 if is_float else np.int32)
        else:
            values = values[:, 0]
        if is_float and channels == 1:
            return np.clip(values, -1.0, 1.0, out=out, dtype=np.float64)  # the scale is 1
        out = np.multiply(values, scale, out=out)
        return np.clip(out, -1.0, 1.0, out=out) if is_float else out

    source = _Source(len(frames), sample_rate, decode)
    return source if rate is None else _resampled(source, rate)


def load_wav(path) -> AudioBuffer:
    """Load a RIFF/WAVE file as normalized mono audio.

    Accepts little-endian 8/16/24-bit integer PCM and 32-bit float, mono
    or stereo. Stereo collapses to mono as exactly (L + R) / 2. Integer
    samples are scaled by the format's full-scale value, which already
    puts them in [-1, 1); float samples are clipped to [-1, 1], and NaN
    or infinite ones are rejected. A non-empty regular file is mapped
    read-only, not read onto the heap, and must not shrink while it is
    loaded: a mapped page past the file's end raises SIGBUS. A pipe or an
    empty file is read.
    """
    return _whole(_open_wav(path))


def save_wav(buf: AudioBuffer, path) -> None:
    """Write the buffer as a 16-bit PCM mono WAV file.

    Quantization mirrors the loader's full-scale convention (divide by
    32768), so save/load round-trips within half a quantization step;
    +1.0 saturates to 32767.
    """
    pcm = np.clip(np.round(buf.samples * 32768.0), -32768, 32767).astype(np.int16)
    with open(path, "wb") as fh, wave.open(fh, "wb") as out:
        out.setparams((1, 2, buf.sample_rate, 0, "NONE", "not compressed"))
        out.writeframes(pcm.tobytes())


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Resample by linear interpolation.

    Output length is floor(len * target_rate / source_rate). Resampling
    to the buffer's own rate returns the buffer itself, not a copy, which
    makes the operation idempotent at a fixed rate. At a whole-number
    ratio s of the rates it is every s-th sample, its value at a knot.
    """
    target_rate = _whole_rate(target_rate, "target_rate")
    if target_rate == buf.sample_rate:
        return buf
    return _whole(_resampled(_buffer_source(buf), target_rate))
