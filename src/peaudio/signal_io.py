"""WAV loading, normalization and resampling.

All audio is reduced to mono float64 in [-1, 1] on load. The resampler
is a plain linear interpolator, and at the buffer's own rate it returns
the buffer itself. It does not band-limit, so downsampling aliases
content above the new Nyquist frequency into the bands the masking
model and the metrics read; ROADMAP Direction 7 plans a windowed-sinc
replacement.

Every stage of the forward path, here and in the modules above, walks
its input in blocks of rows through map_rows, the one place that sizes
them: a block holds BLOCK_ELEMENTS values, so a stage allocates what it
returns plus a fixed number of block buffers per thread, whatever the
clip length. CLI analyze and thresholds form each block of STFT frames
from the samples inside their walk, so they hold no spectrum at all.
From PARALLEL_MIN_BLOCKS blocks up map_rows maps them over the
process's one thread pool (thread_map); each block writes only its own
rows, so no bit depends on the thread count.
"""

import concurrent.futures
import contextvars
import os
import pickle
import struct
import sys
import threading
import warnings
from dataclasses import dataclass

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
# Blocks from which a stage maps them over the thread pool. Below it the
# second thread costs about what it saves; measured per stage in the
# README's "Threads" section, it keeps every stage of a 10 s clip serial.
PARALLEL_MIN_BLOCKS = 12
# Threads of the pool, at most, and so of one map, the caller's among them.
MAX_THREADS = 8


def row_blocks(n_rows: int, rows: int) -> list[slice]:
    """Consecutive slices of at most `rows` rows that cover range(n_rows)."""
    return [slice(a, min(a + rows, n_rows)) for a in range(0, n_rows, rows)]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # Linux: honours CPU affinity
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# The process's one pool, started on first use: a pool per map cost more
# than a 60 s clip's stages gained from it. It is process state, not an
# object callers pass, because every stage and command shares it.
_pool = None
_pool_lock = threading.Lock()
# True while a map's shares run, on every thread that runs one (each
# share runs in a copy of the caller's context): a map called inside a
# share runs serially, so the pool never waits on itself and the threads
# never outnumber the CPUs.
_in_map = contextvars.ContextVar("peaudio_in_map", default=False)


def _shared_pool() -> concurrent.futures.Executor:
    global _pool
    with _pool_lock:
        if _pool is None:
            threads = min(MAX_THREADS, usable_cpus())
            _pool = concurrent.futures.ThreadPoolExecutor(threads, "peaudio")
        return _pool


def _forget_pool() -> None:
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_forget_pool)


def _shares(items: list, min_items: int) -> list[list]:
    """items cut into one contiguous share per thread of a map: [items] where it runs serially."""
    serial = _in_map.get() or len(items) < min_items
    threads = 1 if serial else min(MAX_THREADS, usable_cpus(), len(items))
    bounds = [len(items) * i // threads for i in range(threads + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


def thread_map(fn, items, scratch=None, min_items=2) -> list:
    """[fn(item) for item in items], the items split over the shared thread pool.

    The items are cut into min(MAX_THREADS, usable CPUs, len(items))
    contiguous shares. The calling thread runs the first share and pool
    threads the others, each in a copy of the caller's contextvars
    context (numpy's errstate lives there), each share's items in order.
    With scratch, a share calls scratch() once and runs fn(item, buffers)
    on what it returned, so each thread allocates its work buffers once
    per map. Fewer than min_items items, or a map called inside a
    share, run serially on the calling thread. Every share
    finishes before the map returns or raises, and the error raised is
    the first in item order, the one a serial loop would raise.
    """
    items = list(items)

    def run(share):
        if scratch is None:
            return [fn(item) for item in share]
        buffers = scratch()
        return [fn(item, buffers) for item in share]

    shares = _shares(items, min_items)
    if len(shares) < 2:
        return run(items)
    token = _in_map.set(True)
    try:
        pool = _shared_pool()
        futures = [pool.submit(contextvars.copy_context().run, run, s) for s in shares[1:]]
        try:
            results = run(shares[0])
        finally:
            concurrent.futures.wait(futures)
    finally:
        _in_map.reset(token)
    for future in futures:
        results += future.result()
    return results


# Only Linux forks: numpy's Accelerate BLAS on macOS is not fork-safe.
_CAN_FORK = sys.platform == "linux" and hasattr(os, "fork")


def _stop_pool() -> None:
    """Join the shared pool's threads; the next map starts a new pool."""
    global _pool
    with _pool_lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


def fork_map(fn, items) -> list:
    """thread_map(fn, items), with each share after the first run in a forked child process.

    For work that holds the GIL too often to gain from a second thread.
    The shares are thread_map's; the calling process runs the first and
    a child made with os.fork() each other one, and sends back its
    results, or the exception it raised, pickled over a pipe. Before it
    forks it stops the shared pool, so no pool thread holds a lock that
    a child would inherit locked; call it where no other thread uses the
    pool, as the CLI does. Every child is reaped before the map returns
    or raises, the error raised is the first in item order, and a child
    that ends without sending its share's outcome raises WorkerLostError
    in its place. Where a map would run serially, or the platform does
    not fork, it is thread_map.
    """
    items = list(items)
    shares = _shares(items, 2)
    if not _CAN_FORK or len(shares) < 2:
        return thread_map(fn, items)
    _stop_pool()
    token = _in_map.set(True)  # each process runs its share's stages serially
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork(fn, share))
        results = [fn(item) for item in shares[0]]
    finally:
        _in_map.reset(token)
        outcomes = [_reap(*child) for child in children]
    for share_results, error in outcomes:
        if error is not None:
            raise error
        results += share_results
    return results


def _fork(fn, share) -> tuple[int, int]:
    """(pid, read end of its pipe) of a child that runs fn over share and writes back the outcome."""
    read, write = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns of a fork in a process that has threads.
            # The child runs only fn, and the pool's threads are stopped.
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:  # no process to be had: the caller's error line says why
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    # The child leaves through os._exit whatever happens, so it never
    # unwinds into the caller or flushes the caller's stdio.
    code = 1
    try:
        os.close(read)
        try:
            outcome = [fn(item) for item in share], None
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
    """[fn(rows) for rows in a stage's blocks], the blocks split over the shared thread pool.

    The blocks are the row_blocks of range(n_rows) that hold as many rows
    of row_len values as fill BLOCK_ELEMENTS, and at least one. Below
    PARALLEL_MIN_BLOCKS blocks the map runs serially. With scratch, each
    share calls scratch(rows) once, rows the block's row count capped at
    n_rows, and runs fn(rows, buffers) on what it returned.
    """
    rows = max(1, BLOCK_ELEMENTS // max(row_len, 1))
    buffers = None if scratch is None else lambda: scratch(min(rows, n_rows))
    return thread_map(fn, row_blocks(n_rows, rows), buffers, min_items=PARALLEL_MIN_BLOCKS)


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


def _payload_reader(data: bytes, offset: int, count: int, bits: int, is_float: bool, path):
    """A function that reads payload samples [a, b) as numbers, before scaling."""
    if is_float:
        raw = np.frombuffer(data, "<f4", count, offset)
        return lambda a, b: raw[a:b]
    if bits == 8:
        raw = np.frombuffer(data, np.uint8, count, offset)
        return lambda a, b: np.subtract(raw[a:b], 128, dtype=np.int32)
    if bits == 16:
        raw = np.frombuffer(data, "<i2", count, offset)
        return lambda a, b: raw[a:b]
    if bits == 24:
        # Read each 3-byte sample as an unaligned <i4 that starts one byte
        # early (a chunk header always precedes the payload): the sample
        # fills the top 24 bits and the arithmetic shift sign-extends it.
        raw = np.ndarray((count,), "<i4", data, offset - 1, (3,))
        return lambda a, b: raw[a:b] >> 8
    raise UnsupportedFormatError(f"{path}: {bits}-bit PCM is not supported (8/16/24-bit only)")


def load_wav(path) -> AudioBuffer:
    """Load a RIFF/WAVE file as normalized mono audio.

    Accepts little-endian 8/16/24-bit integer PCM and 32-bit float, mono
    or stereo. Stereo collapses to mono as exactly (L + R) / 2. Integer
    samples are scaled by the format's full-scale value, which already
    puts them in [-1, 1); float samples are clipped to [-1, 1], and NaN
    or infinite ones are rejected.
    """
    with open(path, "rb") as fh:
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
    read = _payload_reader(data, offset, count, bits, is_float, path)
    if count % channels:
        raise CorruptHeaderError(f"{path}: payload not aligned to {channels}-channel frames")
    # Decoded block by block straight into the result. Integer sums are
    # exact in float64, float sums round as a two-term mean does, and the
    # power-of-two scale divides without rounding.
    samples = np.empty(count // channels)
    scale = 1.0 / (channels * (1 if is_float else 1 << (bits - 1)))

    def decode(rows):
        values = read(rows.start * channels, rows.stop * channels)
        out = samples[rows]
        if channels == 2:
            # +inf and -inf sum to NaN, which the finiteness test below
            # reports; numpy's warning on the way would only repeat it.
            with np.errstate(invalid="ignore"):
                np.add(values[0::2], values[1::2], out=out, dtype=np.float64)
        else:
            out[...] = values
        out *= scale
        if is_float:
            if not np.isfinite(out).all():
                raise NonFiniteAudioError(f"{path}: float payload holds NaN or infinite samples")
            np.clip(out, -1.0, 1.0, out=out)

    map_rows(decode, samples.size, channels)
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
    to the buffer's own rate returns the buffer itself, not a copy, which
    makes the operation idempotent at a fixed rate.
    """
    target_rate = _whole_rate(target_rate, "target_rate")
    if target_rate == buf.sample_rate:
        return buf
    n_out = buf.samples.size * target_rate // buf.sample_rate
    if n_out == 0 or buf.samples.size == 0:
        return AudioBuffer(np.zeros(0), target_rate)
    # One np.interp per block of output positions, over just the input
    # samples that block reaches: each output sees the same neighbours,
    # slope and arithmetic as in one whole-clip call.
    step = buf.sample_rate / target_rate
    out = np.empty(n_out)
    last = buf.samples.size - 1

    def interpolate(rows):
        positions = np.arange(rows.start, rows.stop) * step
        lo = min(int(positions[0]), last)
        hi = min(int(positions[-1]) + 2, last + 1)
        out[rows] = np.interp(positions, np.arange(lo, hi), buf.samples[lo:hi])

    map_rows(interpolate, n_out, 1)
    return AudioBuffer(out, target_rate)
