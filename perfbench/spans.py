"""In-memory span tracer that wraps peaudio functions from outside the package.

``Tracer.install`` replaces each named function, by identity, in every
``peaudio.*`` module namespace that holds it (so ``pe``'s own calls to
``analyze`` are seen as well as the CLI's), and ``restore`` puts the
originals back. Each thread keeps its own stack of open spans; a span
opened on a thread with an empty stack (a ``compare`` pool worker) takes
the innermost open span of the tracing thread as its parent.

``layer_metrics`` turns the spans of a number of identical workload
cycles into the benchmark's per-layer metrics.
"""

import inspect
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# Traced functions, as "<module>.<function>" under the peaudio package.
TARGETS = (
    "cli.main",
    "signal_io.load_wav",
    "signal_io.resample",
    "spectral.stft",
    "spectral.mel_spectrogram",
    "spectral.mel_cepstrum",
    "psychoacoustic.analyze",
    "pe.perceptual_entropy",
    "pe.pe_gradient",
    "pe.check_gradient",
    "pe.toy_fit",
    "metrics.compare",
    "metrics.extract_f0",
    "metrics.mcd",
)

# Functions whose span records how many spectrogram or pitch frames it processed.
FRAME_TARGETS = (
    "spectral.stft",
    "psychoacoustic.analyze",
    "pe.perceptual_entropy",
    "pe.pe_gradient",
    "pe.check_gradient",
    "metrics.extract_f0",
)

DERIVED = (
    "pe.check_gradient.forward_passes_per_coord",
    "pe.check_gradient.max_rel_err",
    "pe.check_gradient.n_checked",
    "psychoacoustic.analyze.frames_per_input_frame",
    "psychoacoustic.analyze.frames_per_s",
    "pe.pe_gradient.cost_vs_forward",
    "pe.toy_fit.forward_passes_per_step",
    "cli.compare.parallelism",
    "trace.overhead_pct",
)


def metric_names():
    """Every per-layer metric, in the order the benchmark reports them."""
    names = []
    for target in TARGETS:
        names += [f"{target}.calls", f"{target}.self_ms"]
        if target in FRAME_TARGETS:
            names.append(f"{target}.frames")
    return names + list(DERIVED)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    frames: int = 0
    extra: dict = field(default_factory=dict)


def _frames(args, result):
    for obj in (result, *args):
        n = getattr(obj, "n_frames", None)
        if isinstance(n, int):
            return n
    f0 = getattr(result, "f0", None)
    return len(f0) if f0 is not None else 0


def _extra(name, signature, args, kwargs, result):
    if name == "pe.check_gradient":
        return {
            "n_checked": getattr(result, "n_checked", 0),
            "max_rel_err": float(getattr(result, "max_rel_err", 0.0)),
        }
    if name == "pe.toy_fit":
        return {"steps": signature.bind(*args, **kwargs).arguments.get("steps", 0)}
    return {}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks = {}
        self._home = threading.get_ident()
        self._patched = []

    def open(self, name):
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            home = self._stacks.get(self._home) or [None]
            parent = stack[-1] if stack else home[-1]
            span = Span(len(self.spans), name, parent, ident, self._clock())
            self.spans.append(span)
            stack.append(span.id)
        return span

    def close(self, span):
        span.end = self._clock()
        with self._lock:
            self._stacks[span.thread].remove(span.id)

    def wrap(self, name, fn):
        signature = inspect.signature(fn)
        counts_frames = name in FRAME_TARGETS

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts_frames:
                span.frames = _frames(args, result)
            span.extra = _extra(name, signature, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package="peaudio"):
        """Wrap every target in every loaded module of the package that holds it."""
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for target in TARGETS:
            module_name, attr = target.rsplit(".", 1)
            original = getattr(sys.modules.get(f"{package}.{module_name}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(target, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _union_length(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Span id -> its duration minus the part of it that child spans cover."""
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def _under(span, name, by_id):
    parent = span.parent
    while parent is not None:
        if by_id[parent].name == name:
            return True
        parent = by_id[parent].parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, n_cycles, overhead_pct):
    """Per-layer metrics from the spans of ``n_cycles`` identical traced cycles.

    Counts (calls, frames, n_checked) are per cycle; self times are mean
    milliseconds per call.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    by_name = {t: [s for s in spans if s.name == t] for t in TARGETS}

    def total(name, attr):
        return sum(getattr(s, attr) for s in by_name[name])

    def wall(name):
        return sum(s.end - s.start for s in by_name[name])

    out = {}
    for target in TARGETS:
        calls = len(by_name[target])
        out[f"{target}.calls"] = calls / n_cycles
        out[f"{target}.self_ms"] = 1e3 * _ratio(sum(own[s.id] for s in by_name[target]), calls)
        if target in FRAME_TARGETS:
            out[f"{target}.frames"] = total(target, "frames") / n_cycles

    analyses = by_name["psychoacoustic.analyze"]
    checks = by_name["pe.check_gradient"]
    n_checked = sum(s.extra.get("n_checked", 0) for s in checks)
    in_check = sum(_under(s, "pe.check_gradient", by_id) for s in analyses)
    out["pe.check_gradient.forward_passes_per_coord"] = _ratio(in_check, n_checked)
    out["pe.check_gradient.max_rel_err"] = max(
        (s.extra.get("max_rel_err", 0.0) for s in checks), default=0.0
    )
    out["pe.check_gradient.n_checked"] = n_checked / n_cycles

    analyzed = total("psychoacoustic.analyze", "frames")
    out["psychoacoustic.analyze.frames_per_input_frame"] = _ratio(
        analyzed, total("spectral.stft", "frames")
    )
    out["psychoacoustic.analyze.frames_per_s"] = _ratio(analyzed, wall("psychoacoustic.analyze"))

    # Gradient cost per frame over forward cost per frame (analyze + PE).
    forward_per_frame = _ratio(wall("psychoacoustic.analyze"), analyzed) + _ratio(
        wall("pe.perceptual_entropy"), total("pe.perceptual_entropy", "frames")
    )
    gradient_per_frame = _ratio(wall("pe.pe_gradient"), total("pe.pe_gradient", "frames"))
    out["pe.pe_gradient.cost_vs_forward"] = _ratio(gradient_per_frame, forward_per_frame)

    fits = by_name["pe.toy_fit"]
    in_fit = sum(_under(s, "pe.toy_fit", by_id) for s in analyses)
    out["pe.toy_fit.forward_passes_per_step"] = _ratio(
        in_fit, sum(s.extra.get("steps", 0) for s in fits)
    )

    # Busy time of the per-pair compare spans over the wall time they span.
    busy = span_wall = 0.0
    for op in by_name["cli.main"]:
        pairs = [
            (s.start, s.end) for s in by_name["metrics.compare"] if s.parent == op.id
        ]
        busy += sum(end - start for start, end in pairs)
        span_wall += _union_length(pairs, op.start, op.end)
    out["cli.compare.parallelism"] = _ratio(busy, span_wall)
    out["trace.overhead_pct"] = overhead_pct
    return out
