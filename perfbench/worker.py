"""One workload client, run in a fresh Python process.

    python3 worker.py PLAN RESULT setup
    python3 worker.py PLAN RESULT run CYCLES TRACE

Every mode first measures set-up: importing ``peaudio.cli`` from the
plan's source tree plus one warm-up operation, timed from the top of
this file, and then times the reference kernel. ``setup`` stops there.
``run`` then repeats the plan's cycle of operations whole, CYCLES
times, in a closed loop with one client thread, timing only each
``peaudio.cli.main`` call and checking every output afterwards. The
reference kernel is timed right before and right after every call, so
each latency can be scaled to a host of reference speed. With TRACE=1
CYCLES untraced and CYCLES traced cycles alternate instead and the
result carries per-layer metrics. The result is written as JSON to
RESULT.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402


KERNEL_SAMPLES = 2  # reference kernel runs at least right before and right after each call
KERNEL_SHARE = 0.05  # and after each call for at least this share of its time
_KERNEL = []


def reference_kernel():
    """Seconds one fixed FFT and log-power pass takes; it never calls peaudio.

    A shared host changes speed by tens of percent over seconds to
    minutes, and this kernel slows with it, so a latency times
    ``run.REFERENCE_S / reference_kernel()`` reads about the same on a
    slow and a fast moment of the host. Its buffers are allocated once, so the
    allocator's state, which the program changes, does not change its
    time.
    """
    import numpy as np

    if not _KERNEL:
        signal = np.random.default_rng(0).standard_normal((600, 512))
        _KERNEL.extend([signal, np.empty((600, 257), complex), np.empty((600, 257))])
    signal, spectrum, power = _KERNEL
    start = time.perf_counter()
    np.fft.rfft(signal, axis=1, out=spectrum)
    np.abs(spectrum, out=power)
    np.square(power, out=power)
    np.log1p(power, out=power)
    power.sum()
    return time.perf_counter() - start


def kernel_samples(elapsed):
    """Reference kernel times over at least KERNEL_SHARE of ``elapsed``.

    A few samples at the edges of a long call say little about the host
    during it; sampling in proportion to the call's length keeps the
    estimate as steady for a 3 s call as for a 30 ms one.
    """
    samples, spent = [], 0.0
    while len(samples) < KERNEL_SAMPLES or spent < KERNEL_SHARE * elapsed:
        samples.append(reference_kernel())
        spent += samples[-1]
    return samples


def call(cli, op):
    """Run one operation; returns (seconds, exit code or None, captured stderr)."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(op["argv"])
        except Exception as exc:  # a traceback escaping main is a result too
            rc = None
            print(f"{type(exc).__name__}: {exc}", file=err)
        elapsed = time.perf_counter() - start
    return elapsed, rc, err.getvalue()


def run_cycle(cli, plan, refs):
    """[(seconds, audio_s, failure reason or None, consistent, index in cycle,
    reference kernel seconds around the call)] for one cycle."""
    from checks import run_check

    results = []
    for index, op in enumerate(plan["cycle"]):
        before = kernel_samples(0.0)
        elapsed, rc, err = call(cli, op)
        kernel_s = statistics.median(before + kernel_samples(elapsed))
        if rc is None:
            reason, consistent = err.strip().splitlines()[-1], False
        else:
            try:
                reason, consistent = run_check(op["check"], refs, rc)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                reason, consistent = f"unreadable output: {exc!r}", False
        results.append((elapsed, op["audio_s"], reason, consistent, index, kernel_s))
    return results


def main(argv):
    plan_path, result_path, mode = argv[:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    src = plan["src"]
    sys.path.insert(0, src)
    import peaudio.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"peaudio imported from {cli.__file__}, not from {src}")
    _, warm_rc, warm_err = call(cli, plan["warmup"])
    setup_s = time.perf_counter() - T0
    if warm_rc not in (0, 1):
        raise SystemExit(f"warm-up operation failed with exit {warm_rc}: {warm_err.strip()}")
    reference_kernel()  # first call allocates the input
    kernel = sorted(reference_kernel() for _ in range(5))
    result = {"setup_s": setup_s, "setup_kernel_s": kernel[2]}
    # What the import and warm-up left alive stays alive; freezing it
    # keeps the collection before each call short.
    gc.collect()
    gc.freeze()
    if mode == "run":
        cycles, trace = int(argv[3]), argv[4] == "1"
        result.update(traced(cli, plan, cycles) if trace else timed(cli, plan, cycles))
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)


def _references(plan):
    import peaudio
    from checks import References

    return References(peaudio, plan["seed"])


def timed(cli, plan, cycles):
    refs = _references(plan)
    ops = []
    for _ in range(cycles):
        ops += run_cycle(cli, plan, refs)
    return {"ops": ops}


def _scaled_total(cycle):
    return sum(r[0] / r[5] for r in cycle)


def traced(cli, plan, cycles):
    """Alternate untraced and traced cycles; the first of each pair warms the second."""
    import peaudio
    import spans

    refs = _references(plan)
    tracer = spans.Tracer()
    plain, with_trace, ops = [], [], []
    for _ in range(cycles):
        cycle = run_cycle(cli, plan, refs)
        plain.append(_scaled_total(cycle))
        ops += cycle
        tracer.install(peaudio.__name__)
        try:
            cycle = run_cycle(cli, plan, refs)
        finally:
            tracer.restore()
        with_trace.append(_scaled_total(cycle))
        ops += cycle
    overhead = 100.0 * (statistics.median(with_trace) / statistics.median(plain) - 1.0)
    if plan.get("trace_path"):
        tracer.dump(plan["trace_path"])
    return {
        "ops": ops,
        "layers": spans.layer_metrics(tracer.spans, len(with_trace), overhead),
    }


if __name__ == "__main__":
    main(sys.argv[1:])
