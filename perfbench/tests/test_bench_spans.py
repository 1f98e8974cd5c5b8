"""Tracer arithmetic and wrapping, without running a workload."""

import itertools
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402


def span(id, parent, start, end, name="x"):
    return spans.Span(id, name, parent, 0, start, end)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps child 1: [1, 6] covered once
        span(3, 0, 8.0, 12.0),  # runs past its parent: only [8, 10] counts
        span(4, 1, 2.0, 3.0),  # grandchild: charged to child 1, not the root
    ]
    own = spans.self_times(tree)
    assert own[0] == 10.0 - 5.0 - 2.0
    assert own[1] == 3.0 - 1.0
    assert own[2] == 3.0
    assert own[3] == 4.0
    assert own[4] == 1.0


def test_union_length_of_nested_and_disjoint_intervals():
    assert spans._union_length([(0, 5), (1, 2), (7, 9)], 0, 10) == 7
    assert spans._union_length([], 0, 10) == 0
    assert spans._union_length([(5, 20)], 0, 10) == 5


def test_pool_threads_parent_to_the_tracing_threads_open_span():
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("cli.main")
    with ThreadPoolExecutor(max_workers=3) as pool:
        def work(_):
            inner = tracer.open("metrics.compare")
            tracer.close(inner)
            return threading.get_ident()

        list(pool.map(work, range(6)))
    tracer.close(root)
    children = [s for s in tracer.spans if s.name == "metrics.compare"]
    assert len(children) == 6
    assert all(s.parent == root.id for s in children)


def test_install_wraps_by_identity_and_restore_puts_originals_back():
    import peaudio
    import peaudio.cli
    import peaudio.pe
    import peaudio.psychoacoustic

    original = peaudio.psychoacoustic.analyze
    tracer = spans.Tracer()
    tracer.install("peaudio")
    try:
        wrapped = peaudio.psychoacoustic.analyze
        assert wrapped is not original and wrapped.__wrapped__ is original
        # Every namespace that held the same function now holds the wrapper.
        assert peaudio.pe.analyze is wrapped
        assert peaudio.cli.analyze is wrapped
        assert peaudio.analyze is wrapped
    finally:
        tracer.restore()
    assert peaudio.psychoacoustic.analyze is original
    assert peaudio.pe.analyze is original
    assert peaudio.analyze is original


def test_layer_metrics_counts_forward_passes_under_the_checker():
    tree = [
        spans.Span(0, "cli.main", None, 0, 0.0, 10.0),
        spans.Span(1, "spectral.stft", 0, 0, 0.0, 1.0, frames=50),
        spans.Span(2, "pe.check_gradient", 0, 0, 1.0, 9.0, frames=50,
                   extra={"n_checked": 2, "max_rel_err": 3e-5}),
        spans.Span(3, "pe.pe_gradient", 2, 0, 1.0, 2.0, frames=50),
        spans.Span(4, "psychoacoustic.analyze", 3, 0, 1.0, 1.5, frames=50),
    ]
    tree += [
        spans.Span(5 + i, "psychoacoustic.analyze", 2, 0, 2.0 + i, 2.5 + i, frames=50)
        for i in range(4)
    ]
    out = spans.layer_metrics(tree, n_cycles=1, overhead_pct=1.5)
    assert set(out) == set(spans.metric_names())
    assert out["pe.check_gradient.forward_passes_per_coord"] == 5 / 2
    assert out["psychoacoustic.analyze.frames_per_input_frame"] == 5.0
    assert out["psychoacoustic.analyze.calls"] == 5
    assert out["pe.check_gradient.max_rel_err"] == 3e-5
    assert out["cli.compare.parallelism"] == 0.0
    assert out["trace.overhead_pct"] == 1.5
