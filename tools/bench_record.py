"""Record the benchmark of this checkout into BENCH_<pr>.json.

    python3 tools/bench_record.py --pr N
    python3 tools/bench_record.py --pr N --workload fit --tiny --output /tmp/bench.json

Runs the benchmark's own ``perfbench/run.py``, unmodified, from the
repository root: one child process per workload and seed, on the three
seeds ``SEEDS``, then one traced run (``--trace 1``) per workload on
``TRACE_SEED``. It never runs ``--workload all``: ``run.py`` keeps the
high-water mark it reaches while it builds the inputs, and every worker
it starts afterwards inherits it, so a later workload's ``peak_rss_mb``
would read that of the largest input instead of its own. Each run's
first line (the provenance) and last line (the result) are kept.

The file holds the provenance (``nproc``, usable CPUs, the Python,
numpy and scipy versions, the git revision and the ``src/`` line count
as ``run.py`` reports them; the ``ru_maxrss`` of a bare interpreter
started by this script, the floor under every ``peak_rss_mb``; the code
measured, as ``src_sha256``, a sha256 over ``src/**/*.py`` in the order
of their sorted paths, each file fed as its path relative to the root,
a NUL, its byte count, a NUL and its bytes, and ``src_dirty``, whether
``git status --porcelain -- src`` lists anything, null where git cannot
say, since ``run.py``'s revision is that of HEAD and names the parent
of code not yet committed; and ``core_warmup_s``, the seconds of the
busy loop below), then
per workload each seed's end-to-end metrics and fail ratio, their
medians and the traced run's per-layer metrics. Each seed's run comes
right after its own probe of the second core: the wall time of
``PROBE_PASSES`` passes of the benchmark worker's reference kernel (a
fixed numpy FFT and log-power pass) in one forked process, and in each
of two forked processes at once, and ``ratio``, the slower of the two
over the one. About 1 means the second core was free; about 2, that
the two processes shared one core, so work split over two processes or
threads had no core to gain from, and the run measured the host's load
as much as the code. Each probe also holds the host's 1-minute load
average (``load_avg_1min``), read right after it. A run whose probe
ratio exceeds ``PROBE_MAX_RATIO`` is discarded and its seed probed and
run again, up to ``PROBE_TRIES`` runs; a seed that never passes keeps
its last run, flagged ``probe_exceeded``. Each kept run holds its probe,
the discarded runs are listed apart with their probe and the reason,
and the medians are taken over the kept runs only. Before the first
workload, two forked processes spin for ``WARMUP_S`` seconds: after an
idle stretch, a 2-vCPU host's first probes read 1.65-2.79 where, after
such a loop, they read 0.95-1.36, so without it the first workload
recorded paid for the idle host. ``--tiny`` runs the
benchmark's tiny inputs for ``TINY_SECONDS``, which makes a run take
seconds; its figures mean nothing and it writes ``"tiny": true``.
A run that fails stops the script with its stderr and exit code 1.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"
sys.path.insert(0, str(RUN.parent))
from worker import reference_kernel  # noqa: E402  the benchmark's own host-speed kernel
WORKLOADS = ("analyze", "fit", "gradcheck", "compare")  # BENCHMARK.json's order
SEEDS = (1, 2, 3)
TRACE_SEED = 7  # the benchmark's traced-run seed
SECONDS = 12  # BENCHMARK.json's run_seconds
TINY_SECONDS = 0.5
RUN_TIMEOUT_S = 600
BARE_MAXRSS = "import resource; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
# Runs argv[1:] and exits with its code: the process between this one and
# the bare interpreter, whose own small peak is all that one inherits.
HOP = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
PROBE_PASSES = 100  # kernel passes per probe process, about 0.2 s on a 2-vCPU x86-64 host
# Above this probe ratio the second core was busy: runs of one code taken at
# probes of 1.45-1.98 read 20-25% below those taken at about 1.
PROBE_MAX_RATIO = 1.3
PROBE_TRIES = 3  # runs per seed at most, the first included
WARMUP_S = 5.0  # seconds of the two-process busy loop before the first workload
TINY_WARMUP_S = 0.2


def forked_kernel_s(n: int) -> list[float]:
    """Seconds of PROBE_PASSES reference-kernel passes in each of n processes forked at once."""
    reference_kernel()  # allocates its buffers before the fork
    children = []
    go_read, go_write = os.pipe()  # each child starts timing once all are forked
    for _ in range(n):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                os.read(go_read, 1)
                start = time.perf_counter()
                for _ in range(PROBE_PASSES):
                    reference_kernel()
                os.write(write, repr(time.perf_counter() - start).encode())
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        children.append((pid, read))
    os.write(go_write, b"g" * n)
    os.close(go_read)
    os.close(go_write)
    seconds = []
    for pid, read in children:
        with open(read, "rb") as pipe:
            text = pipe.read()
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
            raise RuntimeError("a core probe process failed")
        seconds.append(float(text))
    return seconds


def core_probe() -> dict:
    """The kernel passes' seconds in one process, in each of two at once, and the slower over the one.

    It also holds the host's 1-minute load average, read once the passes are done.
    """
    one = forked_kernel_s(1)[0]
    two = forked_kernel_s(2)
    return {"one_process_s": one, "two_processes_s": two, "ratio": max(two) / one,
            "load_avg_1min": os.getloadavg()[0]}


def warm_cores(seconds: float) -> None:
    """Keep two forked processes busy for the given seconds, and reap them."""
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:
            try:
                end = time.perf_counter() + seconds
                while time.perf_counter() < end:
                    pass
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        if os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) != 0:
            raise RuntimeError("a warm-up process failed")


def src_state() -> dict:
    """src_sha256 and src_dirty of this checkout, as the module docstring defines them."""
    digest = hashlib.sha256()
    for path in sorted(ROOT.glob("src/**/*.py"), key=lambda p: p.relative_to(ROOT).as_posix()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(ROOT).as_posix()}\0{len(data)}\0".encode() + data)
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                              capture_output=True, text=True)
        dirty = bool(proc.stdout.strip()) if proc.returncode == 0 else None
    except OSError:  # no git
        dirty = None
    return {"src_sha256": digest.hexdigest(), "src_dirty": dirty}


def bare_maxrss_mb() -> float:
    """Peak RSS of an interpreter that does nothing, in MB as run.py counts them (KiB / 1024).

    A child inherits its parent's ru_maxrss across fork and exec, so one
    started by this process would read this process's peak. The bare
    interpreter is started by a second one (HOP) instead.
    """
    argv = [sys.executable, "-c", HOP, sys.executable, "-c", BARE_MAXRSS]
    out = subprocess.run(argv, capture_output=True, text=True, check=True).stdout
    return int(out) / 1024.0


def bench(workload: str, seed: int, trace: bool, tiny: bool) -> tuple[dict, dict]:
    """(provenance, result) of one run.py child."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(TINY_SECONDS if tiny else SECONDS), "--trace", str(int(trace))]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def run_entry(seed: int, result: dict) -> dict:
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_ratio": result["failed"] / result["attempted"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def probed_run(workload: str, seed: int, tiny: bool, provenances: list, discarded: list) -> dict:
    """The kept run of one seed, each try right after its core probe; discards go to discarded."""
    for attempt in range(1, PROBE_TRIES + 1):
        probe = core_probe()
        provenance, result = bench(workload, seed, False, tiny)
        provenances.append(provenance)
        run = {**run_entry(seed, result), "core_probe": probe}
        if probe["ratio"] <= PROBE_MAX_RATIO or attempt == PROBE_TRIES:
            return {**run, "probe_exceeded": probe["ratio"] > PROBE_MAX_RATIO}
        discarded.append({**run, "reason": f"probe ratio {probe['ratio']:.2f} > {PROBE_MAX_RATIO}"})


def record(workloads, tiny: bool) -> dict:
    bare_mb = bare_maxrss_mb()  # first, before any child has run
    state = src_state()
    warmup_s = TINY_WARMUP_S if tiny else WARMUP_S
    warm_cores(warmup_s)
    provenances, entries = [], {}
    for workload in workloads:
        discarded = []
        runs = [probed_run(workload, seed, tiny, provenances, discarded) for seed in SEEDS]
        provenance, traced = bench(workload, TRACE_SEED, True, tiny)
        provenances.append(provenance)
        names = runs[0]["metrics"]
        entries[workload] = {
            "runs": runs,
            "discarded": discarded,
            "median": {name: statistics.median(r["metrics"][name] for r in runs) for name in names},
            "fail_ratio": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
            "traced": run_entry(TRACE_SEED, traced),
        }
    if any(p != provenances[0] for p in provenances):
        raise RuntimeError("the provenance changed between runs")
    return {
        "tiny": tiny,
        "seconds": TINY_SECONDS if tiny else SECONDS,
        "seeds": list(SEEDS),
        "provenance": {**provenances[0], "bare_interpreter_maxrss_mb": bare_mb, **state,
                       "core_warmup_s": warmup_s},
        "workloads": entries,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="the number in BENCH_<pr>.json")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="record only this workload (repeatable; default: all four)")
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--output", type=Path, help="default: BENCH_<pr>.json at the root")
    args = parser.parse_args(argv)
    output = args.output or ROOT / f"BENCH_{args.pr}.json"
    try:
        payload = {"pr": args.pr, **record(args.workload or WORKLOADS, args.tiny)}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
