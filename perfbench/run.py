"""peaudio benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12

Run from the repository root; the program is imported from ``src/``.
The seed generates the WAV inputs under ``.perfbench/``, which is
removed afterwards. With ``--trace 0`` a fresh worker process runs the
workload's cycle a fixed number of times, ``--seconds`` over the
cycle's length on a reference-speed host, and ``SETUP_PROBES`` more
fresh processes only set up; the last stdout line is the end-to-end
result. Every time in it is scaled to a host on which the worker's
reference kernel takes ``REFERENCE_S``; the summary line before it
holds the unscaled wall-clock figures too. With ``--trace 1`` the
worker alternates untraced and traced cycles and the result holds the
per-layer metrics; the spans are kept in ``.perfbench/traces/``.
``--workload all`` runs every workload and ends with a table of the
six end-to-end figures, fail ratio included.
"""

import os

# One client thread: numeric libraries get no thread pools of their own.
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in BLAS_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 1  # extra fresh processes that only set up; the worker is one more
REFERENCE_S = 0.002  # reference kernel time on the host the figures are scaled to
TIME_LIMIT_S = 170  # a workload's workers are killed after this
TAIL_BEYOND = 10  # op_tail_ms: highest percentile with this many samples beyond it
UNITS = {
    "setup_s": "s",
    "audio_s_per_s": "s/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def provenance():
    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas_env": {name: os.environ[name] for name in BLAS_ENV},
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def tail(latencies):
    """(value, percentile, samples beyond): the highest nearest-rank percentile
    with TAIL_BEYOND samples beyond it, or the median when that would lie below it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n > 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return statistics.median(ordered), 50.0, n // 2


def throughput(ops, latencies):
    """Seconds of audio per second of a typical cycle: every operation of the
    cycle at its median latency, so one slow moment of a shared host does
    not weigh in by its length."""
    by_op = {}
    for op, latency in zip(ops, latencies):
        by_op.setdefault(op[4], []).append((op[1], latency))
    audio = sum(group[0][0] for group in by_op.values())
    return audio / sum(statistics.median(t for _, t in group) for group in by_op.values())


def scaled(seconds, kernel_s):
    """A time measured while the reference kernel took ``kernel_s``, on the reference host."""
    return seconds * REFERENCE_S / kernel_s


def cycles_for(seconds, plan, trace):
    """Whole cycles that fill ``seconds`` on the reference host; a traced run
    alternates that many untraced and traced cycles between them."""
    return max(1, round(seconds / (plan["cycle_s"] * (2 if trace else 1))))


def worker(args, deadline):
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(cmd[2:])} exited {proc.returncode}:\n{proc.stderr}")
    with open(args[1]) as fh:
        return json.load(fh)


def run_workload(name, seed, seconds, trace, tiny):
    deadline = time.monotonic() + TIME_LIMIT_S
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(name, seed, str(work), tiny)
        plan["src"] = str(ROOT / "src")
        if trace:
            (OUT / "traces").mkdir(exist_ok=True)
            plan["trace_path"] = str(OUT / "traces" / f"{name}-seed{seed}.jsonl")
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        result_path = work / "result.json"
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                setups.append(worker([plan_path, result_path, "setup"], deadline))
        cycles = cycles_for(seconds, plan, trace)
        result = worker([plan_path, result_path, "run", cycles, int(trace)], deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = result["ops"]
    wall = [op[0] for op in ops]
    latencies = [scaled(op[0], op[5]) for op in ops]
    failures = [op[2] for op in ops if op[2] is not None]
    value, pct, beyond = tail(latencies)
    setups.append(result)
    summary = {
        "workload": name,
        "seed": seed,
        "cycles": cycles,
        "ops": len(ops),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(ops),
        "first_failure": failures[0] if failures else None,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "host_speed": REFERENCE_S / statistics.median(op[5] for op in ops),
        "setup_samples_s": [scaled(s["setup_s"], s["setup_kernel_s"]) for s in setups],
        "wall": {
            "setup_samples_s": [s["setup_s"] for s in setups],
            "audio_s_per_s": throughput(ops, wall),
            "op_p50_ms": 1e3 * statistics.median(wall),
            "op_tail_ms": 1e3 * tail(wall)[0],
        },
    }
    if trace:
        metrics = {k: {"value": v, "unit": _layer_unit(k)} for k, v in result["layers"].items()}
    else:
        figures = {
            "setup_s": statistics.median(summary["setup_samples_s"]),
            "audio_s_per_s": throughput(ops, latencies),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * value,
            "peak_rss_mb": result["maxrss_kb"] / 1024.0,
        }
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in figures.items()}
    line = {
        "correct": all(op[3] for op in ops),
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": metrics,
    }
    return line, summary


def _layer_unit(name):
    for suffix, unit in ((".self_ms", "ms"), (".frames_per_s", "1/s"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    if name.endswith((".calls", ".frames", ".n_checked")):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for smoke tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "peaudio" / "__init__.py").is_file():
        print(f"no peaudio sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print(json.dumps({"provenance": provenance()}), flush=True)
    lines = {}
    try:
        for name in names:
            line, summary = run_workload(name, args.seed, args.seconds, args.trace, args.tiny)
            print(json.dumps({"summary": summary}), flush=True)
            lines[name] = line
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(lines[args.workload]))
        return 0
    if not args.trace:
        header = ["workload", *UNITS, "fail_ratio"]
        print("  ".join(f"{h:>13}" for h in header), file=sys.stderr)
        for name, line in lines.items():
            cells = [line["metrics"][k]["value"] for k in UNITS]
            cells.append(line["failed"] / line["attempted"])
            print(f"{name:>13}  " + "  ".join(f"{c:13.4f}" for c in cells), file=sys.stderr)
    print(json.dumps({
        "correct": all(line["correct"] for line in lines.values()),
        "attempted": sum(line["attempted"] for line in lines.values()),
        "failed": sum(line["failed"] for line in lines.values()),
        "metrics": {
            f"{name}.{key}": value
            for name, line in lines.items()
            for key, value in line["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
