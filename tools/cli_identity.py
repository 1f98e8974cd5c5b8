"""Check that two source trees give byte-identical CLI results on the benchmark's inputs.

    python3 tools/cli_identity.py OLD_SRC NEW_SRC
    python3 tools/cli_identity.py OLD_SRC NEW_SRC --tiny

OLD_SRC and NEW_SRC are directories that hold the ``peaudio`` package
(a checkout's ``src/``). The benchmark's workload plans
(``perfbench/workloads.py``, imported read-only) generate their seeded
inputs into a temporary directory. Every operation of every plan, plus
two more runs of compare's manifest on the same inputs (as JSON, and
as an "N systems" manifest in which every reference is scored in three
rows), a ``toy-fit`` of the fit plan's target at ``--lambda 100`` (where
the PE term moves the fit most, so a change in how it rounds shows in
the numbers), a ``grad-check`` of the gradcheck plan's longest clip at
``--n-coords 1000`` (enough perturbed rows that the checker's
finite-difference blocks map onto threads at the default
threshold), a ``grad-check`` of a silent 1 s 16-bit mono 22.05 kHz
clip (the all-kink path, which no plan takes; the script writes the clip
into its own inputs directory), ``analyze`` and ``thresholds`` of that
clip in both formats (its -0.0 tonalities and clamped thresholds), and
``analyze`` and ``thresholds`` in both formats and ``grad-check`` of two
more clips of its own, which read every second and every fourth input
sample (a 2 s 32-bit float stereo 44.1 kHz clip whose silent gaps hold
-0.0 in both channels, and a 2 s 16-bit mono 88.2 kHz clip), runs
under both trees twice: once with its ``--output`` file and once
writing to stdout. Output files, stdout,
stderr and exit codes are compared byte for byte; for each output that
differs, the script splits both texts into their numbers and the text
between them and reports how many numbers differ and by how much at
most, relative to the larger, or that the structure (the text between
the numbers) differs. Each tree also runs
every job a second time with the stages' parallel threshold,
``peaudio.signal_io.PARALLEL_MIN_BLOCKS``, set to 2 blocks in the forked
child, so every stage of every clip long enough for two blocks maps its
blocks over threads; those runs are compared with the other
tree's default runs (a tree without the constant runs them as its
default runs). The script prints
each difference, then what each tree's runs cost per command (the
summed CPU seconds and minor page faults of its children and their
largest peak RSS, as ``os.wait4`` reports them; printed, not compared),
then the Python line
count of each tree (counted as the benchmark counts ``src/``) and the
change between them, and last a summary line; it exits 1 if there is
any difference, 0 otherwise.
``--tiny`` uses the benchmark's tiny inputs, which make a run take
seconds instead of minutes.

Each tree runs in one process that imports ``peaudio.cli`` once and
forks a child per operation, so every operation starts from a fresh
interpreter state without paying the import again. Numeric libraries
get one thread each, as in the benchmark.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7  # the benchmark's traced-run seed
LAMBDA_100 = ["--lambda", "100"]  # the extra toy-fit job's weight of the PE term
N_COORDS_1000 = ["--n-coords", "1000"]  # the extra grad-check job's coordinate count
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def manifest_variants(op: dict, inputs: Path) -> list[list[str]]:
    """compare's manifest run as JSON, and over three systems' predictions of every reference."""
    argv = op["argv"]
    pairs = op["check"]["pairs"]
    refs = list(dict.fromkeys(ref for ref, _ in pairs))
    preds = [pred for ref, pred in pairs if pred != ref]
    systems = inputs / "systems.csv"
    systems.write_text("".join(
        f"{ref},{preds[(i + s) % len(preds)]}\n" for s in range(3) for i, ref in enumerate(refs)
    ))
    at = argv.index("--manifest")
    return [argv + ["--format", "json"], argv[:at + 1] + [str(systems)] + argv[at + 2:]]


def build_jobs(work: Path, tiny: bool) -> list[dict]:
    """Every distinct operation of every workload, with and without --output."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    argvs = []
    for name in workloads.NAMES:
        inputs = work / "inputs" / name
        inputs.mkdir(parents=True)
        plan = workloads.build(name, SEED, str(inputs), tiny)
        for op in [plan["warmup"], *plan["cycle"]]:
            if op["argv"] not in argvs:
                argvs.append(op["argv"])
            if "--manifest" in op["argv"]:
                argvs += manifest_variants(op, inputs)
            if op["argv"][0] == "toy-fit" and op["argv"] + LAMBDA_100 not in argvs:
                argvs.append(op["argv"] + LAMBDA_100)
        if name == "gradcheck":
            longest = max(plan["cycle"], key=lambda op: op["audio_s"])["argv"]
            at = longest.index("--n-coords")
            argvs.append(longest[:at] + N_COORDS_1000 + longest[at + 2:])
    # The all-kink path, which no plan takes: grad-check of a silent 1 s clip.
    silence = work / "inputs" / "silence.wav"
    fmt = workloads.gen.PCM16_MONO_22K
    workloads.gen.write_wav(str(silence), [0.0] * fmt[2], fmt)
    argvs.append(["grad-check", str(silence), "--output", str(work / "grad-silence.json")])
    # Its -0.0 tonalities and clamped thresholds, in both formats.
    for command in ("analyze", "thresholds"):
        for form in ("csv", "json"):
            out = work / f"{command}-silence.{form}"
            argvs.append([command, str(silence), "--format", form, "--output", str(out)])
    # Whole-number rate ratios that the plans reach only from 24-bit
    # stereo: float stereo with signed zeros at 2:1, 16-bit mono at 4:1.
    rng = workloads.np.random.default_rng(SEED)
    for name, fmt in (("float-stereo-44k", (32, 2, 44100, True)), ("pcm16-mono-88k", (16, 1, 88200, False))):
        clip = work / "inputs" / f"{name}.wav"
        mono = workloads.gen.synth(rng, 2.0, fmt[2])
        if fmt[3]:
            mono[mono == 0.0] = -0.0
        workloads.gen.write_wav(str(clip), mono, fmt)
        for command in ("analyze", "thresholds"):
            for form in ("csv", "json"):
                out = work / f"{command}-{name}.{form}"
                argvs.append([command, str(clip), "--format", form, "--output", str(out)])
        argvs.append(["grad-check", str(clip), "--output", str(work / f"grad-{name}.json")])
    jobs = []
    for i, argv in enumerate(argvs):
        at = argv.index("--output")
        name = f"{i:02d}-{Path(argv[at + 1]).name}"
        # A relative output path: each tree runs in a directory of its
        # own, so both trees see the same argv.
        jobs.append({"argv": argv[:at + 1] + [name] + argv[at + 2:], "output": name})
        jobs.append({"argv": argv[:at] + argv[at + 2:], "output": None})
    return jobs


# The stages' parallel threshold in the forced runs: every stage of two
# blocks or more maps them over threads.
FORCED_MIN_BLOCKS = 2


def run_tree(src: Path, jobs: list[dict], out_dir: Path, forced: bool) -> None:
    out_dir.mkdir(parents=True)
    jobs_path = out_dir / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    env = {**os.environ, "PYTHONPATH": str(src), **{name: "1" for name in BLAS_ENV}}
    env.pop("PEAUDIO_TRACE", None)
    env.pop("PE_AUDIO_CONFIG", None)
    subprocess.run(
        [sys.executable, __file__, "--run-jobs", str(jobs_path), str(src), str(int(forced))],
        env=env, cwd=out_dir, check=True,
    )


def run_jobs(jobs_path: str, src: str, forced: bool) -> None:
    """Run each job in a forked child of this process; cwd is the tree's output directory."""
    import peaudio
    from peaudio import signal_io
    from peaudio.cli import main as cli_main

    if not Path(peaudio.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"peaudio imported from {peaudio.__file__}, not from {src}")
    jobs = json.loads(Path(jobs_path).read_text())
    runs = []
    for i, job in enumerate(jobs):
        sys.stdout.flush()
        sys.stderr.flush()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                if forced:
                    signal_io.PARALLEL_MIN_BLOCKS = FORCED_MIN_BLOCKS
                with open(f"{i:02d}.stdout", "wb") as out, open(f"{i:02d}.stderr", "wb") as err:
                    os.dup2(out.fileno(), 1)
                    os.dup2(err.fileno(), 2)
                code = cli_main(job["argv"])
            except BaseException:  # report any crash as the CLI process would
                import traceback

                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(code)
        _, status, usage = os.wait4(pid, 0)
        runs.append({
            "code": os.waitstatus_to_exitcode(status),
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "minflt": usage.ru_minflt,
            "maxrss_kb": usage.ru_maxrss,  # Linux reports KiB
        })
    Path("runs.json").write_text(json.dumps(runs))


def src_lines(src: Path) -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted(src.rglob("*.py")))


def costs(jobs: list[dict], out_dir: Path) -> dict[str, list]:
    """Runs, CPU seconds and minor faults of one tree, summed per CLI command, and its peak RSS."""
    per_command = {}
    for job, run in zip(jobs, json.loads((out_dir / "runs.json").read_text())):
        total = per_command.setdefault(job["argv"][0], [0, 0.0, 0, 0])
        total[0] += 1
        total[1] += run["cpu_s"]
        total[2] += run["minflt"]
        total[3] = max(total[3], run["maxrss_kb"])
    return per_command


# A decimal, or a non-finite value as Python's repr or JSON writes it, that
# is not part of a word: the digits of a name such as "pcm16-44k.wav" are text.
NUMBER = re.compile(
    r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?(?![\w.])"
    r"|(?<![\w.])[-+]?(?:Infinity|inf|NaN|nan)(?![\w.])"
)


def _relative(a: str, b: str) -> float:
    x, y = float(a), float(b)
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def numeric_diff(old: str, new: str) -> tuple[int, int, float] | None:
    """(numbers that differ, numbers, largest relative difference) of two texts.

    None if the text between the numbers differs.
    """
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    pairs = list(zip(NUMBER.findall(old), NUMBER.findall(new)))
    differ = [(a, b) for a, b in pairs if a != b]
    return len(differ), len(pairs), max((_relative(a, b) for a, b in differ), default=0.0)


def describe(old: bytes, new: bytes) -> str:
    diff = numeric_diff(old.decode("utf-8", "replace"), new.decode("utf-8", "replace"))
    if diff is None:
        return "structure differs"
    n_differ, n_numbers, largest = diff
    return f"{n_differ} of {n_numbers} numbers differ, at most {largest:.2g} relative"


def compare(jobs: list[dict], old: Path, new: Path, tag: str = "") -> list[str]:
    diffs = []
    old_codes = [run["code"] for run in json.loads((old / "runs.json").read_text())]
    new_codes = [run["code"] for run in json.loads((new / "runs.json").read_text())]
    for i, job in enumerate(jobs):
        command = tag + "peaudio " + " ".join(job["argv"])
        if old_codes[i] != new_codes[i]:
            diffs.append(f"{command}: exit code {old_codes[i]} != {new_codes[i]}")
        names = [f"{i:02d}.stdout", f"{i:02d}.stderr"] + ([job["output"]] if job["output"] else [])
        for name in names:
            a, b = old / name, new / name
            if not (a.is_file() and b.is_file()):
                if a.is_file() != b.is_file():
                    diffs.append(f"{command}: {name} written by one tree only")
                continue
            old_bytes, new_bytes = a.read_bytes(), b.read_bytes()
            if old_bytes != new_bytes:
                diffs.append(f"{command}: {name} differs: {describe(old_bytes, new_bytes)}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--tiny", action="store_true", help="the benchmark's tiny inputs")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        work = Path(tmp)
        jobs = build_jobs(work, args.tiny)
        trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
        for tree, src in trees.items():
            run_tree(src, jobs, work / tree, forced=False)
            run_tree(src, jobs, work / f"{tree}-forced", forced=True)
        diffs = compare(jobs, work / "old", work / "new")
        diffs += compare(jobs, work / "old-forced", work / "new", "[old forced] ")
        diffs += compare(jobs, work / "old", work / "new-forced", "[new forced] ")
        cost = {tree: costs(jobs, work / tree) for tree in trees}
    for line in diffs:
        print(line)
    for tree, per_command in cost.items():
        for command, (n, cpu_s, minflt, maxrss_kb) in per_command.items():
            print(f"{tree} {command}: {n} runs, {cpu_s:.2f} s CPU, {minflt} minor faults, "
                  f"peak RSS {maxrss_kb / 1024:.1f} MiB")
    old_lines, new_lines = src_lines(args.old_src), src_lines(args.new_src)
    print(f"old src: {old_lines} lines")
    print(f"new src: {new_lines} lines ({new_lines - old_lines:+d})")
    print(f"{3 * len(jobs)} runs compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--run-jobs":
        run_jobs(sys.argv[2], sys.argv[3], sys.argv[4] == "1")
    else:
        sys.exit(main())
