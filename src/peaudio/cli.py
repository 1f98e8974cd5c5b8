"""Command-line surface: analyze, thresholds, grad-check, compare, toy-fit.

Exit codes: 0 success, 1 check failure, 2 I/O error, 3 config error.
Option precedence is flags > config file > defaults; the config file is
flat "key = value" text (unknown keys are rejected) and its default path
can come from the PE_AUDIO_CONFIG environment variable.
"""

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from . import pe as pe_mod
from .errors import ConfigError, DivergenceError, PeAudioError
from .metrics import compare as compare_files
from .psychoacoustic import analyze, bark_layout
from .signal_io import load_wav, resample
from .spectral import StftConfig, stft

GRAD_CHECK_TOLERANCE = 1e-4

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_CONFIG = 3

_CONFIG_KEYS = ("sample_rate", "fft_size", "hop", "n_mels", "lambda", "seed", "format")


@dataclass
class CliConfig:
    sample_rate: int = 22050
    fft_size: int = 1024
    hop: int = 661
    n_mels: int = 80
    lam: float = 0.01
    seed: int = 42
    fmt: str = "csv"

    def __post_init__(self):
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and nonnegative, got {self.lam}")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.fmt!r}")
        try:
            bark_layout(self.stft())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def stft(self) -> StftConfig:
        return StftConfig(
            fft_size=self.fft_size, hop=self.hop, sample_rate=self.sample_rate
        )


def _parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw
    return values


def _coerce(key: str, raw: str):
    try:
        if key in ("sample_rate", "fft_size", "hop", "n_mels", "seed"):
            return int(raw)
        if key == "lambda":
            return float(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def resolve_config(args) -> CliConfig:
    """Merge flags over config-file values over defaults."""
    merged = {}
    config_path = args.config or os.environ.get("PE_AUDIO_CONFIG")
    if config_path:
        for key, raw in _parse_config_file(config_path).items():
            merged[key] = _coerce(key, raw)

    flag_map = {
        "sample_rate": args.sample_rate,
        "fft_size": args.fft_size,
        "hop": args.hop,
        "n_mels": args.n_mels,
        "lambda": args.lam,
        "seed": args.seed,
        "format": args.format,
    }
    for key, value in flag_map.items():
        if value is not None:
            merged[key] = value

    kwargs = {}
    rename = {"lambda": "lam", "format": "fmt"}
    for key, value in merged.items():
        kwargs[rename.get(key, key)] = value
    allowed = {f.name for f in fields(CliConfig)}
    assert set(kwargs) <= allowed
    return CliConfig(**kwargs)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peaudio", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sample-rate", type=int, default=None)
    common.add_argument("--fft-size", type=int, default=None)
    common.add_argument("--hop", type=int, default=None)
    common.add_argument("--n-mels", type=int, default=None)
    common.add_argument("--lambda", dest="lam", type=float, default=None)
    common.add_argument("--seed", type=int, default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None)
    common.add_argument("--output", default=None, help="write results here instead of stdout")
    common.add_argument("--config", default=None, help="flat key=value config file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common], help="per-frame perceptual entropy")
    p.add_argument("input")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("thresholds", parents=[common], help="per-band masking quantities")
    p.add_argument("input")
    p.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("grad-check", parents=[common], help="finite-difference gradient check")
    p.add_argument("input")
    p.add_argument("--n-coords", type=int, default=100)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("compare", parents=[common], help="objective metrics for a WAV pair")
    p.add_argument("ref", nargs="?")
    p.add_argument("pred", nargs="?")
    p.add_argument("--manifest", default=None, help="CSV of ref,pred paths, one pair per line")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("toy-fit", parents=[common], help="gradient-descent regularization demo")
    p.add_argument("target")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.set_defaults(func=cmd_toy_fit)

    return parser


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_spectrum(path, cfg: CliConfig):
    stft_cfg = cfg.stft()
    spec = stft(resample(load_wav(path), cfg.sample_rate), stft_cfg)
    return spec, bark_layout(stft_cfg)


def cmd_analyze(args, cfg: CliConfig) -> int:
    spec, layout = _load_spectrum(args.input, cfg)
    result = pe_mod.perceptual_entropy(spec, analyze(spec, layout))
    if cfg.fmt == "json":
        text = json.dumps(result.to_json_dict(), indent=2) + "\n"
    else:
        lines = ["frame,pe"]
        lines += [f"{t},{float(v)!r}" for t, v in enumerate(result.per_frame)]
        lines.append(f"mean_pe,{result.mean_pe!r}")
        lines.append(f"loss_pe,{result.loss_pe!r}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_thresholds(args, cfg: CliConfig) -> int:
    spec, layout = _load_spectrum(args.input, cfg)
    result = analyze(spec, layout)
    quantities = (
        ("band_power", result.band_power.tolist()),
        ("tonality", result.tonality.tolist()),
        ("threshold", result.masking_threshold.tolist()),
    )
    if cfg.fmt == "json":
        payload = {
            "band_center_hz": [float(c) for c in layout.band_centers()],
            **dict(quantities),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        header = "frame,quantity," + ",".join(f"{c:.1f}" for c in layout.band_centers())
        lines = [header]
        for t in range(result.n_frames):
            for name, values in quantities:
                lines.append(f"{t},{name}," + ",".join(map(repr, values[t])))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_grad_check(args, cfg: CliConfig) -> int:
    if args.n_coords < 1:
        raise ConfigError(f"--n-coords must be >= 1, got {args.n_coords}")
    spec, layout = _load_spectrum(args.input, cfg)
    check = pe_mod.check_gradient(spec, layout, n_coords=args.n_coords, seed=cfg.seed)
    passed = check.passed(GRAD_CHECK_TOLERANCE)
    payload = check.to_json_dict()
    payload["tolerance"] = GRAD_CHECK_TOLERANCE
    payload["pass"] = passed
    if check.all_kink:
        payload["note"] = "all-kink: every component sits at a subgradient kink"
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    if not passed:
        worst = check.worst or {}
        print(f"gradient check failed: worst coordinate {worst}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


_REPORT_COLUMNS = ("mcd_db", "f0_rmse_hz", "vuv_error_pct", "f0_corr", "frames_compared")


def _mean_report_row(rows: list[dict]) -> dict:
    mean = {}
    for column in _REPORT_COLUMNS:
        values = [row[column] for row in rows if row[column] is not None]
        mean[column] = sum(values) / len(values) if values else None
    return mean


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: honours CPU affinity
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_compare(args, cfg: CliConfig) -> int:
    if args.manifest:
        pairs = []
        with open(args.manifest) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = [p.strip() for p in line.split(",")]
                if len(parts) != 2:
                    raise ConfigError(f"{args.manifest}:{lineno}: expected 'ref,pred'")
                pairs.append(tuple(parts))
        if not pairs:
            raise ConfigError(f"{args.manifest}: no ref,pred pairs")
    elif args.ref and args.pred:
        pairs = [(args.ref, args.pred)]
    else:
        raise ConfigError("compare needs REF PRED arguments or --manifest")

    stft_cfg = cfg.stft()
    # The rows' FFTs release the GIL, so one thread per usable CPU keeps
    # every core busy; more threads only add contention and memory.
    workers = min(8, _usable_cpus(), len(pairs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(
            pool.map(lambda pair: compare_files(pair[0], pair[1], stft_cfg, cfg.n_mels), pairs)
        )
    rows = [report.to_json_dict() for report in reports]

    if cfg.fmt == "json":
        payload = {
            "rows": [
                {"ref": ref, "pred": pred, **row}
                for (ref, pred), row in zip(pairs, rows)
            ]
        }
        if len(rows) > 1:
            payload["mean"] = _mean_report_row(rows)
        text = json.dumps(payload, indent=2) + "\n"
    else:
        def cell(value):
            return "" if value is None else repr(value)

        lines = ["ref,pred," + ",".join(_REPORT_COLUMNS)]
        for (ref, pred), row in zip(pairs, rows):
            lines.append(f"{ref},{pred}," + ",".join(cell(row[c]) for c in _REPORT_COLUMNS))
        if len(rows) > 1:
            mean = _mean_report_row(rows)
            lines.append("mean,," + ",".join(cell(mean[c]) for c in _REPORT_COLUMNS))
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_toy_fit(args, cfg: CliConfig) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 < args.lr < math.inf:
        raise ConfigError(f"--lr must be finite and positive, got {args.lr}")
    buf = resample(load_wav(args.target), cfg.sample_rate)
    stft_cfg = cfg.stft()
    arms = {}
    for name, lam in (("regularized", cfg.lam), ("baseline", 0.0)):
        loss_cfg = pe_mod.LossConfig(lam=lam)
        arms[name] = pe_mod.toy_fit(
            buf, loss_cfg, steps=args.steps, learning_rate=args.lr,
            seed=cfg.seed, stft_cfg=stft_cfg, n_mels=cfg.n_mels,
        )
    payload = {name: record.to_json_dict() for name, record in arms.items()}
    text = json.dumps(payload, indent=2) + "\n"
    _emit(text, args.output)
    summary = (
        f"final mean PE: regularized (lambda={cfg.lam}) = {arms['regularized'].final_mean_pe:.6f}, "
        f"baseline (lambda=0) = {arms['baseline'].final_mean_pe:.6f}"
    )
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except PeAudioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
