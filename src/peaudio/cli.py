"""Command-line surface: analyze, thresholds, grad-check, compare, toy-fit.

Exit codes: 0 success, 1 check failure, 2 I/O error or out of memory,
3 config error.
Option precedence is flags > config file > library defaults; the
config file is flat "key = value" text (unknown keys are rejected) and
its default path can come from the PE_AUDIO_CONFIG environment variable.
"""

import argparse
import functools
import json
import math
import os
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from json.encoder import encode_basestring_ascii

from .errors import ConfigError, DivergenceError, MismatchWarning, PeAudioError
from .metrics import compare as compare_files
from .pe import DEFAULT_SEED, GRAD_CHECK_TOLERANCE, LossConfig
from .pe import check_gradient, perceptual_entropy, toy_fit
from .psychoacoustic import analyze, bark_layout
from .signal_io import load_wav, resample
from .spectral import DEFAULT_FFT_SIZE, DEFAULT_HOP, DEFAULT_N_CEPSTRA, DEFAULT_N_MELS
from .spectral import DEFAULT_SAMPLE_RATE, StftConfig, stft

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_IO = 2
EXIT_CONFIG = 3


@dataclass
class CliConfig:
    """The settings every command shares, with the library's defaults.

    Each field is a config-file key and a flag (fft_size, --fft-size) of
    the field's type; only lam is spelt lambda / --lambda.
    """

    sample_rate: int = DEFAULT_SAMPLE_RATE
    fft_size: int = DEFAULT_FFT_SIZE
    hop: int = DEFAULT_HOP
    n_mels: int = DEFAULT_N_MELS
    lam: float = LossConfig.lam
    seed: int = DEFAULT_SEED
    format: str = "csv"

    def __post_init__(self):
        if self.n_mels < 1:
            raise ConfigError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be csv or json, got {self.format!r}")
        try:
            LossConfig(self.lam)
            bark_layout(self.stft())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def stft(self) -> StftConfig:
        return StftConfig(
            fft_size=self.fft_size, hop=self.hop, sample_rate=self.sample_rate
        )


_KEY_SPELLING = {"lam": "lambda"}  # lambda is a Python keyword
_FIELDS_BY_KEY = {_KEY_SPELLING.get(f.name, f.name): f for f in fields(CliConfig)}


def _parse_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _FIELDS_BY_KEY:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = raw
    return values


def resolve_config(args) -> CliConfig:
    """Merge flags over config-file values over the library defaults."""
    merged = {}
    config_path = args.config or os.environ.get("PE_AUDIO_CONFIG")
    if config_path:
        for key, raw in _parse_config_file(config_path).items():
            field = _FIELDS_BY_KEY[key]
            try:
                merged[field.name] = field.type(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for field in fields(CliConfig):
        if getattr(args, field.name) is not None:
            merged[field.name] = getattr(args, field.name)
    return CliConfig(**merged)


class _Parser(argparse.ArgumentParser):
    intermixed = False  # compare's: options may stand between its two optional inputs

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)

    def parse_known_args(self, args=None, namespace=None):
        if not self.intermixed:
            return super().parse_known_args(args, namespace)
        self.intermixed = False  # parse_known_intermixed_args calls back here, once per pass
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self.intermixed = True


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="peaudio", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    for key, field in _FIELDS_BY_KEY.items():
        flag = "--" + key.replace("_", "-")
        common.add_argument(flag, dest=field.name, type=field.type, default=None)
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
    p.intermixed = True

    p = sub.add_parser("toy-fit", parents=[common], help="gradient-descent regularization demo")
    p.add_argument("target")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.1)
    p.set_defaults(func=cmd_toy_fit)

    return parser


_SCALAR_TYPES = frozenset((str, int, float, bool, type(None)))


def _json_text(payload) -> str:
    """What json.dumps writes with an indent of 2, plus a newline, at the C encoder's speed.

    The bytes are the same, but json.dumps with an indent runs its
    pure-Python encoder. Here only dicts and lists that hold other
    containers recurse in Python. A list of scalars, a lone scalar and a
    grid (a list of non-empty lists of scalars) each take one call of
    the C encoder, whose item separator carries the newline and indent
    of the innermost depth. Dict keys must be str.
    """
    return _json_value(payload, 0) + "\n"


@functools.cache
def _scalar_encoder(depth: int) -> json.JSONEncoder:
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "))


def _scalars(values) -> bool:
    return _SCALAR_TYPES.issuperset(map(type, values))


def _json_value(value, depth: int) -> str:
    close = "\n" + "  " * depth
    inner = close + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = ("," + inner).join(
            f"{encode_basestring_ascii(k)}: {_json_value(v, depth + 1)}"
            for k, v in value.items()
        )
        return "{" + inner + body + close + "}"
    if not isinstance(value, (list, tuple)):
        return _scalar_encoder(depth).encode(value)
    if not value:
        return "[]"
    if _scalars(value):
        return "[" + inner + _scalar_encoder(depth + 1).encode(value)[1:-1] + close + "]"
    if all(isinstance(row, (list, tuple)) and row and _scalars(row) for row in value):
        # The encoder escapes newlines inside strings, so "]", the
        # separator and "[" in a row are found only between two rows.
        leaf = inner + "  "
        rows = _scalar_encoder(depth + 2).encode(value)[2:-2]
        body = rows.replace("]," + leaf + "[", inner + "]," + inner + "[" + leaf)
        return "[" + inner + "[" + leaf + body + inner + "]" + close + "]"
    body = ("," + inner).join(_json_value(v, depth + 1) for v in value)
    return "[" + inner + body + close + "]"


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
    result = perceptual_entropy(spec, analyze(spec, layout))
    if cfg.format == "json":
        text = _json_text(result.to_json_dict())
    else:
        lines = ["frame,pe"]
        lines += [f"{t},{v!r}" for t, v in enumerate(result.per_frame.tolist())]
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
    if cfg.format == "json":
        payload = {
            "band_center_hz": [float(c) for c in layout.band_centers()],
            **dict(quantities),
        }
        text = _json_text(payload)
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
    check = check_gradient(spec, layout, n_coords=args.n_coords, seed=cfg.seed)
    passed = check.passed()
    payload = check.to_json_dict()
    payload["tolerance"] = GRAD_CHECK_TOLERANCE
    payload["pass"] = passed
    if check.all_kink:
        payload["note"] = "all-kink: every component sits at a subgradient kink"
    _emit(_json_text(payload), args.output)
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
    if cfg.n_mels < DEFAULT_N_CEPSTRA:
        raise ConfigError(
            f"compare needs n_mels >= {DEFAULT_N_CEPSTRA} for its {DEFAULT_N_CEPSTRA} "
            f"mel-cepstral coefficients, got {cfg.n_mels}"
        )
    if args.manifest:
        pairs = []
        labels = []
        try:
            with open(args.manifest) as fh:
                lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"cannot read manifest {args.manifest}: {exc}") from exc
        for lineno, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != 2:
                raise ConfigError(f"{args.manifest}:{lineno}: expected 'ref,pred'")
            pairs.append(tuple(parts))
            labels.append(f"{args.manifest}:{lineno}: ")
        if not pairs:
            raise ConfigError(f"{args.manifest}: no ref,pred pairs")
    elif args.ref and args.pred:
        pairs = [(args.ref, args.pred)]
        labels = [""]
    else:
        raise ConfigError("compare needs REF PRED arguments or --manifest")

    stft_cfg = cfg.stft()

    def score(pair, label):
        # Either error exits 2; the label names the manifest row it came from.
        try:
            return compare_files(pair[0], pair[1], stft_cfg, cfg.n_mels)
        except OSError as exc:
            raise OSError(f"{label}{exc}") from exc
        except PeAudioError as exc:
            raise PeAudioError(f"{label}{exc}") from exc

    # The rows' FFTs release the GIL, so one thread per usable CPU keeps
    # every core busy; more threads only add contention and memory.
    # map yields in manifest order, so the first failing row is reported.
    workers = min(8, _usable_cpus(), len(pairs))
    # Mismatches print below with their rows' labels; the filter is restored after the join.
    with warnings.catch_warnings(), ThreadPoolExecutor(max_workers=workers) as pool:
        warnings.simplefilter("ignore", MismatchWarning)
        reports = list(pool.map(score, pairs, labels))
    for label, report in zip(labels, reports):
        if report.mismatch:
            print(f"warning: {label}{report.mismatch}", file=sys.stderr)
    rows = [report.to_json_dict() for report in reports]

    if cfg.format == "json":
        payload = {
            "rows": [
                {"ref": ref, "pred": pred, **row}
                for (ref, pred), row in zip(pairs, rows)
            ]
        }
        if len(rows) > 1:
            payload["mean"] = _mean_report_row(rows)
        text = _json_text(payload)
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
    lams = {"regularized": cfg.lam, "baseline": 0.0}

    def fit(lam):
        return toy_fit(
            buf, LossConfig(lam=lam), steps=args.steps, learning_rate=args.lr,
            seed=cfg.seed, stft_cfg=stft_cfg, n_mels=cfg.n_mels,
        )

    # The arms share nothing, and their FFTs and matrix products release
    # the GIL, so each gets a thread while there is a CPU for it.
    with ThreadPoolExecutor(max_workers=min(2, _usable_cpus())) as pool:
        arms = dict(zip(lams, pool.map(fit, lams.values())))
    payload = {name: record.to_json_dict() for name, record in arms.items()}
    text = _json_text(payload)
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
    except PeAudioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
