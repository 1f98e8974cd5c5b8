"""Command-line surface: analyze, thresholds, grad-check, compare, toy-fit.

Exit codes: 0 success, 1 check failure, 2 I/O error or out of memory,
3 config error.
Option precedence is flags > config file > library defaults; the
config file is flat "key = value" text (unknown keys are rejected) and
its default path can come from the PE_AUDIO_CONFIG environment variable.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace

from ._floattext import Reprs
from .errors import ConfigError, DivergenceError, PeAudioError
from .metrics import file_features, score
from .pe import DEFAULT_N_COORDS, DEFAULT_SEED, LossConfig
from .pe import _pe_walk, check_gradient, fit_target, toy_fit
from .psychoacoustic import _analyze_frames, bark_layout
from .signal_io import Workspace, _open_wav, fork_map, map_rows, thread_map
from .spectral import DEFAULT_FFT_SIZE, DEFAULT_HOP, DEFAULT_SAMPLE_RATE, StftConfig
from .spectral import _frame_source, _spectrum

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
    lam: float = LossConfig.lam
    seed: int = DEFAULT_SEED
    format: str = "csv"

    def __post_init__(self):
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
        return StftConfig(fft_size=self.fft_size, hop=self.hop, sample_rate=self.sample_rate)


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
    p.add_argument("--n-coords", type=int, default=DEFAULT_N_COORDS)
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


def _json_text(payload) -> str:
    """The CLI's JSON: what json.dumps writes with an indent of 2, plus a newline."""
    return json.dumps(payload, indent=2) + "\n"


def _json_with_grids(head: dict, grids: dict) -> list[str]:
    """The pieces of _json_text({**head, **grids}) of a non-empty head and grids of (T, n) finite floats.

    T, n >= 1. The head goes through the stdlib, its closing "\n}\n" cut
    off, and each grid through Reprs, one piece per block of rows, since
    json writes a finite float as its repr.
    """
    row = "\n    [\n      "
    reprs = Reprs(",\n      ", "\n    ]," + row)
    pieces = [_json_text(head)[:-3]]
    for name, values in grids.items():
        pieces += (f",\n  {json.dumps(name)}: [", row, *reprs.pieces(values), "\n    ]\n  ]")
    pieces.append("\n}\n")
    return pieces


def _emit(pieces: list[str], output) -> None:
    """Write the text pieces in order; all of them exist before the output is opened."""
    if output:
        with open(output, "w") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


def _load_frames(path, cfg: CliConfig):
    """The STFT config, frame count and frame source of a WAV at the config rate: no samples."""
    stft_cfg = cfg.stft()
    return stft_cfg, *_frame_source(_open_wav(path, cfg.sample_rate), stft_cfg)


def cmd_analyze(args, cfg: CliConfig) -> int:
    result = _pe_walk(*_load_frames(args.input, cfg))
    if cfg.format == "json":
        text = _json_text(result.to_json_dict())
    else:
        frames = map("{},{!r}".format, range(result.per_frame.size), result.per_frame.tolist())
        lines = ["frame,pe", *frames, f"mean_pe,{result.mean_pe!r}", f"loss_pe,{result.loss_pe!r}"]
        text = "\n".join(lines) + "\n"
    _emit([text], args.output)
    return EXIT_OK


def cmd_thresholds(args, cfg: CliConfig) -> int:
    names = ("band_power", "tonality", "masking_threshold")
    result = SimpleNamespace(**_analyze_frames(*_load_frames(args.input, cfg), names))
    centers = bark_layout(cfg.stft()).band_centers()
    _emit(_thresholds_pieces(result, centers, cfg.format), args.output)
    return EXIT_OK


def _thresholds_pieces(result, centers, fmt: str) -> list[str]:
    """thresholds' text of a masking analysis, in one piece per block of frames (JSON: of each grid)."""
    quantities = (result.band_power, result.tonality, result.masking_threshold)
    if fmt == "json":
        names = ("band_power", "tonality", "threshold")
        return _json_with_grids({"band_center_hz": centers.tolist()}, dict(zip(names, quantities)))
    reprs = Reprs(",", "\n")
    frame = "{0},band_power,{1}\n{0},tonality,{2}\n{0},threshold,{3}\n".format

    def piece(rows):
        lines = [reprs.block(values[rows]).split("\n") for values in quantities]
        return "".join(map(frame, range(rows.start, rows.stop), *lines))

    header = "frame,quantity," + ",".join(f"{c:.1f}" for c in centers) + "\n"
    return [header, *map_rows(piece, len(result.band_power), reprs.row_len(centers.size))]


def cmd_grad_check(args, cfg: CliConfig) -> int:
    if args.n_coords < 1:
        raise ConfigError(f"--n-coords must be >= 1, got {args.n_coords}")
    spec = _spectrum(*_load_frames(args.input, cfg))
    check = check_gradient(spec, n_coords=args.n_coords, seed=cfg.seed)
    _emit([_json_text(check.to_json_dict())], args.output)
    if not check.passed():
        worst = check.worst or {}  # unset when the worst relative error is NaN
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


def cmd_compare(args, cfg: CliConfig) -> int:
    if args.manifest:
        if args.ref is not None:
            raise ConfigError("compare takes REF PRED arguments or --manifest, not both")
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
            if len(parts) != 2 or not all(parts):
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
    # One task per distinct path, as written, in order of first appearance.
    paths = list(dict.fromkeys(path for pair in pairs for path in pair))

    # A file's FFTs release the GIL, so the files are split over one
    # thread per usable CPU, and each file's stages run serially on its
    # thread, in the one Workspace of its thread's share. file_features
    # returns a file's error, and rows are scored in manifest order, so
    # the first failing row is the one reported.
    features = thread_map(lambda path, work: file_features(path, stft_cfg, work), paths, Workspace)
    by_path = dict(zip(paths, features))
    reports = []
    for (ref, pred), label in zip(pairs, labels):
        # Either error exits 2; the label names the manifest row it came from.
        try:
            reports.append(score(ref, pred, by_path[ref], by_path[pred]))
        except OSError as exc:
            raise OSError(f"{label}{exc}") from exc
        except PeAudioError as exc:
            raise PeAudioError(f"{label}{exc}") from exc
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
    _emit([text], args.output)
    return EXIT_OK


def cmd_toy_fit(args, cfg: CliConfig) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    if not 0.0 < args.lr < math.inf:
        raise ConfigError(f"--lr must be finite and positive, got {args.lr}")
    # The target spectrum itself is not kept: the arms read only its fit reference.
    target = fit_target(_spectrum(*_load_frames(args.target, cfg)))
    lams = {"regularized": cfg.lam, "baseline": 0.0}

    def fit(lam):
        return toy_fit(target, LossConfig(lam), args.steps, args.lr, cfg.seed)

    # The arms only read the shared, read-only reference and share nothing
    # else (each allocates its step buffers once). Each walk block runs its
    # band stage in Python, so on two threads the arms would mostly take
    # turns on the GIL: while there is a CPU for it, the baseline arm runs
    # in a forked child, and the stages inside each arm run serially.
    arms = dict(zip(lams, fork_map(fit, lams.values())))
    payload = {name: record.to_json_dict() for name, record in arms.items()}
    _emit([_json_text(payload)], args.output)
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
