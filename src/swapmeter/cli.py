"""Command-line entry points.

Subcommands: calibrate, analyze, aggregate, synth, report. Exit codes:
0 success, 1 partial (exclusions or rejected rows present), 2 fatal.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from swapmeter import pipeline
from swapmeter.baseline import BaselineProvider, ReplayProvider, SyntheticRouterProvider
from swapmeter.calibration import GasCalibration, fit_gas_bias
from swapmeter.config import SETTINGS, RunConfig, coerce_values, config_hash, parse_config
from swapmeter.errors import (
    ConfigError,
    Excluded,
    IngestError,
    InsufficientData,
    InvalidSpec,
    SwapmeterError,
)
from swapmeter.ingest import ingest_pool_snapshots, ingest_quotes, ingest_trades
from swapmeter.model import TradeRecord
from swapmeter.numeric import json_value
from swapmeter.output import provenance, write_csv, write_json, write_text
from swapmeter.synth import generate, load_scenario

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Defaults <- config file <- flags; a file value its key's rule refuses names the file."""
    file_values = {}
    if args.config:
        with _reading(args.config):
            file_values = coerce_values(parse_config(_read_text(args.config)))
    cli_values = {k: v for k, v in vars(args).items() if k not in ("config", "func", "command")}
    return RunConfig(**{**file_values, **coerce_values(cli_values)})


@contextmanager
def _reading(path):
    """Report a failed read of `path`, or a fault in what it holds, as a fatal error naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SwapmeterError(f"cannot read {path}: not UTF-8 text") from exc
    except OSError as exc:
        raise SwapmeterError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (IngestError, ConfigError, InvalidSpec) as exc:
        raise SwapmeterError(f"{path}: {exc}") from exc


def _read_text(path) -> str:
    """The text of a config file, calibration report or spec; a failed read is fatal."""
    with _reading(path), open(path, "r", encoding="utf-8-sig") as stream:
        return stream.read()


@contextmanager
def _writing(path):
    """Report an OS error while writing under `path` as a fatal error.

    The error names the file or directory that failed, if the OS says.
    """
    try:
        yield
    except OSError as exc:
        failed = exc.filename or path
        raise SwapmeterError(f"cannot write {failed}: {exc.strerror or exc}") from exc


def _ingest(ingest, path, kind: str, **options):
    """What `ingest` makes of `path`, and its reject count; rejects print `reject {kind}line N`."""
    with _reading(path):
        value, rejects = ingest(path, **options)
    for reject in rejects:
        print(f"reject {kind}line {reject.line}: {reject.reason}", file=sys.stderr)
    return value, len(rejects)


def _load_trades(cfg: RunConfig, require_usd: bool) -> tuple[list[TradeRecord], int]:
    if not cfg.trades_path:
        raise SwapmeterError("no trade file configured (--trades)")
    return _ingest(ingest_trades, cfg.trades_path, "", strict=cfg.strict, require_usd=require_usd)


def _build_provider(cfg: RunConfig, trades) -> tuple[BaselineProvider, int]:
    """The configured baseline and the number of its file's rejected rows."""
    cfg.require_provider()
    if cfg.quotes_path:
        quotes, n_bad = _ingest(ingest_quotes, cfg.quotes_path, "quote ", strict=cfg.strict)
        provider = ReplayProvider(quotes)
        orphans = quotes.orphans(trades)
        if orphans:
            print(f"{len(orphans)} quotes reference no accepted trade", file=sys.stderr)
        return provider, n_bad
    snapshots, n_bad = _ingest(ingest_pool_snapshots, cfg.pools_path, "pool ", strict=cfg.strict)
    provider = SyntheticRouterProvider(snapshots, cfg.f_prime_wei, overhead_gas=cfg.overhead_gas)
    return provider, n_bad


def _load_calibration(cfg: RunConfig) -> GasCalibration | None:
    if cfg.no_correction:
        return None
    path = cfg.effective_calibration_path()
    with _reading(path):
        found = path.exists()
    if not found:
        raise SwapmeterError(
            f"calibration report {path} not found; run `swapmeter calibrate` or pass --no-correction"
        )
    text = _read_text(path)
    try:
        return GasCalibration.from_dict(json_value(text))
    except (ValueError, ConfigError) as exc:
        raise SwapmeterError(f"bad calibration report {path}: {exc}") from None


def _exit_code(exclusions: dict[str, int], n_rejected: int) -> int:
    """Print each exclusion reason's count; partial if any pair was excluded or row rejected."""
    for reason, count in sorted(exclusions.items()):
        print(f"excluded {count} rows: {reason}", file=sys.stderr)
    return EXIT_PARTIAL if exclusions or n_rejected else EXIT_OK


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trades, n_rejects = _load_trades(cfg, require_usd=False)
    provider, n_bad = _build_provider(cfg, trades)
    sample = [t for t in trades if t.path == cfg.calibration_filter]
    pairs = []
    exclusions: dict[str, int] = {}
    for trade in sample:
        try:
            quote = provider.quote(trade, 0)
        except Excluded as exc:
            exclusions[exc.reason] = exclusions.get(exc.reason, 0) + 1
            continue
        pairs.append((trade.gas.gas_used, quote.gas_estimate))
    code = _exit_code(exclusions, n_rejects + n_bad)  # before an error they may explain
    if len(pairs) < 2:
        raise InsufficientData(
            f"calibration needs >= 2 {cfg.calibration_filter!r} trades with offset-0 "
            f"quotes, found {len(pairs)}"
        )
    cal = fit_gas_bias(pairs)
    payload = dict(cal.as_dict())
    payload["calibration_filter"] = cfg.calibration_filter
    payload["skipped_unquoted"] = sum(exclusions.values())
    path = cfg.effective_calibration_path()
    with _writing(path):
        write_json(path, payload, comment=provenance(config_hash(cfg)))
    print(f"beta1={cal.beta1} beta1_se={cal.beta1_se} n={cal.n_points}")
    return code


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trades, n_rejects = _load_trades(cfg, require_usd=False)
    provider, n_bad = _build_provider(cfg, trades)
    calibration = _load_calibration(cfg)
    exclusions: dict[str, int] = {}
    rows = pipeline.attribution_csv_rows(
        trades, provider, cfg.offsets, cfg.f_prime_wei, calibration, exclusions
    )
    path = Path(cfg.out_dir) / "attribution.csv"
    with _writing(path):
        write_csv(path, pipeline.ATTRIBUTION_COLUMNS, rows, comment=provenance(config_hash(cfg)))
    return _exit_code(exclusions, n_rejects + n_bad)


def cmd_aggregate(args: argparse.Namespace, write_markdown: bool = False) -> int:
    cfg = _config_from_args(args)
    trades, n_rejects = _load_trades(cfg, require_usd=True)
    if not trades:
        raise SwapmeterError("no valid weighted trades to aggregate")
    provider, n_bad = _build_provider(cfg, trades)
    calibration = _load_calibration(cfg)
    report = pipeline.run_aggregate(
        trades,
        provider,
        calibration,
        cfg.offsets,
        cfg.f_prime_wei,
        cfg.window,
        cfg.stride,
        cfg.sys_multiplier,
    )
    code = _exit_code(report.exclusions, n_rejects + n_bad)  # before an error they may explain
    if not report.curves:
        raise SwapmeterError("all groups are empty; nothing to aggregate")
    stamp = provenance(config_hash(cfg))
    out = Path(cfg.out_dir)
    summary = {
        "summary": report.summary,
        "exclusions": report.exclusions,
        "calibration": None if calibration is None else calibration.as_dict(),
    }
    curve = pipeline.curve_csv_rows(report)
    with _writing(out):
        write_csv(out / "curve.csv", pipeline.CURVE_COLUMNS, curve, stamp)
        write_csv(
            out / "rolling.csv", pipeline.ROLLING_COLUMNS, pipeline.rolling_csv_rows(report), stamp
        )
        write_json(out / "summary.json", summary, comment=stamp)
        if write_markdown:
            write_text(out / "report.md", _render_markdown(report, curve, stamp))
    return code


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        value = json_value(_read_text(args.spec))
    except ValueError as exc:
        raise SwapmeterError(f"cannot read scenario file {args.spec}: {exc}") from None
    out_dir = args.out or "out"
    with _reading(args.spec), _writing(out_dir):
        files = generate(load_scenario(value), out_dir)
    print(f"wrote {files.trades_path}, {files.pools_path}, {files.quotes_path}")
    return EXIT_OK


def _render_markdown(report, curve: list[list[str]], stamp: str) -> str:
    """The report in markdown; `curve` is `pipeline.curve_csv_rows(report)`."""
    lines = [
        "# Price improvement report",
        "",
        f"`{stamp}`",
        "",
        f"Anchor offset: {report.anchor_offset}",
        "",
        "## Weighted PI by group and offset",
        "",
        "| group | offset | mean (bps) | stat sigma | sys +/- | n |",
        "|---|---|---|---|---|---|",
    ]
    for group, offset, mean, sigma, upper, lower, n, _ in curve:
        lines.append(f"| {group} | {offset} | {mean} | {sigma} | +{upper}/-{lower} | {n} |")
    lines += ["", "## Attribution at the anchor offset", ""]
    for level in ("by_path", "by_interface"):
        lines.append(f"### {level.replace('_', ' ')}")
        lines.append("")
        lines.append("| group | pi | routing | gas | fee | remainder | n |")
        lines.append("|---|---|---|---|---|---|---|")
        for group, e in report.summary.get(level, {}).items():
            cells = " | ".join(e[f"{k}_bps"] for k in ("pi", "routing", "gas", "fee", "remainder"))
            lines.append(f"| {group} | {cells} | {e['n']} |")
        lines.append("")
    if report.exclusions:
        lines.append("## Exclusions")
        lines.append("")
        for reason, count in report.exclusions.items():
            lines.append(f"- {reason}: {count}")
        lines.append("")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapmeter",
        description="Price-improvement analytics for onchain swaps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    cmd_report = partial(cmd_aggregate, write_markdown=True)
    for name, help_text, func in (
        ("calibrate", "fit the gas-estimate bias slope", cmd_calibrate),
        ("analyze", "per-trade attribution across offsets", cmd_analyze),
        ("aggregate", "weighted curves, rolling series, summary", cmd_aggregate),
        ("report", "aggregate plus a markdown summary", cmd_report),
    ):
        run = sub.add_parser(name, help=help_text)
        run.add_argument("--config", help="flat key = value config file")
        for setting in SETTINGS:
            if setting.flag:
                flag = {"action": "store_const", "const": True} if setting.kind == "boolean" else {}
                run.add_argument(setting.flag, help=setting.help, **flag)
        run.set_defaults(func=func)

    p_syn = sub.add_parser("synth", help="generate a synthetic scenario")
    p_syn.add_argument("spec", help="scenario spec JSON file")
    p_syn.add_argument("--out", help="output directory")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # every warning shows, not once per call site, and reads `warning: <message>`
    # like the other stderr lines; the filters and the formatter are restored after
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            return args.func(args)
    except SwapmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":
    sys.exit(main())
