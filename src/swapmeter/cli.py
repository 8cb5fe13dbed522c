"""Command-line entry points.

Subcommands: calibrate, analyze, aggregate, synth, report. Exit codes:
0 success, 1 partial (exclusions or rejected rows present), 2 fatal.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from swapmeter import pipeline
from swapmeter.baseline import BaselineProvider, ReplayProvider, SyntheticRouterProvider
from swapmeter.calibration import GasCalibration, fit_gas_bias
from swapmeter.config import RunConfig, build_config, config_hash, parse_config_file
from swapmeter.errors import (
    ConfigError,
    InsufficientData,
    QuoteUnavailable,
    SnapshotUnavailable,
    SwapmeterError,
)
from swapmeter.ingest import ingest_pool_snapshots, ingest_quotes, ingest_trades
from swapmeter.model import TradeRecord
from swapmeter.output import provenance, write_csv, write_json, write_text
from swapmeter.synth import generate, load_scenario

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--trades", help="trade CSV/JSONL path")
    parser.add_argument("--quotes", help="recorded quote file (replay baseline)")
    parser.add_argument("--pools", help="pool snapshot file (synthetic router baseline)")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--offsets", help="block offsets, e.g. -4..3 or 0,1")
    parser.add_argument("--f-prime-wei", dest="f_prime_wei", help="baseline priority fee (wei/gas)")
    parser.add_argument("--window", help="rolling window size")
    parser.add_argument("--strict", action="store_const", const=True, help="fail on first bad row")
    parser.add_argument(
        "--no-correction",
        dest="no_correction",
        action="store_const",
        const=True,
        help="skip gas-bias correction",
    )
    parser.add_argument("--sys-multiplier", dest="sys_multiplier", help="multiple of beta1 SE")
    parser.add_argument("--calibration", help="calibration report to apply")
    parser.add_argument(
        "--calibration-filter",
        dest="calibration_filter",
        help="settlement path used as the calibration sample",
    )


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else None
    cli_values = {k: v for k, v in vars(args).items() if k not in ("config", "func", "command")}
    return build_config(file_values, cli_values)


@contextmanager
def _reading(path):
    """Report an OS or text-decoding error while reading `path` as a fatal error."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SwapmeterError(f"cannot read {path}: not UTF-8 text") from exc
    except OSError as exc:
        raise SwapmeterError(f"cannot read {path}: {exc.strerror or exc}") from exc


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


def _load_trades(cfg: RunConfig, require_usd: bool) -> tuple[list[TradeRecord], int]:
    if not cfg.trades_path:
        raise SwapmeterError("no trade file configured (--trades)")
    path = cfg.trades_path
    with _reading(path):
        result = ingest_trades(path, strict=cfg.strict, require_usd=require_usd)
    for reject in result.rejects:
        print(f"reject line {reject.line}: {reject.reason}", file=sys.stderr)
    return result.records, len(result.rejects)


def _build_provider(cfg: RunConfig, trades) -> tuple[BaselineProvider, int]:
    """The configured baseline and the number of its file's rejected rows."""
    cfg.require_provider()
    if cfg.quotes_path:
        path = cfg.quotes_path
        with _reading(path):
            quotes, rejects = ingest_quotes(path, strict=cfg.strict)
        for reject in rejects:
            print(f"reject quote line {reject.line}: {reject.reason}", file=sys.stderr)
        provider = ReplayProvider(quotes)
        orphans = quotes.orphans(trades)
        if orphans:
            print(f"{len(orphans)} quotes reference unknown trades", file=sys.stderr)
        return provider, len(rejects)
    path = cfg.pools_path
    with _reading(path):
        snapshots, rejects = ingest_pool_snapshots(path, strict=cfg.strict)
    for reject in rejects:
        print(f"reject pool line {reject.line}: {reject.reason}", file=sys.stderr)
    provider = SyntheticRouterProvider(snapshots, cfg.f_prime_wei, overhead_gas=cfg.overhead_gas)
    return provider, len(rejects)


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
    try:
        with _reading(path), open(path, "r", encoding="utf-8-sig") as fh:
            return GasCalibration.from_dict(json.load(fh))
    except RecursionError:
        reason = "JSON nested too deeply"
    except (json.JSONDecodeError, ConfigError) as exc:
        reason = str(exc)
    except ValueError:  # an integer literal past int()'s digit limit
        reason = "a JSON integer has too many digits"
    raise SwapmeterError(f"bad calibration report {path}: {reason}") from None


def cmd_calibrate(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trades, n_rejects = _load_trades(cfg, require_usd=False)
    provider, n_bad = _build_provider(cfg, trades)
    sample = [t for t in trades if t.path == cfg.calibration_filter]
    pairs = []
    skipped = 0
    for trade in sample:
        try:
            quote = provider.quote(trade, 0)
        except (QuoteUnavailable, SnapshotUnavailable):
            skipped += 1
            continue
        pairs.append((trade.gas.gas_used, quote.gas_estimate))
    if len(pairs) < 2:
        raise InsufficientData(
            f"calibration needs >= 2 {cfg.calibration_filter!r} trades with offset-0 "
            f"quotes, found {len(pairs)}"
        )
    cal = fit_gas_bias(pairs)
    payload = dict(cal.as_dict())
    payload["calibration_filter"] = cfg.calibration_filter
    payload["skipped_unquoted"] = skipped
    path = cfg.effective_calibration_path()
    with _writing(path):
        write_json(path, payload, comment=provenance(config_hash(cfg)))
    print(f"beta1={cal.beta1} beta1_se={cal.beta1_se} n={cal.n_points}")
    return EXIT_PARTIAL if n_rejects or n_bad else EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    trades, n_rejects = _load_trades(cfg, require_usd=False)
    provider, n_bad = _build_provider(cfg, trades)
    calibration = _load_calibration(cfg)
    rows = pipeline.analysis_pass(trades, provider, cfg.offsets, cfg.f_prime_wei, calibration)
    exclusions: dict[str, int] = {}
    path = Path(cfg.out_dir) / "attribution.csv"
    with _writing(path):
        write_csv(
            path,
            pipeline.ATTRIBUTION_COLUMNS,
            pipeline.attribution_csv_rows(pipeline.counting_exclusions(rows, exclusions)),
            comment=provenance(config_hash(cfg)),
        )
    for reason, count in sorted(exclusions.items()):
        print(f"excluded {count} rows: {reason}", file=sys.stderr)
    return EXIT_PARTIAL if exclusions or n_rejects or n_bad else EXIT_OK


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
    return EXIT_PARTIAL if report.exclusions or n_rejects or n_bad else EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    spec = load_scenario(args.spec)
    out_dir = args.out or "out"
    files = generate(spec, out_dir)
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

    p_cal = sub.add_parser("calibrate", help="fit the gas-estimate bias slope")
    _add_common(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    p_an = sub.add_parser("analyze", help="per-trade attribution across offsets")
    _add_common(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_ag = sub.add_parser("aggregate", help="weighted curves, rolling series, summary")
    _add_common(p_ag)
    p_ag.set_defaults(func=cmd_aggregate)

    p_rep = sub.add_parser("report", help="aggregate plus a markdown summary")
    _add_common(p_rep)
    p_rep.set_defaults(func=lambda a: cmd_aggregate(a, write_markdown=True))

    p_syn = sub.add_parser("synth", help="generate a synthetic scenario")
    p_syn.add_argument("spec", help="scenario spec JSON file")
    p_syn.add_argument("--out", help="output directory")
    p_syn.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SwapmeterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
