"""End-to-end analysis passes: per-trade attribution and aggregation.

A pass walks every (trade, offset) pair, one trade at a time, prices
its improvement and records exclusions instead of failing. Each pair is
quoted once; the gas-calibration slope only rescales the quoted gas, so
aggregation prices the same quote at the nominal slope and, for
systematic bands, at the slope shifted up and down. Aggregation splits pi into its parts
only at the anchor offset, the one its summary reports; the other
offsets' pairs are priced for pi alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from swapmeter.attribution import AttributionResult, attribute_trade, improvement
from swapmeter.baseline import BaselineProvider
from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.errors import EXCLUDED, EXCLUSION_REASONS
from swapmeter.model import Quote, TradeRecord
from swapmeter.numeric import POLICY, format_bps
from swapmeter.prices import TradeTerms, counterfactual_value, trade_terms
from swapmeter.stats import (
    WeightedEstimate,
    grouped_means,
    rolling_by_size,
    weighted_mean_with_stat,
)

ATTRIBUTION_COLUMNS = [
    "trade_id",
    "offset",
    "pi_bps",
    "pi_routing_bps",
    "pi_gas_bps",
    "pi_fee_bps",
    "pi_remainder_bps",
    "excluded_flag",
    "exclusion_reason",
]

CURVE_COLUMNS = [
    "group",
    "offset",
    "mean_bps",
    "stat_sigma_bps",
    "sys_upper_bps",
    "sys_lower_bps",
    "n",
    "total_weight_usd",
]

ROLLING_COLUMNS = [
    "median_usd",
    "mean_bps",
    "stat_sigma_bps",
    "sys_upper_bps",
    "sys_lower_bps",
    "window_n",
]


class AnalysisRow(NamedTuple):
    """One (trade, offset) outcome: pi at the nominal slope or an exclusion reason.

    An immutable record, like `AttributionResult`. result is the
    attribution at the nominal calibration slope, None where the pair is
    excluded or was priced for pi alone. pi_upper and pi_lower are pi with
    the slope shifted up and down; each is None where that slope excludes
    the pair or no shift was asked for.
    """

    trade: TradeRecord
    offset: int
    pi: Decimal | None
    result: AttributionResult | None
    exclusion_reason: str | None
    pi_upper: Decimal | None = None
    pi_lower: Decimal | None = None

    @property
    def excluded(self) -> bool:
        return self.exclusion_reason is not None


def analysis_pass(
    trades: Iterable[TradeRecord],
    provider: BaselineProvider,
    offsets: Sequence[int],
    f_prime: Decimal,
    calibration: GasCalibration | None = None,
    shifted: tuple[GasCalibration, GasCalibration] | None = None,
    decompose: Sequence[int] | None = None,
) -> Iterator[AnalysisRow]:
    """Price every trade at every offset, yielding rows by (trade_id, offset).

    Each trade's realized terms are taken once and each pair is quoted
    once. The quote's gas is read as g'/beta1 of `calibration` (as served
    when None) for pi and, at the offsets in `decompose` (every offset
    when None), its attribution; and of each `shifted` (upper, lower)
    calibration for pi alone.

    Trades are walked in stable trade_id order and only one trade_id's
    rows are held at a time: they are priced in the 60-digit policy
    context, whatever context the consumer iterates in, then sorted by
    offset and yielded. The order is that of a stable sort of all rows
    by (trade_id, offset).
    """
    beta1 = None if calibration is None else calibration.beta1
    shifted_betas = () if shifted is None else tuple(cal.beta1 for cal in shifted)

    def priced(trade: TradeRecord) -> Iterator[AnalysisRow]:
        terms = trade_terms(trade, f_prime)
        for offset in offsets:
            quote = o_prime = pi = result = reason = None
            try:
                quote = provider.quote(trade, offset)
                if decompose is None or offset in decompose:
                    result = attribute_trade(
                        trade, provider, offset, f_prime, quote=quote, beta1=beta1, terms=terms
                    )
                    pi = result.pi
                else:
                    o_prime = quote.out_estimate.normalized
                    g_prime = quote.gas_estimate if beta1 is None else quote.gas_estimate / beta1
                    pi = _pi(provider, offset, terms, quote, o_prime, g_prime, nominal=True)
            except EXCLUDED as exc:
                reason = EXCLUSION_REASONS[type(exc)]
            shifted_pi = ()
            if quote is not None and shifted_betas:
                if o_prime is None:
                    o_prime = quote.out_estimate.normalized
                shifted_pi = [
                    _pi(provider, offset, terms, quote, o_prime, quote.gas_estimate / b)
                    for b in shifted_betas
                ]
            yield AnalysisRow(trade, offset, pi, result, reason, *shifted_pi)

    by_id = attrgetter("trade_id")
    for _, group in groupby(sorted(trades, key=by_id), key=by_id):
        with localcontext(POLICY):
            rows = [row for trade in group for row in priced(trade)]
        rows.sort(key=attrgetter("offset"))
        yield from rows


def analyze_trades(
    trades: Sequence[TradeRecord],
    provider: BaselineProvider,
    offsets: Sequence[int],
    f_prime: Decimal,
    calibration: GasCalibration | None = None,
    shifted: tuple[GasCalibration, GasCalibration] | None = None,
    decompose: Sequence[int] | None = None,
) -> list[AnalysisRow]:
    """Every row of `analysis_pass`, as a list."""
    return list(
        analysis_pass(trades, provider, offsets, f_prime, calibration, shifted, decompose)
    )


def counting_exclusions(
    rows: Iterable[AnalysisRow], counts: dict[str, int]
) -> Iterator[AnalysisRow]:
    """Yield `rows` unchanged, counting each excluded one in counts[reason]."""
    for row in rows:
        reason = row.exclusion_reason
        if reason is not None:
            counts[reason] = counts.get(reason, 0) + 1
        yield row


def _pi(
    provider: BaselineProvider,
    offset: int,
    terms: TradeTerms,
    quote: Quote,
    o_prime: Decimal,
    g_prime: Decimal,
    nominal: bool = False,
) -> Decimal | None:
    """pi of one quoted pair at gas g', from the price value alone.

    None where that gas excludes the pair, except at the `nominal` slope,
    which raises the exclusion so its reason can be recorded.
    """
    try:
        value, _ = counterfactual_value(provider, offset, terms, quote, o_prime, g_prime)
        return improvement(terms.p.value, value)
    except EXCLUDED:
        if nominal:
            raise
        return None


def attribution_csv_rows(rows: Iterable[AnalysisRow]) -> Iterator[list[str]]:
    """CSV rows of a pass that decomposed every offset (`decompose=None`)."""
    for row in rows:
        if row.result is None:
            yield [
                row.trade.trade_id, str(row.offset), "", "", "", "", "", "true",
                row.exclusion_reason,
            ]
        else:
            r = row.result
            yield [
                r.trade_id,
                str(r.offset),
                format_bps(r.pi),
                format_bps(r.pi_routing),
                format_bps(r.pi_gas),
                format_bps(r.pi_fee),
                format_bps(r.pi_remainder),
                "false",
                "",
            ]


@dataclass(frozen=True, slots=True)
class CurvePoint:
    group: str
    offset: int
    estimate: WeightedEstimate


@dataclass(slots=True)
class AggregateReport:
    """Curves, rolling series, and per-path attribution summary."""

    curves: list[CurvePoint] = field(default_factory=list)
    rolling: list[tuple[Decimal, WeightedEstimate]] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    exclusions: dict[str, int] = field(default_factory=dict)
    anchor_offset: int = 0


def _group_key(row: AnalysisRow, level: str) -> str:
    return row.trade.path if level == "path" else row.trade.interface


def run_aggregate(
    trades: Sequence[TradeRecord],
    raw_provider: BaselineProvider,
    calibration: GasCalibration | None,
    offsets: Sequence[int],
    f_prime: Decimal,
    window: int,
    stride: int = 1,
    sys_multiplier: Decimal | int = 1,
) -> AggregateReport:
    """One-pass aggregation with statistical and systematic uncertainty.

    Only the anchor offset's pairs are split into parts, for the summary;
    the curves and the rolling series need pi alone.
    """
    anchor = 0 if 0 in offsets else min(offsets, key=lambda t: (abs(t), t))
    shifted = None
    if calibration is not None and calibration.beta1_se > 0:
        shifted = perturbed_calibrations(calibration, sys_multiplier)
    exclusions: dict[str, int] = {}
    anchor_rows: list[AnalysisRow] = []

    def members():
        rows = analysis_pass(
            trades, raw_provider, offsets, f_prime, calibration, shifted, decompose=(anchor,)
        )
        for r in counting_exclusions(rows, exclusions):
            if r.trade.usd_value is None:
                continue
            if r.offset == anchor and not r.excluded:
                anchor_rows.append(r)
            yield (
                (("path", r.trade.path, r.offset), ("interface", r.trade.interface, r.offset)),
                r.trade.usd_value,
                (r.pi, r.pi_upper, r.pi_lower),
            )

    base_means, up_means, low_means = grouped_means(members(), 3)

    report = AggregateReport(exclusions=dict(sorted(exclusions.items())), anchor_offset=anchor)

    for key, (mean, sigma, n, total_w) in sorted(base_means.items()):
        level, group, offset = key
        sys_up = abs(up_means[key][0] - mean) if key in up_means else Decimal(0)
        sys_low = abs(mean - low_means[key][0]) if key in low_means else Decimal(0)
        report.curves.append(
            CurvePoint(
                group=f"{level}:{group}",
                offset=offset,
                estimate=WeightedEstimate(mean, sigma, sys_up, sys_low, n, total_w),
            )
        )

    # Rolling-by-size series at the anchor offset, all groups pooled.
    anchor_rows.sort(key=lambda r: (r.trade.usd_value, r.trade.trade_id))
    if len(anchor_rows) >= 2:
        eff_window = min(window, len(anchor_rows))
        if eff_window < window:
            warnings.warn(
                f"rolling window {window} exceeds {len(anchor_rows)} trades; "
                f"using {eff_window}"
            )
        report.rolling = rolling_by_size(
            [(r.trade.usd_value, r.pi, r.pi_upper, r.pi_lower) for r in anchor_rows],
            eff_window,
            stride,
        )

    report.summary = _summary(anchor_rows, up_means, low_means, base_means, anchor)
    return report


def _summary(anchor_rows, up_means, low_means, base_means, anchor: int) -> dict:
    """Per-path and per-interface attribution decomposition at the anchor offset.

    Groups are those with a nominal mean at the anchor (see `stats.grouped_means`).
    """
    metrics = {
        "pi": lambda r: r.pi,
        "routing": lambda r: r.pi_routing,
        "gas": lambda r: r.pi_gas,
        "fee": lambda r: r.pi_fee,
        "remainder": lambda r: r.pi_remainder,
    }
    summary: dict = {"by_path": {}, "by_interface": {}, "anchor_offset": anchor}
    for level, bucket in (("path", "by_path"), ("interface", "by_interface")):
        groups = sorted({_group_key(r, level) for r in anchor_rows})
        for group in groups:
            key = (level, group, anchor)
            if key not in base_means:
                continue
            rows = [r for r in anchor_rows if _group_key(r, level) == group]
            entry: dict = {}
            for name, metric in metrics.items():
                mean, sigma = weighted_mean_with_stat(
                    [(metric(r.result), r.trade.usd_value) for r in rows]
                )
                entry[f"{name}_bps"] = format_bps(mean)
                if name == "pi":
                    entry["pi_stat_sigma_bps"] = format_bps(sigma)
            if key in up_means and key in low_means:
                base = base_means[key][0]
                entry["pi_sys_upper_bps"] = format_bps(abs(up_means[key][0] - base))
                entry["pi_sys_lower_bps"] = format_bps(abs(base - low_means[key][0]))
            entry["n"] = len(rows)
            entry["total_weight_usd"] = str(sum(r.trade.usd_value for r in rows))
            summary[bucket][group] = entry
    return summary


def curve_csv_rows(report: AggregateReport) -> list[list[str]]:
    rows = []
    for point in report.curves:
        e = point.estimate
        rows.append(
            [
                point.group,
                str(point.offset),
                format_bps(e.mean),
                format_bps(e.stat_sigma),
                format_bps(e.sys_upper),
                format_bps(e.sys_lower),
                str(e.n),
                str(e.total_weight),
            ]
        )
    return rows


def rolling_csv_rows(report: AggregateReport) -> list[list[str]]:
    rows = []
    for median, est in report.rolling:
        rows.append(
            [
                str(median),
                format_bps(est.mean),
                format_bps(est.stat_sigma),
                format_bps(est.sys_upper),
                format_bps(est.sys_lower),
                str(est.n),
            ]
        )
    return rows
