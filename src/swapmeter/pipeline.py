"""End-to-end analysis passes: per-trade attribution and aggregation.

A pass walks every (trade, offset) pair, one trade at a time, prices
its improvement and records exclusions instead of failing. The offsets of
one requote scope serve and re-quote alike, so they are one
counterfactual: a trade is quoted once per scope. The gas-calibration
slope only rescales the quoted gas, so aggregation prices the same quote
at the nominal slope and, for systematic bands, at the slope shifted up
and down. Aggregation splits pi into its parts only at the anchor
offset, the one its summary reports; every other (offset, slope) is
priced for pi alone.
"""

from __future__ import annotations

import warnings
from decimal import Decimal, localcontext
from itertools import groupby
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from swapmeter.attribution import PiSplit, improvement, split_improvement
# Not called here: bound for perfbench/spans.py, which traces pipeline.attribute_trade.
from swapmeter.attribution import attribute_trade  # noqa: F401
from swapmeter.baseline import BaselineProvider
from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.errors import EXCLUDED, EXCLUSION_REASONS
from swapmeter.model import TradeRecord
from swapmeter.numeric import POLICY, format_bps
from swapmeter.prices import counterfactual_value, trade_terms
from swapmeter.stats import (
    WeightedEstimate,
    grouped_means,
    half_width,
    rolling_by_size,
)
# Not called here: bound for perfbench/spans.py, which traces pipeline.weighted_mean_with_stat.
from swapmeter.stats import weighted_mean_with_stat  # noqa: F401

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

    result is the split of pi into its parts at the nominal calibration
    slope, None where the pair is excluded or its offset is not decomposed;
    rows of one trade and requote scope share one `PiSplit`.
    pi_upper and pi_lower are pi with the slope shifted up and down; each
    is None where that slope excludes the pair or no shift was asked for.
    """

    trade: TradeRecord
    offset: int
    pi: Decimal | None
    result: PiSplit | None
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

    The offsets are grouped once per run by `provider.requote_scope`, in
    first-seen order. Each trade's realized terms are taken once, and each
    (trade, group) is served once, at the group's first offset. The one
    kernel, `counterfactual_value`, prices the served values at each slope
    in turn: g'/beta1 of `calibration` (g' as served when None), then of
    each `shifted` (upper, lower) calibration. Where any offset of the
    group is in `decompose` (every offset when None) the first slope's pi
    is split into its parts; only the rows of offsets in `decompose` carry
    that split. An exclusion at the first slope is the row's reason; one
    at a later slope leaves that slope's pi None. Every row of a group
    shares its values and exclusion.

    Trades are walked in stable trade_id order and only one trade_id's
    rows are held at a time: they are priced in the 60-digit policy
    context, whatever context the consumer iterates in, then sorted by
    offset and yielded. The order is that of a stable sort of all rows
    by (trade_id, offset).
    """
    betas = [None if calibration is None else calibration.beta1]
    if shifted is not None:
        betas += [cal.beta1 for cal in shifted]

    # Scopes are asked once per run. A group is the run's offsets of one
    # scope, in first-seen order, each with whether its row keeps the split,
    # and whether the group is split at all.
    by_scope: dict = {}
    for offset in offsets:
        keep = decompose is None or offset in decompose
        by_scope.setdefault(provider.requote_scope(offset), []).append((offset, keep))
    groups = [(group, any(keep for _, keep in group)) for group in by_scope.values()]

    def priced(trade: TradeRecord) -> Iterator[AnalysisRow]:
        terms = trade_terms(trade, f_prime)
        for group, split in groups:
            offset = group[0][0]
            try:
                served = provider.serve(trade, offset)
            except EXCLUDED as exc:
                reason = EXCLUSION_REASONS[type(exc)]
                yield from (AnalysisRow(trade, o, None, None, reason) for o, _ in group)
                continue
            o_prime = Decimal(served[0]).scaleb(-served[1])
            result = reason = None
            pis = []
            for beta1 in betas:
                pi = None
                g = served[2] if beta1 is None else served[2] / beta1
                try:
                    value, _, out = counterfactual_value(
                        provider, terms, offset, served, o_prime, g
                    )
                    if split and not pis:
                        result = split_improvement(terms, value, out, g)
                        pi = result.pi
                    else:
                        pi = improvement(terms.p, value)
                except EXCLUDED as exc:
                    if not pis:
                        reason = EXCLUSION_REASONS[type(exc)]
                pis.append(pi)
            for o, keep in group:
                yield AnalysisRow(trade, o, pis[0], result if keep else None, reason, *pis[1:])

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


def attribution_csv_rows(rows: Iterable[AnalysisRow]) -> Iterator[list[str]]:
    """CSV rows of a pass that decomposed every offset (`decompose=None`).

    A split's cells are formatted once while consecutive rows share it.
    """
    last = line = None
    for row in rows:
        r = row.result
        if r is None:
            yield [row.trade.trade_id, str(row.offset), *[""] * 5, "true", row.exclusion_reason]
        elif r is last:
            yield [row.trade.trade_id, str(row.offset), *line[2:]]
        else:
            last = r
            line = [row.trade.trade_id, str(row.offset), *map(format_bps, r), "false", ""]
            yield line


class CurvePoint(NamedTuple):
    group: str
    offset: int
    estimate: WeightedEstimate


class AggregateReport(NamedTuple):
    """Curves, rolling series, and per-path attribution summary."""

    curves: list[CurvePoint]
    rolling: list[tuple[Decimal, WeightedEstimate]]
    summary: dict
    exclusions: dict[str, int]
    anchor_offset: int


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
    the curves and the rolling series need pi alone. The parts are four more
    series of the group sums, so each of the summary's means comes from the
    same one record per group as the curve point.
    """
    anchor = 0 if 0 in offsets else min(offsets, key=lambda t: (abs(t), t))
    shifted = None
    if calibration is not None and calibration.beta1_se > 0:
        shifted = perturbed_calibrations(calibration, sys_multiplier)
    exclusions: dict[str, int] = {}
    points: list[tuple] = []  # of each valued anchor pair, its rolling point

    def members():
        rows = analysis_pass(
            trades, raw_provider, offsets, f_prime, calibration, shifted, decompose=(anchor,)
        )
        for r in counting_exclusions(rows, exclusions):
            trade = r.trade
            usd = trade.usd_value
            if usd is None:
                continue
            groups = (("path", trade.path, r.offset), ("interface", trade.interface, r.offset))
            values = (r.pi, r.pi_upper, r.pi_lower)
            if r.offset == anchor:  # its four parts are four more series of the group sums
                if not r.excluded:
                    points.append((usd, *values))
                values += (None,) * 4 if r.excluded else r.result[1:]
            yield groups, usd, values

    means = dict(sorted(grouped_means(members()).items()))

    curves = []
    summary = {"by_path": {}, "by_interface": {}, "anchor_offset": anchor}

    for key, (mean, sigma, n, total_w, up, low, *parts) in means.items():
        level, group, offset = key
        if shifted is not None and (up is None or low is None):
            warnings.warn(f"group {key}: no mean at a shifted slope; its band side is 0")
        estimate = WeightedEstimate(
            mean, sigma, half_width(up, mean), half_width(low, mean), n, total_w
        )
        curves.append(CurvePoint(f"{level}:{group}", offset, estimate))
        if offset != anchor:
            continue
        pi, pi_sigma, sys_upper, sys_lower = _bps_cells(estimate)
        routing, gas, fee, remainder = map(format_bps, parts)
        entry = {
            "pi_bps": pi, "pi_stat_sigma_bps": pi_sigma, "routing_bps": routing, "gas_bps": gas,
            "fee_bps": fee, "remainder_bps": remainder, "n": n, "total_weight_usd": str(total_w),
        }
        if up is not None and low is not None:
            entry.update(pi_sys_upper_bps=sys_upper, pi_sys_lower_bps=sys_lower)
        summary[f"by_{level}"][group] = entry

    # Rolling-by-size series at the anchor offset, all groups pooled. The pass
    # yields trade_id order, so a stable sort by usd orders by (usd, trade_id).
    rolling = rolling_by_size(points, window, stride)
    return AggregateReport(curves, rolling, summary, dict(sorted(exclusions.items())), anchor)


def _bps_cells(e: WeightedEstimate) -> list[str]:
    """An estimate's mean, sigma and band sides, formatted in bps."""
    return [format_bps(x) for x in (e.mean, e.stat_sigma, e.sys_upper, e.sys_lower)]


def curve_csv_rows(report: AggregateReport) -> list[list[str]]:
    return [
        [p.group, str(p.offset), *_bps_cells(p.estimate), str(p.estimate.n),
         str(p.estimate.total_weight)]
        for p in report.curves
    ]


def rolling_csv_rows(report: AggregateReport) -> list[list[str]]:
    return [[str(median), *_bps_cells(e), str(e.n)] for median, e in report.rolling]
