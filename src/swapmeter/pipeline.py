"""End-to-end analysis passes: per-trade attribution and aggregation.

A pass walks every trade, one at a time, prices its improvement at
each offset and records exclusions instead of failing. The offsets of
one requote scope serve and re-quote alike, so they are one
counterfactual: a trade is quoted and priced once per scope, and one
record per trade and run of adjacent offsets in one scope carries that
outcome to the rows, the CSV lines and the group sums alike. The
gas-calibration slope only rescales the quoted gas, so aggregation
prices the same quote at the nominal slope and, for systematic bands, at
the slope shifted up and down. Aggregation splits pi into its parts only
at the anchor offset, the one its summary reports; every other (offset,
slope) is priced for pi alone.
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
from swapmeter.config import check_offsets
from swapmeter.errors import Excluded
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
    """One (trade, offset) outcome: the split of pi, or None and the pair's exclusion reason."""

    trade: TradeRecord
    offset: int
    result: PiSplit | None
    exclusion_reason: str | None

    @property
    def excluded(self) -> bool:
        return self.exclusion_reason is not None


class _Record(NamedTuple):
    """A trade's outcome at a run of adjacent offsets that share a requote scope.

    pis is pi at the nominal, the upper and the lower slope (None where
    that slope excludes the trade or was not asked for); result is the
    split at the nominal slope, None where the trade is excluded or the
    scope is not decomposed.
    """

    trade: TradeRecord
    offsets: tuple[int, ...]
    pis: tuple[Decimal | None, Decimal | None, Decimal | None]
    result: PiSplit | None
    reason: str | None

    @property
    def excluded(self) -> bool:
        return self.reason is not None


def _records(
    trades: Iterable[TradeRecord],
    provider: BaselineProvider,
    offsets: Sequence[int],
    f_prime: Decimal,
    calibration: GasCalibration | None = None,
    shifted: tuple[GasCalibration, GasCalibration] | None = None,
    decompose: Sequence[int] | None = None,
) -> Iterator[_Record]:
    """Each trade's records, in trade_id order: the pass behind every output.

    A trade is served once per requote scope, at the scope's first offset,
    and priced at each slope: g'/beta1 of `calibration` (g' as served when
    None), then of each `shifted` (upper, lower) calibration. A scope is
    split at the first slope where any of its offsets is in `decompose`
    (every offset when None). One trade at a time is priced, in the
    60-digit policy context. A trade's records run through its offsets in
    ascending order. Before the first record, no offset or a repeated one
    raises ConfigError and a repeated trade_id ValueError, as the CLI
    refuses them.
    """
    check_offsets(offsets)
    by_id = attrgetter("trade_id")
    ordered = sorted(trades, key=by_id)
    for previous, trade in zip(ordered, ordered[1:]):
        if previous.trade_id == trade.trade_id:
            raise ValueError(f"duplicate trade_id {trade.trade_id}")
    betas = [None if calibration is None else calibration.beta1]
    if shifted is not None:
        betas += [cal.beta1 for cal in shifted]
    absent = (None,) * (3 - len(betas))

    # Scopes are asked once per run. A group is the run's offsets of one
    # scope, in first-seen order; it is split where any of them is decomposed.
    by_scope: dict = {}
    for offset in offsets:
        by_scope.setdefault(provider.requote_scope(offset), []).append(offset)
    groups = [
        (group[0], decompose is None or any(o in decompose for o in group))
        for group in by_scope.values()
    ]
    index = {o: i for i, group in enumerate(by_scope.values()) for o in group}
    runs = [(i, tuple(run)) for i, run in groupby(sorted(offsets), key=index.__getitem__)]

    def priced(trade, terms, offset, split):
        """(pis, result, reason) of the trade served at `offset`, priced at each slope."""
        try:
            served = provider.serve(trade, offset)
        except Excluded as exc:
            return (None,) * 3, None, exc.reason
        o_prime = Decimal(served[0]).scaleb(-served[1])
        result = reason = None
        pis = []
        for beta1 in betas:
            pi = None
            g = served[2] if beta1 is None else served[2] / beta1
            try:
                value, _, out = counterfactual_value(provider, terms, offset, served, o_prime, g)
                if split and not pis:
                    result = split_improvement(terms, value, out, g)
                    pi = result.pi
                else:
                    pi = improvement(terms.p, value)
            except Excluded as exc:
                if not pis:
                    reason = exc.reason
            pis.append(pi)
        return (*pis, *absent), result, reason

    for trade in ordered:
        with localcontext(POLICY):
            terms = trade_terms(trade, f_prime)
            values = [priced(trade, terms, offset, split) for offset, split in groups]
        for i, run in runs:
            yield _Record(trade, run, *values[i])


def analyze_trades(
    trades: Sequence[TradeRecord],
    provider: BaselineProvider,
    offsets: Sequence[int],
    f_prime: Decimal,
) -> list[AnalysisRow]:
    """Every (trade, offset) row, split at the gas as served, in (trade_id, offset) order."""
    records = _records(trades, provider, offsets, f_prime)
    return [AnalysisRow(r.trade, o, r.result, r.reason) for r in records for o in r.offsets]


def attribution_csv_rows(
    trades: Iterable[TradeRecord],
    provider: BaselineProvider,
    offsets: Sequence[int],
    f_prime: Decimal,
    calibration: GasCalibration | None,
    exclusions: dict[str, int],
) -> Iterator[list[str]]:
    """CSV rows of every pair, split at every offset; each excluded one counts in exclusions.

    A record's five bps cells are formatted once, for all of its offsets.
    """
    for r in _records(trades, provider, offsets, f_prime, calibration):
        if r.excluded:
            exclusions[r.reason] = exclusions.get(r.reason, 0) + len(r.offsets)
            cells = [""] * 5 + ["true", r.reason]
        else:
            cells = [*map(format_bps, r.result), "false", ""]
        for offset in r.offsets:
            yield [r.trade.trade_id, str(offset), *cells]


class CurvePoint(NamedTuple):
    """A group's estimate at one offset; cells are its mean, sigma and band sides in bps."""

    group: str
    offset: int
    estimate: WeightedEstimate
    cells: list[str]


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
    same sums as the curve point. A record is one member of the sums of
    every group of its run's offsets: the sums are exact, so this adds the
    same values as one member per offset.
    """
    check_offsets(offsets)
    rolling_by_size((), window, stride)  # refuses a bad window or stride before the pass
    anchor = 0 if 0 in offsets else min(offsets, key=lambda t: (abs(t), t))
    shifted = None
    if calibration is not None and calibration.beta1_se > 0:
        shifted = perturbed_calibrations(calibration, sys_multiplier)
    exclusions: dict[str, int] = {}
    points: list[tuple] = []  # of each valued anchor pair, its rolling point
    keys: dict[tuple, tuple] = {}  # (path, interface, offsets) -> a member's groups

    def members():
        records = _records(
            trades, raw_provider, offsets, f_prime, calibration, shifted, decompose=(anchor,)
        )
        for r in records:
            if r.excluded:
                exclusions[r.reason] = exclusions.get(r.reason, 0) + len(r.offsets)
            trade, run, values = r.trade, r.offsets, r.pis
            usd = trade.usd_value
            if usd is None:
                continue
            key = (trade.path, trade.interface, run)
            groups = keys.get(key)
            if groups is None:
                path, interface = key[:2]
                groups = keys[key] = tuple(
                    g for o in run for g in (("path", path, o), ("interface", interface, o))
                )
            if anchor in run:  # the four parts are four more series of the group sums
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
        cells = _bps_cells(estimate)
        curves.append(CurvePoint(f"{level}:{group}", offset, estimate, cells))
        if offset != anchor:
            continue
        pi, pi_sigma, sys_upper, sys_lower = cells
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
        [p.group, str(p.offset), *p.cells, str(p.estimate.n), str(p.estimate.total_weight)]
        for p in report.curves
    ]


def rolling_csv_rows(report: AggregateReport) -> list[list[str]]:
    return [[str(median), *_bps_cells(e), str(e.n)] for median, e in report.rolling]
