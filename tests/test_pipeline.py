"""Single-pass aggregation against a three-pass reference.

run_aggregate quotes each (trade, offset) once and prices that quote at
beta1 and beta1 +/- k*SE. The reference below re-runs analyze_trades
through a CalibratedProvider at each of the three slopes, re-quoting
every pair (in router mode through a new provider per quote, so no
route is reused), and aggregates as the pipeline is specified to, with
every mean taken afresh from exact fractions rather than through
`stats`: its curve and rolling rows, summary, exclusions and warnings
must equal the pipeline's exactly. It runs on one synth scenario in
process, and on Hypothesis-generated scenarios against the bytes that
`swapmeter report` writes; there `swapmeter analyze`'s attribution.csv
must also equal every pair priced on its own through attribute_trade.
A second test checks each analyze_trades row against attribute_trade and
counterfactual_price called for that pair alone, and two more check that
decomposing only the anchor offset changes nothing but which rows carry
an attribution; another checks that a replay pass builds no per-pair
record, and another that aggregating over one snapshot adds one member
per trade to the group sums. Two more check the streamed pass: its order
equals a stable sort of rows priced one pair at a time, and its values do
not depend on the decimal context its consumer drains it in. Serving and
pricing once per requote scope is checked against a provider whose
offsets share no requote scope, on rows, CSV lines, reports and warnings
over six scope layouts, and by counting how often a trade is served and
priced.
"""

import csv
import io
import json
import tempfile
import warnings
from collections import Counter
from decimal import ROUND_DOWN, Context, getcontext, localcontext
from decimal import Decimal as D
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from swapmeter import stats
from swapmeter.attribution import (
    AttributionResult,
    attribute_trade,
    improvement,
    split_improvement,
)
from swapmeter.baseline import (
    BaselineProvider,
    CalibratedProvider,
    ReplayProvider,
    SyntheticRouterProvider,
)
from swapmeter.calibration import GasCalibration, perturbed_calibrations
from swapmeter.cli import main
from swapmeter.errors import (
    EXCLUDED,
    EXCLUSION_REASONS,
    NonPositiveAdjustedInput,
    NonPositiveBaseline,
    QuoteUnavailable,
)
from swapmeter.ingest import (
    QUOTE_COLUMNS,
    SNAPSHOT_COLUMNS,
    TRADE_COLUMNS,
    QuoteSet,
    ingest_pool_snapshots,
    ingest_quotes,
    ingest_trades,
    trade_to_row,
)
from swapmeter.model import Direction, Quote, TokenAmount
from swapmeter.numeric import format_bps
from swapmeter.pipeline import (
    ATTRIBUTION_COLUMNS,
    CURVE_COLUMNS,
    ROLLING_COLUMNS,
    AnalysisRow,
    analysis_pass,
    analyze_trades,
    attribution_csv_rows,
    run_aggregate,
)
from swapmeter.prices import (
    DecisionVector,
    counterfactual_price,
    counterfactual_value,
    realized_price,
)
from swapmeter.router import route_optimal_split
from swapmeter.stats import _EXACT, weighted_mean_with_stat

from conftest import USDC, WETH, make_pool, make_trade

F_PRIME = D(100_000_000)
OFFSETS = [-1, 0, 1]
WINDOW = 15
MULTIPLIER = 2


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    root = tmp_path_factory.mktemp("scenario")
    spec = {
        "seed": 23,
        "n_trades": 48,
        "path_mix": {"Classic": 0.5, "X": 0.5},
        "ofa_liquidity_bonus_bps": "5",
        "offsets": OFFSETS,
    }
    (root / "scenario.json").write_text(json.dumps(spec))
    assert main(["synth", str(root / "scenario.json"), "--out", str(root)]) == 0
    trades = ingest_trades(root / "trades.csv", require_usd=True).records
    assert any(t.gas_internalized and t.direction is Direction.WETH_IN for t in trades)
    return root, trades


class FreshRouter(BaselineProvider):
    """Solves every quote's route anew; a re-quote routes its offset's snapshot directly."""

    provider_id = "fresh-router"

    def __init__(self, snapshots):
        self._snapshots = snapshots

    def serve(self, trade, offset):
        return SyntheticRouterProvider(self._snapshots, F_PRIME).serve(trade, offset)

    def output_at(self, trade, offset, out_raw, amount_raw):
        gas_price = D(trade.gas.base_fee) + F_PRIME
        amount = TokenAmount(amount_raw, trade.amount_in.decimals)
        route = route_optimal_split(self._snapshots[offset], amount, trade.direction, gas_price)
        return route.total_out.raw


def _drifted(snapshots):
    """Each offset's pools with reserves moved in proportion to the offset.

    Offset 0 keeps the synth pools; every other offset gets its own snapshot.
    """
    def moved(amount, per_offset, offset):
        return TokenAmount(amount.raw * (10_000 + per_offset * offset) // 10_000, amount.decimals)

    return {
        offset: [
            pool._replace(
                reserve_weth=moved(pool.reserve_weth, 7, offset),
                reserve_token=moved(pool.reserve_token, -5, offset),
            )
            for pool in pools
        ]
        for offset, pools in snapshots.items()
    }


def _provider(root, baseline, fresh=False):
    if baseline == "quotes":
        return ReplayProvider(ingest_quotes(root / "quotes.csv")[0])
    snapshots = ingest_pool_snapshots(root / "pools.csv")[0]
    if baseline == "drifted-pools":
        snapshots = _drifted(snapshots)
    return FreshRouter(snapshots) if fresh else SyntheticRouterProvider(snapshots, F_PRIME)


def _rounded(q: Fraction) -> D:
    """The rational q correctly rounded in the current context."""
    return getcontext().divide(D(q.numerator), D(q.denominator))


def _fresh(values):
    """Weighted mean and standard error of (x, w) pairs, from exact fractions.

    Each is its rational correctly rounded, as the statistics promise: the
    mean of sum wx / sum w, then sigma = sqrt(sum w(x - mean)^2 / (n sum w))
    around that rounded mean. None where fewer than 2 pairs or no weight.
    """
    total = sum(Fraction(w) for _, w in values)
    if len(values) < 2 or not total:
        return None
    mean = _rounded(sum(Fraction(w) * Fraction(x) for x, w in values) / total)
    spread = sum(Fraction(w) * (Fraction(x) - Fraction(mean)) ** 2 for x, w in values)
    return mean, getcontext().sqrt(_rounded(spread / (len(values) * total)))


def _side(shifted, mean):
    """|shifted mean - mean| from the shifted slope's `_fresh` estimate; 0 without one."""
    return D(0) if shifted is None else abs(shifted[0] - mean)


class Reference(NamedTuple):
    curve: list  # (group, offset, mean, sigma, sys_upper, sys_lower, n, total weight)
    rolling: list  # (median, mean, sigma, sys_upper, sys_lower, window, total weight)
    summary: dict
    exclusions: dict
    warnings: list


def _three_pass_reference(
    trades, provider, cal, offsets=OFFSETS, window=WINDOW, stride=1, multiplier=MULTIPLIER
):
    """What `run_aggregate` must report, from one plain pass per slope and fresh means.

    Each slope re-quotes every pair through its own CalibratedProvider (the
    raw provider when uncalibrated); groups, windows and summary parts are
    averaged afresh from their members. Warnings are listed in the order
    the aggregation gives them.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        shifted = perturbed_calibrations(cal, multiplier) if cal and cal.beta1_se > 0 else ()
    said = [str(w.message) for w in caught]
    passes = [
        analyze_trades(trades, provider if c is None else CalibratedProvider(provider, c),
                       offsets, F_PRIME)
        for c in (cal, *shifted)
    ]
    valued = [[r for r in rows if not r.excluded] for rows in passes]
    exclusions = Counter(r.exclusion_reason for r in passes[0] if r.excluded)
    anchor = 0 if 0 in offsets else min(offsets, key=lambda t: (abs(t), t))

    buckets = [{} for _ in passes]  # per slope: (level, group, offset) -> rows, in pass order
    for rows, bucket in zip(valued, buckets):
        for r in rows:
            for level, group in (("path", r.trade.path), ("interface", r.trade.interface)):
                bucket.setdefault((level, group, r.offset), []).append(r)
    pairs = [
        {key: [(r.result.pi, r.trade.usd_value) for r in rows] for key, rows in bucket.items()}
        for bucket in buckets
    ]
    nominal = {}
    for key, values in pairs[0].items():
        if len(values) < 2:
            said.append(f"skipping group {key}: fewer than 2 weighted trades")
        elif not sum(w for _, w in values):
            said.append(f"skipping group {key}: all weights are zero")
        else:
            nominal[key] = (*_fresh(values), len(values), sum(w for _, w in values))

    curve, summary = [], {"by_path": {}, "by_interface": {}, "anchor_offset": anchor}
    for key, (mean, sigma, n, total) in sorted(nominal.items()):
        level, group, offset = key
        means = [_fresh(other.get(key, [])) for other in pairs[1:]]
        if shifted and None in means:
            said.append(f"group {key}: no mean at a shifted slope; its band side is 0")
        up, low = [_side(m, mean) for m in means] or [D(0), D(0)]
        curve.append((f"{level}:{group}", offset, mean, sigma, up, low, n, total))
        if offset != anchor:
            continue
        entry = {"pi_bps": format_bps(mean), "pi_stat_sigma_bps": format_bps(sigma)}
        for part in ("routing", "gas", "fee", "remainder"):
            part_values = [(getattr(r.result, f"pi_{part}"), r.trade.usd_value)
                           for r in buckets[0][key]]
            entry[f"{part}_bps"] = format_bps(_fresh(part_values)[0])
        if shifted and None not in means:
            entry["pi_sys_upper_bps"], entry["pi_sys_lower_bps"] = map(format_bps, (up, low))
        entry.update(n=n, total_weight_usd=str(total))
        summary[f"by_{level}"][group] = entry

    at_anchor = [{r.trade.trade_id: r for r in rows if r.offset == anchor} for rows in valued]
    ordered = sorted(at_anchor[0].values(), key=lambda r: (r.trade.usd_value, r.trade.trade_id))
    rolling = []
    if len(ordered) >= 2:
        size = min(window, len(ordered))
        if size < window:
            said.append(f"rolling window {window} exceeds {len(ordered)} trades; using {size}")
        for start in range(0, len(ordered) - size + 1, stride):
            chunk = ordered[start : start + size]
            low, high = chunk[(size - 1) // 2].trade.usd_value, chunk[size // 2].trade.usd_value
            median = high if size % 2 else (low + high) / 2
            estimate = _fresh([(r.result.pi, r.trade.usd_value) for r in chunk])
            if estimate is None:
                said.append(f"skipping rolling window at median {median}: all weights are zero")
                continue
            mean, sigma = estimate
            bands = [
                _side(_fresh([(rows[r.trade.trade_id].result.pi, r.trade.usd_value)
                              for r in chunk if r.trade.trade_id in rows]), mean)
                for rows in at_anchor[1:]
            ] or [D(0), D(0)]
            total = sum(r.trade.usd_value for r in chunk)
            rolling.append((median, mean, sigma, *bands, size, total))
    return Reference(curve, rolling, summary, dict(sorted(exclusions.items())), said)


@pytest.mark.parametrize("baseline", ["quotes", "pools", "drifted-pools"])
def test_single_pass_equals_three_pass_reference(scenario, baseline):
    root, trades = scenario
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_aggregate(
            trades, _provider(root, baseline), cal, OFFSETS, F_PRIME, WINDOW,
            sys_multiplier=MULTIPLIER,
        )
    curve = [
        (
            p.group, p.offset, p.estimate.mean, p.estimate.stat_sigma, p.estimate.sys_upper,
            p.estimate.sys_lower, p.estimate.n, p.estimate.total_weight,
        )
        for p in report.curves
    ]
    rolling = [
        (median, e.mean, e.stat_sigma, e.sys_upper, e.sys_lower, e.n, e.total_weight)
        for median, e in report.rolling
    ]
    expected = _three_pass_reference(trades, _provider(root, baseline, fresh=True), cal)
    assert curve == expected.curve
    assert rolling == expected.rolling
    assert (report.summary, report.exclusions) == (expected.summary, expected.exclusions)
    assert [str(w.message) for w in caught] == expected.warnings
    assert any(row[4] > 0 for row in curve)


# Trade shapes of the scenario-space oracle: (direction, gas internalized,
# amount in, amount out). The small ones are excluded at some slopes: an
# internalized WETH-in trade whose gas outgrows its input, and a WETH-out
# trade whose baseline output is worth less than its gas.
_SHAPES = {
    "IN": (Direction.WETH_IN, False, TokenAmount(WETH, 18), TokenAmount(3000 * USDC, 6)),
    "OUT": (Direction.WETH_OUT, False, TokenAmount(3000 * USDC, 6), TokenAmount(WETH, 18)),
    "IN-X": (Direction.WETH_IN, True, TokenAmount(WETH, 18), TokenAmount(3000 * USDC, 6)),
    "OUT-X": (Direction.WETH_OUT, True, TokenAmount(3000 * USDC, 6), TokenAmount(WETH, 18)),
    "IN-X-SMALL": (
        Direction.WETH_IN, True, TokenAmount(4 * 10**15, 18), TokenAmount(12 * USDC, 6)
    ),
    "OUT-SMALL": (
        Direction.WETH_OUT, False, TokenAmount(12 * USDC, 6), TokenAmount(4 * 10**15, 18)
    ),
}
_POOLS = [
    make_pool("P30", weth=1000, token=3_000_000, fee_bps=30, gas_per_hop=120_000),
    make_pool("P05", weth=400, token=1_210_000, fee_bps=5, gas_per_hop=90_000),
]
# (beta1, SE): uncalibrated, SE = 0, a plain band, and an SE whose 2x shift
# takes the lower slope to or below 0, which is clamped to beta1/2.
_CALIBRATIONS = [None, ("0.95", "0"), ("0.95", "0.05"), ("0.95", "0.5")]


def _shaped(k, shape, **kwargs):
    """Trade T<k> of one of the `_SHAPES`."""
    direction, internalized, amount_in, amount_out = _SHAPES[shape]
    return make_trade(f"T{k}", direction=direction, gas_internalized=internalized,
                      amount_in=amount_in, amount_out=amount_out, **kwargs)


class Scenario(NamedTuple):
    trades: list
    offsets: list
    quotes: list | None  # replay baseline, or None for the router over `snapshots`
    snapshots: dict
    cal: GasCalibration | None
    multiplier: int
    window: int
    stride: int


@st.composite
def _scenarios(draw):
    trades = []
    for k in range(draw(st.integers(3, 8))):
        trades.append(_shaped(
            k,
            draw(st.sampled_from(list(_SHAPES))),
            interface=draw(st.sampled_from(["Uniswap", "1inch"])),
            path=draw(st.sampled_from(["Classic", "X"])),
            usd_value=D(draw(st.sampled_from(["0", "500", "1200.5", "3000"]))),  # ties, zeros
        ))
    offsets = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3, unique=True))
    quotes, snapshots = None, {}
    if draw(st.booleans()):
        quotes = [
            Quote(
                t.trade_id, o,
                TokenAmount(t.amount_out.raw * (10_000 - draw(st.integers(0, 60))) // 10_000,
                            t.amount_out.decimals),
                D(draw(st.sampled_from([140_000, 185_000, 195_000]))),
                "prov",
            )
            for t in trades
            for o in offsets
            if draw(st.integers(0, 7))  # else the pair has no quote
        ]
        assume(quotes)
    else:
        pools = draw(st.lists(st.sampled_from(_POOLS), min_size=1, max_size=2, unique=True))
        drift = _drifted if draw(st.booleans()) else lambda snapshots: snapshots
        snapshots = drift({o: pools for o in sorted(draw(st.sets(st.integers(-2, 2), min_size=1)))})
    cal = draw(st.sampled_from(_CALIBRATIONS))
    if cal is not None:
        cal = GasCalibration(D(cal[0]), D(cal[1]), 20, D(1), D(0))
    return Scenario(trades, offsets, quotes, snapshots, cal, draw(st.sampled_from([1, 2])),
                    draw(st.integers(2, 9)), draw(st.integers(1, 3)))


def _csv_text(stamp, columns, rows):
    buf = io.StringIO()
    buf.write(f"{stamp}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _write_inputs(root: Path, sc: Scenario) -> list[str]:
    """The scenario's input files under root, and the `report` arguments that read them."""
    (root / "trades.csv").write_text(_csv_text("#", TRADE_COLUMNS, map(trade_to_row, sc.trades)))
    (root / "run.cfg").write_text(
        f"window = {sc.window}\nstride = {sc.stride}\nsys_multiplier = {sc.multiplier}\n"
    )
    args = ["report", "--config", str(root / "run.cfg"), "--trades", str(root / "trades.csv"),
            "--out", str(root / "out"), f"--offsets={','.join(map(str, sc.offsets))}"]
    if sc.quotes is not None:
        rows = [[q.trade_id, str(q.offset), str(q.out_estimate.raw), str(q.out_estimate.decimals),
                 str(q.gas_estimate), q.provider_id] for q in sc.quotes]
        (root / "quotes.csv").write_text(_csv_text("#", QUOTE_COLUMNS, rows))
        args += ["--quotes", str(root / "quotes.csv")]
    else:
        rows = [[str(o), p.pool_id, str(p.reserve_weth.raw), str(p.reserve_token.raw),
                 str(p.reserve_token.decimals), str(p.fee_bps), str(p.gas_per_hop)]
                for o, pools in sc.snapshots.items() for p in pools]
        (root / "pools.csv").write_text(_csv_text("#", SNAPSHOT_COLUMNS, rows))
        args += ["--pools", str(root / "pools.csv")]
    if sc.cal is None:
        return args + ["--no-correction"]
    (root / "cal.json").write_text(json.dumps(sc.cal.as_dict()))
    return args + ["--calibration", str(root / "cal.json")]


# Scenarios every run covers. Replay: at beta1 = 0.95, 195,000 quoted gas
# makes IN-X-SMALL's adjusted input and OUT-SMALL's baseline price
# non-positive; T3 has no quote at offset 1. Router: internalized WETH-in
# trades re-quoted over drifted snapshots, and an offset with none.
_BAND = GasCalibration(D("0.95"), D("0.05"), 20, D(1), D(0))
_REPLAY_TRADES = [_shaped(k, shape, path="Classic" if k % 2 else "X")
                  for k, shape in enumerate(["IN", "IN-X", "IN-X-SMALL", "OUT-SMALL", "OUT-X"])]
_COVERED = [
    Scenario(
        _REPLAY_TRADES, [0, 1],
        [Quote(t.trade_id, o, TokenAmount(t.amount_out.raw * 9_990 // 10_000,
                                          t.amount_out.decimals), D(195_000), "prov")
         for t in _REPLAY_TRADES for o in (0, 1) if (t.trade_id, o) != ("T3", 1)],
        {}, _BAND, 1, 3, 1,
    ),
    Scenario(
        [_shaped(k, shape) for k, shape in enumerate(["IN-X", "IN", "IN-X-SMALL", "OUT"])],
        [-1, 0, 1], None, _drifted({0: _POOLS, 1: _POOLS}), _BAND, 2, 2, 1,
    ),
]


def _analyze_reference(sc: Scenario, provider) -> list[list[str]]:
    """attribution.csv's rows: each pair priced on its own by attribute_trade."""
    if sc.cal is not None:
        provider = CalibratedProvider(provider, sc.cal)
    rows = []
    for trade in sorted(sc.trades, key=lambda t: t.trade_id):
        for offset in sorted(sc.offsets):
            try:
                res = attribute_trade(trade, provider, offset, F_PRIME)
            except EXCLUDED as exc:
                cells = ["", "", "", "", "", "true", EXCLUSION_REASONS[type(exc)]]
            else:
                parts = (res.pi, res.pi_routing, res.pi_gas, res.pi_fee, res.pi_remainder)
                cells = [*map(format_bps, parts), "false", ""]
            rows.append([trade.trade_id, str(offset), *cells])
    return rows


@settings(max_examples=60, deadline=None)
@given(_scenarios())
@example(_COVERED[0])
@example(_COVERED[1])
def test_report_bytes_equal_the_reference_over_scenarios(sc):
    """`report`'s curve.csv, rolling.csv, summary.json and warnings, byte for byte,
    and `analyze`'s attribution.csv.

    Scenarios cover offsets without 0 (the anchor moves), odd and even
    windows with stride up to 3 and the window clamp, tied and zero USD
    weights, pairs without a quote or snapshot, internalized WETH-in
    re-quotes, non-positive adjusted inputs and baseline prices, SE = 0 and
    a lower slope clamped at k*SE >= beta1, with replay quotes and with the
    router over shared or drifted snapshots.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        args = _write_inputs(root, sc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(args)
        said = [str(w.message) for w in caught if issubclass(w.category, UserWarning)]
        out = {p.name: p.read_text() for p in (root / "out").glob("*")}
        analyze = ["analyze", *args[1:]]
        analyze[analyze.index("--out") + 1] = str(root / "a")
        analyze_rc = main(analyze)
        attribution = (root / "a" / "attribution.csv").read_text()

    if sc.quotes is None:
        provider = FreshRouter(sc.snapshots)
    else:
        provider = ReplayProvider(QuoteSet(sc.quotes))
    rows = _analyze_reference(sc, provider)
    assert analyze_rc == (1 if any(row[7] == "true" for row in rows) else 0)
    stamp = attribution.splitlines()[0]
    assert attribution == _csv_text(stamp, ATTRIBUTION_COLUMNS, rows)

    expected = _three_pass_reference(
        sc.trades, provider, sc.cal, sc.offsets, sc.window, sc.stride, sc.multiplier
    )
    assert said == expected.warnings
    if not expected.curve:  # "all groups are empty": nothing is written
        assert (rc, out) == (2, {})
        return
    assert rc == (1 if expected.exclusions else 0)
    stamp = out["curve.csv"].splitlines()[0]
    curve = [[group, str(offset), *map(format_bps, (mean, sigma, up, low)), str(n), str(total)]
             for group, offset, mean, sigma, up, low, n, total in expected.curve]
    assert out["curve.csv"] == _csv_text(stamp, CURVE_COLUMNS, curve)
    rolling = [[str(median), *map(format_bps, (mean, sigma, up, low)), str(n)]
               for median, mean, sigma, up, low, n, _ in expected.rolling]
    assert out["rolling.csv"] == _csv_text(stamp, ROLLING_COLUMNS, rolling)
    summary = {
        "meta": stamp[2:],
        "summary": expected.summary,
        "exclusions": expected.exclusions,
        "calibration": None if sc.cal is None else sc.cal.as_dict(),
    }
    assert out["summary.json"] == json.dumps(summary, indent=2, sort_keys=True) + "\n"


def _replay(quotes):
    return ReplayProvider(
        QuoteSet(
            [Quote(t, o, TokenAmount(raw, dec), D(gas), "prov") for t, o, raw, dec, gas in quotes]
        )
    )


def test_rows_equal_pricing_each_pair_on_its_own():
    """Each row's five values equal attribute_trade's and counterfactual_price's on their own.

    One trade per direction x gas-internalization case, plus an internalized
    WETH-in trade whose gas-adjusted input is positive except at the lower
    slope, a WETH-out trade whose baseline price is positive except at the
    lower slope, and an offset with no quote.
    """
    cal = GasCalibration(D(1), D("0.05"), 20, D(1), D(0))
    shifted = perturbed_calibrations(cal)
    trades = [
        make_trade("IN", direction=Direction.WETH_IN),
        make_trade("OUT", direction=Direction.WETH_OUT),
        make_trade("IN-X", direction=Direction.WETH_IN, gas_internalized=True),
        make_trade("OUT-X", direction=Direction.WETH_OUT, gas_internalized=True),
        make_trade(
            "IN-X-SMALL",
            direction=Direction.WETH_IN,
            gas_internalized=True,
            amount_in=TokenAmount(4 * 10**15, 18),
            amount_out=TokenAmount(12 * USDC, 6),
        ),
        make_trade(
            "OUT-SMALL",
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(12 * USDC, 6),
            amount_out=TokenAmount(4 * 10**15, 18),
        ),
    ]
    # b + f' = 20.1 gwei: 190,000 gas costs 0.003819 ETH at beta1 and
    # 200,000 gas (0.00402 ETH) at beta1 - SE, more than 0.004 ETH.
    provider = _replay(
        [
            ("IN", 0, 2990 * USDC, 6, 140_000),
            ("IN", 1, 2985 * USDC, 6, 160_000),
            ("OUT", 0, WETH - 10**15, 18, 150_000),
            ("OUT", 1, WETH - 2 * 10**15, 18, 130_000),
            ("IN-X", 0, 2995 * USDC, 6, 150_000),
            ("IN-X", 1, 2993 * USDC, 6, 170_000),
            ("OUT-X", 0, WETH + 10**15, 18, 150_000),
            ("IN-X-SMALL", 0, 12 * USDC, 6, 190_000),
            ("IN-X-SMALL", 1, 11 * USDC, 6, 190_000),
            ("OUT-SMALL", 0, 4 * 10**15, 18, 190_000),
            ("OUT-SMALL", 1, 4 * 10**15, 18, 190_000),
        ]
    )
    rows = analyze_trades(trades, provider, [0, 1], F_PRIME, cal, shifted)
    assert [(r.trade.trade_id, r.offset) for r in rows] == sorted(
        (t.trade_id, o) for t in trades for o in (0, 1)
    )
    for row in rows:
        trade, offset = row.trade, row.offset
        try:
            res = attribute_trade(trade, CalibratedProvider(provider, cal), offset, F_PRIME)
        except EXCLUDED as exc:
            expected, reason = None, EXCLUSION_REASONS[type(exc)]
        else:
            expected = (res.pi, res.pi_routing, res.pi_gas, res.pi_fee, res.pi_remainder)
            reason = None
        assert (row.result, row.exclusion_reason) == (expected, reason)
        for got, slope in zip((row.pi_upper, row.pi_lower), shifted):
            try:
                p_prime, _ = counterfactual_price(
                    trade, CalibratedProvider(provider, slope), offset, F_PRIME
                )
                want = improvement(realized_price(trade).value, p_prime.value)
            except EXCLUDED:
                want = None
            assert got == want

    by_pair = {(r.trade.trade_id, r.offset): r for r in rows}
    for trade_id in ("IN", "OUT", "IN-X", "OUT-X"):
        row = by_pair[(trade_id, 0)]
        assert None not in (row.result, row.pi_upper, row.pi_lower)
    for trade_id in ("IN-X-SMALL", "OUT-SMALL"):
        row = by_pair[(trade_id, 0)]
        assert row.result is not None and row.pi_upper is not None and row.pi_lower is None
    with pytest.raises(NonPositiveAdjustedInput):
        counterfactual_price(trades[4], CalibratedProvider(provider, shifted[1]), 0, F_PRIME)
    with pytest.raises(NonPositiveBaseline):
        improvement(
            realized_price(trades[5]).value,
            counterfactual_price(
                trades[5], CalibratedProvider(provider, shifted[1]), 0, F_PRIME
            )[0].value,
        )
    missing = by_pair[("OUT-X", 1)]
    assert (missing.result, missing.exclusion_reason) == (None, "quote_unavailable")
    assert (missing.pi_upper, missing.pi_lower) == (None, None)


@pytest.mark.parametrize("calibrated", [True, False])
def test_anchor_only_decomposition_equals_the_full_pass(calibrated):
    """decompose=(0,) changes only which rows carry an attribution.

    One trade per direction x gas-internalization case, plus a small
    internalized WETH-in and a small WETH-out trade that only beta1 - SE
    excludes at offsets 0 and 1 and that beta1 already excludes at offset
    -1, and an offset with no quote.
    """
    cal = GasCalibration(D("0.95"), D("0.05"), 20, D(1), D(0)) if calibrated else None
    shifted = perturbed_calibrations(cal) if calibrated else None
    offsets = [-1, 0, 1]
    trades = [
        make_trade("IN", direction=Direction.WETH_IN),
        make_trade("OUT", direction=Direction.WETH_OUT),
        make_trade("IN-X", direction=Direction.WETH_IN, gas_internalized=True),
        make_trade("OUT-X", direction=Direction.WETH_OUT, gas_internalized=True),
        make_trade(
            "IN-X-SMALL",
            direction=Direction.WETH_IN,
            gas_internalized=True,
            amount_in=TokenAmount(4 * 10**15, 18),
            amount_out=TokenAmount(12 * USDC, 6),
        ),
        make_trade(
            "OUT-SMALL",
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(12 * USDC, 6),
            amount_out=TokenAmount(4 * 10**15, 18),
        ),
    ]
    # b + f' = 20.1 gwei, so more than 199,004 gas costs more than 0.004 ETH.
    # 185,000 quoted gas reads 194,737 at beta1 = 0.95 and 205,556 at
    # beta1 - SE; 195,000 reads 205,263 at beta1 and 195,000 at beta1 + SE.
    provider = _replay(
        [
            ("IN", -1, 2992 * USDC, 6, 150_000),
            ("IN", 0, 2990 * USDC, 6, 140_000),
            ("IN", 1, 2985 * USDC, 6, 160_000),
            ("OUT", -1, WETH - 3 * 10**15, 18, 140_000),
            ("OUT", 0, WETH - 10**15, 18, 150_000),
            ("OUT", 1, WETH - 2 * 10**15, 18, 130_000),
            ("IN-X", -1, 2991 * USDC, 6, 160_000),
            ("IN-X", 0, 2995 * USDC, 6, 150_000),
            ("IN-X", 1, 2993 * USDC, 6, 170_000),
            ("OUT-X", -1, WETH + 2 * 10**15, 18, 140_000),
            ("OUT-X", 0, WETH + 10**15, 18, 150_000),
            ("IN-X-SMALL", -1, 12 * USDC, 6, 195_000),
            ("IN-X-SMALL", 0, 12 * USDC, 6, 185_000),
            ("IN-X-SMALL", 1, 11 * USDC, 6, 185_000),
            ("OUT-SMALL", -1, 4 * 10**15, 18, 195_000),
            ("OUT-SMALL", 0, 4 * 10**15, 18, 185_000),
            ("OUT-SMALL", 1, 4 * 10**15, 18, 185_000),
        ]
    )
    full = analyze_trades(trades, provider, offsets, F_PRIME, cal, shifted)
    anchored = analyze_trades(trades, provider, offsets, F_PRIME, cal, shifted, decompose=(0,))
    assert [(r.trade.trade_id, r.offset) for r in anchored] == [
        (r.trade.trade_id, r.offset) for r in full
    ]
    for got, want in zip(anchored, full):
        assert want.pi == (None if want.result is None else want.result.pi)
        assert (got.pi, got.pi_upper, got.pi_lower, got.exclusion_reason) == (
            want.pi, want.pi_upper, want.pi_lower, want.exclusion_reason
        )
        assert got.excluded == want.excluded == (got.pi is None)
        if got.offset == 0:
            assert got.result == want.result
        else:
            assert got.result is None

    by_pair = {(r.trade.trade_id, r.offset): r for r in anchored}
    assert by_pair[("OUT-X", 1)].exclusion_reason == "quote_unavailable"
    assert sum(r.excluded for r in anchored) == (3 if calibrated else 1)
    if calibrated:
        assert by_pair[("IN-X-SMALL", -1)].exclusion_reason == "non_positive_adjusted_input"
        assert by_pair[("OUT-SMALL", -1)].exclusion_reason == "non_positive_baseline"
        for trade_id in ("IN-X-SMALL", "OUT-SMALL"):
            assert by_pair[(trade_id, -1)].pi_upper is not None
            for offset in (0, 1):
                row = by_pair[(trade_id, offset)]
                assert None not in (row.pi, row.pi_upper) and row.pi_lower is None


def _counted_aggregate(monkeypatch, trades, provider, offsets):
    """run_aggregate's report, the offset of each pricing, and of each split."""
    priced, decomposed = [], []

    def pricing(provider, terms, offset, *args):
        priced.append(offset)
        return counterfactual_value(provider, terms, offset, *args)

    def splitting(*args):
        decomposed.append(priced[-1])  # the split follows the pricing of its pair
        return split_improvement(*args)

    monkeypatch.setattr("swapmeter.pipeline.counterfactual_value", pricing)
    monkeypatch.setattr("swapmeter.pipeline.split_improvement", splitting)
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    report = run_aggregate(
        trades, provider, cal, offsets, F_PRIME, WINDOW, sys_multiplier=MULTIPLIER
    )
    return report, priced, decomposed


@pytest.mark.parametrize("offsets, anchor", [(OFFSETS, 0), ([1, -1], -1)])
def test_aggregate_decomposes_the_anchor_offset_only(scenario, monkeypatch, offsets, anchor):
    """Over a distinct snapshot per offset, every pair is priced at three slopes."""
    root, trades = scenario
    report, priced, decomposed = _counted_aggregate(
        monkeypatch, trades, _provider(root, "drifted-pools"), offsets
    )
    assert report.anchor_offset == anchor
    assert Counter(priced) == {offset: 3 * len(trades) for offset in offsets}  # three slopes
    assert decomposed == [anchor] * len(trades)
    assert {p.offset for p in report.curves} == set(offsets)


@pytest.mark.parametrize("baseline", ["quotes", "pools"])
def test_aggregate_prices_a_shared_quote_once_per_split_flag(scenario, monkeypatch, baseline):
    """Where every offset is in one scope, a trade is priced at 3 slopes, split at the first.

    Synth's pools are one snapshot at every offset; its quotes are equal at
    every offset and shared here by a wrapper that gives them one scope. The
    scope is priced at its first offset, and its split is the anchor row's.
    """
    root, trades = scenario
    provider = _provider(root, baseline)
    if baseline == "quotes":
        provider = SharedScope(provider)
    report, priced, decomposed = _counted_aggregate(monkeypatch, trades, provider, OFFSETS)
    assert Counter(priced) == {-1: 3 * len(trades)}
    assert decomposed == [-1] * len(trades)
    assert {p.offset for p in report.curves} == set(OFFSETS)


class UnsharedScopes(BaselineProvider):
    """Its inner provider's quotes, with each offset its own requote scope: nothing is shared."""

    def __init__(self, inner):
        self._inner, self.provider_id = inner, inner.provider_id
        self.scope_calls = 0

    def serve(self, trade, offset):
        return self._inner.serve(trade, offset)

    def output_at(self, trade, offset, out_raw, amount_raw):
        return self._inner.output_at(trade, offset, out_raw, amount_raw)

    def requote_scope(self, offset):
        self.scope_calls += 1
        return super().requote_scope(offset)


class SharedScope(UnsharedScopes):
    """Its inner provider's quotes in one requote scope.

    Only for quotes equal at every offset, such as synth's, replayed: the
    replay rescale reads no offset, so every offset serves and re-quotes alike.
    """

    def requote_scope(self, offset):
        self.scope_calls += 1
        return None


def _layout(root, layout):
    """A provider of one requote-scope layout over OFFSETS, and the extra quotes it replays.

    quotes: one scope (synth's quotes, equal at every offset, shared);
    quotes-per-offset: replay's own layout, a scope per offset; pools: one
    snapshot at every offset; drifted-pools: a snapshot per offset;
    interleaved-pools: -1 and 1 share a snapshot, 0 has its own;
    pools-missing-offset: offset 1 has no snapshot.
    """
    if layout.startswith("quotes"):
        return None
    snapshots = ingest_pool_snapshots(root / "pools.csv")[0]
    if layout == "drifted-pools":
        snapshots = _drifted(snapshots)
    elif layout == "interleaved-pools":
        snapshots = {**_drifted(snapshots), 1: _drifted(snapshots)[-1]}
    elif layout == "pools-missing-offset":
        del snapshots[1]
    return SyntheticRouterProvider(snapshots, F_PRIME)


@pytest.mark.parametrize(
    "baseline",
    ["quotes", "quotes-per-offset", "pools", "drifted-pools", "interleaved-pools",
     "pools-missing-offset"],
)
def test_memo_equals_pricing_every_offset(scenario, baseline):
    """Outputs equal those of a provider whose offsets share no requote scope.

    Rows, analyze's CSV lines and exclusion counts, reports, and each
    run's warnings in order, over every scope layout of `_layout`. Where
    offsets share a scope, a trade's rows there share their split.
    TINY, an internalized WETH-in trade whose gas exceeds its input at every
    slope, is excluded at every offset, each row with the same reason.
    THIN is alone on its path, so that path's groups are skipped.
    """
    root, trades = scenario
    tiny = make_trade("TINY", direction=Direction.WETH_IN, gas_internalized=True,
                      amount_in=TokenAmount(10**15, 18), amount_out=TokenAmount(3 * USDC, 6))
    twin = next(t for t in trades if not t.gas_internalized)
    thin = twin._replace(trade_id="THIN", path="Thin")
    trades = [*trades, tiny, thin]

    def provider():
        router = _layout(root, baseline)
        if router is not None:
            return router
        quotes = ingest_quotes(root / "quotes.csv")[0]
        (pid,) = quotes.providers()
        table = quotes.table(pid)
        held = [Quote(t, o, TokenAmount(raw, dec), gas, pid)
                for (t, o), (raw, dec, gas) in table.items()]
        held += [Quote("TINY", o, TokenAmount(3 * USDC, 6), D(150_000), pid) for o in OFFSETS]
        held += [Quote("THIN", o, TokenAmount(raw, dec), gas, pid)
                 for (t, o), (raw, dec, gas) in table.items() if t == twin.trade_id]
        replay = ReplayProvider(QuoteSet(held))
        return SharedScope(replay) if baseline == "quotes" else replay

    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    shifted = perturbed_calibrations(cal, MULTIPLIER)

    def outputs(p):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = analyze_trades(trades, p, OFFSETS, F_PRIME, cal, shifted)
            exclusions = {}
            lines = list(attribution_csv_rows(trades, p, OFFSETS, F_PRIME, cal, exclusions))
            report = run_aggregate(trades, p, cal, OFFSETS, F_PRIME, WINDOW,
                                   sys_multiplier=MULTIPLIER)
        return rows, lines, exclusions, report, [str(w.message) for w in caught]

    shared = provider()
    rows, lines, exclusions, report, said = outputs(shared)
    assert (rows, lines, exclusions, report, said) == outputs(UnsharedScopes(provider()))
    assert len(lines) == len(rows) == len(trades) * len(OFFSETS)
    assert "skipping group ('path', 'Thin', 0): fewer than 2 weighted trades" in said

    missing = {1} if baseline == "pools-missing-offset" else set()
    assert [r.exclusion_reason for r in rows if r.trade is tiny] == [
        "snapshot_unavailable" if o in missing else "non_positive_adjusted_input"
        for o in OFFSETS
    ]
    assert any(r.trade.gas_internalized and r.trade.direction is Direction.WETH_IN
               and r.result is not None for r in rows)  # valued at a re-quoted output
    scope = {o: shared.requote_scope(o) for o in OFFSETS}
    split = [(r.trade.trade_id, scope[r.offset], id(r.result)) for r in rows if r.result]
    assert len({s[2] for s in split}) == len({s[:2] for s in split})  # one split per scope
    if missing:
        assert exclusions == {"non_positive_adjusted_input": 2, "snapshot_unavailable": len(trades)}


class OffsetRequotes(BaselineProvider):
    """One served quote at every offset, re-quoted lower the later the offset."""

    provider_id = "offset-requotes"

    def serve(self, trade, offset):
        return 2995 * USDC, 6, D(150_000)

    def output_at(self, trade, offset, out_raw, amount_raw):
        return out_raw * amount_raw // trade.amount_in.raw - 1000 * offset


def test_scopes_are_asked_once_per_offset_not_per_pair(scenario):
    """Offsets are grouped per run: a pass asks each offset's scope once, whatever the trades."""
    root, trades = scenario
    for wrapper, baseline in [(UnsharedScopes, "drifted-pools"), (SharedScope, "quotes")]:
        provider = wrapper(_provider(root, baseline))
        analyze_trades(trades, provider, OFFSETS, F_PRIME)
        assert provider.scope_calls == len(OFFSETS)


def test_a_quote_served_at_offsets_of_distinct_scopes_is_priced_at_each():
    """The default scope is the offset: an equal served quote does not share its pricing."""
    trade = make_trade("IN-X", direction=Direction.WETH_IN, gas_internalized=True)
    rows = analyze_trades([trade], OffsetRequotes(), [0, 1, 2], F_PRIME)
    assert rows[0].pi < rows[1].pi < rows[2].pi  # a lower baseline, a larger improvement


@pytest.mark.parametrize("baseline, serves", [("pools", 1), ("drifted-pools", len(OFFSETS))])
def test_pass_serves_each_trade_once_per_snapshot(scenario, monkeypatch, baseline, serves):
    """Synth's pools, one snapshot at every offset, serve a trade once; drifted pools, per pair.

    Only the decomposed offset's rows carry a split, also where it is priced with the others.
    """
    root, trades = scenario
    served = []
    serve = SyntheticRouterProvider.serve

    def counting(self, trade, offset):
        served.append(offset)
        return serve(self, trade, offset)

    monkeypatch.setattr(SyntheticRouterProvider, "serve", counting)
    rows = analyze_trades(trades, _provider(root, baseline), OFFSETS, F_PRIME, decompose=(0,))
    assert len(rows) == len(trades) * len(OFFSETS)
    assert len(served) == len(trades) * serves
    assert {r.offset for r in rows if r.result is not None} == {0}


def test_replay_pass_builds_no_per_pair_records(scenario, monkeypatch):
    """The pass prices served values: no Quote, DecisionVector or AttributionResult is built."""
    root, trades = scenario
    built = Counter()

    def counting(cls, method):
        original = getattr(cls, method)

        def counted(*args, **kwargs):
            built[cls.__name__] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, method, counted)

    counting(Quote, "__new__")
    counting(DecisionVector, "__new__")
    counting(AttributionResult, "__new__")
    provider = _provider(root, "quotes")
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    rows = analyze_trades(trades, provider, OFFSETS, F_PRIME, cal, perturbed_calibrations(cal))
    assert sum(r.result is not None for r in rows) == len(trades) * len(OFFSETS)
    assert built == {}
    # the counters see the records the wrappers build
    attribute_trade(trades[0], provider, 0, F_PRIME)
    provider.quote(trades[0], 0)
    assert built == {"Quote": 1, "DecisionVector": 2, "AttributionResult": 1}


def test_one_snapshot_aggregate_adds_one_member_per_trade(scenario, monkeypatch):
    """Over one snapshot at 8 offsets, a trade is one member of the group sums.

    No AnalysisRow is built, and the exact sums take N members plus one
    rolling point per valued anchor pair (8N plus the points, one member
    per pair).
    """
    root, trades = scenario
    (pools,) = {tuple(p) for p in ingest_pool_snapshots(root / "pools.csv")[0].values()}
    offsets = range(-4, 4)
    provider = SyntheticRouterProvider({o: pools for o in offsets}, F_PRIME)
    adds, built = [], []
    add, new = stats._add, AnalysisRow.__new__
    monkeypatch.setattr(stats, "_add", lambda *args: adds.append(1) or add(*args))
    monkeypatch.setattr(AnalysisRow, "__new__", lambda *args: built.append(1) or new(*args))
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report = run_aggregate(trades, provider, cal, offsets, F_PRIME, WINDOW)
    assert built == []
    assert {p.offset for p in report.curves} == set(offsets)
    points = sum(r.pi is not None for r in analyze_trades(trades, provider, [0], F_PRIME, cal))
    assert len(adds) == len(trades) + points
    assert points > len(trades) / 2


def _streamed_trade(trade_id, internalized, scale):
    # One direction per trade_id, so that every trade with that id can
    # share its quotes.
    weth, usdc = TokenAmount(scale * 10**15, 18), TokenAmount(scale * 3 * USDC, 6)
    if trade_id in "AC":
        return make_trade(
            trade_id, direction=Direction.WETH_IN, gas_internalized=internalized,
            amount_in=weth, amount_out=usdc, usd_value=D(scale * 3),
        )
    return make_trade(
        trade_id, direction=Direction.WETH_OUT, gas_internalized=internalized,
        amount_in=usdc, amount_out=weth, usd_value=D(scale * 3),
    )


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.builds(
            _streamed_trade,
            st.sampled_from("ABCD"),
            st.booleans(),
            st.one_of(st.integers(1, 5), st.integers(1, 2000)),
        ),
        min_size=1,
        max_size=8,
    ),
    st.lists(st.integers(-2, 2), min_size=1, max_size=5),
    st.sets(st.integers(-2, 2), min_size=3),
    st.sampled_from([None, (0,)]),
)
def test_streamed_pass_equals_a_stable_sort_of_pairs_priced_alone(
    trades, offsets, quoted, decompose
):
    """Trades in any order with repeated trade_ids, offsets out of order or repeated.

    Small trades are excluded at some slopes, unquoted offsets are missing.
    """
    cal = GasCalibration(D("0.95"), D("0.05"), 20, D(1), D(0))
    shifted = perturbed_calibrations(cal)
    # D's 0.004 ETH quote is worth less than its gas at some slopes and offsets.
    quotes = {
        "A": lambda o: ((2990 + o) * USDC, 6, 150_000 + 1000 * o),
        "B": lambda o: (WETH - 10**15 * (3 + o), 18, 140_000),
        "C": lambda o: ((3 + o) * USDC, 6, 150_000),
        "D": lambda o: (4 * 10**15, 18, 185_000 + 5000 * o),
    }
    provider = _replay([(t, o, *quote(o)) for t, quote in quotes.items() for o in quoted])
    rows = analyze_trades(trades, provider, offsets, F_PRIME, cal, shifted, decompose)
    alone = [
        analyze_trades([t], provider, [o], F_PRIME, cal, shifted, decompose)[0]
        for t in trades
        for o in offsets
    ]
    assert rows == sorted(alone, key=lambda r: (r.trade.trade_id, r.offset))


@pytest.mark.parametrize(
    "context", [_EXACT, Context(prec=12, rounding=ROUND_DOWN)], ids=["exact", "narrow"]
)
def test_pass_prices_at_the_policy_whatever_context_drains_it(scenario, context):
    """stats.grouped_means drains the pass inside its exact context."""
    root, trades = scenario
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    shifted = perturbed_calibrations(cal, MULTIPLIER)
    provider = _provider(root, "quotes")
    expected = analyze_trades(trades, provider, OFFSETS, F_PRIME, cal, shifted)
    with localcontext(context):
        rows = list(analysis_pass(trades, provider, OFFSETS, F_PRIME, cal, shifted))
    assert rows == expected


def test_a_group_without_a_shifted_mean_keeps_a_zero_band_side():
    """A group valued twice at the nominal slope but once at the lower one stays in the curve."""
    cal = GasCalibration(D(1), D("0.05"), 20, D(1), D(0))
    trades = [
        make_trade("IN", direction=Direction.WETH_IN),
        make_trade(  # its gas-adjusted input is positive except at the lower slope
            "IN-X-SMALL",
            direction=Direction.WETH_IN,
            gas_internalized=True,
            amount_in=TokenAmount(4 * 10**15, 18),
            amount_out=TokenAmount(12 * USDC, 6),
        ),
    ]
    provider = _replay(
        [("IN", 0, 2990 * USDC, 6, 140_000), ("IN-X-SMALL", 0, 12 * USDC, 6, 190_000)]
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = run_aggregate(trades, provider, cal, [0], F_PRIME, 2)
    curve = [(p.group, p.estimate.n, p.estimate.sys_lower) for p in report.curves]
    assert curve == [("interface:Uniswap", 2, 0), ("path:Classic", 2, 0)]
    assert all(p.estimate.sys_upper > 0 for p in report.curves)
    assert [str(w.message) for w in caught] == [
        f"group {key}: no mean at a shifted slope; its band side is 0"
        for key in (("interface", "Uniswap", 0), ("path", "Classic", 0))
    ]


class WithholdingProvider(BaselineProvider):
    """A provider that has no quote for one trade at one offset."""

    provider_id = "withholding"

    def __init__(self, inner, trade_id, offset):
        self._inner, self._missing = inner, (trade_id, offset)

    def serve(self, trade, offset):
        if (trade.trade_id, offset) == self._missing:
            raise QuoteUnavailable(trade.trade_id, offset)
        return self._inner.serve(trade, offset)

    def output_at(self, trade, offset, out_raw, amount_raw):
        return self._inner.output_at(trade, offset, out_raw, amount_raw)


@pytest.mark.parametrize("baseline", ["quotes", "pools"])
def test_summary_parts_equal_fresh_means_over_each_groups_anchor_rows(scenario, baseline):
    """Each summary part is the weighted mean of that part over the group's valued anchor rows.

    The run is calibrated with SE > 0; one trade has no anchor quote and
    another has no usd_value, so neither may enter any group's parts.
    """
    root, trades = scenario
    trades = list(trades)
    excluded, unweighted = trades[0].trade_id, trades[1].trade_id
    trades[1] = trades[1]._replace(usd_value=None)
    provider = WithholdingProvider(_provider(root, baseline), excluded, 0)
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    report = run_aggregate(
        trades, provider, cal, OFFSETS, F_PRIME, WINDOW, sys_multiplier=MULTIPLIER
    )
    assert report.exclusions == {"quote_unavailable": 1}

    rows = analyze_trades(trades, provider, OFFSETS, F_PRIME, cal)
    anchor = [r for r in rows if r.offset == 0 and not r.excluded and r.trade.usd_value is not None]
    assert excluded not in {r.trade.trade_id for r in anchor}
    assert unweighted not in {r.trade.trade_id for r in anchor}
    for level in ("path", "interface"):
        groups = {}
        for r in anchor:
            groups.setdefault(getattr(r.trade, level), []).append(r)
        entries = report.summary[f"by_{level}"]
        assert set(entries) == {group for group, members in groups.items() if len(members) >= 2}
        for group, entry in entries.items():
            assert "pi_sys_upper_bps" in entry
            for part in ("routing", "gas", "fee", "remainder"):
                mean, _ = weighted_mean_with_stat(
                    [(getattr(r.result, f"pi_{part}"), r.trade.usd_value) for r in groups[group]]
                )
                assert entry[f"{part}_bps"] == format_bps(mean)
