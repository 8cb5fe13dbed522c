"""Single-pass aggregation against a three-pass reference.

run_aggregate quotes each (trade, offset) once and prices that quote at
beta1 and beta1 +/- k*SE. The reference below re-runs analyze_trades
through a CalibratedProvider at each of the three slopes, re-quoting
every pair (in router mode through a new provider per quote, so no
route is reused), and aggregates as the pipeline is specified to: its
curve and rolling rows must equal the pipeline's exactly. A second test
checks each analyze_trades row against attribute_trade and
counterfactual_price called for that pair alone, and two more check that
decomposing only the anchor offset changes nothing but which rows carry
an attribution. The last two check the streamed pass: its order equals
a stable sort of rows priced one pair at a time, and its values do not
depend on the decimal context its consumer drains it in.
"""

import dataclasses
import json
import warnings
from decimal import ROUND_DOWN, Context, localcontext
from decimal import Decimal as D

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmeter.attribution import attribute_trade, improvement
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
from swapmeter.ingest import QuoteSet, ingest_pool_snapshots, ingest_quotes, ingest_trades
from swapmeter.model import Direction, Quote, TokenAmount
from swapmeter.numeric import format_bps
from swapmeter.pipeline import analysis_pass, analyze_trades, run_aggregate
from swapmeter.prices import counterfactual_price, realized_price
from swapmeter.router import route_optimal_split
from swapmeter.stats import _EXACT, weighted_mean_with_stat

from conftest import USDC, WETH, make_trade

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
    """Solves every quote's route anew; a re-quote routes the quote's snapshot directly."""

    provider_id = "fresh-router"

    def __init__(self, snapshots):
        self._snapshots = snapshots

    def quote(self, trade, offset):
        return SyntheticRouterProvider(self._snapshots, F_PRIME).quote(trade, offset)

    def output_at(self, trade, quote, amount_in):
        gas_price = D(trade.gas.base_fee) + F_PRIME
        pools = self._snapshots[quote.offset]
        return route_optimal_split(pools, amount_in, trade.direction, gas_price).total_out


def _drifted(snapshots):
    """Each offset's pools with reserves moved in proportion to the offset.

    Offset 0 keeps the synth pools; every other offset gets its own snapshot.
    """
    def moved(amount, per_offset, offset):
        return TokenAmount(amount.raw * (10_000 + per_offset * offset) // 10_000, amount.decimals)

    return {
        offset: [
            dataclasses.replace(
                pool,
                reserve_weth=moved(pool.reserve_weth, 7, offset),
                reserve_token=moved(pool.reserve_token, -5, offset),
            )
            for pool in pools
        ]
        for offset, pools in snapshots.items()
    }


def _provider(root, baseline, memoised=True):
    if baseline == "quotes":
        return ReplayProvider(ingest_quotes(root / "quotes.csv")[0])
    snapshots = ingest_pool_snapshots(root / "pools.csv")[0]
    if baseline == "drifted-pools":
        snapshots = _drifted(snapshots)
    return SyntheticRouterProvider(snapshots, F_PRIME) if memoised else FreshRouter(snapshots)


def _group_means(rows):
    buckets = {}
    for r in rows:
        if r.excluded:
            continue
        for level, group in (("path", r.trade.path), ("interface", r.trade.interface)):
            key = (level, group, r.offset)
            buckets.setdefault(key, []).append((r.result.pi, r.trade.usd_value))
    return {
        key: (*weighted_mean_with_stat(values), len(values), sum(w for _, w in values))
        for key, values in buckets.items()
        if len(values) >= 2
    }


def _three_pass_reference(trades, provider, cal):
    passes = [
        analyze_trades(trades, CalibratedProvider(provider, c), OFFSETS, F_PRIME)
        for c in (cal, *perturbed_calibrations(cal, MULTIPLIER))
    ]
    nominal, upper, lower = (_group_means(rows) for rows in passes)
    curve = []
    for (level, group, offset), (mean, sigma, n, total) in sorted(nominal.items()):
        key = (level, group, offset)
        up = abs(upper[key][0] - mean) if key in upper else D(0)
        low = abs(mean - lower[key][0]) if key in lower else D(0)
        curve.append((f"{level}:{group}", offset, mean, sigma, up, low, n, total))

    anchor = [[r for r in rows if r.offset == 0 and not r.excluded] for rows in passes]
    shifted = [{r.trade.trade_id: r.result.pi for r in rows} for rows in anchor[1:]]
    ordered = sorted(anchor[0], key=lambda r: (r.trade.usd_value, r.trade.trade_id))
    rolling = []
    for start in range(len(ordered) - WINDOW + 1):
        chunk = ordered[start : start + WINDOW]
        mean, sigma = weighted_mean_with_stat([(r.result.pi, r.trade.usd_value) for r in chunk])
        bands = []
        for values in shifted:
            members = [
                (values[r.trade.trade_id], r.trade.usd_value)
                for r in chunk
                if r.trade.trade_id in values
            ]
            bands.append(
                abs(weighted_mean_with_stat(members)[0] - mean) if len(members) >= 2 else D(0)
            )
        median = chunk[WINDOW // 2].trade.usd_value
        total = sum(r.trade.usd_value for r in chunk)
        rolling.append((median, mean, sigma, *bands, WINDOW, total))
    return curve, rolling


@pytest.mark.parametrize("baseline", ["quotes", "pools", "drifted-pools"])
def test_single_pass_equals_three_pass_reference(scenario, baseline):
    root, trades = scenario
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
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
    expected_curve, expected_rolling = _three_pass_reference(
        trades, _provider(root, baseline, memoised=False), cal
    )
    assert curve == expected_curve
    assert rolling == expected_rolling
    assert any(row[4] > 0 for row in curve)


def _replay(quotes):
    return ReplayProvider(
        QuoteSet(
            [Quote(t, o, TokenAmount(raw, dec), D(gas), "prov") for t, o, raw, dec, gas in quotes]
        )
    )


def test_rows_equal_pricing_each_pair_on_its_own():
    """Each row equals attribute_trade and counterfactual_price run on their own.

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
            quote = provider.quote(trade, offset)
            expected = attribute_trade(
                trade, provider, offset, F_PRIME, quote=quote, beta1=cal.beta1
            )
        except EXCLUDED as exc:
            expected, reason = None, EXCLUSION_REASONS[type(exc)]
        else:
            reason = None
        assert (row.result, row.exclusion_reason) == (expected, reason)
        for got, slope in zip((row.pi_upper, row.pi_lower), shifted):
            try:
                p_prime, _ = counterfactual_price(
                    trade, provider, offset, F_PRIME, beta1=slope.beta1
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
        counterfactual_price(trades[4], provider, 0, F_PRIME, beta1=shifted[1].beta1)
    with pytest.raises(NonPositiveBaseline):
        improvement(
            realized_price(trades[5]).value,
            counterfactual_price(trades[5], provider, 0, F_PRIME, beta1=shifted[1].beta1)[0].value,
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


@pytest.mark.parametrize("offsets, anchor", [(OFFSETS, 0), ([1, -1], -1)])
def test_aggregate_decomposes_the_anchor_offset_only(scenario, monkeypatch, offsets, anchor):
    root, trades = scenario
    decomposed = []

    def counting(trade, provider, offset, *args, **kwargs):
        decomposed.append(offset)
        return attribute_trade(trade, provider, offset, *args, **kwargs)

    monkeypatch.setattr("swapmeter.pipeline.attribute_trade", counting)
    cal = GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0))
    report = run_aggregate(
        trades, _provider(root, "quotes"), cal, offsets, F_PRIME, WINDOW,
        sys_multiplier=MULTIPLIER,
    )
    assert report.anchor_offset == anchor
    assert decomposed == [anchor] * len(trades)
    assert {p.offset for p in report.curves} == set(offsets)


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

    def quote(self, trade, offset):
        if (trade.trade_id, offset) == self._missing:
            raise QuoteUnavailable(trade.trade_id, offset)
        return self._inner.quote(trade, offset)

    def output_at(self, trade, quote, amount_in):
        return self._inner.output_at(trade, quote, amount_in)


@pytest.mark.parametrize("baseline", ["quotes", "pools"])
def test_summary_parts_equal_fresh_means_over_each_groups_anchor_rows(scenario, baseline):
    """Each summary part is the weighted mean of that part over the group's valued anchor rows.

    The run is calibrated with SE > 0; one trade has no anchor quote and
    another has no usd_value, so neither may enter any group's parts.
    """
    root, trades = scenario
    trades = list(trades)
    excluded, unweighted = trades[0].trade_id, trades[1].trade_id
    trades[1] = dataclasses.replace(trades[1], usd_value=None)
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
