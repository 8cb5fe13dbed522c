"""Weighted means, uncertainty bands, rolling series, group identities."""

import warnings
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmeter.baseline import CalibratedProvider, ReplayProvider
from swapmeter.calibration import GasCalibration
from swapmeter.errors import ConfigError, InsufficientData, ZeroTotalWeight
from swapmeter.ingest import QuoteSet
from swapmeter.model import Quote, TokenAmount
from swapmeter.pipeline import analyze_trades, run_aggregate
from swapmeter.stats import (
    grouped_means,
    rolling_by_size,
    systematic_band,
    weighted_mean_with_stat,
)

from conftest import USDC, WETH, make_trade

D = Decimal


class TestWeightedMean:
    def test_all_equal_gives_zero_sigma(self):
        mean, sigma = weighted_mean_with_stat([(D(5), D(1)), (D(5), D(9)), (D(5), D(2))])
        assert (mean, sigma) == (D(5), D(0))

    def test_equal_weights_hand_value(self):
        # {1,2,3} equal weights: mean 2, sigma = sqrt(2/9)
        mean, sigma = weighted_mean_with_stat([(D(1), D(4)), (D(2), D(4)), (D(3), D(4))])
        assert mean == D(2)
        assert sigma == (D(2) / 9).sqrt()

    def test_zero_weight_point_counts_in_n(self):
        mean, sigma = weighted_mean_with_stat([(D(5), D(1)), (D(100), D(0))])
        assert mean == D(5)
        assert sigma == D(0)

    def test_sigma_zero_iff_positive_weight_values_equal(self):
        _, sigma = weighted_mean_with_stat([(D(5), D(1)), (D(6), D(1))])
        assert sigma > 0

    def test_weight_scaling_invariance(self):
        points = [(D(1), D(2)), (D(4), D(6)), (D(2), D(1))]
        scaled = [(x, w * 1000) for x, w in points]
        assert weighted_mean_with_stat(points)[0] == weighted_mean_with_stat(scaled)[0]

    def test_guards(self):
        with pytest.raises(InsufficientData):
            weighted_mean_with_stat([(D(1), D(1))])
        with pytest.raises(ZeroTotalWeight):
            weighted_mean_with_stat([(D(1), D(0)), (D(2), D(0))])


class TestRolling:
    def test_constant_values_flat_curve(self):
        points = [(D(100 * (i + 1)), D("0.001")) for i in range(10)]
        series = rolling_by_size(points, window=4)
        assert len(series) == 7
        assert all(est.mean == D("0.001") for _, est in series)

    def test_window_equals_n_single_point(self):
        points = [(D(w), D(w) / 10) for w in (10, 30, 20, 40)]
        series = rolling_by_size(points, window=4)
        assert len(series) == 1
        median, est = series[0]
        assert median == D(25)  # sizes sorted: 10,20,30,40
        assert est.n == 4

    def test_window_too_large(self):
        points = [(D(3), D(1)), (D(1), D(4)), (D(2), D(2))]
        with pytest.warns(UserWarning) as caught:
            series = rolling_by_size(points, window=5)
        assert [str(w.message) for w in caught] == ["rolling window 5 exceeds 3 trades; using 3"]
        assert series == rolling_by_size(points, window=len(points))

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_refused(self, stride):
        points = [(D(w), D(1)) for w in range(1, 6)]
        with pytest.raises(InsufficientData, match="^rolling stride must be >= 1$"):
            rolling_by_size(points, window=2, stride=stride)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_points_give_no_windows(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rolling_by_size([(D(1), D(1))] * n, window=5) == []

    def test_transition_across_size_gate(self):
        # pi = 10 bps iff usd > 25000: the rolling curve crosses from ~0 to ~10
        points = [(D(1000 * (i + 1)), D(0)) for i in range(25)]
        points += [(D(26_000 + 1000 * i), D("0.001")) for i in range(25)]
        series = rolling_by_size(points, window=10)
        assert series[0][1].mean == D(0)
        assert series[-1][1].mean == D("0.001")
        mids = [est.mean for _, est in series]
        assert mids == sorted(mids)  # monotone transition for this fixture

    def test_all_zero_weight_window_skipped_with_warning(self):
        # the first window of 3 weighs $0; the other two carry weight
        points = [(D(0), D(1), D(2), None), (D(0), D(3), D(4), None), (D(0), D(5), None, None)]
        points += [(D(10), D(7), D(8), D(6))]
        with pytest.warns(UserWarning, match="all weights are zero"):
            series = rolling_by_size(points, window=3)
        assert [median for median, _ in series] == [D(0)]
        est = series[0][1]
        assert (est.mean, est.n, est.total_weight) == (D(7), 3, D(10))
        # two members valued at the upper slope (mean 8), one at the lower
        assert (est.sys_upper, est.sys_lower) == (D(1), D(0))


def _naive(values):
    """The weighted mean and standard error written out at the 60-digit policy."""
    total = sum(w for _, w in values)
    mean = sum(x * w for x, w in values) / total
    var = sum(w * (mean - x) ** 2 for x, w in values) / (len(values) * total)
    return mean, var.sqrt()


def _window_oracle(chunk, mean_with_stat):
    """(mean, sigma, sys_upper, sys_lower) of one window, or None if it weighs 0."""
    if sum(p[0] for p in chunk) == 0:
        return None
    mean, sigma = mean_with_stat([(p[1], p[0]) for p in chunk])
    bands = []
    for k in (2, 3):
        valued = [(p[k], p[0]) for p in chunk if p[k] is not None]
        if len(valued) < 2 or sum(w for _, w in valued) == 0:
            bands.append(D(0))
        else:
            bands.append(abs(mean_with_stat(valued)[0] - mean))
    return (mean, sigma, *bands)


# 60-digit quotients, like the pipeline's price-improvement values
_values = st.builds(
    lambda a, b: D(a) / D(b),
    st.integers(-(10**9), 10**9),
    st.integers(1, 10**9),
)
_weights = st.one_of(st.just(D(0)), st.integers(0, 10**9).map(lambda c: D(c).scaleb(-2)))
_members = st.tuples(_weights, _values, st.none() | _values, st.none() | _values)


class TestSlidingKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(_members, min_size=2, max_size=24), st.data())
    def test_rolling_rows_equal_fresh_means_and_naive_formula(self, points, data):
        window = data.draw(st.integers(2, len(points)), label="window")
        stride = data.draw(st.integers(1, 3), label="stride")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            series = rolling_by_size(points, window, stride)
        ordered = sorted(points, key=lambda p: p[0])
        expected = []
        for start in range(0, len(ordered) - window + 1, stride):
            chunk = ordered[start : start + window]
            exact = _window_oracle(chunk, weighted_mean_with_stat)
            if exact is None:
                continue
            sizes = [p[0] for p in chunk]
            mid = window // 2
            median = sizes[mid] if window % 2 else (sizes[mid - 1] + sizes[mid]) / 2
            expected.append((median, exact, _window_oracle(chunk, _naive), sum(sizes)))
        assert len(series) == len(expected)
        for (median, est), (exp_median, exact, naive, total) in zip(series, expected):
            row = (est.mean, est.stat_sigma, est.sys_upper, est.sys_lower)
            assert (median, est.n, est.total_weight) == (exp_median, window, total)
            assert row == exact
            assert all(abs(got - ref) < D("1e-40") for got, ref in zip(row, naive))


    @settings(max_examples=60, deadline=None)
    @given(st.lists(_members, min_size=2, max_size=24), st.data())
    def test_one_skip_warning_per_zero_weight_window_in_order(self, points, data):
        window = data.draw(st.integers(2, len(points)), label="window")
        stride = data.draw(st.integers(1, 3), label="stride")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rolling_by_size(points, window, stride)
        ordered = sorted(points, key=lambda p: p[0])
        expected = []
        for start in range(0, len(ordered) - window + 1, stride):
            chunk = ordered[start : start + window]
            if _window_oracle(chunk, weighted_mean_with_stat) is None:
                sizes = [p[0] for p in chunk]
                mid = window // 2
                median = sizes[mid] if window % 2 else (sizes[mid - 1] + sizes[mid]) / 2
                expected.append(f"skipping rolling window at median {median}: all weights are zero")
        assert [str(w.message) for w in caught] == expected


# (path group, interface group, weight, values in three series)
_grouped_members = st.tuples(
    st.sampled_from(["P1", "P2", "P3"]),
    st.sampled_from(["I1", "I2"]),
    _weights,
    st.tuples(st.none() | _values, st.none() | _values, st.none() | _values),
)


class TestGrouping:
    def test_pooling_identity(self):
        # interface mean equals the weight-blend of its path means
        a = [(D("0.0001"), D(100)), (D("0.0003"), D(300))]
        b = [(D("0.0010"), D(50)), (D("0.0020"), D(150))]
        mean_a, _ = weighted_mean_with_stat(a)
        mean_b, _ = weighted_mean_with_stat(b)
        pooled, _ = weighted_mean_with_stat(a + b)
        wa = sum(w for _, w in a)
        wb = sum(w for _, w in b)
        blend = (mean_a * wa + mean_b * wb) / (wa + wb)
        assert abs(pooled - blend) < D("1e-40")

    @settings(max_examples=120, deadline=None)
    @given(st.lists(_grouped_members, max_size=16))
    def test_one_pass_equals_fresh_means_per_group(self, members):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = grouped_means(
                [((("path", p), ("interface", i)), w, values) for p, i, w, values in members]
            )
        buckets = {}  # group -> members valued in the first series, in order
        for p, i, w, values in members:
            if values[0] is not None:
                for group in (("path", p), ("interface", i)):
                    buckets.setdefault(group, [])
        for p, i, w, values in members:
            for group in (("path", p), ("interface", i)):
                if group in buckets:
                    buckets[group].append((w, values))

        def fresh_mean(valued):
            if len(valued) < 2 or sum(w for _, w in valued) == 0:
                return None
            return weighted_mean_with_stat(valued)[0]

        expected, expected_warnings = {}, []
        for group, rows in buckets.items():
            valued = [[(values[k], w) for w, values in rows if values[k] is not None]
                      for k in range(3)]
            if len(valued[0]) < 2:
                expected_warnings.append(f"skipping group {group}: fewer than 2 weighted trades")
            elif sum(w for _, w in valued[0]) == 0:
                expected_warnings.append(f"skipping group {group}: all weights are zero")
            else:
                # only the first series is spread into a standard error
                mean, sigma = weighted_mean_with_stat(valued[0])
                expected[group] = (
                    mean, sigma, len(valued[0]), sum(w for _, w in valued[0]),
                    fresh_mean(valued[1]), fresh_mean(valued[2]),
                )
        assert list(out.items()) == list(expected.items())
        assert repr(list(out.items())) == repr(list(expected.items()))  # bit for bit
        assert [str(w.message) for w in caught] == expected_warnings

    def test_thin_and_weightless_groups_warn(self):
        members = [
            (("A", "X"), D(2), (D(1),)),
            (("A", "X"), D(2), (D(3),)),
            (("B", "X"), D(0), (D(9),)),
            (("C",), D(0), (D(1),)),
            (("C",), D(0), (D(2),)),
        ]
        with pytest.warns(UserWarning) as caught:
            out = grouped_means(members)
        assert list(out) == ["A", "X"]
        assert [str(w.message) for w in caught] == [
            "skipping group B: fewer than 2 weighted trades",
            "skipping group C: all weights are zero",
        ]

    def test_a_group_kept_in_the_first_series_is_not_warned_of(self):
        members = [
            (("A",), D(1), (D(1), D(2), D(3))),
            (("A",), D(1), (D(2), D(3), None)),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = grouped_means(members)
        assert list(out) == ["A"]
        assert out["A"][4:] == (D("2.5"), None)
        assert caught == []

    def test_groups_come_in_order_of_their_first_nominal_member(self):
        # B's first member is valued only at the shifted slopes, so A comes
        # first; C has no nominal member and is neither kept nor warned of.
        members = [
            (("B", "C"), D(1), (None, D(5), D(5))),
            (("A",), D(1), (D(1), D(1), D(1))),
            (("B",), D(1), (D(2), D(2), D(2))),
            (("A",), D(1), (D(3), None, None)),
            (("B",), D(1), (D(4), D(4), D(4))),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = grouped_means(members)
        assert list(out) == ["A", "B"]
        assert out["A"][4:] == (None, None)
        assert (out["B"][0], *out["B"][2:4]) == (D(3), 2, D(2))
        assert out["B"][4:] == (D("11") / 3, D("11") / 3)
        assert caught == []


def _fixture_trades_and_quotes(n=10):
    """WETH-in external-gas trades with baseline quotes slightly worse than realized."""
    trades = []
    quotes = []
    for k in range(n):
        tid = f"T{k}"
        trades.append(
            make_trade(
                trade_id=tid,
                amount_in=TokenAmount((k + 1) * WETH, 18),
                amount_out=TokenAmount((k + 1) * 3000 * USDC, 6),
                usd_value=D((k + 1) * 3000),
                gas_used=150_000 + 1000 * k,
            )
        )
        quotes.append(
            Quote(tid, 0, TokenAmount((k + 1) * 2995 * USDC, 6), D(140_000 + 500 * k), "prov")
        )
    return trades, QuoteSet(quotes)


class TestSystematicBand:
    def _reevaluate(self, trades, quote_set):
        def handle(cal: GasCalibration) -> Decimal:
            provider = CalibratedProvider(ReplayProvider(quote_set), cal)
            rows = analyze_trades(trades, provider, [0], D(100_000_000))
            values = [(r.result.pi, r.trade.usd_value) for r in rows if not r.excluded]
            return weighted_mean_with_stat(values)[0]

        return handle

    def test_zero_se_zero_band(self):
        trades, quote_set = _fixture_trades_and_quotes()
        cal = GasCalibration(D("0.95"), D(0), 10, D(1), D(0))
        up, low = systematic_band(self._reevaluate(trades, quote_set), cal)
        assert (up, low) == (D(0), D(0))

    def test_band_sign_and_magnitude_via_recompute_oracle(self):
        trades, quote_set = _fixture_trades_and_quotes()
        cal = GasCalibration(D("0.95"), D("0.02"), 10, D(1), D(0))
        handle = self._reevaluate(trades, quote_set)
        up, low = systematic_band(handle, cal)
        assert up > 0 and low > 0
        # oracle: raising beta1 shrinks corrected g', raises p', lowers pi
        from swapmeter.calibration import perturbed_calibrations

        upper_cal, lower_cal = perturbed_calibrations(cal)
        base = handle(cal)
        assert handle(upper_cal) < base < handle(lower_cal)
        assert up == abs(handle(upper_cal) - base)
        assert low == abs(base - handle(lower_cal))

    def test_internalized_trades_still_gas_sensitive(self):
        # counterfactual o'' depends on g' through the adjusted input
        trades = [
            make_trade(
                trade_id=f"T{k}",
                path="X",
                gas_internalized=True,
                amount_in=TokenAmount((k + 1) * WETH, 18),
                amount_out=TokenAmount((k + 1) * 3000 * USDC, 6),
                usd_value=D((k + 1) * 3000),
            )
            for k in range(4)
        ]
        quote_set = QuoteSet(
            Quote(f"T{k}", 0, TokenAmount((k + 1) * 3000 * USDC, 6), D(150_000), "prov")
            for k in range(4)
        )
        cal = GasCalibration(D(1), D("0.05"), 4, D(1), D(0))
        up, low = systematic_band(self._reevaluate(trades, quote_set), cal)
        assert up > 0 and low > 0

    def test_band_grows_with_multiplier(self):
        trades, quote_set = _fixture_trades_and_quotes()
        cal = GasCalibration(D("0.95"), D("0.02"), 10, D(1), D(0))
        handle = self._reevaluate(trades, quote_set)
        up1, low1 = systematic_band(handle, cal, 1)
        up2, low2 = systematic_band(handle, cal, 2)
        assert up2 > up1 and low2 > low1

    @pytest.mark.parametrize("multiplier", [0, -1])
    def test_non_positive_multiplier_is_refused_before_any_pass(self, multiplier):
        # -1 would swap the band's sides and 0 would give a 0/0 band
        trades, quote_set = _fixture_trades_and_quotes()
        cal = GasCalibration(D("0.95"), D("0.02"), 10, D(1), D(0))
        passes = []
        with pytest.raises(ConfigError, match="^sys_multiplier must be positive$"):
            systematic_band(passes.append, cal, multiplier)
        assert passes == []
        with pytest.raises(ConfigError, match="^sys_multiplier must be positive$"):
            run_aggregate(trades, ReplayProvider(quote_set), cal, [0], D(100_000_000), 5,
                          sys_multiplier=multiplier)


class TestRunAggregate:
    def test_curves_and_bands_through_pipeline(self):
        trades, quote_set = _fixture_trades_and_quotes()
        cal = GasCalibration(D("0.95"), D("0.02"), 10, D(1), D(0))
        report = run_aggregate(
            trades, ReplayProvider(quote_set), cal, [0], D(100_000_000), window=5
        )
        groups = {c.group for c in report.curves}
        assert groups == {"path:Classic", "interface:Uniswap"}
        for point in report.curves:
            assert point.estimate.sys_upper > 0
            assert point.estimate.sys_lower > 0
            assert point.estimate.n == 10
        assert len(report.rolling) == 6
        assert report.summary["by_path"]["Classic"]["n"] == 10
        assert report.exclusions == {}

    def test_interface_equals_weight_blend_of_paths(self):
        trades, quote_set = _fixture_trades_and_quotes()
        # split the fixture across two paths of one interface
        trades = [
            make_trade(
                trade_id=t.trade_id,
                path="Classic" if k % 2 else "X",
                amount_in=t.amount_in,
                amount_out=t.amount_out,
                usd_value=t.usd_value,
                gas_used=t.gas.gas_used,
            )
            for k, t in enumerate(trades)
        ]
        report = run_aggregate(
            trades, ReplayProvider(quote_set), None, [0], D(100_000_000), window=5
        )
        by_group = {c.group: c.estimate for c in report.curves}
        classic = by_group["path:Classic"]
        x = by_group["path:X"]
        iface = by_group["interface:Uniswap"]
        blend = (classic.mean * classic.total_weight + x.mean * x.total_weight) / (
            classic.total_weight + x.total_weight
        )
        assert abs(iface.mean - blend) < D("1e-40")
