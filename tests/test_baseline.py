"""Baseline provider contract: replay lookup and synthetic routing."""

import gc
from decimal import Decimal

import pytest

from swapmeter.baseline import ReplayProvider, SyntheticRouterProvider
from swapmeter.errors import QuoteUnavailable, SnapshotUnavailable, SwapmeterError
from swapmeter.ingest import QuoteSet
from swapmeter.model import Direction, Quote, TokenAmount
from swapmeter.router import route_optimal_split

from conftest import GWEI, USDC, WETH, make_pool, make_trade

F_PRIME = Decimal(100_000_000)


def quote(trade_id="T1", offset=0, out_raw=2995 * USDC, gas=140_000, provider="prov"):
    return Quote(trade_id, offset, TokenAmount(out_raw, 6), Decimal(gas), provider)


class TestReplayProvider:
    def test_returns_stored_quote_unchanged(self):
        stored = quote()
        provider = ReplayProvider(QuoteSet([stored]))
        assert provider.serve(make_trade(), 0) == (2995 * USDC, 6, Decimal(140_000))
        assert provider.quote(make_trade(), 0) == stored

    def test_missing_key_unavailable(self):
        provider = ReplayProvider(QuoteSet([quote()]))
        with pytest.raises(QuoteUnavailable):
            provider.quote(make_trade(), -1)
        with pytest.raises(QuoteUnavailable):
            provider.quote(make_trade(trade_id="ZZ"), 0)

    def test_two_providers_disambiguated(self):
        quotes = QuoteSet([quote(provider="alpha"), quote(provider="beta", out_raw=1 * USDC)])
        with pytest.raises(SwapmeterError, match="expected one"):
            ReplayProvider(quotes)

    def test_adjusted_input_rescaled_linearly(self):
        provider = ReplayProvider(QuoteSet([quote(out_raw=3000 * USDC)]))
        trade = make_trade()
        served_raw, _, _ = provider.serve(trade, 0)
        assert provider.output_at(trade, 0, served_raw, WETH // 2) == 1500 * USDC

    def test_requote_is_the_floor_of_the_linear_rescale(self):
        out_raw, adjusted = 2_995_123_457, WETH - 12_345_678_901
        provider = ReplayProvider(QuoteSet([quote(out_raw=out_raw)]))
        trade = make_trade()
        served_raw, _, _ = provider.serve(trade, 0)
        requoted = provider.output_at(trade, 0, served_raw, adjusted)
        assert requoted == out_raw * adjusted // trade.amount_in.raw
        assert provider.output_at(trade, 0, served_raw, trade.amount_in.raw) == served_raw


class TestSyntheticRouterProvider:
    def snapshots(self, scale_at=None):
        base = {off: [make_pool()] for off in (-1, 0)}
        if scale_at is not None:
            base[scale_at] = [make_pool(weth=2000, token=6_000_000)]
        return base

    def test_identical_snapshots_identical_quotes(self):
        provider = SyntheticRouterProvider(self.snapshots(), F_PRIME)
        trade = make_trade()
        a = provider.quote(trade, -1)
        b = provider.quote(trade, 0)
        assert a.out_estimate == b.out_estimate
        assert a.gas_estimate == b.gas_estimate

    def test_deeper_reserves_give_strictly_more_output(self):
        provider = SyntheticRouterProvider(self.snapshots(scale_at=-1), F_PRIME)
        trade = make_trade(amount_in=TokenAmount(10 * WETH, 18))
        deep = provider.quote(trade, -1)
        shallow = provider.quote(trade, 0)
        assert deep.out_estimate.raw > shallow.out_estimate.raw

    def test_missing_offset_snapshot_unavailable(self):
        provider = SyntheticRouterProvider(self.snapshots(), F_PRIME)
        with pytest.raises(SnapshotUnavailable):
            provider.quote(make_trade(), -5)

    def test_gas_estimate_includes_overhead(self):
        provider = SyntheticRouterProvider(self.snapshots(), F_PRIME, overhead_gas=80_000)
        q = provider.quote(make_trade(), 0)
        assert q.gas_estimate == Decimal(120_000 + 80_000)

    def test_quote_is_deterministic(self):
        provider = SyntheticRouterProvider(self.snapshots(), F_PRIME)
        trade = make_trade()
        assert provider.quote(trade, 0) == provider.quote(trade, 0)

    def test_route_solved_once_per_snapshot_content(self, monkeypatch):
        from swapmeter import baseline

        calls = []

        def counting_router(*args, **kwargs):
            calls.append(args)
            return route_optimal_split(*args, **kwargs)

        monkeypatch.setattr(baseline, "route_optimal_split", counting_router)
        snapshots = {off: [make_pool()] for off in (-1, 0, 1)}
        snapshots[2] = [make_pool(weth=1001)]
        provider = SyntheticRouterProvider(snapshots, F_PRIME)
        trade = make_trade()

        quotes = [provider.quote(trade, off) for off in (-1, 0, 1)]
        assert len(calls) == 1
        fresh = route_optimal_split(
            [make_pool()], trade.amount_in, trade.direction,
            Decimal(trade.gas.base_fee) + F_PRIME,
        )
        for q in quotes:
            assert q.out_estimate == fresh.total_out
            assert q.gas_estimate == Decimal(fresh.total_gas + 80_000)

        provider.quote(trade, 2)
        assert len(calls) == 2
        provider.output_at(trade, 0, quotes[1].out_estimate.raw, WETH // 2)
        assert len(calls) == 3
        provider.quote(make_trade(base_fee=30 * GWEI), 1)
        assert len(calls) == 4
        provider.output_at(trade, 1, quotes[2].out_estimate.raw, WETH // 2)
        assert len(calls) == 4

    def test_requote_equals_a_fresh_solve_and_hits_the_memo(self, monkeypatch):
        from swapmeter import baseline

        calls = []

        def counting_router(*args, **kwargs):
            calls.append(args)
            return route_optimal_split(*args, **kwargs)

        monkeypatch.setattr(baseline, "route_optimal_split", counting_router)
        pools = [make_pool("A"), make_pool("B", weth=500, token=1_600_000, fee_bps=5)]
        deeper = [make_pool("A", weth=2000, token=6_000_000), pools[1]]
        provider = SyntheticRouterProvider({0: pools, 1: list(pools), 2: deeper}, F_PRIME)
        trade = make_trade(amount_in=TokenAmount(25 * WETH, 18))
        adjusted = TokenAmount(25 * WETH - 4 * 10**15, 18)
        served = [provider.serve(trade, offset) for offset in (0, 1)]
        assert len(calls) == 1

        requoted = provider.output_at(trade, 0, served[0][0], adjusted.raw)
        fresh = route_optimal_split(
            pools, adjusted, trade.direction, Decimal(trade.gas.base_fee) + F_PRIME
        )
        assert requoted == fresh.total_out.raw
        assert len(calls) == 2
        # the same adjusted input at an offset sharing the snapshot is served from the memo
        assert provider.output_at(trade, 1, served[1][0], adjusted.raw) == requoted
        assert len(calls) == 2
        # so is a re-quote at the trade's own input
        assert provider.output_at(trade, 0, served[0][0], trade.amount_in.raw) == served[1][0]
        assert len(calls) == 2
        # a re-quote routes over the snapshot of its offset
        fresh = route_optimal_split(
            deeper, adjusted, trade.direction, Decimal(trade.gas.base_fee) + F_PRIME
        )
        served_raw = provider.serve(trade, 2)[0]
        assert provider.output_at(trade, 2, served_raw, adjusted.raw) == fresh.total_out.raw
        assert fresh.total_out.raw != requoted

    def test_memo_holds_no_values_the_collector_tracks(self):
        provider = SyntheticRouterProvider(self.snapshots(scale_at=1), F_PRIME)
        trade = make_trade(gas_internalized=True)
        for offset in (-1, 0, 1):
            served_raw, _, _ = provider.serve(trade, offset)
            provider.output_at(trade, offset, served_raw, WETH // 2)
        gc.collect()
        assert len(provider._routes) == 4
        assert not any(gc.is_tracked(k) or gc.is_tracked(v) for k, v in provider._routes.items())

    def test_tables_built_once_per_snapshot_and_direction(self, monkeypatch):
        from swapmeter import router

        builds = []
        build = router._build_tables

        def counting_build(pools, direction):
            builds.append((tuple(pools), direction))
            return build(pools, direction)

        monkeypatch.setattr(router, "_build_tables", counting_build)
        # 40 distinct snapshots, quoted in both directions at every offset:
        # 80 (snapshot, direction) tables in use at once
        snapshots = {
            offset: [make_pool("A", weth=1000 + offset), make_pool("B", weth=500, fee_bps=5)]
            for offset in range(40)
        }
        provider = SyntheticRouterProvider(snapshots, F_PRIME)
        for k in range(6):
            direction = Direction.WETH_IN if k % 2 else Direction.WETH_OUT
            amount = TokenAmount(WETH + k, 18) if k % 2 else TokenAmount(3000 * USDC + k, 6)
            trade = make_trade(direction=direction, amount_in=amount)
            for offset in snapshots:
                provider.output_at(trade, offset, provider.serve(trade, offset)[0], amount.raw // 2)
        assert len(builds) == 80
        assert len(set(builds)) == 80
