"""Baseline provider contract: replay lookup and synthetic routing."""

import ast
from decimal import Decimal
from pathlib import Path

import pytest

from swapmeter.baseline import CalibratedProvider, ReplayProvider, SyntheticRouterProvider
from swapmeter.calibration import GasCalibration
from swapmeter.errors import ConfigError, QuoteUnavailable, SnapshotUnavailable, SwapmeterError
from swapmeter.ingest import QuoteSet
from swapmeter.model import Direction, Quote, TokenAmount
from swapmeter.router import route_optimal_split

from conftest import GWEI, USDC, WETH, make_pool, make_trade

F_PRIME = Decimal(100_000_000)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "swapmeter"


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

    def test_offsets_share_no_requote_scope(self):
        """Recorded quotes are not assumed to repeat across offsets: nothing is memoised."""
        provider = ReplayProvider(QuoteSet([quote(offset=-1), quote(offset=0)]))
        assert provider.requote_scope(-1) != provider.requote_scope(0)

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

    def test_equal_snapshot_contents_share_a_requote_scope(self):
        snapshots = {off: [make_pool()] for off in (-1, 0, 1)}  # equal contents, three lists
        snapshots.update({2: [make_pool(weth=1001)], 3: [make_pool(weth=1002)]})  # drifted
        provider = SyntheticRouterProvider(snapshots, F_PRIME)
        scopes = [provider.requote_scope(off) for off in snapshots]
        assert scopes[0] is scopes[1] is scopes[2]  # one interned snapshot
        assert len(set(scopes)) == 3
        calibrated = CalibratedProvider(provider, GasCalibration(Decimal("0.9"), Decimal(0), 20,
                                                                 Decimal(1), Decimal(0)))
        assert [calibrated.requote_scope(off) for off in snapshots] == scopes
        assert provider.requote_scope(9) not in scopes  # no snapshot, no scope
        trade = make_trade(direction=Direction.WETH_IN, gas_internalized=True)
        outputs = [provider.output_at(trade, off, 0, WETH // 2) for off in snapshots]
        assert outputs[0] == outputs[1] == outputs[2] != outputs[3] != outputs[4]

    def test_route_solved_once_per_snapshot_content(self):
        snapshots = {off: [make_pool()] for off in (-1, 0, 1)}
        snapshots[2] = [make_pool(weth=1001)]
        provider = SyntheticRouterProvider(snapshots, F_PRIME)
        trade = make_trade()

        quotes = [provider.quote(trade, off) for off in (-1, 0, 1)]
        fresh = route_optimal_split(
            [make_pool()], trade.amount_in, trade.direction,
            Decimal(trade.gas.base_fee) + F_PRIME,
        )
        for q in quotes:
            assert q.out_estimate == fresh.total_out
            assert q.gas_estimate == Decimal(fresh.total_gas + 80_000)
        assert provider.quote(trade, 2).out_estimate != fresh.total_out
        # a route is solved at the trade's own base fee
        pricier = make_trade(base_fee=30 * GWEI)
        fresh = route_optimal_split(
            [make_pool()], pricier.amount_in, pricier.direction,
            Decimal(pricier.gas.base_fee) + F_PRIME,
        )
        assert provider.quote(pricier, 1).out_estimate == fresh.total_out

    def test_requote_equals_a_fresh_solve(self):
        pools = [make_pool("A"), make_pool("B", weth=500, token=1_600_000, fee_bps=5)]
        deeper = [make_pool("A", weth=2000, token=6_000_000), pools[1]]
        provider = SyntheticRouterProvider({0: pools, 1: list(pools), 2: deeper}, F_PRIME)
        trade = make_trade(amount_in=TokenAmount(25 * WETH, 18))
        adjusted = TokenAmount(25 * WETH - 4 * 10**15, 18)
        served = [provider.serve(trade, offset) for offset in (0, 1)]

        requoted = provider.output_at(trade, 0, served[0][0], adjusted.raw)
        fresh = route_optimal_split(
            pools, adjusted, trade.direction, Decimal(trade.gas.base_fee) + F_PRIME
        )
        assert requoted == fresh.total_out.raw
        # an offset sharing the snapshot re-quotes alike
        assert provider.output_at(trade, 1, served[1][0], adjusted.raw) == requoted
        # a re-quote at the trade's own input is the served output
        assert provider.output_at(trade, 0, served[0][0], trade.amount_in.raw) == served[1][0]
        # a re-quote routes over the snapshot of its offset
        fresh = route_optimal_split(
            deeper, adjusted, trade.direction, Decimal(trade.gas.base_fee) + F_PRIME
        )
        served_raw = provider.serve(trade, 2)[0]
        assert provider.output_at(trade, 2, served_raw, adjusted.raw) == fresh.total_out.raw
        assert fresh.total_out.raw != requoted

    @pytest.mark.parametrize("column", ["reserve_weth", "reserve_token"])
    def test_reserves_summing_past_the_raw_bound_refused(self, column):
        # a route's output is below its pools' summed reserves, which must fit a raw amount
        decimals = 18 if column == "reserve_weth" else 6

        def pools(top):
            second = make_pool("P2")._replace(**{column: TokenAmount(top, decimals)})
            return [make_pool("P1"), second]

        held = getattr(make_pool("P1"), column).raw
        SyntheticRouterProvider({0: pools(1), 1: pools(10**60 - 1 - held)}, F_PRIME)
        with pytest.raises(ConfigError) as exc:
            SyntheticRouterProvider({0: pools(1), 1: pools(10**60 - held)}, F_PRIME)
        assert str(exc.value) == f"offset 1: the pools' {column}_raw sum to 10^60 or more"

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


def test_only_the_synthetic_router_provider_calls_the_router():
    """synth and the router baseline share one routing rule: `SyntheticRouterProvider.route`."""
    calls, imports = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "swapmeter.router":
                if any(alias.name == "route_optimal_split" for alias in node.names):
                    imports.add(path.name)
            func = node.func if isinstance(node, ast.Call) else None
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "route_optimal_split":
                calls[path.name] = calls.get(path.name, 0) + 1
    assert calls == {"baseline.py": 1}
    assert imports == {"baseline.py"}
