"""Realized and counterfactual price computation, all four case combinations."""

import random
from decimal import Decimal

import pytest

from swapmeter.errors import NonPositiveAdjustedInput, QuoteUnavailable
from swapmeter.model import Direction, TokenAmount
from swapmeter.prices import (
    counterfactual_price,
    counterfactual_value,
    realized_decision_vector,
    realized_price,
    trade_terms,
)

from conftest import GWEI, USDC, WETH, make_trade, replay_for

F_PRIME = Decimal(100_000_000)  # 0.1 Gwei


class TestRealizedPrice:
    def test_weth_in_external_gas(self):
        # i = 1 WETH, o = 3000 USDC, g = 150000, b = 20 gwei, f = 1 gwei
        # oracle: 3000 / (1 + 150000 * 21e9 * 1e-18) = 3000 / 1.00315
        trade = make_trade()
        p = realized_price(trade)
        expected = Decimal(3000) / Decimal("1.00315")
        assert abs(p.value - expected) < Decimal("1e-40")
        assert p.value.quantize(Decimal("0.0001")) == Decimal("2990.5797")

    def test_internalized_is_plain_ratio(self):
        trade = make_trade(
            path="X",
            gas_internalized=True,
            amount_in=TokenAmount(2 * WETH, 18),
            amount_out=TokenAmount(6000 * USDC, 6),
        )
        assert realized_price(trade).value == Decimal(3000)

    def test_weth_out_negative_price_branch(self):
        # o = 0.001 ETH, gas cost = 0.002 ETH, i = 10 USDC -> p = -0.0001
        trade = make_trade(
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(10 * USDC, 6),
            amount_out=TokenAmount(WETH // 1000, 18),
            gas_used=100_000,
            base_fee=19 * GWEI,
            priority_fee=1 * GWEI,
        )
        assert realized_price(trade).value == Decimal("-0.0001")

    def test_weth_out_external_gas(self):
        trade = make_trade(
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(3000 * USDC, 6),
            amount_out=TokenAmount(WETH, 18),
        )
        # (1 - 150000*21e9*1e-18) / 3000
        expected = (Decimal(1) - Decimal("0.00315")) / Decimal(3000)
        assert realized_price(trade).value == expected


class TestCounterfactualPrice:
    def test_weth_in_external(self):
        # o' = 2995 USDC, g' = 140000, b = 20 gwei, f' = 0.1 gwei
        # oracle: 2995 / (1 + 140000 * 20.1e9 * 1e-18) ~= 2986.6
        trade = make_trade()
        provider = replay_for("T1", 0, 2995 * USDC, 6, 140_000)
        p, x = counterfactual_price(trade, provider, 0, F_PRIME)
        expected = Decimal(2995) / (Decimal(1) + Decimal(140_000 * 20_100_000_000) * Decimal("1e-18"))
        assert abs(p.value - expected) < Decimal("1e-40")
        assert p.value.quantize(Decimal("0.1")) == Decimal("2986.6")
        assert (x.o.raw, x.g, x.f) == (2995 * USDC, Decimal(140_000), F_PRIME)

    def test_internalized_weth_in_linear_provider(self):
        # linear baseline o'' = k * i' with k = 3000/WETH, gas cost 0.003 ETH
        trade = make_trade(
            path="X",
            gas_internalized=True,
            base_fee=19_900_000_000,
            priority_fee=GWEI,
        )
        provider = replay_for("T1", 0, 3000 * USDC, 6, 150_000)
        p, x = counterfactual_price(trade, provider, 0, F_PRIME)
        # i' = 1 - 150000*(19.9e9 + 0.1e9)*1e-18 = 0.997; p' = 3000*0.997/1
        assert p.value == Decimal("2991")
        assert x.o.raw == 2991 * USDC

    def test_internalized_weth_out_single_call(self):
        trade = make_trade(
            path="Fusion",
            gas_internalized=True,
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(3000 * USDC, 6),
            amount_out=TokenAmount(WETH, 18),
        )
        provider = replay_for("T1", 0, WETH, 18, 150_000)
        p, x = counterfactual_price(trade, provider, 0, F_PRIME)
        cost = Decimal(150_000) * Decimal(20 * GWEI + 100_000_000) * Decimal("1e-18")
        assert p.value == (Decimal(1) - cost) / Decimal(3000)
        assert x.o.raw == WETH  # o', not o''

    def test_gas_free_limit_collapses_cases(self):
        for direction in (Direction.WETH_IN, Direction.WETH_OUT):
            for internal in (False, True):
                trade = make_trade(
                    direction=direction,
                    gas_internalized=internal,
                    base_fee=0,
                    priority_fee=0,
                )
                out_raw = 2995 * USDC if direction is Direction.WETH_IN else WETH
                out_dec = 6 if direction is Direction.WETH_IN else 18
                provider = replay_for("T1", 0, out_raw, out_dec, 0)
                p, _ = counterfactual_price(trade, provider, 0, Decimal(0))
                expected = (
                    TokenAmount(out_raw, out_dec).normalized / trade.amount_in.normalized
                )
                assert p.value == expected

    def test_quote_unavailable(self):
        trade = make_trade()
        provider = replay_for("OTHER", 0, 1, 6, 0)
        with pytest.raises(QuoteUnavailable):
            counterfactual_price(trade, provider, 0, F_PRIME)

    def test_non_positive_adjusted_input(self):
        trade = make_trade(path="X", gas_internalized=True)
        # gas cost 10^6 * 20.1 gwei ~ 0.02 ETH per 1000 gas units... make it >= 1 ETH
        provider = replay_for("T1", 0, 3000 * USDC, 6, 50_000_000)
        with pytest.raises(NonPositiveAdjustedInput):
            counterfactual_price(trade, provider, 0, F_PRIME)

    def test_negative_fee_or_gas_is_refused(self):
        trade = make_trade()
        served = (2995 * USDC, 6, Decimal(140_000))
        provider = replay_for("T1", 0, *served)
        terms = trade_terms(trade, F_PRIME)
        for refused in (
            lambda: trade_terms(trade, Decimal(-1)),  # f' < 0
            lambda: counterfactual_value(provider, terms, 0, served, Decimal(2995), Decimal(-1)),
        ):
            with pytest.raises(ValueError) as caught:
                refused()
            assert type(caught.value) is ValueError
            assert str(caught.value) == "g and f must be nonnegative"


class TestSelfBaselineFixedPoint:
    """p == p' when the baseline reproduces (o, g) and f' = f."""

    def test_external_cases(self):
        for direction in (Direction.WETH_IN, Direction.WETH_OUT):
            trade = make_trade(direction=direction)
            provider = replay_for(
                "T1", 0, trade.amount_out.raw, trade.amount_out.decimals, trade.gas.gas_used
            )
            p_prime, _ = counterfactual_price(
                trade, provider, 0, Decimal(trade.gas.priority_fee)
            )
            assert p_prime.value == realized_price(trade).value

    def test_internalized_weth_out_gross_fixed_point(self):
        trade = make_trade(
            path="X",
            gas_internalized=True,
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(3000 * USDC, 6),
            amount_out=TokenAmount(WETH, 18),
        )
        gross = trade.amount_out.raw + trade.gas.cost_wei
        provider = replay_for("T1", 0, gross, 18, trade.gas.gas_used)
        p_prime, _ = counterfactual_price(trade, provider, 0, Decimal(trade.gas.priority_fee))
        assert p_prime.value == realized_price(trade).value

    def test_internalized_weth_in_gross_fixed_point(self):
        # The linear replay baseline reproduces the fill when the stored
        # quote is the gross output k*i and the realized fill was k*i'.
        trade_gas_wei = 150_000 * (20 * GWEI + GWEI)
        routed = WETH - trade_gas_wei
        k = Decimal(3000)
        out_raw = int(k * Decimal(routed).scaleb(-18) * Decimal(10) ** 6)
        trade = make_trade(
            path="X",
            gas_internalized=True,
            amount_out=TokenAmount(out_raw, 6),
        )
        provider = replay_for("T1", 0, 3000 * USDC, 6, trade.gas.gas_used)
        p_prime, _ = counterfactual_price(trade, provider, 0, Decimal(trade.gas.priority_fee))
        assert abs(p_prime.value - realized_price(trade).value) < Decimal("1e-15")


class TestPriceProperties:
    def test_monotone_decreasing_in_gas_and_fee(self):
        rng = random.Random(11)
        for _ in range(50):
            direction = rng.choice([Direction.WETH_IN, Direction.WETH_OUT])
            base = make_trade(
                direction=direction,
                gas_used=rng.randrange(21_000, 900_000),
                base_fee=rng.randrange(1, 200) * GWEI,
                priority_fee=rng.randrange(0, 20) * GWEI,
            )
            more_gas = make_trade(
                direction=direction,
                gas_used=base.gas.gas_used + 50_000,
                base_fee=base.gas.base_fee,
                priority_fee=base.gas.priority_fee,
            )
            more_fee = make_trade(
                direction=direction,
                gas_used=base.gas.gas_used,
                base_fee=base.gas.base_fee,
                priority_fee=base.gas.priority_fee + GWEI,
            )
            assert realized_price(more_gas).value < realized_price(base).value
            assert realized_price(more_fee).value < realized_price(base).value

    def test_price_increasing_in_output(self):
        base = make_trade()
        bigger = make_trade(amount_out=TokenAmount(3001 * USDC, 6))
        assert realized_price(bigger).value > realized_price(base).value

    def test_unit_invariance_under_decimals_rescaling(self):
        # same economic amounts, token represented with 6 vs 12 decimals
        t6 = make_trade(amount_out=TokenAmount(3000 * 10**6, 6))
        t12 = make_trade(amount_out=TokenAmount(3000 * 10**12, 12))
        assert realized_price(t6).value == realized_price(t12).value


class TestDecisionVector:
    def test_external_passthrough(self):
        trade = make_trade()
        x = realized_decision_vector(trade)
        assert x.o is trade.amount_out
        assert (x.g, x.f) == (Decimal(150_000), Decimal(GWEI))

    def test_internalized_weth_out_grossed_up(self):
        trade = make_trade(
            path="X",
            gas_internalized=True,
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(3000 * USDC, 6),
            amount_out=TokenAmount(WETH, 18),
        )
        x = realized_decision_vector(trade)
        assert x.o.raw == WETH + trade.gas.cost_wei

    def test_internalized_weth_in_not_grossed(self):
        trade = make_trade(path="X", gas_internalized=True)
        assert realized_decision_vector(trade).o is trade.amount_out
