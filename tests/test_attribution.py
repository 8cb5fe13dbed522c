"""Price-improvement attribution: partials, exact-sum identity, remainder."""

import random
from decimal import Decimal

import pytest

from swapmeter.attribution import attribute_trade, improvement, partials_at_baseline
from swapmeter.errors import NonPositiveBaseline
from swapmeter.model import Direction, TokenAmount
from swapmeter.prices import (
    DecisionVector,
    Price,
    counterfactual_price,
    realized_decision_vector,
    realized_price,
)

from conftest import GWEI, USDC, WETH, make_trade, replay_for

F_PRIME = Decimal(100_000_000)
KAPPA = Decimal("1e-18")


def external_price(direction, i, o, g, f, b):
    """Independent oracle: the external-gas price form, literal arithmetic."""
    cost = g * (b + f) * KAPPA
    if direction is Direction.WETH_OUT:
        return (o - cost) / i
    return o / (i + cost)


def random_trade(rng, direction=None, internalized=None):
    direction = direction or rng.choice([Direction.WETH_IN, Direction.WETH_OUT])
    internalized = rng.random() < 0.5 if internalized is None else internalized
    if direction is Direction.WETH_IN:
        amount_in = TokenAmount(rng.randrange(10**17, 50 * WETH), 18)
        amount_out = TokenAmount(rng.randrange(10**8, 10**11), 6)
    else:
        amount_in = TokenAmount(rng.randrange(10**8, 10**11), 6)
        amount_out = TokenAmount(rng.randrange(10**17, 50 * WETH), 18)
    return make_trade(
        direction=direction,
        gas_internalized=internalized,
        path="X" if internalized else "Classic",
        amount_in=amount_in,
        amount_out=amount_out,
        gas_used=rng.randrange(21_000, 600_000),
        base_fee=rng.randrange(1, 150) * GWEI,
        priority_fee=rng.randrange(0, 15) * GWEI,
    )


def random_provider(rng, trade):
    scale = Decimal(rng.randrange(900, 1100)) / 1000
    out_raw = max(1, int(trade.amount_out.raw * scale))
    gas = rng.randrange(21_000, 600_000)
    return replay_for(trade.trade_id, 0, out_raw, trade.amount_out.decimals, gas)


class TestPriceImprovement:
    def test_zero_when_equal(self):
        p = Price(Decimal(3000))
        q = Price(Decimal(3000))
        assert improvement(p.value, q.value) == 0

    def test_five_bps(self):
        p = Price(Decimal("3001.5"))
        q = Price(Decimal(3000))
        assert improvement(p.value, q.value) == Decimal("0.0005")

    def test_non_positive_baseline_guard(self):
        p = Price(Decimal(1))
        q = Price(Decimal(0))
        with pytest.raises(NonPositiveBaseline):
            improvement(p.value, q.value)


class TestPartials:
    def test_weth_out_unit_input(self):
        trade = make_trade(
            direction=Direction.WETH_OUT,
            amount_in=TokenAmount(1 * USDC, 6),
            amount_out=TokenAmount(WETH, 18),
        )
        x_prime = DecisionVector(TokenAmount(WETH, 18), Decimal(100_000), F_PRIME)
        dp_do, _, _ = partials_at_baseline(trade, x_prime, F_PRIME)
        assert dp_do == 1

    def test_weth_in_gas_free_limit(self):
        trade = make_trade(amount_in=TokenAmount(2 * WETH, 18))
        x_prime = DecisionVector(TokenAmount(3000 * USDC, 6), Decimal(0), F_PRIME)
        dp_do, dp_dg, dp_df = partials_at_baseline(trade, x_prime, F_PRIME)
        assert dp_do == Decimal(1) / 2
        assert dp_df == 0

    def test_partials_match_finite_differences(self):
        rng = random.Random(99)
        h_rel = Decimal("1e-6")
        checked = 0
        for _ in range(200):
            trade = random_trade(rng)
            provider = random_provider(rng, trade)
            try:
                _, x_prime = counterfactual_price(trade, provider, 0, F_PRIME)
            except Exception:
                continue
            checked += 1
            dp = partials_at_baseline(trade, x_prime, F_PRIME)
            i = trade.amount_in.normalized
            b = Decimal(trade.gas.base_fee)
            o0, g0, f0 = x_prime.o.normalized, x_prime.g, F_PRIME

            def price_fn(o, g, f):
                return external_price(trade.direction, i, o, g, f, b)

            for k, (value, setter) in enumerate(
                (
                    (o0, lambda v: price_fn(v, g0, f0)),
                    (g0, lambda v: price_fn(o0, v, f0)),
                    (f0, lambda v: price_fn(o0, g0, v)),
                )
            ):
                if value == 0:
                    continue
                h = value * h_rel
                fd = (setter(value + h) - setter(value - h)) / (2 * h)
                if fd == 0:
                    assert abs(dp[k]) < Decimal("1e-30")
                else:
                    assert abs(dp[k] - fd) / abs(fd) < Decimal("1e-6")
        assert checked > 150


class TestAttribute:
    def test_identical_vectors_give_zero_components(self):
        trade = make_trade()
        provider = replay_for(
            "T1", 0, trade.amount_out.raw, 6, trade.gas.gas_used
        )
        res = attribute_trade(trade, provider, 0, Decimal(trade.gas.priority_fee))
        assert res.x == realized_decision_vector(trade) and res.p == realized_price(trade)
        assert res.pi == res.pi_routing == res.pi_gas == res.pi_fee == res.pi_remainder == 0

    def test_exact_sum_identity_randomized(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            trade = random_trade(rng)
            provider = random_provider(rng, trade)
            try:
                res = attribute_trade(trade, provider, 0, F_PRIME)
            except Exception:
                continue
            total = res.pi_routing + res.pi_gas + res.pi_fee + res.pi_remainder
            scale = max(abs(res.pi), Decimal(1))
            assert abs(res.pi - total) / scale < Decimal("1e-12")
            checked += 1
        assert checked > 200

    def test_weth_out_remainder_closed_form(self):
        # only the bilinear g*f cross term survives:
        # remainder = -(g-g')(f-f')*1e-18 / (i * p')
        rng = random.Random(21)
        checked = 0
        for _ in range(200):
            trade = random_trade(rng, direction=Direction.WETH_OUT)
            provider = random_provider(rng, trade)
            try:
                res = attribute_trade(trade, provider, 0, F_PRIME)
            except Exception:
                continue
            expected = (
                -(res.x.g - res.x_prime.g)
                * (res.x.f - res.x_prime.f)
                * KAPPA
                / (trade.amount_in.normalized * res.p_prime.value)
            )
            if expected == 0:
                assert res.pi_remainder == 0
            else:
                assert abs(res.pi_remainder - expected) / abs(expected) < Decimal("1e-10")
            checked += 1
        assert checked > 150

    def test_sign_contracts(self):
        trade = make_trade()
        base_provider = replay_for("T1", 0, trade.amount_out.raw, 6, trade.gas.gas_used)
        f = Decimal(trade.gas.priority_fee)

        # o > o', others equal -> positive routing term
        worse_out = replay_for("T1", 0, trade.amount_out.raw - 5 * USDC, 6, trade.gas.gas_used)
        res = attribute_trade(trade, worse_out, 0, f)
        assert res.pi_routing > 0 and res.pi_gas == 0 and res.pi_fee == 0

        # g < g' -> positive gas term
        more_gas = replay_for("T1", 0, trade.amount_out.raw, 6, trade.gas.gas_used + 40_000)
        res = attribute_trade(trade, more_gas, 0, f)
        assert res.pi_gas > 0 and res.pi_routing == 0

        # f < f' -> positive fee term
        res = attribute_trade(trade, base_provider, 0, f + GWEI)
        assert res.pi_fee > 0 and res.pi_routing == 0

    def test_routing_only_difference_dominates(self):
        # with g = g' and f = f', pi ~= pi_routing up to second order
        trade = make_trade()
        provider = replay_for("T1", 0, 2980 * USDC, 6, trade.gas.gas_used)
        res = attribute_trade(trade, provider, 0, Decimal(trade.gas.priority_fee))
        rel_gap = (trade.amount_out.normalized - Decimal(2980)) / Decimal(2980)
        assert abs(res.pi - res.pi_routing) <= rel_gap**2 * Decimal(10)
        assert res.pi_gas == 0 and res.pi_fee == 0

    def test_invariant_under_decimals_rescaling(self):
        trade6 = make_trade(amount_out=TokenAmount(3000 * 10**6, 6))
        trade12 = make_trade(amount_out=TokenAmount(3000 * 10**12, 12))
        prov6 = replay_for("T1", 0, 2990 * 10**6, 6, 140_000)
        prov12 = replay_for("T1", 0, 2990 * 10**12, 12, 140_000)
        r6 = attribute_trade(trade6, prov6, 0, F_PRIME)
        r12 = attribute_trade(trade12, prov12, 0, F_PRIME)
        assert r6.pi == r12.pi
        assert r6.pi_routing == r12.pi_routing
        assert r6.pi_gas == r12.pi_gas
        assert r6.pi_fee == r12.pi_fee
        assert r6.pi_remainder == r12.pi_remainder

    def test_internalized_cases_keep_identity(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(150):
            trade = random_trade(rng, internalized=True)
            provider = random_provider(rng, trade)
            try:
                res = attribute_trade(trade, provider, 0, F_PRIME)
            except Exception:
                continue
            total = res.pi_routing + res.pi_gas + res.pi_fee + res.pi_remainder
            scale = max(abs(res.pi), Decimal(1))
            assert abs(res.pi - total) / scale < Decimal("1e-12")
            checked += 1
        assert checked > 100
