"""Price improvement and its first-order decomposition.

Price improvement is pi = (p - p') / p'. Expanding the price function
around the baseline decision vector x' = (o', g', f') splits pi into a
routing term (output difference), a gas term (gas-units difference), a
fee term (priority-fee difference), and a remainder:

    pi = dp/do * (o-o')/p' + dp/dg * (g-g')/p' + dp/df * (f-f')/p' + rem

The remainder is computed as the exact residual, so the four components
always sum to pi to arithmetic precision. The partials use the
external-gas price forms; gas-internalized trades are first converted
via the gross reconstruction in `prices.realized_decision_vector`.
"""

from __future__ import annotations

from decimal import Decimal
from typing import NamedTuple

from swapmeter.baseline import BaselineProvider
from swapmeter.errors import NonPositiveBaseline
from swapmeter.model import TradeRecord
from swapmeter.prices import (
    WEI_IN_ETH,
    DecisionVector,
    Price,
    TradeTerms,
    counterfactual_price,
    realized_decision_vector,
    realized_price,
    trade_terms,
)


class PiSplit(NamedTuple):
    """pi and its routing, gas, fee and remainder parts at one pair.

    Invariant: pi == pi_routing + pi_gas + pi_fee + pi_remainder exactly
    (the remainder is defined as the residual).
    """

    pi: Decimal
    pi_routing: Decimal
    pi_gas: Decimal
    pi_fee: Decimal
    pi_remainder: Decimal


class AttributionResult(NamedTuple):
    """A `PiSplit` for one trade at one offset, with the records it was priced from."""

    trade_id: str
    offset: int
    pi: Decimal
    pi_routing: Decimal
    pi_gas: Decimal
    pi_fee: Decimal
    pi_remainder: Decimal
    x: DecisionVector
    x_prime: DecisionVector
    p: Price
    p_prime: Price


def improvement(p: Decimal, p_prime: Decimal) -> Decimal:
    """Relative difference (p - p')/p' of price values; requires a positive baseline."""
    if p_prime <= 0:
        raise NonPositiveBaseline(f"baseline price {p_prime} is not positive")
    return (p - p_prime) / p_prime


def partials_at_baseline(
    trade: TradeRecord,
    x_prime: DecisionVector,
    f_prime: Decimal,
) -> tuple[Decimal, Decimal, Decimal]:
    """(dp/do, dp/dg, dp/df) of the external-gas price form, evaluated at x'.

    WETH in:  D = i + g'(b+f')*1e-18
              dp/do = 1/D, dp/dg = -o'(b+f')*1e-18/D^2, dp/df = -o'g'*1e-18/D^2
    WETH out: dp/do = 1/i, dp/dg = -(b+f')*1e-18/i,     dp/df = -g'*1e-18/i
    """
    return _partials(trade_terms(trade, f_prime), x_prime.g, x_prime.o.normalized)


def _partials(terms: TradeTerms, g_prime: Decimal, o_prime: Decimal):
    """`partials_at_baseline` at x' = (o', g', f'), with o' normalized."""
    if terms.dp_do is not None:  # WETH out: only dp/df depends on x'
        return terms.dp_do, terms.dp_dg, -g_prime * WEI_IN_ETH / terms.i
    per_gas = terms.per_gas_eth
    d = terms.i + g_prime * per_gas
    d2 = d * d
    return (
        Decimal(1) / d,
        -o_prime * per_gas / d2,
        -o_prime * g_prime * WEI_IN_ETH / d2,
    )


def split_improvement(
    terms: TradeTerms, p_prime: Decimal, o_prime: Decimal, g_prime: Decimal
) -> PiSplit:
    """Split pi into routing / gas / fee contributions plus the residual.

    The realized side is that of `terms`; the baseline's p', normalized o'
    and g' are those of `prices.counterfactual_value`, at the terms' f'.
    """
    pi = improvement(terms.p, p_prime)
    dp_do, dp_dg, dp_df = _partials(terms, g_prime, o_prime)
    pi_routing = dp_do * (terms.o - o_prime) / p_prime
    pi_gas = dp_dg * (terms.g - g_prime) / p_prime
    pi_fee = dp_df * (terms.f - terms.f_prime) / p_prime
    return PiSplit(pi, pi_routing, pi_gas, pi_fee, pi - (pi_routing + pi_gas + pi_fee))


def attribute_trade(
    trade: TradeRecord,
    baseline: BaselineProvider,
    offset: int,
    f_prime: Decimal,
) -> AttributionResult:
    """Full per-trade attribution at one offset; g' as in `counterfactual_price`."""
    p_prime, x_prime = counterfactual_price(trade, baseline, offset, f_prime)
    split = split_improvement(
        trade_terms(trade, f_prime), p_prime.value, x_prime.o.normalized, x_prime.g
    )
    return AttributionResult(
        trade.trade_id, offset, *split,
        realized_decision_vector(trade), x_prime, realized_price(trade), p_prime,
    )
