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

from dataclasses import dataclass
from decimal import Decimal

from swapmeter.baseline import BaselineProvider
from swapmeter.errors import EXCLUDED, NonPositiveBaseline
from swapmeter.model import Direction, Quote, TradeRecord
from swapmeter.prices import (
    DecisionVector,
    Price,
    TradeTerms,
    counterfactual_price,
    trade_terms,
)

WEI_IN_ETH = Decimal(10) ** -18


@dataclass(frozen=True, slots=True)
class AttributionResult:
    """pi and its components for one trade at one offset.

    Invariant: pi == pi_routing + pi_gas + pi_fee + pi_remainder exactly
    (the remainder is defined as the residual).
    """

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


def price_improvement(p: Price, p_prime: Price) -> Decimal:
    """Relative difference (p - p')/p'; requires a positive baseline."""
    return improvement(p.value, p_prime.value)


def improvement(p: Decimal, p_prime: Decimal) -> Decimal:
    """`price_improvement` of price values."""
    if p_prime <= 0:
        raise NonPositiveBaseline(f"baseline price {p_prime} is not positive")
    return (p - p_prime) / p_prime


def pi_curve(
    trade: TradeRecord,
    baseline: BaselineProvider,
    offsets: list[int] | tuple[int, ...],
    f_prime: Decimal,
) -> tuple[list[tuple[int, Decimal]], list[tuple[int, str]]]:
    """Price improvement across block offsets; unavailable offsets become gaps."""
    terms = trade_terms(trade, f_prime)
    points: list[tuple[int, Decimal]] = []
    gaps: list[tuple[int, str]] = []
    for offset in offsets:
        try:
            p_prime, _ = counterfactual_price(trade, baseline, offset, f_prime, terms=terms)
            points.append((offset, price_improvement(terms.p, p_prime)))
        except EXCLUDED as exc:
            gaps.append((offset, type(exc).__name__))
    return points, gaps


def partials_at_baseline(
    trade: TradeRecord,
    x_prime: DecisionVector,
    f_prime: Decimal,
    *,
    terms: TradeTerms | None = None,
) -> tuple[Decimal, Decimal, Decimal]:
    """(dp/do, dp/dg, dp/df) of the external-gas price form, evaluated at x'.

    WETH in:  D = i + g'(b+f')*1e-18
              dp/do = 1/D, dp/dg = -o'(b+f')*1e-18/D^2, dp/df = -o'g'*1e-18/D^2
    WETH out: dp/do = 1/i, dp/dg = -(b+f')*1e-18/i,     dp/df = -g'*1e-18/i
    """
    terms = trade_terms(trade, f_prime, terms)
    return _partials(terms, x_prime.g, x_prime.o.normalized)


def _partials(terms: TradeTerms, g_prime: Decimal, o_prime: Decimal):
    """`partials_at_baseline` at x' = (o', g', f'), with o' normalized."""
    i = terms.i
    per_gas = terms.per_gas * WEI_IN_ETH
    if terms.trade.direction is Direction.WETH_OUT:
        return (
            Decimal(1) / i,
            -per_gas / i,
            -g_prime * WEI_IN_ETH / i,
        )
    d = i + g_prime * per_gas
    d2 = d * d
    return (
        Decimal(1) / d,
        -o_prime * per_gas / d2,
        -o_prime * g_prime * WEI_IN_ETH / d2,
    )


def attribute(
    trade: TradeRecord,
    x: DecisionVector,
    x_prime: DecisionVector,
    p: Price,
    p_prime: Price,
    offset: int = 0,
    *,
    terms: TradeTerms | None = None,
) -> AttributionResult:
    """Decompose pi into routing / gas / fee contributions plus the residual.

    x and p are the trade's realized decision vector and price, those of
    its `trade_terms` at f' = x'.f.
    """
    terms = trade_terms(trade, x_prime.f, terms)
    if (x is not terms.x and x != terms.x) or (p is not terms.p and p != terms.p):
        raise ValueError(f"x and p must be trade {trade.trade_id!r}'s realized vector and price")
    pv = p_prime.value
    pi = improvement(p.value, pv)
    o_prime = x_prime.o.normalized
    dp_do, dp_dg, dp_df = _partials(terms, x_prime.g, o_prime)
    pi_routing = dp_do * (terms.o - o_prime) / pv
    pi_gas = dp_dg * (x.g - x_prime.g) / pv
    pi_fee = dp_df * (x.f - x_prime.f) / pv
    pi_remainder = pi - (pi_routing + pi_gas + pi_fee)
    return AttributionResult(
        trade_id=trade.trade_id,
        offset=offset,
        pi=pi,
        pi_routing=pi_routing,
        pi_gas=pi_gas,
        pi_fee=pi_fee,
        pi_remainder=pi_remainder,
        x=x,
        x_prime=x_prime,
        p=p,
        p_prime=p_prime,
    )


def attribute_trade(
    trade: TradeRecord,
    baseline: BaselineProvider,
    offset: int,
    f_prime: Decimal,
    *,
    quote: Quote | None = None,
    beta1: Decimal | None = None,
    terms: TradeTerms | None = None,
) -> AttributionResult:
    """Full per-trade attribution against a baseline provider at one offset.

    quote, beta1 and terms are passed to `counterfactual_price`.
    """
    terms = trade_terms(trade, f_prime, terms)
    p_prime, x_prime = counterfactual_price(
        trade, baseline, offset, f_prime, quote=quote, beta1=beta1, terms=terms
    )
    return attribute(trade, terms.x, x_prime, terms.p, p_prime, offset=offset, terms=terms)
