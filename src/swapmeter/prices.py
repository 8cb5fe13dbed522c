"""Realized and counterfactual swap prices with gas internalization.

A price is output token per input token, both in normalized units. When
gas is paid externally it is folded into the WETH side of the trade:

    external gas, WETH out:  p = (o - g(b+f)) / i
    external gas, WETH in:   p = o / (i + g(b+f))
    internalized gas:        p = o / i

with g(b+f) converted from wei to ETH. Counterfactual prices replace
(o, g, f) with baseline values (o', g', f'); when gas is internalized
and WETH is the input, the baseline is re-quoted at the gas-adjusted
input i' = i - g'(b+f').

What every price of one trade shares (i, b+f', the realized p and x, the
partials that x' does not change) is taken once per trade in `TradeTerms`.
`counterfactual_value` holds the p' formulas once, for the nominal and the
shifted calibration slopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal
from typing import TYPE_CHECKING

from swapmeter.errors import NonPositiveAdjustedInput
from swapmeter.model import Direction, Quote, TokenAmount, TradeRecord

WEI_IN_ETH = Decimal(10) ** -18

if TYPE_CHECKING:
    from swapmeter.baseline import BaselineProvider


@dataclass(frozen=True, slots=True)
class Price:
    """A signed price.

    Negative values are valid only for WETH-out trades whose gas cost
    exceeds the output.
    """

    value: Decimal


@dataclass(frozen=True, slots=True)
class DecisionVector:
    """The controllable triple (o, g, f): output amount, gas units, priority fee."""

    o: TokenAmount
    g: Decimal
    f: Decimal

    def __post_init__(self):
        if self.g < 0 or self.f < 0:
            raise ValueError("g and f must be nonnegative")


def realized_price(trade: TradeRecord) -> Price:
    i = trade.amount_in.normalized
    o = trade.amount_out.normalized
    if trade.gas_internalized:
        return Price(o / i)
    cost = Decimal(trade.gas.cost_wei).scaleb(-18)  # wei -> ETH, exact
    if trade.direction is Direction.WETH_OUT:
        value = (o - cost) / i
    else:
        value = o / (i + cost)
    return Price(value)


def realized_decision_vector(trade: TradeRecord) -> DecisionVector:
    """The realized (o, g, f), gas-internalized trades gross-reconstructed.

    Filler compensation is assumed to equal the observed settlement gas
    cost g(b+f) exactly (zero filler margin): for WETH-out fills the
    user's pre-fee output is o + g(b+f); for WETH-in fills the output
    needs no adjustment because the fee came out of the input side.
    """
    o = trade.amount_out
    if trade.gas_internalized and trade.direction is Direction.WETH_OUT:
        o = TokenAmount(o.raw + trade.gas.cost_wei, 18)
    return DecisionVector(o, Decimal(trade.gas.gas_used), Decimal(trade.gas.priority_fee))


@dataclass(frozen=True, slots=True)
class TradeTerms:
    """What every price of one trade at baseline priority fee f' shares.

    i is the normalized input, per_gas_eth is b + f' in ETH per gas, p
    and x are the realized price and decision vector, and o is x's
    normalized output. For a WETH-out trade, dp_do = 1/i and dp_dg =
    -(b+f')*1e-18/i are the partials that x' does not change (see
    `attribution.partials_at_baseline`); None otherwise.
    `trade_terms` builds it once per trade.
    """

    trade: TradeRecord
    f_prime: Decimal
    i: Decimal
    per_gas_eth: Decimal
    p: Price
    x: DecisionVector
    o: Decimal
    dp_do: Decimal | None
    dp_dg: Decimal | None


def trade_terms(
    trade: TradeRecord, f_prime: Decimal, terms: TradeTerms | None = None
) -> TradeTerms:
    """`terms` if given, checked to be those of (trade, f'); else built from the trade."""
    if terms is not None:
        if terms.trade is not trade or terms.f_prime != f_prime:
            raise ValueError(f"terms do not describe trade {trade.trade_id!r} at f' {f_prime}")
        return terms
    if f_prime < 0:
        raise ValueError("g and f must be nonnegative")
    x = realized_decision_vector(trade)
    i = trade.amount_in.normalized
    per_gas_eth = (Decimal(trade.gas.base_fee) + f_prime) * WEI_IN_ETH
    dp_do = dp_dg = None
    if trade.direction is Direction.WETH_OUT:
        dp_do = Decimal(1) / i
        dp_dg = -per_gas_eth / i
    return TradeTerms(
        trade, f_prime, i, per_gas_eth, realized_price(trade), x, x.o.normalized,
        dp_do, dp_dg,
    )


def counterfactual_value(
    baseline: "BaselineProvider",
    terms: TradeTerms,
    quote: Quote,
    o_prime: Decimal,
    g_prime: Decimal,
) -> tuple[Decimal, TokenAmount]:
    """Baseline price value p' at gas g', and the baseline output it prices.

    o_prime is the quote's normalized output. The output is the quote's,
    or, for an internalized WETH-in trade, the provider's re-quoted output
    (`output_at`) at the gas-adjusted input i' = i - g'(b+f'), whose denominator
    i' + g'(b+f') collapses back to i.

    Raises NonPositiveAdjustedInput when that gas cost reaches the input
    amount.
    """
    if g_prime < 0:
        raise ValueError("g and f must be nonnegative")
    trade = terms.trade
    cost = g_prime * terms.per_gas_eth  # g'(b+f') in ETH
    i = terms.i
    if trade.direction is Direction.WETH_OUT:
        return (o_prime - cost) / i, quote.out_estimate
    if not trade.gas_internalized:
        return o_prime / (i + cost), quote.out_estimate
    if i - cost <= 0:
        raise NonPositiveAdjustedInput(
            f"trade {trade.trade_id!r}: baseline gas cost {cost} ETH >= input {i} ETH"
        )
    cost_wei = int((cost.scaleb(18)).to_integral_value(rounding=ROUND_FLOOR))
    adjusted_amount = TokenAmount(trade.amount_in.raw - cost_wei, 18)
    out = baseline.output_at(trade, quote, adjusted_amount)
    return out.normalized / i, out


def counterfactual_price(
    trade: TradeRecord,
    baseline: "BaselineProvider",
    offset: int,
    f_prime: Decimal,
    *,
    quote: Quote | None = None,
    beta1: Decimal | None = None,
    terms: TradeTerms | None = None,
) -> tuple[Price, DecisionVector]:
    """Baseline price p' and baseline decision vector x' = (o', g', f').

    `quote` is the pair's quote when the caller already fetched it (else
    it is fetched here). Its gas is read as g' = g'_quoted/beta1, or as
    quoted when beta1 is None, so one quote prices every calibration
    slope. `terms` are the trade's `trade_terms` at f_prime.

    Raises QuoteUnavailable / SnapshotUnavailable if the provider cannot
    quote, and NonPositiveAdjustedInput when an internalized WETH-in
    trade's gas cost reaches the input amount (see `counterfactual_value`).
    """
    terms = trade_terms(trade, f_prime, terms)
    if quote is None:
        quote = baseline.quote(trade, offset)
    g1 = quote.gas_estimate if beta1 is None else quote.gas_estimate / beta1
    value, o_prime = counterfactual_value(
        baseline, terms, quote, quote.out_estimate.normalized, g1
    )
    return Price(value), DecisionVector(o_prime, g1, f_prime)
