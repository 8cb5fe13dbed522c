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
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal
from enum import Enum
from typing import TYPE_CHECKING

from swapmeter.errors import NonPositiveAdjustedInput
from swapmeter.model import Direction, Quote, TokenAmount, TradeRecord
from swapmeter.numeric import wei_to_eth

if TYPE_CHECKING:
    from swapmeter.baseline import BaselineProvider


class PriceCase(Enum):
    REALIZED_EXTERNAL_GAS = "realized_external_gas"
    REALIZED_INTERNAL_GAS = "realized_internal_gas"
    COUNTERFACTUAL_EXTERNAL_GAS = "counterfactual_external_gas"
    COUNTERFACTUAL_INTERNAL_GAS = "counterfactual_internal_gas"


@dataclass(frozen=True, slots=True)
class Price:
    """A signed price plus the formula case that produced it.

    Negative values are valid only for WETH-out trades whose gas cost
    exceeds the output.
    """

    value: Decimal
    case_tag: PriceCase


@dataclass(frozen=True, slots=True)
class DecisionVector:
    """The controllable triple (o, g, f): output amount, gas units, priority fee."""

    o: TokenAmount
    g: Decimal
    f: Decimal

    def __post_init__(self):
        if self.g < 0 or self.f < 0:
            raise ValueError("g and f must be nonnegative")


def gas_cost_eth(gas_units: Decimal | int, per_gas_wei: Decimal | int) -> Decimal:
    """gas_units * per_gas_wei, converted wei -> ETH exactly."""
    return (Decimal(gas_units) * Decimal(per_gas_wei)).scaleb(-18)


def realized_price(trade: TradeRecord) -> Price:
    i = trade.amount_in.normalized
    o = trade.amount_out.normalized
    if trade.gas_internalized:
        return Price(o / i, PriceCase.REALIZED_INTERNAL_GAS)
    cost = wei_to_eth(trade.gas.cost_wei)
    if trade.direction is Direction.WETH_OUT:
        value = (o - cost) / i
    else:
        value = o / (i + cost)
    return Price(value, PriceCase.REALIZED_EXTERNAL_GAS)


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


def counterfactual_price(
    trade: TradeRecord,
    baseline: "BaselineProvider",
    offset: int,
    f_prime: Decimal,
    *,
    quote: Quote | None = None,
    beta1: Decimal | None = None,
) -> tuple[Price, DecisionVector]:
    """Baseline price p' and baseline decision vector x' = (o', g', f').

    `quote` is the pair's quote when the caller already fetched it (else
    it is fetched here). Its gas is read as g' = g'_quoted/beta1, or as
    quoted when beta1 is None, so one quote prices every calibration
    slope. Only internalized WETH-in trades call the provider again, at
    the gas-adjusted input.

    Raises QuoteUnavailable / SnapshotUnavailable if the provider cannot
    quote, and NonPositiveAdjustedInput when an internalized WETH-in
    trade's gas cost reaches the input amount.
    """
    if quote is None:
        quote = baseline.quote(trade, offset)
    g1 = quote.gas_estimate if beta1 is None else quote.gas_estimate / beta1
    cost = gas_cost_eth(g1, Decimal(trade.gas.base_fee) + f_prime)
    i = trade.amount_in.normalized

    if not trade.gas_internalized:
        if trade.direction is Direction.WETH_OUT:
            value = (quote.out_estimate.normalized - cost) / i
        else:
            value = quote.out_estimate.normalized / (i + cost)
        return (
            Price(value, PriceCase.COUNTERFACTUAL_EXTERNAL_GAS),
            DecisionVector(quote.out_estimate, g1, f_prime),
        )

    if trade.direction is Direction.WETH_OUT:
        value = (quote.out_estimate.normalized - cost) / i
        return (
            Price(value, PriceCase.COUNTERFACTUAL_INTERNAL_GAS),
            DecisionVector(quote.out_estimate, g1, f_prime),
        )

    # Internalized, WETH in: re-quote at the gas-adjusted input. The
    # denominator i' + g'(b+f') collapses back to i.
    adjusted = i - cost
    if adjusted <= 0:
        raise NonPositiveAdjustedInput(
            f"trade {trade.trade_id!r}: baseline gas cost {cost} ETH >= input {i} ETH"
        )
    cost_wei = int((cost.scaleb(18)).to_integral_value(rounding=ROUND_FLOOR))
    adjusted_amount = TokenAmount(trade.amount_in.raw - cost_wei, 18)
    second = baseline.quote(trade, offset, amount_in=adjusted_amount)
    value = second.out_estimate.normalized / i
    return (
        Price(value, PriceCase.COUNTERFACTUAL_INTERNAL_GAS),
        DecisionVector(second.out_estimate, g1, f_prime),
    )
