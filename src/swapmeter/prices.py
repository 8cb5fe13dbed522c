"""Realized and counterfactual swap prices with gas internalization.

A price is output token per input token, both in normalized units. When
gas is paid externally it is folded into the WETH side of the trade:

    external gas, WETH out:  p = (o - g(b+f)) / i
    external gas, WETH in:   p = o / (i + g(b+f))
    internalized gas:        p = o / i

with g(b+f) converted from wei to ETH. Counterfactual prices replace
(o, g, f) with baseline values (o', g', f'); see `counterfactual_value`,
the one pricing kernel, which prices a provider's served values.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal
from typing import TYPE_CHECKING

from swapmeter.errors import NonPositiveAdjustedInput
from swapmeter.model import Direction, TokenAmount, TradeRecord

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
    return DecisionVector(
        _gross_output(trade), Decimal(trade.gas.gas_used), Decimal(trade.gas.priority_fee)
    )


def _gross_output(trade: TradeRecord) -> TokenAmount:
    """The o of `realized_decision_vector`."""
    o = trade.amount_out
    if trade.gas_internalized and trade.direction is Direction.WETH_OUT:
        return TokenAmount(o.raw + trade.gas.cost_wei, 18)
    return o


@dataclass(frozen=True, slots=True)
class TradeTerms:
    """What every price of one trade at baseline priority fee f' shares, as values.

    i is the normalized input, per_gas_eth is b + f' in ETH per gas, p is
    the realized price, and (o, g, f) the realized decision vector, o
    normalized. dp_do = 1/i and dp_dg = -(b+f')*1e-18/i are the partials
    that x' does not change, for a WETH-out trade; None otherwise.
    """

    trade: TradeRecord
    f_prime: Decimal
    i: Decimal
    per_gas_eth: Decimal
    p: Decimal
    o: Decimal
    g: Decimal
    f: Decimal
    dp_do: Decimal | None
    dp_dg: Decimal | None


def trade_terms(trade: TradeRecord, f_prime: Decimal) -> TradeTerms:
    if f_prime < 0:
        raise ValueError("g and f must be nonnegative")
    i = trade.amount_in.normalized
    per_gas_eth = (Decimal(trade.gas.base_fee) + f_prime) * WEI_IN_ETH
    dp_do = dp_dg = None
    if trade.direction is Direction.WETH_OUT:
        dp_do = Decimal(1) / i
        dp_dg = -per_gas_eth / i
    return TradeTerms(
        trade, f_prime, i, per_gas_eth, realized_price(trade).value,
        _gross_output(trade).normalized, Decimal(trade.gas.gas_used),
        Decimal(trade.gas.priority_fee), dp_do, dp_dg,
    )


def counterfactual_value(
    baseline: "BaselineProvider",
    terms: TradeTerms,
    offset: int,
    served: tuple[int, int, Decimal],
    o_prime: Decimal,
    g_prime: Decimal,
) -> tuple[Decimal, int, Decimal]:
    """Baseline price value p' at gas g', and the baseline output it prices.

    `served` is the pair's (o' raw, o' decimals, g' quoted) and o_prime its
    normalized output. The output, raw and normalized, is the served one
    or, for an internalized WETH-in trade, the provider's re-quote
    (`output_at`) at the gas-adjusted input i' = i - g'(b+f'), whose
    denominator i' + g'(b+f') collapses back to i: NonPositiveAdjustedInput
    when that gas cost reaches the input amount.
    """
    if g_prime < 0:
        raise ValueError("g and f must be nonnegative")
    trade = terms.trade
    cost = g_prime * terms.per_gas_eth  # g'(b+f') in ETH
    i = terms.i
    if trade.direction is Direction.WETH_OUT:
        return (o_prime - cost) / i, served[0], o_prime
    if not trade.gas_internalized:
        return o_prime / (i + cost), served[0], o_prime
    if i - cost <= 0:
        raise NonPositiveAdjustedInput(
            f"trade {trade.trade_id!r}: baseline gas cost {cost} ETH >= input {i} ETH"
        )
    cost_wei = int((cost.scaleb(18)).to_integral_value(rounding=ROUND_FLOOR))
    out_raw = baseline.output_at(trade, offset, served[0], trade.amount_in.raw - cost_wei)
    out = Decimal(out_raw).scaleb(-served[1])
    return out / i, out_raw, out


def counterfactual_price(
    trade: TradeRecord,
    baseline: "BaselineProvider",
    offset: int,
    f_prime: Decimal,
) -> tuple[Price, DecisionVector]:
    """Baseline price p' and baseline decision vector x' = (o', g', f').

    g' is the gas as served; wrap the provider in `CalibratedProvider` to
    read it as g'_quoted/beta1. Raises the provider's QuoteUnavailable /
    SnapshotUnavailable and the kernel's NonPositiveAdjustedInput.
    """
    terms = trade_terms(trade, f_prime)
    served = baseline.serve(trade, offset)
    raw, decimals, gas = served
    value, out_raw, _ = counterfactual_value(
        baseline, terms, offset, served, Decimal(raw).scaleb(-decimals), gas
    )
    return Price(value), DecisionVector(TokenAmount(out_raw, decimals), gas, f_prime)
