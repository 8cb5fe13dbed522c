"""Baseline quote providers: replay of recorded quotes and a synthetic router.

A provider maps (trade, block offset) to a counterfactual quote
(o', g'). Providers are deterministic: the same request always gets the
same quote.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from decimal import Decimal
from typing import Mapping, Sequence

from swapmeter.calibration import GasCalibration
from swapmeter.config import DEFAULT_OVERHEAD_GAS
from swapmeter.errors import ConfigError, QuoteUnavailable, SnapshotUnavailable, SwapmeterError
from swapmeter.ingest import QuoteSet
from swapmeter.model import Direction, Pool, Quote, TokenAmount, TradeRecord
from swapmeter.router import Snapshot, route_optimal_split, shared_decimals

_WETH_IN = Direction.WETH_IN


class BaselineProvider(abc.ABC):
    """Contract for the baseline function mapping (input, offset) -> (o', g').

    `quote` serves the trade's own input. `output_at` re-quotes the output
    of a served quote alone at another input: the gas-adjusted input of a
    gas-internalized WETH-in trade, whose price reads only the re-quoted
    output.
    """

    provider_id: str

    @abc.abstractmethod
    def quote(self, trade: TradeRecord, offset: int) -> Quote:
        """Quote the trade's input at the given offset."""

    @abc.abstractmethod
    def output_at(self, trade: TradeRecord, quote: Quote, amount_in: TokenAmount) -> TokenAmount:
        """The baseline output o'' of the trade's served `quote` at input amount_in."""


class ReplayProvider(BaselineProvider):
    """Serves quotes recorded in a quote file.

    Re-quotes at an adjusted input are served by linear rescaling of the
    stored output (o'' = o' * i''/i): the replay curve is exactly linear
    through the recorded point.
    """

    def __init__(self, quotes: QuoteSet):
        providers = quotes.providers()
        if len(providers) != 1:
            raise SwapmeterError(f"quote set has providers {providers}; expected one")
        self.provider_id = providers[0]
        self._quotes = quotes

    def quote(self, trade: TradeRecord, offset: int) -> Quote:
        stored = self._quotes.get(trade.trade_id, offset, self.provider_id)
        if stored is None:
            raise QuoteUnavailable(trade.trade_id, offset, f"provider {self.provider_id!r}")
        return stored

    def output_at(self, trade: TradeRecord, quote: Quote, amount_in: TokenAmount) -> TokenAmount:
        out = quote.out_estimate
        return TokenAmount(out.raw * amount_in.raw // trade.amount_in.raw, out.decimals)


class SyntheticRouterProvider(BaselineProvider):
    """Optimal-split CPMM routing over per-offset pool snapshots.

    Gas estimates are the route's hop gas plus a fixed per-transaction
    overhead. The routing objective prices gas at the trade's base fee
    plus the configured baseline priority fee. Every pool, at every
    offset, must have the same token decimals, and so must each quoted
    trade's token side: ConfigError otherwise.

    Snapshots with identical contents are interned at construction as one
    `Snapshot`, which keeps the solver tables of its routes. Each route is
    solved once per (snapshot, amount, direction, base fee): offsets that
    share a snapshot, and re-quotes at the same adjusted input, reuse the
    solved route's output and gas.
    """

    def __init__(
        self,
        snapshots: Mapping[int, Sequence[Pool]],
        f_prime_wei: Decimal,
        *,
        overhead_gas: int = DEFAULT_OVERHEAD_GAS,
    ):
        self._decimals = shared_decimals(pool for pools in snapshots.values() for pool in pools)
        interned: dict[Snapshot, tuple[Snapshot, int]] = {}
        self._snapshots: dict[int, tuple[Snapshot, int]] = {}
        for offset, pools in snapshots.items():
            pools = Snapshot(pools)
            self._snapshots[offset] = interned.setdefault(pools, (pools, len(interned)))
        # (snapshot id, amount raw, amount decimals, WETH in, base fee) -> (o', g')
        self._routes: dict[tuple, tuple[TokenAmount, Decimal]] = {}
        self._f_prime = Decimal(f_prime_wei)
        self._overhead = overhead_gas
        self.provider_id = "synthetic-router"

    def _served(
        self, trade: TradeRecord, offset: int, amount: TokenAmount
    ) -> tuple[TokenAmount, Decimal]:
        """The routed output and gas estimate of the trade's swap at `amount`."""
        snapshot = self._snapshots.get(offset)
        if snapshot is None:
            raise SnapshotUnavailable(offset)
        pools, snapshot_id = snapshot
        base_fee = trade.gas.base_fee
        key = (snapshot_id, amount.raw, amount.decimals, trade.direction is _WETH_IN, base_fee)
        served = self._routes.get(key)
        if served is None:
            gas_price = Decimal(base_fee) + self._f_prime
            route = route_optimal_split(pools, amount, trade.direction, gas_price)
            served = (route.total_out, Decimal(route.total_gas + self._overhead))
            self._routes[key] = served
        return served

    def quote(self, trade: TradeRecord, offset: int) -> Quote:
        token = trade.amount_out if trade.direction is _WETH_IN else trade.amount_in
        if self._decimals is not None and token.decimals != self._decimals:
            raise ConfigError(
                f"trade {trade.trade_id} has token decimals {token.decimals};"
                f" the pools have {self._decimals}"
            )
        out, gas = self._served(trade, offset, trade.amount_in)
        return Quote(trade.trade_id, offset, out, gas, self.provider_id)

    def output_at(self, trade: TradeRecord, quote: Quote, amount_in: TokenAmount) -> TokenAmount:
        return self._served(trade, quote.offset, amount_in)[0]


class CalibratedProvider(BaselineProvider):
    """Wraps a provider and serves every gas estimate as g'/beta1."""

    def __init__(self, inner: BaselineProvider, calibration: GasCalibration):
        self._inner = inner
        self._calibration = calibration
        self.provider_id = inner.provider_id

    def quote(self, trade: TradeRecord, offset: int) -> Quote:
        quote = self._inner.quote(trade, offset)
        return replace(quote, gas_estimate=quote.gas_estimate / self._calibration.beta1)

    def output_at(self, trade: TradeRecord, quote: Quote, amount_in: TokenAmount) -> TokenAmount:
        return self._inner.output_at(trade, quote, amount_in)
