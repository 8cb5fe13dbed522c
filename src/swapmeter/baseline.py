"""Baseline quote providers: replay of recorded quotes and a synthetic router.

A provider maps (trade, block offset) to a counterfactual quote
(o', g'), served as plain values. Providers are deterministic: the same
request always gets the same quote.
"""

from __future__ import annotations

import abc
from decimal import Decimal
from typing import Hashable, Mapping, Sequence

from swapmeter.calibration import GasCalibration
from swapmeter.config import RunConfig
from swapmeter.errors import ConfigError, QuoteUnavailable, SnapshotUnavailable, SwapmeterError
from swapmeter.ingest import QuoteSet
from swapmeter.model import RAW_DIGITS, Direction, Pool, Quote, TokenAmount, TradeRecord
from swapmeter.router import Snapshot, route_optimal_split, shared_decimals

_WETH_IN = Direction.WETH_IN


class ReservesPastBound(ConfigError):
    """An offset's pools sum one reserve column to 10^RAW_DIGITS base units or more."""

    def __init__(self, offset: int, column: str):
        self.column = column
        super().__init__(f"offset {offset}: the pools' {column}_raw sum to 10^{RAW_DIGITS} or more")


class BaselineProvider(abc.ABC):
    """Contract for the baseline function mapping (input, offset) -> (o', g').

    `serve` gives the pair's quote at the trade's own input as plain values;
    `quote` builds a `Quote` of them. `output_at` re-quotes the output alone
    at the gas-adjusted input of a gas-internalized WETH-in trade, whose
    price reads only the re-quoted output. `requote_scope` names the
    offsets that serve and re-quote alike. Only `SyntheticRouterProvider` calls the router.
    """

    provider_id: str

    @abc.abstractmethod
    def serve(self, trade: TradeRecord, offset: int) -> tuple[int, int, Decimal]:
        """The pair's quote at the trade's input: (o' raw, o' decimals, g')."""

    @abc.abstractmethod
    def output_at(self, trade: TradeRecord, offset: int, out_raw: int, amount_raw: int) -> int:
        """Raw output o'' at raw input amount_raw, given the pair's served output out_raw."""

    def requote_scope(self, offset: int) -> Hashable:
        """What `serve` and `output_at` read of an offset: offsets of equal scopes serve alike.

        Offsets of one scope serve equal values, or raise the same
        exclusion, and re-quote alike. By default each offset is its own
        scope. The analysis pass serves and prices each trade once per scope.
        """
        return offset

    def quote(self, trade: TradeRecord, offset: int) -> Quote:
        raw, decimals, gas = self.serve(trade, offset)
        return Quote(trade.trade_id, offset, TokenAmount(raw, decimals), gas, self.provider_id)


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
        self._table = quotes.table(self.provider_id)

    def serve(self, trade: TradeRecord, offset: int) -> tuple[int, int, Decimal]:
        served = self._table.get((trade.trade_id, offset))
        if served is None:
            raise QuoteUnavailable(trade.trade_id, offset, f"provider {self.provider_id!r}")
        return served

    def output_at(self, trade: TradeRecord, offset: int, out_raw: int, amount_raw: int) -> int:
        return out_raw * amount_raw // trade.amount_in.raw


class SyntheticRouterProvider(BaselineProvider):
    """Optimal-split CPMM routing over per-offset pool snapshots.

    `route` is the one routing rule, for the baseline and synth alike: it
    solves at gas price b + f' (the trade's base fee plus the configured
    baseline priority fee) and estimates gas as the route's hop gas plus a
    fixed per-transaction overhead. Every pool, at every offset, must have
    the same token decimals, and so must each quoted trade's token side,
    and an offset's WETH and token reserves must each sum below 10^60:
    ConfigError otherwise (ReservesPastBound for the sums).

    Snapshots with identical contents are interned at construction as one
    `Snapshot`, which keeps the solver tables of its routes. An offset's
    requote scope is that interned snapshot itself (None for an offset
    without one), so offsets that share a snapshot are served and priced
    once per trade. Each call solves its route anew.
    """

    provider_id = "synthetic-router"

    def __init__(
        self,
        snapshots: Mapping[int, Sequence[Pool]],
        f_prime_wei: Decimal,
        *,
        overhead_gas: int = RunConfig._field_defaults["overhead_gas"],
    ):
        self._decimals = shared_decimals(pool for pools in snapshots.values() for pool in pools)
        interned: dict[Snapshot, Snapshot] = {}
        self._snapshots: dict[int, Snapshot] = {}
        for offset, pools in snapshots.items():
            for column in ("reserve_weth", "reserve_token"):  # a route's output is below the sum
                if sum(getattr(pool, column).raw for pool in pools) >= 10**RAW_DIGITS:
                    raise ReservesPastBound(offset, column)
            pools = Snapshot(pools)
            self._snapshots[offset] = interned.setdefault(pools, pools)
        self._f_prime = Decimal(f_prime_wei)
        self._overhead = overhead_gas

    def route(
        self, direction: Direction, base_fee: int, offset: int, amount: TokenAmount
    ) -> tuple[int, int, Decimal]:
        """(out raw, out decimals, hop gas + overhead) of `amount` routed at gas price b + f'."""
        snapshot = self._snapshots.get(offset)
        if snapshot is None:
            raise SnapshotUnavailable(offset)
        gas_price = Decimal(base_fee) + self._f_prime
        route = route_optimal_split(snapshot, amount, direction, gas_price)
        out = route.total_out
        return out.raw, out.decimals, Decimal(route.total_gas + self._overhead)

    def serve(self, trade: TradeRecord, offset: int) -> tuple[int, int, Decimal]:
        token = trade.amount_out if trade.direction is _WETH_IN else trade.amount_in
        if self._decimals is not None and token.decimals != self._decimals:
            raise ConfigError(
                f"trade {trade.trade_id} has token decimals {token.decimals};"
                f" the pools have {self._decimals}"
            )
        return self.route(trade.direction, trade.gas.base_fee, offset, trade.amount_in)

    def output_at(self, trade: TradeRecord, offset: int, out_raw: int, amount_raw: int) -> int:
        amount = TokenAmount(amount_raw, trade.amount_in.decimals)
        return self.route(trade.direction, trade.gas.base_fee, offset, amount)[0]

    def requote_scope(self, offset: int) -> Snapshot | None:
        return self._snapshots.get(offset)


class CalibratedProvider(BaselineProvider):
    """Wraps a provider and serves every gas estimate as g'/beta1."""

    def __init__(self, inner: BaselineProvider, calibration: GasCalibration):
        self._inner = inner
        self._calibration = calibration
        self.provider_id = inner.provider_id

    def serve(self, trade: TradeRecord, offset: int) -> tuple[int, int, Decimal]:
        raw, decimals, gas = self._inner.serve(trade, offset)
        return raw, decimals, gas / self._calibration.beta1

    def output_at(self, trade: TradeRecord, offset: int, out_raw: int, amount_raw: int) -> int:
        return self._inner.output_at(trade, offset, out_raw, amount_raw)

    def requote_scope(self, offset: int) -> Hashable:
        return self._inner.requote_scope(offset)
