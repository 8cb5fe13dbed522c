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
from swapmeter.errors import QuoteUnavailable, SnapshotUnavailable
from swapmeter.ingest import QuoteSet
from swapmeter.model import Pool, Quote, TokenAmount, TradeRecord
from swapmeter.router import RouteResult, route_optimal_split

DEFAULT_OVERHEAD_GAS = 80_000


class BaselineProvider(abc.ABC):
    """Contract for the baseline function mapping (input, offset) -> (o', g')."""

    provider_id: str

    @abc.abstractmethod
    def quote(
        self, trade: TradeRecord, offset: int, amount_in: TokenAmount | None = None
    ) -> Quote:
        """Quote the trade at the given offset.

        amount_in overrides the trade's input (used for the gas-adjusted
        re-quote of gas-internalized WETH-in trades); None means the
        trade's own amount.
        """


class ReplayProvider(BaselineProvider):
    """Serves quotes recorded in a quote file.

    Re-quotes at an adjusted input are served by linear rescaling of the
    stored output (o'' = o' * i''/i, gas unchanged): the replay curve is
    exactly linear through the recorded point.
    """

    def __init__(self, quotes: QuoteSet):
        providers = quotes.providers()
        if len(providers) != 1:
            raise ValueError(f"quote set has providers {providers}; expected one")
        self.provider_id = providers[0]
        self._quotes = quotes

    def quote(
        self, trade: TradeRecord, offset: int, amount_in: TokenAmount | None = None
    ) -> Quote:
        stored = self._quotes.get(trade.trade_id, offset, self.provider_id)
        if stored is None:
            raise QuoteUnavailable(trade.trade_id, offset, f"provider {self.provider_id!r}")
        if amount_in is None or amount_in.raw == trade.amount_in.raw:
            return stored
        scaled_raw = stored.out_estimate.raw * amount_in.raw // trade.amount_in.raw
        return Quote(
            trade_id=stored.trade_id,
            offset=stored.offset,
            out_estimate=TokenAmount(scaled_raw, stored.out_estimate.decimals),
            gas_estimate=stored.gas_estimate,
            provider_id=stored.provider_id,
        )


class SyntheticRouterProvider(BaselineProvider):
    """Optimal-split CPMM routing over per-offset pool snapshots.

    Gas estimates are the route's hop gas plus a fixed per-transaction
    overhead. The routing objective prices gas at the trade's base fee
    plus the configured baseline priority fee.

    Snapshots with identical contents are interned at construction, and
    each route is solved once per (snapshot, amount, direction, gas
    price): offsets that share a snapshot, and re-quotes at the same
    adjusted input, reuse the solved route.
    """

    def __init__(
        self,
        snapshots: Mapping[int, Sequence[Pool]],
        f_prime_wei: Decimal,
        *,
        overhead_gas: int = DEFAULT_OVERHEAD_GAS,
    ):
        interned: dict[tuple[Pool, ...], tuple[tuple[Pool, ...], int]] = {}
        self._snapshots: dict[int, tuple[tuple[Pool, ...], int]] = {}
        for offset, pools in snapshots.items():
            pools = tuple(pools)
            self._snapshots[offset] = interned.setdefault(pools, (pools, len(interned)))
        self._routes: dict[tuple, RouteResult] = {}
        self._f_prime = Decimal(f_prime_wei)
        self._overhead = overhead_gas
        self.provider_id = "synthetic-router"

    def quote(
        self, trade: TradeRecord, offset: int, amount_in: TokenAmount | None = None
    ) -> Quote:
        snapshot = self._snapshots.get(offset)
        if snapshot is None:
            raise SnapshotUnavailable(offset)
        pools, snapshot_key = snapshot
        amount = trade.amount_in if amount_in is None else amount_in
        gas_price = Decimal(trade.gas.base_fee) + self._f_prime
        key = (snapshot_key, amount.raw, amount.decimals, trade.direction, gas_price)
        route = self._routes.get(key)
        if route is None:
            route = route_optimal_split(pools, amount, trade.direction, gas_price)
            self._routes[key] = route
        return Quote(
            trade_id=trade.trade_id,
            offset=offset,
            out_estimate=route.total_out,
            gas_estimate=Decimal(route.total_gas + self._overhead),
            provider_id=self.provider_id,
        )


class CalibratedProvider(BaselineProvider):
    """Wraps a provider and serves every gas estimate as g'/beta1."""

    def __init__(self, inner: BaselineProvider, calibration: GasCalibration):
        self._inner = inner
        self._calibration = calibration
        self.provider_id = inner.provider_id

    def quote(
        self, trade: TradeRecord, offset: int, amount_in: TokenAmount | None = None
    ) -> Quote:
        quote = self._inner.quote(trade, offset, amount_in)
        return replace(quote, gas_estimate=quote.gas_estimate / self._calibration.beta1)
