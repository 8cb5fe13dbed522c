"""Constant-product routing: single-pool swap math and optimal splits.

Per-pool output for input x with fee phi is concave:

    out(x) = R_out * c*x / (R_in + c*x),   c = 1 - phi

so for a fixed subset of pools the optimum equalizes after-fee marginal
prices, which has a closed form. The router enumerates pool subsets
(exhaustively up to 8 pools, by descending zero-size marginal price
beyond that), scores each subset's output net of its gas cost, and
realizes the winner with exact integer swap math.

Gas is valued in output-token units at the zero-size marginal price of
the pool with the largest WETH reserve; when the output side is WETH no
conversion is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from itertools import combinations
from typing import Sequence

from swapmeter.errors import NoPools
from swapmeter.model import Direction, Pool, TokenAmount

# Hops carrying less than this share of the input are dropped from a split.
SHARE_FLOOR = 1e-6

# Exhaustive subset enumeration up to this many pools; greedy prefixes after.
EXHAUSTIVE_LIMIT = 8


@dataclass(frozen=True, slots=True)
class RouteResult:
    """An input split across pools: shares sum to 1, outputs are exact."""

    splits: tuple[tuple[str, Decimal], ...]
    total_out: TokenAmount
    total_gas: int


def _oriented(pool: Pool, direction: Direction) -> tuple[int, int, int]:
    """(reserve_in_raw, reserve_out_raw, out_decimals) for the swap direction."""
    if direction is Direction.WETH_IN:
        return pool.reserve_weth.raw, pool.reserve_token.raw, pool.reserve_token.decimals
    return pool.reserve_token.raw, pool.reserve_weth.raw, 18


def cpmm_swap_out(pool: Pool, amount_in: TokenAmount, direction: Direction) -> TokenAmount:
    """Exact integer constant-product output, fee taken on the input."""
    if amount_in.raw <= 0:
        raise ValueError("amount_in must be positive")
    r_in, r_out, out_decimals = _oriented(pool, direction)
    a_fee = amount_in.raw * (10000 - pool.fee_bps)
    # floor(R_out * a*(1-phi) / (R_in + a*(1-phi))) as a single rational
    out_raw = (r_out * a_fee) // (r_in * 10000 + a_fee)
    return TokenAmount(out_raw, out_decimals)


def marginal_price(pool: Pool, direction: Direction) -> Decimal:
    """Zero-size after-fee marginal price (R_out/R_in)*(1 - phi), normalized units."""
    r_in, r_out, out_decimals = _oriented(pool, direction)
    in_decimals = 18 if direction is Direction.WETH_IN else pool.reserve_token.decimals
    ratio = Decimal(r_out).scaleb(-out_decimals) / Decimal(r_in).scaleb(-in_decimals)
    return ratio * (Decimal(10000 - pool.fee_bps) / Decimal(10000))


class _PoolCurve:
    """Float view of one pool's normalized output curve (for the solver only)."""

    __slots__ = ("index", "r_in", "r_out", "c", "gas")

    def __init__(self, index: int, pool: Pool, direction: Direction):
        r_in_raw, r_out_raw, out_decimals = _oriented(pool, direction)
        in_decimals = 18 if direction is Direction.WETH_IN else pool.reserve_token.decimals
        self.index = index
        self.r_in = r_in_raw / 10.0**in_decimals
        self.r_out = r_out_raw / 10.0**out_decimals
        self.c = 1.0 - pool.fee_bps / 10000.0
        self.gas = pool.gas_per_hop

    def out(self, x: float) -> float:
        return self.r_out * self.c * x / (self.r_in + self.c * x)

    def marginal_at_zero(self) -> float:
        return self.r_out * self.c / self.r_in


def _equalized_split(curves: Sequence[_PoolCurve], x_total: float) -> list[float] | None:
    """Closed-form equal-marginal-price allocation; None if a leg is negative.

    Cancellation noise (tiny inputs against huge reserves) is clamped to
    zero: a subset with a zeroed leg still pays that hop's gas in the
    score, so it is dominated by the smaller subset enumerated separately
    and can never win incorrectly.
    """
    if len(curves) == 1:
        return [x_total]
    s = [math.sqrt(c.r_out * c.r_in / c.c) for c in curves]
    t = [c.r_in / c.c for c in curves]
    scale = (x_total + sum(t)) / sum(s)
    noise = 1e-9 * (x_total + max(t))
    xs = []
    for s_j, t_j in zip(s, t):
        x = s_j * scale - t_j
        if x < -noise:
            return None
        xs.append(max(x, 0.0))
    if sum(xs) <= 0.0:
        return None
    return xs


def _gas_to_out_units(
    pools: Sequence[Pool], direction: Direction, gas_price_wei: Decimal
) -> float:
    """Value of one gas unit in output-token units (float, solver-side)."""
    gas_eth = float(gas_price_wei) * 1e-18
    if direction is Direction.WETH_OUT:
        return gas_eth
    anchor = max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))
    return gas_eth * float(marginal_price(anchor, direction))


def _candidate_subsets(curves: list[_PoolCurve]) -> list[tuple[_PoolCurve, ...]]:
    if len(curves) <= EXHAUSTIVE_LIMIT:
        subsets: list[tuple[_PoolCurve, ...]] = []
        for size in range(1, len(curves) + 1):
            subsets.extend(combinations(curves, size))
        return subsets
    ranked = sorted(curves, key=lambda c: (-c.marginal_at_zero(), c.index))
    return [tuple(ranked[: k + 1]) for k in range(len(ranked))]


def route_optimal_split(
    pools: Sequence[Pool],
    amount_in: TokenAmount,
    direction: Direction,
    gas_price_wei: Decimal,
) -> RouteResult:
    """Split an input across pools maximizing output net of hop gas costs."""
    if not pools:
        raise NoPools("route_optimal_split requires at least one pool")
    if amount_in.raw <= 0:
        raise ValueError("amount_in must be positive")

    curves = [_PoolCurve(i, p, direction) for i, p in enumerate(pools)]
    x_total = float(amount_in.normalized)
    gas_unit_value = _gas_to_out_units(pools, direction, gas_price_wei)

    best_net = -math.inf
    best: tuple[tuple[_PoolCurve, ...], list[float]] | None = None
    for subset in _candidate_subsets(curves):
        xs = _equalized_split(subset, x_total)
        if xs is None:
            continue
        net = sum(c.out(x) for c, x in zip(subset, xs))
        net -= gas_unit_value * sum(c.gas for c in subset)
        if net > best_net:
            best_net = net
            best = (subset, xs)

    if best is None:  # defensive: single-pool splits are always feasible
        raise NoPools("no feasible split found")
    subset, xs = best

    # Drop economically null hops, then renormalize the remaining shares.
    kept = [(c, x) for c, x in zip(subset, xs) if x / x_total >= SHARE_FLOOR]
    if not kept:
        kept = [max(zip(subset, xs), key=lambda cx: cx[1])]
    kept_total = sum(x for _, x in kept)

    # Integer allocation by largest remainder, in exact integer arithmetic
    # so the raws sum to the input even when they exceed float precision.
    raw_total = amount_in.raw
    weights = [round(x / kept_total * (1 << 60)) for _, x in kept]
    weight_sum = sum(weights)
    raws = [raw_total * w // weight_sum for w in weights]
    remainder = raw_total - sum(raws)  # 0 <= remainder < len(kept)
    order = sorted(
        range(len(kept)), key=lambda j: (-(raw_total * weights[j] % weight_sum), j)
    )
    for j in order[:remainder]:
        raws[j] += 1

    total_out_raw = 0
    out_decimals = _oriented(pools[0], direction)[2]
    splits = []
    total_gas = 0
    for (curve, _), raw in zip(kept, raws):
        if raw == 0:
            continue
        pool = pools[curve.index]
        leg = cpmm_swap_out(pool, TokenAmount(raw, amount_in.decimals), direction)
        total_out_raw += leg.raw
        splits.append((pool.pool_id, Decimal(raw) / Decimal(raw_total)))
        total_gas += pool.gas_per_hop

    return RouteResult(
        splits=tuple(splits),
        total_out=TokenAmount(total_out_raw, out_decimals),
        total_gas=total_gas,
    )
