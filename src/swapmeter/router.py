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
from decimal import Decimal
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from swapmeter.errors import ConfigError, NoPools
from swapmeter.model import Direction, Pool, TokenAmount

# Hops carrying less than this share of the input are dropped from a split.
SHARE_FLOOR = 1e-6

# Exhaustive subset enumeration up to this many pools; greedy prefixes after.
EXHAUSTIVE_LIMIT = 8


class RouteResult(NamedTuple):
    """A routed input's exact output, summed over its legs, and the legs' hop gas."""

    total_out: TokenAmount
    total_gas: int


def _oriented(pool: Pool, direction: Direction) -> tuple[int, int, int, int]:
    """(reserve_in_raw, reserve_out_raw, in_decimals, out_decimals) for the swap direction."""
    if direction is Direction.WETH_IN:
        return pool.reserve_weth.raw, pool.reserve_token.raw, 18, pool.reserve_token.decimals
    return pool.reserve_token.raw, pool.reserve_weth.raw, pool.reserve_token.decimals, 18


def anchor_pool(pools: Iterable[Pool]) -> Pool:
    """The pool with the largest WETH reserve, ties to the larger pool_id; gas is priced at it."""
    return max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))


def shared_decimals(pools: Iterable[Pool]) -> int | None:
    """The token decimals all `pools` share, None for no pools; ConfigError if they differ."""
    decimals = sorted({pool.reserve_token.decimals for pool in pools})
    if len(decimals) > 1:
        raise ConfigError(f"all pools must share the token's decimals; got {decimals}")
    return decimals[0] if decimals else None


def cpmm_swap_out(pool: Pool, raw_in: int, direction: Direction) -> int:
    """Exact integer constant-product raw output of raw input raw_in, fee taken on the input."""
    if raw_in <= 0:
        raise ValueError("amount_in must be positive")
    r_in, r_out, _, _ = _oriented(pool, direction)
    a_fee = raw_in * (10000 - pool.fee_bps)
    # floor(R_out * a*(1-phi) / (R_in + a*(1-phi))) as a single rational
    return (r_out * a_fee) // (r_in * 10000 + a_fee)


def marginal_price(pool: Pool, direction: Direction) -> Decimal:
    """Zero-size after-fee marginal price (R_out/R_in)*(1 - phi), normalized units."""
    r_in, r_out, in_decimals, out_decimals = _oriented(pool, direction)
    ratio = Decimal(r_out).scaleb(-out_decimals) / Decimal(r_in).scaleb(-in_decimals)
    return ratio * (Decimal(10000 - pool.fee_bps) / Decimal(10000))


class _PoolCurve:
    """Float view of one pool's normalized output curve (for the solver only).

    out(x) = rc*x / (r_in + c*x) with rc = R_out*c; s = sqrt(R_out*R_in/c) and
    t = R_in/c are the pool's terms of the equal-marginal-price split.
    """

    __slots__ = ("index", "pool", "r_in", "c", "rc", "s", "t", "gas")

    def __init__(self, index: int, pool: Pool, direction: Direction):
        r_in_raw, r_out_raw, in_decimals, out_decimals = _oriented(pool, direction)
        r_in = r_in_raw / 10.0**in_decimals
        r_out = r_out_raw / 10.0**out_decimals
        c = 1.0 - pool.fee_bps / 10000.0
        self.index = index
        self.pool = pool
        self.r_in = r_in
        self.c = c
        self.rc = r_out * c
        self.s = math.sqrt(r_out * r_in / c)
        self.t = r_in / c
        self.gas = pool.gas_per_hop


class _Tables(NamedTuple):
    """What every route over one snapshot in one direction shares.

    The candidate subsets in enumeration order: first the one-pool ones
    (`singles`), then each larger one with the sums its split and score
    need (`multis`: curves, sum of t, sum of s, max of t, hop gas, and the
    curve of largest t/s, whose leg is the first to turn negative as the
    input shrinks).
    """

    singles: tuple[_PoolCurve, ...]
    multis: tuple[tuple[tuple[_PoolCurve, ...], float, float, float, int, _PoolCurve], ...]
    anchor_price: float | None  # the anchor pool's marginal price; None when WETH is out
    out_decimals: int


def _candidate_subsets(curves: list[_PoolCurve]) -> list[tuple[_PoolCurve, ...]]:
    """Every subset up to EXHAUSTIVE_LIMIT pools, by size; else the greedy prefixes."""
    if len(curves) <= EXHAUSTIVE_LIMIT:
        subsets: list[tuple[_PoolCurve, ...]] = []
        for size in range(1, len(curves) + 1):
            subsets.extend(combinations(curves, size))
        return subsets
    ranked = sorted(curves, key=lambda c: (-(c.rc / c.r_in), c.index))  # zero-size price
    return [tuple(ranked[: k + 1]) for k in range(len(ranked))]


def _build_tables(pools: tuple[Pool, ...], direction: Direction) -> _Tables:
    curves = [_PoolCurve(i, p, direction) for i, p in enumerate(pools)]
    singles, multis = [], []
    for subset in _candidate_subsets(curves):
        if len(subset) == 1:
            singles.append(subset[0])
            continue
        t = [c.t for c in subset]
        tightest = max(subset, key=lambda c: c.t / c.s)
        gas = sum([c.gas for c in subset])
        multis.append((subset, sum(t), sum([c.s for c in subset]), max(t), gas, tightest))
    # Gas is valued at the anchor pool's zero-size price.
    anchor_price = None
    if direction is Direction.WETH_IN:
        anchor_price = float(marginal_price(anchor_pool(pools), direction))
    return _Tables(tuple(singles), tuple(multis), anchor_price, _oriented(pools[0], direction)[3])


class Snapshot(tuple):
    """A pool snapshot: a tuple of pools that keeps its solver tables.

    Each direction's tables are built on the first route over the snapshot
    in that direction and kept with it, so every later route shares them.
    """

    def __init__(self, pools: Sequence[Pool] = ()):
        self._tables: dict[Direction, _Tables] = {}

    def tables(self, direction: Direction) -> _Tables:
        tables = self._tables.get(direction)
        if tables is None:
            tables = self._tables[direction] = _build_tables(self, direction)
        return tables


def route_optimal_split(
    pools: Sequence[Pool],
    amount_in: TokenAmount,
    direction: Direction,
    gas_price_wei: Decimal,
) -> RouteResult:
    """Split an input across pools maximizing output net of hop gas costs.

    What depends only on the pools and the direction is taken from their
    tables: a `Snapshot`'s own, or a fresh one's for any other sequence. A
    call computes the subsets' splits and scores and realizes the winner
    exactly.
    """
    if not pools:
        raise NoPools("route_optimal_split requires at least one pool")
    if amount_in.raw <= 0:
        raise ValueError("amount_in must be positive")

    if not isinstance(pools, Snapshot):
        pools = Snapshot(pools)
    tables = pools.tables(direction)
    x_total = amount_in.raw / 10**amount_in.decimals  # correctly rounded, as float(normalized)
    gas_unit_value = float(gas_price_wei) * 1e-18  # one gas unit in output-token units
    if tables.anchor_price is not None:
        gas_unit_value = gas_unit_value * tables.anchor_price

    best_net = -math.inf
    best: tuple[tuple[_PoolCurve, ...], list[float]] | None = None
    for c in tables.singles:
        net = c.rc * x_total / (c.r_in + c.c * x_total) - gas_unit_value * c.gas
        if net > best_net:
            best_net = net
            best = ((c,), [x_total])
    # A larger subset's split equalizes after-fee marginal prices in closed
    # form. Cancellation noise (tiny inputs against huge reserves) is clamped
    # to zero: a subset with a zeroed leg still pays that hop's gas in the
    # score, so it is dominated by the smaller subset enumerated separately
    # and can never win incorrectly. A subset with a negative leg is skipped,
    # most often on its tightest leg alone, computed as the full check does.
    for curves, sum_t, sum_s, max_t, gas, tightest in tables.multis:
        scale = (x_total + sum_t) / sum_s
        noise = 1e-9 * (x_total + max_t)
        if tightest.s * scale - tightest.t < -noise:
            continue
        xs = [c.s * scale - c.t for c in curves]
        if min(xs) < -noise:
            continue
        xs = [max(x, 0.0) for x in xs]
        if sum(xs) <= 0.0:
            continue
        net = sum([c.rc * x / (c.r_in + c.c * x) for c, x in zip(curves, xs)])
        net -= gas_unit_value * gas
        if net > best_net:
            best_net = net
            best = (curves, xs)

    if best is None:  # defensive: single-pool splits are always feasible
        raise NoPools("no feasible split found")
    curves, xs = best

    # Drop economically null hops, then renormalize the remaining shares.
    kept = [(c, x) for c, x in zip(curves, xs) if x / x_total >= SHARE_FLOOR]
    if not kept:
        kept = [max(zip(curves, xs), key=lambda cx: cx[1])]
    raw_total = amount_in.raw
    if len(kept) == 1:  # the allocation below gives one leg the whole input
        raws = [raw_total]
    else:
        # Integer allocation by largest remainder, in exact integer arithmetic
        # so the raws sum to the input even when they exceed float precision.
        kept_total = sum([x for _, x in kept])
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
    total_gas = 0
    for (curve, _), raw in zip(kept, raws):
        if raw == 0:
            continue
        total_out_raw += cpmm_swap_out(curve.pool, raw, direction)
        total_gas += curve.gas
    return RouteResult(TokenAmount(total_out_raw, tables.out_decimals), total_gas)
