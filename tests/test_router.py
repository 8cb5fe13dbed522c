"""CPMM swap math and optimal-split routing against brute-force oracles."""

import math
import random
from decimal import Decimal
from itertools import combinations
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapmeter.errors import NoPools
from swapmeter.model import Direction, Pool, TokenAmount
from swapmeter.router import (
    EXHAUSTIVE_LIMIT,
    SHARE_FLOOR,
    RouteResult,
    Snapshot,
    cpmm_swap_out,
    marginal_price,
    route_optimal_split,
)

from conftest import GWEI, USDC, WETH, make_pool

# ---------------------------------------------------------------------------
# Reference solver: the router as it was before its per-snapshot tables,
# every part rebuilt on each call. The kernel must return equal routes.


def _ref_oriented(pool: Pool, direction: Direction) -> tuple[int, int, int]:
    if direction is Direction.WETH_IN:
        return pool.reserve_weth.raw, pool.reserve_token.raw, pool.reserve_token.decimals
    return pool.reserve_token.raw, pool.reserve_weth.raw, 18


class _RefCurve:
    """Float view of one pool's normalized output curve (for the solver only)."""

    __slots__ = ("index", "r_in", "r_out", "c", "gas")

    def __init__(self, index: int, pool: Pool, direction: Direction):
        r_in_raw, r_out_raw, out_decimals = _ref_oriented(pool, direction)
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


def _ref_equalized_split(curves: Sequence[_RefCurve], x_total: float) -> list[float] | None:
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


def _ref_gas_to_out_units(
    pools: Sequence[Pool], direction: Direction, gas_price_wei: Decimal
) -> float:
    """Value of one gas unit in output-token units (float, solver-side)."""
    gas_eth = float(gas_price_wei) * 1e-18
    if direction is Direction.WETH_OUT:
        return gas_eth
    anchor = max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))
    return gas_eth * float(marginal_price(anchor, direction))


def _ref_candidate_subsets(curves: list[_RefCurve]) -> list[tuple[_RefCurve, ...]]:
    if len(curves) <= EXHAUSTIVE_LIMIT:
        subsets: list[tuple[_RefCurve, ...]] = []
        for size in range(1, len(curves) + 1):
            subsets.extend(combinations(curves, size))
        return subsets
    ranked = sorted(curves, key=lambda c: (-c.marginal_at_zero(), c.index))
    return [tuple(ranked[: k + 1]) for k in range(len(ranked))]


def reference_route(
    pools: Sequence[Pool],
    amount_in: TokenAmount,
    direction: Direction,
    gas_price_wei: Decimal,
) -> RouteResult:
    """Split an input across pools maximizing output net of hop gas costs."""
    if not pools:
        raise NoPools("reference_route requires at least one pool")
    if amount_in.raw <= 0:
        raise ValueError("amount_in must be positive")

    curves = [_RefCurve(i, p, direction) for i, p in enumerate(pools)]
    x_total = float(amount_in.normalized)
    gas_unit_value = _ref_gas_to_out_units(pools, direction, gas_price_wei)

    best_net = -math.inf
    best: tuple[tuple[_RefCurve, ...], list[float]] | None = None
    for subset in _ref_candidate_subsets(curves):
        xs = _ref_equalized_split(subset, x_total)
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
    out_decimals = _ref_oriented(pools[0], direction)[2]
    total_gas = 0
    for (curve, _), raw in zip(kept, raws):
        if raw == 0:
            continue
        pool = pools[curve.index]
        total_out_raw += cpmm_swap_out(pool, raw, direction)
        total_gas += pool.gas_per_hop

    return RouteResult(
        total_out=TokenAmount(total_out_raw, out_decimals),
        total_gas=total_gas,
    )


# ---------------------------------------------------------------------------


def net_output(route, pools, direction, gas_price_wei):
    """Route objective recomputed from the documented gas-valuation rule."""
    gas_eth = float(gas_price_wei) * 1e-18
    if direction is Direction.WETH_OUT:
        unit = gas_eth
    else:
        anchor = max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))
        unit = gas_eth * float(marginal_price(anchor, direction))
    return float(route.total_out.normalized) - unit * route.total_gas


def grid_best_net(pools, amount_norm, direction, gas_price_wei, step=1e-3):
    """Best net output over all subsets via share-grid enumeration."""
    gas_eth = float(gas_price_wei) * 1e-18
    if direction is Direction.WETH_OUT:
        unit = gas_eth
    else:
        anchor = max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))
        unit = gas_eth * float(marginal_price(anchor, direction))

    curves = []
    for pool in pools:
        if direction is Direction.WETH_IN:
            r_in = pool.reserve_weth.raw / 1e18
            r_out = pool.reserve_token.raw / 10.0**pool.reserve_token.decimals
        else:
            r_in = pool.reserve_token.raw / 10.0**pool.reserve_token.decimals
            r_out = pool.reserve_weth.raw / 1e18
        curves.append((r_in, r_out, 1.0 - pool.fee_bps / 10000.0, pool.gas_per_hop))

    def out(c, x):
        r_in, r_out, fee, _ = c
        return r_out * fee * x / (r_in + fee * x)

    shares = np.linspace(0.0, 1.0, round(1 / step) + 1)
    best = -math.inf
    n = len(curves)
    for mask in range(1, 2**n):
        subset = [curves[j] for j in range(n) if mask >> j & 1]
        gas_cost = unit * sum(c[3] for c in subset)
        if len(subset) == 1:
            best = max(best, out(subset[0], amount_norm) - gas_cost)
        elif len(subset) == 2:
            a, b = subset
            x = shares * amount_norm
            total = out(a, x) + out(b, amount_norm - x)
            best = max(best, float(total.max()) - gas_cost)
        else:
            a, b, c = subset
            s1, s2 = np.meshgrid(shares, shares, sparse=True)
            valid = s1 + s2 <= 1.0 + 1e-12
            total = (
                out(a, s1 * amount_norm)
                + out(b, s2 * amount_norm)
                + out(c, np.clip(1.0 - s1 - s2, 0.0, 1.0) * amount_norm)
            )
            best = max(best, float(np.where(valid, total, -math.inf).max()) - gas_cost)
    return best


def random_pool(rng, pool_id):
    return make_pool(
        pool_id=pool_id,
        weth=rng.randrange(100, 50_000),
        token=rng.randrange(100_000, 200_000_000),
        fee_bps=rng.choice([0, 1, 5, 30, 100]),
        gas_per_hop=rng.randrange(60_000, 200_000),
    )


class TestCpmmSwap:
    def test_input_equal_to_reserve_halves_it(self):
        pool = Pool("P", TokenAmount(10**6, 18), TokenAmount(10**6, 6), 0, 0)
        assert cpmm_swap_out(pool, 10**6, Direction.WETH_IN) == 5 * 10**5

    def test_worked_example_30bps(self):
        # 3,000,000*0.997/(1000+0.997) -> 2988.020943 after integer floor
        pool = make_pool(weth=1000, token=3_000_000, fee_bps=30)
        out = TokenAmount(cpmm_swap_out(pool, WETH, Direction.WETH_IN), 6)
        assert out.raw == 2_988_020_943
        assert out.normalized.quantize(Decimal("0.01")) == Decimal("2988.02")

    def test_marginal_price_limit(self):
        # 18-decimal token so integer flooring is negligible at tiny size
        pool = make_pool(weth=1000, token=3_000_000, token_decimals=18, fee_bps=30)
        small = TokenAmount(cpmm_swap_out(pool, 10**12, Direction.WETH_IN), 18)
        ratio = small.normalized / Decimal("1e-6")
        limit = marginal_price(pool, Direction.WETH_IN)
        assert abs(ratio - limit) / limit < Decimal("1e-6")
        assert limit == Decimal(3000) * Decimal("0.997")

    def test_token_to_weth_direction(self):
        pool = make_pool(weth=1000, token=3_000_000, fee_bps=0)
        out = cpmm_swap_out(pool, 3000 * 10**6, Direction.WETH_OUT)
        # 1000 * 3000/(3000000+3000) ETH
        assert out == 1000 * WETH * 3000 // 3_003_000

    def test_zero_input_is_refused(self):
        with pytest.raises(ValueError) as caught:
            cpmm_swap_out(make_pool(), 0, Direction.WETH_IN)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "amount_in must be positive"


class TestOptimalSplit:
    def test_zero_input_is_refused(self):
        zero = TokenAmount(0, 18)
        with pytest.raises(ValueError) as caught:
            route_optimal_split([make_pool()], zero, Direction.WETH_IN, Decimal(0))
        assert type(caught.value) is ValueError
        assert str(caught.value) == "amount_in must be positive"

    def test_single_pool_full_share(self):
        pool = make_pool()
        route = route_optimal_split([pool], TokenAmount(WETH, 18), Direction.WETH_IN, Decimal(0))
        assert route.total_out == TokenAmount(cpmm_swap_out(pool, WETH, Direction.WETH_IN), 6)
        assert route.total_gas == pool.gas_per_hop

    def test_identical_pools_split_evenly_and_beat_single(self):
        pools = [make_pool("A", gas_per_hop=0), make_pool("B", gas_per_hop=0)]
        amount = TokenAmount(10 * WETH, 18)
        route = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(0))
        half = cpmm_swap_out(pools[0], 5 * WETH, Direction.WETH_IN)
        assert route.total_out.raw == 2 * half
        single = cpmm_swap_out(pools[0], amount.raw, Direction.WETH_IN)
        assert route.total_out.raw > single

    def test_gas_threshold_collapses_to_single_pool(self):
        pools = [
            make_pool("A", gas_per_hop=10_000_000),
            make_pool("B", gas_per_hop=10_000_000),
        ]
        amount = TokenAmount(WETH, 18)
        route = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(20 * GWEI))
        assert route.total_gas == 10_000_000  # one hop's gas
        assert route.total_out.raw == cpmm_swap_out(pools[0], amount.raw, Direction.WETH_IN)

    def test_beats_best_single_pool(self):
        rng = random.Random(5)
        for trial in range(20):
            pools = [random_pool(rng, f"P{j}") for j in range(3)]
            amount = TokenAmount(rng.randrange(1, 200) * WETH, 18)
            gas_price = Decimal(rng.randrange(1, 100) * GWEI)
            route = route_optimal_split(pools, amount, Direction.WETH_IN, gas_price)
            net = net_output(route, pools, Direction.WETH_IN, gas_price)
            for pool in pools:
                single = route_optimal_split([pool], amount, Direction.WETH_IN, gas_price)
                # anchor pool differs for the 1-pool universe; value with the 3-pool rule
                single_net = net_output(single, pools, Direction.WETH_IN, gas_price)
                assert net >= single_net - 1e-9

    def test_equal_split_output_nondecreasing_in_n(self):
        amount = TokenAmount(50 * WETH, 18)
        previous = -1
        for n in (1, 2, 3, 4):
            pools = [make_pool(f"P{j}", gas_per_hop=0) for j in range(n)]
            route = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(0))
            assert route.total_out.raw >= previous
            previous = route.total_out.raw

    def test_matches_grid_search(self):
        rng = random.Random(17)
        for trial in range(6):
            pools = [random_pool(rng, f"P{j}") for j in range(3)]
            direction = rng.choice([Direction.WETH_IN, Direction.WETH_OUT])
            if direction is Direction.WETH_IN:
                amount = TokenAmount(rng.randrange(1, 500) * WETH, 18)
            else:
                amount = TokenAmount(rng.randrange(1000, 500_000) * 10**6, 6)
            gas_price = Decimal(rng.randrange(0, 100) * GWEI)
            route = route_optimal_split(pools, amount, direction, gas_price)
            net = net_output(route, pools, direction, gas_price)
            amount_norm = float(amount.normalized)
            grid = grid_best_net(pools, amount_norm, direction, gas_price)
            m_max = max(float(marginal_price(p, direction)) for p in pools)
            tolerance = 1e-3 * amount_norm * m_max
            assert net >= grid - tolerance

    def test_no_pools(self):
        with pytest.raises(NoPools):
            route_optimal_split([], TokenAmount(WETH, 18), Direction.WETH_IN, Decimal(0))

    def test_extreme_input_sizes_route_the_whole_input(self):
        # cancellation-prone tiny inputs and beyond-float-precision raws: the legs'
        # raws sum to the input, whether the route keeps one pool or splits evenly
        pools = [
            make_pool("A", weth=10**9, token=10**15, token_decimals=18, gas_per_hop=0),
            make_pool("B", weth=10**9, token=10**15, token_decimals=18, gas_per_hop=0),
        ]
        for raw in (1, 3, 12_345, 10**29 + 7):
            amount = TokenAmount(raw, 18)
            route = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(0))
            halves = (raw - raw // 2, raw // 2)
            even = sum(
                cpmm_swap_out(pool, half, Direction.WETH_IN)
                for pool, half in zip(pools, halves)
                if half
            )
            whole = cpmm_swap_out(pools[0], raw, Direction.WETH_IN)
            assert route.total_out.raw in (whole, even)
            assert route == reference_route(pools, amount, Direction.WETH_IN, Decimal(0))

    def test_deterministic(self):
        pools = [make_pool("A"), make_pool("B", weth=500, token=1_600_000, fee_bps=5)]
        amount = TokenAmount(25 * WETH, 18)
        a = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(15 * GWEI))
        b = route_optimal_split(pools, amount, Direction.WETH_IN, Decimal(15 * GWEI))
        assert a == b


@st.composite
def snapshots(draw):
    """1-10 pools sharing one token's decimals, reserves from 10^3 to 10^27 raw units."""
    decimals = draw(st.sampled_from([0, 6, 8, 18]))
    n = draw(st.integers(1, 10))
    return tuple(
        Pool(
            f"P{j}",
            TokenAmount(draw(st.integers(10**3, 10**27)), 18),
            TokenAmount(draw(st.integers(10**3, 10**27)), decimals),
            draw(st.sampled_from([0, 1, 5, 30, 100, 9999])),
            draw(st.integers(0, 10**6)),
        )
        for j in range(n)
    )


class TestKernelMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(pools=snapshots(), data=st.data())
    def test_routes_equal_the_reference(self, pools, data):
        # Several calls per snapshot and direction, so the tables are reused.
        for _ in range(data.draw(st.integers(1, 4))):
            direction = data.draw(st.sampled_from(list(Direction)))
            decimals = 18 if direction is Direction.WETH_IN else pools[0].reserve_token.decimals
            reserve_in = max(
                p.reserve_weth.raw if direction is Direction.WETH_IN else p.reserve_token.raw
                for p in pools
            )
            amount = TokenAmount(data.draw(st.integers(1, reserve_in)), decimals)
            gas_price = Decimal(data.draw(st.integers(0, 10**12)))
            route = route_optimal_split(pools, amount, direction, gas_price)
            assert route == reference_route(pools, amount, direction, gas_price)

    def test_greedy_branch_beyond_the_exhaustive_limit(self):
        rng = random.Random(23)
        pools = [random_pool(rng, f"P{j}") for j in range(EXHAUSTIVE_LIMIT + 2)]
        for k in range(1, 40):
            amount = TokenAmount(k * k * 7 * WETH, 18)
            gas_price = Decimal(rng.randrange(0, 100) * GWEI)
            expected = reference_route(pools, amount, Direction.WETH_IN, gas_price)
            assert route_optimal_split(pools, amount, Direction.WETH_IN, gas_price) == expected

    def test_drifted_six_pool_snapshots_over_a_size_sweep(self):
        # Six pools whose reserves drift per block offset, routed from 1k to 200k USD
        # each way: most multi-pool subsets are infeasible, and skipped on one leg.
        shapes = [  # (pool_id, WETH, token, fee_bps, gas_per_hop)
            ("CP-30", 20_000, 60_000_000, 30, 120_000),
            ("CP-05", 8_000, 24_000_000, 5, 120_000),
            ("CP-100", 600, 1_800_000, 100, 90_000),
            ("CP-01", 3_000, 9_000_000, 1, 130_000),
            ("CP-30b", 5_000, 15_100_000, 30, 110_000),
            ("CP-05b", 1_500, 4_480_000, 5, 125_000),
        ]
        gas_price = Decimal(21 * GWEI)
        for offset in range(-4, 4):
            pools = Snapshot(  # one offset's snapshot, its tables shared by the sweep
                Pool(
                    pool_id,
                    TokenAmount(weth * WETH * (10_000 + 7 * offset) // 10_000, 18),
                    TokenAmount(token * USDC * (10_000 - 5 * offset) // 10_000, 6),
                    fee_bps,
                    gas,
                )
                for pool_id, weth, token, fee_bps, gas in shapes
            )
            for k in range(25):
                usd = 1_000 * 200 ** (k / 24)
                for amount, direction in (
                    (TokenAmount(round(usd / 3_000 * WETH), 18), Direction.WETH_IN),
                    (TokenAmount(round(usd * USDC), 6), Direction.WETH_OUT),
                ):
                    expected = reference_route(pools, amount, direction, gas_price)
                    assert route_optimal_split(pools, amount, direction, gas_price) == expected

    def test_tables_follow_a_changed_pool_list(self):
        pools = [make_pool("A"), make_pool("B", weth=500, token=1_600_000, fee_bps=5)]
        amount = TokenAmount(40 * WETH, 18)
        gas_price = Decimal(20 * GWEI)
        before = route_optimal_split(pools, amount, Direction.WETH_IN, gas_price)
        pools[1] = make_pool("B", weth=5000, token=16_000_000, fee_bps=5)
        after = route_optimal_split(pools, amount, Direction.WETH_IN, gas_price)
        assert after == reference_route(pools, amount, Direction.WETH_IN, gas_price)
        assert after != before
