"""Ground-truth-known synthetic scenario generation.

Generates trades, per-offset pool snapshots, and a baseline quote cache
that exercise every pipeline branch. Classic-like trades are produced by
executing the synthetic router itself, so their self-baseline price
improvement is centered on zero; OFA-path trades (X, Fusion) settle with
internalized gas and receive a configurable extra-output bonus that
models access to off-chain liquidity, optionally gated by trade size.

Randomness comes from MT19937 (random.Random) consuming only .random()
draws, with inverse-transform / Box-Muller sampling implemented here, so
a seed fully determines every output byte.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from swapmeter.config import (
    DEFAULT_F_PRIME_WEI,
    DEFAULT_OFFSETS,
    DEFAULT_OVERHEAD_GAS,
    check_run_values,
)
from swapmeter.errors import ConfigError, InvalidSpec
from swapmeter.ingest import QUOTE_COLUMNS, SNAPSHOT_COLUMNS, TRADE_COLUMNS, trade_to_row
from swapmeter.model import (
    MAX_DECIMALS,
    RAW_DIGITS,
    Direction,
    GasTerms,
    Pool,
    TokenAmount,
    TradeRecord,
)
from swapmeter.numeric import finite_number, integer
from swapmeter.output import write_csv
from swapmeter.router import Snapshot, route_optimal_split, shared_decimals

OFA_PATHS = frozenset({"X", "Fusion"})
_PATH_INTERFACE = {"Classic": "Uniswap", "X": "Uniswap", "Aggregator": "1inch", "Fusion": "1inch"}

PROVIDER_ID = "synthetic-router"

_DEFAULT_POOLS = (
    {"pool_id": "CP-30", "reserve_weth": "20000", "reserve_token": "60000000",
     "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 120000},
    {"pool_id": "CP-05", "reserve_weth": "8000", "reserve_token": "24000000",
     "token_decimals": 6, "fee_bps": 5, "gas_per_hop": 120000},
    {"pool_id": "CP-100", "reserve_weth": "600", "reserve_token": "1800000",
     "token_decimals": 6, "fee_bps": 100, "gas_per_hop": 90000},
)

_DEFAULT_PROFILE = {"gas_noise_rel": "0.03", "priority_fee_gwei": ["0.05", "0.15"]}


class PortableRng:
    """Deterministic sampler over MT19937 uniform draws only."""

    def __init__(self, seed: int):
        self._r = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._r.random()

    def log_uniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def normal(self, mu: float, sigma: float) -> float:
        u1 = 1.0 - self._r.random()  # (0, 1]
        u2 = self._r.random()
        return mu + sigma * math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def pick(self, items: list, weights: list[float]):
        u = self._r.random() * sum(weights)
        acc = 0.0
        for item, w in zip(items, weights):
            acc += w
            if u < acc:
                return item
        return items[-1]


@dataclass(frozen=True, slots=True)
class GasProfile:
    gas_noise_rel: float
    priority_fee_gwei: tuple[float, float]


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    seed: int
    n_trades: int
    size_min_usd: float
    size_max_usd: float
    path_mix: tuple[tuple[str, float], ...]
    ofa_liquidity_bonus: Decimal
    bonus_min_usd: Decimal | None
    weth_in_fraction: float
    execution_noise_bps: float
    base_fee_gwei: tuple[float, float]
    gas_profiles: dict[str, GasProfile]
    pools: tuple[Pool, ...]
    offsets: tuple[int, ...]
    f_prime_wei: Decimal
    overhead_gas: int


@dataclass(frozen=True, slots=True)
class GeneratedScenario:
    trades_path: Path
    pools_path: Path
    quotes_path: Path


def _field(name: str, value, kind: type = float):
    """Field `name` as an int, float or Decimal; a refusal names the field and its JSON value."""
    try:
        return integer(value, name) if kind is int else finite_number(value, name, kind)
    except ValueError as exc:
        raise InvalidSpec(f"bad scenario field: {exc}, got {json.dumps(value)}") from None


def _reserve(name: str, value, decimals: int) -> Decimal:
    """A positive reserve in whole tokens, scaled to base units below 10^RAW_DIGITS."""
    amount = _field(name, value, Decimal)
    bound = RAW_DIGITS - decimals
    if amount <= 0 or amount.adjusted() >= bound:
        raise InvalidSpec(
            f"bad scenario field: {name} must be in (0, 10^{bound}), got {json.dumps(value)}"
        )
    return amount.scaleb(decimals)


def _pool_from_dict(d: dict) -> Pool:
    weth = _reserve("reserve_weth", d["reserve_weth"], 18)
    token_decimals = _field("token_decimals", d["token_decimals"], int)
    if not 0 <= token_decimals <= MAX_DECIMALS:
        raise InvalidSpec(
            f"bad scenario field: token_decimals must be in [0, {MAX_DECIMALS}],"
            f" got {json.dumps(d['token_decimals'])}"
        )
    token = _reserve("reserve_token", d["reserve_token"], token_decimals)
    if weth != weth.to_integral_value() or token != token.to_integral_value():
        raise InvalidSpec(f"pool {d.get('pool_id')}: reserves must be integral in base units")
    return Pool(
        pool_id=str(d["pool_id"]),
        reserve_weth=TokenAmount(int(weth), 18),
        reserve_token=TokenAmount(int(token), token_decimals),
        fee_bps=_field("fee_bps", d["fee_bps"], int),
        gas_per_hop=_field("gas_per_hop", d["gas_per_hop"], int),
    )


def load_scenario(source: dict | str | Path) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a dict or a JSON file."""
    if isinstance(source, (str, Path)):
        try:
            with open(source, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except RecursionError:
            raise InvalidSpec("cannot read scenario file: JSON nested too deeply") from None
        except UnicodeDecodeError:
            raise InvalidSpec("cannot read scenario file: not UTF-8 text") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidSpec(f"cannot read scenario file: {exc}") from exc
        except ValueError:  # an integer literal past int()'s digit limit
            raise InvalidSpec("cannot read scenario file: an integer has too many digits") from None
    else:
        raw = dict(source)
    if not isinstance(raw, dict):
        raise InvalidSpec("scenario spec must be a JSON object")

    try:
        seed = _field("seed", raw.get("seed", 0), int)
        n_trades = _field("n_trades", raw.get("n_trades", 100), int)
        dist = raw.get("size_distribution", {})
        if dist.get("type", "log_uniform") != "log_uniform":
            raise InvalidSpec(f"unsupported size distribution {dist.get('type')!r}")
        size_min = _field("min_usd", dist.get("min_usd", 500))
        size_max = _field("max_usd", dist.get("max_usd", 250_000))
        mix_raw = raw.get("path_mix", {"Classic": 1.0})
        path_mix = tuple((str(k), _field("path_mix", v)) for k, v in mix_raw.items())
        bonus_bps = _field(
            "ofa_liquidity_bonus_bps", raw.get("ofa_liquidity_bonus_bps", "0"), Decimal
        )
        gate = raw.get("bonus_min_usd")
        bonus_min = None if gate in (None, "") else _field("bonus_min_usd", gate, Decimal)
        weth_in_fraction = _field("weth_in_fraction", raw.get("weth_in_fraction", 0.5))
        noise_bps = _field("execution_noise_bps", raw.get("execution_noise_bps", 0.5))
        base_fee = raw.get("base_fee_gwei", ["15", "25"])
        bf_lo, bf_hi = (_field("base_fee_gwei", x) for x in base_fee)
        profiles = {}
        prof_raw = raw.get("gas_profiles", {})
        for path, _ in path_mix:
            p = {**_DEFAULT_PROFILE, **prof_raw.get(path, {})}
            lo, hi = (_field("priority_fee_gwei", x) for x in p["priority_fee_gwei"])
            profiles[path] = GasProfile(_field("gas_noise_rel", p["gas_noise_rel"]), (lo, hi))
        pools = tuple(_pool_from_dict(d) for d in raw.get("pools", _DEFAULT_POOLS))
        offsets = tuple(_field("offsets", x, int) for x in raw.get("offsets", DEFAULT_OFFSETS))
        f_prime = _field("f_prime_wei", raw.get("f_prime_wei", DEFAULT_F_PRIME_WEI), Decimal)
        overhead = _field("overhead_gas", raw.get("overhead_gas", DEFAULT_OVERHEAD_GAS), int)
    except InvalidSpec:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise InvalidSpec(f"bad scenario field: {exc}") from exc

    if n_trades <= 0:
        raise InvalidSpec("n_trades must be positive")
    if not 0 < size_min <= size_max:
        raise InvalidSpec("size range must satisfy 0 < min <= max")
    if not path_mix or any(w < 0 for _, w in path_mix):
        raise InvalidSpec("path_mix weights must be nonnegative and nonempty")
    if abs(sum(w for _, w in path_mix) - 1.0) > 1e-9:
        raise InvalidSpec("path_mix weights must sum to 1")
    # A bonus factor of 10^RAW_DIGITS takes every output past the raw bound.
    if bonus_bps < 0 or bonus_bps.adjusted() >= RAW_DIGITS + 4:
        raise InvalidSpec(
            f"ofa_liquidity_bonus_bps must be in [0, 10^{RAW_DIGITS + 4}), got {bonus_bps}"
        )
    if not pools:
        raise InvalidSpec("pool universe must be nonempty")
    for k, pool in enumerate(pools):
        if any(p.pool_id == pool.pool_id for p in pools[:k]):
            raise InvalidSpec(f"duplicate pool_id {pool.pool_id}")
    if not offsets:
        raise InvalidSpec("offsets must be nonempty")
    try:
        shared_decimals(pools)
        check_run_values(offsets, f_prime, overhead)
    except ConfigError as exc:
        raise InvalidSpec(str(exc)) from exc
    if not 0.0 <= weth_in_fraction <= 1.0:
        raise InvalidSpec("weth_in_fraction must be in [0, 1]")

    return ScenarioSpec(
        seed=seed,
        n_trades=n_trades,
        size_min_usd=size_min,
        size_max_usd=size_max,
        path_mix=path_mix,
        ofa_liquidity_bonus=bonus_bps.scaleb(-4),
        bonus_min_usd=bonus_min,
        weth_in_fraction=weth_in_fraction,
        execution_noise_bps=noise_bps,
        base_fee_gwei=(bf_lo, bf_hi),
        gas_profiles=profiles,
        pools=pools,
        offsets=offsets,
        f_prime_wei=f_prime,
        overhead_gas=overhead,
    )


def _amount(trade_id: str, side: str, raw: int, decimals: int) -> TokenAmount:
    """A trade's amount on `side` ("in" or "out"); past the raw bound, an InvalidSpec naming it."""
    if raw >= 10**RAW_DIGITS:
        raise InvalidSpec(
            f"trade {trade_id}: {side}put amount_{side}_raw has {len(str(raw))} digits;"
            f" raw amounts must be below 10^{RAW_DIGITS}"
        )
    return TokenAmount(raw, decimals)


def _implied_eth_usd(pools: tuple[Pool, ...]) -> Decimal:
    anchor = max(pools, key=lambda p: (p.reserve_weth.raw, p.pool_id))
    return anchor.reserve_token.normalized / anchor.reserve_weth.normalized


def generate(spec: ScenarioSpec, out_dir: str | Path) -> GeneratedScenario:
    """Write trades.csv, pools.csv, and quotes.csv for the scenario."""
    out = Path(out_dir)
    rng = PortableRng(spec.seed)
    eth_usd = _implied_eth_usd(spec.pools)
    token_decimals = spec.pools[0].reserve_token.decimals
    bonus_factor = Decimal(1) + spec.ofa_liquidity_bonus
    snapshot = Snapshot(spec.pools)  # both routes of every trade share its tables
    offsets = [str(offset) for offset in spec.offsets]

    trade_rows: list[list[str]] = []
    quote_rows: list[list[str]] = []
    paths = [p for p, _ in spec.path_mix]
    weights = [w for _, w in spec.path_mix]

    for idx in range(spec.n_trades):
        trade_id = f"T{idx:06d}"
        try:
            usd = Decimal(f"{rng.log_uniform(spec.size_min_usd, spec.size_max_usd):.2f}")
            path = rng.pick(paths, weights)
            weth_in = rng.uniform(0, 1) < spec.weth_in_fraction
            direction = Direction.WETH_IN if weth_in else Direction.WETH_OUT
            base_fee = int(rng.uniform(*spec.base_fee_gwei) * 1e9)
            profile = spec.gas_profiles[path]
            priority_fee = int(rng.uniform(*profile.priority_fee_gwei) * 1e9)
            gas_noise = rng.uniform(-profile.gas_noise_rel, profile.gas_noise_rel)
            exec_noise = Decimal(1) + Decimal(
                f"{rng.normal(0.0, spec.execution_noise_bps):.9f}"
            ).scaleb(-4)

            if direction is Direction.WETH_IN:
                amount_in = _amount(trade_id, "in", int(usd / eth_usd * Decimal(10) ** 18), 18)
            else:
                amount_in = _amount(
                    trade_id, "in", int(usd.scaleb(token_decimals)), token_decimals
                )
            if amount_in.raw <= 0:
                raise InvalidSpec(f"trade {trade_id}: USD size {usd} maps to zero input")

            gas_price = Decimal(base_fee) + spec.f_prime_wei
            base_route = route_optimal_split(snapshot, amount_in, direction, gas_price)
            gas_estimate = base_route.total_gas + spec.overhead_gas
            gas_used = max(21_000, int(gas_estimate * (1.0 + gas_noise)))
            gas = GasTerms(gas_used, base_fee, priority_fee)

            bonus_on = path in OFA_PATHS and (
                spec.bonus_min_usd is None or usd >= spec.bonus_min_usd
            )
            factor = (bonus_factor if bonus_on else Decimal(1)) * exec_noise

            if path in OFA_PATHS:
                internalized = True
                if direction is Direction.WETH_IN:
                    routed_raw = amount_in.raw - gas.cost_wei
                    if routed_raw <= 0:
                        raise InvalidSpec(
                            f"trade {trade_id}: gas cost exceeds input; raise size_min_usd"
                        )
                    fill = route_optimal_split(
                        snapshot, TokenAmount(routed_raw, 18), direction, gas_price
                    )
                    out_raw = int(Decimal(fill.total_out.raw) * factor)
                else:
                    gross_raw = int(Decimal(base_route.total_out.raw) * factor)
                    out_raw = gross_raw - gas.cost_wei
                    if out_raw <= 0:
                        raise InvalidSpec(
                            f"trade {trade_id}: gas cost exceeds output; raise size_min_usd"
                        )
            else:
                internalized = False
                out_raw = int(Decimal(base_route.total_out.raw) * factor)
            if out_raw <= 0:
                raise InvalidSpec(f"trade {trade_id}: generated output is non-positive")

            out_decimals = token_decimals if direction is Direction.WETH_IN else 18
            trade = TradeRecord(
                trade_id=trade_id,
                interface=_PATH_INTERFACE.get(path, "Synthetic"),
                path=path,
                block_number=18_000_000 + idx,
                direction=direction,
                gas_internalized=internalized,
                amount_in=amount_in,
                amount_out=_amount(trade_id, "out", out_raw, out_decimals),
                gas=gas,
                usd_value=usd,
                timestamp=1_700_000_000 + 12 * idx,
            )
            trade_rows.append(trade_to_row(trade))

            # Pool state is held constant across offsets, so every offset's
            # quote equals the settlement-block route.
            quoted = base_route.total_out
            fields = [str(quoted.raw), str(quoted.decimals), str(gas_estimate), PROVIDER_ID]
            quote_rows.extend([trade_id, offset, *fields] for offset in offsets)
        except (ValueError, ArithmeticError) as exc:  # a model bound or a number range
            raise InvalidSpec(f"trade {trade_id}: {exc}") from exc

    pool_rows = [
        [pool.pool_id, str(pool.reserve_weth.raw), str(pool.reserve_token.raw),
         str(pool.reserve_token.decimals), str(pool.fee_bps), str(pool.gas_per_hop)]
        for pool in spec.pools
    ]
    comment = f"swapmeter synth seed={spec.seed} n_trades={spec.n_trades}"
    trades_path = out / "trades.csv"
    pools_path = out / "pools.csv"
    quotes_path = out / "quotes.csv"
    write_csv(trades_path, TRADE_COLUMNS, trade_rows, comment)
    snapshot_rows = (
        [str(offset), *row] for offset in sorted(spec.offsets) for row in pool_rows
    )
    write_csv(pools_path, SNAPSHOT_COLUMNS, snapshot_rows, comment)
    write_csv(quotes_path, QUOTE_COLUMNS, quote_rows, comment)
    return GeneratedScenario(trades_path, pools_path, quotes_path)
