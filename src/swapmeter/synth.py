"""Ground-truth-known synthetic scenario generation.

Generates trades, per-offset pool snapshots, and a baseline quote cache
that exercise every pipeline branch. Every trade and quote is routed by
the baseline's own `SyntheticRouterProvider.route`, so Classic-like trades
execute on the synthetic router itself and their self-baseline price
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
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

from swapmeter.baseline import ReservesPastBound, SyntheticRouterProvider
from swapmeter.config import RunConfig
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
from swapmeter.router import anchor_pool

OFA_PATHS = frozenset({"X", "Fusion"})
_PATH_INTERFACE = {"Classic": "Uniswap", "X": "Uniswap", "Aggregator": "1inch", "Fusion": "1inch"}

_DEFAULT_POOLS = (
    {"pool_id": "CP-30", "reserve_weth": "20000", "reserve_token": "60000000",
     "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 120000},
    {"pool_id": "CP-05", "reserve_weth": "8000", "reserve_token": "24000000",
     "token_decimals": 6, "fee_bps": 5, "gas_per_hop": 120000},
    {"pool_id": "CP-100", "reserve_weth": "600", "reserve_token": "1800000",
     "token_decimals": 6, "fee_bps": 100, "gas_per_hop": 90000},
)

_DEFAULT_PROFILE = {"gas_noise_rel": "0.03", "priority_fee_gwei": ["0.05", "0.15"]}

# The keys a spec object may hold; a pool's and a gas profile's are those of their defaults.
_SPEC_KEYS = frozenset({
    "seed", "n_trades", "size_distribution", "path_mix", "ofa_liquidity_bonus_bps",
    "bonus_min_usd", "weth_in_fraction", "execution_noise_bps", "base_fee_gwei", "gas_profiles",
    "pools", "offsets", "f_prime_wei", "overhead_gas",
})
_SIZE_KEYS = frozenset({"type", "min_usd", "max_usd"})


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


class GasProfile(NamedTuple):
    gas_noise_rel: float
    priority_fee_gwei: tuple[float, float]


class ScenarioSpec(NamedTuple):
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
    router: SyntheticRouterProvider  # over `pools` at offset 0, at f_prime_wei and overhead_gas


class GeneratedScenario(NamedTuple):
    trades_path: Path
    pools_path: Path
    quotes_path: Path


def _field(name: str, value, kind: type = float):
    """Field `name` as an int, float or Decimal; a refusal names the field and its JSON value."""
    try:
        return integer(value, name) if kind is int else finite_number(value, name, kind)
    except ValueError as exc:
        raise InvalidSpec(f"bad scenario field: {exc}, got {json.dumps(value)}") from None


def _known(value, keys, where: str) -> None:
    """Refuse a key of spec object `value` not in `keys`, naming its path; a non-object passes."""
    if isinstance(value, dict):
        for key in value:
            if key not in keys:
                raise InvalidSpec(f"bad scenario field: unknown key {f'{where}{key}'!r}")


def _reserve(name: str, value, decimals: int) -> Decimal:
    """A positive reserve in whole tokens, scaled to base units below 10^RAW_DIGITS."""
    amount = _field(name, value, Decimal)
    bound = RAW_DIGITS - decimals
    if amount <= 0 or amount.adjusted() >= bound:
        raise InvalidSpec(
            f"bad scenario field: {name} must be in (0, 10^{bound}), got {json.dumps(value)}"
        )
    return amount.scaleb(decimals)


def _pool_from_dict(d: dict, where: str) -> Pool:
    _known(d, _DEFAULT_POOLS[0], where)
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


def load_scenario(value) -> ScenarioSpec:
    """Build a validated ScenarioSpec from a spec's JSON value."""
    if not isinstance(value, dict):
        raise InvalidSpec("scenario spec must be a JSON object")
    _known(value, _SPEC_KEYS, "")

    try:
        seed = _field("seed", value.get("seed", 0), int)
        n_trades = _field("n_trades", value.get("n_trades", 100), int)
        dist = value.get("size_distribution", {})
        _known(dist, _SIZE_KEYS, "size_distribution.")
        if dist.get("type", "log_uniform") != "log_uniform":
            raise InvalidSpec(f"unsupported size distribution {dist.get('type')!r}")
        size_min = _field("min_usd", dist.get("min_usd", 500))
        size_max = _field("max_usd", dist.get("max_usd", 250_000))
        mix_raw = value.get("path_mix", {"Classic": 1.0})
        path_mix = tuple((str(k), _field("path_mix", v)) for k, v in mix_raw.items())
        bonus_bps = _field(
            "ofa_liquidity_bonus_bps", value.get("ofa_liquidity_bonus_bps", "0"), Decimal
        )
        gate = value.get("bonus_min_usd")
        bonus_min = None if gate in (None, "") else _field("bonus_min_usd", gate, Decimal)
        weth_in_fraction = _field("weth_in_fraction", value.get("weth_in_fraction", 0.5))
        noise_bps = _field("execution_noise_bps", value.get("execution_noise_bps", 0.5))
        base_fee = value.get("base_fee_gwei", ["15", "25"])
        bf_lo, bf_hi = (_field("base_fee_gwei", x) for x in base_fee)
        profiles = {}
        prof_raw = value.get("gas_profiles", {})
        _known(prof_raw, dict(path_mix), "gas_profiles.")
        for path, _ in path_mix:
            entry = prof_raw.get(path, {})
            _known(entry, _DEFAULT_PROFILE, f"gas_profiles.{path}.")
            p = {**_DEFAULT_PROFILE, **entry}
            lo, hi = (_field("priority_fee_gwei", x) for x in p["priority_fee_gwei"])
            profiles[path] = GasProfile(_field("gas_noise_rel", p["gas_noise_rel"]), (lo, hi))
        pool_values = enumerate(value.get("pools", _DEFAULT_POOLS))
        pools = tuple(_pool_from_dict(d, f"pools[{k}].") for k, d in pool_values)
        default = RunConfig._field_defaults  # a run value's one default is in SETTINGS
        offsets = tuple(_field("offsets", x, int) for x in value.get("offsets", default["offsets"]))
        f_prime = _field("f_prime_wei", value.get("f_prime_wei", default["f_prime_wei"]), Decimal)
        overhead = _field("overhead_gas", value.get("overhead_gas", default["overhead_gas"]), int)
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
    try:
        router = SyntheticRouterProvider({0: pools}, f_prime, overhead_gas=overhead)
        RunConfig(offsets=offsets, f_prime_wei=f_prime, overhead_gas=overhead)
    except ReservesPastBound as exc:
        raise InvalidSpec(
            f"bad scenario field: the pools' {exc.column} sum to 10^{RAW_DIGITS} base units or more"
        ) from exc
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
        router=router,
    )


def _amount(trade_id: str, side: str, raw: int, decimals: int) -> TokenAmount:
    """A trade's amount on `side` ("in" or "out"); past the raw bound, an InvalidSpec naming it."""
    if raw >= 10**RAW_DIGITS:
        raise InvalidSpec(
            f"trade {trade_id}: {side}put amount_{side}_raw has {len(str(raw))} digits;"
            f" raw amounts must be below 10^{RAW_DIGITS}"
        )
    return TokenAmount(raw, decimals)


def generate(spec: ScenarioSpec, out_dir: str | Path) -> GeneratedScenario:
    """Write trades.csv, pools.csv, and quotes.csv for the scenario."""
    out = Path(out_dir)
    rng = PortableRng(spec.seed)
    anchor = anchor_pool(spec.pools)
    eth_usd = anchor.reserve_token.normalized / anchor.reserve_weth.normalized
    token_decimals = spec.pools[0].reserve_token.decimals
    bonus_factor = Decimal(1) + spec.ofa_liquidity_bonus
    router = spec.router
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

            base_raw, out_decimals, gas_estimate = router.route(direction, base_fee, 0, amount_in)
            gas_used = max(21_000, int(int(gas_estimate) * (1.0 + gas_noise)))
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
                    fill = TokenAmount(routed_raw, 18)
                    out_raw = int(Decimal(router.route(direction, base_fee, 0, fill)[0]) * factor)
                else:
                    gross_raw = int(Decimal(base_raw) * factor)
                    out_raw = gross_raw - gas.cost_wei
                    if out_raw <= 0:
                        raise InvalidSpec(
                            f"trade {trade_id}: gas cost exceeds output; raise size_min_usd"
                        )
            else:
                internalized = False
                out_raw = int(Decimal(base_raw) * factor)
            if out_raw <= 0:
                raise InvalidSpec(f"trade {trade_id}: generated output is non-positive")

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
            fields = [str(base_raw), str(out_decimals), str(gas_estimate), router.provider_id]
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
