"""Canonical data types for trades, quotes, and pools.

All monetary quantities are raw integers in the token's smallest base
unit. Normalization (raw / 10^decimals) happens lazily, in decimal
arithmetic, and only where a price is actually computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from enum import Enum

MAX_UINT128 = 2**128 - 1
MAX_UINT64 = 2**64 - 1  # EVM gas amounts are 64-bit
_ZERO, _MAX_GAS = Decimal(0), Decimal(MAX_UINT128)  # Decimal bounds compare faster

# Exact representability bound for the 60-digit decimal context: a raw
# amount has fewer than RAW_DIGITS digits.
RAW_DIGITS = 60
_MAX_RAW = 10**RAW_DIGITS
MAX_DECIMALS = 36


class Direction(Enum):
    """Which side of the swap is (W)ETH."""

    WETH_IN = "WETH_IN"
    WETH_OUT = "WETH_OUT"


# Known interface / settlement-path tags. Unknown strings pass through
# unchanged: the methodology is interface-agnostic.
_CANONICAL_INTERFACES = {"1inch": "1inch", "oneinch": "1inch", "uniswap": "Uniswap"}
_CANONICAL_PATHS = {
    "aggregator": "Aggregator",
    "fusion": "Fusion",
    "classic": "Classic",
    "x": "X",
}


def canonical_interface(name: str) -> str:
    return _CANONICAL_INTERFACES.get(name.strip().lower(), name.strip())


def canonical_path(name: str) -> str:
    return _CANONICAL_PATHS.get(name.strip().lower(), name.strip())


def check_amount(raw: int, decimals: int) -> None:
    """ValueError unless raw is an integer in [0, 10^60) and decimals in [0, 36]."""
    if not isinstance(raw, int) or raw < 0:
        raise ValueError("raw must be a nonnegative integer")
    if raw >= _MAX_RAW:
        raise ValueError("raw exceeds exact decimal range")
    if not 0 <= decimals <= MAX_DECIMALS:
        raise ValueError(f"decimals must be in [0, {MAX_DECIMALS}]")


def check_gas_estimate(gas: Decimal) -> None:
    """ValueError unless a quoted gas estimate lies in [0, 2^128 - 1]."""
    if gas < _ZERO:
        raise ValueError("gas_estimate must be nonnegative")
    if gas > _MAX_GAS:
        raise ValueError("gas_estimate exceeds the uint128 bound 2^128 - 1")


@dataclass(frozen=True, slots=True)
class TokenAmount:
    """A token quantity: raw base units plus the token's decimals."""

    raw: int
    decimals: int

    def __post_init__(self):
        check_amount(self.raw, self.decimals)

    @property
    def normalized(self) -> Decimal:
        """raw / 10^decimals, exact in the toolkit's decimal context."""
        return Decimal(self.raw).scaleb(-self.decimals)


@dataclass(frozen=True, slots=True)
class GasTerms:
    """EIP-1559 gas data of one settlement transaction.

    gas_used is in gas units; base_fee and priority_fee are wei per gas.
    """

    gas_used: int
    base_fee: int
    priority_fee: int

    def __post_init__(self):
        for name in ("gas_used", "base_fee", "priority_fee"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative integer")
        if self.gas_used * (self.base_fee + self.priority_fee) > MAX_UINT128:
            raise ValueError("gas_used * (base_fee + priority_fee) overflows uint128")

    @property
    def cost_wei(self) -> int:
        return self.gas_used * (self.base_fee + self.priority_fee)


@dataclass(frozen=True, slots=True)
class TradeRecord:
    """One settled swap with amounts, gas data, and USD weight.

    usd_value may be None for per-trade analysis; aggregate runs reject
    such rows at ingestion.
    """

    trade_id: str
    interface: str
    path: str
    block_number: int
    direction: Direction
    gas_internalized: bool
    amount_in: TokenAmount
    amount_out: TokenAmount
    gas: GasTerms
    usd_value: Decimal | None
    timestamp: int

    def __post_init__(self):
        if self.amount_in.raw <= 0:
            raise ValueError("amount_in.raw must be > 0")
        if self.amount_out.raw <= 0:
            raise ValueError("amount_out.raw must be > 0")
        if self.direction is Direction.WETH_IN and self.amount_in.decimals != 18:
            raise ValueError("WETH_IN trade requires amount_in decimals = 18")
        if self.direction is Direction.WETH_OUT and self.amount_out.decimals != 18:
            raise ValueError("WETH_OUT trade requires amount_out decimals = 18")
        if self.block_number < 0:
            raise ValueError("block_number must be nonnegative")
        if self.usd_value is not None and self.usd_value < 0:
            raise ValueError("usd_value must be nonnegative")


@dataclass(frozen=True, slots=True)
class Quote:
    """Baseline output for one trade at one block offset.

    gas_estimate is a decimal in [0, 2^128 - 1]: fractional values appear
    after bias correction, and the bound keeps g'(b+f') in the decimal
    range, as GasTerms bounds g(b+f).
    """

    trade_id: str
    offset: int
    out_estimate: TokenAmount
    gas_estimate: Decimal
    provider_id: str

    def __post_init__(self):
        check_gas_estimate(self.gas_estimate)


@dataclass(frozen=True, slots=True)
class Pool:
    """A constant-product WETH/token pool snapshot.

    gas_per_hop is bounded to 64 bits, as EVM gas is, so a route's hop gas
    plus a 64-bit overhead stays within a quote's uint128 gas bound.
    """

    pool_id: str
    reserve_weth: TokenAmount
    reserve_token: TokenAmount
    fee_bps: int
    gas_per_hop: int

    def __post_init__(self):
        if self.reserve_weth.raw <= 0 or self.reserve_token.raw <= 0:
            raise ValueError("pool reserves must be strictly positive")
        if self.reserve_weth.decimals != 18:
            raise ValueError("reserve_weth must have decimals = 18")
        if not 0 <= self.fee_bps < 10000:
            raise ValueError("fee_bps must be in [0, 10000)")
        if self.gas_per_hop < 0:
            raise ValueError("gas_per_hop must be nonnegative")
        if self.gas_per_hop > MAX_UINT64:
            raise ValueError("gas_per_hop exceeds the uint64 bound 2^64 - 1")
