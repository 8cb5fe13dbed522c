"""Run configuration: flat key=value config files, CLI overrides, hashing."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Sequence

from swapmeter.errors import ConfigError
from swapmeter.model import MAX_UINT64, MAX_UINT128
from swapmeter.numeric import finite_number, integer, spelled

DEFAULT_F_PRIME_WEI = Decimal(100_000_000)  # 0.1 Gwei baseline priority fee
DEFAULT_OFFSETS = tuple(range(-4, 4))
DEFAULT_OVERHEAD_GAS = 80_000  # gas a routed swap spends beyond its hops
DEFAULT_WINDOW = 200
DEFAULT_CALIBRATION_FILTER = "Classic"
# Most offsets one run may ask for; an offset range is checked before it is built.
MAX_OFFSETS = 10_000


@dataclass(frozen=True, slots=True)
class RunConfig:
    trades_path: str | None = None
    quotes_path: str | None = None
    pools_path: str | None = None
    out_dir: str = "out"
    offsets: tuple[int, ...] = DEFAULT_OFFSETS
    f_prime_wei: Decimal = DEFAULT_F_PRIME_WEI
    window: int = DEFAULT_WINDOW
    stride: int = 1
    strict: bool = False
    no_correction: bool = False
    sys_multiplier: Decimal = Decimal(1)
    calibration_filter: str = DEFAULT_CALIBRATION_FILTER
    calibration_path: str | None = None
    overhead_gas: int = DEFAULT_OVERHEAD_GAS

    def __post_init__(self):
        check_run_values(self.offsets, self.f_prime_wei, self.overhead_gas)
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.sys_multiplier <= 0:
            raise ConfigError("sys_multiplier must be positive")

    def require_provider(self) -> None:
        have = [p for p in (self.quotes_path, self.pools_path) if p]
        if len(have) != 1:
            raise ConfigError(
                "exactly one baseline source must be configured (--quotes or --pools)"
            )

    def effective_calibration_path(self) -> Path:
        if self.calibration_path:
            return Path(self.calibration_path)
        return Path(self.out_dir) / "calibration.json"


def _check_offsets(offsets: Sequence[int]) -> None:
    if len(offsets) > MAX_OFFSETS:
        raise ConfigError(f"bad offset list: over {MAX_OFFSETS} offsets")
    seen: set[int] = set()
    for offset in offsets:
        if offset in seen:
            raise ConfigError(f"duplicate offset {offset}")
        seen.add(offset)


def check_run_values(offsets: Sequence[int], f_prime_wei: Decimal, overhead_gas: int) -> None:
    """Raise ConfigError unless a run, or a synth scenario, may use these values.

    At most MAX_OFFSETS distinct offsets (quote files key on trade and
    offset), 0 <= f' <= 2^128 - 1 wei/gas and overhead gas in [0, 2^64 - 1].
    """
    _check_offsets(offsets)
    if f_prime_wei < 0:
        raise ConfigError("f_prime_wei must be nonnegative")
    if f_prime_wei > MAX_UINT128:
        raise ConfigError(
            f"f_prime_wei: {f_prime_wei} wei/gas exceeds the uint128 bound {MAX_UINT128}"
        )
    if not 0 <= overhead_gas <= MAX_UINT64:
        raise ConfigError(f"overhead_gas: {overhead_gas} is outside [0, 2^64 - 1]")


def parse_offsets(text: str) -> tuple[int, ...]:
    """Parse 'a..b' (inclusive) or a comma list: at most MAX_OFFSETS distinct offsets."""
    text = text.strip()
    try:
        if ".." in text:
            lo_s, hi_s = text.split("..", 1)
            lo, hi = integer(lo_s, "offsets"), integer(hi_s, "offsets")
            if hi < lo:
                raise ConfigError(f"bad offset range {text!r}: end before start")
            if hi - lo >= MAX_OFFSETS:
                raise ConfigError(f"bad offset range {text!r}: over {MAX_OFFSETS} offsets")
            return tuple(range(lo, hi + 1))
        offsets = tuple(integer(part, "offsets") for part in text.split(","))
    except ValueError:
        raise ConfigError(f"cannot parse offsets {text!r}") from None
    _check_offsets(offsets)
    return offsets


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Flat `key = value` lines; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except UnicodeDecodeError:
        raise ConfigError("cannot read config file: not UTF-8 text") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        values[key] = value
    return values


# Config takes 1/yes/0/no as booleans too, where ingest takes only true/false.
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# Each typed key's value rule, and what a refusal says the key expected.
_TYPED_KEYS = {
    **dict.fromkeys(
        ("strict", "no_correction"),
        (partial(spelled, spellings=_BOOLEANS, expected="a boolean"), "a boolean"),
    ),
    **dict.fromkeys(("window", "stride", "overhead_gas"), (integer, "an integer")),
    **dict.fromkeys(("f_prime_wei", "sys_multiplier"), (finite_number, "a finite decimal")),
}
_STR_KEYS = {
    "trades_path", "quotes_path", "pools_path", "out_dir", "calibration_path", "calibration_filter"
}

# CLI/file spellings -> RunConfig field names
_ALIASES = {
    "trades": "trades_path",
    "quotes": "quotes_path",
    "pools": "pools_path",
    "out": "out_dir",
    "calibration": "calibration_path",
}


def _coerce(key: str, value) -> object:
    if key == "offsets":
        return parse_offsets(value) if isinstance(value, str) else tuple(value)
    if key in _TYPED_KEYS:
        rule, expected = _TYPED_KEYS[key]
        try:
            return rule(value, key)
        except ValueError:
            raise ConfigError(f"{key}: expected {expected}, got {value!r}") from None
    if key in _STR_KEYS:
        return str(value)
    raise ConfigError(f"unknown config key {key!r}")


def build_config(file_values: dict | None = None, cli_values: dict | None = None) -> RunConfig:
    """Merge defaults <- config file <- CLI flags (CLI wins)."""
    merged: dict[str, object] = {}
    for source in (file_values or {}, cli_values or {}):
        for raw_key, value in source.items():
            if value is None:
                continue
            key = _ALIASES.get(raw_key, raw_key)
            merged[key] = _coerce(key, value)
    return RunConfig(**merged)


def config_hash(cfg: RunConfig) -> str:
    """Short content hash of the effective configuration."""
    lines = []
    for f in sorted(fields(RunConfig), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]
