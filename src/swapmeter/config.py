"""Run configuration: flat key=value config files, CLI overrides, hashing."""

from __future__ import annotations

import hashlib
from collections import namedtuple
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import NamedTuple, Sequence

from swapmeter.errors import ConfigError
from swapmeter.model import MAX_UINT64, MAX_UINT128
from swapmeter.numeric import finite_number, integer, spelled

# Most offsets one run may ask for; an offset range is checked before it is built.
MAX_OFFSETS = 10_000


class Setting(NamedTuple):
    """A RunConfig field, its flag (None: config files only), kind, default and the flag's help."""

    field: str
    flag: str | None
    kind: str  # a key of _KINDS
    default: object
    help: str = ""


# Every run setting, one row per RunConfig field, in the order the CLI lists the flags.
SETTINGS = (
    Setting("trades_path", "--trades", "text", None, "trade CSV/JSONL path"),
    Setting("quotes_path", "--quotes", "text", None, "recorded quote file (replay baseline)"),
    Setting("pools_path", "--pools", "text", None,
            "pool snapshot file (synthetic router baseline)"),
    Setting("out_dir", "--out", "text", "out", "output directory"),
    Setting("offsets", "--offsets", "offsets", tuple(range(-4, 4)),
            "block offsets, e.g. -4..3 or 0,1"),
    Setting("f_prime_wei", "--f-prime-wei", "decimal", Decimal(100_000_000),  # 0.1 Gwei
            "baseline priority fee (wei/gas)"),
    Setting("window", "--window", "integer", 200, "rolling window size"),
    Setting("stride", None, "integer", 1),
    Setting("strict", "--strict", "boolean", False, "fail on first bad row"),
    Setting("no_correction", "--no-correction", "boolean", False, "skip gas-bias correction"),
    Setting("sys_multiplier", "--sys-multiplier", "decimal", Decimal(1), "multiple of beta1 SE"),
    Setting("calibration_path", "--calibration", "text", None, "calibration report to apply"),
    Setting("calibration_filter", "--calibration-filter", "text", "Classic",
            "settlement path used as the calibration sample"),
    Setting("overhead_gas", None, "integer", 80_000),  # gas a route spends beyond its hops
)


class RunConfig(
    namedtuple("_RunValues", [s.field for s in SETTINGS], defaults=[s.default for s in SETTINGS])
):
    """A run's settings, checked on construction; `SETTINGS` declares each field.

    Synth checks a spec's offsets, f' and overhead gas by building one.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        check_offsets(self.offsets)
        if self.f_prime_wei < 0:
            raise ConfigError("f_prime_wei must be nonnegative")
        if self.f_prime_wei > MAX_UINT128:
            raise ConfigError(
                f"f_prime_wei: {self.f_prime_wei} wei/gas exceeds the uint128 bound {MAX_UINT128}"
            )
        if not 0 <= self.overhead_gas <= MAX_UINT64:
            raise ConfigError(f"overhead_gas: {self.overhead_gas} is outside [0, 2^64 - 1]")
        if self.window < 2:
            raise ConfigError("window must be >= 2")
        if self.stride < 1:
            raise ConfigError("stride must be >= 1")
        if self.sys_multiplier <= 0:
            raise ConfigError("sys_multiplier must be positive")
        return self

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


def check_offsets(offsets: Sequence[int]) -> None:
    """Raise ConfigError on no offsets, more than MAX_OFFSETS or a repeated one."""
    if not offsets:
        raise ConfigError("offsets must be nonempty")
    if len(offsets) > MAX_OFFSETS:
        raise ConfigError(f"bad offset list: over {MAX_OFFSETS} offsets")
    seen: set[int] = set()
    for offset in offsets:
        if offset in seen:
            raise ConfigError(f"duplicate offset {offset}")
        seen.add(offset)


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
    check_offsets(offsets)
    return offsets


def parse_config(text: str) -> dict[str, str]:
    """A config file's flat `key = value` lines by field (an unknown key as written).

    '#' starts a comment. A key whose field an earlier line set, in either
    spelling, is refused.
    """
    values: dict[str, str] = {}
    seen: dict[str, int] = {}  # field: the line that set it
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        field = _BY_KEY[key].field if key in _BY_KEY else key
        if field in seen:
            raise ConfigError(
                f"config line {lineno}: repeated key {key!r} (line {seen[field]} sets {field})"
            )
        seen[field] = lineno
        values[field] = value
    return values


# Config takes 1/yes/0/no as booleans too, where ingest takes only true/false.
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
# Each value kind's rule, and what a refusal says the key expected (offsets word their own).
_KINDS = {
    "text": (lambda value, _: str(value), "text"),
    "offsets": (lambda value, _: parse_offsets(value), "offsets"),
    "integer": (integer, "an integer"),
    "decimal": (finite_number, "a finite decimal"),
    "boolean": (partial(spelled, spellings=_BOOLEANS, expected="a boolean"), "a boolean"),
}


# A config file spells a setting by its field's name or by its flag's (the flag's dest).
_BY_KEY = {k: s for s in SETTINGS for k in (s.field, s.flag and s.flag[2:].replace("-", "_")) if k}


def coerce_values(values: dict) -> dict[str, object]:
    """`values` keyed by RunConfig field, each read by its setting's kind; None values left out."""
    coerced = {}
    for key, value in values.items():
        if value is None:
            continue
        if key not in _BY_KEY:
            raise ConfigError(f"unknown config key {key!r}")
        field, _, kind, *_ = _BY_KEY[key]
        rule, expected = _KINDS[kind]
        try:
            coerced[field] = rule(value, field)
        except ValueError:
            raise ConfigError(f"{field}: expected {expected}, got {value!r}") from None
    return coerced


def config_hash(cfg: RunConfig) -> str:
    """Short content hash of the effective configuration."""
    lines = []
    for name in sorted(RunConfig._fields):
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{name}={value}")
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
    return digest[:12]
