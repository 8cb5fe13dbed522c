"""Record constructors: every refusal, by type and message, and what importing the CLI loads."""

import os
import subprocess
import sys
from decimal import Decimal as D
from pathlib import Path

import pytest

import swapmeter
from conftest import GWEI, USDC, WETH, make_pool, make_trade
from swapmeter.calibration import GasCalibration
from swapmeter.config import RunConfig
from swapmeter.errors import ConfigError
from swapmeter.model import MAX_UINT128, Direction, GasTerms, Quote, TokenAmount
from swapmeter.prices import DecisionVector

WETH_OUT = make_trade(direction=Direction.WETH_OUT)
VALID = {
    "TokenAmount": TokenAmount(WETH, 18),
    "GasTerms": GasTerms(150_000, 20 * GWEI, GWEI),
    "TradeRecord": make_trade(),
    "TradeRecord-out": WETH_OUT,
    "TradeRecord-out-internalized": make_trade(direction=Direction.WETH_OUT, gas_internalized=True),
    "Quote": Quote("T1", 0, TokenAmount(3000 * USDC, 6), D(150_000), "prov"),
    "Pool": make_pool(),
    "DecisionVector": DecisionVector(TokenAmount(3000 * USDC, 6), D(150_000), D(GWEI)),
    "GasCalibration": GasCalibration(D("0.97"), D("0.03"), 20, D(1), D(0)),
    "RunConfig": RunConfig(),
}

# One row per constructor check: (valid record, fields changed, exception type, message).
REFUSALS = {
    "amount-raw-negative": ("TokenAmount", {"raw": -1}, ValueError,
                            "raw must be a nonnegative integer"),
    "amount-raw-not-int": ("TokenAmount", {"raw": 1.5}, ValueError,
                           "raw must be a nonnegative integer"),
    "amount-raw-past-bound": ("TokenAmount", {"raw": 10**60}, ValueError,
                              "raw exceeds exact decimal range"),
    "amount-decimals-negative": ("TokenAmount", {"decimals": -1}, ValueError,
                                 "decimals must be in [0, 36]"),
    "amount-decimals-37": ("TokenAmount", {"decimals": 37}, ValueError,
                           "decimals must be in [0, 36]"),
    "gas-used-negative": ("GasTerms", {"gas_used": -1}, ValueError,
                          "gas_used must be a nonnegative integer"),
    "gas-base-fee-text": ("GasTerms", {"base_fee": "1"}, ValueError,
                          "base_fee must be a nonnegative integer"),
    "gas-priority-fee-negative": ("GasTerms", {"priority_fee": -1}, ValueError,
                                  "priority_fee must be a nonnegative integer"),
    "gas-cost-overflow": ("GasTerms", {"gas_used": 2**64, "base_fee": 2**64}, ValueError,
                          "gas_used * (base_fee + priority_fee) overflows uint128"),
    "trade-amount-in-zero": ("TradeRecord", {"amount_in": TokenAmount(0, 18)}, ValueError,
                             "amount_in.raw must be > 0"),
    "trade-amount-out-zero": ("TradeRecord", {"amount_out": TokenAmount(0, 6)}, ValueError,
                              "amount_out.raw must be > 0"),
    "trade-weth-in-decimals": ("TradeRecord", {"amount_in": TokenAmount(WETH, 6)}, ValueError,
                               "WETH_IN trade requires amount_in decimals = 18"),
    "trade-weth-out-decimals": ("TradeRecord-out", {"amount_out": TokenAmount(WETH, 6)},
                                ValueError, "WETH_OUT trade requires amount_out decimals = 18"),
    "trade-gross-output-past-bound": (
        "TradeRecord-out-internalized", {"amount_out": TokenAmount(10**60 - 1, 18)},
        ValueError, "amount_out.raw + gas cost must be below 10^60",
    ),
    "trade-block-negative": ("TradeRecord", {"block_number": -1}, ValueError,
                             "block_number must be nonnegative"),
    "trade-usd-negative": ("TradeRecord", {"usd_value": D(-1)}, ValueError,
                           "usd_value must be nonnegative"),
    "quote-gas-negative": ("Quote", {"gas_estimate": D(-1)}, ValueError,
                           "gas_estimate must be nonnegative"),
    "quote-gas-past-uint128": ("Quote", {"gas_estimate": D(2**128)}, ValueError,
                               "gas_estimate exceeds the uint128 bound 2^128 - 1"),
    "pool-weth-reserve-zero": ("Pool", {"reserve_weth": TokenAmount(0, 18)}, ValueError,
                               "pool reserves must be strictly positive"),
    "pool-token-reserve-zero": ("Pool", {"reserve_token": TokenAmount(0, 6)}, ValueError,
                                "pool reserves must be strictly positive"),
    "pool-weth-decimals": ("Pool", {"reserve_weth": TokenAmount(WETH, 6)}, ValueError,
                           "reserve_weth must have decimals = 18"),
    "pool-fee-10000": ("Pool", {"fee_bps": 10_000}, ValueError, "fee_bps must be in [0, 10000)"),
    "pool-fee-negative": ("Pool", {"fee_bps": -1}, ValueError, "fee_bps must be in [0, 10000)"),
    "pool-hop-gas-negative": ("Pool", {"gas_per_hop": -1}, ValueError,
                              "gas_per_hop must be nonnegative"),
    "pool-hop-gas-past-uint64": ("Pool", {"gas_per_hop": 2**64}, ValueError,
                                 "gas_per_hop exceeds the uint64 bound 2^64 - 1"),
    "decision-g-negative": ("DecisionVector", {"g": D(-1)}, ValueError,
                            "g and f must be nonnegative"),
    "decision-f-negative": ("DecisionVector", {"f": D(-1)}, ValueError,
                            "g and f must be nonnegative"),
    "calibration-slope-zero": ("GasCalibration", {"beta1": D(0)}, ValueError,
                               "beta1 must be positive"),
    "calibration-slope-above": ("GasCalibration", {"beta1": D("1e19")}, ValueError,
                                "beta1 1E+19 is outside [1E-18, 1E+18]"),
    "calibration-slope-below": ("GasCalibration", {"beta1": D("1e-19")}, ValueError,
                                "beta1 1E-19 is outside [1E-18, 1E+18]"),
    "calibration-se-negative": ("GasCalibration", {"beta1_se": D("-0.01")}, ValueError,
                                "beta1_se must be nonnegative"),
    "calibration-se-above": ("GasCalibration", {"beta1_se": D("1e19")}, ValueError,
                             "beta1_se 1E+19 exceeds 1E+18"),
    "config-no-offsets": ("RunConfig", {"offsets": ()}, ConfigError,
                          "offsets must be nonempty"),
    "config-duplicate-offset": ("RunConfig", {"offsets": (0, 0)}, ConfigError,
                                "duplicate offset 0"),
    "config-too-many-offsets": ("RunConfig", {"offsets": tuple(range(10_001))}, ConfigError,
                                "bad offset list: over 10000 offsets"),
    "config-f-prime-negative": ("RunConfig", {"f_prime_wei": D(-1)}, ConfigError,
                                "f_prime_wei must be nonnegative"),
    "config-f-prime-past-uint128": (
        "RunConfig", {"f_prime_wei": D(2**128)}, ConfigError,
        f"f_prime_wei: {2**128} wei/gas exceeds the uint128 bound {MAX_UINT128}",
    ),
    "config-overhead-negative": ("RunConfig", {"overhead_gas": -1}, ConfigError,
                                 "overhead_gas: -1 is outside [0, 2^64 - 1]"),
    "config-window-1": ("RunConfig", {"window": 1}, ConfigError, "window must be >= 2"),
    "config-stride-0": ("RunConfig", {"stride": 0}, ConfigError, "stride must be >= 1"),
    "config-sys-multiplier-0": ("RunConfig", {"sys_multiplier": D(0)}, ConfigError,
                                "sys_multiplier must be positive"),
}


@pytest.mark.parametrize("call", ["positional", "keyword"])
@pytest.mark.parametrize("valid, changed, error, message", REFUSALS.values(), ids=REFUSALS)
def test_constructor_refusal(call, valid, changed, error, message):
    record = VALID[valid]
    values = {name: getattr(record, name) for name in type(record).__match_args__}
    values.update(changed)
    with pytest.raises(error) as exc:
        if call == "positional":
            type(record)(*values.values())
        else:
            type(record)(**values)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_valid_records_rebuild_equal():
    for record in VALID.values():
        values = {name: getattr(record, name) for name in type(record).__match_args__}
        assert type(record)(*values.values()) == type(record)(**values) == record


def test_cli_import_loads_no_dataclasses_or_inspect():
    # both cost every CLI process its import time; dataclasses also generates code per record
    env = {**os.environ, "PYTHONPATH": str(Path(swapmeter.__file__).parent.parent)}
    code = "import sys, swapmeter.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")
