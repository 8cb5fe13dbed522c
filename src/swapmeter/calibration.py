"""Gas-estimate bias calibration.

Baseline gas estimates g' carry a systematic bias relative to realized
gas g. A through-origin regression g' ~ beta1 * g estimates the bias;
corrected estimates are g'/beta1. The slope's standard error feeds the
systematic uncertainty band downstream.
"""

from __future__ import annotations

import warnings
from decimal import Decimal, Overflow
from typing import Iterable, NamedTuple

from swapmeter.errors import ConfigError, DegenerateRegressor, InsufficientData
from swapmeter.numeric import finite_number, integer

# Bounds of the slope beta1 and of its standard error: estimated gas from
# 1e-18 to 1e18 times realized gas. Far inside them, g'/beta1 * (b+f') and
# the prices built from it stay in the decimal range for every quoted gas
# g' <= 2^128 - 1; a slope of 1e-999990 overflowed it.
MIN_SLOPE = Decimal("1e-18")
MAX_SLOPE = Decimal("1e18")


class GasCalibration(NamedTuple("GasCalibration", [
    ("beta1", Decimal), ("beta1_se", Decimal), ("n_points", int),
    ("residual_mean", Decimal), ("residual_stddev", Decimal),
])):
    """Fitted bias slope beta1 with its standard error and fit summary."""

    __slots__ = ()

    def __new__(cls, beta1, beta1_se, n_points, residual_mean, residual_stddev):
        if beta1 <= 0:
            raise ValueError("beta1 must be positive")
        if not MIN_SLOPE <= beta1 <= MAX_SLOPE:
            raise ValueError(f"beta1 {beta1} is outside [{MIN_SLOPE}, {MAX_SLOPE}]")
        if beta1_se < 0:
            raise ValueError("beta1_se must be nonnegative")
        if beta1_se > MAX_SLOPE:
            raise ValueError(f"beta1_se {beta1_se} exceeds {MAX_SLOPE}")
        return tuple.__new__(cls, (beta1, beta1_se, n_points, residual_mean, residual_stddev))

    def as_dict(self) -> dict:
        return {
            "beta1": str(self.beta1),
            "beta1_se": str(self.beta1_se),
            "n_points": self.n_points,
            "residual_mean": str(self.residual_mean),
            "residual_stddev": str(self.residual_stddev),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GasCalibration":
        """The calibration `as_dict` wrote; ConfigError if `d` does not hold one."""
        if not isinstance(d, dict):
            raise ConfigError("expected a JSON object")
        try:
            return cls(
                beta1=finite_number(d["beta1"], "beta1"),
                beta1_se=finite_number(d["beta1_se"], "beta1_se"),
                n_points=integer(d["n_points"], "n_points"),
                residual_mean=finite_number(d["residual_mean"], "residual_mean"),
                residual_stddev=finite_number(d["residual_stddev"], "residual_stddev"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing key {exc}") from None
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def fit_gas_bias(pairs: Iterable[tuple[int | Decimal, Decimal]]) -> GasCalibration:
    """Through-origin least squares of estimates g' on realized gas g.

    beta1 = sum(g*g') / sum(g^2)
    se    = sqrt( sum((g' - beta1*g)^2) / ((n-1) * sum(g^2)) )
    """
    data = [(Decimal(g), Decimal(g_est)) for g, g_est in pairs]
    if len(data) < 2:
        raise InsufficientData(f"gas calibration needs >= 2 pairs, got {len(data)}")
    if any(g <= 0 for g, _ in data):
        raise DegenerateRegressor("all realized gas values must be positive")

    n = len(data)
    sum_gg = sum(g * g for g, _ in data)
    sum_gq = sum(g * q for g, q in data)
    beta1 = sum_gq / sum_gg
    if beta1 <= 0:
        raise DegenerateRegressor("fitted beta1 is non-positive")
    ss_resid = sum((q - beta1 * g) ** 2 for g, q in data)
    se = (ss_resid / ((n - 1) * sum_gg)).sqrt()

    ratios = [q / g for g, q in data]
    mean = sum(ratios) / n
    var = sum((r - mean) ** 2 for r in ratios) / (n - 1)
    try:
        return GasCalibration(
            beta1=beta1,
            beta1_se=se,
            n_points=n,
            residual_mean=mean,
            residual_stddev=var.sqrt(),
        )
    except ValueError as exc:
        raise DegenerateRegressor(f"fitted {exc}") from None


def perturbed_calibrations(
    cal: GasCalibration, multiplier: Decimal | int = 1
) -> tuple[GasCalibration, GasCalibration]:
    """Calibrations at beta1 +/- multiplier*beta1_se for systematic bands.

    A non-positive lower slope cannot divide gas estimates; it is clamped
    to beta1/2 with a warning. ConfigError if the multiplier is not
    positive, or the shift overflows or takes a slope outside
    [MIN_SLOPE, MAX_SLOPE].
    """
    if multiplier <= 0:
        raise ConfigError("sys_multiplier must be positive")
    try:
        delta = Decimal(multiplier) * cal.beta1_se
        upper = cal.beta1 + delta
    except Overflow:
        raise ConfigError(
            f"sys_multiplier {multiplier} times beta1_se {cal.beta1_se} is out of range"
        ) from None
    low = cal.beta1 - delta
    if low <= 0:
        warnings.warn(
            f"beta1 - {multiplier}*se = {low} is non-positive; clamping lower "
            f"calibration to beta1/2",
            stacklevel=2,
        )
        low = cal.beta1 / 2
    try:
        # built anew, not by `_replace`, so each shifted slope is checked
        return GasCalibration(upper, *cal[1:]), GasCalibration(low, *cal[1:])
    except ValueError as exc:
        raise ConfigError(f"beta1 +/- {multiplier}*se: {exc}") from None
