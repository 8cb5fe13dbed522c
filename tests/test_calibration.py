"""Gas-bias regression, correction, and perturbed calibrations."""

import random
from decimal import Decimal

import pytest

from swapmeter.baseline import CalibratedProvider
from swapmeter.calibration import GasCalibration, fit_gas_bias, perturbed_calibrations
from swapmeter.errors import ConfigError, DegenerateRegressor, InsufficientData

from conftest import make_trade, replay_for


def noisy_pairs(seed, n, slope=0.95, sigma=5000.0):
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        g = rng.uniform(50_000, 500_000)
        gp = slope * g + rng.gauss(0, sigma)
        pairs.append((Decimal(f"{g:.6f}"), Decimal(f"{gp:.6f}")))
    return pairs


def corrected_gas(gas_estimate, cal):
    """The gas estimate a `CalibratedProvider` serves for a quoted `gas_estimate`."""
    provider = CalibratedProvider(replay_for("T1", 0, 1000, 6, gas_estimate), cal)
    return provider.quote(make_trade(), 0).gas_estimate


class TestFit:
    def test_perfect_estimator(self):
        cal = fit_gas_bias([(100_000, Decimal(100_000)), (250_000, Decimal(250_000))])
        assert cal.beta1 == 1
        assert cal.beta1_se == 0
        assert cal.residual_mean == 1
        assert cal.residual_stddev == 0

    def test_exact_proportionality(self):
        pairs = [(g, Decimal(g) * Decimal("0.9")) for g in (100_000, 150_000, 900_000)]
        cal = fit_gas_bias(pairs)
        assert cal.beta1 == Decimal("0.9")
        assert cal.beta1_se == 0

    def test_monte_carlo_recovery(self):
        # beta1 = 0.95 with N(0, 5000) noise, n = 500: the fitted slope is
        # within 2 standard errors of truth in >= 95 of 100 seeded runs.
        hits = 0
        for seed in range(4000, 4100):
            cal = fit_gas_bias(noisy_pairs(seed, 500))
            if abs(cal.beta1 - Decimal("0.95")) <= 2 * cal.beta1_se:
                hits += 1
        assert hits >= 95

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_gas_bias([(100_000, Decimal(95_000))])

    def test_degenerate_regressor(self):
        with pytest.raises(DegenerateRegressor):
            fit_gas_bias([(0, Decimal(0)), (0, Decimal(0))])

    def test_slope_outside_bounds_is_degenerate(self):
        with pytest.raises(DegenerateRegressor, match=r"fitted beta1 .* is outside \[1E-18, 1E\+18\]"):
            fit_gas_bias([(100_000, Decimal("1e-20")), (200_000, Decimal("2e-20"))])

    def test_scale_equivariance(self):
        pairs = noisy_pairs(1, 50)
        scaled = [(g * 7, q * 7) for g, q in pairs]
        a = fit_gas_bias(pairs)
        b = fit_gas_bias(scaled)
        assert abs(a.beta1 - b.beta1) < Decimal("1e-45")

    def test_refit_after_correction_is_unity(self):
        pairs = [(g, Decimal(g) * Decimal("0.85")) for g in (90_000, 140_000, 600_000)]
        cal = fit_gas_bias(pairs)
        corrected = [(g, q / cal.beta1) for g, q in pairs]
        assert abs(fit_gas_bias(corrected).beta1 - 1) < Decimal("1e-10")

    def test_se_shrinks_like_sqrt_n(self):
        ses = {}
        for n in (100, 400, 1600):
            cal = fit_gas_bias(noisy_pairs(123, n))
            ses[n] = cal.beta1_se
        # each 4x in n should roughly halve the SE (within a factor of 2)
        for small, large in ((100, 400), (400, 1600)):
            ratio = ses[small] / ses[large]
            assert Decimal(1) < ratio < Decimal(4)


class TestCorrection:
    def test_calibrated_gas_arithmetic(self):
        cal = fit_gas_bias([(g, Decimal(g) * Decimal("0.95")) for g in (100_000, 300_000)])
        assert corrected_gas(95_000, cal) == Decimal(100_000)

    def test_identity_calibration_is_noop(self):
        cal = fit_gas_bias([(100_000, Decimal(100_000)), (200_000, Decimal(200_000))])
        assert corrected_gas(123_456, cal) == Decimal(123_456)

    def test_requote_is_the_inner_providers(self):
        cal = fit_gas_bias([(g, Decimal(g) * Decimal("0.95")) for g in (100_000, 300_000)])
        inner = replay_for("T1", 0, 3000 * 10**6, 6, 150_000)
        adjusted = 10**18 - 7 * 10**15
        provider = CalibratedProvider(inner, cal)
        served_raw = provider.serve(make_trade(), 0)[0]
        requoted = provider.output_at(make_trade(), 0, served_raw, adjusted)
        assert requoted == inner.output_at(make_trade(), 0, inner.serve(make_trade(), 0)[0], adjusted)


class TestPerturbed:
    def test_zero_se_returns_original(self):
        cal = GasCalibration(Decimal(1), Decimal(0), 5, Decimal(1), Decimal(0))
        upper, lower = perturbed_calibrations(cal)
        assert upper.beta1 == lower.beta1 == Decimal(1)

    def test_plain_shift(self):
        cal = GasCalibration(Decimal("0.9"), Decimal("0.05"), 5, Decimal(1), Decimal(0))
        upper, lower = perturbed_calibrations(cal)
        assert (upper.beta1, lower.beta1) == (Decimal("0.95"), Decimal("0.85"))

    def test_lower_clamped_with_warning(self):
        cal = GasCalibration(Decimal("0.1"), Decimal("0.2"), 5, Decimal(1), Decimal(0))
        with pytest.warns(UserWarning, match="clamping"):
            upper, lower = perturbed_calibrations(cal)
        assert upper.beta1 == Decimal("0.3")
        assert lower.beta1 == Decimal("0.05")

    @pytest.mark.parametrize("multiplier", [0, -1])
    def test_non_positive_multiplier_is_a_config_error(self, multiplier):
        # -1 would swap the band's sides and 0 would give a 0/0 band
        cal = GasCalibration(Decimal("0.9"), Decimal("0.05"), 5, Decimal(1), Decimal(0))
        with pytest.raises(ConfigError) as caught:
            perturbed_calibrations(cal, multiplier)
        assert str(caught.value) == "sys_multiplier must be positive"

    def test_multiplier_scales_shift(self):
        cal = GasCalibration(Decimal("0.9"), Decimal("0.02"), 5, Decimal(1), Decimal(0))
        upper, _ = perturbed_calibrations(cal, 2)
        assert upper.beta1 == Decimal("0.94")

    @pytest.mark.parametrize(
        "beta1, se, multiplier, reason",
        [
            ("0.9", "0.02", Decimal("1e20"), r"beta1 2000000000000000000\.9 is outside"),
            ("1", "0.99999999999999999999", 1, r"beta1 1E-20 is outside"),
            ("1.5E-18", "1", 1, r"beta1 7\.5E-19 is outside"),
        ],
        ids=["upper-above", "lower-below", "clamped-below"],
    )
    @pytest.mark.filterwarnings("ignore:beta1 - .* is non-positive")
    def test_shifted_slope_outside_bounds_is_a_config_error(self, beta1, se, multiplier, reason):
        cal = GasCalibration(Decimal(beta1), Decimal(se), 5, Decimal(1), Decimal(0))
        with pytest.raises(ConfigError, match=reason):
            perturbed_calibrations(cal, multiplier)

    def test_overflowing_shift_is_a_config_error(self):
        cal = GasCalibration(Decimal("0.9"), Decimal("0.02"), 5, Decimal(1), Decimal(0))
        with pytest.raises(ConfigError, match="out of range"):
            perturbed_calibrations(cal, Decimal("1e999999999"))


class TestFromDict:
    def test_round_trip(self):
        cal = fit_gas_bias(noisy_pairs(3, 40))
        assert GasCalibration.from_dict(cal.as_dict()) == cal

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"beta1": None}, "beta1 must be a decimal number"),
            ({"beta1_se": "Infinity"}, "beta1_se must be a finite number"),
            ({"n_points": "many"}, "n_points must be an integer"),
            ({"beta1": "-1"}, "beta1 must be positive"),
        ],
    )
    def test_bad_values_are_config_errors(self, change, reason):
        d = {**fit_gas_bias(noisy_pairs(3, 40)).as_dict(), **change}
        with pytest.raises(ConfigError, match=reason):
            GasCalibration.from_dict(d)

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"n_points": 2.9}, "n_points must be an integer"),
            ({"n_points": True}, "n_points must be an integer"),
            ({"beta1": True}, "beta1 must be a decimal number"),
        ],
        ids=["float-count", "bool-count", "bool-slope"],
    )
    def test_bools_and_floats_are_refused(self, change, reason):
        # n_points 2.9 used to read as 2, and beta1 true as 1
        d = {**fit_gas_bias(noisy_pairs(3, 40)).as_dict(), **change}
        with pytest.raises(ConfigError) as caught:
            GasCalibration.from_dict(d)
        assert str(caught.value) == reason

    def test_a_json_float_reads_as_its_text(self):
        # Decimal(0.1) used to read the float's binary expansion, 0.1000000000000000055511...
        d = {**fit_gas_bias(noisy_pairs(3, 40)).as_dict(), "beta1_se": 0.1}
        assert str(GasCalibration.from_dict(d).beta1_se) == "0.1"

    @pytest.mark.parametrize(
        "change, reason",
        [
            ({"beta1": "1e-999990"}, r"beta1 1E-999990 is outside \[1E-18, 1E\+18\]"),
            ({"beta1": "1e19"}, r"beta1 1E\+19 is outside"),
            ({"beta1_se": "1e19"}, r"beta1_se 1E\+19 exceeds 1E\+18"),
        ],
    )
    def test_slopes_outside_bounds_are_config_errors(self, change, reason):
        d = {**fit_gas_bias(noisy_pairs(3, 40)).as_dict(), **change}
        with pytest.raises(ConfigError, match=reason):
            GasCalibration.from_dict(d)

    def test_missing_key_and_non_object(self):
        d = fit_gas_bias(noisy_pairs(3, 40)).as_dict()
        del d["residual_mean"]
        with pytest.raises(ConfigError, match="missing key 'residual_mean'"):
            GasCalibration.from_dict(d)
        with pytest.raises(ConfigError, match="expected a JSON object"):
            GasCalibration.from_dict([])
