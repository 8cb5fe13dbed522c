"""Synthetic scenario generation: determinism, validity, branch coverage."""

import json
from decimal import Decimal

import pytest

from swapmeter.cli import main
from swapmeter.config import MAX_OFFSETS, RunConfig
from swapmeter.errors import ConfigError, InvalidSpec
from swapmeter.ingest import ingest_pool_snapshots, ingest_quotes, ingest_trades
from swapmeter.synth import generate, load_scenario


def scenario(**overrides):
    base = {
        "seed": 11,
        "n_trades": 40,
        "size_distribution": {"min_usd": "800", "max_usd": "60000"},
        "path_mix": {"Classic": 0.4, "Aggregator": 0.2, "X": 0.2, "Fusion": 0.2},
        "ofa_liquidity_bonus_bps": "5",
        "offsets": [-1, 0],
    }
    base.update(overrides)
    return load_scenario(base)


class TestLoadScenario:
    def test_defaults_fill_in(self):
        spec = load_scenario({"seed": 1})
        assert spec.n_trades == 100
        assert spec.offsets == tuple(range(-4, 4))
        assert spec.f_prime_wei == Decimal(100_000_000)
        assert len(spec.pools) == 3

    def test_bad_mix_rejected(self):
        with pytest.raises(InvalidSpec, match="sum to 1"):
            load_scenario({"path_mix": {"Classic": 0.5, "X": 0.2}})

    def test_bad_size_range_rejected(self):
        with pytest.raises(InvalidSpec):
            load_scenario({"size_distribution": {"min_usd": "100", "max_usd": "50"}})

    def test_unknown_distribution_rejected(self):
        with pytest.raises(InvalidSpec):
            load_scenario({"size_distribution": {"type": "pareto"}})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidSpec):
            load_scenario(tmp_path / "nope.json")

    def test_json_nested_past_the_recursion_limit_exits_2(self, tmp_path, capsys):
        # RecursionError used to end the run in a traceback (exit 1)
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 3000)
        assert main(["synth", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: cannot read scenario file: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "data, reason",
        [
            (b'{"seed": 1\xff}', "not UTF-8 text"),
            (b'{"seed": ' + b"9" * 5000 + b"}", "an integer has too many digits\n"),
        ],
        ids=["not-utf8", "overlong-int-literal"],
    )
    def test_unreadable_spec_exits_2(self, tmp_path, capsys, data, reason):
        # a UnicodeDecodeError or ValueError used to end the run in a traceback (exit 1)
        spec = tmp_path / "spec.json"
        spec.write_bytes(data)
        assert main(["synth", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read scenario file: {reason}")


def _pool(**overrides):
    pool = {"pool_id": "P", "reserve_weth": "100", "reserve_token": "300000",
            "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 120000}
    return {**pool, **overrides}


class TestIntegerFields:
    """Integer spec fields take JSON integers and integer strings, never bools or floats."""

    def test_truncating_spec_exits_2_and_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text('{"seed": 1, "n_trades": 5.9, "offsets": [0, 1.7]}')
        assert main(["synth", str(spec), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "error: bad scenario field: n_trades must be an integer, got 5.9\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"n_trades": True}, "n_trades must be an integer, got true"),
            ({"n_trades": 5.0}, "n_trades must be an integer, got 5.0"),
            ({"offsets": [0, 1.7]}, "offsets must be an integer, got 1.7"),
            ({"offsets": [0, False]}, "offsets must be an integer, got false"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"overhead_gas": 8e4}, "overhead_gas must be an integer, got 80000.0"),
            ({"pools": [_pool(token_decimals=6.0)]}, "token_decimals must be an integer, got 6.0"),
            ({"pools": [_pool(fee_bps=True)]}, "fee_bps must be an integer, got true"),
            ({"pools": [_pool(gas_per_hop=1.2e5)]}, "gas_per_hop must be an integer, got 120000.0"),
            # text and null used to give Python's int() message, without the field
            ({"n_trades": "abc"}, 'n_trades must be an integer, got "abc"'),
            ({"n_trades": None}, "n_trades must be an integer, got null"),
        ],
    )
    def test_bools_and_floats_rejected(self, spec, message):
        with pytest.raises(InvalidSpec) as caught:
            load_scenario(json.loads(json.dumps(spec)))
        assert str(caught.value) == f"bad scenario field: {message}"

    def test_integer_strings_accepted(self):
        spec = load_scenario(
            {"seed": "3", "n_trades": "7", "offsets": ["-1", 2], "overhead_gas": "90000",
             "pools": [_pool(token_decimals="6", fee_bps="5", gas_per_hop="110000")]}
        )
        assert (spec.seed, spec.n_trades, spec.offsets, spec.overhead_gas) == (3, 7, (-1, 2), 90000)
        (pool,) = spec.pools
        assert (pool.reserve_token.decimals, pool.fee_bps, pool.gas_per_hop) == (6, 5, 110000)


def _synth_error(tmp_path, capsys, spec) -> str:
    """stderr of `synth` on a 3-trade `spec`, which must exit 2 and write nothing."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 1, "n_trades": 3, **spec}))
    assert main(["synth", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


class TestNumberRanges:
    """A number past its range names the field and the bound, not a decimal signal."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"path_mix": {"X": 1.0}, "ofa_liquidity_bonus_bps": "1e999999"},
                "ofa_liquidity_bonus_bps must be in [0, 10^64), got 1E+999999",
            ),
            (
                {"pools": [_pool(reserve_weth="1e999999")]},
                'bad scenario field: reserve_weth must be in (0, 10^42), got "1e999999"',
            ),
            (
                {"pools": [_pool(reserve_token="-5")]},
                'bad scenario field: reserve_token must be in (0, 10^54), got "-5"',
            ),
            (
                {"pools": [_pool(token_decimals=2**64)]},
                f"bad scenario field: token_decimals must be in [0, 36], got {2**64}",
            ),
        ],
        ids=["huge-bonus", "huge-reserve", "negative-reserve", "decimals-2^64"],
    )
    def test_synth_names_the_field_and_its_bound(self, tmp_path, capsys, spec, message):
        assert _synth_error(tmp_path, capsys, spec) == f"error: {message}\n"


class TestPoolUniverse:
    """Synth pools have distinct ids and one token decimals, as the router baseline needs."""

    def test_duplicate_pool_id_rejected(self, tmp_path, capsys):
        # both rows used to be written at every offset
        spec = {"pools": [_pool(pool_id="A"), _pool(pool_id="B"), _pool(pool_id="A")]}
        assert _synth_error(tmp_path, capsys, spec) == "error: duplicate pool_id A\n"

    def test_mixed_decimals_named(self, tmp_path, capsys):
        spec = {"pools": [_pool(pool_id="A", token_decimals=18), _pool(pool_id="B")]}
        assert _synth_error(tmp_path, capsys, spec) == (
            "error: all pools must share the token's decimals; got [6, 18]\n"
        )


class TestRunValueRules:
    """Synth checks offsets, f' and overhead gas with RunConfig's rules and messages."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("offsets", [0, 0], "duplicate offset 0"),
            ("offsets", list(range(MAX_OFFSETS + 1)), "bad offset list: over 10000 offsets"),
            ("f_prime_wei", "-1", "f_prime_wei must be nonnegative"),
            (
                "f_prime_wei",
                "1e400",
                f"f_prime_wei: 1E+400 wei/gas exceeds the uint128 bound {2**128 - 1}",
            ),
            ("overhead_gas", -1, "overhead_gas: -1 is outside [0, 2^64 - 1]"),
            ("overhead_gas", 2**64, f"overhead_gas: {2**64} is outside [0, 2^64 - 1]"),
        ],
        ids=["duplicate", "too-many", "negative-f", "huge-f", "negative-gas", "gas-2^64"],
    )
    def test_synth_and_run_config_reject_alike(self, tmp_path, capsys, field, value, message):
        # "1e400" used to end in "no feasible split found", 10,001 offsets were accepted
        assert _synth_error(tmp_path, capsys, {field: value}) == f"error: {message}\n"
        run_value = {"offsets": tuple, "f_prime_wei": Decimal}.get(field, int)(value)
        with pytest.raises(ConfigError) as caught:
            RunConfig(**{field: run_value})
        assert str(caught.value) == message

    def test_values_at_the_bounds_are_accepted(self):
        spec = load_scenario(
            {"offsets": list(range(MAX_OFFSETS)), "f_prime_wei": str(2**128 - 1),
             "overhead_gas": 2**64 - 1}
        )
        assert len(spec.offsets) == MAX_OFFSETS
        assert (spec.f_prime_wei, spec.overhead_gas) == (2**128 - 1, 2**64 - 1)


class TestNumberFields:
    """Decimal and float spec fields take finite numbers only."""

    @pytest.mark.parametrize(
        "spec, name",
        [
            ({"f_prime_wei": "nan"}, "f_prime_wei"),
            ({"ofa_liquidity_bonus_bps": "nan", "path_mix": {"X": 1.0}}, "ofa_liquidity_bonus_bps"),
            ({"bonus_min_usd": "nan", "path_mix": {"X": 1.0}}, "bonus_min_usd"),
            ({"base_fee_gwei": ["nan", "nan"]}, "base_fee_gwei"),
            ({"path_mix": {"Classic": "nan"}}, "path_mix"),
        ],
        ids=["f-prime", "bonus", "bonus-gate", "base-fee", "path-weight"],
    )
    def test_nan_is_a_bad_field(self, tmp_path, capsys, spec, name):
        # these ended in InvalidOperation or ValueError tracebacks (exit 1), and a
        # NaN path weight was accepted and gave every trade the last path
        assert _synth_error(tmp_path, capsys, spec) == (
            f'error: bad scenario field: {name} must be a finite number, got "nan"\n'
        )

    @pytest.mark.parametrize("value", ["Infinity", "-inf", "1e400", "x", True, None])
    def test_infinite_or_non_numeric_float_field(self, value):
        with pytest.raises(InvalidSpec) as caught:
            load_scenario({"weth_in_fraction": value})
        assert str(caught.value) == (
            f"bad scenario field: weth_in_fraction must be a finite number, got {json.dumps(value)}"
        )


class TestGenerateErrors:
    """A trade the models refuse is an InvalidSpec that names it."""

    @pytest.mark.parametrize(
        "spec, message",
        [
            (
                {"size_distribution": {"min_usd": 1e70, "max_usd": 1e71}},
                "trade T000000: input amount_in_raw has 77 digits;"
                " raw amounts must be below 10^60",
            ),
            (
                {"size_distribution": {"min_usd": 1e300, "max_usd": 1e300}},
                "trade T000000: input amount_in_raw has 306 digits;"
                " raw amounts must be below 10^60",
            ),
            (
                {"ofa_liquidity_bonus_bps": "1e63", "path_mix": {"X": 1.0}},
                "trade T000000: output amount_out_raw has 77 digits;"
                " raw amounts must be below 10^60",
            ),
            (
                {"base_fee_gwei": ["1e30", "1e30"]},
                "trade T000000: gas_used * (base_fee + priority_fee) overflows uint128",
            ),
            (
                {"gas_profiles": {"Classic": {"gas_noise_rel": "1e30"}}},
                "trade T000002: gas_used * (base_fee + priority_fee) overflows uint128",
            ),
        ],
        ids=["huge-size", "size-1e300", "bonus-1e63", "huge-base-fee", "huge-gas-noise"],
    )
    def test_model_error_names_the_trade(self, tmp_path, capsys, spec, message):
        # these ended in ValueError tracebacks, exit 1
        assert _synth_error(tmp_path, capsys, spec) == f"error: {message}\n"


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        spec = scenario()
        a = generate(spec, tmp_path / "a")
        b = generate(spec, tmp_path / "b")
        for pa, pb in (
            (a.trades_path, b.trades_path),
            (a.pools_path, b.pools_path),
            (a.quotes_path, b.quotes_path),
        ):
            assert pa.read_bytes() == pb.read_bytes()

    def test_distinct_seeds_distinct_data(self, tmp_path):
        a = generate(scenario(seed=1), tmp_path / "a")
        b = generate(scenario(seed=2), tmp_path / "b")
        assert a.trades_path.read_bytes() != b.trades_path.read_bytes()

    def test_outputs_pass_ingestion(self, tmp_path):
        files = generate(scenario(), tmp_path)
        trades = ingest_trades(files.trades_path)
        assert len(trades.records) == 40 and not trades.rejects
        quotes, rejects = ingest_quotes(files.quotes_path)
        assert not rejects
        assert len(quotes) == 40 * 2  # two offsets
        snapshots, rejects = ingest_pool_snapshots(files.pools_path)
        assert not rejects
        assert sorted(snapshots) == [-1, 0]

    def test_quote_rows_keep_the_spec_offsets_and_pool_rows_sort_them(self, tmp_path):
        files = generate(scenario(n_trades=2, offsets=[1, -1, 0]), tmp_path)

        def column(path, k):  # below the comment and header lines
            return [line.split(",")[k] for line in path.read_text().splitlines()[2:]]

        assert column(files.quotes_path, 1) == ["1", "-1", "0"] * 2
        assert column(files.pools_path, 0) == ["-1"] * 3 + ["0"] * 3 + ["1"] * 3

    def test_branch_coverage(self, tmp_path):
        files = generate(scenario(n_trades=80), tmp_path)
        trades = ingest_trades(files.trades_path).records
        paths = {t.path for t in trades}
        assert paths == {"Classic", "Aggregator", "X", "Fusion"}
        directions = {t.direction for t in trades}
        assert len(directions) == 2
        assert all(t.gas_internalized == (t.path in ("X", "Fusion")) for t in trades)
        assert {t.interface for t in trades} == {"Uniswap", "1inch"}

    def test_gate_controls_bonus_assignment(self, tmp_path):
        # identical RNG streams; the only difference is the size gate
        gated = generate(
            scenario(path_mix={"X": 1.0}, bonus_min_usd="20000", n_trades=60),
            tmp_path / "gated",
        )
        ungated = generate(
            scenario(path_mix={"X": 1.0}, bonus_min_usd=None, n_trades=60),
            tmp_path / "ungated",
        )
        gated_trades = {t.trade_id: t for t in ingest_trades(gated.trades_path).records}
        for t in ingest_trades(ungated.trades_path).records:
            g = gated_trades[t.trade_id]
            assert g.usd_value == t.usd_value
            if t.usd_value >= 20_000:
                assert g.amount_out.raw == t.amount_out.raw  # bonus on in both
            else:
                assert g.amount_out.raw < t.amount_out.raw  # gate withheld the bonus

    def test_size_too_small_raises(self, tmp_path):
        with pytest.raises(InvalidSpec):
            generate(
                scenario(
                    path_mix={"X": 1.0},
                    size_distribution={"min_usd": "1", "max_usd": "2"},
                ),
                tmp_path,
            )
