"""CLI subcommands: flows, exit codes, determinism."""

import csv
import io
import json
import tempfile
import tracemalloc
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swapmeter.baseline import ReplayProvider
from swapmeter.cli import main
from swapmeter.errors import SwapmeterError
from swapmeter.ingest import TRADE_COLUMNS

VALID_HEADER = ",".join(TRADE_COLUMNS)
ROW = "T1,Uniswap,Classic,18000000,WETH_IN,false,1000000000000000000,18,3000000000,6,150000,20000000000,1000000000,3000,1700000000"
QUOTE_HEADER = "trade_id,offset,out_estimate_raw,out_estimate_decimals,gas_estimate,provider_id"


@pytest.fixture
def scenario_files(tmp_path):
    spec = {
        "seed": 5,
        "n_trades": 60,
        "size_distribution": {"min_usd": "1000", "max_usd": "80000"},
        "path_mix": {"Classic": 0.5, "X": 0.5},
        "ofa_liquidity_bonus_bps": "5",
        "offsets": [-1, 0, 1],
    }
    spec_path = tmp_path / "scenario.json"
    spec_path.write_text(json.dumps(spec))
    data = tmp_path / "data"
    assert main(["synth", str(spec_path), "--out", str(data)]) == 0
    return data


def run_all(data: Path, out: Path, extra=()):
    base = [
        "--trades", str(data / "trades.csv"),
        "--quotes", str(data / "quotes.csv"),
        "--out", str(out),
        "--offsets=-1..1",
    ]
    rc_cal = main(["calibrate", *base])
    rc_an = main(["analyze", *base, *extra])
    rc_ag = main(["aggregate", *base, "--window", "20", *extra])
    return rc_cal, rc_an, rc_ag


class TestFlows:
    def test_full_pipeline_exit_codes_and_files(self, scenario_files, tmp_path):
        out = tmp_path / "out"
        rc_cal, rc_an, rc_ag = run_all(scenario_files, out)
        assert (rc_cal, rc_an, rc_ag) == (0, 0, 0)
        for name in ("calibration.json", "attribution.csv", "curve.csv", "rolling.csv", "summary.json"):
            assert (out / name).exists()
        first = (out / "attribution.csv").read_text().splitlines()[0]
        assert first.startswith("# swapmeter=")

    def test_synthetic_router_baseline_route(self, scenario_files, tmp_path):
        out = tmp_path / "out"
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--pools", str(scenario_files / "pools.csv"),
            "--out", str(out),
            "--offsets=0",
        ]
        assert main(["calibrate", *base]) == 0
        assert main(["analyze", *base]) == 0
        report = json.loads((out / "calibration.json").read_text())
        assert Decimal(report["beta1"]) == pytest.approx(Decimal(1), abs=Decimal("0.02"))

    def test_report_writes_markdown(self, scenario_files, tmp_path):
        out = tmp_path / "out"
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(out),
            "--offsets=0",
            "--no-correction",
        ]
        assert main(["report", *base, "--window", "20"]) == 0
        text = (out / "report.md").read_text()
        assert "path:X" in text and "by path" in text

    def test_perfect_estimator_calibration(self, tmp_path):
        # quotes whose gas equals realized gas: beta1 = 1 exactly
        trades = tmp_path / "trades.csv"
        trades.write_text(
            f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,').replace(',150000,', ',250000,')}\n".replace(
                "T2,Uniswap,Classic,18000000,WETH_IN,false,1000000000000000000,18,3000000000,6,150000",
                "T2,Uniswap,Classic,18000000,WETH_IN,false,1000000000000000000,18,3000000000,6,250000",
            )
        )
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\nT2,0,2995000000,6,250000,prov\n"
        )
        out = tmp_path / "out"
        rc = main(
            ["calibrate", "--trades", str(trades), "--quotes", str(quotes), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "calibration.json").read_text())
        assert report["beta1"] == "1"

    def test_no_correction_equals_identity_calibration(self, scenario_files, tmp_path):
        # beta1 fitted on self-consistent quotes is 1, so corrected and
        # uncorrected analyses coincide when the estimator is perfect
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\nT2,0,2995000000,6,150000,prov\n"
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        base = ["--trades", str(trades), "--quotes", str(quotes), "--offsets=0"]
        assert main(["calibrate", *base, "--out", str(out_a)]) == 0
        assert main(["analyze", *base, "--out", str(out_a)]) == 0
        assert main(["analyze", *base, "--out", str(out_b), "--no-correction"]) == 0
        strip = lambda p: [  # noqa: E731
            line for line in (p / "attribution.csv").read_text().splitlines() if not line.startswith("#")
        ]
        assert strip(out_a) == strip(out_b)

    @pytest.mark.parametrize("flag, name", [("--quotes", "quotes"), ("--pools", "pools")])
    def test_jsonl_baseline_matches_csv(self, scenario_files, tmp_path, flag, name):
        # the format follows the extension: the same rows as JSONL objects
        # give the same attribution as the CSV file
        lines = [
            line
            for line in (scenario_files / f"{name}.csv").read_text().splitlines()
            if not line.startswith("#")
        ]
        header = lines[0].split(",")
        jsonl = tmp_path / f"{name}.jsonl"
        jsonl.write_text(
            "".join(json.dumps(dict(zip(header, line.split(",")))) + "\n" for line in lines[1:])
        )
        base = ["analyze", "--trades", str(scenario_files / "trades.csv"), "--offsets=-1..1",
                "--no-correction"]
        outputs = []
        for source, out in ((scenario_files / f"{name}.csv", "csv"), (jsonl, "jsonl")):
            assert main([*base, flag, str(source), "--out", str(tmp_path / out)]) == 0
            text = (tmp_path / out / "attribution.csv").read_text()
            outputs.append([line for line in text.splitlines() if not line.startswith("#")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 1 + 60 * 3


class TestExitCodes:
    def test_empty_trades_fatal(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(VALID_HEADER + "\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,1,6,100,prov\n")
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(tmp_path / "o"), "--no-correction"]
        )
        assert rc == 2

    def test_calibrate_empty_filter_fatal(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW.replace('Classic', 'X')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,1,6,100,prov\n")
        rc = main(
            ["calibrate", "--trades", str(trades), "--quotes", str(quotes), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_single_trade_aggregate_fatal(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\n")
        rc = main(
            ["aggregate", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(tmp_path / "o"), "--offsets=0", "--no-correction", "--window", "2"]
        )
        assert rc == 2

    def test_missing_calibration_fatal(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\n")
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_both_provider_sources_fatal(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", "q.csv", "--pools", "p.csv",
             "--out", str(tmp_path / "o"), "--no-correction"]
        )
        assert rc == 2

    def test_partial_exit_on_missing_quotes(self, tmp_path):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\n")
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(tmp_path / "o"), "--offsets=0", "--no-correction"]
        )
        assert rc == 1
        body = (tmp_path / "o" / "attribution.csv").read_text()
        assert "quote_unavailable" in body

    def test_invalid_scenario_fatal(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"path_mix": {"Classic": 0.4}}')
        assert main(["synth", str(bad), "--out", str(tmp_path / "d")]) == 2

    def test_duplicate_offsets_fatal(self, scenario_files, tmp_path, capsys):
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(tmp_path / "o"),
            "--no-correction",
        ]
        assert main(["analyze", *base, "--offsets=0,0"]) == 2
        assert "error: duplicate offset 0" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("offsets = 1,0,1\n")
        assert main(["analyze", "--config", str(cfg), *base]) == 2
        assert "error: duplicate offset 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "attribution.csv").exists()

    @pytest.mark.parametrize("kind", ["missing", "directory"])
    @pytest.mark.parametrize("flag", ["--trades", "--quotes", "--pools"])
    def test_unreadable_input_fatal(self, tmp_path, capsys, flag, kind):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\n")
        inputs = {"--trades": trades}
        if flag != "--pools":
            inputs["--quotes"] = quotes
        bad = tmp_path / "nope.csv" if kind == "missing" else tmp_path
        inputs[flag] = bad
        argv = [arg for pair in inputs.items() for arg in (pair[0], str(pair[1]))]
        rc = main(
            ["analyze", *argv, "--out", str(tmp_path / "o"), "--offsets=0", "--no-correction"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {bad}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--trades", "--quotes", "--pools"])
    def test_non_utf8_input_fatal(self, tmp_path, capsys, flag):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\n")
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe\x00bad\n")
        inputs = {"--trades": trades, "--quotes": quotes}
        if flag == "--pools":
            del inputs["--quotes"]
        inputs[flag] = bad
        argv = [arg for pair in inputs.items() for arg in (pair[0], str(pair[1]))]
        rc = main(
            ["analyze", *argv, "--out", str(tmp_path / "o"), "--offsets=0", "--no-correction"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot read {bad}: not UTF-8 text" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_unwritable_out_fatal(self, scenario_files, tmp_path, capsys, command):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        rc = main(
            [
                command,
                "--trades", str(scenario_files / "trades.csv"),
                "--quotes", str(scenario_files / "quotes.csv"),
                "--out", str(out),
                "--offsets=0",
                "--window", "20",
                "--no-correction",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {out}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("{", "Expecting property name"),
            ('{"beta1": "1"}', "missing key 'beta1_se'"),
            ("[]", "expected a JSON object"),
            (
                '{"beta1": "NaN", "beta1_se": "0", "n_points": 2, '
                '"residual_mean": "1", "residual_stddev": "0"}',
                "'NaN' is not a finite number",
            ),
            (
                '{"beta1": "one", "beta1_se": "0", "n_points": 2, '
                '"residual_mean": "1", "residual_stddev": "0"}',
                "'one' is not a decimal number",
            ),
            (
                '{"beta1": "1", "beta1_se": "0", "n_points": Infinity, '
                '"residual_mean": "1", "residual_stddev": "0"}',
                "cannot convert float infinity to integer",
            ),
            ('{"n_points": ' + "9" * 5000 + "}", "Exceeds the limit (4300 digits)"),
        ],
        ids=[
            "corrupt", "missing-key", "not-an-object", "nan", "not-a-decimal",
            "infinite-count", "overlong-int-literal",
        ],
    )
    def test_bad_calibration_report_fatal(self, scenario_files, tmp_path, capsys, text, reason):
        report = tmp_path / "calibration.json"
        report.write_text(text)
        rc = main(
            [
                "analyze",
                "--trades", str(scenario_files / "trades.csv"),
                "--quotes", str(scenario_files / "quotes.csv"),
                "--out", str(tmp_path / "o"),
                "--calibration", str(report),
                "--offsets=0",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: bad calibration report {report}: {reason}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "sNaN"])
    @pytest.mark.parametrize("key", ["sys_multiplier", "f_prime_wei"])
    def test_non_finite_decimal_fatal(self, scenario_files, tmp_path, capsys, key, value):
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(tmp_path / "o"),
            "--offsets=0",
            "--window", "20",
        ]
        assert main(["calibrate", *base]) == 0
        capsys.readouterr()
        flag = "--" + key.replace("_", "-")
        assert main(["report", *base, f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        assert f"error: {key}: expected a finite decimal, got {value!r}" in err
        assert "Traceback" not in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["report", "--config", str(cfg), *base]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_f_prime_above_uint128_fatal(self, scenario_files, tmp_path, capsys):
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(tmp_path / "o"),
            "--offsets=0",
            "--no-correction",
        ]
        for value in ("1e999999999", str(2**128)):
            assert main(["analyze", *base, f"--f-prime-wei={value}"]) == 2
            err = capsys.readouterr().err
            assert "error: f_prime_wei: " in err and "uint128" in err
            assert "Traceback" not in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("f_prime_wei = 1e999999999\n")
        assert main(["report", "--config", str(cfg), *base]) == 2
        assert "error: f_prime_wei: " in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        # the bound itself is accepted and priced without a traceback
        assert main(["analyze", *base, f"--f-prime-wei={2**128 - 1}"]) in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_several_quote_providers_fatal(self, scenario_files, tmp_path, capsys):
        lines = (scenario_files / "quotes.csv").read_text().splitlines()
        data = next(i for i, line in enumerate(lines) if line.startswith("T"))
        lines[data] = lines[data].rsplit(",", 1)[0] + ",other"
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("\n".join(lines) + "\n")
        rc = main(
            ["analyze", "--trades", str(scenario_files / "trades.csv"), "--quotes", str(quotes),
             "--out", str(tmp_path / "o"), "--offsets=0", "--no-correction"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert (
            f"error: quote file {quotes} has providers ['other', 'synthetic-router']; "
            "expected one" in err
        )
        assert "Traceback" not in err

    def test_duplicate_trade_id_rejected(self, tmp_path, capsys):
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,')}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\nT2,0,2995000000,6,150000,prov\n"
        )
        base = ["--trades", str(trades), "--quotes", str(quotes), "--offsets=0", "--no-correction"]
        assert main(["analyze", *base, "--out", str(tmp_path / "o")]) == 1
        assert "reject line 3: duplicate trade_id T1" in capsys.readouterr().err
        body = (tmp_path / "o" / "attribution.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in body[2:]] == ["T1", "T2"]
        assert main(["analyze", *base, "--out", str(tmp_path / "s"), "--strict"]) == 2
        assert "error: line 3: duplicate trade_id T1" in capsys.readouterr().err

    def test_gas_estimate_above_uint128_rejected(self, tmp_path, capsys):
        # g' = 1e999999 used to pass ingest and overflow g'(b+f') in pricing
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            f"{QUOTE_HEADER}\nT1,0,2995000000,6,1e999999,prov\nT2,0,2995000000,6,150000,prov\n"
        )
        base = ["--trades", str(trades), "--quotes", str(quotes), "--offsets=0", "--no-correction"]
        assert main(["analyze", *base, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "reject quote line 1: gas_estimate exceeds the uint128 bound" in err
        assert "excluded 1 rows: quote_unavailable" in err
        assert "Traceback" not in err
        assert main(["analyze", *base, "--out", str(tmp_path / "s"), "--strict"]) == 2
        err = capsys.readouterr().err
        assert "error: line 1: gas_estimate exceeds the uint128 bound" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "beta1, beta1_se, reason",
        [
            ("1e-999990", "0", "beta1 1E-999990 is outside [1E-18, 1E+18]"),
            ("1e-19", "0", "beta1 1E-19 is outside [1E-18, 1E+18]"),
            ("1e19", "0", "beta1 1E+19 is outside [1E-18, 1E+18]"),
            ("1", "1e999990", "beta1_se 1E+999990 exceeds 1E+18"),
        ],
        ids=["tiny-beta1", "beta1-below-bound", "beta1-above-bound", "huge-se"],
    )
    def test_calibration_slope_out_of_bounds_fatal(self, tmp_path, capsys, beta1, beta1_se, reason):
        # g'/beta1 at beta1 = 1e-999990 used to overflow in pricing (exit 1, traceback)
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n{ROW.replace('T1,', 'T2,')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(
            f"{QUOTE_HEADER}\nT1,0,2995000000,6,150000,prov\nT2,0,2995000000,6,150000,prov\n"
        )
        report = tmp_path / "cal.json"
        report.write_text(
            json.dumps(
                {"beta1": beta1, "beta1_se": beta1_se, "n_points": 2,
                 "residual_mean": "1", "residual_stddev": "0"}
            )
        )
        base = ["--trades", str(trades), "--quotes", str(quotes), "--calibration", str(report)]
        for command in (["analyze", "--offsets=0"], ["report", "--offsets=0", "--window", "2"]):
            assert main([*command, *base, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err == f"error: bad calibration report {report}: {reason}\n"
        assert not (tmp_path / "o").exists()

    def test_zero_weight_group_skipped(self, scenario_files, tmp_path):
        # X trades all weigh $0: their path group has no weighted mean, so it
        # is skipped with a warning while the rest of the aggregate is written
        trades = tmp_path / "trades.csv"
        lines = (scenario_files / "trades.csv").read_text().splitlines()
        path, usd = TRADE_COLUMNS.index("path"), TRADE_COLUMNS.index("usd_value")
        for i, line in enumerate(lines):
            fields = line.split(",")
            if len(fields) == len(TRADE_COLUMNS) and fields[path] == "X":
                fields[usd] = "0"
                lines[i] = ",".join(fields)
        trades.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        base = [
            "--trades", str(trades),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(out),
            "--offsets=-1..1",
        ]
        assert main(["calibrate", *base]) == 0
        with pytest.warns(UserWarning, match="all weights are zero"):
            assert main(["report", *base, "--window", "20"]) == 0
        curve = (out / "curve.csv").read_text()
        assert "path:Classic," in curve
        assert "path:X," not in curve
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["summary"]["by_path"]) == {"Classic"}


class TestStreaming:
    @pytest.mark.parametrize("command", ["analyze", "report"])
    def test_fatal_error_mid_pass_leaves_no_partial_output(
        self, scenario_files, tmp_path, capsys, monkeypatch, command
    ):
        out = tmp_path / "out"
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(out),
            "--offsets=-1..1",
            "--window", "20",
            "--no-correction",
        ]
        assert main(["analyze", *base]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert list(before) == ["attribution.csv"]
        capsys.readouterr()

        served = 0
        quote = ReplayProvider.quote

        def failing(self, trade, offset, amount_in=None):
            # a fatal provider error halfway through the 180 pairs
            nonlocal served
            served += 1
            if served == 90:
                raise SwapmeterError("provider failed")
            return quote(self, trade, offset, amount_in)

        monkeypatch.setattr(ReplayProvider, "quote", failing)
        assert main([command, *base]) == 2
        assert capsys.readouterr().err == "error: provider failed\n"
        assert served == 90
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_analyze_memory_grows_with_trades_not_pairs(self, tmp_path):
        # Every offset shares one pool snapshot, so the inputs barely grow
        # with the offsets while the pairs grow 8x. Holding every pair's row
        # made the peak grow about 5x; holding one trade's rows, about 1.4x.
        spec = {
            "seed": 11,
            "n_trades": 40,
            "path_mix": {"Classic": 0.5, "X": 0.5},
            "offsets": list(range(-32, 32)),
        }
        (tmp_path / "scenario.json").write_text(json.dumps(spec))
        data = tmp_path / "data"
        assert main(["synth", str(tmp_path / "scenario.json"), "--out", str(data)]) == 0
        base = [
            "analyze",
            "--trades", str(data / "trades.csv"),
            "--pools", str(data / "pools.csv"),
            "--out", str(tmp_path / "out"),
            "--no-correction",
        ]
        peaks = []
        for offsets in ("-4..3", "-32..31"):
            tracemalloc.start()
            try:
                assert main([*base, f"--offsets={offsets}"]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2 * peaks[0], peaks


class TestGoldenValues:
    def test_analyze_file_carries_attribution_values(self, tmp_path):
        """Engine-level results appear verbatim (bps, 4 dp) in the output file."""
        from swapmeter.attribution import attribute_trade
        from swapmeter.ingest import ingest_trades as ingest
        from swapmeter.numeric import format_bps
        from conftest import replay_for

        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,2995000000,6,140000,prov\n")
        out = tmp_path / "out"
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(out), "--offsets=0", "--no-correction"]
        )
        assert rc == 0

        trade = ingest(str(trades)).records[0]
        provider = replay_for("T1", 0, 2995000000, 6, 140000)
        res = attribute_trade(trade, provider, 0, Decimal(100_000_000))
        lines = [
            line for line in (out / "attribution.csv").read_text().splitlines()
            if line.startswith("T1,")
        ]
        fields = lines[0].split(",")
        assert fields[2] == format_bps(res.pi)
        assert fields[3] == format_bps(res.pi_routing)
        assert fields[4] == format_bps(res.pi_gas)
        assert fields[5] == format_bps(res.pi_fee)
        assert fields[6] == format_bps(res.pi_remainder)

    def test_095_bias_fixture_recovers_beta(self, tmp_path):
        import random

        rng = random.Random(44)
        trade_rows, quote_rows = [], []
        for k in range(300):
            g = rng.randrange(80_000, 500_000)
            gp = max(1, round(0.95 * g + rng.gauss(0, 4000)))
            trade_rows.append(
                ROW.replace("T1,", f"G{k:04d},").replace(",150000,", f",{g},")
            )
            quote_rows.append(f"G{k:04d},0,2995000000,6,{gp},prov")
        trades = tmp_path / "trades.csv"
        trades.write_text("\n".join([VALID_HEADER, *trade_rows]) + "\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text("\n".join([QUOTE_HEADER, *quote_rows]) + "\n")
        out = tmp_path / "out"
        rc = main(
            ["calibrate", "--trades", str(trades), "--quotes", str(quotes), "--out", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "calibration.json").read_text())
        assert abs(Decimal(report["beta1"]) - Decimal("0.95")) < Decimal("0.01")

    def test_non_positive_baseline_excluded(self, tmp_path):
        # WETH-out trade whose baseline gas cost swamps the quoted output
        row = (
            "T1,Uniswap,Classic,18000000,WETH_OUT,false,"
            "3000000000,6,1000000000000000000,18,150000,20000000000,1000000000,3000,1700000000"
        )
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{row}\n")
        quotes = tmp_path / "quotes.csv"
        # o' = 0.001 ETH, g' = 200000 at 20.1 gwei -> negative p'
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,1000000000000000,18,200000,prov\n")
        out = tmp_path / "out"
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(out), "--offsets=0", "--no-correction"]
        )
        assert rc == 1
        body = (out / "attribution.csv").read_text()
        assert "true,non_positive_baseline" in body


class TestDeterminism:
    def test_pipeline_reruns_byte_identical(self, tmp_path, monkeypatch):
        # identical config means identical paths: run each pass in its own
        # working directory with the same relative layout
        spec = {
            "seed": 99,
            "n_trades": 50,
            "path_mix": {"Classic": 0.5, "Fusion": 0.5},
            "ofa_liquidity_bonus_bps": "4",
            "offsets": [0],
        }
        outputs = []
        for tag in ("one", "two"):
            root = tmp_path / tag
            root.mkdir()
            monkeypatch.chdir(root)
            Path("s.json").write_text(json.dumps(spec))
            assert main(["synth", "s.json", "--out", "data"]) == 0
            base = [
                "--trades", "data/trades.csv",
                "--quotes", "data/quotes.csv",
                "--out", "out",
                "--offsets=0",
            ]
            assert main(["calibrate", *base]) == 0
            assert main(["analyze", *base]) == 0
            assert main(["aggregate", *base, "--window", "10"]) == 0
            outputs.append(
                {
                    name: (root / "out" / name).read_bytes()
                    for name in ("calibration.json", "attribution.csv", "curve.csv",
                                 "rolling.csv", "summary.json")
                }
            )
        assert outputs[0] == outputs[1]

    def test_config_file_and_cli_override(self, tmp_path, scenario_files):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    f"trades = {scenario_files / 'trades.csv'}",
                    f"quotes = {scenario_files / 'quotes.csv'}",
                    "offsets = 0",
                    "no_correction = true",
                    f"out = {tmp_path / 'from_file'}",
                ]
            )
        )
        assert main(["analyze", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_file" / "attribution.csv").exists()
        # CLI --out wins over the file value
        assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "cli")]) == 0
        assert (tmp_path / "cli" / "attribution.csv").exists()


# ---------------------------------------------------------------------------
# fuzz: one corrupted field never ends in a traceback

FUZZ_TEXT = [
    "", "-1", "0", "-0", "1.5", " 7 ", "1e999999", "1e-999990", "NaN", "sNaN", "-Infinity",
    "²", "true", "WETH_OUT", str(2**64), str(2**128), str(10**60), "9" * 5000, '"', "a,b",
]
# raw JSON literals for a calibration value
FUZZ_JSON = [
    "null", "true", "[]", "{}", "0", "-1", "1e999999", "1e-999990", "NaN", "Infinity",
    "9" * 5000, '"1e-999990"', '"1e999990"', '"-0"', '"0"', '""',
]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """A small synth dataset (quotes and pools) plus its calibration report."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = root / "scenario.json"
    spec.write_text(
        json.dumps(
            {"seed": 11, "n_trades": 10, "path_mix": {"Classic": 0.5, "X": 0.5},
             "offsets": [-1, 0, 1]}
        )
    )
    assert main(["synth", str(spec), "--out", str(root)]) == 0
    args = ["--trades", str(root / "trades.csv"), "--quotes", str(root / "quotes.csv")]
    assert main(["calibrate", *args, "--out", str(root)]) == 0
    return {name: (root / name).read_text() for name in ("trades.csv", "quotes.csv", "pools.csv")} | {
        "calibration.json": (root / "calibration.json").read_text()
    }


def _corrupt_csv(text: str, row: int, column: int, value: str) -> str:
    """`text` with field (row, column) of its data rows, both taken modulo, set to value."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    i = data[row % len(data)]
    record = next(csv.reader([lines[i]]))
    record[column % len(record)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(record)
    lines[i] = buf.getvalue()
    return "".join(lines)


def _corrupt_json(text: str, key: int, literal: str) -> str:
    """The JSON object `text` with its key-th key, taken modulo, set to a raw JSON literal."""
    obj = json.loads(text)
    obj[sorted(obj)[key % len(obj)]] = "\0"
    return json.dumps(obj).replace('"\\u0000"', literal)


class TestFuzz:
    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        name=st.sampled_from(["trades.csv", "quotes.csv", "pools.csv", "calibration.json"]),
        row=st.integers(0, 10**6),
        column=st.integers(0, 10**6),
        text_value=st.one_of(st.sampled_from(FUZZ_TEXT), st.text(max_size=6)),
        json_value=st.sampled_from(FUZZ_JSON),
        baseline=st.sampled_from(["--quotes", "--pools"]),
    )
    def test_one_corrupted_field_exits_cleanly(
        self, fuzz_files, capsys, name, row, column, text_value, json_value, baseline
    ):
        files = dict(fuzz_files)
        if name == "calibration.json":
            files[name] = _corrupt_json(files[name], column, json_value)
        else:
            files[name] = _corrupt_csv(files[name], row, column, text_value)
        if name == "quotes.csv":
            baseline = "--quotes"
        elif name == "pools.csv":
            baseline = "--pools"
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for file_name, text in files.items():
                (root / file_name).write_text(text, encoding="utf-8")
            baseline_file = "quotes.csv" if baseline == "--quotes" else "pools.csv"
            rc = main(
                [
                    "analyze",
                    "--trades", str(root / "trades.csv"),
                    baseline, str(root / baseline_file),
                    "--calibration", str(root / "calibration.json"),
                    "--offsets=-1..1",
                    "--out", str(root / "out"),
                ]
            )
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert "Traceback" not in err
