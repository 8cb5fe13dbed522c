"""CLI subcommands: flows, exit codes, determinism."""

import csv
import io
import json
import os
import tempfile
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from swapmeter.baseline import ReplayProvider
from swapmeter.cli import main
from swapmeter.config import MAX_OFFSETS, RunConfig, parse_config_file, parse_offsets
from swapmeter.errors import ConfigError, SwapmeterError
from swapmeter.ingest import TRADE_COLUMNS, ingest_pool_snapshots, ingest_quotes, ingest_trades
from swapmeter.synth import load_scenario

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

    def test_report_markdown_carries_the_curve_and_summary_cells(self, scenario_files, tmp_path):
        out = tmp_path / "out"
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(out),
            "--offsets=-1..1",
        ]
        assert main(["calibrate", *base]) == 0
        assert main(["report", *base, "--window", "20"]) == 0
        with open(out / "curve.csv", newline="") as fh:
            curve = list(csv.reader(line for line in fh if not line.startswith("#")))[1:]
        summary = json.loads((out / "summary.json").read_text())["summary"]
        table, section, attribution = [], None, {}
        for line in (out / "report.md").read_text().splitlines():
            if line.startswith("### "):
                section = line[4:].replace(" ", "_")
            cells = [c.strip() for c in line.strip("|").split("|")]
            if not line.startswith("| ") or cells[0] == "group":
                continue
            if section is None:
                table.append(cells)
            else:
                attribution.setdefault(section, []).append(cells)
        assert len(table) == len(curve) > 0
        assert any(row[4] != "0.0000" for row in curve)  # the bands are not all zero
        for cells, row in zip(table, curve):
            group, offset, mean, sigma, upper, lower, n, _ = row
            assert cells == [group, offset, mean, sigma, f"+{upper}/-{lower}", n]
        assert set(attribution) == {"by_path", "by_interface"}
        for level, rows in attribution.items():
            assert [cells[0] for cells in rows] == list(summary[level])
            for group, pi, routing, gas, fee, remainder, n in rows:
                entry = summary[level][group]
                assert [pi, routing, gas, fee, remainder, n] == [
                    entry["pi_bps"], entry["routing_bps"], entry["gas_bps"],
                    entry["fee_bps"], entry["remainder_bps"], str(entry["n"]),
                ]

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

    @pytest.mark.parametrize(
        "offsets, error",
        [
            (
                "-99999999999..99999999999",
                "bad offset range '-99999999999..99999999999': over 10000 offsets",
            ),
            ("-1000000..1000000", "bad offset range '-1000000..1000000': over 10000 offsets"),
            ("0..10000", "bad offset range '0..10000': over 10000 offsets"),
            (",".join(map(str, range(MAX_OFFSETS + 1))), "bad offset list: over 10000 offsets"),
        ],
        ids=["huge-range", "two-million-range", "range-one-over", "list-one-over"],
    )
    def test_too_many_offsets_fatal(self, scenario_files, tmp_path, capsys, offsets, error):
        # the huge range used to end in a MemoryError, as it was built before
        # any check, and a two-million range was priced at every trade
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--out", str(tmp_path / "o"),
            "--no-correction",
        ]
        assert main(["analyze", *base, f"--offsets={offsets}"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "o").exists()

    def test_offsets_at_the_limit_parse(self):
        assert parse_offsets(f"1..{MAX_OFFSETS}") == tuple(range(1, MAX_OFFSETS + 1))
        many = ",".join(str(i) for i in range(MAX_OFFSETS, 0, -1))
        assert parse_offsets(many) == tuple(range(MAX_OFFSETS, 0, -1))
        with pytest.raises(ConfigError, match="^duplicate offset 7$"):
            parse_offsets(many.replace(f"{MAX_OFFSETS},", "7,", 1))

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

    def test_non_utf8_config_file_fatal(self, tmp_path, capsys):
        # a UnicodeDecodeError used to end the run in a traceback (exit 1)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"window = \xff20\n")
        assert main(["analyze", "--config", str(cfg), "--trades", "t.csv", "--quotes", "q.csv"]) == 2
        assert capsys.readouterr().err == "error: cannot read config file: not UTF-8 text\n"

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
                "beta1 must be a finite number",
            ),
            (
                '{"beta1": "one", "beta1_se": "0", "n_points": 2, '
                '"residual_mean": "1", "residual_stddev": "0"}',
                "beta1 must be a decimal number",
            ),
            (
                '{"beta1": "1", "beta1_se": "0", "n_points": Infinity, '
                '"residual_mean": "1", "residual_stddev": "0"}',
                "n_points must be an integer",
            ),
            ('{"n_points": ' + "9" * 5000 + "}", "a JSON integer has too many digits\n"),
            # RecursionError used to end the run in a traceback (exit 1)
            ("[" * 3000, "JSON nested too deeply"),
        ],
        ids=[
            "corrupt", "missing-key", "not-an-object", "nan", "not-a-decimal",
            "infinite-count", "overlong-int-literal", "deep-json",
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

    @pytest.mark.parametrize(
        "flag, value, error",
        [
            ("--window", "x", "window: expected an integer, got 'x'"),
            ("--window", "2.5", "window: expected an integer, got '2.5'"),
            ("--f-prime-wei", "x", "f_prime_wei: expected a finite decimal, got 'x'"),
            ("--strict", "maybe", "strict: expected a boolean, got 'maybe'"),
        ],
    )
    def test_flag_and_config_value_read_by_one_rule(self, tmp_path, capsys, flag, value, error):
        # --window used to go through argparse's int, with its own usage message
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        settings = [["--config", str(cfg)]]
        if flag != "--strict":  # a flag without a value
            settings.append([f"{flag}={value}"])
        for setting in settings:
            assert main(["report", "--trades", "t.csv", "--quotes", "q.csv", *setting]) == 2
            assert capsys.readouterr().err == f"error: {error}\n"

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
        assert err == "error: quote set has providers ['other', 'synthetic-router']; expected one\n"

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

    def test_pool_gas_per_hop_above_uint64_rejected(self, tmp_path, capsys):
        # a route's gas of 2 x 10^40 used to overflow the quote's uint128 gas bound
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        pools = tmp_path / "pools.csv"
        header = "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop"
        rows = [f"0,P{k},{1000 * 10**18},{3 * 10**12},6,30,{10**40}" for k in (1, 2)]
        pools.write_text("\n".join([header, *rows]) + "\n")
        base = ["--trades", str(trades), "--pools", str(pools), "--offsets=0", "--no-correction"]
        assert main(["analyze", *base, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        for line in (1, 2):
            assert f"reject pool line {line}: gas_per_hop exceeds the uint64 bound 2^64 - 1" in err
        assert "excluded 1 rows: snapshot_unavailable" in err
        assert "Traceback" not in err

    def test_duplicate_pool_row_rejected(self, tmp_path, capsys):
        # the repeated row used to double the pool's liquidity, with exit 0
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{ROW}\n")
        header = "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop"
        row = f"0,P1,{10 * 10**18},{30_000 * 10**6},6,30,1000"
        one, twice = tmp_path / "one.csv", tmp_path / "twice.csv"
        one.write_text(f"{header}\n{row}\n")
        twice.write_text(f"{header}\n{row}\n{row}\n")
        base = ["--trades", str(trades), "--offsets=0", "--no-correction"]
        assert main(["analyze", *base, "--pools", str(one), "--out", str(tmp_path / "a")]) == 0
        assert main(["analyze", *base, "--pools", str(twice), "--out", str(tmp_path / "b")]) == 1
        assert capsys.readouterr().err == "reject pool line 2: duplicate pool_id P1 at offset 0\n"
        for name in ("a", "b"):
            assert (tmp_path / name / "attribution.csv").read_text().splitlines()[1:] == (
                tmp_path / "a" / "attribution.csv"
            ).read_text().splitlines()[1:]
        strict = [*base, "--pools", str(twice), "--out", str(tmp_path / "s"), "--strict"]
        assert main(["analyze", *strict]) == 2
        assert capsys.readouterr().err == "error: line 2: duplicate pool_id P1 at offset 0\n"

    @pytest.mark.parametrize(
        "pool_decimals, trade, error",
        [
            ((6, 18), ROW, "all pools must share the token's decimals; got [6, 18]"),
            ((18,), ROW, "trade T1 has token decimals 6; the pools have 18"),
            (
                (18,),
                "T1,Uniswap,Classic,18000000,WETH_OUT,false,3000000000,6,1000000000000000000,18,"
                "150000,20000000000,1000000000,3000,1700000000",
                "trade T1 has token decimals 6; the pools have 18",
            ),
        ],
        ids=["mixed-pools", "weth-in-trade", "weth-out-trade"],
    )
    def test_token_decimals_must_agree(self, tmp_path, capsys, pool_decimals, trade, error):
        # these were priced silently: pi -10000 bps, or non_positive_baseline exclusions
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{trade}\n{trade.replace('T1,', 'T2,')}\n")
        pools = tmp_path / "pools.csv"
        header = "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop"
        rows = [
            f"0,P{d},{1000 * 10**18},{3_000_000 * 10**d},{d},30,100000" for d in pool_decimals
        ]
        pools.write_text("\n".join([header, *rows]) + "\n")
        base = ["--trades", str(trades), "--pools", str(pools), "--out", str(tmp_path / "o")]
        for command in ("calibrate", "analyze", "report"):
            extra = [] if command == "calibrate" else ["--offsets=0", "--no-correction"]
            assert main([command, *base, *extra]) == 2
            assert capsys.readouterr().err == f"error: {error}\n"
        # no output directory is left behind, but one that was there stays
        assert not (tmp_path / "o").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        base[-1] = str(kept / "a" / "b")
        assert main(["analyze", *base, "--offsets=0", "--no-correction"]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert list(kept.iterdir()) == []

    @pytest.mark.parametrize(
        "bad, baseline",
        [("trades", "quotes"), ("trades", "pools"), ("quotes", "quotes"), ("pools", "pools")],
    )
    def test_calibrate_exits_partial_on_rejected_rows(
        self, scenario_files, tmp_path, capsys, bad, baseline
    ):
        # calibrate printed the reject lines and exited 0
        files = {name: tmp_path / f"{name}.csv" for name in ("trades", baseline)}
        for name, path in files.items():
            lines = (scenario_files / f"{name}.csv").read_text().splitlines()
            if name == bad:  # repeat the last row: a repeated trade_id or pool row
                fields = lines[-1].split(",")
                if name == "quotes":  # a repeated quote key is fatal, a bad field is not
                    fields[2] = "-1"
                lines.append(",".join(fields))
            path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["calibrate", "--trades", str(files["trades"]),
                   f"--{baseline}", str(files[baseline]), "--out", str(out)])
        assert rc == 1
        assert "reject " in capsys.readouterr().err
        assert (out / "calibration.json").exists()

    @pytest.mark.parametrize("value", ["-1000000", str(2**128), str(2**64)])
    def test_overhead_gas_out_of_range_fatal(self, scenario_files, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"overhead_gas = {value}\n")
        base = [
            "--config", str(cfg),
            "--trades", str(scenario_files / "trades.csv"),
            "--pools", str(scenario_files / "pools.csv"),
            "--out", str(tmp_path / "o"),
            "--offsets=0",
            "--no-correction",
        ]
        for command in ("analyze", "report"):
            assert main([command, *base]) == 2
            assert capsys.readouterr().err == (
                f"error: overhead_gas: {value} is outside [0, 2^64 - 1]\n"
            )
        # at the bound the gas prices some pairs out, which is a partial run
        cfg.write_text(f"overhead_gas = {2**64 - 1}\n")
        assert main(["analyze", *base]) == 1
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("overhead_gas", -1000000, "overhead_gas: -1000000 is outside [0, 2^64 - 1]"),
            ("offsets", [0, 0], "duplicate offset 0"),
            ("offsets", [-1, 0, 1, 0], "duplicate offset 0"),
        ],
    )
    def test_bad_synth_spec_fatal(self, tmp_path, capsys, field, value, error):
        # duplicate offsets used to write a quotes.csv every later stage rejects
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps({"seed": 1, "n_trades": 5, field: value}))
        assert main(["synth", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("flag", ["--out", "--calibration"])
    def test_unreadable_calibration_path_fatal(self, scenario_files, tmp_path, capsys, flag):
        # the default report path sits under --out; a name the OS refuses
        # used to end in an OSError traceback
        name = tmp_path / ("n" * 300)
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--offsets=0",
        ]
        if flag == "--calibration":
            base += ["--out", str(tmp_path / "o")]
        path = name / "calibration.json" if flag == "--out" else name
        for command in ("analyze", "report"):
            assert main([command, *base, flag, str(name)]) == 2
            assert capsys.readouterr().err == f"error: cannot read {path}: File name too long\n"

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
        serve = ReplayProvider.serve

        def failing(self, trade, offset):
            # a fatal provider error halfway through the 180 pairs
            nonlocal served
            served += 1
            if served == 90:
                raise SwapmeterError("provider failed")
            return serve(self, trade, offset)

        monkeypatch.setattr(ReplayProvider, "serve", failing)
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

    def test_pi_beyond_the_decimal_precision_written_in_full(self, tmp_path, capsys):
        # a 1-wei WETH input against a 10^59-unit output: pi is about 10^59 bps,
        # more digits than 4-dp quantizing at 60 digits allowed (InvalidOperation)
        row = ROW.replace("1000000000000000000,18,3000000000,6", f"1,18,{10**59},0")
        trades = tmp_path / "trades.csv"
        trades.write_text(f"{VALID_HEADER}\n{row}\n{ROW.replace('T1,', 'T2,')}\n")
        quotes = tmp_path / "quotes.csv"
        quotes.write_text(f"{QUOTE_HEADER}\nT1,0,1,0,150000,prov\nT2,0,2995000000,6,150000,prov\n")
        out = tmp_path / "out"
        rc = main(
            ["analyze", "--trades", str(trades), "--quotes", str(quotes),
             "--out", str(out), "--offsets=0", "--no-correction"]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""
        body = (out / "attribution.csv").read_text().splitlines()
        assert body[2].split(",") == [
            "T1", "0",
            "957142857142857156462585034013601122988878090920278416229167000.0000",
            "999999999999999999999999999999999999999999999999999999999991000.0000",
            "-0.0000",
            "-447.7612",
            "-42857142857142843537414965986398877011121909079721583770824000.0000",
            "false", "",
        ]
        assert body[3].startswith("T2,0,15.3465,")


def _bom_copy(path: Path, directory: Path) -> Path:
    """A copy of `path` in `directory`, with a UTF-8 byte-order mark in front."""
    directory.mkdir(exist_ok=True)
    copy = directory / path.name
    copy.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    return copy


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark, as spreadsheet tools write, reads as if it were absent."""

    def test_trades_quotes_and_pools(self, scenario_files, tmp_path):
        bom = tmp_path / "bom"
        trades = scenario_files / "trades.csv"
        assert ingest_trades(_bom_copy(trades, bom)) == ingest_trades(trades)
        quotes, rejects = ingest_quotes(_bom_copy(scenario_files / "quotes.csv", bom))
        original, original_rejects = ingest_quotes(scenario_files / "quotes.csv")
        assert rejects == original_rejects == []
        assert quotes.providers() == original.providers()
        assert [quotes.table(p) for p in quotes.providers()] == [
            original.table(p) for p in original.providers()
        ]
        pools = scenario_files / "pools.csv"
        assert ingest_pool_snapshots(_bom_copy(pools, bom)) == ingest_pool_snapshots(pools)

    def test_jsonl_trades(self, scenario_files, tmp_path):
        with open(scenario_files / "trades.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        jsonl = tmp_path / "trades.jsonl"
        jsonl.write_text("".join(json.dumps(row) + "\n" for row in rows))
        result = ingest_trades(_bom_copy(jsonl, tmp_path / "bom"))
        assert result == ingest_trades(jsonl)
        assert len(result.records) == len(rows) and result.rejects == []

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("offsets = -1..1\nwindow = 20  # rows\n")
        assert parse_config_file(_bom_copy(config, tmp_path / "bom")) == parse_config_file(config)
        assert parse_config_file(config) == {"offsets": "-1..1", "window": "20"}

    def test_calibration_report(self, scenario_files, tmp_path):
        base = [
            "--trades", str(scenario_files / "trades.csv"),
            "--quotes", str(scenario_files / "quotes.csv"),
            "--offsets=0",
        ]
        assert main(["calibrate", *base, "--out", str(tmp_path / "cal")]) == 0
        report = _bom_copy(tmp_path / "cal" / "calibration.json", tmp_path / "bom")
        bodies = []
        for name, cal in (("a", tmp_path / "cal" / "calibration.json"), ("b", report)):
            out = tmp_path / name
            assert main(["analyze", *base, "--out", str(out), "--calibration", str(cal)]) == 0
            bodies.append((out / "attribution.csv").read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1]

    def test_synth_spec(self, scenario_files, tmp_path):
        spec = scenario_files.parent / "scenario.json"
        assert load_scenario(_bom_copy(spec, tmp_path / "bom")) == load_scenario(spec)


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


# --offsets pieces: small offsets, offsets far beyond any quote, and strings
# int() rejects
_OFFSET_TOKEN = st.one_of(
    st.integers(-4, 4).map(str),
    st.integers(-(10**12), 10**12).map(str),
    st.sampled_from(["", " ", "x", "1.5", "0x1", "²", "-99999999999", "99999999999", "9" * 5000]),
)
OFFSETS_TEXT = st.one_of(
    st.tuples(_OFFSET_TOKEN, _OFFSET_TOKEN).map("..".join),
    st.lists(_OFFSET_TOKEN, min_size=1, max_size=6).map(",".join),
    st.integers(MAX_OFFSETS - 1, MAX_OFFSETS + 1).map(lambda n: ",".join(map(str, range(n)))),
    st.text(max_size=12),
)
# Offsets lists longer than this are checked by parsing alone, to keep the fuzz fast.
FUZZ_MAX_RUN_OFFSETS = 9

# A flag, or a config-file key (every field of RunConfig), and a value for it.
FUZZ_SETTINGS = [
    "--window", "--sys-multiplier", "--f-prime-wei", "--calibration-filter", "--calibration",
    "--out", *(f.name for f in fields(RunConfig)),
]
FUZZ_SETTING_VALUES = st.one_of(
    st.sampled_from(FUZZ_TEXT), st.sampled_from(["n" * 300, "d/" + "n" * 300])
)


# A small scenario that names every field, and the fields the synth fuzz sets
# one at a time: each key, and each leaf of a nested object or list. n_trades
# is left out, since a valid value only scales the work.
FUZZ_SCENARIO = {
    "seed": 4,
    "n_trades": 4,
    "size_distribution": {"type": "log_uniform", "min_usd": 800, "max_usd": "60000"},
    "path_mix": {"Classic": 0.5, "X": 0.5},
    "ofa_liquidity_bonus_bps": "5",
    "bonus_min_usd": "1000",
    "weth_in_fraction": 0.5,
    "execution_noise_bps": 0.5,
    "base_fee_gwei": ["15", "25"],
    "gas_profiles": {"X": {"gas_noise_rel": "0.03", "priority_fee_gwei": ["0.05", "0.15"]}},
    "pools": [
        {"pool_id": "P", "reserve_weth": "2000", "reserve_token": "6000000",
         "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 120000},
    ],
    "offsets": [-1, 0],
    "f_prime_wei": "100000000",
    "overhead_gas": 80000,
}


def _fields(node, path=()):
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if path + (key,) != ("n_trades",):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


SCENARIO_FIELDS = list(_fields(FUZZ_SCENARIO))
SCENARIO_VALUES = st.one_of(
    st.sampled_from(FUZZ_TEXT),
    st.sampled_from(
        [None, True, 0, -1, 1.5, 1e308, -1e308, 5e-324, float("nan"), float("inf"), 2**64,
         2**128, 10**60, [], {}, [0, 0], ["nan", "1"], {"X": "1"}]
    ),
    st.text(max_size=6),
)


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

    @settings(
        max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(offsets=OFFSETS_TEXT)
    def test_offsets_text_exits_cleanly(self, fuzz_files, capsys, offsets):
        try:
            n_offsets = len(parse_offsets(offsets))
        except ConfigError:
            n_offsets = 0
        if n_offsets > FUZZ_MAX_RUN_OFFSETS:
            return
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for file_name, text in fuzz_files.items():
                (root / file_name).write_text(text, encoding="utf-8")
            rc = main(
                [
                    "analyze",
                    "--trades", str(root / "trades.csv"),
                    "--quotes", str(root / "quotes.csv"),
                    "--calibration", str(root / "calibration.json"),
                    f"--offsets={offsets}",
                    "--out", str(root / "out"),
                ]
            )
        err = capsys.readouterr().err
        assert rc in (0, 1, 2)
        assert "Traceback" not in err

    @settings(
        max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(target=st.sampled_from(FUZZ_SETTINGS), value=FUZZ_SETTING_VALUES)
    def test_one_flag_or_config_value_exits_cleanly(self, fuzz_files, capsys, target, value):
        # The calibration report sits where --out puts it by default, so a
        # fuzzed --out also moves the path analyze and report read it from.
        with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
            root = Path(tmp)
            (root / "out").mkdir()
            for file_name, text in fuzz_files.items():
                path = root / ("out" if file_name == "calibration.json" else "") / file_name
                path.write_text(text, encoding="utf-8")
            setting = [f"{target}={value}"]
            if not target.startswith("--"):
                (root / "run.cfg").write_text(f"{target} = {value}\n", encoding="utf-8")
                setting = ["--config", "run.cfg"]
            for command in ("analyze", "report"):
                for baseline in ("--quotes=quotes.csv", "--pools=pools.csv"):
                    argv = [command, "--trades=trades.csv", baseline, "--offsets=-1..1"]
                    if target != "--out":
                        argv.append("--out=out")
                    try:
                        rc = main(argv + setting)
                    except SystemExit as exc:  # argparse rejects a flag's type
                        rc = exc.code
                    err = capsys.readouterr().err
                    assert rc in (0, 1, 2), (argv + setting, err)
                    assert "Traceback" not in err


    @settings(
        max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(field=st.sampled_from(SCENARIO_FIELDS), value=SCENARIO_VALUES)
    def test_one_scenario_field_exits_cleanly(self, tmp_path, capsys, field, value):
        spec = json.loads(json.dumps(FUZZ_SCENARIO))
        *parents, key = field
        node = spec
        for step in parents:
            node = node[step]
        node[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            rc = main(["synth", str(path), "--out", str(Path(tmp) / "out")])
        err = capsys.readouterr().err
        assert rc in (0, 2), (field, value, err)
        if rc == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (field, value, err)
            assert "<class" not in err, (field, value, err)
        assert "Traceback" not in err


@contextmanager
def _inside(directory):
    """Run with `directory` as the working directory, so relative outputs land in it."""
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)
