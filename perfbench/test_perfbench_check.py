"""Tests of the benchmark's own output checker and workload inputs."""

import importlib
import json
import sys
import time
from pathlib import Path

import check
from run import END_TO_END, PER_LAYER, Runner
from spans import TARGETS, Tracer, summarize
from workloads import WORKLOADS, drift_pools_csv

ROOT = Path(__file__).resolve().parents[1]

HEADER = (
    "trade_id,offset,pi_bps,pi_routing_bps,pi_gas_bps,pi_fee_bps,pi_remainder_bps,"
    "excluded_flag,exclusion_reason\n"
)


def _attribution(tmp_path, rows):
    path = tmp_path / "attribution.csv"
    path.write_text("# swapmeter=0.1.0 config=0\n" + HEADER + "".join(rows), encoding="utf-8")
    return path


def test_attribution_that_sums_passes(tmp_path):
    path = _attribution(
        tmp_path,
        ["T1,0,1.0001,1.0000,0.0001,0.0000,0.0000,false,\n",
         "T1,1,-0.0330,-0.1729,0.1438,-0.0039,0.0000,false,\n"],
    )
    assert check.check_attribution(path, ["T1"], (0, 1)) == ([], 0)


def test_attribution_parts_not_summing_to_pi_fail(tmp_path):
    path = _attribution(
        tmp_path,
        ["T1,0,1.0001,1.0000,0.0001,0.0000,0.0000,false,\n",
         "T1,1,-0.0330,-0.1729,0.1438,-0.0039,0.0010,false,\n"],
    )
    problems, bad_pairs = check.check_attribution(path, ["T1"], (0, 1))
    assert any("sum to" in p for p in problems)
    assert bad_pairs == 0


def test_attribution_missing_or_excluded_pairs_fail(tmp_path):
    path = _attribution(tmp_path, ["T1,0,,,,,,true,quote_unavailable\n"])
    problems, bad_pairs = check.check_attribution(path, ["T1"], (0, 1))
    assert problems
    assert bad_pairs == 2


def test_missing_output_file_fails(tmp_path):
    (tmp_path / "curve.csv").write_text("x\n", encoding="utf-8")
    problems = check.check_stage("report", 0, "", tmp_path)
    assert problems == [
        "report: missing output rolling.csv",
        "report: missing output summary.json",
        "report: missing output report.md",
    ]
    problems, bad_pairs = check.check_attribution(tmp_path / "attribution.csv", ["T1"], (0,))
    assert problems == ["missing output attribution.csv"] and bad_pairs == 1


def test_stage_that_exits_2_fails(tmp_path):
    runner = Runner(ROOT, tmp_path, time.perf_counter() + 60)
    argv = [sys.executable, "-m", "swapmeter.cli", "analyze", "--out", "out"]
    child = runner.run(argv, "analyze")
    assert child.returncode == 2
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "attribution.csv").write_text(HEADER, encoding="utf-8")
    assert check.check_stage("analyze", child.returncode, child.stderr, tmp_path / "out") == [
        "analyze: exit code 2"
    ]


def test_traceback_fails(tmp_path):
    (tmp_path / "calibration.json").write_text("{}", encoding="utf-8")
    stderr = 'Traceback (most recent call last):\n  File "x", line 1\nValueError: x\n'
    assert check.check_stage("calibrate", 1, stderr, tmp_path) == [
        "calibrate: exit code 1",
        "calibrate: printed a traceback",
    ]


def _summary(tmp_path, classic_pi="0.0100", x_routing="5.0100"):
    def entry(pi, routing):
        return {"pi_bps": pi, "routing_bps": routing, "gas_bps": "0.0010",
                "fee_bps": "0.0000", "remainder_bps": "-0.0010"}

    payload = {"summary": {"by_path": {
        "Classic": entry(classic_pi, classic_pi),
        "X": entry("5.0100", x_routing),
        "Fusion": entry("4.9000", "4.9000"),
    }}}
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_summary_recovers_truth(tmp_path):
    assert check.check_summary(_summary(tmp_path)) == []


def test_summary_off_truth_fails(tmp_path):
    assert check.check_summary(_summary(tmp_path, classic_pi="0.3000"))
    assert check.check_summary(_summary(tmp_path, x_routing="0.0001"))


def test_drift_keeps_offset_zero(tmp_path):
    path = tmp_path / "pools.csv"
    path.write_text(
        "# swapmeter synth seed=7 n_trades=1\n"
        "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop\n"
        "-1,CP-30,20000,60000,6,30,120000\n"
        "0,CP-30,20000,60000,6,30,120000\n"
        "2,CP-30,20000,60000,6,30,120000\n",
        encoding="utf-8",
    )
    drift_pools_csv(path)
    assert path.read_text(encoding="utf-8").splitlines()[1:] == [
        "offset,pool_id,reserve_weth_raw,reserve_token_raw,token_decimals,fee_bps,gas_per_hop",
        "-1,CP-30,19986,60030,6,30,120000",
        "0,CP-30,20000,60000,6,30,120000",
        "2,CP-30,20028,59940,6,30,120000",
    ]


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for entry in spec["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }


def test_spans_give_self_time_calls_and_pairs(tmp_path):
    tracer = Tracer()

    def stats(values):
        time.sleep(0.01)

    def quote(*args):
        time.sleep(0.01)

    quote = tracer.wrap("baseline", quote)
    outer_quote = tracer.wrap("baseline", lambda *args: quote(*args))
    stats = tracer.wrap("stats", stats, work=lambda args, kwargs, result: len(args[0]))

    class Trade:
        trade_id = "T1"

    def attribute(trade, provider, offset):
        outer_quote(trade, offset)
        stats([1, 2, 3])

    attribute = tracer.wrap("attribution", attribute, pair_of=tracer._pair)
    attribute(Trade(), None, 0)
    attribute(Trade(), None, 1)
    attribute(Trade(), None, 0)
    tracer.dump(tmp_path / "spans.json")

    assert {span[4] for span in tracer.spans} == {0, 1}
    assert [span[4] for span in tracer.spans if span[3] == 0] == [0, 0]
    layers, missing, distinct = summarize(tmp_path / "spans.json")
    assert missing == {} and distinct == 0
    assert layers["baseline"].calls == 3  # the nested quote is part of the outer call
    assert layers["stats"].calls == 3 and layers["stats"].work == 9
    assert layers["attribution"].calls == 3
    assert layers["attribution"].self_s < 0.01
    assert layers["baseline"].self_s >= 0.03


def test_missing_names_are_reported_by_layer(monkeypatch):
    from swapmeter import baseline

    # Register every name the tracer replaces, so the test restores them all.
    for module_name, name, _, _ in TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, name, getattr(module, name))
    for cls in vars(baseline).values():
        if isinstance(cls, type) and "quote" in vars(cls):
            monkeypatch.setattr(cls, "quote", vars(cls)["quote"])
    monkeypatch.delattr("swapmeter.pipeline.weighted_mean_with_stat")
    tracer = Tracer()
    tracer.install()
    assert tracer.missing == {"swapmeter.pipeline.weighted_mean_with_stat": "stats"}
