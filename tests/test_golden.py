"""Golden outputs: the pipeline's bytes are pinned, not only self-consistent.

tests/golden/<baseline>/ holds the expected calibration.json,
attribution.csv, curve.csv, rolling.csv and summary.json of the
acceptance test_10 scenario (seed 1001, N=150, offsets -1..1, window 25),
run once with replay quotes (`--quotes`) and once with the synthetic
router (`--pools`). Every path is relative to the run directory, so the
provenance hash embedded in each file is stable. A change to these bytes
must be intended; regenerate them by running the same commands and
copying `out/` over the golden directory.
"""

import json
from pathlib import Path

import pytest

from swapmeter.cli import main

GOLDEN = Path(__file__).parent / "golden"
FILES = ("calibration.json", "attribution.csv", "curve.csv", "rolling.csv", "summary.json")
SPEC = {
    "seed": 1001,
    "n_trades": 150,
    "path_mix": {"Classic": 0.5, "X": 0.5},
    "ofa_liquidity_bonus_bps": "5",
    "offsets": [-1, 0, 1],
}
BASELINES = {"quotes": ["--quotes", "data/quotes.csv"], "pools": ["--pools", "data/pools.csv"]}


@pytest.mark.parametrize("baseline", sorted(BASELINES))
def test_outputs_match_golden_bytes(baseline, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("scenario.json").write_text(json.dumps(SPEC))
    assert main(["synth", "scenario.json", "--out", "data"]) == 0
    base = ["--trades", "data/trades.csv", *BASELINES[baseline], "--out", "out", "--offsets=-1..1"]
    assert main(["calibrate", *base]) == 0
    assert main(["analyze", *base]) == 0
    assert main(["aggregate", *base, "--window", "25"]) == 0
    for name in FILES:
        actual = (tmp_path / "out" / name).read_bytes()
        assert actual == (GOLDEN / baseline / name).read_bytes(), f"{baseline}/{name} differs"
