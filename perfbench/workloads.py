"""Workload definitions for the swapmeter benchmark and the input generator.

Every workload uses the README demo mix (paths Classic/Aggregator/X/Fusion
at 0.4/0.1/0.4/0.1, a 5 bps OFA bonus, offsets -4..3). The benchmark's
seed becomes the scenario seed, so the same seed gives the same bytes.
The program under test only ever sees the generated files.

BENCHMARK.json lists replay-2k and router-2k. router-drift runs when named
or with `--workload all`: on a shared host, CPU speed can drift over tens
of seconds, so a steady figure needs runs of about a minute, and the
benchmark's time budget holds two such workloads, not three.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

OFFSETS = tuple(range(-4, 4))
OFFSETS_FLAG = "--offsets=-4..3"

DEMO_SPEC = {
    "size_distribution": {"type": "log_uniform", "min_usd": "1000", "max_usd": "200000"},
    "path_mix": {"Classic": 0.4, "Aggregator": 0.1, "X": 0.4, "Fusion": 0.1},
    "ofa_liquidity_bonus_bps": "5",
    "offsets": list(OFFSETS),
}

# The synth defaults plus three pools that shift the optimal split, all
# with 6 token decimals: 6 pools is 63 candidate subsets per route.
DRIFT_POOLS = [
    {"pool_id": "CP-30", "reserve_weth": "20000", "reserve_token": "60000000",
     "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 120000},
    {"pool_id": "CP-05", "reserve_weth": "8000", "reserve_token": "24000000",
     "token_decimals": 6, "fee_bps": 5, "gas_per_hop": 120000},
    {"pool_id": "CP-100", "reserve_weth": "600", "reserve_token": "1800000",
     "token_decimals": 6, "fee_bps": 100, "gas_per_hop": 90000},
    {"pool_id": "CP-01", "reserve_weth": "3000", "reserve_token": "9000000",
     "token_decimals": 6, "fee_bps": 1, "gas_per_hop": 130000},
    {"pool_id": "CP-30b", "reserve_weth": "5000", "reserve_token": "15100000",
     "token_decimals": 6, "fee_bps": 30, "gas_per_hop": 110000},
    {"pool_id": "CP-05b", "reserve_weth": "1500", "reserve_token": "4480000",
     "token_decimals": 6, "fee_bps": 5, "gas_per_hop": 125000},
]

# Per-offset reserve drift, in parts per 10,000 per block offset.
# Offset 0 is left unchanged, so the anchor still recovers the synth truth.
DRIFT_WETH_PER_OFFSET = 7
DRIFT_TOKEN_PER_OFFSET = -5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_trades: int
    baseline: str  # "quotes" (replay) or "pools" (synthetic router)
    calibrated: bool  # calibrate, then three beta passes; else --no-correction
    window: int
    pools: list | None = None  # None keeps the synth default pools
    drift: bool = False

    @property
    def pairs(self) -> int:
        return self.n_trades * len(OFFSETS)

    @property
    def stages(self) -> tuple[str, ...]:
        return ("calibrate", "analyze", "report") if self.calibrated else ("analyze", "report")

    def spec(self, seed: int) -> dict:
        spec = {"seed": seed, "n_trades": self.n_trades, **DEMO_SPEC}
        if self.pools is not None:
            spec["pools"] = self.pools
        return spec

    def stage_args(self, stage: str) -> list[str]:
        """CLI arguments of one stage, relative to the run's work directory."""
        baseline = ["--quotes", "data/quotes.csv"] if self.baseline == "quotes" else [
            "--pools", "data/pools.csv"
        ]
        args = [stage, "--trades", "data/trades.csv", *baseline, "--out", "out"]
        if stage == "calibrate":
            return args
        args += [OFFSETS_FLAG, "--window", str(self.window)]
        if not self.calibrated:
            args.append("--no-correction")
        return args


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="replay-2k",
            why="replay quotes leave the router idle; attribution passes, rolling stats "
            "and quote ingest dominate, so a router change must show no change here",
            n_trades=2000,
            baseline="quotes",
            calibrated=True,
            window=200,
        ),
        Workload(
            name="router-2k",
            why="every offset shares one pool snapshot, so only 5.8% of router calls "
            "are distinct: router memoisation and quote-once show at full strength",
            n_trades=2000,
            baseline="pools",
            calibrated=True,
            window=200,
        ),
        Workload(
            name="router-drift",
            why="reserves drift per offset over 6 pools, so every router call is "
            "distinct: a memo must cost nothing and a faster router kernel shows",
            n_trades=1000,
            baseline="pools",
            calibrated=False,
            window=20,
            pools=DRIFT_POOLS,
            drift=True,
        ),
    )
}


def drift_pools_csv(path: Path) -> None:
    """Rewrite a synth pools.csv so that reserves drift with the offset."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    columns = list(rows[0])
    for row in rows:
        offset = int(row["offset"])
        weth = int(row["reserve_weth_raw"])
        token = int(row["reserve_token_raw"])
        row["reserve_weth_raw"] = str(weth * (10000 + DRIFT_WETH_PER_OFFSET * offset) // 10000)
        row["reserve_token_raw"] = str(
            token * (10000 + DRIFT_TOKEN_PER_OFFSET * offset) // 10000
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in comments:
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
