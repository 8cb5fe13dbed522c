"""Output checks for one benchmark repetition.

Every check returns a list of problems; an empty list means the outputs
are right. The checks hold for any scenario seed: they test invariants
and the synth ground truth, never the bytes of one seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

STAGE_OUTPUTS = {
    "calibrate": ("calibration.json",),
    "analyze": ("attribution.csv",),
    "report": ("curve.csv", "rolling.csv", "summary.json", "report.md"),
    "synth": ("trades.csv", "pools.csv", "quotes.csv"),
}

PART_COLUMNS = ("pi_routing_bps", "pi_gas_bps", "pi_fee_bps", "pi_remainder_bps")
# Each of the five printed values is rounded half-even to 4 decimal places.
SUM_TOLERANCE_BPS = 5 * Decimal("0.00005")

OFA_BONUS_BPS = Decimal(5)
RECOVERY_TOLERANCE_BPS = Decimal("0.25")


def check_stage(stage: str, returncode: int, stderr: str, out_dir: Path) -> list[str]:
    """A stage passes when it exits 0, prints no traceback and writes its files."""
    problems = []
    if returncode != 0:
        problems.append(f"{stage}: exit code {returncode}")
    if "Traceback" in stderr:
        problems.append(f"{stage}: printed a traceback")
    for name in STAGE_OUTPUTS[stage]:
        if not (out_dir / name).is_file():
            problems.append(f"{stage}: missing output {name}")
    return problems


def _data_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def check_attribution(
    path: Path, trade_ids: list[str], offsets: tuple[int, ...]
) -> tuple[list[str], int]:
    """Check attribution.csv; returns (problems, pairs excluded or missing).

    Every (trade, offset) pair must appear once, valued, with pi_bps equal
    to the sum of its four parts within the rounding of the printed digits.
    """
    expected = {(t, o) for t in trade_ids for o in offsets}
    if not path.is_file():
        return [f"missing output {path.name}"], len(expected)
    problems = []
    seen = set()
    excluded = 0
    for row in _data_rows(path):
        key = (row["trade_id"], int(row["offset"]))
        if key in seen:
            problems.append(f"attribution: duplicate row {key}")
        seen.add(key)
        if row["excluded_flag"] != "false":
            excluded += 1
            continue
        try:
            pi = Decimal(row["pi_bps"])
            parts = sum(Decimal(row[c]) for c in PART_COLUMNS)
        except InvalidOperation:
            problems.append(f"attribution: unparsable row {key}")
            continue
        if abs(pi - parts) > SUM_TOLERANCE_BPS:
            problems.append(f"attribution: parts of {key} sum to {parts}, pi_bps is {pi}")
    missing = len(expected - seen)
    if missing or len(seen) != len(expected):
        problems.append(
            f"attribution: {len(seen)} distinct pairs, expected {len(expected)} "
            f"({missing} missing)"
        )
    if excluded:
        problems.append(f"attribution: {excluded} pairs excluded")
    return problems, excluded + missing


def check_summary(path: Path) -> list[str]:
    """At the anchor offset the synth truth is recovered.

    X and Fusion carry the 5 bps OFA bonus, with routing the dominant
    part; Classic is self-baselined and comes out at 0.
    """
    if not path.is_file():
        return [f"missing output {path.name}"]
    with open(path, encoding="utf-8") as fh:
        by_path = json.load(fh)["summary"]["by_path"]
    problems = []
    for group, truth in (("X", OFA_BONUS_BPS), ("Fusion", OFA_BONUS_BPS), ("Classic", 0)):
        entry = by_path.get(group)
        if entry is None:
            problems.append(f"summary: no {group} group at the anchor offset")
            continue
        pi = Decimal(entry["pi_bps"])
        if abs(pi - truth) > RECOVERY_TOLERANCE_BPS:
            problems.append(f"summary: {group} pi_bps {pi} is not within 0.25 of {truth}")
        if truth:
            routing = abs(Decimal(entry["routing_bps"]))
            others = [abs(Decimal(entry[k])) for k in ("gas_bps", "fee_bps", "remainder_bps")]
            if routing <= max(others):
                problems.append(f"summary: routing is not the dominant part of {group} pi")
    return problems


def trade_ids(trades_csv: Path) -> list[str]:
    return [row["trade_id"] for row in _data_rows(trades_csv)]


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output file, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }
