"""Whole-file fuzz: every subcommand on small valid files, one of them mutated.

Each case starts from a small synth dataset (trades, quotes and pools, as
CSV and as JSONL), its calibration report, a config file and the spec
that made it. One file takes one byte-level or structural mutation, and
each subcommand that reads it runs on the result: `synth` for the spec,
and `calibrate`, `analyze`, `aggregate` and `report` for every other
file. Every run must exit 0, 1 or 2 without an exception, and an exit 2
must print exactly one `error:` line.
"""

import csv
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from swapmeter.cli import main
from swapmeter.ingest import QUOTE_COLUMNS, TRADE_COLUMNS

SPEC = {"seed": 3, "n_trades": 6, "path_mix": {"Classic": 0.5, "X": 0.5}, "offsets": [-1, 0]}
CONFIG = "offsets = -1..0\nwindow = 2\nf_prime_wei = 100000000\nsys_multiplier = 1\n"
FILES = [
    "trades.csv", "trades.jsonl", "quotes.csv", "quotes.jsonl", "pools.csv",
    "calibration.json", "run.cfg", "spec.json",
]
# Where a long run or deep nesting is put: right after one of these bytes,
# which open a CSV field, a JSON value or string, a config value or a line.
_SEPARATORS = b",:=\"\n["


def _jsonl(csv_text: str, columns: list[str]) -> str:
    rows = csv.reader(line for line in io.StringIO(csv_text) if not line.startswith("#"))
    assert next(rows) == columns
    return "".join(json.dumps(dict(zip(columns, row))) + "\n" for row in rows)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> dict[str, bytes]:
    root = tmp_path_factory.mktemp("files")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "run.cfg").write_text(CONFIG)
    assert main(["synth", str(root / "spec.json"), "--out", str(root)]) == 0
    data = ["--trades", str(root / "trades.csv"), "--quotes", str(root / "quotes.csv")]
    assert main(["calibrate", *data, "--out", str(root), "--config", str(root / "run.cfg")]) == 0
    (root / "trades.jsonl").write_text(_jsonl((root / "trades.csv").read_text(), TRADE_COLUMNS))
    (root / "quotes.jsonl").write_text(_jsonl((root / "quotes.csv").read_text(), QUOTE_COLUMNS))
    return {name: (root / name).read_bytes() for name in FILES}


def _insert_after_separator(data: bytes, at: int, run: bytes) -> bytes:
    """`data` with `run` put after its at-th separator (taken modulo), or first if it has none."""
    spots = [i + 1 for i, byte in enumerate(data) if byte in _SEPARATORS] or [0]
    spot = spots[at % len(spots)]
    return data[:spot] + run + data[spot:]


def _repeat_header(data: bytes, at: int) -> bytes:
    """The first line that is not a comment, repeated at a later line."""
    lines = data.splitlines(keepends=True) or [b""]
    first = next((i for i, line in enumerate(lines) if not line.startswith(b"#")), 0)
    spot = first + 1 + at % len(lines)
    return b"".join(lines[:spot] + [lines[first]] + lines[spot:])


def _swap_columns(data: bytes, at: int) -> bytes:
    """Two comma-separated pieces swapped on every line."""
    out = []
    for line in data.splitlines(keepends=True):
        body = line.rstrip(b"\r\n")
        parts = body.split(b",")
        i, j = at % len(parts), (at // 7) % len(parts)
        parts[i], parts[j] = parts[j], parts[i]
        out.append(b",".join(parts) + line[len(body):])
    return b"".join(out)


MUTATIONS = {
    "long-field": lambda data, at: _insert_after_separator(data, at, b"1" * 200_000),
    "deep-json": lambda data, at: _insert_after_separator(data, at, b"[" * 3000),
    "bom": lambda data, at: b"\xef\xbb\xbf" + data,
    "crlf": lambda data, at: data.replace(b"\n", b"\r\n"),
    "nul": lambda data, at: data[: at % (len(data) + 1)] + b"\0" + data[at % (len(data) + 1):],
    "truncated": lambda data, at: data[: at % (len(data) + 1)],
    "repeated-header": _repeat_header,
    "swapped-columns": _swap_columns,
    "not-utf8": lambda data, at: data[: at % (len(data) + 1)] + b"\xff" + data[at % (len(data) + 1):],
}


def _failures(valid_files: dict[str, bytes], name: str, mutation: str, rnd, capsys) -> list[str]:
    """Each run on the files with `name` mutated that breaks the exit contract."""
    files = dict(valid_files)
    at = rnd.randrange(10**6)
    files[name] = MUTATIONS[mutation](files[name], at)
    stem, _, kind = name.partition(".")
    jsonl = kind == "jsonl" if stem in ("trades", "quotes") else rnd.random() < 0.5
    baseline = stem if stem in ("quotes", "pools") else rnd.choice(["quotes", "pools"])
    suffix = "jsonl" if jsonl else "csv"
    baseline_file = f"quotes.{suffix}" if baseline == "quotes" else "pools.csv"
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for file_name, data in files.items():
            (root / file_name).write_bytes(data)
        run = [
            "--config", str(root / "run.cfg"),
            "--trades", str(root / f"trades.{suffix}"),
            f"--{baseline}", str(root / baseline_file),
            "--out", str(root / "out"),
        ]
        calibrated = [*run, "--calibration", str(root / "calibration.json")]
        commands = [
            ["analyze", *calibrated],
            ["aggregate", *calibrated],
            ["report", *calibrated],
            ["calibrate", *run],
        ]
        if name == "spec.json":  # the one file synth reads, and the others do not
            commands = [["synth", str(root / "spec.json"), "--out", str(root / "synth")]]
        for argv in commands:
            case = f"{argv[0]} on {name} ({mutation} at {at}; {suffix} trades, {baseline})"
            try:
                rc = main(argv)
            except (Exception, SystemExit) as exc:  # reported with its case
                failures.append(f"{case} raised {exc!r:.300}")
                continue
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if line.startswith("error:")]
            if rc not in (0, 1, 2) or (rc == 2 and len(errors) != 1):
                failures.append(f"{case} exited {rc}: {err!r:.300}")
    return failures


class TestWholeFileFuzz:
    # One example sweeps every (file, mutation) pair; the random source
    # Hypothesis draws picks where each mutation lands and which trade
    # format and baseline the commands read.
    @settings(
        max_examples=1,
        deadline=None,
        derandomize=True,
        database=None,
        phases=[Phase.generate],  # a failure lists its cases; shrinking the seed adds nothing
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(rnd=st.randoms(use_true_random=True))
    def test_every_subcommand_exits_cleanly(self, valid_files, capsys, rnd):
        failures = [
            failure
            for name in FILES
            for mutation in sorted(MUTATIONS)
            for failure in _failures(valid_files, name, mutation, rnd, capsys)
        ]
        assert not failures, "\n".join(failures)
