"""Every file a run reads words a fault the same way, and a fatal one names the file.

The surfaces are trades as CSV and as JSONL, quotes, pools, the config
file, the calibration report and the synth spec. The faults are a
missing file, text that is not UTF-8 and, where the file is JSON,
invalid JSON, nesting past the recursion limit, an integer literal
past int()'s digit limit and an object that repeats a key. A fault in a JSONL line rejects that row, and
the run exits 1; any other fault ends the run with exit 2 and one
`error:` line that names the file. The reason after the surface's own
prefix is the same on every surface.
"""

import json
from pathlib import Path

import pytest

from swapmeter.cli import main

SPEC = {"seed": 3, "n_trades": 6, "path_mix": {"Classic": 0.5, "X": 0.5}, "offsets": [-1, 0]}
CONFIG = "offsets = -1..0\nwindow = 2\n"

SURFACES = {
    "trades-csv": "trades.csv",
    "trades-jsonl": "trades.jsonl",
    "quotes": "quotes.csv",
    "pools": "pools.csv",
    "config": "run.cfg",
    "calibration": "calibration.json",
    "spec": "spec.json",
}
JSON_SURFACES = {"trades-jsonl", "calibration", "spec"}

# fault -> (the file's bytes, None for no file; the reason every surface gives)
FAULTS = {
    "missing": (None, "No such file or directory"),
    "not-utf8": (b"\xff\n", "not UTF-8 text"),
    "invalid-json": (b"nope\n", "invalid JSON: Expecting value"),
    "deep-json": (b"[" * 3000 + b"\n", "invalid JSON: nested too deeply"),
    "overlong-int": (
        b'{"n": ' + b"9" * 5000 + b"}\n",
        "invalid JSON: an integer has too many digits",
    ),
    # the later value used to win without a word
    "repeated-key": (b'{"n": 1, "n": 2}\n', "invalid JSON: repeated key 'n'"),
}
CASES = [
    (surface, fault)
    for surface in SURFACES
    for fault in FAULTS
    if fault in ("missing", "not-utf8") or surface in JSON_SURFACES
]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("valid")
    (root / "spec.json").write_text(json.dumps(SPEC))
    (root / "run.cfg").write_text(CONFIG)
    assert main(["synth", str(root / "spec.json"), "--out", str(root)]) == 0
    data = ["--trades", str(root / "trades.csv"), "--quotes", str(root / "quotes.csv")]
    assert main(["calibrate", *data, "--out", str(root)]) == 0
    lines = (root / "trades.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")]
    (root / "trades.jsonl").write_text(
        "".join(json.dumps(dict(zip(rows[0], row))) + "\n" for row in rows[1:])
    )
    return root


def _argv(surface: str, files: dict[str, Path], root: Path) -> list[str]:
    if surface == "spec":
        return ["synth", str(files["spec"]), "--out", str(root / "synth")]
    trades = files["trades-jsonl" if surface == "trades-jsonl" else "trades-csv"]
    baseline = "pools" if surface == "pools" else "quotes"
    return [
        "analyze",
        "--config", str(files["config"]),
        "--trades", str(trades),
        f"--{baseline}", str(files[baseline]),
        "--calibration", str(files["calibration"]),
        "--out", str(root / "out"),
    ]


@pytest.mark.parametrize("surface, fault", CASES, ids=[f"{s}-{f}" for s, f in CASES])
def test_each_surface_words_each_fault_alike(valid_files, tmp_path, capsys, surface, fault):
    files = {name: valid_files / file_name for name, file_name in SURFACES.items()}
    bad = tmp_path / SURFACES[surface]
    data, reason = FAULTS[fault]
    if data is not None:
        if surface == "trades-jsonl":  # one bad line before the valid ones
            data += files[surface].read_bytes()
        bad.write_bytes(data)
    files[surface] = bad
    rc = main(_argv(surface, files, tmp_path))
    err = capsys.readouterr().err
    if surface == "trades-jsonl" and fault not in ("missing", "not-utf8"):
        assert rc == 1
        assert err.splitlines() == [f"reject line 1: {reason}"]
        return
    if surface == "calibration" and fault == "missing":
        # a missing report says how to make one
        reason = "not found; run `swapmeter calibrate` or pass --no-correction"
        assert err == f"error: calibration report {bad} {reason}\n"
    else:
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert err.rstrip("\n").endswith(f"{bad}: {reason}")
    assert rc == 2
