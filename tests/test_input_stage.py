"""Every outside file is opened in one place and every JSON text decoded by one rule.

Under src/swapmeter, only ingest.py (data files) and cli.py (the config
file, calibration report and synth spec) may open a file for reading, and
only `numeric.json_value` may call `json.load` or `json.loads`. A new
surface that grows its own reader fails here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "swapmeter"
READERS = {"ingest.py", "cli.py"}


def _modules() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _mode(call: ast.Call):
    """The mode argument of an `open` call, or None when it is left at "r"."""
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def _reads_a_file(call: ast.Call) -> bool:
    """Whether `call` is `open(...)` or `<x>.open(...)` for reading, or `<x>.read_text/bytes()`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("read_text", "read_bytes") and isinstance(func, ast.Attribute):
        return True
    if name != "open":
        return False
    mode = _mode(call)
    if mode is None:
        return True
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a computed mode may read
    return "r" in mode.value or "+" in mode.value


def _file_reads() -> dict[str, int]:
    reads: dict[str, int] = {}
    for name, module in _modules().items():
        for node in ast.walk(module):
            if isinstance(node, ast.Call) and _reads_a_file(node):
                reads[name] = reads.get(name, 0) + 1
    return reads


def _json_loads() -> list[str]:
    """`<module>.<function>` of each use of json.load or json.loads, or of an import of it."""
    uses = []
    for name, module in _modules().items():
        for node in module.body:
            scope = getattr(node, "name", "<module>")
            for sub in ast.walk(node):
                imported = isinstance(sub, ast.ImportFrom) and sub.module == "json" and any(
                    alias.name in ("load", "loads") for alias in sub.names
                )
                attribute = (
                    isinstance(sub, ast.Attribute)
                    and sub.attr in ("load", "loads")
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "json"
                )
                if imported or attribute:
                    uses.append(f"{name[:-3]}.{scope}")
    return uses


def test_only_ingest_and_cli_open_files_for_reading():
    reads = _file_reads()
    assert set(reads) == READERS, f"modules that open a file for reading: {reads}"


def test_only_json_value_decodes_json():
    assert _json_loads() == ["numeric.json_value"]


def test_a_write_is_not_a_read():
    calls = {
        'open(p, "x")': False,
        'open(p, mode="w")': False,
        "open(p)": True,
        'open(p, "r+")': True,
        "open(p, m)": True,
        "p.open()": True,
        "p.read_text()": True,
        "p.write_text(t)": False,
    }
    for source, reads in calls.items():
        call = ast.parse(source, mode="eval").body
        assert _reads_a_file(call) is reads, source
