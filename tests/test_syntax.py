"""Every .py file under src/ and tests/ parses as Python 3.10, the oldest version pyproject allows.

This checks syntax only (`except*`, for one, is 3.11 syntax); whether the
code uses a library API that 3.10 lacks shows only on a 3.10 run.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_source_file_parses_as_python_3_10():
    failures = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")]):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures, "\n".join(failures)
